"""Named symbolic identity suite.

Each check has a stable name so the CLI can run a selection and emit one
report entry per identity.  A selection computes only the checks it names:
every section helper builds a check's name first and decides that identity
only when the selection wants it.  The identities the paper states for an
arbitrary real skew matrix are decided once over a skew matrix with
symbolic entries, axial(b1, b2, b3) (a second one, axial(c1, c2, c3), for
additivity), which proves them for every such matrix; no case is sampled
and no seed is used.  The negative-control switch flips the sign of the
commutator route inside the gauge cross-check only: a deliberate
wrong-convention injection that must leave additivity passing while the
curl comparison fails, confirming the suite actually has teeth.

Every identity but the logical ``noncommuting_iff_field`` is decided here,
by ``_exact`` alone: a check is a name and a lazily built sequence of
(lhs, rhs) pairs of operators or coordinate functions, compared by their
one exact ``equals``.  A failing check carries the canonically reduced
difference of its first unequal pair as its residual.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Callable

from .coords import CoordFunction
from .deform import (DeformationMatrix, DeformationSpec, QSpec,
                     deform_coordinate, deform_operator,
                     invert_transverse_block, momentum_shift_via_commutators,
                     rieffel_product, shifted_momentum)
from .gauge import (bianchi_sums, extract_gauge_field, field_strength,
                    jacobi_maxwell_sums, lorentz_force)
from .models import (PRESETS, get_preset, guiding_center,
                     uncertainty_area_symbolic)
from .operators import HALF_OVER_M, OperatorExpr
from .scalars import QC

CATALOG_GENERATORS = (
    ("Q=X", QSpec.coordinate),
    ("Q=X_r1", lambda: QSpec.radial_power(1)),
    ("Q=X_r3_2", lambda: QSpec.radial_power(Fraction(3, 2))),
    ("Q=X_r2", lambda: QSpec.radial_power(2)),
    ("Q=X_rho", QSpec.transverse_radial),
)

COEFFICIENT_EXPONENTS = (Fraction(-1), Fraction(0), Fraction(1),
                         Fraction(3, 2), Fraction(2), Fraction(3))


# Every real skew 3x3 matrix is axial(b1, b2, b3) for some real b.
SKEW_B = DeformationMatrix.axial(*(CoordFunction.constant(f"b{k}")
                                   for k in (1, 2, 3)))
SKEW_C = DeformationMatrix.axial(*(CoordFunction.constant(f"c{k}")
                                   for k in (1, 2, 3)))


class Check:
    def __init__(self, name: str, passed: bool, detail: str = "",
                 residual: str = ""):
        self.name = name
        self.passed = bool(passed)
        self.detail = detail
        self.residual = residual

    def to_json_dict(self) -> dict:
        out = {"name": self.name, "passed": self.passed}
        if self.detail:
            out["detail"] = self.detail
        if self.residual:
            out["residual"] = self.residual
        return out


Wants = Callable[[str], bool]


def _exact(name: str, pairs, detail: str = "") -> Check:
    """Check ``name``: each (lhs, rhs) pair of operators or coordinate
    functions is equal.  A failure reports the reduced difference of the
    first unequal pair; a pass computes nothing beyond the comparisons."""
    for lhs, rhs in pairs:
        if not lhs.equals(rhs):
            return Check(name, False, detail, str((lhs - rhs).reduced()))
    return Check(name, True, detail)


def _deformed_hamiltonian_closed_form(tag: str, spec: DeformationSpec,
                                      shifts: Callable[[], list],
                                      wants: Wants) -> list[Check]:
    """deform(H0) against (1/2m) sum_j Phat_j^2 with the shift rebuilt from
    engine commutators, i G = i (B Q)_k [Q_k, P_j]; ``shifts()`` gives that
    shift, computed once for both closed-form sections."""
    name = f"deformed_hamiltonian::{tag}"
    if not wants(name):
        return []
    lhs = deform_operator(OperatorExpr.free_hamiltonian(), spec)
    rhs = OperatorExpr.zero()
    for j, shift in enumerate(shifts(), start=1):
        phat = OperatorExpr.momentum(j) + OperatorExpr.from_coord(shift)
        rhs = rhs + phat * phat
    return [_exact(name, [(lhs, rhs.scale(HALF_OVER_M))])]


def _deformed_momentum_closed_form(tag: str, spec: DeformationSpec,
                                   shifts: Callable[[], list],
                                   wants: Wants) -> list[Check]:
    name = f"deformed_momentum::{tag}"
    if not wants(name):
        return []
    return [_exact(name, (
        (deform_operator(OperatorExpr.momentum(j), spec),
         OperatorExpr.momentum(j) + OperatorExpr.from_coord(shift))
        for j, shift in enumerate(shifts(), start=1)))]


def _deformed_coordinate_check(wants: Wants) -> list[Check]:
    if not wants("deformed_coordinate"):
        return []
    coords = deform_coordinate(SKEW_B)
    return [_exact("deformed_coordinate", (
        (coords[j], OperatorExpr.position(j + 1) - sum(
            (OperatorExpr.momentum(k + 1).coord_multiply(SKEW_B.rows[j][k])
             for k in range(3)), OperatorExpr.zero()))
        for j in range(3)))]


def _factorization_pairs(spec: DeformationSpec):
    """deform(H0) against the squared deformed momenta over 2m."""
    squares = OperatorExpr.zero()
    for j in (1, 2, 3):
        pj = deform_operator(OperatorExpr.momentum(j), spec)
        squares = squares + pj * pj
    yield (deform_operator(OperatorExpr.free_hamiltonian(), spec),
           squares.scale(HALF_OVER_M))


def _factorization_checks(wants: Wants) -> list[Check]:
    named = ((f"factorization::{tag}", make_q)
             for tag, make_q in CATALOG_GENERATORS)
    return [_exact(name, _factorization_pairs(DeformationSpec(SKEW_B, make_q())))
            for name, make_q in named if wants(name)]


def _additivity_pairs():
    """Deforming by B and then by C against deforming once by B + C."""
    h0 = OperatorExpr.free_hamiltonian()
    for q in (QSpec.coordinate(), QSpec.radial_power(1),
              QSpec.radial_power(2), QSpec.transverse_radial()):
        twice = deform_operator(deform_operator(h0, DeformationSpec(SKEW_B, q)),
                                DeformationSpec(SKEW_C, q))
        yield twice, deform_operator(h0, DeformationSpec(SKEW_B + SKEW_C, q))


def _additivity_check(wants: Wants) -> list[Check]:
    if not wants("additivity"):
        return []
    return [_exact("additivity", _additivity_pairs(),
                   detail="B = axial(b1, b2, b3), C = axial(c1, c2, c3); "
                          "Q = X, X/r, X/r^2, X/rho")]


def _rieffel_checks(wants: Wants) -> list[Check]:
    out = []
    plain = (OperatorExpr.momentum(1) * OperatorExpr.momentum(1)
             + OperatorExpr.momentum(2) * OperatorExpr.momentum(2)
             + OperatorExpr.momentum(3) * OperatorExpr.momentum(3))
    for tag, make_q in CATALOG_GENERATORS:
        name = f"rieffel_diagonal::{tag}"
        if not wants(name):
            continue
        spec = DeformationSpec(SKEW_B, make_q())
        total = OperatorExpr.zero()
        for k in (1, 2, 3):
            pk = OperatorExpr.momentum(k)
            total = total + rieffel_product(pk, pk, spec)
        # The deformed scalar product also reproduces the free Hamiltonian.
        out.append(_exact(name, [
            (total, plain),
            (total.scale(HALF_OVER_M), OperatorExpr.free_hamiltonian())]))
    return out


def _coefficient_checks(wants: Wants) -> list[Check]:
    """The radial-generator bracket coefficients a(n) = n^2 - 3n and
    n^2 - 2n + 3, recovered from engine anticommutators and products."""
    out = []
    for n in COEFFICIENT_EXPONENTS:
        q = QSpec.radial_power(n)
        a_n = n * n - 3 * n
        name = f"coefficient_anticommutator::n={n}"
        if wants(name):
            pairs = []
            for k in (1, 2, 3):
                acc = OperatorExpr.zero()
                qk = OperatorExpr.from_coord(q.components[k - 1])
                for j in (1, 2, 3):
                    pj = OperatorExpr.momentum(j)
                    acc = acc + pj.anticommutator(pj.commutator(qk))
                expected = (CoordFunction.x(k) * CoordFunction.r_power(-(n + 2))
                            ).scale(QC(-a_n))
                pairs.append((acc.coordinate_part(), expected))
            out.append(_exact(name, pairs, detail=f"|a(n)| = |{a_n}|"))

        norm = n * n - 2 * n + 3
        name = f"coefficient_gradient_norm::n={n}"
        if wants(name):
            acc = OperatorExpr.zero()
            for l in (1, 2, 3):
                ql = OperatorExpr.from_coord(q.components[l - 1])
                for j in (1, 2, 3):
                    c = ql.commutator(OperatorExpr.momentum(j))
                    acc = acc + c * c
            expected = OperatorExpr.from_coord(
                CoordFunction.r_power(-2 * n).scale(QC(-norm)))
            out.append(_exact(name, [(acc, expected)],
                              detail=f"n^2-2n+3 = {norm}"))
    return out


def _adjoint_checks(wants: Wants) -> list[Check]:
    """The adjoint on its own, so that the hermitian checks below cannot
    pass merely because ``adjoint`` returns its operand."""
    i = QC(0, Fraction(1))
    x1p1 = OperatorExpr.position(1) * OperatorExpr.momentum(1)
    # A and B do not commute, so (AB)^dag = B^dag A^dag is not (BA)^dag.
    a = (OperatorExpr.position(1) * OperatorExpr.position(2)
         * OperatorExpr.momentum(1))
    b = (OperatorExpr.momentum(1) * OperatorExpr.momentum(2)
         + OperatorExpr.position(3).scale(i))
    cases = (
        ("adjoint::X1*P1", lambda: (x1p1.adjoint(),
                                    x1p1 - OperatorExpr.scalar(i))),
        ("adjoint::i*X1", lambda: (OperatorExpr.position(1).scale(i).adjoint(),
                                   OperatorExpr.position(1).scale(-i))),
        ("adjoint::product_reversal", lambda: ((a * b).adjoint(),
                                               b.adjoint() * a.adjoint())),
    )
    return [_exact(name, [sides()]) for name, sides in cases if wants(name)]


def _model_checks(wants: Wants) -> list[Check]:
    out = []
    for name in sorted(PRESETS):
        reference, linearized, hermitian = (
            f"model::{name}", f"model_linearized::{name}", f"hermitian::{name}")
        if not (wants(reference) or wants(linearized) or wants(hermitian)):
            continue
        preset = get_preset(name)
        if wants(reference):
            out.append(_exact(reference, [(preset.deformed(),
                                           preset.reference_hamiltonian)]))
        if preset.linearized_reference is not None and wants(linearized):
            # Compared after the explicit degree >= 2 truncation in the
            # small constants.
            out.append(_exact(linearized, [tuple(
                h.truncate_to_linear(preset.small_constants)
                for h in (preset.deformed(), preset.linearized_reference))]))
        if wants(hermitian):
            out.append(_exact(hermitian, [(preset.deformed(),
                                           preset.deformed().adjoint())]))
    for kind in ("constant", "lense_thirring"):
        name = f"order_independence::{kind}"
        if not wants(name):
            continue
        preset = get_preset(f"combined_{kind}")
        base = preset.base_hamiltonian()
        s1, s2 = preset.specs
        one_way = deform_operator(deform_operator(base, s1), s2)
        other = deform_operator(deform_operator(base, s2), s1)
        out.append(_exact(name, [(one_way, other)]))
    return out


def _moyal_checks(wants: Wants) -> list[Check]:
    out = []
    if wants("moyal_plane_random"):
        coords = deform_coordinate(SKEW_B)
        out.append(_exact("moyal_plane_random", (
            (coords[i].commutator(coords[j]), OperatorExpr.from_coord(
                SKEW_B.rows[i][j].scale(QC(0, Fraction(2)))))
            for i in range(3) for j in range(3)),
            detail="[X_th_i, X_th_j] = 2 i theta_ij, "
                   "theta = axial(b1, b2, b3) (equals -2 i "
                   "theta^ij in the raised-index display)"))

    if wants("guiding_center_plane"):
        bmat = DeformationMatrix.axial(-CoordFunction.constant("Omega")
                                       * CoordFunction.constant("m"))
        _, comms = guiding_center(bmat)
        binv = invert_transverse_block(bmat, 1)
        out.append(_exact("guiding_center_plane", (
            (comms[i][j], binv.rows[j][i].scale(QC(0, Fraction(1))))
            for i in range(3) for j in range(3)),
            detail="[Xg_i, Xg_j] = i (B^-1)_ji exactly"))

    if wants("uncertainty_area_symbolic"):
        # 2 pi hbar / (m Omega)
        expected = (CoordFunction.constant("Omega", -1, 2)
                    * CoordFunction.constant("m", -1)
                    * CoordFunction.constant("hbar")
                    * CoordFunction.constant("pi"))
        out.append(_exact("uncertainty_area_symbolic", [(
            uncertainty_area_symbolic(), expected)]))
    return out


def _cross_check_pairs(preset, negative_control: bool):
    """Entries of F from the commutators of the shifted momenta, paired with
    the entries of the curl of A, spec by spec."""
    g = preset.coupling
    for spec in preset.specs:
        comm = [f for row in field_strength(spec, g).rows for f in row]
        if negative_control:
            # Wrong-convention injection: divide by +ig instead of -ig.
            comm = [-f for f in comm]
        curl = extract_gauge_field(spec, g).curl()
        yield from zip(comm, (f for row in curl.rows for f in row))


def _gauge_checks(wants: Wants, negative_control: bool = False) -> list[Check]:
    out = []
    for name in sorted(PRESETS):
        check = f"gauge_cross_check::{name}"
        if wants(check):
            out.append(_exact(check, _cross_check_pairs(get_preset(name),
                                                        negative_control)))

    for name in ("landau", "aharonov_bohm", "lense_thirring",
                 "gravito_constant"):
        if wants(f"bianchi::{name}"):
            out.append(_exact(f"bianchi::{name}", (
                (total, CoordFunction.zero())
                for spec in get_preset(name).specs
                for total in bianchi_sums(field_strength(spec)))))

    if wants("ab_field_strength_zero_off_axis"):
        ab = get_preset("aharonov_bohm")
        fs = field_strength(ab.specs[0], ab.coupling)
        out.append(_exact("ab_field_strength_zero_off_axis", (
            (f, CoordFunction.zero()) for row in fs.rows for f in row)))

    for name in ("landau", "aharonov_bohm", "zeeman"):
        if wants(f"jacobi_maxwell::{name}"):
            preset = get_preset(name)
            out.append(_exact(f"jacobi_maxwell::{name}", (
                (total, OperatorExpr.zero()) for total in jacobi_maxwell_sums(
                    preset.specs[0], preset.scalar_potential(),
                    preset.coupling))))

    for name in ("landau", "zeeman", "aharonov_bohm", "lense_thirring"):
        if wants(f"lorentz_force::{name}"):
            preset = get_preset(name)
            out.append(_exact(f"lorentz_force::{name}", (
                pair for spec in preset.specs
                for pair in lorentz_force(spec, preset.scalar_potential(),
                                          preset.coupling))))

    if wants("noncommuting_iff_field"):
        landau = get_preset("landau")
        fs = field_strength(landau.specs[0], landau.coupling)
        p2 = shifted_momentum(landau.specs[0], 2)
        p3 = shifted_momentum(landau.specs[0], 3)
        noncomm = not p2.commutator(p3).equals(OperatorExpr.zero())
        fnonzero = not fs[(2, 3)].is_zero()
        out.append(Check("noncommuting_iff_field",
                         noncomm == fnonzero and fnonzero))

    if wants("gauge_field_linearity"):
        lam, e = CoordFunction.constant("lam"), CoordFunction.constant("e")
        spec = DeformationSpec(SKEW_B, QSpec.radial_power(2))
        scaled = DeformationSpec(SKEW_B.scale(lam), spec.generator)
        a1 = extract_gauge_field(spec, e)
        a2 = extract_gauge_field(scaled, e)
        out.append(_exact("gauge_field_linearity", (
            (a2.components[i], a1.components[i].scale(lam))
            for i in range(3))))
    return out


def run_suite(select: list[str] | None = None,
              negative_control: bool = False) -> dict:
    """Run the identity suite, or the checks whose names start with one of
    the ``select`` prefixes; a selection computes only the checks it names."""
    prefixes = None if select is None else tuple(select)

    def wants(name: str) -> bool:
        return prefixes is None or name.startswith(prefixes)

    checks: list[Check] = []
    for tag, make_q in CATALOG_GENERATORS:
        spec = DeformationSpec(SKEW_B, make_q())
        shifts = functools.cache(
            functools.partial(momentum_shift_via_commutators, spec))
        checks += _deformed_hamiltonian_closed_form(tag, spec, shifts, wants)
        checks += _deformed_momentum_closed_form(tag, spec, shifts, wants)
    checks += _deformed_coordinate_check(wants)
    checks += _factorization_checks(wants)
    checks += _additivity_check(wants)
    checks += _rieffel_checks(wants)
    checks += _coefficient_checks(wants)
    checks += _adjoint_checks(wants)
    checks += _model_checks(wants)
    checks += _moyal_checks(wants)
    checks += _gauge_checks(wants, negative_control)
    return {
        "negative_control": negative_control,
        "all_pass": all(c.passed for c in checks),
        "checks": [c.to_json_dict() for c in checks],
    }

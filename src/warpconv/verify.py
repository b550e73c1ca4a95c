"""Named symbolic identity suite.

Each check has a stable name so the CLI can run a selection and emit one
report entry per identity.  The checks form one table: each section helper
lists its rows, (name, pairs) or (name, pairs, detail), where ``pairs`` is
a thunk that builds the check's (lhs, rhs) pairs, and hands them to
``_decide``, the one filter.  Listing the rows computes nothing, not even a
catalog preset; ``_decide`` calls the thunks of, and decides, only the rows
the selection names, in the order listed.  The identities the paper states
for an arbitrary real skew matrix are decided once over a skew matrix with
symbolic entries, axial(b1, b2, b3) (a second one, axial(c1, c2, c3), for
additivity), which proves them for every such matrix; no case is sampled
and no seed is used.  The negative-control switch flips the sign of the
commutator route inside the gauge cross-check only: a deliberate
wrong-convention injection that must leave additivity passing while the
curl comparison fails, confirming the suite actually has teeth.

A field strength is antisymmetric, F_ij = epsilon_ijk B^k, so the gauge
checks read the axial triple B = (F23, F31, F12), and the Bianchi check
div B.  The cross-check compares B3, B2, B1, that is F12, F31, F23, so
a failing row reports the residual of F12 first, its first unequal pair.

Every identity is decided here, by ``_exact`` alone, which compares each
pair by its one exact ``equals`` and builds the check's report entry.  A
failing check carries the canonically reduced difference of its first
unequal pair as its residual.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, partial
from typing import Callable

from .coords import CoordFunction
from .deform import (GENERATORS, DeformationSpec, deform_coordinate,
                     deform_operator, invert_transverse_block,
                     momentum_shift_via_commutators, rieffel_product, skew)
from .gauge import (bianchi_sum, curl, extract_gauge_field, field_strength,
                    jacobi_maxwell_sums, lorentz_force)
from .models import (LINEARIZED_PRESETS, PRESETS, get_preset, guiding_center,
                     uncertainty_area_symbolic)
from .operators import HALF_OVER_M, OperatorExpr
from .scalars import QC

_COORDINATE = GENERATORS["coordinate"]
_RADIAL = GENERATORS["radial-power"]
_TRANSVERSE = GENERATORS["transverse-radial"]

CATALOG_GENERATORS = (
    ("Q=X", _COORDINATE),
    ("Q=X_r1", partial(_RADIAL, 1)),
    ("Q=X_r3_2", partial(_RADIAL, Fraction(3, 2))),
    ("Q=X_r2", partial(_RADIAL, 2)),
    ("Q=X_rho", _TRANSVERSE),
)

COEFFICIENT_EXPONENTS = (Fraction(-1), Fraction(0), Fraction(1),
                         Fraction(3, 2), Fraction(2), Fraction(3))


# Every real skew 3x3 matrix is axial(b1, b2, b3) for some real b.
SKEW_B = tuple(CoordFunction.constant(f"b{k}") for k in (1, 2, 3))
SKEW_C = tuple(CoordFunction.constant(f"c{k}") for k in (1, 2, 3))
_SKEW_B_ROWS = skew(SKEW_B)


Wants = Callable[[str], bool]


def _exact(name: str, pairs, detail: str = "") -> dict:
    """The report entry of check ``name``: each (lhs, rhs) pair of
    operators or coordinate functions is equal.  The entry is {"name",
    "passed"[, "detail"][, "residual"]}; a failure reports the reduced
    difference of the first unequal pair, and a pass computes nothing
    beyond the comparisons."""
    entry = {"name": name, "passed": True}
    if detail:
        entry["detail"] = detail
    for lhs, rhs in pairs:
        if not lhs.equals(rhs):
            entry["passed"] = False
            entry["residual"] = str((lhs - rhs).reduced())
            break
    return entry


def _decide(wants: Wants, rows) -> list[dict]:
    """Decide, in order, the rows the selection names.  A row is (name,
    pairs) or (name, pairs, detail), and ``pairs()``, which builds the
    (lhs, rhs) sequence, is called only for a wanted row."""
    return [_exact(name, pairs(), *detail)
            for name, pairs, *detail in rows if wants(name)]


def _closed_form(make_q) -> tuple[DeformationSpec, list]:
    """A catalog generator's spec and its shift rebuilt from engine
    commutators, i G = i (B Q)_k [Q_k, P_j]."""
    spec = DeformationSpec(SKEW_B, make_q())
    return spec, momentum_shift_via_commutators(spec)


def _deformed_hamiltonian_closed_form(tag: str, closed_form,
                                      wants: Wants) -> list[dict]:
    """deform(H0) against (1/2m) sum_j Phat_j^2, Phat_j = P_j + shift_j."""
    def pairs():
        spec, shift = closed_form()
        rhs = OperatorExpr.zero()
        for j, s in enumerate(shift, start=1):
            phat = OperatorExpr.momentum(j) + OperatorExpr.from_coord(s)
            rhs = rhs + phat * phat
        yield (deform_operator(OperatorExpr.free_hamiltonian(), spec),
               rhs.scale(HALF_OVER_M))
    return _decide(wants, [(f"deformed_hamiltonian::{tag}", pairs)])


def _deformed_momentum_closed_form(tag: str, closed_form,
                                   wants: Wants) -> list[dict]:
    def pairs():
        spec, shift = closed_form()
        for j, s in enumerate(shift, start=1):
            yield (deform_operator(OperatorExpr.momentum(j), spec),
                   OperatorExpr.momentum(j) + OperatorExpr.from_coord(s))
    return _decide(wants, [(f"deformed_momentum::{tag}", pairs)])


def _deformed_coordinate_check(wants: Wants) -> list[dict]:
    def pairs():
        coords = deform_coordinate(SKEW_B)
        for j in range(3):
            yield coords[j], OperatorExpr.position(j + 1) - sum(
                (OperatorExpr.momentum(k + 1).coord_multiply(_SKEW_B_ROWS[j][k])
                 for k in range(3)), OperatorExpr.zero())
    return _decide(wants, [("deformed_coordinate", pairs)])


def _factorization_checks(wants: Wants) -> list[dict]:
    def pairs(make_q):
        """deform(H0) against the squared deformed momenta over 2m."""
        spec = DeformationSpec(SKEW_B, make_q())
        squares = OperatorExpr.zero()
        for j in (1, 2, 3):
            pj = deform_operator(OperatorExpr.momentum(j), spec)
            squares = squares + pj * pj
        yield (deform_operator(OperatorExpr.free_hamiltonian(), spec),
               squares.scale(HALF_OVER_M))
    return _decide(wants, [(f"factorization::{tag}", partial(pairs, make_q))
                           for tag, make_q in CATALOG_GENERATORS])


def _additivity_check(wants: Wants) -> list[dict]:
    def pairs():
        """Deforming by B and then by C against deforming once by B + C."""
        h0 = OperatorExpr.free_hamiltonian()
        summed = [b + c for b, c in zip(SKEW_B, SKEW_C)]
        for q in (_COORDINATE(), _RADIAL(1), _RADIAL(2), _TRANSVERSE()):
            once = deform_operator(h0, DeformationSpec(SKEW_B, q))
            yield (deform_operator(once, DeformationSpec(SKEW_C, q)),
                   deform_operator(h0, DeformationSpec(summed, q)))
    return _decide(wants, [("additivity", pairs,
                            "B = axial(b1, b2, b3), C = axial(c1, c2, c3); "
                            "Q = X, X/r, X/r^2, X/rho")])


def _rieffel_checks(wants: Wants) -> list[dict]:
    def pairs(make_q):
        spec = DeformationSpec(SKEW_B, make_q())
        total = OperatorExpr.zero()
        for k in (1, 2, 3):
            pk = OperatorExpr.momentum(k)
            total = total + rieffel_product(pk, pk, spec)
        yield total, (OperatorExpr.momentum(1) * OperatorExpr.momentum(1)
                      + OperatorExpr.momentum(2) * OperatorExpr.momentum(2)
                      + OperatorExpr.momentum(3) * OperatorExpr.momentum(3))
        # The deformed scalar product also reproduces the free Hamiltonian.
        yield total.scale(HALF_OVER_M), OperatorExpr.free_hamiltonian()
    return _decide(wants, [(f"rieffel_diagonal::{tag}", partial(pairs, make_q))
                           for tag, make_q in CATALOG_GENERATORS])


def _coefficient_checks(wants: Wants) -> list[dict]:
    """The radial-generator bracket coefficients a(n) = n^2 - 3n and
    n^2 - 2n + 3, recovered from engine anticommutators and products."""
    def anticommutator(n):
        for k, q in enumerate(_RADIAL(n), start=1):
            acc = OperatorExpr.zero()
            qk = OperatorExpr.from_coord(q)
            for j in (1, 2, 3):
                pj = OperatorExpr.momentum(j)
                acc = acc + pj.anticommutator(pj.commutator(qk))
            yield acc.coordinate_part(), (
                CoordFunction.x(k) * CoordFunction.r_power(-(n + 2))
            ).scale(QC(-(n * n - 3 * n)))

    def gradient_norm(n):
        acc = OperatorExpr.zero()
        for q in _RADIAL(n):
            ql = OperatorExpr.from_coord(q)
            for j in (1, 2, 3):
                c = ql.commutator(OperatorExpr.momentum(j))
                acc = acc + c * c
        yield acc, OperatorExpr.from_coord(
            CoordFunction.r_power(-2 * n).scale(QC(-(n * n - 2 * n + 3))))
    return _decide(wants, [row for n in COEFFICIENT_EXPONENTS for row in (
        (f"coefficient_anticommutator::n={n}", partial(anticommutator, n),
         f"|a(n)| = |{n * n - 3 * n}|"),
        (f"coefficient_gradient_norm::n={n}", partial(gradient_norm, n),
         f"n^2-2n+3 = {n * n - 2 * n + 3}"))])


def _adjoint_checks(wants: Wants) -> list[dict]:
    """The adjoint on its own, so that the hermitian checks below cannot
    pass merely because ``adjoint`` returns its operand."""
    i = QC(0, Fraction(1))
    x1, p1 = OperatorExpr.position(1), OperatorExpr.momentum(1)

    def product_reversal():
        # A and B do not commute, so (AB)^dag = B^dag A^dag is not (BA)^dag.
        a = x1 * OperatorExpr.position(2) * p1
        b = p1 * OperatorExpr.momentum(2) + OperatorExpr.position(3).scale(i)
        yield (a * b).adjoint(), b.adjoint() * a.adjoint()
    return _decide(wants, [
        ("adjoint::X1*P1", lambda: [((x1 * p1).adjoint(),
                                     x1 * p1 - OperatorExpr.scalar(i))]),
        ("adjoint::i*X1", lambda: [(x1.scale(i).adjoint(), x1.scale(-i))]),
        ("adjoint::product_reversal", product_reversal)])


def _model_checks(wants: Wants, presets) -> list[dict]:
    """``presets(name)`` is the run's preset cache, read only by the rows
    decided."""
    def rows(name):
        preset = partial(presets, name)
        yield f"model::{name}", lambda: [(preset().deformed(),
                                          preset().reference_hamiltonian)]
        if name in LINEARIZED_PRESETS:
            # Compared after the explicit degree >= 2 truncation in the
            # small constants.
            yield f"model_linearized::{name}", lambda: [tuple(
                h.truncate_to_linear(preset().small_constants)
                for h in (preset().deformed(), preset().linearized_reference))]
        yield f"hermitian::{name}", lambda: [(preset().deformed(),
                                              preset().deformed().adjoint())]

    def order_independence(name):
        preset = presets(name)
        base = preset.base_hamiltonian()
        s1, s2 = preset.specs
        yield (deform_operator(deform_operator(base, s1), s2),
               deform_operator(deform_operator(base, s2), s1))
    return _decide(wants, [
        *(row for name in sorted(PRESETS) for row in rows(name)),
        *((f"order_independence::{kind}",
           partial(order_independence, f"combined_{kind}"))
          for kind in ("constant", "lense_thirring"))])


def _moyal_checks(wants: Wants) -> list[dict]:
    def moyal():
        coords = deform_coordinate(SKEW_B)
        for i in range(3):
            for j in range(3):
                yield coords[i].commutator(coords[j]), OperatorExpr.from_coord(
                    _SKEW_B_ROWS[i][j].scale(QC(0, Fraction(2))))

    def guiding():
        b = (-CoordFunction.constant("Omega") * CoordFunction.constant("m"),
             *[CoordFunction.zero()] * 2)
        _, comms = guiding_center(b)
        binv = skew(invert_transverse_block(b, 1))
        for i in range(3):
            for j in range(3):
                yield comms[i][j], binv[j][i].scale(QC(0, Fraction(1)))
    return _decide(wants, [
        ("moyal_plane_random", moyal,
         "[X_th_i, X_th_j] = 2 i theta_ij, theta = axial(b1, b2, b3) "
         "(equals -2 i theta^ij in the raised-index display)"),
        ("guiding_center_plane", guiding,
         "[Xg_i, Xg_j] = i (B^-1)_ji exactly"),
        # 2 pi hbar / (m Omega)
        ("uncertainty_area_symbolic", lambda: [(uncertainty_area_symbolic(), (
            CoordFunction.constant("Omega", -1, 2)
            * CoordFunction.constant("m", -1) * CoordFunction.constant("hbar")
            * CoordFunction.constant("pi")))])])


def _gauge_checks(wants: Wants, presets,
                  negative_control: bool) -> list[dict]:
    def cross_check(name):
        """B from the commutators of the shifted momenta, paired with the
        curl of A, spec by spec, in the order B3, B2, B1."""
        for spec, g in presets(name).coupled_specs():
            comm = field_strength(spec, g)
            if negative_control:
                # Wrong-convention injection: divide by +ig instead of -ig.
                comm = [-f for f in comm]
            yield from zip(comm[::-1],
                           curl(extract_gauge_field(spec, g))[::-1])

    def bianchi(name):
        for spec, g in presets(name).coupled_specs():
            yield bianchi_sum(field_strength(spec, g)), CoordFunction.zero()

    def ab_off_axis():
        ab = presets("aharonov_bohm")
        for f in field_strength(ab.specs[0], ab.coupling):
            yield f, CoordFunction.zero()

    def jacobi_maxwell(name):
        preset = presets(name)
        for total in jacobi_maxwell_sums(
                preset.specs[0], preset.scalar_potential(), preset.coupling):
            yield total, OperatorExpr.zero()

    def lorentz(name):
        preset = presets(name)
        for spec in preset.specs:
            yield from lorentz_force(spec, preset.scalar_potential(),
                                     preset.coupling)

    def noncommuting():
        """[P2hat, P3hat] = -i e B: the deformed momenta fail to commute
        by exactly the field, which is nonzero."""
        _, p2, p3 = presets("landau").specs[0].momenta
        yield p2.commutator(p3), OperatorExpr.from_coord(
            (CoordFunction.constant("e") * CoordFunction.constant("B"))
            .scale(QC(0, -1)))

    def linearity():
        lam, e = CoordFunction.constant("lam"), CoordFunction.constant("e")
        spec = DeformationSpec(SKEW_B, _RADIAL(2))
        a1 = extract_gauge_field(spec, e)
        a2 = extract_gauge_field(DeformationSpec(
            [b.scale(lam) for b in SKEW_B], spec.generator), e)
        for i in range(3):
            yield a2[i], a1[i].scale(lam)
    return _decide(wants, [
        *((f"gauge_cross_check::{name}", partial(cross_check, name))
          for name in sorted(PRESETS)),
        *((f"bianchi::{name}", partial(bianchi, name))
          for name in ("landau", "aharonov_bohm", "lense_thirring",
                       "gravito_constant")),
        ("ab_field_strength_zero_off_axis", ab_off_axis),
        *((f"jacobi_maxwell::{name}", partial(jacobi_maxwell, name))
          for name in ("landau", "aharonov_bohm", "zeeman")),
        *((f"lorentz_force::{name}", partial(lorentz, name))
          for name in ("landau", "zeeman", "aharonov_bohm",
                       "lense_thirring")),
        ("noncommuting_iff_field", noncommuting),
        ("gauge_field_linearity", linearity)])


def run_suite(select: list[str] | None = None,
              negative_control: bool = False) -> dict:
    """Run the identity suite, or the checks whose names start with one of
    the ``select`` prefixes; a selection computes only the checks it names."""
    prefixes = None if select is None else tuple(select)

    def wants(name: str) -> bool:
        return prefixes is None or name.startswith(prefixes)

    checks: list[dict] = []
    for tag, make_q in CATALOG_GENERATORS:
        # One spec and one commutator shift per generator, for both forms.
        closed_form = cache(partial(_closed_form, make_q))
        checks += _deformed_hamiltonian_closed_form(tag, closed_form, wants)
        checks += _deformed_momentum_closed_form(tag, closed_form, wants)
    checks += _deformed_coordinate_check(wants)
    checks += _factorization_checks(wants)
    checks += _additivity_check(wants)
    checks += _rieffel_checks(wants)
    checks += _coefficient_checks(wants)
    checks += _adjoint_checks(wants)
    # Each preset, with its specs' shifts, is built and deformed at most
    # once per run.
    presets = cache(get_preset)
    checks += _model_checks(wants, presets)
    checks += _moyal_checks(wants)
    checks += _gauge_checks(wants, presets, negative_control)
    return {
        "negative_control": negative_control,
        "all_pass": all(c["passed"] for c in checks),
        "checks": checks,
    }

"""Named symbolic identity suite.

Each check has a stable name so the CLI can run a selection and emit one
report entry per identity.  The identities the paper states for an
arbitrary real skew matrix are decided once over a skew matrix with
symbolic entries, axial(b1, b2, b3) (a second one, axial(c1, c2, c3), for
additivity), which proves them for every such matrix; no case is sampled
and no seed is used.  The negative-control switch flips the sign of the
commutator route inside the gauge cross-check only: a deliberate
wrong-convention injection that must leave additivity passing while the
curl comparison fails, confirming the suite actually has teeth.
"""

from __future__ import annotations

from fractions import Fraction

from .coords import CoordFunction
from .deform import (DeformationMatrix, DeformationSpec, QSpec,
                     check_additivity, deform_coordinate, deform_operator,
                     factorization_check, invert_transverse_block,
                     momentum_shift_via_commutators, rieffel_product,
                     shifted_momentum)
from .gauge import (FieldStrength, bianchi_check, extract_gauge_field,
                    field_strength, jacobi_maxwell_report)
from .models import (PRESETS, coulomb_potential, get_preset, guiding_center,
                     uncertainty_area_symbolic)
from .operators import OperatorExpr
from .scalars import QC, SymbolicScalar

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
SKEW_B = DeformationMatrix.axial(*(SymbolicScalar.symbol(f"b{k}")
                                   for k in (1, 2, 3)))
SKEW_C = DeformationMatrix.axial(*(SymbolicScalar.symbol(f"c{k}")
                                   for k in (1, 2, 3)))


def _half_over_m() -> SymbolicScalar:
    return SymbolicScalar.symbol("m", -1, Fraction(1, 2))


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


def _deformed_hamiltonian_closed_form(tag: str, make_q) -> Check:
    """deform(H0) against (1/2m) sum_j Phat_j^2 with the shift rebuilt from
    engine commutators, i G = i (B Q)_k [Q_k, P_j]."""
    spec = DeformationSpec(SKEW_B, make_q())
    lhs = deform_operator(OperatorExpr.free_hamiltonian(), spec)
    shifts = momentum_shift_via_commutators(spec)
    rhs = OperatorExpr.zero()
    for j in (1, 2, 3):
        phat = OperatorExpr.momentum(j) + OperatorExpr.from_coord(shifts[j - 1])
        rhs = rhs + phat * phat
    rhs = rhs.scale(_half_over_m())
    ok = lhs.equals(rhs)
    return Check(f"deformed_hamiltonian::{tag}", ok)


def _deformed_momentum_closed_form(tag: str, make_q) -> Check:
    spec = DeformationSpec(SKEW_B, make_q())
    shifts = momentum_shift_via_commutators(spec)
    ok = True
    for j in (1, 2, 3):
        lhs = deform_operator(OperatorExpr.momentum(j), spec)
        rhs = OperatorExpr.momentum(j) + OperatorExpr.from_coord(shifts[j - 1])
        ok = ok and lhs.equals(rhs)
    return Check(f"deformed_momentum::{tag}", ok)


def _deformed_coordinate_check() -> Check:
    theta = SKEW_B
    coords = deform_coordinate(theta)
    ok = True
    for j in range(3):
        expected = OperatorExpr.position(j + 1)
        for k in range(3):
            entry = theta.rows[j][k]
            if not entry.is_structurally_zero():
                expected = expected - OperatorExpr.momentum(k + 1).coord_multiply(entry)
        ok = ok and coords[j] == expected
    return Check("deformed_coordinate", ok)


def _factorization_checks() -> list[Check]:
    return [Check(f"factorization::{tag}",
                  factorization_check(DeformationSpec(SKEW_B, make_q())))
            for tag, make_q in CATALOG_GENERATORS]


def _additivity_check() -> Check:
    h0 = OperatorExpr.free_hamiltonian()
    ok = all(check_additivity(h0, DeformationSpec(SKEW_B, q),
                              DeformationSpec(SKEW_C, q))
             for q in (QSpec.coordinate(), QSpec.radial_power(1),
                       QSpec.radial_power(2), QSpec.transverse_radial()))
    return Check("additivity", ok,
                 detail="B = axial(b1, b2, b3), C = axial(c1, c2, c3); "
                        "Q = X, X/r, X/r^2, X/rho")


def _rieffel_checks() -> list[Check]:
    out = []
    half = _half_over_m()
    for tag, make_q in CATALOG_GENERATORS:
        spec = DeformationSpec(SKEW_B, make_q())
        total = OperatorExpr.zero()
        for k in (1, 2, 3):
            pk = OperatorExpr.momentum(k)
            total = total + rieffel_product(pk, pk, spec)
        plain = (OperatorExpr.momentum(1) * OperatorExpr.momentum(1)
                 + OperatorExpr.momentum(2) * OperatorExpr.momentum(2)
                 + OperatorExpr.momentum(3) * OperatorExpr.momentum(3))
        ok = total.equals(plain)
        # The deformed scalar product also reproduces the free Hamiltonian.
        ok = ok and total.scale(half).equals(OperatorExpr.free_hamiltonian())
        out.append(Check(f"rieffel_diagonal::{tag}", ok))
    return out


def _coefficient_checks() -> list[Check]:
    """The radial-generator bracket coefficients a(n) = n^2 - 3n and
    n^2 - 2n + 3, recovered from engine anticommutators and products."""
    out = []
    for n in COEFFICIENT_EXPONENTS:
        q = QSpec.radial_power(n)
        a_n = n * n - 3 * n
        ok_a = True
        for k in (1, 2, 3):
            acc = OperatorExpr.zero()
            qk = OperatorExpr.from_coord(q.components[k - 1])
            for j in (1, 2, 3):
                pj = OperatorExpr.momentum(j)
                acc = acc + pj.anticommutator(pj.commutator(qk))
            coord = acc.coordinate_part()
            expected = (CoordFunction.x(k) * CoordFunction.r_power(-(n + 2))
                        ).scale(QC(-a_n))
            ok_a = ok_a and coord.equivalent(expected)
        out.append(Check(f"coefficient_anticommutator::n={n}", ok_a,
                         detail=f"|a(n)| = |{a_n}|"))

        norm = n * n - 2 * n + 3
        acc = OperatorExpr.zero()
        for l in (1, 2, 3):
            ql = OperatorExpr.from_coord(q.components[l - 1])
            for j in (1, 2, 3):
                c = ql.commutator(OperatorExpr.momentum(j))
                acc = acc + c * c
        expected = OperatorExpr.from_coord(
            CoordFunction.r_power(-2 * n).scale(QC(-norm)))
        ok_b = acc.equals(expected)
        out.append(Check(f"coefficient_gradient_norm::n={n}", ok_b,
                         detail=f"n^2-2n+3 = {norm}"))
    return out


def _model_checks() -> list[Check]:
    out = []
    for name in sorted(PRESETS):
        preset = get_preset(name)
        ok = preset.matches_reference()
        out.append(Check(f"model::{name}", ok))
        if preset.linearized_reference is not None:
            out.append(Check(f"model_linearized::{name}",
                             preset.matches_linearized()))
        h_def = preset.deformed()
        out.append(Check(f"hermitian::{name}",
                         h_def.is_hermitian()))
    for kind in ("constant", "lense_thirring"):
        preset = get_preset(f"combined_{kind}")
        base = preset.base_hamiltonian()
        s1, s2 = preset.specs
        one_way = deform_operator(deform_operator(base, s1), s2)
        other = deform_operator(deform_operator(base, s2), s1)
        out.append(Check(f"order_independence::{kind}",
                         one_way.equals(other)))
    return out


def _moyal_checks() -> list[Check]:
    theta = SKEW_B
    coords = deform_coordinate(theta)
    ok = all(coords[i].commutator(coords[j]) == OperatorExpr.from_coord(
                 theta.rows[i][j].scale(QC(0, Fraction(2))))
             for i in range(3) for j in range(3))
    out = [Check("moyal_plane_random", ok,
                 detail="[X_th_i, X_th_j] = 2 i theta_ij, "
                        "theta = axial(b1, b2, b3) (equals -2 i theta^ij in "
                        "the raised-index display)")]

    bmat = DeformationMatrix.axial(
        SymbolicScalar(QC(Fraction(-1)), (("Omega", 1), ("m", 1))))
    coords, comms = guiding_center(bmat)
    binv = invert_transverse_block(bmat, 1)
    ok = True
    for i in range(3):
        for j in range(3):
            expected = binv.rows[j][i].scale(QC(0, Fraction(1)))
            ok = ok and (comms[i][j] - expected).is_structurally_zero()
    out.append(Check("guiding_center_plane", ok,
                     detail="[Xg_i, Xg_j] = i (B^-1)_ji exactly"))

    area = uncertainty_area_symbolic()
    expected = SymbolicScalar(QC(Fraction(2)),
                              (("Omega", -1), ("hbar", 1), ("m", -1), ("pi", 1)))
    out.append(Check("uncertainty_area_symbolic",
                     area.coeff == expected.coeff and area.mono == expected.mono))
    return out


def _gauge_checks(negative_control: bool = False) -> list[Check]:
    out = []
    for name in sorted(PRESETS):
        preset = get_preset(name)
        g = preset.coupling
        ok = True
        for spec in preset.specs:
            fs_comm = field_strength(spec, g)
            if negative_control:
                # Wrong-convention injection: divide by +ig instead of -ig.
                flipped = tuple(
                    tuple(-f for f in row) for row in fs_comm.rows)
                fs_comm = FieldStrength(flipped)
            fs_curl = extract_gauge_field(spec, g).curl()
            if not spec.matrix.is_zero():
                ok = ok and fs_comm.equivalent(fs_curl)
            else:
                ok = ok and fs_comm.is_zero()
        out.append(Check(f"gauge_cross_check::{name}", ok))

    for name in ("landau", "aharonov_bohm", "lense_thirring",
                 "gravito_constant"):
        preset = get_preset(name)
        ok = all(bianchi_check(spec) for spec in preset.specs)
        out.append(Check(f"bianchi::{name}", ok))

    ab = get_preset("aharonov_bohm")
    fs = field_strength(ab.specs[0], ab.coupling)
    out.append(Check("ab_field_strength_zero_off_axis", fs.is_zero()))

    for name, pot in (("landau", CoordFunction.zero()),
                      ("aharonov_bohm", CoordFunction.zero()),
                      ("zeeman", coulomb_potential())):
        preset = get_preset(name)
        rep = jacobi_maxwell_report(preset.specs[0], pot, preset.coupling)
        out.append(Check(f"jacobi_maxwell::{name}", rep["all_zero"]))

    landau = get_preset("landau")
    fs = field_strength(landau.specs[0], landau.coupling)
    p2 = shifted_momentum(landau.specs[0], 2)
    p3 = shifted_momentum(landau.specs[0], 3)
    noncomm = not p2.commutator(p3).equals(OperatorExpr.zero())
    fnonzero = not fs[(2, 3)].is_zero()
    out.append(Check("noncommuting_iff_field", noncomm == fnonzero and fnonzero))

    lam = SymbolicScalar.symbol("lam")
    spec = DeformationSpec(SKEW_B, QSpec.radial_power(2))
    scaled = DeformationSpec(SKEW_B.scale(lam), spec.generator)
    a1 = extract_gauge_field(spec, SymbolicScalar.symbol("e"))
    a2 = extract_gauge_field(scaled, SymbolicScalar.symbol("e"))
    ok = all(a2.components[i].equivalent(a1.components[i].scale(lam))
             for i in range(3))
    out.append(Check("gauge_field_linearity", ok))
    return out


def run_suite(select: list[str] | None = None,
              negative_control: bool = False) -> dict:
    """Run the full identity suite (or a name-prefix selection of it)."""
    checks: list[Check] = []
    for tag, make_q in CATALOG_GENERATORS:
        checks.append(_deformed_hamiltonian_closed_form(tag, make_q))
        checks.append(_deformed_momentum_closed_form(tag, make_q))
    checks.append(_deformed_coordinate_check())
    checks.extend(_factorization_checks())
    checks.append(_additivity_check())
    checks.extend(_rieffel_checks())
    checks.extend(_coefficient_checks())
    checks.extend(_model_checks())
    checks.extend(_moyal_checks())
    checks.extend(_gauge_checks(negative_control=negative_control))

    if select is not None:
        checks = [c for c in checks
                  if any(c.name.startswith(s) for s in select)]
    return {
        "negative_control": negative_control,
        "all_pass": all(c.passed for c in checks),
        "checks": [c.to_json_dict() for c in checks],
    }

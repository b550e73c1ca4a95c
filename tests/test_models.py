from fractions import Fraction

import pytest

from warpconv.coords import CoordFunction
from warpconv.deform import DeformationMatrix, deform_operator
from warpconv.errors import NonPositiveParameterError
from warpconv.models import (PRESETS, combined_em_gem, flux_equivalent, free,
                             get_preset, gravito_constant, gravito_zeeman,
                             guiding_center, landau, lense_thirring,
                             uncertainty_area_symbolic, uncertainty_bound,
                             zeeman)
from warpconv.operators import OperatorExpr
from warpconv.parsing import parse
from warpconv.scalars import QC, SymbolicScalar

F = Fraction


def test_every_preset_matches_its_reference():
    for name in sorted(PRESETS):
        preset = get_preset(name)
        assert preset.deformed().equals(preset.reference_hamiltonian), name
        if preset.linearized_reference is not None:
            # Equal after the degree >= 2 truncation in the small constants.
            lhs, rhs = (h.drop_degree_at_least(preset.small_constants, 2)
                        for h in (preset.deformed(),
                                  preset.linearized_reference))
            assert lhs.equals(rhs), name


def test_landau_reference_is_minimal_coupling():
    preset = landau()
    ref = parse(
        "(1/(2*m)) * ((P1*P1) + (P2 - (e*B/2)*X3)*(P2 - (e*B/2)*X3)"
        " + (P3 + (e*B/2)*X2)*(P3 + (e*B/2)*X2))")
    assert preset.deformed().equals(ref)


def test_landau_degenerate_field_reduces_to_free():
    preset = landau()
    h = preset.deformed().substitute_symbol("B", SymbolicScalar.of(0))
    assert h.equals(OperatorExpr.free_hamiltonian())


def test_zeeman_is_landau_plus_coulomb():
    z = zeeman()
    lan = landau()
    pot = OperatorExpr.from_coord(z.potential)
    assert z.deformed().equals(lan.deformed() + pot)


def test_zeeman_potential_unchanged_by_deformation():
    z = zeeman()
    deformed_pot = deform_operator(OperatorExpr.from_coord(z.potential),
                                   z.specs[0])
    assert deformed_pot == OperatorExpr.from_coord(z.potential)


def test_zeeman_paramagnetic_term():
    # momentum-linear part equals (eB/2m) L1 with L1 = X2 P3 - X3 P2
    z = zeeman()
    h = z.deformed()
    lin = OperatorExpr({pm: f for pm, f in h.terms.items() if sum(pm) == 1})
    expected = parse("(e*B/(2*m)) * (X2*P3 - X3*P2)")
    assert lin.equals(expected)


def test_aharonov_bohm_flux_quantization_examples():
    assert flux_equivalent(F(2), F(0), F(1))      # e (phi1-phi2) = 2 pi
    assert flux_equivalent(F(5, 2), F(5, 2), F(7))  # equal fluxes
    assert not flux_equivalent(F(1), F(0), F(1))  # difference pi
    assert flux_equivalent(F(3), F(-1), F(1))
    assert not flux_equivalent(F(1, 3), F(0), F(2))


def test_gravito_constant_linearization():
    g = gravito_constant()
    deformed = g.deformed()
    # exact reference is quadratic; linear truncation matches H0 + h.P
    truncated = deformed.drop_degree_at_least(("Omega",), 2)
    lin = parse("(P1*P1 + P2*P2 + P3*P3)/(2*m) + Omega*X3*P2 - Omega*X2*P3")
    assert truncated.equals(lin)


def test_gravito_is_free_at_zero_field():
    g = gravito_constant()
    h = g.deformed().substitute_symbol("Omega", SymbolicScalar.of(0))
    assert h.equals(OperatorExpr.free_hamiltonian())


def test_lense_thirring_shift_structure():
    # the induced shift is -(BX)_j / r^3
    lt = lense_thirring()
    shift = lt.shift_functions()
    bx = lt.specs[0].matrix.apply(
        [CoordFunction.x(1), CoordFunction.x(2), CoordFunction.x(3)])
    r3 = CoordFunction.r_power(-3)
    for j in range(3):
        assert (shift[j] + bx[j] * r3).is_zero()


def test_lense_thirring_zero_inertia():
    lt = lense_thirring()
    h = lt.deformed().substitute_symbol("Omega", SymbolicScalar.of(0))
    assert h.equals(OperatorExpr.free_hamiltonian())


def test_combined_order_independence():
    for kind in ("constant", "lense_thirring"):
        preset = combined_em_gem(kind)
        s1, s2 = preset.specs
        base = preset.base_hamiltonian()
        a = deform_operator(deform_operator(base, s1), s2)
        b = deform_operator(deform_operator(base, s2), s1)
        assert a.equals(b)


def test_combined_reduces_to_single_model():
    preset = combined_em_gem("constant")
    h = preset.deformed()
    assert h.substitute_symbol("Omega", SymbolicScalar.of(0)).equals(
        landau().deformed())
    assert h.substitute_symbol("B", SymbolicScalar.of(0)).equals(
        gravito_constant().deformed())


def test_combined_cross_terms():
    # truncated combined Hamiltonian = Landau + sum_j h_j (P_j + e A_j)
    preset = combined_em_gem("constant")
    truncated = preset.deformed().drop_degree_at_least(("Omega",), 2)
    lin = preset.linearized_reference
    assert truncated.equals(lin)
    # and the pure cross piece contains e Omega B terms
    names = {n for pm, f in lin.terms.items()
             for (_, _, _, mono) in f.terms for n, _ in mono}
    assert {"e", "B", "Omega"} <= names


def test_gravito_zeeman_matches_zeeman_pattern():
    gz = gravito_zeeman()
    z = zeeman()
    # map -(e/2) B -> m Omega: substitute the Landau axial constant
    h_z = z.deformed()
    swapped = h_z.substitute_symbol(
        "B", SymbolicScalar(QC(F(-2)), (("Omega", 1), ("m", 1), ("e", -1))))
    assert swapped.equals(gz.deformed())


def test_landau_gravito_structural_map():
    # both presets are the same template with the axial scalar swapped
    lam = SymbolicScalar.symbol("lam")
    template = deform_operator(
        OperatorExpr.free_hamiltonian(),
        type(landau().specs[0])(DeformationMatrix.axial(lam),
                                landau().specs[0].generator))
    to_landau = template.substitute_symbol(
        "lam", SymbolicScalar(QC(F(1, 2)), (("B", 1), ("e", 1))))
    to_gravito = template.substitute_symbol(
        "lam", SymbolicScalar(QC(F(-1)), (("Omega", 1), ("m", 1))))
    assert to_landau.equals(landau().deformed())
    assert to_gravito.equals(gravito_constant().deformed())


def test_free_preset():
    f = free()
    assert f.deformed() == OperatorExpr.free_hamiltonian()


def test_metadata_shapes():
    for name in sorted(PRESETS):
        meta = get_preset(name).metadata()
        assert meta["name"] == name
        assert len(meta["matrices"]) == len(get_preset(name).specs)
        assert isinstance(meta["sign_note"], str)


def test_guiding_center_commutators():
    b = SymbolicScalar(QC(F(-1)), (("Omega", 1), ("m", 1)))
    coords, comms = guiding_center(DeformationMatrix.axial(b))
    # X1 untouched, commutators confined to the (2,3) block
    assert coords[0] == OperatorExpr.position(1)
    # (B^-1)_23 = -1/b = +1/(m Omega); [Xg_2, Xg_3] = -i (B^-1)_23
    inv_entry = SymbolicScalar(QC(F(1)), (("Omega", -1), ("m", -1)))
    expected = CoordFunction.scalar(inv_entry * SymbolicScalar(QC(0, F(-1))))
    assert (comms[1][2] - expected).is_structurally_zero()
    assert (comms[2][1] + expected).is_structurally_zero()
    for j in range(3):
        assert comms[0][j].is_structurally_zero()
        assert comms[j][0].is_structurally_zero()
        assert comms[j][j].is_structurally_zero()


def test_guiding_center_rejects_non_axial():
    with pytest.raises(ValueError):
        guiding_center(DeformationMatrix.axial(1, 1, 0))


def test_uncertainty_bound_values():
    u = uncertainty_bound(1, 1)
    assert u.bound == 1
    assert u.area_in_pi_units == 2
    # doubling Omega halves the bound
    assert uncertainty_bound(1, 2).bound == F(1, 2)
    sym = uncertainty_area_symbolic()
    assert sym.mono == (("Omega", -1), ("hbar", 1), ("m", -1), ("pi", 1))
    assert sym.coeff == QC(F(2))
    with pytest.raises(NonPositiveParameterError):
        uncertainty_bound(0, 1)
    with pytest.raises(NonPositiveParameterError):
        uncertainty_bound(1, -2)


def test_numeric_uncertainty_bound():
    u = uncertainty_bound(F(2), F(1, 4))
    assert u.bound == F(2)
    assert abs(u.area - 4 * 3.141592653589793) < 1e-12

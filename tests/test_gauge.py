from fractions import Fraction

import pytest

from warpconv.coords import CoordFunction
from warpconv.deform import DeformationSpec, skew
from warpconv.errors import ZeroCouplingError
from warpconv.gauge import (bianchi_check, bianchi_sum, curl,
                            extract_gauge_field, field_strength,
                            jacobi_maxwell_sums, lorentz_force)
from warpconv.models import PRESETS, coulomb_potential, get_preset
from warpconv.operators import OperatorExpr
from warpconv.scalars import QC

F = Fraction
E = CoordFunction.constant("e")


def vanishes(b):
    return all(f.equals(CoordFunction.zero()) for f in b)


def test_extract_landau_symmetric_gauge():
    # A = (1/2) B cross x = (0, -B x3/2, B x2/2) for B along x1.
    preset = get_preset("landau")
    a = extract_gauge_field(preset.specs[0], E)
    b_half = CoordFunction.constant("B", 1, F(1, 2))
    textbook = (CoordFunction.zero(), -CoordFunction.x(3).scale(b_half),
                CoordFunction.x(2).scale(b_half))
    for got, expected in zip(a, textbook):
        assert (got - expected).is_zero()


def test_extract_flux_line():
    # A = (phi_M / 2 pi) (0, -x3, x2) / rho^2: flux phi_M along x1.
    preset = get_preset("aharonov_bohm")
    a = extract_gauge_field(preset.specs[0], E)
    c = (CoordFunction.constant("phi_M", 1, F(1, 2))
         * CoordFunction.constant("pi", -1))
    rho2 = CoordFunction.rho_power(-2)
    textbook = (CoordFunction.zero(), -(CoordFunction.x(3) * rho2).scale(c),
                (CoordFunction.x(2) * rho2).scale(c))
    for got, expected in zip(a, textbook):
        assert (got - expected).is_zero()


def test_extract_lense_thirring_proportional_to_vortex():
    preset = get_preset("lense_thirring")
    a = extract_gauge_field(preset.specs[0], preset.coupling)
    # components proportional to epsilon_jkl x_k Omega_l / r^3
    om = CoordFunction.constant("Omega")
    r3 = CoordFunction.r_power(-3)
    assert a[0].is_structurally_zero()
    assert (a[1] + (CoordFunction.x(3) * r3).scale(om)).is_zero()
    assert (a[2] - (CoordFunction.x(2) * r3).scale(om)).is_zero()


def test_extract_zero_coupling_error():
    preset = get_preset("landau")
    with pytest.raises(ZeroCouplingError):
        extract_gauge_field(preset.specs[0], CoordFunction.zero())


def test_coupling_must_be_a_constant():
    spec = get_preset("landau").specs[0]
    for coupling in (CoordFunction.x(2), CoordFunction.r_power(1)):
        with pytest.raises(ValueError):
            extract_gauge_field(spec, coupling)
        with pytest.raises(ValueError):
            field_strength(spec, coupling)


def test_field_strength_landau_is_constant():
    # The axial field (F23, F31, F12) of Landau is B along x1.
    preset = get_preset("landau")
    b1, b2, b3 = field_strength(preset.specs[0], E)
    assert (b1 - CoordFunction.constant("B")).is_zero()
    assert b2.is_zero() and b3.is_zero()


def test_field_strength_aharonov_bohm_vanishes_off_axis():
    preset = get_preset("aharonov_bohm")
    fs = field_strength(preset.specs[0], E)
    assert vanishes(fs)


def test_field_strength_zero_spec():
    preset = get_preset("free")
    fs = field_strength(preset.specs[0], E)
    assert vanishes(fs)


def test_curl_equals_commutator_route():
    for name in ("landau", "aharonov_bohm", "lense_thirring",
                 "gravito_constant"):
        preset = get_preset(name)
        for spec in preset.specs:
            b = field_strength(spec, preset.coupling)
            rot = curl(extract_gauge_field(spec, preset.coupling))
            assert len(b) == len(rot) == 3
            assert all(f.equals(g) for f, g in zip(b, rot))


def clebsch_field(spec, g):
    """(2/g) sum_m b_m grad Q_{m+1} x grad Q_{m+2}, m cyclic, b the spec's
    axial triple and Q its generator."""
    grad = [[q.partial(j) for j in (1, 2, 3)] for q in spec.generator]
    total = [CoordFunction.zero()] * 3
    for m, b in enumerate(spec.b):
        u, v = grad[(m + 1) % 3], grad[(m + 2) % 3]
        cross = [u[j - 1] * v[k - 1] - u[k - 1] * v[j - 1]
                 for j, k in ((2, 3), (3, 1), (1, 2))]
        total = [t + c * b for t, c in zip(total, cross)]
    return [t * CoordFunction.scalar(2) * g.inverse() for t in total]


def test_field_strength_is_the_clebsch_field_of_the_generator():
    pairs = [pair for name in PRESETS
             for pair in get_preset(name).coupled_specs()]
    assert len(pairs) == 11
    # A polynomial generator under a symbolic skew matrix.
    x1, x2, x3 = (CoordFunction.x(j) for j in (1, 2, 3))
    q = (x1, x2 + (x2 * x3).scale(QC(3)) + x3 * x3,
         x3 - (x2 * x2).scale(QC(F(1, 2))) + x2 * x3 * x3)
    b = tuple(CoordFunction.constant(f"b{k}") for k in (1, 2, 3))
    pairs.append((DeformationSpec(b, q), E))
    for spec, g in pairs:
        assert all(f.equals(c) for f, c in zip(field_strength(spec, g),
                                                clebsch_field(spec, g)))


def test_field_strength_scales_linearly():
    preset = get_preset("landau")
    spec = preset.specs[0]
    doubled = DeformationSpec([b.scale(QC(F(2))) for b in spec.b],
                              spec.generator)
    f1 = field_strength(spec, E)
    f2 = field_strength(doubled, E)
    assert (f2[0] - f1[0].scale(QC(F(2)))).is_zero()


def test_lorentz_force_landau_magnetic_only():
    preset = get_preset("landau")
    pairs = list(lorentz_force(preset.specs[0], CoordFunction.zero(), E))
    assert all(c.equals(closed) for c, closed in pairs)
    # The field is divergence-free: sum_k d_k F_kj = 0.
    f = skew(field_strength(preset.specs[0], E))
    for j in (1, 2, 3):
        assert sum((f[k - 1][j - 1].partial(k) for k in (1, 2, 3)),
                   CoordFunction.zero()).is_zero()
    # no electric part: the commutator with H only involves momenta
    c1 = pairs[0][0]
    assert c1.equals(OperatorExpr.zero())  # field along x1: P1 commutes


def test_lorentz_force_coulomb():
    # zero deformation, phi = e^2/r: C_j = i g d_j phi exactly
    preset = get_preset("free")
    phi = coulomb_potential()
    pairs = list(lorentz_force(preset.specs[0], phi, E))
    assert all(c.equals(closed) for c, closed in pairs)
    ig = E.scale(QC(0, F(1)))
    for j in (1, 2, 3):
        expected = OperatorExpr.from_coord(phi.partial(j).scale(ig))
        assert pairs[j - 1][0].equals(expected)


def test_lorentz_force_zero_everything():
    preset = get_preset("free")
    pairs = list(lorentz_force(preset.specs[0], CoordFunction.zero(), E))
    assert len(pairs) == 3
    assert all(c.equals(closed) for c, closed in pairs)
    for c, _ in pairs:
        assert c.is_structurally_zero()


def test_bianchi_catalog():
    for name in ("landau", "lense_thirring", "aharonov_bohm"):
        preset = get_preset(name)
        for spec in preset.specs:
            assert bianchi_check(field_strength(spec, preset.coupling))


def test_jacobi_maxwell_reports_all_zero():
    cases = [
        ("landau", CoordFunction.zero()),
        ("aharonov_bohm", CoordFunction.zero()),
        ("free", coulomb_potential()),
    ]
    for name, pot in cases:
        preset = get_preset(name)
        sums = list(jacobi_maxwell_sums(preset.specs[0], pot, preset.coupling))
        # 9 spatial and 3 time Jacobi sums, then the 3 components of curl E.
        assert len(sums) == 15
        assert all(s.equals(OperatorExpr.zero()) for s in sums)


def test_noncommuting_momenta_iff_field():
    _, p2, p3 = get_preset("landau").specs[0].momenta
    assert not p2.commutator(p3).equals(OperatorExpr.zero())
    _, q2, q3 = get_preset("aharonov_bohm").specs[0].momenta
    assert q2.commutator(q3).equals(OperatorExpr.zero())


def test_field_strength_takes_three_commutators(monkeypatch):
    spec = get_preset("combined_lense_thirring").specs[1]
    commutator, calls = OperatorExpr.commutator, []

    def counted(a, b):
        calls.append(None)
        return commutator(a, b)
    monkeypatch.setattr(OperatorExpr, "commutator", counted)
    b = field_strength(spec, E)
    assert len(calls) == 3
    assert bianchi_sum(b).is_zero()


def test_antisymmetry_leaves_one_bianchi_sum():
    # F = skew(b) of a generic axial triple b, which need not satisfy the
    # identity: each of the 27 cyclic sums d_k F_ij + d_i F_jk + d_j F_ki
    # is 0 or +-div b.
    x1, x2, x3 = (CoordFunction.x(j) for j in (1, 2, 3))
    b = (x1 * x1 * x2, x2 * CoordFunction.r_power(-1), x3 * x3 * x1)
    f = skew(b)
    kept = bianchi_sum(b)
    assert not kept.is_zero()
    for k in (1, 2, 3):
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                total = (f[i - 1][j - 1].partial(k)
                         + f[j - 1][k - 1].partial(i)
                         + f[k - 1][i - 1].partial(j))
                assert any(total.equals(v) for v in
                           (CoordFunction.zero(), kept, -kept))

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from warpconv.coords import CoordFunction
from warpconv.deform import DeformationSpec, QSpec
from warpconv.errors import (NonPositiveParameterError, SingularLoopError,
                             SingularPointError, UnboundConstantError,
                             UnsupportedOperandError)
from warpconv.gauge import (extract_gauge_field, holonomy, interference_phase,
                            phases_equal)
from warpconv import spectra
from warpconv.models import ModelPreset, get_preset
from warpconv.spectra import (GridSpec, discretize, distinct_level_spacings,
                              eigenvalues, landau_degeneracy)

F = Fraction


def box_levels(L, m, count):
    vals = sorted((n1 * n1 + n2 * n2) * math.pi ** 2 / (2 * m * L * L)
                  for n1 in range(1, 8) for n2 in range(1, 8))
    return vals[:count]


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(extent=-1.0, points=32)
    with pytest.raises(ValueError):
        GridSpec(extent=1.0, points=1)
    g = GridSpec(extent=4.0, points=32)
    assert g.spacing == pytest.approx(4.0 / 33)
    assert 0.0 not in set(np.round(g.nodes(), 12))
    assert g.hop(0.5) == 1.0 / (g.spacing * g.spacing)
    # A mass that is not positive, or a hop 1/(2 m h^2) that overflows.
    for grid, mass in ((g, 0.0), (g, -1.0), (GridSpec(1e-320, 3), 1.0)):
        with pytest.raises(NonPositiveParameterError):
            grid.hop(mass)
    with pytest.raises(NonPositiveParameterError):
        discretize(get_preset("free"), g, {"m": -1.0})


def test_box_spectrum_within_one_percent():
    grid = GridSpec(extent=4.0, points=40)
    mat, info = discretize(get_preset("free"), grid, {"m": 1.0})
    res = eigenvalues(mat, 6, info)
    exact = box_levels(4.0, 1.0, 6)
    # first 3 distinct levels: E11, E12=E21, E22
    for got, want in zip(res.eigenvalues, exact):
        assert abs(got - want) / want < 0.01
    assert all(r < 1e-8 for r in res.residuals)


def test_hermiticity_defect_machine_zero():
    grid = GridSpec(extent=10.0, points=32)
    mat, info = discretize(get_preset("landau"), grid,
                           {"e": 1.0, "B": 1.0, "m": 1.0})
    assert info["hermiticity_defect"] < 1e-12


def test_coarse_grid_warning():
    grid = GridSpec(extent=4.0, points=8)
    mat, info = discretize(get_preset("free"), grid, {"m": 1.0})
    assert any("grid-too-coarse" in w for w in info["warnings"])


def test_magnetic_length_warning():
    # huge field on a coarse grid: magnetic length < 4 spacings
    grid = GridSpec(extent=10.0, points=24)
    mat, info = discretize(get_preset("landau"), grid,
                           {"e": 1.0, "B": 30.0, "m": 1.0})
    assert any("magnetic length" in w for w in info["warnings"])


def test_unbound_constant_raises():
    grid = GridSpec(extent=10.0, points=16)
    with pytest.raises(UnboundConstantError):
        discretize(get_preset("landau"), grid, {"e": 1.0, "m": 1.0})
    with pytest.raises(UnboundConstantError):
        discretize(get_preset("landau"), grid, {"e": 1.0, "B": 1.0})


def test_odd_grid_puts_a_node_on_the_coulomb_singularity():
    # An odd N has a node at r = 0, where the zeeman potential is 1/r.
    with pytest.raises(SingularPointError, match="r=0 with negative power"):
        discretize(get_preset("zeeman"), GridSpec(extent=10.0, points=33),
                   {"e": 1.0, "B": 1.0, "m": 1.0})


def test_lense_thirring_not_transverse():
    grid = GridSpec(extent=10.0, points=16)
    with pytest.raises(UnsupportedOperandError):
        discretize(get_preset("lense_thirring"), grid,
                   {"m": 1.0, "Omega": 1.0})


def test_landau_spacings_small_grid():
    grid = GridSpec(extent=10.0, points=64)
    mat, info = discretize(get_preset("landau"), grid,
                           {"e": 1.0, "B": 1.0, "m": 1.0})
    res = eigenvalues(mat, 40, info, seed=5)
    spacings = distinct_level_spacings(res, 1.0, levels=3)
    for s in spacings:
        assert abs(s - 1.0) < 0.02


def test_eigenvalue_convergence_under_refinement():
    vals = {}
    for n in (32, 64):
        grid = GridSpec(extent=10.0, points=n)
        mat, info = discretize(get_preset("landau"), grid,
                               {"e": 1.0, "B": 1.0, "m": 1.0})
        res = eigenvalues(mat, 8, info, seed=2)
        vals[n] = res.eigenvalues
    for a, b in zip(vals[32], vals[64]):
        assert abs(a - b) / abs(b) < 0.005


def test_eigenvalues_deterministic_for_seed():
    grid = GridSpec(extent=10.0, points=64)  # 4096 unknowns: sparse path
    mat, info = discretize(get_preset("landau"), grid,
                           {"e": 1.0, "B": 1.0, "m": 1.0})
    r1 = eigenvalues(mat, 12, info, seed=9)
    r2 = eigenvalues(mat, 12, info, seed=9)
    assert r1.eigenvalues == r2.eigenvalues


def test_eigenvalues_k_validation():
    grid = GridSpec(extent=4.0, points=16)
    mat, info = discretize(get_preset("free"), grid, {"m": 1.0})
    with pytest.raises(ValueError):
        eigenvalues(mat, 0, info)
    with pytest.raises(ValueError):
        eigenvalues(mat, 65, info)


def test_gauge_translation_leaves_spectrum_invariant():
    # Same field strength, gauge shifted by a constant vector: use the
    # generator Q = X + c, whose shift is -(BX)_j - (Bc)_j.
    base = get_preset("landau")
    shifted_q = QSpec((
        CoordFunction.x(1),
        CoordFunction.x(2) + CoordFunction.scalar(F(7, 5)),
        CoordFunction.x(3) - CoordFunction.scalar(F(2, 3)),
    ))
    shifted = ModelPreset(
        name="landau_translated",
        specs=(DeformationSpec(base.specs[0].matrix, shifted_q),),
        coupling=base.coupling,
        potential=None,
        sources=base.sources,
    )
    grid = GridSpec(extent=10.0, points=48)
    consts = {"e": 1.0, "B": 1.0, "m": 1.0}
    r1 = eigenvalues(*_both(discretize(base, grid, consts)), seed=1)
    r2 = eigenvalues(*_both(discretize(shifted, grid, consts)), seed=1)
    for a, b in zip(r1.eigenvalues[:10], r2.eigenvalues[:10]):
        assert abs(a - b) / abs(b) < 0.005


def _both(pair):
    mat, info = pair
    return mat, 10, info


def test_degeneracy_report():
    grid = GridSpec(extent=4.0, points=32)
    mat, info = discretize(get_preset("free"), grid, {"m": 1.0})
    res = eigenvalues(mat, 8, info)
    # tol=0 makes every eigenvalue its own cluster
    assert landau_degeneracy(res, 0.0).sizes() == [1] * 8
    # box degeneracy pattern 1, 2, 1, 2, ...
    rep = landau_degeneracy(res, 0.05)
    assert rep.sizes()[:4] == [1, 2, 1, 2]


def test_lowest_cluster_grows_with_field():
    sizes = {}
    for bval in (1.0, 2.0):
        grid = GridSpec(extent=10.0, points=64)
        mat, info = discretize(get_preset("landau"), grid,
                               {"e": 1.0, "B": bval, "m": 1.0})
        res = eigenvalues(mat, 40, info, seed=3)
        rep = landau_degeneracy(res, 0.05 * bval)
        sizes[bval] = rep.sizes()[0]
    # flux counting: doubling B roughly doubles the lowest-level count
    ratio = sizes[2.0] / sizes[1.0]
    assert 1.4 < ratio < 3.0


def test_holonomy_flux_line():
    ab = get_preset("aharonov_bohm")
    gf = extract_gauge_field(ab.specs[0], ab.coupling)
    consts = {"e": 2.0, "phi_M": 3.7}
    for radius in (0.5, 1.0, 2.0):
        val = holonomy(gf, radius, constants=consts)
        assert abs(val - 3.7) / 3.7 < 0.005
    # loop not encircling the axis
    val = holonomy(gf, 0.4, center=(0.0, 2.0, -1.0), constants=consts)
    assert abs(val) < 1e-3 * 3.7


def test_holonomy_constant_field():
    lan = get_preset("landau")
    gf = extract_gauge_field(lan.specs[0], lan.coupling)
    val = holonomy(gf, 1.5, constants={"e": 1.0, "B": 2.0})
    expected = 2.0 * math.pi * 1.5 ** 2
    assert abs(val - expected) / expected < 0.005


def test_holonomy_validation_and_singular_loop():
    ab = get_preset("aharonov_bohm")
    gf = extract_gauge_field(ab.specs[0], ab.coupling)
    with pytest.raises(ValueError):
        holonomy(gf, -1.0, constants={"e": 1, "phi_M": 1})
    with pytest.raises(ValueError):
        holonomy(gf, 1.0, points=4, constants={"e": 1, "phi_M": 1})
    with pytest.raises(SingularLoopError):
        # center distance equals radius: the loop touches rho = 0
        holonomy(gf, 1.0, center=(0.0, 1.0, 0.0), points=16,
                 constants={"e": 1, "phi_M": 1})
    lt = get_preset("lense_thirring")
    with pytest.raises(SingularLoopError, match="r = 0"):
        # the node at theta = 3 pi / 2 lies within 2e-16 of the origin
        holonomy(extract_gauge_field(lt.specs[0], lt.coupling), 1.0,
                 center=(0.0, 1.0, 0.0), points=8,
                 constants={"m": 1, "Omega": 1})


def test_interference_phase():
    assert interference_phase(1, 2) == 1.0            # e phi = 2 pi
    assert interference_phase(1, 0) == 1.0
    assert interference_phase(1, 1) == -1.0           # e phi = pi
    z = interference_phase(F(1, 2), F(1, 2))          # e phi = pi/4
    assert abs(z - complex(math.cos(math.pi / 4), math.sin(math.pi / 4))) < 1e-15


def test_phase_consistency_with_flux_condition():
    # Two fluxes give the same interference pattern iff e (phi1 - phi2) is
    # an integer multiple of 2 pi; fluxes are rational multiples of pi.
    cases = [(F(1), F(2), F(0), True), (F(1), F(1), F(0), False),
             (F(3), F(4, 3), F(-2, 3), True), (F(2), F(5, 2), F(1, 2), True),
             (F(5), F(7, 5), F(3, 5), True)]
    for e, p1, p2, equal in cases:
        assert phases_equal(e, p1, p2) is equal
        if equal:
            assert interference_phase(e, p1) == interference_phase(e, p2)


def test_dense_and_sparse_paths_agree(monkeypatch):
    free = get_preset("free")
    cases = [
        (get_preset("landau"), GridSpec(extent=10.0, points=16),
         {"e": 1.0, "B": 1.0, "m": 1.0}),
        # The lowest levels are negative and far from zero.
        (ModelPreset(name=free.name, specs=free.specs, coupling=free.coupling,
                     potential=CoordFunction.scalar(-5),
                     sources=free.sources),
         GridSpec(extent=4.0, points=20), {"m": 1.0}),
    ]
    for preset, grid, consts in cases:
        mat, info = discretize(preset, grid, consts)
        levels = []
        # A limit above the size forces the dense path, 0 the sparse one.
        for limit in (mat.shape[0] + 1, 0):
            monkeypatch.setattr(spectra, "_DENSE_LIMIT", limit)
            levels.append(eigenvalues(mat, 8, info, seed=4).eigenvalues)
        dense, sparse = levels
        assert max(abs(a - b) for a, b in zip(dense, sparse)) < 1e-10


def test_small_k_sparse_spectrum_matches_dense_eigh():
    # The lowest Landau band is nearly degenerate: Lanczos asked for only
    # these two levels used to stall here instead of converging.
    mat, info = discretize(get_preset("landau"), GridSpec(10.0, 20),
                           {"e": 1.0, "B": 1.5, "m": 1.0})
    assert mat.shape[0] >= spectra._DENSE_LIMIT  # the sparse path
    got = eigenvalues(mat, 2, info).eigenvalues
    ref = scipy.linalg.eigh(mat.toarray(), eigvals_only=True,
                            subset_by_index=[0, 1])
    assert len(got) == 2
    assert max(abs(a - b) for a, b in zip(got, ref)) < 1e-10

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from warpconv.coords import CoordFunction
from warpconv.deform import DeformationSpec
from warpconv.errors import (ConfigError, NonConvergenceError,
                             NonPositiveParameterError, SingularLoopError,
                             SingularPointError, UnboundConstantError,
                             UnsupportedOperandError)
from warpconv.gauge import extract_gauge_field, holonomy
from warpconv import spectra
from warpconv.models import get_preset, grid_inputs
from warpconv.parsing import parse_function
from warpconv.scalars import QC
from warpconv.spectra import GridSpec, discretize, eigenvalues

F = Fraction


def plane(name):
    """The plane data ``discretize`` reads of the catalog preset ``name``:
    its shift triple and its potential."""
    preset = get_preset(name)
    return preset.shift, preset.potential


def box_levels(L, m, count):
    vals = sorted((n1 * n1 + n2 * n2) * math.pi ** 2 / (2 * m * L * L)
                  for n1 in range(1, 8) for n2 in range(1, 8))
    return vals[:count]


def test_plane_profile_refuses_a_function_that_is_not_real():
    xs = np.array([-0.5, 0.5])
    x2 = CoordFunction.x(2)
    assert spectra._plane_profile(x2, xs, xs, {}, "S_2").tolist() == [
        [-0.5, -0.5], [0.5, 0.5]]
    with pytest.raises(UnsupportedOperandError,
                       match="S_2 is not real on the grid"):
        spectra._plane_profile(x2.scale(QC(0, 1)), xs, xs, {}, "S_2")


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(extent=-1.0, points=32)
    with pytest.raises(ValueError):
        GridSpec(extent=1.0, points=1)
    # An extent that is not finite has no spacing.
    for extent in (math.nan, math.inf):
        with pytest.raises(NonPositiveParameterError):
            GridSpec(extent=extent, points=32)
    g = GridSpec(extent=4.0, points=32)
    assert g.spacing == pytest.approx(4.0 / 33)
    assert 0.0 not in set(np.round(g.nodes(), 12))
    assert g.hop(0.5) == 1.0 / (g.spacing * g.spacing)
    # A mass that is not positive, or a hop 1/(2 m h^2) that overflows.
    for grid, mass in ((g, 0.0), (g, -1.0), (GridSpec(1e-320, 3), 1.0)):
        with pytest.raises(NonPositiveParameterError):
            grid.hop(mass)
    with pytest.raises(NonPositiveParameterError):
        discretize(*plane("free"), g, {"m": -1.0})


def test_box_spectrum_within_one_percent():
    grid = GridSpec(extent=4.0, points=40)
    mat, info = discretize(*plane("free"), grid, {"m": 1.0})
    res = eigenvalues(mat, 6, info)
    exact = box_levels(4.0, 1.0, 6)
    # first 3 distinct levels: E11, E12=E21, E22
    for got, want in zip(res.eigenvalues, exact):
        assert abs(got - want) / want < 0.01
    assert all(r < 1e-8 for r in res.residuals)


def test_hermiticity_defect_machine_zero():
    grid = GridSpec(extent=10.0, points=32)
    mat, info = discretize(*plane("landau"), grid,
                           {"e": 1.0, "B": 1.0, "m": 1.0})
    assert info["hermiticity_defect"] == 0.0


NO_SHIFT = (CoordFunction.zero(),) * 3
# A field outside the catalog: no shift, in a well.
FREE_IN_A_WELL = (NO_SHIFT, CoordFunction.x(2, 2) + CoordFunction.scalar(-5))
CONSTANTS = {"e": 1.0, "B": 1.5, "m": 1.0, "Omega": 0.5, "phi_M": 2.0}


@pytest.mark.parametrize("name", ["free", "landau", "zeeman",
                                  "aharonov_bohm", "gravito_constant",
                                  "gravito_zeeman", "combined_constant"])
def test_matrix_is_canonical_csr_in_the_narrowest_dtype(name):
    # A hop carries a phase only where the plane has a vector potential.
    shift, potential = plane(name)
    mat, info = discretize(shift, potential, GridSpec(10.0, 12), CONSTANTS)
    real = all(s.is_structurally_zero() for s in shift)
    assert mat.dtype == (np.float64 if real else np.complex128)
    assert mat.has_canonical_format
    assert info["hermiticity_defect"] == 0.0
    assert abs(mat - mat.getH()).max() == 0.0


def _triplet_assembly(shift, potential, grid, constants):
    """The same stencil built from COO triplets, entry by entry as
    ``discretize`` computes it: the reference for its in-place CSR."""
    mass, n, h = constants["m"], grid.points, grid.spacing
    t = grid.hop(mass)
    xs = np.array(grid.nodes())
    mid = xs[:-1] + 0.5 * h
    s1 = spectra._plane_profile(shift[0], xs, xs, constants, "S_1")
    phase2 = h * spectra._plane_profile(shift[1], mid, xs, constants, "S_2")
    phase3 = h * spectra._plane_profile(shift[2], xs, mid, constants, "S_3")
    vpot = (0.0 if potential is None else spectra._plane_profile(
        potential, xs, xs, constants, "potential"))
    ghost = np.zeros(n)
    ghost[[0, -1]] = t / 12.0
    diag = (5.0 * t - ghost[:, None] - ghost[None, :]
            + s1 ** 2 / (2.0 * mass) + vpot)
    idx = np.arange(n * n).reshape(n, n)
    rows, cols, vals = [idx.ravel()], [idx.ravel()], [diag.ravel()]
    for ids, phase in ((idx, phase2), (idx.T, phase3.T)):
        near = (-16.0 / 12.0) * t * np.exp(1j * phase)
        far = (t / 12.0) * np.exp(1j * (phase[:-1] + phase[1:]))
        for a, b, hop in ((ids[:-1], ids[1:], near), (ids[:-2], ids[2:], far)):
            rows += [a.ravel(), b.ravel()]
            cols += [b.ravel(), a.ravel()]
            vals += [hop.ravel(), np.conj(hop).ravel()]
    return scipy.sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n * n, n * n)).tocsr()


@pytest.mark.parametrize("name, points", [
    ("free", 2), ("free", 5), ("landau", 3), ("landau", 12),
    ("zeeman", 12), ("aharonov_bohm", 16), ("combined_constant", 9)])
def test_in_place_assembly_matches_triplets_bit_for_bit(name, points):
    field, grid = plane(name), GridSpec(7.0, points)
    mat, _ = discretize(*field, grid, CONSTANTS)
    ref = _triplet_assembly(*field, grid, CONSTANTS)
    assert np.array_equal(mat.indptr, ref.indptr)
    assert np.array_equal(mat.indices, ref.indices)
    if mat.dtype == np.float64:  # no hop carries a phase
        assert not ref.data.imag.any()
        ref.data = ref.data.real
    assert mat.data.tobytes() == ref.data.tobytes()


def test_the_dtype_follows_the_sampled_phases_not_the_preset():
    # With eB = 2 m Omega the combined preset's magnetic and
    # gravitomagnetic shifts cancel: no hop has a phase.
    mat, _ = discretize(*plane("combined_constant"), GridSpec(10.0, 12),
                        {**CONSTANTS, "Omega": 0.75})
    assert mat.dtype == np.float64


@pytest.mark.parametrize("points", [8, 20])  # the dense and sparse paths
# Each case is a (shift, potential) pair, of a preset or of no preset.
@pytest.mark.parametrize("preset", [plane("free"), FREE_IN_A_WELL])
def test_real_matrix_levels_match_eigvalsh(preset, points):
    mat, info = discretize(*preset, GridSpec(4.0, points), {"m": 1.0})
    assert mat.dtype == np.float64
    assert (mat.shape[0] < spectra._DENSE_LIMIT) == (points == 8)
    got = eigenvalues(mat, 8, info, seed=3).eigenvalues
    ref = scipy.linalg.eigvalsh(mat.toarray())[:8]
    assert max(abs(a - b) for a, b in zip(got, ref)) < 1e-10


def test_assembly_allocates_under_four_times_the_matrix():
    # The triplet lists and the COO round trip peaked at 6.5 times the
    # CSR arrays; assembling in place keeps the peak under 4 times.
    tracemalloc.start()
    try:
        mat, _ = discretize(*plane("landau"), GridSpec(10.0, 96),
                            {"e": 1.0, "B": 1.0, "m": 1.0})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    own = mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes
    assert peak <= 4 * own


def test_coarse_grid_warning():
    grid = GridSpec(extent=4.0, points=8)
    mat, info = discretize(*plane("free"), grid, {"m": 1.0})
    assert any("grid-too-coarse" in w for w in info["warnings"])


def test_magnetic_length_warning():
    # huge field on a coarse grid: magnetic length < 4 spacings
    grid = GridSpec(extent=10.0, points=24)
    mat, info = discretize(*plane("landau"), grid,
                           {"e": 1.0, "B": 30.0, "m": 1.0})
    assert any("magnetic length" in w for w in info["warnings"])


def test_unbound_constant_raises():
    grid = GridSpec(extent=10.0, points=16)
    with pytest.raises(UnboundConstantError):
        discretize(*plane("landau"), grid, {"e": 1.0, "m": 1.0})
    with pytest.raises(UnboundConstantError):
        discretize(*plane("landau"), grid, {"e": 1.0, "B": 1.0})


def test_odd_grid_puts_a_node_on_the_coulomb_singularity():
    # An odd N has a node at r = 0, where the zeeman potential is 1/r.
    with pytest.raises(SingularPointError, match="r=0 with negative power"):
        discretize(*plane("zeeman"), GridSpec(extent=10.0, points=33),
                   {"e": 1.0, "B": 1.0, "m": 1.0})


def test_lense_thirring_not_transverse():
    grid = GridSpec(extent=10.0, points=16)
    with pytest.raises(UnsupportedOperandError):
        discretize(*plane("lense_thirring"), grid,
                   {"m": 1.0, "Omega": 1.0})
    # The raw shift triple of its spec is refused the same way, after an
    # unbound mass.
    shift = get_preset("lense_thirring").specs[0].shift
    with pytest.raises(UnsupportedOperandError, match="depends on x1"):
        grid_inputs(shift, grid, {"m": 1.0, "Omega": 1.0})
    with pytest.raises(UnboundConstantError):
        grid_inputs(shift, grid, {"Omega": 1.0})


def test_a_shift_written_with_x1_but_free_of_it_is_accepted():
    # (r^2 - X1^2) rho^-2 is 1, so landau's shift times it does not depend
    # on x1: the exact layer decides that, not the spelling of its terms.
    one = parse_function("(r^2 - X1^2)*rho^(-2)", "factor")
    shift = tuple(s * one for s in plane("landau")[0])
    grid, consts = GridSpec(10.0, 20), {"e": 1.0, "B": 1.5, "m": 1.0}
    assert grid_inputs(shift, grid, consts) == (1.0, grid.hop(1.0))
    mat, _ = discretize(shift, None, grid, consts)
    ref, _ = discretize(*plane("landau"), grid, consts)
    assert abs(mat - ref).max() < 1e-12


@pytest.mark.parametrize("name", ["free", "landau", "zeeman",
                                  "gravito_zeeman", "well"])
def test_a_potential_that_depends_on_x1_warns_of_the_plane(name):
    # zeeman's V = e^2/r does not commute with P1, so its grid spectrum is
    # that of H on the plane x1 = 0, and says so; a well in x2 does not.
    shift, potential = FREE_IN_A_WELL if name == "well" else plane(name)
    _, info = discretize(shift, potential, GridSpec(10.0, 16), CONSTANTS)
    restricted = [w for w in info["warnings"] if w.startswith(
        "plane-restricted: ")]
    assert len(restricted) == (name in ("zeeman", "gravito_zeeman"))


def test_a_hand_built_shift_gives_the_preset_matrix_bit_for_bit():
    # landau's b = (e B / 2, 0, 0) and Q = X, written out: the grid reads
    # the field, not the preset that carries it.
    e, half_b = CoordFunction.constant("e"), CoordFunction.constant(
        "B", 1, F(1, 2))
    zero = CoordFunction.zero()
    spec = DeformationSpec((e * half_b, zero, zero),
                           tuple(CoordFunction.x(j) for j in (1, 2, 3)))
    grid, consts = GridSpec(10.0, 20), {"e": 1.0, "B": 1.5, "m": 1.0}
    mat, _ = discretize(spec.shift, None, grid, consts)
    ref, _ = discretize(*plane("landau"), grid, consts)
    for part in ("data", "indices", "indptr"):
        assert getattr(mat, part).tobytes() == getattr(ref, part).tobytes()


def test_landau_spacings_small_grid():
    grid = GridSpec(extent=10.0, points=64)
    mat, info = discretize(*plane("landau"), grid,
                           {"e": 1.0, "B": 1.0, "m": 1.0})
    evs = eigenvalues(mat, 40, info, seed=5).eigenvalues
    # The band head of level n is the lowest eigenvalue within 8% of
    # omega = eB/m = 1 of E_0 + n omega; edge states climb above each head.
    heads = [min(e for e in evs if abs(e - evs[0] - n) < 0.08)
             for n in range(3)]
    assert all(abs(b - a - 1.0) < 0.02 for a, b in zip(heads, heads[1:]))


def test_eigenvalue_convergence_under_refinement():
    vals = {}
    for n in (32, 64):
        grid = GridSpec(extent=10.0, points=n)
        mat, info = discretize(*plane("landau"), grid,
                               {"e": 1.0, "B": 1.0, "m": 1.0})
        res = eigenvalues(mat, 8, info, seed=2)
        vals[n] = res.eigenvalues
    for a, b in zip(vals[32], vals[64]):
        assert abs(a - b) / abs(b) < 0.005


def test_eigenvalues_deterministic_for_seed():
    grid = GridSpec(extent=10.0, points=64)  # 4096 unknowns: sparse path
    mat, info = discretize(*plane("landau"), grid,
                           {"e": 1.0, "B": 1.0, "m": 1.0})
    r1 = eigenvalues(mat, 12, info, seed=9)
    r2 = eigenvalues(mat, 12, info, seed=9)
    assert r1.eigenvalues == r2.eigenvalues


def test_eigenvalues_k_validation():
    grid = GridSpec(extent=4.0, points=16)
    mat, info = discretize(*plane("free"), grid, {"m": 1.0})
    with pytest.raises(ConfigError):
        eigenvalues(mat, 0, info)
    with pytest.raises(ConfigError):
        eigenvalues(mat, 65, info)


def test_eigenvalues_refuse_k_of_the_dimension_less_one():
    mat, info = discretize(*plane("free"), GridSpec(4.0, 4), {"m": 1.0})
    with pytest.raises(ConfigError, match="matrix dimension"):
        eigenvalues(mat, mat.shape[0] - 1, info)


@pytest.mark.parametrize("points", [8, 20])  # the dense and sparse paths
def test_eigenvalues_refuse_a_negative_seed(points):
    mat, info = discretize(*plane("free"), GridSpec(4.0, points),
                           {"m": 1.0})
    for seed in (-1, 1.5):
        with pytest.raises(ValueError, match="seed"):
            eigenvalues(mat, 2, info, seed=seed)


def test_gauge_translation_leaves_spectrum_invariant():
    # Same field strength, gauge shifted by a constant vector: use the
    # generator Q = X + c, whose shift is -(BX)_j - (Bc)_j.  The spectrum
    # depends on the field alone, so the shift goes to the grid as it is.
    b = get_preset("landau").specs[0].b
    shifted_q = (
        CoordFunction.x(1),
        CoordFunction.x(2) + CoordFunction.scalar(F(7, 5)),
        CoordFunction.x(3) - CoordFunction.scalar(F(2, 3)),
    )
    grid = GridSpec(extent=10.0, points=48)
    consts = {"e": 1.0, "B": 1.0, "m": 1.0}
    r1 = eigenvalues(*_both(discretize(*plane("landau"), grid, consts)),
                     seed=1)
    r2 = eigenvalues(*_both(discretize(
        DeformationSpec(b, shifted_q).shift, None, grid, consts)), seed=1)
    for a, b in zip(r1.eigenvalues[:10], r2.eigenvalues[:10]):
        assert abs(a - b) / abs(b) < 0.005


def _both(pair):
    mat, info = pair
    return mat, 10, info


def _warped_convolution(preset, grid, constants):
    """The free lattice Hamiltonian deformed as the paper's warped
    convolution deforms it, written down without ``discretize``'s Peierls
    phases: (H_B)_ab = (H_free)_ab exp(i Q(x_a)^T B Q(x_b)), the phase
    summed over the preset's specs, at the nodes x_a of the x1 = 0 plane.

    For a generator linear in x this is the Peierls phase of every hop,
    whose link integrals the midpoint rule takes exactly.  The flux line's
    Q = x / rho gives b sin(dtheta) where the Peierls phase is b dtheta,
    dtheta being the angle a hop subtends at the axis: at N = 32, L = 10,
    e = phi_M = 1 the two matrices differ by 1.15 off the diagonal, so
    aharonov_bohm is not compared.
    """
    free, _ = discretize(*plane("free"), grid, {"m": constants["m"]})
    xs = np.array(grid.nodes())
    x2, x3 = (v.ravel() for v in np.meshgrid(xs, xs, indexing="ij"))
    phase = 0.0
    for spec in preset.specs:
        q = np.array([np.broadcast_to(c.compile(constants)(0.0, x2, x3),
                                      x2.shape).real
                      for c in spec.generator])
        b = np.array([[entry.compile(constants)(0.0, 0.0, 0.0).real
                       for entry in row] for row in spec.rows])
        phase = phase + q.T @ b @ q
    return free.toarray() * np.exp(1j * phase)


@pytest.mark.parametrize("name", ["landau", "gravito_constant", "zeeman",
                                  "combined_constant"])
def test_peierls_phases_are_the_warped_convolution(name):
    # Constants under which no deformation cancels: at Omega = 3/4 the
    # combined matrix would be the free one.
    grid = GridSpec(extent=10.0, points=32)
    constants = {"e": 1.0, "m": 1.0, "B": 1.5, "Omega": 0.25}
    preset = get_preset(name)
    mat, _ = discretize(preset.shift, preset.potential, grid, constants)
    oracle = _warped_convolution(preset, grid, constants)
    off_diagonal = ~np.eye(oracle.shape[0], dtype=bool)

    def departure(candidate):
        return np.abs(candidate.toarray() - oracle)[off_diagonal].max()
    # Measured: 1.3e-14 to 4.5e-14 here, and 5.1 to 12.7 for the mutant
    # whose Peierls phases have the wrong sign.
    assert departure(mat) < 1e-12 * grid.hop(1.0)
    assert departure(mat.conj()) > 1.0


def test_degeneracy_report():
    grid = GridSpec(extent=4.0, points=32)
    mat, info = discretize(*plane("free"), grid, {"m": 1.0})
    evs = eigenvalues(mat, 8, info).eigenvalues
    # box degeneracy pattern 1, 2, 1, 2: E11, E12 = E21, E22, E13 = E31
    assert list(np.diff(evs[:6]) < 0.05) == [False, True, False, False, True]


def test_lowest_cluster_grows_with_field():
    sizes = {}
    for bval in (1.0, 2.0):
        grid = GridSpec(extent=10.0, points=64)
        mat, info = discretize(*plane("landau"), grid,
                               {"e": 1.0, "B": bval, "m": 1.0})
        evs = eigenvalues(mat, 40, info, seed=3).eigenvalues
        # levels chained to the lowest by gaps under 0.05 B
        sizes[bval] = 1 + np.argmin(np.diff(evs) < 0.05 * bval)
    # flux counting: doubling B roughly doubles the lowest-level count
    ratio = sizes[2.0] / sizes[1.0]
    assert 1.4 < ratio < 3.0


def test_holonomy_flux_line():
    ab = get_preset("aharonov_bohm")
    gf = extract_gauge_field(*ab.coupled_specs()[0])
    consts = {"e": 2.0, "phi_M": 3.7}
    for radius in (0.5, 1.0, 2.0):
        val = holonomy(gf, radius, constants=consts)
        assert abs(val - 3.7) / 3.7 < 0.005
    # loop not encircling the axis
    val = holonomy(gf, 0.4, center=(0.0, 2.0, -1.0), constants=consts)
    assert abs(val) < 1e-3 * 3.7


def test_holonomy_constant_field():
    lan = get_preset("landau")
    gf = extract_gauge_field(*lan.coupled_specs()[0])
    val = holonomy(gf, 1.5, constants={"e": 1.0, "B": 2.0})
    expected = 2.0 * math.pi * 1.5 ** 2
    assert abs(val - expected) / expected < 0.005


def test_holonomy_refuses_a_field_that_is_not_real():
    # b = (i, 0, 0) shifts the momenta by i times the field of b = (1, 0, 0).
    q = tuple(CoordFunction.x(j) for j in (1, 2, 3))
    e = CoordFunction.constant("e")
    real = extract_gauge_field(DeformationSpec((1, 0, 0), q), e)
    assert holonomy(real, 1.0, constants={"e": 1}) == pytest.approx(
        2 * math.pi)
    imaginary = extract_gauge_field(DeformationSpec((QC(0, 1), 0, 0), q), e)
    with pytest.raises(UnsupportedOperandError,
                       match="^A_2 is not real on the loop$"):
        holonomy(imaginary, 1.0, constants={"e": 1})
    with pytest.raises(UnsupportedOperandError,
                       match="^A_3 is not real on the loop$"):
        holonomy((real[0], real[1], real[2].scale(QC(1, 1))), 1.0,
                 constants={"e": 1})


def test_holonomy_validation_and_singular_loop():
    ab = get_preset("aharonov_bohm")
    gf = extract_gauge_field(*ab.coupled_specs()[0])
    with pytest.raises(ValueError):
        holonomy(gf, -1.0, constants={"e": 1, "phi_M": 1})
    with pytest.raises(ValueError):
        holonomy(gf, 1.0, points=4, constants={"e": 1, "phi_M": 1})
    # A radius that is not finite, and more points than add accuracy.
    for radius in (math.nan, math.inf):
        with pytest.raises(NonPositiveParameterError):
            holonomy(gf, radius, constants={"e": 1, "phi_M": 1})
    with pytest.raises(ConfigError, match="65536"):
        holonomy(gf, 1.0, points=2 ** 16 + 1, constants={"e": 1, "phi_M": 1})
    with pytest.raises(SingularLoopError):
        # center distance equals radius: the loop touches rho = 0
        holonomy(gf, 1.0, center=(0.0, 1.0, 0.0), points=16,
                 constants={"e": 1, "phi_M": 1})
    lt = get_preset("lense_thirring")
    with pytest.raises(SingularLoopError, match="r = 0"):
        # the node at theta = 3 pi / 2 lies within 2e-16 of the origin
        holonomy(extract_gauge_field(*lt.coupled_specs()[0]), 1.0,
                 center=(0.0, 1.0, 0.0), points=8,
                 constants={"m": 1, "Omega": 1})
    # The singular-node tolerance scales with the loop: every node of a loop
    # of radius 1e-10 about the axis lies 1e-10 from it.
    assert holonomy(gf, 1e-10, constants={"e": 1, "phi_M": 1}) == 1.0
    # The axis tolerance leaves out c1, which no distance to the axis holds:
    # a small loop moved along x1 keeps its holonomy, and a loop moved along
    # x1 that touches the axis is still refused.
    assert holonomy(gf, 1e-8, center=(10.0, 0.0, 0.0),
                    constants={"e": 1, "phi_M": 1}) == 1.0
    with pytest.raises(SingularLoopError, match="rho = 0"):
        holonomy(gf, 1.0, center=(10.0, 1.0, 0.0), points=16,
                 constants={"e": 1, "phi_M": 1})
    # A center that is not three finite numbers.
    for field, constants in ((gf, {"e": 1, "phi_M": 1}), (
            extract_gauge_field(*lt.coupled_specs()[0]),
            {"m": 1, "Omega": 1})):
        for center in ((math.nan, 0.0, 0.0), (0.0, math.inf, 0.0), (0, 0)):
            with pytest.raises(ConfigError, match="loop center"):
                holonomy(field, 1.0, center=center, constants=constants)


def test_residual_failure_names_its_count_and_largest(monkeypatch):
    mat, info = discretize(*plane("landau"), GridSpec(10.0, 12),
                           {"e": 1.0, "B": 1.5, "m": 1.0})
    residuals = eigenvalues(mat, 8, info).residuals  # the dense path
    assert min(residuals) > 0
    monkeypatch.setattr(spectra, "_RESIDUAL_TOL", 0)
    with pytest.raises(NonConvergenceError) as caught:
        eigenvalues(mat, 8, info)
    assert str(caught.value) == (f"8 of 8 residuals exceed 0; the largest "
                                 f"is {max(residuals):.3g}")


def test_lanczos_failure_names_the_pairs_it_converged(monkeypatch):
    mat, info = discretize(*plane("landau"), GridSpec(10.0, 20),
                           {"e": 1.0, "B": 1.5, "m": 1.0})

    def stalled(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence(
            "ARPACK error -1: No convergence", np.zeros(3),
            np.zeros((mat.shape[0], 3)))
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", stalled)
    with pytest.raises(NonConvergenceError,
                       match=r"did not converge: 3 of 16 pairs$"):
        eigenvalues(mat, 2, info)


def test_dense_and_sparse_paths_agree(monkeypatch):
    cases = [
        (plane("landau"), GridSpec(extent=10.0, points=16),
         {"e": 1.0, "B": 1.0, "m": 1.0}),
        # The lowest levels are negative and far from zero.
        ((NO_SHIFT, CoordFunction.scalar(-5)),
         GridSpec(extent=4.0, points=20), {"m": 1.0}),
    ]
    for field, grid, consts in cases:
        mat, info = discretize(*field, grid, consts)
        levels = []
        # A limit above the size forces the dense path, 0 the sparse one.
        for limit in (mat.shape[0] + 1, 0):
            monkeypatch.setattr(spectra, "_DENSE_LIMIT", limit)
            levels.append(eigenvalues(mat, 8, info, seed=4).eigenvalues)
        dense, sparse = levels
        assert max(abs(a - b) for a, b in zip(dense, sparse)) < 1e-10


def test_dense_path_solves_a_grid_too_small_for_lanczos():
    # 16 unknowns: the sparse path would ask ARPACK for at least
    # _LANCZOS_MIN_LEVELS = 16 levels, and ARPACK takes fewer than n - 1.
    mat, info = discretize(*plane("landau"), GridSpec(10.0, 4),
                           {"e": 1.0, "B": 1.5, "m": 1.0})
    assert mat.shape[0] - 1 <= spectra._LANCZOS_MIN_LEVELS
    got = eigenvalues(mat, 14, info).eigenvalues
    ref = scipy.linalg.eigvalsh(mat.toarray())[:14]
    assert len(got) == 14
    assert max(abs(a - b) for a, b in zip(got, ref)) < 1e-10


def test_small_k_sparse_spectrum_matches_dense_eigh():
    # The lowest Landau band is nearly degenerate: Lanczos asked for only
    # these two levels used to stall here instead of converging.
    mat, info = discretize(*plane("landau"), GridSpec(10.0, 20),
                           {"e": 1.0, "B": 1.5, "m": 1.0})
    assert mat.shape[0] >= spectra._DENSE_LIMIT  # the sparse path
    got = eigenvalues(mat, 2, info).eigenvalues
    ref = scipy.linalg.eigh(mat.toarray(), eigvals_only=True,
                            subset_by_index=[0, 1])
    assert len(got) == 2
    assert max(abs(a - b) for a, b in zip(got, ref)) < 1e-10

"""Grid verification of deformed Hamiltonians.

A grid spectrum reads the plain shift triple (S1, S2, S3) and the
potential, not a preset: it depends on the field alone.  The physical
spectra of interest are transverse: for a field along x1 the level
structure lives in the (x2, x3) plane, so the Hamiltonian is discretized in
the p1 = 0 sector on a Dirichlet box with the grid offset by half a cell
(no node ever hits r = 0 or rho = 0).  The shift enters through Peierls
phases on the hops of a fourth-order stencil, which keeps the matrix
hermitian to machine precision.  Where the midpoint rule integrates the
shift exactly along each link (a shift affine in x2, x3, as for a constant
field in any linear gauge) a change of gauge conjugates the matrix by a
diagonal unitary, so the spectrum depends on the field strength alone.
Each profile (S at nodes or link midpoints, the potential) is one call of
the compiled coordinate function (``CoordFunction.compile``) on the node
meshgrid, the same evaluator ``gauge.holonomy`` calls per loop point.  The
magnetic-length warning reads B1 = F23 of ``gauge.curl`` of the shift,
the one place the curl is written.

The matrix is assembled straight into canonical CSR: a row's at most nine
stencil columns come in a fixed ascending order, so each entry is written
once into its slot.  It is float64 when no hop carries a phase (the
sampled shift vanishes in the plane, as for ``free`` with or without a
potential) and complex128 otherwise; a real matrix gets a real LU factor
of half the size and symmetric Lanczos.

This is the one module that imports numpy and scipy.  The package and the
CLI import it only when a spectrum is asked for, so the symbolic commands
(and ``holonomy``, which lives in ``gauge``) never load the numeric stack.
The grid box (``models.GridSpec``) and the refusals of a spectrum's k,
mass, hop and transverse reduction (``models.check_levels`` and
``grid_inputs``) are numpy-free: the CLI makes them before it imports it.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .coords import CoordFunction
from .errors import (ConfigError, NonConvergenceError,
                     UnsupportedOperandError, WarpconvError)
from .gauge import curl
from .models import GridSpec, check_levels, grid_inputs

# Unknowns below which the dense solver is used: where the dense and the
# shift-invert solves of 16 levels take equally long on the transverse grid.
_DENSE_LIMIT = 300
# Shift-invert Lanczos asks for at least this many levels and keeps the
# lowest k: with fewer it stalls on the near-degenerate lowest Landau band
# (Landau B = 3/2, N = 20: k = 2 did not converge in 12 s on a 2-core
# host, while 16 levels take 0.02 s).
_LANCZOS_MIN_LEVELS = 16
# Largest residual norm ||A v - lambda v|| / ||v|| a returned pair may have,
# relative to the largest diagonal entry max|A_ii|: roundoff leaves
# 4.5e-16 to 2.0e-15 of it on every grid the tests and the benchmark solve.
_RESIDUAL_TOL = 1e-11


class SpectrumResult:
    """Ascending eigenvalues with residual certificates and grid metadata."""

    __slots__ = ("eigenvalues", "residuals", "grid", "warnings", "seed")

    def __init__(self, eigenvalues: list[float], residuals: list[float],
                 grid: dict, warnings: list[str], seed: int):
        self.eigenvalues = eigenvalues
        self.residuals = residuals
        self.grid = grid
        self.warnings = warnings
        self.seed = seed

    def to_json_dict(self) -> dict:
        return {
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "residuals": [float(v) for v in self.residuals],
            "count": len(self.eigenvalues),
            "grid": self.grid,
            "warnings": list(self.warnings),
            "seed": self.seed,
        }

    def to_csv(self) -> str:
        lines = ["index,eigenvalue,residual"]
        for i, (ev, res) in enumerate(zip(self.eigenvalues, self.residuals)):
            lines.append(f"{i},{ev!r},{res!r}")
        return "\n".join(lines) + "\n"


def _plane_profile(f: CoordFunction, xs2: np.ndarray, xs3: np.ndarray,
                   constants: dict, what: str) -> np.ndarray:
    """Sample a coordinate function on the x1 = 0 plane at (xs2 x xs3)."""
    x2, x3 = np.meshgrid(xs2, xs3, indexing="ij")
    v = np.broadcast_to(f.compile(constants)(0.0, x2, x3), x2.shape)
    not_real = np.abs(v.imag) > 1e-12 * (1.0 + np.abs(v.real))
    if not_real.any():
        raise UnsupportedOperandError(
            f"{what} is not real on the grid: {complex(v[not_real][0])}")
    return v.real


# Constants too large for float64 overflow quietly here: the finished
# matrix is refused whole if an entry is not finite.
@np.errstate(over="ignore", invalid="ignore")
def discretize(shift: tuple[CoordFunction, ...],
               potential: CoordFunction | None, grid: GridSpec,
               constants: dict) -> tuple[scipy.sparse.csr_matrix, dict]:
    """Sparse hermitian matrix of (1/2m) [(P2+S2)^2 + (P3+S3)^2 + S1^2]
    + potential (None: none) on the transverse grid; shift = (S1, S2, S3).

    Each axis uses the fourth-order 5-point stencil, t (30/12 on the
    diagonal, -16/12 to the nearest and +1/12 to the next-nearest node)
    with t = 1/(2m h^2).  A hop from node a to node b carries the Peierls
    phase exp(i int_a^b S), where S is the shift along the hop's axis; the
    integral over each h-link is h times S at the link midpoint, and a 2h
    hop takes the sum of its two links.  S1^2/2m and the potential stay on
    the diagonal.  Beyond each Dirichlet wall the next-nearest neighbour is
    the odd reflection of the wall-adjacent node, which subtracts t/12 from
    that node's diagonal.

    Per axis the kinetic stencil equals t (X - 2)(X - 14)/12 with
    X = T + T^dagger the phased nearest-neighbour hop, ||X|| <= 2, walls
    included, so it is positive semidefinite and the smallest diagonal
    value of S1^2/2m + potential is a lower bound on the spectrum.

    ``constants`` binds every constant of the shift and the potential
    (``pi`` is bound unless given) and must bind the mass ``m``; a mass
    that is not positive, or one that leaves t infinite, raises
    NonPositiveParameterError (``GridSpec.hop``), and a shift that depends
    on x1 UnsupportedOperandError (``models.grid_inputs``).  Each profile
    is sampled in one call on the meshgrid of its nodes; a negative power
    of r or rho at a node on r = 0 or rho = 0 (an odd N puts nodes on the
    axes) raises SingularPointError.

    Returns (matrix, info).  The matrix is canonical CSR, float64 when no
    hop carries a phase and complex128 otherwise; an entry that is not
    finite (constants too large for float64) raises WarpconvError.  info
    carries warnings (coarse grid, magnetic length under 4 spacings, a
    potential that depends on x1 and is solved on x1 = 0 alone), the
    hermiticity defect (the largest gap between a stored hop and the
    conjugate of its mirror entry, 0 by construction) and that spectral
    floor.
    """
    mass, t = grid_inputs(shift, grid, constants)

    n = grid.points
    h = grid.spacing
    warnings: list[str] = []
    if n < 16:
        warnings.append(f"grid-too-coarse: N={n} < 16")
    if potential is not None and not potential.partial(1).is_zero():
        warnings.append("plane-restricted: the potential depends on x1, so "
                        "this is H on the plane x1 = 0")

    # S_1 at the nodes; S_2 and S_3 at the midpoints of the links along
    # their own axis, where the midpoint rule gives each link's phase.
    xs = np.array(grid.nodes())
    mid = xs[:-1] + 0.5 * h
    s1 = _plane_profile(shift[0], xs, xs, constants, "S_1")
    phase2 = h * _plane_profile(shift[1], mid, xs, constants, "S_2")
    phase3 = h * _plane_profile(shift[2], xs, mid, constants, "S_3")

    vpot = np.zeros((n, n))
    if potential is not None:
        vpot = _plane_profile(potential, xs, xs, constants, "potential")

    # Effective field strength at the box center for the coarseness check.
    probe = (0.0, 0.25 * h, 0.25 * h)
    f23 = curl(shift)[0].compile(constants)(*probe).real
    if f23 != 0.0:
        ell = 1.0 / math.sqrt(abs(f23))
        if ell < 4 * h:
            warnings.append(
                f"grid-too-coarse: magnetic length {ell:.3g} < 4 spacings")

    size = n * n
    ghost = np.zeros(n)  # odd-reflection ghosts of the wall-adjacent nodes
    ghost[[0, -1]] = t / 12.0
    diag = (5.0 * t - ghost[:, None] - ghost[None, :]
            + s1 ** 2 / (2.0 * mass) + vpot)

    # Hops one and two links along each axis (rows of the phase array),
    # each with the exponential of the integral of S over the links it
    # spans.  Without a phase on any hop the matrix is real.
    hops = []
    for phase in (phase2, phase3.T):
        hops.append((-16.0 / 12.0) * t * np.exp(1j * phase))
        hops.append((t / 12.0) * np.exp(1j * (phase[:-1] + phase[1:])))
    if not any(hop.imag.any() for hop in hops):
        hops = [hop.real for hop in hops]

    # Canonical CSR, filled in place.  Row (i, j) holds its columns in
    # ascending order: (i-2, j), (i-1, j), (i, j-2) .. (i, j+2), (i+1, j),
    # (i+2, j), each one that lies in the box; ``below`` and ``above``
    # count a node's neighbours on either side along one axis, and ``at``
    # is the slot of each row's diagonal.
    below = np.minimum(np.arange(n), 2)
    above = below[::-1]
    itype = np.int32 if 9 * size < 2 ** 31 else np.int64
    indptr = np.zeros(size + 1, itype)
    np.cumsum(1 + (below + above)[:, None] + (below + above)[None, :],
              out=indptr[1:])
    data = np.empty(indptr[-1], hops[0].dtype)
    indices = np.empty(indptr[-1], itype)
    idx = np.arange(size).reshape(n, n)
    at = indptr[:-1].reshape(n, n) + below[:, None] + below[None, :]
    data[at], indices[at] = diag, idx
    # An x3 hop sits next to the diagonal slot; an x2 hop sits beyond the
    # node's x3 hops on its side.
    pairs = []
    for ids, slot, (near, far), before, after in (
            (idx, at, hops[:2], below, above),
            (idx.T, at.T, hops[2:], 0, 0)):
        for s, hop in ((1, near), (2, far)):
            forward, backward = slot[:-s] + s + after, slot[s:] - s - before
            data[forward], indices[forward] = hop, ids[s:]
            data[backward], indices[backward] = np.conj(hop), ids[:-s]
            pairs.append((forward, backward))
    if not np.isfinite(data).all():
        raise WarpconvError("the grid Hamiltonian has an entry that is not "
                            "finite; the constants are too large")
    mat = scipy.sparse.csr_matrix((data, indices, indptr), shape=(size, size))

    # Each stored hop against its mirror entry (the diagonal is real).
    defect = max(np.abs(data[f] - np.conj(data[b])).max(initial=0.0)
                 for f, b in pairs)
    info = {
        "warnings": warnings,
        "hermiticity_defect": float(defect),
        "spectral_floor": float((s1 ** 2 / (2.0 * mass) + vpot).min()),
        "grid": grid.metadata(),
        "effective_field": float(f23),
        "mass": mass,
    }
    return mat, info


def eigenvalues(matrix: scipy.sparse.spmatrix, k: int, info: dict,
                seed: int = 0) -> SpectrumResult:
    """k smallest eigenvalues with residual certificates: each pair's
    residual is at most _RESIDUAL_TOL times the largest |diagonal entry|.

    Dense solver below _DENSE_LIMIT unknowns, shift-invert Lanczos from
    there up; the Lanczos start vector is seeded, so results are
    reproducible.  ``models.check_levels`` refuses k, and ConfigError a
    seed numpy refuses, one that is not an integer >= 0.  Shift-invert
    returns the eigenvalues nearest the shift, so the shift sits at
    min(0, info["spectral_floor"]), at or below the whole spectrum;
    ``info`` is the second value ``discretize`` returns.
    """
    size = matrix.shape[0]
    check_levels(k, size)
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ConfigError("seed must be an integer >= 0")
    if size < _DENSE_LIMIT:
        dense = matrix.toarray()
        vals, vecs = scipy.linalg.eigh(dense, subset_by_index=[0, k - 1])
    else:
        rng = np.random.default_rng(seed)
        v0 = rng.standard_normal(size)
        sigma = min(0.0, info["spectral_floor"])
        # The stencil is structurally symmetric: a minimum-degree order on
        # A^T + A gives a sparser LU than the default column order, so both
        # the factorization and each shift-invert solve are cheaper.  The
        # shifted CSR is a temporary: only its CSC copy lives through splu.
        lu = scipy.sparse.linalg.splu(
            (matrix - sigma * scipy.sparse.identity(size, format="csr"))
            .tocsc(), permc_spec="MMD_AT_PLUS_A")
        inverse = scipy.sparse.linalg.LinearOperator(
            matrix.shape, matvec=lu.solve, dtype=matrix.dtype)
        levels = max(k, _LANCZOS_MIN_LEVELS)
        try:
            vals, vecs = scipy.sparse.linalg.eigsh(
                matrix, k=levels, sigma=sigma, which="LM", v0=v0,
                OPinv=inverse)
        except scipy.sparse.linalg.ArpackNoConvergence as exc:
            raise NonConvergenceError(
                f"Lanczos iteration did not converge: "
                f"{len(exc.eigenvalues)} of {levels} pairs") from exc
        order = np.argsort(vals)[:k]
        vals, vecs = vals[order], vecs[:, order]

    residuals = []
    # A huge hop can overflow a residual: it is then inf or nan, and fails.
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(k):
            v = vecs[:, i]
            res = np.linalg.norm(matrix @ v - vals[i] * v) / np.linalg.norm(v)
            residuals.append(float(res))
    bound = _RESIDUAL_TOL * np.abs(matrix.diagonal()).max()
    bad = [r for r in residuals if not r <= bound]
    if bad:
        raise NonConvergenceError(
            f"{len(bad)} of {k} residuals exceed {bound:.3g}; the "
            f"largest is {np.max(bad):.3g}")
    return SpectrumResult(
        eigenvalues=[float(v) for v in vals],
        residuals=residuals,
        grid=info["grid"],
        warnings=list(info["warnings"]),
        seed=seed,
    )

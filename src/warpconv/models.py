"""Preset catalog of physical systems reproduced by deformation.

The catalog is text.  Every preset is one row of ``_CATALOG``: the names
of its sources, an optional potential energy V and a sign note.  A *source*
is one row of ``_SOURCES``, one kind of field along x1 (none, constant
magnetic, flux line, constant gravitomagnetic or Lense-Thirring), and
carries all that a preset takes from it:

- the gauge coupling g with which the momentum shift is S = g A;
- the charge and the textbook field of its minimal-coupling reference,
  written down independently of the deformation machinery;
- the axial triple b of its matrix, and its generator triple Q;
- whether the effect is stated only to linear order in Omega.
Every expression of a row is text, read by the readers of ``parsing`` that
read ``--Q`` and ``--coupling``: a source row once per process, when a
preset first needs it.

``get_preset`` builds a preset from its row alone: ``ModelPreset`` makes
one spec per source, and the specs deform H0 (plus the potential) in
turn, which commute because the generators do.  The reference, built on
first read, is (1/2m) (P + sum_i g_i A_i)^2 plus the potential, g_i being
each source's charge.  Verifying a preset means checking that the
deformation reproduces that reference exactly, or, where a source is stated
to linear order, exactly after the explicit truncation in Omega.

Sign bookkeeping: the whole package works in plain Cartesian components
with [X_j, P_k] = i delta_jk and H0 = P^2/2m.  In that convention an axial
deformation matrix B_ij = epsilon_ijk b^k shifts P_j by -(B x)_j, so each
source's matrix is the sign-translated version of the mixed-convention
display it reproduces; the translation is recorded per preset in
``sign_note``.  Physical observables (spectra, field magnitudes, fluxes)
do not depend on it.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .coords import CoordFunction
from .deform import (DeformationSpec, as_triple, deform_coordinate,
                     deform_sequence, invert_transverse_block)
from .errors import (ConfigError, InternalInconsistencyError,
                     NonPositiveParameterError, UnboundConstantError,
                     UnsupportedOperandError)
from .operators import HALF_OVER_M, OperatorExpr, require_coordinate_only
from .parsing import parse_coupling, parse_function, parse_triple
from .scalars import QC


class ModelPreset:
    """A named physical system obtained by deforming H0 (or H0 + potential);
    ``specs[i]`` is the deformation of ``sources[i]``, built from it here."""

    # No __slots__: each cached_property keeps its value in the instance
    # __dict__.
    def __init__(self, name: str, sources: tuple[_Source, ...],
                 potential: CoordFunction | None, sign_note: str):
        self.name = name
        self.sources = sources  # the catalog sources the references read
        self.specs = tuple(DeformationSpec(s.b, s.generator) for s in sources)
        self.potential = potential
        self.sign_note = sign_note

    def coupled_specs(self) -> list[tuple[DeformationSpec, CoordFunction]]:
        """Each spec with its own source's coupling g (S = g A)."""
        return [(spec, source.coupling)
                for spec, source in zip(self.specs, self.sources)]

    def base_hamiltonian(self) -> OperatorExpr:
        h = OperatorExpr.free_hamiltonian()
        if self.potential is not None:
            h = h + OperatorExpr.from_coord(self.potential)
        return h

    @functools.cached_property
    def deformed(self) -> OperatorExpr:
        """The deformed Hamiltonian, computed once per preset object: the
        reference, linearized and hermiticity checks all start from it."""
        return deform_sequence(self.base_hamiltonian(), self.specs)

    # The references are built on first read: only the model checks of
    # ``verify`` and the tests read them.
    @functools.cached_property
    def reference_hamiltonian(self) -> OperatorExpr:
        return minimal_coupling_hamiltonian(
            [(s.charge, s.field) for s in self.sources], self.potential)

    @functools.cached_property
    def linearized_reference(self) -> OperatorExpr | None:
        """The reference to linear order in Omega, or None without a source
        stated to that order: the exact part plus sum_j h_j (P_j + e A_j),
        since each linear source couples with charge m and (1/2m) 2 m = 1."""
        linear = [s.field for s in self.sources if s.linear]
        if not linear:
            return None
        exact = [(s.charge, s.field) for s in self.sources if not s.linear]
        linearized = minimal_coupling_hamiltonian(exact, self.potential)
        for j, term in enumerate(_coupled_momenta(exact)):
            for h in linear:
                linearized = linearized + term.coord_multiply(h[j])
        return linearized

    @property
    def small_constants(self) -> tuple[str, ...]:
        return ("Omega",) if any(s.linear for s in self.sources) else ()

    @functools.cached_property
    def shift(self) -> tuple[CoordFunction, ...]:
        """Total momentum shift (S1, S2, S3) of all specs (they commute)."""
        total = [CoordFunction.zero()] * 3
        for spec in self.specs:
            total = [a + b for a, b in zip(total, spec.shift)]
        return tuple(total)

    def metadata(self) -> dict:
        return {
            "name": self.name,
            "matrices": [f"[{'; '.join(', '.join(map(str, r)) for r in s.rows)}]"
                         for s in self.specs],
            "generators": [[str(q) for q in s.generator] for s in self.specs],
            "coupling": str(self.sources[0].coupling),
            "potential": str(self.potential) if self.potential is not None else None,
            "sign_note": self.sign_note,
            "field_axis": 1,  # every catalog field lies along x1
        }


class GridSpec:
    """Transverse Dirichlet box of a grid spectrum: extent L, N points per
    axis in the (x2, x3) plane.  It needs no numpy, so the CLI validates it
    before loading ``spectra``: an extent that is not positive and finite
    raises NonPositiveParameterError, fewer than 2 points ConfigError."""

    __slots__ = ("extent", "points")

    def __init__(self, extent: float, points: int):
        if not (math.isfinite(extent) and extent > 0):
            raise NonPositiveParameterError(
                f"grid extent must be positive and finite, got {extent!r}")
        if points < 2:
            raise ConfigError(f"need at least 2 points per axis, got {points}")
        self.extent = extent
        self.points = points

    @property
    def spacing(self) -> float:
        # Interior-node Dirichlet grid: walls at +-L/2 are one spacing
        # beyond the outermost nodes, so the effective box length is
        # exactly L.  For even N the nodes sit at half-integer multiples
        # of the spacing and never hit r = 0 or rho = 0.
        return self.extent / (self.points + 1)

    def hop(self, mass: float) -> float:
        """The stencil's hop scale t = 1/(2 m h^2); refused unless the mass
        is positive and t is finite (2 m h^2 may underflow)."""
        if not mass > 0:
            raise NonPositiveParameterError(
                f"mass m must be positive, got {mass!r}")
        denominator = 2.0 * mass * self.spacing * self.spacing
        if not (denominator > 0.0 and math.isfinite(1.0 / denominator)):
            raise NonPositiveParameterError(
                f"2 m h^2 = {denominator!r} leaves the hop 1/(2 m h^2) "
                f"infinite (m = {mass!r}, h = {self.spacing!r})")
        return 1.0 / denominator

    def nodes(self) -> list[float]:
        h = self.spacing
        return [-self.extent / 2.0 + (i + 1) * h for i in range(self.points)]

    def metadata(self) -> dict:
        return {"extent": self.extent, "points": self.points,
                "plane_axes": [2, 3], "boundary": "dirichlet"}


def check_levels(k: int, unknowns: int) -> None:
    """ConfigError unless 1 <= k <= min(64, unknowns - 2) for the k lowest
    levels of ``unknowns`` rows: numpy-free, so the CLI refuses a k of
    ``eigenvalues`` before it loads numpy."""
    k_max = min(64, unknowns - 2)
    if not 1 <= k <= k_max:
        raise ConfigError(f"k must be between 1 and {k_max} for a matrix "
                          f"dimension of {unknowns}, got {k}")


def grid_inputs(shift: tuple[CoordFunction, ...], grid: GridSpec,
                constants: dict) -> tuple[float, float]:
    """The mass m and hop t (``GridSpec.hop``) of a grid spectrum of the
    shift triple ``shift``, refusing an unbound m, a bad hop, then a shift
    whose x1 derivative is not exactly zero (no p1 = 0 sector); numpy-free,
    so the CLI makes these refusals of ``discretize`` before it loads
    numpy."""
    if "m" not in constants:
        raise UnboundConstantError("mass constant 'm' must be bound")
    mass = float(constants["m"])
    t = grid.hop(mass)
    for j, s in enumerate(shift, start=1):
        if not s.partial(1).is_zero():
            raise UnsupportedOperandError(
                f"momentum shift S_{j} depends on x1; this preset has "
                "no transverse-plane reduction")
    return mass, t


# -- the catalog -------------------------------------------------------------


def _coupled_momenta(charges) -> list[OperatorExpr]:
    """P_j + sum_i g_i A_i,j for j = 1, 2, 3, over (g_i, A_i) pairs."""
    out = []
    for j in (1, 2, 3):
        factor = OperatorExpr.momentum(j)
        for g, a in charges:
            factor = factor + OperatorExpr.from_coord(a[j - 1].scale(g))
        out.append(factor)
    return out


def minimal_coupling_hamiltonian(
        charges: list[tuple[CoordFunction, tuple[CoordFunction, ...]]],
        potential: CoordFunction | None = None) -> OperatorExpr:
    """(1/2m) sum_j (P_j + sum_i g_i A_i,j)^2 (+ potential), by direct expansion."""
    h = OperatorExpr.zero()
    for factor in _coupled_momenta(charges):
        h = h + factor * factor
    h = h.scale(HALF_OVER_M)
    if potential is not None:
        h = h + OperatorExpr.from_coord(potential)
    return h


# source name -> (coupling g, charge, textbook field A, sign-translated
# axial b, generator Q, linear), as the module docstring lists them.
_SOURCES = {
    "none": ("e", "e", "0, 0, 0", "0, 0, 0", "X1, X2, X3", False),
    # A = (1/2) B cross x, the symmetric gauge; axial e B/2 shifts P by +e A.
    "magnetic": ("e", "e", "0, -B*X3/2, B*X2/2", "e*B/2, 0, 0",
                 "X1, X2, X3", False),
    # A = (phi_M / 2 pi) (0, -x3, x2) / rho^2; axial e phi_M / 2 pi shifts P
    # by +e A.
    "flux_line": ("e", "e", "0, -phi_M*X3/(2*pi*rho^2), "
                  "phi_M*X2/(2*pi*rho^2)", "e*phi_M/(2*pi), 0, 0",
                  "X1/rho, X2/rho, X3/rho", False),
    # h = x cross Omega; axial -m Omega shifts P by +m h.
    "gravito_constant": ("-m", "m", "0, Omega*X3, -Omega*X2",
                         "-m*Omega, 0, 0", "X1, X2, X3", True),
    # h = (x cross Omega) / r^3, generated by Q_j = x_j / r^(3/2).
    "lense_thirring": ("-m", "m", "0, Omega*X3/r^3, -Omega*X2/r^3",
                       "-m*Omega, 0, 0",
                       "X1*r^(-3/2), X2*r^(-3/2), X3*r^(-3/2)", True),
}


class _Source:
    """One row of ``_SOURCES``, read once per process (``_source``); it
    holds b and Q, not a spec, which ``ModelPreset`` builds fresh."""

    __slots__ = ("coupling", "charge", "field", "b", "generator", "linear")

    def __init__(self, name: str):
        coupling, charge, field, b, generator, self.linear = _SOURCES[name]
        self.coupling, self.charge = map(parse_coupling, (coupling, charge))
        self.field, self.b, self.generator = (
            parse_triple(text, name, symbol)
            for text, symbol in ((field, "A"), (b, "b"), (generator, "Q")))


_source = functools.cache(_Source)

_SIGN_NOTE = ("matrix is the Cartesian translation (overall sign) of the "
              "mixed-convention display; with [X,P]=+i the induced shift is "
              "-(Bx)_j and this sign reproduces the target gauge field "
              "verbatim")

# name -> (source names, potential, sign note).  Omega is kept an atomic
# symbol so the checks stay exact; numeric values enter through the
# constants map.
_CATALOG = {
    # Undeformed free particle; the numeric baseline.
    "free": (("none",), None, "no deformation"),
    # Charged particle in a constant field B (symmetric gauge).
    "landau": (("magnetic",), None, _SIGN_NOTE),
    # Landau plus the repulsive +e^2/r: a hydrogen atom in a magnetic
    # field, but with the Coulomb sign flipped.
    "zeeman": (("magnetic",), "e^2/r", _SIGN_NOTE),
    # Flux line phi_M; the field strength vanishes off the axis.
    "aharonov_bohm": (("flux_line",), None, _SIGN_NOTE),
    # Hollow spinning sphere.
    "gravito_constant": (("gravito_constant",), None,
                         _SIGN_NOTE + "; Omega = (2*G*M/r_hs)*omega"),
    # Stationary spinning sphere, h = (x cross Omega)/r^3.
    "lense_thirring": (("lense_thirring",), None,
                       _SIGN_NOTE + "; Omega = 2*G*I*omega"),
    # The hollow sphere's field plus the same repulsive +e^2/r as zeeman.
    "gravito_zeeman": (("gravito_constant",), "e^2/r", _SIGN_NOTE),
    # Double deformations: a magnetic plus a gravitomagnetic field.
    "combined_constant": (("magnetic", "gravito_constant"), None, _SIGN_NOTE),
    "combined_lense_thirring": (("magnetic", "lense_thirring"), None,
                                _SIGN_NOTE),
}

PRESETS = tuple(_CATALOG)
# The presets with a linearized reference, known without reading a row.
LINEARIZED_PRESETS = tuple(name for name, (sources, _, _) in _CATALOG.items()
                           if any(_SOURCES[s][-1] for s in sources))


def get_preset(name: str) -> ModelPreset:
    """The catalog preset ``name``, built from its row alone (so with fresh
    specs that match its sources); an unknown name raises ConfigError,
    which lists the known ones."""
    if name not in _CATALOG:
        raise ConfigError(f"unknown model preset {name!r}; "
                          f"known: {', '.join(sorted(PRESETS))}")
    sources, potential, sign_note = _CATALOG[name]
    if potential is not None:
        potential = parse_function(potential, f"{name} potential")
    return ModelPreset(name, tuple(map(_source, sources)), potential,
                       sign_note)


# -- noncommuting coordinates ------------------------------------------------


def guiding_center(b: tuple):
    """Guiding-center coordinates X_i + (1/2)(B^-1)_ik P^k and their commutators.

    B's axial triple ``b`` must lie along a single axis; the inverse is taken
    on the transverse 2x2 block (``invert_transverse_block``), and an entry
    ``CoordFunction.inverse`` cannot invert is refused there, in its words.
    Returns (coords, comms) where comms[i][j] is the coordinate function of
    the commutator [Xg_i, Xg_j].
    """
    b = as_triple(b)
    nonzero = [k for k, v in enumerate(b) if not v.is_structurally_zero()]
    if len(nonzero) != 1:
        raise ConfigError("guiding-center construction needs an axial "
                          "matrix along a single axis")
    axis = nonzero[0] + 1
    binv = invert_transverse_block(b, axis)
    coords = deform_coordinate(tuple(v.scale(QC(Fraction(-1, 2)))
                                     for v in binv))
    comms = []
    for i in range(3):
        row = []
        for j in range(3):
            c = coords[i].commutator(coords[j])
            row.append(require_coordinate_only(c, "guiding-center commutator"))
        comms.append(tuple(row))
    return coords, tuple(comms)


def uncertainty_area_symbolic() -> CoordFunction:
    """The quantum-plane cell 2 pi hbar |theta_23|, computed from the algebra.

    theta_23 is read off the gravitomagnetic guiding centers,
    [Xg2, Xg3] = i theta_23 (hbar = 1 in the algebra, so hbar is restored
    as a symbol).  With m and Omega positive the cell is 2 pi hbar/(m Omega).
    """
    _, comms = guiding_center(_source("gravito_constant").b)
    theta = comms[1][2].scale(QC(0, -1))  # [Xg2, Xg3] = i theta_23
    key = next(iter(theta.terms), None)
    if (len(theta.terms) != 1 or key[:3] != ((0, 0, 0), 0, 0)
            or theta.terms[key].im):
        raise InternalInconsistencyError(
            f"theta_23 = {theta} is not a real constant")
    cell = CoordFunction({key: QC(2 * abs(theta.terms[key].re))})
    return (cell * CoordFunction.constant("hbar")
            * CoordFunction.constant("pi"))

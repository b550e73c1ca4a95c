"""Preset catalog of physical systems reproduced by deformation.

Every preset is one row of ``_CATALOG``: its sources, an optional scalar
potential and a sign note.  A *source* is one kind of field along x1 (none,
constant magnetic, flux line, constant gravitomagnetic or Lense-Thirring)
and carries all that a preset takes from it:

- the gauge coupling g with which the momentum shift is S = g A;
- the charge and the textbook field of its minimal-coupling reference,
  written down independently of the deformation machinery;
- the axial triple b of its matrix, and its generator's label and parameter;
- whether the effect is stated only to linear order in Omega.

``get_preset`` builds a preset from its row: the specs deform H0 (plus the
potential) in turn, which commute because the generators do, and the
reference, built on first read, is (1/2m) (P + sum_i g_i A_i)^2 plus the
potential, g_i being each source's charge.  Verifying a preset means
checking that the deformation reproduces that reference exactly, or, where
a source is stated to linear order, exactly after the explicit truncation
in Omega.

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
from .deform import (GENERATORS, DeformationSpec, deform_coordinate,
                     deform_sequence, invert_transverse_block)
from .errors import (InternalInconsistencyError, NonPositiveParameterError,
                     UnboundConstantError, UnsupportedOperandError)
from .operators import HALF_OVER_M, OperatorExpr, require_coordinate_only
from .scalars import QC

RAT = Fraction


class ModelPreset:
    """A named physical system obtained by deforming H0 (or H0 + potential);
    ``specs[i]`` is the deformation of ``sources[i]``, coupling included."""

    # No __slots__: each cached_property keeps its value in the instance
    # __dict__.
    def __init__(self, name: str, specs: tuple[DeformationSpec, ...],
                 potential: CoordFunction | None,
                 sources: tuple[_Source, ...], sign_note: str = ""):
        self.name = name
        self.specs = specs
        self.potential = potential
        self.sources = sources  # the catalog sources the references read
        self.sign_note = sign_note

    @property
    def coupling(self) -> CoordFunction:
        """The first source's coupling: the one the scalar potential pairs
        with and the metadata reports."""
        return self.sources[0].coupling

    def coupled_specs(self) -> list[tuple[DeformationSpec, CoordFunction]]:
        """Each spec with its own source's coupling g (S = g A)."""
        return [(spec, source.coupling)
                for spec, source in zip(self.specs, self.sources)]

    def base_hamiltonian(self) -> OperatorExpr:
        h = OperatorExpr.free_hamiltonian()
        if self.potential is not None:
            h = h + OperatorExpr.from_coord(self.potential)
        return h

    def deformed(self) -> OperatorExpr:
        return self._deformed

    def scalar_potential(self) -> CoordFunction:
        """phi with coupling * phi = potential (zero without a potential),
        the electric potential that pairs with the preset's coupling."""
        if self.potential is None:
            return CoordFunction.zero()
        return self.potential.scale(self.coupling.inverse())

    @functools.cached_property
    def _deformed(self) -> OperatorExpr:
        # Computed once per preset object: the reference, linearized and
        # hermiticity checks all start from it.
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

    def shift_functions(self) -> list[CoordFunction]:
        """Total momentum shift of all deformations (they commute)."""
        total = [CoordFunction.zero()] * 3
        for spec in self.specs:
            total = [a + b for a, b in zip(total, spec.shift)]
        return total

    def transverse_shift(self) -> list[CoordFunction]:
        """The total shift, refused unless it is independent of x1 (no x1
        power, no r power), as the p1 = 0 sector of a grid spectrum needs."""
        shift = self.shift_functions()
        for j, s in enumerate(shift, start=1):
            for (a, p, _, _) in s.terms:
                if a[0] != 0 or p != 0:
                    raise UnsupportedOperandError(
                        f"momentum shift S_{j} depends on x1; this preset has "
                        "no transverse-plane reduction")
        return shift

    def metadata(self) -> dict:
        return {
            "name": self.name,
            "matrices": [f"[{'; '.join(', '.join(map(str, r)) for r in s.rows)}]"
                         for s in self.specs],
            "generators": [{"tag": s.label,
                            "param": str(s.params[0]) if s.params else None}
                           for s in self.sources],
            "coupling": str(self.coupling),
            "potential": str(self.potential) if self.potential is not None else None,
            "sign_note": self.sign_note,
            "field_axis": 1,  # every catalog field lies along x1
        }


class GridSpec:
    """Transverse Dirichlet box of a grid spectrum: extent L, N points per
    axis in the (x2, x3) plane.  It needs no numpy, so the CLI validates it
    before loading ``spectra``."""

    __slots__ = ("extent", "points")

    def __init__(self, extent: float, points: int):
        if extent <= 0:
            raise ValueError("grid extent must be positive")
        if points < 2:
            raise ValueError("need at least 2 points per axis")
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


def grid_inputs(preset: ModelPreset, grid: GridSpec,
                constants: dict) -> tuple[float, float, list[CoordFunction]]:
    """The mass m, hop t (``GridSpec.hop``) and transverse shift of a grid
    spectrum of ``preset``, refused in that order; numpy-free, so the CLI
    makes these refusals of ``discretize`` before it loads numpy."""
    if "m" not in constants:
        raise UnboundConstantError("mass constant 'm' must be bound")
    mass = float(constants["m"])
    return mass, grid.hop(mass), preset.transverse_shift()


# -- the catalog -------------------------------------------------------------


def azimuthal_field(c: CoordFunction,
                    radial: CoordFunction) -> tuple[CoordFunction, ...]:
    """c (0, -x3, x2) f: every textbook field of the catalog has this form,
    written down independently of the deformation machinery."""
    return (CoordFunction.zero(), -(CoordFunction.x(3) * radial).scale(c),
            (CoordFunction.x(2) * radial).scale(c))


def coulomb_potential() -> CoordFunction:
    """+e^2 / r, the repulsive sign: the zeeman and gravito_zeeman presets
    have the hydrogen atom's Coulomb term with its sign flipped."""
    return CoordFunction.constant("e", 2) * CoordFunction.r_power(-1)


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


class _Source:
    """One field kind of the catalog (see the module docstring); it holds
    the sign-translated axial triple b and names the generator, not a spec:
    ``label`` is a key of ``deform.GENERATORS``, and ``params`` are what
    the label's builder takes (the metadata prints both)."""

    __slots__ = ("coupling", "charge", "field", "b", "label", "params",
                 "linear")

    def __init__(self, coupling: CoordFunction, charge: CoordFunction,
                 field: tuple[CoordFunction, ...], b: tuple, generator: tuple,
                 linear: bool = False):
        self.coupling = coupling
        self.charge = charge
        self.field = field
        self.b = b
        self.label, *self.params = generator
        self.linear = linear


_E, _M, _OMEGA = (CoordFunction.constant(n) for n in ("e", "m", "Omega"))
_B_HALF = CoordFunction.constant("B", 1, RAT(1, 2))
_PHI_2PI = (CoordFunction.constant("phi_M", 1, RAT(1, 2))
            * CoordFunction.constant("pi", -1))
_ONE, _ZERO = CoordFunction.scalar(1), CoordFunction.zero()
# Axial -m Omega shifts P by +m h.
_GRAVITO = (-_M * _OMEGA, _ZERO, _ZERO)

_NO_FIELD = _Source(_E, _E, (_ZERO,) * 3, (_ZERO,) * 3, ("coordinate",))
# A = (1/2) B cross x, the symmetric gauge; axial e B/2 shifts P by +e A.
_MAGNETIC = _Source(_E, _E, azimuthal_field(_B_HALF, _ONE),
                    (_E * _B_HALF, _ZERO, _ZERO), ("coordinate",))
# A = (phi_M / 2 pi) (0, -x3, x2) / rho^2; axial e phi_M / 2 pi shifts P
# by +e A.
_FLUX_LINE = _Source(
    _E, _E, azimuthal_field(_PHI_2PI, CoordFunction.rho_power(-2)),
    (_E * _PHI_2PI, _ZERO, _ZERO), ("transverse-radial",))
# h = x cross Omega.
_GRAVITO_CONSTANT = _Source(-_M, _M, azimuthal_field(-_OMEGA, _ONE),
                            _GRAVITO, ("coordinate",), linear=True)
# h = (x cross Omega) / r^3, generated by Q_j = x_j / r^(3/2).
_LENSE_THIRRING = _Source(
    -_M, _M, azimuthal_field(-_OMEGA, CoordFunction.r_power(-3)),
    _GRAVITO, ("radial-power", RAT(3, 2)), linear=True)

_SIGN_NOTE = ("matrix is the Cartesian translation (overall sign) of the "
              "mixed-convention display; with [X,P]=+i the induced shift is "
              "-(Bx)_j and this sign reproduces the target gauge field "
              "verbatim")

# name -> (sources, potential, sign note).  Omega is kept an atomic symbol
# so the checks stay exact; numeric values enter through the constants map.
_CATALOG = {
    # Undeformed free particle; the numeric baseline.
    "free": ((_NO_FIELD,), None, "no deformation"),
    # Charged particle in a constant field B (symmetric gauge).
    "landau": ((_MAGNETIC,), None, _SIGN_NOTE),
    # Landau plus coulomb_potential(), which is the repulsive +e^2/r: a
    # hydrogen atom in a magnetic field, but with the Coulomb sign flipped.
    "zeeman": ((_MAGNETIC,), coulomb_potential(), _SIGN_NOTE),
    # Flux line phi_M; the field strength vanishes off the axis.
    "aharonov_bohm": ((_FLUX_LINE,), None, _SIGN_NOTE),
    # Hollow spinning sphere.
    "gravito_constant": ((_GRAVITO_CONSTANT,), None,
                         _SIGN_NOTE + "; Omega = (2*G*M/r_hs)*omega"),
    # Stationary spinning sphere, h = (x cross Omega)/r^3.
    "lense_thirring": ((_LENSE_THIRRING,), None,
                       _SIGN_NOTE + "; Omega = 2*G*I*omega"),
    # The hollow sphere's field plus the same repulsive +e^2/r as zeeman.
    "gravito_zeeman": ((_GRAVITO_CONSTANT,), coulomb_potential(),
                       _SIGN_NOTE),
    # Double deformations: a magnetic plus a gravitomagnetic field.
    "combined_constant": ((_MAGNETIC, _GRAVITO_CONSTANT), None, _SIGN_NOTE),
    "combined_lense_thirring": ((_MAGNETIC, _LENSE_THIRRING), None,
                                _SIGN_NOTE),
}

PRESETS = tuple(_CATALOG)
# The presets with a linearized reference, known without building them.
LINEARIZED_PRESETS = tuple(name for name, (sources, _, _) in _CATALOG.items()
                           if any(s.linear for s in sources))


def get_preset(name: str) -> ModelPreset:
    """Build the catalog preset ``name``, with fresh specs, from its row."""
    if name not in _CATALOG:
        raise KeyError(f"unknown model preset {name!r}; "
                       f"known: {', '.join(sorted(PRESETS))}")
    sources, potential, sign_note = _CATALOG[name]
    specs = tuple(DeformationSpec(s.b, GENERATORS[s.label](*s.params))
                  for s in sources)
    return ModelPreset(name=name, specs=specs, potential=potential,
                       sources=sources, sign_note=sign_note)


# -- noncommuting coordinates ------------------------------------------------


def guiding_center(b: tuple[CoordFunction, ...]):
    """Guiding-center coordinates X_i + (1/2)(B^-1)_ik P^k and their commutators.

    B's axial triple ``b`` must lie along a single axis; the inverse is taken
    on the nondegenerate transverse 2x2 block.  Returns (coords, comms) where
    comms[i][j] is the coordinate function of the commutator [Xg_i, Xg_j].
    """
    nonzero = [k for k, v in enumerate(b) if not v.is_structurally_zero()]
    if len(nonzero) != 1:
        raise ValueError("guiding-center construction needs an axial matrix "
                         "along a single axis")
    axis = nonzero[0] + 1
    binv = invert_transverse_block(b, axis)
    coords = deform_coordinate(tuple(v.scale(QC(RAT(-1, 2))) for v in binv))
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
    _, comms = guiding_center(_GRAVITO)
    theta = comms[1][2].scale(QC(0, -1))  # [Xg2, Xg3] = i theta_23
    key = next(iter(theta.terms), None)
    if (len(theta.terms) != 1 or key[:3] != ((0, 0, 0), 0, 0)
            or theta.terms[key].im):
        raise InternalInconsistencyError(
            f"theta_23 = {theta} is not a real constant")
    cell = CoordFunction({key: QC(2 * abs(theta.terms[key].re))})
    return (cell * CoordFunction.constant("hbar")
            * CoordFunction.constant("pi"))

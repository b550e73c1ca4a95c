"""Preset catalog of physical systems reproduced by deformation.

Each preset bundles the deformation data (matrix + generator, possibly two
of them for double deformations), the coupling, an optional scalar
potential, and an independently constructed target Hamiltonian built from
the textbook gauge field of the effect.  Verifying a preset means checking
that the deformation machinery reproduces that target exactly, or exactly
after the explicit small-constant truncation where the effect is only
stated to linear order.

Sign bookkeeping: the whole package works in plain Cartesian components
with [X_j, P_k] = i delta_jk and H0 = P^2/2m.  In that convention an axial
deformation matrix B_ij = epsilon_ijk b^k shifts P_j by -(B x)_j, so each
preset's matrix is the sign-translated version of the mixed-convention
display it reproduces; the translation is recorded per preset in
``sign_note``.  Physical observables (spectra, field magnitudes, fluxes)
do not depend on it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .coords import CoordFunction
from .deform import (DeformationMatrix, DeformationSpec, QSpec,
                     deform_coordinate, deform_sequence,
                     invert_transverse_block, momentum_shift)
from .errors import (InternalInconsistencyError, NonPositiveParameterError,
                     UnsupportedOperandError)
from .operators import OperatorExpr, require_coordinate_only
from .scalars import QC, SymbolicScalar, mono_mul

RAT = Fraction


def _sym(name: str, exp: int = 1, value=1) -> SymbolicScalar:
    return SymbolicScalar.symbol(name, exp, value)


def _half_over_m() -> SymbolicScalar:
    return SymbolicScalar.symbol("m", -1, RAT(1, 2))


@dataclass(frozen=True)
class ModelPreset:
    """A named physical system obtained by deforming H0 (or H0 + potential)."""

    name: str
    specs: tuple[DeformationSpec, ...]
    coupling: SymbolicScalar
    potential: CoordFunction | None
    reference_hamiltonian: OperatorExpr
    linearized_reference: OperatorExpr | None = None
    small_constants: tuple[str, ...] = ()
    sign_note: str = ""
    field_axis: int = 1

    def base_hamiltonian(self) -> OperatorExpr:
        h = OperatorExpr.free_hamiltonian()
        if self.potential is not None:
            h = h + OperatorExpr.from_coord(self.potential)
        return h

    def deformed(self) -> OperatorExpr:
        return self._deformed

    @functools.cached_property
    def _deformed(self) -> OperatorExpr:
        # Computed once per preset object: the reference, linearized and
        # hermiticity checks all start from it.
        return deform_sequence(self.base_hamiltonian(), self.specs)

    def shift_functions(self) -> list[CoordFunction]:
        """Total momentum shift of all deformations (they commute)."""
        total = [CoordFunction.zero()] * 3
        for spec in self.specs:
            s = momentum_shift(spec)
            total = [a + b for a, b in zip(total, s)]
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
            "matrices": [str(s.matrix) for s in self.specs],
            "generators": [
                {"tag": s.generator.tag,
                 "param": str(s.generator.param) if s.generator.param is not None else None}
                for s in self.specs
            ],
            "coupling": str(self.coupling),
            "potential": str(self.potential) if self.potential is not None else None,
            "sign_note": self.sign_note,
            "field_axis": self.field_axis,
        }


@dataclass(frozen=True)
class GridSpec:
    """Transverse Dirichlet box of a grid spectrum: extent L, N points per
    axis.  It needs no numpy, so the CLI validates it before loading
    ``spectra``."""

    extent: float
    points: int
    plane_axes: tuple[int, int] = (2, 3)
    boundary: str = "dirichlet"

    def __post_init__(self):
        if self.extent <= 0:
            raise ValueError("grid extent must be positive")
        if self.points < 2:
            raise ValueError("need at least 2 points per axis")
        if self.boundary != "dirichlet":
            raise ValueError("only Dirichlet walls are implemented")

    @property
    def spacing(self) -> float:
        # Interior-node Dirichlet grid: walls at +-L/2 are one spacing
        # beyond the outermost nodes, so the effective box length is
        # exactly L.  For even N the nodes sit at half-integer multiples
        # of the spacing and never hit r = 0 or rho = 0.
        return self.extent / (self.points + 1)

    def nodes(self) -> list[float]:
        h = self.spacing
        return [-self.extent / 2.0 + (i + 1) * h for i in range(self.points)]

    def metadata(self) -> dict:
        return {"extent": self.extent, "points": self.points,
                "plane_axes": list(self.plane_axes), "boundary": self.boundary}


# -- gauge fields written down independently of the deformation machinery --


def symmetric_gauge_field() -> list[CoordFunction]:
    """A = (1/2) B x x for a constant field B along x1: (0, -B x3/2, B x2/2)."""
    b_half = _sym("B", 1, RAT(1, 2))
    return [
        CoordFunction.zero(),
        -CoordFunction.x(3).scale(b_half),
        CoordFunction.x(2).scale(b_half),
    ]


def flux_line_field() -> list[CoordFunction]:
    """A = (phi_M / 2 pi) (0, -x3, x2) / rho^2: flux phi_M along x1."""
    c = SymbolicScalar(QC(RAT(1, 2)),
                       (("phi_M", 1), ("pi", -1)))
    rho2 = CoordFunction.rho_power(-2)
    return [
        CoordFunction.zero(),
        -(CoordFunction.x(3) * rho2).scale(c),
        (CoordFunction.x(2) * rho2).scale(c),
    ]


def constant_gravitomagnetic_potential() -> list[CoordFunction]:
    """h = x cross Omega for Omega along x1: (0, Omega x3, -Omega x2)."""
    om = _sym("Omega")
    return [
        CoordFunction.zero(),
        CoordFunction.x(3).scale(om),
        -CoordFunction.x(2).scale(om),
    ]


def lense_thirring_potential() -> list[CoordFunction]:
    """h = (x cross Omega) / r^3 for Omega along x1."""
    om = _sym("Omega")
    r3 = CoordFunction.r_power(-3)
    return [
        CoordFunction.zero(),
        (CoordFunction.x(3) * r3).scale(om),
        -(CoordFunction.x(2) * r3).scale(om),
    ]


def coulomb_potential() -> CoordFunction:
    """e^2 / r."""
    return CoordFunction.term(_sym("e", 2), (0, 0, 0), -1, 0)


def minimal_coupling_hamiltonian(charges: list[tuple[SymbolicScalar, list[CoordFunction]]],
                                 potential: CoordFunction | None = None) -> OperatorExpr:
    """(1/2m) sum_j (P_j + sum_i g_i A_i,j)^2 (+ potential), by direct expansion."""
    h = OperatorExpr.zero()
    for j in (1, 2, 3):
        factor = OperatorExpr.momentum(j)
        for g, a in charges:
            factor = factor + OperatorExpr.from_coord(a[j - 1].scale(g))
        h = h + factor * factor
    h = h.scale(_half_over_m())
    if potential is not None:
        h = h + OperatorExpr.from_coord(potential)
    return h


# -- deformation matrices (sign-translated, see module docstring) -----------


def landau_matrix() -> DeformationMatrix:
    """Axial (e B / 2) along x1; shifts P by +e A_sym."""
    return DeformationMatrix.axial(
        SymbolicScalar(QC(RAT(1, 2)), (("B", 1), ("e", 1))))


def aharonov_bohm_matrix() -> DeformationMatrix:
    """Axial (e phi_M / 2 pi) along x1; shifts P by +e A_flux."""
    return DeformationMatrix.axial(
        SymbolicScalar(QC(RAT(1, 2)), (("e", 1), ("phi_M", 1), ("pi", -1))))


def gravito_matrix() -> DeformationMatrix:
    """Axial (-m Omega) along x1; shifts P by +m h."""
    return DeformationMatrix.axial(
        SymbolicScalar(QC(RAT(-1)), (("Omega", 1), ("m", 1))))


_SIGN_NOTE = ("matrix is the Cartesian translation (overall sign) of the "
              "mixed-convention display; with [X,P]=+i the induced shift is "
              "-(Bx)_j and this sign reproduces the target gauge field "
              "verbatim")


# -- presets -----------------------------------------------------------------


def free() -> ModelPreset:
    """Undeformed free particle; useful as the numeric baseline."""
    spec = DeformationSpec(DeformationMatrix.zero(), QSpec.coordinate())
    return ModelPreset(
        name="free",
        specs=(spec,),
        coupling=_sym("e"),
        potential=None,
        reference_hamiltonian=OperatorExpr.free_hamiltonian(),
        sign_note="no deformation",
    )


def landau() -> ModelPreset:
    """Charged particle in a constant magnetic field B along x1 (symmetric gauge)."""
    spec = DeformationSpec(landau_matrix(), QSpec.coordinate())
    ref = minimal_coupling_hamiltonian([(_sym("e"), symmetric_gauge_field())])
    return ModelPreset(
        name="landau",
        specs=(spec,),
        coupling=_sym("e"),
        potential=None,
        reference_hamiltonian=ref,
        sign_note=_SIGN_NOTE,
    )


def zeeman() -> ModelPreset:
    """Hydrogen atom in a constant magnetic field: Landau shift plus e^2/r."""
    spec = DeformationSpec(landau_matrix(), QSpec.coordinate())
    pot = coulomb_potential()
    ref = minimal_coupling_hamiltonian(
        [(_sym("e"), symmetric_gauge_field())], potential=pot)
    return ModelPreset(
        name="zeeman",
        specs=(spec,),
        coupling=_sym("e"),
        potential=pot,
        reference_hamiltonian=ref,
        sign_note=_SIGN_NOTE,
    )


def aharonov_bohm() -> ModelPreset:
    """Flux line phi_M along x1; the field strength vanishes off the axis."""
    spec = DeformationSpec(aharonov_bohm_matrix(), QSpec.transverse_radial())
    ref = minimal_coupling_hamiltonian([(_sym("e"), flux_line_field())])
    return ModelPreset(
        name="aharonov_bohm",
        specs=(spec,),
        coupling=_sym("e"),
        potential=None,
        reference_hamiltonian=ref,
        sign_note=_SIGN_NOTE,
    )


def gravito_constant() -> ModelPreset:
    """Constant gravitomagnetic field Omega along x1 (hollow spinning sphere).

    Omega stands for (2 G M / r_hs) omega; the symbol is kept atomic so the
    lemma checks stay exact, and numeric values enter via the constants map.
    """
    spec = DeformationSpec(gravito_matrix(), QSpec.coordinate())
    h = constant_gravitomagnetic_potential()
    ref = minimal_coupling_hamiltonian([(_sym("m"), h)])
    lin = OperatorExpr.free_hamiltonian()
    for j in (2, 3):
        lin = lin + OperatorExpr.momentum(j).coord_multiply(h[j - 1])
    return ModelPreset(
        name="gravito_constant",
        specs=(spec,),
        coupling=_sym("m", 1, -1),
        potential=None,
        reference_hamiltonian=ref,
        linearized_reference=lin,
        small_constants=("Omega",),
        sign_note=_SIGN_NOTE + "; Omega = (2*G*M/r_hs)*omega",
    )


def lense_thirring() -> ModelPreset:
    """Gravitomagnetic field of a stationary spinning sphere, h = (x cross Omega)/r^3.

    Omega stands for 2 G I omega.  The generator is Q_j = x_j / r^(3/2).
    """
    spec = DeformationSpec(gravito_matrix(), QSpec.radial_power(RAT(3, 2)))
    h = lense_thirring_potential()
    ref = minimal_coupling_hamiltonian([(_sym("m"), h)])
    lin = OperatorExpr.free_hamiltonian()
    for j in (2, 3):
        lin = lin + OperatorExpr.momentum(j).coord_multiply(h[j - 1])
    return ModelPreset(
        name="lense_thirring",
        specs=(spec,),
        coupling=_sym("m", 1, -1),
        potential=None,
        reference_hamiltonian=ref,
        linearized_reference=lin,
        small_constants=("Omega",),
        sign_note=_SIGN_NOTE + "; Omega = 2*G*I*omega",
    )


def gravito_zeeman() -> ModelPreset:
    """Hydrogen atom in a constant gravitomagnetic field."""
    spec = DeformationSpec(gravito_matrix(), QSpec.coordinate())
    pot = coulomb_potential()
    h = constant_gravitomagnetic_potential()
    ref = minimal_coupling_hamiltonian([(_sym("m"), h)], potential=pot)
    lin = OperatorExpr.free_hamiltonian() + OperatorExpr.from_coord(pot)
    for j in (2, 3):
        lin = lin + OperatorExpr.momentum(j).coord_multiply(h[j - 1])
    return ModelPreset(
        name="gravito_zeeman",
        specs=(spec,),
        coupling=_sym("m", 1, -1),
        potential=pot,
        reference_hamiltonian=ref,
        linearized_reference=lin,
        small_constants=("Omega",),
        sign_note=_SIGN_NOTE,
    )


def combined_em_gem(kind: str = "constant") -> ModelPreset:
    """Double deformation: magnetic field plus a gravitomagnetic field.

    kind = "constant" couples the hollow-sphere field (both generators are
    the coordinate operator); kind = "lense_thirring" uses the spinning
    sphere with Q_j = x_j / r^(3/2).  The order of the two deformations is
    irrelevant because the generators commute.
    """
    em_spec = DeformationSpec(landau_matrix(), QSpec.coordinate())
    if kind == "constant":
        gem_spec = DeformationSpec(gravito_matrix(), QSpec.coordinate())
        h = constant_gravitomagnetic_potential()
    elif kind == "lense_thirring":
        gem_spec = DeformationSpec(gravito_matrix(),
                                   QSpec.radial_power(RAT(3, 2)))
        h = lense_thirring_potential()
    else:
        raise ValueError(f"unknown combined kind {kind!r}")
    a = symmetric_gauge_field()
    ref = minimal_coupling_hamiltonian([(_sym("e"), a), (_sym("m"), h)])
    # Linear order in Omega: (1/2m)(P + eA)^2 + sum_j h_j (P_j + e A_j).
    lin = minimal_coupling_hamiltonian([(_sym("e"), a)])
    for j in (1, 2, 3):
        term = OperatorExpr.momentum(j) + OperatorExpr.from_coord(
            a[j - 1].scale(_sym("e")))
        lin = lin + term.coord_multiply(h[j - 1])
    return ModelPreset(
        name=f"combined_{kind}",
        specs=(em_spec, gem_spec),
        coupling=_sym("e"),
        potential=None,
        reference_hamiltonian=ref,
        linearized_reference=lin,
        small_constants=("Omega",),
        sign_note=_SIGN_NOTE,
    )


PRESETS: dict[str, Callable[[], ModelPreset]] = {
    "free": free,
    "landau": landau,
    "zeeman": zeeman,
    "aharonov_bohm": aharonov_bohm,
    "gravito_constant": gravito_constant,
    "lense_thirring": lense_thirring,
    "gravito_zeeman": gravito_zeeman,
    "combined_constant": lambda: combined_em_gem("constant"),
    "combined_lense_thirring": lambda: combined_em_gem("lense_thirring"),
}


def get_preset(name: str) -> ModelPreset:
    if name not in PRESETS:
        raise KeyError(f"unknown model preset {name!r}; "
                       f"known: {', '.join(sorted(PRESETS))}")
    return PRESETS[name]()


# -- flux quantization and interference ------------------------------------


def flux_equivalent(phi1_in_pi: Fraction, phi2_in_pi: Fraction,
                    e: Fraction) -> bool:
    """Two flux values give the same interference pattern iff
    e (phi1 - phi2) is an integer multiple of 2 pi.

    Fluxes are passed as exact rational multiples of pi, so the criterion
    e (phi1 - phi2) / (2 pi) in Z is decidable exactly.
    """
    n = Fraction(e) * (Fraction(phi1_in_pi) - Fraction(phi2_in_pi)) / 2
    return n.denominator == 1


# -- noncommuting coordinates ------------------------------------------------


def guiding_center(matrix: DeformationMatrix):
    """Guiding-center coordinates X_i + (1/2)(B^-1)_ik P^k and their commutators.

    The matrix must be axial along a single axis; the inverse is taken on
    the nondegenerate transverse 2x2 block.  Returns (coords, comms) where
    comms[i][j] is the coordinate function of the commutator [Xg_i, Xg_j].
    """
    axial = matrix.axial_part()
    nonzero = [k for k in range(3) if not axial[k].is_structurally_zero()]
    if len(nonzero) != 1:
        raise ValueError("guiding-center construction needs an axial matrix "
                         "along a single axis")
    axis = nonzero[0] + 1
    binv = invert_transverse_block(matrix, axis)
    theta = binv.scale(QC(RAT(-1, 2)))
    coords = deform_coordinate(theta)
    comms = []
    for i in range(3):
        row = []
        for j in range(3):
            c = coords[i].commutator(coords[j])
            row.append(require_coordinate_only(c, "guiding-center commutator"))
        comms.append(tuple(row))
    return coords, tuple(comms)


# -- uncertainty bound --------------------------------------------------------


@dataclass(frozen=True)
class UncertaintyBound:
    """Measurement bound of the gravitomagnetic quantum plane.

    ``bound`` is hbar/(m Omega) with hbar = 1; the exact symbolic forms keep
    hbar (and pi for the area) as symbols.
    """

    bound: Fraction
    area_in_pi_units: Fraction
    bound_symbolic: SymbolicScalar
    area_symbolic: SymbolicScalar

    @property
    def area(self) -> float:
        return float(self.area_in_pi_units) * math.pi


def uncertainty_bound(m, omega) -> UncertaintyBound:
    """hbar/(m Omega) and the cell area 2 pi hbar/(m Omega)."""
    m, omega = Fraction(m), Fraction(omega)
    if m <= 0 or omega <= 0:
        raise NonPositiveParameterError("m and Omega must be positive")
    bound = 1 / (m * omega)
    return UncertaintyBound(
        bound=bound,
        area_in_pi_units=2 * bound,
        bound_symbolic=SymbolicScalar(QC(bound), (("hbar", 1),)),
        area_symbolic=SymbolicScalar(QC(2 * bound), (("hbar", 1), ("pi", 1))),
    )


def uncertainty_area_symbolic() -> SymbolicScalar:
    """The quantum-plane cell 2 pi hbar |theta_23|, computed from the algebra.

    theta_23 is read off the gravitomagnetic guiding centers,
    [Xg2, Xg3] = i theta_23 (hbar = 1 in the algebra, so hbar is restored
    as a symbol).  With m and Omega positive the cell is 2 pi hbar/(m Omega).
    """
    _, comms = guiding_center(gravito_matrix())
    theta = comms[1][2].scale(QC(0, -1))  # [Xg2, Xg3] = i theta_23
    key = next(iter(theta.terms), None)
    if (len(theta.terms) != 1 or key[:3] != ((0, 0, 0), 0, 0)
            or theta.terms[key].im):
        raise InternalInconsistencyError(
            f"theta_23 = {theta} is not a real constant")
    return SymbolicScalar(QC(2 * abs(theta.terms[key].re)),
                          mono_mul(key[3], (("hbar", 1), ("pi", 1))))

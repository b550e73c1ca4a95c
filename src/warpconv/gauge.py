"""Gauge structure induced by deformation.

A deformation shifts each momentum by a coordinate function S_j; writing
S_j = g A_j identifies a gauge field A with coupling g; S and P_j + S_j
are read from the spec, which computed them once.  The coupling is a
constant, and 1/g is ``CoordFunction.inverse``'s: a zero or multi-term g
is refused there, with a ConfigError in its words.  Every vector field is
a plain triple of coordinate functions: the potential A = (A1, A2, A3),
as the catalog writes it, the force -grad V of the potential energy V
and the (gravito)magnetic axial field B = (F23, F31, F12).  The
commutator of two shifted momenta is -i g F_ij with F_ij = epsilon_ijk
B^k the curl of A, so B holds all of F (and g enters nowhere else):
``field_strength`` takes it from [P2, P3], [P3, P1] and [P1, P2], ``curl``
(the one place the curl is written) from A, and ``deform.skew`` (the one
place epsilon_ijk is written) gives the nine F_ij.  The commutator with
H_def + V produces the Lorentz force, and the Jacobi identity yields the
homogeneous (source-free) field equations, of which the one Bianchi sum
(``bianchi_sum``) is div B.  All fields here are static, so
time-derivative terms vanish identically.

The loop integral of A (``holonomy``) is computed here too, with ``math``
alone, so every command but the grid spectrum runs without numpy or scipy.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .coords import CoordFunction, as_constant
from .deform import DeformationSpec, deform_operator, skew
from .errors import (ConfigError, NonPositiveParameterError,
                     SingularLoopError, UnsupportedOperandError)
from .operators import HALF_OVER_M, OperatorExpr, require_coordinate_only
from .scalars import QC

_I = QC(0, Fraction(1))
# (i, j) with B_k = F_ij for k = 1, 2, 3: the cyclic pairs.
_CYCLIC = ((2, 3), (3, 1), (1, 2))


def curl(a) -> tuple[CoordFunction, ...]:
    """The axial field B = curl a of a vector potential a = (A1, A2, A3),
    B_k = dA_j/dx_i - dA_i/dx_j for cyclic (i, j, k), independent of any
    commutator."""
    return tuple(a[j - 1].partial(i) - a[i - 1].partial(j)
                 for i, j in _CYCLIC)


def extract_gauge_field(spec: DeformationSpec,
                        coupling: CoordFunction) -> tuple[CoordFunction, ...]:
    """(A1, A2, A3), A_r = S_r / g where S is the momentum shift of the
    deformation."""
    inv = as_constant(coupling, "couplings").inverse()
    return tuple(s.scale(inv) for s in spec.shift)


def field_strength(spec: DeformationSpec,
                   coupling: CoordFunction) -> tuple[CoordFunction, ...]:
    """The axial field B = (F23, F31, F12) from the commutators [P2, P3],
    [P3, P1] and [P1, P2] of the shifted momenta, divided by -i g.

    The commutator must close on a pure coordinate function; a momentum
    remainder would mean the normal-ordering engine is broken and raises
    InternalInconsistencyError.
    """
    norm = as_constant(coupling, "couplings").inverse()

    def entry(i, j):
        comm = spec.momenta[i - 1].commutator(spec.momenta[j - 1])
        f = require_coordinate_only(comm, f"[P{i}^def, P{j}^def]")
        # divide by -i g:  f / (-i g) = f * i / g
        return f.scale(_I).scale(norm)
    return tuple(entry(i, j) for i, j in _CYCLIC)


def lorentz_force(spec: DeformationSpec, potential: CoordFunction,
                  coupling: CoordFunction):
    """Equations of motion for the deformed system: for j = 1, 2, 3 the
    commutator C_j = [H_def + V, P_j^def], V = ``potential``, paired with

        i (dV/dx_j) - (i g / 2m) sum_k (Phat_k F_kj + F_kj Phat_k),

    i.e. the force -grad V plus the magnetic part at the symmetric operator
    ordering the commutator itself produces, with g and F the spec's own.
    The identity says that the two sides of each pair are equal.
    """
    h_def = deform_operator(OperatorExpr.free_hamiltonian(), spec)
    h_tot = h_def + OperatorExpr.from_coord(potential)
    f = skew(field_strength(spec, coupling))

    ig = coupling.scale(_I)
    for j in (1, 2, 3):
        rhs = OperatorExpr.from_coord(potential.partial(j).scale(_I))
        for k in (1, 2, 3):
            fkj = OperatorExpr.from_coord(f[k - 1][j - 1])
            sym = spec.momenta[k - 1] * fkj + fkj * spec.momenta[k - 1]
            rhs = rhs - sym.scale(ig * HALF_OVER_M)
        yield h_tot.commutator(spec.momenta[j - 1]), rhs


def bianchi_sum(b) -> CoordFunction:
    """div B = d_1 F_23 + d_2 F_31 + d_3 F_12 of the axial field
    b = (B1, B2, B3); by antisymmetry every other cyclic sum
    d_k F_ij + d_i F_jk + d_j F_ki is zero or this one up to sign.  The
    Bianchi identity says it is the zero function."""
    return b[0].partial(1) + b[1].partial(2) + b[2].partial(3)


def bianchi_check(b) -> bool:
    """d_k F_ij + d_i F_jk + d_j F_ki = 0, checked symbolically.  A nonzero
    constant factor in B (such as 1/g) does not change the verdict."""
    return bianchi_sum(b).is_zero()


def jacobi_maxwell_sums(spec: DeformationSpec, potential: CoordFunction):
    """The Jacobi sums of the deformed momenta and of H_def + V,
    V = ``potential``, then the curl of the static force -grad V.

    Each must be exactly zero: the homogeneous field equations.  For a
    static potential the force identity reduces to curl grad V = 0.
    """
    h_def = deform_operator(OperatorExpr.free_hamiltonian(), spec)
    h_tot = h_def + OperatorExpr.from_coord(potential)
    phat = spec.momenta

    def jacobi(a, b, c):
        return (a.commutator(b.commutator(c)) + b.commutator(c.commutator(a))
                + c.commutator(a.commutator(b)))

    for k in (1, 2, 3):
        for (i, j) in _CYCLIC:
            yield jacobi(phat[k - 1], phat[i - 1], phat[j - 1])
    for (i, j) in _CYCLIC:
        yield jacobi(h_tot, phat[i - 1], phat[j - 1])
    force = [-potential.partial(j) for j in (1, 2, 3)]
    for f in curl(force):
        yield OperatorExpr.from_coord(f)


def holonomy(a, radius: float, center=(0.0, 0.0, 0.0),
             points: int = 256, constants: dict | None = None) -> float:
    """Line integral of a = (A1, A2, A3) around a circle in the (x2, x3)
    plane.

    The loop is traversed counterclockwise as seen from +x1 (right-hand
    orientation about the x1 axis).  Trapezoidal quadrature on the closed
    loop, with A_2 and A_3 compiled once (``CoordFunction.compile``) and
    called per node.  Raises NonPositiveParameterError unless the radius
    is positive and finite, ConfigError unless the center is three finite
    numbers and 8 <= points <= 2^16, UnsupportedOperandError unless A_2
    and A_3 equal their conjugates, and SingularLoopError if a node falls
    within 1e-9 (R + max(|c2|, |c3|)) of the axis (rho = 0) of a field
    with a negative rho power, or within 1e-9 (R + max |c_i|) of the
    origin (r = 0) of a field with a negative r power.
    """
    if not (math.isfinite(radius) and radius > 0):
        raise NonPositiveParameterError(
            f"loop radius must be positive and finite, got {radius!r}")
    if len(center) != 3 or not all(map(math.isfinite, center)):
        raise ConfigError(
            f"loop center must be three finite numbers, got {center!r}")
    # The trapezoid rule is spectrally accurate on a smooth loop: landau
    # is off by 8e-15 at 256 points, 3e-12 at 2^16 and 1e-11 at 2^20, so
    # more points add only roundoff and time.
    if not 8 <= points <= 2 ** 16:
        raise ConfigError(f"need 8 to 65536 quadrature points, got {points}")
    for j in (2, 3):
        if a[j - 1] != a[j - 1].conjugate():
            raise UnsupportedOperandError(f"A_{j} is not real on the loop")
    a2, a3 = a[1].compile(constants), a[2].compile(constants)
    keys = [key for comp in a for key in comp.terms]
    r_singular = any(p < 0 for (_, p, _, _) in keys)
    rho_singular = any(q < 0 for (_, _, q, _) in keys)
    c1, c2, c3 = (float(c) for c in center)
    rho_tol = 1e-9 * (radius + max(abs(c2), abs(c3)))
    r_tol = 1e-9 * (radius + max(abs(c1), abs(c2), abs(c3)))
    total = 0.0
    dtheta = 2.0 * math.pi / points
    for i in range(points):
        th = i * dtheta
        x2 = c2 + radius * math.cos(th)
        x3 = c3 + radius * math.sin(th)
        if rho_singular and math.hypot(x2, x3) < rho_tol:
            raise SingularLoopError("loop touches the singular axis rho = 0")
        if r_singular and math.hypot(c1, x2, x3) < r_tol:
            raise SingularLoopError("loop touches the singular point r = 0")
        total += (-a2(c1, x2, x3).real * math.sin(th)
                  + a3(c1, x2, x3).real * math.cos(th)) * radius * dtheta
    return total

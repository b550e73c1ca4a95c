"""Closed-form warped-convolution deformation of operator expressions.

A deformation is specified by a real skew-symmetric 3x3 matrix B with
constant entries and a generator Q(X), a commuting triple of
coordinate functions.  B is held by its axial vector b, B_ij =
epsilon_ijk b^k, so it is skew by construction; only nine entries given
from outside (``DeformationMatrix.from_rows``) are checked for skewness.
``skew`` is the one place epsilon_ijk is written; ``gauge`` takes the
field strength F_ij = epsilon_ijk B^k from it too.
On the momentum-degree <= 2 class the deformation acts by the in-place
substitution

    P_j  ->  P_j + S_j,      S_j = -(B Q)_k dQ_k/dx_j,

with coordinate-only parts unchanged; the shift S_j is again a coordinate
function, so the result stays in the algebra; a ``DeformationSpec``
computes S and P_j + S_j once, when it is built.  The truncated
Baker-Campbell-Hausdorff expansion behind this rule closes after the first
commutator because the generator components commute.  Momentum degree >= 3
has no closed form here and is rejected.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .coords import CoordFunction, ScalarLike, as_constant
from .errors import (SingularMatrixError, UnsupportedDegreeError,
                     UnsupportedOperandError)
from .operators import OperatorExpr, require_coordinate_only
from .scalars import QC


def _as_entry(v) -> CoordFunction:
    return as_constant(v, "deformation-matrix entries")


def skew(b: Sequence[CoordFunction]) -> tuple[tuple[CoordFunction, ...], ...]:
    """Rows of the antisymmetric 3x3 matrix M_ij = epsilon_ijk b^k of an
    axial triple b = (b1, b2, b3) of coordinate functions."""
    z = CoordFunction.zero()
    return ((z, b[2], -b[1]), (-b[2], z, b[0]), (b[1], -b[0], z))


class DeformationMatrix:
    """Real skew-symmetric 3x3 matrix of constants, B_ij = epsilon_ijk b^k,
    stored by its axial vector ``axial`` = (b1, b2, b3); ``rows``, the
    nine entries, are built from it once, so B is skew by construction."""

    __slots__ = ("axial", "rows")

    def __init__(self, b1=0, b2=0, b3=0):
        self.axial = (_as_entry(b1), _as_entry(b2), _as_entry(b3))
        self.rows = skew(self.axial)

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "DeformationMatrix":
        """The matrix of nine row-major entries; ValueError unless they
        form a skew-symmetric 3x3 matrix of constants."""
        matrix = DeformationMatrix(rows[1][2], rows[2][0], rows[0][1])
        if matrix.rows != tuple(tuple(_as_entry(v) for v in row)
                                for row in rows):
            raise ValueError("deformation matrix must be skew-symmetric")
        return matrix

    def __add__(self, other: "DeformationMatrix") -> "DeformationMatrix":
        return DeformationMatrix(*(b + c for b, c in zip(self.axial,
                                                         other.axial)))

    def __neg__(self) -> "DeformationMatrix":
        return DeformationMatrix(*(-b for b in self.axial))

    def scale(self, s: "ScalarLike | CoordFunction") -> "DeformationMatrix":
        return DeformationMatrix(*(b.scale(s) for b in self.axial))

    def apply(self, vec: Sequence[CoordFunction]) -> list[CoordFunction]:
        """(B v)_i = sum_j B_ij v_j for a triple of coordinate functions."""
        return [
            self.rows[i][0] * vec[0] + self.rows[i][1] * vec[1]
            + self.rows[i][2] * vec[2]
            for i in range(3)
        ]

    def is_zero(self) -> bool:
        return all(b.is_structurally_zero() for b in self.axial)

    def __eq__(self, other) -> bool:
        return (isinstance(other, DeformationMatrix)
                and self.axial == other.axial)

    def __hash__(self):
        return hash(self.axial)

    def __str__(self) -> str:
        return "[" + "; ".join(
            ", ".join(str(v) for v in row) for row in self.rows) + "]"


def _times_x(factor: CoordFunction) -> tuple[CoordFunction, ...]:
    return tuple(CoordFunction.x(j) * factor for j in (1, 2, 3))


# The builder of the generator triple Q of each label the preset metadata
# prints: Q_j = x_j, x_j / r^n and x_j / rho.
GENERATORS = {
    "coordinate": lambda: tuple(CoordFunction.x(j) for j in (1, 2, 3)),
    "radial-power": lambda n: _times_x(CoordFunction.r_power(-Fraction(n))),
    "transverse-radial": lambda: _times_x(CoordFunction.rho_power(-1)),
}


class DeformationSpec:
    """Matrix-generator pair of one warped-convolution deformation, the
    generator a triple (Q1, Q2, Q3) of coordinate functions, with its
    ``shift`` S and deformed ``momenta`` P_j + S_j, computed once, here."""

    __slots__ = ("matrix", "generator", "shift", "momenta")

    def __init__(self, matrix: DeformationMatrix,
                 generator: Sequence[CoordFunction]):
        self.matrix = matrix
        self.generator = tuple(generator)
        self.shift = tuple(momentum_shift(self))
        self.momenta = tuple(
            OperatorExpr.momentum(j) + OperatorExpr.from_coord(s)
            for j, s in enumerate(self.shift, start=1))

    # By value: the benchmark's tracer counts distinct specs in a set.
    def __eq__(self, other) -> bool:
        return (isinstance(other, DeformationSpec)
                and self.matrix == other.matrix
                and self.generator == other.generator)

    def __hash__(self):
        return hash((self.matrix, self.generator))


def momentum_shift(spec: DeformationSpec) -> list[CoordFunction]:
    """The shift S_j added to P_j by the deformation: S_j = -(BQ)_k dQ_k/dx_j."""
    q = spec.generator
    bq = spec.matrix.apply(q)
    out = []
    for j in (1, 2, 3):
        s = CoordFunction.zero()
        for k in range(3):
            s = s + bq[k] * q[k].partial(j)
        out.append(-s)
    return out


def momentum_shift_via_commutators(spec: DeformationSpec) -> list[CoordFunction]:
    """Same shift computed as i (B Q)_k [Q_k, P_j] through the commutator engine.

    Independent of the derivative shortcut in ``momentum_shift``; used by the
    verification suite to cross-check the two routes.
    """
    q = spec.generator
    bq = spec.matrix.apply(q)
    out = []
    for j in (1, 2, 3):
        acc = OperatorExpr.zero()
        for k in range(3):
            comm = OperatorExpr.from_coord(q[k]).commutator(
                OperatorExpr.momentum(j))
            acc = acc + comm.coord_multiply(bq[k])
        acc = acc.scale(QC(0, Fraction(1)))  # times i
        out.append(require_coordinate_only(acc, "momentum shift"))
    return out


def deform_operator(a: OperatorExpr, spec: DeformationSpec) -> OperatorExpr:
    """Deform a momentum polynomial of total degree <= 2.

    Each momentum factor is replaced in place, preserving the normal-form
    factor order P1 before P2 before P3; coordinate-only parts commute with
    the generator and pass through unchanged.
    """
    deg = a.momentum_degree()
    if deg > 2:
        raise UnsupportedDegreeError(
            f"no closed-form deformation for momentum degree {deg} > 2")
    if spec.matrix.is_zero():
        return a
    out = OperatorExpr.zero()
    for pm, f in a.terms.items():
        piece = OperatorExpr.from_coord(f)
        for j in (1, 2, 3):
            for _ in range(pm[j - 1]):
                piece = piece * spec.momenta[j - 1]
        out = out + piece
    return out


def deform_sequence(a: OperatorExpr,
                    specs: Sequence[DeformationSpec]) -> OperatorExpr:
    out = a
    for spec in specs:
        out = deform_operator(out, spec)
    return out


def deform_coordinate(theta: DeformationMatrix) -> tuple[OperatorExpr, ...]:
    """Deformed coordinates X_j - (theta P)_j for a skew matrix theta."""
    out = []
    for j in range(3):
        expr = OperatorExpr.position(j + 1)
        for k in range(3):
            expr = expr - OperatorExpr.momentum(k + 1).coord_multiply(
                theta.rows[j][k])
        out.append(expr)
    return tuple(out)


def rieffel_product(a: OperatorExpr, b: OperatorExpr,
                    spec: DeformationSpec) -> OperatorExpr:
    """Deformed product on the momentum-linear class.

    For momentum factors the evaluated oscillatory integral leaves
    P_k x P_j = P_k P_j - i B_ls dQ_l/dx_k dQ_s/dx_j; coordinate-function
    coefficients pass through untouched, extended bilinearly term by term.
    """
    if a.momentum_degree() > 1 or b.momentum_degree() > 1:
        raise UnsupportedOperandError(
            "Rieffel product is only evaluated on momentum-linear operands")
    q = spec.generator
    grad = [[q[l].partial(j + 1) for j in range(3)] for l in range(3)]
    out = OperatorExpr.zero()
    for alpha, f in a.terms.items():
        for beta, g in b.terms.items():
            fg = f * g
            pm = (alpha[0] + beta[0], alpha[1] + beta[1], alpha[2] + beta[2])
            out = out + OperatorExpr({pm: fg})
            if sum(alpha) == 1 and sum(beta) == 1:
                k = alpha.index(1)
                j = beta.index(1)
                corr = CoordFunction.zero()
                for l in range(3):
                    for s in range(3):
                        corr = (corr + spec.matrix.rows[l][s] * grad[l][k]
                                * grad[s][j])
                out = out - OperatorExpr.from_coord(
                    (fg * corr).scale(QC(0, Fraction(1))))
    return out


def invert_transverse_block(matrix: DeformationMatrix,
                            axis: int) -> DeformationMatrix:
    """Inverse of the 2x2 block transverse to ``axis`` (zero elsewhere).

    For an axial matrix B = epsilon_ijk b^k along ``axis`` the block is
    [[0, b], [-b, 0]] with inverse [[0, -1/b], [1/b, 0]], the axial matrix
    of -1/b along ``axis``.
    """
    b = matrix.axial[axis - 1]
    if b.is_structurally_zero():
        raise SingularMatrixError("transverse block is singular")
    try:
        inv_entry = b.inverse()
    except ValueError as exc:
        raise SingularMatrixError("transverse block entry is a sum; "
                                  "no exact scalar inverse") from exc
    axial = [0, 0, 0]
    axial[axis - 1] = -inv_entry
    return DeformationMatrix(*axial)

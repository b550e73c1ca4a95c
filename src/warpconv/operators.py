"""Normal-ordered operator expressions on the 3D Heisenberg algebra.

An ``OperatorExpr`` is a finite sum of CoordFunction * P1^k1 P2^k2 P3^k3
terms with all coordinate dependence strictly left of all momentum factors.
The sign convention throughout is

    P_j = -i d/dx_j,   [X_j, P_k] = i delta_jk,   [P_j, f(X)] = -i df/dx_j,

so products are normal-ordered by repeatedly commuting momenta past
coordinate functions, which stays inside the class because CoordFunction
is closed under partial derivatives.

No stored momentum coefficient is the empty function, and the constructor
is the one zero filter: sums and products accumulate into a plain dict and
hand it over whole.

Structural normal forms are unique, but algebraically equal expressions can
differ structurally (powers of r and rho are not rewritten against the
polynomial part), so ``==`` compares structure only.  The authoritative
equality is ``equals``: each momentum coefficient of the difference is
reduced modulo x3^2 = rho^2 - x2^2 and x1^2 = r^2 - rho^2, a canonical form
in which zero is structurally empty.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping

from .coords import CoordFunction, ScalarLike
from .errors import ConfigError, InternalInconsistencyError
from .scalars import QC

PMulti = tuple  # (k1, k2, k3) nonnegative ints

P_ZERO: PMulti = (0, 0, 0)

#: 1/(2m), the kinetic prefactor with symbolic mass m.
HALF_OVER_M = CoordFunction.constant("m", -1, Fraction(1, 2))


class OperatorExpr:
    """Finite normal-ordered sum of (coordinate function) * (momentum monomial)."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[PMulti, CoordFunction] | None = None):
        clean: dict[PMulti, CoordFunction] = {}
        if terms:
            for pm, f in terms.items():
                if not f.is_structurally_zero():
                    clean[tuple(pm)] = f
        self.terms = clean

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "OperatorExpr":
        return OperatorExpr()

    @staticmethod
    def identity() -> "OperatorExpr":
        return OperatorExpr({P_ZERO: CoordFunction.one()})

    @staticmethod
    def from_coord(f: CoordFunction) -> "OperatorExpr":
        return OperatorExpr({P_ZERO: f})

    @staticmethod
    def scalar(v: ScalarLike) -> "OperatorExpr":
        return OperatorExpr.from_coord(CoordFunction.scalar(v))

    @staticmethod
    def momentum(axis: int, exp: int = 1) -> "OperatorExpr":
        pm = [0, 0, 0]
        pm[axis - 1] = exp
        return OperatorExpr({tuple(pm): CoordFunction.one()})

    @staticmethod
    def position(axis: int, exp: int = 1) -> "OperatorExpr":
        return OperatorExpr.from_coord(CoordFunction.x(axis, exp))

    @staticmethod
    def free_hamiltonian() -> "OperatorExpr":
        """(P1^2 + P2^2 + P3^2) / (2m) with symbolic mass m."""
        return OperatorExpr({
            (2, 0, 0): HALF_OVER_M, (0, 2, 0): HALF_OVER_M,
            (0, 0, 2): HALF_OVER_M,
        })

    # -- linear structure ----------------------------------------------

    def __add__(self, other: "OperatorExpr") -> "OperatorExpr":
        out = dict(self.terms)
        for pm, f in other.terms.items():
            out[pm] = out[pm] + f if pm in out else f
        return OperatorExpr(out)

    def __sub__(self, other: "OperatorExpr") -> "OperatorExpr":
        return self + (-other)

    def __neg__(self) -> "OperatorExpr":
        return OperatorExpr({pm: -f for pm, f in self.terms.items()})

    def scale(self, v: "ScalarLike | CoordFunction") -> "OperatorExpr":
        return OperatorExpr({pm: f.scale(v) for pm, f in self.terms.items()})

    def coord_multiply(self, f: CoordFunction) -> "OperatorExpr":
        """Left multiplication by a coordinate function (no reordering)."""
        return OperatorExpr({pm: f * g for pm, g in self.terms.items()})

    # -- products ------------------------------------------------------

    def __mul__(self, other: "OperatorExpr") -> "OperatorExpr":
        """Normal-ordered operator product."""
        out: dict[PMulti, CoordFunction] = {}
        for alpha, f in self.terms.items():
            for beta, g in other.terms.items():
                for gamma, h in _push_momentum_past(alpha, g):
                    pm = (gamma[0] + beta[0], gamma[1] + beta[1],
                          gamma[2] + beta[2])
                    piece = f * h
                    out[pm] = out[pm] + piece if pm in out else piece
        return OperatorExpr(out)

    def power(self, n: int) -> "OperatorExpr":
        """self^n by square-and-multiply, started from the first base the
        product takes: popcount(n) + bit_length(n) - 2 products for n >= 1."""
        if n < 0:
            raise ConfigError("negative operator powers are not defined")
        acc, base = None, self
        while n:
            if n & 1:
                acc = base if acc is None else acc * base
            n >>= 1
            if n:
                base = base * base
        return OperatorExpr.identity() if acc is None else acc

    def commutator(self, other: "OperatorExpr") -> "OperatorExpr":
        return self * other - other * self

    def anticommutator(self, other: "OperatorExpr") -> "OperatorExpr":
        return self * other + other * self

    def adjoint(self) -> "OperatorExpr":
        """Conjugate coefficients, reverse factor order, re-normal-order."""
        out = OperatorExpr.zero()
        for pm, f in self.terms.items():
            pexpr = OperatorExpr({pm: CoordFunction.one()})
            out = out + pexpr * OperatorExpr.from_coord(f.conjugate())
        return out

    # -- queries ---------------------------------------------------------

    def momentum_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(pm) for pm in self.terms)

    def coordinate_part(self) -> CoordFunction:
        return self.terms.get(P_ZERO, CoordFunction.zero())

    def is_structurally_zero(self) -> bool:
        return not self.terms

    def truncate_to_linear(self, names) -> "OperatorExpr":
        """Explicit truncation: drop terms of degree >= 2 in the constants."""
        return OperatorExpr({
            pm: f.truncate_to_linear(names) for pm, f in self.terms.items()
        })

    def substitute_symbol(self, name: str,
                          value: CoordFunction) -> "OperatorExpr":
        return OperatorExpr({
            pm: f.substitute_symbol(name, value)
            for pm, f in self.terms.items()
        })

    # -- equality ----------------------------------------------------------

    def equals(self, other: "OperatorExpr") -> bool:
        """Exact equality: every normal-form coefficient of the difference
        is the zero function (see ``CoordFunction.is_zero``)."""
        return all(f.is_zero() for f in (self - other).terms.values())

    def reduced(self) -> "OperatorExpr":
        """Every coefficient in its canonical form; empty exactly when the
        operator is zero (see ``CoordFunction.reduced``)."""
        return OperatorExpr({pm: f.reduced() for pm, f in self.terms.items()})

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        items = []
        for pm in sorted(self.terms):
            f = self.terms[pm]
            for (a, p, q, mono), coeff in f.sorted_terms():
                items.append({
                    "coeff": {"re": str(coeff.re), "im": str(coeff.im)},
                    "constants": {name: exp for name, exp in mono},
                    "x": list(a),
                    "r": str(p),
                    "rho": str(q),
                    "P": list(pm),
                })
        return {"terms": items}

    # -- presentation ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, OperatorExpr) and self.terms == other.terms

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for pm in sorted(self.terms):
            f = self.terms[pm]
            pstr = "*".join(
                (f"P{j + 1}" if k == 1 else f"P{j + 1}^{k}")
                for j, k in enumerate(pm) if k
            )
            fstr = str(f)
            if not pstr:
                chunks.append(fstr)
            elif fstr == "1":
                chunks.append(pstr)
            else:
                body = fstr if len(f.terms) == 1 and not fstr.startswith("-") \
                    else f"({fstr})"
                chunks.append(f"{body}*{pstr}")
        return " + ".join(chunks)

    def __repr__(self) -> str:
        return f"OperatorExpr({self})"


def _push_momentum_past(alpha: PMulti, g: CoordFunction):
    """Rewrite P^alpha g(X) as sum_beta c_beta(X) P^beta.

    Uses [P_j, f] = -i df/dx_j repeatedly:
    P^alpha g = sum_{beta <= alpha} binom(alpha, beta) (-i)^{|alpha - beta|}
                (d^{alpha-beta} g) P^beta.
    """
    if not any(alpha):
        yield alpha, g
        return
    # Descending delta is ascending beta, the order the terms are built in.
    for delta, d in sorted(_derivative_table(g, alpha).items(), reverse=True):
        c = (math.comb(alpha[0], delta[0]) * math.comb(alpha[1], delta[1])
             * math.comb(alpha[2], delta[2]))
        # c (-i)^n, where (-i)^n cycles 1, -i, -1, i
        scalar = QC(*((c, 0), (0, -c), (-c, 0), (0, c))[sum(delta) % 4])
        yield ((alpha[0] - delta[0], alpha[1] - delta[1],
                alpha[2] - delta[2]), d.scale(scalar))


def _derivative_table(g: CoordFunction, alpha: PMulti) -> dict:
    """The nonzero partial derivatives d^delta g for delta <= alpha, by
    delta.  Along each axis differentiation stops at the first derivative
    that is structurally zero, since every later one is zero too."""
    table = {(0, 0, 0): g}
    for axis in (1, 2, 3):
        new = {}
        for delta, cur in table.items():
            new[delta] = cur
            for k in range(1, alpha[axis - 1] + 1):
                cur = cur.partial(axis)
                if cur.is_structurally_zero():
                    break
                d = list(delta)
                d[axis - 1] = k
                new[tuple(d)] = cur
        table = new
    return table


def require_coordinate_only(expr: OperatorExpr, what: str) -> CoordFunction:
    """Assert an expression has no momentum part and return its coordinate part."""
    for pm in expr.terms:
        if any(pm):
            raise InternalInconsistencyError(
                f"{what} has a momentum-dependent remainder: {expr}")
    return expr.coordinate_part()

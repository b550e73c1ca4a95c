"""Coordinate functions: exact sums of c * x1^a1 x2^a2 x3^a3 * r^p * rho^q.

Here r = |x| and rho = sqrt(x2^2 + x3^2); the exponents p, q are rational,
the x-exponents nonnegative integers, and each coefficient is a rational
complex number times a monomial in named constants.  The class is closed
under pointwise products and partial derivatives, which is everything the
operator algebra needs.  A constant, such as a coupling, a deformation-matrix
entry or a scale factor, is a function whose terms carry no power of x, r or
rho (``as_constant``).

Terms are stored as built: powers of r and rho are not rewritten against
the polynomial part (x2^2 + x3^2 is not collapsed to rho^2), so printing
and serialization show the structure a computation produced.  No stored
coefficient is zero, and the constructor is the one zero filter: sums,
products and derivatives accumulate into a plain dict and hand it over
whole.  Equality is decided exactly, inside ``is_zero`` only, by reducing
modulo the two rules

    x3^2 -> rho^2 - x2^2,     x1^2 -> r^2 - rho^2,

after which x1 and x3 appear with exponent 0 or 1 and the form is unique.

Numeric values come from ``compile``: it binds the constants once and
returns a closure of plain arithmetic that samples a whole grid in one
call on numpy arrays, or one loop point on floats, without this module
importing numpy.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Union

from .errors import ConfigError, SingularPointError, UnboundConstantError
from .scalars import (QC, QC_ONE, QC_ZERO, RationalLike, mono_degree,
                      mono_inv, mono_make, mono_mul, mono_str)

Axis = int  # 1, 2 or 3
# ((a1, a2, a3) nonnegative ints, p: Fraction, q: Fraction, mono: Monomial)
TermKey = tuple

ScalarLike = Union[int, Fraction, QC]

_NO_COORDS = ((0, 0, 0), Fraction(0), Fraction(0))


def _as_qc(v: ScalarLike) -> QC:
    return v if isinstance(v, QC) else QC(v)


class CoordFunction:
    """Finite exact sum of coordinate-monomial terms."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[TermKey, QC] | None = None):
        clean: dict[TermKey, QC] = {}
        if terms:
            for key, coeff in terms.items():
                if not coeff.is_zero():
                    clean[key] = coeff
        self.terms = clean

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "CoordFunction":
        return CoordFunction()

    @staticmethod
    def term(coeff: ScalarLike, a: tuple[int, int, int] = (0, 0, 0),
             p: RationalLike = 0, q: RationalLike = 0) -> "CoordFunction":
        key = (tuple(a), Fraction(p), Fraction(q), ())
        return CoordFunction({key: _as_qc(coeff)})

    @staticmethod
    def constant(name: str, exp: int = 1,
                 value: RationalLike = 1) -> "CoordFunction":
        """value * name^exp, a named constant."""
        return CoordFunction({(*_NO_COORDS, mono_make([(name, exp)])):
                              QC(value)})

    @staticmethod
    def one() -> "CoordFunction":
        return CoordFunction.term(1)

    @staticmethod
    def scalar(v: ScalarLike) -> "CoordFunction":
        return CoordFunction.term(v)

    @staticmethod
    def x(axis: Axis, exp: int = 1) -> "CoordFunction":
        a = [0, 0, 0]
        a[axis - 1] = exp
        return CoordFunction.term(1, tuple(a))

    @staticmethod
    def r_power(p: RationalLike) -> "CoordFunction":
        return CoordFunction.term(1, (0, 0, 0), p, 0)

    @staticmethod
    def rho_power(q: RationalLike) -> "CoordFunction":
        return CoordFunction.term(1, (0, 0, 0), 0, q)

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "CoordFunction") -> "CoordFunction":
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, QC_ZERO) + c
        return CoordFunction(out)

    def __sub__(self, other: "CoordFunction") -> "CoordFunction":
        return self + (-other)

    def __neg__(self) -> "CoordFunction":
        return CoordFunction({k: -c for k, c in self.terms.items()})

    def __mul__(self, other: "CoordFunction") -> "CoordFunction":
        out: dict[TermKey, QC] = {}
        for (a1, p1, q1, m1), c1 in self.terms.items():
            for (a2, p2, q2, m2), c2 in other.terms.items():
                key = (
                    (a1[0] + a2[0], a1[1] + a2[1], a1[2] + a2[2]),
                    p1 + p2, q1 + q2, mono_mul(m1, m2),
                )
                out[key] = out.get(key, QC_ZERO) + c1 * c2
        return CoordFunction(out)

    def scale(self, v: "ScalarLike | CoordFunction") -> "CoordFunction":
        """Product with an exact number or a constant (see ``as_constant``)."""
        if isinstance(v, CoordFunction):
            return self * as_constant(v, "scale factors")
        c = _as_qc(v)
        return CoordFunction({key: d * c for key, d in self.terms.items()})

    def inverse(self) -> "CoordFunction":
        """Exact reciprocal of one term c * constants * r^p * rho^q: the
        coefficient inverted, every exponent negated.  Zero, a sum or a
        power of x1, x2 or x3 raises ConfigError."""
        if not self.terms:
            raise ConfigError("cannot divide by zero")
        if len(self.terms) != 1:
            raise ConfigError("cannot divide by a multi-term expression")
        ((a, p, q, m), c), = self.terms.items()
        if any(a):
            raise ConfigError(
                "cannot divide by positions; only scalars, r and rho invert")
        return CoordFunction({((0, 0, 0), -p, -q, mono_inv(m)): QC_ONE / c})

    def conjugate(self) -> "CoordFunction":
        return CoordFunction({k: c.conjugate() for k, c in self.terms.items()})

    def partial(self, axis: Axis) -> "CoordFunction":
        """Exact d/dx_axis within the class."""
        j = axis - 1
        out: dict[TermKey, QC] = {}

        def _acc(key: TermKey, c: QC):
            out[key] = out.get(key, QC_ZERO) + c

        for (a, p, q, m), c in self.terms.items():
            if a[j] > 0:
                na = list(a)
                na[j] -= 1
                _acc((tuple(na), p, q, m), c.scale(a[j]))
            if p != 0:
                na = list(a)
                na[j] += 1
                _acc((tuple(na), p - 2, q, m), c.scale(p))
            if q != 0 and axis in (2, 3):
                na = list(a)
                na[j] += 1
                _acc((tuple(na), p, q - 2, m), c.scale(q))
        return CoordFunction(out)

    # -- structure queries --------------------------------------------

    def is_structurally_zero(self) -> bool:
        return not self.terms

    def truncate_to_linear(self, names: Iterable[str]) -> "CoordFunction":
        """Drop terms of combined degree >= 2 in the listed constants."""
        names = set(names)
        return CoordFunction({
            (a, p, q, m): c for (a, p, q, m), c in self.terms.items()
            if mono_degree(m, names) < 2
        })

    def substitute_symbol(self, name: str,
                          value: "CoordFunction") -> "CoordFunction":
        """Replace a named constant by ``value``, exactly; a negative power
        of it needs a ``value`` that ``inverse`` takes."""
        out = CoordFunction.zero()
        for (a, p, q, m), c in self.terms.items():
            exp = dict(m).get(name, 0)
            piece = CoordFunction(
                {(a, p, q, tuple(pair for pair in m if pair[0] != name)): c})
            factor = value if exp >= 0 else value.inverse()
            for _ in range(abs(exp)):
                piece = piece * factor
            out = out + piece
        return out

    # -- evaluation ----------------------------------------------------

    def compile(self, constants: Mapping[str, float] | None):
        """Numeric closure (x1, x2, x3) -> complex with the constants bound.

        ``pi`` is the number math.pi, never a binding.  Each term's
        coefficient is folded once; the closure multiplies it by x1^a1
        x2^a2 x3^a3, then by r^p and rho^q, using only ``*``, ``+`` and
        ``**``, so it takes floats or numpy arrays of one shape alike.
        Raises UnboundConstantError for a missing constant, ConfigError for
        a binding of pi or a 0 under a negative power, and the closure
        raises SingularPointError when r = 0 (rho = 0) at any point given
        and a term carries a negative power of r (rho).
        """
        bound = {k: float(v) for k, v in (constants or {}).items()}
        if "pi" in bound:
            raise ConfigError("pi is a number, not a constant to bind")
        bound["pi"] = math.pi
        terms = []
        for (a, p, q, m), c in self.terms.items():
            v = c.to_complex()
            for name, exp in m:
                if name not in bound:
                    raise UnboundConstantError(f"constant '{name}' has no value")
                if exp < 0 and bound[name] == 0:
                    raise ConfigError(f"constant '{name}' is bound to 0 but "
                                      f"appears with the power {exp}")
                v *= bound[name] ** exp
            terms.append((v, a, float(p) / 2.0, float(q) / 2.0))
        r_singular = any(p < 0 for (_, p, _, _) in self.terms)
        rho_singular = any(q < 0 for (_, _, q, _) in self.terms)

        def value(x1, x2, x3):
            r2 = x1 * x1 + x2 * x2 + x3 * x3
            rho2 = x2 * x2 + x3 * x3
            if r_singular and _hits_zero(r2):
                raise SingularPointError("r=0 with negative power")
            if rho_singular and _hits_zero(rho2):
                raise SingularPointError("rho=0 with negative power")
            total = 0j
            for v, a, half_p, half_q in terms:
                v = v * (x1 ** a[0] * x2 ** a[1] * x3 ** a[2])
                if half_p:
                    v = v * r2 ** half_p
                if half_q:
                    v = v * rho2 ** half_q
                total = total + v
            return total

        return value

    # -- exact zero test -------------------------------------------------

    def reduced(self) -> "CoordFunction":
        """Canonical form modulo x3^2 = rho^2 - x2^2 and x1^2 = r^2 - rho^2.

        Even powers of x3 and x1 are expanded binomially, which leaves x1
        and x3 with exponent 0 or 1.  The reduced monomials are linearly
        independent functions: x2, rho and r are algebraically independent
        (so monomials in them are, for any rational exponents), and the
        reflections x1 -> -x1 and x3 -> -x3, which fix x2, rho and r,
        separate the odd x1 and x3 parts.  Two functions are therefore
        equal exactly when their reduced forms are structurally equal.
        """
        out: dict[TermKey, QC] = {}
        for ((a1, a2, a3), p, q, m), c in self.terms.items():
            k1, e1 = divmod(a1, 2)
            k3, e3 = divmod(a3, 2)
            # x3^(2 k3) = sum_i C(k3, i) (-x2^2)^i rho^(2 (k3 - i)), and
            # x1^(2 k1) = sum_j C(k1, j) (-rho^2)^j r^(2 (k1 - j)).
            for i in range(k3 + 1):
                for j in range(k1 + 1):
                    key = ((e1, a2 + 2 * i, e3), p + 2 * (k1 - j),
                           q + 2 * (k3 - i + j), m)
                    w = (-1) ** (i + j) * math.comb(k3, i) * math.comb(k1, j)
                    out[key] = out.get(key, QC_ZERO) + c.scale(w)
        return CoordFunction(out)

    def is_zero(self) -> bool:
        """Exact test for the zero function, by the canonical reduction."""
        return not self.reduced().terms

    def equals(self, other: "CoordFunction") -> bool:
        """Exact equality: the difference is the zero function."""
        return (self - other).is_zero()

    # -- presentation ---------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def __eq__(self, other) -> bool:
        return isinstance(other, CoordFunction) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for key, coeff in self.sorted_terms():
            parts.append(_term_str(key, coeff))
        out = parts[0]
        for piece in parts[1:]:
            if piece.startswith("-"):
                out += " - " + piece[1:]
            else:
                out += " + " + piece
        return out

    def __repr__(self) -> str:
        return f"CoordFunction({self})"


def as_constant(v: "ScalarLike | CoordFunction", what: str) -> CoordFunction:
    """``v`` as a function, refused with ConfigError unless it is constant:
    an exact number, or terms without a power of x1, x2, x3, r or rho."""
    f = v if isinstance(v, CoordFunction) else CoordFunction.scalar(v)
    if any(key[:3] != _NO_COORDS for key in f.terms):
        raise ConfigError(f"{what} must be constants, got {f}")
    return f


def _exp_str(base: str, e: Fraction) -> str:
    if e == 1:
        return base
    if e.denominator == 1 and e >= 0:
        return f"{base}^{e}"
    return f"{base}^({e})"


def _term_str(key: TermKey, coeff: QC) -> str:
    a, p, q, m = key
    factors = []
    ms = mono_str(m)
    if ms:
        factors.append(ms)
    for j in range(3):
        if a[j]:
            factors.append(_exp_str(f"X{j + 1}", Fraction(a[j])))
    if p != 0:
        factors.append(_exp_str("r", p))
    if q != 0:
        factors.append(_exp_str("rho", q))
    cs = str(coeff)
    if not factors:
        return cs
    body = "*".join(factors)
    if cs == "1":
        return body
    if cs == "-1":
        return f"-{body}"
    return f"{cs}*{body}"


def _hits_zero(square) -> bool:
    """Whether a float, or any entry of a numpy array, is exactly 0."""
    hit = square == 0.0
    return hit if isinstance(hit, bool) else bool(hit.any())

"""Exact scalar arithmetic: rational complex numbers and constant monomials.

A monomial is a product of named physical constants with integer
exponents.  A coefficient times a monomial is not a type of its own: it is
a one-term ``CoordFunction`` without coordinate dependence, which also
closes sums of different monomials.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

RationalLike = Union[int, Fraction]

#: Constants the expression grammar knows; the algebra itself accepts any
#: name.
DEFAULT_CONSTANTS = (
    "e", "m", "G", "M", "I", "r_hs", "phi_M", "Omega", "B", "omega",
    "hbar", "pi",
)


class QC:
    """Complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __eq__(self, other) -> bool:
        return (isinstance(other, QC) and self.re == other.re
                and self.im == other.im)

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self) -> str:
        return f"QC(re={self.re!r}, im={self.im!r})"

    def __add__(self, other: "QC") -> "QC":
        return QC(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "QC") -> "QC":
        return QC(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "QC") -> "QC":
        return QC(self.re * other.re - self.im * other.im,
                  self.re * other.im + self.im * other.re)

    def __neg__(self) -> "QC":
        return QC(-self.re, -self.im)

    def __truediv__(self, other: "QC") -> "QC":
        d = other.re * other.re + other.im * other.im
        return QC((self.re * other.re + self.im * other.im) / d,
                  (self.im * other.re - self.re * other.im) / d)

    def conjugate(self) -> "QC":
        return QC(self.re, -self.im)

    def scale(self, f: RationalLike) -> "QC":
        f = Fraction(f)
        return QC(self.re * f, self.im * f)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            if self.im == 1:
                return "i"
            if self.im == -1:
                return "-i"
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        imag = "i" if mag == 1 else f"{mag}*i"
        return f"({self.re} {sign} {imag})"


QC_ZERO = QC()
QC_ONE = QC(Fraction(1))

#: Monomial over named constants: sorted tuple of (name, nonzero exponent).
Monomial = tuple


def mono_make(pairs: Iterable[tuple[str, int]]) -> Monomial:
    acc: dict[str, int] = {}
    for name, exp in pairs:
        acc[name] = acc.get(name, 0) + exp
    return tuple(sorted((n, e) for n, e in acc.items() if e != 0))


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    return mono_make(list(a) + list(b))


def mono_inv(a: Monomial) -> Monomial:
    return tuple((n, -e) for n, e in a)


def mono_degree(a: Monomial, names: Iterable[str]) -> int:
    """Combined degree in ``names`` (negative exponents count)."""
    names = set(names)
    return sum(e for n, e in a if n in names)


def mono_str(a: Monomial) -> str:
    parts = []
    for name, exp in a:
        parts.append(name if exp == 1 else f"{name}^{exp}")
    return "*".join(parts)

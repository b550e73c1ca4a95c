"""Exact scalar arithmetic: rational complex numbers and constant monomials.

A ``SymbolicScalar`` is a rational complex coefficient times a single
monomial in named physical constants (integer exponents).  Sums of scalars
with different monomials are not closed here; they live one level up in
``CoordFunction``, which keys its terms by monomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Union

from .errors import UnboundConstantError

RationalLike = Union[int, Fraction]

#: Constants the expression grammar knows out of the box.  Users may declare
#: more at parse time; the algebra itself accepts any name.
DEFAULT_CONSTANTS = (
    "e", "m", "G", "M", "I", "r_hs", "phi_M", "Omega", "B", "omega",
    "hbar", "pi",
)


@dataclass(frozen=True)
class QC:
    """Complex number with exact rational real and imaginary parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "re", Fraction(self.re))
        object.__setattr__(self, "im", Fraction(self.im))

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
        if d == 0:
            raise ZeroDivisionError("division by zero QC")
        return QC((self.re * other.re + self.im * other.im) / d,
                  (self.im * other.re - self.re * other.im) / d)

    def conjugate(self) -> "QC":
        return QC(self.re, -self.im)

    def scale(self, f: RationalLike) -> "QC":
        f = Fraction(f)
        return QC(self.re * f, self.im * f)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

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

MONO_ONE: Monomial = ()


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


def mono_pow(a: Monomial, k: int) -> Monomial:
    if k == 0 or not a:
        return MONO_ONE
    return tuple((n, e * k) for n, e in a)


def mono_degree(a: Monomial, names: Iterable[str] | None = None) -> int:
    """Total degree, restricted to ``names`` when given (negative exponents count)."""
    if names is None:
        return sum(e for _, e in a)
    names = set(names)
    return sum(e for n, e in a if n in names)


def mono_value(a: Monomial, constants: Mapping[str, RationalLike]) -> Fraction:
    out = Fraction(1)
    for name, exp in a:
        if name not in constants:
            raise UnboundConstantError(f"constant '{name}' has no value")
        v = Fraction(constants[name])
        if v == 0 and exp < 0:
            raise ZeroDivisionError(f"constant '{name}' is 0 with negative exponent")
        out *= v ** exp
    return out


def mono_str(a: Monomial) -> str:
    parts = []
    for name, exp in a:
        parts.append(name if exp == 1 else f"{name}^{exp}")
    return "*".join(parts)


@dataclass(frozen=True)
class SymbolicScalar:
    """Rational complex coefficient times a monomial in named constants."""

    coeff: QC = QC_ONE
    mono: Monomial = MONO_ONE

    @staticmethod
    def of(value: RationalLike, imag: RationalLike = 0) -> "SymbolicScalar":
        return SymbolicScalar(QC(Fraction(value), Fraction(imag)))

    @staticmethod
    def symbol(name: str, exp: int = 1,
               value: RationalLike = 1) -> "SymbolicScalar":
        return SymbolicScalar(QC(Fraction(value)), mono_make([(name, exp)]))

    def __mul__(self, other: "SymbolicScalar") -> "SymbolicScalar":
        return SymbolicScalar(self.coeff * other.coeff,
                              mono_mul(self.mono, other.mono))

    def __neg__(self) -> "SymbolicScalar":
        return SymbolicScalar(-self.coeff, self.mono)

    def __add__(self, other: "SymbolicScalar") -> "SymbolicScalar":
        # Only same-monomial sums are closed at this level.
        if self.coeff.is_zero():
            return other
        if other.coeff.is_zero():
            return self
        if self.mono != other.mono:
            raise ValueError(
                "sum of SymbolicScalars with different monomials is not a "
                "SymbolicScalar; use CoordFunction")
        return SymbolicScalar(self.coeff + other.coeff, self.mono)

    def inverse(self) -> "SymbolicScalar":
        return SymbolicScalar(QC_ONE / self.coeff, mono_inv(self.mono))

    def conjugate(self) -> "SymbolicScalar":
        return SymbolicScalar(self.coeff.conjugate(), self.mono)

    def is_zero(self) -> bool:
        return self.coeff.is_zero()

    def substitute(self, constants: Mapping[str, RationalLike]) -> QC:
        return self.coeff.scale(mono_value(self.mono, constants))

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        ms = mono_str(self.mono)
        cs = str(self.coeff)
        if not ms:
            return cs
        if cs == "1":
            return ms
        if cs == "-1":
            return f"-{ms}"
        return f"{cs}*{ms}"

"""Recursive-descent parser for operator expressions.

Grammar (whitespace insignificant)::

    expr     :=  term (('+' | '-') term)*
    term     :=  unary (('*' | '/') unary)*
    unary    :=  '-'* power
    power    :=  atom ('^' exponent)?
    exponent :=  ['-'] INT  |  '(' ['-'] INT ['/' INT] ')'
    atom     :=  INT | 'i' | IDENT | '(' expr ')'

Identifiers: X1 X2 X3 (positions), P1 P2 P3 (momenta), r (= |x|),
rho (= sqrt(x2^2+x3^2)), i (imaginary unit), and constant names.  Division
is only defined when the divisor normal-orders to a single invertible
scalar * r^p * rho^q term, which covers rational literals like 3/7 and
potentials like e^2/r.  The bare tokens r and rho take any rational
exponent; every other base takes an integer one, and a negative power
x^-n is the division 1/x^n, so it takes what '/' takes: (2*r)^-1 reads,
X1^-1 is refused as 1/X1 is.

Parentheses nest at most ``MAX_DEPTH`` deep (each level is five frames
of the descent) and a run of minus signs is read in a loop, so no input
exhausts the interpreter's recursion limit.

``parse_function``, ``parse_triple`` and ``parse_coupling`` read the values
a deformation is made of, for the CLI options and the model catalog alike.
"""

from __future__ import annotations

from fractions import Fraction

from .coords import CoordFunction
from .errors import ConfigError, ParseError, UnknownSymbolError
from .operators import OperatorExpr
from .scalars import QC, DEFAULT_CONSTANTS

_OPS = set("+-*/^()")
#: Deepest parenthesis nesting the parser accepts.
MAX_DEPTH = 50
#: The bare tokens that take any rational exponent.
_RADIAL = {"r": CoordFunction.r_power, "rho": CoordFunction.rho_power}


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind = kind  # 'num' | 'ident' | an operator char | 'end'
        self.text = text
        self.pos = pos


def _tokenize(text: str) -> list[_Token]:
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        # INT is ASCII: str.isdigit() holds for '²' too, which int() refuses.
        if "0" <= c <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            out.append(_Token("num", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(_Token("ident", text[i:j], i))
            i = j
            continue
        if c in _OPS:
            out.append(_Token(c, c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    out.append(_Token("end", "", n))
    return out


class Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.k = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.k]

    def next(self) -> _Token:
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            found = "end of input" if tok.kind == "end" else repr(tok.text)
            raise ParseError(f"expected {kind!r}, found {found}", tok.pos)
        return tok

    def parse(self) -> OperatorExpr:
        expr = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos)
        return expr

    def expr(self) -> OperatorExpr:
        acc = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            rhs = self.term()
            acc = acc + rhs if op == "+" else acc - rhs
        return acc

    def term(self) -> OperatorExpr:
        acc = self.unary()
        while self.peek().kind in ("*", "/"):
            tok = self.next()
            rhs = self.unary()
            if tok.kind == "*":
                acc = acc * rhs
            else:
                acc = acc * _invert(rhs, tok.pos)
        return acc

    def unary(self) -> OperatorExpr:
        signs = 0
        while self.peek().kind == "-":
            self.next()
            signs += 1
        operand = self.power()
        return -operand if signs % 2 else operand

    def power(self) -> OperatorExpr:
        tok = self.peek()
        base = self.atom()
        if self.peek().kind != "^":
            return base
        self.next()
        exp = self.exponent()
        if tok.kind == "ident" and tok.text in _RADIAL:
            return OperatorExpr.from_coord(_RADIAL[tok.text](exp))
        if exp.denominator != 1:
            raise ParseError(
                f"fractional exponent {exp} only allowed on r and rho", tok.pos)
        n = exp.numerator
        if n < 0:
            base, n = _invert(base, tok.pos), -n
        return base.power(n)

    def atom(self) -> OperatorExpr:
        tok = self.next()
        if tok.kind == "num":
            return OperatorExpr.scalar(QC(Fraction(_integer(tok))))
        if tok.kind == "(":
            if self.depth == MAX_DEPTH:
                raise ParseError(
                    f"parentheses nest deeper than {MAX_DEPTH} levels", tok.pos)
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            self.expect(")")
            return inner
        if tok.kind == "ident":
            name = tok.text
            if name in ("X1", "X2", "X3"):
                return OperatorExpr.position(int(name[1]))
            if name in ("P1", "P2", "P3"):
                return OperatorExpr.momentum(int(name[1]))
            if name in _RADIAL:
                return OperatorExpr.from_coord(_RADIAL[name](1))
            if name == "i":
                return OperatorExpr.scalar(QC(0, Fraction(1)))
            if name in DEFAULT_CONSTANTS:
                return OperatorExpr.from_coord(CoordFunction.constant(name))
            raise UnknownSymbolError(f"unknown symbol {name!r}", tok.pos)
        if tok.kind == "end":
            raise ParseError("unexpected end of input", tok.pos)
        raise ParseError(f"unexpected token {tok.text!r}", tok.pos)

    def exponent(self) -> Fraction:
        # A bare exponent is a single signed integer; rationals need
        # parentheses (r^(-3/2)) so that e^2/r keeps meaning (e^2)/r.
        paren = False
        if self.peek().kind == "(":
            self.next()
            paren = True
        sign = 1
        if self.peek().kind == "-":
            self.next()
            sign = -1
        num = _integer(self.expect("num"))
        den = 1
        if paren and self.peek().kind == "/":
            self.next()
            tok = self.expect("num")
            den = _integer(tok)
            if den == 0:
                raise ParseError("exponent has a zero denominator", tok.pos)
        if paren:
            self.expect(")")
        return Fraction(sign * num, den)


def _integer(tok: _Token) -> int:
    """An INT token's value; the interpreter refuses to read one with more
    digits than ``sys.get_int_max_str_digits()``."""
    try:
        return int(tok.text)
    except ValueError:
        raise ParseError(f"integer of {len(tok.text)} digits is too long",
                         tok.pos) from None


def _invert(expr: OperatorExpr, pos: int) -> OperatorExpr:
    """Exact inverse of a single scalar * r^p * rho^q term."""
    if any(any(pm) for pm in expr.terms):
        raise ParseError("cannot divide by an expression with momentum", pos)
    try:
        inverse = expr.coordinate_part().inverse()
    except ConfigError as exc:
        raise ParseError(str(exc), pos) from None
    return OperatorExpr.from_coord(inverse)


def parse(text: str) -> OperatorExpr:
    """Parse expression text into a normal-ordered OperatorExpr."""
    return Parser(text).parse()


def parse_function(text: str, what: str) -> CoordFunction:
    """The real function of the positions ``text``; ``what`` names it in
    the refusal of any other expression."""
    try:
        expr = parse(text)
    except ParseError as exc:
        raise ConfigError(f"{what}: {exc}") from exc
    f = expr.coordinate_part()
    if expr.momentum_degree() or f.conjugate() != f:
        raise ConfigError(f"{what} = {text.strip()!r} is not a real "
                          "function of the positions")
    return f


def parse_triple(text: str, what: str,
                 symbol: str) -> tuple[CoordFunction, ...]:
    """Three comma-separated real functions of the positions, named
    ``symbol`` 1, 2 and 3 in a refusal, as ``--Q`` names Q1, Q2, Q3."""
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError(f"{what} needs three comma-separated expressions "
                          f"{symbol}1, {symbol}2, {symbol}3, got {text!r}")
    return tuple(parse_function(part, f"{what} {symbol}{j}")
                 for j, part in enumerate(parts, start=1))


def parse_coupling(text: str) -> CoordFunction:
    """A coupling g: one constant name the grammar knows, or its negation
    ``-name``; a position, ``i``, ``r`` or an unknown name is refused."""
    name, sign = text.strip(), 1
    if name.startswith("-"):
        name, sign = name[1:].strip(), -1
    if name not in DEFAULT_CONSTANTS:
        raise ConfigError(f"coupling must be a constant name, got {name!r}")
    return CoordFunction.constant(name, 1, sign)

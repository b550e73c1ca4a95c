from fractions import Fraction

import pytest

from warpconv.coords import CoordFunction
from warpconv.errors import ConfigError, ParseError, UnknownSymbolError
from warpconv.operators import OperatorExpr
from warpconv.parsing import MAX_DEPTH, parse, parse_coupling
from warpconv.scalars import QC

F = Fraction


def test_momentum_squares_need_no_reordering():
    e = parse("P1*P1 + P2*P2 + P3*P3")
    assert e == OperatorExpr({(2, 0, 0): CoordFunction.one(),
                              (0, 2, 0): CoordFunction.one(),
                              (0, 0, 2): CoordFunction.one()})


def test_normal_ordering_applied_by_parser():
    e = parse("P1*X1")
    expected = (OperatorExpr.position(1) * OperatorExpr.momentum(1)
                - OperatorExpr.scalar(QC(0, F(1))))
    assert e == expected


def test_radial_term():
    e = parse("X1*r^-3")
    assert e == OperatorExpr.from_coord(
        CoordFunction.term(1, (1, 0, 0), -3, 0))


def test_fraction_literals_and_division():
    assert parse("3/7") == OperatorExpr.scalar(QC(F(3, 7)))
    assert parse("e^2/r") == OperatorExpr.from_coord(
        CoordFunction.constant("e", 2) * CoordFunction.r_power(-1))
    assert parse("1/(2*m)") == OperatorExpr.from_coord(
        CoordFunction.constant("m", -1, F(1, 2)))


def test_rational_exponents_need_parens():
    e = parse("r^(-3/2)")
    assert e == OperatorExpr.from_coord(CoordFunction.r_power(F(-3, 2)))
    e2 = parse("rho^(1/2)")
    assert e2 == OperatorExpr.from_coord(CoordFunction.rho_power(F(1, 2)))
    # without parens the slash is division
    e3 = parse("e^2/3")
    assert e3 == OperatorExpr.from_coord(
        CoordFunction.constant("e", 2, F(1, 3)))


def test_imaginary_unit():
    assert parse("i*i") == OperatorExpr.scalar(QC(F(-1)))
    assert parse("i^2") == OperatorExpr.scalar(QC(F(-1)))
    assert parse("2 - 3*i") == OperatorExpr.scalar(QC(F(2), F(-3)))


def test_unary_minus_and_precedence():
    assert parse("-X1^2") == OperatorExpr.from_coord(
        CoordFunction.term(-1, (2, 0, 0)))
    assert parse("2*X1 - X1 - X1").is_structurally_zero()
    # A run of minus signs is read in a loop, not one frame per sign.
    assert parse("-" * 3000 + "X1") == parse("X1")
    assert parse("-" * 3001 + "X1^2") == parse("-X1^2")


def test_parenthesized_power_expands():
    e = parse("(P1 + X1)^2")
    direct = parse("P1*P1 + P1*X1 + X1*P1 + X1*X1")
    assert e == direct


def test_syntax_error_has_position():
    deepest = "(" * MAX_DEPTH + "X1" + ")" * MAX_DEPTH
    assert parse(deepest) == parse("X1")
    for text, position in (
            ("X1 + * P2", 5),
            # The first parenthesis beyond MAX_DEPTH.
            ("X1 + (" + deepest + ")", 5 + MAX_DEPTH),
            # An integer with more digits than the interpreter reads.
            ("X1 + " + "1" * 5000, 5)):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.position == position


def test_end_of_input_is_named():
    for text, message in (
            ("X1+", "unexpected end of input (at position 3)"),
            ("(X1", "expected ')', found end of input (at position 3)"),
            ("X1^(1/2", "expected ')', found end of input (at position 7)")):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == message


def test_unknown_symbol():
    with pytest.raises(UnknownSymbolError):
        parse("X4")
    with pytest.raises(UnknownSymbolError):
        parse("X1 + foo")


def test_division_restrictions():
    with pytest.raises(ParseError):
        parse("1/P1")
    with pytest.raises(ParseError):
        parse("1/(X1 + X2)")
    with pytest.raises(ParseError):
        parse("1/X1")


def test_powers_of_zero_and_division_by_zero():
    assert parse("0^2 + X1*0^0") == parse("X1")
    for text, position in (("1/0", 1), ("0^-1", 0), ("X1/(e - e)", 2)):
        with pytest.raises(ParseError, match="cannot divide by zero") as err:
            parse(text)
        assert err.value.position == position


def test_trailing_garbage():
    with pytest.raises(ParseError):
        parse("X1 X2")


def test_constants_with_powers():
    e = parse("hbar^2*pi^-1")
    assert e == OperatorExpr.from_coord(
        CoordFunction.constant("hbar", 2) * CoordFunction.constant("pi", -1))


# A coupling is one constant the grammar knows: a name the grammar reads
# as a position, a momentum, i, r or rho, or does not know, is refused.
@pytest.mark.parametrize("text, name", [
    ("X1", "X1"), ("i", "i"), ("r", "r"), ("rho", "rho"), ("P2", "P2"),
    ("q", "q"), ("\u00e9", "\u00e9"), ("-X1", "X1"), ("1x", "1x"),
    ("--m", "-m"), ("", ""), ("e*m", "e*m")])
def test_a_coupling_is_one_known_constant(text, name):
    with pytest.raises(ConfigError) as info:
        parse_coupling(text)
    assert str(info.value) == f"coupling must be a constant name, got {name!r}"


# A negative power x^-n is the division 1/x^n, whatever the base's text.
@pytest.mark.parametrize("base", ["e", "(e)", "2", "i", "hbar", "(2*r)",
                                  "(r*rho)"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_negative_power_is_a_division(base, n):
    assert parse(f"{base}^-{n}") == parse(f"1/({base})^{n}")


@pytest.mark.parametrize("base", ["X1", "P1", "(X1+1)", "0", "(e-e)"])
def test_a_negative_power_refuses_what_division_refuses(base):
    with pytest.raises(ParseError) as power:
        parse(f"{base}^-1")
    with pytest.raises(ParseError) as division:
        parse(f"1/{base}")
    words = str(division.value).rpartition(" (at position ")[0]
    assert str(power.value) == f"{words} (at position 0)"


@pytest.mark.parametrize("text", ["X1^(1/2)", "(r)^(1/2)", "e^(1/2)"])
def test_only_bare_r_and_rho_take_a_fractional_exponent(text):
    with pytest.raises(ParseError, match="fractional exponent 1/2 only "
                                         "allowed on r and rho"):
        parse(text)


def test_a_refused_inverse_forms_no_product(monkeypatch):
    calls = []
    mul = OperatorExpr.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(OperatorExpr, "__mul__", counted)
    with pytest.raises(ParseError, match="cannot divide by an expression "
                                         "with momentum"):
        parse("(X1+P1)^-40")
    assert calls == []

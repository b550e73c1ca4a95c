import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import rand_coord
from warpconv.coords import CoordFunction, as_constant
from warpconv.errors import (ConfigError, SingularPointError,
                             UnboundConstantError)
from warpconv.scalars import QC

F = Fraction


# -- exact evaluation at rational points: the oracle of the normal form ----


class NonExactPointError(Exception):
    """Exact evaluation requested at a point whose radicals are irrational."""


def evaluate(f: CoordFunction, point, constants=None) -> QC:
    """Exact value of f at a rational point.

    Raises SingularPointError at r=0 / rho=0 with negative powers,
    UnboundConstantError for missing constants, and NonExactPointError
    when an odd or fractional radial power is requested at a point whose
    radius (or its square root) is irrational.
    """
    x = tuple(Fraction(v) for v in point)
    constants = constants or {}
    r2 = x[0] ** 2 + x[1] ** 2 + x[2] ** 2
    rho2 = x[1] ** 2 + x[2] ** 2
    total = QC()
    for (a, p, q, m), c in f.terms.items():
        val = c
        for name, exp in m:
            if name not in constants:
                raise UnboundConstantError(f"constant '{name}' has no value")
            val = val.scale(Fraction(constants[name]) ** exp)
        for j in range(3):
            if a[j]:
                val = val.scale(x[j] ** a[j])
        if p != 0:
            val = val.scale(_radical_power(r2, p, "r"))
        if q != 0:
            val = val.scale(_radical_power(rho2, q, "rho"))
        total = total + val
    return total


def _sqrt_exact(v: Fraction) -> Fraction | None:
    if v < 0:
        return None
    n, d = v.numerator, v.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def _radical_power(sq: Fraction, exp: Fraction, label: str) -> Fraction:
    """Exact value of radius^exp given radius^2 = sq."""
    if sq == 0:
        if exp < 0:
            raise SingularPointError(f"{label}=0 with negative power {exp}")
        return Fraction(0)
    d = exp.denominator
    if d == 1 and exp.numerator % 2 == 0:
        return sq ** (exp.numerator // 2)
    root = _sqrt_exact(sq)
    if root is None:
        raise NonExactPointError(
            f"{label}^({exp}) is irrational at this point; "
            "choose a Pythagorean-style point")
    if d == 1:
        return root ** exp.numerator
    if d == 2:
        root4 = _sqrt_exact(root)
        if root4 is None:
            raise NonExactPointError(
                f"{label}^({exp}) needs {label}^(1/2) rational at this point")
        return root4 ** int(2 * exp)
    raise NonExactPointError(
        f"exponent {exp} of {label} is not exactly evaluable")


def test_product_merges_structurally_equal_terms():
    f = CoordFunction.x(1) * CoordFunction.x(1)
    assert f == CoordFunction.term(1, (2, 0, 0))
    # x2 * rho^-2 * x2 collapses exponents but not rho against x
    g = CoordFunction.x(2) * CoordFunction.rho_power(-2) * CoordFunction.x(2)
    assert g == CoordFunction.term(1, (0, 2, 0), 0, -2)


def test_zero_terms_dropped():
    f = CoordFunction.x(1) - CoordFunction.x(1)
    assert f.is_structurally_zero()


def test_partial_derivative_examples():
    # d/dx1 r^-1 = -x1 r^-3
    d = CoordFunction.r_power(-1).partial(1)
    assert d == CoordFunction.term(-1, (1, 0, 0), -3, 0)
    # d/dx1 rho^-2 = 0
    assert CoordFunction.rho_power(-2).partial(1).is_structurally_zero()
    # d/dx2 (x2 rho^-2) = rho^-2 - 2 x2^2 rho^-4
    d = (CoordFunction.x(2) * CoordFunction.rho_power(-2)).partial(2)
    expected = CoordFunction.rho_power(-2) + \
        CoordFunction.term(-2, (0, 2, 0), 0, -4)
    assert d == expected


def test_fractional_power_derivative():
    # d/dx1 r^(-3/2) = -(3/2) x1 r^(-7/2)
    d = CoordFunction.r_power(F(-3, 2)).partial(1)
    assert d == CoordFunction.term(F(-3, 2), (1, 0, 0), F(-7, 2), 0)


def test_mixed_partials_commute_structurally():
    rng = random.Random(5)
    for _ in range(100):
        f = rand_coord(rng, max_terms=3, fractional=True)
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                assert f.partial(i).partial(j) == f.partial(j).partial(i)


def test_evaluate_exact_pythagorean():
    f = CoordFunction.r_power(-1)
    assert evaluate(f, (3, 4, 0)) == QC(F(1, 5))
    assert evaluate(CoordFunction.x(1), (2, 0, 1)) == QC(F(2))


def test_evaluate_singular_point():
    with pytest.raises(SingularPointError):
        evaluate(CoordFunction.r_power(-1), (0, 0, 0))
    with pytest.raises(SingularPointError):
        evaluate(CoordFunction.rho_power(-2), (1, 0, 0))


def test_evaluate_needs_exact_radical():
    with pytest.raises(NonExactPointError):
        evaluate(CoordFunction.r_power(-1), (1, 1, 0))
    # even powers never need the radical
    assert evaluate(CoordFunction.r_power(-2), (1, 1, 0)) == QC(F(1, 2))


def test_evaluate_unbound_constant():
    f = CoordFunction.constant("e")
    with pytest.raises(UnboundConstantError):
        evaluate(f, (1, 2, 3))
    assert evaluate(f, (1, 2, 3), {"e": F(5)}) == QC(F(5))


def test_evaluate_half_integer_power():
    # r^(1/2) at a point where r is a perfect square: (12,3,4) has r=13;
    # scale by 13 to get r=169=13^2.
    f = CoordFunction.r_power(F(1, 2))
    assert evaluate(f, (156, 39, 52)) == QC(F(13))


def test_oracle_transverse_identity():
    # x2^2 rho^-2 + x3^2 rho^-2 == 1 although structurally different
    f = (CoordFunction.x(2, 2) + CoordFunction.x(3, 2)) * \
        CoordFunction.rho_power(-2)
    assert f.equals(CoordFunction.one())
    assert not f.equals(CoordFunction.x(1))


def test_oracle_radial_identity():
    # (x1^2+x2^2+x3^2) r^-2 == 1
    f = sum((CoordFunction.x(j, 2) for j in (1, 2, 3)),
            CoordFunction.zero()) * CoordFunction.r_power(-2)
    assert f.equals(CoordFunction.one())


def test_oracle_half_integer_exact():
    # x_k^2 r^(-7/2) summed equals r^(-3/2)
    f = sum((CoordFunction.x(j, 2) for j in (1, 2, 3)),
            CoordFunction.zero()) * CoordFunction.r_power(F(-7, 2))
    assert (f - CoordFunction.r_power(F(-3, 2))).is_zero()
    assert not (f - CoordFunction.r_power(F(-1, 2))).is_zero()


def test_oracle_float_fallback_for_deep_radicals():
    # Half-integer powers of both r and rho, which no rational point off
    # the x1 = 0 plane evaluates exactly, are decided like any other term.
    f = CoordFunction.r_power(F(1, 2)) * CoordFunction.rho_power(F(1, 2))
    assert (f - f).is_zero()
    assert not (f - CoordFunction.one()).is_zero()
    g = (CoordFunction.x(2, 2) + CoordFunction.x(3, 2)) * \
        CoordFunction.r_power(F(1, 2)) * CoordFunction.rho_power(F(-3, 2))
    assert g.equals(f)


def test_normal_form_matches_exact_evaluation():
    # (156, 39, 52) has r = 169 = 13^2 and rho = 65, so every power
    # rand_coord draws (half-integer in r, even in rho) evaluates exactly;
    # the reflected point checks the odd x1 and x3 parts.
    rng = random.Random(11)
    consts = {"e": F(3, 2), "m": F(-5, 7), "B": F(2)}
    for _ in range(200):
        f = rand_coord(rng, max_terms=4, fractional=True)
        f = f * rand_coord(rng, max_terms=2)
        reduced = f.reduced()
        assert all(a[0] <= 1 and a[2] <= 1 for (a, _, _, _) in reduced.terms)
        for point in ((156, 39, 52), (-156, 39, -52)):
            assert evaluate(reduced, point, consts) == evaluate(f, point, consts)


def test_compiled_values_match_the_exact_oracle():
    rng = random.Random(11)
    consts = {"e": F(3, 2), "m": F(-5, 7), "B": F(2)}
    for _ in range(200):
        f = rand_coord(rng, max_terms=4, fractional=True)
        f = f * rand_coord(rng, max_terms=2)
        value = f.compile({k: float(v) for k, v in consts.items()})
        for point in ((156, 39, 52), (-156, 39, -52)):
            exact = evaluate(f, point, consts).to_complex()
            got = value(*(float(x) for x in point))
            assert abs(got - exact) <= 1e-12 * abs(exact), (f, point)


def test_array_call_equals_scalar_calls():
    # Products round the same on arrays and on floats, so multilinear terms
    # agree bit for bit.  numpy's ** is not libm's pow, even for the
    # exponent 2 (numpy squares; libm's pow is an ulp off at about 0.1% of
    # doubles), so higher and radial powers agree within a few ulps of the
    # terms' magnitude.
    consts = {"e": 1.5, "m": -0.7, "B": 2.0}
    xs = np.random.default_rng(2).uniform(-3.0, 3.0, (3, 6, 7))
    points = list(zip(*(x.ravel() for x in xs)))
    rng = random.Random(7)
    for _ in range(50):
        g = rand_coord(rng, max_terms=4, fractional=True)
        multilinear = CoordFunction(
            {(tuple(min(e, 1) for e in a), F(0), F(0), m): c
             for (a, _, _, m), c in g.terms.items()})
        for f, ulps in ((multilinear, 0), (g, 8)):
            value = f.compile(consts)
            array = value(*xs).ravel()
            scalars = np.array([value(*map(float, p)) for p in points])
            scale = sum(np.abs(CoordFunction({key: c}).compile(consts)(*xs))
                        for key, c in f.terms.items()).ravel()
            assert np.all(np.abs(array - scalars) <= ulps * 2.0 ** -52 * scale), f


def test_compiled_singular_points():
    with pytest.raises(SingularPointError, match="r=0"):
        CoordFunction.r_power(-1).compile({})(0.0, 0.0, 0.0)
    axis = np.array([-1.0, 0.0, 1.0])
    with pytest.raises(SingularPointError, match="rho=0"):
        CoordFunction.rho_power(-2).compile({})(1.0, axis, 0.0 * axis)
    # Positive powers are finite there.
    assert CoordFunction.r_power(1).compile({})(0.0, 0.0, 0.0) == 0


def test_compile_needs_every_constant_but_pi():
    f = CoordFunction.constant("e")
    with pytest.raises(UnboundConstantError):
        f.compile({"m": 1.0})
    pi = CoordFunction.constant("pi")
    assert pi.compile(None)(0.0, 0.0, 0.0) == math.pi
    # pi is a number: binding it is refused, whether or not pi is used.
    for g in (pi, f):
        with pytest.raises(ConfigError, match="pi is a number"):
            g.compile({"e": 1.0, "pi": 3.0})


def test_compile_refuses_a_zero_constant_under_a_negative_power():
    f = CoordFunction.constant("e", -2) + CoordFunction.constant("m")
    with pytest.raises(ConfigError, match="'e' is bound to 0 but appears "
                       "with the power -2"):
        f.compile({"e": 0.0, "m": 1.0})
    # A zero under a positive power is a plain zero.
    assert f.compile({"e": 1.0, "m": 0.0})(0.0, 0.0, 0.0) == 1.0


def test_substitute_symbol():
    f = CoordFunction.constant("lam", 2) * CoordFunction.x(1)
    g = f.substitute_symbol("lam", CoordFunction.constant("e", 1, F(1, 2)))
    assert g == CoordFunction.constant("e", 2, F(1, 4)) * CoordFunction.x(1)


def test_degree_truncation():
    f = CoordFunction.constant("Omega", 2) + \
        CoordFunction.constant("Omega") + \
        CoordFunction.one()
    t = f.truncate_to_linear(["Omega"])
    assert t == CoordFunction.constant("Omega") + CoordFunction.one()


def test_conjugate():
    f = CoordFunction.term(QC(F(1), F(2)), (1, 0, 0))
    assert f.conjugate() == CoordFunction.term(QC(F(1), F(-2)), (1, 0, 0))


def test_constant_product_and_inverse():
    s = CoordFunction.constant("e", 2, F(3, 4))
    t = CoordFunction.constant("m", -1, 2)
    st = s * t
    assert st.terms == {((0, 0, 0), 0, 0, (("e", 2), ("m", -1))): QC(F(3, 2))}
    assert st * st.inverse() == CoordFunction.one()
    # One term with r and rho powers inverts too; its exponents negate.
    f = (st * CoordFunction.r_power(F(3, 2)) * CoordFunction.rho_power(-2)
         ).scale(QC(1, 1))
    assert f * f.inverse() == CoordFunction.one()
    for bad in (CoordFunction.zero(), s + t, CoordFunction.x(2)):
        with pytest.raises(ValueError):
            bad.inverse()


def test_constants_refuse_coordinate_dependence():
    assert as_constant(F(1, 2), "x") == CoordFunction.scalar(F(1, 2))
    s = CoordFunction.constant("e") + CoordFunction.constant("m")
    assert as_constant(s, "x") is s
    for f in (CoordFunction.x(1), CoordFunction.r_power(1),
              CoordFunction.rho_power(-1) + CoordFunction.one()):
        with pytest.raises(ValueError):
            as_constant(f, "x")
        with pytest.raises(ValueError):
            CoordFunction.one().scale(f)

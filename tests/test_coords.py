import random
from fractions import Fraction

import pytest

from conftest import rand_coord
from warpconv.coords import CoordFunction
from warpconv.errors import (NonExactPointError, SingularPointError,
                             UnboundConstantError)
from warpconv.scalars import QC, SymbolicScalar

F = Fraction


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
    assert f.evaluate((3, 4, 0)) == QC(F(1, 5))
    assert CoordFunction.x(1).evaluate((2, 0, 1)) == QC(F(2))


def test_evaluate_singular_point():
    with pytest.raises(SingularPointError):
        CoordFunction.r_power(-1).evaluate((0, 0, 0))
    with pytest.raises(SingularPointError):
        CoordFunction.rho_power(-2).evaluate((1, 0, 0))


def test_evaluate_needs_exact_radical():
    with pytest.raises(NonExactPointError):
        CoordFunction.r_power(-1).evaluate((1, 1, 0))
    # even powers never need the radical
    assert CoordFunction.r_power(-2).evaluate((1, 1, 0)) == QC(F(1, 2))


def test_evaluate_unbound_constant():
    f = CoordFunction.scalar(SymbolicScalar.symbol("e"))
    with pytest.raises(UnboundConstantError):
        f.evaluate((1, 2, 3))
    assert f.evaluate((1, 2, 3), {"e": F(5)}) == QC(F(5))


def test_evaluate_half_integer_power():
    # r^(1/2) at a point where r is a perfect square: (12,3,4) has r=13;
    # scale by 13 to get r=169=13^2.
    f = CoordFunction.r_power(F(1, 2))
    assert f.evaluate((156, 39, 52)) == QC(F(13))


def test_oracle_transverse_identity():
    # x2^2 rho^-2 + x3^2 rho^-2 == 1 although structurally different
    f = (CoordFunction.x(2, 2) + CoordFunction.x(3, 2)) * \
        CoordFunction.rho_power(-2)
    assert f.equivalent(CoordFunction.one())
    assert not f.equivalent(CoordFunction.x(1))


def test_oracle_radial_identity():
    # (x1^2+x2^2+x3^2) r^-2 == 1
    f = sum((CoordFunction.x(j, 2) for j in (1, 2, 3)),
            CoordFunction.zero()) * CoordFunction.r_power(-2)
    assert f.equivalent(CoordFunction.one())


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
    assert g.equivalent(f)


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
            assert reduced.evaluate(point, consts) == f.evaluate(point, consts)


def test_substitute_symbol():
    f = CoordFunction.term(SymbolicScalar.symbol("lam", 2), (1, 0, 0))
    g = f.substitute_symbol("lam", SymbolicScalar.symbol("e", 1, F(1, 2)))
    assert g == CoordFunction.term(
        SymbolicScalar(QC(F(1, 4)), (("e", 2),)), (1, 0, 0))


def test_degree_truncation():
    f = CoordFunction.scalar(SymbolicScalar.symbol("Omega", 2)) + \
        CoordFunction.scalar(SymbolicScalar.symbol("Omega")) + \
        CoordFunction.one()
    t = f.drop_degree_at_least(["Omega"], 2)
    assert t == CoordFunction.scalar(SymbolicScalar.symbol("Omega")) + \
        CoordFunction.one()


def test_conjugate():
    f = CoordFunction.term(SymbolicScalar(QC(F(1), F(2))), (1, 0, 0))
    assert f.conjugate() == CoordFunction.term(
        SymbolicScalar(QC(F(1), F(-2))), (1, 0, 0))

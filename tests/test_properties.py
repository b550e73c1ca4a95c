"""Property tests of the normal-ordered product, the commutator and the
vector calculus of triples, drawn by hypothesis.

The operands are one- or two-term operators from the seeded generators of
conftest, with hypothesis choosing (and shrinking) the seed.  The examples
are derandomized, so a run is reproducible and writes no example database.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from fractions import Fraction

from conftest import MONO_POOL, rand_coord, rand_expr, rand_qc
from hypothesis import given, settings, strategies as st
from warpconv.coords import CoordFunction
from warpconv.deform import DeformationMatrix, skew
from warpconv.gauge import bianchi_sum, curl
from warpconv.scalars import QC_ZERO

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True,
                    database=None)


def operators(max_degree: int):
    return st.randoms(use_true_random=False).map(
        lambda rng: rand_expr(rng, max_terms=2, max_degree=max_degree))


@PROPERTY
@given(operators(1), operators(1), operators(1))
def test_normal_ordered_product_is_associative(a, b, c):
    assert ((a * b) * c).equals(a * (b * c))


@PROPERTY
@given(operators(2), operators(2))
def test_adjoint_reverses_products(a, b):
    assert (a * b).adjoint().equals(b.adjoint() * a.adjoint())


@PROPERTY
@given(operators(1), operators(1), operators(1))
def test_commutator_satisfies_the_jacobi_identity(a, b, c):
    total = (a.commutator(b.commutator(c)) + b.commutator(c.commutator(a))
             + c.commutator(a.commutator(b)))
    assert total.equals(total.zero())


@PROPERTY
@given(operators(1), operators(1), operators(1))
def test_commutator_is_a_derivation(a, b, c):
    # Leibniz: [A, BC] = [A, B] C + B [A, C].
    assert a.commutator(b * c).equals(
        a.commutator(b) * c + b * a.commutator(c))


def _stores_no_zero(x) -> bool:
    """No zero coefficient in a function; no empty momentum coefficient,
    nor a zero inside one, in an operator."""
    if isinstance(x, CoordFunction):
        return not any(c.is_zero() for c in x.terms.values())
    return all(f.terms and _stores_no_zero(f) for f in x.terms.values())


@PROPERTY
@given(operators(2), operators(2), st.randoms(use_true_random=False),
       st.integers(1, 3))
def test_results_keep_the_normal_form(a, b, rng, axis):
    # The constructors are the one zero filter; a - a and a scale by 0
    # cancel every term, and the product and the adjoint reorder momenta.
    f, c = rand_coord(rng, max_terms=3), rand_qc(rng)
    results = [a + b, a - b, a - a, a * b, a.commutator(b), a.adjoint(),
               a.reduced(), a.scale(c), a.scale(QC_ZERO), f.partial(axis),
               f.reduced(), f.scale(c), f.scale(QC_ZERO), f - f]
    assert all(_stores_no_zero(x) for x in results)
    assert not (a - a).terms and not a.scale(QC_ZERO).terms


def triples(draw):
    return st.randoms(use_true_random=False).map(
        lambda rng: tuple(draw(rng) for _ in range(3)))


def _rand_constant(rng) -> CoordFunction:
    zero = Fraction(0)
    return CoordFunction({((0, 0, 0), zero, zero, rng.choice(MONO_POOL)):
                          rand_qc(rng)})


@PROPERTY
@given(triples(lambda rng: rand_coord(rng, fractional=True)))
def test_div_curl_is_zero(a):
    assert bianchi_sum(curl(a)).is_zero()


@PROPERTY
@given(st.randoms(use_true_random=False))
def test_curl_grad_is_zero(rng):
    phi = rand_coord(rng, max_terms=3, fractional=True)
    assert all(b.is_zero() for b in curl([phi.partial(j) for j in (1, 2, 3)]))


@PROPERTY
@given(triples(_rand_constant))
def test_skew_rows_are_the_deformation_matrix(b):
    assert DeformationMatrix.from_rows(skew(b)) == DeformationMatrix(*b)

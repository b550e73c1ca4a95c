import contextlib
import io
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from warpconv import cli, deform
from warpconv.coords import CoordFunction, as_constant
from warpconv.deform import (DeformationSpec, deform_coordinate,
                             deform_operator, invert_transverse_block,
                             momentum_shift, momentum_shift_via_commutators,
                             rieffel_product, skew, times_x)
from warpconv.errors import (ConfigError, UnsupportedDegreeError,
                             UnsupportedOperandError)
from warpconv.models import get_preset
from warpconv.operators import OperatorExpr
from warpconv.parsing import parse
from warpconv.scalars import QC
from warpconv.verify import run_suite

F = Fraction
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def COORDINATE():
    return times_x(CoordFunction.one())


def RADIAL(n):
    return times_x(CoordFunction.r_power(-F(n)))


def TRANSVERSE():
    return times_x(CoordFunction.rho_power(-1))


def triple(b1=0, b2=0, b3=0):
    """The axial triple (b1, b2, b3) as constant coordinate functions."""
    return tuple(as_constant(v, "b") for v in (b1, b2, b3))


def deformed_twice(a, spec1, spec2):
    return deform_operator(deform_operator(a, spec1), spec2)


def test_matrix_skew_validation():
    b = triple(1, 2, 3)
    rows = DeformationSpec(b, COORDINATE()).rows
    assert rows == skew(b)
    assert all(rows[i][j] == -rows[j][i]
               for i in range(3) for j in range(3))
    assert deform.axial(rows) == b
    for rows in ([[1, 0, 0], [0, 0, 0], [0, 0, 0]],
                 [[0, 1, 0], [1, 0, 0], [0, 0, 0]]):
        with pytest.raises(ValueError):
            deform.axial(rows)


def test_spec_refuses_a_b_that_is_not_three_constants():
    # A tuple + concatenates: (b1, b2, b3) + (c1, c2, c3) has six entries,
    # and skew would read the first three alone.
    b = triple(1, 2, 3)
    for wrong in (b + triple(4, 5, 6), b[:2], (CoordFunction.x(1), 0, 0)):
        with pytest.raises(ValueError):
            DeformationSpec(wrong, COORDINATE())


def test_spec_refuses_a_generator_that_is_not_three_entries():
    q = COORDINATE()
    for wrong in (q[:2], q + q[:1]):
        with pytest.raises(ValueError, match="the generator Q has 3 entries"):
            DeformationSpec(triple(1), wrong)


def test_skew_and_deform_coordinate_refuse_other_lengths():
    # Exactly three entries: not the first three of four, and not two.
    for wrong in (triple(1) + (CoordFunction.one(),), triple(1)[:2]):
        with pytest.raises(ValueError, match="3 entries"):
            skew(wrong)
        with pytest.raises(ValueError, match="3 entries"):
            deform_coordinate(wrong)


def test_deform_coordinate_reads_numbers_as_constants():
    assert deform_coordinate((F(5, 7), 0, 0)) == deform_coordinate(
        triple(F(5, 7)))


def test_invert_transverse_block_reads_numbers_as_constants():
    assert invert_transverse_block((2, 0, 0), 1) == invert_transverse_block(
        triple(2), 1) == triple(F(-1, 2))


def test_axial_round_trip():
    b = DeformationSpec((F(1, 2), -2, 3), COORDINATE()).b
    assert b[0] == CoordFunction.scalar(F(1, 2))
    assert b[1] == CoordFunction.scalar(-2)
    assert b[2] == CoordFunction.scalar(3)


def test_momentum_shift_matches_commutator_route():
    rng = random.Random(2)
    for q in (COORDINATE(), RADIAL(2), RADIAL(F(3, 2)), TRANSVERSE()):
        vals = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
        spec = DeformationSpec(triple(*vals), q)
        fast = momentum_shift(spec)
        slow = momentum_shift_via_commutators(spec)
        for a, b in zip(fast, slow):
            assert (a - b).is_zero()


def test_zero_matrix_is_identity_deformation():
    spec = DeformationSpec(triple(), RADIAL(1))
    a = parse("X1*P1*P2 + e^2/r")
    assert deform_operator(a, spec) == a


def test_coordinate_generator_constant_field():
    # Q = X, axial b along x1: P_2 -> P_2 - b x3, P_3 -> P_3 + b x2
    spec = DeformationSpec(triple(F(1, 3)), COORDINATE())
    s = momentum_shift(spec)
    assert s[0].is_structurally_zero()
    assert s[1] == CoordFunction.x(3).scale(F(-1, 3))
    assert s[2] == CoordFunction.x(2).scale(F(1, 3))


def test_transverse_generator_vortex_field():
    # Q = X/rho: shift is -(Bx)_j / rho^2
    b = F(2)
    spec = DeformationSpec(triple(b), TRANSVERSE())
    s = momentum_shift(spec)
    rho2 = CoordFunction.rho_power(-2)
    assert s[0].is_structurally_zero()
    assert (s[1] + (CoordFunction.x(3) * rho2).scale(b)).is_zero()
    assert (s[2] - (CoordFunction.x(2) * rho2).scale(b)).is_zero()


def test_radial_generator_shift():
    # Q = X/r^(3/2): shift is -(Bx)_j / r^3
    spec = DeformationSpec(triple(1), RADIAL(F(3, 2)))
    s = momentum_shift(spec)
    r3 = CoordFunction.r_power(-3)
    assert (s[1] + CoordFunction.x(3) * r3).is_zero()
    assert (s[2] - CoordFunction.x(2) * r3).is_zero()


def test_deform_free_hamiltonian_expands():
    spec = DeformationSpec(triple(F(1, 2)), COORDINATE())
    h = deform_operator(OperatorExpr.free_hamiltonian(), spec)
    s = momentum_shift(spec)
    expected = OperatorExpr.zero()
    for j in (1, 2, 3):
        f = OperatorExpr.momentum(j) + OperatorExpr.from_coord(s[j - 1])
        expected = expected + f * f
    expected = expected.scale(CoordFunction.constant("m", -1, F(1, 2)))
    assert h == expected


def test_coordinate_part_passes_through():
    spec = DeformationSpec(triple(1), COORDINATE())
    pot = parse("e^2/r")
    h = deform_operator(OperatorExpr.free_hamiltonian() + pot, spec)
    h0 = deform_operator(OperatorExpr.free_hamiltonian(), spec)
    assert h == h0 + pot


def test_degree_three_rejected():
    spec = DeformationSpec(triple(1), COORDINATE())
    with pytest.raises(UnsupportedDegreeError):
        deform_operator(parse("P1*P1*P1"), spec)


def test_deform_coordinate_examples():
    assert deform_coordinate(triple()) == (
        OperatorExpr.position(1), OperatorExpr.position(2),
        OperatorExpr.position(3))
    # theta_23 = t: X2 - t P3, X3 + t P2, X1 unchanged
    t = F(5, 7)
    theta = triple(t)  # axial along x1 puts t in the (2,3) slot
    x = deform_coordinate(theta)
    assert x[0] == OperatorExpr.position(1)
    assert x[1] == OperatorExpr.position(2) - OperatorExpr.momentum(3).scale(t)
    assert x[2] == OperatorExpr.position(3) + OperatorExpr.momentum(2).scale(t)


def test_rieffel_diagonal_sum_undeformed():
    for q in (COORDINATE(), RADIAL(2), TRANSVERSE()):
        spec = DeformationSpec(triple(F(1, 2), F(-1, 3), 1), q)
        total = OperatorExpr.zero()
        for k in (1, 2, 3):
            pk = OperatorExpr.momentum(k)
            total = total + rieffel_product(pk, pk, spec)
        assert total == parse("P1*P1 + P2*P2 + P3*P3")


def test_rieffel_coordinate_functions_undeformed():
    spec = DeformationSpec(triple(1), RADIAL(1))
    f = parse("X1*r^-1")
    g = parse("X2")
    assert rieffel_product(f, g, spec) == f * g


def test_rieffel_off_diagonal_constant_correction():
    # P2 x P3 with B_23 = b and Q = X: P2 P3 - i b
    b = F(3, 4)
    spec = DeformationSpec(triple(b), COORDINATE())
    got = rieffel_product(OperatorExpr.momentum(2), OperatorExpr.momentum(3),
                          spec)
    expected = parse("P2*P3") - OperatorExpr.scalar(QC(0, b))
    assert got == expected


def test_rieffel_rejects_quadratic_operands():
    spec = DeformationSpec(triple(1), COORDINATE())
    with pytest.raises(UnsupportedOperandError):
        rieffel_product(parse("P1*P1"), parse("P2"), spec)


def test_additivity_same_generator():
    rng = random.Random(9)
    h0 = OperatorExpr.free_hamiltonian()
    for q in (COORDINATE(), RADIAL(2), TRANSVERSE()):
        for _ in range(5):
            m1 = triple(*[F(rng.randint(-4, 4), rng.randint(1, 3))
                         for _ in range(3)])
            m2 = triple(*[F(rng.randint(-4, 4), rng.randint(1, 3))
                         for _ in range(3)])
            twice = deformed_twice(h0, DeformationSpec(m1, q),
                                   DeformationSpec(m2, q))
            summed = [b1 + b2 for b1, b2 in zip(m1, m2)]
            assert twice.equals(deform_operator(h0, DeformationSpec(summed, q)))


def test_additivity_zero_second_spec():
    h0 = OperatorExpr.free_hamiltonian()
    s1 = DeformationSpec(triple(1), COORDINATE())
    s2 = DeformationSpec(triple(), COORDINATE())
    assert deformed_twice(h0, s1, s2).equals(deform_operator(h0, s1))


def test_order_independence_different_generators():
    # Two different (commuting) generators: the two orders agree.
    h0 = OperatorExpr.free_hamiltonian()
    s1 = DeformationSpec(triple(F(1, 2)), COORDINATE())
    s2 = DeformationSpec(triple(F(2, 3)), RADIAL(F(3, 2)))
    assert deformed_twice(h0, s1, s2).equals(deformed_twice(h0, s2, s1))


def test_factorization_catalog():
    # deform(H0) = (1/2m) sum_j deform(P_j)^2.
    half_over_m = CoordFunction.constant("m", -1, F(1, 2))
    for spec in (DeformationSpec(triple(), COORDINATE()),
                 DeformationSpec(triple(F(1, 2)), COORDINATE()),
                 DeformationSpec(triple(2), TRANSVERSE())):
        squares = sum((deform_operator(OperatorExpr.momentum(j), spec).power(2)
                       for j in (1, 2, 3)), OperatorExpr.zero())
        assert deform_operator(OperatorExpr.free_hamiltonian(), spec).equals(
            squares.scale(half_over_m))


def test_invert_transverse_block():
    b = CoordFunction.constant("e", 1, F(1, 2))
    m = triple(b)
    inv = invert_transverse_block(m, 1)
    prod_entry = skew(m)[1][2] * skew(inv)[2][1]
    assert prod_entry == CoordFunction.one()
    with pytest.raises(ConfigError, match="cannot divide by zero"):
        invert_transverse_block(triple(), 1)
    with pytest.raises(ConfigError,
                       match="cannot divide by a multi-term expression"):
        invert_transverse_block(triple(b + CoordFunction.one()), 1)


def test_hermiticity_of_deformed_hamiltonian():
    for q in (COORDINATE(), RADIAL(F(3, 2)), TRANSVERSE()):
        spec = DeformationSpec(triple(F(1, 2), F(1, 3), F(-2)), q)
        h = deform_operator(OperatorExpr.free_hamiltonian(), spec)
        assert h.adjoint().equals(h)


def test_spec_carries_its_shift_and_deformed_momenta():
    spec = DeformationSpec(triple(F(1, 2), 1, -3), RADIAL(F(3, 2)))
    assert spec.shift == tuple(momentum_shift(spec))
    for j, (phat, s) in enumerate(zip(spec.momenta, spec.shift), start=1):
        assert phat == OperatorExpr.momentum(j) + OperatorExpr.from_coord(s)
        assert deform_operator(OperatorExpr.momentum(j), spec) == phat


@pytest.fixture
def shift_calls(monkeypatch):
    """The specs ``momentum_shift`` is called on, one entry per call; the
    list keeps each spec alive, so no two of them share an ``id``."""
    calls = []
    shift = deform.momentum_shift

    def counted(spec):
        calls.append(spec)
        return shift(spec)
    monkeypatch.setattr(deform, "momentum_shift", counted)
    return calls


def computed_once(calls):
    return len({id(spec) for spec in calls}) == len(calls)


def test_run_suite_computes_each_shift_once(shift_calls):
    assert run_suite()["all_pass"]
    assert computed_once(shift_calls)
    assert 0 < len(shift_calls) <= 45


def test_gauge_command_computes_one_shift_per_spec(shift_calls):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["gauge", "--model", "combined_lense_thirring"]) == 0
    assert len(shift_calls) == 2 and computed_once(shift_calls)


def test_get_preset_builds_fresh_specs():
    # Equal by value, as the benchmark's tracer counts distinct specs in a
    # set; the generator is a plain triple.
    first, second = (get_preset("landau").specs[0] for _ in range(2))
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert type(first.generator) is tuple and len(first.generator) == 3
    assert all(isinstance(q, CoordFunction) for q in first.generator)
    assert DeformationSpec(first.b, RADIAL(1)) != first


def test_importing_the_package_computes_no_shift():
    code = ("import warpconv.deform as d\n"
            "calls = []\n"
            "shift = d.momentum_shift\n"
            "d.momentum_shift = lambda s: calls.append(s) or shift(s)\n"
            "import warpconv.models, warpconv.gauge, warpconv.verify\n"
            "print(len(calls))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"

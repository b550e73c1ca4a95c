import random
from fractions import Fraction

import pytest

from conftest import rand_expr
from warpconv.coords import CoordFunction
from warpconv.errors import InternalInconsistencyError
from warpconv.operators import OperatorExpr, require_coordinate_only
from warpconv.parsing import parse
from warpconv.scalars import QC

F = Fraction
I = QC(0, F(1))


def op_x(j):
    return OperatorExpr.position(j)


def op_p(j):
    return OperatorExpr.momentum(j)


def test_p_times_x_normal_orders():
    got = op_p(1) * op_x(1)
    expected = op_x(1) * op_p(1) - OperatorExpr.scalar(I)
    assert got == expected


def test_identity_multiplication():
    a = parse("X1*P2 + 3*r^-1")
    assert OperatorExpr.identity() * a == a
    assert a * OperatorExpr.identity() == a


def test_momentum_past_radial_power():
    # P_j r^-n = r^-n P_j + i n x_j r^-(n+2), here with rational n too
    for n in (F(1), F(2), F(3), F(3, 2)):
        rn = OperatorExpr.from_coord(CoordFunction.r_power(-n))
        got = op_p(1) * rn
        corr = CoordFunction.term(QC(0, n), (1, 0, 0), -(n + 2), 0)
        expected = rn * op_p(1) + OperatorExpr.from_coord(corr)
        assert got == expected


def test_canonical_commutators():
    # [X_i, P_j] = i delta_ij, [X_i, X_j] = 0, [P_i, P_j] = 0, exactly
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            comm = op_x(i).commutator(op_p(j))
            if i == j:
                assert comm == OperatorExpr.scalar(I)
            else:
                assert comm.is_structurally_zero()
            assert op_x(i).commutator(op_x(j)).is_structurally_zero()
            assert op_p(i).commutator(op_p(j)).is_structurally_zero()


def test_commutator_momentum_with_radial_vector():
    # [P_j, x_k r^-n] = -i delta_jk r^-n + i n x_k x_j r^-(n+2)
    for n in (F(1), F(3, 2), F(2)):
        for j in (1, 2, 3):
            for k in (1, 2, 3):
                qk = CoordFunction.x(k) * CoordFunction.r_power(-n)
                got = op_p(j).commutator(OperatorExpr.from_coord(qk))
                expected = CoordFunction.zero()
                if j == k:
                    expected = expected + CoordFunction.r_power(-n).scale(-I)
                a = [0, 0, 0]
                a[k - 1] += 1
                a[j - 1] += 1
                expected = expected + CoordFunction.term(
                    QC(0, n), tuple(a), -(n + 2), 0)
                assert got == OperatorExpr.from_coord(expected)


def test_anticommutator_examples():
    a = parse("X1*P2")
    assert a.anticommutator(OperatorExpr.zero()).is_structurally_zero()
    # {X1, P1} = 2 X1 P1 - i
    got = op_x(1).anticommutator(op_p(1))
    assert got == (op_x(1) * op_p(1)).scale(2) - OperatorExpr.scalar(I)


def test_adjoint_examples():
    # adjoint(X1 P1) = P1 X1 = X1 P1 - i
    got = (op_x(1) * op_p(1)).adjoint()
    assert got == op_x(1) * op_p(1) - OperatorExpr.scalar(I)
    # adjoint(i P1) = -i P1
    ip = op_p(1).scale(I)
    assert ip.adjoint() == op_p(1).scale(-I)
    # free Hamiltonian is hermitian
    h0 = OperatorExpr.free_hamiltonian()
    assert h0.adjoint() == h0


def test_adjoint_involution_and_product_rule():
    rng = random.Random(11)
    for _ in range(60):
        a = rand_expr(rng)
        b = rand_expr(rng)
        assert a.adjoint().adjoint().equals(a)
        assert (a * b).adjoint().equals(b.adjoint() * a.adjoint())


def test_equals_oracle():
    h0 = OperatorExpr.free_hamiltonian()
    alt = parse("(P1*P1 + P2*P2 + P3*P3)/(2*m)")
    assert h0.equals(alt)
    assert not op_p(1).equals(op_p(2))
    f = OperatorExpr.from_coord(
        (CoordFunction.x(2, 2) + CoordFunction.x(3, 2))
        * CoordFunction.rho_power(-2))
    assert f.equals(OperatorExpr.identity())


def test_momentum_degree_and_parts():
    a = parse("X1*P1*P2 + e^2/r + P3")
    assert a.momentum_degree() == 2
    assert a.coordinate_part() == (CoordFunction.constant("e", 2)
                                   * CoordFunction.r_power(-1))


def test_str_round_trip_through_parser():
    rng = random.Random(3)
    for _ in range(40):
        a = rand_expr(rng)
        assert parse(str(a)) == a


def test_drop_degree():
    a = parse("Omega^2*X1*P1 + Omega*P2 + P3")
    t = a.truncate_to_linear(["Omega"])
    assert t == parse("Omega*P2 + P3")


def _capped(method, cap):
    """``method`` wrapped to count its calls and fail past ``cap`` of them."""
    calls = []

    def counted(*args):
        calls.append(None)
        assert len(calls) <= cap, f"more than {cap} calls"
        return method(*args)
    return counted, calls


def test_power_squares_and_multiplies(monkeypatch):
    counted, calls = _capped(OperatorExpr.__mul__, 42)
    monkeypatch.setattr(OperatorExpr, "__mul__", counted)
    assert op_x(1).power(10 ** 6) == OperatorExpr.position(1, 10 ** 6)
    assert len(calls) <= 42


@pytest.mark.parametrize("n", range(10))
def test_power_starts_from_the_first_base_it_takes(n, monkeypatch):
    # popcount(n) - 1 multiplies into the product and bit_length(n) - 1
    # squares; no product with the identity.
    expected = bin(n).count("1") + n.bit_length() - 2 if n else 0
    counted, calls = _capped(OperatorExpr.__mul__, expected)
    monkeypatch.setattr(OperatorExpr, "__mul__", counted)
    parse("X1 + P1").power(n)
    assert len(calls) == expected


def test_momentum_power_stops_at_the_first_zero_derivative(monkeypatch):
    # P1^k past the constant 1 needs one derivative, which is zero.
    counted, calls = _capped(CoordFunction.partial, 48)
    monkeypatch.setattr(CoordFunction, "partial", counted)
    assert op_p(1).power(2 ** 20) == OperatorExpr.momentum(1, 2 ** 20)
    assert len(calls) <= 48


def test_power_refuses_a_negative_exponent(monkeypatch):
    # The parser refuses X1^-1 before power sees it.  Without the refusal
    # the loop would not end (-1 >> 1 is -1); the cap fails it at once.
    counted, _ = _capped(OperatorExpr.__mul__, 0)
    monkeypatch.setattr(OperatorExpr, "__mul__", counted)
    with pytest.raises(ValueError, match="negative operator powers"):
        op_x(1).power(-1)


def test_require_coordinate_only_refuses_a_momentum_term():
    f = CoordFunction.x(2)
    assert require_coordinate_only(OperatorExpr.from_coord(f), "S") == f
    with pytest.raises(InternalInconsistencyError, match="S has a momentum"):
        require_coordinate_only(parse("X2 + X1*P3"), "S")


def test_power_equals_the_repeated_product():
    a = parse("X1 + P1 + r")
    product = OperatorExpr.identity()
    for n in range(10):
        assert a.power(n) == product
        product = product * a

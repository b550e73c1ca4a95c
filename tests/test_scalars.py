from fractions import Fraction

import pytest

from warpconv.coords import CoordFunction
from warpconv.scalars import QC, mono_degree, mono_inv, mono_make, mono_mul


def test_qc_arithmetic_exact():
    a = QC(Fraction(1, 3), Fraction(2))
    b = QC(Fraction(1, 6), Fraction(-1, 2))
    assert a + b == QC(Fraction(1, 2), Fraction(3, 2))
    assert a * b == QC(Fraction(1, 18) + 1, Fraction(-1, 6) + Fraction(1, 3))
    assert (a / b) * b == a
    assert a.conjugate().conjugate() == a
    assert (-a) + a == QC()


def test_qc_coerces_compares_and_hashes():
    a = QC(1, Fraction(-2, 4))
    assert (a.re, a.im) == (Fraction(1), Fraction(-1, 2))
    assert a == QC(Fraction(2, 2), Fraction(-1, 2)) and a != QC(1)
    assert a != (1, Fraction(-1, 2))
    assert hash(a) == hash((Fraction(1), Fraction(-1, 2)))
    assert {a: 1}[QC(1, Fraction(-1, 2))] == 1
    assert repr(QC(1)) == "QC(re=Fraction(1, 1), im=Fraction(0, 1))"


def test_qc_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        QC(Fraction(1)) / QC()


def test_mono_make_merges_and_sorts():
    m = mono_make([("m", 1), ("e", 2), ("m", -1)])
    assert m == (("e", 2),)
    assert mono_mul((("e", 1),), (("e", -1),)) == ()
    assert mono_inv((("e", 2), ("m", -1))) == (("e", -2), ("m", 1))


def test_mono_degree_restricted():
    m = (("G", 1), ("Omega", 2), ("m", -1))
    assert mono_degree(m, ["Omega"]) == 2
    assert mono_degree(m, ["G", "m"]) == 0


def test_str_forms():
    assert str(CoordFunction.zero()) == "0"
    assert str(CoordFunction.constant("e", 2)) == "e^2"
    assert str(QC(Fraction(0), Fraction(-1))) == "-i"

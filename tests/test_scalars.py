import pickle
from fractions import Fraction

import pytest

from free_stein.scalars import QQi


def test_arithmetic():
    a = QQi(Fraction(1, 2), Fraction(1, 3))
    b = QQi(2, -1)
    assert a + b == QQi(Fraction(5, 2), Fraction(-2, 3))
    assert a * b == QQi(Fraction(4, 3), Fraction(1, 6))
    assert -a == QQi(Fraction(-1, 2), Fraction(-1, 3))
    assert (a - a).is_zero


def test_division_and_conjugate():
    a = QQi(1, 1)
    assert a / a == QQi(1)
    assert a.conjugate() == QQi(1, -1)
    assert a * a.conjugate() == QQi(2)
    with pytest.raises(ZeroDivisionError):
        a / QQi(0)


def test_exact_float_coercion():
    assert QQi.of(0.5) == QQi(Fraction(1, 2))
    assert QQi.of(complex(0.25, -0.5)) == QQi(Fraction(1, 4), Fraction(-1, 2))
    assert complex(QQi(Fraction(3, 4), 1)) == 0.75 + 1j


def test_hash_and_immutability():
    assert hash(QQi(1, 2)) == hash(QQi(1, 2))
    with pytest.raises(AttributeError):
        QQi(1).re = Fraction(2)


def test_pickle_roundtrip():
    for q in (QQi(0), QQi(Fraction(1, 3), -2), QQi.of(0.1)):
        back = pickle.loads(pickle.dumps(q))
        assert back == q and (back.re, back.im) == (q.re, q.im)
        with pytest.raises(AttributeError):
            back.re = Fraction(2)

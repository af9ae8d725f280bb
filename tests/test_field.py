from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from relcell.field import (
    PrimeField,
    QQ,
    UnsupportedBinomial,
    binomial_mod,
    factorial_mod,
    field_to_str,
)

from reference import field_from_str, scalar_from_str

PRIMES = [2, 3, 5, 7, 11]


def test_inverse_examples():
    f3 = PrimeField(3)
    assert f3.inv(2) == 2
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    f5 = PrimeField(5)
    assert f5.mul(3, 4) == 2


def test_inv_zero_raises():
    with pytest.raises(ZeroDivisionError):
        PrimeField(5).inv(0)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))


def test_nonprime_rejected():
    for bad in (0, 1, 4, 9, 15):
        with pytest.raises(ValueError):
            PrimeField(bad)


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50), st.sampled_from(PRIMES))
def test_field_axioms_fp(a, b, c, p):
    f = PrimeField(p)
    x, y, z = f.from_int(a), f.from_int(b), f.from_int(c)
    assert f.add(x, y) == f.add(y, x)
    assert f.mul(x, y) == f.mul(y, x)
    assert f.add(f.add(x, y), z) == f.add(x, f.add(y, z))
    assert f.mul(f.mul(x, y), z) == f.mul(x, f.mul(y, z))
    assert f.mul(x, f.add(y, z)) == f.add(f.mul(x, y), f.mul(x, z))
    if x:
        assert f.mul(x, f.inv(x)) == f.one


@given(st.fractions(), st.fractions(), st.fractions())
def test_field_axioms_q(x, y, z):
    f = QQ
    assert f.add(x, y) == f.add(y, x)
    assert f.mul(x, f.add(y, z)) == f.add(f.mul(x, y), f.mul(x, z))
    if x:
        assert f.mul(x, f.inv(x)) == f.one


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_wilson(p):
    f = PrimeField(p)
    assert factorial_mod(p - 1, f) == p - 1


@pytest.mark.parametrize("p", [3, 5, 7])
def test_pascal(p):
    f = PrimeField(p)
    for top in range(p):
        for k in range(1, p):
            lhs = binomial_mod(top + 1, k, f)
            rhs = f.add(binomial_mod(top, k, f), binomial_mod(top, k - 1, f))
            assert lhs == rhs


def test_binomial_examples():
    assert binomial_mod(2, 1, PrimeField(3)) == 2
    assert binomial_mod(0, 0, PrimeField(5)) == 1
    # (-1)(-2)/2 = 1
    assert binomial_mod(-1, 2, PrimeField(5)) == 1


def test_binomial_matches_integer_binomial():
    import math

    f = PrimeField(7)
    for top in range(7):
        for k in range(7):
            assert binomial_mod(top, k, f) == math.comb(top, k) % 7


def test_binomial_k_ge_p_unsupported():
    with pytest.raises(UnsupportedBinomial):
        binomial_mod(1, 3, PrimeField(3))


def test_factorial_vanishes_beyond_p():
    assert factorial_mod(5, PrimeField(5)) == 0


def test_field_roundtrip():
    for f in (QQ, PrimeField(7)):
        assert field_from_str(field_to_str(f)) == f
    s = QQ.scalar_to_str(Fraction(-3, 7))
    assert scalar_from_str(QQ, s) == Fraction(-3, 7)


def test_integral_rationals_are_ints():
    assert type(QQ.zero) is int and type(QQ.one) is int
    assert type(QQ.from_int(-4)) is int
    assert type(QQ.mul(QQ.from_int(3), QQ.add(QQ.one, QQ.one))) is int
    assert QQ.inv(QQ.from_int(2)) == Fraction(1, 2)
    assert QQ.div(QQ.one, QQ.from_int(3)) == Fraction(1, 3)
    # an integral string reads back as an int, any other as a Fraction
    for text, want, kind in (("0", 0, int), ("-12", -12, int), ("4/2", 2, int), ("-3/7", Fraction(-3, 7), Fraction)):
        got = scalar_from_str(QQ, text)
        assert got == want and type(got) is kind
    # ints and Fractions of one value print the same bytes
    for x in (0, 1, -5, Fraction(-3, 7)):
        assert QQ.scalar_to_str(x) == QQ.scalar_to_str(Fraction(x)) == str(Fraction(x))
        assert QQ.scalar_to_str(scalar_from_str(QQ, QQ.scalar_to_str(x))) == QQ.scalar_to_str(x)

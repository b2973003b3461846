"""Tests for the exact cyclotomic scalar field."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hopfinv.scalars import (
    Cyc,
    InvalidOrderError,
    NotASquareError,
    OrderMismatchError,
    conjugate,
    norm_squared,
    q_half_power,
    root_of_unity,
    sqrt_in_field,
)


def rand_cyc(l: int, data) -> Cyc:
    coeffs = [Fraction(data.draw(st.integers(-9, 9)), data.draw(st.integers(1, 7))) for _ in range(l - 1)]
    acc = Cyc.zero(l)
    for k, c in enumerate(coeffs):
        acc = acc + root_of_unity(l, k).scale(c)
    return acc


def test_invalid_orders():
    for l in (1, 2, 4, 6, -3):
        with pytest.raises(InvalidOrderError):
            root_of_unity(l, 0)


def test_root_of_unity_basics():
    assert root_of_unity(3, 3) == Cyc.one(3)
    # zeta^2 = -1 - zeta mod Phi_3
    assert root_of_unity(3, 2) == Cyc(3, (-1, -1), 1)
    for l in (3, 5, 7):
        total = Cyc.zero(l)
        for k in range(l):
            total = total + root_of_unity(l, k)
        assert total.is_zero()


def test_field_arithmetic_examples():
    for l in (3, 5, 7):
        z = root_of_unity(l, 1)
        zinv = root_of_unity(l, l - 1)
        assert z * zinv == Cyc.one(l)
        assert Cyc.one(l) / z == zinv


def test_order_mismatch_and_zero_division():
    with pytest.raises(OrderMismatchError):
        Cyc.one(3) + Cyc.one(5)
    with pytest.raises(ZeroDivisionError):
        Cyc.zero(5).inverse()


def test_conjugate_examples():
    r = Cyc.from_fraction(7, Fraction(-22, 7))
    assert conjugate(r) == r
    assert conjugate(root_of_unity(5, 1)) == root_of_unity(5, 4)


def test_norm_squared_trivial():
    assert norm_squared(Cyc.zero(5)).is_zero()
    for l in (3, 5, 7):
        for k in range(l):
            assert norm_squared(root_of_unity(l, k)) == Cyc.one(l)


def test_gauss_sum_norm():
    # |sum_s q^(s^2)|^2 = l, oracle: brute-force expansion and reduction
    for l in (3, 5, 7):
        gauss = Cyc.zero(l)
        for s in range(l):
            gauss = gauss + root_of_unity(l, s * s)
        assert norm_squared(gauss) == Cyc.from_int(l, l)


def test_half_power_convention():
    for l in (3, 5, 7):
        h = q_half_power(l, 1)
        assert h * h == root_of_unity(l, 1)
        assert q_half_power(l, 2) == root_of_unity(l, 1)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_field_axioms_random(data):
    l = data.draw(st.sampled_from([3, 5]))
    a, b, c = (rand_cyc(l, data) for _ in range(3))
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == Cyc.zero(l)
    if not a.is_zero():
        assert a * a.inverse() == Cyc.one(l)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_conjugate_is_ring_hom_and_involution(data):
    l = data.draw(st.sampled_from([3, 5]))
    a, b = rand_cyc(l, data), rand_cyc(l, data)
    assert conjugate(a * b) == conjugate(a) * conjugate(b)
    assert conjugate(a + b) == conjugate(a) + conjugate(b)
    assert conjugate(conjugate(a)) == a
    assert norm_squared(a) == norm_squared(conjugate(a))


def test_powers_and_scale():
    z = root_of_unity(7, 1)
    assert z**7 == Cyc.one(7)
    assert z**-1 == z.conjugate()
    assert z.scale(Fraction(3, 2)).scale(Fraction(2, 3)) == z


def test_sqrt_in_field():
    for l in (3, 5, 7):
        z = root_of_unity(l, 1)
        for k in range(l):
            s = sqrt_in_field(root_of_unity(l, k))
            assert s * s == root_of_unity(l, k)
        # Gauss sum squares to +-l, so +-l has a square root in the field
        gauss = Cyc.zero(l)
        for s0 in range(l):
            gauss = gauss + root_of_unity(l, s0 * s0)
        target = gauss * gauss
        s = sqrt_in_field(target)
        assert s * s == target
        assert s in (gauss, -gauss)
    with pytest.raises(NotASquareError):
        sqrt_in_field(Cyc.from_int(3, -1))


def test_json_round_trip():
    a = Cyc(5, (1, -2, 0, 7), 6)
    assert Cyc.from_json(a.to_json()) == a
    assert a.to_json()["l"] == 5


def test_decimal_str_runs():
    s = root_of_unity(3, 1).decimal_str(20)
    assert "i" in s

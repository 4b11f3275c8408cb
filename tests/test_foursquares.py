import random
from fractions import Fraction

import pytest

from ratsos import foursquares
from ratsos.errors import CheckFailed, NonPositive
from ratsos.foursquares import four_squares, four_squares_int


def test_examples():
    assert four_squares(1) == (1, 0, 0, 0)
    assert four_squares(7) == (2, 1, 1, 1)
    assert four_squares(Fraction(3, 2)) == (1, Fraction(1, 2), Fraction(1, 2), 0)


def test_non_positive():
    with pytest.raises(NonPositive):
        four_squares(0)
    with pytest.raises(NonPositive):
        four_squares(Fraction(-1, 2))


def test_failed_descent_raises(monkeypatch):
    monkeypatch.setattr(foursquares, "_descent", lambda n, parts, bound: None)
    with pytest.raises(CheckFailed, match="no decomposition of 7"):
        four_squares_int(7)


def test_integer_descent_small():
    for n in range(0, 200):
        parts = four_squares_int(n)
        assert sum(v * v for v in parts) == n
        assert list(parts) == sorted(parts, reverse=True)


def test_integer_descent_awkward_cases():
    # 4^k(8m+7) numbers genuinely need four squares
    for n in (7, 15, 28, 112, 2**10 * 7, 8 * 123456 + 7):
        parts = four_squares_int(n)
        assert sum(v * v for v in parts) == n
        assert parts[3] > 0


def test_random_rationals_spec_scale():
    rng = random.Random(23)
    for _ in range(100):
        r = Fraction(rng.randint(1, 10**6 - 1), rng.randint(1, 10**6 - 1))
        a, b, c, d = four_squares(r)
        assert a * a + b * b + c * c + d * d == r


from hypothesis import given, strategies as st


@given(
    num=st.integers(min_value=1, max_value=10**6 - 1),
    den=st.integers(min_value=1, max_value=10**6 - 1),
)
def test_four_squares_identity_hypothesis(num, den):
    r = Fraction(num, den)
    a, b, c, d = four_squares(r)
    assert a * a + b * b + c * c + d * d == r
    assert a >= b >= c >= d >= 0

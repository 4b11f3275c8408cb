import random
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ratsos.errors import ZeroPolynomial
from ratsos.poly import UniPoly, primitive_vector
from ratsos.sturm import (
    _simple_roots_mod_prime,
    count_real_roots,
    isolate_real_roots,
    rational_roots,
    refine_interval,
    root_bound,
    sturm_chain,
)


def U(s):
    return UniPoly.parse(s)


def test_known_counts():
    assert count_real_roots(U("t^2+1")) == 0
    assert count_real_roots(U("t^4+t+1")) == 0
    assert count_real_roots(U("t^4-t-1")) == 2
    assert count_real_roots(U("t^3 - t")) == 3
    assert count_real_roots(U("t^2 - 2*t + 1")) == 1  # double root counted once
    assert count_real_roots(U("5")) == 0
    with pytest.raises(ZeroPolynomial):
        count_real_roots(UniPoly())


def test_isolation_basic():
    p = U("t^3 - t")  # roots -1, 0, 1
    ivs = isolate_real_roots(p)
    assert len(ivs) == 3
    for (a, b), root in zip(ivs, (-1, 0, 1)):
        assert a < root <= b
    # restricted window
    assert len(isolate_real_roots(p, lo=Fraction(1, 2), hi=Fraction(10))) == 1


def test_refine_interval():
    p = U("t^2 - 2")
    (iv,) = isolate_real_roots(p, lo=Fraction(0), hi=Fraction(2))
    a, b = refine_interval(p, iv, Fraction(1, 10**6))
    if a != b:
        assert b - a <= Fraction(1, 10**6)
    assert float(a) == pytest.approx(2**0.5, abs=1e-5)


def test_refine_hits_exact_rational_root():
    p = U("t^2 - 4")
    (iv,) = isolate_real_roots(p, lo=Fraction(0), hi=Fraction(5))
    a, b = refine_interval(p, iv, Fraction(1, 2**40))
    assert (a, b) == (2, 2) or (a < 2 <= b)


def test_rational_roots():
    assert rational_roots(U("t^2 - 4")) == [-2, 2]
    assert rational_roots(U("t^3 - 4*t - 1")) == []
    assert rational_roots(U("2*t^2 - t")) == [0, Fraction(1, 2)]
    assert rational_roots(U("t^3 - 8*t")) == [0]
    assert Fraction(-1, 3) in rational_roots(U("3*t^2 - 2*t - 1"))


def divisors_of(n: int) -> list[int]:
    small = [d for d in range(1, isqrt(abs(n)) + 1) if n % d == 0]
    return small + [abs(n) // d for d in small]


def _divisor_oracle(p: UniPoly) -> list[Fraction]:
    """Rational root theorem by brute force: try every +-a/b with a | a0 and b | an."""
    coeffs = [int(c) for c in primitive_vector(p.coeffs)]
    roots = {Fraction(0)} if coeffs[0] == 0 else set()
    while coeffs[0] == 0:
        coeffs.pop(0)
    for a in divisors_of(coeffs[0]):
        for b in divisors_of(coeffs[-1]):
            roots.update(r for r in (Fraction(a, b), Fraction(-a, b)) if p(r) == 0)
    return sorted(roots)


small_roots = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(-30, 30), min_size=1, max_size=6).filter(lambda cs: cs[-1] != 0),
    st.lists(small_roots, max_size=4),
    st.integers(0, 2),
)
def test_rational_roots_match_divisor_oracle(cofactor, planted, zero_roots):
    p = UniPoly(cofactor) * UniPoly([0, 1]) ** zero_roots
    for r in planted:  # repeats make p non-squarefree
        p = p * UniPoly([-r, 1])
    roots = rational_roots(p)
    assert roots == _divisor_oracle(p)
    assert set(planted) <= set(roots)


def test_rational_roots_planted_in_large_coefficients():
    rng = random.Random(43)
    for _ in range(25):
        planted = [
            Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**12)) for _ in range(rng.randint(1, 4))
        ]
        # t^4 + t + big > 0 everywhere, and t^2 + big2 > 0: no rational roots
        big, big2 = rng.randint(10**30, 10**31), rng.randint(10**30, 10**31)
        p = UniPoly([big, 1, 0, 0, 1]) * UniPoly([big2, 0, 1]) * rng.randint(2, 10**6)
        for r in planted + planted[:1]:  # one planted root twice
            p = p * UniPoly([-r.numerator, r.denominator])
        assert max(len(str(abs(int(c)))) for c in p.coeffs) >= 30
        assert rational_roots(p) == sorted(set(planted))


def test_no_root_mod_p_proves_no_rational_root():
    big = 2 * 10**40 + 1  # odd: t^2 + t + big has no root mod 2
    assert _simple_roots_mod_prime([big, 1, 1], [1, 2]) == (2, [])
    assert rational_roots(UniPoly([big, 1, 1])) == []
    # a 41-digit root is lifted from its residue mod the first good prime
    root = 10**40 + 7
    assert rational_roots(UniPoly([-root, 1]) * UniPoly([big, 1, 1])) == [root]


def _oracle_real_root_count(p: UniPoly) -> int:
    """Interval-bisection oracle: exact sign changes on a numpy-guided grid."""
    q = p.squarefree_part()
    if q.degree() == 0:
        return 0
    coeffs = [float(c) for c in reversed(q.coeffs)]
    roots = np.roots(coeffs)
    sep = 1.0
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            d = abs(roots[i] - roots[j])
            if d > 1e-12:
                sep = min(sep, d)
    m = root_bound(q) + 1
    step = Fraction(min(sep / 4, 0.5)).limit_denominator(10**9)
    count = 0
    x = -m
    prev_sign = None
    while x <= m:
        v = q(x)
        if v == 0:
            count += 1
            prev_sign = None
        else:
            s = 1 if v > 0 else -1
            if prev_sign is not None and s != prev_sign:
                count += 1
            prev_sign = s
        x += step
    return count


def test_sturm_vs_bisection_oracle_200():
    rng = random.Random(31)
    for _ in range(200):
        deg = rng.randint(1, 8)
        coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [rng.randint(1, 9)]
        p = UniPoly(coeffs)
        assert count_real_roots(p) == _oracle_real_root_count(p)


def test_isolation_intervals_are_isolating():
    rng = random.Random(37)
    for _ in range(40):
        deg = rng.randint(1, 6)
        coeffs = [rng.randint(-6, 6) for _ in range(deg)] + [rng.randint(1, 6)]
        p = UniPoly(coeffs)
        ivs = isolate_real_roots(p)
        assert len(ivs) == count_real_roots(p)
        chain = sturm_chain(p)
        from ratsos.sturm import count_roots_in

        for a, b in ivs:
            assert count_roots_in(chain, a, b) == 1
        for (a1, b1), (a2, b2) in zip(ivs, ivs[1:]):
            assert b1 <= a2

import random
from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ratsos.errors import ZeroPolynomial
from ratsos.poly import UniPoly, primitive_vector
from ratsos.sturm import (
    _simple_roots_mod_prime,
    count_real_roots,
    count_roots_in,
    isolate_real_roots,
    rational_roots,
    refine_interval,
    root_bound,
    sturm_chain,
)


def U(s):
    return UniPoly.parse(s)


def test_known_counts():
    assert count_real_roots(sturm_chain(U("t^2+1"))) == 0
    assert count_real_roots(sturm_chain(U("t^4+t+1"))) == 0
    assert count_real_roots(sturm_chain(U("t^4-t-1"))) == 2
    assert count_real_roots(sturm_chain(U("t^3 - t"))) == 3
    assert count_real_roots(sturm_chain(U("t^2 - 2*t + 1"))) == 1  # double root counted once
    assert count_real_roots(sturm_chain(U("5"))) == 0
    with pytest.raises(ZeroPolynomial):
        sturm_chain(UniPoly())


def test_isolation_basic():
    p = U("t^3 - t")  # roots -1, 0, 1
    ivs = isolate_real_roots(sturm_chain(p))
    assert len(ivs) == 3
    for (a, b), root in zip(ivs, (-1, 0, 1)):
        assert a < root <= b
    # restricted window
    assert len(isolate_real_roots(sturm_chain(p), lo=Fraction(1, 2), hi=Fraction(10))) == 1


def test_refine_interval():
    chain = sturm_chain(U("t^2 - 2"))
    (iv,) = isolate_real_roots(chain, lo=Fraction(0), hi=Fraction(2))
    a, b = refine_interval(chain, iv, Fraction(1, 10**6))
    if a != b:
        assert b - a <= Fraction(1, 10**6)
    assert float(a) == pytest.approx(2**0.5, abs=1e-5)


def test_refine_hits_exact_rational_root():
    chain = sturm_chain(U("t^2 - 4"))
    (iv,) = isolate_real_roots(chain, lo=Fraction(0), hi=Fraction(5))
    a, b = refine_interval(chain, iv, Fraction(1, 2**40))
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
    # the squarefree part a caller's Sturm chain holds gives the same roots
    assert rational_roots(p, sturm_chain(p)) == roots


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
        assert rational_roots(p) == rational_roots(p, sturm_chain(p)) == sorted(set(planted))


def test_no_root_mod_p_proves_no_rational_root():
    big = 2 * 10**40 + 1  # odd: t^2 + t + big has no root mod 2
    assert _simple_roots_mod_prime([big, 1, 1], [1, 2]) == (2, [])
    assert rational_roots(UniPoly([big, 1, 1])) == []
    # a 41-digit root is lifted from its residue mod the first good prime
    root = 10**40 + 7
    assert rational_roots(UniPoly([-root, 1]) * UniPoly([big, 1, 1])) == [root]


def _refine_by_counting(p: UniPoly, interval, width):
    """Reference bisection: one Sturm count per halving decides the half."""
    a, b = interval
    if a == b:
        return interval
    chain = sturm_chain(p)
    if count_roots_in(chain, a, b) != 1:
        raise ValueError("not an isolating interval")
    while b - a > width:
        mid = (a + b) / 2
        if chain[0](mid) == 0:
            return (mid, mid)
        if count_roots_in(chain, a, mid) == 1:
            b = mid
        else:
            a = mid
    return (a, b)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(small_roots, min_size=1, max_size=4, unique=True),
    st.integers(2, 12),
    st.booleans(),
    st.integers(0, 40),
)
def test_refine_interval_matches_counting_oracle(planted, square, repeat, bits):
    # rational roots, +-sqrt(square) (irrational unless a square), and maybe a repeated factor
    p = UniPoly([-square, 0, 1])
    for r in planted + planted[:1] * repeat:
        p = p * UniPoly([-r, 1])
    chain = sturm_chain(p)
    candidates = list(isolate_real_roots(chain))
    for r in planted:
        # right end a rational root; left end a root of another factor or a nearby point
        candidates += [(s, r) for s in planted if s < r]
        candidates += [(r - Fraction(1, 7), r), (r, r + Fraction(1, 7))]
    width = Fraction(1, 2**bits)
    isolating = [iv for iv in candidates if count_roots_in(chain, *iv) == 1]
    assert isolating
    for iv in isolating:
        assert refine_interval(chain, iv, width) == _refine_by_counting(p, iv, width)


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
        assert count_real_roots(sturm_chain(p)) == _oracle_real_root_count(p)


def test_isolation_intervals_are_isolating():
    rng = random.Random(37)
    for _ in range(40):
        deg = rng.randint(1, 6)
        coeffs = [rng.randint(-6, 6) for _ in range(deg)] + [rng.randint(1, 6)]
        p = UniPoly(coeffs)
        chain = sturm_chain(p)
        ivs = isolate_real_roots(chain)
        assert len(ivs) == count_real_roots(chain)
        for a, b in ivs:
            assert count_roots_in(chain, a, b) == 1
        for (a1, b1), (a2, b2) in zip(ivs, ivs[1:]):
            assert b1 <= a2


def _euclid_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Oracle: monic gcd by Euclid over the rationals."""
    while b:
        a, b = b, a % b
    return a.monic() if a else a


def _classical_chain(p: UniPoly) -> list[UniPoly]:
    """Oracle: q, q', -rem, ... for the squarefree part q = p / gcd(p, p'), over the rationals."""
    q = p // _euclid_gcd(p, p.derivative())
    chain = [q, q.derivative()]
    while chain[-1]:
        chain.append(-(chain[-2] % chain[-1]))
    return [t for t in chain if t]


small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.lists(small_fractions, min_size=2, max_size=3).filter(lambda cs: cs[-1] != 0), st.integers(1, 3)),
        min_size=1,
        max_size=4,
    ),
    small_fractions.filter(bool),
    st.lists(small_fractions, max_size=4),
)
def test_chain_counts_match_the_classical_chain(factors, scale, points):
    # repeated factors with Fraction coefficients; endpoints include the rational roots
    p = UniPoly([scale])
    for coeffs, mult in factors:
        p = p * UniPoly(coeffs) ** mult
    ends = sorted(set(points) | {-c[0] / c[1] for c, _ in factors if len(c) == 2})
    chain, oracle = sturm_chain(p), _classical_chain(p)
    ratio = oracle[0].lead() / chain[0].lead()
    assert ratio > 0 and chain[0] * ratio == oracle[0]  # the squarefree part, up to a positive constant
    assert count_real_roots(chain) == count_real_roots(oracle)
    for a, b in combinations(ends, 2):
        assert count_roots_in(chain, a, b) == count_roots_in(oracle, a, b)
    for other in (p.derivative(), UniPoly(factors[0][0]) * UniPoly(points + [1]), UniPoly()):
        assert p.gcd(other) == _euclid_gcd(p, other)
        assert other.gcd(p) == _euclid_gcd(other, p)


def test_remainder_sequence_terms_are_positive_primitive_multiples():
    p = U("-3/2*t^4 + 5/3*t^2 - 1/7")
    seq = p.remainder_sequence(p.derivative())
    assert seq[:2] == [U("-63*t^4 + 70*t^2 - 6"), U("-9*t^3 + 5*t")]
    for k, term in enumerate(seq):
        assert all(c.denominator == 1 for c in term.coeffs)
        assert gcd(*(int(c) for c in term.coeffs)) == 1
        if k >= 2:
            rem = -(seq[k - 2] % seq[k - 1])
            ratio = rem.lead() / term.lead()
            assert ratio > 0 and term * ratio == rem
    assert seq[-1].degree() == 0
    assert p.remainder_sequence(UniPoly()) == seq[:1]
    assert UniPoly().remainder_sequence(UniPoly()) == [UniPoly()]
    assert sturm_chain(U("-5")) == [U("-1")]

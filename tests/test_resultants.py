import random
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from ratsos import gram, resultants
from ratsos.cli import _parse_gram_file
from ratsos.errors import CheckFailed, DimensionMismatch, ZeroPolynomial
from ratsos.poly import Poly, UniPoly
from ratsos.resultants import (
    det_rational,
    det_ring,
    discriminant,
    pencil_det,
    resultant,
    resultant_rational,
)

GOLDEN = Path(__file__).parent / "data" / "golden"

x1 = Poly.variable(1, 3)
x2 = Poly.variable(2, 3)
x3 = Poly.variable(3, 3)
one = Poly.constant(3, 1)


def test_det_ring_rational():
    assert det_ring([[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]], Fraction(0)) == -2
    assert det_ring([[Fraction(2)]], Fraction(0)) == 2


def test_gaussian_integer_norm():
    # Res_t(t^2+1, x1 + t*x2) = x1^2 + x2^2
    r = resultant([one, Poly.zero(3), one], [x1, x2])
    assert r == x1**2 + x2**2


def test_canonical_quadratic_norm():
    # Res_t(t^2+1, x1 + t*x2 + t^2*x3) expanded by hand over t = +-i:
    # (x1 - x3 + i x2)(x1 - x3 - i x2) = (x1 - x3)^2 + x2^2
    r = resultant([one, Poly.zero(3), one], [x1, x2, x3])
    assert r == (x1 - x3) ** 2 + x2**2


def test_constant_second_argument():
    # Res_t(m, c) = c^deg(m)
    m = [one, one, Poly.zero(3), Poly.zero(3), one]  # t^4 + t + 1
    c = Poly.constant(3, Fraction(5, 3))
    assert resultant(m, [c]) == Poly.constant(3, Fraction(5, 3) ** 4)


def test_zero_polynomial_rejected():
    with pytest.raises(ZeroPolynomial):
        resultant([], [x1])
    with pytest.raises(ZeroPolynomial):
        resultant([one], [Poly.zero(3)])


def test_swap_sign_property():
    rng = random.Random(41)
    for _ in range(25):
        da = rng.randint(1, 3)
        db = rng.randint(1, 3)

        def rand_coeffs(d):
            cs = []
            for _ in range(d + 1):
                terms = {}
                for _ in range(rng.randint(0, 2)):
                    exp = tuple(rng.randint(0, 1) for _ in range(3))
                    terms[exp] = Fraction(rng.randint(-3, 3))
                cs.append(Poly(3, terms))
            if not cs[-1]:
                cs[-1] = Poly.constant(3, rng.randint(1, 3))
            return cs

        a = rand_coeffs(da)
        b = rand_coeffs(db)
        rab = resultant(a, b)
        rba = resultant(b, a)
        sign = -1 if (da * db) % 2 else 1
        assert rab == sign * rba


def test_quartic_norm_vs_numeric_product():
    # Res_t(t^4+t+1, x1 + t x2 + t^2 x3): cross-check against the numeric
    # product of the four conjugate linear forms at 256 bits.
    m = [one, one, Poly.zero(3), Poly.zero(3), one]
    f = resultant(m, [x1, x2, x3])
    assert f.is_homogeneous() and f.degree() == 4
    with mpmath.workprec(256):
        roots = mpmath.polyroots([1, 0, 0, 1, 1], maxsteps=200, extraprec=128)
        prod_terms = {(0, 0, 0): mpmath.mpc(1)}
        for alpha in roots:
            lin = {(1, 0, 0): mpmath.mpc(1), (0, 1, 0): alpha, (0, 0, 1): alpha**2}
            new = {}
            for e1, c1 in prod_terms.items():
                for e2, c2 in lin.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    new[e] = new.get(e, mpmath.mpc(0)) + c1 * c2
            prod_terms = new
        residual = mpmath.mpf(0)
        for e in set(prod_terms) | set(f.terms):
            approx = prod_terms.get(e, mpmath.mpc(0))
            exact = complex(f.coefficient(e))
            residual = max(residual, abs(approx - exact))
        assert residual < mpmath.mpf(10) ** -20


def test_resultant_rational_and_discriminant():
    # disc(t^4 + t + 1) = 229; quadratic discriminant sanity on randoms.
    assert discriminant(UniPoly.parse("t^4+t+1")) == 229
    assert discriminant(UniPoly.parse("t^2+1")) == -4
    rng = random.Random(43)
    for _ in range(20):
        p = Fraction(rng.randint(-6, 6))
        q = Fraction(rng.randint(-6, 6))
        m = UniPoly([q, p, Fraction(1)])
        assert discriminant(m) == p * p - 4 * q
    r = resultant_rational(UniPoly.parse("t^2-1"), UniPoly.parse("t-2"))
    assert r == 3  # (2^2 - 1) with monic first argument


def _random_matrix(rng: random.Random, n: int) -> list[list[Fraction]]:
    return [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]


def test_det_rational_against_det_ring():
    assert det_rational([[0, 1], [1, 0]]) == -1  # needs a row swap
    assert det_rational([[1, 2], [2, 4]]) == 0
    assert det_rational([[Fraction(1, 2), 0], [0, Fraction(2, 3)]]) == Fraction(1, 3)
    rng = random.Random(3)
    for _ in range(30):
        rows = _random_matrix(rng, rng.randint(1, 6))
        if rng.random() < 0.3:
            rows[-1] = list(rows[0])  # singular
        assert det_rational(rows) == det_ring(rows, Fraction(0))


def test_pencil_det_against_det_ring():
    rng = random.Random(5)
    for _ in range(25):
        n, k = rng.randint(1, 4), rng.randint(1, 3)
        mats = [_random_matrix(rng, n) for _ in range(k)]
        if rng.random() < 0.3:
            mats[0] = [[Fraction(0)] * n for _ in range(n)]  # x1 drops out of some terms
        xs = [Poly.variable(j + 1, k) for j in range(k)]
        entries = [[sum((x * a[i][c] for x, a in zip(xs, mats)), Poly.zero(k)) for c in range(n)] for i in range(n)]
        f = pencil_det(mats)
        assert f == det_ring(entries, Poly.zero(k))
        assert not f or (f.is_homogeneous() and f.degree() == n)


def test_pencil_det_rejects_mismatched_shapes():
    with pytest.raises(DimensionMismatch):
        pencil_det([])
    with pytest.raises(DimensionMismatch):
        pencil_det([[[1, 2]]])
    with pytest.raises(DimensionMismatch):
        pencil_det([[[1]], [[1, 0], [0, 1]]])


def test_pencil_det_values_of_too_high_degree_raise(monkeypatch):
    # squared 1x1 "determinants" (y2 + y3)^2 interpolate to y2 + 2 y2 y3 + y3 on {0, 1}^2
    monkeypatch.setattr(resultants, "_bareiss_det", lambda m: m[0][0] ** 2)
    with pytest.raises(CheckFailed, match="above degree 1"):
        pencil_det([[[0]], [[1]], [[1]]])


def test_shrink_pencil_10x10_matches_det_ring(monkeypatch):
    g1, g2 = (_parse_gram_file((GOLDEN / f"shrink-rational-{k}.txt").read_text()) for k in ("g1", "g2"))
    seen = []
    true_rational_roots = gram.rational_roots
    monkeypatch.setattr(gram, "rational_roots", lambda p: seen.append(p) or true_rational_roots(p))
    assert gram.shrink_span(g1, g2).s_exact == Fraction(5, 3)
    # both points are positive definite, so the pencil is the full 10x10 line
    q1, q2 = g1.matrix.to_lists(), g2.matrix.to_lists()
    entries = [[UniPoly([q1[i][j], q2[i][j] - q1[i][j]]) for j in range(10)] for i in range(10)]
    assert seen == [det_ring(entries, UniPoly())]
    assert seen[0].degree() == 10

"""Sturm chains: exact real-root counting and isolation for UniPoly.

Used to decide "totally imaginary" (zero real roots), to isolate boundary
parameters in span shrinking, and to find rational roots exactly.
"""

from fractions import Fraction

from .errors import ZeroPolynomial
from .poly import UniPoly, primitive_vector


def sturm_chain(p: UniPoly) -> list[UniPoly]:
    """Sturm sequence of the squarefree part of ``p``."""
    if not p:
        raise ZeroPolynomial("Sturm chain of the zero polynomial")
    q = p.squarefree_part()
    chain = [q, q.derivative()]
    while chain[-1]:
        nxt = -(chain[-2] % chain[-1])
        if not nxt:
            break
        chain.append(nxt)
    return chain


def _variations(signs: list[int]) -> int:
    nz = [s for s in signs if s]
    return sum(1 for a, b in zip(nz, nz[1:]) if a != b)


def _sign_at(p: UniPoly, x: Fraction) -> int:
    v = p(x)
    return (v > 0) - (v < 0)


def _sign_at_inf(p: UniPoly, positive: bool) -> int:
    if not p:
        return 0
    lead = p.lead()
    s = (lead > 0) - (lead < 0)
    if not positive and p.degree() % 2 == 1:
        s = -s
    return s


def count_real_roots(p: UniPoly) -> int:
    """Number of distinct real roots of ``p`` (multiplicities ignored)."""
    if not p:
        raise ZeroPolynomial("zero polynomial has every point as a root")
    if p.degree() == 0:
        return 0
    chain = sturm_chain(p)
    at_minus = _variations([_sign_at_inf(q, positive=False) for q in chain])
    at_plus = _variations([_sign_at_inf(q, positive=True) for q in chain])
    return at_minus - at_plus


def count_roots_in(chain: list[UniPoly], a: Fraction, b: Fraction) -> int:
    """Distinct roots in the half-open interval (a, b]; requires a < b."""
    if not a < b:
        raise ValueError("need a < b")
    va = _variations([_sign_at(q, a) for q in chain])
    vb = _variations([_sign_at(q, b) for q in chain])
    return va - vb


def root_bound(p: UniPoly) -> Fraction:
    """Cauchy bound M: every real root of ``p`` lies in [-M, M]."""
    if not p:
        raise ZeroPolynomial("zero polynomial")
    if p.degree() == 0:
        return Fraction(1)
    lead = abs(p.lead())
    return 1 + max(abs(c) for c in p.coeffs[:-1]) / lead


def isolate_real_roots(
    p: UniPoly, lo: Fraction | None = None, hi: Fraction | None = None
) -> list[tuple[Fraction, Fraction]]:
    """Disjoint half-open intervals (a, b], each containing exactly one real root.

    Restricted to ``(lo, hi]`` when bounds are given; intervals come back
    sorted.  Split points are chosen off the root set, so the half-open
    counting stays consistent.
    """
    if not p:
        raise ZeroPolynomial("zero polynomial")
    q = p.squarefree_part()
    if q.degree() == 0:
        return []
    bound = root_bound(q)
    a = lo if lo is not None else -bound - 1
    b = hi if hi is not None else bound + 1
    if not a < b:
        return []
    chain = sturm_chain(q)
    out: list[tuple[Fraction, Fraction]] = []
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        k = count_roots_in(chain, x, y)
        if k == 0:
            continue
        if k == 1:
            out.append((x, y))
            continue
        mid = (x + y) / 2
        shift = (y - x) / 4
        while q(mid) == 0:
            mid += shift
            shift /= 2
        stack.append((x, mid))
        stack.append((mid, y))
    return sorted(out)


def refine_interval(
    p: UniPoly, interval: tuple[Fraction, Fraction], width: Fraction
) -> tuple[Fraction, Fraction]:
    """Bisect an isolating interval (a, b] of ``p`` until it is narrower than ``width``."""
    a, b = interval
    if a == b:
        return interval
    q = p.squarefree_part()
    chain = sturm_chain(q)
    if count_roots_in(chain, a, b) != 1:
        raise ValueError("not an isolating interval")
    while b - a > width:
        mid = (a + b) / 2
        if q(mid) == 0:
            return (mid, mid)
        if count_roots_in(chain, a, mid) == 1:
            b = mid
        else:
            a = mid
    return (a, b)


def _divisors(n: int, cap: int = 10**7) -> list[int]:
    n = abs(n)
    if n == 0:
        return []
    small, large = [], []
    d = 1
    steps = 0
    while d * d <= n:
        steps += 1
        if steps > cap:
            raise ValueError("divisor enumeration too large for desk-scale search")
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def rational_roots(p: UniPoly) -> list[Fraction]:
    """All rational roots of ``p``, ascending (via the rational root theorem)."""
    if not p:
        raise ZeroPolynomial("zero polynomial")
    coeffs = [int(c) for c in primitive_vector(p.coeffs)]  # roots ignore the sign
    roots: list[Fraction] = []
    # strip zero roots
    shift = 0
    while coeffs and coeffs[0] == 0:
        coeffs = coeffs[1:]
        shift += 1
    if shift:
        roots.append(Fraction(0))
    if len(coeffs) <= 1:
        return sorted(roots)
    a0, an = coeffs[0], coeffs[-1]
    q = UniPoly(coeffs)
    for num in _divisors(a0):
        for den in _divisors(an):
            for cand in (Fraction(num, den), Fraction(-num, den)):
                if cand not in roots and q(cand) == 0:
                    roots.append(cand)
    return sorted(roots)

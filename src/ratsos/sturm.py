"""Exact real roots of UniPoly: Sturm chains and p-adic rational roots.

Sturm chains count and isolate real roots; they decide "totally imaginary"
(zero real roots) and isolate boundary parameters in span shrinking.
Rational roots (quartic Galois groups, rational boundary parameters) are
found by Hensel lifting of the roots modulo one prime, in time polynomial
in the degree and the coefficient bit size.
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
    chain = sturm_chain(p)
    q = chain[0]
    if q.degree() == 0:
        return []
    bound = root_bound(q)
    a = lo if lo is not None else -bound - 1
    b = hi if hi is not None else bound + 1
    if not a < b:
        return []
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
    """Bisect an isolating interval (a, b] of ``p`` until it is narrower than ``width``.

    One Sturm count checks that (a, b] holds exactly one root r.  The
    squarefree part q changes sign at its simple root r and nowhere else in
    (a, b], so q has the sign of q(b) on (r, b] and the opposite sign on
    (a, r): the sign of q at the midpoint picks the half holding r.  When
    q(b) = 0 the root is b and every midpoint falls left of it.  A midpoint
    that is the root comes back as the point interval (mid, mid).
    """
    a, b = interval
    if a == b:
        return interval
    chain = sturm_chain(p)
    if count_roots_in(chain, a, b) != 1:
        raise ValueError("not an isolating interval")
    q = chain[0]
    right = _sign_at(q, b)
    while b - a > width:
        mid = (a + b) / 2
        s = _sign_at(q, mid)
        if s == 0:
            return (mid, mid)
        if s == right:
            b = mid
        else:
            a = mid
    return (a, b)


def _primes():
    """2, 3, 5, 7, ... by trial division."""
    found: list[int] = []
    n = 2
    while True:
        if all(n % d for d in found if d * d <= n):
            found.append(n)
            yield n
        n += 1


def _value(coeffs: list[int], x: int, m: int = 0) -> int:
    """Integer polynomial at ``x``, reduced mod ``m`` at every step unless m = 0."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
        if m:
            acc %= m
    return acc


def _simple_roots_mod_prime(monic: list[int], deriv: list[int]) -> tuple[int, list[int]]:
    """The first prime p at which every root of ``monic`` mod p is simple, and those roots.

    ``deriv`` is the derivative of ``monic``.  Only the primes dividing the
    discriminant can fail, so a squarefree ``monic`` ends the search.
    """
    for prime in _primes():
        small = [a % prime for a in monic]
        residues = [r for r in range(prime) if _value(small, r, prime) == 0]
        if all(_value(deriv, r, prime) for r in residues):
            return prime, residues


def rational_roots(p: UniPoly) -> list[Fraction]:
    """All rational roots of ``p``, ascending, by p-adic lifting (Loos 1983).

    Let q be the squarefree primitive integer part of ``p`` without zero
    roots, n its degree and c its leading coefficient.  The rational roots
    of q are y/c for the integer roots y of the monic integer polynomial
    P(y) = c^(n-1) q(y/c).  Those are found modulo the first prime at which
    every root of P is simple, then each is lifted by Newton steps that
    square the modulus until it exceeds twice the Cauchy bound of P, and
    kept only if P(y) = 0 exactly.  No root modulo that prime proves that
    q has no rational root.  The cost is polynomial in the degree and the
    bit size of the coefficients.
    """
    if not p:
        raise ZeroPolynomial("zero polynomial")
    low = next(i for i, a in enumerate(p.coeffs) if a)
    roots = [Fraction(0)] if low else []
    q = UniPoly(p.coeffs[low:])
    if q.degree() == 0:
        return roots
    q_int = [int(a) for a in primitive_vector(q.squarefree_part().coeffs)]
    n, c = len(q_int) - 1, q_int[-1]
    monic = [a * c ** (n - 1 - i) for i, a in enumerate(q_int[:-1])] + [1]
    deriv = [i * a for i, a in enumerate(monic)][1:]
    bound = 1 + max(abs(a) for a in monic[:-1])
    prime, residues = _simple_roots_mod_prime(monic, deriv)
    for y in residues:
        m = prime
        while m <= 2 * bound:
            m *= m
            y = (y - _value(monic, y, m) * pow(_value(deriv, y, m), -1, m)) % m
        if 2 * y > m:
            y -= m
        if _value(monic, y) == 0:
            roots.append(Fraction(y, c))
    return sorted(roots)

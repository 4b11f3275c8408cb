"""Exact real roots of UniPoly: Sturm chains and p-adic rational roots.

One Sturm chain per polynomial feeds every real-root query: it decides
"totally imaginary" (no real root) and isolates the shrink boundary parameter.
Rational roots (quartic Galois groups, rational boundary parameters) are
found by Hensel lifting of the roots modulo one prime, in time polynomial
in the degree and the coefficient bit size.
"""

from fractions import Fraction
from typing import Sequence

from .errors import CheckFailed, OutOfRange, ZeroPolynomial
from .poly import UniPoly, primitive_vector


def sturm_chain(p: UniPoly) -> list[UniPoly]:
    """Sturm sequence of the squarefree part of ``p``, no term zero.

    The remainder sequence of p and p' ends at g = gcd(p, p'); divided by
    g it is a Sturm sequence of p/g (Basu, Pollack and Roy, Algorithms in
    Real Algebraic Geometry, 2.2).  Its first term, a positive multiple of
    p/g, has the degree of ``p`` exactly when ``p`` is squarefree.
    """
    if not p:
        raise ZeroPolynomial("Sturm chain of the zero polynomial")
    chain = p.remainder_sequence(p.derivative())
    g = chain[-1] if chain[-1].lead() > 0 else -chain[-1]
    return chain if g.degree() == 0 else [q // g for q in chain]


def _variations(signs: list[int]) -> int:
    nz = [s for s in signs if s]
    return sum(1 for a, b in zip(nz, nz[1:]) if a != b)


def _sign_at(p: UniPoly, x: Fraction) -> int:
    v = p(x)
    return (v > 0) - (v < 0)


def _sign_at_inf(p: UniPoly, positive: bool) -> int:
    lead = p.lead()
    s = (lead > 0) - (lead < 0)
    if not positive and p.degree() % 2 == 1:
        s = -s
    return s


def count_real_roots(chain: list[UniPoly]) -> int:
    """Number of distinct real roots of the polynomial whose Sturm ``chain`` is given."""
    at_minus = _variations([_sign_at_inf(q, positive=False) for q in chain])
    at_plus = _variations([_sign_at_inf(q, positive=True) for q in chain])
    return at_minus - at_plus


def _variations_at(chain: list[UniPoly], x: Fraction) -> int:
    """Sign variations of the Sturm ``chain`` at ``x``: one evaluation of the chain."""
    return _variations([_sign_at(q, x) for q in chain])


def count_roots_in(chain: list[UniPoly], a: Fraction, b: Fraction) -> int:
    """Distinct roots in the half-open interval (a, b]; requires a < b."""
    if not a < b:
        raise OutOfRange("need a < b")
    return _variations_at(chain, a) - _variations_at(chain, b)


def root_bound(p: UniPoly) -> Fraction:
    """Cauchy bound M: every real root of a nonconstant ``p`` lies in [-M, M]."""
    lead = abs(p.lead())
    return 1 + max(abs(c) for c in p.coeffs[:-1]) / lead


def isolate_real_roots(chain: list[UniPoly], lo: Fraction) -> tuple[Fraction, Fraction] | None:
    """Half-open interval (a, b] isolating the smallest real root above ``lo``, or None.

    ``chain`` is the Sturm chain of the polynomial.  Bisects (lo, M + 1],
    M the Cauchy bound, keeping the left half whenever it holds a root and
    carrying the variations at both ends, so each step evaluates the chain
    once, at a split point off the root set.  The plural name stays because
    the benchmark traces root isolation under it (perfbench/spans.py).
    """
    q = chain[0]
    if q.degree() == 0:
        return None
    a, b = lo, root_bound(q) + 1
    va, vb = _variations_at(chain, a), _variations_at(chain, b)
    while va - vb > 1:
        mid = (a + b) / 2
        shift = (b - a) / 4
        while q(mid) == 0:
            mid += shift
            shift /= 2
        vm = _variations_at(chain, mid)
        if va > vm:
            b, vb = mid, vm
        else:
            a, va = mid, vm
    return (a, b) if va > vb else None


def refine_interval(
    chain: list[UniPoly], interval: tuple[Fraction, Fraction], width: Fraction
) -> tuple[Fraction, Fraction]:
    """Bisect an isolating interval (a, b] until it is narrower than ``width``.

    ``chain`` is the Sturm chain of the polynomial.  One Sturm count checks
    that (a, b] holds exactly one root r.  The squarefree part
    q = chain[0] changes sign at its simple root r and nowhere else in
    (a, b], so q has the sign of q(b) on (r, b] and the opposite sign on
    (a, r): the sign of q at the midpoint picks the half holding r.  When
    q(b) = 0 the root is b and every midpoint falls left of it.  A midpoint
    that is the root comes back as the point interval (mid, mid).
    """
    a, b = interval
    if a == b:
        return interval
    if count_roots_in(chain, a, b) != 1:
        raise CheckFailed("not an isolating interval")
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


def rational_roots(p: UniPoly, chain: Sequence[UniPoly] = ()) -> list[Fraction]:
    """All rational roots of ``p``, ascending, by p-adic lifting (Loos 1983).

    Let q be the squarefree primitive integer part of ``p`` without zero
    roots, n its degree and c its leading coefficient.  The rational roots
    of q are y/c for the integer roots y of the monic integer polynomial
    P(y) = c^(n-1) q(y/c).  Those are found modulo the first prime at which
    every root of P is simple, then each is lifted by Newton steps that
    square the modulus until it exceeds twice the Cauchy bound of P, and
    kept only if P(y) = 0 exactly.  No root modulo that prime proves that
    q has no rational root.  The cost is polynomial in the degree and the
    bit size of the coefficients.  The squarefree part is the first term
    of the Sturm chain of ``p``, built here unless the caller passes it as
    ``chain``.
    """
    if not p:
        raise ZeroPolynomial("zero polynomial")
    squarefree = (chain or sturm_chain(p))[0]
    low = next(i for i, a in enumerate(squarefree.coeffs) if a)
    roots = [Fraction(0)] if low else []
    q = UniPoly(squarefree.coeffs[low:])
    if q.degree() == 0:
        return roots
    q_int = [int(a) for a in primitive_vector(q.coeffs)]
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

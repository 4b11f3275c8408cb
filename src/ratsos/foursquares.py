"""Four-square decompositions of positive rationals.

Writes ``r = p/q`` as ``(pq)/q^2`` and decomposes the integer ``pq`` by
largest-first descent (Lagrange's theorem guarantees success), so the
resulting rational squares are exact.  Desk-scale inputs; no randomized
prime machinery.
"""

from fractions import Fraction
from math import isqrt

from .errors import CheckFailed, NonPositive


def _is_three_square_blocked(n: int) -> bool:
    # Legendre: n is a sum of three squares iff n != 4^k (8m + 7).
    while n % 4 == 0:
        n //= 4
    return n % 8 == 7


def _descent(n: int, parts: int, bound: int) -> list[int] | None:
    """Largest-first decomposition of n into `parts` squares, each <= bound^2."""
    if n == 0:
        return [0] * parts
    if parts == 1:
        r = isqrt(n)
        return [r] if r * r == n and r <= bound else None
    if parts == 3 and _is_three_square_blocked(n):
        return None
    a = min(bound, isqrt(n))
    while a >= 0 and parts * a * a >= n:
        rest = _descent(n - a * a, parts - 1, a)
        if rest is not None:
            return [a] + rest
        a -= 1
    return None


def four_squares_int(n: int) -> tuple[int, int, int, int]:
    """Nonnegative integers (a, b, c, d), descending, with a^2+b^2+c^2+d^2 = n."""
    if n < 0:
        raise NonPositive("need a nonnegative integer")
    # the descent is slow on n = 4^k m: decompose m, then scale by 2^k
    k = ((n & -n).bit_length() - 1) // 2 if n else 0
    m = n >> 2 * k
    parts = _descent(m, 4, isqrt(m))
    if parts is None:
        raise CheckFailed(f"the four-square descent found no decomposition of {n}")
    return tuple(v << k for v in parts)  # type: ignore[return-value]


def four_squares(r) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Rationals (a, b, c, d) with a^2 + b^2 + c^2 + d^2 = r, for r > 0."""
    r = Fraction(r)
    if r <= 0:
        raise NonPositive(f"need a positive rational, got {r}")
    p, q = r.numerator, r.denominator
    ints = four_squares_int(p * q)
    return tuple(Fraction(v, q) for v in ints)  # type: ignore[return-value]

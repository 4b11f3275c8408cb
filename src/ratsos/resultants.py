"""Exact determinants: linear pencils and Sylvester resultants.

``pencil_det`` is the kernel behind the number-field norm forms and the Gram
shrink line: det(x_1 A_1 + ... + x_k A_k) for square rational matrices is a
form of degree n, recovered exactly from its values on an integer grid
(each a ``linalg.det``) by interpolation one variable at a time.

``resultant`` keeps the Sylvester resultant with multivariate :class:`Poly`
coefficients, expanded by ``det_ring``, a memoized Laplace expansion that is
exponential in the matrix size.  No command-line path uses it; it stays as
the general-ring reference.
"""

from fractions import Fraction
from itertools import product
from typing import Sequence

from .errors import CheckFailed, DimensionMismatch, ZeroPolynomial
from .linalg import det
from .poly import Poly


def _check_square(mats: Sequence[Sequence[Sequence]]) -> int:
    if not mats:
        raise DimensionMismatch("need at least one matrix")
    n = len(mats[0])
    if n == 0:
        raise DimensionMismatch("empty matrix")
    for a in mats:
        if len(a) != n or any(len(row) != n for row in a):
            raise DimensionMismatch(f"matrices must all be {n}x{n}")
    return n


def _interpolate(values: Sequence) -> list[Fraction]:
    """Coefficients (ascending) of the polynomial taking values[i] at i = 0, 1, ..."""
    c = [Fraction(v) for v in values]
    size = len(c)
    for j in range(1, size):  # Newton divided differences; nodes i and i - j differ by j
        for i in range(size - 1, j - 1, -1):
            c[i] = (c[i] - c[i - 1]) / j
    coeffs = [c[-1]]
    for i in range(size - 2, -1, -1):  # Horner: coeffs * (y - i) + c[i]
        shifted = [Fraction(0)] + coeffs
        for d, a in enumerate(coeffs):
            shifted[d] -= i * a
        shifted[0] += c[i]
        coeffs = shifted
    return coeffs


def pencil_det(mats: Sequence[Sequence[Sequence]]) -> Poly:
    """det(x_1 A_1 + ... + x_k A_k) for square rational matrices A_j.

    The determinant is a form of degree n in k variables, so its
    dehomogenization p(y) = det(A_1 + y_2 A_2 + ... + y_k A_k) has degree
    at most n in each y_j and is determined by its values on the grid
    {0..n}^(k-1).  Each value is a ``linalg.det``; the coefficients come
    back by interpolating one variable at a time, and x_1 restores the
    degree.
    """
    n = _check_square(mats)
    # integral entries become ints, so integer pencils are summed without Fractions
    mats = [[[x.numerator if x.denominator == 1 else x for x in map(Fraction, row)] for row in a] for a in mats]
    k = len(mats)
    grid: dict[tuple[int, ...], Fraction] = {}
    for point in product(range(n + 1), repeat=k - 1):
        m = [list(row) for row in mats[0]]
        for y, a in zip(point, mats[1:]):
            if y:
                for row, arow in zip(m, a):
                    for j, v in enumerate(arow):
                        row[j] += y * v
        grid[point] = det(m)
    for axis in range(k - 1):  # values along this axis -> coefficients in y_axis
        lines: dict[tuple[int, ...], list] = {}
        for point, v in grid.items():
            lines.setdefault(point[:axis] + point[axis + 1 :], [None] * (n + 1))[point[axis]] = v
        grid = {}
        for rest, values in lines.items():
            for e, c in enumerate(_interpolate(values)):
                grid[rest[:axis] + (e,) + rest[axis:]] = c
    terms = {}
    for exp, c in grid.items():
        if not c:
            continue
        if sum(exp) > n:
            raise CheckFailed(f"interpolated pencil determinant has a term {exp} above degree {n}")
        terms[(n - sum(exp),) + exp] = c
    return Poly(k, terms)


def det_ring(rows: list[list], zero):
    """Determinant over a commutative ring via memoized Laplace expansion.

    Entries need ``+``, ``*``, unary ``-`` and truthiness (zero is falsy).
    Exponential in the matrix size (2^n minors), so it is a reference for
    small matrices over general rings; rational matrices and linear pencils
    go through ``linalg.det`` and ``pencil_det``.
    """
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise ValueError("matrix is not square")
    if n == 0:
        raise ValueError("empty matrix")
    memo: dict[frozenset, object] = {}

    def minor(remaining: tuple[int, ...]):
        key = frozenset(remaining)
        if key in memo:
            return memo[key]
        col = n - len(remaining)
        if len(remaining) == 1:
            val = rows[remaining[0]][col]
            memo[key] = val
            return val
        acc = zero
        for pos, r in enumerate(remaining):
            entry = rows[r][col]
            if not entry:
                continue
            sub = minor(remaining[:pos] + remaining[pos + 1 :])
            term = entry * sub
            acc = acc + term if pos % 2 == 0 else acc + (-term)
        memo[key] = acc
        return acc

    return minor(tuple(range(n)))


def sylvester_matrix(a: Sequence, b: Sequence, zero) -> list[list]:
    """Sylvester matrix of coefficient sequences (ascending in t).

    ``a`` has degree m, ``b`` degree n; the matrix is (m+n) x (m+n) with n
    shifted rows of ``a`` then m shifted rows of ``b``, coefficients written
    descending along each row.
    """
    m = len(a) - 1
    n = len(b) - 1
    if m < 0 or not a[-1]:
        raise ZeroPolynomial("first polynomial is zero or has zero leading coefficient")
    if n < 0 or not b[-1]:
        raise ZeroPolynomial("second polynomial is zero or has zero leading coefficient")
    size = m + n
    rows = [[zero] * size for _ in range(size)]
    a_desc = list(reversed(list(a)))
    b_desc = list(reversed(list(b)))
    for i in range(n):
        for j, c in enumerate(a_desc):
            rows[i][i + j] = c
    for i in range(m):
        for j, c in enumerate(b_desc):
            rows[n + i][i + j] = c
    return rows


def resultant(a: Sequence[Poly], b: Sequence[Poly]) -> Poly:
    """Res_t(A, B) for A, B polynomials in t with Poly coefficients.

    Equals the determinant of the Sylvester matrix, expanded exactly.  When
    A is monic with constant (rational) coefficients this is the product of
    B evaluated at all roots of A, i.e. the norm form (which
    ``numfield.norm_form`` computes as a pencil determinant instead).
    """
    a = list(a)
    b = list(b)
    while a and not a[-1]:
        a.pop()
    while b and not b[-1]:
        b.pop()
    if not a or not b:
        raise ZeroPolynomial("resultant of the zero polynomial")
    nvars = next((c.nvars for c in a + b if isinstance(c, Poly)), None)
    if nvars is None:
        raise ValueError("need at least one Poly coefficient")
    a = [c if isinstance(c, Poly) else Poly.constant(nvars, c) for c in a]
    b = [c if isinstance(c, Poly) else Poly.constant(nvars, c) for c in b]
    zero = Poly.zero(nvars)
    m, n = len(a) - 1, len(b) - 1
    if m == 0 and n == 0:
        return Poly.constant(nvars, 1)
    if m == 0:
        return a[0] ** n
    if n == 0:
        return b[0] ** m
    return det_ring(sylvester_matrix(a, b, zero), zero)


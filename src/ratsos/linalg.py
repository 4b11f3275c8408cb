"""Exact linear algebra over the rationals.

One fraction-free elimination on primitive integer rows (``_echelon``)
gives every reduced row echelon form, kernel, linear solve and determinant
in the toolkit.  ``rank`` certifies "mod-p lower bound = exactly verified
upper bound": a minor nonzero modulo the prime 2^61 - 1 is a nonzero
integer minor, and min(columns, rows - k) bounds the rank from above when
the caller's k row relations are checked exactly (k = 0 without them).
Bounds that do not meet are settled by ``_echelon``.  ``psd_check``
decides positive semidefiniteness without tolerances by recursive Schur
complements, returning either an LDL^T factorization with nonnegative
pivots or an explicit rational witness vector ``v`` with ``v^T M v < 0``.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from typing import Sequence

from .errors import DimensionMismatch, NotPsd, ParseError

Vec = list[Fraction]
Mat = list[list[Fraction]]


def _combine(a: int, row: list[int], b: int, pivot_row: list[int], start: int = 0) -> tuple[list[int], int]:
    """(primitive part of a*row - b*pivot_row, its content); the content of a zero row is 1.

    Both rows must vanish left of column ``start``, which stays zero.
    """
    new = [a * x - b * y for x, y in zip(row[start:], pivot_row[start:])]
    g = gcd(*new) or 1
    return row[:start] + ([v // g for v in new] if g > 1 else new), g


def _integer_rows(rows: Sequence[Sequence]) -> tuple[list[list[int]], list[int]]:
    """(each row times the lcm of its denominators, those multipliers); ranks are unchanged."""
    vals = [[x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row] for row in rows]
    down = [lcm(*(v.denominator for v in row)) for row in vals]
    return [[v.numerator * (den // v.denominator) for v in row] for row, den in zip(vals, down)], down


def _echelon(rows: Sequence[Sequence]) -> tuple[list[list[int]], list[int], list[int], list[int]]:
    """Fraction-free forward elimination: (nonzero echelon rows, pivot columns, up, down).

    Rows are scaled to integers, and each row eliminated below a pivot is
    made primitive again, so entries stay small and no Fraction is formed.
    The scalings, eliminations and swaps multiply the determinant by
    prod(down) / prod(up): a full-rank square matrix has
    det = prod(up) * prod(pivots) / prod(down).
    """
    m, down = _integer_rows(rows)
    up: list[int] = []
    pivots: list[int] = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        k = next((i for i in range(r, len(m)) if m[i][c]), None)
        if k is None:
            continue
        if k != r:
            m[r], m[k] = m[k], m[r]
            up.append(-1)
        p = m[r][c]
        for i in range(r + 1, len(m)):  # rows r and below are zero left of column c
            if lead := m[i][c]:
                g = gcd(p, lead)
                m[i], content = _combine(p // g, m[i], lead // g, m[r], c)
                up.append(content)
                down.append(p // g)
        pivots.append(c)
        if len(pivots) == len(m):
            break
    return m[: len(pivots)], pivots, up, down


def rref(rows: Sequence[Sequence]) -> tuple[Mat, list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot column indices)."""
    red, pivots, _, _ = _echelon(rows)
    for i in range(len(red) - 1, 0, -1):  # back-substitution, bottom-up
        c, p = pivots[i], red[i][pivots[i]]
        for j in range(i):
            if lead := red[j][c]:
                g = gcd(p, lead)
                red[j], _ = _combine(p // g, red[j], lead // g, red[i])
    return [[Fraction(v, row[c]) for v in row] for row, c in zip(red, pivots)], pivots


_PRIME = (1 << 61) - 1


def _rank_mod_prime(m: list[list[int]]) -> int:
    """Rank of an integer matrix modulo ``_PRIME``, a lower bound on its rank over Q."""
    m = [[v % _PRIME for v in row] for row in m]
    r = 0
    for c in range(len(m[0]) if m else 0):
        k = next((i for i in range(r, len(m)) if m[i][c]), None)
        if k is None:
            continue
        m[r], m[k] = m[k], m[r]
        inv = pow(m[r][c], -1, _PRIME)
        pivot_row = m[r][c:]
        for i in range(r + 1, len(m)):
            if lead := m[i][c] * inv % _PRIME:
                m[i][c:] = [(x - lead * y) % _PRIME for x, y in zip(m[i][c:], pivot_row)]
        r += 1
        if r == len(m):
            break
    return r


def _rank_bound(rows: Sequence[Sequence], relations: Sequence[Sequence[int]]) -> int:
    """min(columns, rows - k) when the k relations are integer vectors v with
    v^T M = 0 on the rows as given, and independent (full rank mod p is full
    rank over Q); min(rows, columns) otherwise.  Either bounds the rank."""
    ncols = len(rows[0]) if rows else 0
    verified = relations and all(
        len(v) == len(rows)
        and all(isinstance(x, int) for x in v)
        and not any(sum(x * row[c] for x, row in zip(v, rows) if x) for c in range(ncols))
        for v in relations
    ) and _rank_mod_prime([list(v) for v in relations]) == len(relations)
    return min(ncols, len(rows) - len(relations)) if verified else min(len(rows), ncols)


def rank(rows: Sequence[Sequence], relations: Sequence[Sequence[int]] = ()) -> int:
    """Exact rank over Q.

    The rank modulo 2^61 - 1 is a lower bound: a minor nonzero mod p is
    nonzero over the integers.  When it meets the upper bound of
    ``_rank_bound`` (lowered by the independent ``relations`` among the
    rows) it is the rank; any smaller count falls back to exact elimination.
    """
    m, _ = _integer_rows(rows)
    bound = _rank_bound(rows, relations)
    if _rank_mod_prime(m) == bound:
        return bound
    return len(_echelon(m)[1])


def det(rows: Sequence[Sequence]) -> Fraction:
    """Determinant of a square rational matrix, exactly."""
    n = len(rows)
    if n == 0 or any(len(row) != n for row in rows):
        raise DimensionMismatch("determinant needs a nonempty square matrix")
    red, pivots, up, down = _echelon(rows)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(prod(up) * prod(row[c] for row, c in zip(red, pivots)), prod(down))


def nullspace(rows: Sequence[Sequence]) -> list[Vec]:
    """Canonical kernel basis: reduced echelon rows, pivot order by index.

    The returned vectors are linearly independent, each annihilated by the
    matrix, and their count equals ``columns - rank``.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis: list[Vec] = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][fc]
        basis.append(v)
    return rref(basis)[0]


def lin_solve(rows: Sequence[Sequence], rhs: Sequence) -> tuple[Vec | None, int]:
    """Solve ``A x = b``.

    Returns ``(solution, free_count)`` where ``solution`` is a particular
    solution (``None`` if the system is inconsistent) and ``free_count`` the
    dimension of the solution space.
    """
    if len(rows) != len(rhs):
        raise DimensionMismatch("matrix/vector size mismatch")
    if not rows:
        return [], 0
    ncols = len(rows[0])
    red, pivots = rref([list(row) + [bv] for row, bv in zip(rows, rhs)])
    if ncols in pivots:
        return None, ncols - len([p for p in pivots if p < ncols])
    x = [Fraction(0)] * ncols
    for i, pc in enumerate(pivots):
        x[pc] = red[i][ncols]
    return x, ncols - len(pivots)


@dataclass(frozen=True)
class SymMatrix:
    """Exact rational symmetric matrix."""

    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        n = len(self.rows)
        for row in self.rows:
            if len(row) != n:
                raise DimensionMismatch("matrix is not square")
        for i in range(n):
            for j in range(i):
                if self.rows[i][j] != self.rows[j][i]:
                    raise ParseError(f"matrix not symmetric at ({i},{j})")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "SymMatrix":
        return cls(tuple(tuple(Fraction(x) for x in row) for row in rows))

    @property
    def size(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> Fraction:
        return self.rows[i][j]

    def to_lists(self) -> Mat:
        return [list(r) for r in self.rows]

    def quad_form(self, v: Sequence) -> Fraction:
        """v^T M v, exactly."""
        vv = [Fraction(x) for x in v]
        return sum(
            (vv[i] * vv[j] * self.rows[i][j] for i in range(self.size) for j in range(self.size)),
            Fraction(0),
        )

    def __str__(self):
        return "\n".join(" ".join(str(v) for v in row) for row in self.rows)


@dataclass(frozen=True)
class PsdVerdict:
    """Outcome of the exact PSD decision.

    PSD case: ``pivots`` (all >= 0) and unit lower-triangular ``unit_lower``
    reproduce the matrix as ``L diag(pivots) L^T``; ``rank`` counts strictly
    positive pivots.  Otherwise ``witness`` is a rational vector with
    ``witness_value = w^T M w < 0``.
    """

    is_psd: bool
    rank: int | None = None
    pivots: tuple[Fraction, ...] | None = None
    unit_lower: tuple[tuple[Fraction, ...], ...] | None = None
    witness: tuple[Fraction, ...] | None = None
    witness_value: Fraction | None = None

    def weighted_squares(self) -> list[tuple[Fraction, tuple[Fraction, ...]]]:
        """The terms ``(d_k, v_k)`` of ``M = sum d_k v_k v_k^T``, one per positive pivot."""
        if not self.is_psd:
            raise NotPsd(f"matrix is not PSD (witness value {self.witness_value})")
        return [
            (d, tuple(row[k] for row in self.unit_lower))
            for k, d in enumerate(self.pivots)
            if d > 0
        ]


def _lift_witness(lower: Mat, u: Vec) -> Vec:
    # Solve L_k^T w = u by back-substitution; only columns < step of L are
    # filled, so the lifted vector agrees with u from index `step` on and the
    # quadratic form value is preserved exactly.
    n = len(lower)
    w = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        s = u[i]
        for j in range(i + 1, n):
            if lower[j][i]:
                s -= lower[j][i] * w[j]
        w[i] = s
    return w


def psd_check(m: SymMatrix) -> PsdVerdict:
    """Tolerance-free PSD decision by recursive Schur-complement elimination.

    Total function: every symmetric rational matrix yields either an exact
    factorization certificate or an exact negativity witness.
    """
    n = m.size
    s = m.to_lists()
    lower = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    pivots: list[Fraction] = []
    for k in range(n):
        d = s[k][k]
        if d < 0:
            u = [Fraction(0)] * n
            u[k] = Fraction(1)
            w = _lift_witness(lower, u)
            return PsdVerdict(is_psd=False, witness=tuple(w), witness_value=m.quad_form(w))
        if d == 0:
            bad = next((j for j in range(k + 1, n) if s[k][j]), None)
            if bad is None:
                pivots.append(Fraction(0))
                continue
            u = [Fraction(0)] * n
            if s[bad][bad] == 0:
                u[k] = Fraction(1)
                u[bad] = Fraction(-1) if s[k][bad] > 0 else Fraction(1)
            else:
                u[k] = -(s[bad][bad] + 1) / (2 * s[k][bad])
                u[bad] = Fraction(1)
            w = _lift_witness(lower, u)
            value = m.quad_form(w)
            return PsdVerdict(is_psd=False, witness=tuple(w), witness_value=value)
        pivots.append(d)
        for i in range(k + 1, n):
            lower[i][k] = s[i][k] / d
        for i in range(k + 1, n):
            if not s[i][k]:
                continue
            f = s[i][k] / d
            for j in range(i, n):
                s[i][j] -= f * s[k][j]
                s[j][i] = s[i][j]
    rk = sum(1 for p in pivots if p > 0)
    return PsdVerdict(
        is_psd=True,
        rank=rk,
        pivots=tuple(pivots),
        unit_lower=tuple(tuple(row) for row in lower),
    )


def ldl_sos(m: SymMatrix) -> list[tuple[Fraction, tuple[Fraction, ...]]]:
    """Weighted-squares decomposition ``M = sum d_k v_k v_k^T`` of a PSD matrix.

    The number of terms equals the rank.  Raises :class:`NotPsd` when the
    matrix is not positive semidefinite.
    """
    return psd_check(m).weighted_squares()

"""Exact linear algebra over the rationals.

Reduced row echelon form, kernels and linear solves back every rank
computation in the toolkit; ``psd_check`` decides positive semidefiniteness
without tolerances by recursive Schur complements, returning either an
LDL^T factorization with nonnegative pivots or an explicit rational witness
vector ``v`` with ``v^T M v < 0``.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import NotPsd

Vec = list[Fraction]
Mat = list[list[Fraction]]


def _as_mat(rows: Sequence[Sequence]) -> Mat:
    return [[Fraction(x) for x in row] for row in rows]


def rref(rows: Sequence[Sequence]) -> tuple[Mat, list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot column indices)."""
    m = _as_mat(rows)
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def rank(rows: Sequence[Sequence]) -> int:
    return len(rref(rows)[1])


def nullspace(rows: Sequence[Sequence]) -> list[Vec]:
    """Canonical kernel basis: reduced echelon rows, pivot order by index.

    The returned vectors are linearly independent, each annihilated by the
    matrix, and their count equals ``columns - rank``.
    """
    m = _as_mat(rows)
    if not m:
        return []
    ncols = len(m[0])
    red, pivots = rref(m)
    free = [c for c in range(ncols) if c not in pivots]
    basis: list[Vec] = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][fc]
        basis.append(v)
    if not basis:
        return []
    canon, _ = rref(basis)
    return canon


def lin_solve(rows: Sequence[Sequence], rhs: Sequence) -> tuple[Vec | None, int]:
    """Solve ``A x = b``.

    Returns ``(solution, free_count)`` where ``solution`` is a particular
    solution (``None`` if the system is inconsistent) and ``free_count`` the
    dimension of the solution space.
    """
    a = _as_mat(rows)
    b = [Fraction(x) for x in rhs]
    if len(a) != len(b):
        raise ValueError("matrix/vector size mismatch")
    if not a:
        return [], 0
    ncols = len(a[0])
    aug = [row + [bv] for row, bv in zip(a, b)]
    red, pivots = rref(aug)
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
                raise ValueError("matrix is not square")
        for i in range(n):
            for j in range(i):
                if self.rows[i][j] != self.rows[j][i]:
                    raise ValueError(f"matrix not symmetric at ({i},{j})")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "SymMatrix":
        return cls(tuple(tuple(Fraction(x) for x in row) for row in rows))

    @classmethod
    def identity(cls, n: int) -> "SymMatrix":
        return cls.from_rows([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, n: int) -> "SymMatrix":
        return cls.from_rows([[0] * n for _ in range(n)])

    @property
    def size(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> Fraction:
        return self.rows[i][j]

    def to_lists(self) -> Mat:
        return [list(r) for r in self.rows]

    def scaled(self, c) -> "SymMatrix":
        c = Fraction(c)
        return SymMatrix.from_rows([[c * v for v in row] for row in self.rows])

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
    verdict = psd_check(m)
    if not verdict.is_psd:
        raise NotPsd(f"matrix is not PSD (witness value {verdict.witness_value})")
    terms = []
    for k, d in enumerate(verdict.pivots):
        if d > 0:
            col = tuple(verdict.unit_lower[i][k] for i in range(m.size))
            terms.append((d, col))
    return terms

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ratsos import linalg
from ratsos.errors import DimensionMismatch, NotPsd, ParseError
from ratsos.linalg import (
    PsdVerdict,
    SymMatrix,
    det,
    ldl_sos,
    lin_solve,
    nullspace,
    psd_check,
    rank,
    rref,
)
from ratsos.resultants import det_ring


def frac_rows(rows):
    return [[Fraction(x) for x in r] for r in rows]


def test_rref_and_rank():
    m = [[1, 2, 3], [2, 4, 6], [1, 1, 1]]
    red, pivots = rref(m)
    assert pivots == [0, 1]
    assert rank(m) == 2
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([[1, 0], [0, 1]]) == 2


def test_nullspace_examples():
    assert nullspace([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == []
    assert nullspace([[1, 1]]) == [[1, -1]]
    ns = nullspace([[1, 2, 3]])
    assert len(ns) == 2
    for v in ns:
        assert sum(Fraction(a) * b for a, b in zip([1, 2, 3], v)) == 0


def test_nullspace_dimension_property():
    rng = random.Random(7)
    for _ in range(50):
        nrows = rng.randint(1, 5)
        ncols = rng.randint(1, 5)
        m = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(ncols)] for _ in range(nrows)]
        basis = nullspace(m)
        assert len(basis) + rank(m) == ncols
        for v in basis:
            for row in m:
                assert sum(a * b for a, b in zip(row, v)) == 0


def test_lin_solve():
    sol, free = lin_solve([[1, 1], [1, -1]], [3, 1])
    assert free == 0
    assert sol == [2, 1]
    sol, free = lin_solve([[1, 1]], [2])
    assert free == 1
    assert sol is not None and sol[0] + sol[1] == 2
    sol, free = lin_solve([[1, 1], [1, 1]], [0, 1])
    assert sol is None


def _random_matrix(rng: random.Random, n: int) -> list[list[Fraction]]:
    return [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]


def test_det_against_det_ring():
    assert det([[0, 1], [1, 0]]) == -1  # needs a row swap
    assert det([[1, 2], [2, 4]]) == 0
    assert det([[Fraction(1, 2), 0], [0, Fraction(2, 3)]]) == Fraction(1, 3)
    rng = random.Random(3)
    for _ in range(30):
        rows = _random_matrix(rng, rng.randint(1, 6))
        if rng.random() < 0.3:
            rows[-1] = list(rows[0])  # singular
        assert det(rows) == det_ring(rows, Fraction(0))
    for bad in ([], [[1, 2]], [[1], [2, 3]]):
        with pytest.raises(DimensionMismatch):
            det(bad)


# -- the elimination kernel against Gauss-Jordan over Fraction ---------------


def _gauss_jordan(rows):
    """Reduced row echelon form over ``Fraction`` by textbook Gauss-Jordan."""
    m = [[Fraction(x) for x in row] for row in rows]
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = 1 / m[r][c]
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


_BIG = 10**30
_entries = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-_BIG, _BIG), st.integers(1, _BIG)),
)


@st.composite
def _matrices(draw, square=False):
    """Tall, wide or square matrices; some with zero rows and columns, repeated
    rows and a zero in the first pivot position, so a swap is needed."""
    nrows = draw(st.integers(1, 6))
    ncols = nrows if square else draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(_entries, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))
    for kind in draw(st.lists(st.sampled_from(["zero row", "zero column", "repeat", "swap"]), max_size=3)):
        i, j = draw(st.integers(0, nrows - 1)), draw(st.integers(0, nrows - 1))
        if kind == "zero row":
            rows[i] = [0] * ncols
        elif kind == "zero column":
            c = draw(st.integers(0, ncols - 1))
            for row in rows:
                row[c] = 0
        elif kind == "repeat":
            rows[i] = list(rows[j])
        else:
            rows[0][0] = 0
    return rows


@settings(max_examples=200, deadline=None)
@given(_matrices())
def test_kernel_matches_gauss_jordan(rows):
    expected, pivots = _gauss_jordan(rows)
    assert rref(rows) == (expected, pivots)
    assert rank(rows) == len(pivots)
    ncols = len(rows[0])
    free = [c for c in range(ncols) if c not in pivots]
    kernel = []
    for fc in free:
        v = [Fraction(int(c == fc)) for c in range(ncols)]
        for i, pc in enumerate(pivots):
            v[pc] = -expected[i][fc]
        kernel.append(v)
    assert nullspace(rows) == (_gauss_jordan(kernel)[0] if kernel else [])


# -- rank: one elimination mod 2^61 - 1, exact elimination unless full -------


def _exact_rank(rows):
    return len(linalg._echelon(rows)[1])


@st.composite
def _low_rank_products(draw):
    """B C with B n x k and C k x m, so the rank is at most k < min(n, m)."""
    n, m = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    k = draw(st.integers(1, min(n, m) - 1))
    b = draw(st.lists(st.lists(_entries, min_size=k, max_size=k), min_size=n, max_size=n))
    c = draw(st.lists(st.lists(_entries, min_size=m, max_size=m), min_size=k, max_size=k))
    return [[sum((Fraction(x) * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*c)] for row in b]


@settings(max_examples=200, deadline=None)
@given(st.one_of(_matrices(), _low_rank_products()))
def test_rank_matches_exact_elimination(rows):
    assert rank(rows) == _exact_rank(rows)


P = linalg._PRIME


@pytest.mark.parametrize(
    "rows, expected, exact_runs",
    [
        ([[P, 1], [0, 1]], 2, 1),  # rank 1 mod P: only the fallback sees rank 2
        ([[2 * P, 3 * P], [P, 5 * P]], 2, 1),  # zero mod P, rank 2 over Q
        ([[1, P], [P, 1]], 2, 0),
        ([[Fraction(1, P), 1], [0, 1]], 2, 0),  # denominators are cleared before reducing
        ([[Fraction(1, P), Fraction(2, P)], [1, 2]], 1, 1),
        ([[Fraction(1, 3 * P), 1], [1, 3 * P]], 1, 1),
        ([], 0, 0),
        ([[], []], 0, 0),
        ([[0, 0, 0], [0, 0, 0]], 0, 1),
        ([[1, 2, 3], [0, 0, 0], [4, 5, 6]], 2, 1),
        ([[1, 2], [3, 4], [5, 6]], 2, 0),
    ],
)
def test_rank_certifies_full_rank_mod_p_and_falls_back_otherwise(monkeypatch, rows, expected, exact_runs):
    echelon = linalg._echelon
    runs = []

    def counting(m):
        runs.append(m)
        return echelon(m)

    monkeypatch.setattr(linalg, "_echelon", counting)
    assert rank(rows) == expected
    assert len(runs) == exact_runs


# -- rank with relations: the mod-p count meets an exactly verified upper bound


@st.composite
def _planted_relations(draw):
    """(rows, relations): random integer rows, then rows that are integer
    combinations of the rows before them, each with the relation that plants it."""
    ncols, nbase, nplanted = draw(st.integers(1, 6)), draw(st.integers(1, 5)), draw(st.integers(1, 4))
    ints = st.integers(-5, 5)
    rows = draw(st.lists(st.lists(ints, min_size=ncols, max_size=ncols), min_size=nbase, max_size=nbase))
    relations = []
    for _ in range(nplanted):
        coeffs = draw(st.lists(ints, min_size=len(rows), max_size=len(rows)))
        rows.append([sum(a * row[c] for a, row in zip(coeffs, rows)) for c in range(ncols)])
        relations.append(coeffs + [-1])
    relations = [v + [0] * (len(rows) - len(v)) for v in relations]
    order = draw(st.permutations(range(len(rows))))
    return [rows[i] for i in order], [[v[i] for i in order] for v in relations]


@settings(max_examples=40, deadline=None)
@given(_planted_relations(), st.data())
def test_rank_with_relations_is_the_exact_rank(planted, data):
    rows, relations = planted
    exact = _exact_rank(rows)
    assert rank(rows, relations) == exact
    v = relations[0]
    k = data.draw(st.integers(0, len(rows) - 1))
    unchecked = [
        relations[:1] + [v[:k] + [v[k] + 1] + v[k + 1 :]],  # annihilates only if row k is zero
        relations + [[2 * x for x in v]],  # dependent
        relations + [[0] * len(rows)],
        [v + [0]],
        [v[:-1]],
    ]
    for bad in unchecked:
        assert rank(rows, bad) == exact


# rank 2, but rank 1 mod P: a bound of 3 - 2 = 1 from two relations would be met mod P
_RANK_2_MOD_P_1 = [[P, 1], [0, 1], [P, 2]]


@pytest.mark.parametrize(
    "rows, relations",
    [
        (_RANK_2_MOD_P_1, [[1, 1, -1], [1, 1, -1]]),  # dependent
        (_RANK_2_MOD_P_1, [[1, 1, -1], [2, 2, -2]]),
        (_RANK_2_MOD_P_1, [[1, 1, -1], [0, 0, 0]]),
        (_RANK_2_MOD_P_1, [[1, 0, 0], [0, 1, 0]]),  # independent, annihilate nothing
        (_RANK_2_MOD_P_1, [[1, 1, -1, 0], [0, 0, 0, 1]]),  # one entry too many, so the second is zero on the rows
        (_RANK_2_MOD_P_1, [[Fraction(1, 2), Fraction(1, 2), Fraction(-1, 2)]]),  # not an integer vector
        ([[P, 1], [0, 1], [0, 2]], [[1, -1, 0], [0, 2, -1]]),  # r0 - r1 vanishes mod P only
    ],
)
def test_rank_trusts_no_relation_that_fails_its_check(rows, relations):
    assert rank(rows, relations) == 2


def test_lin_solve_rejects_a_right_hand_side_of_the_wrong_length():
    with pytest.raises(DimensionMismatch):
        lin_solve([[1, 2], [3, 4]], [1])


@settings(max_examples=100, deadline=None)
@given(_matrices(), st.data())
def test_lin_solve_matches_gauss_jordan(rows, data):
    rhs = data.draw(st.lists(_entries, min_size=len(rows), max_size=len(rows)))
    solution, free = lin_solve(rows, rhs)
    a_rank = len(_gauss_jordan(rows)[1])
    consistent = len(_gauss_jordan([row + [b] for row, b in zip(rows, rhs)])[1]) == a_rank
    assert (solution is not None) == consistent
    if consistent:
        assert free == len(rows[0]) - a_rank
        assert [sum(Fraction(a) * x for a, x in zip(row, solution)) for row in rows] == rhs


@settings(max_examples=150, deadline=None)
@given(_matrices(square=True))
def test_det_matches_laplace_expansion(rows):
    assert det(rows) == det_ring([[Fraction(x) for x in row] for row in rows], Fraction(0))


def test_sym_matrix_validation():
    with pytest.raises(ParseError, match="not symmetric"):
        SymMatrix.from_rows([[1, 2], [3, 4]])
    with pytest.raises(DimensionMismatch, match="not square"):
        SymMatrix.from_rows([[1, 2], [2]])
    m = SymMatrix.from_rows([[1, 2], [2, 4]])
    assert m.entry(0, 1) == 2
    assert m.quad_form([1, 1]) == 9


def test_psd_identity():
    v = psd_check(SymMatrix.from_rows([[1, 0], [0, 1]]))
    assert v.is_psd and v.rank == 2 and v.pivots == (1, 1)


def test_psd_swap_matrix_witness():
    v = psd_check(SymMatrix.from_rows([[0, 1], [1, 0]]))
    assert not v.is_psd
    assert v.witness == (1, -1)
    assert v.witness_value == -2


def test_psd_zero_pivot_cases():
    # zero diagonal with zero row is fine
    v = psd_check(SymMatrix.from_rows([[0, 0], [0, 1]]))
    assert v.is_psd and v.rank == 1 and v.pivots == (0, 1)
    # negative diagonal later on
    v = psd_check(SymMatrix.from_rows([[1, 2], [2, 1]]))
    assert not v.is_psd
    assert v.witness_value < 0


def test_ldl_examples():
    terms = ldl_sos(SymMatrix.from_rows([[1, 0], [0, 1]]))
    assert terms == [(1, (1, 0)), (1, (0, 1))]
    terms = ldl_sos(SymMatrix.from_rows([[1, 1], [1, 1]]))
    assert terms == [(1, (1, 1))]
    terms = ldl_sos(SymMatrix.from_rows([[2, 1], [1, 2]]))
    assert terms == [(2, (1, Fraction(1, 2))), (Fraction(3, 2), (0, 1))]
    with pytest.raises(NotPsd):
        ldl_sos(SymMatrix.from_rows([[0, 1], [1, 0]]))


def _reconstruct(verdict: PsdVerdict, n: int):
    rows = [[Fraction(0)] * n for _ in range(n)]
    for k, d in enumerate(verdict.pivots):
        if not d:
            continue
        col = [verdict.unit_lower[i][k] for i in range(n)]
        for i in range(n):
            for j in range(n):
                rows[i][j] += d * col[i] * col[j]
    return rows


def random_symmetric(rng, n, scale=6):
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            v = Fraction(rng.randint(-scale, scale), rng.randint(1, 4))
            rows[i][j] = rows[j][i] = v
    return SymMatrix.from_rows(rows)


def random_psd(rng, n):
    # Gram matrix of random rational vectors: PSD by construction.
    k = rng.randint(1, n + 1)
    vecs = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)] for _ in range(k)]
    rows = [[sum(v[i] * v[j] for v in vecs) for j in range(n)] for i in range(n)]
    return SymMatrix.from_rows(rows)


def test_psd_reconstruction_random():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(1, 6)
        m = random_psd(rng, n)
        v = psd_check(m)
        assert v.is_psd
        assert _reconstruct(v, n) == m.to_lists()
        terms = ldl_sos(m)
        assert len(terms) == v.rank


def test_psd_witness_random():
    rng = random.Random(13)
    found = 0
    for _ in range(200):
        m = random_symmetric(rng, rng.randint(1, 6))
        v = psd_check(m)
        if not v.is_psd:
            found += 1
            assert m.quad_form(v.witness) == v.witness_value
            assert v.witness_value < 0
    assert found > 50  # random symmetric matrices are mostly indefinite


def test_psd_agrees_with_eigenvalue_oracle():
    # Module-level spot check; the acceptance suite runs the full 1000.
    rng = random.Random(17)
    checked = 0
    while checked < 200:
        n = rng.randint(1, 8)
        m = random_symmetric(rng, n) if rng.random() < 0.5 else random_psd(rng, n)
        arr = np.array([[float(x) for x in row] for row in m.to_lists()])
        eigs = np.linalg.eigvalsh(arr)
        if min(abs(e) for e in eigs) < 1e-6:
            continue
        checked += 1
        assert psd_check(m).is_psd == bool(eigs.min() > 0)

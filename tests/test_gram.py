import dataclasses
import random
from fractions import Fraction

import numpy as np
import pytest

from ratsos import gram
from ratsos.errors import (
    CheckFailed,
    DifferentForms,
    EqualPoints,
    HeterogeneousDegrees,
    LinearlyDependent,
    NoSolution,
    NotPsd,
    NotQuadraticallyIndependent,
    SpansDiffer,
)
from ratsos.gram import (
    GramPoint,
    QSosWitness,
    SosRep,
    extract_qsos,
    face_dimension,
    gram_from_squares,
    is_gram_point,
    mu,
    shrink_span,
    span_basis,
)
from ratsos.linalg import PsdVerdict, SymMatrix, psd_check
from ratsos.poly import Poly, monomials, sum_of_squares

x1 = Poly.variable(1, 3)
x2 = Poly.variable(2, 3)
x3 = Poly.variable(3, 3)

# the nine-point construction cubics
P1 = x1 * (x1**2 - x3**2)
P2 = x2 * (x2**2 - x3**2)
P3 = (3 * x1**2 + 3 * x2**2 - 4 * x3**2) * x3

PAPER_SEXTIC = Poly.parse(
    "x1^6 + x2^6 + 7*x1^4*x3^2 + 7*x2^4*x3^2 + 18*x1^2*x2^2*x3^2"
    " - 23*x1^2*x3^4 - 23*x2^2*x3^4 + 16*x3^6"
)


def two_var(s):
    return Poly.parse(s, nvars=2)


def test_gram_from_squares_diagonal():
    rep = SosRep((two_var("x1^2"), two_var("x2^2")))
    g = gram_from_squares(rep)
    basis = g.basis()
    i1, i2 = basis.index((2, 0)), basis.index((0, 2))
    assert g.matrix.entry(i1, i1) == 1
    assert g.matrix.entry(i2, i2) == 1
    assert sum(1 for i in range(3) for j in range(3) if g.matrix.entry(i, j)) == 2


def test_gram_from_squares_nine_point_triple():
    g = gram_from_squares(SosRep((P1, P2, P3)))
    assert g.matrix.size == 10
    verdict = psd_check(g.matrix)
    assert verdict.is_psd and verdict.rank == 3
    # float-rank oracle on the same matrix
    arr = np.array([[float(v) for v in row] for row in g.matrix.to_lists()])
    assert np.linalg.matrix_rank(arr) == 3


def test_sosrep_validation():
    with pytest.raises(HeterogeneousDegrees):
        SosRep(())
    with pytest.raises(HeterogeneousDegrees):
        SosRep((x1, x2 * x3))
    with pytest.raises(HeterogeneousDegrees):
        SosRep((x1, x1 + Poly.constant(3, 1)))


def test_mu_identity():
    g = GramPoint(2, 1, SymMatrix.from_rows([[1, 0], [0, 1]]))
    assert mu(g) == two_var("x1^2 + x2^2")
    assert is_gram_point(g, two_var("x1^2 + x2^2"))
    assert not is_gram_point(g, two_var("x1^2"))


def test_mu_of_nine_point_triple_is_paper_sextic():
    g = gram_from_squares(SosRep((P1, P2, P3)))
    assert mu(g) == PAPER_SEXTIC
    assert is_gram_point(g, PAPER_SEXTIC)


def test_mu_remark_two_representation():
    rep = SosRep((x1**3 - 2 * x1 * x2**2, 2 * x1**2 * x2 - x2**3, x3**3))
    assert mu(gram_from_squares(rep)) == x1**6 + x2**6 + x3**6


def test_span_basis():
    rep = SosRep((two_var("x1^2 + x2^2"),))
    g = gram_from_squares(rep)
    assert span_basis(g) == [two_var("x1^2 + x2^2")]
    g3 = gram_from_squares(SosRep((P1, P2, P3)))
    sp = span_basis(g3)
    assert len(sp) == 3
    # same span as the defining triple: echelonized comparison
    basis = monomials(3, 3)
    from ratsos.linalg import rref

    target = rref([p.coeff_vector(basis) for p in (P1, P2, P3)])[0]
    got = rref([p.coeff_vector(basis) for p in sp])[0]
    assert target == got
    zero = GramPoint(2, 1, SymMatrix.from_rows([[0, 0], [0, 0]]))
    assert span_basis(zero) == []


def _face_dimension(squares):
    return face_dimension(span_basis(gram_from_squares(SosRep(tuple(squares)))))


def test_face_dimension_single_square():
    dim, extreme = _face_dimension((two_var("x1^2 + x2^2"),))
    assert dim == 0 and extreme


def test_face_dimension_veronese_relation():
    # x1^2 * x2^2 = (x1 x2)^2 is the single relation among the 6 products
    dim, extreme = _face_dimension((two_var("x1^2"), two_var("x1*x2"), two_var("x2^2")))
    assert dim == 1 and not extreme


def test_face_dimension_nine_point_triple_extreme():
    # independent float oracle for the rank of the 6 products
    basis = monomials(3, 6)
    prods = []
    for i in range(3):
        for j in range(i, 3):
            prods.append(((P1, P2, P3)[i] * (P1, P2, P3)[j]).coeff_vector(basis))
    arr = np.array([[float(v) for v in row] for row in prods])
    assert np.linalg.matrix_rank(arr) == 6
    dim, extreme = _face_dimension((P1, P2, P3))
    assert dim == 0 and extreme


def test_extract_qsos_diagonal():
    f = two_var("x1^4 + x2^4")
    w = extract_qsos(f, [two_var("x1^2"), two_var("x2^2")])
    assert w.gram == SymMatrix.from_rows([[1, 0], [0, 1]])
    assert w.reconstruct_squares() == f
    assert [str(p) for p in w.polys] == ["x1^2", "x2^2"]


def test_extract_qsos_nine_point_triple():
    w = extract_qsos(PAPER_SEXTIC, [P1, P2, P3])
    assert w.gram == SymMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert w.weights == (1, 1, 1)
    assert set(w.polys) == {P1, P2, P3}
    assert w.reconstruct_squares() == PAPER_SEXTIC


def test_extract_qsos_indefinite():
    f = two_var("x1^4 + x2^4 - 3*x1^2*x2^2")
    with pytest.raises(NotPsd):
        extract_qsos(f, [two_var("x1^2"), two_var("x2^2")])


def test_extract_qsos_not_quadratically_independent():
    f = two_var("x1^4 + 2*x1^2*x2^2 + x2^4")
    with pytest.raises(NotQuadraticallyIndependent):
        extract_qsos(f, [two_var("x1^2"), two_var("x1*x2"), two_var("x2^2")])


def test_extract_qsos_no_solution():
    f = two_var("x1^4 + x1*x2^3")
    with pytest.raises(NoSolution):
        extract_qsos(f, [two_var("x1^2"), two_var("x2^2")])


def test_extract_qsos_dependent_basis():
    with pytest.raises(LinearlyDependent):
        extract_qsos(two_var("x1^4"), [two_var("x1^2"), two_var("2*x1^2")])


def test_extract_qsos_fractional_weights():
    # f = 2 x1^4 + ... exercises the four-square expansion of the weights
    f = two_var("2*x1^4 + 3*x2^4")
    w = extract_qsos(f, [two_var("x1^2"), two_var("x2^2")])
    assert w.reconstruct_squares() == f
    assert len(w.expanded) >= 3


def test_extract_qsos_form_of_another_degree():
    with pytest.raises(HeterogeneousDegrees):
        extract_qsos(two_var("x1^3"), [two_var("x1^2")])
    with pytest.raises(HeterogeneousDegrees):
        extract_qsos(two_var("x1^4"), [two_var("x1^2"), two_var("x2")])


def test_extract_qsos_failed_weighted_reconstruction_raises(monkeypatch):
    true_terms = PsdVerdict.weighted_squares
    monkeypatch.setattr(PsdVerdict, "weighted_squares", lambda v: [(2 * d, col) for d, col in true_terms(v)])
    with pytest.raises(CheckFailed, match="weighted squares"):
        extract_qsos(two_var("2*x1^4 + 3*x2^4"), [two_var("x1^2"), two_var("x2^2")])


def test_extract_qsos_failed_four_square_expansion_raises(monkeypatch):
    monkeypatch.setattr(gram, "four_squares", lambda w: (Fraction(1), Fraction(0), Fraction(0), Fraction(0)))
    with pytest.raises(CheckFailed, match="four-square"):
        extract_qsos(two_var("2*x1^4 + 3*x2^4"), [two_var("x1^2"), two_var("x2^2")])


def _family_gram(a: Fraction) -> GramPoint:
    # Gram family of (x1^2 + x2^2)^2 on basis (x1^2, x1x2, x2^2)
    a = Fraction(a)
    rows = [
        [1, 0, a],
        [0, 2 - 2 * a, 0],
        [a, 0, 1],
    ]
    return GramPoint(2, 2, SymMatrix.from_rows(rows))


def test_shrink_span_family():
    f = two_var("x1^2 + x2^2") ** 2
    g1 = _family_gram(0)
    g2 = _family_gram(Fraction(1, 2))
    assert is_gram_point(g1, f) and is_gram_point(g2, f)
    res = shrink_span(g1, g2)
    assert res.s_exact == 2
    assert res.rank_before == 3 and res.rank_after == 1
    assert is_gram_point(res.boundary, f)
    assert span_basis(res.boundary) == [two_var("x1^2 + x2^2")]


def test_shrink_span_boundary_of_another_form_raises(monkeypatch):
    g1, g2 = _family_gram(0), _family_gram(Fraction(1, 2))
    true_mu = gram.mu
    monkeypatch.setattr(gram, "mu", lambda g: true_mu(g) if g in (g1, g2) else true_mu(g) + two_var("x1^4"))
    with pytest.raises(CheckFailed, match="does not represent the form"):
        shrink_span(g1, g2)


def test_shrink_span_rank_that_does_not_drop_raises(monkeypatch):
    g1, g2 = _family_gram(0), _family_gram(Fraction(1, 2))
    true_psd_check = gram.psd_check

    def full_rank(m):
        verdict = true_psd_check(m)
        return verdict if m in (g1.matrix, g2.matrix) else dataclasses.replace(verdict, rank=3)

    monkeypatch.setattr(gram, "psd_check", full_rank)
    with pytest.raises(CheckFailed, match="rank does not drop"):
        shrink_span(g1, g2)


def test_shrink_span_equal_points():
    g1 = _family_gram(0)
    with pytest.raises(EqualPoints):
        shrink_span(g1, _family_gram(0))


def test_shrink_span_spans_differ():
    rep_a = SosRep((x1**3, x2**3, x3**3))
    rep_b = SosRep((x1**3 - 2 * x1 * x2**2, 2 * x1**2 * x2 - x2**3, x3**3))
    ga, gb = gram_from_squares(rep_a), gram_from_squares(rep_b)
    assert mu(ga) == mu(gb)  # same form, the Remark-2 pair
    with pytest.raises(SpansDiffer):
        shrink_span(ga, gb)


def test_shrink_span_different_forms_rejected():
    g1 = _family_gram(0)
    g = gram_from_squares(SosRep((two_var("x1^2"),)))
    with pytest.raises(DifferentForms):
        shrink_span(g1, g)


def _random_poly(rng, nvars, deg):
    basis = monomials(nvars, deg)
    return Poly(
        nvars,
        {e: Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for e in basis if rng.random() < 0.6},
    )


def test_mu_gram_roundtrip_random():
    rng = random.Random(53)
    for _ in range(200):
        nvars = rng.randint(1, 3)
        deg = rng.randint(1, 3)
        squares = [_random_poly(rng, nvars, deg) for _ in range(rng.randint(1, 3))]
        squares = [p for p in squares if p] or [Poly.monomial((0,) * (nvars - 1) + (deg,))]
        assert mu(gram_from_squares(SosRep(tuple(squares)))) == sum_of_squares(squares)


def _cayley_orthogonal(rng, n):
    # O = (I - S)(I + S)^-1 for random rational skew-symmetric S
    from ratsos.linalg import lin_solve

    s = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
            s[i][j] = v
            s[j][i] = -v
    eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    a = [[eye[i][j] + s[i][j] for j in range(n)] for i in range(n)]  # I + S
    cols = []
    for k in range(n):
        rhs = [eye[i][k] - s[i][k] for i in range(n)]  # (I - S) e_k
        sol, free = lin_solve(a, rhs)
        assert sol is not None and free == 0
        cols.append(sol)
    return [[cols[j][i] for j in range(n)] for i in range(n)]  # O^T rows... O[i][j]


def test_orthogonal_equivalence_collapses():
    # rotating the square list by a rational orthogonal matrix leaves the
    # Gram point unchanged
    rng = random.Random(59)
    for _ in range(25):
        nvars = rng.randint(2, 3)
        deg = rng.randint(1, 2)
        r = rng.randint(2, 3)
        squares = []
        while len(squares) < r:
            p = _random_poly(rng, nvars, deg)
            if p:
                squares.append(p)
        o = _cayley_orthogonal(rng, r)
        rotated = []
        for i in range(r):
            q = Poly.zero(nvars)
            for j in range(r):
                if o[i][j]:
                    q = q + o[i][j] * squares[j]
            rotated.append(q)
        g_a = gram_from_squares(SosRep(tuple(squares)))
        g_b = gram_from_squares(SosRep(tuple(rotated)))
        assert g_a == g_b


def test_face_dimension_iff_quadratic_independence_random():
    rng = random.Random(61)
    for _ in range(60):
        nvars = rng.randint(2, 3)
        deg = rng.randint(1, 2)
        squares = []
        for _ in range(rng.randint(1, 3)):
            p = _random_poly(rng, nvars, deg)
            if p:
                squares.append(p)
        if not squares:
            continue
        dim, extreme = _face_dimension(squares)
        assert (dim == 0) == extreme
        assert dim >= 0


def test_extract_qsos_random_success_instances():
    # random PSD Gram matrices over random independent bases; module-level
    # count is reduced, the acceptance suite runs the spec-scale 100
    rng = random.Random(67)
    done = 0
    while done < 25:
        nvars = rng.randint(2, 3)
        deg = rng.randint(1, 2)
        basis = monomials(nvars, deg)
        r = rng.randint(1, min(3, len(basis)))
        polys = []
        while len(polys) < r:
            p = _random_poly(rng, nvars, deg)
            if p:
                polys.append(p)
        from ratsos.linalg import rref as _rref

        if len(_rref([p.coeff_vector(basis) for p in polys])[0]) < r:
            continue
        vecs = [[Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(r)] for _ in range(r)]
        f = Poly.zero(nvars)
        for v in vecs:
            q = Poly.zero(nvars)
            for c, p in zip(v, polys):
                q = q + c * p
            f = f + q * q
        if not f:
            continue
        try:
            w = extract_qsos(f, polys)
        except NotQuadraticallyIndependent:
            continue
        assert w.reconstruct_squares() == f
        assert w.reconstruct_weighted() == f
        done += 1

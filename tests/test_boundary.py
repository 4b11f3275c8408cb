import random
from fractions import Fraction

import pytest

from ratsos import boundary, linalg
from ratsos.boundary import (
    LinearFunctional,
    NinePointConfig,
    PositivityVerdict,
    WeightTuple,
    assemble_sextic,
    boundary_chain,
    boundary_cert,
    cb_relation,
    check_tuple,
    demo_kernel_cubics,
    demo_points,
    demo_tuple,
    empty_zero_check,
    evaluation_matrix,
    functional_from_points,
    functional_from_tuple,
    hilbert_function,
    kernel_cubics,
    moment_matrix,
    uniqueness_cert,
)
from ratsos.errors import (
    CheckFailed,
    DimensionMismatch,
    DuplicatePoint,
    LinearlyDependent,
    MissingGramWitness,
    NotCayleyBacharach,
    NotPsd,
    NotQuadraticallyIndependent,
    ParseError,
)
from ratsos.gram import SosRep, gram_from_squares
from ratsos.linalg import SymMatrix, psd_check, rank, rref
from ratsos.poly import Poly, monomials

P1, P2, P3 = demo_kernel_cubics()
DEMO_U = [Fraction(v) for v in (1, 1, 1, -1, -2, 2, -2, 2, 4)]

PAPER_SEXTIC = Poly.parse(
    "x1^6 + x2^6 + 7*x1^4*x3^2 + 7*x2^4*x3^2 + 18*x1^2*x2^2*x3^2"
    " - 23*x1^2*x3^4 - 23*x2^2*x3^4 + 16*x3^6"
)


def _scaled(alpha: LinearFunctional, c) -> LinearFunctional:
    return LinearFunctional(tuple(c * v for v in alpha.coeffs))


def test_points_validation():
    with pytest.raises(DuplicatePoint):
        NinePointConfig.from_rows([(1, 1, 1)] * 9)
    with pytest.raises(DuplicatePoint):
        rows = list(demo_points().points)
        rows[3] = (2, 2, 2)  # projectively equal to (1,1,1)
        NinePointConfig.from_rows(rows)
    with pytest.raises(DimensionMismatch, match="got 1"):
        NinePointConfig.from_rows([(1, 0, 0)])


def test_points_parse():
    text = "\n".join(",".join(str(c) for c in p) for p in demo_points().points)
    assert NinePointConfig.parse(text) == demo_points()


def test_cb_relation_demo():
    u = cb_relation(demo_points())
    assert u == DEMO_U
    # magnitudes match the printed vector (1,1,1,1,2,2,2,2,4)
    assert [abs(v) for v in u] == [1, 1, 1, 1, 2, 2, 2, 2, 4]
    # orthogonality against every cubic monomial value vector, exactly
    ev = evaluation_matrix(demo_points())
    for col in zip(*ev):
        assert sum(a * b for a, b in zip(u, col)) == 0


def test_cb_relation_generic_points_fail():
    rng = random.Random(71)
    rows = [
        (Fraction(rng.randint(1, 40)), Fraction(rng.randint(41, 80)), Fraction(rng.randint(81, 120)))
        for _ in range(9)
    ]
    with pytest.raises(NotCayleyBacharach) as exc:
        cb_relation(NinePointConfig.from_rows(rows))
    assert exc.value.kernel_dim == 0


def test_cb_relation_duplicate_point():
    rows = list(demo_points().points)
    rows[1] = rows[0]
    with pytest.raises(DuplicatePoint):
        NinePointConfig.from_rows(rows)


def test_check_tuple():
    assert check_tuple(DEMO_U, demo_tuple()).ok  # 4 + 4 - 8 = 0
    v = check_tuple(DEMO_U, WeightTuple((1, 1, 1, 1, 4, 4, 4, 4, -3)))  # 4 + 4 - 16/3
    assert not v.ok and v.reason == "sum u_i^2/a_i = 8/3 != 0"


def test_weight_tuple_validation():
    with pytest.raises(ParseError, match="one negative weight"):
        WeightTuple((1,) * 9)
    with pytest.raises(ParseError, match="nonzero"):
        WeightTuple((0, 1, 1, 1, 1, 1, 1, 1, -1))
    with pytest.raises(DimensionMismatch, match="got 8"):
        WeightTuple((1,) * 7 + (-1,))
    assert WeightTuple.parse("1,1,1,1,4,4,4,4,-2") == demo_tuple()


def test_functional_demo_values():
    alpha = functional_from_tuple(demo_points(), demo_tuple())
    f0 = Poly.parse("x1^6 + x2^6 + x3^6")
    assert alpha(f0) == 42
    assert alpha(PAPER_SEXTIC) == 0
    # scaling invariance of downstream structure
    assert _scaled(alpha, 5)(f0) == 210


def test_functional_round_trip():
    alpha = functional_from_tuple(demo_points(), demo_tuple())
    assert LinearFunctional.parse(alpha.to_text()) == alpha


def test_moment_matrix_demo_rank7():
    alpha = functional_from_tuple(demo_points(), demo_tuple())
    b = moment_matrix(alpha)
    assert b.size == 10
    verdict = psd_check(b)
    assert verdict.is_psd
    assert verdict.rank == 7


def test_moment_matrix_point_evaluation():
    alpha = functional_from_points([(0, 0, 1)], [1])
    b = moment_matrix(alpha)
    verdict = psd_check(b)
    assert verdict.is_psd and verdict.rank == 1
    kernel = kernel_cubics(b)
    assert len(kernel) == 9  # all cubics vanishing at the point


def test_moment_matrix_positive_combinations_psd():
    rng = random.Random(73)
    for _ in range(20):
        k = rng.randint(1, 12)
        pts = [
            (Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5)), Fraction(rng.randint(1, 5)))
            for _ in range(k)
        ]
        ws = [Fraction(rng.randint(1, 4)) for _ in range(k)]
        b = moment_matrix(functional_from_points(pts, ws))
        verdict = psd_check(b)
        assert verdict.is_psd
        assert verdict.rank <= k


def test_moment_matrix_generic_55_points_full_rank():
    rng = random.Random(79)
    pts = [
        (Fraction(rng.randint(1, 97)), Fraction(rng.randint(1, 89)), Fraction(rng.randint(1, 83)))
        for _ in range(55)
    ]
    b = moment_matrix(functional_from_points(pts, [1] * 55))
    verdict = psd_check(b)
    assert verdict.is_psd and verdict.rank == 10
    assert kernel_cubics(b) == []


def test_kernel_demo_contains_cubics_verbatim():
    alpha = functional_from_tuple(demo_points(), demo_tuple())
    b = moment_matrix(alpha)
    kernel = kernel_cubics(b)
    assert len(kernel) == 3
    assert set(kernel) == {P1, P2, P3}
    # membership also directly: B annihilates each p_i
    from ratsos.boundary import CUBICS

    for p in (P1, P2, P3):
        vec = p.coeff_vector(CUBICS)
        assert all(
            sum(b.entry(i, j) * vec[j] for j in range(10)) == 0 for i in range(10)
        )


def test_kernel_rejects_indefinite():
    with pytest.raises(NotPsd):
        kernel_cubics(SymMatrix.from_rows(
            [[0] * 10 for _ in range(10)][:9] + [[0] * 9 + [-1]]
        ))


def test_weighted_values_proportional_to_relation():
    # (a_i p3(xi_i))_i is exactly 2u: cross-validates signs, kernel
    # membership and the tuple at once
    pts = demo_points().points
    a = demo_tuple().a
    vals = [w * P3.evaluate(p) for w, p in zip(a, pts)]
    assert vals == [2 * v for v in DEMO_U]


def test_assemble_sextic():
    assert assemble_sextic((P1, P2, P3)) == PAPER_SEXTIC
    x1, x2, x3 = (Poly.variable(i, 3) for i in (1, 2, 3))
    assert assemble_sextic((x1**3, x2**3, x3**3)) == x1**6 + x2**6 + x3**6
    with pytest.raises(LinearlyDependent):
        assemble_sextic((P1, P2, 2 * P1 + 3 * P2))


def test_hilbert_function_demo():
    # oracle: complete intersection of three cubics has series
    # (1-t^3)^3/(1-t)^3 = (1+t+t^2)^3 = 1,3,6,7,6,3,1
    assert hilbert_function([P1, P2, P3]) == (1, 3, 6, 7, 6, 3, 1, 0)
    x1, x2, x3 = (Poly.variable(i, 3) for i in (1, 2, 3))
    assert hilbert_function([x1**3, x2**3, x3**3]) == (1, 3, 6, 7, 6, 3, 1, 0)
    h = hilbert_function([x1**3, x1**2 * x2, x1**2 * x3])
    assert h[7] != 0  # common zero line x1 = 0


def _reference_hilbert(u_basis):
    """The Hilbert function from Poly products and exact elimination on every piece."""
    dims = []
    for k in range(8):
        big = monomials(3, k)
        shifts = monomials(3, k - 3) if k >= 3 else ()
        rows = [(Poly.monomial(g) * u).coeff_vector(big) for g in shifts for u in u_basis]
        dims.append(len(big) - len(linalg._echelon(rows)[1]))
    return tuple(dims)


def _mapped_demo_kernel(rng, height):
    """Kernel cubics of the demo nine points under a projective map of the given height."""
    while True:
        mat = [[Fraction(rng.choice((-1, 1)) * rng.randint(height // 2, height), rng.randint(height // 2, height))
                for _ in range(3)] for _ in range(3)]
        if linalg.det(mat):
            break
    pts = NinePointConfig.from_rows(
        [[sum(mat[i][j] * p[j] for j in range(3)) for i in range(3)] for p in demo_points().points]
    )
    return kernel_cubics(moment_matrix(functional_from_tuple(pts, demo_tuple())))


def test_hilbert_function_matches_the_exact_reference():
    rng = random.Random(104)
    cases = [[P1, P2, P3], [Fraction(2, 3) * P1, P2, Fraction(-1, 5) * P3]]
    cases += [_mapped_demo_kernel(rng, 10**4) for _ in range(3)]
    for u_basis in cases:
        assert hilbert_function(u_basis) == _reference_hilbert(u_basis) == (1, 3, 6, 7, 6, 3, 1, 0)
    # a common zero (or a dependent triple) keeps the degree-7 piece below full rank: it falls back too
    x1, x2, x3 = (Poly.variable(i, 3) for i in (1, 2, 3))
    for u_basis in (
        [x1**3, x1**2 * x2, x1**2 * x3],  # the line x1 = 0
        [x1**3, x2**3, x1 * x2 * x3],  # the point (0:0:1)
        [P1, P2, Fraction(1, 3) * P1 - Fraction(5, 7) * P2],  # dependent, non-integer coefficients
        [P1, P2, Poly.zero(3)],
    ):
        h = hilbert_function(u_basis)
        assert h == _reference_hilbert(u_basis)
        assert h[7] != 0


def test_hilbert_function_gl3_invariance():
    rng = random.Random(83)
    done = 0
    while done < 20:
        m = [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
        det = (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )
        if det == 0:
            continue
        new_basis = []
        for row in m:
            q = Poly.zero(3)
            for c, p in zip(row, (P1, P2, P3)):
                if c:
                    q = q + c * p
            new_basis.append(q)
        assert hilbert_function(new_basis) == (1, 3, 6, 7, 6, 3, 1, 0)
        done += 1


def test_empty_zero_check():
    assert empty_zero_check([P1, P2, P3]) is True
    x1, x2, x3 = (Poly.variable(i, 3) for i in (1, 2, 3))
    assert empty_zero_check([x1**3, x2**3, x3**3]) is True
    assert empty_zero_check([x1**3, x1**2 * x2, x1**2 * x3]) is False


def test_strict_positivity():
    # the kernel cubics have no common complex zero, so their sum of squares is positive
    chain = boundary_chain(demo_points(), demo_tuple())
    assert chain.f == PAPER_SEXTIC
    assert chain.positivity is PositivityVerdict.STRICTLY_POSITIVE


def test_boundary_cert_demo():
    alpha = functional_from_tuple(demo_points(), demo_tuple())
    cert = boundary_cert(PAPER_SEXTIC, alpha)
    assert cert.certified
    assert cert.alpha_f == 0
    assert cert.psd_rank == 7
    assert cert.kernel_dim == 3
    assert cert.witness is None  # derived, not supplied: the extraction is the witness
    assert cert.extraction.reconstruct_squares() == PAPER_SEXTIC


def test_boundary_cert_rejects_interior_form():
    alpha = functional_from_tuple(demo_points(), demo_tuple())
    f0 = Poly.parse("x1^6 + x2^6 + x3^6")
    cert = boundary_cert(f0, alpha)
    assert not cert.certified
    assert cert.alpha_f == 42


def test_boundary_cert_rejects_point_evaluation():
    alpha = functional_from_points([(0, 0, 1)], [1])
    f = PAPER_SEXTIC
    cert = boundary_cert(f, alpha)
    assert not cert.certified
    assert cert.psd_rank == 1
    assert "point evaluation" in cert.reason


def test_boundary_cert_accepts_explicit_witness():
    alpha = functional_from_tuple(demo_points(), demo_tuple())
    witness = gram_from_squares(SosRep((P1, P2, P3)))
    cert = boundary_cert(PAPER_SEXTIC, alpha, witness=witness)
    assert cert.certified and cert.witness is witness


def test_boundary_cert_rejects_a_witness_of_another_form():
    alpha = functional_from_tuple(demo_points(), demo_tuple())
    witness = gram_from_squares(SosRep((P1, P2, 2 * P3)))
    cert = boundary_cert(PAPER_SEXTIC, alpha, witness=witness)
    assert not cert.certified
    assert cert.reason == "supplied witness is not a Gram point of f"


def test_uniqueness_cert_demo():
    alpha = functional_from_tuple(demo_points(), demo_tuple())
    cert = uniqueness_cert(boundary_cert(PAPER_SEXTIC, alpha))
    assert cert.certified
    assert cert.quadratically_independent
    assert cert.restricted_gram == SymMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert set(cert.kernel_basis) == {P1, P2, P3}
    assert set(cert.sos_polys) == {P1, P2, P3}
    assert cert.sos_weights == (1, 1, 1)


def test_uniqueness_cert_scaling_invariance():
    alpha = functional_from_tuple(demo_points(), demo_tuple())
    cert5 = uniqueness_cert(boundary_cert(PAPER_SEXTIC, _scaled(alpha, 5)))
    assert cert5.certified
    assert cert5.restricted_gram == SymMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert set(cert5.kernel_basis) == {P1, P2, P3}


def test_uniqueness_cert_interior_precondition_fails():
    alpha = functional_from_tuple(demo_points(), demo_tuple())
    f0 = Poly.parse("x1^6 + x2^6 + x3^6")
    cert = uniqueness_cert(boundary_cert(f0, alpha))
    assert not cert.certified
    assert "boundary certificate failed" in cert.reason


def test_boundary_cert_rejects_indefinite_kernel_gram():
    # alpha(f) = 0, but the unique Gram matrix on the kernel cubics is diag(1, -1, 1)
    alpha = functional_from_tuple(demo_points(), demo_tuple())
    f = P1 * P1 - P2 * P2 + P3 * P3
    assert alpha(f) == 0
    cert = boundary_cert(f, alpha)
    assert not cert.certified
    assert cert.psd_rank == 7 and cert.kernel_dim == 3
    assert "not SOS" in cert.reason and "indefinite" in cert.reason
    assert "boundary certificate failed" in uniqueness_cert(cert).reason


def test_boundary_cert_rejects_form_outside_the_kernel_products():
    # x1^3 p1 lies in U*A3 = ker(alpha) but not in the span of the p_i p_j
    alpha = functional_from_tuple(demo_points(), demo_tuple())
    f = Poly.variable(1, 3) ** 3 * P1
    assert alpha(f) == 0
    cert = boundary_cert(f, alpha)
    assert not cert.certified
    assert "not SOS" in cert.reason and "span" in cert.reason


def _raising(exc):
    def extract(*args, **kwargs):
        raise exc

    return extract


def test_boundary_cert_dependent_kernel_products_need_a_witness(monkeypatch):
    alpha = functional_from_tuple(demo_points(), demo_tuple())
    monkeypatch.setattr(boundary, "extract_qsos", _raising(NotQuadraticallyIndependent("dependent")))
    with pytest.raises(MissingGramWitness):
        boundary_cert(PAPER_SEXTIC, alpha)


def test_boundary_cert_lets_program_errors_through(monkeypatch):
    alpha = functional_from_tuple(demo_points(), demo_tuple())
    monkeypatch.setattr(boundary, "extract_qsos", _raising(AssertionError("reconstruction differs")))
    with pytest.raises(AssertionError):
        boundary_cert(PAPER_SEXTIC, alpha)


def test_uniqueness_cert_reads_the_boundary_extraction(monkeypatch):
    alpha = functional_from_tuple(demo_points(), demo_tuple())
    bc = boundary_cert(PAPER_SEXTIC, alpha)
    assert bc.extraction is not None and set(bc.kernel) == {P1, P2, P3}
    monkeypatch.setattr(boundary, "extract_qsos", _raising(AssertionError("extracted twice")))
    uc = uniqueness_cert(bc)
    assert uc.certified and uc.restricted_gram is bc.extraction.gram


def test_uniqueness_cert_extracts_after_a_supplied_witness(monkeypatch):
    alpha = functional_from_tuple(demo_points(), demo_tuple())
    bc = boundary_cert(PAPER_SEXTIC, alpha, witness=gram_from_squares(SosRep((P1, P2, P3))))
    assert bc.certified and bc.extraction is None
    uc = uniqueness_cert(bc)
    assert uc.certified and uc.restricted_gram == SymMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    monkeypatch.setattr(boundary, "extract_qsos", _raising(NotQuadraticallyIndependent("dependent")))
    uc = uniqueness_cert(bc)
    assert not uc.certified and uc.quadratically_independent is False


def test_boundary_chain_demo():
    chain = boundary_chain(demo_points(), demo_tuple())
    assert list(chain.u) == DEMO_U and chain.verdict.ok
    assert chain.alpha == functional_from_tuple(demo_points(), demo_tuple())
    assert chain.rank == 7 and set(chain.kernel) == {P1, P2, P3}
    assert chain.f == PAPER_SEXTIC
    assert chain.hilbert == (1, 3, 6, 7, 6, 3, 1, 0)
    assert chain.positivity is PositivityVerdict.STRICTLY_POSITIVE
    assert chain.boundary.certified and chain.boundary.kernel == chain.kernel
    assert chain.uniqueness.certified
    assert chain.uniqueness.restricted_gram is chain.boundary.extraction.gram


def test_boundary_chain_stops_at_a_rejected_tuple():
    chain = boundary_chain(demo_points(), WeightTuple((1, 1, 1, 1, 4, 4, 4, 4, -3)))
    assert not chain.verdict.ok
    assert chain.alpha is None  # built only for an accepted tuple, so nothing is saved
    assert chain.kernel is None and chain.rank is None and chain.boundary is None


def test_boundary_chain_moment_matrix_not_psd_is_a_failed_check(monkeypatch):
    monkeypatch.setattr(boundary, "kernel_cubics", _raising(NotPsd("indefinite")))
    with pytest.raises(CheckFailed, match="accepted tuple is not PSD"):
        boundary_chain(demo_points(), demo_tuple())


@pytest.mark.parametrize("kernel, moment_rank", [((P1, P2), 8), ((P1, P2, P3, P1 + P2), 6)])
def test_boundary_chain_moment_rank_other_than_7_is_a_failed_check(monkeypatch, kernel, moment_rank):
    monkeypatch.setattr(boundary, "kernel_cubics", lambda b: list(kernel))
    with pytest.raises(CheckFailed, match=f"accepted tuple has rank {moment_rank}, not 7"):
        boundary_chain(demo_points(), demo_tuple())


def test_kernel_functional_identities_demo():
    # ker(alpha) = U*A3, both 27-dimensional inside the 28-dim sextics
    alpha = functional_from_tuple(demo_points(), demo_tuple())
    big = monomials(3, 6)
    rows = []
    for gamma in monomials(3, 3):
        shift = Poly.monomial(gamma)
        for u in (P1, P2, P3):
            rows.append((shift * u).coeff_vector(big))
    u_a3, _ = rref(rows)
    assert len(u_a3) == 27
    # every element of U*A3 is annihilated by alpha
    for row in u_a3:
        assert sum(c * v for c, v in zip(alpha.coeffs, row)) == 0
    # and ker(alpha) has dimension 27 = 28 - 1, so the spans agree
    from ratsos.linalg import nullspace

    assert rank([list(alpha.coeffs)]) == 1
    ker_alpha = rref(nullspace([list(alpha.coeffs)]))[0]
    assert len(ker_alpha) == 27
    assert rref(u_a3 + ker_alpha)[0] == rref(u_a3)[0]

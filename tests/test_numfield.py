import random
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings, strategies as st

from ratsos import numfield
from ratsos.errors import (
    CheckFailed,
    DegreeTooSmall,
    DimensionMismatch,
    GaloisDataMissing,
    NotMonic,
    NotSquarefree,
    Reducible,
    ZeroPolynomial,
)
from ratsos.numfield import (
    Conclusion,
    GeneralPosition,
    canonical_linear_form,
    general_position,
    isolate_roots,
    norm_form,
    obstruction_check,
    quartic_galois,
)
from ratsos.permgroup import GroupDesc, Perm, compose, invert
from ratsos.poly import Poly, UniPoly
from ratsos.resultants import resultant
from ratsos.sturm import count_real_roots, sturm_chain

U = UniPoly.parse
x1 = Poly.variable(1, 3)
x2 = Poly.variable(2, 3)
x3 = Poly.variable(3, 3)


def squarefree(m: UniPoly) -> bool:
    return sturm_chain(m)[0].degree() == m.degree()


def test_isolate_t2_plus_1():
    rs = isolate_roots(U("t^2+1"))
    assert rs.degree == 2
    assert count_real_roots(rs.chain) == 0
    assert rs.pairing == Perm.parse("(1 2)")
    lo = rs.boxes[0]  # sorted: -i first
    assert lo.im.hi < 0 and rs.boxes[1].im.lo > 0
    for box in rs.boxes:
        assert box.re.contains(0)


def test_isolate_t4_plus_2():
    rs = isolate_roots(U("t^4+2"))
    assert count_real_roots(rs.chain) == 0
    # roots 2^(1/4) e^(i pi/4), ... sorted by (re, im):
    # idx 0,1 have re < 0 (args 5pi/4, 3pi/4), idx 2,3 re > 0 (7pi/4, pi/4)
    mag = 2 ** 0.25 / 2 ** 0.5
    expected = [(-mag, -mag), (-mag, mag), (mag, -mag), (mag, mag)]
    for box, (er, ei) in zip(rs.boxes, expected):
        assert abs(complex(*map(float, _centre(box))) - complex(er, ei)) < 1e-3
    # tau pairs {pi/4, 7pi/4} and {3pi/4, 5pi/4}: indices (2 3) and (0 1)
    assert rs.pairing == Perm.parse("(1 2)(3 4)")


def test_isolate_real_roots_flagged():
    rs = isolate_roots(U("t^4-t-1"))
    assert count_real_roots(rs.chain) == 2
    fixed = rs.pairing.fixed_points()
    assert len(fixed) == 2  # two real roots stay put under conjugation
    for i in fixed:
        assert rs.boxes[i].im.lo == -rs.boxes[i].im.hi


def test_isolate_rejects_repeated_roots():
    with pytest.raises(NotSquarefree):
        isolate_roots(U("t^2 - 2*t + 1"))


def test_norm_form_gaussian():
    f = norm_form(U("t^2+1"), (UniPoly([1]), UniPoly([0, 1])))
    assert f == Poly.parse("x1^2 + x2^2", nvars=2)


def test_norm_form_canonical_quadratic():
    f = norm_form(U("t^2+1"))
    assert f == (x1 - x3) ** 2 + x2**2


def test_norm_form_checks():
    with pytest.raises(NotMonic):
        norm_form(U("2*t^2+1"))
    with pytest.raises(NotSquarefree):
        norm_form(U("t^2-2*t+1"))


def test_norm_form_integer_coefficients():
    # integer monic m and integer l give integer coefficients of degree 2d
    f = norm_form(U("t^4+t+1"))
    assert f.is_homogeneous() and f.degree() == 4
    for c in f.terms.values():
        assert c.denominator == 1


def test_norm_form_numeric_oracle_random():
    import random

    rng = random.Random(47)
    checked = 0
    while checked < 12:  # acceptance runs the spec-scale 50
        deg = rng.choice([4, 6])
        m = UniPoly([rng.randint(-4, 4) for _ in range(deg)] + [1])
        if not m or m.degree() != deg or not squarefree(m):
            continue
        checked += 1
        f = norm_form(m)
        with mpmath.workprec(256):
            roots = mpmath.polyroots([float(c) for c in reversed(m.coeffs)], maxsteps=200, extraprec=256)
            prod = {(0, 0, 0): mpmath.mpc(1)}
            for a in roots:
                lin = {(1, 0, 0): mpmath.mpc(1), (0, 1, 0): a, (0, 0, 1): a * a}
                new = {}
                for e1, c1 in prod.items():
                    for e2, c2 in lin.items():
                        e = tuple(p + q for p, q in zip(e1, e2))
                        new[e] = new.get(e, mpmath.mpc(0)) + c1 * c2
                prod = new
            residual = max(
                abs(prod.get(e, mpmath.mpc(0)) - complex(f.coefficient(e)))
                for e in set(prod) | set(f.terms)
            )
            assert residual < mpmath.mpf(10) ** -20


def test_norm_form_zero_linear_form():
    with pytest.raises(ZeroPolynomial):
        norm_form(U("t^2+1"), (UniPoly(), UniPoly()))


def test_norm_form_reduces_high_degree_coefficients():
    # t^4 = -t - 1 in Q[t]/(t^4+t+1), so t^5 - 2t and -t^2 - 3t name the same element
    m = U("t^4+t+1")
    high = norm_form(m, (U("t^5-2*t"), U("3+t^4")))
    low = norm_form(m, (U("-t^2-3*t"), U("2-t")))
    assert high == low
    assert high == resultant([Fraction(c) for c in m.coeffs], _linear_form_coeffs((U("t^5-2*t"), U("3+t^4"))))


def _linear_form_coeffs(lin):
    """l(t; x) = sum_j lin_j(t) x_j as Poly coefficients in t, for the Sylvester oracle."""
    nvars = len(lin)
    deg = max(c.degree() for c in lin)
    return [
        Poly(nvars, {tuple(int(i == j) for i in range(nvars)): c[k] for j, c in enumerate(lin)})
        for k in range(deg + 1)
    ]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(-4, 4), min_size=n, max_size=n),
            st.lists(
                st.lists(st.fractions(-3, 3, max_denominator=3), min_size=1, max_size=n + 2),
                min_size=1,
                max_size=3,
            ),
        )
    )
)
def test_norm_form_equals_sylvester_resultant(data):
    # the Sylvester/Laplace resultant is the oracle for the pencil determinant;
    # lin coefficients reach t-degree n + 1, beyond the reduction modulo m
    low, lin_coeffs = data
    m = UniPoly(low + [1])
    assume(squarefree(m))
    lin = tuple(UniPoly(c) for c in lin_coeffs)
    assume(any(lin))
    nvars = len(lin)
    oracle = resultant([Poly.constant(nvars, c) for c in m.coeffs], _linear_form_coeffs(lin))
    assert norm_form(m, lin) == oracle


def test_norm_form_degree_10_binary_against_conjugates():
    rng = random.Random(10)
    n = 10
    while True:
        m = UniPoly([rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(n)] + [1])
        if squarefree(m):
            break
    lin = tuple(UniPoly([rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(n)]) for _ in range(2))
    start = time.perf_counter()
    f = norm_form(m, lin)
    assert time.perf_counter() - start < 1.0
    assert f.is_homogeneous() and f.degree() == n
    with mpmath.workdps(80):
        roots = mpmath.polyroots([int(c) for c in reversed(m.coeffs)], maxsteps=400, extraprec=400)
        for x in ((1, 0), (0, 1), (2, -3), (-1, 4)):
            prod = mpmath.mpc(1)
            for a in roots:
                prod *= sum(mpmath.polyval([int(c) for c in reversed(e.coeffs)], a) * xj for e, xj in zip(lin, x))
            assert f.evaluate(x) == int(mpmath.nint(prod.real))
            assert abs(prod.imag) < 1e-30


def test_verified_upper_root_failed_bracket_raises(monkeypatch):
    # a bracketing start of 1 in place of 2^ceil(e/k) is below the root of 100
    monkeypatch.setattr(numfield, "Fraction", lambda *args: Fraction(1))
    with pytest.raises(CheckFailed, match="too small"):
        numfield._verified_upper_root(Fraction(100), 2)


def test_general_position_canonical():
    assert general_position(isolate_roots(U("t^4+t+1"))) is GeneralPosition.EXACT_VANDERMONDE
    assert general_position(isolate_roots(U("t^4+2"))) is GeneralPosition.EXACT_VANDERMONDE


def test_general_position_numeric():
    lin = (UniPoly([1]), UniPoly([0, 1]), UniPoly([0, 0, 0, 1]))  # 1, t, t^3
    assert general_position(isolate_roots(U("t^4+2")), lin) is GeneralPosition.NUMERIC_CERTIFIED


def test_general_position_degenerate():
    lin = (UniPoly([1]), UniPoly(), UniPoly())  # l = x1: all conjugates equal
    assert general_position(isolate_roots(U("t^4+2")), lin) is GeneralPosition.INCONCLUSIVE


def test_quartic_galois_s4():
    qg = quartic_galois(U("t^4+t+1"))
    assert qg.group.label == "S4"
    assert qg.resolvent == U("t^3 - 4*t - 1")
    assert qg.discriminant == 229
    assert qg.group.chain().order == 24


def test_quartic_galois_resolvent_with_two_rational_roots_raises(monkeypatch):
    # 2 and 3 are not squares, so the reducibility screen passes them on
    true_roots = numfield.rational_roots
    monkeypatch.setattr(
        numfield,
        "rational_roots",
        lambda p, chain=(): [Fraction(2), Fraction(3)] if p.degree() == 3 else true_roots(p, chain),
    )
    with pytest.raises(CheckFailed, match="2 rational roots"):
        quartic_galois(U("t^4+t+1"))


def test_quartic_galois_d4():
    qg = quartic_galois(U("t^4+2"))
    assert qg.group.label == "D4"
    assert qg.resolvent == U("t^3 - 8*t")
    assert qg.group.chain().order == 8
    # tau must lie in the emitted group
    assert qg.roots.pairing.images in qg.group.chain().elements()


def test_quartic_galois_v4():
    qg = quartic_galois(U("t^4+1"))
    assert qg.group.label == "V4"
    assert qg.group.chain().order == 4


def test_quartic_galois_c4():
    # t^4 + t^3 + t^2 + t + 1 (5th cyclotomic) has Galois group C4
    qg = quartic_galois(U("t^4+t^3+t^2+t+1"))
    assert qg.group.label == "C4"
    assert qg.group.chain().order == 4


def test_quartic_galois_a4():
    # x^4 + 8x + 12 is the standard A4 quartic (disc 331776 = 576^2)
    qg = quartic_galois(U("t^4+8*t+12"))
    assert qg.group.label == "A4"
    assert qg.group.chain().order == 12


def test_quartic_galois_rejects_reducible():
    with pytest.raises(Reducible):
        quartic_galois(U("t^4-1"))
    with pytest.raises(Reducible):
        quartic_galois(U("t^4+4"))  # = (t^2+2t+2)(t^2-2t+2)
    with pytest.raises(Reducible):
        quartic_galois(U("t^4+2*t^2+1"))  # repeated roots


def test_obstruction_s4_quartic():
    cert = obstruction_check(U("t^4+t+1"))
    assert cert.conclusion is Conclusion.NOT_Q_SOS
    assert cert.c == 3 and cert.d == 2
    assert cert.group_label == "S4"
    assert cert.general_position_verdict is GeneralPosition.EXACT_VANDERMONDE
    assert cert.membership_verified
    assert "NotQSos" in cert.render()


def test_obstruction_d4_quartic_no_obstruction():
    cert = obstruction_check(U("t^4+2"))
    assert cert.conclusion is Conclusion.NO_OBSTRUCTION
    assert cert.c == 2  # the dihedral sharpness value c = d
    assert cert.group_label == "D4"


LABELLED_QUARTICS = {
    "S4": ([1, 1, 0, 0, 1], 24),
    "A4": ([12, 8, 0, 0, 1], 12),
    "D4": ([2, 0, 0, 0, 1], 8),
    "C4": ([1, 1, 1, 1, 1], 4),
    "V4": ([1, 0, 0, 0, 1], 4),
}


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(sorted(LABELLED_QUARTICS)),
    st.integers(-50, 50).filter(bool),
    st.integers(-50, 50),
)
def test_quartic_labels_are_invariant_under_rational_substitution(label, q, k):
    # q^4 m((t - k)/q) = sum_i a_i q^(4-i) (t - k)^i is monic and generates the same field
    coeffs, order = LABELLED_QUARTICS[label]
    image = UniPoly()
    for i, a in enumerate(coeffs):
        image = image + UniPoly([a * q ** (4 - i)]) * UniPoly([-k, 1]) ** i
    qg = quartic_galois(image)
    chain = qg.group.chain()
    assert qg.group.label == label
    assert chain.order == order
    # complex conjugation lies in every Galois group
    assert qg.roots.pairing.images in chain


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=3, max_size=9))
def test_isolated_boxes_are_sorted_disjoint_and_paired_by_conjugation(coeffs):
    m = UniPoly(coeffs)
    assume(m.degree() >= 2 and squarefree(m))
    rs = isolate_roots(m)
    corners = [(box.re.lo, box.im.lo) for box in rs.boxes]
    assert corners == sorted(corners)
    assert not any(rs.boxes[i].overlaps(rs.boxes[j]) for i in range(rs.degree) for j in range(i + 1, rs.degree))
    pairing = rs.pairing.images
    assert compose(pairing, pairing) == tuple(range(rs.degree))  # an involution, or the identity
    assert len(rs.pairing.fixed_points()) == count_real_roots(rs.chain)
    for box, partner in zip(rs.boxes, pairing):
        assert box.conjugate().overlaps(rs.boxes[partner])


@pytest.mark.parametrize("m, gens", [("t^6+t+1", "(1 2 3 4 5 6 7 8)"), ("t^4+t+1", "(1 2 3 4 5 6)")])
def test_obstruction_rejects_a_group_on_other_than_deg_m_points(m, gens):
    with pytest.raises(DimensionMismatch):
        obstruction_check(U(m), group=GroupDesc.from_text(gens))


def test_obstruction_degree_too_small():
    with pytest.raises(DegreeTooSmall):
        obstruction_check(U("t^2+1"))


def test_obstruction_requires_galois_beyond_quartics():
    with pytest.raises(GaloisDataMissing):
        obstruction_check(U("t^6+t^3+3"))


# one representative of each of the 11 conjugacy classes of subgroups of S4
S4_SUBGROUP_CLASSES = ["()", "(1 2)", "(1 2)(3 4)", "(1 2 3)", "(1 2),(3 4)", "(1 2)(3 4),(1 3)(2 4)",
                       "(1 2 3 4)", "(1 2 3),(1 2)", "(1 2 3 4),(1 3)", "(1 2 3),(2 3 4)", "(1 2 3 4),(1 2)"]


def test_cycle_types_separate_the_subgroup_classes_of_s4():
    rng = random.Random(5)
    types = []
    for gens in S4_SUBGROUP_CLASSES:
        group = GroupDesc.from_text(gens, 4)
        by = tuple(rng.sample(range(4), 4))
        conjugate = GroupDesc(4, tuple(Perm(compose(by, compose(g.images, invert(by)))) for g in group.generators))
        types.append(numfield._cycle_types(group.chain()))
        assert numfield._cycle_types(conjugate.chain()) == types[-1]
    assert len({tuple(t) for t in types}) == 11


def test_obstruction_with_supplied_galois_sextic():
    # K = Q(zeta_7): Galois group C6 acting regularly; tau = inversion.
    m = U("t^6+t^5+t^4+t^3+t^2+t+1")
    rs = isolate_roots(m)
    group = GroupDesc(6, (_regular_c6_generator(rs),), "C6")
    cert = obstruction_check(m, group=group)
    assert cert.conclusion is Conclusion.NO_OBSTRUCTION  # abelian: c = 1
    assert cert.c == 1
    assert cert.group_label == "C6"


def _centre(box):
    return (box.re.lo + box.re.hi) / 2, (box.im.lo + box.im.hi) / 2


def _regular_c6_generator(rs):
    # multiplication zeta -> zeta^3 (3 generates (Z/7)*) permutes the root boxes
    centres = [complex(*map(float, _centre(box))) for box in rs.boxes]
    images = [0] * 6
    for i, z in enumerate(centres):
        w = z**3
        dists = [abs(w - u) for u in centres]
        images[i] = dists.index(min(dists))
    return Perm(images)


def test_obstruction_not_totally_imaginary():
    cert = obstruction_check(U("t^4-t-1"))
    assert cert.conclusion is Conclusion.NO_OBSTRUCTION
    assert any(r.name == "totally imaginary" and r.status == "fail" for r in cert.checks)


def test_pairing_boxes_mirror_each_other():
    for poly in ("t^2+1", "t^4+2", "t^4+t+1", "t^6+t^3+3"):
        rs = isolate_roots(U(poly))
        assert count_real_roots(rs.chain) == 0
        assert rs.pairing.is_involution() and rs.pairing.is_fixed_point_free()
        for i, box in enumerate(rs.boxes):
            j = rs.pairing.images[i]
            assert box.conjugate().overlaps(rs.boxes[j])


def test_obstruction_monotone_on_inconclusive_general_position():
    # degenerate linear form: general position is Inconclusive, so the
    # certificate must not conclude NotQSos even though c >= d + 1
    lin = (UniPoly([1]), UniPoly(), UniPoly())
    cert = obstruction_check(U("t^4+t+1"), lin)
    assert cert.conclusion is Conclusion.NO_OBSTRUCTION
    assert cert.general_position_verdict is GeneralPosition.INCONCLUSIVE

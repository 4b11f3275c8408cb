from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ratsos.errors import ParseError
from ratsos.poly import Poly, UniPoly, monomials, parse_rational, primitive_vector

x1 = Poly.variable(1, 3)
x2 = Poly.variable(2, 3)
x3 = Poly.variable(3, 3)


def test_grammar_example_round_trip():
    s = "7/2*x1^4*x3^2 - x2^6"
    p = Poly.parse(s)
    assert p.nvars == 3
    assert p.coefficient((4, 0, 2)) == Fraction(7, 2)
    assert p.coefficient((0, 6, 0)) == -1
    assert str(p) == s
    assert Poly.parse(str(p)) == p


def test_parse_variants():
    assert Poly.parse("x1") == Poly.variable(1, 1)
    assert Poly.parse("-x1 + x1") == Poly.zero(1)
    assert Poly.parse("3") == Poly.constant(1, 3)
    assert Poly.parse("0") == Poly.zero(1)
    assert Poly.parse("2*x1*x1") == Poly.parse("2*x1^2")
    assert Poly.parse("x2", nvars=3).nvars == 3
    with pytest.raises(ParseError):
        Poly.parse("x0")
    with pytest.raises(ParseError):
        Poly.parse("x1 + + x2")
    with pytest.raises(ParseError):
        Poly.parse("y1")
    with pytest.raises(ParseError):
        Poly.parse("x3", nvars=2)


def test_monomial_order_graded_lex():
    assert monomials(3, 2) == (
        (2, 0, 0),
        (1, 1, 0),
        (1, 0, 1),
        (0, 2, 0),
        (0, 1, 1),
        (0, 0, 2),
    )
    assert len(monomials(3, 3)) == 10
    assert len(monomials(3, 6)) == 28


def test_poly_arithmetic():
    p = (x1 + x2) * (x1 - x2)
    assert p == x1 * x1 - x2 * x2
    assert (x1 + x2) ** 2 == x1**2 + 2 * x1 * x2 + x2**2
    assert not (x1 - x1)
    q = Fraction(1, 2) * x1
    assert q.coefficient((1, 0, 0)) == Fraction(1, 2)
    assert (x1 / 2) == q


def test_degree_and_homogeneity():
    p = x1**3 + x2 * x3 + Poly.constant(3, 5)
    assert p.degree() == 3
    assert not p.is_homogeneous()
    assert (x1**2 + x2**2).is_homogeneous()
    assert Poly.zero(3).degree() == -1


def test_evaluate():
    p = x1**2 + 2 * x2 - x3
    assert p.evaluate([1, Fraction(1, 2), 3]) == 1 + 1 - 3
    with pytest.raises(ValueError):
        # mixed-degree terms do not fit a homogeneous basis
        p.coeff_vector(monomials(3, 2))


def test_coeff_vector_round_trip():
    basis = monomials(3, 3)
    p = x1**3 - 2 * x1 * x2 * x3 + Fraction(5, 7) * x3**3
    vec = p.coeff_vector(basis)
    assert Poly.from_coeff_vector(3, basis, vec) == p


@st.composite
def rationals(draw, max_num=60):
    num = draw(st.integers(min_value=-max_num, max_value=max_num))
    den = draw(st.integers(min_value=1, max_value=12))
    return Fraction(num, den)


@st.composite
def polys(draw):
    nvars = draw(st.integers(min_value=1, max_value=3))
    nterms = draw(st.integers(min_value=0, max_value=6))
    terms = {}
    for _ in range(nterms):
        exp = tuple(draw(st.integers(min_value=0, max_value=4)) for _ in range(nvars))
        terms[exp] = draw(rationals())
    return Poly(nvars, terms)


@given(polys())
def test_poly_string_round_trip(p):
    assert Poly.parse(str(p), nvars=p.nvars) == p


@given(polys(), polys())
def test_poly_ring_laws(p, q):
    if p.nvars != q.nvars:
        return
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) - q == p


@pytest.mark.parametrize(
    "template",
    [
        "{v}+",  # dangling sign
        "{v}+-{v}",
        "+",
        "{v}+*{v}",  # empty term
        "2*",
        "{v}**{v}",
        "1/0*{v}",
        "{v}^2-1/0",
        "{v}*2",  # coefficient after a variable
        "2*{v}*3",
        "2*3*{v}",  # a second coefficient
    ],
)
def test_both_parsers_reject_the_same_malformed_terms(template):
    with pytest.raises(ParseError):
        Poly.parse(template.format(v="x1"))
    with pytest.raises(ParseError):
        UniPoly.parse(template.format(v="t"))


def test_unipoly_parse_and_print():
    m = UniPoly.parse("t^4+t+1")
    assert m.coeffs == (1, 1, 0, 0, 1)
    assert str(m) == "t^4 + t + 1"
    assert UniPoly.parse(str(m)) == m
    with pytest.raises(ParseError):  # the variable is always t
        UniPoly.parse("y^2 - 2*y + 1")
    assert UniPoly.parse("-t") == UniPoly([0, -1])
    assert UniPoly.parse("3/2") == UniPoly([Fraction(3, 2)])


def test_unipoly_divmod_gcd():
    a = UniPoly.parse("t^3 - 1")
    b = UniPoly.parse("t - 1")
    q, r = divmod(a, b)
    assert not r
    assert q == UniPoly.parse("t^2 + t + 1")
    assert a.gcd(UniPoly.parse("t^2 - 1")) == UniPoly.parse("t - 1")
    assert a.gcd(UniPoly.parse("t + 2")).degree() == 0


def test_unipoly_squarefree():
    assert UniPoly.parse("t^2+1").is_squarefree()
    sq = UniPoly.parse("t^2 - 2*t + 1")
    assert not sq.is_squarefree()
    assert sq.squarefree_part() == UniPoly.parse("t - 1")


@given(st.lists(rationals(), max_size=6), st.lists(rationals(), max_size=6))
def test_unipoly_divmod_invariant(ac, bc):
    a, b = UniPoly(ac), UniPoly(bc)
    if not b:
        return
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree() < b.degree()


def test_parse_rational_and_primitive_vector():
    assert parse_rational("7/2") == Fraction(7, 2)
    assert parse_rational("-3") == -3
    with pytest.raises(ParseError):
        parse_rational("a/b")
    v = primitive_vector([Fraction(-1, 2), Fraction(1, 3), Fraction(0)])
    assert v == [3, -2, 0]
    assert primitive_vector([0, 0]) == [0, 0]

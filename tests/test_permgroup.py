import random

import pytest

from ratsos import permgroup
from ratsos.errors import CheckFailed, HasFixedPoint, NotInGroup, NotInvolution, OrderExceeded, ParseError
from ratsos.permgroup import (
    GroupDesc,
    Perm,
    act_ordered_pair,
    act_point,
    act_unordered_pair,
    char_number,
    classify,
    classify_catalog,
    enumerate_group,
    fpf_involution_classes,
    is_two_transitive,
    load_bundled_catalog,
    orbit_closure,
    parse_catalog,
    parse_generators,
)


def G(text, degree=None, label=""):
    return GroupDesc.from_text(text, degree, label)


D4 = G("(1 2 3 4),(1 3)")
S4 = G("(1 2 3 4),(1 2)")
A4 = G("(1 2 3),(2 3 4)")
C2xC2 = G("(1 2)(3 4),(1 3)(2 4)")
C6 = G("(1 2 3 4 5 6)")


def test_perm_parse_and_format():
    p = Perm.parse("(1 2 3 4)")
    assert p.images == (1, 2, 3, 0)
    assert str(p) == "(1 2 3 4)"
    assert Perm.parse("(1 2)(3 4)").images == (1, 0, 3, 2)
    assert Perm.parse("(1,2)(3,4)") == Perm.parse("(1 2)(3 4)")
    assert str(Perm.identity(4)) == "()"
    with pytest.raises(ParseError):
        Perm.parse("(1 2")
    with pytest.raises(ParseError):
        Perm.parse("(1 1 2)")
    with pytest.raises(ParseError):
        Perm.parse("nonsense")


def test_perm_algebra():
    a = Perm.parse("(1 2 3)", 3)
    b = Perm.parse("(1 2)", 3)
    assert (a * b).images == (a * b).images
    # (a*b)(x) = a(b(x)): b sends 1->2, a sends 2->3
    assert (a * b).apply(0) == 2
    assert a * a.inverse() == Perm.identity(3)
    assert a.conjugate(b) == b * a * b.inverse()
    t = Perm.parse("(1 2)(3 4)")
    assert t.is_involution() and t.is_fixed_point_free()
    assert Perm.parse("(1 2)", 3).fixed_points() == [2]
    assert Perm.parse("(1 2 3 4)").cycle_type() == (4,)
    assert t.cycle_type() == (2, 2)


def test_orbit_closure_examples():
    c4 = parse_generators("(1 2 3 4)")
    assert sorted(orbit_closure(c4, [0], act_point)) == [0, 1, 2, 3]
    s4 = S4.generators
    assert len(orbit_closure(s4, [(0, 1)], act_ordered_pair)) == 12
    # D4 on the diagonal pair {1,3}: only the two diagonals
    orbit = orbit_closure(D4.generators, [(0, 2)], act_unordered_pair)
    assert sorted(orbit) == [(0, 2), (1, 3)]


def test_two_transitivity():
    assert is_two_transitive(S4)
    assert not is_two_transitive(D4)
    assert is_two_transitive(A4)


def test_enumerate():
    assert len(enumerate_group(G("(1 2)"))) == 2
    assert len(enumerate_group(D4)) == 8
    with pytest.raises(OrderExceeded) as exc:
        enumerate_group(S4, bound=10)
    assert exc.value.partial_count == 11
    assert len(enumerate_group(S4, bound=24)) == 24


def test_fpf_involution_classes():
    reps = fpf_involution_classes(C2xC2, enumerate_group(C2xC2))
    assert len(reps) == 3  # abelian: each nonidentity element its own class
    reps = fpf_involution_classes(D4, enumerate_group(D4))
    assert len(reps) == 2
    types = sorted(str(t) for t in reps)
    assert "(1 3)(2 4)" in types  # the rotation class
    C3 = G("(1 2 3)")
    assert len(fpf_involution_classes(C3, enumerate_group(C3))) == 0  # odd degree


def test_char_number_examples():
    # paper's dihedral sharpness: reflection of the square has c = 2 = d
    assert char_number(D4, Perm.parse("(1 2)(3 4)")) == 2
    assert char_number(D4, Perm.parse("(1 3)(2 4)")) == 1  # central rotation
    # S4 with any fpf involution: 2-transitive forces c = 3 = |X| - 1
    assert char_number(S4, Perm.parse("(1 2)(3 4)")) == 3
    # abelian regular: M_t(x) = {tx}
    for t in fpf_involution_classes(C2xC2, enumerate_group(C2xC2)):
        assert char_number(C2xC2, t) == 1
    assert char_number(C6, Perm.parse("(1 4)(2 5)(3 6)")) == 1


def test_char_number_errors():
    with pytest.raises(NotInvolution):
        char_number(S4, Perm.parse("(1 2 3)", 4))
    with pytest.raises(HasFixedPoint):
        char_number(S4, Perm.parse("(1 2)", 4))
    with pytest.raises(NotInGroup):
        char_number(G("(1 2)(3 4)"), Perm.parse("(1 3)(2 4)"))


def test_char_number_base_point_dependence_raises(monkeypatch):
    # a pair closure that is not the orbit of {z, tz}: point 1 lies on two pairs, point 4 on none
    monkeypatch.setattr(permgroup, "_pair_closure", lambda group, t: [(0, 1), (0, 2), (1, 2)])
    with pytest.raises(CheckFailed, match="depends on the base point"):
        char_number(D4, Perm.parse("(1 2)(3 4)"))


def test_char_number_invariants():
    # c is a class function and x is never in M_t(x); brute-force cross-check
    rng = random.Random(5)
    for group in (D4, S4, A4, C2xC2, C6):
        elements = enumerate_group(group)
        for t in fpf_involution_classes(group, elements):
            c = char_number(group, t)
            assert 1 <= c <= group.degree - 1
            g = elements[rng.randrange(len(elements))]
            assert char_number(group, t.conjugate(g)) == c
            # brute force M_t(x) over the enumerated group
            for x in range(group.degree):
                m = {(g * t * g.inverse()).apply(x) for g in elements}
                assert len(m) == c
                assert x not in m


def test_classify_d4():
    a = classify(D4)
    assert a.is_transitive and not a.is_two_transitive
    assert a.has_fpf_involution
    assert sorted(k.c for k in a.fpf_classes) == [1, 2]
    assert not a.has_star and not a.has_starstar
    assert a.order == 8


def test_classify_s4_and_c6():
    a = classify(S4)
    assert a.is_two_transitive and a.has_star and a.has_starstar
    a = classify(C6)
    assert a.has_fpf_involution
    assert [k.c for k in a.fpf_classes] == [1]
    assert not a.has_starstar


def test_catalog_parse_round_trip():
    text = "4;D4;(1 2 3 4),(1 3)\n# comment\n4;C4;(1 2 3 4)\n"
    cat = parse_catalog(text)
    assert len(cat) == 2
    assert cat[0].label == "D4"
    assert cat[0].generators == D4.generators
    with pytest.raises(ParseError):
        parse_catalog("4;broken")


def test_bundled_degree4_table():
    catalog = load_bundled_catalog(4)
    table = classify_catalog(catalog)
    assert table.row() == (4, 5, 2, 0, 0)
    assert table.total == 5


def test_bundled_degree6_table_and_labels():
    catalog = load_bundled_catalog(6)
    table = classify_catalog(catalog)
    assert table.row() == (6, 11, 2, 2, 0)
    assert sorted(table.labels_star_not_2trans) == ["6T11", "6T8"]


def test_classify_catalog_lets_a_bug_propagate(monkeypatch):
    def broken(group, bound):
        raise TypeError("a bug, not a failed group")

    monkeypatch.setattr(permgroup, "classify", broken)
    with pytest.raises(TypeError, match="a bug"):
        classify_catalog(load_bundled_catalog(4))


def test_pair_closure_equals_bruteforce_on_catalogs():
    # spot-check here (degree 4 and 6); the acceptance suite covers degree 8 too
    for degree in (4, 6):
        for group in load_bundled_catalog(degree):
            elements = enumerate_group(group)
            for t in fpf_involution_classes(group, elements):
                c = char_number(group, t)
                brute = {(g * t * g.inverse()).apply(0) for g in elements}
                assert len(brute) == c, f"{group.label}: {len(brute)} != {c}"


def test_star_chain_invariants_on_catalogs():
    # (*) <=> c = n-1; (**) <=> 2c > n; (*) implies (**); 2-transitive
    # groups satisfy (*) for every fpf class
    for degree in (4, 6, 8):
        for group in load_bundled_catalog(degree):
            a = classify(group)
            n = group.degree
            for info in a.fpf_classes:
                assert info.satisfies_star == (info.c == n - 1)
                assert info.satisfies_starstar == (2 * info.c > n)
                if info.satisfies_star:
                    assert info.satisfies_starstar
                if a.is_two_transitive:
                    assert info.satisfies_star

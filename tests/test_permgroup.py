import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from ratsos import permgroup
from ratsos.cli import EXIT_INCONCLUSIVE, EXIT_OK, run
from ratsos.errors import (
    CheckFailed,
    DimensionMismatch,
    HasFixedPoint,
    NotInvolution,
    NotTransitive,
    OrderExceeded,
    ParseError,
)
from ratsos.permgroup import (
    GroupDesc,
    Perm,
    StabChain,
    act_unordered_pair,
    char_number,
    classify,
    classify_catalog,
    compose,
    enumerate_group,
    fpf_involution_classes,
    invert,
    load_bundled_catalog,
    orbit_closure,
    parse_catalog,
    parse_generators,
)


def G(text, degree=None):
    return GroupDesc.from_text(text, degree)


D4 = G("(1 2 3 4),(1 3)")
S4 = G("(1 2 3 4),(1 2)")
A4 = G("(1 2 3),(2 3 4)")
C2xC2 = G("(1 2)(3 4),(1 3)(2 4)")
C6 = G("(1 2 3 4 5 6)")


def elements_of(group):
    return enumerate_group(group.chain())


def conjugate(t, g):
    """g t g^-1 on image tuples."""
    return compose(g, compose(t, invert(g)))


def act_point(g, x):
    return g.images[x]


def act_ordered_pair(g, pair):
    return (g.images[pair[0]], g.images[pair[1]])


def transitive_by_closure(group):
    """Reference definition: the orbit of point 1 is all of X."""
    return len(orbit_closure(group.generators, [0], act_point)) == group.degree


def two_transitive_by_closure(group):
    """Reference definition: the ordered-pair orbit of (1, 2) has size n(n-1)."""
    n = group.degree
    return n >= 2 and len(orbit_closure(group.generators, [(0, 1)], act_ordered_pair)) == n * (n - 1)


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


def _scanned_generators(text: str, degree: int | None = None) -> tuple[Perm, ...]:
    """parse_generators with the parenthesis-depth scan it split its list by
    before the split became one regular expression."""
    chunks = []
    depth = 0
    current = ""
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError(f"unbalanced parentheses in {text!r}")
        if ch == "," and depth == 0:
            chunks.append(current)
            current = ""
        else:
            current += ch
    if depth != 0:
        raise ParseError(f"unbalanced parentheses in {text!r}")
    chunks.append(current)
    chunks = [c.strip() for c in chunks if c.strip()]
    if not chunks:
        raise ParseError("no generators given")
    max_point = degree
    if max_point is None:
        pts = [int(p) for p in re.findall(r"\d+", text)]
        max_point = max(pts) if pts else 1
    if max_point < 1:
        raise ParseError(f"generators need a positive degree, got {max_point}")
    return tuple(Perm.parse(c, max_point) for c in chunks)


def _generators_or_error(parse, text, degree):
    try:
        return parse(text, degree)
    except ParseError:
        return ParseError


# points stay below 100: Perm.parse lists as many images as the largest point
POINTS = st.one_of(st.integers(1, 6), st.integers(0, 99)).map(str)
CYCLE_TEXTS = st.lists(POINTS, max_size=4).map(lambda pts: "(" + " ".join(pts) + ")")
PIECES = st.one_of(CYCLE_TEXTS, st.sampled_from(["(", ")", ",", ", ", " ", "1", "(1,2)"]))
GENERATOR_TEXTS = st.one_of(
    st.text(alphabet="(),0123456789 ", max_size=24),
    st.lists(PIECES, max_size=8).map("".join),
).filter(lambda text: not re.search(r"\d{3}", text))


@settings(max_examples=400, deadline=None)
@given(GENERATOR_TEXTS, st.one_of(st.none(), st.integers(1, 99)))
@example("(1 2),(3 4", 4)
@example("(1,2),(3,4)", None)
@example(")(1 2)(", None)
def test_parse_generators_splits_like_the_parenthesis_scan(text, degree):
    assert _generators_or_error(parse_generators, text, degree) == _generators_or_error(
        _scanned_generators, text, degree
    )


def test_perm_algebra():
    a = Perm.parse("(1 2 3)", 3).images
    b = Perm.parse("(1 2)", 3).images
    # compose(a, b)(x) = a(b(x)): b sends 1->2, a sends 2->3
    assert compose(a, b)[0] == 2
    assert compose(a, invert(a)) == Perm.identity(3).images
    assert Perm(conjugate(a, b)) == Perm.parse("(1 3 2)", 3)
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
    assert classify(S4).is_two_transitive and two_transitive_by_closure(S4)
    assert not classify(D4).is_two_transitive and not two_transitive_by_closure(D4)
    assert classify(A4).is_two_transitive and two_transitive_by_closure(A4)


def test_enumerate(monkeypatch):
    assert len(elements_of(G("(1 2)"))) == 2
    assert len(elements_of(D4)) == 8
    monkeypatch.setattr(permgroup, "ENUM_BOUND", 10)
    with pytest.raises(OrderExceeded) as exc:
        elements_of(S4)
    assert exc.value.partial_count == 11
    monkeypatch.setattr(permgroup, "ENUM_BOUND", 24)
    assert len(elements_of(S4)) == 24


def test_fpf_involution_classes():
    reps = fpf_involution_classes(C2xC2, elements_of(C2xC2))
    assert len(reps) == 3  # abelian: each nonidentity element its own class
    reps = fpf_involution_classes(D4, elements_of(D4))
    assert len(reps) == 2
    types = sorted(str(t) for t in reps)
    assert "(1 3)(2 4)" in types  # the rotation class
    C3 = G("(1 2 3)")
    assert len(fpf_involution_classes(C3, elements_of(C3))) == 0  # odd degree


def test_char_number_examples():
    # paper's dihedral sharpness: reflection of the square has c = 2 = d
    assert char_number(D4, Perm.parse("(1 2)(3 4)")) == 2
    assert char_number(D4, Perm.parse("(1 3)(2 4)")) == 1  # central rotation
    # S4 with any fpf involution: 2-transitive forces c = 3 = |X| - 1
    assert char_number(S4, Perm.parse("(1 2)(3 4)")) == 3
    # abelian regular: M_t(x) = {tx}
    for t in fpf_involution_classes(C2xC2, elements_of(C2xC2)):
        assert char_number(C2xC2, t) == 1
    assert char_number(C6, Perm.parse("(1 4)(2 5)(3 6)")) == 1


def test_char_number_errors():
    with pytest.raises(NotInvolution):
        char_number(S4, Perm.parse("(1 2 3)", 4))
    with pytest.raises(HasFixedPoint):
        char_number(S4, Perm.parse("(1 2)", 4))
    with pytest.raises(NotTransitive):
        char_number(G("(1 2)(3 4)"), Perm.parse("(1 2)(3 4)"))
    # membership is the caller's to sift
    assert Perm.parse("(1 3)(2 4)").images not in G("(1 2)(3 4)").chain()


def test_char_number_rejects_an_involution_of_another_degree():
    with pytest.raises(DimensionMismatch):
        char_number(GroupDesc.from_text("(1 2 3 4)"), Perm.parse("(1 2)(3 4)(5 6)"))


def test_char_number_base_point_dependence_raises(monkeypatch):
    # a pair closure that is not the orbit of {z, tz}: point 1 lies on two pairs, point 4 on none
    monkeypatch.setattr(permgroup, "_pair_closure", lambda group, t: [(0, 1), (0, 2), (1, 2)])
    with pytest.raises(CheckFailed, match="depends on the base point"):
        char_number(D4, Perm.parse("(1 2)(3 4)"))


def test_char_number_invariants():
    # c is a class function and x is never in M_t(x); brute-force cross-check
    rng = random.Random(5)
    for group in (D4, S4, A4, C2xC2, C6):
        elements = elements_of(group)
        for t in fpf_involution_classes(group, elements):
            c = char_number(group, t)
            assert 1 <= c <= group.degree - 1
            g = elements[rng.randrange(len(elements))]
            assert char_number(group, Perm(conjugate(t.images, g))) == c
            # brute force M_t(x) over the enumerated group
            for x in range(group.degree):
                m = {conjugate(t.images, g)[x] for g in elements}
                assert len(m) == c
                assert x not in m


def test_classify_d4():
    a = classify(D4)
    assert a.is_transitive and not a.is_two_transitive
    assert a.fpf_classes
    assert sorted(k.c for k in a.fpf_classes) == [1, 2]
    assert not a.has_star and not a.has_starstar
    assert a.order == 8


def test_classify_s4_and_c6():
    a = classify(S4)
    assert a.is_two_transitive and a.has_star and a.has_starstar
    a = classify(C6)
    assert a.fpf_classes
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
    assert sorted(table.columns["star_not_2transitive"]) == ["6T11", "6T8"]


def test_classify_catalog_lets_a_bug_propagate(monkeypatch):
    def broken(group):
        raise TypeError("a bug, not a failed group")

    monkeypatch.setattr(permgroup, "classify", broken)
    with pytest.raises(TypeError, match="a bug"):
        classify_catalog(load_bundled_catalog(4))


def test_pair_closure_equals_bruteforce_on_catalogs():
    # spot-check here (degree 4 and 6); the acceptance suite covers degree 8 too
    for degree in (4, 6):
        for group in load_bundled_catalog(degree):
            elements = elements_of(group)
            for t in fpf_involution_classes(group, elements):
                c = char_number(group, t)
                brute = {conjugate(t.images, g)[0] for g in elements}
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


# -- the stabilizer chain against a breadth-first closure ---------------------


def closure(group):
    """Every element's image tuple, by breadth-first closure under the generators."""
    identity = tuple(range(group.degree))
    seen = {identity}
    queue = [identity]
    for current in queue:
        for g in group.generators:
            nxt = tuple(g.images[x] for x in current)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def fpf_classes_by_element_filter(group, elements):
    """The class minima as found before the chain: sort, filter, then close each class."""
    fpf = [p for p in map(Perm, sorted(elements)) if p.is_involution() and p.is_fixed_point_free()]
    reps, assigned = [], set()
    for t in fpf:
        if t not in assigned:
            assigned.update(orbit_closure(group.generators, [t], lambda g, p: Perm(conjugate(p.images, g.images))))
            reps.append(t)
    return reps


def check_chain_against_closure(group, rng):
    elements = closure(group)
    chain = group.chain()
    assert chain.order == len(elements), group.label
    listed = enumerate_group(chain)
    assert sorted(listed) == sorted(elements), group.label
    n = group.degree
    for _ in range(20):
        p = list(range(n))
        rng.shuffle(p)
        assert (tuple(p) in chain) == (tuple(p) in elements), (group.label, p)
    for q in rng.sample(sorted(elements), min(5, len(elements))):
        assert q in chain
    assert fpf_involution_classes(group, listed) == fpf_classes_by_element_filter(group, listed), group.label


def relabelled(group, rng):
    sigma = list(range(group.degree))
    rng.shuffle(sigma)
    return GroupDesc(group.degree, tuple(Perm(conjugate(g.images, tuple(sigma))) for g in group.generators), group.label)


@pytest.mark.parametrize("degree", [4, 6, 8])
def test_chain_matches_the_closure_on_the_bundled_catalogs(degree):
    rng = random.Random(degree)
    catalog = load_bundled_catalog(degree)
    assert len(catalog) == {4: 5, 6: 16, 8: 50}[degree]
    for group in catalog:
        check_chain_against_closure(group, rng)
    for group in catalog:
        check_chain_against_closure(relabelled(group, rng), rng)


@st.composite
def generator_sets(draw, max_degree=7):
    n = draw(st.integers(1, max_degree))
    gens = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=3))
    return GroupDesc(n, tuple(Perm(g) for g in gens))


@settings(max_examples=150, deadline=None)
@given(generator_sets(), st.randoms(use_true_random=False))
def test_chain_matches_the_closure_on_random_generators(group, rng):
    check_chain_against_closure(group, rng)


@settings(max_examples=200, deadline=None)
@given(generator_sets())
@example(G("()", 1))
@example(G("()", 4))
@example(G("(1 2)(3 4)"))
@example(G("(1 2 3)", 6))
@example(G("(1 2)"))
@example(G("(2 3)(5 6),(1 4 5 6)"))  # its pair counts depend on the base point
def test_classify_reads_transitivity_off_the_chain(group):
    a = classify(group)
    assert a.is_transitive == transitive_by_closure(group)
    assert a.is_transitive or not a.fpf_classes  # c is defined only for a transitive group
    assert a.is_two_transitive == two_transitive_by_closure(group)
    assert a.order == len(closure(group))


def check_char_number_matches_classify(group):
    """``groups char-number`` prints c, (*) and (**) of every class representative
    as ``groups classify`` prints them, and exits 2 with its lines on an
    intransitive group."""
    gens = ["--gens", ",".join(str(g) for g in group.generators), "--degree", str(group.degree)]
    classified = run(["groups", "classify", *gens])
    lines = classified.report.splitlines()
    if classified.exit_code == EXIT_INCONCLUSIVE:
        assert lines[1] == "transitive: False"
        fpf = [t for t in map(Perm, closure(group)) if t.is_involution() and t.is_fixed_point_free()]
        for t in sorted(fpf, key=str)[:3]:
            res = run(["groups", "char-number", *gens, "--inv", str(t)])
            assert (res.exit_code, res.report) == (EXIT_INCONCLUSIVE, classified.report)
        return
    assert classified.exit_code == EXIT_OK
    classes = lines[4:]
    assert lines[3] == f"fpf involution classes: {len(classes)}"
    for line in classes:
        rep, c, conditions = re.fullmatch(r"  t = (.+): c = (\d+), (.+)", line).groups()
        res = run(["groups", "char-number", *gens, "--inv", rep])
        assert (res.exit_code, res.report) == (EXIT_OK, f"c={c}, {conditions}")


@settings(max_examples=150, deadline=None)
@given(generator_sets(max_degree=8))
@example(G("(1 2)(3 4)"))
@example(G("(1 2)(3 4)(5 6),(1 3)"))
@example(G("(2 3)(5 6),(1 4 5 6)"))
def test_char_number_matches_classify_on_random_generators(group):
    check_char_number_matches_classify(group)


@pytest.mark.parametrize("degree", [4, 6, 8])
def test_char_number_matches_classify_on_the_bundled_catalogs(degree):
    for group in load_bundled_catalog(degree):
        check_char_number_matches_classify(group)


def test_chain_of_the_trivial_group():
    chain = G("()", 3).chain()
    assert chain.base == () and chain.order == 1
    assert (0, 1, 2) in chain and (1, 0, 2) not in chain
    assert enumerate_group(chain) == [(0, 1, 2)]


def test_past_bound_group_fails_before_building_an_element(monkeypatch):
    def no_listing(chain):
        raise AssertionError("elements listed past the bound")

    monkeypatch.setattr(StabChain, "elements", no_listing)
    s12 = G("(1 2 3 4 5 6 7 8 9 10 11 12),(1 2)")
    assert s12.chain().order == 479001600
    with pytest.raises(OrderExceeded) as exc:
        classify(s12)
    assert str(exc.value) == "group order exceeds bound 1000000 (found 1000001 elements)"


def test_membership_is_sifted_at_any_group_order():
    a10 = G("(1 2 3),(2 3 4 5 6 7 8 9 10)")
    odd = Perm.parse("(1 2)(3 4)(5 6)(7 8)(9 10)")
    assert a10.chain().order == 1814400
    assert odd.images not in a10.chain()  # an odd involution
    s10 = G("(1 2 3 4 5 6 7 8 9 10),(1 2)")  # order 3628800, past the default bound
    assert odd.images in s10.chain()
    assert char_number(s10, odd) == 9

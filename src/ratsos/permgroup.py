"""Permutation groups given by generators: orbits, transitivity, a
stabilizer chain, and the characteristic-number machinery for
fixed-point-free involutions.

The stabilizer chain (deterministic Schreier-Sims; Sims 1970, Seress,
*Permutation Group Algorithms*, 2003, ch. 4) works on 0-indexed image
tuples.  Level i has a base point b_i and a transversal: for every point of
the orbit of b_i under the stabilizer of b_0..b_{i-1}, one element mapping
b_i there.  The group order is the product of the orbit lengths, every
element is one product u_0 u_1 ... u_{k-1} of transversal elements, and a
permutation is a member iff sifting it level by level (dividing off the
transversal element its base image selects) ends in the identity.  Order
and membership therefore cost polynomial time at any group order; only
``enumerate_group`` lists elements, and only up to ``ENUM_BOUND``.

The characteristic number c of (G, X, t) is the size of the orbit of a
point under the conjugacy class of t.  It is computed by closing the set
of unordered pairs {z, tz} under the generators (at most n(n-1)/2 states)
and counting pairs through a base point -- no group enumeration needed.
Condition (*) is c = |X| - 1 and condition (**) is c > |X|/2; both are
decided on :class:`FpfClassInfo`.
"""

import re
from dataclasses import dataclass
from math import prod
from typing import Callable, Iterable, Sequence

from .errors import (
    CheckFailed,
    DimensionMismatch,
    HasFixedPoint,
    NotInvolution,
    NotTransitive,
    OrderExceeded,
    ParseError,
    RatsosError,
)
from .poly import data_lines

ENUM_BOUND = 10**6  # largest group order that enumerate_group lists


def compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Image tuple of a∘b, i.e. ``x -> a[b[x]]``."""
    return tuple(map(a.__getitem__, b))


def invert(a: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(a)
    for i, j in enumerate(a):
        inv[j] = i
    return tuple(inv)


class Perm:
    """Permutation of {1..n}, stored as a 0-indexed image tuple.

    It parses, validates and prints generators and representatives; the
    group algorithms compose image tuples with :func:`compose` and
    :func:`invert`.
    """

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        img = tuple(images)
        if sorted(img) != list(range(len(img))):
            raise ParseError(f"not a permutation of 0..{len(img) - 1}: {img}")
        object.__setattr__(self, "images", img)

    def __setattr__(self, name, value):
        raise AttributeError("Perm is immutable")

    @classmethod
    def identity(cls, n: int) -> "Perm":
        return cls(range(n))

    @classmethod
    def from_cycles(cls, cycles: Sequence[Sequence[int]], degree: int) -> "Perm":
        """Build from 1-based cycles, e.g. [(1, 2, 3, 4)] on the given degree."""
        images = list(range(degree))
        seen: set[int] = set()
        for cyc in cycles:
            for p in cyc:
                if not 1 <= p <= degree:
                    raise ParseError(f"point {p} outside 1..{degree}")
                if p in seen:
                    raise ParseError(f"point {p} repeated across cycles")
                seen.add(p)
            for a, b in zip(cyc, cyc[1:] + type(cyc)([cyc[0]])):
                images[a - 1] = b - 1
        return cls(images)

    @classmethod
    def parse(cls, text: str, degree: int | None = None) -> "Perm":
        """Parse cycle notation like ``(1 2 3 4)`` or ``(1 2)(3 4)``.

        Points may be separated by spaces or commas inside a cycle.  The
        degree defaults to the largest point mentioned.
        """
        s = text.strip()
        if s in ("()", "", "id"):
            if degree is None:
                raise ParseError("identity needs an explicit degree")
            return cls.identity(degree)
        chunks = re.findall(r"\(([^()]*)\)", s)
        if not chunks:
            raise ParseError(f"no cycles found in {text!r}")
        if re.sub(r"\([^()]*\)|\s", "", s):
            raise ParseError(f"stray characters outside cycles in {text!r}")
        cycles = []
        for chunk in chunks:
            pts = [p for p in re.split(r"[,\s]+", chunk.strip()) if p]
            if not pts:
                continue
            try:
                cycles.append([int(p) for p in pts])
            except ValueError as exc:
                raise ParseError(f"bad cycle {chunk!r}") from exc
        deg = degree if degree is not None else max((p for c in cycles for p in c), default=1)
        return cls.from_cycles(cycles, deg)

    @property
    def degree(self) -> int:
        return len(self.images)

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def is_involution(self) -> bool:
        return not self.is_identity() and all(self.images[self.images[i]] == i for i in range(self.degree))

    def fixed_points(self) -> list[int]:
        return [i for i in range(self.degree) if self.images[i] == i]

    def is_fixed_point_free(self) -> bool:
        return not self.fixed_points()

    def cycle_type(self) -> tuple[int, ...]:
        return tuple(sorted((len(c) for c in self._cycles(include_fixed=True)), reverse=True))

    def _cycles(self, include_fixed: bool = False) -> list[list[int]]:
        seen = [False] * self.degree
        cycles = []
        for start in range(self.degree):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            nxt = self.images[start]
            while nxt != start:
                cyc.append(nxt)
                seen[nxt] = True
                nxt = self.images[nxt]
            if len(cyc) > 1 or include_fixed:
                cycles.append(cyc)
        return cycles

    def __eq__(self, other):
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __str__(self):
        cycles = self._cycles()
        if not cycles:
            return "()"
        return "".join("(" + " ".join(str(p + 1) for p in c) + ")" for c in cycles)

    def __repr__(self):
        return f"Perm({str(self)!r})"


@dataclass(frozen=True)
class GroupDesc:
    """Permutation group on {1..degree} given by generators."""

    degree: int
    generators: tuple[Perm, ...]
    label: str = ""

    def __post_init__(self):
        if self.degree < 1:
            raise DimensionMismatch("degree must be positive")
        if not self.generators:
            raise ParseError("need at least one generator")
        for g in self.generators:
            if g.degree != self.degree:
                raise DimensionMismatch("generator degree mismatch")

    @classmethod
    def from_text(cls, gens_text: str, degree: int | None = None) -> "GroupDesc":
        gens = parse_generators(gens_text, degree)
        return cls(gens[0].degree, gens)

    def chain(self) -> "StabChain":
        return schreier_sims([g.images for g in self.generators], self.degree)


def parse_generators(text: str, degree: int | None = None) -> tuple[Perm, ...]:
    """Parse a comma-separated generator list, e.g. ``(1 2 3 4),(1 3)``.

    The list splits at each comma outside a cycle; ``Perm.parse`` rejects a
    chunk with an unbalanced parenthesis.
    """
    chunks = [c.strip() for c in re.split(r",(?![^()]*\))", text) if c.strip()]
    if not chunks:
        raise ParseError("no generators given")
    max_point = degree
    if max_point is None:
        pts = [int(p) for p in re.findall(r"\d+", text)]
        max_point = max(pts) if pts else 1
    if max_point < 1:
        raise ParseError(f"generators need a positive degree, got {max_point}")
    return tuple(Perm.parse(c, max_point) for c in chunks)


# -- orbit machinery ---------------------------------------------------------


def act_unordered_pair(g: Perm, pair: tuple[int, int]) -> tuple[int, int]:
    a, b = g.images[pair[0]], g.images[pair[1]]
    return (a, b) if a <= b else (b, a)


def orbit_closure(gens: Sequence, seeds: Iterable, action: Callable) -> list:
    """Smallest superset of the seeds closed under ``action(g, state)`` for every generator g.

    Breadth-first with deterministic iteration order (seed order, then
    generator order).
    """
    seen = []
    seen_set = set()
    queue = []
    for s in seeds:
        if s not in seen_set:
            seen_set.add(s)
            seen.append(s)
            queue.append(s)
    head = 0
    while head < len(queue):
        state = queue[head]
        head += 1
        for g in gens:
            nxt = action(g, state)
            if nxt not in seen_set:
                seen_set.add(nxt)
                seen.append(nxt)
                queue.append(nxt)
    return seen


# -- stabilizer chain --------------------------------------------------------


@dataclass(frozen=True)
class StabChain:
    """Stabilizer chain of a permutation group on {0..degree-1}: its order,
    transitivity and 2-transitivity, membership by sifting, and its element
    list.

    ``transversals[i]`` maps each point of the orbit of ``base[i]`` under
    the stabilizer of ``base[:i]`` to an element (image tuple) sending
    ``base[i]`` there; ``inverses[i]`` holds the inverses of those elements.
    """

    degree: int
    base: Sequence[int]
    transversals: Sequence[dict[int, tuple[int, ...]]]
    inverses: Sequence[dict[int, tuple[int, ...]]]

    @property
    def order(self) -> int:
        return prod(len(t) for t in self.transversals)

    @property
    def is_transitive(self) -> bool:
        """Whether the orbit of the first base point is every point."""
        return self._orbit_length(0) == self.degree

    @property
    def is_two_transitive(self) -> bool:
        """Whether the group is transitive and the stabilizer of the first
        base point is transitive on the other points."""
        return self.degree >= 2 and self.is_transitive and self._orbit_length(1) == self.degree - 1

    def _orbit_length(self, level: int) -> int:
        # levels past the base are trivial
        return len(self.transversals[level]) if level < len(self.transversals) else 1

    def sift(self, images: tuple[int, ...], start: int = 0) -> tuple[tuple[int, ...], int]:
        """Divide off transversal elements from level ``start`` down.

        Returns the residue and the level where sifting stopped
        (``len(base)`` when every level matched).
        """
        for level in range(start, len(self.base)):
            u_inv = self.inverses[level].get(images[self.base[level]])
            if u_inv is None:
                return images, level
            images = compose(u_inv, images)
        return images, len(self.base)

    def __contains__(self, images: tuple[int, ...]) -> bool:
        residue, _ = self.sift(images)
        return residue == tuple(range(self.degree))

    def elements(self) -> list[tuple[int, ...]]:
        """Every element once, as u_0 u_1 ... u_{k-1} over the levels (unsorted)."""
        elements = [tuple(range(self.degree))]
        for transversal in reversed(self.transversals):
            elements = [tuple(map(u.__getitem__, e)) for u in transversal.values() for e in elements]
        return elements


def schreier_sims(gens: Sequence[tuple[int, ...]], degree: int) -> StabChain:
    """Deterministic Schreier-Sims on image tuples (Seress 2003, §4.2).

    Level i keeps the strong generators that fix ``base[:i]`` and the orbit
    of ``base[i]`` under them.  A Schreier generator of level i that does
    not sift to the identity through the levels below is added, as its
    residue, to every level from i + 1 to where the sift stopped (a new
    level with the residue's first moved point as base point if it passed
    them all).  Each (orbit point, generator) pair is tested once: once a
    Schreier generator lies in the group of the level below it stays
    there, since orbits and transversal entries only grow.  The chain is
    complete when no level has an untested pair.
    """
    identity = tuple(range(degree))
    base: list[int] = []
    strong: list[list[tuple[int, ...]]] = []
    orbits: list[list[int]] = []
    transversals: list[dict[int, tuple[int, ...]]] = []
    inverses: list[dict[int, tuple[int, ...]]] = []
    tested: list[set[tuple[int, int]]] = []
    chain = StabChain(degree, base, transversals, inverses)  # a view of the growing lists

    def add_level(g):
        b = next(x for x in range(degree) if g[x] != x)
        base.append(b)
        strong.append([])
        orbits.append([b])
        transversals.append({b: identity})
        inverses.append({b: identity})
        tested.append(set())

    def add_strong(level, g):
        gens, orbit = strong[level], orbits[level]
        transversal, inverse = transversals[level], inverses[level]
        gens.append(g)
        old, i = len(orbit), 0
        while i < len(orbit):  # the new generator on old points, all on new ones
            for s in gens if i >= old else (g,):
                x = s[orbit[i]]
                if x not in transversal:
                    u = compose(s, transversal[orbit[i]])
                    transversal[x] = u
                    inverse[x] = invert(u)
                    orbit.append(x)
            i += 1

    def untested_residue(level):
        transversal, inverse, done = transversals[level], inverses[level], tested[level]
        for x in orbits[level]:
            for k, s in enumerate(strong[level]):
                if (x, k) in done:
                    continue
                done.add((x, k))
                h = compose(inverse[s[x]], compose(s, transversal[x]))
                residue, stop = chain.sift(h, level + 1)
                if residue != identity:
                    return residue, stop
        return None

    gens = [g for g in gens if g != identity]
    if gens:
        add_level(gens[0])
        for g in gens:
            add_strong(0, g)
    level = len(base) - 1
    while level >= 0:
        found = untested_residue(level)
        if found is None:
            level -= 1
            continue
        residue, stop = found
        if stop == len(base):
            add_level(residue)
        for lower in range(level + 1, stop + 1):
            add_strong(lower, residue)
        level = stop
    return StabChain(degree, tuple(base), tuple(transversals), tuple(inverses))


def enumerate_group(chain: StabChain) -> list[tuple[int, ...]]:
    """Every element's image tuple (unsorted) when the order is within
    ``ENUM_BOUND``.

    The order is read off the stabilizer chain before any element is
    built; past the bound :class:`OrderExceeded` reports ``ENUM_BOUND + 1``
    elements found.
    """
    if chain.order > ENUM_BOUND:
        raise OrderExceeded(ENUM_BOUND + 1, ENUM_BOUND)
    return chain.elements()


def fpf_involution_classes(group: GroupDesc, elements: Iterable[tuple[int, ...]]) -> list[Perm]:
    """One representative per conjugacy class of fixed-point-free involutions.

    ``elements`` are the image tuples from :func:`enumerate_group`; the
    fixed-point-free involutions among them are sorted, each class is the
    orbit closure of its first member under conjugation by the generators,
    and so is represented by its minimum.  Odd degree yields the empty list.
    """
    n = group.degree
    fpf = sorted(
        t for t in elements
        if t[0] != 0 and t[t[0]] == 0 and all(t[x] != x and t[t[x]] == x for x in range(1, n))
    )
    conjugators = [(g.images, invert(g.images)) for g in group.generators]
    reps: list[Perm] = []
    assigned: set[tuple[int, ...]] = set()
    for t in fpf:
        if t not in assigned:
            reps.append(Perm(t))
            assigned.update(orbit_closure(conjugators, [t], lambda conj, c: compose(conj[0], compose(c, conj[1]))))
    return reps


def _pair_closure(group: GroupDesc, t: Perm) -> list[tuple[int, int]]:
    # each seed {z, tz} is a genuine pair because t is fixed-point-free
    seeds = [(z, tz) for z, tz in enumerate(t.images) if z < tz]
    return orbit_closure(group.generators, seeds, act_unordered_pair)


def char_number(group: GroupDesc, t: Perm) -> int:
    """Characteristic number c(G, X, t) for a fixed-point-free involution t
    of a transitive group.

    Computed as the closure of the pairs {z, tz} under the generators,
    counting pairs through a base point; the count is checked to be the
    same at every base point.  Membership of t is the caller's to verify,
    by sifting it through the group's stabilizer chain.  Transitivity is
    checked here by the orbit of the first point, after the involution and
    fixed-point checks, and its failure raises NotTransitive.
    """
    if t.degree != group.degree:
        raise DimensionMismatch(f"{t} acts on {t.degree} points, the group on {group.degree}")
    if not t.is_involution():
        raise NotInvolution(f"{t} is not an involution")
    if not t.is_fixed_point_free():
        fixed = [p + 1 for p in t.fixed_points()]
        more = f" ... ({len(fixed)} in all)" if len(fixed) > 20 else ""
        raise HasFixedPoint(f"{t} fixes points {fixed[:20]}{more}")
    if len(orbit_closure(group.generators, [0], lambda g, x: g.images[x])) != group.degree:
        raise NotTransitive("the group has several orbits; c is defined only for a transitive group")
    pairs = _pair_closure(group, t)
    counts = [0] * group.degree
    for a, b in pairs:
        counts[a] += 1
        counts[b] += 1
    c = counts[0]
    if any(k != c for k in counts):
        raise CheckFailed(f"characteristic number depends on the base point: pair counts {counts}")
    return c


# -- classification ----------------------------------------------------------


@dataclass(frozen=True)
class FpfClassInfo:
    """A fixed-point-free involution of a transitive group on X and its
    characteristic number c, with the conditions (*) and (**) on c."""

    rep: Perm
    c: int

    @property
    def satisfies_star(self) -> bool:
        """Condition (*): c = |X| - 1."""
        return self.c == self.rep.degree - 1

    @property
    def satisfies_starstar(self) -> bool:
        """Condition (**): c > |X|/2."""
        return 2 * self.c > self.rep.degree


@dataclass(frozen=True)
class GroupAnalysis:
    is_transitive: bool
    is_two_transitive: bool
    fpf_classes: tuple[FpfClassInfo, ...]
    order: int

    @property
    def has_star(self) -> bool:
        return any(k.satisfies_star for k in self.fpf_classes)

    @property
    def has_starstar(self) -> bool:
        return any(k.satisfies_starstar for k in self.fpf_classes)


def classify(group: GroupDesc) -> GroupAnalysis:
    """Full analysis: transitivity, 2-transitivity, fpf classes with their
    characteristic numbers and the (*) / (**) verdicts.

    One stabilizer chain gives the order, transitivity and 2-transitivity.
    c is defined only for a transitive group, so an intransitive one stops
    there, with no fpf classes.  Otherwise the group is enumerated once;
    the fpf classes are read off that list.
    """
    chain = group.chain()
    classes = fpf_involution_classes(group, enumerate_group(chain)) if chain.is_transitive else []
    infos = tuple(FpfClassInfo(t, char_number(group, t)) for t in classes)
    return GroupAnalysis(chain.is_transitive, chain.is_two_transitive, infos, chain.order)


@dataclass(frozen=True)
class CatalogTable:
    """One table row: the labels of the catalog's groups in each of the four
    classification columns, keyed by their names in ``groups table --json``.

    ``total`` counts the transitive entries of the catalog, failed ones
    included.
    """

    degree: int
    total: int
    columns: dict[str, tuple[str, ...]]
    failures: tuple[tuple[str, str], ...] = ()

    def row(self) -> tuple[int, int, int, int, int]:
        return (self.degree, *(len(labels) for labels in self.columns.values()))

    def render(self) -> str:
        _, fpf, two_trans, star, starstar = self.row()
        lines = [
            f"degree {self.degree}: {self.total} transitive groups in catalog",
            "  n  (1)fpf  (2)2-trans  (3)star-only  (4)starstar-only",
            f"{self.degree:>3}  {fpf:>5}  {two_trans:>9}  {star:>11}  {starstar:>15}",
            f"  (3) groups: {', '.join(self.columns['star_not_2transitive']) or '-'}",
            f"  (4) groups: {', '.join(self.columns['starstar_not_star']) or '-'}",
        ]
        for label, err in self.failures:
            lines.append(f"  FAILED {label}: {err}")
        return "\n".join(lines)


def classify_catalog(catalog: Sequence[GroupDesc]) -> CatalogTable:
    """Classify every catalog entry and aggregate the four-column table row.

    Column semantics: (1) has an fpf involution; (2) additionally
    2-transitive; (3) satisfies (*) for some fpf involution but is not
    2-transitive; (4) satisfies (**) for some fpf involution but (*) for
    none.  An intransitive entry, or a toolkit error for one entry (a group
    past the enumeration bound), is reported as a failed row; any other
    exception propagates.
    """
    entries = list(catalog)
    if not entries:
        raise ParseError("empty catalog")
    degs = {g.degree for g in entries}
    if len(degs) > 1:
        raise DimensionMismatch(f"mixed degrees in catalog: {sorted(degs)}")
    names = ("fpf", "two_transitive", "star_not_2transitive", "starstar_not_star")
    columns: dict[str, list[str]] = {name: [] for name in names}
    failures = []
    intransitive = 0
    for g in entries:
        try:
            a = classify(g)
        except RatsosError as exc:  # aggregate, don't abort the table
            failures.append((g.label, str(exc)))
            continue
        if not a.is_transitive:
            failures.append((g.label, "not transitive"))
            intransitive += 1
            continue
        if a.fpf_classes:
            columns["fpf"].append(g.label)
            if a.is_two_transitive:
                columns["two_transitive"].append(g.label)
            if a.has_star and not a.is_two_transitive:
                columns["star_not_2transitive"].append(g.label)
            if a.has_starstar and not a.has_star:
                columns["starstar_not_star"].append(g.label)
    return CatalogTable(
        degree=entries[0].degree,
        total=len(entries) - intransitive,
        columns={name: tuple(labels) for name, labels in columns.items()},
        failures=tuple(failures),
    )


# -- catalog I/O --------------------------------------------------------------


def parse_catalog(text: str) -> list[GroupDesc]:
    """Catalog format: one group per line, ``degree;label;gen1,gen2,...``."""
    out = []
    for lineno, line in data_lines(text):
        parts = line.split(";")
        if len(parts) != 3:
            raise ParseError(f"line {lineno}: expected 'degree;label;gens', got {line!r}")
        try:
            deg = int(parts[0])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad degree {parts[0]!r}") from exc
        gens = parse_generators(parts[2], deg)
        out.append(GroupDesc(deg, gens, parts[1].strip()))
    return out


def format_catalog(groups: Sequence[GroupDesc]) -> str:
    lines = []
    for g in groups:
        gens = ",".join(str(p) for p in g.generators)
        lines.append(f"{g.degree};{g.label};{gens}")
    return "\n".join(lines) + "\n"


def load_bundled_catalog(degree: int) -> list[GroupDesc]:
    """Load a shipped transitive-groups catalog (degrees 4, 6, 8)."""
    from importlib import resources

    name = f"degree{degree}.cat"
    ref = resources.files("ratsos.data").joinpath(name)
    if not ref.is_file():
        raise FileNotFoundError(f"no bundled catalog {name}")
    return parse_catalog(ref.read_text())

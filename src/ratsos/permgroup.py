"""Permutation groups given by generators: orbits, transitivity, and the
characteristic-number machinery for fixed-point-free involutions.

The characteristic number c of (G, X, t) is the size of the orbit of a
point under the conjugacy class of t.  It is computed by closing the set
of unordered pairs {z, tz} under the generators (at most n(n-1)/2 states)
and counting pairs through a base point -- no group enumeration needed.
Condition (*) is c = |X| - 1 and condition (**) is c > |X|/2.
"""

import re
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import (
    CheckFailed,
    HasFixedPoint,
    NotInGroup,
    NotInvolution,
    OrderExceeded,
    ParseError,
    RatsosError,
)

DEFAULT_ENUM_BOUND = 10**6


class Perm:
    """Permutation of {1..n}, stored as a 0-indexed image tuple.

    Composition is right-to-left: ``(p * q)(x) = p(q(x))``.
    """

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        img = tuple(images)
        if sorted(img) != list(range(len(img))):
            raise ValueError(f"not a permutation of 0..{len(img) - 1}: {img}")
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
                    raise ValueError(f"point {p} outside 1..{degree}")
                if p in seen:
                    raise ValueError(f"point {p} repeated across cycles")
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
        try:
            return cls.from_cycles(cycles, deg)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc

    @property
    def degree(self) -> int:
        return len(self.images)

    def apply(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Perm") -> "Perm":
        if not isinstance(other, Perm):
            return NotImplemented
        if self.degree != other.degree:
            raise ValueError("degrees differ")
        return Perm(tuple(self.images[other.images[i]] for i in range(self.degree)))

    def inverse(self) -> "Perm":
        inv = [0] * self.degree
        for i, j in enumerate(self.images):
            inv[j] = i
        return Perm(inv)

    def conjugate(self, by: "Perm") -> "Perm":
        """by * self * by^-1."""
        return by * self * by.inverse()

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

    def __lt__(self, other: "Perm"):
        return self.images < other.images

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
            raise ValueError("degree must be positive")
        if not self.generators:
            raise ValueError("need at least one generator")
        for g in self.generators:
            if g.degree != self.degree:
                raise ValueError("generator degree mismatch")

    @classmethod
    def from_text(cls, gens_text: str, degree: int | None = None, label: str = "") -> "GroupDesc":
        gens = parse_generators(gens_text, degree)
        return cls(gens[0].degree, gens, label)


def parse_generators(text: str, degree: int | None = None) -> tuple[Perm, ...]:
    """Parse a comma-separated generator list, e.g. ``(1 2 3 4),(1 3)``."""
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
    return tuple(Perm.parse(c, max_point) for c in chunks)


# -- orbit machinery ---------------------------------------------------------


def act_point(g: Perm, x: int) -> int:
    return g.images[x]


def act_ordered_pair(g: Perm, pair: tuple[int, int]) -> tuple[int, int]:
    return (g.images[pair[0]], g.images[pair[1]])


def act_unordered_pair(g: Perm, pair: tuple[int, int]) -> tuple[int, int]:
    a, b = g.images[pair[0]], g.images[pair[1]]
    return (a, b) if a <= b else (b, a)


def orbit_closure(gens: Sequence[Perm], seeds: Iterable, action: Callable) -> list:
    """Smallest superset of the seeds closed under every generator.

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


def is_transitive(group: GroupDesc) -> bool:
    return len(orbit_closure(group.generators, [0], act_point)) == group.degree


def is_two_transitive(group: GroupDesc) -> bool:
    """True iff the ordered-pair orbit of (1, 2) has size n(n-1)."""
    n = group.degree
    if n < 2:
        raise ValueError("2-transitivity needs degree >= 2")
    orbit = orbit_closure(group.generators, [(0, 1)], act_ordered_pair)
    return len(orbit) == n * (n - 1)


def enumerate_group(group: GroupDesc, bound: int = DEFAULT_ENUM_BOUND) -> list[Perm]:
    """All group elements (sorted) when the order is within ``bound``.

    Raises :class:`OrderExceeded` with the partial count once the closure
    passes the bound.
    """
    if bound < 1:
        raise ValueError("bound must be positive")
    gens = [g.images for g in group.generators]
    n = group.degree
    identity = tuple(range(n))
    seen = {identity}
    queue = [identity]
    head = 0
    while head < len(queue):
        cur = queue[head]
        head += 1
        for g in gens:
            nxt = tuple(g[cur[i]] for i in range(n))
            if nxt not in seen:
                if len(seen) >= bound:
                    raise OrderExceeded(len(seen) + 1, bound)
                seen.add(nxt)
                queue.append(nxt)
    return [Perm(t) for t in sorted(seen)]


def fpf_involution_classes(group: GroupDesc, elements: Sequence[Perm]) -> list[Perm]:
    """One representative per conjugacy class of fixed-point-free involutions.

    ``elements`` is the sorted element list from :func:`enumerate_group`;
    classes are closed under conjugation by the generators.  Odd degree
    yields the empty list.
    """
    fpf = [p for p in elements if p.is_involution() and p.is_fixed_point_free()]
    reps: list[Perm] = []
    assigned: set[Perm] = set()
    for t in fpf:  # elements sorted, so reps are deterministic class minima
        if t in assigned:
            continue
        cls = orbit_closure(group.generators, [t], lambda g, p: g * p * g.inverse())
        assigned.update(cls)
        reps.append(t)
    return reps


def _pair_closure(group: GroupDesc, t: Perm) -> list[tuple[int, int]]:
    n = group.degree
    seeds = sorted(act_unordered_pair(Perm.identity(n), (z, t.images[z])) for z in range(n))
    # each seed {z, tz} is a genuine pair because t is fixed-point-free
    return orbit_closure(group.generators, seeds, act_unordered_pair)


def char_number(
    group: GroupDesc,
    t: Perm,
    bound: int = DEFAULT_ENUM_BOUND,
    check_membership: bool = True,
) -> int:
    """Characteristic number c(G, X, t) for a fixed-point-free involution t.

    Computed as the closure of the pairs {z, tz} under the generators,
    counting pairs through a base point; the count is checked to be the
    same at every base point.  Membership of t in the generated group is
    verified when the group is enumerable within ``bound``; otherwise it is
    trusted (callers surface an explicit "membership unverified" flag).
    """
    if t.degree != group.degree:
        raise ValueError("degree mismatch")
    if not t.is_involution():
        raise NotInvolution(f"{t} is not an involution")
    if not t.is_fixed_point_free():
        raise HasFixedPoint(f"{t} fixes points {[p + 1 for p in t.fixed_points()]}")
    if check_membership:
        try:
            elements = enumerate_group(group, bound)
        except OrderExceeded:
            pass
        else:
            if t not in set(elements):
                raise NotInGroup(f"{t} is not an element of the generated group")
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
    rep: Perm
    c: int
    satisfies_star: bool
    satisfies_starstar: bool


@dataclass(frozen=True)
class GroupAnalysis:
    label: str
    degree: int
    is_transitive: bool
    is_two_transitive: bool
    has_fpf_involution: bool
    fpf_classes: tuple[FpfClassInfo, ...]
    order: int | None = None

    @property
    def has_star(self) -> bool:
        return any(k.satisfies_star for k in self.fpf_classes)

    @property
    def has_starstar(self) -> bool:
        return any(k.satisfies_starstar for k in self.fpf_classes)


def classify(group: GroupDesc, bound: int = DEFAULT_ENUM_BOUND) -> GroupAnalysis:
    """Full analysis: transitivity, 2-transitivity, fpf classes with their
    characteristic numbers and the (*) / (**) verdicts.  The group is
    enumerated once; the fpf classes are read off that element list."""
    n = group.degree
    transitive = is_transitive(group)
    two_trans = is_two_transitive(group) if n >= 2 else False
    elements = enumerate_group(group, bound)
    infos = []
    for t in fpf_involution_classes(group, elements):
        # 2-transitive actions reach every pair, so c = n - 1 without closure
        c = n - 1 if two_trans else char_number(group, t, bound, check_membership=False)
        infos.append(
            FpfClassInfo(
                rep=t,
                c=c,
                satisfies_star=(c == n - 1),
                satisfies_starstar=(2 * c > n),
            )
        )
    return GroupAnalysis(
        label=group.label,
        degree=n,
        is_transitive=transitive,
        is_two_transitive=two_trans,
        has_fpf_involution=bool(infos),
        fpf_classes=tuple(infos),
        order=len(elements),
    )


@dataclass(frozen=True)
class CatalogTable:
    """One table row: counts of groups per the four classification columns."""

    degree: int
    total: int
    count_fpf: int
    count_two_transitive: int
    count_star_not_2trans: int
    count_starstar_not_star: int
    labels_fpf: tuple[str, ...] = ()
    labels_two_transitive: tuple[str, ...] = ()
    labels_star_not_2trans: tuple[str, ...] = ()
    labels_starstar_not_star: tuple[str, ...] = ()
    failures: tuple[tuple[str, str], ...] = ()

    def row(self) -> tuple[int, int, int, int, int]:
        return (
            self.degree,
            self.count_fpf,
            self.count_two_transitive,
            self.count_star_not_2trans,
            self.count_starstar_not_star,
        )

    def render(self) -> str:
        lines = [
            f"degree {self.degree}: {self.total} transitive groups in catalog",
            "  n  (1)fpf  (2)2-trans  (3)star-only  (4)starstar-only",
            f"{self.degree:>3}  {self.count_fpf:>5}  {self.count_two_transitive:>9} "
            f" {self.count_star_not_2trans:>11}  {self.count_starstar_not_star:>15}",
            f"  (3) groups: {', '.join(self.labels_star_not_2trans) or '-'}",
            f"  (4) groups: {', '.join(self.labels_starstar_not_star) or '-'}",
        ]
        for label, err in self.failures:
            lines.append(f"  FAILED {label}: {err}")
        return "\n".join(lines)


def classify_catalog(
    catalog: Sequence[GroupDesc],
    degree: int | None = None,
    bound: int = DEFAULT_ENUM_BOUND,
) -> CatalogTable:
    """Classify every catalog entry and aggregate the four-column table row.

    Column semantics: (1) has an fpf involution; (2) additionally
    2-transitive; (3) satisfies (*) for some fpf involution but is not
    2-transitive; (4) satisfies (**) for some fpf involution but (*) for
    none.  A toolkit error for one entry (a group past the enumeration
    bound) is reported as a failed row; any other exception propagates.
    """
    entries = [g for g in catalog if degree is None or g.degree == degree]
    if not entries:
        raise ValueError("empty catalog selection")
    degs = {g.degree for g in entries}
    if len(degs) > 1:
        raise ValueError(f"mixed degrees in catalog selection: {sorted(degs)}")
    deg = entries[0].degree
    cols: dict[str, list[str]] = {"fpf": [], "2t": [], "star": [], "ss": []}
    failures = []
    for g in entries:
        try:
            a = classify(g, bound)
        except RatsosError as exc:  # aggregate, don't abort the table
            failures.append((g.label, str(exc)))
            continue
        if a.has_fpf_involution:
            cols["fpf"].append(g.label)
            if a.is_two_transitive:
                cols["2t"].append(g.label)
            if a.has_star and not a.is_two_transitive:
                cols["star"].append(g.label)
            if a.has_starstar and not a.has_star:
                cols["ss"].append(g.label)
    return CatalogTable(
        degree=deg,
        total=len(entries),
        count_fpf=len(cols["fpf"]),
        count_two_transitive=len(cols["2t"]),
        count_star_not_2trans=len(cols["star"]),
        count_starstar_not_star=len(cols["ss"]),
        labels_fpf=tuple(cols["fpf"]),
        labels_two_transitive=tuple(cols["2t"]),
        labels_star_not_2trans=tuple(cols["star"]),
        labels_starstar_not_star=tuple(cols["ss"]),
        failures=tuple(failures),
    )


# -- catalog I/O --------------------------------------------------------------


def parse_catalog(text: str) -> list[GroupDesc]:
    """Catalog format: one group per line, ``degree;label;gen1,gen2,...``."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(";")
        if len(parts) != 3:
            raise ParseError(f"line {lineno}: expected 'degree;label;gens', got {raw!r}")
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

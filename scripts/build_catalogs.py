#!/usr/bin/env python3
"""Regenerate the bundled transitive-group catalogs (degrees 4, 6, 8).

Strategy: a transitive subgroup of S_n is primitive or preserves a block
system, hence is conjugate into a block-system stabilizer (a wreath
product).  The primitive groups of degrees 4, 6, 8 are classical and are
constructed explicitly; the imprimitive ones are found by exhausting the
transitive subgroups of each wreath container:

  * every transitive group of 2-power-divisible degree 2^k contains a
    transitive Sylow 2-subgroup, so the transitive subgroups of the
    container's Sylow 2-subgroup seed an upward join closure (join class
    representatives with every cyclic subgroup, dedup by container
    conjugacy); degree 6 enumerates every subgroup class of its containers
    by the same join closure seeded with the cyclic subgroups;
  * the union over containers and primitives is deduplicated up to
    S_n-conjugacy by the same conjugacy test.

Each class gets its generating set for the catalog line once, when it is
found to be new.  The script checks the classical class counts (5, 16,
50): the candidates are pairwise non-conjugate by construction, so hitting
the known totals certifies completeness.  It finishes by re-running the
table classification as a self-check.  A failed check exits with status 1
and its message, also under ``python -O``.  Generation takes under a
minute (49 s on one Intel Xeon core); output is deterministic.

Usage: python scripts/build_catalogs.py [outdir]
"""

import sys
import time
from collections import Counter
from itertools import combinations, permutations
from math import lcm
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ratsos.permgroup import (
    GroupDesc,
    Perm,
    classify_catalog,
    compose,
    format_catalog,
    invert,
    orbit_closure,
    parse_catalog,
    schreier_sims,
)

# ---------------------------------------------------------------------------
# helpers on groups given as frozensets of 0-indexed image tuples


def require(ok, message):
    """A check that ``python -O`` keeps: stop with ``message`` and exit status 1."""
    if not ok:
        sys.exit(message)


def group_elements(gens):
    """The group generated by image tuples, as a frozenset of image tuples."""
    return frozenset(schreier_sims(gens, len(gens[0])).elements())


def images(cycles, n):
    """Image tuple of a permutation in 1-based cycle notation on n points."""
    return Perm.parse(cycles, n).images


def perm_order(p):
    return lcm(*Perm(p).cycle_type())


def orbit_sizes(h, n):
    remaining = set(range(n))
    sizes = []
    while remaining:
        orbit = orbit_closure(h, [min(remaining)], lambda g, x: g[x])
        sizes.append(len(orbit))
        remaining.difference_update(orbit)
    return tuple(sorted(sizes))


def invariant_key(h, n):
    return (
        len(h),
        tuple(sorted(Counter(Perm(p).cycle_type() for p in h).items())),
        orbit_sizes(h, n),
    )


def greedy_generating_set(h):
    """Deterministic generating set by greedy scan over sorted elements."""
    n = len(next(iter(h)))
    gens = []
    generated = schreier_sims(gens, n)
    for e in sorted(h):
        if e in generated:
            continue
        gens.append(e)
        generated = schreier_sims(gens, n)
        if generated.order == len(h):
            break
    require(generated.order == len(h), f"greedy scan generated {generated.order} of {len(h)} elements")
    return gens


def small_generating_set(h, gens):
    """Try for 2 generators (readable catalog lines); fall back to ``gens``."""
    if len(gens) <= 2:
        return gens
    if len(h) <= 2500:
        by_order = sorted(h, key=lambda p: (-perm_order(p), p))[:12]
        for a, b in combinations(by_order, 2):
            if schreier_sims([a, b], len(a)).order == len(h):
                return [a, b]
    return gens


# ---------------------------------------------------------------------------
# subgroup enumeration


def cyclic_subgroups(elements):
    """All cyclic subgroups as (frozenset, generator) pairs, deterministic order."""
    n = len(next(iter(elements)))
    ident = tuple(range(n))
    found = {}
    for e in sorted(elements):
        if e == ident:
            continue
        powers = [ident]
        cur = e
        while cur != ident:
            powers.append(cur)
            cur = compose(e, cur)
        key = frozenset(powers)
        if key not in found:
            found[key] = e
    return sorted(found.items(), key=lambda kv: (len(kv[0]), kv[1]))


class ClassedCollection:
    """Subgroups up to conjugacy by an ambient element list, with one
    generating set per class representative (``gens``).

    The conjugacy test only needs some generating set of the candidate, so
    a caller may replace ``gens[h]`` after ``add`` returned True.
    """

    def __init__(self, ambient_elements, n):
        self.ambient = sorted(ambient_elements)
        self.n = n
        self.buckets = {}
        self.raw_seen = set()
        self.reps = []
        self.gens = {}

    def _is_conjugate(self, hgens, rep):
        for g in self.ambient:
            gi = invert(g)
            if all(compose(g, compose(x, gi)) in rep for x in hgens):
                return True  # g<h>g^-1 <= rep and sizes match, so equal
        return False

    def add(self, h, hgens):
        """Register h if its class is new; returns True when registered."""
        if h in self.raw_seen:
            return False
        self.raw_seen.add(h)
        bucket = self.buckets.setdefault(invariant_key(h, self.n), [])
        if any(self._is_conjugate(hgens, rep) for rep in bucket):
            return False
        bucket.append(h)
        self.reps.append(h)
        self.gens[h] = list(hgens)
        return True


def join_closure(classes, seeds, cyclics):
    """Close the (subgroup, generators) ``seeds`` upward under joins with
    the ``cyclics``, one representative per class of ``classes``.

    A join is tested with the generators it was built from; only a new
    class gets its greedy generating set, which later joins and the
    catalog lines use.
    """
    frontier = [h for h, gens in seeds if classes.add(h, gens)]
    while frontier:
        new_frontier = []
        for h in frontier:
            hgens = classes.gens[h]
            for _, gen in cyclics:
                if gen in h:
                    continue
                jgens = hgens + [gen]
                j = group_elements(jgens)
                if classes.add(j, jgens):
                    classes.gens[j] = greedy_generating_set(j)
                    new_frontier.append(j)
        frontier = new_frontier
    return classes


def all_subgroup_classes(elements, n):
    """Every nontrivial subgroup of the given (small) group, up to its own conjugacy."""
    cyclics = cyclic_subgroups(elements)
    return join_closure(ClassedCollection(elements, n), [(c, [gen]) for c, gen in cyclics], cyclics)


def transitive_subgroup_classes(w_elements, n, syl2_elements=None, log=lambda *a: None):
    """All transitive subgroups of the container W up to W-conjugacy, as
    (element set, generators) pairs.

    With ``syl2_elements`` given (valid only for 2-power degree, where every
    transitive group contains a transitive Sylow 2-subgroup), the search is
    seeded by the transitive subgroups of that Sylow group and closed upward
    by joins; otherwise every subgroup class of W is enumerated and filtered.
    """
    if syl2_elements is None:
        classes = all_subgroup_classes(w_elements, n)
    else:
        syl_classes = all_subgroup_classes(syl2_elements, n)
        seeds = [(h, syl_classes.gens[h]) for h in syl_classes.reps if orbit_sizes(h, n) == (n,)]
        log(f"  Sylow-2: {len(syl_classes.reps)} subgroup classes, {len(seeds)} transitive seeds")
        classes = join_closure(ClassedCollection(w_elements, n), seeds, cyclic_subgroups(w_elements))
    found = [(h, classes.gens[h]) for h in classes.reps if orbit_sizes(h, n) == (n,)]
    log(f"  container order {len(w_elements)}: {len(classes.reps)} subgroup classes, "
        f"{len(found)} transitive")
    return found


# ---------------------------------------------------------------------------
# explicit constructions


def wreath_gens(block, nblocks, inner_gens, outer_gens):
    """Generators of (inner) wr (outer) on block*nblocks points, blocks contiguous."""
    n = block * nblocks
    gens = []
    for g in inner_gens:  # act inside block 0
        img = list(range(n))
        for i in range(block):
            img[i] = g[i]
        gens.append(tuple(img))
    for s in outer_gens:  # permute blocks
        img = [0] * n
        for b in range(nblocks):
            for i in range(block):
                img[b * block + i] = s[b] * block + i
        gens.append(tuple(img))
    return gens


S2 = [(1, 0)]
S3_GENS = [images("(1 2 3)", 3), images("(1 2)", 3)]
S4_GENS = [images("(1 2 3 4)", 4), images("(1 2)", 4)]
D4_GENS = [images("(1 2 3 4)", 4), images("(1 3)", 4)]


def gl32_action(matrix_cols):
    """Permutation of F_2^3 = {0..7} from a GL(3,2) matrix given by column images."""
    img = []
    for v in range(8):
        w = 0
        for bit in range(3):
            if v >> bit & 1:
                w ^= matrix_cols[bit]
        img.append(w)
    return tuple(img)


def translation(v):
    return tuple(x ^ v for x in range(8))


def projective_line_groups(p, non_square):
    """Generators of PSL(2,p) and PGL(2,p) on P^1(F_p): points 0..p-1 are
    the field elements and p is infinity.

    PSL(2,p) is generated by z -> z + 1 and z -> -1/z; PGL(2,p) adds
    z -> non_square * z.
    """
    shift = tuple([(z + 1) % p for z in range(p)] + [p])
    minus_inverse = tuple([p] + [-pow(z, -1, p) % p for z in range(1, p)] + [0])
    scale = tuple([non_square * z % p for z in range(p)] + [p])
    psl = [shift, minus_inverse]
    return psl, psl + [scale]


def primitives_degree8():
    s8 = [images("(1 2 3 4 5 6 7 8)", 8), images("(1 2)", 8)]
    a8 = [images("(1 2 3)", 8), images("(2 3 4 5 6 7 8)", 8)]
    psl27, pgl27 = projective_line_groups(7, 3)
    # affine constructions on F_2^3 with basis 1, g, g^2 and g^3 = g + 1
    mult_g = gl32_action([2, 4, 3])
    frobenius = gl32_action([1, 4, 6])
    transvection = gl32_action([1, 3, 4])  # e2 -> e1 + e2
    t1 = translation(1)
    f56 = [t1, mult_g]
    agammal = [t1, mult_g, frobenius]
    gl32 = [mult_g, transvection]
    require(schreier_sims(gl32, 8).order == 168, "GL(3,2) generators wrong")
    agl32 = [t1] + gl32
    return {
        "AGL(1,8)": f56,
        "AGaL(1,8)": agammal,
        "PSL(2,7)": psl27,
        "PGL(2,7)": pgl27,
        "AGL(3,2)": agl32,
        "A8": a8,
        "S8": s8,
    }


def primitives_degree6():
    psl25, pgl25 = projective_line_groups(5, 2)
    a6 = [images("(1 2 3)", 6), images("(2 3 4 5 6)", 6)]
    s6 = [images("(1 2 3 4 5 6)", 6), images("(1 2)", 6)]
    return {"PSL(2,5)": psl25, "PGL(2,5)": pgl25, "A6": a6, "S6": s6}


def primitives_degree4():
    a4 = [images("(1 2 3)", 4), images("(2 3 4)", 4)]
    return {"A4": a4, "S4": S4_GENS}


EXPECTED_ORDERS = {
    "AGL(1,8)": 56,
    "AGaL(1,8)": 168,
    "PSL(2,7)": 168,
    "PGL(2,7)": 336,
    "AGL(3,2)": 1344,
    "A8": 20160,
    "S8": 40320,
    "PSL(2,5)": 60,
    "PGL(2,5)": 120,
    "A6": 360,
    "S6": 720,
    "A4": 12,
    "S4": 24,
}


# ---------------------------------------------------------------------------
# degree drivers


def collect_degree(n, containers, primitive_map, log):
    """The transitive groups of degree n up to S_n-conjugacy, from the
    transitive subgroups of each container and the primitive groups."""
    classes = ClassedCollection(permutations(range(n)), n)
    candidates = 0
    for name, (w_gens, syl_gens) in containers.items():
        w = group_elements(w_gens)
        syl = None
        if syl_gens is not None:
            syl = group_elements(syl_gens)
            require(syl <= w, f"Sylow not inside {name}")
            two_part = len(w) & -len(w)
            require(len(syl) == two_part, f"{name}: |Syl2|={len(syl)} != 2-part {two_part}")
        log(f"container {name}: order {len(w)}")
        for h, gens in transitive_subgroup_classes(w, n, syl, log):
            candidates += 1
            if classes.add(h, gens):
                classes.gens[h] = small_generating_set(h, gens)
    for name, gens in primitive_map.items():
        h = group_elements(gens)
        require(len(h) == EXPECTED_ORDERS[name], f"{name}: order {len(h)} != {EXPECTED_ORDERS[name]}")
        require(orbit_sizes(h, n) == (n,), f"{name} not transitive")
        candidates += 1
        classes.add(h, gens)
        log(f"primitive {name}: order {len(h)} ok")
    log(f"  {candidates} candidates -> {len(classes.reps)} classes up to S_{n}-conjugacy")
    return classes


# ---------------------------------------------------------------------------
# labelling (standard nTk labels pinned by invariants for degrees 4 and 6)


def has_element_of_order(h, k):
    return any(perm_order(p) == k for p in h)


def center_size(h, gens):
    return sum(1 for z in h if all(compose(z, g) == compose(g, z) for g in gens))


def label_degree4(h, gens):
    order = len(h)
    if order == 4:
        return "4T1" if has_element_of_order(h, 4) else "4T2"
    return {8: "4T3", 12: "4T4", 24: "4T5"}[order]


def label_degree6(h, gens):
    order = len(h)
    if order == 6:
        return "6T1" if has_element_of_order(h, 6) else "6T2"
    if order == 12:
        return "6T3" if has_element_of_order(h, 6) else "6T4"
    if order == 24:
        if center_size(h, gens) > 1:
            return "6T6"
        # two faithful S4-actions; 6T8 is the one with cyclic point stabilizers
        stab0 = [p for p in h if p[0] == 0]
        return "6T8" if any(perm_order(p) == 4 for p in stab0) else "6T7"
    if order == 36:
        return "6T10" if has_element_of_order(h, 4) else "6T9"
    return {18: "6T5", 48: "6T11", 60: "6T12", 72: "6T13", 120: "6T14", 360: "6T15", 720: "6T16"}[order]


def write_catalog(path, n, classes, label_fn, header):
    ordered = sorted(classes.reps, key=lambda h: (len(h), invariant_key(h, n)))
    descs = []
    for idx, h in enumerate(ordered, start=1):
        gens = classes.gens[h]
        label = f"8G{idx:02d}" if label_fn is None else label_fn(h, gens)
        descs.append(GroupDesc(n, tuple(Perm(g) for g in gens), label))
    text = f"# {header}\n" + format_catalog(descs)
    Path(path).write_text(text)
    return descs


# the classical class counts and the published classification table rows
EXPECTED_COUNTS = {4: 5, 6: 16, 8: 50}
EXPECTED_ROWS = {4: (4, 5, 2, 0, 0), 6: (6, 11, 2, 2, 0), 8: (8, 50, 7, 2, 3)}


def build_catalog(n, outdir, log=print):
    """Classify the transitive groups of degree n (4, 6 or 8) into ``outdir/degree<n>.cat``."""
    if n == 4:
        d4 = wreath_gens(2, 2, S2, S2)
        containers, primitives = {"S2wrS2": (d4, d4)}, primitives_degree4()
        label_fn, header = label_degree4, "transitive groups of degree 4 (computed classification, standard 4T labels)"
    elif n == 6:
        # degree 6 is not a prime power, so no transitive-Sylow seeding: the
        # containers are tiny, enumerate all their subgroups instead
        containers = {
            "S2wrS3": (wreath_gens(2, 3, S2, S3_GENS), None),
            "S3wrS2": (wreath_gens(3, 2, S3_GENS, S2), None),
        }
        primitives = primitives_degree6()
        label_fn, header = label_degree6, "transitive groups of degree 6 (computed classification, standard 6T labels)"
    else:
        containers = {
            "S2wrS4": (wreath_gens(2, 4, S2, S4_GENS), wreath_gens(2, 4, S2, D4_GENS)),
            "S4wrS2": (wreath_gens(4, 2, S4_GENS, S2), wreath_gens(4, 2, D4_GENS, S2)),
        }
        primitives = primitives_degree8()
        label_fn, header = None, (
            "transitive groups of degree 8 (computed classification; labels 8Gxx are "
            "order-sorted artifact ids, not the standard 8T numbering)"
        )
    classes = collect_degree(n, containers, primitives, log)
    count = len(classes.reps)
    require(count == EXPECTED_COUNTS[n], f"expected {EXPECTED_COUNTS[n]} transitive groups of degree {n}, got {count}")
    return write_catalog(outdir / f"degree{n}.cat", n, classes, label_fn, header)


def check_table_rows(outdir, log=print):
    """Self-check: the catalogs in ``outdir`` reproduce the classification table rows."""
    for n, expected in EXPECTED_ROWS.items():
        table = classify_catalog(parse_catalog((outdir / f"degree{n}.cat").read_text()))
        log(table.render())
        require(table.row() == expected, f"degree {n}: row {table.row()} != {expected}")


def main():
    outdir = (
        Path(sys.argv[1])
        if len(sys.argv) > 1
        else Path(__file__).resolve().parent.parent / "src" / "ratsos" / "data"
    )
    outdir.mkdir(parents=True, exist_ok=True)
    t0 = time.time()
    for n in (4, 6, 8):
        print(f"== degree {n} ==")
        build_catalog(n, outdir)
    print(f"generation took {time.time() - t0:.1f}s")
    check_table_rows(outdir)
    print("table rows match; catalogs written to", outdir)


if __name__ == "__main__":
    main()

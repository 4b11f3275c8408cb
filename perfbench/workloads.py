"""Seeded workloads: input generators and independent output checks.

Every workload is a fixed cycle of operation kinds.  Operation ``i`` of a
run draws its inputs from ``random.Random(f"{workload}:{seed}:op:{i}")``,
so a seed fixes every input no matter how many operations a run reaches,
and each cycle holds the same mix of kinds.  An operation is a ``ratsos``
command line; files it needs are written to the run's work directory.

A check returns ``None`` when the output is right, or a ``Failure`` that
names the check.  ``wrong`` marks an output that asserts something false
(a bad table row, a false certificate); a missing or inconclusive result
is a failure but not a wrong one.
"""

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import mpmath

import exact

SRC_DATA = Path(__file__).resolve().parent.parent / "src" / "ratsos" / "data"


@dataclass(frozen=True)
class Failure:
    check: str
    detail: str
    wrong: bool = False

    def __str__(self):
        return f"{self.check}: {self.detail}"


@dataclass
class Op:
    kind: str
    argv: list
    check: Callable  # (exit_code, report) -> Failure | None
    label: str = ""


def _expect_exit(code: int, report: str, expected: int) -> Failure | None:
    if code != expected:
        first = report.splitlines()[0] if report else ""
        return Failure("exit-code", f"exit {code}, expected {expected}: {first[:160]}")
    return None


def _line(report: str, prefix: str) -> str | None:
    return next((ln for ln in report.splitlines() if ln.startswith(prefix)), None)


# ---------------------------------------------------------------------------
# groups-table: relabelled transitive-group catalogs

PUBLISHED_ROWS = {4: (4, 5, 2, 0, 0), 6: (6, 11, 2, 2, 0), 8: (8, 50, 7, 2, 3)}


def relabel_catalog(text: str, rng: random.Random) -> str:
    """Conjugate every group of a catalog by one random permutation of the points."""
    out = []
    sigma = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        deg, label, gens = line.split(";")
        if sigma is None:
            images = list(range(1, int(deg) + 1))
            rng.shuffle(images)
            sigma = dict(zip(range(1, int(deg) + 1), images))
        relabelled = []
        for gen in gens.split(","):
            cycles = re.findall(r"\(([^)]*)\)", gen)
            relabelled.append("".join("(" + " ".join(str(sigma[int(x)]) for x in c.split()) + ")" for c in cycles))
        out.append(f"{deg};{label};{','.join(relabelled)}")
    return "\n".join(out) + "\n"


def groups_table_op(rng: random.Random, workdir: Path, degree: int, tag: str) -> Op:
    text = (SRC_DATA / f"degree{degree}.cat").read_text()
    path = workdir / f"{tag}-degree{degree}.cat"
    path.write_text(relabel_catalog(text, rng))
    expected = PUBLISHED_ROWS[degree]

    def check(code, report):
        fail = _expect_exit(code, report, 0)
        if fail:
            return fail
        row = tuple(int(v) for v in report.splitlines()[0].split())
        if row != expected:
            return Failure("table-row", f"degree {degree}: got {row}, published {expected}", wrong=True)
        return None

    return Op("table-%d" % degree, ["groups", "table", "--catalog", str(path)], check, f"degree {degree}")


# ---------------------------------------------------------------------------
# field-certs: quartics with known Galois groups, and norm forms

# Galois group -> (ascending coefficients, expected exit, expected conclusion)
QUARTICS = {
    "S4": ([1, 1, 0, 0, 1], 0, "NotQSos"),
    "A4": ([12, 8, 0, 0, 1], 0, "NotQSos"),
    "D4": ([2, 0, 0, 0, 1], 2, "NoObstruction"),
    "V4": ([1, 0, 0, 0, 1], 2, "NoObstruction"),
    "C4": ([1, 1, 1, 1, 1], 2, "NoObstruction"),
}
HEIGHTS = {"low": (2, 9), "mid": (10, 99), "high": (100, 1000)}
# Each height range is cut into STRATA log-equal bands; a quartic's height
# lies near the middle of its band, so instances of one band cost about the
# same and the seed varies sign, shift and digits rather than the cost.
# Every cycle holds each band once, so runs of any length have the same mix.
STRATA = 5


def affine_minpoly(coeffs, q: int, k: int) -> list[int]:
    """Minimal polynomial of q*alpha + k: q^n m((t - k)/q), monic with integer coefficients."""
    n = len(coeffs) - 1
    out = [0] * (n + 1)
    for i, c in enumerate(coeffs):
        # c * (t - k)^i * q^(n - i), expanded by the binomial theorem
        binom = 1
        for j in range(i, -1, -1):
            out[j] += c * binom * (-k) ** (i - j) * q ** (n - i)
            binom = binom * j // (i - j + 1)
    return out


def band_height(rng: random.Random, lo: int, hi: int, stratum: int) -> int:
    """A height in the middle fifth of band ``stratum`` of ``STRATA`` log-equal bands of [lo, hi]."""
    return int(round(lo * (hi / lo) ** ((stratum + 0.4 + 0.2 * rng.random()) / STRATA)))


def obstruct_op(rng: random.Random, group: str, height: str, stratum: int) -> Op:
    base, exit_code, conclusion = QUARTICS[group]
    q = band_height(rng, *HEIGHTS[height], stratum) * rng.choice((1, -1))
    k = rng.randint(-abs(q), abs(q))
    m = exact.format_univariate(affine_minpoly(base, q, k))

    def check(code, report):
        if code == 0 and exit_code != 0:
            return Failure("galois-verdict", f"false NotQSos for a {group} field (q={q})", wrong=True)
        fail = _expect_exit(code, report, exit_code)
        if fail:
            return Failure("galois-verdict", f"{group} q={q}: {fail.detail}")
        if _line(report, "conclusion: ") != f"conclusion: {conclusion}":
            return Failure("galois-verdict", f"{group} q={q}: conclusion line missing", wrong=True)
        label = _line(report, "Galois action: ")
        if label is None or label.split()[2] != group:
            return Failure("galois-label", f"expected {group}, report says {label!r}", wrong=True)
        return None

    # the low quartics of all groups cost about the same and are one kind;
    # higher up the groups differ several-fold, so each is its own kind
    kind = "obstruct-low" if height == "low" else f"obstruct-{group}-{height}"
    return Op(kind, ["field", "obstruct", f"--minpoly={m}"], check, f"{group} q={q} k={k}")


NONZERO = (-3, -2, -1, 1, 2, 3)


def _squarefree_monic(rng: random.Random, n: int) -> list[int]:
    while True:
        m = [rng.choice(NONZERO) for _ in range(n)] + [1]
        deriv = [i * c for i, c in enumerate(m)][1:]
        if exact.uni_gcd_degree(m, deriv) == 0:
            return m


def normform_op(rng: random.Random, n: int, nvars: int = 2) -> Op:
    m = _squarefree_monic(rng, n)
    lin = []
    for _ in range(nvars):
        lin.append([rng.choice(NONZERO) for _ in range(n)])
    points = [[rng.randint(-5, 5) or 1 for _ in range(nvars)] for _ in range(3)]
    argv = [
        "field", "normform",
        f"--minpoly={exact.format_univariate(m)}",
        "--linform=" + ";".join(exact.format_univariate(e) for e in lin),
    ]

    def check(code, report):
        fail = _expect_exit(code, report, 0)
        if fail:
            return fail
        try:
            form = exact.parse(report.strip(), nvars)
        except ValueError as exc:
            return Failure("norm-product", f"unparsable norm form: {exc}", wrong=True)
        for x in points:
            value = exact.evaluate(form, x)
            digits = len(str(abs(value.numerator))) + 40
            with mpmath.workdps(digits):
                roots = mpmath.polyroots(list(reversed(m)), maxsteps=400, extraprec=4 * digits)
                prod = mpmath.mpc(1)
                for a in roots:
                    prod *= sum(mpmath.polyval(list(reversed(e)), a) * xj for e, xj in zip(lin, x))
                expected = int(mpmath.nint(prod.real))
            if value != expected:
                return Failure("norm-product", f"n={n}: N(l)({x}) = {value}, product of conjugates {expected}", wrong=True)
        return None

    return Op(f"normform-{n}", argv, check, f"n={n}")


# ---------------------------------------------------------------------------
# boundary-chain: the demo nine points under rational projective maps

DEMO_POINTS = [(1, 1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, -1), (0, 1, 1), (0, 1, -1), (1, 0, 1), (1, 0, -1), (0, 0, 1)]
DEMO_TUPLE = (1, 1, 1, 1, 4, 4, 4, 4, -2)
HILBERT = "(1, 3, 6, 7, 6, 3, 1, 0)"
CUBICS = exact.monomials(3, 3)


def projective_map(rng: random.Random, height: int) -> list[list[Fraction]]:
    """Invertible 3x3 map whose entries all have numerator and denominator in [height/2, height]."""
    low = max(1, height // 2)
    while True:
        mat = [
            [Fraction(rng.choice((-1, 1)) * rng.randint(low, height), rng.randint(low, height)) for _ in range(3)]
            for _ in range(3)
        ]
        if exact.det(mat):
            return mat


def boundary_op(rng: random.Random, workdir: Path, height: int, tag: str) -> Op:
    mat = projective_map(rng, height)
    points = [tuple(sum(mat[i][j] * p[j] for j in range(3)) for i in range(3)) for p in DEMO_POINTS]
    path = workdir / f"{tag}-points.txt"
    path.write_text("\n".join(",".join(str(c) for c in p) for p in points) + "\n")
    argv = ["boundary", "construct", "--points", str(path), "--tuple", ",".join(map(str, DEMO_TUPLE))]

    def check(code, report):
        fail = _expect_exit(code, report, 0)
        if fail:
            return fail
        if _line(report, "moment matrix: ") != "moment matrix: PSD, rank 7":
            return Failure("moment-rank", str(_line(report, "moment matrix")), wrong=True)
        kernel_line = _line(report, "kernel cubics (")
        if kernel_line is None or not kernel_line.startswith("kernel cubics (3): "):
            return Failure("kernel-dimension", str(kernel_line)[:160], wrong=True)
        cubics = [exact.parse(t, 3) for t in kernel_line.split(": ", 1)[1].split("; ")]
        # alpha(q * x^e) = sum_i a_i q(p_i) p_i^e must vanish for every cubic monomial
        for q in cubics:
            weights = [a * exact.evaluate(q, p) for a, p in zip(DEMO_TUPLE, points)]
            for e in CUBICS:
                if sum(w * exact.evaluate({e: 1}, p) for w, p in zip(weights, points)):
                    return Failure("kernel-cubics", f"{exact.format_poly(q)} is not in the moment kernel", wrong=True)
        sextic_line = _line(report, "assembled sextic f = ")
        if sextic_line is None or exact.parse(sextic_line.split(" = ", 1)[1], 3) != exact.sum_of_squares(cubics):
            return Failure("sextic-expansion", "f is not the sum of the squared kernel cubics", wrong=True)
        if _line(report, "Hilbert function of A/(U): ") != f"Hilbert function of A/(U): {HILBERT}":
            return Failure("hilbert-function", str(_line(report, "Hilbert")), wrong=True)
        return None

    return Op(f"boundary-h{height}", argv, check, f"height {height}")


# ---------------------------------------------------------------------------
# gram-certs: rational SOS extraction and span shrinking


def _random_cubic(rng: random.Random) -> dict:
    p = {e: Fraction(rng.randint(-2, 2)) for e in CUBICS if rng.random() < 0.6}
    return {e: c for e, c in p.items() if c}


# The program writes each LDL pivot p/q of the Gram matrix as four squares
# by a search exponential in the digits of p*q: one 38-digit pivot took 48 s
# and the 66-digit case never finishes.  Instances are drawn until every
# pivot stays within this cap.  Some smaller inputs (divisible by a high
# power of 4) still do not finish; run.py stops them and counts them failed.
FOUR_SQUARE_DIGITS = 24


def _pivot_digits(gram) -> int:
    """Most digits of p*q over the LDL pivots p/q = D_k / D_(k-1) (leading minors)."""
    minors = [Fraction(1)] + [exact.det([row[:k] for row in gram[:k]]) for k in range(1, len(gram) + 1)]
    pivots = [minors[k] / minors[k - 1] for k in range(1, len(minors)) if minors[k - 1]]
    return max(len(str(abs(p.numerator * p.denominator))) for p in pivots)


def extract_op(rng: random.Random, workdir: Path, height: int, tag: str) -> Op:
    """f = q^T (A^T A) q on six random ternary cubics q with |A_ij| <= height."""
    sextics = exact.monomials(3, 6)
    while True:
        basis = [_random_cubic(rng) for _ in range(6)]
        products = [exact.mul(basis[i], basis[j]) for i in range(6) for j in range(i, 6)]
        if exact.rank([[p.get(e, 0) for e in sextics] for p in products]) == len(products):
            break
    while True:
        a = [[rng.randint(-height, height) for _ in range(6)] for _ in range(6)]
        gram = [[sum(r[i] * r[j] for r in a) for j in range(6)] for i in range(6)]
        if exact.det(gram) and _pivot_digits(gram) <= FOUR_SQUARE_DIGITS:
            break
    f: dict = {}
    for row in a:
        lin: dict = {}
        for c, q in zip(row, basis):
            lin = exact.add(lin, exact.scale(q, c))
        f = exact.add(f, exact.mul(lin, lin))
    path = workdir / f"{tag}-form.txt"
    path.write_text(exact.format_poly(f) + "\n")
    argv = ["gram", "extract-q", "--form", str(path), "--basis=" + ";".join(exact.format_poly(q) for q in basis)]

    def check(code, report):
        fail = _expect_exit(code, report, 0)
        if fail:
            return fail
        line = report.splitlines()[0]
        if not (line.startswith("f = (") and line.endswith(")^2")):
            return Failure("squares-expansion", f"unexpected report line {line[:120]!r}", wrong=True)
        squares = [exact.parse(t, 3) for t in line[5:-3].split(")^2 + (")]
        if exact.sum_of_squares(squares) != f:
            return Failure("squares-expansion", "printed squares do not expand to f", wrong=True)
        return None

    return Op("extract-q", argv, check, f"|A| <= {height}")


def _mu_kernel_direction(rng: random.Random, basis) -> list[list[int]]:
    """Random symmetric D with X^T D X = 0: a sum of c (S_ij - S_kl) with m_i m_j = m_k m_l."""
    n = len(basis)
    by_product: dict = {}
    for i in range(n):
        for j in range(i, n):
            by_product.setdefault(tuple(a + b for a, b in zip(basis[i], basis[j])), []).append((i, j))
    d = [[0] * n for _ in range(n)]
    for pairs in by_product.values():
        for first, second in zip(pairs, pairs[1:]):
            c = rng.randint(-2, 2)
            for (i, j), s in ((first, c), (second, -c)):
                if i == j:
                    d[i][i] += 2 * s
                else:
                    d[i][j] += s
                    d[j][i] += s
    return d


LAMBDA = 4  # scale of the singular Gram point in the rational shrink instances


def _gram_text(nvars: int, half: int, rows) -> str:
    return f"gram n={nvars} d={half}\n" + "\n".join(" ".join(str(v) for v in row) for row in rows) + "\n"


def shrink_op(rng: random.Random, workdir: Path, half: int, rational: bool, tag: str) -> Op:
    """A PD Gram line G1 + s (G2 - G1) of a ternary form of degree 2*half.

    D is a random direction with X^T D X = 0, so G1 and G2 represent the
    same form.  Generic case: G1 = A^T A + mu I with mu above every row sum
    of |D| (Gershgorin), G2 = G1 + D, both PD.  Rational case:
    G* = LAMBDA A^T A with A of rank size-1, G1 = G* + s0 D, G2 = G1 - D,
    resampled until G1 is PD; the line is then PD on [0, s0) and singular
    at the known s0 > 1.  Entry sizes are fixed, so instances of one kind
    cost about the same.
    """
    basis = exact.monomials(3, half)
    size = len(basis)
    while True:
        d = _mu_kernel_direction(rng, basis)
        a = [[rng.randint(-3, 3) for _ in range(size)] for _ in range(size - 1 if rational else size)]
        ata = [[sum(r[i] * r[j] for r in a) for j in range(size)] for i in range(size)]
        if rational:
            s0 = Fraction(rng.randint(3, 9), 2)
            g1 = [[LAMBDA * ata[i][j] + s0 * d[i][j] for j in range(size)] for i in range(size)]
            g2 = [[g1[i][j] - d[i][j] for j in range(size)] for i in range(size)]
            if exact.rank(ata) == size - 1 and exact.is_positive_definite(g1):
                break
        else:
            s0 = None
            mu = max(sum(abs(v) for v in row) for row in d) + 1
            g1 = [[ata[i][j] + (mu if i == j else 0) for j in range(size)] for i in range(size)]
            g2 = [[g1[i][j] + d[i][j] for j in range(size)] for i in range(size)]
            if any(any(row) for row in d):
                break
    p1, p2 = workdir / f"{tag}-g1.txt", workdir / f"{tag}-g2.txt"
    p1.write_text(_gram_text(3, half, g1))
    p2.write_text(_gram_text(3, half, g2))

    def line_at(s):
        return [[g1[i][j] + s * (g2[i][j] - g1[i][j]) for j in range(size)] for i in range(size)]

    def check(code, report):
        if code == 2 and report.startswith("DeferredKernel: "):
            lo_text, hi_text = report.split("isolated in (", 1)[1].rstrip("]").split(", ")
            lo, hi = Fraction(lo_text), Fraction(hi_text)
            if not 1 <= lo < hi:
                return Failure("shrink-interval", f"bad interval ({lo}, {hi}]", wrong=True)
            dlo, dhi = exact.det(line_at(lo)), exact.det(line_at(hi))
            if dhi != 0 and (dlo > 0) == (dhi > 0):
                return Failure("shrink-interval", "det has no sign change across the interval", wrong=True)
            if rational:
                if not lo < s0 <= hi:
                    return Failure("shrink-interval", f"interval misses the boundary s0 = {s0}", wrong=True)
                return Failure("shrink-rational", f"{size}x{size}: rational s* = {s0} reported as deferred")
            return None
        fail = _expect_exit(code, report, 0)
        if fail:
            return Failure("shrink-rational" if rational else "shrink-interval", fail.detail)
        s_line = _line(report, "boundary parameter s* = ")
        rank_line = _line(report, "rank drops ")
        lines = report.splitlines()
        rows = [[Fraction(v) for v in ln.split()] for ln in lines[lines.index(next(ln for ln in lines if ln.startswith("# basis:"))) + 1:]]
        s_star = Fraction(s_line.split(" = ")[1])
        before, after = (int(v) for v in rank_line.split()[2::2])
        if rational and s_star != s0:
            return Failure("shrink-rational", f"s* = {s_star}, the line is singular first at {s0}", wrong=True)
        if s_star <= 1 or rows != line_at(s_star):
            return Failure("shrink-boundary", f"boundary matrix is not G(s*) for s* = {s_star}", wrong=True)
        if exact.rank(rows) != after or not after < before:
            return Failure("shrink-boundary", f"rank {exact.rank(rows)}, report says {before} -> {after}", wrong=True)
        return None

    kind = f"shrink-{size}-{'rational' if rational else 'generic'}"
    return Op(kind, ["gram", "shrink", "--g1", str(p1), "--g2", str(p2)], check, kind)


# ---------------------------------------------------------------------------
# the workload table


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: tuple  # operation kinds, one cycle
    build: Callable  # (kind, rng, workdir, tag, cycle_index) -> Op
    warmup: tuple  # kinds run once, untimed, before measuring
    # cycles after which every input kind has come round equally often; a
    # run is a whole number of rotations, so every run has the same mix
    rotation: int = 1


def _groups(kind, rng, workdir, tag, cycle_index):
    return groups_table_op(rng, workdir, int(kind.split("-")[1]), tag)


def _field(kind, rng, workdir, tag, cycle_index):
    what, arg = kind.split(":")
    if what == "normform":
        return normform_op(rng, int(arg))
    groups = list(QUARTICS)
    if arg.startswith("high"):
        # two high-height quartics per cycle, one in the lowest band and one
        # in the highest; the groups rotate
        j = int(arg[4:])
        group = groups[(cycle_index + 2 * j) % len(groups)]
        return obstruct_op(rng, group, "high", (STRATA - 1) * j)
    group, height = arg.split("@")
    return obstruct_op(rng, group, height, (groups.index(group) + cycle_index) % STRATA)


def _boundary(kind, rng, workdir, tag, cycle_index):
    return boundary_op(rng, workdir, int(kind.split("-h")[1]), tag)


def _gram(kind, rng, workdir, tag, cycle_index):
    if kind == "extract":
        return extract_op(rng, workdir, 10, tag)
    _, size, variant = kind.split("-")
    rational = variant == "rational" or (variant == "alternating" and cycle_index % 2 == 1)
    return shrink_op(rng, workdir, 2 if size == "6" else 3, rational, tag)


WORKLOADS = {
    "groups-table": Workload(
        "groups-table",
        ("table-6", "table-4", "table-6", "table-6", "table-4", "table-6", "table-4", "table-8"),
        _groups,
        ("table-4", "table-6", "table-8"),
    ),
    "field-certs": Workload(
        "field-certs",
        # the low quartics come four times and n=7 twice, so the median
        # falls inside the block of cheap obstructions and the 90th
        # percentile inside the n=7 norm forms, not on the edge of a block
        tuple(f"obstruct:{g}@low" for g in QUARTICS) * 4
        + tuple(f"obstruct:{g}@mid" for g in QUARTICS)
        + ("obstruct:high0", "obstruct:high1")
        + tuple(f"normform:{n}" for n in (4, 5, 6, 7, 7, 8)),
        _field,
        ("obstruct:S4@low", "obstruct:D4@low", "normform:4"),
        rotation=STRATA,  # the groups of the high slots and the bands of the others
    ),
    "boundary-chain": Workload(
        "boundary-chain",
        # the median falls inside the block of height 1 and the 90th
        # percentile inside that of height 10^4, the two heights whose
        # instances cost alike; height 100 varies by a third from one
        # instance to the next, so it gets one slot
        ("boundary-h1", "boundary-h10000", "boundary-h1", "boundary-h100", "boundary-h1",
         "boundary-h10000", "boundary-h1"),
        _boundary,
        ("boundary-h1",),
    ),
    "gram-certs": Workload(
        "gram-certs",
        # five extractions, so the median falls in the middle of their block
        ("extract", "shrink-6-generic", "extract", "extract", "shrink-6-rational", "extract", "extract",
         "shrink-10-alternating"),
        _gram,
        ("extract", "shrink-6-rational"),
        rotation=2,  # the 10x10 slot alternates generic and rational lines
    ),
}


def make_op(workload: Workload, seed: int, index: int, workdir: Path, warmup: bool = False) -> Op:
    """Operation ``index`` of a run; warm-up operations use their own stream."""
    stream = "warmup" if warmup else "op"
    rng = random.Random(f"{workload.name}:{seed}:{stream}:{index}")
    kinds = workload.warmup if warmup else workload.cycle
    kind = kinds[index % len(kinds)]
    tag = f"{stream}{index}"
    return workload.build(kind, rng, workdir, tag, index // len(kinds))

"""Number-field pipeline: certified root isolation, the complex-conjugation
involution, norm forms, general position, quartic Galois groups, and the
Galois-theoretic obstruction certificate for rational sums of squares.

The obstruction: for a totally imaginary field of degree 2d >= 4 whose
Galois action together with complex conjugation tau has characteristic
number c > d (condition (**)), the norm form of a sufficiently general
linear form is a real sum of two squares but not a rational sum of squares.
Every check feeding that conclusion here is either exact (Sturm chains
and counts, Vandermonde reasoning) or interval-certified.
"""

import enum
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import isqrt
from typing import Sequence

import mpmath

from .errors import (
    CheckFailed,
    DegreeTooSmall,
    DimensionMismatch,
    GaloisDataMissing,
    NotMonic,
    NotSquarefree,
    PrecisionExhausted,
    Reducible,
    ZeroPolynomial,
)
from .intervals import Box, Interval, det3_box, eval_unipoly_box
from .permgroup import FpfClassInfo, GroupDesc, Perm, StabChain, char_number, parse_generators
from .poly import Poly, UniPoly
from .resultants import pencil_det
from .sturm import count_real_roots, rational_roots, sturm_chain

DEFAULT_PRECISION_BITS = 128
PRECISION_CAP_BITS = 1024


def canonical_linear_form() -> tuple[UniPoly, UniPoly, UniPoly]:
    """Coefficients (1, alpha, alpha^2) of the default l = x1 + a x2 + a^2 x3."""
    return (UniPoly([1]), UniPoly([0, 1]), UniPoly([0, 0, 1]))


# ---------------------------------------------------------------------------
# certified root isolation


@dataclass(frozen=True)
class RootSystem:
    """Certified complex roots of ``minpoly``: disjoint rational boxes, one root each.

    ``pairing`` is the complex-conjugation permutation on box indices (real
    roots are its fixed points); when the polynomial is totally imaginary it
    is a fixed-point-free involution.  The boxes are exact rational data.
    One root system is isolated per minimal polynomial and handed to every
    stage that needs its roots; a stage whose boxes are too wide asks for
    ``refined()``, which reuses the Sturm ``chain`` of ``minpoly``.
    """

    minpoly: UniPoly
    boxes: tuple[Box, ...]
    pairing: Perm
    precision_bits: int
    chain: tuple[UniPoly, ...] = ()

    @property
    def degree(self) -> int:
        return len(self.boxes)

    def refined(self) -> "RootSystem":
        """The same roots isolated again at twice the precision.

        Raises PrecisionExhausted past PRECISION_CAP_BITS.
        """
        return isolate_roots(self.minpoly, 2 * self.precision_bits, self.chain)


def _mpf_to_fraction(x) -> Fraction:
    """Exact rational value of an mpmath float (dyadic, so always exact)."""
    p, q = mpmath.libmp.to_rational(mpmath.mpf(x)._mpf_)
    return Fraction(p, q)


def _eval_exact_sq(coeffs: list[Fraction], re: Fraction, im: Fraction) -> Fraction:
    """|p(re + i*im)|^2, exactly."""
    a, b = Fraction(0), Fraction(0)  # accumulated real and imaginary parts
    for c in reversed(coeffs):
        a, b = a * re - b * im + c, a * im + b * re
    return a * a + b * b


def _verified_upper_root(value: Fraction, k: int) -> Fraction:
    """A rational B with B^k >= value, via dyadic bracketing (value > 0)."""
    e = value.numerator.bit_length() - value.denominator.bit_length() + 1
    b = Fraction(2) ** -(-e // k)
    if b**k < value:
        raise CheckFailed(f"dyadic bracket {b} of the {k}-th root of {value} is too small")
    for _ in range(8):  # sharpen; each halving is exactly verified
        half = b / 2
        if half**k >= value:
            b = half
        else:
            break
    return b


def _candidate_radius(m: UniPoly, re: Fraction, im: Fraction) -> Fraction:
    """Rational radius so the disc around (re, im) surely contains a root.

    Uses two exact a-posteriori bounds on the distance to the nearest root:
    min_i |z - r_i| <= (|m(z)|/|lc|)^(1/n) and <= n |m(z)/m'(z)|.
    """
    n = m.degree()
    coeffs = list(m.coeffs)
    fz_sq = _eval_exact_sq(coeffs, re, im)
    if fz_sq == 0:
        return Fraction(0)
    lc_sq = m.lead() ** 2
    b1 = _verified_upper_root(fz_sq / lc_sq, 2 * n)
    dcoeffs = list(m.derivative().coeffs)
    dfz_sq = _eval_exact_sq(dcoeffs, re, im)
    if dfz_sq > 0:
        b2 = _verified_upper_root(Fraction(n * n) * fz_sq / dfz_sq, 2)
        return min(b1, b2)
    return b1


def isolate_roots(m: UniPoly, precision_bits: int = DEFAULT_PRECISION_BITS, chain: Sequence = ()) -> RootSystem:
    """Isolate all complex roots of a squarefree polynomial in disjoint boxes.

    Certification is by counting: each box provably contains at least one
    root (exact a-posteriori bound) and the boxes are pairwise disjoint, so
    each contains exactly one of the deg(m) roots.  Boxes symmetric about
    the real axis contain the real roots (their count is cross-checked
    against the exact Sturm count); the conjugation pairing is certified by
    mirror overlap.  Precision doubles until everything separates.  A
    caller that has built the Sturm chain of m passes it as ``chain``.
    """
    if not m or m.degree() < 1:
        raise ZeroPolynomial("need a nonconstant polynomial")
    chain = tuple(chain or sturm_chain(m))
    if chain[0].degree() != m.degree():
        raise NotSquarefree("polynomial has repeated roots")
    n_real = count_real_roots(chain)
    prec = max(precision_bits, 53)
    while prec <= PRECISION_CAP_BITS:
        result = _try_isolate(m, n_real, prec)
        if result is not None:
            boxes, pairing_images = result
            return RootSystem(
                minpoly=m,
                boxes=tuple(boxes),
                pairing=Perm(pairing_images),
                precision_bits=prec,
                chain=chain,
            )
        prec *= 2
    raise PrecisionExhausted(f"root isolation failed at {PRECISION_CAP_BITS} bits")


def _try_isolate(m: UniPoly, n_real: int, prec: int):
    n = m.degree()
    with mpmath.workprec(prec):
        coeffs_desc = [mpmath.mpf(c.numerator) / mpmath.mpf(c.denominator) for c in reversed(m.coeffs)]
        try:
            roots = mpmath.polyroots(coeffs_desc, maxsteps=200, extraprec=prec)
        except mpmath.libmp.NoConvergence:
            return None
        data = []
        for z in roots:
            re = _mpf_to_fraction(mpmath.re(z))
            im = _mpf_to_fraction(mpmath.im(z))
            rad = _candidate_radius(m, re, im)
            data.append((re, im, rad))
    # the n_real approximations closest to the axis are the real candidates,
    # boxed symmetrically about the axis so that each still contains its disc
    real_idx = set(sorted(range(n), key=lambda i: (abs(data[i][1]), i))[:n_real])
    candidates = []
    for i, (re, im, rad) in enumerate(data):
        real = i in real_idx
        box = Box(Interval.around(re, rad), Interval.around(0, rad + abs(im))) if real else Box.around(re, im, rad)
        candidates.append((box, real))
    candidates.sort(key=lambda cand: (cand[0].re.lo, cand[0].im.lo))  # deterministic order by corner
    boxes = [box for box, _ in candidates]
    # disjointness (strict: touching edges force a refinement)
    if any(a.overlaps(b) for a, b in combinations(boxes, 2)):
        return None
    # conjugation pairing: a non-real box avoids the axis and has exactly one mirror partner
    pairing = []
    for i, (box, real) in enumerate(candidates):
        if real:
            pairing.append(i)
            continue
        if not (box.strictly_above_axis() or box.strictly_below_axis()):
            return None
        mirror = box.conjugate()
        partners = [j for j, other in enumerate(boxes) if other.overlaps(mirror)]
        if len(partners) != 1 or partners[0] == i:
            return None
        pairing.append(partners[0])
    if any(pairing[j] != i for i, j in enumerate(pairing)):
        return None
    return boxes, pairing


# ---------------------------------------------------------------------------
# norm forms


def _multiplication_matrix(m: UniPoly, beta: UniPoly) -> list[list[Fraction]]:
    """Matrix of multiplication by beta(alpha) on the basis 1, alpha, ..., alpha^(n-1).

    Column i holds the coefficients of beta * t^i mod m (m monic).
    """
    n = m.degree()
    col = (list((beta % m).coeffs) + [Fraction(0)] * n)[:n]
    cols = []
    for _ in range(n):
        cols.append(col)
        top = col[-1]  # t * col, with t^n replaced by t^n - m
        col = [Fraction(0)] + col[:-1]
        if top:
            col = [c - top * a for c, a in zip(col, m.coeffs)]
    return [list(row) for row in zip(*cols)]


def norm_form(m: UniPoly, lin: tuple[UniPoly, ...] | None = None) -> Poly:
    """The norm of l = sum lin_j(alpha) x_j down to the rationals.

    Computed as det(sum_j x_j M(lin_j(alpha))), the determinant of the
    linear pencil of multiplication matrices; for monic squarefree m this
    is the product of l over all conjugates of alpha (equal to
    Res_t(m(t), l(t; x))), a form of degree deg(m) with rational
    coefficients.  Coefficients of t-degree >= deg(m) are reduced mod m.
    """
    if not m or m.degree() < 1:
        raise ZeroPolynomial("need a nonconstant minimal polynomial")
    if not m.is_monic():
        raise NotMonic("minimal polynomial must be monic")
    if sturm_chain(m)[0].degree() != m.degree():
        raise NotSquarefree("minimal polynomial has repeated roots")
    if lin is None:
        lin = canonical_linear_form()
    if not any(lin):
        raise ZeroPolynomial("linear form is identically zero")
    return pencil_det([_multiplication_matrix(m, beta) for beta in lin])


# ---------------------------------------------------------------------------
# general position


class GeneralPosition(enum.Enum):
    EXACT_VANDERMONDE = "ExactVandermonde"
    NUMERIC_CERTIFIED = "NumericCertified"
    INCONCLUSIVE = "Inconclusive"


def general_position(roots: RootSystem, lin: tuple[UniPoly, ...] | None = None) -> GeneralPosition:
    """Certify that no three conjugates of l share a nontrivial complex zero.

    ``roots`` is the isolated root system of the (squarefree) minimal
    polynomial.  For the canonical l = x1 + a x2 + a^2 x3 the 3x3
    coefficient minors are Vandermonde determinants in distinct roots,
    nonzero by squarefreeness: exact verdict.  Otherwise every triple
    determinant is evaluated in rational interval arithmetic over the
    given boxes, refining the root system until all exclude zero, and
    Inconclusive once refinement passes the precision cap.
    """
    if lin is None:
        lin = canonical_linear_form()
    lin = tuple(lin)
    if len(lin) != 3:
        raise DimensionMismatch(f"general position applies to ternary linear forms, got {len(lin)} entries")
    if lin == canonical_linear_form() or roots.degree < 3:  # Vandermonde, or no triple
        return GeneralPosition.EXACT_VANDERMONDE
    while True:
        rows = [[eval_unipoly_box(c.coeffs, box) for c in lin] for box in roots.boxes]
        if all(det3_box([rows[i], rows[j], rows[k]]).excludes_zero()
               for i, j, k in combinations(range(len(rows)), 3)):
            return GeneralPosition.NUMERIC_CERTIFIED
        try:
            roots = roots.refined()
        except PrecisionExhausted:
            return GeneralPosition.INCONCLUSIVE


# ---------------------------------------------------------------------------
# quartic Galois groups


def _rational_sqrt(x: Fraction) -> Fraction | None:
    """The rational r >= 0 with r^2 = x, or None when x is not a rational square."""
    if x < 0:
        return None
    p, q = isqrt(x.numerator), isqrt(x.denominator)
    return Fraction(p, q) if p * p == x.numerator and q * q == x.denominator else None


def _depress_quartic(m: UniPoly) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """(shift, p, q, r): the roots of m plus shift are those of y^4 + p y^2 + q y + r."""
    a3, a2, a1, a0 = m[3], m[2], m[1], m[0]
    p = a2 - 3 * a3**2 / 8
    q = a1 - a3 * a2 / 2 + a3**3 / 8
    r = a0 - a3 * a1 / 4 + a3**2 * a2 / 16 - 3 * a3**4 / 256
    return a3 / 4, p, q, r


def _quartic_reducible(
    m: UniPoly, chain: Sequence, p: Fraction, q: Fraction, r: Fraction, resolvent_roots: list[Fraction]
) -> bool:
    if rational_roots(m, chain):
        return True
    for y0 in resolvent_roots:
        if q != 0:
            e1 = y0 - p
            if e1 != 0 and _rational_sqrt(e1) is not None:
                return True
        else:
            if _rational_sqrt(p * p - 4 * r) is not None:
                return True
            sr = _rational_sqrt(r)
            if sr is not None and any(_rational_sqrt(2 * b - p) is not None for b in (sr, -sr)):
                return True
    return False


@dataclass(frozen=True)
class QuarticGalois:
    group: GroupDesc
    roots: RootSystem
    resolvent: UniPoly
    discriminant: Fraction


# generators on the root indices; {0} {1} | {2} {3} is the root pairing that
# the rational resolvent root of D4 and C4 picks out
_QUARTIC_GENERATORS = {
    "S4": "(1 2 3 4),(1 2)",
    "A4": "(1 2 3),(2 3 4)",
    "V4": "(1 2)(3 4),(1 3)(2 4)",
    "D4": "({0} {1}),({0} {2})({1} {3})",
    "C4": "({0} {2} {1} {3})",
}


def quartic_galois(m: UniPoly, chain: Sequence = ()) -> QuarticGalois:
    """Galois group of an irreducible quartic via the resolvent cubic.

    Returns the group, labelled S4, A4, D4, C4 or V4, with generators acting
    on the root indices of the isolated root system; for the groups that
    stabilize a pairing, the pairing is identified against the rational
    resolvent root by interval arithmetic.  One Sturm chain of m, built
    here unless the caller passes it as ``chain``, serves the rational-root
    screen and ``isolate_roots``.
    """
    if m.degree() != 4:
        raise DegreeTooSmall("quartic Galois analysis needs degree exactly 4")
    m = m.monic()
    shift, p, q, r = _depress_quartic(m)
    resolvent = UniPoly([4 * p * r - q * q, -4 * r, -p, Fraction(1)])
    # the resolvent roots x1x2 + x3x4, ... differ pairwise by (xa - xb)(xc - xd),
    # so the discriminant of the cubic y^3 + b y^2 + c y + d is disc(m)
    d, c, b, _ = resolvent.coeffs
    disc = b * b * c * c - 4 * c**3 - 4 * b**3 * d - 27 * d * d + 18 * b * c * d
    if disc == 0:
        raise Reducible("polynomial has repeated roots")
    roots = rational_roots(resolvent)
    chain = tuple(chain or sturm_chain(m))
    if _quartic_reducible(m, chain, p, q, r, roots):
        raise Reducible(f"{m} has a proper rational factor")
    rs = isolate_roots(m, chain=chain)
    pairing = (0, 1, 2, 3)
    if not roots:
        label = "A4" if _rational_sqrt(disc) is not None else "S4"
    elif len(roots) == 3:
        label = "V4"
    elif len(roots) == 1:
        y0 = roots[0]
        is_c4 = any(e != 0 and _rational_sqrt(e * disc) is not None for e in (y0 - p, y0 * y0 - 4 * r))
        label = "C4" if is_c4 else "D4"
        pairing = _identify_pairing(rs, shift, y0)
    else:
        raise CheckFailed(
            f"resolvent cubic {resolvent} of a squarefree quartic has {len(roots)} rational roots"
        )
    gens = parse_generators(_QUARTIC_GENERATORS[label].format(*(i + 1 for i in pairing)), 4)
    return QuarticGalois(GroupDesc(4, gens, label), rs, resolvent, disc)


def _identify_pairing(rs: RootSystem, shift: Fraction, y0: Fraction) -> tuple[int, int, int, int]:
    """The pairing (a, b, c, d) of root indices with y_a y_b + y_c y_d = y0,
    where y = root + shift are the roots of the depressed quartic."""
    shift_box = Box.point(shift)
    pairings = [(0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2)]
    while True:
        depressed = [box + shift_box for box in rs.boxes]
        hits = []
        for a, b, c, d in pairings:
            val = depressed[a] * depressed[b] + depressed[c] * depressed[d]
            if val.re.contains(y0) and val.im.contains_zero():
                hits.append((a, b, c, d))
        if len(hits) == 1:
            return hits[0]
        try:
            rs = rs.refined()
        except PrecisionExhausted:
            raise PrecisionExhausted("could not separate the resolvent pairings") from None


# ---------------------------------------------------------------------------
# the obstruction certificate


class Conclusion(enum.Enum):
    NOT_Q_SOS = "NotQSos"
    # (**) holds for a Galois group that the caller supplied and nothing verified
    CONDITIONAL_NOT_Q_SOS = "ConditionalNotQSos (assumes the supplied group is the Galois group)"
    NO_OBSTRUCTION = "NoObstruction"


@dataclass(frozen=True)
class CheckRecord:
    name: str
    status: str  # "pass" | "fail" | "inconclusive"
    detail: str


@dataclass(frozen=True)
class ObstructionCert:
    """Machine-checkable outcome of the norm-form obstruction pipeline.

    ``conclusion`` is NOT_Q_SOS only when the totally-imaginary, squarefree
    and general-position checks all pass and c >= d + 1 (condition (**))
    for the derived quartic Galois group; for a supplied group of degree > 4
    it is CONDITIONAL_NOT_Q_SOS instead.
    ``precision_bits`` is that of the isolated roots.  It is set as soon as
    they are isolated: on the quartic path when ``quartic_galois`` returns,
    before the supplied group is compared; otherwise after the squarefree
    and real-root checks.  It stays None when the certificate stops before
    any root is isolated.
    """

    minpoly: str
    degree: int
    d: int
    conclusion: Conclusion
    checks: tuple[CheckRecord, ...]
    c: int | None = None
    tau: str | None = None
    group_label: str | None = None
    group_order: int | None = None
    general_position_verdict: GeneralPosition | None = None
    membership_verified: bool | None = None
    precision_bits: int | None = None

    def render(self) -> str:
        lines = [
            "== obstruction certificate ==",
            f"minimal polynomial: {self.minpoly}",
            f"degree 2d = {self.degree}, d = {self.d}",
        ]
        if self.group_label:
            lines.append(f"Galois action: {self.group_label} (order {self.group_order})")
        if self.tau is not None:
            lines.append(f"conjugation tau = {self.tau}")
        if self.c is not None:
            lines.append(
                f"characteristic number c = {self.c}; "
                f"(*) requires {self.degree - 1}, (**) requires >= {self.d + 1}"
            )
        if self.membership_verified is not None:
            lines.append(f"tau membership in group: {'verified' if self.membership_verified else 'refuted'}")
        if self.precision_bits is not None:
            lines.append(f"working precision: {self.precision_bits} bits")
        for rec in self.checks:
            lines.append(f"check {rec.name}: {rec.status} ({rec.detail})")
        lines.append(f"conclusion: {self.conclusion.value}")
        return "\n".join(lines)


def obstruction_check(
    m: UniPoly,
    lin: tuple[UniPoly, ...] | None = None,
    group: GroupDesc | None = None,
) -> ObstructionCert:
    """Run the full norm-form obstruction pipeline.

    Degree-4 inputs always derive their Galois group; a supplied one is
    checked against it by cycle types and, when conjugate, replaced by it.
    Higher degrees require ``group`` as input, acting on the root indices
    of ``isolate_roots(m)``; it is an assumption there, so the most it
    supports is CONDITIONAL_NOT_Q_SOS, and it is checked transitive before
    anything else, since c is defined only for a transitive group.  A
    supplied group on other than deg(m) points raises DimensionMismatch.
    tau is never supplied.  One Sturm chain of m serves the squarefree and
    real-root checks and the isolation, and the roots of m are isolated
    once (by ``quartic_galois`` or here): tau is their certified
    conjugation pairing, and the same boxes feed general position.  The
    certificate is monotone: an inconclusive or failing check always
    yields NO_OBSTRUCTION with the check named.
    """
    if not m or m.degree() < 4:
        raise DegreeTooSmall(f"need degree 2d >= 4, got {m.degree() if m else 'zero polynomial'}")
    two_d = m.degree()
    if group is not None and group.degree != two_d:
        raise DimensionMismatch(f"supplied group acts on {group.degree} points, not on the {two_d} roots")
    d = two_d // 2
    checks: list[CheckRecord] = []
    facts: dict = {}  # certificate fields, each set as soon as it is known

    def check(name: str, ok: bool, detail: str) -> bool:
        checks.append(CheckRecord(name, "pass" if ok else "fail", detail))
        return ok

    def done(conclusion=Conclusion.NO_OBSTRUCTION) -> ObstructionCert:
        return ObstructionCert(str(m), two_d, d, conclusion, tuple(checks), **facts)

    if two_d % 2 == 1:  # recorded only when it fails
        check("even degree", False, f"degree {two_d} is odd")
        return done()
    if not m.is_monic():
        raise NotMonic("minimal polynomial must be monic")
    if two_d > 4 and group is not None:
        stab = group.chain()
        orbits = "one orbit" if stab.is_transitive else "several orbits"
        if not check("supplied group transitive", stab.is_transitive, f"{orbits} on the {two_d} root indices"):
            return done()
    chain = sturm_chain(m)
    squarefree = chain[0].degree() == two_d
    if not check("squarefree", squarefree, "gcd(m, m') constant" if squarefree else "gcd(m, m') is nonconstant"):
        return done()
    n_real = count_real_roots(chain)
    real_detail = f"Sturm count {n_real} real roots" if n_real else "Sturm count 0, exact"
    if not check("totally imaginary", n_real == 0, real_detail):
        return done()

    if two_d == 4:
        try:
            qg = quartic_galois(m, chain)
        except Reducible as exc:
            check("irreducible", False, str(exc))
            return done()
        rs, proven, stab = qg.roots, Conclusion.NOT_Q_SOS, qg.group.chain()
        facts["precision_bits"] = rs.precision_bits
        check("irreducible", True, "quartic screens")
        if group is not None:
            # the multisets of cycle types separate the conjugacy classes of subgroups of S4
            conjugate = _cycle_types(group.chain()) == _cycle_types(stab)
            gens = ",".join(str(g) for g in group.generators)
            detail = f"supplied {gens} is {'' if conjugate else 'not '}conjugate to the derived {qg.group.label}"
            if not check("supplied group", conjugate, detail):
                return done()
        group = qg.group
    elif group is None:
        raise GaloisDataMissing("degree > 4 requires explicit Galois data")
    else:
        rs, proven = isolate_roots(m, chain=chain), Conclusion.CONDITIONAL_NOT_Q_SOS
        facts["precision_bits"] = rs.precision_bits
    tau = rs.pairing
    facts.update(tau=str(tau), group_label=group.label, group_order=stab.order)

    if not check("tau fpf involution", tau.is_involution() and tau.is_fixed_point_free(), str(tau)):
        return done()
    member = facts["membership_verified"] = tau.images in stab
    member_detail = f"group order {stab.order}" if member else "tau not in the generated group"
    if not check("tau in group", member, member_detail):
        return done()

    gp = facts["general_position_verdict"] = general_position(rs, lin)
    if gp is GeneralPosition.INCONCLUSIVE:
        checks.append(CheckRecord("general position", "inconclusive", "interval refinement capped"))
        return done()
    check("general position", True, gp.value)

    info = FpfClassInfo(tau, char_number(group, tau))
    facts["c"] = info.c
    if not check("condition (**)", info.satisfies_starstar, f"c = {info.c}, threshold d + 1 = {d + 1}"):
        return done()
    return done(proven)


def _cycle_types(chain: StabChain) -> list[tuple[int, ...]]:
    return sorted(Perm(e).cycle_type() for e in chain.elements())

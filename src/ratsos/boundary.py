"""Boundary sextics from nine-point configurations.

Two cubics meeting transversely in nine rational projective points carry a
unique linear relation among the values of every cubic at those points
(Cayley-Bacharach).  Weight tuples a with exactly one negative entry and
sum u_i^2 / a_i = 0 turn the points into a linear functional alpha on
sextics whose moment matrix is PSD of rank 7; its three-dimensional kernel
of cubics assembles strictly positive sextics on the boundary of the SOS
cone, each with a unique SOS representation.  All of it is certified in
exact arithmetic here, through to the singleton Gram spectrahedron.
"""

import enum
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .errors import (
    CheckFailed,
    DimensionMismatch,
    DuplicatePoint,
    HeterogeneousDegrees,
    LinearlyDependent,
    MissingGramWitness,
    NoSolution,
    NotCayleyBacharach,
    NotPsd,
    NotQuadraticallyIndependent,
    ParseError,
)
from .gram import GramPoint, QSosWitness, extract_qsos, is_gram_point
from .linalg import SymMatrix, nullspace, psd_check, rank
from .poly import Poly, data_lines, monomials, parse_rational, primitive_vector, sum_of_squares

CUBICS = monomials(3, 3)  # 10 monomials
SEXTICS = monomials(3, 6)  # 28 monomials
# each sextic monomial as a product of two cubic ones, by their indices in CUBICS
_PRODUCTS = {tuple(map(sum, zip(a, b))): (j, k) for j, a in enumerate(CUBICS) for k, b in enumerate(CUBICS)}
SEXTIC_FACTORS = tuple(_PRODUCTS[e] for e in SEXTICS)


@dataclass(frozen=True)
class NinePointConfig:
    """Nine projective points of P^2 with chosen affine representatives."""

    points: tuple[tuple[Fraction, Fraction, Fraction], ...]

    def __post_init__(self):
        if len(self.points) != 9:
            raise DimensionMismatch(f"need exactly 9 points, got {len(self.points)}")
        for p in self.points:
            if not any(p):
                raise DuplicatePoint("zero vector is not a projective point")
        for i in range(9):
            for j in range(i + 1, 9):
                if _proportional(self.points[i], self.points[j]):
                    raise DuplicatePoint(f"points {i + 1} and {j + 1} coincide projectively")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "NinePointConfig":
        return cls(tuple(tuple(Fraction(x) for x in row) for row in rows))

    @classmethod
    def parse(cls, text: str) -> "NinePointConfig":
        rows = []
        for _, line in data_lines(text):
            parts = [p for p in line.split(",") if p.strip()]
            if len(parts) != 3:
                raise ParseError(f"point line needs 3 coordinates: {line!r}")
            rows.append(tuple(parse_rational(p) for p in parts))
        return cls(tuple(rows))


def _proportional(p, q) -> bool:
    return (
        p[0] * q[1] == p[1] * q[0]
        and p[0] * q[2] == p[2] * q[0]
        and p[1] * q[2] == p[2] * q[1]
    )


def demo_points() -> NinePointConfig:
    """The transverse intersection of x1(x1^2-x3^2) and x2(x2^2-x3^2)."""
    return NinePointConfig.from_rows(
        [
            (1, 1, 1),
            (-1, 1, 1),
            (1, -1, 1),
            (1, 1, -1),
            (0, 1, 1),
            (0, 1, -1),
            (1, 0, 1),
            (1, 0, -1),
            (0, 0, 1),
        ]
    )


def demo_tuple() -> "WeightTuple":
    return WeightTuple((1, 1, 1, 1, 4, 4, 4, 4, -2))


def demo_kernel_cubics() -> tuple[Poly, Poly, Poly]:
    x1, x2, x3 = (Poly.variable(i, 3) for i in (1, 2, 3))
    p1 = x1 * (x1**2 - x3**2)
    p2 = x2 * (x2**2 - x3**2)
    p3 = (3 * x1**2 + 3 * x2**2 - 4 * x3**2) * x3
    return p1, p2, p3


def _cubic_values(p: Sequence[Fraction]) -> list[Fraction]:
    """Every cubic monomial evaluated at one point, in the order of CUBICS."""
    return [p[0] ** e[0] * p[1] ** e[1] * p[2] ** e[2] for e in CUBICS]


def evaluation_matrix(cfg: NinePointConfig) -> list[list[Fraction]]:
    """9 x 10 matrix of all cubic monomials evaluated at the points."""
    return [_cubic_values(p) for p in cfg.points]


def cb_relation(cfg: NinePointConfig) -> list[Fraction]:
    """The unique linear relation among cubic values at the nine points.

    Returns the left-kernel vector of the evaluation matrix, normalized to
    integers with content 1 and positive first nonzero entry.  Generic nine
    points have no relation and degenerate ones have several; both raise
    :class:`NotCayleyBacharach` with the kernel dimension.
    """
    ev = evaluation_matrix(cfg)
    left = nullspace([list(col) for col in zip(*ev)])
    if len(left) != 1:
        raise NotCayleyBacharach(len(left))
    return primitive_vector(left[0])


@dataclass(frozen=True)
class WeightTuple:
    """Nine nonzero weights with exactly one negative entry."""

    a: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(Fraction(x) for x in self.a))
        if len(self.a) != 9:
            raise DimensionMismatch(f"need 9 weights, got {len(self.a)}")
        if any(x == 0 for x in self.a):
            raise ParseError("weights must be nonzero")
        negatives = sum(1 for x in self.a if x < 0)
        if negatives != 1:
            raise ParseError(f"need exactly one negative weight, got {negatives}")

    @classmethod
    def parse(cls, text: str) -> "WeightTuple":
        parts = [p for p in text.split(",") if p.strip()]
        return cls(tuple(parse_rational(p) for p in parts))


@dataclass(frozen=True)
class TupleVerdict:
    ok: bool
    reason: str


def check_tuple(u: Sequence[Fraction], tup: WeightTuple) -> TupleVerdict:
    """Exact check of the relation sum u_i^2/a_i = 0.

    ``WeightTuple`` has already enforced the sign pattern: nine nonzero
    weights, exactly one of them negative.
    """
    total = sum(x * x / y for x, y in zip(u, tup.a))
    if total != 0:
        return TupleVerdict(False, f"sum u_i^2/a_i = {total} != 0")
    return TupleVerdict(True, "sign pattern and relation hold exactly")


@dataclass(frozen=True)
class LinearFunctional:
    """Functional on ternary sextics, stored on the 28-monomial basis."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coeffs) != len(SEXTICS):
            raise DimensionMismatch(f"need {len(SEXTICS)} coefficients, got {len(self.coeffs)}")

    def __call__(self, f: Poly) -> Fraction:
        if f.nvars != 3 or (f and not (f.is_homogeneous() and f.degree() == 6)):
            raise HeterogeneousDegrees("functional applies to homogeneous ternary sextics")
        vec = f.coeff_vector(SEXTICS)
        return sum((c * v for c, v in zip(self.coeffs, vec)), Fraction(0))

    def to_text(self) -> str:
        return "functional n=3 2d=6\n" + "\n".join(str(c) for c in self.coeffs) + "\n"

    @classmethod
    def parse(cls, text: str) -> "LinearFunctional":
        lines = [line for _, line in data_lines(text)]
        if not lines or not lines[0].startswith("functional"):
            raise ParseError("functional file must start with a 'functional n=3 2d=6' header")
        return cls(tuple(parse_rational(v) for ln in lines[1:] for v in ln.split()))


def functional_from_points(
    points: Sequence[Sequence], weights: Sequence
) -> LinearFunctional:
    """alpha(x^beta) = sum_i a_i xi_i^beta for any weighted point family."""
    pts = [tuple(Fraction(x) for x in p) for p in points]
    ws = [Fraction(w) for w in weights]
    if len(pts) != len(ws):
        raise DimensionMismatch("points/weights length mismatch")
    coeffs = [Fraction(0)] * len(SEXTICS)
    for p, w in zip(pts, ws):
        v = _cubic_values(p)
        wv = [w * x for x in v]
        for i, (j, k) in enumerate(SEXTIC_FACTORS):
            coeffs[i] += wv[j] * v[k]
    return LinearFunctional(tuple(coeffs))


def functional_from_tuple(cfg: NinePointConfig, a: WeightTuple) -> LinearFunctional:
    return functional_from_points(cfg.points, a.a)


def moment_matrix(alpha: LinearFunctional) -> SymMatrix:
    """The bilinear form (p, q) -> alpha(pq) on cubics, as a 10x10 matrix."""
    lookup = dict(zip(SEXTICS, alpha.coeffs))
    rows = []
    for e1 in CUBICS:
        row = []
        for e2 in CUBICS:
            e = tuple(x + y for x, y in zip(e1, e2))
            row.append(lookup[e])
        rows.append(row)
    return SymMatrix.from_rows(rows)


def kernel_cubics(b: SymMatrix) -> list[Poly]:
    """Kernel of a PSD moment matrix, read back as primitive integer cubics."""
    verdict = psd_check(b)
    if not verdict.is_psd:
        raise NotPsd("moment matrix is not PSD; kernel is not the radical")
    basis = nullspace(b.to_lists())
    return [Poly.from_coeff_vector(3, CUBICS, primitive_vector(v)) for v in basis]


def assemble_sextic(qs: Sequence[Poly]) -> Poly:
    """Exact expansion of q1^2 + q2^2 + q3^2 for three independent cubics."""
    qs = list(qs)
    if len(qs) != 3:
        raise LinearlyDependent("need exactly three cubics")
    rows = [q.coeff_vector(CUBICS) for q in qs]
    if rank(rows) != 3:
        raise LinearlyDependent("cubics are linearly dependent")
    return sum_of_squares(qs)


def hilbert_function(u_basis: Sequence[Poly]) -> tuple[int, ...]:
    """Dimensions of (A/I)_k for k = 0..7, I the ideal generated by the cubics.

    dim (A/I)_k = dim A_k - rank{x^gamma u : |gamma| = k - 3}, exactly.
    Each u is scaled to integers once; the row of x^gamma u places its
    coefficients at the columns of the cubic monomials shifted by gamma.
    At k = 6 ``rank`` gets the Koszul relations u_j * u_i - u_i * u_j = 0,
    which bound the rank of that 30 x 28 piece by 27 for independent u.
    """
    cubics = [[int(c) for c in primitive_vector(u.coeff_vector(CUBICS))] for u in u_basis]
    dims = [len(monomials(3, k)) for k in range(3)]
    for k in range(3, 8):
        big = monomials(3, k)
        column = {e: j for j, e in enumerate(big)}
        rows = []
        for gamma in monomials(3, k - 3):
            cols = [column[tuple(a + b for a, b in zip(e, gamma))] for e in CUBICS]
            for coeffs in cubics:
                row = [0] * len(big)
                for j, c in zip(cols, coeffs):
                    row[j] = c
                rows.append(row)
        relations = []
        if k == 6:  # row r*g + i is x^gamma_g u_i, and gamma_g runs over CUBICS
            r = len(cubics)
            for i, j in combinations(range(r), 2):
                v = [0] * len(rows)
                v[i::r], v[j::r] = cubics[j], [-c for c in cubics[i]]
                relations.append(v)
        dims.append(len(big) - rank(rows, relations))
    return tuple(dims)


class PositivityVerdict(enum.Enum):
    STRICTLY_POSITIVE = "StrictlyPositive"
    INCONCLUSIVE = "Inconclusive"


def _positivity(hilbert: Sequence[int]) -> PositivityVerdict:
    """Strict positivity of q1^2 + q2^2 + q3^2, read off the Hilbert function
    of the cubics q_i.

    For an Artinian complete intersection of three cubics the Hilbert
    series ends at degree 6, so V(U) is empty iff I_7 fills all of A_7; a
    nonempty projective zero set keeps every graded piece of A/I nonzero.
    Real zeros of the sum are common zeros of the q_i, so an empty zero set
    makes the sum strictly positive, and a nonempty one decides nothing.
    """
    return PositivityVerdict.STRICTLY_POSITIVE if hilbert[7] == 0 else PositivityVerdict.INCONCLUSIVE


def empty_zero_check(u_basis: Sequence[Poly]) -> bool:
    """Whether the projective zero set of the cubics is empty."""
    return _positivity(hilbert_function(u_basis)) is PositivityVerdict.STRICTLY_POSITIVE


def _moment_rank(kernel: Sequence[Poly] | None) -> int | None:
    """Rank of the moment matrix on the cubics whose kernel is ``kernel``
    (None when the matrix is not PSD)."""
    return None if kernel is None else len(CUBICS) - len(kernel)


@dataclass(frozen=True)
class BoundaryCert:
    """Certificate that alpha lies in the normal cone of the SOS cone at f.

    ``kernel`` holds the kernel cubics of the moment matrix (None when the
    matrix is not PSD), so its rank is 10 - dim kernel.  ``witness`` is
    the supplied Gram point of f, checked PSD and expanding to f;
    ``extraction`` is the rational SOS extraction of f on the kernel when
    no witness was supplied.
    """

    certified: bool
    reason: str
    f: Poly
    alpha_f: Fraction
    kernel: tuple[Poly, ...] | None = None
    witness: GramPoint | None = None
    extraction: QSosWitness | None = None

    @property
    def kernel_dim(self) -> int | None:
        return None if self.kernel is None else len(self.kernel)

    @property
    def psd_rank(self) -> int | None:
        return _moment_rank(self.kernel)

    def render(self) -> str:
        lines = [
            "== boundary certificate ==",
            f"alpha(f) = {self.alpha_f}",
            f"moment matrix rank: {self.psd_rank}",
            f"kernel dimension: {self.kernel_dim}",
            f"verdict: {'certified' if self.certified else 'rejected'} ({self.reason})",
        ]
        return "\n".join(lines)


def boundary_cert(
    f: Poly,
    alpha: LinearFunctional,
    witness: GramPoint | None = None,
) -> BoundaryCert:
    """Certify f in the boundary of the SOS cone via the functional alpha.

    Requires: the moment matrix of alpha PSD with rank >= 2 (so alpha is in
    the dual cone and is not a point evaluation), alpha(f) = 0 exactly, and
    an SOS witness for f -- supplied, or derived through the kernel of the
    moment matrix and rational extraction.  The PSD check is the one inside
    :func:`kernel_cubics`; the kernel, and the extraction when no witness
    is supplied, are kept on the certificate for :func:`uniqueness_cert`.
    """
    alpha_f = alpha(f)
    try:
        kernel = tuple(kernel_cubics(moment_matrix(alpha)))
    except NotPsd:
        return BoundaryCert(False, "moment matrix not PSD: alpha is outside the dual cone", f, alpha_f)
    return _certify_on_kernel(f, alpha_f, kernel, witness)


def _certify_on_kernel(
    f: Poly, alpha_f: Fraction, kernel: tuple[Poly, ...], witness: GramPoint | None = None
) -> BoundaryCert:
    """The checks of :func:`boundary_cert` that follow the PSD check.

    A derived extraction needs no Gram-point check: ``extract_qsos`` has
    already expanded its rational squares back to f exactly.
    """

    def rejected(reason: str) -> BoundaryCert:
        return BoundaryCert(False, reason, f, alpha_f, kernel)

    if _moment_rank(kernel) < 2:
        return rejected("moment matrix has rank < 2: alpha is a point evaluation")
    if alpha_f != 0:
        return rejected(f"alpha(f) = {alpha_f} != 0: f is not on the face cut out by alpha")
    extraction = None
    if witness is not None:
        if not is_gram_point(witness, f):
            return rejected("supplied witness is not a Gram point of f")
    else:
        try:
            extraction = extract_qsos(f, list(kernel))
        except (NotPsd, NoSolution) as exc:
            # a PSD Gram matrix G of f has <G, B> = alpha(f) = 0 with B PSD,
            # so its columns lie in the kernel: f has none and is not SOS
            return rejected(f"f has no PSD Gram matrix on the kernel cubics, so it is not SOS: {exc}")
        except (NotQuadraticallyIndependent, LinearlyDependent) as exc:
            raise MissingGramWitness(
                f"no SOS witness supplied and the kernel extraction failed: {exc}"
            ) from exc
    reason = "alpha in dual cone, rank >= 2, alpha(f) = 0, SOS membership witnessed"
    return BoundaryCert(True, reason, f, alpha_f, kernel, witness, extraction)


@dataclass(frozen=True)
class UniquenessCert:
    """Certificate that the Gram spectrahedron of f is a single point."""

    certified: bool
    reason: str
    kernel_basis: tuple[Poly, ...] = ()
    quadratically_independent: bool | None = None
    restricted_gram: SymMatrix | None = None
    sos_weights: tuple[Fraction, ...] = ()
    sos_polys: tuple[Poly, ...] = ()

    def render(self) -> str:
        lines = [
            "== uniqueness certificate ==",
            f"kernel basis: {', '.join(str(p) for p in self.kernel_basis) or '-'}",
            f"quadratically independent: {self.quadratically_independent}",
        ]
        if self.restricted_gram is not None:
            lines.append("restricted Gram matrix:")
            lines.append(str(self.restricted_gram))
        lines.append(f"verdict: {'certified singleton' if self.certified else self.reason}")
        if self.sos_polys:
            rep = " + ".join(
                (f"({p})^2" if w == 1 else f"{w}*({p})^2")
                for w, p in zip(self.sos_weights, self.sos_polys)
            )
            lines.append(f"unique representation: f = {rep}")
        return "\n".join(lines)


def uniqueness_cert(boundary: BoundaryCert) -> UniquenessCert:
    """Certify that f has a single Gram point (unique SOS representation).

    Every Gram matrix of f pairs to zero against the moment matrix of
    alpha, forcing its column space into the kernel cubics; quadratic
    independence of the kernel basis then pins the restricted Gram matrix
    to the unique solution of a linear system, checked PSD exactly.  Reads
    f, the kernel and the extraction off the boundary certificate; it
    extracts only when the boundary witness was supplied by the caller.
    """
    if not boundary.certified:
        return UniquenessCert(False, f"boundary certificate failed: {boundary.reason}")
    try:
        qw = boundary.extraction or extract_qsos(boundary.f, list(boundary.kernel))
    except NotQuadraticallyIndependent:
        reason = "kernel basis not quadratically independent; singleton route inconclusive"
        return UniquenessCert(False, reason, boundary.kernel, quadratically_independent=False)
    return UniquenessCert(
        True, "singleton Gram spectrahedron", boundary.kernel, True, qw.gram, qw.weights, qw.polys
    )


@dataclass(frozen=True)
class BoundaryChain:
    """Every stage of the nine-point construction, each computed once.

    A rejected tuple stops at ``verdict`` and leaves the later stages None.
    """

    u: tuple[Fraction, ...]
    verdict: TupleVerdict
    alpha: LinearFunctional | None = None
    kernel: tuple[Poly, ...] | None = None
    f: Poly | None = None
    hilbert: tuple[int, ...] | None = None
    positivity: PositivityVerdict | None = None
    boundary: BoundaryCert | None = None
    uniqueness: UniquenessCert | None = None

    @property
    def rank(self) -> int | None:
        return _moment_rank(self.kernel)


def boundary_chain(cfg: NinePointConfig, tup: WeightTuple) -> BoundaryChain:
    """Run the construction from nine points and a weight tuple to the
    uniqueness certificate, handing each stage to the next.

    The moment matrix, PSD of rank 7 for an accepted tuple (else CheckFailed),
    is checked once (in :func:`kernel_cubics`), the Hilbert function of the
    kernel is computed once and gives positivity, and the boundary
    certificate reuses that kernel; its extraction is the one the
    uniqueness certificate reads.
    """
    u = tuple(cb_relation(cfg))
    verdict = check_tuple(u, tup)
    if not verdict.ok:
        return BoundaryChain(u, verdict)
    alpha = functional_from_tuple(cfg, tup)
    try:
        kernel = tuple(kernel_cubics(moment_matrix(alpha)))
    except NotPsd as exc:
        raise CheckFailed("the moment matrix of an accepted tuple is not PSD") from exc
    if len(kernel) != 3:
        raise CheckFailed(f"the moment matrix of an accepted tuple has rank {_moment_rank(kernel)}, not 7")
    f = assemble_sextic(kernel)
    hilbert = hilbert_function(kernel)
    positivity = _positivity(hilbert)
    boundary = _certify_on_kernel(f, alpha(f), kernel)
    uniqueness = uniqueness_cert(boundary)
    return BoundaryChain(u, verdict, alpha, kernel, f, hilbert, positivity, boundary, uniqueness)

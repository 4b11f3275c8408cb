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
from typing import Sequence

from .errors import (
    DuplicatePoint,
    LinearlyDependent,
    MissingGramWitness,
    NoSolution,
    NotASumOverU,
    NotCayleyBacharach,
    NotPsd,
    NotQuadraticallyIndependent,
    ParseError,
)
from .gram import GramPoint, QSosWitness, SosRep, extract_qsos, gram_from_squares, is_gram_point
from .linalg import SymMatrix, nullspace, psd_check, rref
from .poly import Poly, monomials, parse_rational, primitive_vector

CUBICS = monomials(3, 3)  # 10 monomials
SEXTICS = monomials(3, 6)  # 28 monomials


@dataclass(frozen=True)
class NinePointConfig:
    """Nine projective points of P^2 with chosen affine representatives."""

    points: tuple[tuple[Fraction, Fraction, Fraction], ...]

    def __post_init__(self):
        if len(self.points) != 9:
            raise ValueError(f"need exactly 9 points, got {len(self.points)}")
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
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p for p in line.split(",") if p.strip()]
            if len(parts) != 3:
                raise ParseError(f"point line needs 3 coordinates: {raw!r}")
            rows.append(tuple(parse_rational(p) for p in parts))
        if len(rows) != 9:
            raise ParseError(f"expected 9 point lines, got {len(rows)}")
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


def evaluation_matrix(cfg: NinePointConfig) -> list[list[Fraction]]:
    """9 x 10 matrix of all cubic monomials evaluated at the points."""
    rows = []
    for p in cfg.points:
        rows.append([p[0] ** e[0] * p[1] ** e[1] * p[2] ** e[2] for e in CUBICS])
    return rows


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
            raise ValueError("need 9 weights")
        if any(x == 0 for x in self.a):
            raise ValueError("weights must be nonzero")
        negatives = sum(1 for x in self.a if x < 0)
        if negatives != 1:
            raise ValueError(f"need exactly one negative weight, got {negatives}")

    @classmethod
    def parse(cls, text: str) -> "WeightTuple":
        parts = [p for p in text.split(",") if p.strip()]
        return cls(tuple(parse_rational(p) for p in parts))


@dataclass(frozen=True)
class TupleVerdict:
    ok: bool
    reason: str


def check_tuple(u: Sequence[Fraction], a: Sequence[Fraction]) -> TupleVerdict:
    """Exact check of the sign pattern and the relation sum u_i^2/a_i = 0."""
    u = [Fraction(x) for x in u]
    a = [Fraction(x) for x in a]
    if len(u) != 9 or len(a) != 9:
        return TupleVerdict(False, "need 9 entries in both vectors")
    if any(x == 0 for x in a):
        return TupleVerdict(False, "weights must be nonzero")
    negatives = sum(1 for x in a if x < 0)
    if negatives != 1:
        return TupleVerdict(False, f"need exactly one negative weight, got {negatives}")
    total = sum(x * x / y for x, y in zip(u, a))
    if total != 0:
        return TupleVerdict(False, f"sum u_i^2/a_i = {total} != 0")
    return TupleVerdict(True, "sign pattern and relation hold exactly")


@dataclass(frozen=True)
class LinearFunctional:
    """Functional on ternary sextics, stored on the 28-monomial basis."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coeffs) != len(SEXTICS):
            raise ValueError(f"need {len(SEXTICS)} coefficients")

    def __call__(self, f: Poly) -> Fraction:
        if f.nvars != 3 or (f and not (f.is_homogeneous() and f.degree() == 6)):
            raise ValueError("functional applies to homogeneous ternary sextics")
        vec = f.coeff_vector(SEXTICS)
        return sum((c * v for c, v in zip(self.coeffs, vec)), Fraction(0))

    def scaled(self, c) -> "LinearFunctional":
        c = Fraction(c)
        return LinearFunctional(tuple(c * v for v in self.coeffs))

    def to_text(self) -> str:
        return "functional n=3 2d=6\n" + "\n".join(str(c) for c in self.coeffs) + "\n"

    @classmethod
    def parse(cls, text: str) -> "LinearFunctional":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
        if not lines or not lines[0].startswith("functional"):
            raise ParseError("functional file must start with a 'functional n=3 2d=6' header")
        vals = [parse_rational(v) for ln in lines[1:] for v in ln.split()]
        if len(vals) != len(SEXTICS):
            raise ParseError(f"expected {len(SEXTICS)} coefficients, got {len(vals)}")
        return cls(tuple(vals))


def functional_from_points(
    points: Sequence[Sequence], weights: Sequence
) -> LinearFunctional:
    """alpha(x^beta) = sum_i a_i xi_i^beta for any weighted point family."""
    pts = [tuple(Fraction(x) for x in p) for p in points]
    ws = [Fraction(w) for w in weights]
    if len(pts) != len(ws):
        raise ValueError("points/weights length mismatch")
    coeffs = []
    for e in SEXTICS:
        total = Fraction(0)
        for p, w in zip(pts, ws):
            total += w * p[0] ** e[0] * p[1] ** e[1] * p[2] ** e[2]
        coeffs.append(total)
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
    if len(rref(rows)[0]) != 3:
        raise LinearlyDependent("cubics are linearly dependent")
    total = Poly.zero(3)
    for q in qs:
        total = total + q * q
    return total


def hilbert_function(u_basis: Sequence[Poly]) -> tuple[int, ...]:
    """Dimensions of (A/I)_k for k = 0..7, I the ideal generated by the cubics.

    dim (A/I)_k = dim A_k - rank{x^gamma u : |gamma| = k - 3}, exactly.
    """
    dims = []
    for k in range(8):
        dim_ak = len(monomials(3, k))
        if k < 3:
            dims.append(dim_ak)
            continue
        big = monomials(3, k)
        rows = []
        for gamma in monomials(3, k - 3):
            shift = Poly.monomial(gamma)
            for u in u_basis:
                rows.append((shift * u).coeff_vector(big))
        rk = len(rref(rows)[0]) if rows else 0
        dims.append(dim_ak - rk)
    return tuple(dims)


class ZeroSetVerdict(enum.Enum):
    EMPTY = "Empty"
    NON_EMPTY = "NonEmpty"


class PositivityVerdict(enum.Enum):
    STRICTLY_POSITIVE = "StrictlyPositive"
    INCONCLUSIVE = "Inconclusive"


def _zero_set(hilbert: Sequence[int]) -> ZeroSetVerdict:
    """Read the projective zero set of three cubics off their Hilbert function.

    For an Artinian complete intersection of three cubics the Hilbert
    series ends at degree 6, so V(U) is empty iff I_7 fills all of A_7; a
    nonempty projective zero set keeps every graded piece of A/I nonzero.
    """
    return ZeroSetVerdict.EMPTY if hilbert[7] == 0 else ZeroSetVerdict.NON_EMPTY


# real zeros of sum q_i^2 are common zeros of the q_i: none makes the sum strictly positive
_POSITIVITY = {
    ZeroSetVerdict.EMPTY: PositivityVerdict.STRICTLY_POSITIVE,
    ZeroSetVerdict.NON_EMPTY: PositivityVerdict.INCONCLUSIVE,
}


def empty_zero_check(u_basis: Sequence[Poly]) -> ZeroSetVerdict:
    """Decide whether the projective zero set of the cubics is empty."""
    return _zero_set(hilbert_function(u_basis))


def strict_positivity_cert(f: Poly, qs: Sequence[Poly]) -> PositivityVerdict:
    """Certify strict positivity of f = sum q_i^2 via the empty zero set.

    The identity f = sum q_i^2 is verified exactly first, since f and the
    q_i come from the caller.
    """
    total = Poly.zero(3)
    for q in qs:
        total = total + q * q
    if total != f:
        raise NotASumOverU("f is not the sum of squares of the given forms")
    return _POSITIVITY[empty_zero_check(list(qs))]


@dataclass(frozen=True)
class BoundaryCert:
    """Certificate that alpha lies in the normal cone of the SOS cone at f.

    ``kernel`` holds the kernel cubics of the moment matrix (None when the
    matrix is not PSD), so its rank is 10 - dim kernel.  ``extraction`` is
    the rational SOS extraction of f on the kernel when the witness was
    derived here rather than supplied.
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
        return None if self.kernel is None else len(CUBICS) - len(self.kernel)

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
    witness: GramPoint | SosRep | None = None,
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


def _certify_on_kernel(f: Poly, alpha_f: Fraction, kernel: tuple[Poly, ...], witness=None) -> BoundaryCert:
    """The checks of :func:`boundary_cert` that follow the PSD check."""

    def rejected(reason: str) -> BoundaryCert:
        return BoundaryCert(False, reason, f, alpha_f, kernel)

    if len(CUBICS) - len(kernel) < 2:
        return rejected("moment matrix has rank < 2: alpha is a point evaluation")
    if alpha_f != 0:
        return rejected(f"alpha(f) = {alpha_f} != 0: f is not on the face cut out by alpha")
    extraction = None
    if witness is None:
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
        witness = gram_from_squares(SosRep(extraction.expanded))
    elif isinstance(witness, SosRep):
        witness = gram_from_squares(witness)
    if not is_gram_point(witness, f):
        return rejected("supplied witness is not a Gram point of f")
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

    Stages after the first one that fails stay None: a rejected tuple
    stops at ``verdict``, a moment matrix that is not PSD leaves
    ``kernel`` None, and a kernel of dimension other than 3 stops there.
    """

    u: tuple[Fraction, ...]
    verdict: TupleVerdict
    alpha: LinearFunctional
    kernel: tuple[Poly, ...] | None = None
    f: Poly | None = None
    hilbert: tuple[int, ...] | None = None
    positivity: PositivityVerdict | None = None
    boundary: BoundaryCert | None = None
    uniqueness: UniquenessCert | None = None

    @property
    def rank(self) -> int | None:
        return None if self.kernel is None else len(CUBICS) - len(self.kernel)


def boundary_chain(cfg: NinePointConfig, tup: WeightTuple) -> BoundaryChain:
    """Run the construction from nine points and a weight tuple to the
    uniqueness certificate, handing each stage to the next.

    The moment matrix is checked PSD once (in :func:`kernel_cubics`), the
    Hilbert function of the kernel is computed once and gives positivity,
    and the boundary certificate reuses that kernel; its extraction is the
    one the uniqueness certificate reads.  alpha is built even for a
    rejected tuple, so it can still be saved.
    """
    u = tuple(cb_relation(cfg))
    verdict = check_tuple(u, tup.a)
    alpha = functional_from_tuple(cfg, tup)
    if not verdict.ok:
        return BoundaryChain(u, verdict, alpha)
    try:
        kernel = tuple(kernel_cubics(moment_matrix(alpha)))
    except NotPsd:
        return BoundaryChain(u, verdict, alpha)
    if len(kernel) != 3:
        return BoundaryChain(u, verdict, alpha, kernel)
    f = assemble_sextic(kernel)
    hilbert = hilbert_function(kernel)
    positivity = _POSITIVITY[_zero_set(hilbert)]
    boundary = _certify_on_kernel(f, alpha(f), kernel)
    uniqueness = uniqueness_cert(boundary)
    return BoundaryChain(u, verdict, alpha, kernel, f, hilbert, positivity, boundary, uniqueness)

"""Gram spectrahedron core: Gram points of squares, the expansion map,
face dimensions, rational SOS extraction, and span shrinking.

A Gram point of a form f of degree 2d is a PSD matrix G on the degree-d
monomial basis with X^t G X = f; its points correspond to SOS
representations up to orthogonal equivalence.  Everything here is exact:
PSD means the tolerance-free Schur-complement certificate, extraction
solves the unique linear system over the rationals, and the boundary
parameter in span shrinking is located by Sturm isolation and, when it is
rational, found exactly by p-adic lifting.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Sequence

from .errors import (
    CheckFailed,
    DifferentForms,
    DimensionMismatch,
    EqualPoints,
    HeterogeneousDegrees,
    LinearlyDependent,
    NoSolution,
    NotPsd,
    NotQuadraticallyIndependent,
    SpansDiffer,
    ZeroPolynomial,
)
from .foursquares import four_squares
from .linalg import SymMatrix, lin_solve, psd_check, rank, rref
from .poly import Poly, UniPoly, monomials, primitive_vector, sum_of_squares
from .resultants import pencil_det
from .sturm import isolate_real_roots, rational_roots, refine_interval, sturm_chain


@dataclass(frozen=True)
class GramPoint:
    """Symmetric matrix on the degree-d monomial basis of n variables."""

    nvars: int
    half_degree: int
    matrix: SymMatrix

    def __post_init__(self):
        n, d = self.nvars, self.half_degree
        if n < 1 or d < 0:
            raise DimensionMismatch(f"a Gram point needs n >= 1 and d >= 0, got n={n}, d={d}")
        # len(self.basis()) is C(n+d-1, d): count it up, without listing the
        # basis, only until it passes the matrix size
        count, k = 1, min(d, n - 1)
        for i in range(1, k + 1):
            count = count * (n + d - 1 - k + i) // i  # C(n+d-1-k+i, i)
            if count > self.matrix.size:
                break
        if count != self.matrix.size:
            raise DimensionMismatch(f"matrix size {self.matrix.size} != basis size C({n + d - 1}, {d})")

    def basis(self):
        return monomials(self.nvars, self.half_degree)


@dataclass(frozen=True)
class SosRep:
    """A list of forms whose squares sum to the represented polynomial."""

    squares: tuple[Poly, ...]

    def __post_init__(self):
        if not self.squares:
            raise HeterogeneousDegrees("empty square list")
        nvars = self.squares[0].nvars
        degs = set()
        for p in self.squares:
            if p.nvars != nvars:
                raise HeterogeneousDegrees("mixed variable counts")
            if not p.is_homogeneous():
                raise HeterogeneousDegrees(f"{p} is not homogeneous")
            if p:
                degs.add(p.degree())
        if len(degs) > 1:
            raise HeterogeneousDegrees(f"mixed degrees {sorted(degs)}")

    @property
    def nvars(self) -> int:
        return self.squares[0].nvars

    @property
    def degree(self) -> int:
        degs = [p.degree() for p in self.squares if p]
        return degs[0] if degs else 0


def gram_from_squares(rep: SosRep) -> GramPoint:
    """G = sum of coefficient-vector outer products; PSD by construction."""
    basis = monomials(rep.nvars, rep.degree)
    n = len(basis)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for p in rep.squares:
        vec = p.coeff_vector(basis)
        for i in range(n):
            if not vec[i]:
                continue
            for j in range(n):
                rows[i][j] += vec[i] * vec[j]
    return GramPoint(rep.nvars, rep.degree, SymMatrix.from_rows(rows))


def mu(point: GramPoint) -> Poly:
    """Expansion X^t G X: the form represented by the Gram matrix."""
    basis = point.basis()
    terms: dict = {}
    n = len(basis)
    for i in range(n):
        for j in range(n):
            g = point.matrix.entry(i, j)
            if not g:
                continue
            e = tuple(a + b for a, b in zip(basis[i], basis[j]))
            terms[e] = terms.get(e, Fraction(0)) + g
    return Poly(point.nvars, terms)


def is_gram_point(point: GramPoint, f: Poly) -> bool:
    """True iff the matrix expands to f and is positive semidefinite."""
    return mu(point) == f and psd_check(point.matrix).is_psd


def span_basis(point: GramPoint) -> list[Poly]:
    """Echelon basis of the column space read back as degree-d forms.

    Deterministic: reduced echelon rows scaled to primitive integer
    vectors.  Dimension equals the rank of the matrix.
    """
    verdict = psd_check(point.matrix)
    if not verdict.is_psd:
        raise NotPsd("span basis of a non-PSD Gram matrix is not meaningful here")
    return _echelon_forms(point, rref(point.matrix.to_lists())[0])


def _echelon_forms(point: GramPoint, reduced) -> list[Poly]:
    """Reduced echelon rows of ``point`` scaled to primitive integer forms."""
    basis = point.basis()
    return [
        Poly.from_coeff_vector(point.nvars, basis, primitive_vector(row)) for row in reduced
    ]


def _product_rows(polys: Sequence[Poly], extra: Sequence[Poly] = ()) -> tuple[list, list]:
    """The pairs i <= j and the coefficient rows of the products p_i p_j,
    then of ``extra``, over the monomials these polynomials use, so that the
    work follows the forms and not the number of variables."""
    pairs = list(combinations_with_replacement(range(len(polys)), 2))
    rows = [polys[i] * polys[j] for i, j in pairs] + list(extra)
    columns = sorted({e for p in rows for e in p.terms}, reverse=True)
    return pairs, [p.coeff_vector(columns) for p in rows]


def face_dimension(span: Sequence[Poly]) -> tuple[int, bool]:
    """(dim of the supporting face, whether the squares are quadratically
    independent), from a basis p_1..p_r of the span of the squares, such as
    :func:`span_basis` of their Gram point.

    dim F = C(r+1, 2) - rank{p_i p_j : i <= j}; the Gram point is extreme
    iff dim F = 0.
    """
    pairs, rows = _product_rows(span)
    dim_f = len(pairs) - rank(rows)
    return dim_f, dim_f == 0


@dataclass(frozen=True)
class QSosWitness:
    """Exact rational SOS certificate: weighted squares plus their
    literal-square expansion via four-square decompositions."""

    weights: tuple[Fraction, ...]
    polys: tuple[Poly, ...]
    expanded: tuple[Poly, ...]
    gram: SymMatrix

    def reconstruct_weighted(self) -> Poly:
        return sum_of_squares(self.polys, self.weights)

    def reconstruct_squares(self) -> Poly:
        return sum_of_squares(self.expanded)

    def render(self) -> str:
        parts = " + ".join(f"({p})^2" for p in self.expanded)
        return f"{parts}"


def extract_qsos(f: Poly, basis_polys: list[Poly]) -> QSosWitness:
    """Rational SOS extraction on a quadratically independent basis.

    Solves the unique linear system f = sum a_ij p_i p_j on the monomials
    these forms use, checks the resulting Gram matrix exactly for positive
    semidefiniteness, and emits literal rational squares through LDL^T and
    four-square decompositions.
    """
    if not basis_polys:
        raise LinearlyDependent("empty basis")
    deg = basis_polys[0].degree()
    if any(sum(e) != deg for p in basis_polys for e in p.terms):
        raise HeterogeneousDegrees("basis polynomials must be forms of one degree")
    if any(sum(e) != 2 * deg for e in f.terms):
        raise HeterogeneousDegrees(f"f must be a form of degree {2 * deg}, twice the basis degree")
    if not f:
        raise ZeroPolynomial("f is the zero form; it has no squares to extract")
    if any(p.nvars != f.nvars for p in basis_polys):
        raise DimensionMismatch(f"basis polynomials must be forms in the {f.nvars} variables of f")
    support = sorted({e for p in basis_polys for e in p.terms}, reverse=True)
    if rank([p.coeff_vector(support) for p in basis_polys]) != len(basis_polys):
        raise LinearlyDependent("basis polynomials are linearly dependent")
    r = len(basis_polys)
    pairs, rows = _product_rows(basis_polys, [f])
    *cols, rhs = rows
    solution, free = lin_solve(list(zip(*cols)), rhs)
    if free > 0:
        raise NotQuadraticallyIndependent(
            "products p_i p_j are linearly dependent; the Gram matrix is not unique"
        )
    if solution is None:
        raise NoSolution("form is not in the span of the basis products")
    q = [[Fraction(0)] * r for _ in range(r)]
    for (i, j), c in zip(pairs, solution):
        if i == j:
            q[i][i] = c
        else:
            q[i][j] = q[j][i] = c / 2
    gram = SymMatrix.from_rows(q)
    verdict = psd_check(gram)
    if not verdict.is_psd:
        raise NotPsd(
            f"unique Gram matrix on this basis is indefinite "
            f"(witness value {verdict.witness_value}); no SOS representation supported here"
        )
    weights = []
    polys = []
    expanded = []
    for w, vec in verdict.weighted_squares():
        p = Poly.zero(f.nvars)
        for coeff, bp in zip(vec, basis_polys):
            if coeff:
                p = p + coeff * bp
        weights.append(w)
        polys.append(p)
        for a in four_squares(w):
            if a:
                expanded.append(a * p)
    witness = QSosWitness(
        weights=tuple(weights), polys=tuple(polys), expanded=tuple(expanded), gram=gram
    )
    if witness.reconstruct_weighted() != f:
        raise CheckFailed("the weighted squares of the LDL^T terms do not expand to f")
    if witness.reconstruct_squares() != f:
        raise CheckFailed("the four-square expansion does not expand to f")
    return witness


@dataclass(frozen=True)
class ShrinkResult:
    """Outcome of walking the Gram line to the PSD boundary.

    ``s_exact`` is set when the smallest boundary parameter s* > 1 is
    rational; then ``boundary`` is the rank-dropped Gram point there.
    Otherwise ``s_exact`` is None and ``s_interval`` isolates s* exactly.
    """

    s_interval: tuple[Fraction, Fraction]
    s_exact: Fraction | None = None
    boundary: GramPoint | None = None
    rank_before: int | None = None
    rank_after: int | None = None


def shrink_span(g1: GramPoint, g2: GramPoint) -> ShrinkResult:
    """Produce a Gram point of the same form with strictly smaller span.

    Walks G(s) = G1 + s (G2 - G1) in the coordinates of the common span;
    s* is the smallest root > 1 of det Q(s), isolated alone by Sturm
    bisection and, if rational, found exactly among the rational roots of det Q.
    At a rational s* the boundary matrix G(s*) is returned with its rank
    drop verified exactly; at an irrational s* only the isolating interval
    comes back.  Q1 is positive definite and G2 - G1 != 0 is in the kernel
    of mu, hence indefinite: s* exists, G(s*) is PSD, else CheckFailed.
    """
    f = mu(g1)
    if mu(g2) != f:
        raise DifferentForms("Gram points represent different forms")
    if g1.matrix == g2.matrix:
        raise EqualPoints("need two distinct Gram points")
    v1, v2 = psd_check(g1.matrix), psd_check(g2.matrix)
    if not (v1.is_psd and v2.is_psd):
        raise NotPsd("both inputs must be PSD Gram points")
    # the reduced echelon form is canonical: equal exactly when the spans are
    reduced, pivots = rref(g1.matrix.to_lists())
    reduced2, _ = rref(g2.matrix.to_lists())
    if reduced != reduced2:
        b1, b2 = _echelon_forms(g1, reduced), _echelon_forms(g2, reduced2)
        raise SpansDiffer(f"span bases differ: {[str(p) for p in b1]} vs {[str(p) for p in b2]}")
    # restricted coordinates: with B in reduced echelon form, any symmetric G
    # with column space inside the row span of B satisfies G = B^T G[J,J] B
    # where J is the pivot column set; so G(s) = B^T Q(s) B is linear in s
    def restrict(g: GramPoint):
        return [[g.matrix.entry(i, j) for j in pivots] for i in pivots]

    q1 = restrict(g1)
    q2 = restrict(g2)
    r = len(pivots)
    diff = [[q2[i][j] - q1[i][j] for j in range(r)] for i in range(r)]
    det_form = pencil_det([q1, diff])  # det(x1 Q1 + x2 (Q2 - Q1)); x1 = 1, x2 = s
    det_poly = UniPoly([det_form.coefficient((r - e, e)) for e in range(r + 1)])
    if not det_poly or det_poly.degree() == 0:
        raise CheckFailed("det Q(s) is constant on the line, though G2 - G1 is indefinite")
    chain = sturm_chain(det_poly)
    if (interval := isolate_real_roots(chain, Fraction(1))) is None:
        raise CheckFailed("det Q(s) has no root s > 1, though G2 - G1 is indefinite")
    lo, hi = interval
    rank_before = v1.rank
    exact = next((root for root in rational_roots(det_poly, chain) if lo < root <= hi), None)
    if exact is None:  # s* is irrational: refinement cannot land on it
        lo, hi = refine_interval(chain, (lo, hi), Fraction(1, 2**64))
        return ShrinkResult(s_interval=(lo, hi), rank_before=rank_before)
    full = [
        [a + exact * (b - a) for a, b in zip(row1, row2)]
        for row1, row2 in zip(g1.matrix.rows, g2.matrix.rows)
    ]
    gprime = GramPoint(g1.nvars, g1.half_degree, SymMatrix.from_rows(full))
    verdict = psd_check(gprime.matrix)
    if not verdict.is_psd:
        raise CheckFailed(f"the boundary matrix at s* = {exact} is not PSD")
    if mu(gprime) != f:
        raise CheckFailed(f"the boundary matrix at s* = {exact} does not represent the form")
    if verdict.rank >= rank_before:
        raise CheckFailed(f"the rank does not drop at s* = {exact} ({rank_before} -> {verdict.rank})")
    return ShrinkResult(
        s_interval=(exact, exact),
        s_exact=exact,
        boundary=gprime,
        rank_before=rank_before,
        rank_after=verdict.rank,
    )

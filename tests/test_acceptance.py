"""Acceptance suite: the toolkit's exit criteria.

Each test prints one pass/fail line (visible with ``pytest -s`` or in the
captured output on failure).  Tolerances are pinned here: table rows and
all boundary-chain values are exact (zero tolerance), numeric residuals
are below 1e-20 at 256 bits, and the stated runtime budgets are enforced.
"""

import contextlib
import random
import time
from fractions import Fraction

import mpmath
import numpy as np

from ratsos.boundary import (
    cb_relation,
    boundary_cert,
    check_tuple,
    demo_kernel_cubics,
    demo_points,
    demo_tuple,
    functional_from_tuple,
    hilbert_function,
    kernel_cubics,
    moment_matrix,
    uniqueness_cert,
)
from ratsos.cli import EXIT_INCONCLUSIVE, EXIT_OK, run
from ratsos.errors import NotQuadraticallyIndependent
from ratsos.gram import SosRep, extract_qsos, gram_from_squares, is_gram_point, mu, shrink_span, span_basis
from ratsos.gram import GramPoint
from ratsos.linalg import SymMatrix, psd_check, rref
from ratsos.numfield import Conclusion, GeneralPosition, obstruction_check, quartic_galois
from ratsos.permgroup import (
    GroupDesc,
    Perm,
    char_number,
    compose,
    enumerate_group,
    fpf_involution_classes,
    invert,
    load_bundled_catalog,
)
from ratsos.poly import Poly, UniPoly, monomials
from ratsos.sturm import count_real_roots, sturm_chain


@contextlib.contextmanager
def criterion(number: int, name: str, budget_seconds: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget_seconds, f"criterion {number} took {elapsed:.1f}s > {budget_seconds}s"
    print(f"ACCEPTANCE {number} ({name}): PASS ({elapsed:.2f}s)")


def test_criterion_1_table_reproduction():
    with criterion(1, "classification table rows 4/6/8", 60.0):
        expected = {
            "degree4.cat": "4  5  2  0  0",
            "degree6.cat": "6  11  2  2  0",
            "degree8.cat": "8  50  7  2  3",
        }
        for name, row in expected.items():
            res = run(["groups", "table", "--catalog", name])
            assert res.exit_code == EXIT_OK
            assert res.report.splitlines()[0] == row, f"{name}: {res.report.splitlines()[0]}"
        # the degree-6 star-only groups must carry the standard labels
        import json

        res = run(["groups", "table", "--catalog", "degree6.cat", "--json"])
        payload = json.loads(res.report)
        assert sorted(payload["columns"]["star_not_2transitive"]) == ["6T11", "6T8"]


def test_criterion_2_dihedral_sharpness():
    with criterion(2, "dihedral sharpness c = 2 = d", 1.0):
        d4 = GroupDesc.from_text("(1 2 3 4),(1 3)")
        assert char_number(d4, Perm.parse("(1 2)(3 4)")) == 2
        cert = obstruction_check(UniPoly.parse("t^4+2"))
        assert cert.conclusion is Conclusion.NO_OBSTRUCTION
        assert cert.c == 2


def test_criterion_3_obstruction_certificate():
    with criterion(3, "S4 obstruction for t^4+t+1", 5.0):
        m = UniPoly.parse("t^4+t+1")
        assert count_real_roots(sturm_chain(m)) == 0  # exact Sturm count
        qg = quartic_galois(m)
        assert qg.group.label == "S4"
        cert = obstruction_check(m)
        assert cert.general_position_verdict is GeneralPosition.EXACT_VANDERMONDE
        assert cert.c == 3 and cert.c >= cert.d + 1
        assert cert.conclusion is Conclusion.NOT_Q_SOS


def test_criterion_4_boundary_demo_chain():
    with criterion(4, "nine-point boundary chain, all exact", 10.0):
        points = demo_points()
        tup = demo_tuple()
        p1, p2, p3 = demo_kernel_cubics()

        u = cb_relation(points)
        assert [abs(v) for v in u] == [1, 1, 1, 1, 2, 2, 2, 2, 4]
        assert check_tuple(u, tup).ok  # sum u_i^2 / a_i = 0 exactly

        alpha = functional_from_tuple(points, tup)
        b = moment_matrix(alpha)
        verdict = psd_check(b)
        assert verdict.is_psd and verdict.rank == 7

        kernel = kernel_cubics(b)
        assert len(kernel) == 3
        assert set(kernel) == {p1, p2, p3}  # the cubics verbatim

        f = sum((q * q for q in kernel), Poly.zero(3))
        paper_sextic = Poly.parse(
            "x1^6 + x2^6 + 7*x1^4*x3^2 + 7*x2^4*x3^2 + 18*x1^2*x2^2*x3^2"
            " - 23*x1^2*x3^4 - 23*x2^2*x3^4 + 16*x3^6"
        )
        assert f == paper_sextic  # coefficient-identical

        assert hilbert_function(kernel) == (1, 3, 6, 7, 6, 3, 1, 0)

        # dim(U*A3) = 27 and ker(alpha) = U*A3 as echelon spans
        big = monomials(3, 6)
        rows = []
        for gamma in monomials(3, 3):
            shift = Poly.monomial(gamma)
            for q in kernel:
                rows.append((shift * q).coeff_vector(big))
        u_a3, _ = rref(rows)
        assert len(u_a3) == 27
        for row in u_a3:
            assert sum(c * v for c, v in zip(alpha.coeffs, row)) == 0
        from ratsos.linalg import nullspace

        ker_alpha = rref(nullspace([list(alpha.coeffs)]))[0]
        assert len(ker_alpha) == 27
        assert rref(u_a3 + ker_alpha)[0] == u_a3

        bc = boundary_cert(f, alpha)
        assert bc.certified and bc.psd_rank == 7 and bc.kernel_dim == 3 and bc.alpha_f == 0
        uc = uniqueness_cert(bc)
        assert uc.certified
        assert uc.restricted_gram == SymMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_criterion_5_interior_witness():
    with criterion(5, "interior form with two representations", 10.0):
        x1, x2, x3 = (Poly.variable(i, 3) for i in (1, 2, 3))
        f0 = x1**6 + x2**6 + x3**6
        rep_a = SosRep((x1**3, x2**3, x3**3))
        rep_b = SosRep((x1**3 - 2 * x1 * x2**2, 2 * x1**2 * x2 - x2**3, x3**3))
        ga, gb = gram_from_squares(rep_a), gram_from_squares(rep_b)
        assert is_gram_point(ga, f0) and is_gram_point(gb, f0)
        assert mu(ga) == mu(gb) == f0
        assert span_basis(ga) != span_basis(gb)  # different spans: interior evidence
        alpha = functional_from_tuple(demo_points(), demo_tuple())
        assert alpha(f0) == 42
        cert = boundary_cert(f0, alpha)
        assert not cert.certified  # no boundary certificate is produced


def _random_symmetric(rng, n, scale=8):
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            v = Fraction(rng.randint(-scale, scale), rng.randint(1, 4))
            rows[i][j] = rows[j][i] = v
    return SymMatrix.from_rows(rows)


def _random_psd(rng, n):
    k = rng.randint(1, n + 1)
    vecs = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)] for _ in range(k)]
    rows = [[sum(v[i] * v[j] for v in vecs) for j in range(n)] for i in range(n)]
    return SymMatrix.from_rows(rows)


def test_criterion_6_property_suites():
    with criterion(6, "property suites", 120.0):
        # (a) exact PSD decision vs floating eigenvalue oracle, 1000 matrices
        rng = random.Random(2024)
        checked = 0
        disagreements = 0
        while checked < 1000:
            n = rng.randint(1, 8)
            m = _random_symmetric(rng, n) if rng.random() < 0.5 else _random_psd(rng, n)
            arr = np.array([[float(x) for x in row] for row in m.to_lists()])
            eigs = np.linalg.eigvalsh(arr)
            if min(abs(e) for e in eigs) < 1e-6:
                continue  # eigenvalue-gap guard
            checked += 1
            if psd_check(m).is_psd != bool(eigs.min() > 0):
                disagreements += 1
        assert disagreements == 0

        # (b) pair-closure characteristic number vs brute-force conjugacy
        # definition on every enumerable catalog group
        for degree in (4, 6, 8):
            for group in load_bundled_catalog(degree):
                elements = enumerate_group(group.chain())
                for t in fpf_involution_classes(group, elements):
                    c = char_number(group, t)
                    brute = {compose(g, compose(t.images, invert(g)))[0] for g in elements}
                    assert len(brute) == c, f"{group.label}: {len(brute)} != {c}"

        # (c) resultant norm form vs numeric conjugate product, 50 fields
        from ratsos.numfield import norm_form

        rng = random.Random(4096)
        fields = 0
        while fields < 50:
            deg = rng.choice([4, 6])
            m = UniPoly([rng.randint(-5, 5) for _ in range(deg)] + [1])
            if m.degree() != deg or sturm_chain(m)[0].degree() != deg:
                continue
            fields += 1
            f = norm_form(m)
            with mpmath.workprec(256):
                roots = mpmath.polyroots(
                    [float(c) for c in reversed(m.coeffs)], maxsteps=200, extraprec=256
                )
                prod = {(0, 0, 0): mpmath.mpc(1)}
                for a in roots:
                    lin = {(1, 0, 0): mpmath.mpc(1), (0, 1, 0): a, (0, 0, 1): a * a}
                    new = {}
                    for e1, c1 in prod.items():
                        for e2, c2 in lin.items():
                            e = tuple(p + q for p, q in zip(e1, e2))
                            new[e] = new.get(e, mpmath.mpc(0)) + c1 * c2
                    prod = new
                residual = max(
                    abs(prod.get(e, mpmath.mpc(0)) - complex(f.coefficient(e)))
                    for e in set(prod) | set(f.terms)
                )
                assert residual < mpmath.mpf(10) ** -20, f"{m}: residual {residual}"

        # (d) rational SOS extraction reconstructs exactly, 100 successes
        rng = random.Random(8192)
        done = 0
        while done < 100:
            nvars = rng.randint(2, 3)
            deg = rng.randint(1, 2)
            basis = monomials(nvars, deg)
            r = rng.randint(1, min(3, len(basis)))
            polys = []
            while len(polys) < r:
                p = Poly(
                    nvars,
                    {
                        e: Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                        for e in basis
                        if rng.random() < 0.6
                    },
                )
                if p:
                    polys.append(p)
            if len(rref([p.coeff_vector(basis) for p in polys])[0]) < r:
                continue
            vecs = [
                [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(r)]
                for _ in range(r)
            ]
            f = Poly.zero(nvars)
            for v in vecs:
                q = Poly.zero(nvars)
                for c, p in zip(v, polys):
                    q = q + c * p
                f = f + q * q
            if not f:
                continue
            try:
                w = extract_qsos(f, polys)
            except NotQuadraticallyIndependent:
                continue
            assert w.reconstruct_squares() == f
            assert w.reconstruct_weighted() == f
            done += 1

        # (e) span shrinking on the (x1^2+x2^2)^2 family: s* = 2 exactly
        def family(a):
            a = Fraction(a)
            return GramPoint(
                2, 2, SymMatrix.from_rows([[1, 0, a], [0, 2 - 2 * a, 0], [a, 0, 1]])
            )

        res = shrink_span(family(0), family(Fraction(1, 2)))
        assert res.s_exact == 2
        assert res.rank_after < res.rank_before
        assert res.rank_before == 3 and res.rank_after == 1

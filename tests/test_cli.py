import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from ratsos import cli, numfield, permgroup
from ratsos.boundary import demo_kernel_cubics, demo_points, demo_tuple, functional_from_tuple
from ratsos.cli import EXIT_INCONCLUSIVE, EXIT_INPUT, EXIT_NEGATIVE, EXIT_OK, run
from ratsos.linalg import SymMatrix, psd_check, rank
from ratsos.poly import Poly, monomials

CONDITIONAL = "conclusion: ConditionalNotQSos (assumes the supplied group is the Galois group)"
GOLDEN = Path(__file__).parent / "data" / "golden"


def test_groups_table_degree4():
    res = run(["groups", "table", "--catalog", "degree4.cat"])
    assert res.exit_code == EXIT_OK
    assert res.report.splitlines()[0] == "4  5  2  0  0"


def test_groups_table_json():
    res = run(["groups", "table", "--catalog", "degree6.cat", "--json"])
    assert res.exit_code == EXIT_OK
    import json

    payload = json.loads(res.report)
    assert payload["row"] == [6, 11, 2, 2, 0]
    assert sorted(payload["columns"]["star_not_2transitive"]) == ["6T11", "6T8"]


def test_groups_table_reports_groups_past_the_enumeration_bound(monkeypatch):
    monkeypatch.setattr(permgroup, "ENUM_BOUND", 100)
    res = run(["groups", "table", "--catalog", "degree8.cat"])
    assert res.exit_code == EXIT_INCONCLUSIVE
    assert "  FAILED 8G35: group order exceeds bound 100 (found 101 elements)" in res.report.splitlines()


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_groups_table_reports_an_intransitive_entry_as_failed(tmp_path, json_flag):
    catalog = tmp_path / "groups.cat"
    catalog.write_text("4;X;(1 2)(3 4)\n4;C4;(1 2 3 4)\n")
    res = run(["groups", "table", "--catalog", str(catalog), *json_flag])
    assert res.exit_code == EXIT_INCONCLUSIVE
    lines = res.report.splitlines()
    assert lines[0] == "degree 4: 1 transitive groups in catalog"
    assert lines[2] == "  4      1          0            0                0"  # C4 only
    assert lines[-1] == "  FAILED X: not transitive"


@pytest.mark.parametrize("line", ["4;X;(1 2)(3 4)", "6;X;(2 3)(5 6),(1 4 5 6)"])
def test_groups_table_counts_no_intransitive_entry_in_its_header(tmp_path, line):
    catalog = tmp_path / "groups.cat"
    catalog.write_text(line + "\n")
    res = run(["groups", "table", "--catalog", str(catalog)])
    assert res.exit_code == EXIT_INCONCLUSIVE
    lines = res.report.splitlines()
    assert lines[0] == f"degree {line[0]}: 0 transitive groups in catalog"
    assert lines[-1] == "  FAILED X: not transitive"


def test_groups_char_number():
    res = run(["groups", "char-number", "--gens", "(1 2 3 4),(1 3)", "--inv", "(1 2)(3 4)"])
    assert res.exit_code == EXIT_OK
    assert res.report == "c=2, (*) no, (**) no"


def test_groups_char_number_sifts_membership_past_the_bound():
    # A10 holds no odd involution; the order, 1814400, is past the default bound
    res = run(["groups", "char-number", "--gens", "(1 2 3),(2 3 4 5 6 7 8 9 10)",
               "--inv", "(1 2)(3 4)(5 6)(7 8)(9 10)"])
    assert res.exit_code == EXIT_INPUT
    assert res.report == "NotInGroup: (1 2)(3 4)(5 6)(7 8)(9 10) is not an element of the generated group"
    res = run(["groups", "char-number", "--gens", "(1 2 3),(2 3 4 5 6 7 8)",
               "--inv", "(1 2)(3 4)(5 6)(7 8)"])
    assert res.exit_code == EXIT_OK
    assert res.report == "c=7, (*) yes, (**) yes"


def test_groups_classify_past_the_bound():
    res = run(["groups", "classify", "--gens", "(1 2 3 4 5 6 7 8 9 10),(1 2)"])
    assert res.exit_code == EXIT_INPUT
    assert res.report == "OrderExceeded: group order exceeds bound 1000000 (found 1000001 elements)"


def test_field_obstruct_sifts_membership_past_the_bound(monkeypatch):
    # the verdict rests on sifting tau, whatever the enumeration bound; it
    # also rests on the supplied group, so it is conditional and exits 2
    monkeypatch.setattr(permgroup, "ENUM_BOUND", 100)
    res = run(["field", "obstruct", "--minpoly=t^6+t+1", "--galois-gens=(1 2 3 4 5 6),(1 2)"])
    assert res.exit_code == EXIT_INCONCLUSIVE
    lines = res.report.splitlines()
    assert "Galois action: user (order 720)" in lines
    assert "tau membership in group: verified" in lines
    assert "check tau in group: pass (group order 720)" in lines
    assert lines[-1] == CONDITIONAL


@pytest.mark.parametrize(
    "minpoly, gens, conclusion",
    [
        ("t^6+1", "(1 2 3 4 5 6),(1 2)", CONDITIONAL),  # reducible: (t^2+1)(t^4-t^2+1)
        # Q(zeta_9) contains Q(sqrt(-3)): a^2+3b^2 is a rational SOS
        ("t^6+t^3+1", "(1 2 3 4 5 6),(1 2)", CONDITIONAL),
        ("t^8+1", "(1 2 3 4 5 6 7 8),(1 2)", CONDITIONAL),  # Q(zeta_16) contains Q(i)
        # S4 given for a D4 field, where c = d: the derived group refutes it
        ("t^4+2", "(1 2 3 4),(1 2)", "conclusion: NoObstruction"),
    ],
    ids=["reducible", "zeta9", "zeta16", "d4-given-as-s4"],
)
def test_field_obstruct_never_certifies_from_a_wrong_supplied_group(minpoly, gens, conclusion):
    # a symmetric group that is not the Galois group satisfies (**): a degree > 4
    # conclusion names the assumption, a quartic one is refuted, and the run exits 2, never 0
    res = run(["field", "obstruct", "--minpoly", minpoly, "--galois-gens", gens])
    assert res.exit_code == EXIT_INCONCLUSIVE
    assert res.report.splitlines()[-1] == conclusion


@pytest.mark.parametrize(
    "minpoly, gens, exit_code, check, conclusion",
    [
        ("t^4+t+1", "(1 2 3 4),(1 2)", EXIT_OK,
         "check supplied group: pass (supplied (1 2 3 4),(1 2) is conjugate to the derived S4)", "NotQSos"),
        ("t^4+t+1", "(2 3 4 1),(3 4)", EXIT_OK,
         "check supplied group: pass (supplied (1 2 3 4),(3 4) is conjugate to the derived S4)", "NotQSos"),
        ("t^4+2", "(1 2 3 4),(1 2)", EXIT_INCONCLUSIVE,
         "check supplied group: fail (supplied (1 2 3 4),(1 2) is not conjugate to the derived D4)", "NoObstruction"),
    ],
    ids=["s4-given-as-s4", "s4-given-relabelled", "d4-given-as-s4"],
)
def test_field_obstruct_checks_a_supplied_quartic_group(minpoly, gens, exit_code, check, conclusion):
    res = run(["field", "obstruct", "--minpoly", minpoly, "--galois-gens", gens])
    assert res.exit_code == exit_code
    lines = res.report.splitlines()
    assert check in lines
    assert lines[-1] == f"conclusion: {conclusion}"


def test_field_obstruct_refutes_tau_outside_the_group():
    res = run(["field", "obstruct", "--minpoly=t^6+t+1", "--galois-gens=(1 2 3 4 5 6)"])
    assert res.exit_code == EXIT_INCONCLUSIVE
    lines = res.report.splitlines()
    assert "tau membership in group: refuted" in lines
    assert "check tau in group: fail (tau not in the generated group)" in lines
    assert not any(line.startswith("check general position") for line in lines)
    assert lines[-1] == "conclusion: NoObstruction"


def test_groups_char_number_not_involution():
    res = run(["groups", "char-number", "--gens", "(1 2 3 4),(1 3)", "--inv", "(1 2 3)"])
    assert res.exit_code == EXIT_INPUT
    assert "NotInvolution" in res.report


def test_groups_classify():
    res = run(["groups", "classify", "--gens", "(1 2 3 4),(1 3)"])
    assert res.exit_code == EXIT_OK
    assert "2-transitive: False" in res.report
    assert "c = 2" in res.report and "c = 1" in res.report


@pytest.mark.parametrize(
    "gens, head",
    [("(1 2)(3 4)", "group on 4 points, order 2"), ("(2 3)(5 6),(1 4 5 6)", "group on 6 points, order 48")],
    ids=["c2", "base-point-dependent"],
)
def test_groups_classify_an_intransitive_group_is_inconclusive(gens, head):
    # c is defined only for a transitive group: no class count and no c line
    res = run(["groups", "classify", "--gens", gens])
    assert res.exit_code == EXIT_INCONCLUSIVE
    assert res.report == f"{head}\ntransitive: False"


def test_field_obstruct_s4():
    res = run(["field", "obstruct", "--minpoly", "t^4+t+1"])
    assert res.exit_code == EXIT_OK
    assert "conclusion: NotQSos" in res.report
    assert "c = 3" in res.report


def test_field_obstruct_d4():
    res = run(["field", "obstruct", "--minpoly", "t^4+2"])
    assert res.exit_code == EXIT_INCONCLUSIVE
    assert "conclusion: NoObstruction" in res.report


def test_field_obstruct_degree_too_small():
    res = run(["field", "obstruct", "--minpoly", "t^2+1"])
    assert res.exit_code == EXIT_INPUT


def test_field_obstruct_a4_with_a_large_constant_term():
    # 2882815569 has no divisor search within reach of a desk budget; the
    # rational roots of m and of its resolvent cubic come from p-adic lifting
    res = run(["field", "obstruct", "--minpoly=t^4-12*t^3+54*t^2-15253100*t+2882815569"])
    assert res.exit_code == EXIT_OK
    assert "Galois action: A4" in res.report
    assert "conclusion: NotQSos" in res.report


def test_field_obstruct_zero_denominator_is_an_input_error():
    res = run(["field", "obstruct", "--minpoly", "t^4+t+1/0"])
    assert res.exit_code == EXIT_INPUT
    assert res.report == "ParseError: bad rational '1/0'"


def test_field_obstruct_binary_linform_is_an_input_error():
    res = run(["field", "obstruct", "--minpoly", "t^4+t+1", "--linform", "1;t"])
    assert res.exit_code == EXIT_INPUT
    assert res.report == "DimensionMismatch: general position applies to ternary linear forms, got 2 entries"


def test_field_galois_failed_check_is_inconclusive(monkeypatch):
    true_roots = numfield.rational_roots
    monkeypatch.setattr(
        numfield,
        "rational_roots",
        lambda p, chain=(): [Fraction(2), Fraction(3)] if p.degree() == 3 else true_roots(p, chain),
    )
    res = run(["field", "galois", "--minpoly", "t^4+t+1"])
    assert res.exit_code == EXIT_INCONCLUSIVE
    assert res.report.startswith("CheckFailed: resolvent cubic")


def test_field_obstruct_galois_gens_on_a_repeated_root_fails_the_squarefree_check():
    res = run(["field", "obstruct", "--minpoly", "t^6+3*t^4+3*t^2+1", "--galois-gens", "(1 2 3 4 5 6)"])
    assert res.exit_code == EXIT_INCONCLUSIVE
    assert "check squarefree: fail (gcd(m, m') is nonconstant)" in res.report


def test_field_coefficient_after_the_variable_is_an_input_error():
    res = run(["field", "obstruct", "--minpoly", "t^4+t*2+1"])
    assert res.exit_code == EXIT_INPUT
    assert res.report == "ParseError: misplaced coefficient in term '+t*2'"


def test_field_normform():
    res = run(["field", "normform", "--minpoly", "t^2+1", "--linform", "1; t; t^2"])
    assert res.exit_code == EXIT_OK
    assert Poly.parse(res.report) == Poly.parse("x1^2 - 2*x1*x3 + x2^2 + x3^2")


def test_field_galois():
    res = run(["field", "galois", "--minpoly", "t^4+2"])
    assert res.exit_code == EXIT_OK
    assert "label: D4" in res.report


def test_boundary_demo():
    res = run(["boundary", "demo"])
    assert res.exit_code == EXIT_OK
    assert "all stages match their expected values" in res.report
    assert "rank 7" in res.report


def test_boundary_construct(tmp_path):
    pts = tmp_path / "pts.txt"
    pts.write_text("\n".join(",".join(str(c) for c in p) for p in demo_points().points))
    out = tmp_path / "alpha.txt"
    res = run(
        [
            "boundary",
            "construct",
            "--points",
            str(pts),
            "--tuple",
            "1,1,1,1,4,4,4,4,-2",
            "--save-functional",
            str(out),
        ]
    )
    assert res.exit_code == EXIT_OK
    assert out.exists()


def test_boundary_construct_bad_tuple(tmp_path):
    pts = tmp_path / "pts.txt"
    pts.write_text("\n".join(",".join(str(c) for c in p) for p in demo_points().points))
    res = run(["boundary", "construct", "--points", str(pts), "--tuple", "1,1,1,1,4,4,4,4,-3"])
    assert res.exit_code == EXIT_NEGATIVE


def test_boundary_construct_rejected_tuple_saves_no_functional(tmp_path):
    pts = tmp_path / "pts.txt"
    pts.write_text("\n".join(",".join(str(c) for c in p) for p in demo_points().points))
    out = tmp_path / "alpha.txt"
    res = run(["boundary", "construct", "--points", str(pts), "--tuple", "1,1,1,1,4,4,4,4,-3",
               "--save-functional", str(out)])
    assert res.exit_code == EXIT_NEGATIVE
    assert not out.exists()
    assert "functional written to" not in res.report


def test_boundary_construct_unwritable_functional_path_is_an_input_error(tmp_path):
    res = run(["boundary", "construct", "--points", str(GOLDEN / "demo_points.txt"),
               "--tuple", "1,1,1,1,4,4,4,4,-2", "--save-functional", str(tmp_path)])
    assert res.exit_code == EXIT_INPUT
    assert res.report.startswith("input error: ") and "Is a directory" in res.report


def test_boundary_certify_rejects_interior(tmp_path):
    alpha = functional_from_tuple(demo_points(), demo_tuple())
    afile = tmp_path / "alpha.txt"
    afile.write_text(alpha.to_text())
    ffile = tmp_path / "f.txt"
    ffile.write_text("x1^6 + x2^6 + x3^6")
    res = run(["boundary", "certify", "--form", str(ffile), "--functional", str(afile)])
    assert res.exit_code == EXIT_NEGATIVE
    assert "alpha(f) = 42" in res.report


def test_boundary_certify_demo_form(tmp_path):
    alpha = functional_from_tuple(demo_points(), demo_tuple())
    afile = tmp_path / "alpha.txt"
    afile.write_text(alpha.to_text())
    ffile = tmp_path / "f.txt"
    ffile.write_text(
        "x1^6 + x2^6 + 7*x1^4*x3^2 + 7*x2^4*x3^2 + 18*x1^2*x2^2*x3^2"
        " - 23*x1^2*x3^4 - 23*x2^2*x3^4 + 16*x3^6"
    )
    res = run(["boundary", "certify", "--form", str(ffile), "--functional", str(afile)])
    assert res.exit_code == EXIT_OK
    assert "certified singleton" in res.report


def test_boundary_certify_indefinite_kernel_gram_is_negative(tmp_path):
    # alpha(f) = 0 and f = p1^2 - p2^2 + p3^2 has the indefinite Gram matrix diag(1, -1, 1)
    p1, p2, p3 = demo_kernel_cubics()
    alpha = functional_from_tuple(demo_points(), demo_tuple())
    afile = tmp_path / "alpha.txt"
    afile.write_text(alpha.to_text())
    ffile = tmp_path / "f.txt"
    ffile.write_text(str(p1 * p1 - p2 * p2 + p3 * p3))
    res = run(["boundary", "certify", "--form", str(ffile), "--functional", str(afile)])
    assert res.exit_code == EXIT_NEGATIVE
    assert "alpha(f) = 0" in res.report
    assert "verdict: rejected (f has no PSD Gram matrix on the kernel cubics" in res.report


def test_gram_extract_q():
    res = run(["gram", "extract-q", "--form", "x1^4+x2^4", "--basis", "x1^2;x2^2"])
    assert res.exit_code == EXIT_OK
    assert "(x1^2)^2 + (x2^2)^2" in res.report


def test_gram_extract_q_not_psd():
    res = run(["gram", "extract-q", "--form", "x1^4+x2^4-3*x1^2*x2^2", "--basis", "x1^2;x2^2"])
    assert res.exit_code == EXIT_NEGATIVE
    assert "NotPsd" in res.report


def test_gram_verify_demo_triple():
    form = (
        "x1^6 + x2^6 + 7*x1^4*x3^2 + 7*x2^4*x3^2 + 18*x1^2*x2^2*x3^2"
        " - 23*x1^2*x3^4 - 23*x2^2*x3^4 + 16*x3^6"
    )
    squares = "x1^3 - x1*x3^2; x2^3 - x2*x3^2; 3*x1^2*x3 + 3*x2^2*x3 - 4*x3^3"
    res = run(["gram", "verify", "--form", form, "--squares", squares])
    assert res.exit_code == EXIT_OK
    assert "valid Gram point" in res.report
    assert "extreme point: yes" in res.report


def test_gram_shrink(tmp_path):
    from ratsos.cli import format_gram
    from ratsos.gram import GramPoint
    from ratsos.linalg import SymMatrix

    def family(a):
        from fractions import Fraction

        a = Fraction(a)
        return GramPoint(2, 2, SymMatrix.from_rows([[1, 0, a], [0, 2 - 2 * a, 0], [a, 0, 1]]))

    f1 = tmp_path / "g1.txt"
    f2 = tmp_path / "g2.txt"
    f1.write_text(format_gram(family(0)))
    f2.write_text(format_gram(family("1/2")))
    res = run(["gram", "shrink", "--g1", str(f1), "--g2", str(f2)])
    assert res.exit_code == EXIT_OK
    assert "s* = 2" in res.report
    assert "rank drops 3 -> 1" in res.report


def _kernel_direction(rng: random.Random, basis) -> list[list[int]]:
    """Symmetric D with X^T D X = 0: c (S_ij - S_kl) summed over m_i m_j = m_k m_l."""
    n = len(basis)
    by_product: dict = {}
    for i in range(n):
        for j in range(i, n):
            by_product.setdefault(tuple(a + b for a, b in zip(basis[i], basis[j])), []).append((i, j))
    d = [[0] * n for _ in range(n)]
    for pairs in by_product.values():
        for (i, j), (k, m) in zip(pairs, pairs[1:]):
            c = rng.randint(-2, 2)
            for (a, b), w in (((i, j), c), ((k, m), -c)):
                if a == b:
                    d[a][a] += 2 * w
                else:
                    d[a][b] += w
                    d[b][a] += w
    return d


def test_gram_shrink_10x10_rational_boundary(tmp_path):
    # G* = 4 A^T A has rank 9 and G(s) = G* + (s0 - s) D, so the line is
    # PD on [0, s0) and drops rank at the rational s0
    rng = random.Random(11)
    basis = monomials(3, 3)
    n, s0 = len(basis), Fraction(7, 2)
    while True:
        d = _kernel_direction(rng, basis)
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n - 1)]
        g_star = [[4 * sum(r[i] * r[j] for r in a) for j in range(n)] for i in range(n)]
        g1 = [[g_star[i][j] + s0 * d[i][j] for j in range(n)] for i in range(n)]
        if rank(g_star) == n - 1 and psd_check(SymMatrix.from_rows(g1)).rank == n:
            break
    g2 = [[g1[i][j] - d[i][j] for j in range(n)] for i in range(n)]
    paths = []
    for name, rows in (("g1", g1), ("g2", g2)):
        path = tmp_path / f"{name}.txt"
        path.write_text("gram n=3 d=3\n" + "\n".join(" ".join(str(v) for v in row) for row in rows))
        paths.append(str(path))
    res = run(["gram", "shrink", "--g1", paths[0], "--g2", paths[1]])
    assert res.exit_code == EXIT_OK
    assert "boundary parameter s* = 7/2" in res.report
    assert "rank drops 10 -> 9" in res.report


# each literal is longer than a file name may be (255 bytes)
LONG_QUADRATIC = "x1^2" + " + x1^2 - x1^2" * 30
LONG_SEXTIC = (GOLDEN / "demo_sextic.txt").read_text().strip() + " + x1^6 - x1^6" * 30


@pytest.mark.parametrize(
    "argv, exit_code, line",
    [
        (["gram", "verify", f"--form={LONG_QUADRATIC}", "--squares=x1"], EXIT_OK, "valid Gram point"),
        (["gram", "extract-q", f"--form={LONG_QUADRATIC}", "--basis=x1"], EXIT_OK, "f = (x1)^2"),
        (["boundary", "certify", f"--form={LONG_SEXTIC}", "--functional", str(GOLDEN / "demo_functional.txt")],
         EXIT_OK, "verdict: certified singleton"),
        (["groups", "table", "--catalog", "degree4.cat" * 30], EXIT_INPUT,
         f"input error: no catalog file or bundled catalog named {'degree4.cat' * 30!r}"),
    ],
    ids=["gram-verify", "gram-extract-q", "boundary-certify", "groups-table"],
)
def test_a_literal_longer_than_a_file_name_is_not_a_file(argv, exit_code, line):
    res = run(argv)
    assert res.exit_code == exit_code
    assert line in res.report.splitlines()


def _with_indented_comment(path: Path) -> str:
    header, *rest = path.read_text().splitlines()
    return "\n".join([header, "  # note", *rest])


def test_boundary_certify_skips_an_indented_comment(tmp_path):
    afile = tmp_path / "alpha.txt"
    afile.write_text(_with_indented_comment(GOLDEN / "demo_functional.txt"))
    res = run(["boundary", "certify", "--form", str(GOLDEN / "demo_sextic.txt"), "--functional", str(afile)])
    assert res.exit_code == EXIT_OK
    assert "verdict: certified singleton" in res.report.splitlines()


def test_gram_shrink_skips_an_indented_comment(tmp_path):
    g1 = tmp_path / "g1.txt"
    g1.write_text(_with_indented_comment(GOLDEN / "shrink-rational-g1.txt"))
    res = run(["gram", "shrink", "--g1", str(g1), "--g2", str(GOLDEN / "shrink-rational-g2.txt")])
    assert res.exit_code == EXIT_OK
    assert res.report.splitlines()[0] == "boundary parameter s* = 5/3"


def test_gram_extract_q_form_of_another_degree_is_an_input_error():
    res = run(["gram", "extract-q", "--form", "x1^3", "--basis", "x1^2"])
    assert res.exit_code == EXIT_INPUT
    assert res.report.startswith("HeterogeneousDegrees: ")


def test_gram_shrink_spans_differ(tmp_path):
    from ratsos.cli import format_gram
    from ratsos.gram import SosRep, gram_from_squares

    x1 = Poly.variable(1, 3)
    x2 = Poly.variable(2, 3)
    x3 = Poly.variable(3, 3)
    ga = gram_from_squares(SosRep((x1**3, x2**3, x3**3)))
    gb = gram_from_squares(SosRep((x1**3 - 2 * x1 * x2**2, 2 * x1**2 * x2 - x2**3, x3**3)))
    f1 = tmp_path / "g1.txt"
    f2 = tmp_path / "g2.txt"
    f1.write_text(format_gram(ga))
    f2.write_text(format_gram(gb))
    res = run(["gram", "shrink", "--g1", str(f1), "--g2", str(f2)])
    assert res.exit_code == EXIT_NEGATIVE
    assert "SpansDiffer" in res.report


@pytest.mark.parametrize(
    "g2, report",
    [
        # x1^4 + x2^4 at a = 1 of [[1, 0, a], [0, -2a, 0], [a, 0, 1]]: indefinite
        ("1 0 1\n0 -2 0\n1 0 1", "NotPsd: both inputs must be PSD Gram points"),
        # x1^4 + 2 x2^4 is another form
        ("1 0 0\n0 0 0\n0 0 2", "DifferentForms: Gram points represent different forms"),
    ],
    ids=["not-psd", "different-forms"],
)
def test_gram_shrink_rejects_unusable_inputs_as_input_errors(tmp_path, g2, report):
    f1 = tmp_path / "g1.txt"
    f2 = tmp_path / "g2.txt"
    f1.write_text("gram n=2 d=2\n1 0 0\n0 0 0\n0 0 1\n")
    f2.write_text(f"gram n=2 d=2\n{g2}\n")
    res = run(["gram", "shrink", "--g1", str(f1), "--g2", str(f2)])
    assert (res.exit_code, res.report) == (EXIT_INPUT, report)


DEMO_POINTS_TEXT = (GOLDEN / "demo_points.txt").read_text()


@pytest.mark.parametrize(
    "argv, files, error",
    [
        (["gram", "shrink", "--g1", "g.txt", "--g2", "g.txt"], {"g.txt": "gram n=0 d=1\n1"}, "DimensionMismatch"),
        (["gram", "shrink", "--g1", "g.txt", "--g2", "g.txt"], {"g.txt": "gram n=2 d=-1\n1"}, "DimensionMismatch"),
        (["gram", "shrink", "--g1", "g.txt", "--g2", "g.txt"], {"g.txt": "gram n=1 d=1\nx"}, "ParseError"),
        # bases of 635,745,396 monomials and of C(2*10^7 - 1, 10^7), checked by their sizes alone
        (["gram", "shrink", "--g1", "g.txt", "--g2", "g.txt"], {"g.txt": "gram n=30 d=10\n1"}, "DimensionMismatch"),
        (["gram", "shrink", "--g1", "g.txt", "--g2", "g.txt"], {"g.txt": "gram n=10000000 d=10000000\n1"},
         "DimensionMismatch"),
        (["boundary", "certify", "--form", str(GOLDEN / "demo_sextic.txt"), "--functional", "alpha.txt"],
         {"alpha.txt": "functional n=3 2d=6\n1 2 3"}, "DimensionMismatch"),
        (["boundary", "construct", "--points", "pts.txt", "--tuple", "1,1,1,1,4,4,4,4,-2"],
         {"pts.txt": "\n".join(DEMO_POINTS_TEXT.splitlines()[:8])}, "DimensionMismatch"),
        (["boundary", "construct", "--points", "pts.txt", "--tuple", "1,1,1,1,4,4,4,4"],
         {"pts.txt": DEMO_POINTS_TEXT}, "DimensionMismatch"),
        (["boundary", "construct", "--points", "pts.txt", "--tuple", "1,1,1,1,4,4,4,4,2"],
         {"pts.txt": DEMO_POINTS_TEXT}, "ParseError"),
        (["field", "normform", "--minpoly", "t^2+1", "--linform", ";"], {}, "ParseError"),
        (["groups", "classify", "--gens", "(1 2),(3 4", "--degree", "4"], {}, "ParseError"),
        (["groups", "classify", "--gens", "(1 5)", "--degree", "4"], {}, "ParseError"),
    ],
    ids=["gram-n-0", "gram-d-negative", "gram-entry-x", "gram-huge-basis", "gram-huge-header",
         "functional-3-coefficients", "8-points", "8-weights", "no-negative-weight", "linform-empty",
         "gens-unbalanced", "gens-point-5"],
)
def test_malformed_input_exits_3_with_the_error_name(tmp_path, argv, files, error):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    start = time.perf_counter()
    res = run([str(tmp_path / w) if w in files else w for w in argv])
    assert time.perf_counter() - start < 1
    assert res.exit_code == EXIT_INPUT
    assert res.report.startswith(f"{error}: ") and "Traceback" not in res.report


@pytest.mark.parametrize(
    "argv",
    [
        ["gram", "shrink", "--g1", "bin.txt", "--g2", "bin.txt"],
        ["gram", "verify", "--form", "bin.txt", "--squares", "x1"],
        ["groups", "table", "--catalog", "bin.txt"],
        ["boundary", "construct", "--points", "bin.txt", "--tuple", "1,1,1,1,4,4,4,4,-2"],
    ],
    ids=["gram-shrink", "gram-verify", "groups-table", "boundary-construct"],
)
def test_a_file_that_is_not_utf8_is_an_input_error(tmp_path, argv):
    (tmp_path / "bin.txt").write_bytes(b"\xff\xfe bad")
    res = run([str(tmp_path / w) if w == "bin.txt" else w for w in argv])
    assert res.exit_code == EXIT_INPUT
    assert res.report.startswith("input error: 'utf-8' codec can't decode byte 0xff")


def test_a_fixed_point_report_lists_at_most_20_points():
    res = run(["groups", "char-number", "--gens", "(1 2 3 4 5 6)", "--inv", "(1 2)", "--degree", "1000"])
    assert res.exit_code == EXIT_INPUT
    assert res.report.startswith("HasFixedPoint: (1 2) fixes points [3, 4, ")
    assert len(res.report.encode()) < 200 and "998" in res.report


def test_memory_error_is_an_input_error(monkeypatch):
    def exhausted(group):
        raise MemoryError

    monkeypatch.setattr(cli, "classify", exhausted)
    res = run(["groups", "classify", "--gens", "(1 2 3 4)"])
    assert res.exit_code == EXIT_INPUT
    assert res.report.startswith("MemoryError: ")


def test_reports_deterministic():
    a = run(["boundary", "demo"])
    b = run(["boundary", "demo"])
    assert a.report == b.report and a.exit_code == b.exit_code


def test_round_trip_printed_polynomials():
    res = run(["field", "normform", "--minpoly", "t^4+t+1"])
    assert res.exit_code == EXIT_OK
    p = Poly.parse(res.report)
    assert str(p) == res.report


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ratsos", "groups", "table", "--catalog", "degree4.cat"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "4  5  2  0  0"


@pytest.mark.parametrize(
    "argv, exit_code",
    [
        (["groups", "table", "--catalog", "degree4.cat"], EXIT_OK),
        (["groups", "char-number", "--gens", "(1 2 3 4),(1 3)", "--inv", "(1 2 3)"], EXIT_INPUT),
    ],
    ids=["table", "input-error"],
)
def test_a_closed_stdout_exits_quietly_with_the_command_code(argv, exit_code):
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the child writes
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ratsos", *argv], stdout=write_end, stderr=subprocess.PIPE, text=True
        )
    finally:
        os.close(write_end)
    assert proc.returncode == exit_code
    assert proc.stderr == ""


@pytest.mark.parametrize("flag", [["--enum-bound", "5"], ["--precision-bits", "64"]],
                         ids=["enum-bound", "precision-bits"])
def test_there_are_no_global_options(flag):
    with pytest.raises(SystemExit) as exc:
        run(flag + ["groups", "classify", "--gens", "(1 2 3 4),(1 2)"])
    assert exc.value.code == EXIT_INPUT


def test_bad_usage_exit_code():
    with pytest.raises(SystemExit) as exc:
        run(["groups"])
    assert exc.value.code == EXIT_INPUT

"""Each certificate stage runs once per command and hands its result on.

Counting wrappers replace a stage function in every ``ratsos`` module that
holds it, so calls through ``bd.name`` and through names imported from
another module are both counted.
"""

import random
import sys
from pathlib import Path

import pytest

from ratsos import boundary, gram, linalg, numfield, permgroup, resultants, sturm
from ratsos.cli import EXIT_INCONCLUSIVE, EXIT_NEGATIVE, EXIT_OK, _parse_gram_file, run
from ratsos.poly import UniPoly
from test_boundary import _mapped_demo_kernel

GOLDEN = Path(__file__).parent / "data" / "golden"


def count_calls(monkeypatch, module, name) -> list:
    original = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "ratsos" or mod_name.startswith("ratsos."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counting)
    return calls


def count_method_calls(monkeypatch, cls, name) -> list:
    original = getattr(cls, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cls, name, counting)
    return calls


def _chain_counts(monkeypatch, argv):
    counts = {
        name: count_calls(monkeypatch, module, name)
        for module, name in (
            (boundary, "cb_relation"),
            (boundary, "hilbert_function"),
            (gram, "extract_qsos"),
            (boundary, "kernel_cubics"),
            (linalg, "psd_check"),
        )
    }
    assert run(argv).exit_code == EXIT_OK
    moment = boundary.moment_matrix(boundary.functional_from_tuple(boundary.demo_points(), boundary.demo_tuple()))
    counts["moment psd_check"] = [args for args in counts["psd_check"] if args[0] == moment]
    return {name: len(calls) for name, calls in counts.items()}


@pytest.mark.parametrize(
    "argv",
    [
        ["boundary", "demo"],
        ["boundary", "construct", "--points", str(GOLDEN / "demo_points.txt"), "--tuple", "1,1,1,1,4,4,4,4,-2"],
    ],
    ids=["demo", "construct"],
)
def test_boundary_chain_runs_each_stage_once(monkeypatch, argv):
    assert _chain_counts(monkeypatch, argv) == {
        "cb_relation": 1,
        "hilbert_function": 1,
        "extract_qsos": 1,
        "kernel_cubics": 1,
        "psd_check": 2,  # moment matrix, kernel Gram matrix; the extraction is the witness
        "moment psd_check": 1,
    }


@pytest.mark.parametrize("witness", [False, True], ids=["derived", "supplied"])
def test_boundary_certify_extracts_once(monkeypatch, witness):
    argv = ["boundary", "certify", "--form", str(GOLDEN / "demo_sextic.txt"),
            "--functional", str(GOLDEN / "demo_functional.txt")]
    if witness:
        argv += ["--witness", str(GOLDEN / "demo_witness.txt")]
    counts = _chain_counts(monkeypatch, argv)
    assert counts == {
        "cb_relation": 0,
        "hilbert_function": 0,
        "extract_qsos": 1,
        "kernel_cubics": 1,
        # moment matrix, kernel Gram matrix, and a supplied witness
        "psd_check": 3 if witness else 2,
        "moment psd_check": 1,
    }


def test_groups_table_enumerates_each_group_once(monkeypatch):
    calls = count_calls(monkeypatch, permgroup, "enumerate_group")
    chains = count_method_calls(monkeypatch, permgroup.GroupDesc, "chain")
    assert run(["groups", "table", "--catalog", "degree8.cat"]).exit_code == EXIT_OK
    assert len(calls) == 50
    assert len({id(args[0]) for args in calls}) == 50
    assert len(chains) == 50


def test_groups_classify_enumerates_once(monkeypatch):
    calls = count_calls(monkeypatch, permgroup, "enumerate_group")
    chains = count_method_calls(monkeypatch, permgroup.GroupDesc, "chain")
    assert run(["groups", "classify", "--gens", "(1 2 3 4),(1 3)"]).exit_code == EXIT_OK
    assert len(calls) == 1
    assert len(chains) == 1


@pytest.mark.parametrize("gens", ["(2 3)(5 6),(1 4 5 6)", "(1 2)(3 4)"])
def test_groups_classify_stops_at_the_chain_of_an_intransitive_group(monkeypatch, gens):
    enumerations = count_calls(monkeypatch, permgroup, "enumerate_group")
    closures = count_calls(monkeypatch, permgroup, "char_number")
    assert run(["groups", "classify", "--gens", gens]).exit_code == EXIT_INCONCLUSIVE
    assert len(enumerations) == 0
    assert len(closures) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["groups", "char-number", "--gens", "(1 2)(3 4)", "--inv", "(1 2)(3 4)"],
        ["field", "obstruct", "--minpoly=t^6+t+1", "--galois-gens=(1 2)(3 4)(5 6),(1 3)"],
    ],
    ids=["char-number", "obstruct"],
)
def test_an_intransitive_group_stops_at_its_chain(monkeypatch, argv):
    enumerations = count_calls(monkeypatch, permgroup, "enumerate_group")
    closures = count_calls(monkeypatch, permgroup, "char_number")
    chains = count_method_calls(monkeypatch, permgroup.GroupDesc, "chain")
    assert run(argv).exit_code == EXIT_INCONCLUSIVE
    assert (len(chains), len(enumerations), len(closures)) == (1, 0, 0)


def test_a_supplied_quartic_group_builds_one_chain_per_group(monkeypatch):
    # the supplied group's chain for its cycle types, the derived group's for those and membership
    chains = count_method_calls(monkeypatch, permgroup.GroupDesc, "chain")
    argv = ["field", "obstruct", "--minpoly", "t^4+t+1", "--galois-gens", "(1 2 3 4),(1 2)"]
    assert run(argv).exit_code == EXIT_OK
    assert len(chains) == 2


@pytest.mark.parametrize(
    "argv, exit_code",
    [
        (["field", "obstruct", "--minpoly", "t^4+t+1"], EXIT_OK),
        (["field", "obstruct", "--minpoly=t^6+t+1", "--galois-gens=(1 2 3 4 5 6),(1 2)"], EXIT_INCONCLUSIVE),
        (["groups", "char-number", "--gens", "(1 2 3 4),(1 3)", "--inv", "(1 2)(3 4)"], EXIT_OK),
    ],
    ids=["obstruct-quartic", "obstruct-galois-gens", "char-number"],
)
def test_order_and_membership_come_from_one_chain(monkeypatch, argv, exit_code):
    enumerations = count_calls(monkeypatch, permgroup, "enumerate_group")
    chains = count_method_calls(monkeypatch, permgroup.GroupDesc, "chain")
    assert run(argv).exit_code == exit_code
    assert len(enumerations) == 0
    assert len(chains) == 1


def test_boundary_demo_checks_the_hilbert_function_it_computed(monkeypatch):
    monkeypatch.setattr(boundary, "hilbert_function", lambda u_basis: (1, 3, 6, 7, 6, 3, 2, 0))
    res = run(["boundary", "demo"])
    assert res.report.endswith("expected-value check FAILED")
    assert "Hilbert function of A/(U): (1, 3, 6, 7, 6, 3, 2, 0)" in res.report


@pytest.mark.parametrize(
    "argv, exit_code",
    [
        (["field", "normform", "--minpoly", "t^6+t+1"], EXIT_OK),
        (["field", "normform", "--minpoly", "t^5+t^4-2*t^3+3*t^2-t+1", "--linform", "3+t-2*t^2; t^6-1"], EXIT_OK),
        (["field", "obstruct", "--minpoly", "t^4+t+1"], EXIT_OK),
        (["gram", "shrink", "--g1", str(GOLDEN / "shrink-rational-g1.txt"),
          "--g2", str(GOLDEN / "shrink-rational-g2.txt")], EXIT_OK),
        (["gram", "shrink", "--g1", str(GOLDEN / "shrink-generic-g1.txt"),
          "--g2", str(GOLDEN / "shrink-generic-g2.txt")], EXIT_INCONCLUSIVE),
    ],
    ids=["normform-canonical", "normform-linform", "obstruct-quartic", "shrink-rational", "shrink-generic"],
)
def test_determinants_avoid_the_laplace_expansion(monkeypatch, argv, exit_code):
    laplace = count_calls(monkeypatch, resultants, "det_ring")
    sylvester = count_calls(monkeypatch, resultants, "resultant")
    assert run(argv).exit_code == exit_code
    assert (len(laplace), len(sylvester)) == (0, 0)


@pytest.mark.parametrize(
    "argv, reductions, eliminations",
    [
        # two reductions in each of the two nullspaces, one in the kernel Gram solve, each one
        # exact elimination; every rank check meets its bound mod 2^61 - 1 (the degree-6
        # Hilbert piece, 30 x 28 of rank 27, through its three Koszul relations) and adds none
        (["boundary", "demo"], 5, 5),
        (["boundary", "construct", "--points", str(GOLDEN / "demo_points.txt"), "--tuple", "1,1,1,1,4,4,4,4,-2"],
         5, 5),
        # the Gram solve; the basis rank check does no back-substitution
        (["gram", "extract-q", "--form", "x1^4+x2^4", "--basis", "x1^2;x2^2"], 1, 1),
    ],
    ids=["demo", "construct", "extract-q"],
)
def test_rank_only_callers_do_no_back_substitution(monkeypatch, argv, reductions, eliminations):
    calls = count_calls(monkeypatch, linalg, "rref")
    exact = count_calls(monkeypatch, linalg, "_echelon")
    assert run(argv).exit_code == EXIT_OK
    assert len(calls) == reductions
    assert len(exact) == eliminations


@pytest.mark.parametrize("height", [1, 100, 10**4])
def test_hilbert_function_needs_no_exact_elimination(monkeypatch, height):
    kernel = _mapped_demo_kernel(random.Random(height), height)
    exact = count_calls(monkeypatch, linalg, "_echelon")
    assert boundary.hilbert_function(kernel) == (1, 3, 6, 7, 6, 3, 1, 0)
    assert not exact


def _golden_shrink():
    g1, g2 = (_parse_gram_file((GOLDEN / f"shrink-rational-{k}.txt").read_text()) for k in ("g1", "g2"))
    return gram.shrink_span(g1, g2)


@pytest.mark.parametrize(
    "stage",
    [
        lambda: numfield.norm_form(UniPoly.parse("t^6+t+1")),
        _golden_shrink,
    ],
    ids=["norm_form", "shrink_span"],
)
def test_determinants_come_from_the_elimination_kernel(monkeypatch, stage):
    dets = count_calls(monkeypatch, linalg, "det")
    stage()
    assert dets


def test_resultants_has_no_elimination_loop_of_its_own():
    names = {name for name, value in vars(resultants).items() if callable(value)}
    assert resultants.det is linalg.det
    assert not names & {"_bareiss_det", "_integer_scaled", "det_rational"}


@pytest.mark.parametrize(
    "argv, exit_code",
    [
        (["field", "obstruct", "--minpoly", "t^6+t^5+t^4+t^3+t^2+t+1", "--galois-gens", "(1 3 6 2 4 5)"],
         EXIT_INCONCLUSIVE),
        (["field", "obstruct", "--minpoly", "t^4+t+1", "--linform", "1;t;t^3"], EXIT_OK),
        # a supplied quartic group is compared with the derived one, on the same roots
        (["field", "obstruct", "--minpoly", "t^4+t+1", "--galois-gens", "(1 2 3 4),(1 2)"], EXIT_OK),
    ],
    ids=["galois-gens", "linform", "quartic-galois-gens"],
)
def test_field_obstruct_isolates_the_roots_once(monkeypatch, argv, exit_code):
    isolations = count_calls(monkeypatch, numfield, "isolate_roots")
    real_counts = count_calls(monkeypatch, sturm, "count_real_roots")
    assert run(argv).exit_code == exit_code
    assert len(isolations) == 1
    assert len(real_counts) == 2  # the totally-imaginary check and the isolation's cross-check


def test_refined_root_systems_reuse_the_sturm_chain(monkeypatch):
    roots = numfield.isolate_roots(UniPoly.parse("t^4+2"))
    chains = count_calls(monkeypatch, sturm, "sturm_chain")
    refined = roots.refined().refined()
    assert refined.precision_bits == 4 * roots.precision_bits
    assert refined.chain == roots.chain
    assert len(chains) == 0


def test_gram_verify_checks_and_reduces_the_gram_matrix_once(monkeypatch):
    # the span basis is the PSD check and the one reduction; the face dimension reads it
    psd = count_calls(monkeypatch, linalg, "psd_check")
    reductions = count_calls(monkeypatch, linalg, "rref")
    squares = "x1^3 - x1*x3^2; x2^3 - x2*x3^2; 3*x1^2*x3 + 3*x2^2*x3 - 4*x3^3"
    form = (GOLDEN / "demo_sextic.txt").read_text()
    assert run(["gram", "verify", "--form", form, "--squares", squares]).exit_code == EXIT_OK
    assert (len(psd), len(reductions)) == (1, 1)


def _shrink_argv(kind):
    return ["gram", "shrink", "--g1", str(GOLDEN / f"shrink-{kind}-g1.txt"),
            "--g2", str(GOLDEN / f"shrink-{kind}-g2.txt")]


@pytest.mark.parametrize(
    "kind, exit_code, psd_checks",
    [
        ("generic", EXIT_INCONCLUSIVE, 2),
        ("rational", EXIT_OK, 3),  # the two inputs and the boundary matrix
        ("differ", EXIT_NEGATIVE, 2),
    ],
)
def test_gram_shrink_checks_and_reduces_each_matrix_once(monkeypatch, kind, exit_code, psd_checks):
    psd = count_calls(monkeypatch, linalg, "psd_check")
    reductions = count_calls(monkeypatch, linalg, "rref")
    assert run(_shrink_argv(kind)).exit_code == exit_code
    assert len(psd) == psd_checks
    assert len(reductions) == 2


def test_gram_shrink_refines_with_one_sturm_count(monkeypatch):
    counts = count_calls(monkeypatch, sturm, "count_roots_in")
    per_refinement = []
    refine = gram.refine_interval

    def counting_refine(*args):
        before = len(counts)
        result = refine(*args)
        per_refinement.append(len(counts) - before)
        return result

    monkeypatch.setattr(gram, "refine_interval", counting_refine)
    assert run(_shrink_argv("generic")).exit_code == EXIT_INCONCLUSIVE
    assert per_refinement == [1]
    assert len(counts) <= 60


@pytest.mark.parametrize(
    "argv, exit_code, counts",
    [
        # one chain of m serves every check on m; rational_roots builds the resolvent cubic's
        (["field", "obstruct", "--minpoly", "t^4+t+1"], EXIT_OK, {"remainder_sequence": 2, "sturm_chain": 2}),
        (["field", "galois", "--minpoly", "t^4+2"], EXIT_OK, {"remainder_sequence": 2, "sturm_chain": 2}),
        # one chain of det Q(s) isolates s*, finds it when rational, and refines it otherwise
        (_shrink_argv("generic"), EXIT_INCONCLUSIVE, {"remainder_sequence": 1, "sturm_chain": 1}),
        (_shrink_argv("rational"), EXIT_OK, {"remainder_sequence": 1, "sturm_chain": 1}),
    ],
    ids=["obstruct-quartic", "galois-d4", "shrink-generic", "shrink-rational"],
)
def test_one_remainder_sequence_per_polynomial(monkeypatch, argv, exit_code, counts):
    calls = {
        "remainder_sequence": count_method_calls(monkeypatch, UniPoly, "remainder_sequence"),
        "sturm_chain": count_calls(monkeypatch, sturm, "sturm_chain"),
    }
    assert run(argv).exit_code == exit_code
    assert {name: len(c) for name, c in calls.items()} == counts

"""Each certificate stage runs once per command and hands its result on.

Counting wrappers replace a stage function in every ``ratsos`` module that
holds it, so calls through ``bd.name`` and through names imported from
another module are both counted.
"""

import sys
from pathlib import Path

import pytest

from ratsos import boundary, gram, linalg, permgroup
from ratsos.cli import EXIT_OK, run

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
        "psd_check": 3,  # moment matrix, kernel Gram matrix, membership witness
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
        "psd_check": 3,  # moment matrix, kernel Gram matrix, membership witness
        "moment psd_check": 1,
    }


def test_groups_table_enumerates_each_group_once(monkeypatch):
    calls = count_calls(monkeypatch, permgroup, "enumerate_group")
    assert run(["groups", "table", "--catalog", "degree8.cat"]).exit_code == EXIT_OK
    assert len(calls) == 50
    assert len({id(args[0]) for args in calls}) == 50


def test_groups_classify_enumerates_once(monkeypatch):
    calls = count_calls(monkeypatch, permgroup, "enumerate_group")
    assert run(["groups", "classify", "--gens", "(1 2 3 4),(1 3)"]).exit_code == EXIT_OK
    assert len(calls) == 1


def test_boundary_demo_checks_the_hilbert_function_it_computed(monkeypatch):
    monkeypatch.setattr(boundary, "hilbert_function", lambda u_basis: (1, 3, 6, 7, 6, 3, 2, 0))
    res = run(["boundary", "demo"])
    assert res.report.endswith("expected-value check FAILED")
    assert "Hilbert function of A/(U): (1, 3, 6, 7, 6, 3, 2, 0)" in res.report

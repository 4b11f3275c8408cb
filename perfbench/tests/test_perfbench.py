"""Tests of the benchmark itself: seeded inputs, output checks and tracing."""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import exact  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import TRACED, Tracer  # noqa: E402
from workloads import WORKLOADS, make_op  # noqa: E402

import ratsos.cli as cli  # noqa: E402


def _inputs(workload, seed, workdir):
    """Argv and file contents of one cycle, with the work directory masked."""
    out = []
    for index in range(len(workload.cycle)):
        op = make_op(workload, seed, index, workdir)
        argv = [a.replace(str(workdir), "<work>") for a in op.argv]
        files = {p.name: p.read_text() for p in sorted(workdir.iterdir())}
        out.append((op.kind, argv, files))
        for p in workdir.iterdir():
            p.unlink()
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name, tmp_path):
    first, second, other = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for d in (first, second, other):
        d.mkdir()
    workload = WORKLOADS[name]
    assert _inputs(workload, 7, first) == _inputs(workload, 7, second)
    assert _inputs(workload, 7, first) != _inputs(workload, 8, other)


def _run(op):
    result = cli.run(op.argv)
    return result.exit_code, result.report


def test_table_row_corruption_is_wrong(tmp_path):
    op = make_op(WORKLOADS["groups-table"], 3, 1, tmp_path)  # a degree-4 table
    code, report = _run(op)
    assert op.check(code, report) is None
    lines = report.splitlines()
    bad = op.check(code, "\n".join(["4  5  2  1  0"] + lines[1:]))
    assert bad is not None and bad.wrong and bad.check == "table-row"


def test_relabelled_catalog_is_a_conjugate():
    text = (workloads.SRC_DATA / "degree4.cat").read_text()
    out = workloads.relabel_catalog(text, random.Random(1))
    assert len(out.splitlines()) == len([ln for ln in text.splitlines() if ln and not ln.startswith("#")])
    assert out != text


def test_squares_that_do_not_expand_to_f_are_wrong(tmp_path):
    op = workloads.extract_op(random.Random(5), tmp_path, 10, "t")
    code, report = _run(op)
    assert op.check(code, report) is None
    first, *rest = report.splitlines()
    squares = first[5:-3].split(")^2 + (")
    squares[0] = exact.format_poly(exact.add(exact.parse(squares[0], 3), {(3, 0, 0): 1}))
    corrupted = "f = (" + ")^2 + (".join(squares) + ")^2"
    bad = op.check(code, "\n".join([corrupted] + rest))
    assert bad is not None and bad.wrong and bad.check == "squares-expansion"


def test_norm_form_corruption_is_wrong():
    op = workloads.normform_op(random.Random(2), 4)
    code, report = _run(op)
    assert op.check(code, report) is None
    form = exact.parse(report, 2)
    form = exact.add(form, {(4, 0): 1})
    bad = op.check(code, exact.format_poly(form))
    assert bad is not None and bad.wrong and bad.check == "norm-product"


def test_galois_verdicts():
    rng = random.Random(4)
    s4 = workloads.obstruct_op(rng, "S4", "low", 0)
    code, report = _run(s4)
    assert code == 0 and s4.check(code, report) is None
    missed = s4.check(2, report.replace("NotQSos", "NoObstruction"))
    assert missed is not None and not missed.wrong
    d4 = workloads.obstruct_op(rng, "D4", "low", 0)
    code, report = _run(d4)
    assert code == 2 and d4.check(code, report) is None
    false_cert = d4.check(0, report.replace("NoObstruction", "NotQSos"))
    assert false_cert is not None and false_cert.wrong


def test_boundary_hilbert_corruption_is_wrong(tmp_path):
    op = workloads.boundary_op(random.Random(1), tmp_path, 1, "t")
    code, report = _run(op)
    assert op.check(code, report) is None
    bad = op.check(code, report.replace("(1, 3, 6, 7, 6, 3, 1, 0)", "(1, 3, 6, 7, 6, 3, 1, 1)"))
    assert bad is not None and bad.wrong and bad.check == "hilbert-function"


def test_shrink_interval_without_sign_change_is_wrong(tmp_path):
    op = workloads.shrink_op(random.Random(3), tmp_path, 2, False, "t")
    bad = op.check(2, "DeferredKernel: boundary parameter s* is irrational, isolated in (1, 3/2]")
    assert bad is not None and bad.wrong


def test_affine_minpoly_has_the_shifted_root():
    # t^2 + 1 has root i; 3i + 2 is a root of (t - 2)^2 + 9
    assert workloads.affine_minpoly([1, 0, 1], 3, 2) == [13, -4, 1]


def test_tracer_records_nested_spans_and_restores():
    import ratsos.permgroup as pg

    original = pg.enumerate_group
    with Tracer() as tracer:
        tracer.op = 0
        assert cli.run(["groups", "table", "--catalog", "degree4.cat"]).exit_code == 0
    assert pg.enumerate_group is original
    metrics = tracer.metrics(1)
    assert metrics["permgroup.classify.calls"][0] == 5
    assert metrics["permgroup.enumerations_per_group"][0] >= 1
    assert metrics["linalg.rref.calls"][0] == 0
    assert set(f"{n}.self_s" for n in TRACED) <= set(metrics)
    roots = [s for s in tracer.spans if s[3] == -1]
    assert [s[0] for s in roots] == ["cli.run"]
    assert all(t >= -1e-9 for t in tracer.self_times())
    total_self = sum(tracer.self_times())
    assert total_self == pytest.approx(roots[0][2] - roots[0][1], rel=1e-6)


def test_percentile_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 0.9) == 90
    assert run.percentile([5.0], 0.9) == 5.0


def test_typical_seconds_uses_the_median_of_each_kind():
    records = [
        run.Record(i, kind, "", wall, None, 1.0)
        for i, (kind, wall) in enumerate([("a", 1.0), ("b", 10.0), ("a", 3.0), ("a", 2.0), ("b", 30.0)])
    ]
    assert run.typical_seconds(records) == [2.0, 20.0, 2.0, 2.0, 20.0]


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "groups-table", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_names_every_traced_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    metrics = Tracer().metrics(1)
    metrics["trace.overhead_ratio"] = (0.0, "ratio")
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in metrics.items()}
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


def test_slow_operation_is_stopped_and_counted(monkeypatch):
    class Spinning:
        @staticmethod
        def run(argv):
            while True:
                try:
                    pass
                except Exception:  # the program's own handlers must not swallow the stop
                    pass

    monkeypatch.setattr(run, "OP_TIMEOUT_S", 0.2)
    op = workloads.Op("spin", [], lambda code, report: None)
    elapsed, failure = run.execute(Spinning, op)
    assert failure is not None and failure.check == "timeout"
    assert 0.2 <= elapsed < 5


def test_result_line_has_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "groups-table", "--seed", "1", "--seconds", "0.5", "--trace", "0"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())

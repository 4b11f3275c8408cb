"""Benchmark of the four ratsos certificate pipelines.

Run from the repository root:

    python3 perfbench/run.py --workload field-certs --seed 1 --seconds 20 --trace 0

One closed-loop client in one process calls ``ratsos.cli.run`` with the
seeded operations of a workload (see ``workloads.py``), one after another,
in whole rotations of its cycle until about ``--seconds`` of operation
time has passed, and checks every output independently of the program.

``--trace 0`` prints the end-to-end metrics: median and 90th-percentile
latency of one operation, operations per second, the share of operations
that succeed, set-up time of a fresh process (median of probes spread over
the run) and the peak resident memory of the benchmark process.  Every
time is scaled to a reference host speed (see ``calibration.py``).  The
three operation metrics are taken over the run's operations with each
operation's time replaced by the median time of its kind in the run
(``typical_seconds``): the mix is fixed by the workload's cycle, so this
removes the noise of which instance of a kind lands on a percentile, and
one slow instance cannot swing the throughput.  The summary line gives
the pooled percentiles, the mean scale and how many operations lie beyond
the 90th percentile.

``--trace 1`` runs whole cycles untraced for half the time, then the same
operations again with every layer wrapped (see ``spans.py``), and prints
per-operation calls, self time and counters per layer, and the tracing
overhead; the spans are written to
``.perfbench/spans-<workload>-seed<seed>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_PROBES = 3  # before the first cycle; more follow during the run
PROBE_EVERY = 1 / 9  # share of --seconds of operation time between two probes
MAX_SETUP_PROBES = 10  # a run longer than --seconds makes no more
CALIBRATE_EVERY_S = 0.25  # operation time between two host-speed samples
CALIBRATE_WINDOW_S = 0.5  # samples this close to an operation set its scale
OP_TIMEOUT_S = 20  # a slower operation is stopped and counted as failed, so a run ends in time

sys.path.insert(0, str(ROOT / "src"))

from calibration import IMPORT_REFERENCE_S, host_speed  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Failure, make_op  # noqa: E402


class Record(NamedTuple):
    index: int
    kind: str
    label: str
    wall: float  # seconds as measured
    failure: Failure | None
    scale: float  # host-speed factor around this operation (see calibration.py)

    @property
    def seconds(self) -> float:
        return self.wall * self.scale


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _probe(*args) -> float:
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    return json.loads(proc.stdout)["setup_s"]


def setup_probe() -> float:
    """Set-up seconds of one fresh process (see setup_probe.py), at the reference host speed."""
    return _probe() * IMPORT_REFERENCE_S / _probe("reference")


class OpTimeout(BaseException):
    """Raised by the timer signal; not an Exception, so the program's own handlers let it pass."""


def _raise_timeout(signum, frame):
    raise OpTimeout


def execute(cli, op):
    """Run one operation; returns (seconds, Failure or None)."""
    result = failure = None
    signal.signal(signal.SIGALRM, _raise_timeout)
    start = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
        try:
            result = cli.run(op.argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        failure = Failure("timeout", f"stopped after {OP_TIMEOUT_S} s")
    except SystemExit as exc:
        failure = Failure("raised", f"SystemExit({exc.code})")
    except Exception as exc:  # any escape from cli.run is a failed operation
        failure = Failure("raised", f"{type(exc).__name__}: {exc}")
    elapsed = perf_counter() - start
    if result is not None:
        try:
            failure = op.check(result.exit_code, result.report)
        except Exception as exc:  # an output the check cannot read is a wrong output
            failure = Failure("unreadable-output", f"{type(exc).__name__}: {exc}", wrong=True)
    return elapsed, failure


def run_cycles(cli, workload, seed, workdir, seconds=None, cycles=None, tracer=None, after_cycle=None):
    """Whole rotations of cycles until ``cycles`` are done or about ``seconds`` of operation time.

    Stops at the rotation boundary nearest to ``seconds`` of measured
    time, judged by the last rotation's length.  The host speed is sampled
    before the first operation and after every ``CALIBRATE_EVERY_S`` of
    operation time; an operation's scale is the median of the samples
    within ``CALIBRATE_WINDOW_S`` of it (at least the three nearest).
    ``after_cycle(busy)`` runs untimed after each cycle.
    """
    ops = []  # (index, kind, label, wall, failure, start)
    samples = [(perf_counter(), host_speed())]
    since = busy = rotation_time = 0.0
    done = 0
    while True:
        cycle_time = 0.0
        for _ in workload.cycle:
            index = len(ops)
            op = make_op(workload, seed, index, workdir)
            if tracer is not None:
                tracer.op = index
            start = perf_counter()
            elapsed, failure = execute(cli, op)
            ops.append((index, op.kind, op.label, elapsed, failure, start))
            cycle_time += elapsed
            since += elapsed
            if since >= CALIBRATE_EVERY_S:
                samples.append((perf_counter(), host_speed()))
                since = 0.0
        busy += cycle_time
        rotation_time += cycle_time
        done += 1
        if done % workload.rotation == 0:
            if (cycles is not None and done >= cycles) or (seconds is not None and busy + rotation_time / 2 >= seconds):
                break
            rotation_time = 0.0
        if after_cycle is not None:
            after_cycle(busy)
    samples.append((perf_counter(), host_speed()))

    def scale(start, wall):
        middle = start + wall / 2
        near = [v for t, v in samples if start - CALIBRATE_WINDOW_S <= t <= start + wall + CALIBRATE_WINDOW_S]
        if len(near) < 3:
            near = [v for _, v in sorted(samples, key=lambda tv: abs(tv[0] - middle))[:3]]
        return statistics.median(near)

    return [Record(index, kind, label, wall, failure, scale(start, wall))
            for index, kind, label, wall, failure, start in ops]


def typical_seconds(records) -> list:
    """Each operation's scaled time replaced by the median scaled time of its kind."""
    by_kind = {}
    for r in records:
        by_kind.setdefault(r.kind, []).append(r.seconds)
    median = {kind: statistics.median(times) for kind, times in by_kind.items()}
    return [median[r.kind] for r in records]


def report_failures(records) -> None:
    failures = [r for r in records if r.failure is not None]
    print(f"fail_ratio {len(failures) / len(records):.4f} ({len(failures)} of {len(records)})")
    for r in failures[:20]:
        print(f"  op {r.index} {r.kind} ({r.label}): {'WRONG ' if r.failure.wrong else ''}{r.failure}"[:240])
    if len(failures) > 20:
        print(f"  ... and {len(failures) - 20} more")


def warm_up(cli, workload, seed, workdir) -> bool:
    """Untimed operations that fill caches; returns False if one gave a wrong output."""
    ok = True
    for index in range(len(workload.warmup)):
        _, failure = execute(cli, make_op(workload, seed, index, workdir, warmup=True))
        ok = ok and not (failure and failure.wrong)
    return ok


def end_to_end(cli, workload, args, workdir):
    # probes are spread over the run so that their median sees the same
    # host as the operations; the first one compiles bytecode
    _probe()
    setups = [setup_probe() for _ in range(SETUP_PROBES)]
    next_probe = args.seconds * PROBE_EVERY

    def probe_when_due(busy):
        nonlocal next_probe
        while busy >= next_probe and len(setups) < MAX_SETUP_PROBES:
            setups.append(setup_probe())
            next_probe += args.seconds * PROBE_EVERY

    records = run_cycles(cli, workload, args.seed, workdir, seconds=args.seconds, after_cycle=probe_when_due)
    typical = typical_seconds(records)
    metrics = {
        "op_p50_ms": (percentile(typical, 0.5) * 1000, "ms"),
        "op_p90_ms": (percentile(typical, 0.9) * 1000, "ms"),
        "ops_per_s": (len(records) / sum(typical), "1/s"),
        "ok_ratio": (sum(r.failure is None for r in records) / len(records), "ratio"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    scaled_ms = [r.seconds * 1000 for r in records]
    beyond = sum(v > metrics["op_p90_ms"][0] for v in scaled_ms)
    wall = sum(r.wall for r in records)
    print(f"{args.workload} seed {args.seed}: {len(records)} operations of {len({r.kind for r in records})} kinds, "
          f"{wall:.2f} s measured, mean scale {sum(r.seconds for r in records) / wall:.3f}, "
          f"pooled p50/p90 {percentile(scaled_ms, 0.5):.2f}/{percentile(scaled_ms, 0.9):.2f} ms, "
          f"{beyond} beyond op_p90_ms, {len(setups)} set-up probes")
    return records, metrics


def per_layer(cli, workload, args, workdir):
    plain = run_cycles(cli, workload, args.seed, workdir, seconds=args.seconds / 2)
    n_cycles = len(plain) // len(workload.cycle)
    with Tracer() as tracer:
        records = run_cycles(cli, workload, args.seed, workdir, cycles=n_cycles, tracer=tracer)
    metrics = tracer.metrics(len(records), {r.index: r.scale for r in records})
    overhead = sum(r.seconds for r in records) / sum(r.seconds for r in plain) - 1
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans_path)
    print(f"{args.workload} seed {args.seed}: {len(records)} traced operations, "
          f"{len(tracer.spans)} spans in {spans_path.name}, tracing overhead {overhead:.1%}")
    top = sorted((k for k in metrics if k.endswith(".self_s")), key=lambda k: -metrics[k][0])[:8]
    for name in top:
        print(f"  {name:40s} {metrics[name][0] * 1000:10.3f} ms/op")
    return plain + records, records, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ratsos" / "cli.py").is_file():
        print(f"no ratsos sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    import ratsos.cli as cli

    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        correct = warm_up(cli, workload, args.seed, workdir)
        if args.trace:
            checked, records, metrics = per_layer(cli, workload, args, workdir)
        else:
            records, metrics = end_to_end(cli, workload, args, workdir)
            checked = records
        report_failures(records)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = correct and not any(r.failure and r.failure.wrong for r in checked)
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": sum(r.failure is not None for r in records),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

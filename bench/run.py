"""defcol benchmark: runs one workload through `defcol.cli.main` in-process.

Usage, from the repository root:

    python3 bench/run.py --workload certify --seed 1 --seconds 28 --trace 0

Workloads (operation lists and known answers are in workloads.py):

  certify     solves with known verdicts; solver search does the work
  audit       charge audits under the three rulesets and lemma checks
  large_easy  girth/c4c5 checks and shallow solves on inputs of 200-2,000 vertices
  export      gadget and reduce generation, the text serializers, CNF export

Set-up imports the package and writes the workload's inputs into a fresh
directory under .bench_work/; it is repeated and its median reported. A pass
sends the workload's operations in the seed's order from one caller, each
after the previous one returned (a closed loop with one client and no extra
threads). Passes repeat until the time is up. With --trace 0 every pass is
untraced and the run reports the end-to-end metrics; with --trace 1 untraced
and traced passes alternate, and the run reports per-layer metrics from the
traced passes plus the tracing overhead. Spans are written to .bench_out/.

Times are reported at a fixed reference speed. The hosts this runs on are
shared, and their speed drifts by tens of percent within seconds to minutes,
which no amount of repetition inside one run averages out. So a short fixed
pure-Python loop is timed between every two operations of a pass, and
between set-ups, and the pass's times are multiplied by REF_NOMINAL_S over
the mean loop time of that pass: a pass that takes 4 s while the loop takes
2.5 ms on average is reported as 3.2 s. The mean, not the median, because
the host switches between fast and slow states within a pass. The raw
wall-clock times are printed as well.

Every output is checked (checks.py). The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics. The exit status
is 0 when every output was correct, 1 on any correctness violation and 2
when the run cannot start, for instance without the package sources.

`--workload all` runs every workload untraced and traced, one after another
in child processes, and prints their reports.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import checks
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 11
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
MIN_OP_SAMPLES = 100  # the 90th percentile needs at least 10 samples beyond it
MAX_RUN_S = 150.0  # keeps a run inside three minutes on a slow machine
REF_NOMINAL_S = 0.002  # reference-loop time at the speed that reported times assume

# reported in the result line; failed_share and verdicts are printed only,
# because they read 0 on some workloads
END_TO_END = ("setup_s", "wall_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb")
TRACE_METRICS = {"trace.overhead_s": "s", "trace.spans": "count"}


@dataclass
class PassResult:
    latencies: list[float] = field(default_factory=list)  # wall-clock seconds
    refs: list[float] = field(default_factory=list)  # reference-loop times
    failures: list[str] = field(default_factory=list)
    verdicts: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def scale(self) -> float:
        """Factor from wall-clock time to time at reference speed."""
        return REF_NOMINAL_S / statistics.fmean(self.refs)

    @property
    def wall_s(self) -> float:
        """Pass time: the sum of its latencies, which leaves checking out."""
        return sum(self.latencies)


def per_layer_units() -> dict[str, str]:
    units = spans.metric_units(workloads.NODE_BASELINE_OPS, workloads.LADDER_OPS)
    return {**units, **TRACE_METRICS}


def reference_s() -> float:
    """Time of a fixed pure-Python loop, about 2 ms: one sample of the
    host's current speed."""
    start = perf_counter()
    table: dict[int, int] = {}
    row: list[int] = []
    for i in range(5000):
        table[i % 977] = table.get(i % 977, 0) + i
        row.append(i ^ (i >> 3))
        if len(row) == 500:
            row.sort()
            row.clear()
    return perf_counter() - start


def set_up(workload: str, seed: int, workdir: Path):
    """Import the package and write every input, SETUP_REPEATS times.
    Returns the set-up times at reference speed, the raw times and the ops."""
    raw = []
    refs = [reference_s() for _ in range(SETUP_REPEATS)]
    for i in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m == "defcol" or m.startswith("defcol.")]:
            del sys.modules[name]
        target = workdir / f"setup{i}"
        start = perf_counter()
        importlib.import_module("defcol.cli")
        ops = workloads.generate(workload, seed, target)
        raw.append(perf_counter() - start)
        refs.append(reference_s())
        if i + 1 < SETUP_REPEATS:
            shutil.rmtree(target)
    scale = REF_NOMINAL_S / statistics.fmean(refs)
    return [t * scale for t in raw], raw, ops


def run_op(main, op, tracer):
    """Call the CLI once. Returns (seconds, exit code, failure, stdout); the
    failure is None unless the call raised or left the exit-code contract."""
    stdout = io.StringIO()
    rc = failure = None
    start = perf_counter()
    span = tracer.span(spans.OP_SPAN) if tracer else nullcontext([None] * len(spans.FIELDS))
    with span as record:
        try:
            with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
                rc = main(list(op.argv))
        except SystemExit as exc:  # argparse exits on usage errors
            rc = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception as exc:  # a crash fails this operation, not the run
            failure = f"{type(exc).__name__}: {exc}"[:120]
        if failure is None and rc not in checks.CONTRACT_EXIT_CODES:
            failure = f"exit code {rc}"
        record[spans.FAILED] = failure is not None
    return perf_counter() - start, rc, failure, stdout.getvalue()


def run_pass(ops, checker, tracer=None) -> PassResult:
    """One pass over `ops`, with the reference loop timed before the first
    and after every operation. Each output is checked as soon as its
    operation returns, so a pass holds one output at a time."""
    main = sys.modules["defcol.cli"].main
    result = PassResult(refs=[reference_s()])
    for op in ops:
        if tracer:
            tracer.op = op.name
        seconds, rc, failure, stdout = run_op(main, op, tracer)
        result.refs.append(reference_s())
        result.latencies.append(seconds)
        if failure is not None:
            result.failures.append(f"{op.name}: {failure}")
            continue
        violations, verdict = checker.check(op, rc, stdout)
        result.violations += violations
        result.verdicts += verdict
    return result


def measure(ops, seconds: float, trace: bool, checker):
    """Run passes until `seconds` are used up; alternate traced passes in
    when tracing. Returns untraced results, traced results and the tracer."""
    untraced: list[PassResult] = []
    traced: list[PassResult] = []
    tracer = spans.Tracer() if trace else None
    start = perf_counter()
    deadline = start + seconds
    while True:
        pass_start = perf_counter()
        if trace and len(traced) < len(untraced):
            tracer.start_pass()
            with spans.instrument(tracer):
                    traced.append(run_pass(ops, checker, tracer))
        else:
            untraced.append(run_pass(ops, checker))
        now = perf_counter()
        if trace:
            enough = min(len(untraced), len(traced)) >= MIN_TRACED_PASSES
        else:
            enough = len(untraced) >= MIN_PASSES and len(ops) * len(untraced) >= MIN_OP_SAMPLES
        if now - start > MAX_RUN_S or (enough and now + (now - pass_start) > deadline):
            return untraced, traced, tracer


def end_to_end(setup_times, untraced, ops, scaled=True) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics, at reference speed unless `scaled` is false."""
    per_pass = [[x * (p.scale if scaled else 1.0) for x in p.latencies] for p in untraced]
    latencies = [x for lat in per_pass for x in lat]
    walls = [sum(lat) for lat in per_pass]
    q = statistics.quantiles(latencies, n=100, method="inclusive")
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "ops_per_s": (statistics.median((len(ops) - p.failed) / wall
                                        for p, wall in zip(untraced, walls)), "ops/s"),
        "op_p50_ms": (q[49] * 1e3, "ms"),
        "op_p90_ms": (q[89] * 1e3, "ms"),
        "failed_share": (sum(p.failed for p in untraced) / len(latencies), "ratio"),
        "verdicts": (statistics.median(p.verdicts for p in untraced), "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, traced, untraced, ops) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced passes, times at reference speed."""
    girth_ops = {op.name for op in ops if op.family in ("path", "cycle")}
    units = per_layer_units()
    per_pass = []
    for spans_of_pass, result in zip(tracer.passes, traced):
        m = spans.pass_metrics(spans_of_pass, workloads.NODE_BASELINE_OPS,
                               workloads.LADDER_OPS, girth_ops)
        for name, value in m.items():
            if units[name] in ("s", "us"):
                m[name] = value * result.scale
            elif units[name] == "1/s":
                m[name] = value / result.scale
        per_pass.append(m)
    metrics = {
        name: (statistics.median(m[name] for m in per_pass), units[name]) for name in per_pass[0]
    }
    metrics["trace.overhead_s"] = (
        statistics.median(p.wall_s * p.scale for p in traced)
        - statistics.median(p.wall_s * p.scale for p in untraced),
        "s",
    )
    metrics["trace.spans"] = (statistics.median(len(p) for p in tracer.passes), "count")
    return metrics


def print_metrics(title, metrics) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:16.6f} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="defcol end-to-end and per-layer benchmark")
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)

    if not (SRC / "defcol" / "cli.py").is_file():
        print(f"bench: no package sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        setup_times, raw_setup_times, ops = set_up(args.workload, args.seed, workdir)
        checker = checks.Checker(checks.load_pins())
        untraced, traced, tracer = measure(ops, args.seconds, bool(args.trace), checker)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    results = untraced + traced
    violations = [v for p in results for v in p.violations]
    e2e = end_to_end(setup_times, untraced, ops)
    raw = end_to_end(raw_setup_times, untraced, ops, scaled=False)
    print(f"defcol bench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"passes: {len(untraced)} untraced, {len(traced)} traced; {len(ops)} operations "
          f"per pass; {len(untraced) * len(ops)} latency samples; "
          f"setup_s is the median of {SETUP_REPEATS} set-ups")
    scale = statistics.median(p.scale for p in results)
    print(f"reference speed: times are scaled by {scale:.4f} (median over passes) "
          f"to a host where the reference loop takes {REF_NOMINAL_S * 1e3:g} ms")
    print_metrics("end-to-end (untraced passes)", e2e)
    print_metrics("end-to-end, raw wall-clock times", {
        name: raw[name] for name in ("setup_s", "wall_s", "ops_per_s", "op_p50_ms", "op_p90_ms")
    })
    reported = {name: e2e[name] for name in END_TO_END}
    if tracer:
        reported = per_layer(tracer, traced, untraced, ops)
        print_metrics("per-layer (traced passes, median per pass)", reported)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    for failure in sorted({f for p in results for f in p.failures}):
        print(f"FAILED {failure}")
    for violation in violations[:20]:
        print(f"VIOLATION {violation}")
    print(json.dumps({
        "correct": not violations,
        "attempted": len(ops) * len(results),
        "failed": sum(p.failed for p in results),
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in reported.items()},
    }))
    return 1 if violations else 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process."""
    status = 0
    for workload in workloads.WORKLOADS:
        for trace in ("0", "1"):
            argv = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                    "--trace", trace]
            status = max(status, subprocess.run([sys.executable, __file__, *argv]).returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())

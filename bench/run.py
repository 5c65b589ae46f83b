"""Benchmark of sheetcrystal: three workloads, a correctness gate, a traced run.

Run from the repository root:

    python3 bench/run.py --workload crystal_ladder --seed 1 --seconds 35 --trace 0

The workload's operation list is repeated for ``--seconds`` seconds (at
least once; a pass that would overrun the budget is not started).  Then the
workload's audit, the inputs on which the package is known to fail, runs
once under the same gate; its failures are printed but are not counted in
``failed``, which covers the timed operations only.  With
``--trace 0`` the last line of standard output is a JSON object holding the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` passes alternate
between untraced and traced, and the JSON holds the per-layer metrics.  The
lines before it are a readable report: environment, generation parameters,
every metric with its unit, and the failed operations.

The load is this one process and thread; BLAS/OpenMP pools are pinned to one
thread and SHEETCRYSTAL_THREADS is removed before numpy is imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 11
MIN_OP_S = 0.5  # untraced passes call a shorter operation again, for more samples of its time
MAX_REPEATS = 25
MAX_FAILURE_LINES = 40
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SNIPPET = "import time; t = time.perf_counter(); import sheetcrystal; print(time.perf_counter() - t)"

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms"}
PER_LAYER_UNITS = {
    "oracle.find_bound_states.calls": "count",
    "oracle.find_bound_states.busy_s": "s",
    "oracle.expectations.busy_s": "s",
    "oracle.states_found": "count",
    "oracle.count_error": "count",
    "oracle.ground_energy_miss": "count",
    "oracle.ground_residual_fail": "count",
    "oracle.useful_ratio": "ratio",
    "oracle.map_calls": "count",
    "electrostatics.solve_sheets.calls": "count",
    "electrostatics.solve_sheets.busy_s": "s",
    "closedform.psi.calls": "count",
    "closedform.psi.busy_s": "s",
    "closedform.normalization_constant.failed": "count",
    "duality.ground_state.calls": "count",
    "duality.ground_state.busy_s": "s",
    "duality.ground_state.failed": "count",
    "duality.residuals.busy_s": "s",
    "wavefunction.values.points": "count",
    "wavefunction.values.busy_s": "s",
    "verification.run_verification.self_s": "s",
    "verification.checks_failed": "count",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.unexpected_exit": "count",
    "audit.failed": "count",
    "trace.overhead_s": "s",
    "trace.missing_names": "count",
}
# Per-layer failure counters that also count the audit's failures, once per run.
AUDITED = (
    "oracle.ground_energy_miss",
    "oracle.ground_residual_fail",
    "closedform.normalization_constant.failed",
    "duality.ground_state.failed",
    "verification.checks_failed",
    "cli.unexpected_exit",
)
# Report-only metrics of one workload, printed by name but not in the JSON line.
CLI_COMMAND_METRICS = {"verify_quick_s": "verify-quick", "verify_full_s": "verify-full", "sweep_s": "sweep"}


def percentile(values: list[float], q: int) -> float:
    """q-th percentile by linear interpolation between closest ranks."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure_setup(pacer) -> float:
    """Median import time of the package, numpy included, in fresh interpreters.

    Each import time is scaled to the reference pace read while its interpreter ran.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    times = []
    command = [sys.executable, "-c", SETUP_SNIPPET]
    for i in range(SETUP_REPEATS + 1):  # the first run may compile bytecode; it is not counted
        proc, _, factor = pacer.run(lambda: subprocess.run(
            command, env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True))
        if i:
            times.append(float(proc.stdout) * factor)
    return statistics.median(times)


def run_pass(ops, tally: Counter, tracer, failures: list, pacer, min_op_s: float = 0.0):
    """Run every operation, each again until ``min_op_s`` has passed or MAX_REPEATS calls are made.

    Only the first call of an operation adds to ``tally``, and an operation
    that fails is not called again in this pass.  Returns the raw pass time
    and, for each operation, the times of its calls at the reference pace.
    """
    latencies = {}
    start = perf_counter()
    for name, op in ops:
        if tracer is not None:
            tracer.begin_op(name)
        times = latencies[name] = []
        op_start = perf_counter()
        while not times or (perf_counter() - op_start < min_op_s and len(times) < MAX_REPEATS):
            counter = Counter() if times else tally

            def call(op=op, counter=counter) -> bool:
                try:
                    op(counter)
                except Exception as exc:  # noqa: BLE001 - any exception fails the operation
                    failures.append((name, f"{type(exc).__name__}: {exc}"))
                    return False
                return True

            ok, seconds, factor = pacer.run(call)
            times.append(seconds * factor)
            if tracer is not None:
                tracer.end_op(factor)
            if not ok:
                break
    return perf_counter() - start, latencies


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit_id(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "SHEETCRYSTAL_THREADS": os.environ.get("SHEETCRYSTAL_THREADS", "unset"),
    }


def commit_id() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def layer_counters(tracer, tally: Counter) -> Counter:
    """Span totals of ``tracer`` plus the gate's tallies, under per-layer metric names."""
    from tracing import layer_totals

    totals = Counter(layer_totals(tracer.spans))
    totals.update(tracer.counts)
    for key in ("count_error", "ground_energy_miss", "ground_residual_fail", "useful"):
        totals[f"oracle.{key}"] = tally[key]
    totals["cli.unexpected_exit"] = tally["unexpected_exit"]
    return totals


def per_layer(tracer, traced_tally: Counter, traced_passes: int, overhead: float, audit: Audit) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json: per traced pass, failure counters plus the audit's."""
    totals = layer_counters(tracer, traced_tally)
    audited = layer_counters(audit.tracer, audit.tally)
    out = {name: totals.get(name, 0) / traced_passes for name in PER_LAYER_UNITS}
    for name in AUDITED:
        out[name] += audited.get(name, 0)
    gated = sum(totals[f"oracle.{key}"] + audited[f"oracle.{key}"]
                for key in ("useful", "ground_energy_miss", "ground_residual_fail"))
    out["oracle.useful_ratio"] = (totals["oracle.useful"] + audited["oracle.useful"]) / gated if gated else 0.0
    out["audit.failed"] = len(audit.failures)
    out["trace.overhead_s"] = overhead
    out["trace.missing_names"] = len(set(tracer.missing) | set(audit.tracer.missing))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Before numpy is first imported, so its thread pools start with one thread.
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    os.environ.pop("SHEETCRYSTAL_THREADS", None)
    if not (SRC / "sheetcrystal" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import pace
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    pacer = pace.Pacer()
    setup_s = measure_setup(pacer)
    OUT_DIR.mkdir(exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        workload = workloads.WORKLOADS[args.workload](args.seed, Path(workdir))
        print(f"bench: workload={workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
        print("env: " + json.dumps(environment(), sort_keys=True))
        print("inputs: " + json.dumps(workload.inputs, sort_keys=True))
        runs = measure(workload, args.seconds, tracer, pacer)
        audit = run_audit(workload.audits, tracing.Tracer() if args.trace else None)
    result = summarize(workload, runs, setup_s, tracer, audit)
    print(json.dumps(result))
    return 0


@dataclass
class Runs:
    """What the passes of one run measured; index False is untraced, True traced."""

    walls: dict[bool, list[float]] = field(default_factory=lambda: {False: [], True: []})
    raw_walls: list[float] = field(default_factory=list)
    tallies: dict[bool, Counter] = field(default_factory=lambda: {False: Counter(), True: Counter()})
    latencies: dict[str, list[float]] = field(default_factory=dict)  # every untraced call
    failures: list[tuple[str, str]] = field(default_factory=list)
    calls: int = 0

    @property
    def passes(self) -> int:
        return len(self.walls[False]) + len(self.walls[True])


def measure(workload, seconds: float, tracer, pacer) -> Runs:
    """Repeat the operation list for ``seconds``; with a tracer, alternate traced passes."""
    runs = Runs(latencies={name: [] for name, _ in workload.ops})
    start = perf_counter()
    while True:
        traced = tracer is not None and len(runs.walls[False]) > len(runs.walls[True])
        if traced:
            tracer.install()
        try:
            raw_wall, op_times = run_pass(workload.ops, runs.tallies[traced], tracer if traced else None,
                                          runs.failures, pacer, 0.0 if traced else MIN_OP_S)
        finally:
            if traced:
                tracer.uninstall()
        runs.calls += sum(map(len, op_times.values()))
        runs.walls[traced].append(sum(statistics.median(times) for times in op_times.values()))
        if not traced:
            runs.raw_walls.append(raw_wall)
            for name, times in op_times.items():
                runs.latencies[name].extend(times)
        over_budget = perf_counter() - start + raw_wall > seconds
        if over_budget and (tracer is None or runs.walls[True]):
            return runs


@dataclass
class Audit:
    """Outcome of one untimed run of a workload's audit operations."""

    attempted: int
    tally: Counter
    failures: list[tuple[str, str]]
    tracer: object = None  # the tracing.Tracer of a traced run


def run_audit(audits, tracer) -> Audit:
    """Run each audit operation once, untimed, under the same gate as the timed ones."""
    tally, failures = Counter(), []
    if tracer is not None:
        tracer.install()
    try:
        for name, op in audits:
            if tracer is not None:
                tracer.begin_op(name)
            try:
                op(tally)
            except Exception as exc:  # noqa: BLE001 - any exception fails the operation
                failures.append((name, f"{type(exc).__name__}: {exc}"))
    finally:
        if tracer is not None:
            tracer.uninstall()
    return Audit(len(audits), tally, failures, tracer)


def summarize(workload, runs: Runs, setup_s: float, tracer, audit: Audit) -> dict:
    """Print the readable report and return the result object of the run."""
    attempted = runs.calls
    failed = len(runs.failures)
    op_medians = sorted(statistics.median(times) for times in runs.latencies.values())
    wall_s = sum(op_medians)
    end_to_end = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "op_p50_ms": 1e3 * percentile(op_medians, 50),
        "op_p90_ms": 1e3 * percentile(op_medians, 90),
    }
    tally = runs.tallies[False] + runs.tallies[True]
    print(f"passes: {len(runs.walls[False])} untraced, {len(runs.walls[True])} traced; "
          f"{len(workload.ops)} operations each")
    print("pass times at reference pace: " + " ".join(f"{t:.4g}" for t in runs.walls[False]) + " s")
    print("pass times as measured:       " + " ".join(f"{t:.4g}" for t in runs.raw_walls) + " s")
    print("operation medians at reference pace: " + " ".join(
        f"{name}={1e3 * statistics.median(times):.4g}/{len(times)}" for name, times in runs.latencies.items())
        + " ms/calls")
    for name, value in end_to_end.items():
        print(f"metric {name} = {value:.6g} {END_TO_END_UNITS[name]}")
    print(f"metric error_rate = {failed / attempted:.6g} ratio (ops_attempted {attempted}, failed {failed})")
    if workload.name == "crystal_ladder":
        print(f"metric count_error = {tally['count_error'] / runs.passes:g} count")
    if workload.name == "cli_commands":
        for metric, op_name in CLI_COMMAND_METRICS.items():
            print(f"metric {metric} = {statistics.median(runs.latencies[op_name]):.6g} s")
    differential = ("useful", "ground_energy_miss", "ground_residual_fail")
    if workload.name == "crystal_ladder":
        print("gate per pass: " + ", ".join(f"{key}={tally[key] / runs.passes:g}" for key in differential))
    by_op = Counter(runs.failures)
    for (name, reason), count in list(by_op.items())[:MAX_FAILURE_LINES]:
        print(f"failed: {name}: {reason} ({count} of {runs.passes} passes)")
    if len(by_op) > MAX_FAILURE_LINES:
        print(f"failed: ... {len(by_op) - MAX_FAILURE_LINES} more operations")
    if audit.attempted:
        print(f"metric audit_error_rate = {len(audit.failures) / audit.attempted:.6g} ratio "
              f"(audit ops {audit.attempted}, failed {len(audit.failures)}; not counted in failed)")
        if any(audit.tally[key] for key in differential):
            print("audit gate: " + ", ".join(f"{key}={audit.tally[key]}" for key in differential))
        for name, reason in audit.failures:
            print(f"audit failed: {name}: {reason}")

    if tracer is None:
        metrics, units_of = end_to_end, END_TO_END_UNITS
    else:
        overhead = statistics.median(runs.walls[True]) - statistics.median(runs.walls[False])
        metrics = per_layer(tracer, runs.tallies[True], len(runs.walls[True]), overhead, audit)
        units_of = PER_LAYER_UNITS
        for name in sorted(set(tracer.missing) | set(audit.tracer.missing)):
            print(f"trace: missing {name}")
        trace_file = OUT_DIR / f"spans-{workload.name}.csv"
        tracer.write(trace_file)
        print(f"trace: {len(tracer.spans)} spans written to {trace_file}")
        for name, value in metrics.items():
            print(f"layer {name} = {value:.6g} {PER_LAYER_UNITS[name]}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units_of[name]} for name, value in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())

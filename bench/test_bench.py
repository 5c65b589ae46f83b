"""Tests of the benchmark itself: generators, gate, tracer and metric names.

Run with ``python -m pytest bench`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import pace  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from sheetcrystal import electrostatics, oracle  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_stacks_are_deterministic_per_seed():
    first = workloads.median_stacks(7)
    assert first == workloads.median_stacks(7)
    assert first != workloads.median_stacks(8)
    assert [len(s) for s in first] == list(range(workloads.STACK_K[0], workloads.STACK_K[1] + 1))
    for sheets in first:
        positions = [z for z, _ in sheets]
        gaps = [b - a for a, b in zip(positions, positions[1:])]
        assert workloads.STACK_K[0] <= len(sheets) <= workloads.STACK_K[1]
        assert all(0.2 <= g <= 2.0 for g in gaps)
        assert all(-3.0 <= s <= 3.0 for _, s in sheets)
        assert sum(s for _, s in sheets) > 0.0


def test_cli_configs_are_deterministic_per_seed(tmp_path):
    texts = []
    for run_dir, seed in ((tmp_path / "a", 3), (tmp_path / "b", 3), (tmp_path / "c", 4)):
        run_dir.mkdir()
        workloads.cli_commands(seed, run_dir)
        texts.append((run_dir / "sheets.cfg").read_text())
    assert texts[0] == texts[1] != texts[2]


def test_wkb_estimate_counts_states_of_a_wide_well():
    # Two sheets of density 2 at distance 10 bound a well of depth 2 (|E_inf| = 2,
    # field 0 inside): the estimate is 10 * 2 / pi.
    assert workloads.wkb_state_estimate([(0.0, 2.0), (10.0, 2.0)]) == pytest.approx(20.0 / 3.141592653589793)


def _small_problem():
    array = electrostatics.SheetArray([(0.0, 2.0), (1.3, -0.5), (2.0, 1.5)])
    return workloads._map(array)


def test_gate_passes_a_correct_stack():
    _, ground, problem = _small_problem()
    tally = Counter()
    workloads._differential(ground, problem, tally)
    assert tally == Counter(useful=1)


def test_gate_flags_wrong_energy():
    _, ground, problem = _small_problem()
    wrong = dataclasses.replace(ground, energy=ground.energy * (1.0 + 1e-7))
    tally = Counter()
    with pytest.raises(workloads.GateFailure, match="ground energy"):
        workloads._differential(wrong, problem, tally)
    assert tally["ground_energy_miss"] == 1


def test_injected_exception_counts_as_failed_operation(monkeypatch):
    def broken(problem, *args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(oracle, "find_bound_states", broken)
    array = electrostatics.SheetArray([(0.0, 2.0), (1.0, 1.0)])
    ops = [("stack", workloads._stack_op(array)), ("fine", lambda tally: None)]
    failures = []
    _, latencies = run.run_pass(ops, Counter(), None, failures, pace.Pacer(), 0.01)
    assert failures == [("stack", "RuntimeError: injected")]
    assert len(latencies["stack"]) == 1  # not called again after it failed
    assert len(latencies["fine"]) > 1


def test_tracer_records_nested_spans_and_reports_missing_names(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (("x.y", "sheetcrystal.oracle", "no_such", None),))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_op("op-1")
        _, ground, problem = _small_problem()
        workloads._differential(ground, problem, Counter())
    finally:
        tracer.uninstall()
    assert tracer.missing == ["sheetcrystal.oracle.no_such"]
    assert not hasattr(oracle.find_bound_states, "__wrapped__")
    names = Counter(span[tracing.NAME] for span in tracer.spans)
    assert names["oracle.find_bound_states"] == 1
    assert names["duality.residuals"] == 2
    tracer.end_op(0.5)
    assert tracer.op_names == ["op-1"]
    assert all(span[tracing.OP] == 0 and span[tracing.SCALE] == 0.5 for span in tracer.spans)
    totals = tracing.layer_totals(tracer.spans)
    assert totals["oracle.map_calls"] == 0
    assert tracer.counts["oracle.states_found"] >= 1


def test_map_calls_counts_map_spans_nested_in_oracle_spans():
    spans = [
        ["oracle.find_bound_states", 0.0, 4.0, -1, 0, False, 1.0],
        ["electrostatics.solve_sheets", 1.0, 2.0, 0, 0, False, 1.0],
        ["duality.ground_state", 1.5, 1.8, 1, 0, False, 1.0],
        ["duality.ground_state", 5.0, 6.0, -1, 1, True, 0.5],
    ]
    totals = tracing.layer_totals(spans)
    assert totals["oracle.map_calls"] == 1
    assert totals["oracle.find_bound_states.self_s"] == pytest.approx(3.0)
    assert totals["duality.ground_state.busy_s"] == pytest.approx(0.8)
    assert totals["duality.ground_state.failed"] == 1


def _broken(tally):
    raise workloads.GateFailure("injected")


def _toy_workload():
    return workloads.Workload("toy", [("a", lambda tally: None), ("b", lambda tally: None)], {},
                              [("known", _broken)])


def test_audit_failures_are_printed_but_not_counted(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    workload = _toy_workload()
    runs = run.measure(workload, 0.0, None, pace.Pacer())
    audit = run.run_audit(workload.audits, None)
    result = run.summarize(workload, runs, 0.1, None, audit)
    assert result["correct"] and result["failed"] == 0
    out = capsys.readouterr().out
    assert "audit failed: known: GateFailure: injected" in out
    assert "metric audit_error_rate = 1 ratio" in out


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metric_names_match_benchmark_json(trace, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    workload = _toy_workload()
    tracer = tracing.Tracer() if trace else None
    runs = run.measure(workload, 0.0, tracer, pace.Pacer())
    audit = run.run_audit(workload.audits, tracing.Tracer() if trace else None)
    result = run.summarize(workload, runs, 0.1, tracer, audit)
    capsys.readouterr()
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    if trace:
        assert result["metrics"]["audit.failed"]["value"] == 1


def test_benchmark_json_follows_its_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_exits_nonzero_without_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "map_large", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

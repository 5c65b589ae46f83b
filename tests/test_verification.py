import math
from dataclasses import replace

import numpy as np
import pytest

from sheetcrystal import closedform, oracle
from sheetcrystal.cli import main
from sheetcrystal.verification import CheckRow, VerificationReport, crystal_figure_samples, run_verification


def test_quick_report_passes_and_lists_audits():
    report = run_verification("quick")
    assert report.all_passed
    names = [row.name for row in report.checks]
    assert "expectations_match_solver" in names
    assert any(row.name == "bound_state_count_per_N" for row in report.audits)
    table = report.format_table()
    assert "all checks passed" in table
    assert "[FAIL]" not in table


def test_depth_validation():
    with pytest.raises(ValueError):
        run_verification("exhaustive")


def test_injected_sign_error_is_caught(monkeypatch):
    # flip the sign of the closed-form mean potential energy
    real = closedform.expectation_potential
    monkeypatch.setattr(closedform, "expectation_potential", lambda p: -real(p))
    report = run_verification("quick")
    assert not report.all_passed
    failing = {row.name for row in report.checks if not row.passed}
    assert "expectations_match_solver" in failing


def test_injected_sign_error_exits_2(monkeypatch, capsys):
    real = closedform.expectation_potential
    monkeypatch.setattr(closedform, "expectation_potential", lambda p: -real(p))
    assert main(["verify", "--depth", "quick"]) == 2
    out = capsys.readouterr().out
    assert "[FAIL] expectations_match_solver" in out
    assert "CHECKS FAILED" in out


def test_nan_expectation_fails_its_rows(monkeypatch):
    # NaN is not the first argument of either row's accumulator
    monkeypatch.setattr(closedform, "expectation_potential", lambda p: math.nan)
    rows = {row.name: row for row in run_verification("quick").checks}
    for name in ("expectations_match_solver", "kinetic_plus_potential_is_energy"):
        assert math.isnan(rows[name].residual), name
        assert not rows[name].passed, name


def test_quick_battery_solves_each_configuration_once(monkeypatch):
    # 3 single deltas, 5 crystals, the two-sheet well and the uneven stack,
    # then one determinism rerun per crystal
    real = oracle.find_bound_states
    calls = []

    def counted(problem, **options):
        calls.append(problem)
        return real(problem, **options)

    monkeypatch.setattr(oracle, "find_bound_states", counted)
    assert run_verification("quick").all_passed
    assert len(calls) <= 15


def test_determinism_check_catches_a_one_ulp_rerun(monkeypatch):
    # the stored solves are shared by every section, so the rerun must still
    # be compared with them, bit for bit
    real = oracle.find_bound_states
    seen = set()

    def shifted_on_rerun(problem, **options):
        found = real(problem, **options)
        key = (problem.positions, problem.strengths)
        if key not in seen:
            seen.add(key)
            return found
        states = tuple(replace(s, energy=math.nextafter(s.energy, math.inf)) for s in found.states)
        return replace(found, states=states)

    monkeypatch.setattr(oracle, "find_bound_states", shifted_on_rerun)
    report = run_verification("quick")
    failing = {row.name for row in report.checks if not row.passed}
    assert failing == {"bound_state_count_deterministic"}


def test_report_formatting_of_failures():
    report = VerificationReport(depth="quick")
    report.checks.append(CheckRow("demo", residual=1.0, tolerance=0.5, passed=False))
    assert not report.all_passed
    assert "[FAIL] demo" in report.format_table()


def test_figure_samples_validation():
    with pytest.raises(ValueError):
        crystal_figure_samples(0, 1.0)
    with pytest.raises(ValueError):
        crystal_figure_samples(1, 1.0, points=1)
    zs, vals = crystal_figure_samples(2, 1.0, points=501)
    assert len(zs) == len(vals) == 501
    assert np.all(vals > 0)


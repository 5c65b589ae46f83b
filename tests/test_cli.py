import math

import numpy as np
import pytest

from sheetcrystal import CrystalParams, atomic_units, closedform
from sheetcrystal import cli
from sheetcrystal.cli import main

A_N1 = 1.9906463197512672
PSI_N1_CENTER = 0.26940468350745844
PSI_N1_PEAK = 0.7323178556800845


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _summary(capsys):
    lines = [line for line in capsys.readouterr().out.splitlines() if ": " in line]
    return dict(line.split(": ", 1) for line in lines)


def _read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, data


# ---------------------------------------------------------------------------
# CSV cells
# ---------------------------------------------------------------------------


def test_csv_cells_are_formatted_like_the_summary_lines(tmp_path):
    # the CSV payload is one %-format of "%.17g" cells; every cell must read
    # as _fmt prints it, on the values a row can hold
    rng = np.random.default_rng(5)
    specials = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.2250738585072014e-308, 1e308, 0.1, 3, -7]
    values = [*specials, np.float64(-1.5), np.int64(12), np.int32(-3), *rng.normal(scale=1e3, size=40)]
    rows = [values[i:i + 3] for i in range(0, len(values) - len(values) % 3, 3)]
    out = tmp_path / "cells.csv"
    cli._emit_csv("a,b,c", rows, out, None)
    expected = ["a,b,c", *(",".join(cli._fmt(v) for v in row) for row in rows)]
    assert out.read_text() == "\n".join(expected) + "\n"


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_canonical_summary_and_csv(tmp_path, capsys):
    cfg = _write(tmp_path, "c.cfg", "mode = canonical\nN = 1\nalpha = 1\na = 1\npoints = 201\n")
    out = tmp_path / "c.csv"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    summary = _summary(capsys)
    assert float(summary["energy"]) == -0.5
    assert float(summary["norm_constant"]) == pytest.approx(A_N1, rel=1e-15)
    assert float(summary["expectation_potential"]) == pytest.approx(-1.0, abs=1e-12)
    assert float(summary["expectation_kinetic"]) == pytest.approx(0.5, abs=1e-12)
    assert int(summary["bound_state_count"]) == 2
    header, data = _read_csv(out)
    assert header == ["z", "V", "psi", "U_region"]
    assert data.shape == (201, 4)
    assert np.all(data[:, 2] > 0)
    assert np.all(data[:, 3] == 0.0)


def test_solve_csv_is_deterministic(tmp_path, capsys):
    cfg = _write(tmp_path, "c.cfg", "mode = canonical\nN = 2\nalpha = 1\na = 1\npoints = 101\n")
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["solve", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["solve", "--config", cfg, "--out", str(out_b)]) == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()


def test_solve_sheets_mode_window_flag(tmp_path, capsys):
    cfg = _write(tmp_path, "s.cfg", "mode = sheets\nsheets = -1:2, 1:2\npoints = 11\n")
    out = tmp_path / "s.csv"
    assert main(["solve", "--config", cfg, "--out", str(out), "--window=-3,3"]) == 0
    summary = _summary(capsys)
    assert float(summary["energy"]) == -2.0
    header, data = _read_csv(out)
    assert data[0, 0] == -3.0 and data[-1, 0] == 3.0
    inside = np.abs(data[:, 0]) < 1.0
    assert np.all(data[inside, 3] == -2.0)  # induced interior well in U_region
    assert np.all(data[~inside, 3] == 0.0)


def test_solve_quantum_mode(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "q.cfg",
        "mode = quantum\ndeltas = -1:-1, 1:-1\noffsets = 0, -2, 0\npoints = 51\n",
    )
    out = tmp_path / "q.csv"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    summary = _summary(capsys)
    assert float(summary["energy"]) == pytest.approx(-2.0, abs=1e-8)
    assert int(summary["bound_state_count"]) == 2
    # tail-anchored normalization matches the sheet-map constant
    assert float(summary["norm_constant"]) == pytest.approx(
        math.exp(2.0) / math.sqrt(2.5), rel=1e-8
    )


def test_solve_stdout_csv_when_no_out(tmp_path, capsys):
    cfg = _write(tmp_path, "c.cfg", "mode = canonical\nN = 0\nalpha = 1\na = 1\npoints = 5\n")
    assert main(["solve", "--config", cfg, "--window=-1,1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("z,V,psi,U_region\n")
    assert "energy: -0.5" in out


def test_solve_rejects_non_normalizable(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.cfg", "mode = sheets\nsheets = 0:-2\n")
    assert main(["solve", "--config", cfg]) == 1
    assert "decay" in capsys.readouterr().err


def test_solve_rejects_unknown_key(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.cfg", "mode = canonical\nN = 1\nalpha = 1\na = 1\nnope = 1\n")
    assert main(["solve", "--config", cfg]) == 1
    assert "nope" in capsys.readouterr().err


def test_solve_rejects_duplicate_key(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.cfg", "mode = canonical\nN = 1\nN = 2\nalpha = 1\na = 1\n")
    assert main(["solve", "--config", cfg]) == 1
    assert "duplicate" in capsys.readouterr().err


def test_solve_rejects_bad_window(tmp_path, capsys):
    cfg = _write(tmp_path, "c.cfg", "mode = canonical\nN = 1\nalpha = 1\na = 1\nwindow = 3,-3\n")
    assert main(["solve", "--config", cfg]) == 1
    assert "window" in capsys.readouterr().err


def test_solve_rejects_missing_mode_field(tmp_path, capsys):
    cfg = _write(tmp_path, "c.cfg", "mode = canonical\nN = 1\nalpha = 1\n")
    assert main(["solve", "--config", cfg]) == 1
    assert "'a'" in capsys.readouterr().err


def test_solve_with_units_file(tmp_path, capsys):
    units = _write(
        tmp_path, "u.cfg", "hbar = 2\nmass = 0.5\neps0 = 4\nV0 = 4\na0 = 0.5\n"
    )
    cfg = _write(tmp_path, "c.cfg", "mode = sheets\nsheets = 0:2\npoints = 11\n")
    out = tmp_path / "u.csv"
    assert main(["solve", "--config", cfg, "--units", units, "--out", str(out)]) == 0
    summary = _summary(capsys)
    # E = -(eps0/2) * (sigma/(2 eps0))^2 * a0^3 = -(2/8) * (4/4) * 0.125... computed:
    expected = -0.5 * 4.0 * (2.0 / (2 * 4.0)) ** 2 * 0.5**3
    assert float(summary["energy"]) == pytest.approx(expected, rel=1e-12)


def test_units_file_validation(tmp_path, capsys):
    bad = _write(tmp_path, "u.cfg", "hbar = 1\nmass = 1\neps0 = 1\nV0 = 2\na0 = 1\n")
    cfg = _write(tmp_path, "c.cfg", "mode = canonical\nN = 0\nalpha = 1\na = 1\n")
    assert main(["solve", "--config", cfg, "--units", bad]) == 1
    assert "inconsistent" in capsys.readouterr().err
    missing = _write(tmp_path, "u2.cfg", "hbar = 1\nmass = 1\neps0 = 1\nV0 = 1\n")
    assert main(["solve", "--config", cfg, "--units", missing]) == 1
    assert "a0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,text",
    [
        # the closed-form normalization constant in the A column exceeds the float range
        ("sweep", "N = 400\nalpha = 1\na = 2\n"),
    ],
)
def test_overflow_is_one_error_line(command, text, tmp_path, capsys):
    cfg = _write(tmp_path, "big.cfg", text)
    assert main([command, "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: numeric overflow")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "n,alpha,a,count",
    [(400, 1.0, 2.0, 401), (1000, 1.0, 1.0, 1001), (1000, 0.7, 1.3, 729)],
    ids=["N400-a2", "N1000-a1", "N1000-alpha0.7-a1.3"],
)
def test_long_crystal_solve_prints_log_norm_constant(n, alpha, a, count, tmp_path, capsys):
    # exp(N*m*alpha*a/hbar^2) exceeds the float range: the summary prints the
    # log of the normalization constant on its line instead
    cfg = _write(tmp_path, "big.cfg", f"mode = canonical\nN = {n}\nalpha = {alpha}\na = {a}\n")
    out = tmp_path / "big.csv"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    summary = _summary(capsys)
    assert list(summary) == [
        "energy", "log_norm_constant", "expectation_potential", "expectation_kinetic", "bound_state_count"
    ]
    p = CrystalParams(n, alpha, a, atomic_units())
    assert float(summary["energy"]) == pytest.approx(closedform.ground_energy(p), rel=1e-14)
    assert float(summary["log_norm_constant"]) == pytest.approx(p._log_norm_constant, rel=1e-13)
    assert float(summary["expectation_potential"]) == pytest.approx(closedform.expectation_potential(p), abs=1e-10)
    assert float(summary["expectation_kinetic"]) == pytest.approx(closedform.expectation_kinetic(p), abs=1e-10)
    assert int(summary["bound_state_count"]) == count
    _, data = _read_csv(out)
    assert np.all(np.isfinite(data)) and np.all(data[:, 2] >= 0.0)


@pytest.mark.parametrize(
    "command,text",
    [
        ("solve", "mode = canonical\nN = 3\nalpha = 1e-300\na = 1\n"),  # ground energy underflows to 0
        ("sweep", "N = 3\nalpha = 1e-300\na = 1\n"),  # the solver binds no state
        ("solve", "mode = canonical\nN = 3\nalpha = 1e200\na = 1\n"),
        ("solve", "mode = sheets\nsheets = 0:1e300\n"),
        # the map emits a state at energy -0 where the oracle finds none
        ("solve --window=-5,5", "mode = canonical\nN = 3\nalpha = 1e-300\na = 1\n"),
        # node counts past int64 (~1e200 and ~1e150 states) must not wrap to "no states"
        ("solve", "mode = quantum\ndeltas = -1e200:-1, 1e200:-1\noffsets = 0, -1, 0\n"),
        ("solve", "mode = quantum\ndeltas = -1:0, 1:0\noffsets = 0, -1e300, 0\n"),
        # the default search cap 8e200 is finite, its energy is not
        ("solve", "mode = quantum\ndeltas = 0:-1e200\noffsets = 0, 0\n"),
        # one input, one message: both commands name alpha, not the sheet density
        ("solve", "mode = canonical\nN = 3\nalpha = -1\na = 1\n"),
        ("sweep", "N = 3\nalpha = -1\na = 1\n"),
        ("solve", "mode = canonical\nN = 3\nalpha = 1e308\na = 1\n"),  # its sheet density overflows
        ("figure", "alpha_a = 5e307\n"),  # the window (N+4)*a overflows
        ("figure", "alpha_a = 3e307\n"),  # (N+4)*a is finite, the window's width is not
        # ten deltas 0.001 apart bind one state at kappa ~ 10, above the search cap 8
        (
            "solve",
            "mode = quantum\n"
            "deltas = 0.0:-1, 0.001:-1, 0.002:-1, 0.003:-1, 0.004:-1, 0.005:-1, 0.006:-1, 0.007:-1, 0.008:-1, 0.009:-1\n"
            "offsets = 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0\n",
        ),
    ],
)
def test_extreme_config_is_one_error_line(command, text, tmp_path, capsys):
    cfg = _write(tmp_path, "extreme.cfg", text)
    assert main([*command.split(), "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.out + captured.err
    if "alpha = -1\n" in text:
        assert captured.err == "error: alpha must be finite and > 0, got -1.0\n"


def test_unknown_subcommand_is_input_error(capsys):
    assert main(["frobnicate"]) == 1


# ---------------------------------------------------------------------------
# figure
# ---------------------------------------------------------------------------


def test_figure_default_panels(tmp_path, capsys):
    assert main(["figure", "--out", str(tmp_path / "figs")]) == 0
    capsys.readouterr()
    for n in (1, 2, 3, 4):
        header, data = _read_csv(tmp_path / "figs" / f"crystal_psi_N{n}.csv")
        assert header == ["z", "psi"]
        assert data.shape == (2001, 2)
        zs, vals = data[:, 0], data[:, 1]
        assert zs[0] == -(n + 4) and zs[-1] == n + 4
        assert np.all(vals > 0)
        np.testing.assert_allclose(vals, vals[::-1], atol=1e-12)  # even in z
        tail = zs > n + 1
        rates = np.diff(np.log(vals[tail])) / np.diff(zs[tail])
        np.testing.assert_allclose(rates, -1.0, atol=1e-9)


def test_figure_n1_pinned_values(tmp_path, capsys):
    assert main(["figure", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    _, data = _read_csv(tmp_path / "crystal_psi_N1.csv")
    zs, vals = data[:, 0], data[:, 1]
    center = vals[np.argmin(np.abs(zs))]
    assert center == pytest.approx(PSI_N1_CENTER, abs=1e-6)
    peak_z = zs[np.argmax(vals)]
    assert abs(abs(peak_z) - 1.0) < 0.011
    at_one = vals[np.argmin(np.abs(zs - 1.0))]
    assert at_one == pytest.approx(PSI_N1_PEAK, abs=1e-6)


def test_figure_config_and_validation(tmp_path, capsys):
    cfg = _write(tmp_path, "f.cfg", "n_values = 2\nalpha_a = 1.0\npoints = 101\n")
    assert main(["figure", "--config", cfg, "--out", str(tmp_path / "d")]) == 0
    capsys.readouterr()
    assert (tmp_path / "d" / "crystal_psi_N2.csv").exists()
    bad = _write(tmp_path, "g.cfg", "n_values = 0\n")
    assert main(["figure", "--config", bad, "--out", str(tmp_path)]) == 1
    assert "n_values" in capsys.readouterr().err
    # only the N = 40 window overflows, and no panel is written
    wide = _write(tmp_path, "h.cfg", "n_values = 1, 40\nalpha_a = 5e306\n")
    assert main(["figure", "--config", wide, "--out", str(tmp_path / "e")]) == 1
    assert "overflows" in capsys.readouterr().err
    assert not (tmp_path / "e").exists()


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_quick_passes(capsys):
    assert main(["verify", "--depth", "quick"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert "[FAIL]" not in out
    assert "bound_state_count_per_N" in out  # audit table present


def test_verify_full_passes(capsys):
    assert main(["verify", "--depth", "full"]) == 0
    assert capsys.readouterr().out.rstrip().endswith("all checks passed")


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_grid(tmp_path, capsys):
    cfg = _write(tmp_path, "s.cfg", "N = 0..4\nalpha = 1\na = 1\n")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    header, data = _read_csv(out)
    assert header == ["N", "alpha", "a", "E", "A", "U_exp", "T_exp", "count", "closed_vs_oracle_resid"]
    assert data.shape == (5, 9)
    assert list(data[:, 0]) == [0, 1, 2, 3, 4]  # lexicographic grid order
    assert np.all(data[:, 3] == -0.5)
    assert np.all(data[:, 5] == -1.0)
    assert np.all(data[:, 7] == data[:, 0] + 1)  # measured count: N + 1
    assert np.all(data[:, 8] < 1e-8)


def test_sweep_residual_reads_nan_when_any_part_is_nan(tmp_path, capsys, monkeypatch):
    from sheetcrystal import oracle

    monkeypatch.setattr(oracle, "expectation_potential_numeric", lambda psi, problem: math.nan)
    cfg = _write(tmp_path, "s.cfg", "N = 1\nalpha = 1\na = 1\n")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_text().splitlines()[1].split(",")[-1] == "nan"


def test_sweep_is_deterministic(tmp_path, capsys):
    cfg = _write(tmp_path, "s.cfg", "N = 0,2\nalpha = 0.5,1\na = 1\n")
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(out_b)]) == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()


def test_sweep_rejects_empty_range(tmp_path, capsys):
    cfg = _write(tmp_path, "s.cfg", "N = 4..1\nalpha = 1\na = 1\n")
    assert main(["sweep", "--config", cfg]) == 1
    assert "N" in capsys.readouterr().err


def test_sweep_rejects_unknown_key(tmp_path, capsys):
    cfg = _write(tmp_path, "s.cfg", "N = 1\nalpha = 1\na = 1\nwat = 2\n")
    assert main(["sweep", "--config", cfg]) == 1
    assert "wat" in capsys.readouterr().err

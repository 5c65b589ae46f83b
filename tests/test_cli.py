import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from sheetcrystal import CrystalParams, atomic_units, closedform
from sheetcrystal import cli, oracle
from sheetcrystal.cli import main
from sheetcrystal.duality import to_quantum
from sheetcrystal.electrostatics import solve_sheets
from sheetcrystal.wavefunction import PiecewiseExpWavefunction

from conftest import random_stack

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


def _exact_ties():
    # doubles c * 2**-n (c odd) whose decimal expansion c * 5**n * 10**-n has 18 digits,
    # the last a 5: halfway between two 17-digit neighbours, to be rounded half-even;
    # the 5 lowest and 5 highest c of each n, every n (1..25, e = 16..-8) that has one
    odd = [range(-(-10**17 // 5**n) | 1, min(-(-10**18 // 5**n), 2**53), 2) for n in range(1, 26)]
    return [c * 2.0**-n for n, cs in enumerate(odd, start=1) for c in sorted({*cs[:5], *cs[-5:]})]


# doubles within 1e-15 of a 17-digit rounding tie, at scales 10**(16 - e) that are not
# doubles, so the residual (good to ~1e-15) may round them the wrong way: found by
# searching m in [2**52, 2**53) for m * 2**q * 10**(16 - e) mod 1 near 1/2
_NEAR_TIES = [float.fromhex(h) for h in (
    "0x1.7d3ce71c22b6bp-830", "0x1.0a75f770bc557p-829", "0x1.253f459dd26e3p-497", "0x1.427b56243374dp-497",
    "0x1.5ccd13b5b008dp-264", "0x1.2db8d6c3e00b2p-132", "0x1.60024fe485625p-131", "0x1.1fb41fc9b4745p-65",
    "0x1.ed11480eb4de0p+265", "0x1.5c328473e0d23p+498",
)]


def test_near_ties_are_within_1e_15_of_a_tie():
    for x in _NEAR_TIES:
        scaled = Fraction(x) * Fraction(10) ** (16 - math.floor(math.log10(x)))
        assert 10**16 <= scaled < 10**17
        assert abs(scaled - math.floor(scaled) - Fraction(1, 2)) < Fraction(1, 10**15), x.hex()


@pytest.mark.parametrize("width", [1, 2, 4, 9])
def test_csv_cells_are_percent_17g_byte_for_byte(width):
    # the vector path and its fallback against per-cell "%.17g" % x on values that
    # reach each rule: random bit patterns (NaN, +-inf, subnormals and +-0 among
    # them), normals over 1e-300..1e300, integers, every power of ten with both
    # float neighbours (log10 rounds e up or down next to them), exact ties at the
    # 17th digit, (2j+1) * 2**-17 + 1 among them, near ties, and a column of zeros
    rng = np.random.default_rng(width)
    bits = rng.integers(0, 2**64, size=8000, dtype=np.uint64).view(np.float64)
    bits[:9] = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -1e-310, np.finfo(float).max]
    normals = rng.standard_normal(8000) * 10.0 ** rng.uniform(-300, 300, 8000)
    integers = rng.integers(-10**17, 10**17, 2000).astype(float)
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    ties = np.array([*_exact_ties(), *((2 * np.arange(500) + 1) * 2.0**-17 + 1), *_NEAR_TIES])
    values = np.concatenate([bits, normals, integers, powers, np.nextafter(powers, 0.0),
                             np.nextafter(powers, np.inf), ties, -ties])
    table = np.resize(values, (-(-values.size // width), width))
    table[::3, -1] = 0.0  # a zero column, as in solve's U_region, on every third row
    table[1::3, -1] = -0.0
    expected = "".join(",".join("%.17g" % v for v in row) + "\n" for row in table.tolist())
    assert cli._csv_cells(table) == expected


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_canonical_summary_and_csv(tmp_path, capsys):
    cfg = _write(tmp_path, "c.cfg", "mode = canonical\nN = 1\nalpha = 1\na = 1\npoints = 201\n")
    out = tmp_path / "c.csv"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    summary = _summary(capsys)
    assert float(summary["energy"]) == -0.5
    # |d log A| = |dA|/A to first order: abs 1e-15 on log A is rel 1e-15 on A
    assert float(summary["log_norm_constant"]) == pytest.approx(math.log(A_N1), abs=1e-15)
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
    # tail-anchored normalization matches the sheet-map constant A = e^2/sqrt(2.5)
    assert float(summary["log_norm_constant"]) == pytest.approx(2.0 - 0.5 * math.log(2.5), abs=1e-8)


@pytest.mark.parametrize(
    "text", ["mode = quantum\ndeltas = -1:-1, 1:-1\noffsets = 0, -2, 0\n", "mode = sheets\nN = 1\n"], ids=["quantum", "refused"]
)
def test_solve_reads_its_config_once(text, tmp_path, capsys, monkeypatch):
    # the mode and the other keys come from one read, whether the config is accepted or refused
    reads = []
    real = cli._read_key_values

    def counted(path):
        reads.append(path)
        return real(path)

    monkeypatch.setattr(cli, "_read_key_values", counted)
    cfg = _write(tmp_path, "s.cfg", text)
    main(["solve", "--config", cfg, "--out", str(tmp_path / "s.csv")])
    assert reads == [Path(cfg)]


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


_CANONICAL = "mode = canonical\nN = 1\nalpha = 1\na = 1\n"
_SWEEP = "N = 1\nalpha = 1\na = 1\n"
_UNITS = "hbar = 1\nmass = 1\neps0 = 1\nV0 = 1\na0 = 1\n"


# one malformed input per rule and per reader: (command and flags, config, units file or None, message);
# {path} in the command or the message stands for the config file, which a config of None leaves unwritten
_MESSAGES = {
    # the key = value reader: an unreadable file and malformed lines, counted past comments and blank lines
    "read-missing": ("solve", None, None, "cannot read {path}: [Errno 2] No such file or directory: '{path}'"),
    "line-no-equals": (
        "solve", "# a comment line, then a blank one\n\nmode canonical\n", None,
        "{path}:3: expected 'key = value', got 'mode canonical'",
    ),
    "line-empty-key": ("solve", _CANONICAL + "  = 1  # no key\n", None, "{path}:5: empty key"),
    # solve: keys, mode and every value parser
    "solve-unknown": ("solve", _CANONICAL + "nope = 1\n", None, "unknown key 'nope' for mode 'canonical'"),
    "solve-missing": ("solve", "mode = canonical\nN = 1\nalpha = 1\n", None, "field 'a': required for mode 'canonical'"),
    "solve-bad-mode": (
        "solve", "mode = crystal\nN = 1\n", None, "field 'mode': must be one of canonical, sheets, quantum; got 'crystal'"
    ),
    "solve-no-mode": ("solve", _SWEEP, None, "field 'mode': must be one of canonical, sheets, quantum; got None"),
    "solve-number": ("solve", "mode = canonical\nN = 1\nalpha = x\na = 1\n", None, "field 'alpha': not a number: 'x'"),
    "solve-integer": ("solve", "mode = canonical\nN = 1.5\nalpha = 1\na = 1\n", None, "field 'N': not an integer: '1.5'"),
    "solve-pair": ("solve", "mode = sheets\nsheets = 0-1\n", None, "field 'sheets': expected 'position:value', got '0-1'"),
    "solve-list": ("solve", "mode = quantum\ndeltas = 0:-1\noffsets = ,\n", None, "field 'offsets': needs at least one value"),
    "solve-pairs": ("solve", "mode = sheets\nsheets = ,\n", None, "field 'sheets': needs at least one 'position:value' pair"),
    "solve-window-order": (
        "solve", _CANONICAL + "window = 3,-3\n", None, "field 'window': bounds must be ordered, got '3,-3'"
    ),
    "solve-window-shape": ("solve", _CANONICAL + "window = 3\n", None, "field 'window': expected 'lo,hi', got '3'"),
    "solve-points": (
        "solve", _CANONICAL + "points = 1\n", None, "field 'points': need at least 2 sample points, got 1"
    ),
    "solve-units-key": ("solve", _CANONICAL + "units = atomic\n", None, "unknown key 'units' for mode 'canonical'"),
    # solve: the flags that override a key
    "flag-window-order": (
        "solve --window=3,-3", _CANONICAL, None, "field 'window': bounds must be ordered, got '3,-3'"
    ),
    "flag-window-inf": ("solve --window=-inf,3", _CANONICAL, None, "field 'window': must be finite, got '-inf'"),
    "flag-points-text": ("solve --points x", _CANONICAL, None, "field 'points': not an integer: 'x'"),
    "flag-over-bad-key": (
        "solve --window=-1,1", _CANONICAL + "window = 3,-3\n", None, "field 'window': bounds must be ordered, got '3,-3'"
    ),
    "flag-points-one": ("solve --points 1", _CANONICAL, None, "field 'points': need at least 2 sample points, got 1"),
    "flag-out-under-file": (
        "solve --points 5 --out {path}/c.csv", _CANONICAL, None,
        "cannot write {path}/c.csv: [Errno 20] Not a directory: '{path}/c.csv'",
    ),
    # sweep
    "sweep-unknown": ("sweep", _SWEEP + "wat = 2\n", None, "unknown key 'wat' for sweep"),
    "sweep-missing": ("sweep", "N = 1\nalpha = 1\n", None, "field 'a': required for sweep"),
    "sweep-range": ("sweep", "N = 4..1\nalpha = 1\na = 1\n", None, "field 'N': empty range '4..1'"),
    "sweep-list": ("sweep", "N = 1\nalpha = 1, x\na = 1\n", None, "field 'alpha': not a number: 'x'"),
    "sweep-empty-list": ("sweep", "N = ,\nalpha = 1\na = 1\n", None, "field 'N': needs at least one value"),
    # figure
    "figure-unknown": ("figure", "color = red\n", None, "unknown key 'color' for figure"),
    "figure-n-values": ("figure", "n_values = 0\n", None, "field 'n_values': every N must be >= 1"),
    "figure-alpha-a": ("figure", "alpha_a = -1\n", None, "field 'alpha_a': must be > 0, got -1.0"),
    "figure-points": ("figure", "points = 1\n", None, "field 'points': need at least 2 sample points, got 1"),
    "figure-flag-points": ("figure --points x", "", None, "field 'points': not an integer: 'x'"),
    "figure-out-under-file": (
        "figure --points 2 --out {path}/figs", "", None,
        "cannot create output directory {path}/figs: [Errno 20] Not a directory: '{path}/figs'",
    ),
    # units file
    "units-unknown": ("solve", _CANONICAL, _UNITS + "c = 1\n", "unknown key 'c' for units file"),
    "units-missing": ("solve", _CANONICAL, _UNITS.replace("a0 = 1\n", ""), "field 'a0': required for units file"),
    "units-number": ("sweep", _SWEEP, _UNITS.replace("V0 = 1", "V0 = x"), "field 'V0': not a number: 'x'"),
    "units-inconsistent": (
        "solve", _CANONICAL, _UNITS.replace("V0 = 1", "V0 = 2"),
        "units file: inconsistent constants: V0^2*eps0*a0^3 = 4.0 but hbar^2/mass = 1.0",
    ),
}


@pytest.mark.parametrize("command,config,units,message", _MESSAGES.values(), ids=_MESSAGES.keys())
def test_config_error_message(command, config, units, message, tmp_path, capsys):
    path = str(tmp_path / "c.cfg")
    if config is not None:
        _write(tmp_path, "c.cfg", config)
    argv = [*command.format(path=path).split(), "--config", path]
    if units is not None:
        argv += ["--units", _write(tmp_path, "u.cfg", units)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"


@pytest.mark.parametrize(
    "command,text",
    [
        ("solve", "mode = canonical\nN = 3\nalpha = 1e308\na = 1\n"),  # its sheet density overflows
    ],
)
def test_overflow_is_one_error_line(command, text, tmp_path, capsys):
    cfg = _write(tmp_path, "big.cfg", text)
    assert main([command, "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: numeric overflow: alpha = 1e+308 gives an infinite sheet density")
    assert "Traceback" not in err


@pytest.mark.parametrize("n,a", [(400, 2.0), (1000, 1.0)], ids=["N400-a2", "N1000-a1"])
def test_long_crystal_sweep_prints_log_a(n, a, tmp_path, capsys):
    # exp(N*m*alpha*a/hbar^2) exceeds the float range: the log_A column stays finite
    cfg = _write(tmp_path, "big.cfg", f"N = {n}\nalpha = 1\na = {a}\n")
    out = tmp_path / "big.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    header, data = _read_csv(out)
    (row,) = data
    p = CrystalParams(n, 1.0, a, atomic_units())
    assert row[header.index("log_A")] == closedform.log_normalization_constant(p)
    assert row[header.index("count")] == n + 1
    assert row[header.index("closed_vs_oracle_resid")] <= 1e-9


@pytest.mark.parametrize(
    "n,alpha,a,count",
    [(400, 1.0, 2.0, 401), (1000, 1.0, 1.0, 1001), (1000, 0.7, 1.3, 729)],
    ids=["N400-a2", "N1000-a1", "N1000-alpha0.7-a1.3"],
)
def test_long_crystal_solve_prints_log_norm_constant(n, alpha, a, count, tmp_path, capsys):
    # exp(N*m*alpha*a/hbar^2) exceeds the float range; its log, the line the
    # summary prints, does not
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


def _crystal_config(mode, p):
    """The ``solve`` config of crystal ``p`` in ``mode``; sheets and quantum list its sheets and deltas."""
    if mode == "canonical":
        return f"mode = canonical\nN = {p.N}\nalpha = {p.alpha!r}\na = {p.a!r}\n"
    if mode == "sheets":
        return "mode = sheets\nsheets = " + ", ".join(f"{z!r}:{s!r}" for z, s in p.to_sheet_array().sheets) + "\n"
    return _quantum_config(to_quantum(solve_sheets(p.to_sheet_array(), p.units), p.units))


def _quantum_config(problem):
    """The quantum-mode ``solve`` config of ``problem``, every value written in full."""
    deltas = ", ".join(f"{z!r}:{g!r}" for z, g in problem.deltas)
    return f"mode = quantum\ndeltas = {deltas}\noffsets = {', '.join(map(repr, problem.region_offsets))}\n"


@pytest.mark.parametrize("n", [8, 1000])
@pytest.mark.parametrize("mode", ["canonical", "sheets", "quantum"])
def test_solve_prints_log_norm_constant_in_every_mode(mode, n, tmp_path, capsys):
    # one summary key for the constant, finite or not as a float: quantum mode
    # anchors it to the right tail, which agrees with the map when the offsets
    # are the induced ones
    p = CrystalParams(n, 1.0, 1.0, atomic_units())
    cfg = _write(tmp_path, "c.cfg", _crystal_config(mode, p))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "c.csv")]) == 0
    summary = _summary(capsys)
    assert list(summary) == [
        "energy", "log_norm_constant", "expectation_potential", "expectation_kinetic", "bound_state_count"
    ]
    assert float(summary["log_norm_constant"]) == pytest.approx(closedform.log_normalization_constant(p), abs=1e-12)


def test_solve_quantum_prints_minus_inf_where_the_tail_value_is_zero(tmp_path, capsys, monkeypatch):
    # psi(z_last) = 0 (the wide doublet -10:-1, 10:-1 gives it, through the
    # (psi, psi') step's lost decaying part) has log A = -inf, whatever V(z_last)
    monkeypatch.setattr(PiecewiseExpWavefunction, "value", lambda self, z: 0.0)
    cfg = _write(tmp_path, "q.cfg", "mode = quantum\ndeltas = -1:-1, 1:-1\noffsets = 0, -2, 0\npoints = 5\n")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "q.csv")]) == 0
    captured = capsys.readouterr()
    assert "log_norm_constant: -inf\n" in captured.out
    assert captured.err == "warning: psi is 0 at the last site z_last = 1; log_norm_constant is -inf\n"


def test_solve_quantum_warns_where_the_ground_state_did_not_isolate(tmp_path, capsys, atomic):
    # the dual problem of random stack 86: its ground state is half of a doublet far inside
    # the float spacing (see test_oracle.py), so the search cannot split its interval and
    # returns the state at the midpoint; the summary and the exit code stand, stderr says so
    problem = to_quantum(solve_sheets(random_stack(86, fewest=1), atomic), atomic)
    assert len(problem.deltas) == 23
    cfg = _write(tmp_path, "q.cfg", _quantum_config(problem))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "q.csv")]) == 0
    captured = capsys.readouterr()
    assert "energy: -1.2125227681677726\n" in captured.out and captured.out.endswith("bound_state_count: 5\n")
    assert captured.err == (
        "warning: the oracle did not isolate the ground state: its interval kappa in "
        "[1.5572557710072688, 1.5572557710073347] stopped splitting with ends that do not count 1 and 0 states; "
        "the state printed is at its midpoint\n"
    )


_MAP_MODES = {
    "canonical": "mode = canonical\nN = 8\nalpha = 1\na = 1\npoints = 5\n",
    "sheets": "mode = sheets\nsheets = -1.7:2.2, -0.3:-0.8, 0.9:1.4\npoints = 5\n",
}


@pytest.mark.parametrize("mode", _MAP_MODES)
def test_solve_map_mode_exits_1_when_the_oracle_counts_no_state(mode, tmp_path, capsys, monkeypatch):
    # the map's energy as the summary prints it, then the same solve with an oracle that counts 0
    cfg = _write(tmp_path, "m.cfg", _MAP_MODES[mode])
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "m.csv")]) == 0
    energy = _summary(capsys)["energy"]
    # the certificate counts 0 at 0+, so it certifies nothing; its warning is not
    # written, since the command fails
    empty = oracle.BoundStateList(states=(), kappa_max=1.0, state_count=0, unresolved=())
    monkeypatch.setattr(oracle, "certify_ground_states", lambda problems, kappas: [empty])
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "m.csv")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: the exponential map gives a ground state at energy {energy}, "
        "but the oracle finds no bound state (state count 0); the two routes disagree\n"
    )


def _record_oracle(monkeypatch):
    """The ``lowest`` of every search, the column count of every pass and of every rebuild, as the command runs."""
    searches, columns, rebuilt = [], [], []
    search, transfer, reconstruct = oracle.find_bound_states, oracle._transfer, oracle._reconstruct

    def recorded_search(problems, lowest=None):
        searches.append(lowest)
        return search(problems, lowest)

    def recorded_transfer(chain, kappas, which):
        columns.append(len(kappas))
        return transfer(chain, kappas, which)

    def recorded_reconstruct(chain, kappas, owner):
        rebuilt.append(len(kappas))
        return reconstruct(chain, kappas, owner)

    monkeypatch.setattr(oracle, "find_bound_states", recorded_search)
    monkeypatch.setattr(oracle, "_transfer", recorded_transfer)
    monkeypatch.setattr(oracle, "_reconstruct", recorded_reconstruct)
    return searches, columns, rebuilt


@pytest.mark.parametrize("mode", _MAP_MODES)
def test_solve_map_mode_asks_the_oracle_only_to_count(mode, tmp_path, capsys, monkeypatch):
    # the printed state is the map's: one certificate pass of three columns
    # around its decay rate and at 0+, no search and no rebuild
    searches, columns, rebuilt = _record_oracle(monkeypatch)
    cfg = _write(tmp_path, "m.cfg", _MAP_MODES[mode])
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "m.csv")]) == 0
    assert searches == rebuilt == []
    assert columns == [3]
    captured = capsys.readouterr()
    assert int(captured.out.split("bound_state_count: ")[1]) >= 1
    assert captured.err == ""


def test_solve_counts_in_its_one_pass_where_the_certificate_fails(tmp_path, capsys, monkeypatch):
    # the three-sheet stack 0:3s, 1.7:4s, 4:-0.1s at s = 1e-6: the regime switch's floor
    # (ROADMAP item 12) takes a region as linear and the count at kappa*(1 + 1e-12) reads 1,
    # so the certificate fails; its count at 0+ is the search's, so solve prints what it
    # printed before the certificate existed, from the certificate's one pass, and says so
    # on one line
    searches, columns, rebuilt = _record_oracle(monkeypatch)
    cfg = _write(tmp_path, "s.cfg", "mode = sheets\nsheets = 0:3e-6, 1.7:4e-6, 4:-1e-7\npoints = 5\n")
    assert main(["solve", "--config", cfg]) == 0
    assert searches == rebuilt == []
    assert columns == [3]
    captured = capsys.readouterr()
    assert captured.out == (
        "z,V,psi,U_region\n"
        "-2318840.579710145,-8.0000032000000001,6.2309218260071802e-07,0\n"
        "-1159419.2898550725,-3.9999997500000002,3.4019797838213384e-05,0\n"
        "2,-3.5000000000000004e-06,0.0018574110611634719,3.4999999999999992e-13\n"
        "1159423.2898550727,-4.000007150000001,3.4019546092640808e-05,0\n"
        "2318844.579710145,-8.0000105999999995,6.2308757173562687e-07,0\n"
        "\n"
        "energy: -5.9512499999999997e-12\n"
        "log_norm_constant: -6.2885681634535624\n"
        "expectation_potential: -1.1902468467157126e-11\n"
        "expectation_kinetic: 5.9512184671571267e-12\n"
        "bound_state_count: 1\n"
    )
    assert captured.err == (
        "warning: the oracle does not certify the map's ground state at energy -5.9512499999999997e-12 "
        "(kappa = 3.45e-06); bound_state_count is the search's\n"
    )


_PINNED_ERRORS = {  # (command, a line of the config) -> the whole stderr it gives
    ("solve", "alpha = -1\n"): "error: alpha must be finite and > 0, got -1.0\n",
    ("sweep", "alpha = -1\n"): "error: alpha must be finite and > 0, got -1.0\n",
    ("solve", "sheets = 0:1e300\n"): "error: numeric overflow: the squared end field E_inf**2 overflows"
    " at E_inf = 5e+299 (a result exceeds the float range)\n",
    ("solve", "alpha = 1e200\n"): "error: numeric overflow: V rises by 1e+200*V0 between the sheets at z = -2.0"
    " and -1.0, past expm1's limit of about 355*V0 (a result exceeds the float range)\n",
    ("sweep", "alpha = 1e200\n"): "error: numeric overflow: the squared attraction strength alpha**2 overflows"
    " at alpha = 1e+200 (a result exceeds the float range)\n",
    # every coefficient of the oracle's state underflows to 0
    ("sweep", "alpha = 1e150\n"): "error: sweep cell N=3, alpha=9.9999999999999998e+149, a=1, the oracle's ground"
    " state: cannot normalize the wavefunction: its norm squared, the integral of psi^2, is 0.0\n",
    ("solve", "deltas = 0:1\n"): "error: the potential binds no state; nothing to solve\n",
}


@pytest.mark.parametrize(
    "command,text",
    [
        ("solve", "mode = canonical\nN = 3\nalpha = 1e-300\na = 1\n"),  # ground energy underflows to 0
        ("sweep", "N = 3\nalpha = 1e-300\na = 1\n"),  # the solver binds no state
        ("solve", "mode = canonical\nN = 3\nalpha = 1e200\na = 1\n"),
        ("sweep", "N = 3\nalpha = 1e200\na = 1\n"),
        ("sweep", "N = 3\nalpha = 1e150\na = 1\n"),
        ("solve", "mode = sheets\nsheets = 0:1e300\n"),
        # the map emits a state at energy -0 where the oracle finds none
        ("solve --window=-5,5", "mode = canonical\nN = 3\nalpha = 1e-300\na = 1\n"),
        # node counts past int64 (~1e200 and ~1e150 states) must not wrap to "no states"
        ("solve", "mode = quantum\ndeltas = -1e200:-1, 1e200:-1\noffsets = 0, -1, 0\n"),
        ("solve", "mode = quantum\ndeltas = -1:0, 1:0\noffsets = 0, -1e300, 0\n"),
        # one repulsive delta binds nothing
        ("solve", "mode = quantum\ndeltas = 0:1\noffsets = 0, 0\n"),
        # the default search cap 8e200 is finite, its energy is not
        ("solve", "mode = quantum\ndeltas = 0:-1e200\noffsets = 0, 0\n"),
        # every position is finite, the gap between two of them is not
        ("solve", "mode = sheets\nsheets = -1e308:1, 1e308:1\n"),
        ("solve", "mode = quantum\ndeltas = -1.7e308:-1, 1.7e308:-1\noffsets = 0, 0, 0\n"),
        # one input, one message: both commands name alpha, not the sheet density
        ("solve", "mode = canonical\nN = 3\nalpha = -1\na = 1\n"),
        ("sweep", "N = 3\nalpha = -1\na = 1\n"),
        ("figure", "alpha_a = 5e307\n"),  # the window (N+4)*a overflows
        ("figure", "alpha_a = 3e307\n"),  # (N+4)*a is finite, the window's width is not
        # both bounds are finite, the window's width is not
        ("solve --window=-1e308,1e308 --points 5", "mode = canonical\nN = 2\nalpha = 1\na = 1\n"),
        ("solve", "mode = canonical\nN = 2\nalpha = 1\na = 1\nwindow = -1e308,1e308\npoints = 5\n"),
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
    for (pinned, line), err in _PINNED_ERRORS.items():
        if command == pinned and line in text:
            assert captured.err == err


_UNITS_OUTSIDE_THE_FLOAT_RANGE = {
    # consistent on paper, but V0^2*eps0*a0^3 and hbar^2/mass are 1e-400 or 1e400, outside the float range
    "underflow": ("hbar = 1e-200\nmass = 1\neps0 = 1\nV0 = 1e-200\na0 = 1\n", "V0^2*eps0*a0^3"),
    "overflow": ("hbar = 1e200\nmass = 1\neps0 = 1\nV0 = 1e200\na0 = 1\n", "V0^2*eps0*a0^3"),
    # consistent with both sides normal floats, but the sheet-to-delta scale V0*a0^3 is not
    "scale-underflow": ("hbar = 1e-150\nmass = 1\neps0 = 1e60\nV0 = 1e-30\na0 = 1e-100\n",
                        "the sheet-to-delta scale V0*a0^3 = 0.0 must be a finite normal float\n"),
    "scale-overflow": ("hbar = 1e90\nmass = 1\neps0 = 1e-300\nV0 = 1e150\na0 = 1e60\n",
                       "the sheet-to-delta scale V0*a0^3 = inf must be a finite normal float\n"),
}


@pytest.mark.parametrize("case", _UNITS_OUTSIDE_THE_FLOAT_RANGE)
@pytest.mark.parametrize(
    "command,text",
    [
        ("solve", "mode = canonical\nN = 2\nalpha = 1\na = 1\n"),
        ("solve", "mode = sheets\nsheets = 0:2\n"),
        ("solve", "mode = quantum\ndeltas = 0:-1\noffsets = 0, 0\n"),
        ("sweep", "N = 1\nalpha = 1\na = 1\n"),
    ],
    ids=["canonical", "sheets", "quantum", "sweep"],
)
def test_units_outside_the_float_range_are_one_error_line(command, text, case, tmp_path, capsys):
    units, message = _UNITS_OUTSIDE_THE_FLOAT_RANGE[case]
    argv = [command, "--config", _write(tmp_path, "c.cfg", text), "--units", _write(tmp_path, "u.cfg", units)]
    assert main([*argv, "--out", str(tmp_path / "out.csv")]) == 1
    captured = capsys.readouterr()
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"error: units file: {message}")
    assert "Traceback" not in captured.out + captured.err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "command,config,flags",
    [
        ("figure", None, ["--points", str(10**17)]),
        ("solve", "mode = canonical\nN = 1\nalpha = 1\na = 1\n", ["--points", str(10**17)]),
        ("sweep", f"N = 0..{10**17}\nalpha = 1\na = 1\n", []),
    ],
    ids=["figure", "solve", "sweep"],
)
def test_a_request_too_large_to_allocate_is_one_error_line(command, config, flags, tmp_path, capsys):
    # 10**17 points or cells is 711 PiB of float64, past any x86-64 address space, so the
    # allocation fails at once and touches no memory; sweep's list of N raises a bare MemoryError
    out = tmp_path / "out"
    argv = [command, *flags, "--out", str(out)]
    if config is not None:
        argv += ["--config", _write(tmp_path, "c.cfg", config)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: out of memory: ")
    assert "Traceback" not in captured.out + captured.err
    assert not out.exists()


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


def test_one_parser_serves_every_call_of_a_process(tmp_path, capsys):
    # solve, a malformed config, verify and solve again through the cached
    # parser give what a fresh parser per call gives
    solve = ["solve", "--config", _write(tmp_path, "good.cfg", _CANONICAL)]
    calls = [solve, ["solve", "--config", _write(tmp_path, "bad.cfg", "mode = canonical\nN = x\n")], ["verify"], solve]

    def run(fresh):
        results = []
        for argv in calls:
            if fresh:
                cli.build_parser.cache_clear()
            results.append((main(argv), *capsys.readouterr()))
        return results

    cached = run(fresh=False)
    assert cli.build_parser() is cli.build_parser()
    assert [code for code, _, _ in cached] == [0, 1, 0, 0]
    assert cached[1][2].startswith("error: ") and cached[1][2].count("\n") == 1
    assert cached[0] == cached[3]
    assert run(fresh=True) == cached


_SRC = str(Path(__file__).resolve().parents[1] / "src")


def _run(*args):
    """``python -m sheetcrystal.cli`` as a child process, with ``src`` on its path."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))}
    command = [sys.executable, "-m", "sheetcrystal.cli", *args]
    return subprocess.run(command, capture_output=True, text=True, env=env, timeout=300)


def test_verify_process_exits_0():
    done = _run("verify")
    assert done.returncode == 0
    assert done.stdout.splitlines()[-1] == "all checks passed"
    assert done.stderr == ""


@pytest.mark.parametrize(
    "args,text",
    [
        (["verify", "--depth", "bogus"], None),
        (["solve"], "mode = canonical\nN = eight\nalpha = 1\na = 1\n"),
        (["solve"], "mode = sheets\nsheets = 0:1e300\n"),
        (["solve"], "mode = canonical\nN = 3\nalpha = 1e200\na = 1\n"),
    ],
    ids=["bad-depth", "malformed-N", "sheets-overflow", "canonical-overflow"],
)
def test_failing_process_exits_1_with_one_stderr_line(args, text, tmp_path):
    config = ["--config", _write(tmp_path, "c.cfg", text)] if text else []
    done = _run(*args, *config)
    assert done.returncode == 1
    assert done.stdout == ""
    assert len(done.stderr.splitlines()) == 1
    assert done.stderr.startswith("error: ")


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_grid(tmp_path, capsys):
    cfg = _write(tmp_path, "s.cfg", "N = 0..4\nalpha = 1\na = 1\n")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    header, data = _read_csv(out)
    assert header == ["N", "alpha", "a", "E", "log_A", "U_exp", "T_exp", "count", "closed_vs_oracle_resid"]
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


def test_sweep_certifies_every_cell_in_one_pass(tmp_path, capsys, monkeypatch):
    # one certificate pass of three columns per cell, then one pass that rebuilds
    # every cell's state when the first row reads it
    searches, columns, rebuilt = _record_oracle(monkeypatch)
    cfg = _write(tmp_path, "s.cfg", "N = 0..4\nalpha = 0.5, 1\na = 1\n")
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s.csv")]) == 0
    assert searches == []
    assert columns == [3 * 10, 10]
    assert rebuilt == [10]
    assert capsys.readouterr().err == ""


def test_sweep_warns_of_a_residual_beyond_its_gate(tmp_path, capsys):
    # at a = 50 the oracle's state sits in the leftmost well alone (ROADMAP item 15): the
    # row and exit 0 stand, and stderr names the cell and its residual
    out = tmp_path / "s.csv"
    cfg = _write(tmp_path, "s.cfg", "N = 2\nalpha = 1\na = 50\n")
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1].split(",")[-1] == "0.5773502691896264"
    assert (
        "warning: sweep cell N=2, alpha=1, a=50: closed_vs_oracle_resid = 0.5773502691896264 is not within 1e-09\n"
        in capsys.readouterr().err
    )
    cfg = _write(tmp_path, "s.cfg", "N = 2\nalpha = 1\na = 1\n")
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""


def test_sweep_is_deterministic(tmp_path, capsys):
    cfg = _write(tmp_path, "s.cfg", "N = 0,2\nalpha = 0.5,1\na = 1\n")
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(out_b)]) == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()


def test_a_61_cell_sweep_writes_the_rows_of_one_cell_sweeps(tmp_path, capsys):
    # 61 crystals of up to 121 sites: one certificate pass takes all 61, every
    # chain padded to the longest, where a search of the whole batch would run
    # its grid pass in several chunks; each row must have the bytes of the
    # crystal's own one-cell sweep
    assert 61 * (oracle.GRID + 1) * 121 > oracle._SEARCH_CELLS >= 61 * 3 * 121
    cfg = _write(tmp_path, "s.cfg", "N = 0..60\nalpha = 0.7\na = 1.3\n")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    header, *rows = out.read_bytes().splitlines(keepends=True)
    assert len(rows) == 61
    for n, row in enumerate(rows):
        cfg = _write(tmp_path, "one.cfg", f"N = {n}\nalpha = 0.7\na = 1.3\n")
        one = tmp_path / "one.csv"
        assert main(["sweep", "--config", cfg, "--out", str(one)]) == 0
        assert one.read_bytes() == header + row, n
    capsys.readouterr()


def test_sweep_rejects_empty_range(tmp_path, capsys):
    cfg = _write(tmp_path, "s.cfg", "N = 4..1\nalpha = 1\na = 1\n")
    assert main(["sweep", "--config", cfg]) == 1
    assert "N" in capsys.readouterr().err


def test_sweep_rejects_unknown_key(tmp_path, capsys):
    cfg = _write(tmp_path, "s.cfg", "N = 1\nalpha = 1\na = 1\nwat = 2\n")
    assert main(["sweep", "--config", cfg]) == 1
    assert "wat" in capsys.readouterr().err

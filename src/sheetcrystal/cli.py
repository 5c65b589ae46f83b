"""Command-line interface: solve, figure, verify, sweep.

Exit codes: 0 success, 1 input/validation problem, 2 verification failure.
CSV output uses 17 significant digits, '.' decimals, and '\\n' line endings,
and is byte-identical across runs for identical inputs.

``solve`` and ``sweep`` read only the ground state, so they ask the oracle
for that state alone (``lowest=1``); their ``bound_state_count`` and
``count`` are the oracle's count of every state in its search range
(``metadata.state_count``).  The normalization constant is carried as its
logarithm: ``solve`` prints ``norm_constant`` while the constant is a finite
float and ``log_norm_constant`` (its natural log) on that line otherwise.

Config files are flat ``key = value`` lines; ``#`` starts a comment and
unknown or duplicate keys are rejected.  Sweeps run their cells in the
order of the parameter grid: every cell's closed forms and problem first,
then one oracle search for all of them, which serves many problems at once.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import closedform, oracle
from .closedform import CrystalParams
from .duality import DeltaPotentialProblem, ground_state_from_electrostatics, nan_max, to_quantum
from .electrostatics import SheetArray, potential_at, solve_sheets
from .errors import NoBoundStatesError, SheetCrystalError
from .units import UnitSystem, atomic_units, sigma_from_alpha
from .verification import crystal_figure_samples, run_verification


class ConfigError(ValueError):
    """Bad command line or config file content; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep 2 for verify only
        raise ConfigError(message)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# --------------------------------------------------------------------------
# config file handling
# --------------------------------------------------------------------------

def _read_key_values(path: Path) -> dict[str, str]:
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in entries:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        entries[key] = value
    return entries


def _parse_float(key: str, value: str) -> float:
    try:
        out = float(value)
    except ValueError as exc:
        raise ConfigError(f"field {key!r}: not a number: {value!r}") from exc
    if not math.isfinite(out):
        raise ConfigError(f"field {key!r}: must be finite, got {value!r}")
    return out


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError as exc:
        raise ConfigError(f"field {key!r}: not an integer: {value!r}") from exc


def _parse_pairs(key: str, value: str) -> list[tuple[float, float]]:
    pairs = []
    for chunk in value.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" not in chunk:
            raise ConfigError(f"field {key!r}: expected 'position:value', got {chunk!r}")
        left, right = chunk.split(":", 1)
        pairs.append((_parse_float(key, left.strip()), _parse_float(key, right.strip())))
    if not pairs:
        raise ConfigError(f"field {key!r}: needs at least one 'position:value' pair")
    return pairs


def _parse_float_list(key: str, value: str) -> list[float]:
    items = [chunk.strip() for chunk in value.split(",") if chunk.strip()]
    if not items:
        raise ConfigError(f"field {key!r}: needs at least one value")
    return [_parse_float(key, item) for item in items]


def _parse_int_list(key: str, value: str) -> list[int]:
    value = value.strip()
    if ".." in value:
        lo_text, hi_text = value.split("..", 1)
        lo, hi = _parse_int(key, lo_text.strip()), _parse_int(key, hi_text.strip())
        if hi < lo:
            raise ConfigError(f"field {key!r}: empty range {value!r}")
        return list(range(lo, hi + 1))
    items = [chunk.strip() for chunk in value.split(",") if chunk.strip()]
    if not items:
        raise ConfigError(f"field {key!r}: needs at least one value")
    return [_parse_int(key, item) for item in items]


def _parse_window(value: str) -> tuple[float, float]:
    parts = [chunk.strip() for chunk in value.split(",")]
    if len(parts) != 2:
        raise ConfigError(f"field 'window': expected 'lo,hi', got {value!r}")
    lo, hi = _parse_float("window", parts[0]), _parse_float("window", parts[1])
    if not lo < hi:
        raise ConfigError(f"field 'window': bounds must be ordered, got {value!r}")
    return lo, hi


def _load_units(args) -> UnitSystem:
    if getattr(args, "units", None) is None:
        return atomic_units()
    entries = _read_key_values(Path(args.units))
    required = ("hbar", "mass", "eps0", "V0", "a0")
    unknown = sorted(set(entries) - set(required))
    if unknown:
        raise ConfigError(f"units file: unknown key {unknown[0]!r}")
    missing = sorted(set(required) - set(entries))
    if missing:
        raise ConfigError(f"units file: missing key {missing[0]!r}")
    values = {key: _parse_float(key, entries[key]) for key in required}
    try:
        return UnitSystem(**values)
    except ValueError as exc:
        raise ConfigError(f"units file: {exc}") from exc


# --------------------------------------------------------------------------
# solve
# --------------------------------------------------------------------------

_MODE_KEYS = {
    "canonical": {"N", "alpha", "a"},
    "sheets": {"sheets"},
    "quantum": {"deltas", "offsets"},
}
_COMMON_KEYS = {"mode", "units", "out", "window", "points"}


@dataclass
class Scenario:
    mode: str
    units: UnitSystem
    out: Path | None
    window: tuple[float, float] | None
    points: int
    n: int = 0
    alpha: float = 0.0
    a: float = 0.0
    sheets: list[tuple[float, float]] | None = None
    deltas: list[tuple[float, float]] | None = None
    offsets: list[float] | None = None


def _load_scenario(args) -> Scenario:
    entries = _read_key_values(Path(args.config))
    mode = entries.get("mode")
    if mode not in _MODE_KEYS:
        raise ConfigError(
            f"field 'mode': must be one of canonical, sheets, quantum; got {mode!r}"
        )
    allowed = _COMMON_KEYS | _MODE_KEYS[mode]
    unknown = sorted(set(entries) - allowed)
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} for mode {mode!r}")
    missing = sorted(_MODE_KEYS[mode] - set(entries))
    if missing:
        raise ConfigError(f"field {missing[0]!r}: required for mode {mode!r}")

    preset = entries.get("units", "atomic")
    if preset != "atomic":
        raise ConfigError(f"field 'units': unknown preset {preset!r} (only 'atomic'; use --units FILE)")
    units = _load_units(args)

    out = args.out or entries.get("out")
    if args.window is not None:
        window = args.window  # already parsed by argparse
    else:
        window_text = entries.get("window")
        window = _parse_window(window_text) if window_text else None
    points_text = entries.get("points", "2001")
    points = args.points if args.points is not None else _parse_int("points", points_text)
    if points < 2:
        raise ConfigError(f"field 'points': need at least 2 sample points, got {points}")

    scenario = Scenario(
        mode=mode,
        units=units,
        out=Path(out) if out else None,
        window=window,
        points=points,
    )
    try:
        if mode == "canonical":
            scenario.n = _parse_int("N", entries["N"])
            scenario.alpha = _parse_float("alpha", entries["alpha"])
            scenario.a = _parse_float("a", entries["a"])
        elif mode == "sheets":
            scenario.sheets = _parse_pairs("sheets", entries["sheets"])
        else:
            scenario.deltas = _parse_pairs("deltas", entries["deltas"])
            scenario.offsets = _parse_float_list("offsets", entries["offsets"])
    except KeyError as exc:  # pragma: no cover - guarded by `missing` above
        raise ConfigError(f"field {exc.args[0]!r}: required for mode {mode!r}") from exc
    return scenario


def _emit_csv(header: str, rows, out: Path | None, stream) -> None:
    # one %-format over every cell; "%.17g" % x is format(float(x), ".17g")
    rows = list(rows)
    line = ",".join(["%.17g"] * (header.count(",") + 1)) + "\n"
    payload = header + "\n" + (line * len(rows)) % tuple(v for row in rows for v in row)
    if out is None:
        stream.write(payload)
        stream.write("\n")
    else:
        try:
            out.write_text(payload)
        except OSError as exc:
            raise ConfigError(f"cannot write {out}: {exc}") from exc


def _region_offset_at(problem: DeltaPotentialProblem, zs: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(problem.positions, zs, side="right")
    return np.asarray(problem.region_offsets, dtype=float)[idx]


def cmd_solve(args) -> int:
    scenario = _load_scenario(args)
    units = scenario.units

    if scenario.mode == "quantum":
        problem = DeltaPotentialProblem(scenario.deltas, scenario.offsets, units)
        found = oracle.find_bound_states(problem, lowest=1)
        if not found.states:
            raise SheetCrystalError("the potential binds no state; nothing to solve")
        state = found.states[0]
        psi = state.wavefunction
        energy = state.energy
        # Dual sheet stack implied by the deltas; anchors the gauge for the
        # V column and the tail-matched normalization constant.
        dual = SheetArray(
            [(z, sigma_from_alpha(-g, units)) for z, g in problem.deltas]
        )
        sol = solve_sheets(dual, units)
        z_last = sol.breakpoints[-1]
        # norm_constant = psi(z_last) * exp(-V(z_last)/V0), kept as the two factors
        scale, log_factor = psi.value(z_last), -potential_at(sol, z_last) / units.V0
    else:
        if scenario.mode == "canonical":
            array = CrystalParams(scenario.n, scenario.alpha, scenario.a, units).to_sheet_array()
        else:
            array = SheetArray(scenario.sheets)
        sol = solve_sheets(array, units)
        ground = ground_state_from_electrostatics(sol, units)  # NotNormalizable -> exit 1
        problem = to_quantum(sol, units)
        found = oracle.find_bound_states(problem, lowest=1)
        if not found.states:
            raise SheetCrystalError(
                f"the exponential map gives a ground state at energy {_fmt(ground.energy)}, "
                f"but the oracle finds no bound state (node count {found.metadata.node_count}); "
                "the two routes disagree"
            )
        psi = ground.wavefunction
        energy = ground.energy
        scale, log_factor = 1.0, ground.log_norm_constant

    u_mean = oracle.expectation_potential_numeric(psi, problem)
    t_mean = oracle.expectation_kinetic_numeric(psi, units)

    window = scenario.window
    if window is None:
        rate = math.sqrt(-2.0 * units.mass * energy) / units.hbar
        if rate == 0.0:
            raise ConfigError(
                f"ground energy {_fmt(energy)} gives no decay length for the default window; pass --window=lo,hi"
            )
        lo = sol.breakpoints[0] - 8.0 / rate
        hi = sol.breakpoints[-1] + 8.0 / rate
        window = (lo, hi)
    zs = np.linspace(window[0], window[1], scenario.points)
    rows = zip(
        zs,
        [potential_at(sol, z) for z in zs],
        psi.values(zs),
        _region_offset_at(problem, zs),
    )
    _emit_csv("z,V,psi,U_region", rows, scenario.out, sys.stdout)

    # the constant while it is a finite float, else its log (see the module docstring)
    try:
        norm_constant = scale * math.exp(log_factor)
    except OverflowError:
        norm_constant = math.inf
    print(f"energy: {_fmt(energy)}")
    if math.isfinite(norm_constant):
        print(f"norm_constant: {_fmt(norm_constant)}")
    else:
        print(f"log_norm_constant: {_fmt(math.log(scale) + log_factor)}")
    print(f"expectation_potential: {_fmt(u_mean)}")
    print(f"expectation_kinetic: {_fmt(t_mean)}")
    print(f"bound_state_count: {found.metadata.state_count}")
    return 0


# --------------------------------------------------------------------------
# figure
# --------------------------------------------------------------------------

def cmd_figure(args) -> int:
    n_values = [1, 2, 3, 4]
    alpha_a = 1.0
    points = args.points if args.points is not None else 2001
    if args.config is not None:
        entries = _read_key_values(Path(args.config))
        unknown = sorted(set(entries) - {"n_values", "alpha_a", "points"})
        if unknown:
            raise ConfigError(f"unknown key {unknown[0]!r} for figure")
        if "n_values" in entries:
            n_values = _parse_int_list("n_values", entries["n_values"])
        if "alpha_a" in entries:
            alpha_a = _parse_float("alpha_a", entries["alpha_a"])
        if "points" in entries and args.points is None:
            points = _parse_int("points", entries["points"])
    if any(n < 1 for n in n_values):
        raise ConfigError("field 'n_values': every N must be >= 1")
    if alpha_a <= 0:
        raise ConfigError(f"field 'alpha_a': must be > 0, got {alpha_a}")
    if points < 2:
        raise ConfigError(f"field 'points': need at least 2 sample points, got {points}")

    # every panel is sampled (and its window checked) before anything is written
    samples = [crystal_figure_samples(n, alpha_a, points) for n in n_values]
    out_dir = Path(args.out) if args.out else Path(".")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: {exc}") from exc

    for n, (zs, vals) in zip(n_values, samples):
        target = out_dir / f"crystal_psi_N{n}.csv"
        _emit_csv("z,psi", zip(zs, vals), target, sys.stdout)
        print(f"wrote {target}")
    return 0


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

def cmd_verify(args) -> int:
    report = run_verification(args.depth)
    print(report.format_table())
    return 0 if report.all_passed else 2


# --------------------------------------------------------------------------
# sweep
# --------------------------------------------------------------------------

def _sweep_cell(cell: tuple[int, float, float], units: UnitSystem) -> tuple:
    """One cell's crystal, the start of its row (N, alpha, a, the closed forms) and its problem."""
    n, alpha, a = cell
    p = CrystalParams(n, alpha, a, units)
    closed = (
        closedform.ground_energy(p),
        closedform.normalization_constant(p),
        closedform.expectation_potential(p),
        closedform.expectation_kinetic(p),
    )
    return p, (*cell, *closed), to_quantum(solve_sheets(p.to_sheet_array(), units), units)


def _sweep_row(p: CrystalParams, start: tuple, problem: DeltaPotentialProblem, found: oracle.BoundStateList) -> tuple:
    """The cell's whole CSV row, once the search has found its states."""
    n, alpha, a, energy, _, u_mean, t_mean = start
    if not found.states:
        raise NoBoundStatesError(
            f"sweep cell N={n}, alpha={_fmt(alpha)}, a={_fmt(a)}: the solver finds no bound state in its search range"
        )
    state = found.states[0]
    resid = nan_max(
        abs(energy - state.energy),
        abs(u_mean - oracle.expectation_potential_numeric(state.wavefunction, problem)),
        abs(t_mean - oracle.expectation_kinetic_numeric(state.wavefunction, problem.units)),
        abs(closedform.psi(p, 0.0) - state.wavefunction.value(0.0)),
    )
    return (*start, found.metadata.state_count, resid)


def cmd_sweep(args) -> int:
    entries = _read_key_values(Path(args.config))
    unknown = sorted(set(entries) - {"N", "alpha", "a", "out"})
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} for sweep")
    for key in ("N", "alpha", "a"):
        if key not in entries:
            raise ConfigError(f"field {key!r}: required for sweep")
    n_list = _parse_int_list("N", entries["N"])
    alpha_list = _parse_float_list("alpha", entries["alpha"])
    a_list = _parse_float_list("a", entries["a"])
    units = _load_units(args)

    # every cell's closed forms and problem, in grid order, then one search for all
    cells = [(n, alpha, a) for n in n_list for alpha in alpha_list for a in a_list]
    params, starts, problems = zip(*(_sweep_cell(cell, units) for cell in cells))
    rows = map(_sweep_row, params, starts, problems, oracle.find_bound_states(problems, lowest=1))

    out = args.out or entries.get("out")
    _emit_csv(
        "N,alpha,a,E,A,U_exp,T_exp,count,closed_vs_oracle_resid",
        rows,
        Path(out) if out else None,
        sys.stdout,
    )
    return 0


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="sheetcrystal", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one configuration, emit CSV + summary")
    solve.add_argument("--config", required=True, help="scenario config file")
    solve.add_argument("--units", help="units file with hbar, mass, eps0, V0, a0")
    solve.add_argument("--out", help="CSV output path (default: stdout)")
    solve.add_argument(
        "--window", type=_parse_window, help="sampling window, e.g. --window=-5,5"
    )
    solve.add_argument("--points", type=int, help="sample point count (>= 2)")
    solve.set_defaults(func=cmd_solve)

    figure = sub.add_parser("figure", help="emit crystal wavefunction CSV datasets")
    figure.add_argument("--config", help="optional config with n_values / alpha_a / points")
    figure.add_argument("--out", help="output directory (default: .)")
    figure.add_argument("--points", type=int, help="sample point count (>= 2)")
    figure.set_defaults(func=cmd_figure)

    verify = sub.add_parser("verify", help="run the verification suite")
    verify.add_argument("--depth", choices=("quick", "full"), default="quick")
    verify.set_defaults(func=cmd_verify)

    sweep = sub.add_parser("sweep", help="tabulate closed forms vs the solver over a grid")
    sweep.add_argument("--config", required=True, help="grid config with N / alpha / a")
    sweep.add_argument("--units", help="units file with hbar, mass, eps0, V0, a0")
    sweep.add_argument("--out", help="CSV output path (default: stdout)")
    sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (SheetCrystalError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OverflowError as exc:
        print(f"error: numeric overflow: {exc} (a result exceeds the float range)", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Seeded inputs, operation lists and the correctness gate of the three workloads.

Every workload is a list of named operations.  An operation drives the
package through its public calls, checks the result against the pinned
tolerances below and raises :class:`GateFailure` when a check fails.  The
runner counts an operation as failed when it raises anything at all.

The timed operations are ones the package answers correctly at the time the
benchmark was written, so a failure among them is a regression.  Inputs on
which the package is known to fail are not dropped: they form each
workload's *audit*, run once per run under the same gate, outside the
timing, and every audit failure is printed with its reason.

Inputs are generated here, before any timing starts, from the ``--seed``
value: the package only ever receives the generated ``SheetArray`` objects
and config files.  Program calls go through module attributes
(``electrostatics.solve_sheets``, not a name imported from it), so the span
tracer in ``tracing.py`` sees them when it patches those attributes.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path
from typing import Callable

import numpy as np

from sheetcrystal import cli, closedform, duality, electrostatics, oracle, units

# -- pinned tolerances of the gate --------------------------------------------
ENERGY_RTOL = 1e-9  # oracle vs map (and closed-form) ground energy
RESIDUAL_MAX = 1e-6  # max Schroedinger residual of an emitted ground state
PSI_AT_ZERO_RTOL = 1e-12  # map state vs closedform.psi(p, 0) on the crystal
EXPECTATION_RTOL = 1e-10  # oracle <U>, <T> vs the crystal closed forms
SWEEP_RESIDUAL_MAX = 1e-9  # closed_vs_oracle_resid column of `sweep`
POTENTIAL_RTOL = 1e-10  # potential_at vs direct superposition, relative to sum |sigma| |z - z_n|
SYMMETRY_RTOL = 1e-12  # closedform.psi(p, z) vs psi(p, -z) on the symmetric crystal

# -- generation parameters ----------------------------------------------------
CRYSTAL_SIGMA = 2.0  # with a = 1 in atomic units this is alpha * a = 1
CRYSTAL_A = 1.0
LADDER_N = (0, 8, 20, 50)  # N = 100 alone costs ~20 s of oracle time per pass
LARGE_N = (100, 1000)
STACK_K = (2, 24)
STACK_GAP = (0.2, 2.0)
STACK_DENSITY = (-3.0, 3.0)
POOL_PER_STACK = 200
SAMPLE_POINTS = 2001
CLI_SHEETS_K = 8


class GateFailure(Exception):
    """An operation returned a result outside its pinned tolerance."""


Op = Callable[[Counter], None]


@dataclass
class Workload:
    name: str
    ops: list[tuple[str, Op]]
    inputs: dict
    audits: list[tuple[str, Op]] = field(default_factory=list)


def check(ok: bool, message: str) -> None:
    if not ok:
        raise GateFailure(message)


def check_close(what: str, got: float, want: float, rtol: float) -> None:
    check(abs(got - want) <= rtol * abs(want), f"{what}: {got!r} vs {want!r} (rtol {rtol:g})")


# -- input generators ---------------------------------------------------------

def crystal_sheets(n: int) -> list[tuple[float, float]]:
    """The 2N+1 alternating sheets at z = k*a, positive at both ends."""
    return [(k * CRYSTAL_A, CRYSTAL_SIGMA * (-1.0) ** (k + n)) for k in range(-n, n + 1)]


def random_sheets(rng: random.Random, k: int) -> list[tuple[float, float]]:
    """K sheets with U(0.2, 2) gaps and U(-3, 3) densities of positive total."""
    positions = list(accumulate((rng.uniform(*STACK_GAP) for _ in range(k - 1)), initial=0.0))
    while True:
        densities = [rng.uniform(*STACK_DENSITY) for _ in range(k)]
        if math.fsum(densities) > 0.0:
            return list(zip(positions, densities))


def wkb_state_estimate(sheets: list[tuple[float, float]]) -> float:
    """Semiclassical bound-state count of a stack's dual problem (atomic units).

    Region k of the dual problem sits at offset (E_k^2 - E_inf^2)/2, so the
    phase (1/pi) * sum width * sqrt(max(0, E_inf^2 - E_k^2)) estimates how many
    states it binds.  Oracle time grows with that count.
    """
    total = math.fsum(s for _, s in sheets)
    e_inf_sq = 0.25 * total * total
    left = 0.0
    phase = 0.0
    for (z0, s0), (z1, _) in zip(sheets, sheets[1:]):
        left += s0
        field_k = 0.5 * (2.0 * left - total)
        phase += (z1 - z0) * math.sqrt(max(0.0, e_inf_sq - field_k * field_k))
    return phase / math.pi


def median_stack(rng: random.Random, k: int) -> list[tuple[float, float]]:
    """The median-cost one of POOL_PER_STACK random stacks of K sheets.

    Oracle time per stack is heavy-tailed in its bound-state count, so plain
    draws change the total time by a large share between seeds.  Ranking
    the candidates by :func:`wkb_state_estimate` and keeping the median one
    gives every seed a similar mix of easy and hard stacks, while the stacks
    themselves differ.
    """
    pool = sorted((random_sheets(rng, k) for _ in range(POOL_PER_STACK)), key=wkb_state_estimate)
    return pool[POOL_PER_STACK // 2]


def median_stacks(seed: int) -> list[list[tuple[float, float]]]:
    """One stack for every K in STACK_K: the median-cost one of POOL_PER_STACK candidates."""
    rng = random.Random(seed)
    return [median_stack(rng, k) for k in range(STACK_K[0], STACK_K[1] + 1)]


# -- shared pieces of the operations -----------------------------------------

UNITS = units.atomic_units()


def _crystal_params(n: int) -> closedform.CrystalParams:
    return closedform.CrystalParams(n, units.alpha_from_sigma(CRYSTAL_SIGMA, UNITS), CRYSTAL_A, UNITS)


def _max_residual(problem, psi, energy) -> float:
    return duality.schrodinger_residuals(problem, psi, energy).max_residual()


def _map(array):
    sol = electrostatics.solve_sheets(array, UNITS)
    ground = duality.ground_state_from_electrostatics(sol, UNITS)
    return sol, ground, duality.to_quantum(sol, UNITS)


def _differential(ground, problem, tally: Counter):
    """Oracle on ``problem`` against the map's ``ground``; both residuals gated.

    Both residuals are computed whatever the verdict, so an operation does the
    same work whether or not the oracle is right.
    """
    found = oracle.find_bound_states(problem)
    map_residual = _max_residual(problem, ground.wavefunction, ground.energy)
    if not found.states:
        tally["ground_energy_miss"] += 1
        raise GateFailure("oracle found no bound state")
    state = found.states[0]
    oracle_residual = _max_residual(problem, state.wavefunction, state.energy)
    if abs(state.energy - ground.energy) > ENERGY_RTOL * abs(ground.energy):
        tally["ground_energy_miss"] += 1
    elif oracle_residual > RESIDUAL_MAX:
        tally["ground_residual_fail"] += 1
    else:
        tally["useful"] += 1
    check_close("oracle vs map ground energy", state.energy, ground.energy, ENERGY_RTOL)
    check(oracle_residual <= RESIDUAL_MAX, f"oracle ground-state residual {oracle_residual:.3e}")
    check(map_residual <= RESIDUAL_MAX, f"map ground-state residual {map_residual:.3e}")
    return found, state


# -- crystal_ladder -----------------------------------------------------------

def _ladder_op(n: int, array) -> Op:
    def op(tally: Counter) -> None:
        _, ground, problem = _map(array)
        found, state = _differential(ground, problem, tally)
        tally["count_error"] += abs(len(found) - (n + 1))
        u_mean = oracle.expectation_potential_numeric(state.wavefunction, problem)
        t_mean = oracle.expectation_kinetic_numeric(state.wavefunction, UNITS)
        p = _crystal_params(n)
        check_close("map vs closed-form energy", ground.energy, closedform.ground_energy(p), ENERGY_RTOL)
        check_close("<U> vs closed form", u_mean, closedform.expectation_potential(p), EXPECTATION_RTOL)
        check_close("<T> vs closed form", t_mean, closedform.expectation_kinetic(p), EXPECTATION_RTOL)
        check_close("map psi(0) vs closedform.psi", ground.wavefunction.value(0.0),
                    closedform.psi(p, 0.0), PSI_AT_ZERO_RTOL)

    return op


def _stack_op(array) -> Op:
    def op(tally: Counter) -> None:
        _, ground, problem = _map(array)
        _differential(ground, problem, tally)

    return op


def crystal_ladder(seed: int, workdir: Path) -> Workload:
    """The canonical crystal ladder, timed; the map-vs-oracle differential on random stacks, audited.

    The oracle misses or breaks the ground state of about a third of random
    stacks, so the differential runs as the audit: one stack per K, the
    median-cost one, from ``seed``.
    """
    ops = [(f"crystal-N{n}", _ladder_op(n, electrostatics.SheetArray(crystal_sheets(n)))) for n in LADDER_N]
    audits = [(f"stack-K{len(s)}", _stack_op(electrostatics.SheetArray(s))) for s in median_stacks(seed)]
    inputs = {
        "sigma": CRYSTAL_SIGMA, "a": CRYSTAL_A, "N": list(LADDER_N),
        "audit": {"seed": seed, "K": list(STACK_K), "gap": list(STACK_GAP), "density": list(STACK_DENSITY),
                  "pool_per_stack": POOL_PER_STACK, "selection": "per K: median wkb_state_estimate candidate"},
    }
    return Workload("crystal_ladder", ops, inputs, audits)


# -- map_large ----------------------------------------------------------------

def superposed_potential(sheets: list[tuple[float, float]], zs) -> tuple[np.ndarray, np.ndarray]:
    """Potential -(1/2 eps0) sum sigma_n |z - z_n| at ``zs`` and its scale sum |sigma_n| |z - z_n|."""
    value, scale = np.zeros(len(zs)), np.zeros(len(zs))
    for zn, s in sheets:
        dist = np.abs(zs - zn)
        value += s * dist
        scale += abs(s) * dist
    return -0.5 / UNITS.eps0 * value, 0.5 / UNITS.eps0 * scale


def _large_map_op(array, zs, crystal_n: int | None) -> Op:
    def op(tally: Counter) -> None:
        sol, ground, problem = _map(array)
        residual = _max_residual(problem, ground.wavefunction, ground.energy)
        ground.wavefunction.values(zs)
        for z in zs:
            electrostatics.potential_at(sol, z)
        check(residual <= RESIDUAL_MAX, f"map ground-state residual {residual:.3e}")
        if crystal_n is not None:
            p = _crystal_params(crystal_n)
            check_close("map vs closed-form energy", ground.energy, closedform.ground_energy(p), ENERGY_RTOL)
            check_close("map psi(0) vs closedform.psi", ground.wavefunction.value(0.0),
                        closedform.psi(p, 0.0), PSI_AT_ZERO_RTOL)

    return op


def _large_solve_op(sheets, zs) -> Op:
    """``solve_sheets`` and ``potential_at`` at ``zs``, against the direct superposition."""
    array = electrostatics.SheetArray(sheets)
    want, scale = superposed_potential(sheets, zs)
    total = math.fsum(s for _, s in sheets)

    def op(tally: Counter) -> None:
        sol = electrostatics.solve_sheets(array, UNITS)
        got = np.array([electrostatics.potential_at(sol, z) for z in zs])
        worst = float(np.max(np.abs(got - want) / scale))
        check(worst <= POTENTIAL_RTOL, f"potential_at vs superposition: {worst:.3e} of scale")
        check_close("E_inf", sol.E_inf, abs(total) / (2.0 * UNITS.eps0), ENERGY_RTOL)

    return op


def _large_psi_op(n: int, zs) -> Op:
    def op(tally: Counter) -> None:
        p = _crystal_params(n)
        values = np.array([closedform.psi(p, z) for z in zs])
        check(bool(np.all(values > 0.0) and np.all(np.isfinite(values))), "closedform.psi not positive and finite")
        worst = float(np.max(np.abs(values - values[::-1]) / values))
        check(worst <= SYMMETRY_RTOL, f"closedform.psi(z) vs psi(-z): {worst:.3e}")

    return op


def _normalization_op(n: int) -> Op:
    def op(tally: Counter) -> None:
        norm = closedform.normalization_constant(_crystal_params(n))
        check(norm > 0.0 and math.isfinite(norm), f"normalization constant {norm!r}")

    return op


def map_large(seed: int, workdir: Path) -> Workload:
    """Oracle-free layers at N = 100 and 1000, timed; the calls that overflow at this size, audited.

    At crystal N = 1000 the map and ``normalization_constant`` raise
    OverflowError, and so does the map of many seeded random stacks of 201
    or 2001 sheets, so those calls run as the audit.
    """
    rng = random.Random(seed)
    small = LARGE_N[0]
    ops, audits = [], []
    for n in LARGE_N:
        zs = np.linspace(-(n + 4) * CRYSTAL_A, (n + 4) * CRYSTAL_A, SAMPLE_POINTS)
        sheets = crystal_sheets(n)
        ops.append((f"crystal-N{n}-solve", _large_solve_op(sheets, zs)))
        ops.append((f"crystal-N{n}-psi", _large_psi_op(n, zs)))
        (ops if n == small else audits).extend([
            (f"crystal-N{n}-map", _large_map_op(electrostatics.SheetArray(sheets), zs, n)),
            (f"crystal-N{n}-normalization", _normalization_op(n)),
        ])
    for n in LARGE_N:
        sheets = random_sheets(rng, 2 * n + 1)
        zs = np.linspace(sheets[0][0] - 4.0, sheets[-1][0] + 4.0, SAMPLE_POINTS)
        ops.append((f"stack-K{2 * n + 1}-solve", _large_solve_op(sheets, zs)))
        audits.append((f"stack-K{2 * n + 1}-map", _large_map_op(electrostatics.SheetArray(sheets), zs, None)))
    inputs = {
        "seed": seed, "crystal_N": list(LARGE_N), "sigma": CRYSTAL_SIGMA, "a": CRYSTAL_A,
        "stack_K": [2 * n + 1 for n in LARGE_N], "gap": list(STACK_GAP), "density": list(STACK_DENSITY),
        "points": SAMPLE_POINTS,
    }
    return Workload("map_large", ops, inputs, audits)


# -- cli_commands -------------------------------------------------------------

def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """``cli.main(argv)`` in-process, returning (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_op(argv: list[str], expect_code: int, gate: Callable[[str, str], None]) -> Op:
    def op(tally: Counter) -> None:
        try:
            code, out, err = run_cli(argv)
        except BaseException:
            tally["unexpected_exit"] += 1
            raise
        if code != expect_code:
            tally["unexpected_exit"] += 1
            raise GateFailure(f"exit code {code}, expected {expect_code}: {err.strip()[:200]}")
        gate(out, err)

    return op


def _summary(out: str) -> dict[str, str]:
    return dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)


def _gate_verify(out: str, err: str) -> None:
    check(out.rstrip().endswith("all checks passed"), "verify did not end with 'all checks passed'")


def _gate_solve(energy: float, count: int | None):
    def gate(out: str, err: str) -> None:
        summary = _summary(out)
        check_close("solve energy", float(summary["energy"]), energy, ENERGY_RTOL)
        if count is not None:
            check(int(summary["bound_state_count"]) == count,
                  f"bound_state_count {summary['bound_state_count']}, expected {count}")

    return gate


def _gate_sweep(csv_path: Path, first: list[bytes]):
    def gate(out: str, err: str) -> None:
        payload = csv_path.read_bytes()
        if not first:
            first.append(payload)
        check(payload == first[0], "sweep CSV bytes differ between repetitions")
        header, *rows = payload.decode().splitlines()
        cols = header.split(",")
        for row in rows:
            cell = dict(zip(cols, row.split(",")))
            resid = float(cell["closed_vs_oracle_resid"])
            check(resid <= SWEEP_RESIDUAL_MAX, f"sweep residual {resid:.3e} at N={cell['N']}")
            if float(cell["alpha"]) * float(cell["a"]) == 1.0:
                check(int(cell["count"]) == int(cell["N"]) + 1,
                      f"sweep count {cell['count']} at N={cell['N']}, alpha*a=1")

    return gate


def _gate_figure(out_dir: Path):
    def gate(out: str, err: str) -> None:
        for n in (1, 2, 3, 4):
            lines = (out_dir / f"crystal_psi_N{n}.csv").read_text().splitlines()
            check(len(lines) == SAMPLE_POINTS + 1, f"figure N={n}: {len(lines)} lines")

    return gate


def _gate_error_line(out: str, err: str) -> None:
    lines = err.splitlines()
    check(len(lines) == 1 and lines[0].startswith("error: "), f"expected one 'error:' line, got {err!r}")


def _write(path: Path, lines: list[str]) -> Path:
    path.write_text("\n".join(lines) + "\n")
    return path


def cli_commands(seed: int, workdir: Path) -> Workload:
    sheets = median_stack(random.Random(seed), CLI_SHEETS_K)
    total = math.fsum(s for _, s in sheets)
    pairs = ", ".join(f"{z!r}:{s!r}" for z, s in sheets)
    canonical = _write(workdir / "canonical.cfg", ["mode = canonical", "N = 8", "alpha = 1", "a = 1"])
    stack = _write(workdir / "sheets.cfg", ["mode = sheets", f"sheets = {pairs}"])
    quantum = _write(workdir / "quantum.cfg", ["mode = quantum", "deltas = -1:-1, 1:-1", "offsets = 0, -2, 0"])
    grid = _write(workdir / "sweep.cfg", ["N = 0..8", "alpha = 0.5, 1, 2", "a = 1"])
    malformed = _write(workdir / "malformed.cfg", ["mode = canonical", "N = eight", "alpha = 1", "a = 1"])
    sweep_csv = workdir / "sweep.csv"
    figures = workdir / "figures"

    ops = [
        ("verify-quick", _cli_op(["verify"], 0, _gate_verify)),
        ("verify-full", _cli_op(["verify", "--depth", "full"], 0, _gate_verify)),
        ("sweep", _cli_op(["sweep", "--config", str(grid), "--out", str(sweep_csv)], 0,
                          _gate_sweep(sweep_csv, []))),
        ("figure", _cli_op(["figure", "--out", str(figures)], 0, _gate_figure(figures))),
        ("solve-canonical", _cli_op(["solve", "--config", str(canonical), "--out", str(workdir / "c.csv")], 0,
                                    _gate_solve(-0.5, 9))),
        ("solve-sheets", _cli_op(["solve", "--config", str(stack), "--out", str(workdir / "s.csv")], 0,
                                 _gate_solve(-0.125 * total * total, None))),
        ("solve-quantum", _cli_op(["solve", "--config", str(quantum), "--out", str(workdir / "q.csv")], 0,
                                  _gate_solve(-2.0, None))),
        ("malformed-config", _cli_op(["solve", "--config", str(malformed)], 1, _gate_error_line)),
    ]
    inputs = {"seed": seed, "sheets_K": CLI_SHEETS_K, "gap": list(STACK_GAP), "density": list(STACK_DENSITY),
              "sheets_selection": "median wkb_state_estimate", "pool_per_stack": POOL_PER_STACK,
              "sweep": "N=0..8 x alpha={0.5,1,2}, a=1", "canonical_N": 8}
    return Workload("cli_commands", ops, inputs)


WORKLOADS = {
    "crystal_ladder": crystal_ladder,
    "map_large": map_large,
    "cli_commands": cli_commands,
}

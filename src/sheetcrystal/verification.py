"""Self-contained verification suite behind the ``verify`` CLI command.

Every check pits a closed form against an independent numerical route
(fixed-order Gauss-Legendre panels, the node-counting bound-state solver, or
brute-force lattice sums) and reports the measured residual next to its
pinned tolerance; residuals are combined with ``nan_max``, so a NaN
anywhere fails its row.  The norm quadrature and the figure samples take
:func:`closedform.psi` on one whole array of points each.  The core
integral's exponent stays the brute-force site sum: all 2N+1 terms at every
node, summed there exactly rounded; the distances are formed once for the
largest N of the table, and exact integer-limb prefix sums give every N's
sum at every node in one pass, each the bits of ``math.fsum``.  Every
exponential is ``math.exp`` over a list, never ``np.exp``, so each value
keeps the bits of a node-by-node loop.  Audit rows are
informational: they record measured facts (bound-state counts, the
deviation of the parity-factor variant of the norm formula) without
contributing to the pass/fail verdict.

Each configuration (the single deltas, the crystals, the two-sheet well,
the uneven stack) is solved once at the top of :func:`run_verification`,
and every section reads those results; only the determinism check solves
the crystals again, to compare.  The oracle serves many problems in one
search, so the battery makes two searches: every configuration, and the
determinism rerun of the crystals.  A single delta has one state, so its
full search gives the ground state a ``lowest=1`` search would.  This
module is the only implementation of the checks: the acceptance tests
assert on its rows and pinned tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import closedform, oracle
from .closedform import CrystalParams
from .duality import (
    DeltaPotentialProblem,
    GroundStateSolution,
    check_normalizable,
    ground_state_from_electrostatics,
    nan_max,
    schrodinger_residuals,
    to_quantum,
)
from .electrostatics import ElectrostaticSolution, SheetArray, potential_at_points, solve_sheets
from .units import UnitSystem, atomic_units

_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(32)


@dataclass(frozen=True)
class CheckRow:
    """One verified fact: measured residual against a pinned tolerance."""

    name: str
    residual: float
    tolerance: float
    passed: bool
    note: str = ""


def _check(name: str, residual: float, tolerance: float, holds: bool = True, note: str = "") -> CheckRow:
    """The row of a check that passes when ``holds`` and residual <= tolerance (so a NaN residual fails)."""
    return CheckRow(name, residual, tolerance, holds and residual <= tolerance, note)


@dataclass(frozen=True)
class AuditRow:
    """One recorded (not asserted) measurement."""

    name: str
    value: str


@dataclass
class VerificationReport:
    depth: str
    checks: list[CheckRow] = field(default_factory=list)
    audits: list[AuditRow] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(row.passed for row in self.checks)

    def format_table(self) -> str:
        lines = [f"verification depth: {self.depth}", ""]
        width = max(len(row.name) for row in self.checks)
        for row in self.checks:
            status = "PASS" if row.passed else "FAIL"
            line = f"[{status}] {row.name:<{width}}  residual {row.residual:.3e}  tol {row.tolerance:.1e}"
            if row.note:
                line += f"  ({row.note})"
            lines.append(line)
        if self.audits:
            lines.append("")
            lines.append("audits (recorded, not asserted):")
            for row in self.audits:
                lines.append(f"[AUDIT] {row.name}: {row.value}")
        lines.append("")
        verdict = "all checks passed" if self.all_passed else "CHECKS FAILED"
        lines.append(verdict)
        return "\n".join(lines)


def _gauss_panels(edges, panels) -> tuple[np.ndarray, list[float], list[int]]:
    """Node layout of a fixed-order Gauss-Legendre composite rule (deterministic).

    Covers the consecutive sub-intervals ``edges[i]..edges[i + 1]``,
    sub-interval ``i`` split into ``panels[i]`` equal panels of 32 nodes.
    The panels are laid out by one ``np.linspace`` over the sub-intervals of
    each distinct panel count, which gives each sub-interval the bits of its
    own ``linspace``.  Returns the nodes, one row of 32 per panel, each
    panel's half-width, and the panel index at which each sub-interval
    starts (with the total count appended), as :func:`_gauss_sum` reads them.
    """
    edges, panels = np.asarray(edges, dtype=float), np.asarray(panels)
    bounds = np.concatenate(([0], np.cumsum(panels)))
    mids, halves = np.empty((2, bounds[-1]))
    for count in np.unique(panels).tolist():
        rows = np.flatnonzero(panels == count)
        cuts = np.linspace(edges[rows], edges[rows + 1], count + 1, axis=1)
        slots = bounds[rows, None] + np.arange(count)
        mids[slots] = 0.5 * (cuts[:, :-1] + cuts[:, 1:])
        halves[slots] = 0.5 * (cuts[:, 1:] - cuts[:, :-1])
    return mids[:, None] + halves[:, None] * _GAUSS_NODES, halves.tolist(), bounds.tolist()


def _gauss_sum(values, halves: list[float], bounds: list[int]) -> float:
    """The composite rule over the node values of a :func:`_gauss_panels` layout.

    ``values`` holds the integrand at the nodes of the first
    ``bounds[-1]`` panels, in layout order.  The sum is rounded at three
    levels, each by ``math.fsum``: the weighted node values of a panel (then
    scaled by its half-width), the panels of a sub-interval, and the
    sub-intervals.
    """
    weighted = (_GAUSS_WEIGHTS * np.reshape(values, (-1, _GAUSS_NODES.size))).tolist()
    per_panel = [h * math.fsum(row) for h, row in zip(halves, weighted)]
    return math.fsum(math.fsum(per_panel[i:j]) for i, j in zip(bounds[:-1], bounds[1:]))


def _quad_psi_squared(p: CrystalParams) -> float:
    """Numerical norm of the crystal ground state, no antiderivatives used.

    :func:`closedform.psi` is called once, on every node; each value is
    squared by Python's ``** 2``, i.e. C ``pow``.  ``x * x`` (and numpy's
    square) differs from it in the last bit on about 0.08% of inputs
    (1 716 of 2 000 000 uniform in [0, 1), x86-64 glibc).
    """
    beta = p.decay_rate
    reach = p.N * p.a + 40.0 / beta
    cuts = [n * p.a for n in range(-p.N, p.N + 1)]
    edges = [-reach] + cuts + [reach]
    panels = [max(1, math.ceil((hi - lo) * beta / 2.0)) for lo, hi in zip(edges[:-1], edges[1:])]
    nodes, halves, bounds = _gauss_panels(edges, panels)
    return _gauss_sum([v**2 for v in closedform.psi(p, nodes).ravel().tolist()], halves, bounds)


def _exact_prefix_sums(rows: np.ndarray) -> np.ndarray:
    """Every prefix sum along the last axis, each bit-equal to ``math.fsum`` of its prefix.

    Each term t splits exactly into two limbs: ``hi``, t rounded to a
    multiple of 2**-26, and ``t - hi``, a multiple of 2**-74 when |t| >=
    2**-22.  Scaled to integers, each limb is summed by ``np.cumsum``,
    exactly while every partial sum stays below 2**53 (so for a row's sum of
    |t| below about 2**27 and at most 63 terms), and one IEEE addition of
    the two exact sums rounds their exact total to nearest even, as
    ``math.fsum`` does.  The row sums of |t| and the limbs themselves are
    checked: outside that range the call raises ``ValueError`` rather than
    return an inexact sum.
    """
    if (np.abs(rows).sum(-1) < 2.0**27).all():  # no NaN, no inf, no overflow below
        hi = np.round(rows * 2.0**26)
        limbs = np.stack([hi, (rows - hi / 2.0**26) * 2.0**74])
        # a sum of nonnegative floats reads below 2**53 only if every partial sum is exact
        if (limbs == np.round(limbs)).all() and (np.abs(limbs).sum(-1) < 2.0**53).all():
            sums = np.cumsum(limbs, axis=-1)
            return sums[0] / 2.0**26 + sums[1] / 2.0**74
    raise ValueError("the terms fall outside the range of exact limb sums")


def _quad_core_exponential(n_max: int, rates, a: float) -> dict[tuple[int, float], float]:
    """Numerical half-line core integral of the crystal norm, for every N <= n_max.

    Returns ``{(N, r): integral}`` for N = 1..n_max and every rate ``r`` in
    ``rates``.  The exponent is the brute-force site sum: all 2N+1 signed
    distances ``(-1)**n * |z +- n*a|`` at every node, summed there in two
    exactly rounded parts, so the check uses no lattice-sum identity and
    nothing from :mod:`closedform`.

    Cell k (k*a..(k+1)*a) has the same nodes for every N > k, and a node's
    n-th distance does not depend on N.  So the distances are formed once
    per panel count, for N = n_max, and :func:`_exact_prefix_sums` sums
    every prefix of every node's two rows in integer limbs, each to the
    bits of ``math.fsum``.  Rates that share a panel count share the node
    layout and the site sums; each rate takes the exponentials of every N
    in one ``math.exp`` map.
    """
    n = np.arange(n_max + 1)
    sign = 1.0 - 2.0 * (n % 2)  # (-1.0)**n, exactly
    offsets = n * a
    by_panels = {}
    for r in rates:
        by_panels.setdefault(max(1, math.ceil(abs(r) * a / 4.0)), []).append(r)
    table = {}
    for panels, group in by_panels.items():
        nodes, halves, bounds = _gauss_panels([k * a for k in range(n_max + 1)], [panels] * n_max)
        z = nodes.reshape(-1, 1)
        first = _exact_prefix_sums(sign * np.abs(z + offsets))
        second = _exact_prefix_sums(sign[1:] * np.abs(z - offsets[1:]))
        cell = panels * _GAUSS_NODES.size  # nodes per cell
        totals = np.concatenate([first[: N * cell, N] + second[: N * cell, N - 1] for N in range(1, n_max + 1)])
        values = {r: np.fromiter(map(math.exp, (-r * totals).tolist()), float, totals.size) for r in group}
        for N in range(1, n_max + 1):
            block = slice(cell * N * (N - 1) // 2, cell * N * (N + 1) // 2)  # after the nodes of 1..N-1
            for r in group:
                table[N, r] = _gauss_sum(values[r][block], halves, bounds[: N + 1])
    return table


def crystal_figure_samples(N: int, alpha_a: float, points: int = 2001) -> tuple[np.ndarray, np.ndarray]:
    """(z, psi) samples for one crystal panel: alpha = 1, a = alpha_a, atomic.

    The window is -(N+4)*a..(N+4)*a; a window whose width overflows is
    refused, since ``np.linspace`` would fill it with NaN.
    """
    if N < 1:
        raise ValueError(f"figure panels need N >= 1, got {N!r}")
    if points < 2:
        raise ValueError(f"need at least 2 sample points, got {points!r}")
    p = CrystalParams(N, 1.0, float(alpha_a), atomic_units())
    reach = (N + 4) * p.a
    if not math.isfinite(2.0 * reach):
        raise ValueError(f"figure window -(N+4)*a..(N+4)*a overflows at N = {N}, alpha_a = {p.a!r}")
    zs = np.linspace(-reach, reach, points)
    return zs, closedform.psi(p, zs)


class _Solved(NamedTuple):
    """One configuration solved once by every route the checks compare."""

    sol: ElectrostaticSolution
    problem: DeltaPotentialProblem
    found: oracle.BoundStateList
    dual: GroundStateSolution  # the map's ground state


def _solve_all(arrays: list[SheetArray], units: UnitSystem) -> list[_Solved]:
    """Every configuration by every route, with one oracle search for all of them."""
    sols = [solve_sheets(array, units) for array in arrays]
    problems = [to_quantum(sol, units) for sol in sols]
    duals = [ground_state_from_electrostatics(sol, units) for sol in sols]
    return list(map(_Solved, sols, problems, oracle.find_bound_states(problems), duals))


def run_verification(depth: str = "quick") -> VerificationReport:
    """Run every check at the given depth ('quick' or 'full')."""
    if depth not in ("quick", "full"):
        raise ValueError(f"depth must be 'quick' or 'full', got {depth!r}")
    full = depth == "full"
    n_max = 8 if full else 4
    identity_n_max = 20 if full else 4
    units = atomic_units()
    report = VerificationReport(depth=depth)
    checks = report.checks

    # -- every configuration, solved once -----------------------------------
    alphas = (0.5, 1.0, 2.0)
    params = [CrystalParams(n, 1.0, 1.0, units) for n in range(0, n_max + 1)]
    solved = _solve_all(
        [
            *(SheetArray([(0.0, 2.0 * alpha)]) for alpha in alphas),
            *(p.to_sheet_array() for p in params),
            SheetArray([(-1.0, 2.0), (1.0, 2.0)]),
            SheetArray([(-1.7, 2.2), (-0.3, -0.8), (0.9, 1.4)]),
        ],
        units,
    )
    singles, crystals, (two_sheet, uneven) = solved[: len(alphas)], solved[len(alphas) : -2], solved[-2:]

    # -- single attractive delta at three strengths ------------------------
    worst = 0.0
    for alpha, single in zip(alphas, singles):
        expected = -0.5 * alpha**2
        state = single.found.states[0]
        p = CrystalParams(0, alpha, 1.0, units)
        worst = nan_max(
            worst,
            abs(state.energy - expected),
            abs(closedform.ground_energy(p) - expected),
        )
    checks.append(_check("single_delta_ground_energy", worst, 1e-10))

    # -- energy independent of crystal size --------------------------------
    worst = 0.0
    for p, c in zip(params, crystals):
        worst = nan_max(
            worst,
            abs(c.found.states[0].energy + 0.5),
            abs(closedform.ground_energy(p) + 0.5),
        )
    checks.append(_check("crystal_energy_size_independence", worst, 1e-9))

    # -- normalization: closed form vs quadrature and vs the map path ------
    quad_norms = [_quad_psi_squared(p) for p in params]
    worst_quad = 0.0
    worst_map = 0.0
    for p, c, norm in zip(params, crystals, quad_norms):
        worst_quad = nan_max(worst_quad, abs(norm - 1.0))
        # |d log A| is |dA|/A to first order, so the tolerance reads as a relative one on A
        worst_map = nan_max(worst_map, abs(closedform.log_normalization_constant(p) - c.dual.log_norm_constant))
    checks.append(_check("norm_quadrature_equals_one", worst_quad, 1e-10))
    checks.append(_check("norm_constant_matches_map_path", worst_map, 1e-12))

    # -- expectation values vs the node-counting solver --------------------
    worst_match = 0.0
    worst_sum = 0.0
    for p, c in zip(params, crystals):
        state = c.found.states[0]
        u_closed = closedform.expectation_potential(p)
        t_closed = closedform.expectation_kinetic(p)
        u_num = oracle.expectation_potential_numeric(state.wavefunction, c.problem)
        t_num = oracle.expectation_kinetic_numeric(state.wavefunction, c.problem.units)
        worst_match = nan_max(worst_match, abs(u_closed - u_num), abs(t_closed - t_num))
        worst_sum = nan_max(worst_sum, abs(u_closed + t_closed - closedform.ground_energy(p)))
    worst_spot = nan_max(
        abs(closedform.expectation_potential(params[0]) + 1.0),
        abs(closedform.expectation_kinetic(params[0]) - 0.5),
    )
    checks.append(_check("expectations_match_solver", worst_match, 1e-10))
    checks.append(_check("expectation_spot_values", worst_spot, 1e-12))
    checks.append(_check("kinetic_plus_potential_is_energy", worst_sum, 1e-12))

    # -- two same-sign sheets: induced constant well -----------------------
    state_two = two_sheet.found.states[0]
    resid_two = abs(state_two.energy + 2.0)
    two = state_two.wavefunction
    flat = two.kinds[1] == "lin" and abs(two.c2s[1]) <= 1e-8 * abs(two.c1s[1])
    checks.append(
        _check(
            "two_sheet_well_ground_energy",
            resid_two,
            1e-8,
            holds=flat,
            note="interior segment constant" if flat else "interior segment NOT constant",
        )
    )

    # -- normalizability gate ----------------------------------------------
    gate_ok = True
    rejected = check_normalizable(solve_sheets(SheetArray([(0.0, -2.0)]), units))
    gate_ok &= (not rejected) and "decay" in rejected.reason
    zero_total = check_normalizable(solve_sheets(SheetArray([(-1.0, 1.0), (1.0, -1.0)]), units))
    gate_ok &= not zero_total
    for c in crystals:
        gate_ok &= bool(check_normalizable(c.sol))
    checks.append(_check("normalizability_gate", 0.0 if gate_ok else 1.0, 0.5))

    # -- lattice-sum identities --------------------------------------------
    worst_b5 = 0.0
    for n_sites in range(0, identity_n_max + 1):
        for site in range(-n_sites, n_sites + 1):
            lhs, rhs = closedform.identity_abs_sum(site, n_sites)
            worst_b5 = nan_max(worst_b5, abs(lhs - rhs))
    xs = np.linspace(-5.0, 5.0, 21)
    worst_exp = 0.0
    worst_sinh = 0.0
    for n_sites in range(0, identity_n_max + 1):
        for x in xs:
            lhs, rhs = closedform.identity_alternating_exp(n_sites, float(x))
            worst_exp = nan_max(worst_exp, abs(lhs - rhs) / max(1.0, abs(rhs)))
            if n_sites >= 1:
                lhs, rhs = closedform.identity_sinh_parity(n_sites, float(x))
                worst_sinh = nan_max(worst_sinh, abs(lhs - rhs) / max(1.0, abs(rhs)))
    checks.append(_check("identity_site_distance_sum", worst_b5, 0.5))
    checks.append(_check("identity_alternating_exp", worst_exp, 1e-13))
    checks.append(_check("identity_sinh_parity", worst_sinh, 1e-13))

    worst_core = 0.0
    rates = (-10.0, -2.0, -0.7, 0.5, 2.0, 10.0)
    core = _quad_core_exponential(identity_n_max, rates, 1.0)
    for n_sites in range(1, identity_n_max + 1):
        for r in rates:
            closed = closedform.segment_integral_closed(n_sites, r, 1.0)
            numeric = core[n_sites, r]
            worst_core = nan_max(worst_core, abs(closed - numeric) / max(1.0, abs(numeric)))
    checks.append(_check("core_integral_closed_vs_quadrature", worst_core, 1e-10))

    # -- boundary conditions on every solved configuration -----------------
    worst_cusp = 0.0
    worst_cont = 0.0
    worst_slope = 0.0
    for solved in (*crystals, two_sheet, uneven):
        sol = solved.sol
        # every sheet at once: a step h of a quarter of its narrower neighbouring gap (1.0 past an end)
        z, gaps = np.array(sol.breakpoints), np.diff(sol.breakpoints)
        h = 0.25 * np.minimum(np.append(1.0, gaps), np.append(gaps, 1.0))
        left, mid, right = potential_at_points(sol, [z - h, z, z + h])
        jumps = ((right - mid) / h - (mid - left) / h) + np.array(sol.densities) / units.eps0
        worst_slope = nan_max(worst_slope, *np.abs(jumps).tolist())
        for state in (solved.dual, *solved.found.states):
            rep = schrodinger_residuals(solved.problem, state.wavefunction, state.energy)
            worst_cusp = nan_max(worst_cusp, rep.cusp_residual)
            worst_cont = nan_max(worst_cont, rep.continuity_residual)
    checks.append(_check("wavefunction_continuity", worst_cont, 1e-12))
    checks.append(_check("delta_cusp_condition", worst_cusp, 1e-9))
    checks.append(_check("potential_slope_jump", worst_slope, 1e-12))

    # -- figure datasets ----------------------------------------------------
    worst_fig = 0.0
    spots = {1: (0.26940468350745844, 0.7323178556800845)}
    fig_ok = True
    for n in (1, 2, 3, 4):
        zs, vals = crystal_figure_samples(n, 1.0)
        fig_ok &= bool(np.all(vals > 0.0))
        fig_ok &= bool(np.allclose(vals, vals[::-1], rtol=0, atol=1e-12))
        tail = zs > n + 1
        rates = np.diff(np.log(vals[tail])) / np.diff(zs[tail])
        worst_fig = nan_max(worst_fig, float(np.max(np.abs(rates + 1.0))))
        if n in spots:
            center, peak = spots[n]
            worst_fig = nan_max(
                worst_fig,
                abs(closedform.psi(params[n], 0.0) - center),
                abs(closedform.psi(params[n], 1.0) - peak),
            )
    checks.append(
        _check("figure_datasets", worst_fig, 1e-6, holds=fig_ok, note="even, positive, unit tail decay, pinned peaks")
    )

    # -- audits -------------------------------------------------------------
    count_lines = []
    deterministic = True
    rerun = oracle.find_bound_states([c.problem for c in crystals])
    for n, (c, again) in enumerate(zip(crystals, rerun)):
        deterministic &= again.energies == c.found.energies
        count_lines.append(f"N={n}:{len(c.found)}")
    report.audits.append(
        AuditRow(
            "bound_state_count_per_N",
            " ".join(count_lines) + "  (states found by the oracle, alpha*a = 1)",
        )
    )
    checks.append(_check("bound_state_count_deterministic", 0.0 if deterministic else 1.0, 0.5))

    if full:
        worst_parity_dev = []
        for n in range(1, n_max + 1):
            beta = 1.0
            x = 1.0
            parity = 0.5 * (1.0 - (-1.0) ** n)
            a_parity = 1.0 / math.sqrt(
                (math.exp(-2.0 * n * x) + 2.0 * parity * math.exp(-(1 + 2 * n) * x) * math.sinh(x)) / beta
            )
            # A is a finite float at N <= 8, and the linear ratio keeps the row's printed digits
            a_quad = math.exp(closedform.log_normalization_constant(params[n])) / math.sqrt(quad_norms[n])
            worst_parity_dev.append(f"N={n}:{abs(a_parity - a_quad) / a_quad:.2e}")
        report.audits.append(
            AuditRow(
                "parity_factor_norm_variant_rel_deviation",
                " ".join(worst_parity_dev)
                + "  (the factor-N form matches quadrature; the parity-factor variant deviates for every N >= 2)",
            )
        )

    return report

"""End-to-end acceptance checks with pinned tolerances.

Each test measures one headline guarantee of the package, prints a single
PASS/FAIL line with the observed residual, and asserts it against the pinned
tolerance.  Expected values marked "pinned" were computed with the stated
independent route (quadrature, brute-force sums, or the node-counting
solver) and frozen here.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from sheetcrystal import (
    CanonicalCrystal,
    CrystalParams,
    DeltaPotentialProblem,
    SheetArray,
    atomic_units,
    check_normalizable,
    expectation_kinetic,
    expectation_kinetic_numeric,
    expectation_potential,
    expectation_potential_numeric,
    find_bound_states,
    ground_energy,
    ground_state,
    ground_state_from_electrostatics,
    identity_abs_sum,
    identity_alternating_exp,
    identity_sinh_parity,
    normalization_constant,
    potential_at,
    psi,
    schrodinger_residuals,
    segment_integral_closed,
    solve_sheets,
    to_quantum,
)
from sheetcrystal.cli import main as cli_main

UNITS = atomic_units()

# Pinned independently: exact segment integrals / delta-sampled sums.
A_N2 = 4.472609525974178
PSI_N1_CENTER = 0.26940468350745844
PSI_N1_PEAK = 0.7323178556800845


def _report(name: str, residual: float, tolerance: float) -> None:
    status = "PASS" if residual <= tolerance else "FAIL"
    print(f"[{status}] {name}: residual {residual:.3e} (tol {tolerance:.1e})")
    assert residual <= tolerance, f"{name}: {residual:.3e} > {tolerance:.1e}"


def _crystal_problem(n, alpha=1.0, a=1.0):
    sol = solve_sheets(CanonicalCrystal(n, 2.0 * alpha, a).to_sheet_array(), UNITS)
    return sol, to_quantum(sol, UNITS)


def test_single_delta_ground_state():
    worst = 0.0
    for alpha, expected in ((0.5, -0.125), (1.0, -0.5), (2.0, -2.0)):
        problem = DeltaPotentialProblem([(0.0, -alpha)], [0.0, 0.0], UNITS)
        worst = max(worst, abs(ground_state(problem).energy - expected))
        closed = ground_energy(CrystalParams(0, alpha, 1.0, UNITS))
        assert closed == expected  # closed form is exact
    _report("single_delta_ground_state", worst, 1e-10)


def test_energy_independent_of_crystal_size():
    worst = 0.0
    for n in range(0, 9):
        _, problem = _crystal_problem(n)
        worst = max(worst, abs(ground_state(problem).energy + 0.5))
        worst = max(worst, abs(ground_energy(CrystalParams(n, 1.0, 1.0, UNITS)) + 0.5))
    _report("energy_independent_of_crystal_size", worst, 1e-9)


def test_normalization_constants():
    worst = 0.0
    for n in range(0, 9):
        p = CrystalParams(n, 1.0, 1.0, UNITS)
        cuts = tuple(k * p.a for k in range(-n, n + 1))
        norm, _ = quad(
            lambda z: psi(p, z) ** 2, -(n + 40.0), n + 40.0, points=cuts, limit=600
        )
        worst = max(worst, abs(norm - 1.0))
    _report("psi_squared_integrates_to_one", worst, 1e-10)

    # the closed-form constant against the segment-exact map route
    worst_map = 0.0
    for n in range(0, 9):
        sol, _ = _crystal_problem(n)
        a_map = ground_state_from_electrostatics(sol, UNITS).norm_constant
        a_closed = normalization_constant(CrystalParams(n, 1.0, 1.0, UNITS))
        worst_map = max(worst_map, abs(a_closed - a_map) / a_map)
    _report("norm_constant_matches_exact_segment_quadrature", worst_map, 1e-12)

    pinned = abs(normalization_constant(CrystalParams(2, 1.0, 1.0, UNITS)) - A_N2)
    _report("norm_constant_pinned_value_n2", pinned, 1e-12)


def test_expectation_values():
    worst_pair = 0.0
    worst_sum = 0.0
    for n in range(0, 9):
        _, problem = _crystal_problem(n)
        state = ground_state(problem)
        p = CrystalParams(n, 1.0, 1.0, UNITS)
        u_closed, t_closed = expectation_potential(p), expectation_kinetic(p)
        worst_pair = max(
            worst_pair,
            abs(u_closed - expectation_potential_numeric(state.wavefunction, problem)),
            abs(t_closed - expectation_kinetic_numeric(state.wavefunction, UNITS)),
        )
        worst_sum = max(worst_sum, abs(u_closed + t_closed - ground_energy(p)))
    _report("expectations_match_solver_quadratures", worst_pair, 1e-10)
    _report("kinetic_plus_potential_equals_energy", worst_sum, 1e-12)

    # spot values; the n >= 1 means are pinned from the delta-sampled route
    spots = max(
        abs(expectation_potential(CrystalParams(0, 1.0, 1.0, UNITS)) + 1.0),
        abs(expectation_kinetic(CrystalParams(0, 1.0, 1.0, UNITS)) - 0.5),
        abs(expectation_potential(CrystalParams(1, 1.0, 1.0, UNITS)) + 1.0),
        abs(expectation_potential(CrystalParams(2, 1.0, 1.0, UNITS)) + 1.0),
    )
    _report("expectation_spot_values", spots, 1e-12)


def test_two_sheet_induced_well():
    sol = solve_sheets(SheetArray([(-1.0, 2.0), (1.0, 2.0)]), UNITS)
    problem = to_quantum(sol, UNITS)
    state = ground_state(problem)
    residual = abs(state.energy + 2.0)
    interior = state.wavefunction.segments[1]
    assert interior.kind == "lin" and abs(interior.c2) <= 1e-8 * abs(interior.c1)
    _report("two_sheet_induced_well_energy", residual, 1e-8)


def test_normalizability_gate():
    ok = True
    for sheets in ([(0.0, -2.0)], [(-1.0, 1.0), (1.0, -1.0)], [(-1.0, -2.0), (0.0, 2.0), (1.0, -2.0)]):
        verdict = check_normalizable(solve_sheets(SheetArray(sheets), UNITS))
        ok &= (not verdict.normalizable) and "decay" in verdict.reason
    for n in range(0, 9):
        sol, _ = _crystal_problem(n)
        ok &= check_normalizable(sol).normalizable
    _report("normalizability_gate", 0.0 if ok else 1.0, 0.0)


def test_lattice_identity_suite():
    worst_exact = 0
    for n in range(0, 21):
        for site in range(-n, n + 1):
            lhs, rhs = identity_abs_sum(site, n)
            worst_exact = max(worst_exact, abs(lhs - rhs))
    worst = 0.0
    for n in range(0, 21):
        for x in np.linspace(-5.0, 5.0, 21):
            lhs, rhs = identity_alternating_exp(n, float(x))
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
            if n >= 1:
                lhs, rhs = identity_sinh_parity(n, float(x))
                worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    _report("lattice_identities_brute_force_vs_closed", max(worst, float(worst_exact)), 1e-13)

    def core_quad(n, r, a):
        def exponent(z):
            first = math.fsum((-1.0) ** k * abs(z + k * a) for k in range(0, n + 1))
            second = math.fsum((-1.0) ** k * abs(z - k * a) for k in range(1, n + 1))
            return -r * (first + second)

        return math.fsum(
            quad(lambda z: math.exp(exponent(z)), k * a, (k + 1) * a, limit=100)[0]
            for k in range(n)
        )

    worst_core = 0.0
    for n in range(1, 21):
        for r in (-10.0, -2.0, 0.5, 2.0, 10.0):  # exponent arguments r/2 span [-5, 5]
            closed = segment_integral_closed(n, r, 1.0)
            numeric = core_quad(n, r, 1.0)
            worst_core = max(worst_core, abs(closed - numeric) / max(1.0, abs(numeric)))
    _report("core_integral_closed_vs_adaptive_quadrature", worst_core, 1e-10)


def test_boundary_conditions_everywhere():
    arrays = [CanonicalCrystal(n, 2.0, 1.0).to_sheet_array() for n in range(0, 9)]
    arrays.append(SheetArray([(-1.0, 2.0), (1.0, 2.0)]))
    arrays.append(SheetArray([(-1.7, 2.2), (-0.3, -0.8), (0.9, 1.4)]))
    worst_cont = worst_cusp = worst_slope = 0.0
    for array in arrays:
        sol = solve_sheets(array, UNITS)
        for i, (z, sigma) in enumerate(array.sheets):
            width_left = z - array.positions[i - 1] if i > 0 else 1.0
            width_right = array.positions[i + 1] - z if i + 1 < len(array.positions) else 1.0
            h = 0.25 * min(width_left, width_right)
            jump = (potential_at(sol, z + h) - potential_at(sol, z)) / h - (
                potential_at(sol, z) - potential_at(sol, z - h)
            ) / h
            worst_slope = max(worst_slope, abs(jump + sigma / UNITS.eps0))
        problem = to_quantum(sol, UNITS)
        states = [s for s in find_bound_states(problem)]
        if check_normalizable(sol):
            dual = ground_state_from_electrostatics(sol, UNITS)
            report = schrodinger_residuals(problem, dual.wavefunction, dual.energy)
            worst_cont = max(worst_cont, report.continuity_residual)
            worst_cusp = max(worst_cusp, report.cusp_residual)
        for state in states:
            report = schrodinger_residuals(problem, state.wavefunction, state.energy)
            worst_cont = max(worst_cont, report.continuity_residual)
            worst_cusp = max(worst_cusp, report.cusp_residual)
    _report("wavefunction_continuity", worst_cont, 1e-12)
    _report("delta_cusp_condition", worst_cusp, 1e-9)
    _report("potential_slope_jumps", worst_slope, 1e-12)


def test_figure_datasets(tmp_path, capsys):
    assert cli_main(["figure", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    worst = 0.0
    for n in (1, 2, 3, 4):
        lines = (tmp_path / f"crystal_psi_N{n}.csv").read_text().splitlines()
        data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        zs, vals = data[:, 0], data[:, 1]
        assert np.all(vals > 0.0)
        worst = max(worst, float(np.max(np.abs(vals - vals[::-1]))))  # even in z
        tail = zs > n + 1
        rates = np.diff(np.log(vals[tail])) / np.diff(zs[tail])
        worst = max(worst, float(np.max(np.abs(rates + 1.0))))  # unit decay rate
        # cusps exactly at the integer sites: slope magnitude is constant, and
        # its sign flips across every site
        p = CrystalParams(n, 1.0, 1.0, UNITS)
        for site in range(-n, n + 1):
            h = 1e-6
            jump = (psi(p, site + h) - 2.0 * psi(p, site * 1.0) + psi(p, site - h)) / h
            assert abs(jump) > 0.5 * psi(p, site * 1.0)  # genuine kink, not smooth
    lines = (tmp_path / "crystal_psi_N1.csv").read_text().splitlines()[1:]
    data1 = np.array([[float(v) for v in line.split(",")] for line in lines])
    zs, vals = data1[:, 0], data1[:, 1]
    worst = max(worst, abs(vals[np.argmin(np.abs(zs))] - PSI_N1_CENTER))
    worst = max(worst, abs(vals[np.argmin(np.abs(zs - 1.0))] - PSI_N1_PEAK))
    worst = max(worst, abs(vals[np.argmin(np.abs(zs + 1.0))] - PSI_N1_PEAK))
    _report("figure_datasets_shape_and_pinned_points", worst, 1e-6)


def test_bound_state_count_audit(capsys):
    counts = {}
    for n in range(0, 9):
        _, problem = _crystal_problem(n)
        first = find_bound_states(problem)
        second = find_bound_states(problem)
        assert first.energies == second.energies  # bit-identical reruns
        counts[n] = len(first)
        assert first.states[0].energy == pytest.approx(-0.5, abs=1e-9)
    table = " ".join(f"N={n}:{c}" for n, c in counts.items())
    print(f"[AUDIT] bound_state_count_per_N: {table} (single-bound-state claim audited, not asserted)")
    _report("bound_state_count_reported_deterministically", 0.0, 0.0)

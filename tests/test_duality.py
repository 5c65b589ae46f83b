import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from sheetcrystal import (
    AsymmetricAsymptoticFieldError,
    BreakpointMismatchError,
    CrystalParams,
    DeltaPotentialProblem,
    NotNormalizableError,
    SheetArray,
    UnitSystem,
    atomic_units,
    check_normalizable,
    ground_state_from_electrostatics,
    potential_at,
    schrodinger_residuals,
    solve_sheets,
    to_quantum,
)

# Pinned from the exact segment integral (cross-checked by quadrature below).
A_N1 = 1.9906463197512672


def _solution(sheets, units):
    return solve_sheets(SheetArray(sheets), units)


# ---------------------------------------------------------------------------
# to_quantum
# ---------------------------------------------------------------------------


def test_single_sheet_maps_to_attractive_delta(atomic):
    prob = to_quantum(_solution([(0.0, 2.0)], atomic), atomic)
    assert prob.deltas == ((0.0, -1.0),)
    assert prob.region_offsets == (0.0, 0.0)


def test_two_sheet_map_induces_interior_well(atomic):
    prob = to_quantum(_solution([(-1.0, 2.0), (1.0, 2.0)], atomic), atomic)
    assert prob.deltas == ((-1.0, -1.0), (1.0, -1.0))
    assert prob.region_offsets == (0.0, -2.0, 0.0)


def test_crystal_map_strength_pattern(atomic):
    sol = solve_sheets(CrystalParams(2, 1.0, 1.0, atomic).to_sheet_array(), atomic)
    prob = to_quantum(sol, atomic)
    assert prob.positions == (-2.0, -1.0, 0.0, 1.0, 2.0)
    assert prob.strengths == (-1.0, 1.0, -1.0, 1.0, -1.0)
    assert prob.region_offsets == (0.0,) * 6


def test_problem_accessors_are_computed_once(atomic):
    prob = DeltaPotentialProblem([(-1.0, -1.0), (1.0, 0.5)], [0.0, -2.0, 0.0], atomic)
    fresh = DeltaPotentialProblem([(-1.0, -1.0), (1.0, 0.5)], [0.0, -2.0, 0.0], atomic)
    assert prob.positions is prob.positions == (-1.0, 1.0)
    assert prob.strengths is prob.strengths == (-1.0, 0.5)
    # the cached tuples are not fields: equality, hashing and repr ignore them
    assert prob == fresh and hash(prob) == hash(fresh) and repr(prob) == repr(fresh)
    assert prob != DeltaPotentialProblem([(-1.0, -1.0), (1.0, 0.5)], [0.0, -1.0, 0.0], atomic)
    assert [f.name for f in dataclasses.fields(prob)] == ["deltas", "region_offsets", "units"]


def test_asymmetric_end_fields_rejected(atomic):
    sol = _solution([(0.0, 2.0)], atomic)
    doctored = dataclasses.replace(sol, region_fields=(-1.0, 2.0), E_inf=2.0)
    with pytest.raises(AsymmetricAsymptoticFieldError):
        to_quantum(doctored, atomic)


# ---------------------------------------------------------------------------
# check_normalizable
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", range(0, 9))
def test_crystals_are_normalizable(n, atomic):
    sol = solve_sheets(CrystalParams(n, 1.0, 1.0, atomic).to_sheet_array(), atomic)
    verdict = check_normalizable(sol)
    assert verdict
    assert verdict.normalizable


def test_negative_sheet_not_normalizable(atomic):
    verdict = check_normalizable(_solution([(0.0, -2.0)], atomic))
    assert not verdict
    assert "-inf" in verdict.reason and "+inf" in verdict.reason
    assert "decay" in verdict.reason


def test_zero_total_density_not_normalizable(atomic):
    verdict = check_normalizable(_solution([(-1.0, 1.0), (1.0, -1.0)], atomic))
    assert not verdict
    assert "decay" in verdict.reason


def test_alternating_with_negative_outer_sheets_rejected(atomic):
    # odd sheet count, alternating, negative at both ends: total density < 0
    sheets = [(-1.0, -2.0), (0.0, 2.0), (1.0, -2.0)]
    verdict = check_normalizable(_solution(sheets, atomic))
    assert not verdict
    assert "decay" in verdict.reason


# ---------------------------------------------------------------------------
# ground_state_from_electrostatics
# ---------------------------------------------------------------------------


def test_single_sheet_ground_state(atomic):
    gs = ground_state_from_electrostatics(_solution([(0.0, 2.0)], atomic), atomic)
    assert gs.energy == -0.5
    assert gs.log_norm_constant == pytest.approx(0.0, abs=1e-15)  # A = 1
    for z in (-2.0, -0.5, 0.0, 0.7, 3.0):
        assert gs.wavefunction.value(z) == pytest.approx(math.exp(-abs(z)), rel=1e-14)


def test_crystal_n1_ground_state(atomic):
    sol = solve_sheets(CrystalParams(1, 1.0, 1.0, atomic).to_sheet_array(), atomic)
    gs = ground_state_from_electrostatics(sol, atomic)
    assert gs.energy == -0.5
    # |d log A| = |dA|/A to first order: abs 1e-14 on log A is rel 1e-14 on A
    assert gs.log_norm_constant == pytest.approx(math.log(A_N1), abs=1e-14)
    assert gs.wavefunction.value(0.0) == pytest.approx(A_N1 * math.exp(-2.0), rel=1e-14)
    assert gs.wavefunction.value(1.0) == pytest.approx(A_N1 * math.exp(-1.0), rel=1e-14)
    assert gs.wavefunction.value(-1.0) == pytest.approx(A_N1 * math.exp(-1.0), rel=1e-14)
    norm, _ = quad(lambda z: gs.wavefunction.value(z) ** 2, -40.0, 40.0, points=(-1, 0, 1), limit=400)
    assert norm == pytest.approx(1.0, abs=1e-10)


def test_two_sheet_ground_state(atomic):
    sol = _solution([(-1.0, 2.0), (1.0, 2.0)], atomic)
    gs = ground_state_from_electrostatics(sol, atomic)
    assert gs.energy == -2.0
    psi = gs.wavefunction
    assert psi.kinds[1] == "lin" and psi.c2s[1] == 0.0
    assert gs.wavefunction.derivative(2.0) == pytest.approx(
        -2.0 * gs.wavefunction.value(2.0), rel=1e-13
    )
    assert gs.wavefunction.derivative(-2.0) == pytest.approx(
        2.0 * gs.wavefunction.value(-2.0), rel=1e-13
    )


def test_not_normalizable_raises(atomic):
    with pytest.raises(NotNormalizableError, match="decay"):
        ground_state_from_electrostatics(_solution([(0.0, -2.0)], atomic), atomic)


def test_ground_state_propagates_asymmetric_field_error(atomic):
    sol = _solution([(0.0, 2.0)], atomic)
    doctored = dataclasses.replace(sol, region_fields=(-1.0, 2.0))
    with pytest.raises(AsymmetricAsymptoticFieldError):
        ground_state_from_electrostatics(doctored, atomic)


# ---------------------------------------------------------------------------
# residual verification
# ---------------------------------------------------------------------------


def test_single_delta_residuals_vanish(atomic):
    sol = _solution([(0.0, 2.0)], atomic)
    gs = ground_state_from_electrostatics(sol, atomic)
    report = schrodinger_residuals(to_quantum(sol, atomic), gs.wavefunction, gs.energy)
    assert report.max_residual() < 1e-12


def test_crystal_cusp_signs_and_residuals(atomic):
    sol = solve_sheets(CrystalParams(1, 1.0, 1.0, atomic).to_sheet_array(), atomic)
    prob = to_quantum(sol, atomic)
    gs = ground_state_from_electrostatics(sol, atomic)
    report = schrodinger_residuals(prob, gs.wavefunction, gs.energy)
    assert report.cusp_residual < 1e-12
    psi = gs.wavefunction
    jumps = [
        psi.derivative(z, side="right") - psi.derivative(z, side="left") for z in (-1.0, 0.0, 1.0)
    ]
    # attractive, repulsive, attractive: slope jumps -2 psi, +2 psi, -2 psi
    assert jumps[0] == pytest.approx(-2.0 * psi.value(-1.0), rel=1e-13)
    assert jumps[1] == pytest.approx(+2.0 * psi.value(0.0), rel=1e-13)
    assert jumps[2] == pytest.approx(-2.0 * psi.value(1.0), rel=1e-13)


def test_two_sheet_interior_region_relation(atomic):
    sol = _solution([(-1.0, 2.0), (1.0, 2.0)], atomic)
    prob = to_quantum(sol, atomic)
    gs = ground_state_from_electrostatics(sol, atomic)
    assert prob.region_offsets[1] == gs.energy  # flat region: U equals E exactly
    assert schrodinger_residuals(prob, gs.wavefunction, gs.energy).region_residual == 0.0


def test_nan_energy_cannot_pass_the_residuals(atomic):
    # the builtin max drops a NaN unless it comes first: max(0.0, nan) is 0.0
    sol = _solution([(-1.0, 2.0), (1.0, 2.0)], atomic)
    gs = ground_state_from_electrostatics(sol, atomic)
    report = schrodinger_residuals(to_quantum(sol, atomic), gs.wavefunction, math.nan)
    assert math.isnan(report.region_residual)
    assert math.isnan(report.max_residual())
    assert math.isnan(dataclasses.replace(report, region_residual=0.0, cusp_residual=math.nan).max_residual())


def test_breakpoint_mismatch_detected(atomic):
    sol_a = _solution([(0.0, 2.0)], atomic)
    sol_b = _solution([(0.5, 2.0)], atomic)
    state = ground_state_from_electrostatics(sol_a, atomic)
    with pytest.raises(BreakpointMismatchError):
        schrodinger_residuals(to_quantum(sol_b, atomic), state.wavefunction, state.energy)


# ---------------------------------------------------------------------------
# map-level invariants
# ---------------------------------------------------------------------------

sheet_lists = st.lists(
    st.tuples(
        st.floats(min_value=-4.0, max_value=4.0),
        st.floats(min_value=-2.0, max_value=2.5),
    ),
    min_size=1,
    max_size=5,
).filter(
    lambda sheets: all(
        b[0] - a[0] > 5e-2 for a, b in zip(sorted(sheets), sorted(sheets)[1:])
    )
    and sum(s for _, s in sheets) > 0.1
)


@given(sheet_lists)
@settings(max_examples=50, deadline=None)
def test_round_trip_residuals_for_random_arrays(sheets):
    atomic = atomic_units()
    sol = solve_sheets(SheetArray(sorted(sheets)), atomic)
    prob = to_quantum(sol, atomic)
    gs = ground_state_from_electrostatics(sol, atomic)
    assert schrodinger_residuals(prob, gs.wavefunction, gs.energy).max_residual() < 1e-10


@given(sheet_lists)
@settings(max_examples=30, deadline=None)
def test_log_of_state_reproduces_potential(sheets):
    atomic = atomic_units()
    sol = solve_sheets(SheetArray(sorted(sheets)), atomic)
    gs = ground_state_from_electrostatics(sol, atomic)
    for z in np.linspace(-6.0, 6.0, 25):
        expected = potential_at(sol, float(z))
        recovered = atomic.V0 * (math.log(gs.wavefunction.value(float(z))) - gs.log_norm_constant)
        assert recovered == pytest.approx(expected, abs=1e-12)


def test_energy_is_minus_asymptotic_energy_density(atomic):
    sol = _solution([(-0.7, 1.0), (0.4, 2.0)], atomic)
    gs = ground_state_from_electrostatics(sol, atomic)
    assert gs.energy == -(0.5 * atomic.eps0 * sol.region_fields[-1] ** 2)


def test_gauge_shift_leaves_normalized_state_unchanged(atomic):
    sol = _solution([(-1.0, 2.0), (0.5, 1.0)], atomic)
    shifted = dataclasses.replace(
        sol, potential_values=tuple(v + 3.7 for v in sol.potential_values)
    )
    gs = ground_state_from_electrostatics(sol, atomic)
    gs_shifted = ground_state_from_electrostatics(shifted, atomic)
    assert gs_shifted.energy == gs.energy
    for z in np.linspace(-5.0, 5.0, 41):
        assert gs_shifted.wavefunction.value(float(z)) == pytest.approx(
            gs.wavefunction.value(float(z)), rel=1e-12
        )


def test_round_trip_in_consistent_scaled_units():
    u = UnitSystem(hbar=2.0, mass=0.5, eps0=4.0, V0=4.0, a0=0.5)
    sol = solve_sheets(SheetArray([(-1.3, 1.0), (0.2, -0.4), (2.0, 1.7)]), u)
    gs = ground_state_from_electrostatics(sol, u)
    prob = to_quantum(sol, u)
    assert schrodinger_residuals(prob, gs.wavefunction, gs.energy).max_residual() < 1e-10
    assert gs.wavefunction.norm_squared() == pytest.approx(1.0, abs=1e-12)
    assert gs.energy == -0.5 * u.eps0 * sol.E_inf**2 * u.a0**3


# ---------------------------------------------------------------------------
# DeltaPotentialProblem validation
# ---------------------------------------------------------------------------


def test_problem_requires_zero_end_offsets(atomic):
    with pytest.raises(ValueError, match="asymptotic"):
        DeltaPotentialProblem([(0.0, -1.0)], [0.1, 0.0], atomic)


def test_problem_requires_matching_offset_count(atomic):
    with pytest.raises(ValueError, match="offsets"):
        DeltaPotentialProblem([(0.0, -1.0)], [0.0, 0.0, 0.0], atomic)


def test_problem_requires_increasing_positions(atomic):
    with pytest.raises(ValueError, match="increasing"):
        DeltaPotentialProblem([(1.0, -1.0), (0.0, -1.0)], [0.0, 0.0, 0.0], atomic)


def test_problem_rejects_an_overflowing_gap(atomic):
    # both positions are finite, their distance is not
    with pytest.raises(ValueError, match=r"delta positions -1\.7e\+308 and 1\.7e\+308 exceeds the float range"):
        DeltaPotentialProblem([(-1.7e308, -1.0), (1.7e308, -1.0)], [0.0, 0.0, 0.0], atomic)


@pytest.mark.parametrize(
    "deltas,offsets,message",
    [
        ([], [0.0], "a DeltaPotentialProblem needs at least one delta"),
        ([(math.nan, -1.0)], [0.0, 0.0], "positions and strengths must be finite, got (nan, -1.0)"),
        ([(0.0, -math.inf)], [0.0, 0.0], "positions and strengths must be finite, got (0.0, -inf)"),
        ([(0.0, -1.0), (1.0, -1.0)], [0.0, math.inf, 0.0], "region offsets must be finite"),
    ],
    ids=["no-delta", "nan-position", "infinite-strength", "infinite-offset"],
)
def test_problem_rejects_missing_or_non_finite_input(deltas, offsets, message, atomic):
    with pytest.raises(ValueError) as caught:
        DeltaPotentialProblem(deltas, offsets, atomic)
    assert str(caught.value) == message


def test_schrodinger_residuals_accepts_excited_states(atomic):
    # an arbitrary (wrong) energy must yield a nonzero region residual, not an error
    sol = _solution([(0.0, 2.0)], atomic)
    prob = to_quantum(sol, atomic)
    gs = ground_state_from_electrostatics(sol, atomic)
    report = schrodinger_residuals(prob, gs.wavefunction, gs.energy + 0.25)
    assert report.region_residual == pytest.approx(0.25, rel=1e-12)

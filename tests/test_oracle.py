import dataclasses
import itertools
import math

import numpy as np
import pytest

from sheetcrystal import (
    BreakpointMismatchError,
    CrystalParams,
    DeltaPotentialProblem,
    NoBoundStatesError,
    SheetArray,
    UnitSystem,
    atomic_units,
    expectation_kinetic_numeric,
    expectation_potential_numeric,
    find_bound_states,
    ground_state,
    psi,
    schrodinger_residuals,
    solve_sheets,
    to_quantum,
)
from sheetcrystal import oracle
from sheetcrystal.wavefunction import PiecewiseExpWavefunction


def _crystal_problem(n, alpha=1.0, a=1.0):
    units = atomic_units()
    return to_quantum(solve_sheets(CrystalParams(n, alpha, a, units).to_sheet_array(), units), units)


def _two_sheet_problem(units=None):
    units = units or atomic_units()
    return to_quantum(solve_sheets(SheetArray([(-1.0, 2.0), (1.0, 2.0)]), units), units)


def _pass(problem, kappas):
    """One pass over ``problem`` alone: a chain of one problem, every column on it."""
    kappas = np.asarray(kappas, dtype=float)
    return oracle._transfer(oracle._chain([problem]), kappas, np.zeros(kappas.shape, dtype=int))


def _odd_state_rate_n1():
    """Independent root of the odd-parity matching condition k = 1 - exp(-2k)."""
    lo, hi = 0.5, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 1.0 - math.exp(-2.0 * mid) - mid > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# single delta
# ---------------------------------------------------------------------------


def test_single_delta_has_exactly_one_state(atomic):
    problem = DeltaPotentialProblem([(0.0, -1.0)], [0.0, 0.0], atomic)
    found = find_bound_states(problem)
    assert len(found) == 1
    state = found.states[0]
    assert state.energy == pytest.approx(-0.5, abs=1e-10)
    assert state.kappa == pytest.approx(1.0, abs=1e-10)
    assert state.wavefunction.value(0.0) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_single_delta_energy_scales_with_strength(alpha, atomic):
    problem = DeltaPotentialProblem([(0.0, -alpha)], [0.0, 0.0], atomic)
    state = ground_state(problem)
    assert state.energy == pytest.approx(-0.5 * alpha**2, abs=1e-10)


def test_repulsive_delta_binds_nothing(atomic):
    problem = DeltaPotentialProblem([(0.0, 1.0)], [0.0, 0.0], atomic)
    assert len(find_bound_states(problem)) == 0
    with pytest.raises(NoBoundStatesError):
        ground_state(problem)


# ---------------------------------------------------------------------------
# two-sheet dual problem (deltas plus induced interior well)
# ---------------------------------------------------------------------------


def test_two_sheet_ground_state(atomic):
    found = find_bound_states(_two_sheet_problem())
    state = found.states[0]
    assert state.energy == pytest.approx(-2.0, abs=1e-8)
    psi = state.wavefunction
    assert psi.kinds[1] == "lin"
    assert abs(psi.c2s[1]) <= 1e-8 * abs(psi.c1s[1])  # constant inner segment


def test_two_sheet_spectrum_and_energy_balance(atomic):
    problem = _two_sheet_problem()
    found = find_bound_states(problem)
    assert len(found) == 2
    assert found.energies[0] == pytest.approx(-2.0, abs=1e-8)
    assert found.energies[1] == pytest.approx(-1.2345587154263338, abs=1e-8)
    for state in found:
        u_mean = expectation_potential_numeric(state.wavefunction, problem)
        t_mean = expectation_kinetic_numeric(state.wavefunction, atomic)
        assert u_mean + t_mean == pytest.approx(state.energy, abs=1e-9)


# ---------------------------------------------------------------------------
# crystals
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [*range(0, 6), 8, 50])
def test_crystal_lowest_state_energy(n, atomic):
    state = ground_state(_crystal_problem(n))
    assert state.energy == pytest.approx(-0.5, abs=1e-9)
    assert state.kappa == 1.0  # the band edge at alpha*a = 1 is hit exactly


def test_crystal_n1_excited_state_matches_independent_root(atomic):
    found = find_bound_states(_crystal_problem(1))
    assert len(found) == 2
    kappa_expected = _odd_state_rate_n1()
    assert found.states[1].kappa == pytest.approx(kappa_expected, abs=1e-9)
    assert found.states[1].energy == pytest.approx(-0.5 * kappa_expected**2, abs=1e-9)


def test_crystal_ground_state_matches_closed_form_pointwise(atomic):
    state = ground_state(_crystal_problem(2))
    params = CrystalParams(2, 1.0, 1.0, atomic)
    zs = np.linspace(-5.0, 5.0, 200)
    worst = max(abs(psi(params, float(z)) - state.wavefunction.value(float(z))) for z in zs)
    assert worst < 1e-8


def test_crystal_counts_are_n_plus_one_at_unit_spacing(atomic):
    # at alpha*a = 1 the N + 1 states bunch into a band that narrows as N grows
    for n in [*range(0, 9), 20, 50, 100]:
        found = find_bound_states(_crystal_problem(n))
        assert len(found) == found.metadata.state_count == n + 1, n
        assert not found.metadata.unresolved


def test_all_states_satisfy_matching_conditions(atomic):
    for problem in (_crystal_problem(3), _two_sheet_problem()):
        found = find_bound_states(problem)
        previous = -math.inf
        for state in found:
            assert state.energy > previous  # strictly ascending
            previous = state.energy
            assert state.energy < 0.0
            report = schrodinger_residuals(problem, state.wavefunction, state.energy)
            assert report.continuity_residual < 1e-12
            assert report.cusp_residual < 1e-9
            assert state.wavefunction.norm_squared() == pytest.approx(1.0, abs=1e-10)


def test_scan_is_deterministic(atomic):
    problem = _crystal_problem(2)
    first = find_bound_states(problem)
    second = find_bound_states(problem)
    assert first.energies == second.energies
    assert [s.kappa for s in first] == [s.kappa for s in second]


def test_scan_metadata_contents(atomic):
    found = find_bound_states(_crystal_problem(1))
    meta = found.metadata
    assert [f.name for f in dataclasses.fields(meta)] == ["kappa_max", "state_count", "unresolved"]
    assert meta.kappa_max == 8.0
    assert meta.state_count == len(found) == 2
    assert meta.unresolved == ()


def test_scan_parameter_validation(atomic):
    # on a crystal with states to return, a fractional or bool count is rejected, not read as a count
    crystal = _crystal_problem(4)
    for lowest in (2.5, True, False):
        with pytest.raises(ValueError, match="lowest must be an integer"):
            find_bound_states(crystal, lowest=lowest)
    assert len(find_bound_states(crystal, lowest=np.int64(2))) == 2


def test_far_apart_doublet_is_resolved(atomic):
    # the two wells 12 apart split into kappa = 1 +- exp(-2*kappa*6), 1.2e-5
    # apart, next to a lone state at kappa = 1.3
    problem = DeltaPotentialProblem([(-6.0, -1.0), (6.0, -1.0), (24.0, -1.3)], [0.0] * 4, atomic)
    found = find_bound_states(problem)
    assert len(found) == found.metadata.state_count == 3
    assert found.states[0].kappa == pytest.approx(1.3, abs=1e-9)
    for sign, state in zip((1.0, -1.0), found.states[1:]):
        kappa = 1.0
        for _ in range(50):
            kappa = 1.0 + sign * math.exp(-12.0 * kappa)
        assert state.kappa == pytest.approx(kappa, abs=1e-9)


def test_count_is_taken_just_above_threshold(atomic):
    # N = 4 at alpha*a = 0.5: the kappa = 0 solution ends flat, so the tail
    # sign there says nothing; the count at 0+ sees both states
    problem = _crystal_problem(4, alpha=0.5)
    assert _pass(problem, [0.0]).tail[0] == 0.0
    found = find_bound_states(problem)
    assert len(found) == found.metadata.state_count == 2
    assert [s.kappa for s in found] == pytest.approx([0.5, 0.4220863645701952], abs=1e-9)


def test_unsplittable_cluster_is_returned_and_flagged(atomic):
    # the wells 60 apart split into kappa = 1 +- exp(-60), ~9e-27 apart, far
    # below the float spacing at kappa = 1: the grid point kappa = 1 closes
    # one state's interval, the other's stops splitting still holding both
    # states, and comes back at its midpoint and listed
    problem = DeltaPotentialProblem([(-30.0, -1.0), (30.0, -1.0)], [0.0] * 3, atomic)
    found = find_bound_states(problem)
    meta = found.metadata
    assert len(found) == meta.state_count == 2
    assert len(meta.unresolved) == 1
    lo, hi = meta.unresolved[0]
    assert 0.0 < hi - lo <= oracle.DEFAULT_BISECTION_TOL
    assert lo < 1.0 <= hi
    assert found.states[0].kappa == 1.0
    assert found.states[1].kappa == 0.5 * (lo + hi)


def _record_transfers(monkeypatch):
    calls = []
    real = oracle._transfer

    def recorded(chain, kappas, which):
        calls.append(np.asarray(kappas).tolist())
        return real(chain, kappas, which)

    monkeypatch.setattr(oracle, "_transfer", recorded)
    return calls


@pytest.mark.parametrize("n", [8, 50, 100])
def test_transfer_passes_per_solve_are_bounded(n, atomic, monkeypatch):
    # the counting pass on the grid, the isolating bisection passes, a few
    # Illinois passes once every state is isolated, and the reconstruction:
    # 15 to 24 passes whatever N, where refining the roots one at a time
    # would grow with N
    calls = _record_transfers(monkeypatch)
    found = find_bound_states(_crystal_problem(n))
    assert len(found) == n + 1
    assert len(calls) <= 26


def test_illinois_point_falls_back_to_the_midpoint(atomic, monkeypatch):
    # two deltas 1e-100 apart of strengths -1e100 and -0.37e100 bind one
    # state near kappa = 1.06e100, where the float spacing (~1e84) dwarfs
    # tol/2: a regula falsi point next to the root rounds onto an end of the
    # bracket, and the step bisects instead; the test follows the bracket
    # from the recorded tail signs to count those steps, and no pass may
    # warn (warnings are errors here)
    s = 1e100
    problem = DeltaPotentialProblem([(0.0, -s), (1.0 / s, -0.37 * s)], [0.0] * 3, atomic)
    passes = []
    real = oracle._transfer

    def recorded(chain, kappas, which):
        path = real(chain, kappas, which)
        passes.append((np.asarray(kappas).tolist(), path.tail.tolist(), path.nodes.tolist()))
        return path

    monkeypatch.setattr(oracle, "_transfer", recorded)
    found = find_bound_states(problem)
    assert len(found) == found.metadata.state_count == 1
    # the state's grid cell, then one step per pass until the pass at the root
    grid, tails, nodes = passes[0]
    k = max(i for i, n in enumerate(nodes) if n >= 1)
    lo, hi, tail_lo = grid[k], grid[k + 1], tails[k]
    midpoints = 0
    for (point,), (tail,), _ in passes[1:-1]:
        midpoints += point == 0.5 * (lo + hi)
        if (tail < 0.0) == (tail_lo < 0.0):
            lo, tail_lo = point, tail
        else:
            hi = point
    assert midpoints == 26
    assert passes[-1][0] == [found.states[0].kappa] == [0.5 * (lo + hi)]


def test_kappa_max_below_tol_finds_nothing(atomic, monkeypatch):
    # the delta g = -1e-15 binds kappa = 1e-15, and its cap 8e-15 is below
    # tol: the grid is held at tol, so it stays sorted and no bracket opens
    problem = DeltaPotentialProblem([(0.0, -1e-15)], [0.0, 0.0], atomic)
    calls = _record_transfers(monkeypatch)
    found = find_bound_states(problem)
    assert found.metadata.kappa_max == 8e-15
    assert calls[0] == [1e-13] * (oracle.GRID + 1)
    assert len(found) == found.metadata.state_count == 0
    assert found.metadata.unresolved == ()


def _transfer_reference(problem, kappas):
    """The pass as a per-region loop: every quantity computed region by region.

    Returns the tail coefficient, the node count, one (exp_mask, osc_mask,
    rate, phase, psi, dpsi, renorm) tuple per region and the pair after the
    last site.
    """
    units = problem.units
    half_h2_over_m = 0.5 * units.hbar**2 / units.mass
    jump_scale = 2.0 * units.mass / units.hbar**2
    positions = problem.positions
    offsets = problem.region_offsets

    energies = -half_h2_over_m * kappas**2
    energy_scale = np.maximum(1.0, np.abs(energies))
    psi = np.ones_like(kappas)
    dpsi = kappas.copy()
    nodes = np.zeros_like(kappas)
    regions = []

    for i, g in enumerate(problem.strengths):
        dpsi = dpsi + jump_scale * g * psi
        if i == len(positions) - 1:
            break
        width = positions[i + 1] - positions[i]
        offset = offsets[i + 1]
        d = offset - energies
        switch = oracle.REGIME_SWITCH_RTOL * np.maximum(energy_scale, abs(offset))
        exp_mask = d > switch
        osc_mask = d < -switch
        rate = np.sqrt(np.where(exp_mask | osc_mask, np.abs(d / half_h2_over_m), 1.0))
        phase = rate * width
        damp = np.exp(-2.0 * phase)
        ch = 0.5 * (1.0 + damp)
        sh = 0.5 * (1.0 - damp)
        cos_w = np.cos(phase)
        sin_w = np.sin(phase)
        diag = np.where(exp_mask, ch, np.where(osc_mask, cos_w, 1.0))
        up = np.where(exp_mask, sh, np.where(osc_mask, sin_w, phase)) / rate
        down = rate * np.where(exp_mask, sh, np.where(osc_mask, -sin_w, 0.0))
        psi_new = diag * psi + up * dpsi
        dpsi_new = down * psi + diag * dpsi

        theta = np.arctan2(psi, dpsi / rate)
        turns = np.floor((theta + phase) / math.pi) - np.floor(theta / math.pi)
        nodes += np.where(osc_mask, turns, (psi < 0.0) != (psi_new < 0.0))

        renorm = np.maximum(np.abs(psi_new), np.abs(dpsi_new))
        renorm = np.where(renorm > 0.0, renorm, 1.0)
        regions.append((exp_mask, osc_mask, rate, phase, psi, dpsi, renorm))
        psi = psi_new / renorm
        dpsi = dpsi_new / renorm

    tail = dpsi + kappas * psi
    nodes += (tail < 0.0) != (psi < 0.0)
    return tail, nodes.astype(np.int64), regions, psi, dpsi


def _random_stack_problem(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 25))
    positions = np.cumsum(rng.uniform(0.2, 2.0, k))
    while True:
        densities = rng.uniform(-3.0, 3.0, k)
        if densities.sum() > 0.0:
            break
    units = atomic_units()
    sheets = SheetArray(list(zip(positions.tolist(), densities.tolist())))
    return to_quantum(solve_sheets(sheets, units), units)


_RTOL = oracle.REGIME_SWITCH_RTOL
_REFERENCE_PROBLEMS = {
    **{f"crystal-{n}": _crystal_problem(n) for n in (0, 1, 8, 50)},
    **{f"stack-{seed}": _random_stack_problem(seed) for seed in range(4)},
    # a deep well (osc) between barriers (exp)
    "osc-exp": DeltaPotentialProblem(
        [(-1.0, 0.3), (0.5, -2.0), (2.0, 0.4)], [0.0, -5.0, 1.5, 0.0], atomic_units()
    ),
    # the interior offset -2 equals E at kappa = 2 (lin)
    "lin": DeltaPotentialProblem([(-1.0, -1.0), (1.0, -1.0)], [0.0, -2.0, 0.0], atomic_units()),
    # at kappa = 0 both interior regions sit exactly on the regime switch
    "switch-boundary": DeltaPotentialProblem(
        [(-1.0, -1.0), (0.0, 0.5), (1.0, -1.0)], [0.0, _RTOL, -_RTOL, 0.0], atomic_units()
    ),
    # exp(-2 * rate * width) underflows to 0
    "wide-barrier": DeltaPotentialProblem([(0.0, -1.0), (400.0, -1.0)], [0.0, 2.0, 0.0], atomic_units()),
}
_REFERENCE_KAPPAS = {
    "none": [],
    "one": [0.7],
    "many": [0.0, 1e-13, *np.linspace(0.01, 6.0, 40), 1.0, 2.0, 2.0 + 1e-12, 2.0 - 1e-12, 1e-6],
}


def _same_bits(new, reference):
    new, reference = np.asarray(new), np.asarray(reference)
    return new.dtype == reference.dtype and new.shape == reference.shape and new.tobytes() == reference.tobytes()


# each reference problem alone, and all of them in one chain: crystal-0 has a
# single site, crystal-50 the longest chain, so every other problem is padded
_TRANSFER_INPUTS = {
    **{name: [problem] for name, problem in _REFERENCE_PROBLEMS.items()},
    "mixed-batch": list(_REFERENCE_PROBLEMS.values()),
}


def _assert_transfer_matches_reference(problems, kappas):
    # every problem runs at every kappa, its columns interleaved with the
    # other problems' ones, and each problem's columns and regions must be
    # its own per-region reference, bit for bit
    which = np.tile(np.arange(len(problems)), len(kappas))
    chain = oracle._chain(problems)
    batch = oracle._transfer(chain, np.repeat(kappas, len(problems)), which)
    for k, problem in enumerate(problems):
        path = batch.part(chain.first[k], which == k)
        tail, nodes, regions, psi_last, dpsi_last = _transfer_reference(problem, kappas)
        assert _same_bits(path.tail, tail)
        assert _same_bits(path.nodes, nodes)
        assert _same_bits(path.psi_last, psi_last)
        assert _same_bits(path.dpsi_last, dpsi_last)
        assert len(path.psi) == len(regions) == len(problem.deltas) - 1
        names = ("exp_mask", "osc_mask", "rate", "phase", "psi", "dpsi", "renorm")
        for i, region in enumerate(regions):
            for name, expected in zip(names, region):
                assert _same_bits(getattr(path, name)[i], expected), (name, i)


@pytest.mark.parametrize("kappas", _REFERENCE_KAPPAS.values(), ids=_REFERENCE_KAPPAS.keys())
@pytest.mark.parametrize("problems", _TRANSFER_INPUTS.values(), ids=_TRANSFER_INPUTS.keys())
def test_transfer_is_bit_identical_to_per_region_loop(problems, kappas):
    _assert_transfer_matches_reference(problems, np.array(kappas, dtype=float))


# inputs on the renorm guard's edges, each at its own kappas
_GUARD_INPUTS = {
    # exp(-2 * phase) underflows across the 1001 wide gap: at kappa = 1 the
    # propagated pair is exactly (0, 0), divided by 1.0, and the tail is exactly 0
    "zero-pair": (
        DeltaPotentialProblem([(-1.0, -1.0), (1000.0, -1.0)], [0.0, 0.0, 0.0], atomic_units()),
        [1.0, 0.5, 2.0],
    ),
    # the energy overflows to -inf at the top two kappas, and the tail to inf at the last
    "non-finite": (
        DeltaPotentialProblem([(0.0, -100.0)], [0.0, 0.0], atomic_units()),
        [1e-13, 100.0, 1e308 / 64, 1e308],
    ),
}


@pytest.mark.parametrize("problem, kappas", _GUARD_INPUTS.values(), ids=_GUARD_INPUTS.keys())
def test_transfer_guard_cases_match_the_reference(problem, kappas):
    with np.errstate(over="ignore", invalid="ignore"):
        _assert_transfer_matches_reference([problem], np.array(kappas))


def test_exactly_zero_pair_ends_in_an_exact_root():
    problem, kappas = _GUARD_INPUTS["zero-pair"]
    path = _pass(problem, kappas)
    assert path.psi_last[0] == path.dpsi_last[0] == path.tail[0] == 0.0
    assert path.renorm[0, 0] == 1.0


_ROOT_PROBLEMS = {
    **{f"crystal-{n}": _crystal_problem(n) for n in (0, 8, 50)},
    **{f"stack-{seed}": _random_stack_problem(seed) for seed in range(20)},
}


@pytest.mark.parametrize("problem", _ROOT_PROBLEMS.values(), ids=_ROOT_PROBLEMS.keys())
def test_every_root_has_opposite_tail_signs_within_tol(problem):
    # the returned kappa is a bracket's midpoint, the bracket at most tol wide
    # and holding a sign change of the tail, so kappa -+ tol/2 straddle it
    tol = oracle.DEFAULT_BISECTION_TOL
    found = find_bound_states(problem)
    assert found.metadata.unresolved == ()
    kappas = np.array([s.kappa for s in found])
    below = _pass(problem, kappas - 0.5 * tol).tail
    above = _pass(problem, kappas + 0.5 * tol).tail
    at = _pass(problem, kappas).tail
    assert np.all(((below < 0.0) != (above < 0.0)) | (at == 0.0))


def _bits(wavefunction):
    columns = (wavefunction.rates, wavefunction.c1s, wavefunction.c2s)
    return wavefunction.breakpoints, wavefunction.kinds, [[x.hex() for x in column] for column in columns]


@pytest.mark.parametrize("name", ["crystal-8", "stack-3", "osc-exp", "lin"])
def test_reconstruct_builds_each_segment_once(name, monkeypatch):
    problem = _REFERENCE_PROBLEMS[name]
    built = []

    class Counted(PiecewiseExpWavefunction):
        def __post_init__(self):
            built.append(self.normalized)
            super().__post_init__()

    monkeypatch.setattr(oracle, "PiecewiseExpWavefunction", Counted)
    # a solve builds nothing; reading the ground state twice builds it once:
    # its raw columns, then their normalized copy
    found = find_bound_states(problem)
    assert built == []
    assert found.states[0].wavefunction is found.states[0].wavefunction
    assert built == [False, True]
    # a replaced state keeps the rows and builds the same bits on first read
    moved = dataclasses.replace(found.states[0], energy=0.0)
    assert _bits(moved.wavefunction) == _bits(found.states[0].wavefunction)

    built.clear()
    kappas = np.array([s.kappa for s in found])
    path = _pass(problem, kappas)
    states = oracle._reconstruct(problem, kappas, path)
    assert len(states) == len(kappas) > 0
    # each state holds views of its own column of the pass's arrays, unconverted
    for state in states:
        assert state._rows[0] == problem.positions
        assert all(isinstance(column, np.ndarray) and column.base is not None for column in state._rows[1:])
    assert built == []
    wavefunctions = [state.wavefunction for state in states]
    assert all(state.wavefunction is wavefunction for state, wavefunction in zip(states, wavefunctions))
    assert built == [False, True] * len(kappas)
    # each state is the normalized copy of the raw state its columns describe
    for wavefunction, state in zip(wavefunctions, states):
        raw = PiecewiseExpWavefunction(*(np.asarray(column).tolist() for column in state._rows), normalized=False)
        assert wavefunction.normalized and not raw.normalized
        assert _bits(wavefunction) == _bits(raw.normalized_copy())
        assert wavefunction.norm_squared() == pytest.approx(1.0, rel=1e-14)


def test_regime_switch_boundary_is_linear():
    path = _pass(_REFERENCE_PROBLEMS["switch-boundary"], [0.0, 1e-6])
    assert not path.exp_mask[:, 0].any() and not path.osc_mask[:, 0].any()
    # just above kappa = 0 the barrier side turns exponential, the well side stays linear
    assert path.exp_mask[:, 1].tolist() == [True, False]
    assert not path.osc_mask[:, 1].any()


def test_degenerate_flat_problem_has_no_states(atomic):
    problem = DeltaPotentialProblem([(0.0, 0.0)], [0.0, 0.0], atomic)
    assert len(find_bound_states(problem)) == 0


# ---------------------------------------------------------------------------
# expectation values and norms
# ---------------------------------------------------------------------------


def test_norm_squared_textbook_case():
    raw = PiecewiseExpWavefunction((0.0,), ("exp", "exp"), (1.0, 1.0), (0.0, 1.0), (1.0, 0.0), normalized=False)
    assert raw.norm_squared() == pytest.approx(1.0, abs=1e-15)


def test_single_delta_expectations(atomic):
    problem = DeltaPotentialProblem([(0.0, -1.0)], [0.0, 0.0], atomic)
    state = ground_state(problem)
    assert expectation_potential_numeric(state.wavefunction, problem) == pytest.approx(
        -1.0, abs=1e-9
    )
    assert expectation_kinetic_numeric(state.wavefunction, atomic) == pytest.approx(
        0.5, abs=1e-9
    )


@pytest.mark.parametrize("n", [1, 2, 4])
def test_crystal_expectations_match_closed_forms(n, atomic):
    problem = _crystal_problem(n)
    state = ground_state(problem)
    assert expectation_potential_numeric(state.wavefunction, problem) == pytest.approx(
        -1.0, abs=1e-10
    )
    assert expectation_kinetic_numeric(state.wavefunction, atomic) == pytest.approx(
        0.5, abs=1e-10
    )


def test_expectations_require_normalized_state(atomic):
    problem = DeltaPotentialProblem([(0.0, -1.0)], [0.0, 0.0], atomic)
    raw = PiecewiseExpWavefunction((0.0,), ("exp", "exp"), (1.0, 1.0), (0.0, 2.0), (2.0, 0.0), normalized=False)
    with pytest.raises(ValueError, match="normalized"):
        expectation_potential_numeric(raw, problem)
    with pytest.raises(ValueError, match="normalized"):
        expectation_kinetic_numeric(raw, atomic)


def test_expectation_breakpoint_mismatch(atomic):
    problem = DeltaPotentialProblem([(0.5, -1.0)], [0.0, 0.0], atomic)
    state = ground_state(DeltaPotentialProblem([(0.0, -1.0)], [0.0, 0.0], atomic))
    with pytest.raises(BreakpointMismatchError):
        expectation_potential_numeric(state.wavefunction, problem)


def test_constant_segment_contributes_no_kinetic_energy(atomic):
    state = ground_state(_two_sheet_problem())
    psi = state.wavefunction
    assert psi.kinds[1] == "lin"
    assert psi.derivative(0.0) == 0.0  # the constant inner segment's slope


# ---------------------------------------------------------------------------
# uneven spacing (no closed form; solver is the only route)
# ---------------------------------------------------------------------------


def test_uneven_spacing_round_trip(atomic):
    sol = solve_sheets(SheetArray([(-1.7, 2.2), (-0.3, -0.8), (0.9, 1.4)]), atomic)
    problem = to_quantum(sol, atomic)
    from sheetcrystal import ground_state_from_electrostatics

    dual = ground_state_from_electrostatics(sol, atomic)
    state = ground_state(problem)
    assert state.energy == pytest.approx(dual.energy, abs=1e-9)
    zs = np.linspace(-6.0, 6.0, 101)
    worst = max(abs(dual.wavefunction.value(float(z)) - state.wavefunction.value(float(z))) for z in zs)
    assert worst < 1e-8


# ---------------------------------------------------------------------------
# differential sweep: closed forms vs the solver across the parameter grid
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [0, 1, 2, 4, 8])
def test_closed_forms_match_solver_across_grid(n, atomic):
    from sheetcrystal import expectation_kinetic, expectation_potential, ground_energy
    from sheetcrystal import normalization_constant

    for alpha in (0.5, 1.0, 2.0):
        for a in (0.5, 1.0, 2.0):
            problem = _crystal_problem(n, alpha=alpha, a=a)
            state = ground_state(problem)
            p = CrystalParams(n, alpha, a, atomic)
            assert state.energy == pytest.approx(ground_energy(p), abs=1e-9)
            assert expectation_potential_numeric(state.wavefunction, problem) == pytest.approx(
                expectation_potential(p), abs=1e-10
            )
            assert expectation_kinetic_numeric(state.wavefunction, atomic) == pytest.approx(
                expectation_kinetic(p), abs=1e-10
            )
            assert state.wavefunction.value(0.0) == pytest.approx(
                psi(p, 0.0), abs=1e-8
            )


def test_ground_wavefunction_pointwise_off_defaults(atomic):
    n, alpha, a = 3, 2.0, 0.5
    problem = _crystal_problem(n, alpha=alpha, a=a)
    state = ground_state(problem)
    p = CrystalParams(n, alpha, a, atomic)
    zs = np.linspace(-(n + 3) * a, (n + 3) * a, 200)
    worst = max(abs(psi(p, float(z)) - state.wavefunction.value(float(z))) for z in zs)
    assert worst < 1e-8


@pytest.mark.parametrize(
    "deltas,offsets,cause",
    [
        ([(-1e200, -1.0), (1e200, -1.0)], [0.0, -1.0, 0.0], "cannot count the bound states"),  # ~1e200 states
        ([(-1.0, 0.0), (1.0, 0.0)], [0.0, -1e300, 0.0], "cannot count the bound states"),  # ~1e150 states
        ([(0.0, -1e200)], [0.0, 0.0], "default search cap"),  # kappa = 1e200, energy -5e399
    ],
)
def test_problem_beyond_float_range_names_the_cause(deltas, offsets, cause, atomic):
    # the counts used to wrap to -2**63 and read as "no states"; the cap's
    # energy used to overflow in the first pass
    with pytest.raises(ValueError, match=cause):
        find_bound_states(DeltaPotentialProblem(deltas, offsets, atomic))


def test_state_above_the_cap_is_an_error(atomic):
    # ten deltas g = -1 within 0.009 bind together like one delta g = -10, at
    # kappa ~ 10, above the cap 8 that the strongest single delta gives; the
    # count at the cap sees the state, and the search refuses it, not misses it
    cluster = DeltaPotentialProblem([(k / 1000, -1.0) for k in range(10)], [0.0] * 11, atomic)
    with pytest.raises(ValueError, match=r"1 bound state\(s\) lie above the search cap kappa_max = 8\.0"):
        find_bound_states(cluster)
    with pytest.raises(ValueError, match="above the search cap"):
        find_bound_states([_crystal_problem(2), cluster], lowest=1)


def _doublet_roots(half_width):
    """kappa = 1 +- exp(-2*kappa*half_width): the doublet g = -1 at +-half_width, by fixed point."""
    roots = []
    for sign in (1.0, -1.0):
        kappa = 1.0
        for _ in range(50):
            kappa = 1.0 + sign * math.exp(-2.0 * half_width * kappa)
        roots.append(kappa)
    return roots


@pytest.mark.xfail(
    strict=True,
    reason="across a wide barrier the pass rounds away the growing part near kappa = 1: "
    "at +-10 the tail is exactly 0.0 at kappa = 1, so the roots come back ~2e-9 off",
)
@pytest.mark.parametrize("half_width", [6.0, 8.0, 10.0])
def test_wide_barrier_doublet_roots_within_tol(half_width, atomic):
    problem = DeltaPotentialProblem([(-half_width, -1.0), (half_width, -1.0)], [0.0] * 3, atomic)
    found = find_bound_states(problem)
    assert len(found) == 2
    errors = [abs(s.kappa - root) for s, root in zip(found, _doublet_roots(half_width))]
    assert max(errors) <= oracle.DEFAULT_BISECTION_TOL


@pytest.mark.xfail(strict=True, reason="the count is taken at kappa = tol, so a state closer to threshold is missed")
def test_state_below_tol_is_found(atomic):
    # the single sheet 0:1.5e-13 binds one state at kappa = 7.5e-14 < tol
    problem = to_quantum(solve_sheets(SheetArray([(0.0, 1.5e-13)]), atomic), atomic)
    found = find_bound_states(problem)
    assert len(found) == found.metadata.state_count == 1
    assert found.states[0].kappa == pytest.approx(7.5e-14, rel=1e-12)


# ---------------------------------------------------------------------------
# ground state first: only the states asked for are refined
# ---------------------------------------------------------------------------

_GROUND_FIRST_PROBLEMS = {
    "crystals": lambda: [_crystal_problem(n) for n in range(0, 51)],
    "stacks": lambda: [_random_stack_problem(seed) for seed in range(200)],
    "reference": lambda: list(_REFERENCE_PROBLEMS.values()),
}


@pytest.mark.parametrize("group", _GROUND_FIRST_PROBLEMS)
def test_ground_first_keeps_the_ground_state_bits_and_the_count(group):
    # each kappa column of a pass is computed on its own, so refining the
    # ground state alone reaches the same points and the same root
    for problem in _GROUND_FIRST_PROBLEMS[group]():
        full = find_bound_states(problem)
        first = find_bound_states(problem, lowest=1)
        assert first.metadata.state_count == full.metadata.state_count == len(full)
        assert len(first) == min(1, len(full))
        if not full.states:
            continue
        want, got = full.states[0], first.states[0]
        assert got.kappa.hex() == want.kappa.hex()
        assert got.energy.hex() == want.energy.hex()
        assert got._rows[0] == want._rows[0]
        assert all(_same_bits(g, w) for g, w in zip(got._rows[1:], want._rows[1:]))


@pytest.mark.parametrize("n", [8, 100, 1000])
def test_unit_crystal_ground_state_closes_in_two_passes(n, monkeypatch):
    # at alpha*a = 1 the ground state sits on the grid point kappa = 1: the
    # counting pass closes its bracket and the pass at the root rebuilds it
    problem = _crystal_problem(n)
    calls = _record_transfers(monkeypatch)
    state = ground_state(problem)
    assert len(calls) == 2
    assert calls[1] == [1.0]
    assert state.kappa == 1.0
    assert state.energy == -0.5


def test_lowest_bounds_the_states_returned(atomic):
    problem = _crystal_problem(4)
    full = find_bound_states(problem)
    assert len(full) == full.metadata.state_count == 5
    for lowest in (0, 1, 3, 5, 6, 100):
        found = find_bound_states(problem, lowest=lowest)
        assert found.metadata.state_count == 5
        assert [s.kappa.hex() for s in found] == [s.kappa.hex() for s in full.states[:lowest]]
        assert len(found) == min(lowest, 5)
    for lowest in (-1, math.nan):
        with pytest.raises(ValueError):
            find_bound_states(problem, lowest=lowest)


# ---------------------------------------------------------------------------
# one search for many problems
# ---------------------------------------------------------------------------


def _hex_list(found):
    """Every number a search returns, as float.hex: states, rows and metadata."""
    meta = found.metadata
    states = [
        (s.kappa.hex(), s.energy.hex(), s._rows[0], s._rows[1].tolist(), [[x.hex() for x in c] for c in s._rows[2:]])
        for s in found.states
    ]
    return (
        states,
        meta.kappa_max.hex(),
        meta.state_count,
        [(lo.hex(), hi.hex()) for lo, hi in meta.unresolved],
    )


def _batch_problems():
    scaled = UnitSystem(hbar=2.0, mass=0.5, eps0=4.0, V0=4.0, a0=0.5)
    return [
        *(_crystal_problem(n) for n in range(0, 21)),
        *_REFERENCE_PROBLEMS.values(),
        *(_random_stack_problem(seed) for seed in range(200)),
        to_quantum(solve_sheets(SheetArray([(-1.7, 2.2), (-0.3, -0.8), (0.9, 1.4)]), scaled), scaled),
    ]


@pytest.mark.parametrize(
    "options",
    [{}, {"lowest": 1}, {"lowest": 3}],
    ids=["all", "lowest1", "lowest3"],
)
def test_batch_equals_one_search_per_problem(options, monkeypatch):
    # a state's columns meet only its own problem's arrays, so a batch gives
    # every problem the bits its own search gives; the batch is too large
    # for one grid pass and is searched in parts, each in as many passes as
    # its problem that needs the most
    problems = _batch_problems()
    chains = []
    real = oracle._transfer

    def recorded(chain, kappas, which):
        chains.append(chain)
        return real(chain, kappas, which)

    monkeypatch.setattr(oracle, "_transfer", recorded)
    alone, passes = [], []
    for problem in problems:
        chains.clear()
        alone.append(find_bound_states(problem, **options))
        passes.append(len(chains))
    chains.clear()
    batch = find_bound_states(problems, **options)
    assert isinstance(batch, list) and len(batch) == len(problems)
    for got, want in zip(batch, alone):
        assert _hex_list(got) == _hex_list(want)
    # each search lays out one chain, which every one of its passes reads
    searches = [list(calls) for _, calls in itertools.groupby(chains, key=id)]
    assert len(searches) > 1 and sum(len(calls[0].first) for calls in searches) == len(problems)
    start = 0
    for calls in searches:
        size, longest = len(calls[0].first), len(calls[0].jumps)
        assert size * (oracle.GRID + 1) * longest <= oracle._SEARCH_CELLS
        assert len(calls) == max(passes[start:start + size])
        start += size


def test_batch_of_none_and_of_one():
    problem = _crystal_problem(3)
    assert find_bound_states([]) == []
    (one,) = find_bound_states((problem,), lowest=2)
    assert _hex_list(one) == _hex_list(find_bound_states(problem, lowest=2))
    # a problem whose default cap overflows rejects the whole batch
    with pytest.raises(ValueError, match="default search cap"):
        find_bound_states([problem, DeltaPotentialProblem([(0.0, -1e200)], [0.0, 0.0], atomic_units())])

import bisect
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sheetcrystal import (
    CrystalParams,
    SheetArray,
    UnitSystem,
    atomic_units,
    potential_at,
    potential_at_points,
    sigma_from_alpha,
    solve_sheets,
)


def _crystal(n, sigma, a):
    """The alternating crystal of sheet density ``sigma`` in atomic units (alpha = sigma/2)."""
    return CrystalParams(n, 0.5 * sigma, a, atomic_units()).to_sheet_array()

# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


def test_empty_array_rejected():
    with pytest.raises(ValueError):
        SheetArray([])


def test_non_increasing_positions_rejected():
    with pytest.raises(ValueError, match="increasing"):
        SheetArray([(1.0, 1.0), (0.0, 1.0)])


def test_coincident_positions_rejected():
    with pytest.raises(ValueError, match="increasing"):
        SheetArray([(0.0, 1.0), (0.0, 2.0)])


def test_overflowing_gap_rejected():
    # both positions are finite, their distance is not
    with pytest.raises(ValueError, match=r"sheet positions -1e\+308 and 1e\+308 exceeds the float range"):
        SheetArray([(-1e308, 1.0), (1e308, 1.0)])


def test_non_finite_entries_rejected():
    with pytest.raises(ValueError):
        SheetArray([(math.inf, 1.0)])
    with pytest.raises(ValueError):
        SheetArray([(0.0, math.nan)])


def test_crystal_expansion_sign_pattern():
    array = _crystal(2, 2.0, 1.0)
    assert array.positions == (-2.0, -1.0, 0.0, 1.0, 2.0)
    assert array.densities == (2.0, -2.0, 2.0, -2.0, 2.0)


def test_crystal_n0_is_single_sheet():
    assert _crystal(0, 2.0, 1.0).sheets == ((0.0, 2.0),)


def test_crystal_densities_in_scaled_units():
    u = UnitSystem(hbar=2.0, mass=0.5, eps0=4.0, V0=4.0, a0=0.5)
    alpha = 0.7
    sigma = sigma_from_alpha(alpha, u)
    assert sigma != 2.0 * alpha  # V0 * a0**3 = 0.5, so the units matter here
    array = CrystalParams(3, alpha, 1.3, u).to_sheet_array()
    assert array.densities == (sigma, -sigma, sigma, -sigma, sigma, -sigma, sigma)
    assert array.positions == tuple(n * 1.3 for n in range(-3, 4))


# ---------------------------------------------------------------------------
# single sheet
# ---------------------------------------------------------------------------


def test_single_sheet_potential_and_field(atomic):
    sol = solve_sheets(SheetArray([(0.0, 2.0)]), atomic)
    assert potential_at(sol, 3.0) == -3.0
    assert potential_at(sol, 0.0) == 0.0  # gauge anchor
    assert sol.region_fields == (-1.0, 1.0)  # left of the sheet, right of it
    assert sol.E_inf == 1.0


# ---------------------------------------------------------------------------
# two same-sign sheets
# ---------------------------------------------------------------------------


def test_two_sheet_fields(atomic):
    sol = solve_sheets(SheetArray([(-1.0, 2.0), (1.0, 2.0)]), atomic)
    assert sol.region_fields == (-2.0, 0.0, 2.0)


def test_two_sheet_potential(atomic):
    sol = solve_sheets(SheetArray([(-1.0, 2.0), (1.0, 2.0)]), atomic)
    assert potential_at(sol, 0.0) == -2.0
    assert potential_at(sol, 2.0) == -4.0
    assert potential_at(sol, 0.5) == -2.0  # constant between the sheets


# ---------------------------------------------------------------------------
# crystals
# ---------------------------------------------------------------------------


def test_crystal_n1_potential_values(atomic):
    sol = solve_sheets(_crystal(1, 2.0, 1.0), atomic)
    assert potential_at(sol, 0.0) == -2.0
    assert potential_at(sol, 1.0) == -1.0
    assert potential_at(sol, -1.0) == -1.0


@pytest.mark.parametrize("n", range(0, 6))
def test_crystal_uniform_field_magnitude(n, atomic):
    sol = solve_sheets(_crystal(n, 2.0, 1.0), atomic)
    assert sol.E_inf == 1.0  # sigma / (2 eps0)
    assert all(abs(f) == 1.0 for f in sol.region_fields)


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

finite_arrays = st.lists(
    st.tuples(
        st.floats(min_value=-5.0, max_value=5.0),
        st.floats(min_value=-3.0, max_value=3.0),
    ),
    min_size=1,
    max_size=6,
).filter(
    lambda sheets: all(
        b[0] - a[0] > 1e-3 for a, b in zip(sorted(sheets), sorted(sheets)[1:])
    )
)


def _sorted_array(sheets):
    return SheetArray(sorted(sheets))


@given(finite_arrays)
@example([(1.546875, 0.0), (1.543527151016689, 0.0), (-2.0, 3.0)])
@settings(max_examples=60, deadline=None)
def test_slope_jump_equals_minus_density(sheets):
    atomic = atomic_units()
    array = _sorted_array(sheets)
    sol = solve_sheets(array, atomic)
    v_max = max(abs(v) for v in sol.potential_values)
    slope_max = max(abs(f) for f in sol.region_fields)
    for i, (z, sigma) in enumerate(array.sheets):
        width_left = z - array.positions[i - 1] if i > 0 else 1.0
        width_right = array.positions[i + 1] - z if i + 1 < len(array.positions) else 1.0
        h = 0.25 * min(width_left, width_right)
        slope_right = (potential_at(sol, z + h) - potential_at(sol, z)) / h
        slope_left = (potential_at(sol, z) - potential_at(sol, z - h)) / h
        # each sample is a float built from an anchor potential and the slope
        # times a rounded position, so it is good to a few ulps of the larger of
        # the two, and the difference quotients resolve no finer than that over h
        resolution = math.ulp(v_max + slope_max * (abs(z) + h)) / h
        assert slope_right - slope_left == pytest.approx(-sigma / atomic.eps0, abs=8 * resolution)
        jump = sol.region_fields[i + 1] - sol.region_fields[i]  # right of sheet i minus left of it
        assert jump == pytest.approx(sigma / atomic.eps0, abs=1e-12)


@given(finite_arrays)
@settings(max_examples=40, deadline=None)
def test_region_field_is_half_difference_of_side_sums(sheets):
    atomic = atomic_units()
    array = _sorted_array(sheets)
    sol = solve_sheets(array, atomic)
    probes = np.linspace(min(array.positions) - 2.0, max(array.positions) + 2.0, 41)
    for z in probes:
        if any(abs(z - p) < 1e-9 for p in array.positions):
            continue
        left = sum(s for p, s in array.sheets if p < z)
        right = sum(s for p, s in array.sheets if p > z)
        region = sum(p < z for p in array.positions)
        assert sol.region_fields[region] == pytest.approx(
            (left - right) / (2.0 * atomic.eps0), abs=1e-12
        )


@given(finite_arrays, finite_arrays)
@settings(max_examples=40, deadline=None)
def test_superposition_of_potentials(sheets_a, sheets_b):
    atomic = atomic_units()
    merged = {}
    for z, s in sheets_a + sheets_b:
        merged[z] = merged.get(z, 0.0) + s
    array_ab = SheetArray(sorted(merged.items()))
    sol_a = solve_sheets(_sorted_array(sheets_a), atomic)
    sol_b = solve_sheets(_sorted_array(sheets_b), atomic)
    sol_ab = solve_sheets(array_ab, atomic)
    for z in np.linspace(-8.0, 8.0, 33):
        combined = potential_at(sol_a, float(z)) + potential_at(sol_b, float(z))
        assert potential_at(sol_ab, float(z)) == pytest.approx(combined, abs=1e-12)


@pytest.mark.parametrize("n", [0, 1, 3])
def test_symmetric_array_potential_is_even(n, atomic):
    sol = solve_sheets(_crystal(n, 2.0, 1.0), atomic)
    rng = np.random.default_rng(42)
    for z in rng.uniform(-10.0, 10.0, size=1000):
        assert potential_at(sol, float(z)) == pytest.approx(
            potential_at(sol, float(-z)), abs=1e-12
        )


def _superposition(array, eps0):
    """O(K^2) definition: half the difference of the side sums per region,
    and the gauge sum -(1/(2*eps0)) * sum_n sigma_n * |z - z_n| at each sheet."""
    densities = list(array.densities)
    zs, sigmas = np.array(array.positions), np.array(densities)
    fields = [
        (math.fsum(densities[:k]) - math.fsum(densities[k:])) / (2.0 * eps0)
        for k in range(len(zs) + 1)
    ]
    potential = [-0.5 / eps0 * math.fsum((sigmas * np.abs(z - zs)).tolist()) for z in zs]
    return tuple(fields), tuple(potential)


@pytest.mark.parametrize("k", [3, 24, 201, 2001])
def test_solve_sheets_matches_superposition_on_random_stacks(k, atomic):
    rng = random.Random(k)
    z, sheets = 0.0, []
    for _ in range(k):
        sheets.append((z, rng.uniform(-3.0, 3.0)))
        z += rng.uniform(0.2, 2.0)
    array = SheetArray(sheets)
    sol = solve_sheets(array, atomic)
    fields, potential = _superposition(array, atomic.eps0)
    zs, sigmas = np.array(array.positions), np.abs(np.array(array.densities))
    field_scale = sigmas.sum() / (2.0 * atomic.eps0)
    assert np.max(np.abs(np.array(sol.region_fields) - fields)) <= 1e-13 * field_scale
    scales = np.array([(sigmas * np.abs(z - zs)).sum() for z in zs]) / (2.0 * atomic.eps0)
    assert np.all(np.abs(np.array(sol.potential_values) - potential) <= 1e-13 * scales)


def _crystal_closed_form(n, sigma, a, eps0):
    """Fields (-1)**(k+1) * sigma/(2*eps0) and site potentials -(sigma*a/(2*eps0))*(N + [n+N odd])."""
    half = sigma / (2.0 * eps0)
    fields = tuple(half if k % 2 else -half for k in range(2 * n + 2))
    potential = tuple(-half * a * (n + (site + n) % 2) for site in range(-n, n + 1))
    return fields, potential


@pytest.mark.parametrize("n", [0, 1, 7, 100, 1000])
def test_solve_sheets_is_exact_on_crystals(n, atomic):
    sigma, a = 3.0, 0.5  # dyadic, so every sum below is exact
    array = _crystal(n, sigma, a)
    sol = solve_sheets(array, atomic)
    assert (sol.region_fields, sol.potential_values) == _superposition(array, atomic.eps0)
    assert (sol.region_fields, sol.potential_values) == _crystal_closed_form(n, sigma, a, atomic.eps0)


def test_solve_sheets_is_linear_at_20001_sheets(atomic):
    # the O(K^2) superposition would take minutes here
    n, sigma, a = 10_000, 3.0, 0.5
    sol = solve_sheets(_crystal(n, sigma, a), atomic)
    assert (sol.region_fields, sol.potential_values) == _crystal_closed_form(n, sigma, a, atomic.eps0)


def test_potential_extrapolates_linearly_beyond_ends(atomic):
    sol = solve_sheets(SheetArray([(0.0, 2.0)]), atomic)
    assert potential_at(sol, 100.0) == -100.0
    assert potential_at(sol, -250.0) == -250.0


def test_potential_at_points_has_the_bits_of_the_scalar_call(atomic):
    rng = random.Random(7)
    z, sheets = 0.0, []
    for _ in range(24):
        sheets.append((z, rng.uniform(-3.0, 3.0)))
        z += rng.uniform(0.2, 2.0)
    sol = solve_sheets(SheetArray(sheets), atomic)
    ends = (sol.breakpoints[0], sol.breakpoints[-1])
    # every breakpoint and its float neighbours, points far outside the stack, and a 2-D grid
    zs = np.array([
        *sol.breakpoints,
        *np.nextafter(sol.breakpoints, -np.inf), *np.nextafter(sol.breakpoints, np.inf),
        ends[0] - 1e3, ends[1] + 1e3, -0.0, *np.random.default_rng(7).uniform(ends[0] - 5.0, ends[1] + 5.0, 201),
    ]).reshape(-1, 2)
    got = potential_at_points(sol, zs)
    assert got.shape == zs.shape
    expected = np.array([potential_at(sol, z) for z in zs.ravel().tolist()]).reshape(zs.shape)
    assert got.tobytes() == expected.tobytes()


def _reference_solve(array, eps0):
    """``solve_sheets`` as a per-region loop: the fields from one prefix sum and
    the total, the gauge sum at the first sheet, then V_k = V_{k-1} - E_k * (z_k - z_{k-1})
    appended region by region."""
    positions = tuple(z for z, _ in array.sheets)
    densities = tuple(s for _, s in array.sheets)
    total = math.fsum(densities)
    lefts = [*itertools.accumulate(densities[:-1], initial=0.0), total]
    fields = [(2.0 * left - total) / (2.0 * eps0) for left in lefts]
    z0 = positions[0]
    potential = [-0.5 / eps0 * math.fsum(s * abs(z0 - zn) for zn, s in array.sheets)]
    for k in range(1, len(positions)):
        potential.append(potential[-1] - fields[k] * (positions[k] - positions[k - 1]))
    return positions, tuple(fields), tuple(potential), abs(fields[-1])


def _reference_potential_at(positions, fields, potential, z):
    idx = bisect.bisect_right(positions, z)
    anchor = idx - 1 if idx > 0 else 0
    return potential[anchor] - fields[idx] * (z - positions[anchor])


def _wide_random_stack(k, seed):
    """k sheets with densities of either sign and magnitude 1e-9..1e9 and gaps 1e-6..1e6 (log-uniform)."""
    rng = random.Random(seed)
    z, sheets = -rng.uniform(0.0, 1e6), []
    for _ in range(k):
        sheets.append((z, rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-9.0, 9.0)))
        z += 10.0 ** rng.uniform(-6.0, 6.0)
    return SheetArray(sheets)


_SI_LIKE = UnitSystem(
    hbar=1.054571817e-34,
    mass=9.1093837015e-31,
    eps0=8.8541878128e-12,
    V0=math.sqrt(1.054571817e-34**2 / 9.1093837015e-31 / (8.8541878128e-12 * 5.29177210903e-11**3)),
    a0=5.29177210903e-11,
)


@pytest.mark.parametrize("units", [atomic_units(), _SI_LIKE], ids=["atomic", "si-like"])
@pytest.mark.parametrize("k", [1, 2, 24, 201, 2001])
def test_solve_sheets_has_the_bits_of_the_per_region_loop(k, units):
    array = _wide_random_stack(k, seed=1000 + k)
    sol = solve_sheets(array, units)
    positions, fields, potential, e_inf = _reference_solve(array, units.eps0)
    assert sol.breakpoints == positions
    assert [x.hex() for x in sol.region_fields] == [x.hex() for x in fields]
    assert [x.hex() for x in sol.potential_values] == [x.hex() for x in potential]
    assert sol.E_inf.hex() == e_inf.hex()
    # every breakpoint, its float neighbours and points on both sides of the stack
    span = positions[-1] - positions[0] + 1.0
    zs = [
        *positions,
        *(math.nextafter(z, -math.inf) for z in positions),
        *(math.nextafter(z, math.inf) for z in positions),
        positions[0] - span, positions[0] - 1e-3, positions[-1] + 1e-3, positions[-1] + span,
    ]
    got = [potential_at(sol, z).hex() for z in zs]
    assert got == [_reference_potential_at(positions, fields, potential, z).hex() for z in zs]

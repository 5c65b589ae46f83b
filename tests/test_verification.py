import inspect
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from sheetcrystal import closedform, oracle, verification
from sheetcrystal.cli import main
from sheetcrystal.closedform import CrystalParams
from sheetcrystal.duality import DeltaPotentialProblem, nan_max
from sheetcrystal.electrostatics import SheetArray, potential_at, solve_sheets
from sheetcrystal.units import atomic_units
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


def _searches(monkeypatch, depth):
    """(problems, options) of every oracle search one battery makes."""
    real = oracle.find_bound_states
    calls = []

    def counted(problems, **options):
        calls.append((len(problems), options))
        return real(problems, **options)

    monkeypatch.setattr(oracle, "find_bound_states", counted)
    assert run_verification(depth).all_passed
    return calls


def test_quick_battery_solves_each_configuration_once(monkeypatch):
    # one search for the 3 single deltas, the 5 crystals, the two-sheet well
    # and the uneven stack, and one determinism rerun of the crystals
    assert _searches(monkeypatch, "quick") == [(10, {}), (5, {})]


def test_full_battery_solves_each_configuration_once(monkeypatch):
    # as at quick depth, with the crystals N = 0..8
    assert _searches(monkeypatch, "full") == [(14, {}), (9, {})]


def test_determinism_rerun_rebuilds_no_state(monkeypatch):
    # the rerun compares energies alone, so the only states rebuilt are the battery's
    searches, rebuilt = [], []
    search, reconstruct = oracle.find_bound_states, oracle._reconstruct

    def recorded_search(problems, **options):
        searches.append(search(problems, **options))
        return searches[-1]

    def recorded_reconstruct(chain, kappas, owner):
        rebuilt.extend(kappas.tolist())
        return reconstruct(chain, kappas, owner)

    monkeypatch.setattr(oracle, "find_bound_states", recorded_search)
    monkeypatch.setattr(oracle, "_reconstruct", recorded_reconstruct)
    assert run_verification("quick").all_passed
    battery, _ = searches
    assert rebuilt == [state.kappa for found in battery for state in found]


def test_determinism_check_catches_a_one_ulp_rerun(monkeypatch):
    # the stored solves are shared by every section, so the rerun must still
    # be compared with them, bit for bit
    real = oracle.find_bound_states
    seen = set()

    def shift_on_rerun(problem, found):
        key = (problem.positions, problem.strengths)
        if key not in seen:
            seen.add(key)
            return found
        states = tuple(replace(s, energy=math.nextafter(s.energy, math.inf)) for s in found.states)
        return replace(found, states=states)

    def shifted_on_rerun(problems, **options):
        found = real(problems, **options)
        if isinstance(problems, DeltaPotentialProblem):
            return shift_on_rerun(problems, found)
        return [shift_on_rerun(problem, one) for problem, one in zip(problems, found)]

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



# ---------------------------------------------------------------------------
# quadratures: node by node references, bit for bit
# ---------------------------------------------------------------------------

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(32)


def _gauss_integral_reference(f, lo, hi, panels):
    """Composite Gauss-Legendre with ``f`` called on one scalar node at a time."""
    edges = np.linspace(lo, hi, panels + 1)
    total = []
    for a, b in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        total.append(half * math.fsum(w * f(mid + half * x) for x, w in zip(_NODES, _WEIGHTS)))
    return math.fsum(total)


def _quad_psi_squared_reference(p):
    beta = p.units.mass * p.alpha / p.units.hbar**2
    reach = p.N * p.a + 40.0 / beta
    cuts = [n * p.a for n in range(-p.N, p.N + 1)]
    edges = [-reach] + cuts + [reach]
    total = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        panels = max(1, math.ceil((hi - lo) * beta / 2.0))
        total.append(_gauss_integral_reference(lambda z: closedform.psi(p, z) ** 2, lo, hi, panels))
    return math.fsum(total)


def _quad_core_exponential_reference(N, r, a):
    def integrand(z):
        first = math.fsum((-1.0) ** n * abs(z + n * a) for n in range(0, N + 1))
        second = math.fsum((-1.0) ** n * abs(z - n * a) for n in range(1, N + 1))
        return math.exp(-r * (first + second))

    total = []
    for k in range(N):
        panels = max(1, math.ceil(abs(r) * a / 4.0))
        total.append(_gauss_integral_reference(integrand, k * a, (k + 1) * a, panels))
    return math.fsum(total)


_RATES = (-10.0, -2.0, -0.7, 0.5, 2.0, 10.0)


@pytest.mark.parametrize("a", [1.0, 0.37])
def test_core_quadrature_is_bit_identical_to_node_loop(a):
    table = verification._quad_core_exponential(20, _RATES, a)
    for n_sites in range(1, 21):
        for r in _RATES:
            got = table[n_sites, r]
            want = _quad_core_exponential_reference(n_sites, r, a)
            assert got.hex() == want.hex(), (n_sites, r, a)


# terms the limbs hold exactly: zero, |t| in [2**-22, 2**20], or a multiple of
# 2**-60 (its lowest set bit above 2**-74 even where |t| < 2**-22), which sits
# far below a large term's last bit
_TERMS = st.one_of(
    st.just(0.0),
    st.floats(2.0**-22, 2.0**20),
    st.floats(-(2.0**20), -(2.0**-22)),
    st.integers(-(2**40), 2**40).map(lambda k: k * 2.0**-60),
)


@given(st.lists(_TERMS, min_size=1, max_size=31), st.booleans())
@example([1.0, 2.0**-53], False)  # a tie: fsum rounds to even, down to 1.0
@example([1.0 + 2.0**-52, 2.0**-53], False)  # a tie rounded up, to the even 1 + 2**-51
@example([0.1, 0.2, 0.3], True)  # the mirrored row cancels to exactly 0.0
def test_exact_prefix_sums_are_fsum_of_every_prefix(terms, mirror):
    # mirrored, the row ends in the negated terms in reverse, so its prefixes
    # cancel step by step down to exactly 0.0
    row = terms + [-t for t in reversed(terms)] if mirror else terms
    rows = np.array([row, row[::-1], [-t for t in row]])
    got = verification._exact_prefix_sums(rows)
    assert got.shape == rows.shape
    for have, want in zip(got.tolist(), rows.tolist()):
        assert [x.hex() for x in have] == [math.fsum(want[: k + 1]).hex() for k in range(len(want))]


@pytest.mark.parametrize(
    "row",
    [[1e300, 1e-300], [1.0, 2.0**-80], [2.0**27, 2.0**27], [2.0**-27] * 64, [math.inf], [math.nan]],
    ids=["wide-range", "low-bit", "big-sum", "many-small", "inf", "nan"],
)
def test_exact_prefix_sums_refuse_rows_outside_their_range(row):
    with pytest.raises(ValueError, match="exact limb sums"):
        verification._exact_prefix_sums(np.array(row))


_PSI_PARAMS = pytest.mark.parametrize(
    "p",
    [CrystalParams(n, 1.0, 1.0, atomic_units()) for n in range(0, 9)] + [CrystalParams(3, 0.7, 1.3, atomic_units())],
    ids=lambda p: f"N{p.N}-alpha{p.alpha}-a{p.a}",
)


@_PSI_PARAMS
def test_psi_quadrature_is_bit_identical_to_node_loop(p):
    assert verification._quad_psi_squared(p).hex() == _quad_psi_squared_reference(p).hex()


@_PSI_PARAMS
def test_psi_quadrature_integrand_is_bit_identical_at_every_node(p, monkeypatch):
    # psi is called once, on every node, and each value is the node loop's psi(p, z) ** 2
    real_psi, real_sum = closedform.psi, verification._gauss_sum
    nodes, values = [], []
    monkeypatch.setattr(closedform, "psi", lambda p, z: nodes.append(z) or real_psi(p, z))
    monkeypatch.setattr(verification, "_gauss_sum", lambda v, *rest: values.append(v) or real_sum(v, *rest))
    verification._quad_psi_squared(p)
    [zs], [got] = nodes, values
    assert [v.hex() for v in got] == [(real_psi(p, z) ** 2).hex() for z in zs.ravel().tolist()]


@pytest.mark.parametrize("alpha_a", [1.0, 0.37])
def test_figure_samples_are_bit_identical_to_scalar_psi(alpha_a):
    for n in (1, 2, 3, 4):
        p = CrystalParams(n, 1.0, alpha_a, atomic_units())
        zs, vals = crystal_figure_samples(n, alpha_a)
        assert [v.hex() for v in vals.tolist()] == [closedform.psi(p, z).hex() for z in zs.tolist()]


def test_core_quadrature_uses_nothing_from_closedform(monkeypatch):
    expected = list(verification._quad_core_exponential(7, _RATES, 1.0).values())

    def refuse(*args, **kwargs):
        raise AssertionError("the quadrature check called closedform")

    for name, obj in vars(closedform).items():
        if inspect.isfunction(obj) and obj.__module__ == closedform.__name__:
            monkeypatch.setattr(closedform, name, refuse)
    got = list(verification._quad_core_exponential(7, _RATES, 1.0).values())
    assert [x.hex() for x in got] == [x.hex() for x in expected]


def test_core_check_catches_a_one_part_per_billion_error(monkeypatch):
    real = closedform.segment_integral_closed
    monkeypatch.setattr(closedform, "segment_integral_closed", lambda N, r, a: real(N, r, a) * (1.0 + 1e-9))
    rows = {row.name: row for row in run_verification("quick").checks}
    assert not rows["core_integral_closed_vs_quadrature"].passed


def _slope_jump_residual_by_sheet(arrays, units):
    """The ``potential_slope_jump`` residual as a loop over sheets, four scalar ``potential_at`` calls each."""
    worst = 0.0
    for array in arrays:
        sol = solve_sheets(array, units)
        for i, (z, sigma) in enumerate(zip(sol.breakpoints, sol.densities)):
            width_left = z - sol.breakpoints[i - 1] if i > 0 else 1.0
            width_right = sol.breakpoints[i + 1] - z if i + 1 < len(sol.breakpoints) else 1.0
            h = 0.25 * min(width_left, width_right)
            slope_right = (potential_at(sol, z + h) - potential_at(sol, z)) / h
            slope_left = (potential_at(sol, z) - potential_at(sol, z - h)) / h
            worst = nan_max(worst, abs((slope_right - slope_left) + sigma / units.eps0))
    return worst


@pytest.mark.parametrize("depth, n_max", [("quick", 4), ("full", 8)])
def test_slope_jump_check_is_bit_identical_to_the_sheet_loop(depth, n_max):
    # the crystals N = 0..n_max, the two-sheet well and the uneven stack, as the battery solves them
    units = atomic_units()
    arrays = [
        *(CrystalParams(n, 1.0, 1.0, units).to_sheet_array() for n in range(n_max + 1)),
        SheetArray([(-1.0, 2.0), (1.0, 2.0)]),
        SheetArray([(-1.7, 2.2), (-0.3, -0.8), (0.9, 1.4)]),
    ]
    (row,) = [row for row in run_verification(depth).checks if row.name == "potential_slope_jump"]
    assert row.residual.hex() == _slope_jump_residual_by_sheet(arrays, units).hex()
    assert row.residual > 0.0

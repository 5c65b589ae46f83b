"""Acceptance tests: the rows of ``sheetcrystal verify --depth full``.

The checks live in :mod:`sheetcrystal.verification` and nowhere else.  This
module runs the full battery once, prints one PASS/FAIL line per check row
with its residual and tolerance, and asserts that each row passed under the
tolerance pinned in ``PINNED``, so loosening a tolerance in the battery fails
here.  Each test covers the rows of one headline guarantee.
"""

import pytest

from sheetcrystal.verification import run_verification

# Every check row of the full battery, in order, with its pinned tolerance.
PINNED = {
    "single_delta_ground_energy": 1e-10,
    "crystal_energy_size_independence": 1e-9,
    "norm_quadrature_equals_one": 1e-10,
    "norm_constant_matches_map_path": 1e-12,
    "expectations_match_solver": 1e-10,
    "expectation_spot_values": 1e-12,
    "kinetic_plus_potential_is_energy": 1e-12,
    "two_sheet_well_ground_energy": 1e-8,
    "normalizability_gate": 0.5,
    "identity_site_distance_sum": 0.5,
    "identity_alternating_exp": 1e-13,
    "identity_sinh_parity": 1e-13,
    "core_integral_closed_vs_quadrature": 1e-10,
    "wavefunction_continuity": 1e-12,
    "delta_cusp_condition": 1e-9,
    "potential_slope_jump": 1e-12,
    "figure_datasets": 1e-6,
    "bound_state_count_deterministic": 0.5,
}


@pytest.fixture(scope="module")
def report():
    return run_verification("full")


def _assert_rows(report, *names):
    rows = {row.name: row for row in report.checks}
    missing = [name for name in names if name not in rows]
    assert not missing, f"no check rows named {missing}"
    for name in names:
        row = rows[name]
        status = "PASS" if row.passed else "FAIL"
        print(f"[{status}] {name}: residual {row.residual:.3e} (tol {row.tolerance:.1e})")
    for name in names:
        row = rows[name]
        assert row.tolerance == PINNED[name], f"{name}: tolerance {row.tolerance!r}, pinned {PINNED[name]!r}"
        assert row.passed, f"{name}: residual {row.residual:.3e} > {row.tolerance:.1e}"


def test_check_rows_are_the_pinned_ones(report):
    assert [row.name for row in report.checks] == list(PINNED)


def test_single_delta_ground_state(report):
    _assert_rows(report, "single_delta_ground_energy")


def test_energy_independent_of_crystal_size(report):
    _assert_rows(report, "crystal_energy_size_independence")


def test_normalization_constants(report):
    _assert_rows(report, "norm_quadrature_equals_one", "norm_constant_matches_map_path")


def test_expectation_values(report):
    _assert_rows(
        report, "expectations_match_solver", "expectation_spot_values", "kinetic_plus_potential_is_energy"
    )


def test_two_sheet_induced_well(report):
    _assert_rows(report, "two_sheet_well_ground_energy")


def test_normalizability_gate(report):
    _assert_rows(report, "normalizability_gate")


def test_lattice_identity_suite(report):
    _assert_rows(
        report,
        "identity_site_distance_sum",
        "identity_alternating_exp",
        "identity_sinh_parity",
        "core_integral_closed_vs_quadrature",
    )


def test_boundary_conditions_everywhere(report):
    _assert_rows(report, "wavefunction_continuity", "delta_cusp_condition", "potential_slope_jump")


def test_figure_datasets(report):
    _assert_rows(report, "figure_datasets")


def test_bound_state_count_audit(report):
    _assert_rows(report, "bound_state_count_deterministic")
    audits = {row.name: row.value for row in report.audits}
    print(f"[AUDIT] bound_state_count_per_N: {audits['bound_state_count_per_N']}")
    counts = audits["bound_state_count_per_N"].split("  ")[0]
    assert counts == " ".join(f"N={n}:{n + 1}" for n in range(0, 9))

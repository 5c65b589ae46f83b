import dataclasses
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from sheetcrystal import (
    CrystalParams,
    DeltaPotentialProblem,
    DivergentTailError,
    PiecewiseExpWavefunction,
    SheetArray,
    atomic_units,
    ground_state_from_electrostatics,
    schrodinger_residuals,
    solve_sheets,
    to_quantum,
)
from sheetcrystal import oracle
from sheetcrystal.duality import nan_max
from sheetcrystal.wavefunction import VALID_KINDS


def _double_exponential():
    """exp(-|z|): one breakpoint at 0, pure decay on both sides."""
    return PiecewiseExpWavefunction((0.0,), ("exp", "exp"), (1.0, 1.0), (0.0, 1.0), (1.0, 0.0), normalized=False)


def _mixed_profile():
    """exp left tail, lin + osc interior pieces, exp right tail (not continuous)."""
    return PiecewiseExpWavefunction(
        breakpoints=(-1.0, 0.5, 2.0),
        kinds=("exp", "lin", "osc", "exp"),
        rates=(1.3, 0.0, 2.1, 0.8),
        c1s=(0.0, 0.4, 0.3, 0.6),
        c2s=(0.7, -0.2, 0.5, 0.0),
        normalized=False,
    )


def test_double_exponential_norm_is_one():
    assert _double_exponential().norm_squared() == pytest.approx(1.0, abs=1e-15)


def test_value_and_vectorized_values_agree():
    psi = _mixed_profile()
    zs = np.linspace(-4.0, 5.0, 197)
    loop = [psi.value(float(z)).hex() for z in zs]
    assert [v.hex() for v in psi.values(zs).tolist()] == loop


def test_one_sided_derivatives_at_cusp():
    psi = _double_exponential()
    assert psi.derivative(0.0, side="left") == 1.0
    assert psi.derivative(0.0, side="right") == -1.0
    with pytest.raises(ValueError):
        psi.derivative(0.0, side="middle")


def test_continuity_residuals_zero_for_continuous_profile(atomic):
    problem = DeltaPotentialProblem([(0.0, -1.0)], [0.0, 0.0], atomic)
    assert schrodinger_residuals(problem, _double_exponential(), -0.5).continuity_residual == 0.0


def test_segment_integrals_match_quadrature():
    psi = _mixed_profile()
    parts = psi.segment_probability_integrals()
    numeric = [
        quad(lambda z: psi.value(z) ** 2, -30.0, -1.0, limit=200)[0],
        quad(lambda z: psi.value(z) ** 2, -1.0, 0.5)[0],
        quad(lambda z: psi.value(z) ** 2, 0.5, 2.0)[0],
        quad(lambda z: psi.value(z) ** 2, 2.0, 40.0, limit=200)[0],
    ]
    assert parts == pytest.approx(numeric, rel=1e-10)
    assert psi.norm_squared() == pytest.approx(sum(numeric), rel=1e-10)


def test_derivative_squared_integral_matches_quadrature():
    psi = _mixed_profile()
    cuts = (-1.0, 0.5, 2.0)
    numeric = quad(lambda z: psi.derivative(z) ** 2, -30.0, 40.0, points=cuts, limit=400)[0]
    assert psi.derivative_squared_integral() == pytest.approx(numeric, rel=1e-9)


def test_growing_left_tail_is_divergent():
    # the c1 part of the left tail grows toward -inf
    psi = PiecewiseExpWavefunction((0.0,), ("exp", "exp"), (1.0, 1.0), (0.5, 1.0), (1.0, 0.0), normalized=False)
    with pytest.raises(DivergentTailError):
        psi.norm_squared()


def test_growing_right_tail_is_divergent():
    psi = PiecewiseExpWavefunction((0.0,), ("exp", "exp"), (1.0, 1.0), (0.0, 1.0), (1.0, 1e-30), normalized=False)
    with pytest.raises(DivergentTailError):
        psi.norm_squared()


def test_linear_end_segment_is_divergent():
    psi = PiecewiseExpWavefunction((0.0,), ("lin", "exp"), (0.0, 1.0), (1.0, 1.0), (0.0, 0.0), normalized=False)
    with pytest.raises(DivergentTailError):
        psi.norm_squared()


def test_normalized_copy_has_unit_norm():
    raw = PiecewiseExpWavefunction((0.0,), ("exp", "exp"), (2.0, 2.0), (0.0, 3.0), (3.0, 0.0), normalized=False)
    psi = raw.normalized_copy()
    assert psi.normalized
    assert psi.norm_squared() == pytest.approx(1.0, rel=1e-15)
    assert psi.value(0.0) == pytest.approx(math.sqrt(2.0), rel=1e-15)



@pytest.mark.parametrize("scale", [0.0, 1e200], ids=["vanished", "overflowing"])
def test_normalized_copy_refuses_a_norm_outside_the_float_range(scale):
    raw = PiecewiseExpWavefunction((0.0,), ("exp", "exp"), (2.0, 2.0), (0.0, scale), (scale, 0.0), normalized=False)
    with pytest.raises(ValueError, match=r"^cannot normalize the wavefunction: its norm squared"):
        raw.normalized_copy()


_VALID_COLUMNS = {"kinds": ("exp", "lin", "exp"), "rates": (1.0, 0.0, 1.0), "c1s": (0.0, 1.0, 1.0), "c2s": (1.0, 0.0, 0.0)}


def _with(column, bad):
    return PiecewiseExpWavefunction((0.0, 1.0), **{**_VALID_COLUMNS, column: bad}, normalized=False)


def test_segment_count_must_match_breakpoints():
    for column, bad in [
        ("kinds", ("exp", "exp")),
        ("rates", (1.0, 0.0, 1.0, 1.0)),
        ("c1s", (0.0, 1.0)),
        ("c2s", ()),
    ]:
        with pytest.raises(ValueError, match=f"2 breakpoints need 3 segments, got {len(bad)} {column}"):
            _with(column, bad)
    with pytest.raises(ValueError, match="at least one breakpoint"):
        PiecewiseExpWavefunction((), ("exp",), (1.0,), (0.0,), (0.0,), normalized=False)
    for unsorted in ((1.0, 1.0), (1.0, 0.0)):
        with pytest.raises(ValueError, match="strictly increasing"):
            PiecewiseExpWavefunction(unsorted, **_VALID_COLUMNS, normalized=False)


@pytest.mark.parametrize("breakpoints", [(0.0, math.nan), (0.0, math.inf), (-1e308, 1e308), (math.nan,)])
def test_breakpoints_must_be_finite_with_finite_gaps(breakpoints):
    # each used to construct, with a norm squared of nan (or 1.0 for the lone nan), where
    # SheetArray and DeltaPotentialProblem refuse the same positions
    n = len(breakpoints)
    columns = {"kinds": ("exp",) * (n + 1), "rates": (1.0,) * (n + 1)}
    columns.update(c1s=(0.0,) * n + (1.0,), c2s=(1.0,) + (0.0,) * n)
    with pytest.raises(ValueError, match="strictly increasing"):
        PiecewiseExpWavefunction(breakpoints, **columns, normalized=False)


def test_segment_kind_and_rate_validation():
    with pytest.raises(ValueError, match="unknown segment kind 'wiggle'"):
        _with("kinds", ("exp", "wiggle", "exp"))
    for kind, rate in [("exp", 0.0), ("exp", -2.0), ("exp", math.nan), ("osc", 0.0), ("osc", -2.0), ("osc", math.nan)]:
        with pytest.raises(ValueError, match=f"{kind} segments need rate > 0"):
            PiecewiseExpWavefunction((0.0, 1.0), ("exp", kind, "exp"), (1.0, rate, 1.0), (0.0, 1.0, 1.0), (1.0, 0.0, 0.0), normalized=False)
    with pytest.raises(ValueError, match="exp segments need rate > 0"):
        _with("rates", (-0.5, 0.0, 1.0))  # an end segment too


def test_constructor_stores_python_floats_and_a_linear_rate_is_free():
    psi = PiecewiseExpWavefunction(
        np.array([0.0, 1.0]), np.array(["exp", "lin", "exp"]), np.array([1.0, -3.0, 1.0]),
        [0, 1, 1], np.array([1.0, 0.0, 0.0]), normalized=False,
    )
    for column in (psi.breakpoints, psi.kinds, psi.rates, psi.c1s, psi.c2s):
        assert type(column) is tuple and {type(x) for x in column} <= {float, str}
    assert psi.c1s == (0.0, 1.0, 1.0) and psi.rates[1] == -3.0
    assert psi == PiecewiseExpWavefunction((0.0, 1.0), **{**_VALID_COLUMNS, "rates": (1.0, -3.0, 1.0)}, normalized=False)


# ---------------------------------------------------------------------------
# one evaluator: bit equality with the per-segment numpy loop
# ---------------------------------------------------------------------------


def _values_reference(psi, zs, side="right"):
    """Per-segment mask loop over the numpy forms; the reference bits.

    ``side`` picks the segment exactly on a breakpoint: the right one, as
    :meth:`PiecewiseExpWavefunction.values` does, or the left one.
    """
    zs = np.asarray(zs, dtype=float)
    idx = np.searchsorted(psi.breakpoints, zs, side=side)
    out = np.empty_like(zs)
    for i, (kind, rate, c1, c2) in enumerate(zip(psi.kinds, psi.rates, psi.c1s, psi.c2s)):
        mask = idx == i
        if not mask.any():
            continue
        x0 = psi.breakpoints[max(i - 1, 0)]  # the left tail shares the first region's anchor
        u = zs[mask] - x0
        if kind == "exp":
            vals = np.zeros_like(u)
            if c1 != 0.0:
                vals += c1 * np.exp(-rate * u)
            if c2 != 0.0:
                vals += c2 * np.exp(rate * u)
        elif kind == "lin":
            vals = c1 + c2 * u
        else:
            vals = c1 * np.cos(rate * u) + c2 * np.sin(rate * u)
        out[mask] = vals
    return out


_DERIVATIVE_ROWS = {
    "exp": lambda r, c1, c2: (-r * c1, r * c2),
    "lin": lambda r, c1, c2: (c2, 0.0),
    "osc": lambda r, c1, c2: (r * c2, -r * c1),
}


def _derivative_of(psi):
    """d(psi)/dz in the same forms, differentiated row by row."""
    d1s, d2s = zip(*(_DERIVATIVE_ROWS[k](r, c1, c2) for k, r, c1, c2 in zip(psi.kinds, psi.rates, psi.c1s, psi.c2s)))
    return PiecewiseExpWavefunction(psi.breakpoints, psi.kinds, psi.rates, d1s, d2s, normalized=False)


def _hexes(values):
    return [float(v).hex() for v in values]


def _sample_points(psi, scalar_points=60):
    """Breakpoints, cell midpoints and far tails; every k-th one for the scalar calls."""
    edges = np.asarray(psi.breakpoints)
    mids = 0.5 * (edges[1:] + edges[:-1])
    tails = np.array([edges[0] - 900.0, edges[0] - 3.0, edges[-1] + 3.0, edges[-1] + 900.0])
    zs = np.sort(np.concatenate([edges, mids, tails]))
    return zs, zs[:: max(1, len(zs) // scalar_points)]


def _assert_evaluator_bits(psi, problem):
    zs, scalar_zs = _sample_points(psi)
    assert _hexes(psi.values(zs)) == _hexes(_values_reference(psi, zs))
    assert _hexes(psi.value(z) for z in scalar_zs) == _hexes(_values_reference(psi, scalar_zs))
    slope = _derivative_of(psi)
    for side in ("left", "right"):
        want = _hexes(_values_reference(slope, scalar_zs, side))
        assert _hexes(psi.derivative(z, side=side) for z in scalar_zs) == want

    edges = np.asarray(psi.breakpoints)
    left, right = _values_reference(psi, edges, "left"), _values_reference(psi, edges)
    assert (_hexes(psi.breakpoint_values()[0]), _hexes(psi.breakpoint_values()[1])) == (_hexes(left), _hexes(right))

    jump = _values_reference(slope, edges) - _values_reference(slope, edges, "left")
    scale = 2.0 * problem.units.mass / problem.units.hbar**2
    cusp = np.abs(jump - scale * np.array(problem.strengths) * right)
    report = schrodinger_residuals(problem, psi, -0.5)
    assert report.cusp_residual.hex() == nan_max(0.0, *cusp.tolist()).hex()
    assert report.continuity_residual.hex() == nan_max(*np.abs(left - right).tolist()).hex()


def test_evaluator_bits_on_mixed_profile(atomic):
    psi = _mixed_profile()
    problem = DeltaPotentialProblem([(-1.0, -0.7), (0.5, 0.4), (2.0, -1.1)], [0.0, 0.3, -0.2, 0.0], atomic)
    _assert_evaluator_bits(psi, problem)


def test_zero_coefficient_tails_skip_their_overflowing_exp(atomic):
    psi = _double_exponential()
    problem = DeltaPotentialProblem([(0.0, -1.0)], [0.0, 0.0], atomic)
    zs = np.array([-800.0, -750.5, 750.5, 800.0])  # exp(rate*|z|) overflows
    assert psi.values(zs).tolist() == [0.0] * 4
    assert [psi.value(z) for z in zs] == [0.0] * 4
    _assert_evaluator_bits(psi, problem)


_STACKS = {f"crystal-{n}": CrystalParams(n, 1.0, 1.0, atomic_units()).to_sheet_array() for n in (0, 8, 50, 100)}
_STACKS["uneven"] = SheetArray([(-1.7, 2.2), (-0.3, -0.8), (0.9, 1.4)])


@pytest.mark.parametrize("sheets", _STACKS.values(), ids=_STACKS.keys())
def test_evaluator_bits_on_map_and_oracle_states(sheets, atomic):
    sol = solve_sheets(sheets, atomic)
    problem = to_quantum(sol, atomic)
    _assert_evaluator_bits(ground_state_from_electrostatics(sol, atomic).wavefunction, problem)
    states = oracle.find_bound_states(problem).states
    for state in (*states[:: max(1, len(states) // 9)], states[-1]):  # about ten of the states
        _assert_evaluator_bits(state.wavefunction, problem)


# ---------------------------------------------------------------------------
# the kernel's bits on random profiles
# ---------------------------------------------------------------------------


_COEFFICIENT = st.one_of(st.just(0.0), st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False))


@st.composite
def _profiles(draw):
    """Any mix of exp, lin and osc segments, tails included, with zero coefficients drawn often."""
    edges = sorted(draw(st.lists(st.floats(-50.0, 50.0, allow_subnormal=False), min_size=1, max_size=12, unique=True)))
    n = len(edges) + 1
    kinds = draw(st.lists(st.sampled_from(VALID_KINDS), min_size=n, max_size=n))
    rates = [draw(st.floats(-3.0, 3.0) if kind == "lin" else st.floats(1e-3, 8.0)) for kind in kinds]
    c1s, c2s = (draw(st.lists(_COEFFICIENT, min_size=n, max_size=n)) for _ in range(2))
    return PiecewiseExpWavefunction(tuple(edges), tuple(kinds), tuple(rates), tuple(c1s), tuple(c2s), normalized=False)


@given(_profiles(), st.booleans(), st.integers(0, 2**32 - 1), st.data())
@settings(max_examples=60, deadline=None)
def test_evaluator_bits_on_random_profiles(psi, one_point, seed, data):
    # breakpoints and +-900 beyond the ends among the points, where a tail's
    # exp overflows: its zero coefficient must give 0.0, a nonzero one inf
    edges = psi.breakpoints
    special = [*edges, edges[0] - 900.0, edges[-1] + 900.0]
    rng = np.random.default_rng(seed)
    if one_point:
        zs = np.array([data.draw(st.sampled_from(special) | st.floats(-1000.0, 1000.0))])
    else:
        spread = rng.uniform(edges[0] - 60.0, edges[-1] + 60.0, 2001 - len(special))
        zs = rng.permutation(np.concatenate([special, spread]))
    with np.errstate(over="ignore", invalid="ignore"):  # the reference warns where a kept exp overflows
        want = _hexes(_values_reference(psi, zs))
        points = zs if one_point else np.array(special)
        want_points = _hexes(_values_reference(psi, points))
        slope = _derivative_of(psi)
        slopes = {side: _hexes(_values_reference(slope, points, side)) for side in ("left", "right")}
        at_edges = [_hexes(_values_reference(form, edges, side)) for form in (psi, slope) for side in ("left", "right")]
    assert _hexes(psi.values(zs)) == want
    assert _hexes(psi.value(z) for z in points) == want_points
    for side, bits in slopes.items():
        assert _hexes(psi.derivative(z, side=side) for z in points) == bits
    assert [_hexes(v) for v in (*psi.breakpoint_values(), *psi.breakpoint_slopes())] == at_edges


# ---------------------------------------------------------------------------
# one validation per state: derived wavefunctions reuse the checked columns
# ---------------------------------------------------------------------------


def _replaced_normalized(psi):
    """``normalized_copy`` through ``dataclasses.replace``, which converts and checks every column again."""
    scale = 1.0 / math.sqrt(psi.norm_squared())
    return dataclasses.replace(psi, c1s=[scale * c for c in psi.c1s], c2s=[scale * c for c in psi.c2s], normalized=True)


def _replaced_derivative(psi):
    """The derivative through ``dataclasses.replace``."""
    d1s, d2s = zip(*(_DERIVATIVE_ROWS[k](r, c1, c2) for k, r, c1, c2 in zip(psi.kinds, psi.rates, psi.c1s, psi.c2s)))
    return dataclasses.replace(psi, c1s=d1s, c2s=d2s, normalized=False)


def _column_bits(psi):
    return psi.breakpoints, psi.kinds, [_hexes(column) for column in (psi.rates, psi.c1s, psi.c2s)], psi.normalized


def _raw_states():
    """Hand-made profiles and the oracle's raw states of an exp stack and an osc-exp well."""
    sheets = SheetArray([(-1.7, 2.2), (-0.3, -0.8), (0.9, 1.4)])
    problems = {
        "uneven": to_quantum(solve_sheets(sheets, atomic_units()), atomic_units()),
        "osc-exp": DeltaPotentialProblem([(-1.0, 0.3), (0.5, -2.0), (2.0, 0.4)], [0.0, -5.0, 1.5, 0.0], atomic_units()),
    }
    raw = {"mixed": _mixed_profile(), "double-exp": _double_exponential()}
    for name, problem in problems.items():
        for j, state in enumerate(oracle.find_bound_states(problem).states):
            raw[f"{name}-{j}"] = PiecewiseExpWavefunction(*state._rows(), normalized=False)
    return raw


_RAW_STATES = _raw_states()


@pytest.mark.parametrize("psi", _RAW_STATES.values(), ids=_RAW_STATES.keys())
def test_derived_wavefunctions_share_the_checked_columns_and_keep_the_bits(psi):
    copy, replaced = psi.normalized_copy(), _replaced_derivative(psi)
    assert _column_bits(copy) == _column_bits(_replaced_normalized(psi))
    assert _column_bits(psi._derivative) == _column_bits(replaced)
    slopes = psi.breakpoint_slopes()
    assert (_hexes(slopes[0]), _hexes(slopes[1])) == tuple(map(_hexes, replaced.breakpoint_values()))
    assert psi.derivative_squared_integral().hex() == replaced.norm_squared().hex()
    for derived in (copy, psi._derivative):
        assert all(map(operator.is_, (derived.breakpoints, derived.kinds, derived.rates), (psi.breakpoints, psi.kinds, psi.rates)))
    psi.values([0.0])
    assert psi.normalized_copy()._frame is psi._frame  # shared once built

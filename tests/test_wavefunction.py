import math

import numpy as np
import pytest
from scipy.integrate import quad

from sheetcrystal import (
    CanonicalCrystal,
    DeltaPotentialProblem,
    DivergentTailError,
    PiecewiseExpWavefunction,
    Segment,
    SheetArray,
    ground_state_from_electrostatics,
    schrodinger_residuals,
    solve_sheets,
    to_quantum,
)
from sheetcrystal import oracle
from sheetcrystal.duality import nan_max


def _double_exponential():
    """exp(-|z|): one breakpoint at 0, pure decay on both sides."""
    return PiecewiseExpWavefunction(
        breakpoints=(0.0,),
        segments=(
            Segment("exp", 1.0, 0.0, 0.0, 1.0),
            Segment("exp", 1.0, 0.0, 1.0, 0.0),
        ),
        normalized=False,
    )


def _mixed_profile():
    """exp left tail, lin + osc interior pieces, exp right tail (not continuous)."""
    return PiecewiseExpWavefunction(
        breakpoints=(-1.0, 0.5, 2.0),
        segments=(
            Segment("exp", 1.3, -1.0, 0.0, 0.7),
            Segment("lin", 0.0, -1.0, 0.4, -0.2),
            Segment("osc", 2.1, 0.5, 0.3, 0.5),
            Segment("exp", 0.8, 2.0, 0.6, 0.0),
        ),
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


def test_continuity_residuals_zero_for_continuous_profile():
    assert _double_exponential().continuity_residuals() == (0.0,)


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
    psi = PiecewiseExpWavefunction(
        breakpoints=(0.0,),
        segments=(
            Segment("exp", 1.0, 0.0, 0.5, 1.0),  # decaying part toward -inf grows
            Segment("exp", 1.0, 0.0, 1.0, 0.0),
        ),
        normalized=False,
    )
    with pytest.raises(DivergentTailError):
        psi.norm_squared()


def test_growing_right_tail_is_divergent():
    psi = PiecewiseExpWavefunction(
        breakpoints=(0.0,),
        segments=(
            Segment("exp", 1.0, 0.0, 0.0, 1.0),
            Segment("exp", 1.0, 0.0, 1.0, 1e-30),
        ),
        normalized=False,
    )
    with pytest.raises(DivergentTailError):
        psi.norm_squared()


def test_linear_end_segment_is_divergent():
    psi = PiecewiseExpWavefunction(
        breakpoints=(0.0,),
        segments=(
            Segment("lin", 0.0, 0.0, 1.0, 0.0),
            Segment("exp", 1.0, 0.0, 1.0, 0.0),
        ),
        normalized=False,
    )
    with pytest.raises(DivergentTailError):
        psi.norm_squared()


def test_normalized_copy_has_unit_norm():
    raw = PiecewiseExpWavefunction(
        breakpoints=(0.0,),
        segments=(
            Segment("exp", 2.0, 0.0, 0.0, 3.0),
            Segment("exp", 2.0, 0.0, 3.0, 0.0),
        ),
        normalized=False,
    )
    psi = raw.normalized_copy()
    assert psi.normalized
    assert psi.norm_squared() == pytest.approx(1.0, rel=1e-15)
    assert psi.value(0.0) == pytest.approx(math.sqrt(2.0), rel=1e-15)


def test_segment_count_must_match_breakpoints():
    with pytest.raises(ValueError, match="segments"):
        PiecewiseExpWavefunction(
            breakpoints=(0.0, 1.0),
            segments=(Segment("exp", 1.0, 0.0, 0.0, 1.0), Segment("exp", 1.0, 0.0, 1.0, 0.0)),
            normalized=False,
        )


def test_segment_kind_and_rate_validation():
    with pytest.raises(ValueError):
        Segment("wiggle", 1.0, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        Segment("exp", 0.0, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        Segment("osc", -2.0, 0.0, 1.0, 0.0)


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
    for i, seg in enumerate(psi.segments):
        mask = idx == i
        if not mask.any():
            continue
        u = zs[mask] - seg.x0
        if seg.kind == "exp":
            vals = np.zeros_like(u)
            if seg.c1 != 0.0:
                vals += seg.c1 * np.exp(-seg.rate * u)
            if seg.c2 != 0.0:
                vals += seg.c2 * np.exp(seg.rate * u)
        elif seg.kind == "lin":
            vals = seg.c1 + seg.c2 * u
        else:
            vals = seg.c1 * np.cos(seg.rate * u) + seg.c2 * np.sin(seg.rate * u)
        out[mask] = vals
    return out


def _derivative_of(psi):
    segments = tuple(s.derivative_coefficients() for s in psi.segments)
    return PiecewiseExpWavefunction(psi.breakpoints, segments, normalized=False)


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
    assert _hexes(psi.continuity_residuals()) == _hexes(np.abs(left - right))

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


_STACKS = {f"crystal-{n}": CanonicalCrystal(n, 2.0, 1.0).to_sheet_array() for n in (0, 8, 50, 100)}
_STACKS["uneven"] = SheetArray([(-1.7, 2.2), (-0.3, -0.8), (0.9, 1.4)])


@pytest.mark.parametrize("sheets", _STACKS.values(), ids=_STACKS.keys())
def test_evaluator_bits_on_map_and_oracle_states(sheets, atomic):
    sol = solve_sheets(sheets, atomic)
    problem = to_quantum(sol, atomic)
    _assert_evaluator_bits(ground_state_from_electrostatics(sol, atomic).wavefunction, problem)
    states = oracle.find_bound_states(problem).states
    for state in (*states[:: max(1, len(states) // 9)], states[-1]):  # about ten of the states
        _assert_evaluator_bits(state.wavefunction, problem)

import dataclasses
import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from sheetcrystal import UnitSystem, alpha_from_sigma, atomic_units, sigma_from_alpha


def test_atomic_units_are_all_ones(atomic):
    assert (atomic.hbar, atomic.mass, atomic.eps0, atomic.V0, atomic.a0) == (1, 1, 1, 1, 1)


def test_atomic_units_satisfy_consistency(atomic):
    assert atomic.V0**2 * atomic.eps0 * atomic.a0**3 == atomic.hbar**2 / atomic.mass


def test_consistent_non_atomic_system_accepted():
    # V0^2 = hbar^2 / (mass * eps0 * a0^3) = 4 / 0.25 = 16
    u = UnitSystem(hbar=2.0, mass=0.5, eps0=4.0, V0=4.0, a0=0.5)
    assert u.V0 == 4.0


def test_inconsistent_tuple_rejected():
    with pytest.raises(ValueError, match="inconsistent"):
        UnitSystem(hbar=1.0, mass=1.0, eps0=1.0, V0=2.0, a0=1.0)


@pytest.mark.parametrize("field", ["hbar", "mass", "eps0", "V0", "a0"])
@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, "1", None, True])
def test_non_positive_or_non_finite_rejected(field, bad):
    # "1", None and True are not real numbers at all
    values = dict(hbar=1.0, mass=1.0, eps0=1.0, V0=1.0, a0=1.0)
    values[field] = bad
    with pytest.raises(ValueError):
        UnitSystem(**values)


@pytest.mark.parametrize(
    "scale,match",
    [(1e-200, "must both be finite normal floats"), (1e200, "overflows the float range")],
    ids=["underflow", "overflow"],
)
def test_consistency_products_outside_the_float_range_rejected(scale, match):
    # consistent on paper (both sides scale**2), but 1e-400 underflows to 0.0 == 0.0 and 1e400 overflows
    with pytest.raises(ValueError, match=match):
        UnitSystem(hbar=scale, mass=1.0, eps0=1.0, V0=scale, a0=1.0)


def test_consistency_products_near_the_float_range_accepted():
    assert UnitSystem(hbar=1e-150, mass=1.0, eps0=1.0, V0=1e-150, a0=1.0).V0 == 1e-150
    assert UnitSystem(hbar=1e150, mass=1.0, eps0=1.0, V0=1e150, a0=1.0).V0 == 1e150


@pytest.mark.parametrize(
    "values,scale",
    [
        (dict(hbar=1e-150, mass=1.0, eps0=1e60, V0=1e-30, a0=1e-100), "0.0"),
        (dict(hbar=1e90, mass=1.0, eps0=1e-300, V0=1e150, a0=1e60), "inf"),
    ],
    ids=["underflow", "overflow"],
)
def test_sheet_to_delta_scale_outside_the_float_range_rejected(values, scale):
    # consistent, with both sides 1e-300 or 1e180, but V0*a0^3 underflows to 0.0 or overflows to inf
    with pytest.raises(ValueError, match=rf"^the sheet-to-delta scale V0\*a0\^3 = {scale} must be a finite normal float$"):
        UnitSystem(**values)


def test_unit_system_is_immutable(atomic):
    with pytest.raises(dataclasses.FrozenInstanceError):
        atomic.hbar = 2.0


def test_strength_from_density(atomic):
    assert alpha_from_sigma(2.0, atomic) == 1.0
    assert alpha_from_sigma(0.0, atomic) == 0.0
    assert alpha_from_sigma(-2.0, atomic) == -1.0


def test_density_from_strength(atomic):
    assert sigma_from_alpha(1.0, atomic) == 2.0
    assert sigma_from_alpha(0.0, atomic) == 0.0


@given(st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_subnormal=False))
@example(3.8764589748391106e-308)
def test_round_trip_is_identity_in_atomic_units(alpha):
    atomic = atomic_units()
    assert alpha_from_sigma(sigma_from_alpha(alpha, atomic), atomic) == alpha
    back = sigma_from_alpha(alpha_from_sigma(alpha, atomic), atomic)
    if abs(alpha) >= 2.0**-1021:
        assert back == alpha
    else:
        # alpha/2 is subnormal, so alpha_from_sigma rounds it to a multiple of
        # 2**-1074 and doubling the rounded value can miss alpha by that much
        assert abs(back - alpha) <= 2.0**-1074


@given(st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_subnormal=False))
def test_round_trip_within_ulp_scale_in_scaled_units(alpha):
    u = UnitSystem(hbar=2.0, mass=0.5, eps0=4.0, V0=4.0, a0=0.5)
    back = alpha_from_sigma(sigma_from_alpha(alpha, u), u)
    assert back == pytest.approx(alpha, rel=4e-16, abs=1e-300)

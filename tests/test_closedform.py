import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from sheetcrystal import (
    CrystalParams,
    UnitSystem,
    atomic_units,
    expectation_kinetic,
    expectation_potential,
    ground_energy,
    identity_abs_sum,
    identity_alternating_exp,
    identity_sinh_parity,
    normalization_constant,
    psi,
    segment_integral_closed,
)
from sheetcrystal.closedform import _log_normalization_constant

# Pinned from exact evaluation, cross-checked against quadrature below.
A_N1 = 1.9906463197512672
A_N2 = 4.472609525974178
PSI_N1_CENTER = 0.26940468350745844
PSI_N1_PEAK = 0.7323178556800845
CORE_INTEGRAL_N1_R2 = 23.604546967106792  # = e^3 * sinh(1)


def _params(n, alpha=1.0, a=1.0, units=None):
    return CrystalParams(n, alpha, a, units or atomic_units())


def _brute_exponents(p, zs):
    """The 2N+1-term site sum S(z) = sum_n (-1)**(n+N) * |z - n*a| at each z.

    Term n is s_n * (z - n*a) with s_n = (-1)**(n+N) * sign(z - n*a), so
    S = C*z - M*a with the integer sums C = sum s_n and M = sum s_n*n.  That
    is evaluated in rational arithmetic: summing rounded terms instead carries
    the rounding of the site positions n*a, ~1e-12 of psi at N = 1000.
    """
    n = np.arange(-p.N, p.N + 1)
    parity = np.where((n + p.N) % 2 == 0, 1, -1)
    sums = []
    for z in zs:
        signed = parity * np.sign(z - n * p.a).astype(int)
        c, m = int(signed.sum()), int((signed * n).sum())
        sums.append(float(Fraction(float(z)) * c - Fraction(p.a) * m))
    return np.array(sums)


def _quad_norm(p):
    """Quadrature of psi^2 over the whole line, split at the cusps."""
    beta = p.units.mass * p.alpha / p.units.hbar**2
    reach = p.N * p.a + 40.0 / beta
    cuts = tuple(n * p.a for n in range(-p.N, p.N + 1))
    total, _ = quad(
        lambda z: psi(p, z) ** 2, -reach, reach, points=cuts, limit=50 * (p.N + 2)
    )
    return total


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bad", [dict(N=-1), dict(N=2.0), dict(alpha=0.0), dict(a=-1.0)])
def test_params_validation(bad):
    values = dict(N=1, alpha=1.0, a=1.0, units=atomic_units())
    values.update(bad)
    with pytest.raises(ValueError):
        CrystalParams(**values)


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------


def test_ground_energy_reference_values():
    assert ground_energy(_params(0)) == -0.5
    assert ground_energy(_params(3)) == -0.5  # independent of N
    assert ground_energy(_params(0, alpha=2.0)) == -2.0
    assert ground_energy(_params(0, alpha=0.5)) == -0.125


def test_ground_energy_uses_units():
    u = UnitSystem(hbar=2.0, mass=0.5, eps0=4.0, V0=4.0, a0=0.5)
    assert ground_energy(_params(2, alpha=3.0, units=u)) == -0.5 * 0.5 * 9.0 / 4.0


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def test_normalization_n0_is_sqrt_of_rate():
    assert normalization_constant(_params(0)) == 1.0
    assert normalization_constant(_params(0, alpha=2.0)) == pytest.approx(
        math.sqrt(2.0), rel=1e-15
    )


def test_normalization_pinned_values():
    assert normalization_constant(_params(1)) == pytest.approx(A_N1, rel=1e-15)
    assert normalization_constant(_params(2)) == pytest.approx(A_N2, rel=1e-15)


def test_normalization_n1_closed_expression():
    assert normalization_constant(_params(1)) == pytest.approx(
        (2.0 * math.exp(-2.0) - math.exp(-4.0)) ** -0.5, rel=1e-14
    )


@pytest.mark.parametrize("n", range(0, 9))
def test_psi_squared_integrates_to_one(n):
    assert _quad_norm(_params(n)) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("n", [0, 1, 2, 5])
@pytest.mark.parametrize("alpha,a", [(0.5, 1.0), (1.0, 0.5), (2.0, 2.0)])
def test_psi_squared_integrates_to_one_off_defaults(n, alpha, a):
    assert _quad_norm(_params(n, alpha=alpha, a=a)) == pytest.approx(1.0, abs=1e-10)


def test_half_line_integral_is_one_half():
    p = _params(3)
    cuts = tuple(n_ * p.a for n_ in range(0, p.N + 1))
    half, _ = quad(lambda z: psi(p, z) ** 2, 0.0, p.N * p.a + 40.0, points=cuts, limit=200)
    assert half == pytest.approx(0.5, abs=1e-10)


# ---------------------------------------------------------------------------
# psi
# ---------------------------------------------------------------------------


def test_psi_single_site_values():
    p = _params(0)
    assert psi(p, 0.0) == 1.0
    assert psi(p, 1.5) == pytest.approx(math.exp(-1.5), rel=1e-14)


def test_psi_pinned_values_n1():
    p = _params(1)
    assert psi(p, 0.0) == pytest.approx(PSI_N1_CENTER, rel=1e-14)
    assert psi(p, 1.0) == pytest.approx(PSI_N1_PEAK, rel=1e-14)
    assert psi(p, 1.0) == pytest.approx(A_N1 * math.exp(-1.0), rel=1e-14)


@pytest.mark.parametrize("n", [1, 2, 4, 1000])
def test_psi_is_even(n):
    p = _params(n)
    rng = np.random.default_rng(7)
    for z in rng.uniform(0.0, n + 5.0, size=1000):
        assert psi(p, float(z)) == pytest.approx(psi(p, float(-z)), rel=1e-12)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 100, 1000])
@pytest.mark.parametrize("alpha,a", [(1.0, 1.0), (0.7, 1.3), (2.0, 0.37)])
def test_psi_positive_and_matches_brute_force_exponent(n, alpha, a):
    p = _params(n, alpha=alpha, a=a)
    beta = alpha  # m*alpha/hbar^2 in atomic units
    # log A, since A itself overflows at N = 1000
    log_a = _log_normalization_constant(p)
    edge = n * a
    sites = np.arange(-n, n + 1) * a
    midpoints = (np.arange(-n, n) + 0.5) * a
    beyond = np.array([0.3, 1.7, 5.0]) + edge
    grid = np.concatenate(
        [sites, midpoints, [-edge, edge], beyond, -beyond, np.linspace(-edge - 8.0, edge + 8.0, 81)]
    )
    values = np.array([psi(p, float(z)) for z in grid])
    assert np.all(values > 0.0)
    expected = np.exp(log_a - beta * _brute_exponents(p, grid))
    np.testing.assert_allclose(values, expected, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_psi_cusp_slope_jump_signs(n):
    p = _params(n)
    h = 1e-7
    for site in range(-n, n + 1):
        z = site * p.a
        slope_right = (psi(p, z + h) - psi(p, z)) / h
        slope_left = (psi(p, z) - psi(p, z - h)) / h
        jump = slope_right - slope_left
        # attractive where site+N is even (jump < 0), repulsive otherwise
        expected_sign = -1.0 if (site + n) % 2 == 0 else 1.0
        assert math.copysign(1.0, jump) == expected_sign
        assert abs(jump) == pytest.approx(2.0 * psi(p, z), rel=1e-6)


def test_log_normalization_constant_computed_once_per_params(monkeypatch):
    from sheetcrystal import closedform

    calls = []
    original = closedform._log_normalization_constant
    monkeypatch.setattr(closedform, "_log_normalization_constant", lambda p: calls.append(p) or original(p))
    p = _params(8)
    for z in np.linspace(-12.0, 12.0, 101):
        psi(p, float(z))
    normalization_constant(p)
    assert calls == [p]


def test_psi_outer_decay_rate_is_exact():
    p = _params(2, alpha=1.5, a=0.8)
    beta = 1.5
    z0 = p.N * p.a
    for step in (0.3, 1.1, 2.9):
        ratio = psi(p, z0 + 1.0 + step) / psi(p, z0 + 1.0)
        assert math.log(ratio) == pytest.approx(-beta * step, rel=1e-12)


def test_psi_is_constant_time_at_huge_n():
    # 2*10**9 + 1 sites: a site sum would run for hours, the site identity answers at once
    p = _params(10**9)  # m*alpha/hbar^2 = 1
    big_n, log_a = p.N, _log_normalization_constant(p)
    for site in (0, 1, 2, 12345, big_n - 1, big_n):
        closed = math.exp(log_a - p.a * (big_n + (site + big_n) % 2))
        assert psi(p, site * p.a) == pytest.approx(closed, rel=1e-12)
        assert psi(p, -site * p.a) == pytest.approx(closed, rel=1e-12)
    for cell in (0, 1, 12345, big_n - 1):
        closed = math.exp(log_a - p.a * (big_n + 0.5))  # midway between a*N and a*(N+1)
        assert psi(p, (cell + 0.5) * p.a) == pytest.approx(closed, rel=1e-12)
        assert psi(p, -(cell + 0.5) * p.a) == pytest.approx(closed, rel=1e-12)


def test_psi_survives_large_exponents_via_log_space():
    p = _params(120, alpha=2.0, a=3.0)  # N*x = 720, past the double exp range
    center = psi(p, 0.0)
    assert math.isfinite(center) and center > 0.0
    assert psi(p, 1.5) > 0.0


# ---------------------------------------------------------------------------
# expectation values
# ---------------------------------------------------------------------------


def test_expectation_reference_values():
    assert expectation_potential(_params(0)) == -1.0
    assert expectation_kinetic(_params(0)) == 0.5
    assert expectation_potential(_params(1)) == -1.0
    assert expectation_kinetic(_params(1)) == 0.5
    assert expectation_potential(_params(2)) == -1.0  # N-independent


def test_expectation_potential_matches_site_sampling():
    # <U> = sum over sites of strength * psi(site)^2, strengths -(+/-)alpha
    for n in (0, 1, 2, 3):
        p = _params(n, alpha=1.3, a=0.9)
        sampled = -p.alpha * math.fsum(
            (-1.0) ** (site + n) * psi(p, site * p.a) ** 2 for site in range(-n, n + 1)
        )
        assert expectation_potential(p) == pytest.approx(sampled, rel=1e-13)


def test_expectation_kinetic_matches_quadrature():
    p = _params(2, alpha=1.1, a=1.4)
    beta = 1.1 * 1.4 / 1.4  # m alpha / hbar^2 in atomic units

    def dpsi_sq(z):
        slope = math.fsum(
            (-1.0) ** (site + p.N) * math.copysign(1.0, z - site * p.a)
            for site in range(-p.N, p.N + 1)
        )
        return (beta * slope * psi(p, z)) ** 2

    cuts = tuple(site * p.a for site in range(-p.N, p.N + 1))
    reach = p.N * p.a + 40.0 / beta
    integral, _ = quad(dpsi_sq, -reach, reach, points=cuts, limit=200)
    assert expectation_kinetic(p) == pytest.approx(0.5 * integral, rel=1e-10)


def test_energy_partition_sweep():
    units = atomic_units()
    for n in range(0, 13):
        for alpha in (0.5, 1.0, 2.0):
            for a in (0.5, 1.0, 2.0):
                p = CrystalParams(n, alpha, a, units)
                total = expectation_kinetic(p) + expectation_potential(p)
                energy = ground_energy(p)
                assert abs(total - energy) <= 1e-12 * abs(energy)


# ---------------------------------------------------------------------------
# lattice identities
# ---------------------------------------------------------------------------


def test_identity_abs_sum_examples():
    assert identity_abs_sum(0, 1) == (2, 2)
    assert identity_abs_sum(0, 0) == (0, 0)
    for n_sites in range(1, 21):
        lhs, rhs = identity_abs_sum(n_sites, n_sites)
        assert rhs == n_sites and lhs == rhs


def test_identity_abs_sum_exhaustive():
    for n_sites in range(0, 21):
        for site in range(-n_sites, n_sites + 1):
            lhs, rhs = identity_abs_sum(site, n_sites)
            assert lhs == rhs


def test_identity_abs_sum_range_check():
    with pytest.raises(ValueError):
        identity_abs_sum(3, 2)


def test_identity_alternating_exp_examples():
    lhs, rhs = identity_alternating_exp(0, 0.37)
    assert lhs == rhs == pytest.approx(math.exp(0.37), rel=1e-15)
    _, rhs = identity_alternating_exp(3, 1.0)
    assert rhs == pytest.approx(math.e + 6.0 * math.sinh(1.0), rel=1e-15)
    lhs, rhs = identity_alternating_exp(5, 0.0)
    assert lhs == rhs == 1.0


def test_identity_alternating_exp_sweep():
    for n_sites in range(0, 21):
        for x in np.linspace(-5.0, 5.0, 21):
            lhs, rhs = identity_alternating_exp(n_sites, float(x))
            assert lhs == pytest.approx(rhs, rel=1e-14, abs=1e-14)


def test_identity_sinh_parity_examples():
    _, rhs = identity_sinh_parity(2, 1.0)
    assert rhs == 0.0
    lhs, rhs = identity_sinh_parity(3, 1.0)
    assert rhs == pytest.approx(math.sinh(1.0), rel=1e-15)
    assert lhs == pytest.approx(rhs, rel=1e-15)
    lhs, rhs = identity_sinh_parity(1, 0.0)
    assert lhs == rhs == 0.0


def test_identity_sinh_parity_sweep():
    for n_sites in range(1, 21):
        for x in np.linspace(-5.0, 5.0, 21):
            lhs, rhs = identity_sinh_parity(n_sites, float(x))
            assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)


# ---------------------------------------------------------------------------
# half-line core integral
# ---------------------------------------------------------------------------


def _core_quad(n_sites, r, a):
    def exponent(z):
        first = math.fsum((-1.0) ** k * abs(z + k * a) for k in range(0, n_sites + 1))
        second = math.fsum((-1.0) ** k * abs(z - k * a) for k in range(1, n_sites + 1))
        return -r * (first + second)

    total = 0.0
    for k in range(n_sites):
        part, _ = quad(lambda z: math.exp(exponent(z)), k * a, (k + 1) * a, limit=100)
        total += part
    return total


def test_core_integral_pinned_value():
    value = segment_integral_closed(1, 2.0, 1.0)
    assert value == pytest.approx(CORE_INTEGRAL_N1_R2, rel=1e-15)
    assert value == pytest.approx(math.exp(3.0) * math.sinh(1.0), rel=1e-15)
    assert value == pytest.approx(_core_quad(1, 2.0, 1.0), rel=1e-10)


@pytest.mark.parametrize("n_sites", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("r", [-1.1, 0.7, 2.0])
def test_core_integral_matches_quadrature(n_sites, r):
    closed = segment_integral_closed(n_sites, r, 1.0)
    assert closed == pytest.approx(_core_quad(n_sites, r, 1.0), rel=1e-10)


def test_core_integral_degenerate_cases():
    assert segment_integral_closed(3, 0.0, 1.5) == 4.5  # flat exponent
    assert segment_integral_closed(2, 2.0, 0.0) == 0.0  # zero-width cells
    assert segment_integral_closed(1, 2.0, 1e-12) == pytest.approx(0.0, abs=1e-11)
    with pytest.raises(ValueError):
        segment_integral_closed(0, 2.0, 1.0)

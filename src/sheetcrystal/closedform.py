"""Closed-form ground-state quantities for the evenly spaced alternating crystal.

The crystal is 2N+1 deltas at z = n*a, attractive wherever n+N is even, so
both outermost sites attract.  Its unnormalized ground state is

    exp(-(m*alpha/hbar^2) * sum_n (-1)**(n+N) * |z - n*a|),

and every quantity below follows from that exponent in closed form.  The
site identities used to collapse the lattice sums are exposed as operations
returning both sides, so the test suite owns the tolerance policy.

The exponent sum itself collapses by the site identity (see
:func:`identity_abs_sum`): it is a*(N + [n+N odd]) at site n*a, linear with
slope +-1 between sites and |z| outside the crystal, so :func:`psi` costs
O(1) per point at any N.

Exponent bookkeeping is done in log space throughout, so large
N * m*alpha*a/hbar^2 products cannot overflow before the final exp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .electrostatics import _validate_crystal
from .units import UnitSystem


@dataclass(frozen=True)
class CrystalParams:
    """Crystal half-width N, attraction strength alpha > 0, spacing a > 0."""

    N: int
    alpha: float
    a: float
    units: UnitSystem

    def __post_init__(self) -> None:
        _validate_crystal(self, "alpha", "a")

    @cached_property
    def _log_norm_constant(self) -> float:  # log A, read by psi at every point
        return _log_normalization_constant(self)


def _decay_rate(p: CrystalParams) -> float:
    """Exponent rate m*alpha/hbar^2 of the outer tails."""
    return p.units.mass * p.alpha / p.units.hbar**2


def _half_cell_weight(x: float) -> float:
    """exp(-x)*sinh(x), computed as -expm1(-2x)/2 so it never overflows."""
    return -0.5 * math.expm1(-2.0 * x)


def ground_energy(p: CrystalParams) -> float:
    """Bound-state energy -m*alpha^2/(2*hbar^2); independent of N and a."""
    return -0.5 * p.units.mass * p.alpha**2 / p.units.hbar**2


def _log_normalization_constant(p: CrystalParams) -> float:
    beta = _decay_rate(p)
    if p.N == 0:
        # Single attractive delta: A = sqrt(m*alpha)/hbar.
        return 0.5 * math.log(beta)
    x = beta * p.a
    return 0.5 * math.log(beta) + p.N * x - 0.5 * math.log1p(2.0 * p.N * _half_cell_weight(x))


def normalization_constant(p: CrystalParams) -> float:
    """Prefactor A that makes the crystal ground state unit norm.

    1/A^2 = (hbar^2/(m*alpha)) * exp(-2*N*x) * (1 + 2*N*exp(-x)*sinh(x))
    with x = m*alpha*a/hbar^2.  Each of the N cells between the center and
    the edge contributes the same amount to the norm integral, hence the
    factor N on the sinh term.
    """
    return math.exp(p._log_norm_constant)


def psi(p: CrystalParams, z: float) -> float:
    """Normalized ground-state value at ``z``; strictly positive and even.

    The exponent sum S(z) = sum_n (-1)**(n+N) * |z - n*a| is taken from the
    site identity instead of the 2N+1 terms: S(n*a) = a*(N + [n+N odd]),
    S is linear with slope +-1 between neighbouring sites, and S = |z| for
    |z| >= N*a.  It is evaluated on u = |z|, so psi is exactly even, and
    costs O(1) at any N.
    """
    beta = _decay_rate(p)
    u = abs(z)
    if u < p.N * p.a:
        k = int(u // p.a)
        odd = (k + p.N) % 2
        exponent_sum = p.a * (p.N + odd) + (1 - 2 * odd) * (u - k * p.a)
    else:
        exponent_sum = u
    return math.exp(p._log_norm_constant - beta * exponent_sum)


def expectation_potential(p: CrystalParams) -> float:
    """Mean potential energy -m*alpha^2/hbar^2; independent of N and a.

    The site-sampled lattice sum exp(-(1+2N)x)*(exp(x) + 2N*sinh(x)) is
    exactly the normalization integral times the decay rate, so their ratio
    is 1 for every N and the N=0 value survives unchanged.
    """
    return -p.units.mass * p.alpha**2 / p.units.hbar**2


def expectation_kinetic(p: CrystalParams) -> float:
    """Mean kinetic energy +m*alpha^2/(2*hbar^2), i.e. E - <U>.

    The exponent slope has magnitude one everywhere, so the derivative's
    square integrates to the decay rate squared for every N and a.
    """
    return 0.5 * p.units.mass * p.alpha**2 / p.units.hbar**2


def identity_abs_sum(n: int, N: int) -> tuple[int, int]:
    """Signed sum of |n - j| over lattice sites vs its closed form.

    Returns (brute-force side, ((1+2N) - (-1)**(n+N)) / 2); both are exact
    integers.
    """
    if isinstance(n, bool) or isinstance(N, bool) or not (isinstance(n, int) and isinstance(N, int)):
        raise ValueError("n and N must be integers")
    if N < 0 or abs(n) > N:
        raise ValueError(f"need |n| <= N with N >= 0, got n={n!r}, N={N!r}")
    lhs = sum((-1) ** (j + N) * abs(n - j) for j in range(-N, N + 1))
    rhs = ((1 + 2 * N) - (-1) ** (n + N)) // 2
    return lhs, rhs


def identity_alternating_exp(N: int, x: float) -> tuple[float, float]:
    """Alternating exponential site sum vs exp(x) + 2N*sinh(x)."""
    if isinstance(N, bool) or not isinstance(N, int) or N < 0:
        raise ValueError(f"N must be a non-negative integer, got {N!r}")
    lhs = math.fsum((-1.0) ** n * math.exp(x * (-1.0) ** n) for n in range(0, 2 * N + 1))
    rhs = math.exp(x) + 2.0 * N * math.sinh(x)
    return lhs, rhs


def identity_sinh_parity(N: int, x: float) -> tuple[float, float]:
    """Alternating sinh sum vs its parity-factor collapse.

    (-1)**N * sum_{k=0}^{N-1} sinh((-1)**(k+N) * x) telescopes to zero for
    even N and to sinh(x) for odd N.
    """
    if isinstance(N, bool) or not isinstance(N, int) or N < 1:
        raise ValueError(f"N must be an integer >= 1, got {N!r}")
    lhs = (-1.0) ** N * math.fsum(math.sinh((-1.0) ** (k + N) * x) for k in range(N))
    rhs = 0.5 * (1.0 - (-1.0) ** N) * math.sinh(x)
    return lhs, rhs


def segment_integral_closed(N: int, sigma_over_eps0V0: float, a: float) -> float:
    """Closed form of the half-line core integral of the crystal norm.

    Evaluates integral_0^{N*a} exp(f(z)) dz for
    f(z) = -r * (sum_{n=0}^{N} (-1)**n |z+n*a| + sum_{n=1}^{N} (-1)**n |z-n*a|),
    r = sigma_over_eps0V0.  On each cell (k*a, (k+1)*a) the exponent is
    linear with slope -r*(-1)**k, and the cell integrals all coincide:

    integral = N * (2/r) * sinh(r*a/2) * exp(-(r*a/2) * (-1)**N * (1+2N)).
    """
    if isinstance(N, bool) or not isinstance(N, int) or N < 1:
        raise ValueError(f"N must be an integer >= 1, got {N!r}")
    r = float(sigma_over_eps0V0)
    a = float(a)
    if not (math.isfinite(r) and math.isfinite(a)) or a < 0.0:
        raise ValueError("sigma_over_eps0V0 must be finite and a must be finite and >= 0")
    if r == 0.0:
        return N * a
    half = 0.5 * r * a
    return N * (2.0 / r) * math.sinh(half) * math.exp(-half * (-1.0) ** N * (1 + 2 * N))

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
O(1) per point at any N.  What it reads at every point (N, a, N*a, log A
and m*alpha/hbar^2) is taken once per :class:`CrystalParams` and unpacked
once per call.  It also takes a whole array of points, with the bits of the
scalar expression at every point.

Exponent bookkeeping is done in log space throughout, so large
N * m*alpha*a/hbar^2 products cannot overflow before the final exp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .electrostatics import SheetArray
from .units import UnitSystem, sigma_from_alpha


@dataclass(frozen=True)
class CrystalParams:
    """Crystal half-width N, attraction strength alpha > 0, spacing a > 0.

    This is the only crystal type: the electrostatic side reads the same
    crystal through :meth:`to_sheet_array`.
    """

    N: int
    alpha: float
    a: float
    units: UnitSystem

    def __post_init__(self) -> None:
        if isinstance(self.N, bool) or not isinstance(self.N, int):
            raise ValueError(f"N must be an integer, got {self.N!r}")
        if self.N < 0:
            raise ValueError(f"N must be >= 0, got {self.N!r}")
        for name in ("alpha", "a"):
            value = float(getattr(self, name))
            if not math.isfinite(value) or value <= 0.0:
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
            object.__setattr__(self, name, value)

    def to_sheet_array(self) -> SheetArray:
        """The dual stack: 2N+1 sheets at z = n*a, densities sigma * (-1)**(n + N).

        sigma = sigma_from_alpha(alpha, units), so the outermost (and, for
        even N, the central) sheets are positive.  That end-positivity is
        what keeps the dual wavefunction normalizable.
        """
        sigma = sigma_from_alpha(self.alpha, self.units)
        if not math.isfinite(sigma):
            raise OverflowError(f"alpha = {self.alpha!r} gives an infinite sheet density")
        return SheetArray([(n * self.a, sigma * (-1.0) ** (n + self.N)) for n in range(-self.N, self.N + 1)])

    @cached_property
    def _log_norm_constant(self) -> float:  # log A, read by psi at every point
        return log_normalization_constant(self)

    @cached_property
    def decay_rate(self) -> float:
        """m*alpha/hbar^2, the rate of the outer tails and the ground state's kappa."""
        return self.units.mass * self.alpha / self.units.hbar**2

    @cached_property
    def _psi_terms(self) -> tuple[int, float, float, float, float]:
        """(N, a, N*a, log A, m*alpha/hbar^2): what psi reads at every point, taken once per params."""
        return self.N, self.a, self.N * self.a, self._log_norm_constant, self.decay_rate


def _half_cell_weight(x: float) -> float:
    """exp(-x)*sinh(x), computed as -expm1(-2x)/2 so it never overflows."""
    return -0.5 * math.expm1(-2.0 * x)


def _squared_strength(p: CrystalParams) -> float:
    """alpha**2, rounded as Python's ``**`` rounds it; its overflow names alpha."""
    try:
        return p.alpha**2
    except OverflowError:
        raise OverflowError(f"the squared attraction strength alpha**2 overflows at alpha = {p.alpha!r}") from None


def ground_energy(p: CrystalParams) -> float:
    """Bound-state energy -m*alpha^2/(2*hbar^2); independent of N and a."""
    return -0.5 * p.units.mass * _squared_strength(p) / p.units.hbar**2


def log_normalization_constant(p: CrystalParams) -> float:
    """log A, where A is the prefactor that makes the crystal ground state unit norm.

    1/A^2 = (hbar^2/(m*alpha)) * exp(-2*N*x) * (1 + 2*N*exp(-x)*sinh(x))
    with x = m*alpha*a/hbar^2.  Each of the N cells between the center and
    the edge contributes the same amount to the norm integral, hence the
    factor N on the sinh term.  The log stays finite where A overflows.
    """
    beta = p.decay_rate
    if p.N == 0:
        # Single attractive delta: A = sqrt(m*alpha)/hbar.
        return 0.5 * math.log(beta)
    x = beta * p.a
    return 0.5 * math.log(beta) + p.N * x - 0.5 * math.log1p(2.0 * p.N * _half_cell_weight(x))


def normalization_constant(p: CrystalParams) -> float:
    """Prefactor A = exp(:func:`log_normalization_constant`); overflows once log A passes ~709."""
    return math.exp(p._log_norm_constant)


def psi(p: CrystalParams, z: float | np.ndarray) -> float | np.ndarray:
    """Normalized ground-state value at ``z``; strictly positive and even.

    The exponent sum S(z) = sum_n (-1)**(n+N) * |z - n*a| is taken from the
    site identity instead of the 2N+1 terms: S(n*a) = a*(N + [n+N odd]),
    S is linear with slope +-1 between neighbouring sites, and S = |z| for
    |z| >= N*a.  It is evaluated on u = |z|, so psi is exactly even, and
    costs O(1) at any N.  Its terms N, a, N*a, log A and m*alpha/hbar^2 are
    computed once per params (``p._psi_terms``) and unpacked once per call.

    ``z`` may be a float or an ``np.ndarray`` of any shape; an array gives an
    array of the same shape whose every value has the bits of the scalar
    call.  The array branch forms S term for term as the scalar one does
    (the cell index ``u // a`` kept as a float, points outside the crystal
    masked out before the division, since ``inf // a`` is NaN) and takes the
    exponential with ``math.exp`` over a list: ``np.exp`` differs from it
    in the last bit on about 4.6% of uniform exponents in [-50, 0]
    (numpy 2.4, x86-64).
    """
    if isinstance(z, np.ndarray):
        N, a, half_width, log_norm, rate = p._psi_terms
        u = np.abs(z)
        inside = u < half_width
        k = np.where(inside, u, 0.0) // a
        odd = k % 2.0 != N % 2
        within = np.where(odd, float(N + 1), float(N)) * a + np.where(odd, -1.0, 1.0) * (u - k * a)
        exponents = log_norm - rate * np.where(inside, within, u)
        return np.array(list(map(math.exp, exponents.ravel().tolist()))).reshape(u.shape)
    u = abs(float(z))  # a numpy scalar point runs in Python floats, with the bits of a float point
    N, a, half_width, log_norm, rate = p._psi_terms
    if u < half_width:
        k = int(u // a)
        odd = (k + N) % 2
        exponent_sum = a * (N + odd) + (1 - 2 * odd) * (u - k * a)
    else:
        exponent_sum = u
    return math.exp(log_norm - rate * exponent_sum)


def expectation_potential(p: CrystalParams) -> float:
    """Mean potential energy -m*alpha^2/hbar^2; independent of N and a.

    The site-sampled lattice sum exp(-(1+2N)x)*(exp(x) + 2N*sinh(x)) is
    exactly the normalization integral times the decay rate, so their ratio
    is 1 for every N and the N=0 value survives unchanged.
    """
    return -p.units.mass * _squared_strength(p) / p.units.hbar**2


def expectation_kinetic(p: CrystalParams) -> float:
    """Mean kinetic energy +m*alpha^2/(2*hbar^2), i.e. E - <U>.

    The exponent slope has magnitude one everywhere, so the derivative's
    square integrates to the decay rate squared for every N and a.
    """
    return 0.5 * p.units.mass * _squared_strength(p) / p.units.hbar**2


def identity_abs_sum(n: int, N: int) -> tuple[int, int]:
    """Signed sum of |n - j| over lattice sites vs its closed form.

    Returns (brute-force side, ((1+2N) - (-1)**(n+N)) / 2); both are exact
    integers.
    """
    if isinstance(n, bool) or isinstance(N, bool) or not (isinstance(n, int) and isinstance(N, int)):
        raise ValueError("n and N must be integers")
    if N < 0 or abs(n) > N:
        raise ValueError(f"need |n| <= N with N >= 0, got n={n!r}, N={N!r}")
    # j + N even (j = -N, -N + 2, ..., N) adds |n - j|, j + N odd subtracts it
    lhs = sum(abs(n - j) for j in range(-N, N + 1, 2)) - sum(abs(n - j) for j in range(1 - N, N, 2))
    rhs = ((1 + 2 * N) - (-1) ** (n + N)) // 2
    return lhs, rhs


def identity_alternating_exp(N: int, x: float) -> tuple[float, float]:
    """Alternating exponential site sum vs exp(x) + 2N*sinh(x)."""
    if isinstance(N, bool) or not isinstance(N, int) or N < 0:
        raise ValueError(f"N must be a non-negative integer, got {N!r}")
    # the 2N+1 site terms: exp(x) at even n, -exp(-x) at odd n (taken only if there is one)
    rising = math.exp(x)
    falling = -math.exp(-x) if N else 0.0
    lhs = math.fsum([rising, falling] * N + [rising])
    rhs = rising + 2.0 * N * math.sinh(x)
    return lhs, rhs


def identity_sinh_parity(N: int, x: float) -> tuple[float, float]:
    """Alternating sinh sum vs its parity-factor collapse.

    (-1)**N * sum_{k=0}^{N-1} sinh((-1)**(k+N) * x) telescopes to zero for
    even N and to sinh(x) for odd N.
    """
    if isinstance(N, bool) or not isinstance(N, int) or N < 1:
        raise ValueError(f"N must be an integer >= 1, got {N!r}")
    # the N site terms: sinh(x) where k + N is even, sinh(-x) where it is odd
    terms = (math.sinh(x), math.sinh(-x))
    lhs = (-1.0) ** N * math.fsum(terms[(k + N) % 2] for k in range(N))
    rhs = 0.5 * (1.0 - (-1.0) ** N) * terms[0]
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

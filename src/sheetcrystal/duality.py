"""The exponential map between sheet electrostatics and 1D bound states.

An electrostatic solution V(z) with equal asymptotic field magnitudes on
both ends is dual to a delta-function potential problem: each sheet becomes
a delta whose strength is opposite in sign to the sheet density, and each
region picks up a constant offset proportional to the difference between
its field energy density and the asymptotic one.  The nodeless function
exp(V(z)/V0), normalized, is then the exact ground state, with energy equal
to minus the asymptotic field energy density.  Only the ground state can be
produced this way: the map cannot make nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .electrostatics import ElectrostaticSolution
from .errors import (
    AsymmetricAsymptoticFieldError,
    BreakpointMismatchError,
    NotNormalizableError,
)
from .units import UnitSystem
from .wavefunction import PiecewiseExpWavefunction

ASYMPTOTIC_FIELD_RTOL = 1e-12


def nan_max(*values: float) -> float:
    """The largest value, or NaN when any value is NaN.

    The builtin ``max`` drops a NaN that is not its first argument, because
    every comparison with NaN is false, so a residual made NaN by a defect
    would read as the largest finite one and pass its check.
    """
    return math.nan if any(map(math.isnan, values)) else max(values)


@dataclass(frozen=True)
class DeltaPotentialProblem:
    """Delta potentials at ordered positions plus piecewise-constant offsets.

    The potential is sum_n strength_n * delta(z - z_n) plus offset_k in
    region k; negative strengths are attractive.  Offsets are measured
    relative to the potential at infinity, so both end entries must be zero.
    """

    deltas: tuple[tuple[float, float], ...]
    region_offsets: tuple[float, ...]
    units: UnitSystem

    def __init__(
        self,
        deltas: Sequence[tuple[float, float]],
        region_offsets: Sequence[float],
        units: UnitSystem,
    ) -> None:
        cleaned = tuple((float(z), float(g)) for z, g in deltas)
        offsets = tuple(float(u) for u in region_offsets)
        if not cleaned:
            raise ValueError("a DeltaPotentialProblem needs at least one delta")
        for z, g in cleaned:
            if not (math.isfinite(z) and math.isfinite(g)):
                raise ValueError(f"positions and strengths must be finite, got ({z!r}, {g!r})")
        for (z0, _), (z1, _) in zip(cleaned, cleaned[1:]):
            if not z1 > z0:
                raise ValueError("delta positions must be strictly increasing")
            if not math.isfinite(z1 - z0):
                raise ValueError(f"the gap between delta positions {z0!r} and {z1!r} exceeds the float range")
        if len(offsets) != len(cleaned) + 1:
            raise ValueError(
                f"{len(cleaned)} deltas need {len(cleaned) + 1} region offsets, "
                f"got {len(offsets)}"
            )
        if any(not math.isfinite(u) for u in offsets):
            raise ValueError("region offsets must be finite")
        if offsets[0] != 0.0 or offsets[-1] != 0.0:
            raise ValueError(
                "offsets in the two unbounded end regions must be exactly zero "
                "(the potential is measured relative to its asymptotic value)"
            )
        object.__setattr__(self, "deltas", cleaned)
        object.__setattr__(self, "region_offsets", offsets)
        object.__setattr__(self, "units", units)

    # computed once per problem, so its states share one tuple; not fields,
    # so equality and hashing still see the deltas, offsets and units alone
    @cached_property
    def positions(self) -> tuple[float, ...]:
        return tuple(z for z, _ in self.deltas)

    @cached_property
    def strengths(self) -> tuple[float, ...]:
        return tuple(g for _, g in self.deltas)

    def check_breakpoints(self, psi: PiecewiseExpWavefunction) -> None:
        """Raise BreakpointMismatchError unless ``psi`` breaks exactly at the delta positions."""
        if psi.breakpoints != self.positions:
            raise BreakpointMismatchError(
                f"wavefunction breakpoints {psi.breakpoints!r} do not match "
                f"delta positions {self.positions!r}"
            )


@dataclass(frozen=True)
class GroundStateSolution:
    """Normalized nodeless ground state produced by the exponential map.

    The state is A * exp(V/V0).  The constant is kept only as its natural
    log, ``log_norm_constant``, which stays finite where A itself exceeds
    the float range (long crystals: log A passes ~709 at N = 1000,
    alpha = a = 1).
    """

    energy: float
    wavefunction: PiecewiseExpWavefunction
    log_norm_constant: float


@dataclass(frozen=True)
class NormalizabilityReport:
    """Boolean verdict plus the reason, truthy when normalizable."""

    normalizable: bool
    reason: str

    def __bool__(self) -> bool:
        return self.normalizable


@dataclass(frozen=True)
class SchrodingerResidualReport:
    """Maximum absolute defect of each bound-state condition."""

    region_residual: float
    cusp_residual: float
    continuity_residual: float

    def max_residual(self) -> float:
        return nan_max(self.region_residual, self.cusp_residual, self.continuity_residual)


def _check_end_fields(sol: ElectrostaticSolution) -> None:
    left, right = abs(sol.region_fields[0]), abs(sol.region_fields[-1])
    if abs(left - right) > ASYMPTOTIC_FIELD_RTOL * max(left, right):
        raise AsymmetricAsymptoticFieldError(
            f"end-region field magnitudes differ: {left!r} (left) vs {right!r} (right); "
            "no single asymptotic energy density exists"
        )


def _squared_end_field(sol: ElectrostaticSolution) -> float:
    """E_inf**2, rounded as Python's ``**`` rounds it; its overflow names E_inf."""
    try:
        return sol.E_inf**2
    except OverflowError:
        raise OverflowError(f"the squared end field E_inf**2 overflows at E_inf = {sol.E_inf!r}") from None


def to_quantum(sol: ElectrostaticSolution, units: UnitSystem) -> DeltaPotentialProblem:
    """Map an electrostatic solution to its dual delta-potential problem.

    Sheets of density sigma become deltas of strength -sigma*V0*a0^3/2, and
    interior regions acquire offsets (eps0/2)*(E_k^2 - E_inf^2)*a0^3.  The
    end offsets are zero by construction.

    Raises
    ------
    AsymmetricAsymptoticFieldError
        If the two end regions disagree on |field| (rel. tol. 1e-12).
    """
    _check_end_fields(sol)
    scale = units.V0 * units.a0**3
    deltas = [(z, -0.5 * s * scale) for z, s in zip(sol.breakpoints, sol.densities)]
    e_inf_sq = _squared_end_field(sol)
    offsets = [0.0]
    for field in sol.region_fields[1:-1]:
        offsets.append(0.5 * units.eps0 * (field * field - e_inf_sq) * units.a0**3)
    offsets.append(0.0)
    return DeltaPotentialProblem(deltas, offsets, units)


def check_normalizable(sol: ElectrostaticSolution) -> NormalizabilityReport:
    """Whether exp(V/V0) decays at both ends, with the failing side named.

    Decay requires the potential to fall toward -inf on both sides, i.e.
    a negative slope -E in the rightmost region and a positive one in the
    leftmost, so the field points outward at both ends.  For a sheet array
    both reduce to total density > 0.
    """
    left_ok = sol.region_fields[0] < 0.0
    right_ok = sol.region_fields[-1] > 0.0
    if left_ok and right_ok:
        return NormalizabilityReport(True, "potential falls toward -inf on both sides")
    sides = []
    if not left_ok:
        sides.append("z -> -inf")
    if not right_ok:
        sides.append("z -> +inf")
    reason = "exp(V/V0) does not decay as " + " or ".join(sides)
    if not left_ok and not right_ok:
        reason += " (total sheet density <= 0)"
    return NormalizabilityReport(False, reason)


def ground_state_from_electrostatics(
    sol: ElectrostaticSolution, units: UnitSystem
) -> GroundStateSolution:
    """Build the normalized ground state exp(V/V0)/norm of the dual problem.

    The normalization integral is done segment by segment in closed form;
    exponents are shifted by the potential maximum first, so very deep
    potentials cannot overflow.  One factor is not shifted: the expm1 of a
    region's rise, which overflows where V rises by more than about
    355*V0 across one region (2*rise/V0 past ~709.78, the limit of exp).

    Raises
    ------
    NotNormalizableError
        If the potential does not confine (see :func:`check_normalizable`).
    AsymmetricAsymptoticFieldError
        If the end-region field magnitudes differ.
    OverflowError
        If V rises by more than about 355*V0 across one region, or E_inf**2
        (the energy) exceeds the float range; the message names the value.
    """
    verdict = check_normalizable(sol)
    if not verdict:
        raise NotNormalizableError(verdict.reason)
    _check_end_fields(sol)

    v0 = units.V0
    breakpoints = sol.breakpoints
    values = sol.potential_values
    slopes = [-field for field in sol.region_fields]  # dV/dz per region; negation is exact
    v_max = max(values)

    # Shifted norm: integral of exp(2*(V - v_max)/V0), assembled per region;
    # expm1 keeps nearly flat regions (slope ~ 0) exact.
    parts = [math.exp(2.0 * (values[0] - v_max) / v0) * v0 / (2.0 * slopes[0])]
    for k in range(1, len(slopes) - 1):
        left = values[k - 1]
        slope = slopes[k]
        width = breakpoints[k] - breakpoints[k - 1]
        anchor = math.exp(2.0 * (left - v_max) / v0)
        if slope == 0.0:
            parts.append(anchor * width)
        else:
            try:
                growth = math.expm1(2.0 * slope * width / v0)
            except OverflowError:
                raise OverflowError(
                    f"V rises by {slope * width / v0!r}*V0 between the sheets at z = {breakpoints[k - 1]!r} "
                    f"and {breakpoints[k]!r}, past expm1's limit of about 355*V0"
                ) from None
            parts.append(anchor * growth * v0 / (2.0 * slope))
    parts.append(math.exp(2.0 * (values[-1] - v_max) / v0) * v0 / (2.0 * -slopes[-1]))

    log_norm_constant = -0.5 * math.log(math.fsum(parts)) - v_max / v0

    # segment k is anchored at breakpoints[max(k - 1, 0)], where V is values[max(k - 1, 0)]
    rows = []
    for k, slope in enumerate(slopes):
        amplitude = math.exp(log_norm_constant + values[max(k - 1, 0)] / v0)
        rate = abs(slope) / v0
        if slope > 0.0:
            rows.append(("exp", rate, 0.0, amplitude))
        elif slope < 0.0:
            rows.append(("exp", rate, amplitude, 0.0))
        else:
            rows.append(("lin", 0.0, amplitude, 0.0))

    psi = PiecewiseExpWavefunction(breakpoints, *zip(*rows), normalized=True)
    energy = -0.5 * units.eps0 * _squared_end_field(sol) * units.a0**3
    return GroundStateSolution(energy=energy, wavefunction=psi, log_norm_constant=log_norm_constant)


def schrodinger_residuals(
    problem: DeltaPotentialProblem,
    psi: PiecewiseExpWavefunction,
    energy: float,
) -> SchrodingerResidualReport:
    """Measure how well (psi, energy) solves the stationary problem.

    Checks, per region, the curvature relation between the segment rate and
    offset ( -(hbar^2/2m)*psi''/psi + U_k == E ); at each delta, the slope
    jump against (2m*g/hbar^2)*psi; and value continuity everywhere.  A NaN
    defect anywhere makes its residual NaN, so no check can pass on it.

    Raises
    ------
    BreakpointMismatchError
        If the wavefunction breakpoints are not the delta positions.
    """
    problem.check_breakpoints(psi)
    units = problem.units
    half_h2_over_m = 0.5 * units.hbar**2 / units.mass

    region = [0.0]
    for kind, rate, offset in zip(psi.kinds, psi.rates, problem.region_offsets):
        if kind == "exp":
            local_energy = -half_h2_over_m * rate**2 + offset
        elif kind == "lin":
            local_energy = offset
        else:
            local_energy = half_h2_over_m * rate**2 + offset
        region.append(abs(local_energy - energy))

    jump_scale = 2.0 * units.mass / units.hbar**2
    left, right = psi.breakpoint_values()
    slope_left, slope_right = psi.breakpoint_slopes()
    cusp = abs(slope_right - slope_left - right * [jump_scale * g for g in problem.strengths])

    return SchrodingerResidualReport(nan_max(*region), nan_max(*cusp.tolist()), nan_max(*abs(left - right).tolist()))

"""Exact fields, potentials, and energy densities of parallel charged sheets.

These are the only charge configurations whose field magnitude is piecewise
constant, which is what the exponential map onto bound states requires.
Everything here is closed form: the field is constant per region, the
potential is piecewise linear and continuous, and the gauge is fixed to

    V(z) = -(1/(2*eps0)) * sum_n sigma_n * |z - z_n|

so that downstream wavefunction formulas come out without stray constants.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple, Sequence, Union

from .units import UnitSystem

UNIFORM_FIELD_RTOL = 1e-12


@dataclass(frozen=True)
class SheetArray:
    """Finite stack of infinite charged sheets at strictly increasing positions.

    ``sheets`` is a sequence of ``(position, surface_density)`` pairs.
    Coincident positions are rejected; merge densities upstream if needed.
    """

    sheets: tuple[tuple[float, float], ...]

    def __init__(self, sheets: Sequence[tuple[float, float]]) -> None:
        cleaned = tuple((float(z), float(s)) for z, s in sheets)
        if not cleaned:
            raise ValueError("a SheetArray needs at least one sheet")
        for z, s in cleaned:
            if not (math.isfinite(z) and math.isfinite(s)):
                raise ValueError(f"positions and densities must be finite, got ({z!r}, {s!r})")
        for (z0, _), (z1, _) in zip(cleaned, cleaned[1:]):
            if not z1 > z0:
                raise ValueError(
                    "sheet positions must be strictly increasing; "
                    f"got {z0!r} followed by {z1!r} (merge coincident sheets upstream)"
                )
        object.__setattr__(self, "sheets", cleaned)

    @property
    def positions(self) -> tuple[float, ...]:
        return tuple(z for z, _ in self.sheets)

    @property
    def densities(self) -> tuple[float, ...]:
        return tuple(s for _, s in self.sheets)

    @property
    def total_density(self) -> float:
        return math.fsum(s for _, s in self.sheets)


def _validate_crystal(crystal, *positive: str) -> None:
    """Check a frozen crystal's integer ``N >= 0`` and its ``positive`` fields.

    Each named field must be finite and > 0; it is stored back as a float.
    """
    if isinstance(crystal.N, bool) or not isinstance(crystal.N, int):
        raise ValueError(f"N must be an integer, got {crystal.N!r}")
    if crystal.N < 0:
        raise ValueError(f"N must be >= 0, got {crystal.N!r}")
    for name in positive:
        value = float(getattr(crystal, name))
        if not math.isfinite(value) or value <= 0.0:
            raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        object.__setattr__(crystal, name, value)


@dataclass(frozen=True)
class CanonicalCrystal:
    """Evenly spaced alternating stack with positive sheets at both ends.

    Expands to 2N+1 sheets at z = n*a for n in [-N, N] with densities
    sigma * (-1)**(n + N), so the outermost (and, for even N, the central)
    sheets are positive.  That end-positivity is what keeps the dual
    wavefunction normalizable.
    """

    N: int
    sigma: float
    a: float

    def __post_init__(self) -> None:
        _validate_crystal(self, "sigma", "a")

    def to_sheet_array(self) -> SheetArray:
        return SheetArray(
            [(n * self.a, self.sigma * (-1.0) ** (n + self.N)) for n in range(-self.N, self.N + 1)]
        )


class BoundaryField(NamedTuple):
    """Two one-sided field values at a sheet position (the field jumps there)."""

    left: float
    right: float


@dataclass(frozen=True)
class ElectrostaticSolution:
    """Piecewise description of the field and potential of a sheet array.

    Regions are indexed 0..len(breakpoints): region 0 is the unbounded left
    end, region k (k >= 1) lies between breakpoints k-1 and k.  The caller
    is responsible for pairing a solution with the same UnitSystem it was
    solved under.
    """

    breakpoints: tuple[float, ...]
    densities: tuple[float, ...]
    region_fields: tuple[float, ...]
    potential_values: tuple[float, ...]
    region_slopes: tuple[float, ...]
    E_inf: float
    region_energy_density: tuple[float, ...]


def solve_sheets(array: SheetArray, units: UnitSystem) -> ElectrostaticSolution:
    """Solve a sheet array for its field, potential, and energy density.

    The field in region k is half the difference of the side sums,
    (left_k - right_k)/(2*eps0) = (2*left_k - total)/(2*eps0), taken from
    one running prefix sum and the total.  The potential is evaluated in the
    fixed gauge once, at the first sheet, and continued across each region
    by slope times width, V_k = V_{k-1} - E_k * (z_k - z_{k-1}): the same
    piecewise-linear continuity that :func:`potential_at` assumes.  Both
    passes are O(N).
    """
    eps0 = units.eps0
    positions = array.positions
    densities = array.densities

    # The last prefix is the total itself, so the end fields are exactly +-total/(2*eps0).
    total = math.fsum(densities)
    lefts = [*accumulate(densities[:-1], initial=0.0), total]
    fields = [(2.0 * left - total) / (2.0 * eps0) for left in lefts]

    z0 = positions[0]
    potential = [-0.5 / eps0 * math.fsum(s * abs(z0 - zn) for zn, s in array.sheets)]
    for k in range(1, len(positions)):
        potential.append(potential[-1] - fields[k] * (positions[k] - positions[k - 1]))

    return ElectrostaticSolution(
        breakpoints=positions,
        densities=densities,
        region_fields=tuple(fields),
        potential_values=tuple(potential),
        region_slopes=tuple(-f for f in fields),
        E_inf=abs(fields[-1]),
        region_energy_density=tuple(0.5 * eps0 * f * f for f in fields),
    )


def field_at(sol: ElectrostaticSolution, z: float) -> Union[float, BoundaryField]:
    """Field at ``z``; at a sheet position, both one-sided values.

    The field is discontinuous exactly at the sheets, so querying a
    breakpoint returns a :class:`BoundaryField` instead of silently picking
    (or averaging) a side.
    """
    z = float(z)
    idx = bisect_right(sol.breakpoints, z)
    if idx > 0 and sol.breakpoints[idx - 1] == z:
        return BoundaryField(left=sol.region_fields[idx - 1], right=sol.region_fields[idx])
    return sol.region_fields[idx]


def potential_at(sol: ElectrostaticSolution, z: float) -> float:
    """Evaluate the continuous piecewise-linear potential at ``z``."""
    z = float(z)
    idx = bisect_right(sol.breakpoints, z)
    anchor = idx - 1 if idx > 0 else 0
    return sol.potential_values[anchor] + sol.region_slopes[idx] * (z - sol.breakpoints[anchor])


def uniform_field_magnitude(sol: ElectrostaticSolution) -> Union[float, None]:
    """The common |field| if every region shares one, else ``None``.

    Magnitudes are compared with a relative tolerance of 1e-12.
    """
    mags = [abs(f) for f in sol.region_fields]
    top = max(mags)
    if top - min(mags) <= UNIFORM_FIELD_RTOL * top:
        return sol.E_inf
    return None

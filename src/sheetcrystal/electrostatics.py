"""Exact fields and potentials of parallel charged sheets.

These are the only charge configurations whose field magnitude is piecewise
constant, which is what the exponential map onto bound states requires.
Everything here is closed form: the field is constant per region, the
potential is piecewise linear and continuous, and the gauge is fixed to

    V(z) = -(1/(2*eps0)) * sum_n sigma_n * |z - z_n|

so that downstream wavefunction formulas come out without stray constants.
The potential's slope in region k is -region_fields[k]; the solution stores
the fields only.  The alternating crystal's stack comes from
``closedform.CrystalParams.to_sheet_array``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

from .units import UnitSystem


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
    E_inf: float


def solve_sheets(array: SheetArray, units: UnitSystem) -> ElectrostaticSolution:
    """Solve a sheet array for its field and potential.

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
        E_inf=abs(fields[-1]),
    )


def potential_at(sol: ElectrostaticSolution, z: float) -> float:
    """Evaluate the continuous piecewise-linear potential at ``z``."""
    z = float(z)
    idx = bisect_right(sol.breakpoints, z)
    anchor = idx - 1 if idx > 0 else 0
    return sol.potential_values[anchor] - sol.region_fields[idx] * (z - sol.breakpoints[anchor])

"""Exact fields and potentials of parallel charged sheets.

These are the only charge configurations whose field magnitude is piecewise
constant, which is what the exponential map onto bound states requires.
Everything here is closed form: the field is constant per region, the
potential is piecewise linear and continuous, and the gauge is fixed to

    V(z) = -(1/(2*eps0)) * sum_n sigma_n * |z - z_n|

so that downstream wavefunction formulas come out without stray constants.
The potential's slope in region k is -region_fields[k]; the solution stores
the fields only.  A sheet stack and a delta problem are the same ordered
stack of (position, value) pairs, so one helper checks both and splits them
into columns.  A :class:`SheetArray` keeps its position and density
columns from construction, and :func:`solve_sheets` runs in Python floats:
one exactly rounded sum for the gauge and one running subtraction across
the regions, with no per-region bookkeeping.  The alternating crystal's
stack comes from ``closedform.CrystalParams.to_sheet_array``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, repeat
from operator import mul, sub
from typing import Sequence

import numpy as np

from .units import UnitSystem


def _ordered_pairs(pairs: Sequence[tuple[float, float]], owner: str, item: str, values: str) -> tuple:
    """``pairs`` as float tuples, checked as one ordered stack, with its two columns.

    The one rule for a sheet stack and for a delta problem, which the map
    turns into each other pair by pair: at least one pair, finite entries,
    strictly increasing positions and gaps inside the float range, checked
    in that order.  ``owner``, ``item`` and ``values`` name the type, one
    pair and the second column in the messages.  Returns the pairs, the
    positions and the values, each a tuple.
    """
    cleaned = tuple((float(z), float(v)) for z, v in pairs)
    if not cleaned:
        raise ValueError(f"a {owner} needs at least one {item}")
    for z, v in cleaned:
        if not (math.isfinite(z) and math.isfinite(v)):
            raise ValueError(f"positions and {values} must be finite, got ({z!r}, {v!r})")
    for (z0, _), (z1, _) in zip(cleaned, cleaned[1:]):
        if not z1 > z0:
            raise ValueError(
                f"{item} positions must be strictly increasing; "
                f"got {z0!r} followed by {z1!r} (merge coincident {item}s upstream)"
            )
        if not math.isfinite(z1 - z0):
            raise ValueError(f"the gap between {item} positions {z0!r} and {z1!r} exceeds the float range")
    return (cleaned, *zip(*cleaned))


@dataclass(frozen=True)
class SheetArray:
    """Finite stack of infinite charged sheets at strictly increasing positions.

    ``sheets`` is a sequence of ``(position, surface_density)`` pairs.
    Coincident positions are rejected; merge densities upstream if needed.
    ``positions`` and ``densities`` are the two columns of ``sheets``, kept
    as tuples from construction, so reading them costs no copy.
    """

    sheets: tuple[tuple[float, float], ...]
    positions: tuple[float, ...] = field(init=False, repr=False, compare=False)
    densities: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __init__(self, sheets: Sequence[tuple[float, float]]) -> None:
        columns = _ordered_pairs(sheets, "SheetArray", "sheet", "densities")
        for name, column in zip(("sheets", "positions", "densities"), columns):
            object.__setattr__(self, name, column)


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
    fixed gauge once, at the first sheet, as one ``math.fsum`` of
    sigma_n * (z_n - z_0), and continued across each region by slope times
    width, V_k = V_{k-1} - E_k * (z_k - z_{k-1}), as one running subtraction
    (``itertools.accumulate``): the same piecewise-linear continuity that
    :func:`potential_at` assumes.  Both passes are O(N) in Python floats.
    """
    eps0 = units.eps0
    positions = array.positions
    densities = array.densities

    # The last prefix is the total itself, so the end fields are exactly +-total/(2*eps0).
    total = math.fsum(densities)
    lefts = [*accumulate(densities[:-1], initial=0.0), total]
    fields = tuple([(2.0 * left - total) / (2.0 * eps0) for left in lefts])

    # every |z_0 - z_n| is z_n - z_0 at the leftmost sheet, with the same bits
    z0 = positions[0]
    v0 = -0.5 / eps0 * math.fsum(map(mul, densities, map(sub, positions, repeat(z0))))
    steps = map(mul, fields[1:-1], map(sub, positions[1:], positions))

    return ElectrostaticSolution(
        breakpoints=positions,
        densities=densities,
        region_fields=fields,
        potential_values=tuple(accumulate(steps, sub, initial=v0)),
        E_inf=abs(fields[-1]),
    )


def potential_at(sol: ElectrostaticSolution, z: float) -> float:
    """Evaluate the continuous piecewise-linear potential at ``z``."""
    z, breakpoints = float(z), sol.breakpoints
    idx = bisect_right(breakpoints, z)
    anchor = idx - 1 if idx > 0 else 0
    return sol.potential_values[anchor] - sol.region_fields[idx] * (z - breakpoints[anchor])


def potential_at_points(sol: ElectrostaticSolution, zs: np.ndarray) -> np.ndarray:
    """:func:`potential_at` at every point of an array, as an array of the same shape.

    Every value has the bits of the scalar call: the same region
    (``np.searchsorted`` with ``side="right"`` is ``bisect_right``), the
    same anchor and the same subtraction and product.  It is a function of
    its own because a type test in :func:`potential_at` would slow every
    scalar call by a fifth or more.
    """
    zs, breakpoints = np.asarray(zs, dtype=float), np.array(sol.breakpoints)
    idx = np.searchsorted(breakpoints, zs, side="right")
    anchor = np.maximum(idx - 1, 0)
    return np.array(sol.potential_values)[anchor] - np.array(sol.region_fields)[idx] * (zs - breakpoints[anchor])

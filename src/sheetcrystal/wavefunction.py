"""Piecewise closed-form wavefunctions split at potential breakpoints.

Each region carries one of the three exact solution bases of a constant-
coefficient second-order equation:

* ``exp``  -- c1*exp(-rate*(z-x0)) + c2*exp(+rate*(z-x0)), rate > 0
* ``lin``  -- c1 + c2*(z-x0)                     (degenerate rate == 0)
* ``osc``  -- c1*cos(rate*(z-x0)) + c2*sin(rate*(z-x0)), rate > 0

Segment 0 covers the unbounded left region and is anchored at the first
breakpoint; every other segment is anchored at the left edge of its region.
All integrals (norm, per-region probability, derivative squared) come from
antiderivatives, so nothing in the package accumulates sampling error.

Point values have one evaluator, :func:`_evaluate`: the numpy forms at arrays
of (segment index, z) pairs give the reference bits for every point value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DivergentTailError

VALID_KINDS = ("exp", "lin", "osc")


@dataclass(frozen=True)
class Segment:
    """One region's basis coefficients; see the module docstring for forms."""

    kind: str
    rate: float
    x0: float
    c1: float
    c2: float

    def __post_init__(self) -> None:
        if self.kind not in VALID_KINDS:
            raise ValueError(f"unknown segment kind {self.kind!r}")
        if self.kind in ("exp", "osc") and not self.rate > 0.0:
            raise ValueError(f"{self.kind} segments need rate > 0, got {self.rate!r}")

    def derivative_coefficients(self) -> "Segment":
        """Segment of the same kind/anchor representing d(psi)/dz."""
        kind, rate, x0, c1, c2 = self.kind, self.rate, self.x0, self.c1, self.c2
        if kind == "exp":
            return Segment(kind, rate, x0, -rate * c1, rate * c2)
        if kind == "lin":
            return Segment(kind, rate, x0, c2, 0.0)
        return Segment(kind, rate, x0, rate * c2, -rate * c1)


def _evaluate(columns: tuple[np.ndarray, ...], idx: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """The forms of the module docstring at each (segment index, z) pair."""
    kind, rate, x0, c1, c2 = (column[idx] for column in columns)
    u = zs - x0
    out = np.zeros_like(u)
    falling = (kind == "exp") & (c1 != 0.0)  # skip zero terms: far out, 0 * exp overflow is nan
    out[falling] += c1[falling] * np.exp(-rate[falling] * u[falling])
    rising = (kind == "exp") & (c2 != 0.0)
    out[rising] += c2[rising] * np.exp(rate[rising] * u[rising])
    lin = kind == "lin"
    out[lin] = c1[lin] + c2[lin] * u[lin]
    osc = kind == "osc"
    out[osc] = c1[osc] * np.cos(rate[osc] * u[osc]) + c2[osc] * np.sin(rate[osc] * u[osc])
    return out


def _square_integral_finite(kind: str, r: float, c1: float, c2: float, u1: float, u2: float) -> float:
    """Exact integral of psi(z)^2 over local coordinates [u1, u2] of one segment."""
    width = u2 - u1
    if kind == "exp":
        # expm1 keeps the difference quotients exact as r*width -> 0
        total = 2.0 * c1 * c2 * width
        if c1 != 0.0:
            total += c1 * c1 * math.exp(-2.0 * r * u1) * -math.expm1(-2.0 * r * width) / (2.0 * r)
        if c2 != 0.0:
            total += c2 * c2 * math.exp(2.0 * r * u1) * math.expm1(2.0 * r * width) / (2.0 * r)
        return total
    if kind == "lin":
        return (
            c1 * c1 * width
            + c1 * c2 * (u2 * u2 - u1 * u1)
            + c2 * c2 * (u2**3 - u1**3) / 3.0
        )
    s1, s2 = math.sin(2.0 * r * u1), math.sin(2.0 * r * u2)
    k1, k2 = math.cos(2.0 * r * u1), math.cos(2.0 * r * u2)
    return (
        0.5 * (c1 * c1 + c2 * c2) * width
        + (c1 * c1 - c2 * c2) * (s2 - s1) / (4.0 * r)
        + c1 * c2 * (k1 - k2) / (2.0 * r)
    )


def _square_integral_left_tail(kind: str, r: float, c1: float, c2: float) -> float:
    """Exact integral of psi(z)^2 over (-inf, x0]; the region must decay."""
    if kind != "exp" or c1 != 0.0:
        raise DivergentTailError(
            "left end segment must be a pure exponential decaying toward -inf"
        )
    return c2 * c2 / (2.0 * r)


def _square_integral_right_tail(kind: str, r: float, c1: float, c2: float) -> float:
    """Exact integral of psi(z)^2 over [x0, inf); the region must decay."""
    if kind != "exp" or c2 != 0.0:
        raise DivergentTailError(
            "right end segment must be a pure exponential decaying toward +inf"
        )
    return c1 * c1 / (2.0 * r)


def region_square_integrals(breakpoints: tuple[float, ...], rows) -> list[float]:
    """Exact integral of psi^2 over each region, ends included.

    ``rows`` holds one ``(kind, rate, c1, c2)`` per segment in the forms of the
    module docstring, so a state can be sized before any :class:`Segment` of
    it is built.
    """
    rows = list(rows)
    parts = [_square_integral_left_tail(*rows[0])]
    for i in range(1, len(rows) - 1):
        width = breakpoints[i] - breakpoints[i - 1]
        parts.append(_square_integral_finite(*rows[i], 0.0, width))
    parts.append(_square_integral_right_tail(*rows[-1]))
    return parts


@dataclass(frozen=True)
class PiecewiseExpWavefunction:
    """Wavefunction stitched from per-region closed-form segments.

    ``segments`` has one more entry than ``breakpoints``; ``normalized`` is
    a promise made by the constructor path, not re-derived here.
    """

    breakpoints: tuple[float, ...]
    segments: tuple[Segment, ...]
    normalized: bool

    def __post_init__(self) -> None:
        if len(self.segments) != len(self.breakpoints) + 1:
            raise ValueError(
                f"{len(self.breakpoints)} breakpoints need "
                f"{len(self.breakpoints) + 1} segments, got {len(self.segments)}"
            )
        if any(b >= c for b, c in zip(self.breakpoints, self.breakpoints[1:])):
            raise ValueError("breakpoints must be strictly increasing")

    @cached_property
    def _columns(self) -> tuple[np.ndarray, ...]:
        """(kind, rate, x0, c1, c2) arrays, one entry per segment, for :func:`_evaluate`."""
        rate, x0, c1, c2 = np.array([(s.rate, s.x0, s.c1, s.c2) for s in self.segments], dtype=float).T
        return np.array([s.kind for s in self.segments]), rate, x0, c1, c2

    @cached_property
    def _derivative(self) -> "PiecewiseExpWavefunction":
        segments = tuple(s.derivative_coefficients() for s in self.segments)
        return PiecewiseExpWavefunction(self.breakpoints, segments, normalized=False)

    def value(self, z: float) -> float:
        zs = np.asarray(float(z))
        return float(_evaluate(self._columns, np.searchsorted(self.breakpoints, zs, side="right"), zs))

    def values(self, zs) -> np.ndarray:
        """Vectorized :meth:`value` over an array of positions."""
        zs = np.asarray(zs, dtype=float)
        return _evaluate(self._columns, np.searchsorted(self.breakpoints, zs, side="right"), zs)

    def derivative(self, z: float, side: str = "right") -> float:
        """One-sided derivative; ``side`` only matters exactly at a breakpoint."""
        if side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        zs = np.asarray(float(z))
        return float(_evaluate(self._derivative._columns, np.searchsorted(self.breakpoints, zs, side=side), zs))

    def breakpoint_values(self) -> tuple[np.ndarray, np.ndarray]:
        """psi(b-) and psi(b+) at every breakpoint b, as arrays."""
        n = len(self.breakpoints)
        segment = np.concatenate([np.arange(n), np.arange(1, n + 1)])  # left of each b, then right
        both = _evaluate(self._columns, segment, np.concatenate([self.breakpoints, self.breakpoints]))
        return both[:n], both[n:]

    def breakpoint_slopes(self) -> tuple[np.ndarray, np.ndarray]:
        """psi'(b-) and psi'(b+) at every breakpoint b, as arrays."""
        return self._derivative.breakpoint_values()

    def segment_probability_integrals(self) -> tuple[float, ...]:
        """Exact integral of psi^2 over each region, ends included."""
        return tuple(region_square_integrals(self.breakpoints, ((s.kind, s.rate, s.c1, s.c2) for s in self.segments)))

    def norm_squared(self) -> float:
        """Exact integral of psi^2 over the whole line."""
        return math.fsum(self.segment_probability_integrals())

    def derivative_squared_integral(self) -> float:
        """Exact integral of (d psi/dz)^2 over the whole line."""
        return self._derivative.norm_squared()

    def continuity_residuals(self) -> tuple[float, ...]:
        """|psi(b-) - psi(b+)| at every breakpoint."""
        left, right = self.breakpoint_values()
        return tuple(np.abs(left - right).tolist())

    def normalized_copy(self) -> "PiecewiseExpWavefunction":
        scale = 1.0 / math.sqrt(self.norm_squared())
        segs = tuple(Segment(s.kind, s.rate, s.x0, scale * s.c1, scale * s.c2) for s in self.segments)
        return PiecewiseExpWavefunction(self.breakpoints, segs, normalized=True)

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
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

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

    def value(self, z: float) -> float:
        u = z - self.x0
        if self.kind == "exp":
            total = 0.0
            if self.c1 != 0.0:
                total += self.c1 * math.exp(-self.rate * u)
            if self.c2 != 0.0:
                total += self.c2 * math.exp(self.rate * u)
            return total
        if self.kind == "lin":
            return self.c1 + self.c2 * u
        return self.c1 * math.cos(self.rate * u) + self.c2 * math.sin(self.rate * u)

    def derivative_coefficients(self) -> "Segment":
        """Segment of the same kind/anchor representing d(psi)/dz."""
        kind, rate, x0, c1, c2 = self.kind, self.rate, self.x0, self.c1, self.c2
        if kind == "exp":
            return Segment(kind, rate, x0, -rate * c1, rate * c2)
        if kind == "lin":
            return Segment(kind, rate, x0, c2, 0.0)
        return Segment(kind, rate, x0, rate * c2, -rate * c1)

    def derivative(self, z: float) -> float:
        return self.derivative_coefficients().value(z)


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

    def _segment_index(self, z: float) -> int:
        return bisect_right(self.breakpoints, z)

    def value(self, z: float) -> float:
        return self.segments[self._segment_index(float(z))].value(float(z))

    def __call__(self, z: float) -> float:
        return self.value(z)

    def values(self, zs) -> np.ndarray:
        """Vectorized :meth:`value` over an array of positions."""
        zs = np.asarray(zs, dtype=float)
        idx = np.searchsorted(self.breakpoints, zs, side="right")
        out = np.empty_like(zs)
        for i, seg in enumerate(self.segments):
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

    def derivative(self, z: float, side: str = "right") -> float:
        """One-sided derivative; ``side`` only matters exactly at a breakpoint."""
        z = float(z)
        idx = self._segment_index(z)
        if side == "left" and idx > 0 and self.breakpoints[idx - 1] == z:
            idx -= 1
        elif side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        return self.segments[idx].derivative(z)

    def _region_square_integrals(self, segments: tuple[Segment, ...]) -> list[float]:
        return region_square_integrals(self.breakpoints, ((s.kind, s.rate, s.c1, s.c2) for s in segments))

    def segment_probability_integrals(self) -> tuple[float, ...]:
        """Exact integral of psi^2 over each region, ends included."""
        return tuple(self._region_square_integrals(self.segments))

    def norm_squared(self) -> float:
        """Exact integral of psi^2 over the whole line."""
        return math.fsum(self.segment_probability_integrals())

    def derivative_squared_integral(self) -> float:
        """Exact integral of (d psi/dz)^2 over the whole line."""
        derivative_segments = tuple(s.derivative_coefficients() for s in self.segments)
        return math.fsum(self._region_square_integrals(derivative_segments))

    def continuity_residuals(self) -> tuple[float, ...]:
        """|psi(b-) - psi(b+)| at every breakpoint."""
        out = []
        for i, b in enumerate(self.breakpoints):
            out.append(abs(self.segments[i].value(b) - self.segments[i + 1].value(b)))
        return tuple(out)

    def normalized_copy(self) -> "PiecewiseExpWavefunction":
        scale = 1.0 / math.sqrt(self.norm_squared())
        segs = tuple(Segment(s.kind, s.rate, s.x0, scale * s.c1, scale * s.c2) for s in self.segments)
        return PiecewiseExpWavefunction(self.breakpoints, segs, normalized=True)

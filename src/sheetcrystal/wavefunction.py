"""Piecewise closed-form wavefunctions split at potential breakpoints.

Each region carries one of the three exact solution bases of a constant-
coefficient second-order equation:

* ``exp``  -- c1*exp(-rate*(z-x0)) + c2*exp(+rate*(z-x0)), rate > 0
* ``lin``  -- c1 + c2*(z-x0)                     (degenerate rate == 0)
* ``osc``  -- c1*cos(rate*(z-x0)) + c2*sin(rate*(z-x0)), rate > 0

A wavefunction is its breakpoints plus one column per field, ``kinds``,
``rates``, ``c1s`` and ``c2s``, with one entry per segment.  Anchors are not
stored: segment k is anchored at ``breakpoints[max(k - 1, 0)]``, so the
unbounded left region and the first finite region share the first
breakpoint and every other segment sits at the left edge of its region.
All integrals (norm, per-region probability, derivative squared) come from
antiderivatives, so nothing in the package accumulates sampling error.

Validation happens once per set of columns: the public constructor
converts every column and checks every rule (lengths, increasing
breakpoints, known kinds, positive exp and osc rates).  The wavefunctions
derived from a checked one, :meth:`PiecewiseExpWavefunction.normalized_copy`
and the derivative behind ``derivative``, ``breakpoint_slopes`` and
``derivative_squared_integral``, reuse its breakpoints, kinds and rates and
set only their new coefficients, unchecked.

Point values have one evaluator, :func:`_evaluate`: the numpy forms at arrays
of (segment index, z) pairs give the reference bits for every point value.
It takes every form at every point and keeps each point's own with
``np.where``, a handful of array calls whatever the number of points; the
cosine and sine are taken only for a wavefunction with an osc segment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DivergentTailError

VALID_KINDS = ("exp", "lin", "osc")
_EXP, _LIN = 0, 1  # kind codes: positions in VALID_KINDS


def _evaluate(
    frame: tuple[np.ndarray, np.ndarray, np.ndarray, bool], coefficients: np.ndarray, idx: np.ndarray, zs: np.ndarray
) -> np.ndarray:
    """The forms of the module docstring at each (segment index, z) pair.

    Every form is taken at every point and ``np.where`` keeps each point's
    own, so a form a point does not keep may overflow or be NaN unseen; the
    osc form is skipped on a wavefunction without an osc segment.  A
    zero coefficient adds 0.0, never 0 * exp(...), which is NaN where the
    exp overflows, and the exp form sums as 0.0 + falling + rising.
    """
    _, codes, rate_anchor, oscillates = frame
    kind = codes.take(idx)
    rate, x0 = rate_anchor.take(idx, axis=1)
    c1, c2 = coefficients.take(idx, axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        u = zs - x0
        ru = rate * u
        exp_form = 0.0 + np.where(c1 != 0.0, c1 * np.exp(-ru), 0.0) + np.where(c2 != 0.0, c2 * np.exp(ru), 0.0)
        # a wavefunction without an osc segment keeps the exp or lin form at every point
        osc_form = c1 * np.cos(ru) + c2 * np.sin(ru) if oscillates else 0.0
        return np.where(kind == _EXP, exp_form, np.where(kind == _LIN, c1 + c2 * u, osc_form))


def _square_integral_finite(kind: str, r: float, c1: float, c2: float, width: float) -> float:
    """Exact integral of psi(z)^2 over local coordinates [0, width] of one segment."""
    if kind == "exp":
        # expm1 keeps the difference quotients exact as r*width -> 0
        total = 2.0 * c1 * c2 * width
        if c1 != 0.0:
            total += c1 * c1 * -math.expm1(-2.0 * r * width) / (2.0 * r)
        if c2 != 0.0:
            total += c2 * c2 * math.expm1(2.0 * r * width) / (2.0 * r)
        return total
    if kind == "lin":
        return c1 * c1 * width + c1 * c2 * (width * width) + c2 * c2 * width**3 / 3.0
    return (
        0.5 * (c1 * c1 + c2 * c2) * width
        + (c1 * c1 - c2 * c2) * math.sin(2.0 * r * width) / (4.0 * r)
        + c1 * c2 * (1.0 - math.cos(2.0 * r * width)) / (2.0 * r)
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


def _derivative_row(kind: str, r: float, c1: float, c2: float) -> tuple[float, float]:
    """(c1, c2) of d(psi)/dz in the same form, with the same rate and anchor."""
    if kind == "exp":
        return -r * c1, r * c2
    if kind == "lin":
        return c2, 0.0
    return r * c2, -r * c1


@dataclass(frozen=True)
class PiecewiseExpWavefunction:
    """Wavefunction stitched from per-region closed forms, held as columns.

    ``kinds``, ``rates``, ``c1s`` and ``c2s`` have one entry per segment,
    one more than ``breakpoints``, and are stored as tuples of Python
    floats (and strings); segment k is anchored at
    ``breakpoints[max(k - 1, 0)]``.  ``normalized`` is a promise made by the
    constructor path, not re-derived here.  The constructor converts and
    checks every column; ``normalized_copy`` and the derivative share the
    checked breakpoints, kinds and rates and skip that step.
    """

    breakpoints: tuple[float, ...]
    kinds: tuple[str, ...]
    rates: tuple[float, ...]
    c1s: tuple[float, ...]
    c2s: tuple[float, ...]
    normalized: bool

    def __post_init__(self) -> None:
        n = len(self.breakpoints)
        for name in ("breakpoints", "kinds", "rates", "c1s", "c2s"):
            column = tuple(np.asarray(getattr(self, name), dtype=str if name == "kinds" else float).tolist())
            if name != "breakpoints" and len(column) != n + 1:
                raise ValueError(f"{n} breakpoints need {n + 1} segments, got {len(column)} {name}")
            object.__setattr__(self, name, column)
        if n == 0:
            raise ValueError("a piecewise wavefunction needs at least one breakpoint")
        if any(b >= c for b, c in zip(self.breakpoints, self.breakpoints[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        for kind, rate in zip(self.kinds, self.rates):
            if kind not in VALID_KINDS:
                raise ValueError(f"unknown segment kind {kind!r}")
            if kind != "lin" and not rate > 0.0:
                raise ValueError(f"{kind} segments need rate > 0, got {rate!r}")

    @cached_property
    def _frame(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
        """(breakpoint array, kind codes, rate and anchor rows, whether any segment is osc),
        shared by derived wavefunctions."""
        codes = np.fromiter(map(VALID_KINDS.index, self.kinds), dtype=np.intp, count=len(self.kinds))
        rate_anchor = np.array((self.rates, (self.breakpoints[0], *self.breakpoints)))
        return np.array(self.breakpoints), codes, rate_anchor, "osc" in self.kinds

    @cached_property
    def _coefficients(self) -> np.ndarray:
        """The c1 and c2 rows, one entry per segment."""
        return np.array((self.c1s, self.c2s))

    def _with_coefficients(self, c1s, c2s, normalized: bool) -> "PiecewiseExpWavefunction":
        """This wavefunction's checked breakpoints, kinds and rates with new c1s and c2s.

        The columns are taken as they are (tuples of Python floats), not
        converted or checked again; the parent's frame is shared if built.
        """
        twin = object.__new__(type(self))
        twin.__dict__.update(
            breakpoints=self.breakpoints, kinds=self.kinds, rates=self.rates,
            c1s=tuple(c1s), c2s=tuple(c2s), normalized=normalized,
        )
        if "_frame" in self.__dict__:
            twin.__dict__["_frame"] = self._frame
        return twin

    @cached_property
    def _derivative(self) -> "PiecewiseExpWavefunction":
        d1s, d2s = zip(*map(_derivative_row, self.kinds, self.rates, self.c1s, self.c2s))
        return self._with_coefficients(d1s, d2s, normalized=False)

    def _at(self, zs: np.ndarray, side: str = "right") -> np.ndarray:
        """Point values at the array ``zs``; ``side`` picks the segment exactly on a breakpoint."""
        frame = self._frame
        return _evaluate(frame, self._coefficients, np.searchsorted(frame[0], zs, side=side), zs)

    def value(self, z: float) -> float:
        return float(self._at(np.asarray(float(z))))

    def values(self, zs) -> np.ndarray:
        """Vectorized :meth:`value` over an array of positions."""
        return self._at(np.asarray(zs, dtype=float))

    def derivative(self, z: float, side: str = "right") -> float:
        """One-sided derivative; ``side`` only matters exactly at a breakpoint."""
        if side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        return float(self._derivative._at(np.asarray(float(z)), side))

    def breakpoint_values(self) -> tuple[np.ndarray, np.ndarray]:
        """psi(b-) and psi(b+) at every breakpoint b, as arrays."""
        n = len(self.breakpoints)
        edges = self._frame[0]
        segment = np.concatenate([np.arange(n), np.arange(1, n + 1)])  # left of each b, then right
        both = _evaluate(self._frame, self._coefficients, segment, np.concatenate([edges, edges]))
        return both[:n], both[n:]

    def breakpoint_slopes(self) -> tuple[np.ndarray, np.ndarray]:
        """psi'(b-) and psi'(b+) at every breakpoint b, as arrays."""
        return self._derivative.breakpoint_values()

    def segment_probability_integrals(self) -> tuple[float, ...]:
        """Exact integral of psi^2 over each region, ends included."""
        rows = list(zip(self.kinds, self.rates, self.c1s, self.c2s))
        parts = [_square_integral_left_tail(*rows[0])]
        for i in range(1, len(rows) - 1):
            width = self.breakpoints[i] - self.breakpoints[i - 1]
            parts.append(_square_integral_finite(*rows[i], width))
        parts.append(_square_integral_right_tail(*rows[-1]))
        return tuple(parts)

    def norm_squared(self) -> float:
        """Exact integral of psi^2 over the whole line."""
        return math.fsum(self.segment_probability_integrals())

    def derivative_squared_integral(self) -> float:
        """Exact integral of (d psi/dz)^2 over the whole line."""
        return self._derivative.norm_squared()

    def normalized_copy(self) -> "PiecewiseExpWavefunction":
        """This wavefunction scaled to unit norm; a norm that vanished or overflowed is a ValueError."""
        norm_squared = self.norm_squared()
        if not 0.0 < norm_squared < math.inf:
            raise ValueError(
                f"cannot normalize the wavefunction: its norm squared, the integral of psi^2, is {norm_squared!r}"
            )
        scale = 1.0 / math.sqrt(norm_squared)
        return self._with_coefficients([scale * c for c in self.c1s], [scale * c for c in self.c2s], normalized=True)

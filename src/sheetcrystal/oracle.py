"""Independent bound-state solver for delta potentials with constant offsets.

Nothing here reuses the exponential-map construction.  For a trial energy
E = -hbar^2*kappa^2/(2m) one left-to-right pass (:func:`_transfer`) carries
the solution that decays toward -inf across every delta site and region and
returns two things: the sign of the coefficient of the growing tail at +inf,
whose roots in kappa are the bound states, and the number of nodes of that
solution on the whole line.  By the Sturm oscillation theorem that node
count is the number of bound states below E, i.e. with a decay rate larger
than kappa, so the count stays exact however closely the states crowd.

:func:`find_bound_states` counts, isolates, refines and reconstructs, and
every step is the same vectorised pass over an array of kappas.  A pass costs
about the same at one kappa as at a hundred, so the first one runs on a grid
of :data:`GRID` cells from kappa = 0+ to the search cap: its count at 0+ gives
the number of states, and the counts at the grid points hand each state the
cell that holds it.  Batched bisection on the count then isolates each
state, the same loop refines each isolated state by regula falsi with the
Illinois modification on the tail coefficient, and the pass at the roots
gives each state its coefficient rows, from which its wavefunction is built
segment by segment when first read; the result is an exact piecewise closed
form whose only approximation is the location of the root.

A pass is a batch and then a recurrence.  Everything that depends on kappa
but not on the propagated solution (each region's regime, rate, phase and
2x2 transfer matrix) is computed at once as (regions, kappas) arrays; the
Python loop over the sites keeps only the sequential part, the delta jump,
the 2x2 step and the rescaling, and stores one row per region.  The node
count and the reconstruction then read those rows as whole arrays.

The propagated pair is rescaled between sites (and exponentials are factored
as exp(-rate*width) forms), so nothing can overflow no matter how wide or
deep the regions are.  Identical inputs give identical output, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .duality import DeltaPotentialProblem
from .errors import BreakpointMismatchError, NoBoundStatesError
from .units import UnitSystem
from .wavefunction import PiecewiseExpWavefunction, Segment, region_square_integrals

REGIME_SWITCH_RTOL = 1e-12
DEFAULT_BISECTION_TOL = 1e-13
GRID = 64  # cells of the counting pass that seeds every bracket


@dataclass(frozen=True)
class BoundState:
    """One bound state: energy, its decay rate at infinity, and the state.

    ``_rows`` holds the breakpoints and the state's coefficient rows from
    its pass (kinds, rates, c1s, c2s, one entry per segment).  The
    normalized wavefunction is built from them the first time it is read,
    and kept, so a caller that reads only the ground state builds only it.
    """

    energy: float
    kappa: float
    _rows: tuple = field(repr=False)

    @cached_property
    def wavefunction(self) -> PiecewiseExpWavefunction:
        # the norm comes from the rows, so every segment is built once, already
        # scaled, with the bits ``normalized_copy`` of the raw state would give
        positions, kinds, rates, c1s, c2s = self._rows
        norm_squared = math.fsum(region_square_integrals(positions, zip(kinds, rates, c1s, c2s)))
        scale = 1.0 / math.sqrt(norm_squared)
        c1s = [scale * c for c in c1s]
        c2s = [scale * c for c in c2s]
        segments = tuple(map(Segment, kinds, rates, (positions[0], *positions), c1s, c2s))
        return PiecewiseExpWavefunction(positions, segments, normalized=True)


@dataclass(frozen=True, eq=False)
class ScanMetadata:
    """How the roots were found; kept for reproducibility and audits.

    ``node_count`` is the number of bound states with decay rate above
    ``tol``, counted from the nodes of the solution at kappa = ``tol``.
    ``brackets`` holds each returned state's isolating interval, and
    ``unresolved`` the intervals that still held more than one state when
    bisection could not split them further.
    """

    kappa_max: float
    node_count: int
    brackets: tuple[tuple[float, float], ...]
    root_residuals: tuple[float, ...]
    unresolved: tuple[tuple[float, float], ...]


@dataclass(frozen=True, eq=False)
class BoundStateList:
    """Bound states in ascending energy order plus the scan metadata."""

    states: tuple[BoundState, ...]
    metadata: ScanMetadata

    def __len__(self) -> int:
        return len(self.states)

    def __iter__(self):
        return iter(self.states)

    @property
    def energies(self) -> tuple[float, ...]:
        return tuple(s.energy for s in self.states)


class _Pass(NamedTuple):
    """Result of :func:`_transfer` at an array of kappas.

    The 2-D arrays have one row per finite region, the one right of site i
    in row i, and one column per kappa.
    """

    tail: np.ndarray  # sign-preserving growing-tail coefficient
    nodes: np.ndarray  # zeros of the left-decaying solution on the whole line
    exp_mask: np.ndarray
    osc_mask: np.ndarray
    rate: np.ndarray  # decay rate (exp) or wave number (osc); 1.0 where linear
    phase: np.ndarray  # rate * width
    psi: np.ndarray  # pair at the region's left edge, after the site's jump
    dpsi: np.ndarray
    renorm: np.ndarray  # positive factor the pair is divided by at the region's end
    psi_last: np.ndarray  # pair just right of the last site
    dpsi_last: np.ndarray


def _transfer(problem: DeltaPotentialProblem, kappas: np.ndarray) -> _Pass:
    """Carry the solution decaying toward -inf across the potential, for each kappa.

    The pass is a batch and a loop.  The batch computes every region's
    regime, rate and transfer matrix at every kappa at once; the loop over
    the sites keeps only what is sequential, the delta jump, the 2x2 step
    and a division by a positive factor after every region, so the tail
    coefficient keeps its sign but not its magnitude.

    Nodes are then counted per region from the stored rows: an exponential
    or linear region holds at most one, seen as a sign change of psi across
    it; in an oscillatory region the Pruefer phase theta = atan2(psi, psi'/k)
    advances by exactly k*width; the right tail holds one when the tail
    coefficient and psi at the last site differ in sign.  An exact zero of
    psi counts as positive; one landing exactly on a site happens only on a
    measure-zero set of kappa.
    """
    units = problem.units
    half_h2_over_m = 0.5 * units.hbar**2 / units.mass
    jump_scale = 2.0 * units.mass / units.hbar**2
    jumps = [jump_scale * g for g in problem.strengths]
    offsets = np.array(problem.region_offsets[1:-1])[:, None]
    positions = np.array(problem.positions)
    widths = (positions[1:] - positions[:-1])[:, None]

    kappas = np.asarray(kappas, dtype=float)
    energies = -half_h2_over_m * kappas**2
    d = offsets - energies
    switch = REGIME_SWITCH_RTOL * np.maximum(np.maximum(1.0, np.abs(energies)), np.abs(offsets))
    exp_mask = d > switch
    osc_mask = d < -switch
    # rate^2 = 2m|U - E|/hbar^2; 1.0 in the linear regime keeps the unused branches finite
    rate = np.sqrt(np.where(exp_mask | osc_mask, np.abs(d / half_h2_over_m), 1.0))
    phase = rate * widths
    damp = np.exp(-2.0 * phase)
    ch = 0.5 * (1.0 + damp)
    sh = 0.5 * (1.0 - damp)
    sin_w = np.sin(phase)
    # region transfer matrix [[diag, up], [down, diag]]; exp rows are scaled by exp(-phase)
    diag = np.where(exp_mask, ch, np.where(osc_mask, np.cos(phase), 1.0))
    up = np.where(exp_mask, sh, np.where(osc_mask, sin_w, phase)) / rate
    down = rate * np.where(exp_mask, sh, np.where(osc_mask, -sin_w, 0.0))

    # psi_end is psi before the division: dividing could flush a tiny negative
    # value to -0.0 and hide the sign change the node count looks for
    psi_at, dpsi_at, psi_end, renorm_at = np.empty((4, *d.shape))
    psi = np.ones(kappas.shape)
    dpsi = kappas
    for i in range(len(d)):
        dpsi = dpsi + jumps[i] * psi
        psi_at[i], dpsi_at[i] = psi, dpsi
        psi_new = psi_end[i] = diag[i] * psi + up[i] * dpsi
        dpsi_new = down[i] * psi + diag[i] * dpsi
        renorm = np.maximum(np.abs(psi_new), np.abs(dpsi_new))
        renorm = renorm_at[i] = np.where(renorm > 0.0, renorm, 1.0)
        psi = psi_new / renorm
        dpsi = dpsi_new / renorm
    dpsi = dpsi + jumps[-1] * psi

    theta = np.arctan2(psi_at, dpsi_at / rate)
    turns = np.floor((theta + phase) / math.pi) - np.floor(theta / math.pi)
    tail = dpsi + kappas * psi
    nodes = np.where(osc_mask, turns, (psi_at < 0.0) != (psi_end < 0.0)).sum(axis=0)
    nodes = nodes + ((tail < 0.0) != (psi < 0.0))
    return _Pass(
        tail, nodes.astype(np.int64), exp_mask, osc_mask, rate, phase,
        psi_at, dpsi_at, renorm_at, psi, dpsi,
    )


def _reconstruct(problem: DeltaPotentialProblem, kappas: np.ndarray, path: _Pass) -> list[BoundState]:
    """Each located root as a state holding its coefficient rows from the pass.

    Every root's rows are formed at once as (segments, kappas) arrays.  Each
    segment's coefficients carry the running log of the factors the pass
    divided out, so deep tails cannot underflow the bookkeeping; the
    residual growing-tail coefficient is dropped (it vanishes to the root
    tolerance by construction).  The normalized wavefunction is built from
    the rows when :attr:`BoundState.wavefunction` is first read.
    """
    exp_mask, osc_mask, rate, psi, dpsi = path.exp_mask, path.osc_mask, path.rate, path.psi, path.dpsi
    # one row per segment (left tail, each region, right tail), one column per kappa
    tail_kind = np.full((1, len(kappas)), "exp")
    zero = np.zeros((1, len(kappas)))
    kinds = np.vstack([tail_kind, np.where(exp_mask, "exp", np.where(osc_mask, "osc", "lin")), tail_kind])
    rates = np.vstack([kappas, np.where(exp_mask | osc_mask, rate, 0.0), kappas])
    c1s = np.vstack([
        zero,
        np.where(exp_mask, (rate * psi - dpsi) / (2.0 * rate), psi),
        (kappas * path.psi_last - path.dpsi_last) / (2.0 * kappas),
    ])
    c2s = np.vstack([
        zero + 1.0,
        np.where(exp_mask, (rate * psi + dpsi) / (2.0 * rate), np.where(osc_mask, dpsi / rate, dpsi)),
        zero,
    ])
    # log of what the pass divided out before each region, added in the pass's
    # order: damping then renorm, region by region
    steps = np.empty((2 * len(psi), len(kappas)))
    steps[0::2] = np.where(exp_mask, path.phase, 0.0)
    steps[1::2] = np.log(path.renorm)
    logs = np.vstack([zero, zero, np.cumsum(steps, axis=0)[1::2]])

    factors = np.exp(logs - logs.max(axis=0))
    columns = zip(
        kinds.T.tolist(), rates.T.tolist(), (c1s * factors).T.tolist(), (c2s * factors).T.tolist(),
    )
    half_h2_over_m = 0.5 * problem.units.hbar**2 / problem.units.mass
    return [
        BoundState(-half_h2_over_m * kappa**2, kappa, (problem.positions, *map(tuple, rows)))
        for kappa, rows in zip(kappas.tolist(), columns)
    ]


def _default_kappa_max(problem: DeltaPotentialProblem) -> float:
    units = problem.units
    strongest = max(
        (2.0 * units.mass * abs(g) / units.hbar**2 for g in problem.strengths), default=0.0
    )
    deepest = max(
        (math.sqrt(2.0 * units.mass * abs(u)) / units.hbar for u in problem.region_offsets),
        default=0.0,
    )
    return 4.0 * max(strongest, deepest)


def find_bound_states(
    problem: DeltaPotentialProblem,
    kappa_max: float | None = None,
    tol: float = DEFAULT_BISECTION_TOL,
) -> BoundStateList:
    """Locate every bound state with decay rate in (tol, kappa_max].

    ``tol`` plays two parts: the node count taken at kappa = ``tol`` stands
    for kappa = 0+ (exactly at 0 a threshold solution can end flat and lose
    a node), and every root's interval is narrowed until it is at most
    ``tol`` wide in kappa; the root is its midpoint.  ``kappa_max`` only caps
    the search and must be finite; the default is four times the largest
    single-delta or single-region rate.

    One pass counts the nodes on a grid of ``GRID`` + 1 points, ``tol``
    and ``kappa_max * k / GRID`` for k = 1..``GRID`` (held at or above
    ``tol``).  Each state starts from the grid cell that holds it, between
    the last point counting more states than its index and the next point;
    a grid point that is an exact root closes its state's interval there.
    All states are then isolated at once: batched bisection on the node count
    narrows each state's interval until it holds that state alone.  From
    then on, in the same loop, the state steps to the regula falsi point of
    the tail coefficient at its two ends, with the Illinois modification
    (Dowell & Jarratt, BIT 11, 168 (1971)): an end kept twice in a row has
    its weight halved.  The tail is the true coefficient divided by positive
    factors continuous in kappa, so it serves as it is.  The point is kept
    ``tol``/2 inside the interval, so once it lands next to the root the
    interval closes; where it is not finite or the two ends agree in sign
    the step bisects.  An interval that reaches ``tol`` or stops splitting
    in floating point while still holding several states returns each of
    them at its midpoint and is listed in ``metadata.unresolved``.  States
    come back sorted by ascending energy; finding none is an empty list,
    not an error.  Each state's wavefunction is built the first time it is
    read, so a caller that reads only ``states[0]`` builds one state.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be > 0, got {tol!r}")
    if kappa_max is None:
        kappa_max = _default_kappa_max(problem)
    kappa_max = float(kappa_max)
    if not math.isfinite(kappa_max):
        raise ValueError(f"kappa_max must be finite, got {kappa_max!r}")

    # one counting pass on a grid: [tol, kappa_max/GRID, ..., kappa_max], held at
    # or above tol; kappa_max * (k / GRID) stays finite for kappa_max = 1e308
    grid = np.concatenate(([tol], np.maximum(tol, kappa_max * (np.arange(1, GRID + 1) / GRID))))
    cells = _transfer(problem, grid)
    node_count = int(cells.nodes[0])
    # state j (j = 0 is the ground state) lies in (lo, hi) when count(lo) > j >= count(hi);
    # lo is the last grid point counting more than j states and hi the next one
    j = np.arange(int(cells.nodes[-1]), node_count)
    above = cells.nodes[None, :] > j[:, None]
    last = GRID - np.argmax(above[:, ::-1], axis=1)
    lo = np.where(grid[last] == tol, 0.0, grid[last])  # 0 stands for 0+, where the count was taken
    hi = grid[last + 1]
    count_lo, count_hi = cells.nodes[last], cells.nodes[last + 1]
    # the tail at each end, the weight of regula falsi; an end kept twice in a row is halved
    tail_lo, tail_hi = cells.tail[last], cells.tail[last + 1]
    # a grid point on the root of state j closes its bracket, as in the loop below
    on_root = (tail_hi == 0.0) & (count_hi == j)
    lo[on_root] = hi[on_root]
    last_move = np.zeros(j.shape, dtype=np.int8)  # +1 lo moved, -1 hi moved, 0 counting
    isolated = ((count_lo == j + 1) & (count_hi == j)) | (lo == hi)
    bracket_lo, bracket_hi = lo.copy(), hi.copy()

    while True:
        mid = 0.5 * (lo + hi)
        active = (hi - lo > tol) & (lo < mid) & (mid < hi)
        if not active.any():
            break
        # an isolated state steps to the Illinois point, kept tol/2 inside its
        # bracket so that a point landing next to the root closes the bracket;
        # where tol/2 is below the float spacing the clamped point can sit on
        # an end, and stepping there would make no progress
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            falsi = (lo * tail_hi - hi * tail_lo) / (tail_hi - tail_lo)
        usable = isolated & np.isfinite(falsi) & ((tail_lo < 0.0) != (tail_hi < 0.0))
        falsi = np.clip(falsi, lo + 0.5 * tol, hi - 0.5 * tol)
        point = np.where(usable & (lo < falsi) & (falsi < hi), falsi, mid)
        step = _transfer(problem, point[active])
        iso = isolated[active]
        # an exact root of state j: count(point) = j states lie above it
        on_root = (step.tail == 0.0) & (iso | (step.nodes == j[active]))
        to_lo = np.where(iso, (step.tail < 0.0) == (tail_lo[active] < 0.0), step.nodes > j[active])
        move_lo, move_hi = to_lo | on_root, ~to_lo | on_root
        idx = np.flatnonzero(active)
        moved = np.where(move_lo, 1, -1)
        again = iso & (last_move[idx] == moved)
        tail_hi[idx[again & move_lo]] *= 0.5
        tail_lo[idx[again & move_hi]] *= 0.5
        last_move[idx] = np.where(iso, moved, 0)
        lo[idx[move_lo]] = point[idx[move_lo]]
        tail_lo[idx[move_lo]] = step.tail[move_lo]
        hi[idx[move_hi]] = point[idx[move_hi]]
        tail_hi[idx[move_hi]] = step.tail[move_hi]
        counting = ~iso
        count_lo[idx[counting & move_lo]] = step.nodes[counting & move_lo]
        count_hi[idx[counting & move_hi]] = step.nodes[counting & move_hi]
        newly = ~isolated & (((count_lo == j + 1) & (count_hi == j)) | (lo == hi))
        bracket_lo[newly], bracket_hi[newly] = lo[newly], hi[newly]
        isolated |= newly

    roots = 0.5 * (lo + hi)
    bracket_lo[~isolated], bracket_hi[~isolated] = lo[~isolated], hi[~isolated]
    final = _transfer(problem, roots)
    metadata = ScanMetadata(
        kappa_max=kappa_max,
        node_count=node_count,
        brackets=tuple(zip(bracket_lo.tolist(), bracket_hi.tolist())),
        root_residuals=tuple(np.abs(final.tail).tolist()),
        unresolved=tuple(sorted(set(zip(lo[~isolated].tolist(), hi[~isolated].tolist())), reverse=True)),
    )
    return BoundStateList(states=tuple(_reconstruct(problem, roots, final)), metadata=metadata)


def ground_state(problem: DeltaPotentialProblem, **scan_options) -> BoundState:
    """Lowest-energy bound state; raises NoBoundStatesError if none exist."""
    found = find_bound_states(problem, **scan_options)
    if not found.states:
        raise NoBoundStatesError("the potential binds no state in the searched range")
    return found.states[0]


def expectation_potential_numeric(
    psi: PiecewiseExpWavefunction, problem: DeltaPotentialProblem
) -> float:
    """<U> from delta sampling plus exact per-region overlap integrals."""
    if not psi.normalized:
        raise ValueError("expectation values need a normalized wavefunction")
    if psi.breakpoints != problem.positions:
        raise BreakpointMismatchError(
            f"wavefunction breakpoints {psi.breakpoints!r} do not match "
            f"delta positions {problem.positions!r}"
        )
    site_part = math.fsum(g * v**2 for g, v in zip(problem.strengths, psi.breakpoint_values()[1].tolist()))
    region_part = math.fsum(
        u * part for u, part in zip(problem.region_offsets, psi.segment_probability_integrals())
    )
    return site_part + region_part


def expectation_kinetic_numeric(psi: PiecewiseExpWavefunction, units: UnitSystem) -> float:
    """<T> = (hbar^2/2m) * integral of psi'^2, evaluated exactly.

    This form needs no delta-site bookkeeping: integrating by parts moves
    the cusp contributions into psi'^2, and the boundary terms vanish for
    decaying tails.
    """
    if not psi.normalized:
        raise ValueError("expectation values need a normalized wavefunction")
    return 0.5 * units.hbar**2 / units.mass * psi.derivative_squared_integral()

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
cell that holds it.  The cap is four times the largest single-delta or
single-region rate of the problem, and a state above it is an error; every
root is located to :data:`DEFAULT_BISECTION_TOL` = 1e-13 in kappa, which
also stands for 0+.  The search's one setting, ``lowest``, is how many of the
lowest states to return (all by default, one for :func:`ground_state`): it
counts every state but isolates and refines only those.  Batched bisection
on the count isolates each of them, the same loop refines each isolated
state by regula falsi with the Illinois modification on the tail
coefficient, and the pass at the roots gives each state its coefficient
columns, from which its wavefunction is built when first read; the result
is an exact piecewise closed form whose only approximation is the location
of the root.  Every column of a pass is computed on its own kappa alone, so
a state comes out with the same bits whether it is refined alone or with
the others.

One search serves many problems.  :func:`find_bound_states` takes one
problem or a sequence of them, and every pass carries the columns of all of
them, each column tagged with its problem.  The kappa-independent arrays
(offsets, widths, jumps) are laid out once per search, one column per
problem, each chain padded at its start to the longest with identity steps:
zero width, zero jump, the linear regime, never rescaled.  A pass over a
batch then costs about what a pass over its longest problem costs, and each
problem's states carry the same bits as a search of that problem alone.  A
batch too large for one pass's memory bound is searched in halves.

A pass is a batch and then a recurrence.  Everything that depends on kappa
but not on the propagated solution (each region's regime, rate, phase and
2x2 transfer matrix) is computed at once as (regions, columns) arrays; the
sines, cosines and Pruefer turns are taken on the oscillatory cells alone,
so a pass without any does none of that work.  The Python loop over the
sites keeps only the sequential part, the delta jump, the 2x2 step and the
rescaling, and writes its rows in place, one per region.  The node count
and the reconstruction then read those rows as whole arrays.

The propagated pair is rescaled between sites (and exponentials are factored
as exp(-rate*width) forms), so nothing can overflow no matter how wide or
deep the regions are.  It is divided by the larger of |psi| and |psi'|,
except where that is not above a floor, and there by 1.0.  The guard has two
jobs: padded steps (floor +inf) pass unchanged, and a pair that is exactly
zero or NaN is left as it is.  A decaying solution carried across a region
where exp(-2*phase) underflows can come out as exactly (0, 0); the guard
keeps it there, so its tail is exactly 0, an exact root, not 0/0.
Identical inputs give identical output, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from numbers import Integral
from typing import NamedTuple, Sequence

import numpy as np

from .duality import DeltaPotentialProblem
from .errors import BreakpointMismatchError, NoBoundStatesError
from .units import UnitSystem
from .wavefunction import PiecewiseExpWavefunction

REGIME_SWITCH_RTOL = 1e-12
DEFAULT_BISECTION_TOL = 1e-13
GRID = 64  # cells of the counting pass that seeds every bracket
_GRID_FRACTIONS = np.arange(GRID + 1) / GRID  # grid point k is kappa_max * (k / GRID), held at or above tol
# a batch whose grid pass would exceed this many (region, column) cells is
# searched in halves: a pass holds about twenty float arrays of that size,
# ~40 MB here, and the cells of a crystal sweep grow as its largest N squared
_SEARCH_CELLS = 2**18


@dataclass(frozen=True)
class BoundState:
    """One bound state: energy, its decay rate at infinity, and the state.

    ``_rows`` holds the breakpoints and views of the state's columns in
    its pass (kinds, rates, c1s, c2s, one entry per segment); it takes no
    part in comparisons.  The normalized wavefunction is built from them the
    first time it is read, and kept, so a caller that reads only the ground
    state converts and builds only it.
    """

    energy: float
    kappa: float
    _rows: tuple = field(repr=False, compare=False)

    @cached_property
    def wavefunction(self) -> PiecewiseExpWavefunction:
        return PiecewiseExpWavefunction(*self._rows, normalized=False).normalized_copy()


@dataclass(frozen=True, eq=False)
class ScanMetadata:
    """The search's cap and count; kept for reproducibility and audits.

    ``kappa_max`` is the cap of the search, four times the problem's largest
    single-delta or single-region rate.  ``state_count`` is the number of
    bound states with decay rate above :data:`DEFAULT_BISECTION_TOL`,
    counted from the nodes of the solution there; it counts every state even
    when only the ``lowest`` were refined, and without ``lowest`` it is the
    number of states returned.  ``unresolved`` holds the intervals among the
    returned states that still held more than one state when bisection could
    not split them further: a fault flag, empty on a clean search.
    """

    kappa_max: float
    state_count: int
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


class _Chain(NamedTuple):
    """The kappa-independent arrays of a batch of problems, one column each.

    Each problem's chain is padded at its start to the longest one.  A padded
    region has zero width, zero jump, an infinite offset, which puts it in
    the linear regime whatever kappa, and a renorm floor of +inf, so it is
    never rescaled: it carries the starting pair (1, kappa) through unchanged,
    bit for bit, and every column gets exactly the operations its problem
    alone would get.
    """

    half_h2_over_m: np.ndarray  # (problems,)
    offsets: np.ndarray  # (regions, problems)
    widths: np.ndarray  # (regions, problems)
    jumps: np.ndarray  # (regions + 1, problems); row i is the site left of region i
    # (regions, problems); renorm at or below it (or NaN) is not divided out:
    # +inf on padded steps, 0.0 elsewhere, so an exactly zero pair stays (0, 0)
    floor: np.ndarray
    first: tuple[int, ...]  # each problem's first real region row


def _chain(problems: list[DeltaPotentialProblem]) -> _Chain:
    regions = max((len(p.deltas) for p in problems), default=1) - 1
    shape = (regions, len(problems))
    offsets, floor = np.full((2, *shape), np.inf)
    widths = np.zeros(shape)
    jumps = np.zeros((regions + 1, len(problems)))
    half_h2_over_m, first = [], []
    for k, problem in enumerate(problems):
        units = problem.units
        jump_scale = 2.0 * units.mass / units.hbar**2
        start = regions + 1 - len(problem.deltas)
        positions = np.array(problem.positions)
        offsets[start:, k] = problem.region_offsets[1:-1]
        widths[start:, k] = positions[1:] - positions[:-1]
        jumps[start:, k] = [jump_scale * g for g in problem.strengths]
        floor[start:, k] = 0.0
        half_h2_over_m.append(0.5 * units.hbar**2 / units.mass)
        first.append(start)
    return _Chain(np.array(half_h2_over_m), offsets, widths, jumps, floor, tuple(first))


class _Pass(NamedTuple):
    """Result of :func:`_transfer` at an array of kappas.

    The 2-D arrays have one row per finite region of the batch's padded
    chain, the one right of site i in row i, and one column per kappa.
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

    def part(self, first: int, columns) -> _Pass:
        """The given columns, with the rows of their problem's own regions."""
        return _Pass(*(a[columns] if a.ndim == 1 else a[first:, columns] for a in self))


def _transfer(chain: _Chain, kappas: np.ndarray, which: np.ndarray) -> _Pass:
    """Carry the solution decaying toward -inf across the potential, for each kappa.

    Column k runs at ``kappas[k]`` on problem ``which[k]`` of the chain.  The
    pass is a batch and a loop.  The batch computes every region's regime,
    rate and transfer matrix at every column at once, the sine and cosine
    entries on the oscillatory cells alone; the loop over the sites keeps
    only what is sequential, the delta jump, the 2x2 step and a division by
    a positive factor after every region, so the tail coefficient keeps its
    sign but not its magnitude.  It writes each site's rows in place.  The
    factor is max(|psi|, |psi'|) where that is above the chain's floor and
    1.0 elsewhere: on padded steps, and on a pair that is exactly zero or
    NaN, so that a decaying solution whose pair underflowed to (0, 0) ends
    in a tail of exactly 0, an exact root.

    Nodes are then counted per region from the stored rows: an exponential
    or linear region holds at most one, seen as a sign change of psi across
    it; in an oscillatory region the Pruefer phase theta = atan2(psi, psi'/k),
    taken on those cells alone, advances by exactly k*width; the right tail
    holds one when the tail coefficient and psi at the last site differ in
    sign.  An exact zero of psi counts as positive; one landing exactly on a
    site happens only on a measure-zero set of kappa.
    """
    half_h2_over_m = chain.half_h2_over_m[which]
    offsets, widths = chain.offsets[:, which], chain.widths[:, which]
    jumps, floor = chain.jumps[:, which], chain.floor[:, which]

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
    sh = 0.5 * (1.0 - damp)
    # region transfer matrix [[diag, up], [down, diag]]; exp rows are scaled by
    # exp(-phase); the trigonometric entries are taken on the osc cells alone
    diag = np.where(exp_mask, 0.5 * (1.0 + damp), 1.0)
    up = np.where(exp_mask, sh, phase)
    down = np.where(exp_mask, sh, 0.0)
    osc_phase = phase[osc_mask]
    sin_w = np.sin(osc_phase)
    diag[osc_mask] = np.cos(osc_phase)
    up[osc_mask] = sin_w
    down[osc_mask] = -sin_w
    up /= rate
    down *= rate

    # row i of psi_rows/dpsi_rows is the pair just right of site i, the last
    # row the pair after the last site; every row is written through out=,
    # never into an array the same call reads, which numpy does more slowly.
    # psi_end is psi before the division: dividing could flush a tiny
    # negative value to -0.0 and hide the sign change the node count looks for
    psi_rows, dpsi_rows = np.empty((2, len(d) + 1, len(kappas)))
    psi_end = np.empty(d.shape)
    renorm_at = np.ones(d.shape)
    psi_rows[0] = 1.0
    dpsi = kappas
    for psi, psi_next, dpsi_row, end_row, renorm_row, jump, diag_row, up_row, down_row, floor_row in zip(
        psi_rows, psi_rows[1:], dpsi_rows, psi_end, renorm_at, jumps, diag, up, down, floor
    ):
        np.add(dpsi, jump * psi, out=dpsi_row)
        np.add(diag_row * psi, up_row * dpsi_row, out=end_row)
        dpsi = down_row * psi + diag_row * dpsi_row
        renorm = np.maximum(abs(end_row), abs(dpsi))
        np.copyto(renorm_row, renorm, where=renorm > floor_row)
        np.divide(end_row, renorm_row, out=psi_next)
        dpsi = dpsi / renorm_row
    psi, dpsi_last = psi_rows[-1], dpsi_rows[-1]
    np.add(dpsi, jumps[-1] * psi, out=dpsi_last)
    psi_at, dpsi_at = psi_rows[:-1], dpsi_rows[:-1]

    tail = dpsi_last + kappas * psi
    # per region: a sign change of psi across it, or in an osc region the Pruefer turns
    region_nodes = ((psi_at < 0.0) != (psi_end < 0.0)).astype(float)
    theta = np.arctan2(psi_at[osc_mask], dpsi_at[osc_mask] / rate[osc_mask])
    region_nodes[osc_mask] = np.floor((theta + osc_phase) / math.pi) - np.floor(theta / math.pi)
    nodes = region_nodes.sum(axis=0)
    nodes = nodes + ((tail < 0.0) != (psi < 0.0))
    uncountable = ~(nodes < 2.0**63)  # NaN or past int64, which the cast would wrap
    if uncountable.any():
        raise ValueError(
            f"cannot count the bound states: a pass found {float(nodes[uncountable][0])!r} nodes; "
            "a region is too wide or too deep for the node count"
        )
    return _Pass(
        tail, nodes.astype(np.int64), exp_mask, osc_mask, rate, phase,
        psi_at, dpsi_at, renorm_at, psi, dpsi_last,
    )


def _reconstruct(problem: DeltaPotentialProblem, kappas: np.ndarray, path: _Pass) -> list[BoundState]:
    """Each located root as a state holding its coefficient rows from the pass.

    ``path`` holds this problem's columns and regions alone (see
    :meth:`_Pass.part`).  Every root's rows are formed at once as
    (segments, kappas) arrays.  Each segment's coefficients carry the
    running log of the factors the pass divided out, so deep tails cannot
    underflow the bookkeeping; the residual growing-tail coefficient is
    dropped (it vanishes to the root tolerance by construction).  Each state
    keeps views of its own column of those arrays; the normalized
    wavefunction is built from them when :attr:`BoundState.wavefunction` is
    first read.
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
    c1s, c2s = c1s * factors, c2s * factors
    half_h2_over_m = 0.5 * problem.units.hbar**2 / problem.units.mass
    return [
        BoundState(
            -half_h2_over_m * kappa**2, kappa, (problem.positions, kinds[:, j], rates[:, j], c1s[:, j], c2s[:, j])
        )
        for j, kappa in enumerate(kappas.tolist())
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
    problems: DeltaPotentialProblem | Sequence[DeltaPotentialProblem],
    lowest: int | None = None,
) -> BoundStateList | list[BoundStateList]:
    """Locate the bound states of each problem, lowest energy first.

    ``problems`` is one problem, answered by one list, or a sequence of
    them, answered by one list per problem in order.  One search serves the
    whole sequence: every pass carries the columns of every problem through
    one :func:`_transfer`, which costs about what a pass over the longest
    problem alone costs, and every column gets the operations its problem
    alone would get, so each state comes out with the same bits whatever
    the batch.  Every chain is padded to the longest, so a sequence whose
    grid pass would hold more than ``_SEARCH_CELLS`` (region, column) cells
    is split in halves, each searched the same way, which bounds the memory
    of a pass; a single problem is never split.

    ``lowest`` = k, an integer >= 0 (not a bool), returns only the k
    lowest-energy states (fewer if fewer exist); ``None`` returns all of
    them.  The count is taken for all of them either way
    (``metadata.state_count``), and only the states returned are isolated,
    refined and reconstructed, so asking for the ground state alone costs
    the counting pass, its own refinement and one pass at its root, whatever
    the number of states.

    The search has no other setting.  Each problem's cap ``kappa_max`` is
    four times its largest single-delta or single-region rate; a problem
    whose cap stands for an energy beyond the float range is rejected before
    the first pass, and one with a state above its cap (a node count at the
    cap) is rejected after the grid pass, so no state in range is missed in
    silence.  ``tol`` = :data:`DEFAULT_BISECTION_TOL` = 1e-13 in kappa plays
    two parts: the node count taken at kappa = ``tol`` stands for kappa = 0+
    (exactly at 0 a threshold solution can end flat and lose a node), so a
    state closer to threshold is not counted, and every root's interval is
    narrowed until it is at most ``tol`` wide; the root is its midpoint.

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
    read.
    """
    single = isinstance(problems, DeltaPotentialProblem)
    batch = [problems] if single else list(problems)
    # a bool is an Integral too, but True for a count is a slip, not a count of 1
    if lowest is not None and (isinstance(lowest, bool) or not isinstance(lowest, Integral) or lowest < 0):
        raise ValueError(f"lowest must be an integer >= 0 or None, got {lowest!r}")
    caps = [_default_kappa_max(problem) for problem in batch]
    for problem, cap in zip(batch, caps):
        if not math.isfinite(0.5 * problem.units.hbar**2 / problem.units.mass * (cap * cap)):
            raise ValueError(
                f"the default search cap kappa_max = {cap!r} stands for an energy "
                "-hbar^2*kappa_max^2/(2m) beyond the float range: a delta or region is too strong"
            )
    longest = max((len(problem.deltas) for problem in batch), default=1)
    if len(batch) > 1 and len(batch) * (GRID + 1) * longest > _SEARCH_CELLS:
        half = len(batch) // 2
        return [*find_bound_states(batch[:half], lowest), *find_bound_states(batch[half:], lowest)]
    chain = _chain(batch)
    tol = DEFAULT_BISECTION_TOL

    # one counting pass on a grid per problem: [tol, kappa_max/GRID, ..., kappa_max],
    # held at or above tol (k = 0 gives tol)
    grid = np.maximum(tol, np.array(caps)[:, None] * _GRID_FRACTIONS)
    cells = _transfer(chain, grid.ravel(), np.repeat(np.arange(len(batch)), GRID + 1))
    nodes = cells.nodes.reshape(grid.shape)
    for cap, top in zip(caps, nodes[:, -1].tolist()):
        if top:
            raise ValueError(
                f"{top} bound state(s) lie above the search cap kappa_max = {cap!r}: "
                "the deltas or regions bind more strongly together than the cap allows"
            )
    # state j (j = 0 is the ground state) of a problem lies in (lo, hi) when
    # count(lo) > j >= count(hi); lo is the last grid point counting more than
    # j states and hi the next one; every state is counted, only the lowest
    # asked for are refined; owner holds each state's problem
    state_counts = nodes[:, 0].tolist()
    refined = state_counts if lowest is None else [min(n, lowest) for n in state_counts]
    owner = np.repeat(np.arange(len(batch)), refined)
    j = np.array([k for n in refined for k in range(n)], dtype=np.int64)
    above = nodes[owner] > j[:, None]
    # flat index into the grid pass of each state's lo point; hi is the next one
    last = owner * (GRID + 1) + GRID - np.argmax(above[:, ::-1], axis=1)
    lo, hi = grid.ravel()[last], grid.ravel()[last + 1]
    lo[lo == tol] = 0.0  # 0 stands for 0+, where the count was taken
    count_lo, count_hi = cells.nodes[last], cells.nodes[last + 1]
    # the tail at each end, the weight of regula falsi; an end kept twice in a row is halved
    tail_lo, tail_hi = cells.tail[last], cells.tail[last + 1]
    # a grid point on the root of state j closes its bracket, as in the loop below
    on_root = (tail_hi == 0.0) & (count_hi == j)
    lo[on_root] = hi[on_root]
    last_move = np.zeros(j.shape, dtype=np.int8)  # +1 lo moved, -1 hi moved, 0 counting
    isolated = ((count_lo == j + 1) & (count_hi == j)) | (lo == hi)

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
        step = _transfer(chain, point[active], owner[active])
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
        isolated |= ((count_lo == j + 1) & (count_hi == j)) | (lo == hi)

    roots = 0.5 * (lo + hi)
    stuck = ~isolated
    final = _transfer(chain, roots, owner)
    unresolved = [set() for _ in batch]
    for p, pair in zip(owner[stuck].tolist(), zip(lo[stuck].tolist(), hi[stuck].tolist())):
        unresolved[p].add(pair)
    found = []
    bounds = [0, *accumulate(refined)]
    for p, (problem, start, stop) in enumerate(zip(batch, bounds[:-1], bounds[1:])):
        metadata = ScanMetadata(
            kappa_max=caps[p],
            state_count=state_counts[p],
            unresolved=tuple(sorted(unresolved[p], reverse=True)),
        )
        columns = slice(start, stop)
        states = _reconstruct(problem, roots[columns], final.part(chain.first[p], columns))
        found.append(BoundStateList(states=tuple(states), metadata=metadata))
    return found[0] if single else found


def ground_state(problem: DeltaPotentialProblem) -> BoundState:
    """Lowest-energy bound state; raises NoBoundStatesError if none exist.

    Only this state is isolated, refined and reconstructed (``lowest=1``).
    """
    found = find_bound_states(problem, lowest=1)
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
    site_part = math.fsum(g * v**2 for g, v in zip(problem.strengths, psi.values(problem.positions).tolist()))
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

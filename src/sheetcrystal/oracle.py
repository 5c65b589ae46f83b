"""Independent bound-state solver for delta potentials with constant offsets.

Nothing here reuses the exponential-map construction.  For a trial energy
E = -hbar^2*kappa^2/(2m) one left-to-right pass (:func:`_transfer`) carries
the solution that decays toward -inf across every delta site and region.
The pass only propagates: it returns the coefficient of the growing tail at
+inf, whose sign changes in kappa are the bound states, and the pair it
stored at every site.  It has two readers.  The count
(:func:`_sturm_count`) reads the number of nodes of that solution on the
whole line off the stored rows; by the Sturm oscillation theorem it is the
number of bound states below E, i.e. with a decay rate larger than kappa,
so the count stays exact however closely the states crowd.  The rebuild
(:func:`_reconstruct`) turns the rows of a pass at the roots into each
state's coefficients, and counts nothing.

:func:`find_bound_states`, the search, counts, isolates and refines, and
answers with one :class:`BoundStateList` whose states are reconstructed
when read; every step is the same vectorised pass over an array of kappas.
A pass costs about the same at one kappa as at a hundred, so the first one
runs on a grid of :data:`GRID` cells from kappa = 0+ to the search cap: its
count at 0+ gives the number of states, and the counts at the grid points
hand each state the cell that holds it.  The cap is four times the largest single-delta or
single-region rate of the problem, and a state above it is an error; every
root is located to :data:`DEFAULT_BISECTION_TOL` = 1e-13 in kappa, which
also stands for 0+.  The search's one setting, ``lowest``, is how many of the
lowest states to return (all by default, 0 to only count): it counts every
state but isolates and refines only those.  The node count decides each
bracket's side.  A bracket whose ends do not count j + 1 and j, or whose
interpolation is not trusted, is cut at :data:`MULTISECTION`
evenly spaced points in one pass (Barth, Martin & Wilkinson, Numer. Math. 9,
386 (1967)); any other takes one point, the inverse-quadratic step of the
tail coefficient (Chandrupatla, Adv. Eng. Softw. 28, 145 (1997)).  A
state's points depend on its own bracket and problem alone, and the search
takes at most about 20 passes whatever the number of states.  Between
passes the search holds each state as one column of a table of values: the
kappa, tail, count and id of its bracket's two ends and the kappa and tail
of its third point, the one Chandrupatla's step reads.  A one-point step
moves one end onto the point, as the point's count says, and the end it
replaces becomes the third point unless the old one is nearer
(:func:`_step`); only a bracket cut at several points picks its new ends
among them (:func:`_bracket`), and only the states still being refined are
carried from pass to pass.  The search makes no pass at its roots: the
first read of a state's wavefunction makes one pass at the roots of its
chunk (:func:`_states`) and rebuilds every state of that chunk with its
coefficient columns; the result is an exact piecewise closed form whose
only approximation is the location of the root.
Every column of a pass is computed on its own kappa alone, so a state comes
out with the same bits whether it is refined or rebuilt alone or with the
others.

A caller that already holds a ground state's decay rate kappa (from a
closed form, say) asks :func:`certify_ground_states` instead, which counts
three columns per problem: node counts of 1 and 0 at kappa*(1 -+
:data:`CERTIFICATE_RTOL`) prove that kappa is the ground state to that
relative width (a Sturm-sequence certificate), and the column at 0+ counts
every state.  A certified state is rebuilt at kappa, as the search's are at
their roots, when it is first read.  A problem that does not certify is
left to its caller.

One search serves many problems.  :func:`find_bound_states` takes one
problem or a sequence of them, and every pass carries the columns of all of
them, each column tagged with its problem.  The kappa-independent arrays
(offsets, widths, jumps) are laid out once per search, one column per
problem, each chain padded at its start to the longest with identity steps:
zero width, zero jump, the linear regime, never rescaled.  A pass over a
batch then costs about what a pass over its longest problem costs, and each
problem's states carry the same bits as a search of that problem alone:
each state keeps its own column of its chunk's coefficient rows from its
left tail on, and a padded step adds nothing to them.  Every pass, counts
and rebuilds alike, runs in column chunks of at most :data:`_SEARCH_CELLS`
(region, column) cells, and a search keeps only each chunk's tails and
counts, so the memory of a search is bounded whatever its size.  A batch
whose grid pass would exceed that bound is also searched in halves, so that
a short problem is not padded to the longest of many.

A pass is a batch and then a recurrence.  The batch is per distinct region:
region rows whose offset and width have the same bits in every problem of
the search form one class, and everything that depends on kappa but not on
the propagated solution (the regime, rate, phase and 2x2 transfer matrix)
is computed once per class, as (classes, columns) arrays.  Every interior
region of the alternating crystal at a = 1 is one class, as in Kronig &
Penney's periodic lattice (Proc. R. Soc. A 130, 499 (1931)); a chain
without repeats has a class per region.  The sines, cosines and Pruefer
turns are taken on the oscillatory cells alone, so a pass without any does
none of that work.  The Python loop over the sites keeps only the
sequential part, the delta jump, the 2x2 step with its region's class row
and the rescaling, and writes its rows in place, one per site.  The pass
keeps the regime, rate and phase at one row per class; its two readers
take what they need to the regions themselves: the count reads them on
the oscillatory cells alone, the rebuild reads them all.

The propagated pair is rescaled between sites (and exponentials are factored
as exp(-rate*width) forms), so nothing can overflow no matter how wide or
deep the regions are.  It is divided by the larger of |psi| and |psi'|,
except where that is not above a floor, and there by 1.0.  The guard has two
jobs: padded steps (zero width, so floor +inf; 0.0 where the width is
positive) pass unchanged, and a pair that is exactly zero or NaN is left as
it is.  A decaying solution carried across a region where exp(-2*phase)
underflows can come out as exactly (0, 0); the guard keeps it there, so its
tail is exactly 0, an exact root, not 0/0.
Identical inputs give identical output, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import accumulate
from numbers import Integral
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .duality import DeltaPotentialProblem
from .units import UnitSystem
from .wavefunction import PiecewiseExpWavefunction

REGIME_SWITCH_RTOL = 1e-12
DEFAULT_BISECTION_TOL = 1e-13
GRID = 64  # cells of the counting pass that seeds every bracket
_GRID_FRACTIONS = np.arange(GRID + 1) / GRID  # grid point k is kappa_max * (k / GRID), held at or above tol
CERTIFICATE_RTOL = 1e-12  # relative half-width in kappa of a ground-state certificate
MULTISECTION = 7  # evenly spaced interior points that cut an uncertain bracket
_CUTS = np.arange(1, MULTISECTION + 1) / (MULTISECTION + 1)  # point k is lo + (hi - lo) * (k / (MULTISECTION + 1))
# no pass holds more than this many (region, column) cells, or more than one
# column: every pass runs in column chunks under it, and a batch whose grid pass
# would exceed it is searched in halves.  A pass holds about nine float arrays of
# that size and twelve of (classes, columns), ~18 MB here with one class and ~44 MB
# on a chain without repeats; the cells of a crystal sweep grow as its largest N squared
_SEARCH_CELLS = 2**18


@dataclass(frozen=True)
class BoundState:
    """One bound state: energy, its decay rate at infinity, and the state.

    ``_rows`` takes no arguments and returns the state's breakpoints and
    coefficient columns (kinds, rates, c1s, c2s, one entry per segment),
    rebuilding them on its first call (see :func:`_states`); it takes no
    part in comparisons.  The normalized wavefunction is built from them the
    first time it is read, and kept, so a caller that reads only the ground
    state rebuilds only the chunk that holds it and builds only it.
    """

    energy: float
    kappa: float
    _rows: Callable[[], tuple] = field(repr=False, compare=False)

    @cached_property
    def wavefunction(self) -> PiecewiseExpWavefunction:
        return PiecewiseExpWavefunction(*self._rows(), normalized=False).normalized_copy()


@dataclass(frozen=True, eq=False)
class BoundStateList:
    """Bound states in ascending energy order, with the search's cap and count.

    ``kappa_max`` is the cap of the search, four times the problem's largest
    single-delta or single-region rate.  ``state_count`` is the number of
    bound states with decay rate above :data:`DEFAULT_BISECTION_TOL`,
    counted from the nodes of the solution there; it counts every state even
    when only the ``lowest`` were refined, and without ``lowest`` it is the
    number of states returned.  ``unresolved`` holds the intervals among the
    returned states whose ends do not count j + 1 and j when multisection
    could not split them further: a fault flag, empty on a clean search.
    :func:`certify_ground_states` answers in the same form, with its one
    certified state or none.
    """

    states: tuple[BoundState, ...]
    kappa_max: float
    state_count: int
    unresolved: tuple[tuple[float, float], ...]

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
    region has zero width, zero jump and an infinite offset: the linear regime
    whatever kappa, and a renorm floor of +inf, so it is never rescaled.  It
    carries the starting pair (1, kappa) through unchanged, bit for bit, and
    every column gets exactly the operations its problem alone would get.

    The regions are grouped into classes: region rows whose offset and width
    have the same bits in every problem of the batch share one class,
    numbered in order of first appearance, and the kappa-independent rows
    of the regime switch and the step are kept once per class.  At a given
    kappa every region of a class has the same transfer matrix (the
    periodicity of Kronig & Penney, Proc. R. Soc. A 130, 499 (1931)), so
    :func:`_transfer` computes it once per class.  The interior regions of
    an alternating crystal whose site differences round alike form one
    class (every N at a = 1; rounding splits N = 1000 at a = 1.3 into 12);
    a chain without repeats has one class per region, ``cls`` = 0, 1, 2, ...
    """

    half_h2_over_m: np.ndarray  # (problems,)
    # (4, classes, problems), one stack so that a pass gathers its columns at once: each
    # class's offset U, width, max(1, |U|) (the regime switch's scale) and renorm floor;
    # renorm at or below the floor (or NaN) is not divided out: +inf on zero-width padded
    # steps, 0.0 on every real region (positive width), so an exactly zero pair stays (0, 0)
    classes: np.ndarray
    jumps: np.ndarray  # (regions + 1, problems); row i is the site left of region i
    cls: np.ndarray  # (regions,); the class of each region row
    first: tuple[int, ...]  # each problem's first real region row


def _chain(problems: list[DeltaPotentialProblem]) -> _Chain:
    regions = max(len(p.deltas) for p in problems) - 1
    # each region row's offset, width, regime switch scale and renorm floor in every problem
    rows = np.empty((regions, 4, len(problems)))
    offsets, widths = rows[:, 0], rows[:, 1]
    offsets[:], widths[:] = np.inf, 0.0
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
        half_h2_over_m.append(0.5 * units.hbar**2 / units.mass)
        first.append(start)
    np.maximum(1.0, np.abs(offsets), out=rows[:, 2])
    rows[:, 3] = np.where(widths > 0.0, 0.0, np.inf)
    # region rows whose offsets and widths (so all four) have the same bits in every problem
    # share a class, numbered in order of first appearance; each row's bytes are its key,
    # and the keys, in that order, are the class rows
    row_size = 4 * len(problems)
    keys = rows.reshape(regions, row_size).view(np.dtype((np.void, rows.itemsize * row_size))).ravel().tolist()
    index: dict[bytes, int] = {}
    cls = np.array([index.setdefault(key, len(index)) for key in keys], dtype=np.intp)
    classes = np.frombuffer(b"".join(index)).reshape(len(index), 4, len(problems)).transpose(1, 0, 2)
    return _Chain(np.array(half_h2_over_m), classes, jumps, cls, tuple(first))


class _Pass(NamedTuple):
    """Result of :func:`_transfer` at an array of kappas: the tail and the stored rows.

    Every array has one column per kappa.  ``exp_mask``, ``osc_mask``,
    ``rate`` and ``phase`` have one row per class of the chain
    (``_Chain.classes``), region i reading row ``cls[i]``; ``psi`` and
    ``dpsi`` have one row per site of the batch's padded chain, row i the
    pair just right of site i, which is the left edge of region i, so the
    last row is the pair right of the last site; ``psi_end`` and ``renorm``
    have one row per region.  The pass has two readers: the count
    (:func:`_sturm_count`, through :func:`_tails_and_counts`) and the
    rebuild (:func:`_reconstruct`).
    """

    tail: np.ndarray  # sign-preserving growing-tail coefficient
    exp_mask: np.ndarray
    osc_mask: np.ndarray
    rate: np.ndarray  # decay rate (exp) or wave number (osc); 1.0 where linear
    phase: np.ndarray  # rate * width
    psi: np.ndarray  # pair just right of each site, after its jump
    dpsi: np.ndarray
    psi_end: np.ndarray  # psi at the region's right end, before the division
    renorm: np.ndarray  # positive factor the pair is divided by at the region's end


def _transfer(chain: _Chain, kappas: np.ndarray, which: np.ndarray) -> _Pass:
    """Carry the solution decaying toward -inf across the potential, for each kappa.

    Column k runs at ``kappas[k]`` on problem ``which[k]`` of the chain.  The
    pass is a batch and a loop.  The batch computes each class's regime,
    rate and transfer matrix at every column at once, the sine and cosine
    entries on the oscillatory cells alone, so a region repeated along the
    chain costs one row; the loop over the sites keeps only what is
    sequential, the delta jump, the 2x2 step with row ``cls[i]`` and a
    division by a positive factor after every region, so the tail
    coefficient keeps its sign but not its magnitude.  Every operation is
    elementwise, so each column has the bits a class per region would give
    it.  The loop writes each site's rows in place.  The factor is
    max(|psi|, |psi'|) where that is above the floor, +inf on a zero-width
    padded step and 0.0 on a real region (positive width), and 1.0
    elsewhere: on padded steps, and on a pair that is exactly zero or NaN,
    so that a decaying solution whose pair underflowed to (0, 0) ends in a
    tail of exactly 0, an exact root.

    The pass only propagates: it returns the tail and its stored rows, the
    regime arrays at one row per class, and counts nothing.  Its readers
    are :func:`_sturm_count` and :func:`_reconstruct`.
    """
    half_h2_over_m = chain.half_h2_over_m[which]
    offsets, widths, scales, floor = chain.classes.take(which, axis=2)
    jumps = chain.jumps[:, which]

    kappas = np.asarray(kappas, dtype=float)
    # |E| = hbar^2*kappa^2/(2m), and U - E = U + |E|
    binding = half_h2_over_m * kappas**2
    d = offsets + binding
    switch = REGIME_SWITCH_RTOL * np.maximum(binding, scales)
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
    if osc_mask.any():
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
    # negative value to -0.0 and hide the sign change the count looks for
    cls = chain.cls
    psi_rows, dpsi_rows, psi_end, renorm_at = np.empty((4, len(cls) + 1, len(kappas)))
    psi_end, renorm_at = psi_end[:-1], renorm_at[:-1]
    renorm_at[...] = 1.0
    psi_rows[0] = 1.0
    dpsi = kappas
    steps = list(zip(diag, up, down, floor))
    for psi, psi_next, dpsi_row, end_row, renorm_row, jump, (diag_row, up_row, down_row, floor_row) in zip(
        psi_rows, psi_rows[1:], dpsi_rows, psi_end, renorm_at, jumps, [steps[c] for c in cls.tolist()]
    ):
        np.add(dpsi, jump * psi, out=dpsi_row)
        np.add(diag_row * psi, up_row * dpsi_row, out=end_row)
        dpsi = down_row * psi + diag_row * dpsi_row
        renorm = np.maximum(abs(end_row), abs(dpsi))
        np.copyto(renorm_row, renorm, where=renorm > floor_row)
        np.divide(end_row, renorm_row, out=psi_next)
        dpsi = dpsi / renorm_row
    np.add(dpsi, jumps[-1] * psi_rows[-1], out=dpsi_rows[-1])
    tail = dpsi_rows[-1] + kappas * psi_rows[-1]
    return _Pass(tail, exp_mask, osc_mask, rate, phase, psi_rows, dpsi_rows, psi_end, renorm_at)


def _sturm_count(cls: np.ndarray, path: _Pass) -> np.ndarray:
    """The node count of every column of a pass: the states with a decay rate above its kappa.

    Nodes are counted per region from the stored rows: an exponential or
    linear region holds at most one, seen as a sign change of psi across
    it; in an oscillatory region the Pruefer phase theta = atan2(psi, psi'/k)
    advances by exactly k*width, and only those cells read their region's
    rate and phase, through its class ``cls[i]``; the right tail holds one
    when the tail coefficient and psi at the last site differ in sign.  An
    exact zero of psi counts as positive; one landing exactly on a site
    happens only on a measure-zero set of kappa.  A count that is NaN or
    past int64 is refused.
    """
    psi, dpsi, negative = path.psi[:-1], path.dpsi[:-1], path.psi < 0.0
    changes = negative[:-1] != (path.psi_end < 0.0)
    tail = (path.tail < 0.0) != negative[-1]
    if not path.osc_mask.any():  # a pass without oscillatory cells counts sign changes alone
        return changes.sum(axis=0) + tail
    nodes = changes.astype(float)
    region, column = np.nonzero(path.osc_mask[cls])
    rate, phase = path.rate[cls[region], column], path.phase[cls[region], column]
    theta = np.arctan2(psi[region, column], dpsi[region, column] / rate)
    nodes[region, column] = np.floor((theta + phase) / math.pi) - np.floor(theta / math.pi)
    nodes = nodes.sum(axis=0) + tail
    countable = nodes < 2.0**63  # not NaN nor past int64, which the cast would wrap
    if not countable.all():
        raise ValueError(
            f"cannot count the bound states: a pass found {float(nodes[~countable][0])!r} nodes; "
            "a region is too wide or too deep for the node count"
        )
    return nodes.astype(np.int64)


def _reconstruct(
    batch: list[DeltaPotentialProblem], chain: _Chain, kappas: np.ndarray, owner: np.ndarray
) -> list[tuple]:
    """The breakpoints and coefficient columns of the state at each root (or certified kappa).

    One :func:`_transfer` pass at ``kappas``, column j on problem
    ``owner[j]``, gives the rows of every root at once, one segment before
    each region of the padded chain and one after; the regime arrays are
    taken from their class rows to the regions here, and no node is
    counted.  Column j's left tail is
    written at row ``first = chain.first[owner[j]]`` and its rows are views
    of ``[first:, j]``.  A padded step divides out nothing, so each state has
    the bits of its problem's own search.  Each segment's coefficients carry
    the running log of the factors the pass divided out, so deep tails
    cannot underflow; the residual growing-tail coefficient is dropped (it
    vanishes to the root tolerance).  :func:`_states` calls this once per
    chunk of roots, when the first of its states is read.
    """
    path = _transfer(chain, kappas, owner)
    exp_mask, osc_mask, rate, phase = (a[chain.cls] for a in (path.exp_mask, path.osc_mask, path.rate, path.phase))
    psi, dpsi, renorm = path.psi[:-1], path.dpsi[:-1], path.renorm
    # one row per segment (left tail, each region, right tail), one column per kappa
    tail_kind = np.full((1, len(kappas)), "exp")
    zero = np.zeros((1, len(kappas)))
    kinds = np.vstack([tail_kind, np.where(exp_mask, "exp", np.where(osc_mask, "osc", "lin")), tail_kind])
    rates = np.vstack([kappas, np.where(exp_mask | osc_mask, rate, 0.0), kappas])
    c1s = np.vstack([
        zero,
        np.where(exp_mask, (rate * psi - dpsi) / (2.0 * rate), psi),
        (kappas * path.psi[-1] - path.dpsi[-1]) / (2.0 * kappas),
    ])
    c2s = np.vstack([
        zero + 1.0,
        np.where(exp_mask, (rate * psi + dpsi) / (2.0 * rate), np.where(osc_mask, dpsi / rate, dpsi)),
        zero,
    ])
    # every column's left tail, on the row before its problem's first region: row 0 or its last padded step
    first = np.array(chain.first, dtype=np.intp)[owner]
    columns = np.arange(len(kappas))
    kinds[first, columns], rates[first, columns], c1s[first, columns], c2s[first, columns] = "exp", kappas, 0.0, 1.0
    # log of what the pass divided out before each region, added in the pass's
    # order: damping then renorm, region by region
    steps = np.stack([np.where(exp_mask, phase, 0.0), np.log(renorm)], axis=1).reshape(-1, len(kappas))
    logs = np.vstack([zero, zero, np.cumsum(steps, axis=0)[1::2]])

    factors = np.exp(logs - logs.max(axis=0))
    rows = (kinds, rates, c1s * factors, c2s * factors)
    return [
        (batch[p].positions, *(a[f:, j] for a in rows)) for j, (p, f) in enumerate(zip(owner.tolist(), first.tolist()))
    ]


def _chunks(chain: _Chain, columns: int) -> list[slice]:
    """``columns`` columns in consecutive slices, a pass over each holding at most
    ``_SEARCH_CELLS`` (region, column) cells, or one column."""
    width = max(1, _SEARCH_CELLS // len(chain.jumps))
    return [slice(s, s + width) for s in range(0, columns, width)]


def _tails_and_counts(chain: _Chain, kappas: np.ndarray, which: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The tail and node count of every column, one pass per chunk of :func:`_chunks`.

    Each pass is counted (:func:`_sturm_count`) as it comes, and only its
    tails and counts are kept, so no more than one pass is held at a time.
    Each column is computed on its own kappa alone, so the chunks give the
    bits one pass would.
    """
    tails, counts = np.empty(len(kappas)), np.empty(len(kappas), dtype=np.int64)
    for c in _chunks(chain, len(kappas)):
        path = _transfer(chain, kappas[c], which[c])
        tails[c], counts[c] = path.tail, _sturm_count(chain.cls, path)
    return tails, counts


def _states(
    batch: list[DeltaPotentialProblem], chain: _Chain, kappas: np.ndarray, owner: np.ndarray
) -> list[BoundState]:
    """The state at each root, column j on problem ``owner[j]``: energy and kappa now, rows when read.

    The roots fall into the chunks of :func:`_chunks`.  The first read of
    any state's wavefunction rebuilds its whole chunk in one
    :func:`_reconstruct` call, kept for the chunk's other states, so a state
    that is never read costs no pass and no pass holds more than
    ``_SEARCH_CELLS`` cells.
    """
    half_h2_over_m, states = chain.half_h2_over_m.tolist(), []
    for c in _chunks(chain, len(kappas)):
        rebuilt = cache(lambda k=kappas[c], o=owner[c]: _reconstruct(batch, chain, k, o))
        states += [
            BoundState(-half_h2_over_m[p] * kappa**2, kappa, lambda j=j, rebuilt=rebuilt: rebuilt()[j])
            for j, (p, kappa) in enumerate(zip(owner[c].tolist(), kappas[c].tolist()))
        ]
    return states


def _bracket(rows: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Each state's new bracket among a row of points, and its new third point.

    ``rows`` is (4, states, points): the kappa, tail, count and id of the
    points state ``j[i]`` has evaluated in its bracket, in ascending kappa
    along row i, then of its previous third point (NaN for none; its count
    and id are NaN).  The count decides: lo is the last point counting more
    than j states and hi the next one; a hi with a tail of exactly 0 that
    counts j is an exact root, and lo moves onto it, closing the bracket.
    The third point is the one nearest the bracket outside it, among the
    row, the one below on a tie; NaN where there is none.  Returns the
    states' columns of the search's table (see :func:`find_bound_states`).
    """
    r = np.arange(len(j))
    k = rows.shape[2] - np.argmax((rows[2] > j[:, None])[:, ::-1], axis=1)
    upper = rows[:, r, k]
    lower = np.where((upper[1] == 0.0) & (upper[2] == j), upper, rows[:, r, k - 1])
    below = np.where(rows[0] < lower[0, :, None], rows[0], -np.inf)
    above = np.where(rows[0] > upper[0, :, None], rows[0], np.inf)
    nearest_below, nearest_above = below.argmax(axis=1), above.argmin(axis=1)
    gap_below, gap_above = lower[0] - below[r, nearest_below], above[r, nearest_above] - upper[0]
    nearest = np.where(gap_below <= gap_above, nearest_below, nearest_above)
    table = np.empty((10, len(j)))
    table[0:8:2], table[1:8:2] = lower, upper
    table[8:10] = np.where(np.minimum(gap_below, gap_above) < np.inf, rows[:2, r, nearest], np.nan)
    return table


def _step(table: np.ndarray, point: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Each bracket of ``table`` after one point strictly inside it, as :func:`_bracket` would give it.

    ``point`` is (4, states), the kappa, tail, count and id of each state's
    new point.  A point that counts more than j is the new lo; any other is
    the new hi, and closes the bracket if it is an exact root (a tail of
    exactly 0 that counts j).  The end the point replaces is the nearest
    point outside the new bracket on its side, so it is the new third point
    unless the old one, beyond the kept end, is nearer (the one below wins
    a tie).  A closed bracket's third point is never read.
    """
    above = point[2] > j
    new = table.copy()
    ends = new[:8].reshape(4, 2, new.shape[1])
    np.copyto(ends[:, 0], point, where=above | ((point[1] == 0.0) & (point[2] == j)))
    np.copyto(ends[:, 1], point, where=~above)
    # the (kappa, tail) of the replaced end, and the gap from the kept end out to
    # the old third, positive only when the third lies beyond it (NaN for none)
    replaced = np.where(above, table[0:4:2], table[1:4:2])
    gap_third = np.where(above, table[8] - table[1], table[0] - table[8])
    gap_end = abs(point[0] - replaced[0])
    keep = (gap_third > 0.0) & np.where(above, gap_third < gap_end, gap_third <= gap_end)
    np.copyto(new[8:10], replaced, where=~keep)
    return new


def _caps(batch: list[DeltaPotentialProblem]) -> list[float]:
    """Each problem's search cap, four times its largest single-delta or
    single-region rate; one whose energy is beyond the float range is refused."""
    caps = []
    for problem in batch:
        units = problem.units
        strongest = max((2.0 * units.mass * abs(g) / units.hbar**2 for g in problem.strengths), default=0.0)
        deepest = max((math.sqrt(2.0 * units.mass * abs(u)) / units.hbar for u in problem.region_offsets), default=0.0)
        cap = 4.0 * max(strongest, deepest)
        if not math.isfinite(0.5 * units.hbar**2 / units.mass * (cap * cap)):
            raise ValueError(
                f"the default search cap kappa_max = {cap!r} stands for an energy "
                "-hbar^2*kappa_max^2/(2m) beyond the float range: a delta or region is too strong"
            )
        caps.append(cap)
    return caps


def _halves(batch: list[DeltaPotentialProblem]) -> list[slice]:
    """The whole batch, or its two halves where its grid pass would hold more
    than ``_SEARCH_CELLS`` (region, column) cells."""
    half = len(batch) // 2
    split = half > 0 and len(batch) * (GRID + 1) * max(len(problem.deltas) for problem in batch) > _SEARCH_CELLS
    return [slice(None, half), slice(half, None)] if split else [slice(None)]


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
    the batch.  Every pass runs in column chunks of at most
    ``_SEARCH_CELLS`` (region, column) cells, which bounds its memory, and
    only each chunk's tails and counts are kept.  Every chain is padded to
    the longest, so a sequence whose grid pass would hold more than
    ``_SEARCH_CELLS`` cells is also split in halves, each searched the same
    way; a single problem is never split.

    Each answer is a :class:`BoundStateList`: the states, the cap
    ``kappa_max``, the count ``state_count`` and the ``unresolved``
    intervals.  ``lowest`` = k, an integer >= 0 (not a bool), returns only
    the k lowest-energy states (fewer if fewer exist); ``None`` returns all
    of them.  The count is taken for all of them either way
    (``state_count``), and only the states returned are isolated and
    refined, so asking for the ground state alone (``lowest=1``) costs the
    counting pass and its own refinement, whatever the number of states,
    and ``lowest=0`` costs the counting pass alone: it answers how many
    states there are and nothing else.  The search makes no pass at its
    roots; reading a state's wavefunction makes one, over the chunk of
    roots that holds it.

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
    Then one loop steps every state, and the count picks each new interval
    among the points evaluated in it, as on the grid: ``lo`` is the last
    point counting more than j states and ``hi`` the next one.  Each state
    carries its interval's ends and its third point as values (kappa, tail,
    count and the point's place in the order of evaluation), and the loop
    carries only the states whose interval is still open.  Each pass
    gives a state either one point or ``MULTISECTION`` (7) evenly spaced
    ones.  One point is Chandrupatla's inverse-quadratic step of the tail
    through both ends and the third point, the evaluated point nearest the
    interval outside it (Adv. Eng. Softw. 28, 145 (1997)); the tail is the
    true coefficient divided by positive factors continuous in kappa, so it
    serves as it is.  The point is kept ``tol``/2 inside the interval, so
    once it lands next to the root the interval closes.  The interval is cut
    at the 7 points instead (Barth, Martin & Wilkinson, Numer. Math. 9, 386
    (1967)) when its ends do not count j + 1 and j, or when the step is not
    trusted: there is no third point yet, Chandrupatla's test
    (Phi^2 < xi and (1 - Phi)^2 < 1 - xi) fails, or the kept point lands on
    an end, as it does where ``tol``/2 is below the float spacing.  Identical
    intervals of one problem, the states of one cluster, share their 7
    points.  A state's points thus depend on its own interval and problem
    alone, and the search takes at most about 20 passes whatever the
    number of states.  A point with a tail of exactly 0 that counts j
    is an exact root and closes the interval.  An interval that reaches
    ``tol`` or stops splitting in floating point while its ends do not
    count j + 1 and j returns its state at its midpoint and is listed in
    ``unresolved``.  States come back sorted by ascending energy;
    finding none is an empty list, not an error.  Each state's wavefunction
    is rebuilt and built the first time it is read.
    """
    single = isinstance(problems, DeltaPotentialProblem)
    batch = [problems] if single else list(problems)
    # a bool is an Integral too, but True for a count is a slip, not a count of 1
    if lowest is not None and (isinstance(lowest, bool) or not isinstance(lowest, Integral) or lowest < 0):
        raise ValueError(f"lowest must be an integer >= 0 or None, got {lowest!r}")
    if not batch:
        return []
    caps = _caps(batch)
    parts = _halves(batch)
    if len(parts) > 1:
        return [found for part in parts for found in find_bound_states(batch[part], lowest)]
    chain = _chain(batch)
    tol = DEFAULT_BISECTION_TOL

    # one counting pass on a grid per problem: [tol, kappa_max/GRID, ..., kappa_max],
    # held at or above tol (k = 0 gives tol)
    grid = np.maximum(tol, np.array(caps)[:, None] * _GRID_FRACTIONS)
    grid_tails, grid_counts = _tails_and_counts(chain, grid.ravel(), np.repeat(np.arange(len(batch)), GRID + 1))
    nodes = grid_counts.reshape(grid.shape)
    for cap, top in zip(caps, nodes[:, -1].tolist()):
        if top:
            raise ValueError(
                f"{top} bound state(s) lie above the search cap kappa_max = {cap!r}: "
                "the deltas or regions bind more strongly together than the cap allows"
            )
    # state j (j = 0 is the ground state) of a problem lies in (lo, hi) when
    # count(lo) > j >= count(hi); every state is counted, only the lowest
    # asked for are refined; owner holds each state's problem
    state_counts = nodes[:, 0].tolist()
    refined = state_counts if lowest is None else [min(n, lowest) for n in state_counts]
    owner = np.repeat(np.arange(len(batch)), refined)
    j = np.array([k for n in refined for k in range(n)], dtype=float)
    # every state is one column of a (10, states) table: row 2 * field + end holds
    # the kappa, tail, count and id (fields 0..3) of its bracket's lo and hi (ends
    # 0, 1), rows 8 and 9 the kappa and tail of its third point, NaN for none.  A
    # point's id is its place in the order of evaluation; the grid's tol stands for
    # 0+, where its count was taken.  A state's first bracket is picked among its
    # problem's grid, whose row ends in a third point of NaN
    record = np.full((4, len(batch), GRID + 2), np.nan)
    record[0, :, :-1], record[1, :, :-1] = np.where(grid == tol, 0.0, grid), grid_tails.reshape(grid.shape)
    record[2, :, :-1], record[3, :, :-1] = nodes, np.arange(grid.size).reshape(grid.shape)
    table = _bracket(record[:, owner], j)
    # each state's final bracket, written as it leaves the loop; the states still
    # refined: their columns of the table, their indices, the counts j + 1 and j
    # their ends have once isolated, and their problems
    brackets, live, targets, which = np.empty(table.shape), np.arange(len(j)), np.stack([j + 1.0, j]), owner
    seen = grid.size
    while True:
        # a bracket is refined while it is wider than tol and splits in floating
        # point; the others are final
        kappa_lo, kappa_hi = table[0], table[1]
        mid = 0.5 * (kappa_lo + kappa_hi)
        active = (kappa_hi - kappa_lo > tol) & (kappa_lo < mid) & (mid < kappa_hi)
        if not active.all():
            brackets[:, live[~active]] = table[:, ~active]
            table, live, targets, which = table[:, active], live[active], targets[:, active], which[active]
            kappa_lo, kappa_hi = table[0], table[1]
        if not live.size:
            break
        # Chandrupatla's inverse-quadratic point through the ends and the third point,
        # x1 the end next to it and x2 the other, held tol/2 inside the bracket so that
        # a point landing next to the root closes it; trusted where Chandrupatla's test
        # passes and the held point is off the ends (tol/2 can be below the float spacing)
        tail_lo, tail_hi, x3, f3 = table[2], table[3], table[8], table[9]
        near_lo = x3 < kappa_lo
        x1, f1 = np.where(near_lo, kappa_lo, kappa_hi), np.where(near_lo, tail_lo, tail_hi)
        x2, f2 = np.where(near_lo, kappa_hi, kappa_lo), np.where(near_lo, tail_hi, tail_lo)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            x21, f32 = x2 - x1, f3 - f2
            xi, phi = (x1 - x2) / (x3 - x2), (f1 - f2) / f32
            t = f1 / (f2 - f1) * f3 / (f2 - f3) + (x3 - x1) / x21 * f1 / (f3 - f1) * f2 / f32
            point = np.minimum(np.maximum(x1 + t * x21, kappa_lo + 0.5 * tol), kappa_hi - 0.5 * tol)
        # state j's step is taken while its ends count j + 1 and j
        step = (
            (table[4] == targets[0]) & (table[5] == targets[1])
            & (phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi) & (kappa_lo < point) & (point < kappa_hi)
        )
        kappas, columns, cut_size = point[step], which[step], 0
        # every other bracket is cut at MULTISECTION evenly spaced points, computed
        # once for a run of identical brackets (the same ends, so the same problem)
        cut = ~step
        if cut.any():
            lead = cut.copy()
            lead[1:] &= ~(cut[:-1] & (table[6:8, 1:] == table[6:8, :-1]).all(axis=0))
            cuts = kappa_lo[lead, None] + (kappa_hi - kappa_lo)[lead, None] * _CUTS
            kappas = np.concatenate([cuts.ravel(), kappas])
            columns = np.concatenate([np.repeat(which[lead], MULTISECTION), columns])
            cut_size = cuts.size
        points = np.empty((4, len(kappas)))
        points[0] = kappas
        points[1], points[2] = _tails_and_counts(chain, kappas, columns)
        points[3] = np.arange(seen, seen + len(kappas))
        seen += len(kappas)
        table[:, step] = _step(table[:, step], points[:, cut_size:], targets[1, step])
        if cut_size:
            # a cut bracket picks its new ends among a row: its lo, its cuts, its hi
            # and its third point
            sub = table[:, cut]
            rows = np.full((4, sub.shape[1], MULTISECTION + 3), np.nan)
            rows[:, :, 0], rows[:, :, -2], rows[:2, :, -1] = sub[0:8:2], sub[1:8:2], sub[8:10]
            rows[:, :, 1:-2] = points[:, :cut_size].reshape(4, -1, MULTISECTION)[:, np.cumsum(lead)[cut] - 1]
            table[:, cut] = _bracket(rows, targets[1, cut])

    lo, hi = brackets[0], brackets[1]
    # state j is isolated once its ends count j + 1 and j, or its bracket is closed
    isolated = ((brackets[4] == j + 1.0) & (brackets[5] == j)) | (brackets[6] == brackets[7])
    states = _states(batch, chain, 0.5 * (lo + hi), owner)
    found = []
    bounds = [0, *accumulate(refined)]
    for p, (start, stop) in enumerate(zip(bounds[:-1], bounds[1:])):
        # the brackets that fail the isolation test after the loop, each listed once
        stuck = ~isolated[start:stop]
        unresolved = sorted(set(zip(lo[start:stop][stuck].tolist(), hi[start:stop][stuck].tolist())), reverse=True)
        found.append(BoundStateList(tuple(states[start:stop]), caps[p], state_counts[p], tuple(unresolved)))
    return found[0] if single else found


def certify_ground_states(
    problems: Sequence[DeltaPotentialProblem], kappas: Sequence[float]
) -> list[BoundStateList]:
    """Confirm each problem's ground state at the decay rate ``kappas[i]`` the caller holds.

    ``kappas`` holds one decay rate per problem, or the call is refused.  One
    count answers every problem, three columns each, in the search's column
    chunks (:func:`_tails_and_counts`): kappa*(1 - delta) and kappa*(1 +
    delta) with delta = :data:`CERTIFICATE_RTOL`, then
    :data:`DEFAULT_BISECTION_TOL`, which stands for 0+ as in the search, so
    that ``state_count`` is the count the search takes at 0+, bit for bit,
    whether or not the problem certifies.  Node counts of 1 and 0 at kappa*(1 -+
    delta) prove, by the Sturm oscillation theorem, that the ground state is
    the only state there and lies within a relative delta of kappa (Wilkinson,
    *The Algebraic Eigenvalue Problem*, 1965; Barth, Martin & Wilkinson,
    Numer. Math. 9, 386 (1967)); the certificate also asks for a count of at
    least 1 at 0+ and for kappa*(1 + delta) within the cap, so that a
    certified problem is one the search would answer without error.

    Each answer is a :class:`BoundStateList` with the search's cap and its
    count at 0+, no ``unresolved`` intervals and, when certified, the one
    state at kappa, rebuilt when first read as the search's states are
    (:func:`_states`); an uncertified problem has no state, and its caller
    decides whether to search it.  The input checks are the search's.
    Nothing here knows where the kappas came from: the oracle still never
    calls the exponential map.
    """
    batch = list(problems)
    if len(kappas) != len(batch):
        raise ValueError(f"one kappa per problem: got {len(kappas)} kappas for {len(batch)} problems")
    if not batch:
        return []
    caps, chain = _caps(batch), _chain(batch)
    kappas = np.array(kappas, dtype=float)
    ends = [kappas * (1.0 - CERTIFICATE_RTOL), kappas * (1.0 + CERTIFICATE_RTOL)]
    columns = np.concatenate([*ends, np.full(len(batch), DEFAULT_BISECTION_TOL)])
    below, above, counts = _tails_and_counts(chain, columns, np.arange(columns.size) % len(batch))[1].reshape(3, -1)
    certified = (below == 1) & (above == 0) & (counts >= 1) & (ends[1] <= caps)
    kept = np.flatnonzero(certified)
    states = iter(_states(batch, chain, kappas[kept], kept))
    return [
        BoundStateList((next(states),) if ok else (), cap, count, ())
        for ok, cap, count in zip(certified.tolist(), caps, counts.tolist())
    ]


def expectation_potential_numeric(
    psi: PiecewiseExpWavefunction, problem: DeltaPotentialProblem
) -> float:
    """<U> from delta sampling plus exact per-region overlap integrals."""
    if not psi.normalized:
        raise ValueError("expectation values need a normalized wavefunction")
    problem.check_breakpoints(psi)
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

"""Full N-amplitude simulation used to certify the reduced model.

Everything here works on the complete amplitude vector, so memory is the
limiting factor: the default cap is 2**24 amplitudes (128 MiB as float64).
A global and a local iteration are the same literal reflection, applied in
place to the one amplitude buffer, once per oracle query:

    a[t] -> -a[t],   then   a -> 2*block_mean(a) - a   (per block)

The global iteration has one block of width N, the local one has K blocks
of width b.  The work goes tile by tile, 2**16 amplitudes (512 KiB) at a
time, so that it runs in L2 cache: a tile of whole blocks takes all the
queries of a phase at once, and a block wider than a tile is cut at the
nodes of numpy's pairwise-summation tree into leaves, so that each query
streams the state once and the leaf sums are added up the same tree.

The work is split across one thread per CPU the process may run on
(``os.sched_getaffinity``; ``taskset`` narrows it), the calling thread
included.  Tiles, and blocks wider than a tile, are independent for a
whole phase, so each is one item, taken by whichever thread is free next.
When there are fewer wide blocks than threads (the global phase), the
threads take each query's leaves the same way and the calling thread adds
the leaf sums up the tree.  numpy releases the GIL inside its loops over
arrays this large.  A state of one tile stays on the calling thread, and
no thread is started until a phase is split.

The result is bit-identical to reflecting the whole state per query,
however the work is split, because each tile and each leaf goes through
the same numpy calls on the same values: numpy sums each row of a 2-D
array as it sums that row alone, and splits a contiguous sum at those
nodes; both facts are tested.
Results are therefore bit-reproducible run to run.
"""

from __future__ import annotations

import itertools
import os
import queue
import struct
import threading
from typing import NamedTuple

import numpy as np

# The package lists these exports: it must name them without importing numpy.
from . import _STATEVECTOR_ALL as __all__
from .errors import BadIndexError, BadStateFileError, CapExceededError
from .model import Geometry, ReducedState, Schedule, make_geometry

#: Default limit on the number of amplitudes a full state may hold.
DEFAULT_AMPLITUDE_CAP = 1 << 24

#: Limit on the work of one run, the schedule's queries times N, but at
#: least a tile per query, which takes a tile's time however small N is.
#: Every schedule :func:`~pgsearch.optimal_exact_schedule` can return for
#: N <= 2**24 fits (the largest, K = 2 at N = 2**24, needs about 1.3e11).
AMPLITUDE_QUERY_CAP = 1 << 37

#: Amplitudes worked on at a time (512 KiB), small enough to stay in L2.
_TILE = 1 << 16

PGSV_MAGIC = b"PGSV"
PGSV_VERSION = 1
# magic, version, n_items, n_blocks (the 24-byte header), then the target
_PREFIX = struct.Struct("<4sIQQQ")


class FullState(NamedTuple):
    """Complete amplitude vector plus the target's location."""

    amplitudes: np.ndarray
    target_index: int
    geometry: Geometry


def _require_target(g: Geometry, target_index: int) -> None:
    if not 0 <= target_index < g.n_items:
        raise BadIndexError(
            f"target index {target_index} outside [0, {g.n_items})"
        )


def sv_uniform(
    g: Geometry, target_index: int, cap: int | None = None
) -> FullState:
    """Uniform superposition with the target at ``target_index``.

    Raises CapExceededError when the database needs more amplitudes than
    ``cap`` (default 2**24) and BadIndexError for an out-of-range target.
    """
    limit = DEFAULT_AMPLITUDE_CAP if cap is None else cap
    if g.n_items > limit:
        raise CapExceededError(
            f"{g.n_items} amplitudes exceed the cap of {limit}"
        )
    _require_target(g, target_index)
    amps = np.full(g.n_items, 1.0 / np.sqrt(g.n_items))
    return FullState(amps, target_index, g)


#: Threads a phase is split across: one per CPU this process may run on
#: (set at import), the calling thread included.
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)

#: Fewest leaves per thread when the threads share a row's leaves.  Each
#: query then costs a hand-over and a wait; with one leaf each (the global
#: phase at N = 2**17) that made it slower.
_WIDE_LEAVES = 2

_jobs: queue.SimpleQueue = queue.SimpleQueue()  # work offered to the pool
_threads = 0  # pool threads started in this process


def _serve(jobs: queue.SimpleQueue) -> None:
    while True:
        jobs.get()()


def _reset_pool() -> None:
    global _jobs, _threads
    _jobs, _threads = queue.SimpleQueue(), 0  # a forked child has no threads


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_pool)


def _each(fn, n: int, least: int = 1) -> list:
    """``[fn(i) for i in range(n)]``, run by this thread and up to
    ``_WORKERS - 1`` pool threads, with at least ``least`` items per
    thread.  Each item goes to whichever thread is free next, so a pool
    thread that wakes late, or that the host keeps off its CPU, leaves its
    items to the others instead of holding them up: this thread waits only
    for items already under way.  Handing each thread a fixed share made
    full-certify passes 2-3 times slower on a busy 2-vCPU host."""
    helpers = min(_WORKERS, n // least) - 1
    if helpers <= 0:
        return [fn(i) for i in range(n)]
    global _threads
    while _threads < helpers:
        threading.Thread(target=_serve, args=(_jobs,), name="pgsearch-phase",
                         daemon=True).start()
        _threads += 1
    results, errors, job = [None] * n, [], [fn]
    claims, finished, done = iter(range(n)), itertools.count(1), threading.Lock()
    done.acquire()

    def drain() -> None:
        for i in claims:  # next() on a range iterator is atomic
            try:
                results[i] = job[0](i)
            except BaseException as exc:  # re-raised on the calling thread
                errors.append(exc)
            if next(finished) == n:
                done.release()

    for _ in range(helpers):
        _jobs.put(drain)
    drain()
    done.acquire()
    job.clear()  # a drain still queued must not keep the state alive
    if errors:
        raise errors[0]
    return results


def _leaves(n: int, lo: int = 0) -> list[tuple[int, int]]:
    """The ``(start, stop)`` leaves, in order, of at most ``_TILE`` items
    that numpy's pairwise summation cuts ``range(lo, lo + n)`` into."""
    if n <= _TILE:
        return [(lo, lo + n)]
    half = n // 2 - (n // 2) % 8
    return _leaves(half, lo) + _leaves(n - half, lo + half)


def _tree_sum(n: int, sums) -> float:
    """Add the leaf sums of ``_leaves(n)`` (an iterator, in order) up the
    tree numpy's pairwise summation adds them, so the total is
    bit-identical to ``np.add.reduce`` of the whole run."""
    if n <= _TILE:
        return next(sums)
    half = n // 2 - (n // 2) % 8
    return _tree_sum(half, sums) + _tree_sum(n - half, sums)


def _rows(run: np.ndarray, t: int, width: int, count: int, split: bool = False) -> None:
    """Every query of a phase on ``run``, whole rows of ``width`` with the
    target at ``t``.  Rows that fit in a tile come as one tile, ``run``,
    which takes all ``count`` queries while it stays in cache.  A wider row
    is cut into leaves, and each query is one pass that reflects a leaf,
    flips the target for the next query and sums the leaf while it is in
    cache; the leaf sums are then added up the row's tree.  With ``split``
    the pool's threads share each pass's leaves."""
    if width <= _TILE:
        rows = run.reshape(-1, width)
        for _ in range(count):
            if 0 <= t < run.size:
                run[t] = -run[t]
            m = np.add.reduce(rows, axis=1, keepdims=True)
            m /= width
            m *= 2.0
            np.subtract(m, rows, out=rows)
        return
    cuts = _leaves(width)
    spans = [(row + lo, row + hi) for row in range(0, run.size, width) for lo, hi in cuts]
    segs = [run[lo:hi] for lo, hi in spans]
    flips = [t - lo for lo, _ in spans]
    means = [None] * len(segs)

    def sweep(i: int) -> float:
        seg, f = segs[i], flips[i]
        if means[i] is not None:
            np.subtract(means[i], seg, out=seg)
        if 0 <= f < seg.size:
            seg[f] = -seg[f]
        return float(np.add.reduce(seg))

    def reflect(i: int) -> None:
        np.subtract(means[i], segs[i], out=segs[i])

    least = _WIDE_LEAVES if split else len(segs)  # no pool unless split
    for _ in range(count):
        sums = iter(_each(sweep, len(segs), least))
        row_means = [_tree_sum(width, sums) / width * 2.0 for _ in range(run.size // width)]
        means = [m for m in row_means for _ in cuts]
    _each(reflect, len(segs), least)


def _phase(amps: np.ndarray, target_index: int, width: int, count: int) -> None:
    """``count`` oracle queries in place, each flipping the target and then
    reflecting every ``width``-wide row about its mean (``width = n_items``
    is the global iteration, ``width = block_size`` the local one)."""
    if count == 0:
        return
    # Tiles, and rows wider than a tile, are independent for the whole
    # phase, so each is one item for the pool; a wide row taken whole stays
    # in its thread's cache across queries (faster than sharing its leaves).
    unit = _TILE - _TILE % width if width <= _TILE else width
    if width > _TILE and amps.size // width < _WORKERS:
        # too few rows to go round: the threads share every query's leaves,
        # since one thread per row would leave the others idle
        _rows(amps, target_index, width, count, split=True)
        return

    def run(i: int) -> None:
        lo = i * unit
        _rows(amps[lo : lo + unit], target_index - lo, width, count)

    _each(run, -(-amps.size // unit))


def sv_run_schedule(
    g: Geometry,
    target_index: int,
    schedule: Schedule,
    cap: int | None = None,
) -> FullState:
    """Run the schedule on the uniform state, mirroring ``run_schedule``.

    Raises CapExceededError, before allocating anything, when the
    schedule's queries times max(N, _TILE) exceed AMPLITUDE_QUERY_CAP.
    """
    work = max(g.n_items, _TILE) * schedule.queries
    if work > AMPLITUDE_QUERY_CAP:
        raise CapExceededError(
            f"{work} amplitude-queries exceed the cap of {AMPLITUDE_QUERY_CAP}"
        )
    state = sv_uniform(g, target_index, cap)
    _phase(state.amplitudes, target_index, g.n_items, schedule.j1)
    _phase(state.amplitudes, target_index, g.block_size, schedule.j2)
    _phase(state.amplitudes, target_index, g.n_items, int(schedule.trailing_global))
    return state


def sv_reduce(state: FullState) -> tuple[ReducedState, float]:
    """Collapse a full state onto the three invariant classes.

    The representative of each class is its first member's amplitude; the
    returned ``coherence_residual`` is the largest absolute deviation of
    any amplitude from its class representative.  States produced by
    schedules stay within ~1e-12 of their representatives; anything larger
    means the state left the invariant subspace.
    """
    b = state.geometry.block_size
    amps, t = state.amplitudes, state.target_index
    start = t - t % b
    inside = (amps[start:t], amps[t + 1 : start + b])
    outside = (amps[:start], amps[start + b :])
    reps, residual = [], 0.0
    for parts in (inside, outside):
        parts = [p for p in parts if p.size]
        rep = float(parts[0][0]) if parts else 0.0
        reps.append(rep)
        for p in parts:
            # the exact max |p - rep|, since float subtraction is monotone
            residual = np.maximum(residual, np.maximum(p.max() - rep, rep - p.min()))
    return ReducedState(float(amps[t]), *reps), float(residual)


def measure_block_distribution(state: FullState) -> np.ndarray:
    """Probability of measuring each block: squared norms per block."""
    g = state.geometry
    blocks = state.amplitudes.reshape(g.n_blocks, g.block_size)
    # Square whole rows a tile at a time instead of the whole state at
    # once; each row's sum is unchanged, so the result is bit-identical.
    step = max(1, _TILE // g.block_size)
    probs = np.empty(g.n_blocks)
    for i in range(0, g.n_blocks, step):
        rows = blocks[i : i + step]
        probs[i : i + step] = (rows * rows).sum(axis=1)
    return probs


def save_state(state: FullState, path) -> None:
    """Write the PGSV binary dump.

    Layout: 24-byte header (magic "PGSV", u32 version, u64 n_items,
    u64 n_blocks), then the u64 target index, then n_items little-endian
    float64 amplitudes.
    """
    g = state.geometry
    with open(path, "wb") as fh:
        fh.write(_PREFIX.pack(PGSV_MAGIC, PGSV_VERSION, g.n_items, g.n_blocks,
                              state.target_index))
        state.amplitudes.astype("<f8", copy=False).tofile(fh)


def load_state(path) -> FullState:
    """Read a PGSV dump back; inverse of :func:`save_state`.

    Header, geometry, target and file size are checked before the payload
    is read; a malformed header, or a payload of the wrong size or of a
    squared norm that is not finite, raises BadStateFileError.
    """
    with open(path, "rb") as fh:
        prefix = fh.read(_PREFIX.size)
        if len(prefix) != _PREFIX.size:
            raise BadStateFileError(f"PGSV header cut short at {len(prefix)} bytes")
        magic, version, n_items, n_blocks, target_index = _PREFIX.unpack(prefix)
        if magic != PGSV_MAGIC:
            raise BadStateFileError(f"not a PGSV file (magic {magic!r})")
        if version != PGSV_VERSION:
            raise BadStateFileError(f"unsupported PGSV version {version}")
        g = make_geometry(n_items, n_blocks)
        _require_target(g, target_index)
        payload = os.fstat(fh.fileno()).st_size - _PREFIX.size
        if payload != 8 * n_items:
            raise BadStateFileError(f"payload has {payload} bytes, not {8 * n_items}")
        amps = np.fromfile(fh, dtype="<f8", count=n_items).astype(np.float64, copy=False)
    with np.errstate(over="ignore", invalid="ignore"):  # NaN, inf, or a square overflows
        if not np.isfinite(amps @ amps):  # one pass, no temporary of N items
            raise BadStateFileError("payload has a squared norm that is not finite")
    return FullState(amps, target_index, g)

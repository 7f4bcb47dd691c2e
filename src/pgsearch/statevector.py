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
nodes of numpy's pairwise-summation tree, so that each query streams the
state once and the segment sums are added up the same tree.  The result
is bit-identical to reflecting the whole state per query, because numpy
sums each row of a 2-D array as it sums that row alone, and splits a
contiguous sum at those nodes; both facts are tested.  Results are
therefore bit-reproducible run to run.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import BadIndexError, BadStateFileError, CapExceededError
from .model import Geometry, ReducedState, Schedule, make_geometry

__all__ = [
    "DEFAULT_AMPLITUDE_CAP",
    "AMPLITUDE_QUERY_CAP",
    "PGSV_MAGIC",
    "PGSV_VERSION",
    "FullState",
    "sv_uniform",
    "sv_run_schedule",
    "sv_reduce",
    "measure_block_distribution",
    "save_state",
    "load_state",
]

#: Default limit on the number of amplitudes a full state may hold.
DEFAULT_AMPLITUDE_CAP = 1 << 24

#: Limit on the work of one run, N times the schedule's queries.  Every
#: schedule :func:`~pgsearch.optimal_exact_schedule` can return for
#: N <= 2**24 fits (the largest, K = 2 at N = 2**24, needs about 1.3e11).
AMPLITUDE_QUERY_CAP = 1 << 37

#: Amplitudes worked on at a time (512 KiB), small enough to stay in L2.
_TILE = 1 << 16

PGSV_MAGIC = b"PGSV"
PGSV_VERSION = 1
# magic, version, n_items, n_blocks (the 24-byte header), then the target
_PREFIX = struct.Struct("<4sIQQQ")


@dataclass(frozen=True)
class FullState:
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


def _sweep(seg: np.ndarray, m: float | None, t: int) -> float:
    """Reflect ``seg`` about ``m`` (unless None), flip its item ``t`` if it
    has one, and return its sum, leaf by leaf of at most ``_TILE`` items:
    the leaves are cut and added as numpy's pairwise summation cuts and
    adds them, so the sum is bit-identical to ``np.add.reduce(seg)``."""
    n = seg.size
    if n > _TILE:
        half = n // 2 - (n // 2) % 8
        return _sweep(seg[:half], m, t) + _sweep(seg[half:], m, t - half)
    if m is not None:
        np.subtract(m, seg, out=seg)
    if 0 <= t < n:
        seg[t] = -seg[t]
    return float(np.add.reduce(seg))


def _phase(amps: np.ndarray, target_index: int, width: int, count: int) -> None:
    """``count`` oracle queries in place, each flipping the target and then
    reflecting every ``width``-wide row about its mean (``width = n_items``
    is the global iteration, ``width = block_size`` the local one)."""
    if count == 0:
        return
    if width <= _TILE:
        # rows are independent, so a tile of whole rows takes every query
        # of the phase while it stays in cache
        step = _TILE - _TILE % width
        for lo in range(0, amps.size, step):
            tile = amps[lo : lo + step]
            rows = tile.reshape(-1, width)
            t = target_index - lo
            for _ in range(count):
                if 0 <= t < tile.size:
                    tile[t] = -tile[t]
                m = np.add.reduce(rows, axis=1, keepdims=True)
                m /= width
                m *= 2.0
                np.subtract(m, rows, out=rows)
        return
    # wider rows: each query is one pass that reflects a leaf, flips the
    # target for the next query and sums the leaf while it is in cache
    rows = amps.reshape(-1, width)
    offsets = range(target_index, target_index - amps.size, -width)
    sums = [_sweep(row, None, t) for row, t in zip(rows, offsets)]
    for _ in range(count - 1):
        sums = [_sweep(row, s / width * 2.0, t) for row, s, t in zip(rows, sums, offsets)]
    for row, s in zip(rows, sums):
        np.subtract(s / width * 2.0, row, out=row)


def sv_run_schedule(
    g: Geometry,
    target_index: int,
    schedule: Schedule,
    cap: int | None = None,
) -> FullState:
    """Run the schedule on the uniform state, mirroring ``run_schedule``.

    Raises CapExceededError, before allocating anything, when N times the
    schedule's queries exceeds AMPLITUDE_QUERY_CAP.
    """
    work = g.n_items * schedule.queries
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
    is read; a malformed header or payload raises BadStateFileError.
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
        amps = np.fromfile(fh, dtype="<f8", count=n_items)
    return FullState(amps.astype(np.float64, copy=False), target_index, g)

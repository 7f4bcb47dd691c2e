"""Full N-amplitude simulation used to certify the reduced model.

Everything here works on the complete amplitude vector, so memory is the
limiting factor: the default cap is 2**24 amplitudes (128 MiB as float64).
A global and a local iteration are the same literal reflection, applied in
place to the one amplitude buffer with a single pass per oracle query:

    a[t] -> -a[t],   then   a -> 2*block_mean(a) - a   (per block)

The global iteration has one block of width N, the local one has K blocks
of width b.  Reductions use numpy's pairwise summation, so results are
bit-reproducible run to run.
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


def _iterate(amps: np.ndarray, target_index: int, width: int) -> None:
    """One oracle query in place: flip the target, then reflect every
    ``width``-wide block about its mean (``width = n_items`` is the global
    iteration, ``width = block_size`` the local one)."""
    amps[target_index] = -amps[target_index]
    rows = amps.reshape(-1, width)
    np.subtract(2.0 * rows.mean(axis=1, keepdims=True), rows, out=rows)


def sv_run_schedule(
    g: Geometry,
    target_index: int,
    schedule: Schedule,
    cap: int | None = None,
) -> FullState:
    """Run the schedule on the uniform state, mirroring ``run_schedule``."""
    state = sv_uniform(g, target_index, cap)
    for _ in range(schedule.j1):
        _iterate(state.amplitudes, target_index, g.n_items)
    for _ in range(schedule.j2):
        _iterate(state.amplitudes, target_index, g.block_size)
    if schedule.trailing_global:
        _iterate(state.amplitudes, target_index, g.n_items)
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
    return (blocks * blocks).sum(axis=1)


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

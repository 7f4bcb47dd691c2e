"""Exact dynamics of blockwise Grover search in its invariant subspace.

A database of N items is split into K contiguous blocks of b = N/K items,
with a single marked target item.  Two reflections drive the search:

* the global iteration: a sign flip of the target followed by reflection
  about the uniform superposition of the whole database (rotation by
  2*theta1, where sin(theta1)**2 = 1/N);
* the local iteration: the same construction applied inside every block
  independently (rotation by 2*theta2, where sin(theta2)**2 = 1/b).
  Blocks without the target are left unchanged by it.

Both maps preserve the real span of three vectors: the target item, the
uniform sum of the other b-1 items in the target block, and the uniform
sum of the N-b items outside it.  A state is therefore stored as one
per-item amplitude for each class, which keeps the evolution exact for
any N up to 2**53 at O(1) cost per iteration, and :func:`schedule_state`
gives a whole schedule's final state at O(1) cost.  The module is pure
Python on the standard library's ``math``, as is the rest of the reduced
layer; only the full-state cross-check (``statevector``) needs an array
library.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

from .errors import NonDivisibleError, PrecisionError, TooSmallError

__all__ = [
    "MAX_ITEMS",
    "Geometry",
    "ReducedState",
    "Schedule",
    "make_geometry",
    "uniform_state",
    "norm_squared",
    "apply_global",
    "apply_local",
    "run_schedule",
    "schedule_state",
    "outside_amplitude",
    "block_success_probability",
    "item_success_probability",
]

#: Largest database size whose integer arithmetic stays exact in float64.
MAX_ITEMS = 2**53

#: Accepted drift of the squared norm from 1 on input states.
NORM_TOLERANCE = 1e-9


class Geometry(NamedTuple):
    """Database layout: ``n_items`` items in ``n_blocks`` equal blocks.

    Block m owns the contiguous index range [m*block_size, (m+1)*block_size);
    for power-of-two sizes the block index is simply the high-order bits of
    the item index.
    """

    n_items: int
    n_blocks: int
    block_size: int
    theta1: float  # arcsin(1/sqrt(n_items)), half-angle of a global iteration
    theta2: float  # arcsin(1/sqrt(block_size)), half-angle of a local iteration


class ReducedState(NamedTuple):
    """Per-item amplitudes on the three invariant classes.

    ``amp_ntt`` is the amplitude of each of the block_size - 1 non-target
    items inside the target block, ``amp_nb`` the amplitude of each item
    outside it.  Normalization reads

        amp_target**2 + (b-1)*amp_ntt**2 + (N-b)*amp_nb**2 == 1.
    """

    amp_target: float
    amp_ntt: float
    amp_nb: float


class _Counts(NamedTuple):
    j1: int
    j2: int
    trailing_global: bool = True


class Schedule(_Counts):
    """Iteration counts: ``j1`` leading globals, then ``j2`` locals, then
    one optional trailing global.  Counts are integers >= 0 and the flag is
    a bool, also through ``_make`` and ``_replace``."""

    __slots__ = ()

    def __new__(cls, j1, j2, trailing_global=True):
        if operator.index(j1) < 0 or operator.index(j2) < 0:
            raise ValueError("iteration counts must be non-negative")
        if type(trailing_global) is not bool:
            raise TypeError(f"trailing_global must be a bool, got {trailing_global!r}")
        return super().__new__(cls, j1, j2, trailing_global)

    @classmethod
    def _make(cls, iterable):
        return cls(*super()._make(iterable))  # _replace builds through _make

    @property
    def queries(self) -> int:
        """Total oracle queries: one per iteration."""
        return self.j1 + self.j2 + self.trailing_global


def make_geometry(n_items: int, n_blocks: int) -> Geometry:
    """Validate the layout and precompute the two rotation half-angles.

    Raises TooSmallError for n_items < 2, PrecisionError beyond 2**53,
    and NonDivisibleError when n_blocks does not divide n_items.  Sizes
    must be integers (``operator.index``); floats raise TypeError.
    """
    n_items, n_blocks = operator.index(n_items), operator.index(n_blocks)
    if n_items < 2:
        raise TooSmallError(f"need at least 2 items, got {n_items}")
    if n_items > MAX_ITEMS:
        raise PrecisionError(
            f"n_items {n_items} exceeds the exact float64 range 2**53"
        )
    if n_blocks < 1 or n_items % n_blocks != 0:
        raise NonDivisibleError(
            f"block count {n_blocks} does not divide database size {n_items}"
        )
    block_size = n_items // n_blocks
    theta1 = math.asin(1.0 / math.sqrt(n_items))
    theta2 = math.asin(1.0 / math.sqrt(block_size))
    return Geometry(n_items, n_blocks, block_size, theta1, theta2)


def uniform_state(g: Geometry) -> ReducedState:
    """Uniform superposition over the whole database."""
    a = 1.0 / math.sqrt(g.n_items)
    return ReducedState(a, a, a)


def norm_squared(s: ReducedState, g: Geometry) -> float:
    """Class-weighted squared norm of ``s``."""
    return block_success_probability(s, g) + (g.n_items - g.block_size) * s.amp_nb**2


def _require_normalized(s: ReducedState, g: Geometry) -> None:
    drift = abs(norm_squared(s, g) - 1.0)
    if not drift <= NORM_TOLERANCE:  # also true for NaN
        raise ValueError(f"state is not normalized (|norm^2 - 1| = {drift:.3e})")


def apply_global(s: ReducedState, g: Geometry) -> ReducedState:
    """One global iteration (one oracle query).

    Flips the target sign, then reflects about the uniform superposition:
    every output amplitude is 2*overlap/sqrt(N) minus the flipped input,
    where overlap is the inner product with the uniform state.
    """
    _require_normalized(s, g)
    n, b = g.n_items, g.block_size
    sqrt_n = math.sqrt(n)
    flipped = -s.amp_target
    overlap = (flipped + (b - 1) * s.amp_ntt + (n - b) * s.amp_nb) / sqrt_n
    shift = 2.0 * overlap / sqrt_n
    return ReducedState(shift - flipped, shift - s.amp_ntt, shift - s.amp_nb)


def apply_local(s: ReducedState, g: Geometry) -> ReducedState:
    """One local iteration (one oracle query).

    Same construction as :func:`apply_global` but restricted to each block:
    only the target block moves (a 2x2 rotation of the target and in-block
    rest amplitudes); blocks without the target are fixed points, so
    ``amp_nb`` is returned bit-exact.  For single-item blocks (b == 1) the
    in-block reflection is the identity, so the step is the oracle flip
    alone; the then weightless ``amp_ntt`` carries no probability.
    """
    _require_normalized(s, g)
    b = g.block_size
    sqrt_b = math.sqrt(b)
    flipped = -s.amp_target
    overlap = (flipped + (b - 1) * s.amp_ntt) / sqrt_b
    shift = 2.0 * overlap / sqrt_b
    return ReducedState(shift - flipped, shift - s.amp_ntt, s.amp_nb)


def run_schedule(g: Geometry, schedule: Schedule) -> ReducedState:
    """Run ``schedule.j1`` globals, ``schedule.j2`` locals, and the optional
    trailing global on the uniform state; uses exactly ``schedule.queries``
    oracle queries."""
    s = uniform_state(g)
    for _ in range(schedule.j1):
        s = apply_global(s, g)
    for _ in range(schedule.j2):
        s = apply_local(s, g)
    if schedule.trailing_global:
        s = apply_global(s, g)
    return s


def _rotation_constants(g: Geometry) -> tuple[float, float, float, float]:
    """(r0, r1, c1, r2*c2): the constants of the rotation picture that do
    not depend on the counts.

    In the orthonormal class basis (target, in-block rest, outside), j1
    globals take the uniform state to (sin(phi), c1*cos(phi), c2*cos(phi))
    with phi = (2*j1+1)*theta1, c1**2 = (b-1)/(N-1) and c2**2 = (N-b)/(N-1);
    j2 locals then rotate the first two coordinates by omega = 2*j2*theta2.
    The trailing global's third row is (r0, r1, r2) = (-2*so/N, 2*sb*so/N,
    1 - 2/K), sb = sqrt(b-1), so = sqrt(N-b).
    """
    n, b = g.n_items, g.block_size
    sb, so, sn = math.sqrt(b - 1), math.sqrt(n - b), math.sqrt(n - 1)
    return (-2.0 * so / n, 2.0 * sb * so / n, sb / sn,
            (1.0 - 2.0 * b / n) * (so / sn))


def schedule_state(g: Geometry, schedule: Schedule) -> ReducedState:
    """Final state of ``schedule``, O(1) at any N and closer to exact than
    :func:`run_schedule`, whose rounding grows with the query count.
    Inside the exact search box the block success is within about 4e-15;
    beyond it the float phases lose digits as the counts grow (N = 1024,
    K = 4: 3.0e-12 at 1.6e7, 2.1e-5 at 1.6e13 and 7.2e-2 at 2**53).

    Globals and locals are the rotation picture of
    :func:`_rotation_constants` in closed form, per item (c1/sqrt(b-1) =
    c2/sqrt(N-b) = 1/sqrt(N-1), also for an empty class); the trailing
    global is one literal :func:`apply_global`, which keeps exactly
    vanishing amplitudes (N = 4, K = 2) at zero.  Raises PrecisionError for
    an iteration count above 2**53.
    """
    if schedule.j1 > MAX_ITEMS or schedule.j2 > MAX_ITEMS:
        raise PrecisionError("iteration counts above 2**53 are not supported")
    b = g.block_size
    c1 = _rotation_constants(g)[2]
    omega = 2.0 * schedule.j2 * g.theta2
    cos_w, sin_w = math.cos(omega), math.sin(omega)
    phi = (2 * schedule.j1 + 1) * g.theta1
    sin_p, cos_p = math.sin(phi), math.cos(phi)
    rest = cos_p / math.sqrt(g.n_items - 1)
    # sin(omega)/sqrt(b-1) tends to -2*j2*cos(omega) as b -> 1: what the
    # literal steps give the then weightless amp_ntt.
    turn = sin_w / math.sqrt(b - 1) if b > 1 else -2.0 * schedule.j2 * cos_w
    s = ReducedState(cos_w * sin_p + sin_w * c1 * cos_p,
                     cos_w * rest - turn * sin_p, rest)
    return apply_global(s, g) if schedule.trailing_global else s


def _outside_coefficients(g: Geometry, j2, constants) -> tuple[float, float]:
    """(P, Q) of :func:`_outside_at` for the local count ``j2``: the
    trailing global's third row applied to the state after the globals
    and locals (``constants`` is :func:`_rotation_constants` of ``g``).
    """
    r0, r1, c1, r2c2 = constants
    omega = 2.0 * j2 * g.theta2
    cos_w, sin_w = math.cos(omega), math.sin(omega)
    return (r0 * cos_w - r1 * sin_w, c1 * (r0 * sin_w + r1 * cos_w) + r2c2)


def _outside_at(g: Geometry, coeffs: tuple[float, float], j1) -> float:
    """P*sin(phi) + Q*cos(phi), phi = (2*j1+1)*theta1: the outside amplitude
    of schedule (j1, j2) from its row's :func:`_outside_coefficients`."""
    phi = (2 * j1 + 1) * g.theta1
    return coeffs[0] * math.sin(phi) + coeffs[1] * math.cos(phi)


def outside_amplitude(g: Geometry, j1, j2) -> float:
    """sqrt(N-b)*amp_nb after ``j1`` globals, ``j2`` locals and the trailing
    global, in closed form at O(1) cost; the block success is one minus its
    square.

    Its zeros are the schedules that leave nothing outside the target
    block (exactly 0.0 for N = 4, K = 2 and no iterations).  ``j1`` and
    ``j2`` may be real: the rotation angles extend smoothly, with period
    pi/theta2 in j2.
    """
    return _outside_at(g, _outside_coefficients(g, j2, _rotation_constants(g)), j1)


def block_success_probability(s: ReducedState, g: Geometry) -> float:
    """Probability that a measurement lands anywhere in the target block."""
    b = g.block_size
    return s.amp_target**2 + (b - 1) * s.amp_ntt**2


def item_success_probability(s: ReducedState) -> float:
    """Probability that a measurement lands exactly on the target item."""
    return s.amp_target**2

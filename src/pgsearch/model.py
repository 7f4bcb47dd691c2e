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
any N up to 2**53 at O(1) cost per iteration.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateError,
    NonDivisibleError,
    PrecisionError,
    TooSmallError,
)

__all__ = [
    "MAX_ITEMS",
    "Geometry",
    "ReducedState",
    "Schedule",
    "EigenPair",
    "make_geometry",
    "uniform_state",
    "norm_squared",
    "apply_global",
    "apply_local",
    "run_schedule",
    "block_success_probability",
    "item_success_probability",
    "eigensystem",
    "global_matrix",
    "local_matrix",
    "to_class_vector",
    "from_class_vector",
]

#: Largest database size whose integer arithmetic stays exact in float64.
MAX_ITEMS = 2**53

#: Accepted drift of the squared norm from 1 on input states.
NORM_TOLERANCE = 1e-9


@dataclass(frozen=True, slots=True)
class Geometry:
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


@dataclass(frozen=True, slots=True)
class ReducedState:
    """Per-item amplitudes on the three invariant classes.

    ``amp_ntt`` is the amplitude of each of the block_size - 1 non-target
    items inside the target block, ``amp_nb`` the amplitude of each item
    outside it.  Normalization reads

        amp_target**2 + (b-1)*amp_ntt**2 + (N-b)*amp_nb**2 == 1.
    """

    amp_target: float
    amp_ntt: float
    amp_nb: float


@dataclass(frozen=True, slots=True)
class Schedule:
    """Iteration counts: ``j1`` leading globals, then ``j2`` locals, then
    one optional trailing global."""

    j1: int
    j2: int
    trailing_global: bool = True

    def __post_init__(self):
        if operator.index(self.j1) < 0 or operator.index(self.j2) < 0:
            raise ValueError("iteration counts must be non-negative")

    @property
    def queries(self) -> int:
        """Total oracle queries: one per iteration."""
        return self.j1 + self.j2 + (1 if self.trailing_global else 0)


@dataclass(frozen=True, slots=True)
class EigenPair:
    """Eigenvalue and eigenvector of an iteration, in the orthonormal
    (target, in-block rest, outside) class basis."""

    eigenvalue: complex
    eigenvector: tuple[complex, complex, complex]


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
    b, n = g.block_size, g.n_items
    return s.amp_target**2 + (b - 1) * s.amp_ntt**2 + (n - b) * s.amp_nb**2


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


def block_success_probability(s: ReducedState, g: Geometry) -> float:
    """Probability that a measurement lands anywhere in the target block."""
    b = g.block_size
    return s.amp_target**2 + (b - 1) * s.amp_ntt**2


def item_success_probability(s: ReducedState) -> float:
    """Probability that a measurement lands exactly on the target item."""
    return s.amp_target**2


def to_class_vector(s: ReducedState, g: Geometry) -> np.ndarray:
    """Coefficients of ``s`` in the orthonormal class basis
    (target, in-block rest, outside)."""
    b, n = g.block_size, g.n_items
    return np.array(
        [
            s.amp_target,
            math.sqrt(b - 1) * s.amp_ntt,
            math.sqrt(n - b) * s.amp_nb,
        ]
    )


def from_class_vector(v: np.ndarray, g: Geometry) -> ReducedState:
    """Inverse of :func:`to_class_vector`; weightless classes map to 0."""
    b, n = g.block_size, g.n_items
    amp_ntt = v[1] / math.sqrt(b - 1) if b > 1 else 0.0
    amp_nb = v[2] / math.sqrt(n - b) if n > b else 0.0
    return ReducedState(float(v[0]), float(amp_ntt), float(amp_nb))


def global_matrix(g: Geometry) -> np.ndarray:
    """3x3 matrix of the global iteration in the orthonormal class basis.

    It acts as a rotation by 2*theta1 in the plane spanned by the target
    and the uniform sum of everything else, and as -1 on the remaining
    direction.
    """
    n, b = g.n_items, g.block_size
    sb = math.sqrt(b - 1)
    so = math.sqrt(n - b)
    return np.array(
        [
            [1.0 - 2.0 / n, 2.0 * sb / n, 2.0 * so / n],
            [-2.0 * sb / n, 2.0 * (b - 1) / n - 1.0, 2.0 * sb * so / n],
            [-2.0 * so / n, 2.0 * sb * so / n, 2.0 * (n - b) / n - 1.0],
        ]
    )


def local_matrix(g: Geometry) -> np.ndarray:
    """3x3 matrix of the local iteration in the orthonormal class basis:
    a rotation by 2*theta2 of the first two coordinates."""
    b = g.block_size
    c = 1.0 - 2.0 / b
    s = 2.0 * math.sqrt(b - 1) / b
    return np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])


def eigensystem(g: Geometry, which: str) -> list[EigenPair]:
    """The conjugate eigenpairs of one iteration.

    ``which`` is "global" or "local".  Eigenvalues are exp(+-2i*theta);
    eigenvectors are (|target> +- i|w>)/sqrt(2) expressed in the orthonormal
    class basis, where |w> is the unit vector the reflection pairs with the
    target (for the global iteration the uniform sum of all non-target
    items, for the local one the in-block rest direction).

    Raises DegenerateError for ``which="local"`` when blocks hold a single
    item, since no in-block rest direction exists.
    """
    if which == "global":
        theta = g.theta1
        w_ntt = math.sqrt((g.block_size - 1) / (g.n_items - 1))
        w_nb = math.sqrt((g.n_items - g.block_size) / (g.n_items - 1))
    elif which == "local":
        if g.block_size == 1:
            raise DegenerateError("single-item blocks have no local eigensystem")
        theta = g.theta2
        w_ntt, w_nb = 1.0, 0.0
    else:
        raise ValueError(f"unknown iteration kind {which!r}")

    inv_sqrt2 = 1.0 / math.sqrt(2)
    pairs = []
    for sign in (+1, -1):
        value = cmath.exp(2j * sign * theta)
        vector = (
            complex(inv_sqrt2),
            sign * 1j * inv_sqrt2 * w_ntt,
            sign * 1j * inv_sqrt2 * w_nb,
        )
        pairs.append(EigenPair(value, vector))
    return pairs

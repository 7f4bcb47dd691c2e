"""Cost comparisons, success laws, and query lower bounds.

All "coefficient" quantities are per sqrt(N): a classical-quantum hybrid
that picks a random block and Grover-searches the rest costs
R_K = (pi/4)*sqrt((K-1)/K)*sqrt(N) queries, while the optimized blockwise
schedule costs S_K = (pi/4 + (alpha_K - eta_K)/sqrt(K))*sqrt(N).  Partial
search beats the random pick for every K >= 3 and ties it at K = 2.
Both coefficients, the interrupted success and every row of
:func:`comparison_table` come from one per-K formula, so the scalar
functions and the table rows are the same floats.

:func:`comparison_table` returns its rows as :class:`ComparisonRow` and
:func:`operating_range` an :class:`OperatingRange`.  Like every value type
of the package, both are ``typing.NamedTuple`` classes: fields read by
name, and a value equals the plain tuple of its values.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import BadKError, BadVariantError
from .model import Geometry, Schedule, schedule_state
from .optimizer import _check_k, _stationary_point, asymptotic_optimum

__all__ = [
    "ComparisonRow",
    "OperatingRange",
    "random_pick_coefficient",
    "partial_search_coefficient",
    "interrupted_probability",
    "operating_range",
    "final_state_deviation",
    "effective_local_iterations",
    "lower_bound_queries",
    "comparison_table",
]

#: Note attached to the K = 4 comparison row: the widely circulated cost
#: list gives 0.586*sqrt(N) there, which is inconsistent with its own
#: alpha_4/eta_4 values; the table emits the consistent 0.6155.
MISPRINT_NOTE_K4 = (
    "suspected misprint: commonly quoted 0.586 disagrees with alpha/eta"
    " (0.6155 used)"
)


#: Largest block count the comparison table covers, and the most values
#: one command-line block-count spec may expand to.
MAX_TABLE_K = 10**6


class ComparisonRow(NamedTuple):
    """One line of the cost comparison for a given block count."""

    n_blocks: int
    s_coeff: float  # optimized blockwise search, queries / sqrt(N)
    r_coeff: float  # random pick + full Grover over K-1 blocks
    p_interrupted: float
    c: float
    note: str = ""


class OperatingRange(NamedTuple):
    """Block counts for which interrupting beats restarting.

    ``k_max`` follows the large-K closed form floor(3/(1-p)); ``k_max_exact``
    is the largest K whose exact interrupted success stays at or below the
    threshold.  The two can differ by one near the boundary.
    """

    k_min: int
    k_max: int | float
    k_max_exact: int | float


def random_pick_coefficient(n_blocks: int) -> float:
    """Queries/sqrt(N) for guessing one block and searching the others."""
    return _row(_check_k(n_blocks, finite=True)).r_coeff


def partial_search_coefficient(n_blocks: int) -> float:
    """Queries/sqrt(N) of the optimized blockwise schedule; pi/4 at K = inf."""
    k = _check_k(n_blocks)
    return math.pi / 4.0 if k == math.inf else _row(k).s_coeff


def interrupted_probability(n_blocks: int) -> float:
    """Target-block success of a full Grover run stopped where the
    optimized schedule would switch to local iterations:
    (K-2)**2 / (K*(K-1)); zero at K = 2, approaching 1 - 3/K for large K."""
    return _row(_check_k(n_blocks, finite=True)).p_interrupted


def operating_range(p_threshold: float) -> OperatingRange:
    """Block counts where the interrupted run stays useful.

    ``k_min`` is fixed at 3 (below that the interrupted run carries no
    information).  ``k_max`` is the closed-form endpoint floor(3/(1-p));
    ``k_max_exact`` is the largest K with (K-2)**2 <= p*K*(K-1), decided in
    integer arithmetic on the exact value of ``p``.  ``p_threshold`` must lie
    in (0, 1]; the limiting value 1.0 returns infinite endpoints, since
    every block count then qualifies.
    """
    if not 0.0 < p_threshold <= 1.0:
        raise ValueError(f"threshold must lie in (0, 1], got {p_threshold}")
    if p_threshold == 1.0:
        return OperatingRange(3, math.inf, math.inf)

    k_max = math.floor(3.0 / (1.0 - p_threshold))

    # The exact endpoint is k_max or k_max - 1 up to the rounding of k_max,
    # so a few integer steps from it reach the largest qualifying K.
    num, den = p_threshold.as_integer_ratio()
    ke = max(2, k_max)
    while (ke - 1) ** 2 * den <= num * (ke + 1) * ke:
        ke += 1
    while (ke - 2) ** 2 * den > num * ke * (ke - 1):
        ke -= 1
    return OperatingRange(3, k_max, ke)


def final_state_deviation(g: Geometry, schedule: Schedule) -> float:
    """Distance of a schedule's outcome from the ideal concentrated state.

    The ideal final state has amplitude sin(alpha_K) on the target,
    cos(alpha_K) spread over the rest of its block, and nothing outside.
    Returns the largest of the three class deviations (outside measured as
    sqrt(N-b)*|amp_nb|, the norm the class carries).
    """
    opt = asymptotic_optimum(g.n_blocks)
    s = schedule_state(g, schedule)
    b, n = g.block_size, g.n_items
    return max(
        abs(s.amp_target - math.sin(opt.alpha)),
        abs(math.sqrt(b - 1) * s.amp_ntt - math.cos(opt.alpha)),
        math.sqrt(n - b) * abs(s.amp_nb),
    )


def effective_local_iterations(n_blocks, block_size: int) -> float:
    """Real-valued local count that prepares the ideal final state from a
    block-uniform start: (alpha_K/2)*sqrt(b)."""
    if block_size < 1:
        raise ValueError(f"block size must be positive, got {block_size}")
    opt = asymptotic_optimum(n_blocks)
    return 0.5 * opt.alpha * math.sqrt(block_size)


def lower_bound_queries(g: Geometry, variant: str) -> float:
    """Lower bounds on the queries any blockwise search needs.

    variant "basic":       pi*sqrt(N)/4 - pi*sqrt(b)/4
    variant "tighter":     pi*sqrt(N)/4 - pi*sqrt(b)/6
    variant "alpha_exact": pi*sqrt(N)/4 + (alpha_K/2 - pi/4)*sqrt(b)

    The variants are ordered basic <= tighter <= alpha_exact, and all sit
    below the achieved pi*sqrt(N)/4 + (alpha_K - eta_K)*sqrt(b).  They hold
    asymptotically, for near-certain success (Grover & Radhakrishnan,
    quant-ph/0407122): at finite N a schedule with a success threshold
    below 1 can use fewer queries.
    """
    sqrt_n = math.sqrt(g.n_items)
    sqrt_b = math.sqrt(g.block_size)
    base = math.pi * sqrt_n / 4.0
    if variant == "basic":
        return base - math.pi * sqrt_b / 4.0
    if variant == "tighter":
        return base - math.pi * sqrt_b / 6.0
    if variant == "alpha_exact":
        opt = asymptotic_optimum(g.n_blocks)
        return base + (0.5 * opt.alpha - math.pi / 4.0) * sqrt_b
    raise BadVariantError(f"unknown bound variant {variant!r}")


def comparison_table(k_min: int, k_max: int) -> list[ComparisonRow]:
    """Rows of the cost comparison for every K in [k_min, k_max].

    Coefficients are per sqrt(N) and independent of the database size.
    The K = 4 row carries the misprint note (see MISPRINT_NOTE_K4).
    """
    k_min, k_max = _check_k(k_min, finite=True), _check_k(k_max, finite=True)
    _check_table_range(k_min, k_max)
    return list(map(_row, range(k_min, k_max + 1)))


def _row(k: int) -> ComparisonRow:
    """The comparison row of a finite, already checked block count: the one
    place the s, r, p and c formulas are written."""
    alpha, eta = _stationary_point(float(k))
    return ComparisonRow(k, math.pi / 4.0 + (alpha - eta) / math.sqrt(k),
                         math.pi / 4.0 * math.sqrt((k - 1.0) / k),
                         (k - 2) ** 2 / (k * (k - 1)), eta - alpha,
                         MISPRINT_NOTE_K4 if k == 4 else "")


def _check_table_range(k_min: int, k_max: int) -> None:
    """Refuse a block range the comparison table does not cover."""
    if not 2 <= k_min <= k_max <= MAX_TABLE_K:
        raise BadKError(
            f"block range [{k_min}, {k_max}] outside the supported [2, 10**6]"
        )

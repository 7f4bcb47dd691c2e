"""Optimal iteration counts: closed-form asymptotics and exact search.

For K >= 2 blocks and large block size b, the best schedule of the shape
"j1 globals, j2 locals, one trailing global" uses

    j1 = pi*sqrt(N)/4 - eta_K*sqrt(b)        (clamped at 0; exact 0 for K=2)
    j2 = alpha_K*sqrt(b)

where the pair (alpha_K, eta_K) solves the stationarity system

    cos(2*alpha_K) = (K-2) / (2*(K-1))
    tan(2*eta_K/sqrt(K)) = sqrt(3K-4) / (K-2)

subject to the vanishing constraint tying eta to alpha,

    tan(2*eta/sqrt(K)) = 2*sqrt(K)*sin(2*alpha) / (K - 4*sin(alpha)**2).

The query count is then pi*sqrt(N)/4 - c_K*sqrt(b) + O(1) with speedup
coefficient c_K = eta_K - alpha_K.  For finite sizes,
:func:`optimal_exact_schedule` brute-forces the integer optimum with the
reduced engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BadKError, InfeasibleError
from .model import Geometry, Schedule, block_success_probability, run_schedule

__all__ = [
    "OptimalParameters",
    "asymptotic_optimum",
    "eta_from_alpha",
    "asymptotic_expansion",
    "asymptotic_schedule",
    "vanishing_residual",
    "optimal_exact_schedule",
]


@dataclass(frozen=True)
class OptimalParameters:
    """Stationary point of the asymptotic query count for K blocks.

    alpha scales the local count (j2 ~ alpha*sqrt(b)), eta the global
    deficit (j1 ~ pi*sqrt(N)/4 - eta*sqrt(b)), and c = eta - alpha is the
    sqrt(b) coefficient saved relative to a full search.
    """

    alpha: float
    eta: float
    c: float
    n_blocks: float  # the K this was solved for; math.inf for the limit


def _check_k(n_blocks) -> float:
    if n_blocks == math.inf:
        return math.inf
    k = n_blocks
    if isinstance(k, float) and not k.is_integer():
        raise BadKError(f"block count must be an integer or inf, got {k!r}")
    k = int(k)
    if k < 2:
        raise BadKError(f"need at least 2 blocks, got {k}")
    return float(k)


def asymptotic_optimum(n_blocks) -> OptimalParameters:
    """Solve the stationarity system for ``n_blocks`` (int >= 2 or math.inf).

    K = 2 gives alpha = pi/4, eta = pi/(2*sqrt(2)); the infinite-K limit
    gives alpha = pi/6, eta = sqrt(3)/2.  Raises BadKError below K = 2.
    """
    k = _check_k(n_blocks)
    if k == math.inf:
        alpha = math.pi / 6
        eta = math.sqrt(3) / 2
    else:
        alpha = 0.5 * math.acos((k - 2) / (2.0 * (k - 1)))
        eta = 0.5 * math.sqrt(k) * math.atan2(math.sqrt(3 * k - 4), k - 2)
    return OptimalParameters(alpha, eta, eta - alpha, k)


def eta_from_alpha(n_blocks, alpha: float) -> float:
    """The eta the vanishing constraint assigns to a given alpha.

    Uses atan2 on the principal branch in (0, pi), which also covers the
    zero-denominator point K = 4*sin(alpha)**2 (there 2*eta/sqrt(K) = pi/2,
    the K = 2, alpha = pi/4 case).
    """
    k = _check_k(n_blocks)
    if not 0.0 < alpha < math.pi / 2:
        raise ValueError(f"alpha must lie in (0, pi/2), got {alpha}")
    if k == math.inf:
        # limit form: (sqrt(K)/2)*atan(2*sin(2*alpha)/sqrt(K)) -> sin(2*alpha)
        return math.sin(2.0 * alpha)
    y = 2.0 * math.sqrt(k) * math.sin(2.0 * alpha)
    x = k - 4.0 * math.sin(alpha) ** 2
    return 0.5 * math.sqrt(k) * math.atan2(y, x)


def asymptotic_expansion(n_blocks) -> tuple[float, float]:
    """Large-K expansions of (alpha_K, eta_K), accurate to O(1/K**3).

    alpha_K ~ pi/6 + 1/(2*sqrt(3)*K) + 5*sqrt(3)/(36*K**2)
    eta_K   ~ sqrt(3)/2 + 1/(2*sqrt(3)*K) + 11*sqrt(3)/(90*K**2)

    Only asymptotic: at K = 2 the alpha error is already ~0.06.
    """
    k = float(_check_k(n_blocks))
    s3 = math.sqrt(3)
    alpha = math.pi / 6 + 1.0 / (2.0 * s3 * k) + 5.0 * s3 / (36.0 * k * k)
    eta = s3 / 2.0 + 1.0 / (2.0 * s3 * k) + 11.0 * s3 / (90.0 * k * k)
    return alpha, eta


def asymptotic_schedule(g: Geometry) -> Schedule:
    """Round the closed-form optimum to integer counts for ``g``.

    Rounding is round-half-to-even.  For K = 2 the real j1 is exactly 0
    (the globals are skipped and the trailing global does the transfer);
    the clamp also absorbs float noise there.  Raises BadKError for K < 2.
    """
    opt = asymptotic_optimum(g.n_blocks)
    sqrt_n = math.sqrt(g.n_items)
    sqrt_b = math.sqrt(g.block_size)
    j1 = max(0, round(math.pi * sqrt_n / 4.0 - opt.eta * sqrt_b))
    j2 = round(opt.alpha * sqrt_b)
    return Schedule(j1, j2, trailing_global=True)


def vanishing_residual(g: Geometry, j1, j2) -> float:
    """Signed residual of the closed-form condition for the amplitude
    outside the target block to vanish after the trailing global.

    Evaluated verbatim in its reference arrangement (left side minus the
    four right-side terms).  Beware: at finite N that arrangement carries
    a sign inconsistency in two cross terms relative to what the exact
    dynamics implies, so its zero set only matches the simulator's zeros
    asymptotically.  ``run_schedule`` is the ground truth; the test suite
    reports the discrepancy rather than asserting it away.

    ``j1`` and ``j2`` may be real: the residual extends smoothly and is
    periodic in j2 with period pi/theta2.
    """
    n, k, b = g.n_items, g.n_blocks, g.block_size
    phi = (2.0 * j1 + 1.0) * g.theta1
    omega = 2.0 * j2 * g.theta2
    lhs = -n / math.sqrt(n - 1) * (0.5 - 1.0 / k) * math.cos(phi)
    rhs = (
        math.cos(omega) * math.sin(phi)
        + math.sqrt((b - 1) / (n - 1)) * math.sin(omega) * math.cos(phi)
        - math.sqrt(b - 1) * math.sin(omega) * math.sin(phi)
        + (b - 1) / math.sqrt(n - 1) * math.cos(omega) * math.cos(phi)
    )
    return lhs - rhs


def optimal_exact_schedule(
    g: Geometry, success_threshold: float = 0.99
) -> Schedule:
    """Exhaustive integer search for the cheapest adequate schedule.

    Scans j1 in [0, ceil(pi*sqrt(N)/4)] and j2 in [0, ceil(pi*sqrt(b)/2)],
    always with the trailing global, evaluating each candidate with
    :func:`run_schedule`.  Returns the schedule of minimal query count
    whose block success probability reaches ``success_threshold``, breaking
    ties toward smaller j2 and then smaller j1.  Raises InfeasibleError
    when no candidate in the box qualifies.
    """
    _check_k(g.n_blocks)
    if not 0.0 < success_threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {success_threshold}")

    j1_max = math.ceil(math.pi * math.sqrt(g.n_items) / 4.0)
    j2_max = math.ceil(math.pi * math.sqrt(g.block_size) / 2.0)

    best_key = None
    best = None
    for j1 in range(j1_max + 1):
        for j2 in range(j2_max + 1):
            candidate = Schedule(j1, j2, trailing_global=True)
            key = (candidate.queries, j2, j1)
            if best_key is not None and key >= best_key:
                continue
            final = run_schedule(g, candidate)
            if block_success_probability(final, g) >= success_threshold:
                best_key = key
                best = candidate
    if best is None:
        raise InfeasibleError(
            f"no schedule with j1 <= {j1_max}, j2 <= {j2_max} reaches "
            f"block success {success_threshold}"
        )
    return best

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
:func:`optimal_exact_schedule` finds the integer optimum in closed form.
For each local count j2 the amplitude left outside the target block is
R*sin(phi + delta) with phi = (2*j1+1)*theta1, so the first adequate j1 of
a row follows from an arcsin, at O(1) cost at any N.  Candidates whose
closed-form success lies within a rounding band of the threshold are
decided by :func:`run_schedule`, so the winner is the one an exhaustive
``run_schedule`` scan of the box picks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import BadKError, InfeasibleError
from .model import (
    Geometry,
    Schedule,
    _closed_form_success,
    _outside_coefficients,
    block_success_probability,
    run_schedule,
)

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
        alpha, eta = _stationary_point(k)
    return OptimalParameters(alpha, eta, eta - alpha, k)


def _stationary_point(k: float) -> tuple[float, float]:
    """(alpha_K, eta_K) for a finite, already checked block count ``k``."""
    return (0.5 * math.acos((k - 2) / (2.0 * (k - 1))),
            0.5 * math.sqrt(k) * math.atan2(math.sqrt(3 * k - 4), k - 2))


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


def _band(queries: int) -> float:
    """Bound on |closed-form p - run_schedule p| for a candidate of
    ``queries`` oracle queries.

    In units of 2**-52, the closed form is within 8 of the exact block
    success at any N, and ``run_schedule`` within 4 per query plus 8: it
    drifts by about 2 per query, mostly because each reflection divides by
    the square of a rounded sqrt(N) or sqrt(b).  The test suite checks both
    bounds against a 50-digit evaluation; the band is their sum.
    """
    return (4 * queries + 16) * 2.0**-52


def _first_feasible_j1(
    g: Geometry, j2: int, cap: int, threshold: float
) -> int | None:
    """Smallest j1 <= ``cap`` whose candidate (j1, j2) reaches
    ``threshold``, or None.

    With (P, Q) = R*(cos(delta), sin(delta)) the outside amplitude is
    R*sin(phi + delta), so the candidates that are not surely infeasible
    (closed-form p >= threshold - band) lie in windows
    |phi + delta - m*pi| <= arcsin(sqrt(1 - threshold + band)/R).  Each
    window's first j1 comes from that arcsin; the j1 below it is checked
    directly, and the walk stays in the window until a candidate decides.
    A candidate within the band of the threshold is decided by
    :func:`run_schedule`, which is what "reaches" means.
    """
    coeffs = _outside_coefficients(g, j2)
    band = _band(cap + j2 + 1)
    lo, hi = threshold - band, threshold + band
    radius, amp = math.sqrt(1.0 - lo), math.hypot(*coeffs)
    half = math.asin(radius / amp) if radius < amp else math.pi / 2
    delta = math.atan2(coeffs[1], coeffs[0])
    theta1 = g.theta1
    nxt = 0  # first j1 not examined yet
    m = math.floor((theta1 + delta - half) / math.pi)
    while nxt <= cap:
        start = math.ceil(((m * math.pi - half - delta) / theta1 - 1.0) / 2.0)
        if start > cap + 1:
            break
        j1 = min(max(nxt, start), cap + 1)
        while j1 > nxt and _closed_form_success(g, coeffs, j1 - 1) >= lo:
            j1 -= 1
        while j1 <= cap:
            p = _closed_form_success(g, coeffs, j1)
            if p >= hi or (p >= lo and block_success_probability(
                    run_schedule(g, Schedule(j1, j2)), g) >= threshold):
                return j1
            j1 += 1
            if p < lo and (2 * j1 - 1) * theta1 + delta > m * math.pi:
                break  # past this window
        nxt = j1
        m += 1
    return None


def optimal_exact_schedule(
    g: Geometry, success_threshold: float = 0.99
) -> Schedule:
    """Cheapest integer schedule whose block success reaches the threshold.

    Searches j1 in [0, ceil(pi*sqrt(N)/4)] and j2 in [0, ceil(pi*sqrt(b)/2)],
    always with the trailing global.  Returns the schedule of minimal query
    count whose block success probability, as :func:`run_schedule` computes
    it, reaches ``success_threshold``, breaking ties toward smaller j2 and
    then smaller j1.  Raises InfeasibleError when no candidate in the box
    qualifies.

    No state is stepped: for each j2 the outside amplitude after the
    trailing global is P*sin(phi) + Q*cos(phi) with phi = (2*j1+1)*theta1,
    so the row's first adequate j1 comes from an arcsin (see
    :func:`_first_feasible_j1`) at O(1) cost.  The closed form decides a
    candidate only when its p lies outside a band of
    (4*queries + 16)*2**-52 around the threshold, which bounds its
    difference from :func:`run_schedule`; inside the band ``run_schedule``
    decides, so the winner is the one an exhaustive ``run_schedule`` scan
    would pick.  The row of the asymptotic j2 goes first.  Its winner caps
    j1 in every other row, and the scan over j2 stops once j2 + 1 queries
    can no longer beat it, so O(sqrt(b)) rows are searched.
    """
    _check_k(g.n_blocks)
    if not 0.0 < success_threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {success_threshold}")

    j1_max = math.ceil(math.pi * math.sqrt(g.n_items) / 4.0)
    j2_max = math.ceil(math.pi * math.sqrt(g.block_size) / 2.0)

    best = None
    for j2 in itertools.chain((asymptotic_schedule(g).j2,), range(j2_max + 1)):
        if best is None:
            cap = j1_max
        elif (j2 + 1, j2) >= (best.queries, best.j2):
            break
        else:  # largest j1 whose key (queries, j2, j1) beats the best's
            cap = min(j1_max, best.queries - j2 - 1 - (j2 >= best.j2))
        j1 = _first_feasible_j1(g, j2, cap, success_threshold)
        if j1 is not None:
            best = Schedule(j1, j2, trailing_global=True)
    if best is None:
        raise InfeasibleError(
            f"no schedule with j1 <= {j1_max}, j2 <= {j2_max} reaches "
            f"block success {success_threshold}"
        )
    return best

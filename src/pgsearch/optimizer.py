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
a row follows from an arcsin, at O(1) cost at any N.  Certified bounds on
that sinusoid skip the rows, and for large blocks the blocks of rows,
that cannot beat the best found; at large N the search evaluates a small
multiple of b**(1/4) rows.  The winner is the cheapest schedule whose
reported block success (:func:`schedule_state`) is >= the threshold.
"""

from __future__ import annotations

import math
import operator
import sys
from heapq import heappop, heappush
from typing import NamedTuple

from .errors import BadKError, InfeasibleError
from .model import (
    Geometry,
    Schedule,
    _outside_at,
    _outside_coefficients,
    _rotation_constants,
    block_success_probability,
    schedule_state,
)

__all__ = [
    "OptimalParameters",
    "asymptotic_optimum",
    "eta_from_alpha",
    "asymptotic_expansion",
    "asymptotic_schedule",
    "optimal_exact_schedule",
]


class OptimalParameters(NamedTuple):
    """Stationary point of the asymptotic query count for K blocks.

    alpha scales the local count (j2 ~ alpha*sqrt(b)), eta the global
    deficit (j1 ~ pi*sqrt(N)/4 - eta*sqrt(b)), and c = eta - alpha is the
    sqrt(b) coefficient saved relative to a full search.
    """

    alpha: float
    eta: float
    c: float
    n_blocks: float  # the K this was solved for; math.inf for the limit


def _check_k(n_blocks, finite: bool = False) -> int | float:
    """``n_blocks`` as an int >= 2, or math.inf unless ``finite``.

    Integral floats are accepted; anything else, NaN, strings and ints
    beyond the float range included, raises BadKError.
    """
    if n_blocks == math.inf:
        if finite:
            raise BadKError("block count must be finite here")
        return math.inf
    try:
        k = operator.index(n_blocks)
    except TypeError:
        if not (isinstance(n_blocks, float) and n_blocks.is_integer()):
            raise BadKError(
                f"block count must be an integer, got {n_blocks!r}") from None
        k = int(n_blocks)
    if k < 2:
        raise BadKError(f"need at least 2 blocks, got {k}")
    if k > sys.float_info.max:
        raise BadKError("block count beyond the float range")
    return k


def asymptotic_optimum(n_blocks) -> OptimalParameters:
    """Solve the stationarity system for ``n_blocks`` (int >= 2 or math.inf).

    K = 2 gives alpha = pi/4, eta = pi/(2*sqrt(2)); the infinite-K limit
    gives alpha = pi/6, eta = sqrt(3)/2.  Raises BadKError below K = 2.
    """
    k = float(_check_k(n_blocks))
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


#: Half-width of the band around the threshold inside which the closed form
#: cannot decide a candidate.  In units of 2**-52 the closed form is within
#: 8 of the exact block success up to N = 2**53, and :func:`schedule_state`
#: within about 18 (4e-15); the test suite checks both bounds against a
#: 50-digit evaluation.  Farther than 8 + 18 = 26 from the threshold, the
#: closed form and schedule_state fall on the same side of it.
_BAND = 32 * 2.0**-52


#: Slack of the pruning tests in p: they skip only candidates whose exact
#: outside amplitude exceeds sqrt(1 - threshold + band + margin).  That
#: covers their own rounding (about 1e-15 in amplitude) many times over, so
#: whatever they skip has closed-form p < threshold - band.
_MARGIN = 2.0**-44

#: Rows per leaf of the block search; blocks are searched only where a
#: leaf's spread (below) is under a quarter of the radius.  At threshold 0.9
#: that is from about N = 2**14.5 (K = 2) to 2**15.5 (K >= 16), at 0.99
#: from 2**18 to 2**19.  Where the spread is wider the block bounds seldom
#: beat the best and the blocks cost more than the rows they skip.
_LEAF = 8


def _first_j1(g: Geometry, constants, edge: float, j1_max: int) -> int:
    """A j1 below which no row holds a candidate: with u = (sin(phi),
    c1*cos(phi)) the outside amplitude is r2c2*cos(phi) plus (r0, r1) dotted
    with u rotated by omega, so |outside| >= r2c2*cos(phi) - |(r0, r1)|*|u|,
    a bound free of j2 that falls as phi grows to pi/2.  Bisection finds its
    first j1 not above ``edge``."""
    r0, r1, c1, r2c2 = constants
    rho, theta1 = math.hypot(r0, r1), g.theta1
    lo, hi = 0, min(j1_max, int((math.pi / (2.0 * theta1) - 1.0) / 2.0))
    while lo < hi:
        mid = (lo + hi) // 2
        phi = (2 * mid + 1) * theta1
        cos_p = math.cos(phi)
        if r2c2 * cos_p - rho * math.hypot(math.sin(phi), c1 * cos_p) > edge:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _block(g: Geometry, constants, edge: float, spread: float, j1_min: int,
           start: int, stop: int) -> tuple[int, int, int]:
    """(q, start, stop): no row in [start, stop) holds a candidate of fewer
    than q + 1 queries.  omega moves (P, Q) by at most |(r0, r1)| per
    radian, so over the block's n rows the sinusoid stays within
    ``spread``*n = |(r0, r1)|*n*theta2 of its middle row's, and no row
    holds a candidate before that row's first window with the edge raised
    by as much (see :func:`_scan`)."""
    coeffs = _outside_coefficients(g, (start + stop - 1) // 2, constants)
    bound, amp = edge + spread * (stop - start), math.hypot(*coeffs)
    first = j1_min
    if bound < amp:
        half = math.asin(bound / amp)
        delta = math.atan2(coeffs[1], coeffs[0])
        m = math.floor(((2 * j1_min + 1) * g.theta1 + delta - half) / math.pi) + 1
        first = max(first, math.ceil(
            ((m * math.pi - half - delta) / g.theta1 - 1.0) / 2.0) - 1)
    return first + start, start, stop


def _scan(g: Geometry, threshold: float, j1_max: int, j2s):
    """The cheapest (j1, j2), j1 <= ``j1_max`` and j2 in ``j2s``, whose block
    success reaches ``threshold``, or None.  ``j2s`` holds ascending
    ranges of rows, taken in the order given; what every row shares is
    computed once.

    With (P, Q) = R*(cos(delta), sin(delta)) the outside amplitude is
    R*sin(phi + delta).  Three tests skip only candidates above ``edge``,
    sqrt(1 - threshold + band + :data:`_MARGIN`), none of which reaches
    the threshold: no row is searched below :func:`_first_j1`; a row is
    skipped when its sinusoid lies beyond the edge with one sign at both
    ends of its phi span [first j1, cap], a span under pi, since its zeros
    are pi apart and |sin| is concave between them; and where a leaf of
    :data:`_LEAF` rows moves the sinusoid little, a range is searched as
    blocks, the lowest :func:`_block` bound first, halved down to leaves
    that are searched as rows, until no bound can beat the best.

    In a row, the other candidates lie in windows |phi + delta - m*pi| <=
    arcsin(radius/R), radius = sqrt(1 - threshold + band).  Each window's
    walk starts one j1 below the first that arcsin admits, a guard against
    its rounding, or at the first j1 not examined yet if later, and goes
    forward in the window until a candidate decides.  A candidate within
    the band of the threshold is decided by :func:`schedule_state`, which
    is what "reaches" means.
    """
    constants = _rotation_constants(g)
    lo, hi = threshold - _BAND, threshold + _BAND
    radius = math.sqrt(1.0 - lo)
    edge = math.sqrt(1.0 - lo + _MARGIN)
    theta1, pi = g.theta1, math.pi
    asin, atan2, ceil, cos, floor, hypot, sin = (
        math.asin, math.atan2, math.ceil, math.cos, math.floor, math.hypot,
        math.sin)
    coefficients, outside_at = _outside_coefficients, _outside_at
    j1_min = _first_j1(g, constants, edge, j1_max)
    phi_min = (2 * j1_min + 1) * theta1
    sin_min, cos_min = sin(phi_min), cos(phi_min)
    reach = j1_min + floor(pi / (2.0 * theta1)) - 1  # caps whose span is < pi
    spread = hypot(constants[0], constants[1]) * g.theta2  # per row of a block
    leaf = _LEAF if spread * _LEAF < radius / 4.0 else math.inf
    bj1 = bj2 = None
    cap = j1_max  # largest j1 whose key beats the best's
    pending, heap = list(j2s)[::-1], []
    while heap or pending:
        if heap:  # blocks of a range, cheapest bound first
            q, start, stop = heappop(heap)
            if bj2 is not None and q + (start >= bj2) > bj1 + bj2:
                heap = []  # and so does every block left
                continue
            if stop - start > leaf:
                mid = (start + stop) // 2
                heappush(heap, _block(g, constants, edge, spread, j1_min,
                                      start, mid))
                heappush(heap, _block(g, constants, edge, spread, j1_min,
                                      mid, stop))
                continue
            rows = range(start, stop)
        else:
            rows = pending.pop()
            if len(rows) > leaf:
                heap = [_block(g, constants, edge, spread, j1_min,
                               rows.start, rows.stop)]
                continue
        for j2 in rows:
            if bj2 is not None:
                cap = bj1 + bj2 - j2 - (j2 >= bj2)
                if cap > j1_max:
                    cap = j1_max
                elif cap < j1_min:  # here and in the rest of the range
                    break
            coeffs = coefficients(g, j2, constants)
            if cap <= reach:
                phi = (2 * cap + 1) * theta1
                a = coeffs[0] * sin_min + coeffs[1] * cos_min
                z = coeffs[0] * sin(phi) + coeffs[1] * cos(phi)
                if a > edge and z > edge or a < -edge and z < -edge:
                    continue
            amp = hypot(*coeffs)
            half = asin(radius / amp) if radius < amp else pi / 2
            delta = atan2(coeffs[1], coeffs[0])
            j1 = j1_min  # first j1 not examined yet
            m = floor((phi_min + delta - half) / pi) + 1  # first to end past phi_min
            while j1 <= cap:
                start = ceil(((m * pi - half - delta) / theta1 - 1.0) / 2.0) - 1
                if start > j1:  # a start past cap ends the row
                    j1 = start
                while j1 <= cap:
                    a = outside_at(g, coeffs, j1)
                    p = 1.0 - a * a
                    if p >= hi or (p >= lo and block_success_probability(
                            schedule_state(g, Schedule(j1, j2)), g) >= threshold):
                        bj1, bj2, cap = j1, j2, j1 - 1  # nothing after beats it
                        break
                    j1 += 1
                    if p < lo and (2 * j1 - 1) * theta1 + delta > m * pi:
                        break  # past this window
                m += 1
    return None if bj2 is None else (bj1, bj2)


def optimal_exact_schedule(
    g: Geometry, success_threshold: float = 0.99
) -> Schedule:
    """Cheapest integer schedule whose block success reaches the threshold.

    Searches j1 in [0, ceil(pi*sqrt(N)/4)] and j2 in [0, ceil(pi*sqrt(b)/2)],
    always with the trailing global.  Returns the cheapest schedule whose
    reported block success, that of :func:`schedule_state`, is >=
    ``success_threshold``, breaking ties toward smaller j2 and then smaller
    j1.  Raises InfeasibleError when no candidate in the box qualifies.

    No state is stepped: for each j2 the outside amplitude after the
    trailing global (:func:`outside_amplitude`) is a sinusoid in
    phi = (2*j1+1)*theta1, so the row's first adequate j1 comes from an
    arcsin (see :func:`_scan`) at O(1) cost.  The closed form decides a
    candidate only when its p lies outside :data:`_BAND` of the threshold;
    inside it :func:`schedule_state` decides.  The row of the asymptotic
    j2 goes first, and only then; its winner caps j1 in every other row.
    Three certified tests then skip what cannot beat the best, and only
    that: the j1 below a j2-free bound, the rows whose sinusoid stays
    clear of the threshold over their whole j1 span, and, for large b,
    the blocks of rows whose bound cannot beat the best, searched
    cheapest bound first.  From N = 2**36 to 2**53 that evaluates
    8-32*b**(1/4) rows for K >= 3, and up to 68*b**(1/4) for K = 2 near
    certainty, against about sqrt(b) when every row is searched.
    """
    _check_k(g.n_blocks)
    if not 0.0 < success_threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {success_threshold}")

    j1_max = math.ceil(math.pi * math.sqrt(g.n_items) / 4.0)
    j2_max = math.ceil(math.pi * math.sqrt(g.block_size) / 2.0)

    j2 = asymptotic_schedule(g).j2
    best = _scan(g, success_threshold, j1_max,
                 (range(j2, j2 + 1), range(j2), range(j2 + 1, j2_max + 1)))
    if best is None:
        raise InfeasibleError(
            f"no schedule with j1 <= {j1_max}, j2 <= {j2_max} reaches "
            f"block success {success_threshold}"
        )
    return Schedule(*best, trailing_global=True)

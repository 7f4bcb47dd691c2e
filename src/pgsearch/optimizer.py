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
a row follows from an arcsin, at O(1) cost at any N.  The winner is the
cheapest schedule whose reported block success (:func:`schedule_state`)
is >= the threshold.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
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


def _scan(g: Geometry, threshold: float, j1_max: int, j2s):
    """The cheapest (j1, j2), j1 <= ``j1_max`` and j2 in ``j2s``, whose block
    success reaches ``threshold``, or None.  The rows are searched in the
    order given; the search stops at the first row where j1 = 0 cannot beat
    the best, so ``j2s`` must ascend after its first row.  What every row
    shares, :func:`_rotation_constants` and the band, is computed once.

    With (P, Q) = R*(cos(delta), sin(delta)) the outside amplitude is
    R*sin(phi + delta), so the candidates that are not surely infeasible
    (closed-form p >= threshold - band) lie in windows
    |phi + delta - m*pi| <= arcsin(sqrt(1 - threshold + band)/R).  Each
    window's walk starts one j1 below the first that arcsin admits, a guard
    against its rounding, or at the first j1 not examined yet if later, and
    goes forward in the window until a candidate decides.
    A candidate within the band of the threshold is decided by
    :func:`schedule_state`, which is what "reaches" means.
    """
    constants = _rotation_constants(g)
    lo, hi = threshold - _BAND, threshold + _BAND
    radius = math.sqrt(1.0 - lo)
    theta1, pi = g.theta1, math.pi
    asin, atan2, ceil, floor, hypot = (
        math.asin, math.atan2, math.ceil, math.floor, math.hypot)
    coefficients, outside_at = _outside_coefficients, _outside_at
    bj1 = bj2 = None
    cap = j1_max  # largest j1 whose key beats the best's
    for j2 in j2s:
        if bj2 is not None:
            cap = bj1 + bj2 - j2 - (j2 >= bj2)
            if cap > j1_max:
                cap = j1_max
            elif cap < 0:  # here and in every later row
                break
        coeffs = coefficients(g, j2, constants)
        amp = hypot(*coeffs)
        half = asin(radius / amp) if radius < amp else pi / 2
        delta = atan2(coeffs[1], coeffs[0])
        j1 = 0  # first j1 not examined yet
        m = floor((theta1 + delta - half) / pi)
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
    j2 goes first, and only then.  Its winner caps j1 in every other row,
    and the scan over j2 stops once j2 + 1 queries can no longer beat it,
    so O(sqrt(b)) rows are searched.
    """
    _check_k(g.n_blocks)
    if not 0.0 < success_threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {success_threshold}")

    j1_max = math.ceil(math.pi * math.sqrt(g.n_items) / 4.0)
    j2_max = math.ceil(math.pi * math.sqrt(g.block_size) / 2.0)

    first = asymptotic_schedule(g).j2
    best = _scan(g, success_threshold, j1_max, itertools.chain(
        (first,), range(first), range(first + 1, j2_max + 1)))
    if best is None:
        raise InfeasibleError(
            f"no schedule with j1 <= {j1_max}, j2 <= {j2_max} reaches "
            f"block success {success_threshold}"
        )
    return Schedule(*best, trailing_global=True)

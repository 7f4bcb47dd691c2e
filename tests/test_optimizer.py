"""Closed-form optimum and exact schedule search."""

import itertools
import math
import random

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

import pgsearch.model
import pgsearch.optimizer
from pgsearch import (
    BadKError,
    InfeasibleError,
    Schedule,
    apply_global,
    apply_local,
    asymptotic_expansion,
    asymptotic_optimum,
    asymptotic_schedule,
    block_success_probability,
    eta_from_alpha,
    make_geometry,
    optimal_exact_schedule,
    outside_amplitude,
    run_schedule,
    schedule_state,
    sv_reduce,
    sv_run_schedule,
    uniform_state,
)

from test_model import _mp_final_state

# stationary points, solved independently at high precision and rounded
# to float64
OPTIMUM_TABLE = {
    2: (0.7853981633974483, 1.1107207345395915, 0.32532257114214325),
    3: (0.659058035826409, 0.996156105656147, 0.337098069829738),
    4: (0.6154797086703874, 0.9553166181245093, 0.3398369094541219),
    5: (0.5931997761496288, 0.9340971320921154, 0.3408973559424866),
    math.inf: (0.5235987755982988, 0.8660254037844386, 0.3424266281861398),
}


@pytest.mark.parametrize("k, expected", sorted(OPTIMUM_TABLE.items(), key=str))
def test_optimum_frozen_values(k, expected):
    opt = asymptotic_optimum(k)
    alpha, eta, c = expected
    assert opt.alpha == pytest.approx(alpha, rel=1e-12)
    assert opt.eta == pytest.approx(eta, rel=1e-12)
    assert opt.c == pytest.approx(c, rel=1e-12)
    assert opt.n_blocks == k


def test_optimum_closed_forms():
    opt = asymptotic_optimum(2)
    assert opt.alpha == pytest.approx(math.pi / 4, rel=1e-15)
    assert opt.eta == pytest.approx(math.pi / (2 * math.sqrt(2)), rel=1e-15)
    lim = asymptotic_optimum(math.inf)
    assert lim.alpha == pytest.approx(math.pi / 6, rel=1e-15)
    assert lim.eta == pytest.approx(math.sqrt(3) / 2, rel=1e-15)


@pytest.mark.parametrize("bad", [1, 0, -3, 2.5])
def test_optimum_rejects_bad_k(bad):
    with pytest.raises(BadKError):
        asymptotic_optimum(bad)


def test_integer_like_float_k_is_accepted():
    assert asymptotic_optimum(4.0) == asymptotic_optimum(4)


# ----------------------------------------------------- vanishing constraint

def test_eta_from_alpha_recovers_k2():
    # K = 4*sin(alpha)**2 exactly: the atan2 branch point
    assert eta_from_alpha(2, math.pi / 4) == pytest.approx(
        math.pi / (2 * math.sqrt(2)), rel=1e-15
    )


def test_eta_from_alpha_recovers_k4():
    got = eta_from_alpha(4, asymptotic_optimum(4).alpha)
    assert got == pytest.approx(math.atan(math.sqrt(2)), rel=1e-12)


def test_eta_from_alpha_infinite_k():
    assert eta_from_alpha(math.inf, math.pi / 6) == pytest.approx(
        math.sin(math.pi / 3), rel=1e-15
    )


@pytest.mark.parametrize("alpha", [0.0, math.pi / 2, -0.1, 2.0])
def test_eta_from_alpha_domain(alpha):
    with pytest.raises(ValueError):
        eta_from_alpha(4, alpha)


@pytest.mark.parametrize("k", list(range(2, 101)) + [10**3, 10**4])
def test_constraint_consistent_with_optimum(k):
    opt = asymptotic_optimum(k)
    assert abs(eta_from_alpha(k, opt.alpha) - opt.eta) <= 1e-12


@pytest.mark.parametrize("k", [3, 5, 10, 100])
@pytest.mark.parametrize("delta", [1e-4, -1e-4])
def test_optimum_is_first_order_stationary(k, delta):
    # moving alpha off the stationary point (staying on the constraint)
    # strictly lowers the speedup coefficient c = eta - alpha
    opt = asymptotic_optimum(k)
    alpha = opt.alpha + delta
    c = eta_from_alpha(k, alpha) - alpha
    assert c < opt.c


@settings(max_examples=200, deadline=None)
@given(
    k=st.integers(min_value=3, max_value=1000),
    delta=st.floats(min_value=1e-5, max_value=0.05),
    sign=st.sampled_from([-1.0, 1.0]),
)
def test_optimum_is_local_max_of_c(k, delta, sign):
    opt = asymptotic_optimum(k)
    alpha = opt.alpha + sign * delta
    assert eta_from_alpha(k, alpha) - alpha < opt.c


def test_alpha_eta_strictly_decrease_with_k():
    ks = list(range(2, 1001))
    opts = [asymptotic_optimum(k) for k in ks]
    limit = asymptotic_optimum(math.inf)
    for prev, cur in zip(opts, opts[1:]):
        assert cur.alpha < prev.alpha
        assert cur.eta < prev.eta
        assert cur.c > prev.c
    assert opts[-1].alpha > limit.alpha
    assert opts[-1].c < limit.c


# ------------------------------------------------------- large-K expansion

def test_expansion_matches_exact_at_k100():
    alpha, eta = asymptotic_expansion(100)
    opt = asymptotic_optimum(100)
    assert abs(alpha - opt.alpha) <= 1e-5
    assert abs(eta - opt.eta) <= 1e-5


@pytest.mark.parametrize("k", [50, 100, 500])
def test_expansion_error_decays_cubically(k):
    alpha, eta = asymptotic_expansion(k)
    opt = asymptotic_optimum(k)
    assert abs(alpha - opt.alpha) <= 1.0 / k**3
    assert abs(eta - opt.eta) <= 1.0 / k**3


def test_expansion_is_poor_at_k2():
    # documented: the series is asymptotic, not uniform
    alpha, _ = asymptotic_expansion(2)
    err = abs(alpha - asymptotic_optimum(2).alpha)
    assert 0.05 < err < 0.07


# ----------------------------------------------------- asymptotic schedule

def test_asymptotic_schedule_1024_4():
    sch = asymptotic_schedule(make_geometry(1024, 4))
    assert (sch.j1, sch.j2, sch.trailing_global) == (10, 10, True)
    assert sch.queries == 21


def test_asymptotic_schedule_k2_has_no_leading_globals():
    g = make_geometry(1024, 2)
    sch = asymptotic_schedule(g)
    assert (sch.j1, sch.j2) == (0, 18)
    assert block_success_probability(run_schedule(g, sch), g) >= 0.99

    # the real-valued j1 is exactly 0 for K = 2 at any size
    sch = asymptotic_schedule(make_geometry(2**15, 2))
    assert (sch.j1, sch.j2) == (0, 101)


@pytest.mark.parametrize(
    "n, k, expected",
    [
        (2**16, 4, (79, 79)),
        (2**17, 8, (168, 72)),
        (2**18, 16, (289, 69)),
    ],
)
def test_asymptotic_schedule_large_blocks(n, k, expected):
    sch = asymptotic_schedule(make_geometry(n, k))
    assert (sch.j1, sch.j2) == expected
    assert sch.trailing_global


def test_scheduled_j1_never_decreases_with_k():
    j1s = [asymptotic_schedule(make_geometry(2520, k)).j1 for k in range(3, 11)]
    assert j1s == [11, 15, 18, 21, 22, 23, 24, 25]


# ------------------------------------------------------- residual condition

def _paper_residual(g, j1, j2):
    """The paper's vanishing condition for the outside amplitude, verbatim:
    left side minus the four right-side terms, for real j1 and j2.

    At finite N two of its cross terms carry the wrong sign relative to the
    dynamics, so its zero set matches the engine's only asymptotically.
    The tests below pin that discrepancy; :func:`outside_amplitude` is the
    exact form.
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


def test_residual_at_rounded_optimum():
    g = make_geometry(1024, 4)
    assert _paper_residual(g, 10, 10) == pytest.approx(
        0.35505976901646896, rel=1e-12
    )


def test_residual_formula_disagrees_with_engine_at_small_n():
    """The paper's vanishing condition misses an actual zero: with N=4,
    K=2 and no iterations at all, the engine's outside amplitude is exactly
    0, and so is outside_amplitude, while the residual sits at -1."""
    g = make_geometry(4, 2)
    final = run_schedule(g, Schedule(0, 0, True))
    assert final.amp_nb == 0.0
    assert outside_amplitude(g, 0, 0) == 0.0
    assert _paper_residual(g, 0, 0) == pytest.approx(-1.0, abs=1e-12)


def test_residual_near_engine_zero_is_reported_not_zero():
    # engine zero of amp_nb along j2 at N=1024, K=4, j1=0 sits near j2=24;
    # the closed form evaluates visibly non-zero there
    g = make_geometry(1024, 4)
    got = _paper_residual(g, 0, 24)
    assert got == pytest.approx(-0.07786630282667506, rel=1e-9)
    assert abs(got) > 0.01
    assert abs(outside_amplitude(g, 0, 24)) < 1e-4


def test_residual_periodic_in_j2():
    g = make_geometry(1024, 4)
    period = math.pi / g.theta2
    for j1, j2 in [(0, 3), (7, 11.5), (20, 0.25)]:
        for form in (_paper_residual, outside_amplitude):
            a = form(g, j1, j2)
            b = form(g, j1, j2 + period)
            assert b == pytest.approx(a, rel=1e-9, abs=1e-12)


# ------------------------------------------------------------ exact search

def test_exact_schedule_1024_4_default_threshold():
    g = make_geometry(1024, 4)
    sch = optimal_exact_schedule(g)
    assert (sch.j1, sch.j2, sch.trailing_global) == (13, 5, True)
    assert sch.queries == 19
    assert sch.queries <= asymptotic_schedule(g).queries
    p = block_success_probability(run_schedule(g, sch), g)
    assert p == pytest.approx(0.9901992800792561, rel=1e-12)


@pytest.mark.parametrize(
    "threshold, expected, success",
    [
        (0.999, (13, 6), 0.9997645837444226),
        (0.9999, (12, 7), 0.9999922876910938),
    ],
)
def test_exact_schedule_1024_4_tighter_thresholds(threshold, expected, success):
    g = make_geometry(1024, 4)
    sch = optimal_exact_schedule(g, threshold)
    assert (sch.j1, sch.j2) == expected
    assert sch.queries == 20
    p = block_success_probability(run_schedule(g, sch), g)
    assert p == pytest.approx(success, rel=1e-12)


def test_exact_schedule_small_cases():
    sch = optimal_exact_schedule(make_geometry(16, 2), 0.9)
    assert (sch.j1, sch.j2, sch.trailing_global) == (1, 0, True)
    sch = optimal_exact_schedule(make_geometry(64, 4), 0.99)
    assert (sch.j1, sch.j2) == (3, 1)
    sch = optimal_exact_schedule(make_geometry(64, 4), 0.9)
    assert (sch.j1, sch.j2) == (2, 1)


def test_exact_schedule_validation():
    g = make_geometry(16, 1)
    with pytest.raises(BadKError):
        optimal_exact_schedule(g)
    g = make_geometry(16, 2)
    for bad in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            optimal_exact_schedule(g, bad)


def test_exact_schedule_infeasible():
    g = make_geometry(16, 2)
    with pytest.raises(InfeasibleError, match="j1 <= 4, j2 <= 5"):
        optimal_exact_schedule(g, 1 - 1e-15)


def test_exact_schedule_matches_full_state_rescan():
    """Independent re-derivation on the raw amplitude vector: rank every
    candidate by (queries, j2, j1) using the full simulator and compare
    winners with the library's reduced-engine search."""
    g = make_geometry(16, 2)
    threshold = 0.9
    j1_cap = math.ceil(math.pi * math.sqrt(16) / 4.0)
    j2_cap = math.ceil(math.pi * math.sqrt(8) / 2.0)
    best_key, best = None, None
    for j1 in range(j1_cap + 1):
        for j2 in range(j2_cap + 1):
            sch = Schedule(j1, j2, True)
            st_ = sv_run_schedule(g, 3, sch)
            reduced, _ = sv_reduce(st_)
            p = block_success_probability(reduced, g)
            if p >= threshold:
                key = (sch.queries, j2, j1)
                if best_key is None or key < best_key:
                    best_key, best = key, sch
    assert best is not None
    lib = optimal_exact_schedule(g, threshold)
    assert (lib.j1, lib.j2, lib.trailing_global) == (
        best.j1,
        best.j2,
        best.trailing_global,
    )


def _brute_force_exact_schedule(g, success_threshold, engine=run_schedule):
    """Reference for optimal_exact_schedule: every candidate of the box is
    run from the uniform state with ``engine``.  Returns the winner and its
    block success."""
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
            final = engine(g, candidate)
            p = block_success_probability(final, g)
            if p >= success_threshold:
                best_key = key
                best = (candidate, p)
    if best is None:
        raise InfeasibleError(
            f"no schedule with j1 <= {j1_max}, j2 <= {j2_max} reaches "
            f"block success {success_threshold}"
        )
    return best


def _linear_scan_exact_schedule(g, success_threshold):
    """Reference for optimal_exact_schedule's pruning: its search without
    the pruning tests.  Every j2 row is searched, the asymptotic one first,
    until j1 = 0 cannot beat the best; each row walks its arcsin windows
    from j1 = 0, deciding in-band candidates by schedule_state."""
    from pgsearch.model import _outside_at, _outside_coefficients, _rotation_constants
    j1_max = math.ceil(math.pi * math.sqrt(g.n_items) / 4.0)
    j2_max = math.ceil(math.pi * math.sqrt(g.block_size) / 2.0)
    first = asymptotic_schedule(g).j2
    constants = _rotation_constants(g)
    band = pgsearch.optimizer._BAND
    lo, hi = success_threshold - band, success_threshold + band
    radius, theta1, pi = math.sqrt(1.0 - lo), g.theta1, math.pi
    bj1 = bj2 = None
    cap = j1_max
    for j2 in itertools.chain((first,), range(first), range(first + 1, j2_max + 1)):
        if bj2 is not None:
            cap = min(j1_max, bj1 + bj2 - j2 - (j2 >= bj2))
            if cap < 0:
                break
        coeffs = _outside_coefficients(g, j2, constants)
        amp = math.hypot(*coeffs)
        half = math.asin(radius / amp) if radius < amp else pi / 2
        delta = math.atan2(coeffs[1], coeffs[0])
        j1 = 0
        m = math.floor((theta1 + delta - half) / pi)
        while j1 <= cap:
            j1 = max(j1, math.ceil(((m * pi - half - delta) / theta1 - 1.0) / 2.0) - 1)
            while j1 <= cap:
                a = _outside_at(g, coeffs, j1)
                p = 1.0 - a * a
                if p >= hi or (p >= lo and block_success_probability(
                        schedule_state(g, Schedule(j1, j2)), g) >= success_threshold):
                    bj1, bj2, cap = j1, j2, j1 - 1
                    break
                j1 += 1
                if p < lo and (2 * j1 - 1) * theta1 + delta > m * pi:
                    break
            m += 1
    if bj2 is None:
        raise InfeasibleError(
            f"no schedule with j1 <= {j1_max}, j2 <= {j2_max} reaches "
            f"block success {success_threshold}"
        )
    return Schedule(bj1, bj2)


def _exact_cases():
    thresholds = (0.3, 0.5, 0.9, 0.99, 0.999)
    for n in (2**e for e in range(4, 13)):
        for k in sorted({2, 4, 64, n}):
            if k <= n:
                yield n, k, thresholds
    yield 1155, 3, thresholds
    yield 1155, 5, thresholds
    yield 2**14, 4, (0.99,)


@pytest.mark.parametrize("n, k, thresholds", list(_exact_cases()))
def test_exact_schedule_matches_brute_force(n, k, thresholds):
    g = make_geometry(n, k)
    for threshold in thresholds:
        try:
            expected, p = _brute_force_exact_schedule(g, threshold)
        except InfeasibleError as exc:
            with pytest.raises(InfeasibleError) as got:
                optimal_exact_schedule(g, threshold)
            assert str(got.value) == str(exc)
            continue
        sch = optimal_exact_schedule(g, threshold)
        assert sch == expected
        assert block_success_probability(run_schedule(g, sch), g) == p


@pytest.mark.parametrize("n, k", [(16, 2), (16, 16), (1024, 4), (1155, 3)])
def test_exact_schedule_infeasible_message_matches_brute_force(n, k):
    g = make_geometry(n, k)
    with pytest.raises(InfeasibleError) as ref:
        _brute_force_exact_schedule(g, 1 - 1e-15)
    with pytest.raises(InfeasibleError) as got:
        optimal_exact_schedule(g, 1 - 1e-15)
    assert str(got.value) == str(ref.value)


def _best_success_by_length(g, longest):
    """The largest block success of any word over {G, L} of each length
    0..``longest``, each word stepped literally from the uniform state,
    breadth-first."""
    level, best = [uniform_state(g)], []
    for length in range(longest + 1):
        best.append(max(block_success_probability(s, g) for s in level))
        if length < longest:
            level = [step(s, g) for s in level for step in (apply_global, apply_local)]
    return best


#: The one case at N <= 2**9 where a word outside the G^j1 L^j2 G family is
#: shorter than the exact optimum: (N, K, threshold) -> the shortest word's
#: length.  L G G L G reaches 0.99658 where the family needs G^4 L^2 G.
_SHORTER_WORDS = {(16, 8, 0.99): 5}


@pytest.mark.parametrize("n", [2**e for e in range(4, 10)])
def test_no_word_is_shorter_than_the_exact_schedule(n):
    """The exact optimum is cheapest within the G^j1 L^j2 G family; for
    every K that divides N <= 2**9 no word outside it does better, except
    in ``_SHORTER_WORDS``.  Thresholds the family cannot reach (N = K = 16
    at 0.99) are skipped."""
    for k in (k for k in range(2, n + 1) if n % k == 0):
        g = make_geometry(n, k)
        queries = {}
        for threshold in (0.9, 0.99):
            try:
                queries[threshold] = optimal_exact_schedule(g, threshold).queries
            except InfeasibleError:
                assert (n, k, threshold) == (16, 16, 0.99)
        best = _best_success_by_length(g, max(queries.values()) - 1)
        for threshold, q in queries.items():
            shortest = next((length for length, p in enumerate(best) if p >= threshold), q)
            assert shortest == _SHORTER_WORDS.get((n, k, threshold), q), (n, k, threshold)


def _count_calls(monkeypatch, module, names):
    """Wrap ``module``'s bindings of ``names``; returns the call counters."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        fn = getattr(module, name)

        def counting(*args, _fn=fn, _name=name):
            counts[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(module, name, counting)
    return counts


def test_exact_schedule_evaluation_count_is_bounded(monkeypatch):
    """Each j2 row, searched at most once, costs one (P, Q) and a handful of
    closed-form candidates; scanning the box, or stepping states through
    it, would take thousands.  The geometry's constants are computed once
    per search, not per row."""
    counts = _count_calls(monkeypatch, pgsearch.optimizer, (
        "_rotation_constants", "_outside_at", "schedule_state"))
    in_model = _count_calls(monkeypatch, pgsearch.model, ("_rotation_constants",))
    searched, coefficients = [], pgsearch.optimizer._outside_coefficients
    monkeypatch.setattr(pgsearch.optimizer, "_outside_coefficients",
                        lambda g_, j2, *rest: searched.append(j2)
                        or coefficients(g_, j2, *rest))
    g = make_geometry(4096, 4)
    j1_max = math.ceil(math.pi * math.sqrt(g.n_items) / 4.0)
    j2_max = math.ceil(math.pi * math.sqrt(g.block_size) / 2.0)
    assert (j1_max, j2_max) == (51, 51)
    assert optimal_exact_schedule(g, 0.99) == Schedule(22, 14)
    rows = len(searched)
    assert 0 < rows <= j2_max + 1
    assert len(set(searched)) == rows
    assert counts["_outside_at"] + counts["schedule_state"] <= 3 * rows
    assert counts["schedule_state"] == 0
    assert (counts["_rotation_constants"], in_model["_rotation_constants"]) == (1, 0)


@pytest.mark.parametrize("n, k", [(1024, 4), (4096, 4), (1155, 3), (256, 256),
                                  (4096, 2)])
@pytest.mark.parametrize("base", [0.5, 0.9, 0.99])
def test_exact_schedule_at_adversarial_thresholds(n, k, base, monkeypatch):
    """Thresholds set to a winner's own schedule_state block success and its
    float neighbours, so that the closed form cannot decide that winner."""
    g = make_geometry(n, k)
    winner, p = _brute_force_exact_schedule(g, base, schedule_state)
    counts = _count_calls(monkeypatch, pgsearch.optimizer, ("schedule_state",))
    for threshold in (math.nextafter(p, 0.0), p, math.nextafter(p, 1.0)):
        if not threshold < 1.0:
            continue
        try:
            expected, _ = _brute_force_exact_schedule(g, threshold, schedule_state)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                optimal_exact_schedule(g, threshold)
        else:
            got = optimal_exact_schedule(g, threshold)
            assert got == expected
            assert (threshold > p) == (expected != winner)
            assert block_success_probability(schedule_state(g, got), g) >= threshold
    assert counts["schedule_state"] >= 1  # the band path decided


@pytest.mark.parametrize("n, k", [(64, 4), (1024, 4), (1155, 5), (4096, 2),
                                  (4096, 4096)])
@pytest.mark.parametrize("threshold", [0.3, 0.9, 0.999])
def test_rows_skip_only_surely_infeasible_candidates(n, k, threshold, monkeypatch):
    """Per j2 row, the first adequate j1 equals a schedule_state scan of the
    row, and every j1 below it that the closed form did not evaluate has
    closed-form p below threshold - band."""
    g = make_geometry(n, k)
    j1_max = math.ceil(math.pi * math.sqrt(n) / 4.0)
    j2_max = math.ceil(math.pi * math.sqrt(g.block_size) / 2.0)
    evaluated = set()
    outside_at = pgsearch.optimizer._outside_at

    def recording(g_, coeffs, j1):
        evaluated.add(j1)
        return outside_at(g_, coeffs, j1)

    monkeypatch.setattr(pgsearch.optimizer, "_outside_at", recording)
    for j2 in range(j2_max + 1):
        evaluated.clear()
        got = pgsearch.optimizer._scan(g, threshold, j1_max, [range(j2, j2 + 1)])
        feasible = [
            j1 for j1 in range(j1_max + 1)
            if block_success_probability(schedule_state(g, Schedule(j1, j2)), g)
            >= threshold
        ]
        assert got == ((feasible[0], j2) if feasible else None)
        low = threshold - pgsearch.optimizer._BAND
        skipped = set(range(j1_max + 1 if got is None else got[0])) - evaluated
        assert all(_closed_form_success(g, j1, j2) < low for j1 in skipped)


@pytest.mark.parametrize("n", [2**30, 2**40, 2**53])
@pytest.mark.parametrize("k", [2, 4, 1024])
def test_windows_start_past_surely_infeasible_candidates_at_large_n(n, k, monkeypatch):
    """Far beyond a full row scan: in 16 sampled j2 rows, the j1 just below
    each run of evaluated j1 (each window's walk) has closed-form p below
    threshold - band, so the arcsin start skips no candidate."""
    g = make_geometry(n, k)
    j1_max = math.ceil(math.pi * math.sqrt(n) / 4.0)
    j2_max = math.ceil(math.pi * math.sqrt(g.block_size) / 2.0)
    evaluated = set()
    outside_at = pgsearch.optimizer._outside_at

    def recording(g_, coeffs, j1):
        evaluated.add(j1)
        return outside_at(g_, coeffs, j1)

    monkeypatch.setattr(pgsearch.optimizer, "_outside_at", recording)
    low = 0.99 - pgsearch.optimizer._BAND
    checked = 0
    for j2 in random.Random(n + k).sample(range(j2_max + 1), 16):
        evaluated.clear()
        pgsearch.optimizer._scan(g, 0.99, j1_max, [range(j2, j2 + 1)])
        below = {j1 - 1 for j1 in evaluated} - evaluated - {-1}
        assert all(_closed_form_success(g, j1, j2) < low for j1 in below), j2
        checked += len(below)
    assert checked  # some window started past j1 = 0


def _random_geometries(seed, count):
    """``count`` seeded (geometry, threshold) pairs, N <= 2**30: K from nine
    block counts, the block size log-uniform and the threshold from five."""
    rng = random.Random(seed)
    for _ in range(count):
        k = rng.choice((2, 3, 4, 5, 8, 16, 64, 256, 1024))
        b = int(2 ** rng.uniform(0, 30 - math.log2(k)))
        yield make_geometry(k * b, k), rng.choice((0.5, 0.9, 0.99, 0.999, 0.999999))


def test_pruned_search_matches_the_linear_scan():
    """The pruning tests skip only rows and blocks that cannot beat the best:
    over 400 seeded geometries the search returns the linear scan's winner,
    or its InfeasibleError."""
    for g, threshold in _random_geometries(31, 400):
        try:
            expected = _linear_scan_exact_schedule(g, threshold)
        except InfeasibleError as exc:
            with pytest.raises(InfeasibleError) as got:
                optimal_exact_schedule(g, threshold)
            assert str(got.value) == str(exc)
            continue
        assert optimal_exact_schedule(g, threshold) == expected, (g, threshold)


@pytest.mark.parametrize("n, k, expected", [
    (2**40, 4, Schedule(270702, 322158)),      # the linear scan: 592,860 rows
    (2**44, 2, Schedule(4090, 2114839)),       # 2,118,929 rows
    (2**53, 64, Schedule(59460606, 6263124)),  # 18,634,803 rows
])
def test_pruned_rows_grow_as_the_fourth_root_of_b(n, k, expected, monkeypatch):
    """Only the rows near the optimum's valley, which narrows as b**(1/4),
    are searched: at most 32*b**(1/4) rows' (P, Q), the block search's middle
    rows included (about 13, 18 and 9 times b**(1/4) here), where the
    linear scan takes 819, 1230 and 5411 times b**(1/4)."""
    rows = _count_calls(monkeypatch, pgsearch.optimizer, ("_outside_coefficients",))
    g = make_geometry(n, k)
    assert optimal_exact_schedule(g, 0.99) == expected
    assert rows["_outside_coefficients"] <= 32 * g.block_size ** 0.25


@pytest.mark.parametrize("n, k", [(1155, 5), (3 * 2**20, 3), (2**30, 4), (2**40, 1024),
                                  (2**53, 64), (2**30, 2)])
@pytest.mark.parametrize("threshold", [0.5, 0.99, 0.999999])
def test_no_row_holds_a_candidate_below_the_first_j1(n, k, threshold):
    """Below _first_j1, sampled rows have closed-form p below threshold -
    band at sampled j1 and at the j1 just below it.  At phi = 0 the bound
    is about (K - 4)*sqrt(K - 1)/K**1.5, so it lifts the first j1 only
    above K = 4, and for every threshold from K = 64 on."""
    g = make_geometry(n, k)
    j1_max = math.ceil(math.pi * math.sqrt(n) / 4.0)
    j2_max = math.ceil(math.pi * math.sqrt(g.block_size) / 2.0)
    low = threshold - pgsearch.optimizer._BAND
    edge = math.sqrt(1.0 - low + pgsearch.optimizer._MARGIN)
    j1_min = pgsearch.optimizer._first_j1(
        g, pgsearch.model._rotation_constants(g), edge, j1_max)
    assert j1_min > 0 or k < 64
    rng = random.Random(n + k)
    j1s = {j1_min - 1, *(rng.randrange(j1_min) for _ in range(8))} if j1_min else set()
    for j2 in {0, j2_max, *(rng.randint(0, j2_max) for _ in range(64))}:
        assert all(_closed_form_success(g, j1, j2) < low for j1 in j1s), j2


@pytest.mark.parametrize("n, k", [(2**30, 4), (2**40, 2), (2**36, 1024), (2**53, 64)])
@pytest.mark.parametrize("threshold", [0.5, 0.99])
def test_a_block_holds_no_candidate_below_its_bound(n, k, threshold):
    """_block's bound, in every row of 24 sampled blocks of 8 to 512 rows:
    the j1 just below it, where some row's first window nearly always
    starts, and a random j1 above _first_j1 have closed-form p below
    threshold - band."""
    g = make_geometry(n, k)
    j1_max = math.ceil(math.pi * math.sqrt(n) / 4.0)
    j2_max = math.ceil(math.pi * math.sqrt(g.block_size) / 2.0)
    low = threshold - pgsearch.optimizer._BAND
    edge = math.sqrt(1.0 - low + pgsearch.optimizer._MARGIN)
    constants = pgsearch.model._rotation_constants(g)
    spread = math.hypot(*constants[:2]) * g.theta2
    j1_min = pgsearch.optimizer._first_j1(g, constants, edge, j1_max)
    rng = random.Random(n + k)
    for _ in range(24):
        size = rng.choice((8, 64, 512))
        start = rng.randint(0, j2_max - size)
        q, _, _ = pgsearch.optimizer._block(g, constants, edge, spread, j1_min,
                                            start, start + size)
        first = q - start
        for j2 in range(start, start + size):
            j1s = {first - 1, rng.randint(j1_min, first - 1)} if first > j1_min else ()
            assert all(_closed_form_success(g, j1, j2) < low for j1 in j1s), (start, j2)


def _closed_form_success(g, j1, j2):
    """Block success the optimizer's closed form gives candidate (j1, j2)."""
    a = outside_amplitude(g, j1, j2)
    return 1.0 - a * a


def _mp_block_success(n, k, j1, j2):
    """Block success of schedule (j1, j2) at 50 digits (see
    :func:`_mp_outside_amplitude`)."""
    with mpmath.workdps(50):
        return 1 - _mp_outside_amplitude(n, k, j1, j2) ** 2


def _mp_outside_amplitude(n, k, j1, j2):
    """Signed outside amplitude sqrt(N-b)*amp_nb of schedule (j1, j2) after
    its trailing global, at 50 digits, in the orthonormal class basis, by
    the rotation angles, which also take real j1 and j2."""
    with mpmath.workdps(50):
        n_, b = mpmath.mpf(n), mpmath.mpf(n // k)
        u = [1 / mpmath.sqrt(n_), mpmath.sqrt((b - 1) / n_),
             mpmath.sqrt((n_ - b) / n_)]
        phi = (2 * j1 + 1) * mpmath.asin(1 / mpmath.sqrt(n_))
        omega = 2 * j2 * mpmath.asin(1 / mpmath.sqrt(b))
        w = mpmath.sqrt(n_ - 1)
        x0 = mpmath.sin(phi)
        x1 = mpmath.cos(phi) * mpmath.sqrt(b - 1) / w
        v = [-(mpmath.cos(omega) * x0 + mpmath.sin(omega) * x1),  # oracle flip
             mpmath.cos(omega) * x1 - mpmath.sin(omega) * x0,
             mpmath.cos(phi) * mpmath.sqrt(n_ - b) / w]
        # the trailing global: 2|u><u| - 1 on the flipped state
        return 2 * sum(a * c for a, c in zip(v, u)) * u[2] - v[2]


def _random_schedules(seed, exponents, count):
    rng = random.Random(seed)
    for e in exponents:
        for _ in range(count):
            n = 2**e if rng.random() < 0.8 else 3 * 2 ** (e - 2)
            k = rng.choice([d for d in (2, 3, 4, 16, 256, n) if n % d == 0])
            j1 = rng.randint(0, math.ceil(math.pi * math.sqrt(n) / 4.0))
            j2 = rng.randint(0, math.ceil(math.pi * math.sqrt(n // k) / 2.0))
            yield n, k, j1, j2


def test_closed_form_matches_50_digit_iteration():
    """The rotation picture is the reflections' own dynamics, at every N up
    to 2**53, and up to 2**12 both float evaluations stay within their
    stated bounds; the closed form's is part of the band."""
    for n, k, j1, j2 in _random_schedules(2, range(14, 54, 3), 6):
        exact = _mp_final_state(n, k, Schedule(j1, j2))[1]
        assert abs(_mp_block_success(n, k, j1, j2) - exact) < 1e-40, (n, k, j1, j2)
    for n, k, j1, j2 in _random_schedules(1, range(2, 13), 12):
        g = make_geometry(n, k)
        exact = _mp_final_state(n, k, Schedule(j1, j2))[1]
        assert abs(_mp_block_success(n, k, j1, j2) - exact) < 1e-40
        closed = _closed_form_success(g, j1, j2)
        assert abs(closed - exact) <= 8 * 2.0**-52
        q = j1 + j2 + 1
        iterated = block_success_probability(run_schedule(g, Schedule(j1, j2)), g)
        assert abs(iterated - exact) <= (4 * q + 8) * 2.0**-52
    # closed form 8*2**-52 plus schedule_state's 4e-15 (test_model.STATE_TOL)
    assert pgsearch.optimizer._BAND >= (8 + 18) * 2.0**-52


@pytest.mark.parametrize("n, k", [(66022, 2), (66022, 66022), (1050776, 8),
                                  (1052540, 2), (2**21, 4)])
def test_run_schedule_drift_stays_within_band(n, k):
    """run_schedule's stated drift bound, (4*queries + 8)*2**-52, on long
    schedules at sizes whose sqrt(N) rounds by almost half an ulp, where
    the iterated drift is largest."""
    g = make_geometry(n, k)
    j1_max = math.ceil(math.pi * math.sqrt(n) / 4.0)
    j2_max = math.ceil(math.pi * math.sqrt(g.block_size) / 2.0)
    for j1, j2 in ((j1_max, 0), (0, j2_max), (j1_max, j2_max)):
        q = j1 + j2 + 1
        exact = _mp_block_success(n, k, j1, j2)
        iterated = block_success_probability(run_schedule(g, Schedule(j1, j2)), g)
        assert abs(iterated - exact) <= (4 * q + 8) * 2.0**-52


def test_closed_form_accuracy_up_to_2_53():
    """Block success at integer counts, and outside_amplitude at real ones,
    within 8*2**-52 of the 50-digit rotation picture."""
    rng = random.Random(3)
    for n, k, j1, j2 in _random_schedules(2, range(14, 54, 3), 6):
        g = make_geometry(n, k)
        exact = _mp_block_success(n, k, j1, j2)
        closed = _closed_form_success(g, j1, j2)
        assert abs(closed - exact) <= 8 * 2.0**-52, (n, k, j1, j2)
        x1, x2 = j1 * rng.random(), j2 * rng.random() + rng.random()
        exact = _mp_outside_amplitude(n, k, x1, x2)
        assert abs(outside_amplitude(g, x1, x2) - exact) <= 8 * 2.0**-52, (
            n, k, x1, x2)


def test_exact_schedule_is_fast_at_large_n():
    """N = 2**30 takes about 2 ms (25 ms when every j2 row was searched);
    stepping states through the box would take hours.  The winner reaches 0.99 and one global fewer does not."""
    g = make_geometry(2**30, 4)
    assert optimal_exact_schedule(g, 0.99) == Schedule(8495, 10031)
    for j1, reaches in ((8495, True), (8494, False)):
        p = block_success_probability(run_schedule(g, Schedule(j1, 10031)), g)
        assert (p >= 0.99) == reaches


@pytest.mark.parametrize("b_exp", [6, 8, 10, 12])
def test_exact_cost_tracks_asymptotic_coefficient(b_exp):
    # queries/sqrt(N) approaches pi/4 - c_4/2, the gap shrinking like
    # 1/sqrt(b) (constant 4 calibrated on these four sizes)
    b = 2**b_exp
    g = make_geometry(4 * b, 4)
    sch = optimal_exact_schedule(g, 0.99)
    coeff = sch.queries / math.sqrt(g.n_items)
    target = math.pi / 4.0 - asymptotic_optimum(4).c / 2.0
    assert abs(coeff - target) <= 4.0 / math.sqrt(b)

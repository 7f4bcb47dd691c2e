"""Cost comparisons, interrupted runs, deviations, and query bounds."""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from pgsearch import (
    BadKError,
    BadVariantError,
    ComparisonRow,
    Schedule,
    apply_local,
    asymptotic_expansion,
    asymptotic_optimum,
    asymptotic_schedule,
    comparison_table,
    effective_local_iterations,
    eta_from_alpha,
    final_state_deviation,
    interrupted_probability,
    lower_bound_queries,
    make_geometry,
    operating_range,
    optimal_exact_schedule,
    partial_search_coefficient,
    random_pick_coefficient,
)
from pgsearch.analysis import MAX_TABLE_K, MISPRINT_NOTE_K4
import pgsearch.model as model

R_COEFF = {
    2: 0.5553603672697958,
    3: 0.641274915080932,
    4: 0.6801747615878316,
    5: 0.7024814731040726,
}
S_COEFF = {
    2: 0.5553603672697958,
    3: 0.5907745020379458,
    4: 0.6154797086703874,
    5: 0.6329442311499799,
}


@pytest.mark.parametrize("k", sorted(R_COEFF))
def test_coefficients_frozen(k):
    assert random_pick_coefficient(k) == pytest.approx(R_COEFF[k], rel=1e-12)
    assert partial_search_coefficient(k) == pytest.approx(S_COEFF[k], rel=1e-12)


def _reference_random_pick(k):
    k = int(k)
    return math.pi / 4.0 * math.sqrt((k - 1.0) / k)


def _reference_partial_search(k):
    opt = asymptotic_optimum(k)
    return math.pi / 4.0 + (opt.alpha - opt.eta) / math.sqrt(float(k))


def _reference_interrupted(k):
    k = int(k)
    return (k - 2) ** 2 / (k * (k - 1))


@pytest.mark.parametrize("k", [2, 3, 4, 4.0, 5, 1000, 10**6, 2**53 + 1, 10**300, math.inf],
                         ids=["2", "3", "4", "4.0", "5", "1000", "10**6", "2**53+1",
                              "10**300", "inf"])
def test_scalar_coefficients_equal_their_own_formulas_bit_for_bit(k):
    # each formula written out on its own, apart from the table row that
    # the public functions read
    pairs = [(partial_search_coefficient(k), _reference_partial_search(k))]
    if k != math.inf:
        pairs += [(random_pick_coefficient(k), _reference_random_pick(k)),
                  (interrupted_probability(k), _reference_interrupted(k))]
    for got, want in pairs:
        assert got.hex() == want.hex()


def test_partial_search_coefficient_at_infinite_k_is_quarter_pi():
    assert partial_search_coefficient(math.inf) == math.pi / 4


def test_coefficients_coincide_at_k2():
    assert abs(partial_search_coefficient(2) - random_pick_coefficient(2)) <= 1e-12


@pytest.mark.parametrize("k", list(range(3, 50)) + [100, 1000, 10**4])
def test_optimized_beats_random_pick_above_k2(k):
    assert partial_search_coefficient(k) < random_pick_coefficient(k)


#: Every public function that takes a block count, called with K alone.
K_TAKING = {
    "asymptotic_optimum": asymptotic_optimum,
    "eta_from_alpha": lambda k: eta_from_alpha(k, 0.5),
    "asymptotic_expansion": asymptotic_expansion,
    "random_pick_coefficient": random_pick_coefficient,
    "partial_search_coefficient": partial_search_coefficient,
    "interrupted_probability": interrupted_probability,
    "effective_local_iterations": lambda k: effective_local_iterations(k, 16),
    "comparison_table": lambda k: comparison_table(k, k),
}


@pytest.mark.parametrize("name", sorted(K_TAKING))
@pytest.mark.parametrize("bad", [math.nan, "4", 3.5, 1, -math.inf,
                                 pytest.param(10**400, id="10**400")], ids=repr)
def test_bad_block_counts_raise_bad_k_everywhere(name, bad):
    with pytest.raises(BadKError):
        K_TAKING[name](bad)
    assert K_TAKING[name](4.0) == K_TAKING[name](4)


def test_coefficient_validation():
    for bad in (1, 0, 2.5, math.inf):
        with pytest.raises(BadKError):
            random_pick_coefficient(bad)
        with pytest.raises(BadKError):
            interrupted_probability(bad)


# ------------------------------------------------------------- interrupted

def test_interrupted_probability_values():
    assert interrupted_probability(2) == 0.0
    assert interrupted_probability(30) == pytest.approx(784 / 870, rel=1e-15)
    assert interrupted_probability(29) == pytest.approx(
        0.8977832512315271, rel=1e-12
    )


@pytest.mark.parametrize("k", [3, 4, 7, 30, 101, 9999])
def test_interrupted_probability_identity(k):
    # p - (1 - 3/K) == 1/(K*(K-1)), the excess over the naive estimate
    lhs = interrupted_probability(k) - (1.0 - 3.0 / k)
    assert lhs == pytest.approx(1.0 / (k * (k - 1)), rel=1e-9)


def test_interrupted_run_matches_engine():
    """The closed form is an asymptotic statement about real runs: stop a
    pure global-iteration run at the crossover point and measure."""
    g = make_geometry(2**20, 16)
    j1 = asymptotic_schedule(g).j1
    s = model.run_schedule(g, Schedule(j1, 0, False))
    p_item = s.amp_target ** 2
    assert abs(p_item - interrupted_probability(16)) <= 0.01


# --------------------------------------------------------- operating range

def test_operating_range_at_90_percent():
    r = operating_range(0.9)
    assert (r.k_min, r.k_max, r.k_max_exact) == (3, 30, 29)


def test_operating_range_at_50_percent():
    r = operating_range(0.5)
    assert (r.k_min, r.k_max, r.k_max_exact) == (3, 6, 5)


def test_operating_range_at_99_percent():
    r = operating_range(0.99)
    assert (r.k_min, r.k_max, r.k_max_exact) == (3, 299, 299)


def _k_max_reference(p: float) -> int:
    """Largest K >= 2 with (K-2)**2/(K*(K-1)) <= p, by bisection on the
    exact rational law (it increases with K)."""
    p = Fraction(p)

    def qualifies(k):
        return Fraction((k - 2) ** 2, k * (k - 1)) <= p

    lo, hi = 2, int(4 / (1 - p)) + 3
    assert qualifies(lo) and not qualifies(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if qualifies(mid) else (lo, mid)
    return lo


@given(st.floats(min_value=0.0, max_value=1 - 1e-6, exclude_min=True))
def test_operating_range_exact_endpoint_matches_rational_reference(p):
    assert operating_range(p).k_max_exact == _k_max_reference(p)


@pytest.mark.parametrize(
    "p, expected",
    [(1 - 1e-9, 3000000084), (1 - 1e-12, 3000066366628),
     (1 - 2**-53, 3 * 2**53 - 1)],
)
def test_operating_range_near_certainty_is_exact_and_fast(p, expected):
    start = time.perf_counter()
    assert operating_range(p).k_max_exact == expected
    assert time.perf_counter() - start < 1.0
    assert expected == _k_max_reference(p)


def test_operating_range_at_certainty():
    r = operating_range(1.0)
    assert r.k_min == 3
    assert r.k_max == math.inf
    assert r.k_max_exact == math.inf


@pytest.mark.parametrize("bad", [0.0, -0.1, 1.1, 2.0])
def test_operating_range_domain(bad):
    with pytest.raises(ValueError):
        operating_range(bad)


@pytest.mark.parametrize("p", [0.3, 0.5, 0.75, 0.9, 0.95, 0.99])
def test_operating_range_exact_endpoint_is_tight(p):
    ke = operating_range(p).k_max_exact
    assert interrupted_probability(ke) <= p
    assert interrupted_probability(ke + 1) > p


# ------------------------------------------------------ final state shape

def test_final_state_deviation_frozen_large_case():
    g = make_geometry(2**16, 4)
    dev = final_state_deviation(g, asymptotic_schedule(g))
    assert dev == pytest.approx(0.011213056528231069, rel=1e-9)


def test_final_state_component_breakdown():
    g = make_geometry(2**16, 4)
    s = model.run_schedule(g, asymptotic_schedule(g))
    alpha = asymptotic_optimum(4).alpha
    assert abs(s.amp_target - math.sin(alpha)) == pytest.approx(
        0.0016887114944723614, rel=1e-9
    )
    outside = math.sqrt(g.n_items - g.block_size) * abs(s.amp_nb)
    assert outside == pytest.approx(0.011213056528231069, rel=1e-9)


def test_final_state_deviation_shrinks_with_block_size():
    devs = []
    for b_exp in (8, 10, 12, 14):
        g = make_geometry(4 * 2**b_exp, 4)
        devs.append(final_state_deviation(g, asymptotic_schedule(g)))
    assert devs[0] == pytest.approx(0.08064114097322422, rel=1e-9)
    for prev, cur in zip(devs, devs[1:]):
        assert cur < prev


def test_final_state_deviation_empty_schedule_is_large():
    # nothing has run, so all the outside weight is still there:
    # sqrt(1 - 1/K) for K = 4
    g = make_geometry(2**16, 4)
    dev = final_state_deviation(g, Schedule(0, 0, False))
    assert dev == pytest.approx(0.8660254037844386, rel=1e-12)
    assert dev > 0.5


def test_k2_local_only_run_hits_half_weight_target():
    # for K = 2 the ideal target amplitude is sin(pi/4); a locals-only
    # schedule already gets there (the trailing global would move weight
    # between blocks, which K = 2 does not need until the very end)
    g = make_geometry(2**15, 2)
    j2 = round(math.pi * math.sqrt(g.block_size) / 4.0)
    assert j2 == 101
    s = model.run_schedule(g, Schedule(0, j2, False))
    assert s.amp_target == pytest.approx(0.707025555991087, rel=1e-12)
    assert abs(s.amp_target - math.sqrt(0.5)) <= 1e-3


# ------------------------------------------------- effective local counts

def test_effective_local_iterations_values():
    assert effective_local_iterations(4, 256) == pytest.approx(
        4.923837669363099, rel=1e-12
    )
    # infinite-K limit: (pi/12)*sqrt(b)
    assert effective_local_iterations(math.inf, 10**4) == pytest.approx(
        26.179938779914945, rel=1e-12
    )


def test_effective_local_iterations_validation():
    with pytest.raises(ValueError):
        effective_local_iterations(4, 0)
    with pytest.raises(BadKError):
        effective_local_iterations(1, 16)


@pytest.mark.parametrize(
    "b, max_dev",
    [
        # b = 256 lands at 0.0576: the rounded count overshoots by a full
        # half-iteration there, so the first size the 0.05 envelope holds
        # for is 512
        (512, 0.05),
        (1024, 0.05),
        (4096, 0.05),
        (2**14, 0.05),
    ],
)
def test_rounded_effective_count_prepares_ideal_target(b, max_dev):
    g = make_geometry(4 * b, 4)
    j = round(effective_local_iterations(4, b))
    s = model.ReducedState(1.0 / math.sqrt(b), 1.0 / math.sqrt(b), 0.0)
    for _ in range(j):
        s = apply_local(s, g)
    assert abs(s.amp_target - math.sin(asymptotic_optimum(4).alpha)) <= max_dev


def test_rounded_effective_count_at_b256_documented_miss():
    g = make_geometry(1024, 4)
    j = round(effective_local_iterations(4, 256))
    s = model.ReducedState(1.0 / 16.0, 1.0 / 16.0, 0.0)
    for _ in range(j):
        s = apply_local(s, g)
    dev = abs(s.amp_target - math.sin(asymptotic_optimum(4).alpha))
    assert 0.05 < dev < 0.06


# ------------------------------------------------------------ query bounds

def test_lower_bounds_frozen_1024_4():
    g = make_geometry(1024, 4)
    assert lower_bound_queries(g, "basic") == pytest.approx(
        12.566370614359172, rel=1e-12
    )
    assert lower_bound_queries(g, "tighter") == pytest.approx(
        16.755160819145566, rel=1e-12
    )
    assert lower_bound_queries(g, "alpha_exact") == pytest.approx(
        17.49020828372227, rel=1e-12
    )


@pytest.mark.parametrize("n, k", [(1024, 4), (4096, 8), (2**16, 16), (64, 2)])
def test_lower_bounds_are_ordered_and_below_achieved(n, k):
    g = make_geometry(n, k)
    basic = lower_bound_queries(g, "basic")
    tighter = lower_bound_queries(g, "tighter")
    alpha_exact = lower_bound_queries(g, "alpha_exact")
    opt = asymptotic_optimum(k)
    achieved = math.pi * math.sqrt(n) / 4.0 - opt.c * math.sqrt(n // k)
    assert basic < tighter < alpha_exact < achieved
    assert achieved <= asymptotic_schedule(g).queries + 1


def test_lower_bounds_are_asymptotic_not_strict():
    # The bounds hold for near-certain success as N grows; at finite N a
    # schedule with threshold < 1 can use fewer queries than they allow.
    g = make_geometry(4096, 64)
    basic = lower_bound_queries(g, "basic")
    tighter = lower_bound_queries(g, "tighter")
    alpha_exact = lower_bound_queries(g, "alpha_exact")
    assert (basic, tighter, alpha_exact) == pytest.approx((43.98, 46.08, 46.09),
                                                          abs=0.01)
    assert optimal_exact_schedule(g, 0.9).queries == 38 < basic
    assert optimal_exact_schedule(g, 0.99).queries == 45 < tighter < alpha_exact


def test_lower_bounds_unknown_variant():
    with pytest.raises(BadVariantError):
        lower_bound_queries(make_geometry(1024, 4), "sharpest")


# -------------------------------------------------------- comparison table

def test_comparison_table_frozen_rows():
    rows = comparison_table(2, 5)
    assert [r.n_blocks for r in rows] == [2, 3, 4, 5]
    for row in rows:
        assert row.s_coeff == pytest.approx(S_COEFF[row.n_blocks], rel=1e-12)
        assert row.r_coeff == pytest.approx(R_COEFF[row.n_blocks], rel=1e-12)
        assert row.p_interrupted == pytest.approx(
            interrupted_probability(row.n_blocks), rel=1e-15
        )
        assert row.c == pytest.approx(
            asymptotic_optimum(row.n_blocks).c, rel=1e-15
        )


def test_comparison_table_k4_note():
    rows = comparison_table(2, 6)
    notes = {r.n_blocks: r.note for r in rows}
    assert "suspected misprint" in notes[4]
    assert "0.586" in notes[4]
    assert notes[4] == MISPRINT_NOTE_K4
    for k in (2, 3, 5, 6):
        assert notes[k] == ""


def test_comparison_table_far_row():
    (row,) = comparison_table(30, 30)
    assert row.p_interrupted == pytest.approx(0.9011494252873563, rel=1e-12)
    assert isinstance(row, ComparisonRow)
    # a NamedTuple: equal to the plain tuple of its values
    assert row == (30, row.s_coeff, row.r_coeff, row.p_interrupted, row.c, "")


@pytest.mark.parametrize("k", [2, 3, 4, 5, 1000, 2**19 - 1, MAX_TABLE_K])
def test_comparison_table_rows_equal_scalar_functions(k):
    # 2**20 - 1 lies above MAX_TABLE_K; the range check below refuses it
    rows = comparison_table(max(2, k - 1), min(MAX_TABLE_K, k + 1))
    (row,) = [r for r in rows if r.n_blocks == k]
    assert row == comparison_table(k, k)[0]
    assert row.s_coeff == partial_search_coefficient(k)
    assert row.r_coeff == random_pick_coefficient(k)
    assert row.p_interrupted == interrupted_probability(k)
    assert row.c == asymptotic_optimum(k).c
    assert row.note == (MISPRINT_NOTE_K4 if k == 4 else "")


@pytest.mark.parametrize("k_min, k_max", [(1, 5), (5, 3), (2, 10**6 + 1), (0, 0),
                                          (2**20 - 1, 2**20 - 1)])
def test_comparison_table_range_validation(k_min, k_max):
    with pytest.raises(BadKError):
        comparison_table(k_min, k_max)

"""Tests for the reduced 3-class engine."""

import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pgsearch import (
    NonDivisibleError,
    PrecisionError,
    Schedule,
    TooSmallError,
    apply_global,
    apply_local,
    asymptotic_schedule,
    block_success_probability,
    item_success_probability,
    make_geometry,
    norm_squared,
    run_schedule,
    schedule_state,
    uniform_state,
)
import pgsearch.model as model
from pgsearch.optimizer import _BAND


# ---------------------------------------------------------------- geometry

def test_geometry_small_exact():
    g = make_geometry(4, 2)
    assert g.block_size == 2
    assert g.theta1 == pytest.approx(math.pi / 6, rel=1e-15)
    assert g.theta2 == pytest.approx(math.pi / 4, rel=1e-15)


def test_geometry_frozen_angles():
    # independently evaluated arcsin(1/32) and arcsin(1/16)
    g = make_geometry(1024, 4)
    assert g.block_size == 256
    assert g.theta1 == pytest.approx(0.031255088499495154, rel=1e-15)
    assert g.theta2 == pytest.approx(0.06254076179649139, rel=1e-15)


@pytest.mark.parametrize("n, k", [(64, 2), (64, 64), (1024, 4), (2**40, 1024), (30, 5)])
def test_geometry_angle_invariants(n, k):
    g = make_geometry(n, k)
    assert math.sin(g.theta1) ** 2 == pytest.approx(1.0 / n, rel=1e-14)
    assert math.sin(g.theta2) ** 2 == pytest.approx(k / n, rel=1e-14)
    assert 0 < g.theta1 <= g.theta2 <= math.pi / 2


def test_geometry_k1_angles_coincide():
    g = make_geometry(16, 1)
    assert g.theta1 == g.theta2


def test_geometry_errors():
    with pytest.raises(NonDivisibleError):
        make_geometry(10, 3)
    with pytest.raises(TooSmallError):
        make_geometry(1, 1)
    with pytest.raises(PrecisionError):
        make_geometry(2**54, 2)
    with pytest.raises(NonDivisibleError):
        make_geometry(8, 0)
    # sizes must be integers, as for range(); numpy integers are integers
    with pytest.raises(TypeError):
        make_geometry(16.0, 4)
    with pytest.raises(TypeError):
        make_geometry(16, 4.0)
    assert make_geometry(np.int64(16), np.int64(4)).block_size == 4


def test_uniform_state_values():
    g = make_geometry(4, 2)
    s = uniform_state(g)
    assert (s.amp_target, s.amp_ntt, s.amp_nb) == (0.5, 0.5, 0.5)
    g = make_geometry(1024, 4)
    s = uniform_state(g)
    assert s.amp_target == 1 / 32
    assert norm_squared(s, g) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("n, k", [(4, 2), (1024, 4), (4096, 16), (30, 6)])
def test_uniform_block_success_is_one_over_k(n, k):
    g = make_geometry(n, k)
    assert block_success_probability(uniform_state(g), g) == pytest.approx(1 / k, abs=1e-12)


# -------------------------------------------------------------- iterations

def test_single_global_n4_concentrates():
    """The classic single-step case: one global iteration on 4 items
    moves all weight onto the target."""
    g = make_geometry(4, 2)
    s = apply_global(uniform_state(g), g)
    assert s.amp_target == pytest.approx(1.0, abs=1e-15)
    assert s.amp_ntt == pytest.approx(0.0, abs=1e-15)
    assert s.amp_nb == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("n, k", [(64, 4), (1024, 4), (1024, 2), (4096, 16)])
def test_global_rotation_identity(n, k):
    # j globals on uniform give amp_target = sin((2j+1)*theta1) and leave
    # every other item at cos((2j+1)*theta1)/sqrt(N-1)
    g = make_geometry(n, k)
    s = uniform_state(g)
    for j in range(51):
        phase = (2 * j + 1) * g.theta1
        assert s.amp_target == pytest.approx(math.sin(phase), abs=1e-12)
        rest = math.cos(phase) / math.sqrt(n - 1)
        assert s.amp_ntt == pytest.approx(rest, abs=1e-12)
        assert s.amp_nb == pytest.approx(rest, abs=1e-12)
        s = apply_global(s, g)


def test_global_25x_reaches_full_search_peak():
    g = make_geometry(1024, 4)
    s = uniform_state(g)
    for _ in range(25):  # round(pi*sqrt(1024)/4)
        s = apply_global(s, g)
    assert s.amp_target**2 >= 0.999


@pytest.mark.parametrize("n, k", [(64, 4), (1024, 4), (512, 2)])
def test_local_rotation_identity(n, k):
    b = n // k
    g = make_geometry(n, k)
    # block-uniform start: all weight evenly inside the target block
    s = model.ReducedState(1 / math.sqrt(b), 1 / math.sqrt(b), 0.0)
    for j in range(51):
        assert s.amp_target == pytest.approx(
            math.sin((2 * j + 1) * g.theta2), abs=1e-12
        )
        s = apply_local(s, g)


def test_local_b2_single_step():
    g = make_geometry(4, 2)
    s = model.ReducedState(1 / math.sqrt(2), 1 / math.sqrt(2), 0.0)
    out = apply_local(s, g)
    # sin(3*theta2) with theta2 = pi/4
    assert out.amp_target == pytest.approx(math.sin(3 * math.pi / 4), abs=1e-15)


def test_local_preserves_outside_amplitude_bit_exact():
    g = make_geometry(1024, 4)
    s = uniform_state(g)
    for _ in range(7):
        before = s.amp_nb
        s = apply_local(s, g)
        assert s.amp_nb == before  # bit-exact, not approx


def test_local_flips_target_for_single_item_blocks():
    # with b == 1 the in-block reflection is the identity, so a local
    # iteration is the oracle flip alone
    g = make_geometry(16, 16)
    s = uniform_state(g)
    out = apply_local(s, g)
    assert out.amp_target == -s.amp_target
    assert out.amp_nb == s.amp_nb


def test_apply_rejects_denormalized_state():
    g = make_geometry(64, 4)
    # NaN compares false with everything, so it must not slip past the guard
    for bad in (model.ReducedState(1.0, 1.0, 1.0),
                model.ReducedState(math.nan, 0.0, 0.0)):
        with pytest.raises(ValueError):
            apply_global(bad, g)
        with pytest.raises(ValueError):
            apply_local(bad, g)


# weighted random states over a wide range of layouts; the reduced model
# has no size limit so push N to 2**40
@st.composite
def _geometry_and_state(draw):
    k_exp = draw(st.integers(min_value=0, max_value=6))
    b_exp = draw(st.integers(min_value=0, max_value=34))
    n = 2 ** (k_exp + b_exp)
    if n < 2:
        n, k_exp = 2, 1
    g = make_geometry(n, 2**k_exp)
    raw = (
        draw(st.floats(-1, 1, allow_nan=False)),
        draw(st.floats(-1, 1, allow_nan=False)),
        draw(st.floats(-1, 1, allow_nan=False)),
    )
    b = g.block_size
    norm2 = raw[0] ** 2 + (b - 1) * raw[1] ** 2 + (n - b) * raw[2] ** 2
    if norm2 < 1e-12:
        raw = (1.0, 0.0, 0.0)
        norm2 = 1.0
    scale = 1 / math.sqrt(norm2)
    return g, model.ReducedState(raw[0] * scale, raw[1] * scale, raw[2] * scale)


@settings(max_examples=1000, deadline=None)
@given(_geometry_and_state())
def test_iterations_preserve_norm(gs):
    g, s = gs
    assert abs(norm_squared(apply_global(s, g), g) - 1.0) <= 1e-12
    assert abs(norm_squared(apply_local(s, g), g) - 1.0) <= 1e-12


# --------------------------------------------------------------- schedules

def test_schedule_queries_accounting():
    assert Schedule(3, 4, True).queries == 8
    assert Schedule(3, 4, False).queries == 7
    assert Schedule(0, 0, False).queries == 0


def test_schedule_rejects_negative_counts():
    with pytest.raises(ValueError):
        Schedule(-1, 0)
    with pytest.raises(ValueError):
        Schedule(0, -2, False)
    with pytest.raises(TypeError):
        Schedule(1.5, 0)
    with pytest.raises(TypeError):
        Schedule(0, 2.0)
    assert Schedule(np.int64(2), np.int64(3)).queries == 6


def test_schedule_checks_tuple_constructors():
    for make in (lambda: Schedule._make((-1, 0, True)),
                 lambda: Schedule(1, 2)._replace(j1=-1),
                 lambda: Schedule(1, 2)._replace(j2=-3)):
        with pytest.raises(ValueError):
            make()
    with pytest.raises(TypeError):
        Schedule(1, 2)._replace(j2=0.5)
    with pytest.raises(TypeError):
        Schedule._make((1, 2))  # a tuple constructor takes every field
    for make in (lambda: Schedule(1, 1, "no"), lambda: Schedule(1, 1, None),
                 lambda: Schedule(1, 1, 0.5),
                 lambda: Schedule(0, 0)._replace(trailing_global=1),
                 lambda: Schedule._make((0, 0, np.bool_(True)))):
        with pytest.raises(TypeError):
            make()  # the trailing flag is a bool, never a truthy stand-in
    assert Schedule._make((1, 2, False))._replace(j2=4) == Schedule(1, 4, False)
    assert repr(Schedule(13, 5)) == "Schedule(j1=13, j2=5, trailing_global=True)"


_MIXED = st.one_of(st.integers(-3, 64), st.integers(2**53 - 2, 2**64), st.booleans(),
                   st.floats(), st.text(max_size=3), st.none())


@settings(max_examples=500, deadline=None)
@given(_MIXED, _MIXED, _MIXED, st.sampled_from(["call", "_make", "_replace"]))
def test_record_constructors_accept_or_refuse(a, b, c, route):
    """Mixed inputs give a valid record, TypeError, ValueError or one of
    make_geometry's documented errors; never a schedule with a negative
    count."""
    try:
        g = make_geometry(a, b)
    except (TypeError, TooSmallError, PrecisionError, NonDivisibleError):
        pass
    else:
        assert 2 <= g.n_items <= model.MAX_ITEMS
        assert g.n_blocks * g.block_size == g.n_items
    try:
        if route == "call":
            s = Schedule(a, b, c)
        elif route == "_make":
            s = Schedule._make((a, b, c))
        else:
            s = Schedule(0, 0)._replace(j1=a, j2=b, trailing_global=c)
    except (TypeError, ValueError):
        return
    assert type(s) is Schedule
    assert s.j1 >= 0 and s.j2 >= 0
    assert type(s.trailing_global) is bool
    assert s.queries == s.j1 + s.j2 + bool(c)


def test_run_schedule_single_trailing_global_n4():
    g = make_geometry(4, 2)
    s = run_schedule(g, Schedule(0, 0, True))
    assert s.amp_target == pytest.approx(1.0, abs=1e-15)


def test_run_schedule_empty_is_uniform():
    g = make_geometry(36, 6)
    assert run_schedule(g, Schedule(0, 0, False)) == uniform_state(g)


def test_run_schedule_rounded_asymptotic_1024_4():
    # the rounded asymptotic schedule leaves almost nothing outside the block
    g = make_geometry(1024, 4)
    s = run_schedule(g, Schedule(10, 10, True))
    assert (g.n_items - g.block_size) * s.amp_nb**2 <= 0.01
    assert norm_squared(s, g) == pytest.approx(1.0, abs=1e-10)


def test_run_schedule_invokes_exactly_queries_applications(monkeypatch):
    calls = {"g": 0, "l": 0}
    real_global, real_local = model.apply_global, model.apply_local

    def counting_global(s, g):
        calls["g"] += 1
        return real_global(s, g)

    def counting_local(s, g):
        calls["l"] += 1
        return real_local(s, g)

    monkeypatch.setattr(model, "apply_global", counting_global)
    monkeypatch.setattr(model, "apply_local", counting_local)
    g = make_geometry(256, 4)
    for sch in (Schedule(5, 7, True), Schedule(0, 3, False), Schedule(2, 0, True)):
        calls["g"] = calls["l"] = 0
        model.run_schedule(g, sch)
        assert calls["g"] + calls["l"] == sch.queries
        assert calls["l"] == sch.j2


def test_success_probability_two_forms_agree():
    g = make_geometry(1024, 4)
    for sch in (Schedule(10, 10, True), Schedule(3, 17, False), Schedule(25, 0, True)):
        s = run_schedule(g, sch)
        direct = block_success_probability(s, g)
        complement = 1.0 - (g.n_items - g.block_size) * s.amp_nb**2
        assert direct == pytest.approx(complement, abs=1e-10)


def test_item_success_probability():
    g = make_geometry(1024, 4)
    assert item_success_probability(uniform_state(g)) == pytest.approx(1 / 1024)
    s = model.ReducedState(1.0, 0.0, 0.0)
    assert item_success_probability(s) == 1.0


def test_interrupted_item_success_large_case():
    """Globals-only run at N=2**20, K=16 lands near the closed-form
    (K-2)**2/(K(K-1)) success of the interrupted strategy."""
    from pgsearch import asymptotic_schedule

    g = make_geometry(2**20, 16)
    j1 = asymptotic_schedule(g).j1
    s = run_schedule(g, Schedule(j1, 0, False))
    assert item_success_probability(s) == pytest.approx(196 / 240, abs=0.02)


# ------------------------------------------------------------ linear maps

def test_matrix_route_matches_applies():
    """7 stepped globals then 9 locals land on the 50-digit reflections."""
    for n, k in ((1024, 4), (64, 64)):  # K = N: single-item blocks
        g = make_geometry(n, k)
        b = g.block_size
        weights = np.array([1.0, math.sqrt(b - 1), math.sqrt(n - b)])
        s = uniform_state(g)
        for _ in range(7):
            s = apply_global(s, g)
        for _ in range(9):
            s = apply_local(s, g)
        exact, _ = _mp_final_state(n, k, Schedule(7, 9, False))
        np.testing.assert_allclose(
            weights * np.array(exact, dtype=float),
            weights * (s.amp_target, s.amp_ntt, s.amp_nb), atol=1e-12)


# ------------------------------------------------------ closed-form state

#: Stated bound on |schedule_state - exact| for every per-item amplitude
#: and for the block success.  At K = N the weightless amp_ntt carries
#: 2*j2 times the target's error, which sets the worst case (2.7e-15 at
#: N = 3); elsewhere the error stays below about 1e-15.
STATE_TOL = 4e-15


def _mp_final_state(n, k, schedule):
    """Per-item amplitudes and block success of ``schedule`` at 50 digits.

    The literal reflections, as 3x3 matrices on the per-item class
    amplitudes (target, in-block rest, outside): the oracle flips the
    target, then each moved item becomes twice the mean over the database
    (global) or over its block (local) minus itself.  Powers go by
    squaring, so N up to 2**53 stays cheap.
    """
    with mpmath.workdps(50):
        n_, b = mpmath.mpf(n), mpmath.mpf(n // k)
        flip = mpmath.diag([-1, 1, 1])
        mean_n = [2 * c / n_ for c in (1, b - 1, n_ - b)]
        mean_b = [2 * c / b for c in (1, b - 1, 0)]
        glob = (mpmath.matrix([mean_n] * 3) - mpmath.eye(3)) * flip
        local = (mpmath.matrix([mean_b] * 2 + [[0, 0, 0]])
                 - mpmath.diag([1, 1, -1])) * flip
        v = mpmath.matrix([1, 1, 1]) / mpmath.sqrt(n_)
        v = glob ** int(schedule.trailing_global) * (
            local ** schedule.j2 * (glob ** schedule.j1 * v))
        return [v[0], v[1], v[2]], v[0] ** 2 + (b - 1) * v[1] ** 2


def _state_errors(g, schedule):
    """Largest amplitude error and block-success error of schedule_state."""
    s = schedule_state(g, schedule)
    exact, p = _mp_final_state(g.n_items, g.n_blocks, schedule)
    got = (s.amp_target, s.amp_ntt, s.amp_nb)
    return (max(abs(float(e - a)) for e, a in zip(exact, got)),
            abs(float(p - block_success_probability(s, g))))


def _random_schedule(rng, n):
    k = rng.choice([d for d in (1, 2, 3, 4, 16, 256, n) if n % d == 0])
    g = make_geometry(n, k)
    j1 = rng.randint(0, math.ceil(math.pi * math.sqrt(n) / 4.0))
    j2 = rng.randint(0, math.ceil(math.pi * math.sqrt(g.block_size) / 2.0))
    return g, Schedule(j1, j2, trailing_global=rng.random() < 0.75)


def test_schedule_state_matches_50_digit_reflections():
    """320 random schedules, N <= 2**16, K = 1..N, with and without the
    trailing global; the optimizer's closed form agrees within its band."""
    rng = random.Random(9)
    kinds = set()
    for e in range(1, 17):
        for _ in range(20):
            n = 2**e if e < 2 or rng.random() < 0.8 else 3 * 2 ** (e - 2)
            g, sch = _random_schedule(rng, n)
            kinds.add((g.n_blocks == n, sch.trailing_global))
            amp_err, p_err = _state_errors(g, sch)
            assert amp_err <= STATE_TOL and p_err <= STATE_TOL, (n, g.n_blocks, sch)
            if sch.trailing_global and g.n_blocks >= 2:
                a = model.outside_amplitude(g, sch.j1, sch.j2)
                p = block_success_probability(schedule_state(g, sch), g)
                assert abs(1.0 - a * a - p) <= _BAND
    assert len(kinds) == 4  # K = N and no trailing global both occurred
    # the band covers both bounds: closed form 8*2**-52, this state STATE_TOL
    assert _BAND >= 8 * 2.0**-52 + STATE_TOL


def test_schedule_state_accuracy_up_to_2_53():
    """Two random schedules and the asymptotic K = 4 schedule per size."""
    rng = random.Random(10)
    for e in range(36, 54):
        n = 2**e
        g4 = make_geometry(n, 4)
        for g, sch in (_random_schedule(rng, n), _random_schedule(rng, n),
                       (g4, asymptotic_schedule(g4))):
            amp_err, p_err = _state_errors(g, sch)
            assert amp_err <= STATE_TOL and p_err <= STATE_TOL, (n, g.n_blocks, sch)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3")
def test_schedule_state_accuracy_beyond_the_search_box():
    """simulate accepts counts up to 2**53, far past the search box; the
    block success should still be within STATE_TOL, the bound _BAND
    assumes.  The float phases lose digits as the counts grow: at
    j1 = j2 = 1.6e13 the error is 2.1e-5."""
    g = make_geometry(1024, 4)
    _, p_err = _state_errors(g, Schedule(16 * 10**12, 16 * 10**12))
    assert p_err <= STATE_TOL


def test_outside_amplitude_matches_schedule_state():
    """2000 random in-box schedules, N = 2 .. 2**40: the closed form and
    sqrt(N-b)*amp_nb of schedule_state agree within the closed form's own
    8*2**-52 bound."""
    rng = random.Random(11)
    for e in range(1, 41):
        for _ in range(50):
            n = 2**e if e < 2 or rng.random() < 0.8 else 3 * 2 ** (e - 2)
            g, sch = _random_schedule(rng, n)
            s = schedule_state(g, Schedule(sch.j1, sch.j2))
            outside = math.sqrt(n - g.block_size) * s.amp_nb
            assert abs(model.outside_amplitude(g, sch.j1, sch.j2) - outside) <= (
                8 * 2.0**-52), (n, g.n_blocks, sch)


@pytest.mark.parametrize("n", [2, 3, 12, 4096, 2**40])
def test_schedule_state_at_single_item_blocks(n):
    """K = N with local steps: the weightless amp_ntt takes the b -> 1 limit
    -2*j2*cos(omega) of sin(omega)/sqrt(b-1), and every amplitude matches
    the 50-digit reflections."""
    g = make_geometry(n, n)
    for sch in (Schedule(0, 1), Schedule(1, 2), Schedule(2, 3, False),
                Schedule(0, 7, False)):
        amp_err, p_err = _state_errors(g, sch)
        assert amp_err <= STATE_TOL and p_err <= STATE_TOL, (n, sch)


def _per_row_coefficients(g, j2):
    """(P, Q) as each j2 row once computed it, every constant included."""
    n, b = g.n_items, g.block_size
    sb, so = math.sqrt(b - 1), math.sqrt(n - b)
    r0, r1, r2 = -2.0 * so / n, 2.0 * sb * so / n, 1.0 - 2.0 * b / n
    c1 = math.sqrt(b - 1) / math.sqrt(n - 1)
    c2 = math.sqrt(n - b) / math.sqrt(n - 1)
    omega = 2.0 * j2 * g.theta2
    cos_w, sin_w = math.cos(omega), math.sin(omega)
    return (r0 * cos_w - r1 * sin_w, c1 * (r0 * sin_w + r1 * cos_w) + r2 * c2)


@pytest.mark.parametrize("n, k", [(1024, 2), (2**30, 2), (64, 64), (3, 3),
                                  (1155, 5), (3 * 2**30, 3), (2**53, 2),
                                  (2**53, 1024), (2**53, 2**53)])
def test_shared_constants_keep_the_per_row_bits(n, k):
    """(P, Q) from the geometry's constants, passed in or not, equal the
    per-row formula bit for bit, and so does schedule_state's c1."""
    g = make_geometry(n, k)
    b = g.block_size
    constants = model._rotation_constants(g)
    assert constants[2] == math.sqrt(b - 1) / math.sqrt(n - 1)
    rng = random.Random(n + k)
    j2_max = math.ceil(math.pi * math.sqrt(b) / 2.0)
    for j2 in [*range(min(j2_max, 64) + 1), j2_max, 0.5, 7.25,
               *(rng.randint(0, j2_max) for _ in range(64))]:
        expected = _per_row_coefficients(g, j2)
        assert model._outside_coefficients(g, j2) == expected, j2
        assert model._outside_coefficients(g, j2, constants) == expected, j2


def test_schedule_state_takes_one_literal_step(monkeypatch):
    """The trailing global is the only iteration applied, at any N."""
    calls = []
    monkeypatch.setattr(model, "apply_local", lambda s, g: calls.append("l"))
    real_global = model.apply_global

    def counting_global(s, g):
        calls.append("g")
        return real_global(s, g)

    monkeypatch.setattr(model, "apply_global", counting_global)
    g = make_geometry(2**53, 4)
    for trailing in (True, False):
        calls.clear()
        model.schedule_state(g, Schedule(29206440, 29206440, trailing))
        assert calls == (["g"] if trailing else [])


@pytest.mark.parametrize("field", ["j1", "j2"])
def test_schedule_state_refuses_counts_above_2_53(field):
    """Counts up to 2**53 are evaluated; larger ones are refused, which
    also keeps 10**400 from overflowing the float phase."""
    g = make_geometry(1024, 4)
    schedule_state(g, Schedule(**{"j1": 0, "j2": 0, field: 2**53}))
    for count in (2**53 + 1, 10**30, 10**400):
        with pytest.raises(PrecisionError):
            schedule_state(g, Schedule(**{"j1": 0, "j2": 0, field: count}))

"""Tests for the reduced 3-class engine."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pgsearch import (
    DegenerateError,
    NonDivisibleError,
    PrecisionError,
    Schedule,
    TooSmallError,
    apply_global,
    apply_local,
    block_success_probability,
    eigensystem,
    from_class_vector,
    global_matrix,
    item_success_probability,
    local_matrix,
    make_geometry,
    norm_squared,
    run_schedule,
    to_class_vector,
    uniform_state,
)
import pgsearch.model as model


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
    np.testing.assert_array_equal(local_matrix(g), np.diag([-1.0, -1.0, 1.0]))


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

@pytest.mark.parametrize("n, k", [(4, 2), (64, 4), (1024, 4), (4096, 16)])
def test_matrices_are_orthogonal(n, k):
    g = make_geometry(n, k)
    for m in (global_matrix(g), local_matrix(g)):
        np.testing.assert_allclose(m.T @ m, np.eye(3), atol=1e-12)


def test_matrix_route_matches_applies():
    for n, k in ((1024, 4), (64, 64)):  # K = N: single-item blocks
        g = make_geometry(n, k)
        v = to_class_vector(uniform_state(g), g)
        s = uniform_state(g)
        gm, lm = global_matrix(g), local_matrix(g)
        for _ in range(7):
            v = gm @ v
            s = apply_global(s, g)
        for _ in range(9):
            v = lm @ v
            s = apply_local(s, g)
        np.testing.assert_allclose(v, to_class_vector(s, g), atol=1e-12)


def test_class_vector_round_trip():
    g = make_geometry(1024, 4)
    s = run_schedule(g, Schedule(4, 9, True))
    back = from_class_vector(to_class_vector(s, g), g)
    assert back.amp_target == pytest.approx(s.amp_target, abs=1e-15)
    assert back.amp_ntt == pytest.approx(s.amp_ntt, abs=1e-15)
    assert back.amp_nb == pytest.approx(s.amp_nb, abs=1e-15)


# ------------------------------------------------------------- eigensystem

@pytest.mark.parametrize("n, k", [(4, 2), (64, 4), (1024, 4), (4096, 16), (30, 5)])
@pytest.mark.parametrize("which", ["global", "local"])
def test_eigen_residual(n, k, which):
    g = make_geometry(n, k)
    m = global_matrix(g) if which == "global" else local_matrix(g)
    for pair in eigensystem(g, which):
        vec = np.array(pair.eigenvector)
        assert abs(abs(pair.eigenvalue) - 1.0) <= 1e-12
        assert abs(np.linalg.norm(vec) - 1.0) <= 1e-12
        assert np.linalg.norm(m @ vec - pair.eigenvalue * vec) <= 1e-12


def test_eigenvalues_n4_global():
    pairs = eigensystem(make_geometry(4, 2), "global")
    values = sorted((p.eigenvalue for p in pairs), key=lambda z: z.imag)
    assert values[1] == pytest.approx(np.exp(1j * math.pi / 3), abs=1e-15)
    assert values[0] == pytest.approx(np.exp(-1j * math.pi / 3), abs=1e-15)
    assert values[0] * values[1] == pytest.approx(1.0, abs=1e-15)


def test_eigenvalues_local_1024_4():
    pairs = eigensystem(make_geometry(1024, 4), "local")
    got = sorted((p.eigenvalue for p in pairs), key=lambda z: z.imag)
    expected = np.exp(2j * math.asin(1 / 16))
    assert got[0] == pytest.approx(expected.conjugate(), abs=1e-15)
    assert got[1] == pytest.approx(expected, abs=1e-15)


def test_eigensystem_degenerate_and_unknown():
    g = make_geometry(8, 8)
    with pytest.raises(DegenerateError):
        eigensystem(g, "local")
    with pytest.raises(ValueError):
        eigensystem(g, "sideways")


def test_eigen_route_reproduces_iteration():
    """Spectral evolution (eigenpairs plus the leftover eigendirection)
    must agree with repeated application of the map itself."""
    g = make_geometry(1024, 4)
    j = 13

    pairs = eigensystem(g, "global")
    w_ntt = math.sqrt((g.block_size - 1) / (g.n_items - 1))
    w_nb = math.sqrt((g.n_items - g.block_size) / (g.n_items - 1))
    # the complement of the rotation plane picks up a sign each iteration
    u = np.array([0.0, w_nb, -w_ntt], dtype=complex)

    v0 = to_class_vector(uniform_state(g), g).astype(complex)
    vj = ((-1.0) ** j) * np.vdot(u, v0) * u
    for pair in pairs:
        vec = np.array(pair.eigenvector)
        vj = vj + np.vdot(vec, v0) * pair.eigenvalue**j * vec

    s = uniform_state(g)
    for _ in range(j):
        s = apply_global(s, g)
    np.testing.assert_allclose(vj.real, to_class_vector(s, g), atol=1e-12)
    np.testing.assert_allclose(vj.imag, 0.0, atol=1e-12)

    pairs = eigensystem(g, "local")
    u = np.array([0.0, 0.0, 1.0], dtype=complex)  # outside class, fixed
    vj = np.vdot(u, v0) * u
    for pair in pairs:
        vec = np.array(pair.eigenvector)
        vj = vj + np.vdot(vec, v0) * pair.eigenvalue**j * vec
    s = uniform_state(g)
    for _ in range(j):
        s = apply_local(s, g)
    np.testing.assert_allclose(vj.real, to_class_vector(s, g), atol=1e-12)

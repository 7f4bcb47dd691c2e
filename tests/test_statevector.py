"""Full-array simulator tests, including the cross-check against the
reduced engine and the on-disk snapshot format."""

import struct
import tracemalloc

import numpy as np
import pytest

from pgsearch import (
    BadIndexError,
    BadStateFileError,
    CapExceededError,
    FullState,
    Schedule,
    apply_global,
    apply_local,
    make_geometry,
    measure_block_distribution,
    run_schedule,
    save_state,
    load_state,
    sv_reduce,
    sv_run_schedule,
    sv_uniform,
    uniform_state,
)


def test_sv_uniform_small():
    st = sv_uniform(make_geometry(4, 2), 0)
    np.testing.assert_array_equal(st.amplitudes, [0.5, 0.5, 0.5, 0.5])
    assert st.target_index == 0


def test_sv_uniform_cap_and_target_checks():
    g = make_geometry(2**25, 2)
    with pytest.raises(CapExceededError):
        sv_uniform(g, 0)
    small = make_geometry(4, 2)
    with pytest.raises(BadIndexError):
        sv_uniform(small, 4)
    with pytest.raises(BadIndexError):
        sv_uniform(small, -1)
    # the cap is adjustable
    st = sv_uniform(g, 0, cap=2**25)
    assert st.amplitudes.shape == (2**25,)


def test_global_diffusion_hand_case():
    st = sv_run_schedule(make_geometry(4, 2), 0, Schedule(1, 0, False))
    np.testing.assert_allclose(st.amplitudes, [1.0, 0.0, 0.0, 0.0], atol=1e-15)


def test_local_diffusion_hand_case():
    st = sv_run_schedule(make_geometry(4, 2), 0, Schedule(0, 1, False))
    # the oracle zeroes block 0's mean, so its entries flip; block 1 is
    # block-uniform and stays put
    np.testing.assert_allclose(st.amplitudes, [0.5, -0.5, 0.5, 0.5], atol=1e-15)


@pytest.mark.parametrize("n, k, target", [(64, 4, 0), (64, 4, 17), (256, 2, 255)])
def test_single_iterations_match_reduced_engine(n, k, target):
    g = make_geometry(n, k)
    for schedule, step in ((Schedule(1, 0, False), apply_global),
                           (Schedule(0, 1, False), apply_local)):
        reduced, residual = sv_reduce(sv_run_schedule(g, target, schedule))
        expect = step(uniform_state(g), g)
        assert residual <= 1e-13
        assert reduced.amp_target == pytest.approx(expect.amp_target, abs=1e-13)
        assert reduced.amp_ntt == pytest.approx(expect.amp_ntt, abs=1e-13)
        assert reduced.amp_nb == pytest.approx(expect.amp_nb, abs=1e-13)


def _reference_run(g, target, schedule):
    """Literal copy-per-step schedule: a fresh array for every oracle flip
    and every reflection, the block means taken by numpy's pairwise mean."""
    a = np.full(g.n_items, 1.0 / np.sqrt(g.n_items))
    widths = ([g.n_items] * schedule.j1 + [g.block_size] * schedule.j2
              + [g.n_items] * schedule.trailing_global)
    for width in widths:
        a = a.copy()
        a[target] = -a[target]
        blocks = a.reshape(-1, width)
        a = (2.0 * blocks.mean(axis=1, keepdims=True) - blocks).reshape(-1)
    return a


@pytest.mark.parametrize(
    "n, k, target, sch",
    [
        (64, 1, 5, Schedule(3, 0, True)),
        (64, 64, 63, Schedule(2, 5, True)),
        (1155, 5, 700, Schedule(10, 4, True)),
        (1155, 3, 1154, Schedule(9, 9, False)),
        (1024, 4, 300, Schedule(13, 5, True)),
        (4096, 16, 0, Schedule(12, 3, True)),
    ],
)
def test_run_schedule_bit_identical_to_copy_per_step_reference(n, k, target, sch):
    g = make_geometry(n, k)
    got = sv_run_schedule(g, target, sch).amplitudes
    assert np.array_equal(got, _reference_run(g, target, sch))


def test_sv_run_schedule_n4_single_global():
    st = sv_run_schedule(make_geometry(4, 2), 0, Schedule(0, 0, True))
    np.testing.assert_allclose(st.amplitudes, [1.0, 0.0, 0.0, 0.0], atol=1e-15)


def _class_weighted(s, g):
    """Each class amplitude times the square root of the class size."""
    return np.sqrt([1, g.block_size - 1, g.n_items - g.block_size]) * (
        s.amp_target, s.amp_ntt, s.amp_nb)


@pytest.mark.parametrize(
    "n, k, sch, target",
    [
        (64, 4, Schedule(3, 1, True), 5),
        (256, 4, Schedule(7, 4, False), 100),
        (1024, 2, Schedule(0, 18, True), 700),
        (4096, 16, Schedule(12, 3, True), 4095),
        # an odd local count in single-item blocks (K = N) leaves the target
        # sign flipped: a local step there is the oracle flip alone; b = 2
        # is the smallest block with a rest class
        (16, 16, Schedule(1, 1), 3),
        (64, 64, Schedule(2, 5), 3),
        (64, 32, Schedule(1, 3), 3),
    ],
)
def test_full_run_matches_reduced_run(n, k, sch, target):
    g = make_geometry(n, k)
    st = sv_run_schedule(g, target, sch)
    reduced, residual = sv_reduce(st)
    expect = run_schedule(g, sch)
    assert residual <= 1e-12
    got = _class_weighted(reduced, g)
    want = _class_weighted(expect, g)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_block_distribution_uniform():
    st = sv_uniform(make_geometry(64, 4), 0)
    np.testing.assert_allclose(measure_block_distribution(st), [0.25] * 4, atol=1e-15)


def test_block_distribution_concentrated():
    g = make_geometry(4, 2)
    st = FullState(np.array([0.0, 0.0, 1.0, 0.0]), 2, g)
    np.testing.assert_allclose(measure_block_distribution(st), [0.0, 1.0], atol=1e-15)


def test_block_distribution_sums_to_one_after_run():
    st = sv_run_schedule(make_geometry(256, 8), 77, Schedule(6, 2, True))
    dist = measure_block_distribution(st)
    assert dist.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n, k", [(2, 2), (1024, 2), (1155, 5), (1155, 1155),
                                  (2**17, 8), (2**20, 1024), (2**20, 2**20)])
def test_block_distribution_bit_equals_whole_array_square(n, k):
    st = sv_run_schedule(make_geometry(n, k), n // 3, Schedule(3, 5, True))
    blocks = st.amplitudes.reshape(k, n // k)
    expected = (blocks * blocks).sum(axis=1)
    assert measure_block_distribution(st).tobytes() == expected.tobytes()


def test_block_distribution_squares_in_small_chunks():
    st = sv_run_schedule(make_geometry(2**22, 128), 12345, Schedule(1, 1, True))
    tracemalloc.start()
    try:
        measure_block_distribution(st)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20  # the whole-array square took 32 MiB


def test_optimal_schedule_concentrates_target_block():
    from pgsearch import optimal_exact_schedule

    g = make_geometry(1024, 4)
    sch = optimal_exact_schedule(g, 0.9999)
    st = sv_run_schedule(g, 300, sch)  # target in block 1
    dist = measure_block_distribution(st)
    assert dist[1] >= 0.9999
    assert int(np.argmax(dist)) == 1


def test_target_position_only_permutes_blocks():
    # success must not depend on where inside the block the target sits
    g = make_geometry(64, 4)
    sch = Schedule(3, 1, True)
    dists = [
        measure_block_distribution(sv_run_schedule(g, target, sch))
        for target in range(64)
    ]
    base = np.sort(dists[0])
    for target, dist in enumerate(dists):
        assert int(np.argmax(dist)) == target // 16
        np.testing.assert_allclose(np.sort(dist), base, atol=1e-12)


def test_norm_drift_stays_tiny_over_many_iterations():
    st = sv_run_schedule(make_geometry(256, 4), 9, Schedule(5000, 5000, True))
    norm = float(np.linalg.norm(st.amplitudes))
    assert abs(norm - 1.0) <= 1e-9


def test_sv_reduce_residual_detects_perturbation():
    g = make_geometry(64, 4)
    st = sv_uniform(g, 0)
    reduced, residual = sv_reduce(st)
    assert residual == 0.0
    # nudge one non-representative entry out of its class
    amps = st.amplitudes.copy()
    amps[1] += 1e-3
    reduced, residual = sv_reduce(FullState(amps, 0, g))
    assert residual >= 1e-3


def _reference_reduce(state):
    """sv_reduce written with np.delete copies of each class."""
    b, amps, t = state.geometry.block_size, state.amplitudes, state.target_index
    start = (t // b) * b
    inside = np.delete(amps[start : start + b], t - start)
    outside = np.delete(amps, np.s_[start : start + b])
    reps = [float(c[0]) if c.size else 0.0 for c in (inside, outside)]
    residual = max([float(np.abs(c - r).max()) for c, r in zip((inside, outside), reps)
                    if c.size], default=0.0)
    return reps, residual


@pytest.mark.parametrize(
    "n, k, target",
    [(64, 4, 0), (64, 4, 17), (64, 4, 63), (64, 1, 30), (64, 64, 40), (1155, 5, 693)],
)
def test_sv_reduce_matches_delete_reference(n, k, target):
    g = make_geometry(n, k)
    amps = sv_run_schedule(g, target, Schedule(2, 1, True)).amplitudes
    amps += np.random.default_rng(n + target).normal(scale=1e-6, size=n)
    state = FullState(amps, target, g)
    reduced, residual = sv_reduce(state)
    reps, want = _reference_reduce(state)
    assert reduced.amp_target == amps[target]
    assert [reduced.amp_ntt, reduced.amp_nb] == reps
    assert residual == want


def test_snapshot_round_trip(tmp_path):
    path = tmp_path / "state.pgsv"
    st = sv_run_schedule(make_geometry(64, 4), 21, Schedule(3, 1, True))
    save_state(st, path)
    assert path.stat().st_size == 32 + 8 * 64
    back = load_state(path)
    assert back.geometry.n_items == 64
    assert back.geometry.n_blocks == 4
    assert back.target_index == 21
    np.testing.assert_array_equal(back.amplitudes, st.amplitudes)


def test_snapshot_header_layout(tmp_path):
    path = tmp_path / "state.pgsv"
    save_state(sv_uniform(make_geometry(4, 2), 3), path)
    raw = path.read_bytes()
    magic, version, n, k = struct.unpack("<4sIQQ", raw[:24])
    (target,) = struct.unpack("<Q", raw[24:32])
    assert magic == b"PGSV"
    assert version == 1
    assert (n, k, target) == (4, 2, 3)
    amps = np.frombuffer(raw[32:], dtype="<f8")
    np.testing.assert_array_equal(amps, [0.5, 0.5, 0.5, 0.5])


def test_snapshot_rejects_garbage(tmp_path):
    path = tmp_path / "bad.pgsv"
    path.write_bytes(b"NOPE" + b"\x00" * 60)
    with pytest.raises(ValueError):
        load_state(path)
    good = tmp_path / "good.pgsv"
    save_state(sv_uniform(make_geometry(4, 2), 0), good)
    raw = bytearray(good.read_bytes())
    raw[4:8] = struct.pack("<I", 99)  # unsupported version
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError):
        load_state(path)


@pytest.mark.parametrize(
    "corrupt, error",
    [
        pytest.param(lambda raw: raw[:-80], BadStateFileError, id="truncated"),
        pytest.param(lambda raw: raw[:10], BadStateFileError, id="short-header"),
        pytest.param(lambda raw: raw + bytes(8), BadStateFileError, id="trailing-bytes"),
        pytest.param(lambda raw: raw[:24] + struct.pack("<Q", 999) + raw[32:],
                     BadIndexError, id="target-out-of-range"),
        # n_items forged to 2**53: rejected by the size check, before any read
        pytest.param(lambda raw: raw[:8] + struct.pack("<Q", 2**53) + raw[16:],
                     BadStateFileError, id="forged-size"),
    ],
)
def test_snapshot_rejects_corrupt_files(tmp_path, corrupt, error):
    good = tmp_path / "good.pgsv"
    save_state(sv_uniform(make_geometry(64, 4), 21), good)
    path = tmp_path / "bad.pgsv"
    path.write_bytes(corrupt(good.read_bytes()))
    with pytest.raises(error):
        load_state(path)

"""Full-array simulator tests, including the cross-check against the
reduced engine and the on-disk snapshot format."""

import math
import os
import random
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies

from pgsearch import (
    AMPLITUDE_QUERY_CAP,
    BadIndexError,
    BadStateFileError,
    CapExceededError,
    FullState,
    PartialSearchError,
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
from pgsearch import statevector
from pgsearch.statevector import _TILE, _tree

from test_model import _mp_final_state, _random_schedule


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


_REFERENCE_CASES = [
    (64, 1, 5, Schedule(3, 0, True)),
    (64, 64, 63, Schedule(2, 5, True)),
    (1155, 5, 700, Schedule(10, 4, True)),
    (1155, 3, 1154, Schedule(9, 9, False)),
    (1024, 4, 300, Schedule(13, 5, True)),
    (4096, 16, 0, Schedule(12, 3, True)),
    # N above the tile with b below it, at it and above it
    (2**18, 8, 70000, Schedule(3, 4, True)),
    (2**17, 2, 2**16, Schedule(2, 5, True)),
    (2**18, 2, 100, Schedule(4, 3, True)),
    # non-power-of-two N: tiles of whole rows that do not fill 2**16
    # (b = 12500) and rows cut into uneven leaves (b = 65537, 200003)
    (200000, 16, 199999, Schedule(3, 6, True)),
    (3 * 65537, 3, 131074, Schedule(2, 4, False)),
    (200003, 1, 123456, Schedule(5, 0, True)),
    # the target in the last tile, and phases of zero queries
    (2**18, 2**6, 2**18 - 1, Schedule(0, 7, True)),
    (2**18, 2, 2**18 - 1, Schedule(0, 3, False)),
    (2**17, 4, 5, Schedule(4, 0, False)),
    (2**17, 4, 5, Schedule(0, 0, False)),
    # rows narrower than numpy's 8-item unrolled sum: K = N, N/2 and N/4,
    # then b = 3, 5, 6, 7 on tiles they do not fill, the target at a
    # different place in its row each time
    (2**17, 2**17, 70001, Schedule(2, 3, True)),
    (2**17, 2**16, 2**17 - 1, Schedule(1, 4, True)),
    (2**17, 2**15, 65538, Schedule(2, 3, False)),
    (3 * 30000, 30000, 75001, Schedule(2, 3, True)),
    (5 * 20000, 20000, 75003, Schedule(1, 4, False)),
    (6 * 20000, 20000, 72000, Schedule(0, 5, True)),
    (7 * 20000, 20000, 139999, Schedule(1, 5, True)),
]


@pytest.mark.parametrize("n, k, target, sch", _REFERENCE_CASES)
def test_run_schedule_bit_identical_to_copy_per_step_reference(n, k, target, sch):
    g = make_geometry(n, k)
    got = sv_run_schedule(g, target, sch).amplitudes
    assert got.tobytes() == _reference_run(g, target, sch).tobytes()


def _check_random_geometry(k, b, data, j1, j2, trailing):
    assume(k * b >= 2)
    g = make_geometry(k * b, k)
    target = data.draw(strategies.integers(0, g.n_items - 1))
    sch = Schedule(j1, j2, trailing)
    got = sv_run_schedule(g, target, sch).amplitudes
    assert got.tobytes() == _reference_run(g, target, sch).tobytes()


_GEOMETRIES = dict(k=strategies.integers(1, 6), b=strategies.integers(1, 3 * _TILE),
                   data=strategies.data(), j1=strategies.integers(0, 3),
                   j2=strategies.integers(0, 3), trailing=strategies.booleans())


@settings(max_examples=25, deadline=None)
@given(**_GEOMETRIES)
def test_run_schedule_bit_identical_on_random_geometries(k, b, data, j1, j2, trailing):
    _check_random_geometry(k, b, data, j1, j2, trailing)


# ------------------------------------------------- work split across threads

@pytest.mark.parametrize("workers", [1, 3])
def test_reference_cases_bit_identical_for_any_worker_count(workers, monkeypatch):
    """One worker runs every share on the calling thread; three split a
    2-CPU host's work unevenly.  Neither may change a bit."""
    monkeypatch.setattr(statevector, "_WORKERS", workers)
    for case in _REFERENCE_CASES:
        test_run_schedule_bit_identical_to_copy_per_step_reference(*case)


@pytest.mark.parametrize("workers", [1, 3])
@settings(max_examples=25, deadline=None)
@given(**_GEOMETRIES)
def test_random_geometries_bit_identical_for_any_worker_count(workers, k, b, data,
                                                              j1, j2, trailing):
    with mock.patch.object(statevector, "_WORKERS", workers):
        _check_random_geometry(k, b, data, j1, j2, trailing)


@pytest.mark.parametrize("count", [1, 2, 3])
@pytest.mark.parametrize("width", range(2, 8))
def test_narrow_rows_reflect_to_the_broadcast_bits(width, count):
    """A tile of narrow rows, which takes all its queries at once, gives
    the bits of one broadcast reflection of the whole tile per query."""
    rng = np.random.default_rng(10 * width + count)
    size = _TILE - _TILE % width
    run = rng.normal(size=size) * 10.0 ** rng.integers(-6, 7, size=size)
    run[::13] = -0.0
    target = size // 2 + 1
    want = run.copy()
    rows = want.reshape(-1, width)
    for _ in range(count):
        want[target] = -want[target]
        m = np.add.reduce(rows, axis=1, keepdims=True)
        m /= width
        m *= 2.0
        np.subtract(m, rows, out=rows)
    statevector._rows(run, target, width, count)
    assert run.tobytes() == want.tobytes()


@pytest.mark.parametrize("width", range(1, 10))
def test_one_query_on_random_rows_matches_the_literal_reflection(width):
    """Random amplitudes tell summation orders apart where the engine's
    near-uniform states may not."""
    rng = np.random.default_rng(100 + width)
    amps = rng.normal(size=width * 20000) * 10.0 ** rng.integers(-6, 7, size=width * 20000)
    amps[::11] = -0.0
    target = width * 15000 + width // 2
    want = amps.copy()
    want[target] = -want[target]
    blocks = want.reshape(-1, width)
    want = (2.0 * blocks.mean(axis=1, keepdims=True) - blocks).reshape(-1)
    statevector._phase(amps, target, width, 1)
    assert amps.tobytes() == want.tobytes()


def test_concurrent_callers_get_the_same_bits():
    """Two threads run the engine at once and offer their items to the
    same pool."""
    g, sch = make_geometry(2**18, 4), Schedule(3, 3, True)
    want = _reference_run(g, 1000, sch)
    got = [None, None]

    def run(i):
        got[i] = sv_run_schedule(g, 1000, sch).amplitudes

    threads = [threading.Thread(target=run, args=(i,), daemon=True) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads), "a caller hung"
    assert all(a.tobytes() == want.tobytes() for a in got)


def test_an_error_reaches_the_caller_after_every_item_ran(monkeypatch):
    monkeypatch.setattr(statevector, "_WORKERS", 2)
    ran = []

    def job(i):
        ran.append(i)
        if i == 3:
            raise ValueError("item 3")
        return i

    with pytest.raises(ValueError, match="item 3"):
        statevector._each(job, 8)
    assert sorted(ran) == list(range(8))
    assert statevector._each(lambda i: i * i, 8) == [i * i for i in range(8)]


def test_workers_keep_no_reference_to_a_finished_state(monkeypatch):
    """A worker that held its last job would keep that state alive while
    the next one is allocated (32 MiB more peak RSS at N = 2**22)."""
    monkeypatch.setattr(statevector, "_WORKERS", 2)
    # k = 2: whole wide rows as items; k = 4: one-tile rows.  Each global
    # phase shares its leaves out over the threads.
    for k in (2, 4):
        st = sv_run_schedule(make_geometry(2**18, k), 9, Schedule(2, 2, True))
        assert statevector._threads
        ref = weakref.ref(st.amplitudes)
        del st
        assert ref() is None, k


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_runs_after_a_threaded_run(monkeypatch):
    """A forked child has none of the pool's threads; the engine must start
    its own instead of counting on the parent's."""
    monkeypatch.setattr(statevector, "_WORKERS", 2)
    g, sch = make_geometry(2**19, 4), Schedule(2, 2, True)
    want = sv_run_schedule(g, 77, sch).amplitudes
    assert statevector._threads
    pid = os.fork()
    if pid == 0:  # the child: report by exit code only
        code = 1
        try:
            same = np.array_equal(sv_run_schedule(g, 77, sch).amplitudes, want)
            started = threading.active_count() == 1 + statevector._threads
            code = 0 if same and started else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0:
        if time.monotonic() > deadline:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("the forked child hung")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(done[1]) == 0


def test_small_states_start_no_thread():
    """A state of one tile stays on the calling thread, and so does a
    global phase of two leaves: no pool thread is started and nothing from
    concurrent.futures is imported, on two CPUs as on one."""
    script = (
        "import sys, threading\n"
        "from pgsearch import make_geometry, Schedule\n"
        "import pgsearch.statevector as sv\n"
        "sv._WORKERS = 2\n"
        "sv.sv_run_schedule(make_geometry(4096, 2), 5, Schedule(20, 10, True))\n"
        "sv.sv_run_schedule(make_geometry(2**16, 2**15), 5, Schedule(2, 2, True))\n"
        "sv.sv_run_schedule(make_geometry(2**17, 2**17), 5, Schedule(3, 0, True))\n"
        "print(threading.active_count(), sv._threads, 'concurrent.futures' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "0", "False"]


def test_numpy_sums_split_at_the_pairwise_tree_nodes():
    """The facts the tiled engine rests on.  A contiguous float64 sum of
    more than 128 items is the sum of its halves cut at
    n//2 - (n//2) % 8, so the leaf sums of ``_tree``'s leaves, added up
    by ``_tree``, agree bit-for-bit with numpy's whole sum.  And each row of a 2-D array sums
    as that row alone, whatever the row count.  A numpy that changes
    either would change the engine's output bytes."""
    rng = np.random.default_rng(5)
    a = rng.normal(size=2**20 + 9)
    lengths = [*range(1, 300), *(2**e + d for e in range(8, 21) for d in (-1, 0, 1)),
               *rng.integers(129, 3 * 10**5, size=150).tolist(),
               *rng.integers(_TILE, 2**20, size=30).tolist()]
    for n in lengths:
        whole = np.add.reduce(a[:n])
        if n > 128:
            half = n // 2 - (n // 2) % 8
            assert whole == np.add.reduce(a[:half]) + np.add.reduce(a[half:n]), n
        leaf_sums = (np.add.reduce(a[lo:hi]) for lo, hi in _tree(n, lambda lo, hi: [(lo, hi)]))
        assert _tree(n, lambda lo, hi: next(leaf_sums)) == whole, n
    for rows, width in [(1, 7), (3, 129), (64, 1000), (9, _TILE), (5, _TILE + 8),
                        (2, 3 * 10**5), (1, 2**20)]:
        x = a[: rows * width].reshape(rows, width)
        by_row = [np.add.reduce(row) for row in x]
        for r in range(1, rows + 1):
            assert np.add.reduce(x[:r], axis=1).tolist() == by_row[:r], (r, width)


def test_full_run_matches_50_digit_reflections():
    """144 random schedules, N <= 2**12, K = 1..N: every class amplitude of
    the full engine lies within 2*(queries+1)*2**-52 of the 50-digit
    reflections (the largest seen is a fifth of that), and the coherence
    residual stays at roundoff (it reads 0 here: the members of a class go
    through the same float operations)."""
    rng = random.Random(12)
    for e in range(1, 13):
        for _ in range(12):
            n = 2**e if e < 2 or rng.random() < 0.8 else 3 * 2 ** (e - 2)
            g, sch = _random_schedule(rng, n)
            reduced, residual = sv_reduce(sv_run_schedule(g, rng.randrange(n), sch))
            exact, _ = _mp_final_state(n, g.n_blocks, sch)
            bound = 2 * (sch.queries + 1) * 2.0**-52
            # an empty class (b = 1 or K = 1) reads 0 in sv_reduce
            sizes = (1, g.block_size - 1, n - g.block_size)
            got = (reduced.amp_target, reduced.amp_ntt, reduced.amp_nb)
            for size, want, amp in zip(sizes, exact, got):
                if size:
                    assert abs(float(want - amp)) <= bound, (n, g.n_blocks, sch)
            assert residual <= (sch.queries + 1) * 2.0**-52


def test_work_cap_covers_the_exact_search_box():
    """The largest schedule the exact search can return at the default
    state cap, K = 2 at N = 2**24, fits under the work cap."""
    n = 2**24
    for k in (2, 4, 64, n):
        j1 = math.ceil(math.pi * math.sqrt(n) / 4.0)
        j2 = math.ceil(math.pi * math.sqrt(n // k) / 2.0)
        assert n * (j1 + j2 + 1) <= AMPLITUDE_QUERY_CAP
    g = make_geometry(16, 4)
    with pytest.raises(CapExceededError, match="amplitude-queries"):
        sv_run_schedule(g, 0, Schedule(AMPLITUDE_QUERY_CAP // 16, 0, True))


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
        pytest.param(lambda raw: raw[:32] + struct.pack("<d", math.nan) * 64,
                     BadStateFileError, id="nan-payload"),
        # finite, but its square overflows
        pytest.param(lambda raw: raw[:-8] + struct.pack("<d", 1e200),
                     BadStateFileError, id="overflowing-payload"),
    ],
)
def test_snapshot_rejects_corrupt_files(tmp_path, corrupt, error):
    good = tmp_path / "good.pgsv"
    save_state(sv_uniform(make_geometry(64, 4), 21), good)
    path = tmp_path / "bad.pgsv"
    path.write_bytes(corrupt(good.read_bytes()))
    with pytest.raises(error):
        load_state(path)


@strategies.composite
def _pgsv_bytes(draw):
    """Random bytes, or a valid PGSV file of N <= 32 with one amplitude
    replaced by any float, some bytes overwritten, and maybe its end cut
    or extended."""
    if draw(strategies.booleans()):
        return draw(strategies.binary(max_size=300))
    n = 2 ** draw(strategies.integers(1, 5))
    k = draw(strategies.sampled_from([k for k in range(1, n + 1) if n % k == 0]))
    target = draw(strategies.integers(0, n - 1))
    raw = bytearray(statevector._PREFIX.pack(b"PGSV", 1, n, k, target)
                    + np.full(n, n ** -0.5, dtype="<f8").tobytes())
    at = 32 + 8 * draw(strategies.integers(0, n - 1))
    raw[at : at + 8] = struct.pack("<d", draw(strategies.floats()))
    for pos, value in draw(strategies.lists(strategies.tuples(
            strategies.integers(0, len(raw) - 1), strategies.integers(0, 255)), max_size=4)):
        raw[pos] = value
    end = len(raw) + draw(strategies.one_of(strategies.just(0), strategies.integers(-9, 9)))
    return bytes(raw[:end]) + bytes(max(0, end - len(raw)))


@settings(max_examples=300, deadline=None)
@given(raw=_pgsv_bytes())
def test_load_state_loads_or_refuses_any_bytes(tmp_path_factory, raw):
    path = tmp_path_factory.getbasetemp() / "fuzz.pgsv"
    path.write_bytes(raw)
    try:
        state = load_state(path)
    except PartialSearchError:
        return
    assert isinstance(state, FullState)
    assert state.amplitudes.shape == (state.geometry.n_items,)
    assert np.isfinite(state.amplitudes).all()

"""List reports made by forked workers: the same bytes as one process, and
no process left behind.

``compare`` and multi-K ``optimize`` make their chunks of 4096 rows on every
CPU of the process's affinity (``cli._pieces``).  Here the affinity is
faked to force one, two or three workers in this process.  Nothing here
imports numpy or hypothesis, so this module also runs where only pytest is,
on the Python versions whose ``os.fork`` warns in a threaded process."""

import functools
import operator
import os
import signal
import sys
import threading
import time

import pytest

import pgsearch.cli as cli

from test_pins import _assert_same_report

CHUNK = cli._CHUNK

#: Specs of 1, 4096, 4097 and 3 * 4096 + 1 rows.  In each list report of
#: more than one chunk, compare's K = 4 note row and optimize's ``inf`` row
#: open chunk 1, which the first worker makes.
SPECS = {
    "compare": ["4", f"5..{CHUNK + 4}",
                f"5..{CHUNK + 4},4", f"5..{CHUNK + 4},4,{CHUNK + 5}..{3 * CHUNK + 4}"],
    "optimize": ["inf", f"2..{CHUNK},inf",
                 f"2..{CHUNK + 1},inf", f"2..{CHUNK + 1},inf,{CHUNK + 2}..{3 * CHUNK + 1}"],
}


def chunked(rows) -> list:
    """``rows`` as the makers ``cli._table`` takes: one per ``CHUNK`` rows,
    and at least one."""
    rows = list(rows)
    return [functools.partial(operator.getitem, rows, slice(i, i + CHUNK))
            for i in range(0, len(rows) or 1, CHUNK)]


@pytest.fixture
def single_threaded():
    """Other Python threads keep a report from forking: wait for those that
    end (an earlier test's timers).  Threads that never end, such as the
    full engine's phase pool started by an earlier test in this session,
    leave nothing to check here, so the test is skipped."""
    for thread in threading.enumerate():
        if thread is not threading.current_thread() and not thread.daemon:
            thread.join(10)
    if threading.active_count() > 1:
        pytest.skip(f"threads left running: {threading.enumerate()}")


@pytest.fixture
def forks(single_threaded, monkeypatch):
    """The pids of the workers forked in this test, in this process."""
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def _cpus(monkeypatch, count: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def _report(argv, capsys) -> tuple[int, str, str]:
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def _no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _one_worker(argv, capsys, monkeypatch) -> str:
    with monkeypatch.context() as patch:
        _cpus(patch, 1)
        code, out, err = _report(argv, capsys)
    assert (code, err) == (0, "")
    return out


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("command, spec", [
    (command, spec) for command, specs in SPECS.items() for spec in specs])
def test_workers_write_the_one_worker_bytes(command, spec, fmt, workers, forks,
                                            capsys, monkeypatch):
    argv = [command, "--k", spec, "--format", fmt]
    expected = _one_worker(argv, capsys, monkeypatch)
    assert forks == []
    _cpus(monkeypatch, workers)
    code, out, err = _report(argv, capsys)
    assert (code, err) == (0, "")
    _assert_same_report(out, expected)
    chunks = -(-len(cli.parse_k_spec(spec)) // CHUNK)
    assert len(forks) == (min(workers, chunks) - 1 if chunks > 1 else 0)
    _no_child_left()


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_table_cuts_no_differently_from_one_chunk(fmt):
    """``_table`` gives the same bytes however the rows are cut into chunks,
    the header travelling with the first."""
    header = ["K", "alpha", "note"]
    rows = [(k, k / 7, "a" * (k % 11)) for k in range(2 * CHUNK + 3)]
    rows[CHUNK + 1] = ("inf", 0.5, "the longest cell of all")
    whole = "".join(cli._table(fmt, header, [lambda: rows]))
    _assert_same_report("".join(cli._table(fmt, header, chunked(rows))), whole)


def test_no_worker_outlives_a_report(forks, capsys, monkeypatch):
    _cpus(monkeypatch, 3)
    code, out, _ = _report(["compare", "--k", "2..20000", "--format", "csv"], capsys)
    assert (code, len(forks), len(out.splitlines())) == (0, 2, 1 + 19999)
    _no_child_left()


def _in_workers(monkeypatch, act) -> None:
    """Run ``act(lo)`` before each compare table that a worker makes."""
    parent, table = os.getpid(), cli.comparison_table

    def patched(lo, hi):
        if os.getpid() != parent:
            act(lo)
        return table(lo, hi)

    monkeypatch.setattr(cli, "comparison_table", patched)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("fmt, spec", [("text", "2..20000"), ("csv", "2..1000000"),
                                       ("json", "2..1000000")])
def test_a_failed_write_leaves_no_worker(fmt, spec, forks, capsys, monkeypatch):
    """The first write fails; a worker still making its chunk is killed,
    not waited for.  (Text writes only after its workers' chunks.)"""
    _cpus(monkeypatch, 2)
    if fmt != "text":
        _in_workers(monkeypatch, lambda lo: time.sleep(5))
    start = time.perf_counter()
    code, out, err = _report(["compare", "--k", spec, "--format", fmt,
                              "--output", "/dev/full"], capsys)
    assert time.perf_counter() - start < 1.0
    assert (code, out, len(forks)) == (2, "", 1) and err.startswith("error:")
    _no_child_left()


class _Interrupted:
    """A stdout that takes one piece of a report, then is interrupted."""

    def writelines(self, pieces):
        next(iter(pieces))
        raise KeyboardInterrupt


def test_an_interrupted_report_leaves_no_worker(forks, monkeypatch):
    """An exception that ``main`` does not handle still stops the workers,
    while its traceback keeps ``main``'s frame, and the report, alive."""
    _cpus(monkeypatch, 3)
    monkeypatch.setattr(sys, "stdout", _Interrupted())
    with pytest.raises(KeyboardInterrupt) as interrupted:
        cli.main(["compare", "--k", "2..100000", "--format", "csv"])
    assert len(forks) == 2 and interrupted.tb is not None
    _no_child_left()


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_a_killed_worker_leaves_its_chunks_to_the_parent(fmt, forks, capsys,
                                                         monkeypatch):
    """The worker dies at its second chunk, after sending its first: the
    parent makes the rest itself, and the report is the same, exit 0."""
    argv = ["compare", "--k", f"2..{6 * CHUNK}", "--format", fmt]
    expected = _one_worker(argv, capsys, monkeypatch)
    _cpus(monkeypatch, 2)
    _in_workers(monkeypatch, lambda lo: lo > 2 * CHUNK and os.kill(os.getpid(),
                                                                  signal.SIGKILL))
    code, out, err = _report(argv, capsys)
    assert (code, err, len(forks)) == (0, "", 1)
    _assert_same_report(out, expected)
    _no_child_left()


def test_a_worker_whose_chunk_raises_ends_in_os_exit(forks, tmp_path, capsys,
                                                     monkeypatch):
    """The worker's chunk raises; the worker still leaves through
    ``os._exit``, never through this test's frames, and the parent makes
    that chunk itself."""
    parent, exit_ = os.getpid(), os._exit
    argv = ["compare", "--k", f"2..{3 * CHUNK}", "--format", "json"]
    expected = _one_worker(argv, capsys, monkeypatch)

    def leave(status):
        (tmp_path / f"exit-{os.getpid()}").touch()
        exit_(status)

    def fail(lo):
        raise ValueError("a worker's chunk failed")

    monkeypatch.setattr(os, "_exit", leave)
    _cpus(monkeypatch, 2)
    _in_workers(monkeypatch, fail)
    try:
        code, out, err = _report(argv, capsys)
    finally:
        if os.getpid() != parent:  # a worker that came back: stop it here
            exit_(70)
    assert (code, err) == (0, "")
    _assert_same_report(out, expected)
    assert [path.name for path in tmp_path.iterdir()] == [f"exit-{forks[0]}"]
    _no_child_left()


def _never_fork():
    pytest.fail("a report forked")


def test_one_cpu_never_forks(capsys, monkeypatch):
    _cpus(monkeypatch, 1)
    monkeypatch.setattr(os, "fork", _never_fork)
    code, out, _ = _report(["optimize", "--k", "2..20000,inf"], capsys)
    assert (code, len(out.splitlines())) == (0, 1 + 20000)


def test_a_second_thread_stops_the_fork(capsys, monkeypatch):
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", _never_fork)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        code, out, _ = _report(["compare", "--k", "2..20000", "--format", "json"], capsys)
    finally:
        stop.set()
        thread.join(10)
    assert not thread.is_alive()
    assert (code, out.count('"k": ')) == (0, 19999)

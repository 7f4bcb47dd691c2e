"""Every pinned result of the pgsearch command line, each run in a new
process: a row of ``PINS`` (adding a pin means adding a row) or a golden of
``tests/data/cli``; the exact winners over a grid are pinned in-process.
Without ``--engine full`` numpy and dataclasses are made unimportable: the
reduced commands are pure Python.  A full-engine pin is skipped without numpy;
it, and each 10^6-row compare pin, runs again under ``taskset -c 0`` where
CPU 0 is ours.  Nothing here imports
numpy, hypothesis, mpmath or a test module: it runs where only pytest is."""

import hashlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

import pytest

from pgsearch import InfeasibleError, make_geometry, optimal_exact_schedule

SRC = Path(__file__).resolve().parent.parent / "src"

BOOT = """import atexit, runpy, sys
if "full" not in sys.argv:
    sys.modules["numpy"] = sys.modules["dataclasses"] = None  # import raises
atexit.register(lambda: open("status", "w").write(open("/proc/self/status").read()))
runpy.run_module("pgsearch", run_name="__main__", alter_sys=True)"""

ONE_CPU = ("taskset", "-c", "0")
CAN_PIN = shutil.which("taskset") is not None and 0 in os.sched_getaffinity(0)
HAS_NUMPY = importlib.util.find_spec("numpy") is not None

GOLDEN_DIR = Path(__file__).parent / "data" / "cli"
GOLDEN_CASES = json.loads((GOLDEN_DIR / "cases.json").read_text())


class Pin(NamedTuple):
    """``pgsearch argv`` exits ``code`` within ``timeout`` s (None: no limit),
    ``want`` being its "last" stdout line, its stdout's "sha256" or its last
    "stderr" line, as ``check`` says; a list report peaks at ``rss`` MiB at most."""
    argv: str
    check: str
    want: str
    timeout: float | None = None
    code: int = 0
    rss: float | None = None


SPELLED = "40f783a3ce0955ab84b2a60ea0774a1d3a7283f651ca2d13f32c057176675bdd"
PAST_THE_TABLE = "error: block range [1000001, 1000001] outside the supported [2, 10**6]"

PINS = [
    # The exact optimizer searches each j2 row in closed form; stepping
    # states through the search box takes about 1 s at 2^20 and 15 s at
    # 2^24, so the 10 s timeout also catches a return to that cost.
    Pin("schedule --n 1048576 --k 4 --exact --format csv", "last",
        "exact,268,310,true,579,0.990003567092827", 60),
    Pin("schedule --n 16777216 --k 4 --exact --format csv", "last",
        "exact,1076,1239,true,2316,0.990000596429882", 10),
    # At K = 2 many rows put a candidate near the threshold; deciding those
    # by stepping run_schedule took about 6 s here, schedule_state is O(1).
    Pin("schedule --n 68719476736 --k 2 --exact --format csv", "last",
        "exact,1474,130959,true,132434,0.9900000009670864", 3),
    # 592,860 j2 rows when every row was searched, 0.75-1.4 s on a 2-vCPU
    # host; the 3 s timeout left about 2x headroom on a host twice as slow.
    # The pruned search evaluates about 9,800 rows.
    Pin("schedule --n 1099511627776 --k 4 --exact --format csv", "last",
        "exact,270702,322158,true,592861,0.9900000001676412", 3),
    # The reported row comes from the closed-form state; stepping its
    # 58 million queries took seconds and failed the normalization check.
    Pin("schedule --n 9007199254740992 --k 4 --format csv", "last",
        "asymptotic,29206440,29206440,true,58412881,0.9999999999999999", 5),
    # The top of the range: 4,658,702 j2 rows when every row was searched,
    # 6.1-8.2 s on a 2-vCPU host, so the 15 s timeout left about 2x
    # headroom. The pruned search evaluates about 14,000 rows; at K = 64,
    # K = 4 and K = 2, where every row took 18.6, 53.7 and 47.9 million
    # rows and 23, 71 and 75 s, it evaluates about 30,000, 92,000 and
    # 152,000. The K = 64 line was taken in 43 s at an earlier search of
    # every row, the K = 4 line agrees with the one the tests keep as a
    # reference and the K = 2 line with that of the search it replaced.
    # The three take 0.17-0.46 s whole-process on a host whose speed moves
    # twofold; their 2 s timeouts leave about 2x headroom on a host twice
    # as slow.
    Pin("schedule --n 9007199254740992 --k 1024 --exact --format csv", "last",
        "exact,67217158,1553214,true,68770373,0.9900000000016533", 15),
    Pin("schedule --n 9007199254740992 --k 64 --exact --format csv", "last",
        "exact,59460606,6263124,true,65723731,0.9900000000027925", 2),
    Pin("schedule --n 9007199254740992 --k 4 --exact --format csv", "last",
        "exact,24457353,29202269,true,53659623,0.9900000000000968", 2),
    Pin("schedule --n 9007199254740992 --k 2 --exact --format csv", "last",
        "exact,22414,47923489,true,47945904,0.9900000000000435", 2),
    # The full engine at N = 2^22 with b = 2^21 (rows wider than a tile,
    # cut at numpy's pairwise-summation nodes; with more CPUs than its 2
    # rows, the threads share each query's leaves), with b = 2^20 and
    # b = 2^19 (4 and 8 wide rows, each taken whole by one thread), with
    # b = 2^17 (32 of the narrowest wide rows, two leaves each) and with
    # b = 2^15 (whole rows per tile). The K = 2 and K = 128 digests were
    # taken when every query still reflected the whole state in one numpy
    # call, the K = 8 one against a copy-per-step reflection; the K = 4
    # and K = 32 ones were the same on 2 CPUs and on one.
    Pin("simulate --engine full --n 4194304 --k 2 --j1 32 --j2 31 --target 1398101 --format csv",
        "sha256", "946684e90fe70b634ccfdb59774a39a2d40e346ffbda9e62aeb2330c4597cdc0", 30),
    Pin("simulate --engine full --n 4194304 --k 4 --j1 32 --j2 31 --target 1398101 --format csv",
        "sha256", "d8bec072e95b93ad235adf93c81b7cfba00434ef28e30bd419d2b9e2517354fd", 30),
    Pin("simulate --engine full --n 4194304 --k 8 --j1 32 --j2 31 --target 1398101 --format csv",
        "sha256", "356ef12aabe49e29806d325fd7c8f37751961b3be9ddd9878a71caa8de4e9953", 30),
    Pin("simulate --engine full --n 4194304 --k 32 --j1 32 --j2 31 --target 1398101 --format csv",
        "sha256", "1e20463aaaf04c7007e1f55b13e6dc33466e6279bf3831f5d6e27e1cb3d0e6d1", 30),
    Pin("simulate --engine full --n 4194304 --k 128 --j1 32 --j2 31 --target 1398101 --format csv",
        "sha256", "cb6a718252234d8b6fe0efe0e4fc89a36540ea247627bfbcb4b5c8ea278620dd", 30),
    # The full engine on blocks of 1-7 items (b = 2, 3, 7 and 1), whose
    # tiles of whole rows take every query of a phase at once: the digests
    # were taken when these rows were still summed and reflected a column
    # at a time.
    Pin("simulate --engine full --n 262144 --k 131072 --j1 3 --j2 64 --target 70001 --format csv",
        "sha256", "70ed366053b0c0396a2f9fae4ccde45ab51b3522586a9ef2d2b0d6cf87ac4767", 30),
    Pin("simulate --engine full --n 196608 --k 65536 --j1 2 --j2 50 --target 131074 --format csv",
        "sha256", "e10021acb78eb280c57e8dd21ed1c5dc13d678cfb6ca19de46c6a608cb831b5c", 30),
    Pin("simulate --engine full --n 229376 --k 32768 --j1 2 --j2 40 --target 229375 --format csv",
        "sha256", "49eaf824f5304b576193729b713087264beda811a103c1e7840c34ea47545e89", 30),
    Pin("simulate --engine full --n 262144 --k 262144 --j1 2 --j2 9 --target 12345 --format csv",
        "sha256", "f297081ea4e936b2ea8879946e14eab0b98af3d87e37cf1da916159555b4b2c2", 30),
    # The full engine on blocks of b = 1,000,004 items, wider than a tile,
    # whose pairwise-summation halves are not all multiples of 8 (half of
    # 1,000,004 is 500,002, cut to 500,000), so the `% 8` of the split rule
    # is taken; every pinned width above splits into multiples of 8. The
    # digest was taken while the leaf cuts and the leaf sums were still
    # two functions.
    Pin("simulate --engine full --n 3000012 --k 3 --j1 20 --j2 20 --target 1234567 --format csv",
        "sha256", "98e58bdaab9788a0bd40abeb9377f0a3c5361573c5156d3c4855e8bb77f15f9e", 30),
    # Canonical command lines are parsed from a table of the argparse
    # actions, every other spelling by argparse itself: an abbreviated,
    # --flag=value spelling of a request prints the same bytes (pinned at
    # the parser before the table), and a dash-leading value still gets
    # argparse's own error line.
    Pin("schedule --n 1024 --k 4 --exact --format csv", "sha256", SPELLED),
    Pin("schedule --n=1024 --k 4 --ex --thr 0.99 --form csv", "sha256", SPELLED),
    Pin("simulate --n 16 --j1 -1", "stderr",
        "pgsearch simulate: error: argument --j1: must be >= 0", code=2),
    # A full-engine query costs a tile's time however small N is, so the
    # work cap charges at least 2**16 amplitudes per query: 2**21 + 1
    # queries at N = 2 are refused before anything runs (they took about
    # 25 s when the cap counted N amplitudes per query).
    Pin("simulate --engine full --n 2 --k 2 --j1 2097152", "stderr",
        "error: 137439019008 amplitude-queries exceed the cap of 137438953472", 5, code=4),
    # compare checks every block count before it builds a row; building the
    # 999,999 rows first took about 7 s, so the 5 s timeout catches that.
    # The second spec's first part is good, its second runs past the table.
    Pin("compare --k 2..1000001", "stderr", PAST_THE_TABLE, 5, code=2),
    Pin("compare --k 5..10,999990..1000005", "stderr", PAST_THE_TABLE, 5, code=2),
    # Every compare row, 999,999 of them, in each format, and the optimize
    # list over the same block counts plus inf; the per-K reference test
    # covers at most 5000 rows. The compare digests were taken before the
    # renderer converted cells by column, the optimize digest before list
    # reports were written from a record template. List reports are
    # written 4096 rows at a time, so CSV and JSON stay within 64 MiB and
    # text, which keeps its cells until every column width is known, within
    # 96 MiB (they took 280-676 MiB when each report was built as one string).
    Pin("compare --k 2..1000000 --format text", "sha256",
        "fc774010fdb6dbec4d30ccbadaeedb093a1f9bcb753b3968630e0b6570f7a680", 120, rss=96),
    Pin("compare --k 2..1000000 --format csv", "sha256",
        "a9b8aef347b53b1c0d4125323ba0b679d5807858db7e411993f75a6f553c7d61", 120, rss=64),
    Pin("compare --k 2..1000000 --format json", "sha256",
        "2564dda361b9ac2756e5cac7479bc2bbd24ca188fd8403a2da4a539985cb648d", 120, rss=64),
    Pin("optimize --k 2..1000000,inf --format text", "sha256",
        "5a6b0dde4f39f489d4f3803de52db9ca799c7be398cb442425ce069edd239882", 120, rss=96),
    Pin("optimize --k 2..1000000,inf --format csv", "sha256",
        "673fb404e226854b086cb2567a6570fcfaa47d883391a5edaf3535f4ed7a4b75", 120, rss=64),
    Pin("optimize --k 2..1000000,inf --format json", "sha256",
        "670c34f12981063df499e40e4ae879a21cecb9f543d341cfd3c043bd6a2b77c2", 120, rss=64),
]


def run(argv, cwd, write, prefix=(), timeout=None):
    """Run ``pgsearch argv`` in a new process from ``cwd``, killed after
    ``timeout`` s, handing its stdout to ``write`` a block at a time; return its
    exit code, last stderr line and peak RSS in MiB: the VmHWM BOOT leaves in
    "status", as wait4's ru_maxrss counts this process's, charged at exec."""
    with open(cwd / "stderr", "w+b") as err, subprocess.Popen(
            [*prefix, sys.executable, "-c", BOOT, *argv], cwd=cwd, stdout=subprocess.PIPE,
            stderr=err, env={**os.environ, "PYTHONPATH": str(SRC)}) as proc:
        watchdog = threading.Timer(timeout or threading.TIMEOUT_MAX, proc.kill)
        start = time.monotonic()
        watchdog.start()
        try:
            for block in iter(lambda: proc.stdout.read(1 << 20), b""):
                write(block)
            proc.wait()
        finally:
            watchdog.cancel()
        err.seek(0)
        last = (err.read().decode().splitlines() or [""])[-1]
    if timeout and time.monotonic() - start >= timeout:
        pytest.fail(f"pgsearch {' '.join(argv)} ran past its {timeout} s timeout")
    status = (cwd / "status").read_text()
    return proc.returncode, last, int(status.split("VmHWM:")[1].split()[0]) / 1024  # kB


def _params(items):
    """Params of ``(argv, value)`` pairs; a full-engine one, and a 10^6-row
    compare, runs on CPU 0 too: both are split across every CPU we have."""
    for argv, value in items:
        no_numpy = pytest.mark.skipif("full" in argv and not HAS_NUMPY, reason="no numpy")
        yield pytest.param(value, (), id=" ".join(argv), marks=no_numpy)
        if "full" in argv or argv[:3] == ["compare", "--k", "2..1000000"]:
            yield pytest.param(value, ONE_CPU, id=" ".join([*ONE_CPU, *argv]), marks=[
                no_numpy, pytest.mark.skipif(not CAN_PIN, reason="CPU 0 is not ours")])


@pytest.mark.parametrize("pin, prefix", _params((pin.argv.split(), pin) for pin in PINS))
def test_pin(pin, prefix, tmp_path):
    digest, out = hashlib.sha256(), bytearray()
    code, err, peak = run(pin.argv.split(), tmp_path,
                          digest.update if pin.check == "sha256" else out.extend,
                          prefix, pin.timeout)
    got = {"last": (out.decode().splitlines() or [""])[-1],
           "sha256": digest.hexdigest(), "stderr": err}[pin.check]
    assert (code, got) == (pin.code, pin.want)
    assert pin.rss is None or peak <= pin.rss, f"peak RSS {peak:.1f} MiB is over the bound"


def _assert_same_report(got, expected, name="report"):
    """``got == expected`` for a whole report.  A mismatch fails with the two
    lengths and the first differing offset, not with pytest's line diff,
    which takes minutes on a report of thousands of rows."""
    if got == expected:
        return
    at = next((i for i, (a, b) in enumerate(zip(got, expected)) if a != b),
              min(len(got), len(expected)))
    pytest.fail(f"{name} differs: lengths {len(got)} and "
                f"{len(expected)}, first at offset {at}: "
                f"{got[at:at + 60]!r} against {expected[at:at + 60]!r}",
                pytrace=False)


def _assert_golden(case_id, code, out, err):
    """A run of golden ``case_id`` gave its exit code, stdout bytes ``out`` and
    last stderr line (of ``err``).  The goldens were written by the CLI before
    its renderer was rewritten: stdout of every subcommand in every format,
    and the exit code and last stderr line of the error paths."""
    case = GOLDEN_CASES[case_id]
    assert code == case["code"], case_id
    expected = (GOLDEN_DIR / case_id).read_bytes() if case["code"] == 0 else b""
    _assert_same_report(out, expected, case_id)
    assert (err.splitlines() or [""])[-1] == case["stderr_last_line"], case_id


@pytest.mark.parametrize("case_id, prefix", _params(
    (case["argv"], case_id) for case_id, case in sorted(GOLDEN_CASES.items())))
def test_golden_in_a_new_process(case_id, prefix, tmp_path):
    out = bytearray()
    code, err, _ = run(GOLDEN_CASES[case_id]["argv"], tmp_path, out.extend, prefix)
    _assert_golden(case_id, code, bytes(out), err)


def test_exact_winners_over_a_grid():
    """The exact winner, or "infeasible", of every geometry N = 2^4..2^34,
    K = 2..2^min(e, 10) at four thresholds: 1156 lines, 54 of them
    infeasible, in about 1 s (6-9 s while every j2 row was searched). The
    digest was taken while each window's walk still stepped back from the
    arcsin's first index."""
    start, lines = time.monotonic(), []
    for e in range(4, 35):
        for kexp in range(1, min(e, 10) + 1):
            for thr in (0.5, 0.9, 0.99, 0.999999):
                try:
                    s = optimal_exact_schedule(make_geometry(2**e, 2**kexp), thr)
                    lines.append(f"{2**e},{2**kexp},{thr},{s.j1},{s.j2}\n")
                except InfeasibleError:
                    lines.append(f"{2**e},{2**kexp},{thr},infeasible\n")
    assert time.monotonic() - start < 30
    assert (len(lines), sum("infeasible" in line for line in lines)) == (1156, 54)
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == (
        "437fab9b313acf426b35eaa9bfec0f8c492c272c55c2596ffcc13a95943a9014")

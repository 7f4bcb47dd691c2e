"""pgsearch benchmark: one workload, end-to-end or traced, with checked outputs.

Run from the root of a checkout:

    python3 bench/run.py --workload exact-sweep --seed 1 --trace 0
    python3 bench/run.py --quick      # every workload, metric and check, tiny

The workload's seeded request list runs in a fresh child process
(``bench/child.py``) through ``pgsearch.cli.main(argv)``: a closed loop,
one client, one thread, one request at a time, repeated pass after pass
for ``--seconds`` (by default ``run_seconds`` of ``BENCHMARK.json``).
Set-up is timed apart, as fresh ``python -m pgsearch`` processes.  All
times are scaled by a host-speed probe run next to them
(``bench/probe.py``).  Every report is checked (``bench/checks.py``); a
request that exits with an unexpected code or fails its check counts as
failed.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (``bench/tracing.py``).  The last line of stdout
is one JSON object; the full record, with the environment, goes to
``.bench_out/``.  See ``bench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

# Single-threaded numerics in this process and in every child.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import probe  # noqa: E402  (bench/ is sys.path[0])
import workloads  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SCRATCH = ".bench_out"  # relative to ROOT, ignored by git
SETUP_SPAWNS = 6  # before the workload, and as many after it
CHILD_TIMEOUT_S = 150.0
TAIL_PERCENTILE = 90  # every request list has >= 100 requests
#: Untraced passes each latency is taken from.  Fixed, so that every build
#: is measured over the same number of samples however many passes fit
#: into the run.
PASSES = 6
#: Untraced and traced passes each of a traced run at least makes.
TRACED_PASSES = 3

IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); import pgsearch.cli; "
                "print(time.perf_counter() - t, int('numpy' in sys.modules))")



class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def metric_units(section: str) -> dict[str, str]:
    """Metric name -> unit of a BENCHMARK.json section, in its order."""
    return {m["name"]: m["unit"] for m in benchmark_spec()[section]}


def _env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", os.environ.get("PYTHONPATH")) if p)
    return env


def _spawn(argv: list[str]) -> tuple[float, bytes]:
    """Wall time and stdout of a fresh interpreter running ``argv``."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=60)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"{argv} exited {proc.returncode}: "
                         f"{proc.stderr.decode(errors='replace')[-500:]}")
    return elapsed, proc.stdout


def time_setup(workload: str, spawns: int) -> list[float]:
    """Wall times of fresh ``python -m pgsearch <warm-up argv>`` processes,
    each scaled by the python probe run before and after it."""
    argv = ["-m", "pgsearch", *workloads.WARMUP_ARGV[workload]]
    run_probe = probe.make("python")
    before, times = run_probe(), []
    for _ in range(spawns):
        elapsed = _spawn(argv)[0]
        after = run_probe()
        times.append(elapsed * probe.REF_S["python"] / ((before + after) / 2))
        before = after
    return times


def time_import(spawns: int) -> tuple[float, int]:
    """Median in-process time of a fresh ``import pgsearch.cli``, and
    whether that import loads numpy."""
    probes = [_spawn(["-c", IMPORT_PROBE])[1].split() for _ in range(spawns + 1)]
    return (statistics.median(float(p[0]) for p in probes[1:]),
            int(probes[-1][1]))


def run_child(spec: dict, spec_path: str) -> int:
    """Run ``bench/child.py`` and return its peak RSS in KiB (``wait4``)."""
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    proc = subprocess.Popen([sys.executable, os.path.join(BENCH, "child.py"),
                             spec_path], cwd=ROOT, env=_env(),
                            stdout=subprocess.DEVNULL)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:  # interrupted: never leave the child running
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode}")
    return usage.ru_maxrss


def read_outputs(path: str):
    """Yield (exit code, report bytes) of the first pass, in order."""
    with open(path, "rb") as fh:
        while header := fh.readline():
            meta = json.loads(header)
            yield meta["code"], fh.read(meta["len"])


def check_run(requests: list[dict], passes: list[dict], outputs_path: str):
    """Check the first pass's reports and that every later pass repeated
    them byte for byte.  Returns (attempted, failed, problems, digest)."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import checks
    from pgsearch.model import run_schedule

    bad, problems, previous = set(), [], None
    for i, (request, (code, report)) in enumerate(
            zip(requests, read_outputs(outputs_path))):
        found = checks.check(request, report, code, run_schedule, previous)
        if found:
            bad.add(i)
            problems.append({"request": request.get("argv", request.get("path")),
                             "problems": found[:5]})
        previous = report
    first = passes[0]
    attempted = failed = 0
    for p in passes:
        for i, (code, digest) in enumerate(zip(p["codes"], p["digests"])):
            attempted += 1
            if i in bad or code != first["codes"][i] \
                    or digest != first["digests"][i]:
                failed += 1
    digest = hashlib.sha256("".join(first["digests"]).encode()).hexdigest()
    return attempted, failed, problems, digest


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def environment(seed: int) -> dict:
    """Machine, versions and code identity recorded with every result."""
    import numpy

    env = {"nproc": os.cpu_count(), "seed": seed,
           "python": platform.python_version(), "numpy": numpy.__version__,
           "full_state_note": (
               "full states are capped at 2**24 amplitudes (128 MiB), below "
               "4x the last-level cache, so bandwidth is computed from 16 B "
               "per amplitude per query and no roofline ratio is given")}
    try:
        env["cpu"] = next(line.split(":", 1)[1].strip()
                          for line in _read("/proc/cpuinfo").splitlines()
                          if line.startswith("model name"))
    except (OSError, StopIteration):
        env["cpu"] = platform.processor() or "unknown"
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(base)):
            d = os.path.join(base, index)
            if os.path.isfile(os.path.join(d, "size")):
                key = f"L{_read(d + '/level').strip()}-{_read(d + '/type').strip()}"
                caches[key] = _read(d + "/size").strip()
    except OSError:
        pass
    env["caches"] = caches
    env["git_sha"] = git_sha()
    return env


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` if there is one."""
    git = os.path.join(ROOT, ".git")
    try:
        head = _read(os.path.join(git, "HEAD")).strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            return _read(os.path.join(git, ref)).strip()
        for line in _read(os.path.join(git, "packed-refs")).splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def scaled_latencies(passes: list[dict], ref_s: float) -> list[float]:
    """Each request's latency over ``passes``, scaled to the probe's
    reference speed: the mean of the faster half of its scaled times.

    A latency is scaled by ``ref_s`` over the mean of the probe times
    right before and right after the request, which takes out the host's
    changes of speed.  What is left is the request's own jitter (the
    allocator, page faults, cache state); it only ever adds time, so the
    faster half of the passes repeats better than their median.
    """
    scaled = zip(*([t * 2 * ref_s / (p["probes"][i] + p["probes"][i + 1])
                    for i, t in enumerate(p["latencies"])] for p in passes))
    keep = max(1, len(passes) // 2)
    return [statistics.fmean(sorted(times)[:keep]) for times in scaled]


def _percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def run(workload: str, seed: int, seconds: float, trace: bool,
        quick: bool = False) -> dict:
    """Run one workload and return its record (metrics, checks, env)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "pgsearch", "cli.py")):
        raise BenchError("src/pgsearch not found: run from a pgsearch checkout")
    scratch = os.path.join(ROOT, SCRATCH)
    os.makedirs(scratch, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}{'-quick' if quick else ''}"
    files = {key: os.path.join(scratch, f"{tag}.{key}")
             for key in ("spec", "result", "outputs", "spans")}
    files["spans"] += ".npz"
    requests = workloads.build(workload, seed, SCRATCH, quick)
    spawns = 2 if quick else SETUP_SPAWNS

    metrics: dict[str, float] = {}
    if trace:
        metrics["setup.import_s"], metrics["setup.numpy_at_import"] = \
            time_import(spawns)
    else:
        time_setup(workload, 1)  # untimed: writes bytecode caches
        setup = time_setup(workload, spawns)

    rss_kib = run_child({
        "requests": requests, "seconds": seconds, "trace": trace,
        "min_passes": 2 * TRACED_PASSES if trace else PASSES,
        "probe": workloads.PROBE[workload],
        "warmup_argv": workloads.WARMUP_ARGV[workload],
        "result": files["result"], "outputs": files["outputs"],
        "spans": files["spans"]}, files["spec"])
    with open(files["result"]) as fh:
        passes = json.load(fh)["passes"]
    attempted, failed, problems, digest = check_run(
        requests, passes, files["outputs"])

    plain = [p for p in passes if not p["traced"]]
    ref_s = probe.REF_S[workloads.PROBE[workload]]
    used = TRACED_PASSES if trace else PASSES
    latencies = scaled_latencies(plain[:used], ref_s)
    if trace:
        import tracing

        metrics.update(tracing.layer_metrics(files["spans"]))
        traced = scaled_latencies(
            [p for p in passes if p["traced"]][:used], ref_s)
        metrics["trace.overhead_ratio"] = sum(traced) / sum(latencies)
    else:
        # The other half of the set-up spawns, after the workload, so that
        # the median samples two stretches of the run.
        setup += time_setup(workload, spawns)
        latencies_ms = [1e3 * t for t in latencies]
        metrics.update({
            "wall_s": sum(latencies),
            "req_p50_ms": statistics.median(latencies_ms),
            "req_tail_ms": _percentile(latencies_ms, TAIL_PERCENTILE),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": rss_kib / 1024.0,
        })
    units = metric_units("per_layer" if trace else "end_to_end")
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "quick": quick,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
        "failed_ratio": failed / attempted,
        "attempted": attempted, "failed": failed,
        "requests_per_pass": len(requests), "passes": len(plain),
        "traced_passes": len(passes) - len(plain),
        "pass_wall_s": [sum(p["latencies"]) for p in plain],
        # Median probe time of each pass over its reference: above 1 the
        # host ran slower than the reference, and the times were scaled down.
        "pass_probe_ratio": [statistics.median(p["probes"]) / ref_s
                             for p in plain],
        "tail": f"p{TAIL_PERCENTILE} of the latencies of {len(requests)} "
                f"requests, each from the faster half of {used} passes",
        "output_sha256": digest, "problems": problems[:20],
        "environment": environment(seed),
    }


def report(record: dict) -> None:
    """Human-readable lines, the record file, and the final JSON line."""
    print(f"# {record['workload']} seed={record['seed']} "
          f"trace={record['trace']}: {record['passes']} passes of "
          f"{record['requests_per_pass']} requests; tail = {record['tail']}")
    for name, m in record["metrics"].items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_ratio':40s} {record['failed_ratio']:.6g} ratio "
          f"({record['failed']}/{record['attempted']})")
    print(f"output_sha256 {record['output_sha256']}")
    for p in record["problems"]:
        print(f"FAILED {p['request']}: {p['problems']}")
    tag = (f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
           f"{'-quick' if record['quick'] else ''}")
    with open(os.path.join(ROOT, SCRATCH, f"{tag}.record.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": record["failed"] == 0,
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": record["metrics"]}))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=benchmark_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes; without --workload runs every "
                             "workload, untraced and traced")
    args = parser.parse_args(argv)
    if not args.quick and args.workload is None:
        parser.error("--workload is required without --quick")
    try:
        if not args.quick:
            report(run(args.workload, args.seed, args.seconds, bool(args.trace)))
            return 0
        ok = True
        for workload in [args.workload] if args.workload else workloads.WORKLOADS:
            for trace in (False, True):
                record = run(workload, args.seed, 0.5, trace, quick=True)
                report(record)
                ok = ok and record["failed"] == 0
        return 0 if ok else 1
    except (BenchError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

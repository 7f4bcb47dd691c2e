"""Runs one workload's request list in a fresh process.

Usage: ``python bench/child.py SPEC.json`` from the checkout root, with
``src`` on PYTHONPATH.  The spec names the request list, the seconds to
measure, the passes it must make at least, the trace mode and the output
files.  The process imports ``pgsearch.cli`` once, runs the list through
``pgsearch.cli.main(argv)`` pass after pass (closed loop, one request at a
time), and writes:

* ``result``: per pass, each request's latency, exit code and sha256,
  and the host-speed probe times around the requests (``bench/probe.py``):
  one before the first request and one after each;
* ``outputs``: the report bytes of the first pass, for the output checks;
* ``spans`` (trace mode only): the span file of the traced passes.

In trace mode untraced and traced passes alternate in the same warm
process.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import time


def _reload(path: str) -> tuple[int, bytes]:
    """The library request behind a PGSV round trip: load, reduce, measure."""
    # Imported here, so that only workloads with reload requests load the
    # full-state module beyond what the CLI itself imports.
    import pgsearch.statevector as statevector

    state = statevector.load_state(path)
    reduced, residual = statevector.sv_reduce(state)
    probs = statevector.measure_block_distribution(state)
    target_block = state.target_index // state.geometry.block_size
    report = {
        "amp_target": reduced.amp_target,
        "amp_ntt": reduced.amp_ntt,
        "amp_nb": reduced.amp_nb,
        "coherence_residual": residual,
        "block_sum": float(probs.sum()),
        "target_block": float(probs[target_block]),
    }
    return 0, (json.dumps(report, sort_keys=True) + "\n").encode()


def _run(request: dict, cli) -> tuple[int, bytes]:
    if request["kind"] == "reload":
        return _reload(request["path"])
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(request["argv"])
        except SystemExit as exc:  # argparse refusals exit with code 2
            code = exc.code
    return code, out.getvalue().encode()


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    requests = spec["requests"]

    import pgsearch.cli
    import probe  # bench/ is sys.path[0]

    _run({"kind": "warm-up", "argv": spec["warmup_argv"]}, pgsearch.cli)
    run_probe = probe.make(spec["probe"])
    run_probe()  # warm-up

    tracer = None
    if spec["trace"]:
        from tracing import Tracer  # bench/ is sys.path[0]

        tracer = Tracer()
    passes: list[dict] = []
    req_pass: list[int] = []  # pass of each request id
    begin = time.perf_counter()
    with open(spec["outputs"], "wb") as outputs:
        while True:
            # Traced and untraced passes alternate, so that both sample the
            # same stretches of the run.
            traced = tracer is not None and len(passes) % 2 == 1
            if traced:
                tracer.install()
            latencies, codes, digests = [], [], []
            probes = [run_probe()]
            for request in requests:
                if tracer is not None:
                    tracer.request = len(req_pass)
                req_pass.append(len(passes))
                t0 = time.perf_counter()
                code, report = _run(request, pgsearch.cli)
                latencies.append(time.perf_counter() - t0)
                probes.append(run_probe())
                codes.append(code)
                digests.append(hashlib.sha256(report).hexdigest())
                if not passes:
                    header = {"code": code, "len": len(report)}
                    outputs.write(json.dumps(header).encode() + b"\n")
                    outputs.write(report)
                if request["kind"] == "reload":
                    os.remove(request["path"])
            if traced:
                tracer.uninstall()
            passes.append({"traced": traced, "latencies": latencies,
                           "probes": probes, "codes": codes,
                           "digests": digests})
            elapsed = time.perf_counter() - begin
            # After the passes the metrics are taken from, start another
            # pass only if it should end within the budget.
            if (len(passes) >= spec["min_passes"]
                    and elapsed + elapsed / len(passes) > spec["seconds"]):
                break
    if tracer is not None:
        tracer.save(spec["spans"], req_pass)

    with open(spec["result"], "w") as fh:
        json.dump({"passes": passes}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

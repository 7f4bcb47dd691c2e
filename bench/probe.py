"""Host-speed probe: a fixed piece of work that never touches pgsearch.

The shared host the benchmark runs on changes speed by up to twofold, in
stretches from seconds to minutes, and CPU time slows with it.  So every
request's latency is divided by the time of a probe run right before and
right after it, and multiplied by the probe's reference time.  A time is
then reported in seconds of a host on which the probe takes ``REF_S``.
The probe is the same on every commit, so a faster program reads faster
by the same share.

Programs of different kinds slow by different shares, so each workload
takes the probe closest to its own work:

* ``python``: Python function calls on floats, like the optimizer's
  evaluations, then building, dumping, parsing, sorting and formatting a
  small table, like the CLI's reports (``exact-sweep``, ``report-mix``,
  and set-up);
* ``numpy``: an in-cache vector loop, for the full-state kernels
  (``full-certify``).  It is only used where numpy is loaded anyway, so
  that the probe adds nothing to the peak RSS of the other workloads.

The match is not exact.  Between slow and fast stretches of the host
(probe times 1.0 to 1.8 times ``REF_S``), exact-sweep's scaled times still
moved about 14%, as if its time grew as the 1.25th power of the probe's;
report-mix's moved less than their spread.  Unscaled, both moved 70-80%.
Probes tried and dropped: a plain loop on small ints (exact-sweep moved
as its 1.4th power) and random reads from a 2^15-entry dict added to
``python`` (over-corrected, and its own jitter widened the tail's spread
to 25%).
"""

from __future__ import annotations

import json
import math
import time

#: Probe time on a fast stretch of the 2-vCPU host the benchmark was tuned
#: on.
REF_S = {"python": 1.6e-3, "numpy": 0.85e-3}


def _step(x: float, y: float) -> float:
    return x * 0.5 + y


def _python() -> str:
    x, sqrt = 0.0, math.sqrt
    for i in range(8_000):
        x = _step(x, sqrt(i))
    rows = [{"k": i, "alpha": i * x % 1.0, "name": f"row{i:05d}",
             "eta": sqrt(i)} for i in range(150)]
    rows = json.loads(json.dumps(rows))
    rows.sort(key=lambda row: -row["eta"])
    return "\n".join(f"{r['k']:>6d} {r['alpha']:.6g} {r['eta']:.6g} {r['name']}"
                     for r in rows)


def make(kind: str):
    """A function that runs the ``kind`` probe once and returns its time."""
    if kind == "python":
        work = _python
    elif kind == "numpy":
        import numpy

        vector = numpy.ones(1 << 16)

        def work():
            for _ in range(64):
                numpy.multiply(vector, 1.0000001, out=vector)
    else:
        raise ValueError(f"unknown probe {kind!r}")

    def run() -> float:
        t0 = time.perf_counter()
        work()
        return time.perf_counter() - t0

    return run

"""Steadiness check: repeat each workload on fresh seeds, compare spreads
with the bounds in BENCHMARK.json.

    python3 bench/steady.py                     # 10 seeds on every workload
    python3 bench/steady.py --runs 5 --workload full-certify

For each end-to-end metric it prints the median of the runs, the distance
between the first and third quartile (``statistics.quantiles(n=4)``) as a
share of the median, and the metric's bound.  A spread is "steady" below a
third of the bound and "within" below the bound.  Runs use seeds 1..runs
and the run length of BENCHMARK.json.  Exits 1 if any spread exceeds its
bound or any run failed a check.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, action="append")
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()

    ok = True
    for workload in args.workload or names:
        values: dict[str, list[float]] = {}
        failed = 0
        for seed in range(1, args.runs + 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--trace", "0"], cwd=ROOT,
                stdout=subprocess.PIPE, text=True, timeout=180)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            failed += result["failed"] + (not result["correct"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"# {workload}: {args.runs} runs, seeds 1..{args.runs}, "
              f"failed requests {failed}")
        summary = {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            vals = values[name]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            spread = (q3 - q1) / median
            verdict = ("steady" if spread < bound / 3 else
                       "within" if spread <= bound else "TOO WIDE")
            ok = ok and spread <= bound
            summary[name] = {"median": median, "spread": spread,
                             "bound": bound, "values": vals}
            print(f"{name:14s} median {median:10.5g} {metric['unit']:4s} "
                  f"spread {spread:7.2%}  bound {bound:.0%}  {verdict}")
        ok = ok and failed == 0
        with open(os.path.join(ROOT, ".bench_out", f"steady-{workload}.json"),
                  "w") as fh:
            json.dump(summary, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

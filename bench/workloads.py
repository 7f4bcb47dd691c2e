"""Seeded request lists for the three benchmark workloads.

Each generator returns a list of requests.  A request is a dict with
``kind`` (the subcommand, ``"invalid"`` or ``"reload"``), the ``argv`` the
CLI sees (library ``reload`` requests carry a ``path`` instead) and the
``expect`` exit code.  The seed only picks details that barely change the
work of a request: a +-0.02 octave jitter of N, up to 2% of the queries of
a full-engine request, targets, range offsets and the order (except in
full-certify, and of report-mix's large compares).  How much work each
size class gets is fixed, so the request lists of different seeds cost
the same to within a few percent and runs on different seeds compare.  (A +-0.1 octave jitter moved the work of the
exact-sweep p90 request by 11% from seed to seed.)
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("exact-sweep", "full-certify", "report-mix")

#: Largest per-request work of ``full-certify``, in amplitude-queries.
AMP_QUERY_CAP = 1 << 28

#: Smallest request of each workload's own kind, used to time set-up.
WARMUP_ARGV = {
    "exact-sweep": ["schedule", "--n", "1024", "--k", "256", "--exact",
                    "--threshold", "0.9", "--format", "json"],
    "full-certify": ["simulate", "--engine", "full", "--n", "4096", "--k", "2",
                     "--j1", "1", "--j2", "1", "--target", "0",
                     "--format", "json"],
    "report-mix": ["optimize", "--k", "2"],
}

#: Host-speed probe each workload's times are scaled by (``bench/probe.py``).
PROBE = {"exact-sweep": "python", "full-certify": "numpy",
         "report-mix": "python"}

# Requests per size exponent.  Small sizes are many and cheap, large ones
# few and dominant; together each list holds >= 100 requests so that its
# p90 latency has at least ten requests beyond it.
_EXACT_GROUPS = {10: 48, 11: 26, 12: 14, 13: 7, 14: 3, 15: 1, 16: 1}
_FULL_GROUPS = {12: 30, 13: 20, 14: 16, 15: 12, 16: 8, 17: 5, 18: 3,
                19: 1, 20: 1, 21: 1, 22: 1}
_QUICK_EXACT_GROUPS = {10: 3, 11: 2}
_QUICK_FULL_GROUPS = {12: 3, 13: 2, 21: 1}
_QUICK_AMP_QUERY_CAP = 1 << 22

_BLOCK_COUNTS = tuple(2**i for i in range(1, 9))  # K = 2 .. 256
_THRESHOLDS = (0.9, 0.99)
_FORMATS = ("text", "json", "csv")
_K_MAX = 10**6  # largest block count comparison_table accepts


def search_box(n: int, k: int) -> tuple[int, int]:
    """Largest j1 and j2 that ``optimal_exact_schedule`` scans."""
    return (math.ceil(math.pi * math.sqrt(n) / 4.0),
            math.ceil(math.pi * math.sqrt(n // k) / 2.0))


def build(workload: str, seed: int, scratch: str, quick: bool = False) -> list[dict]:
    """The seeded request list of ``workload``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "exact-sweep":
        return _exact_sweep(rng, _QUICK_EXACT_GROUPS if quick else _EXACT_GROUPS)
    if workload == "full-certify":
        if quick:
            return _full_certify(rng, scratch, _QUICK_FULL_GROUPS,
                                 _QUICK_AMP_QUERY_CAP)
        return _full_certify(rng, scratch, _FULL_GROUPS, AMP_QUERY_CAP)
    if workload == "report-mix":
        return _report_mix(rng, quick)
    raise ValueError(f"unknown workload {workload!r}")


def _cli(argv: list[str], expect: int = 0) -> dict:
    return {"kind": argv[0] if expect == 0 else "invalid", "argv": argv,
            "expect": expect}


def _exact_sweep(rng: random.Random, groups: dict[int, int]) -> list[dict]:
    combos = [(k, t) for k in _BLOCK_COUNTS for t in _THRESHOLDS]
    requests = []
    for e, count in groups.items():
        # A fixed, balanced share of (K, threshold) cells per size: the two
        # change the scanned share of the box several-fold, so leaving them
        # to the seed would make whole runs incomparable.
        for i in range(count):
            k, threshold = combos[(5 * e + i) % len(combos)]
            x = min(16.0, max(10.0, e + rng.uniform(-0.02, 0.02)))
            n = k * round(2**x / k)
            requests.append(_cli([
                "schedule", "--n", str(n), "--k", str(k), "--exact",
                "--threshold", str(threshold), "--format", "json"]))
    rng.shuffle(requests)
    return requests


def _full_certify(rng: random.Random, scratch: str, groups: dict[int, int],
                  cap: int) -> list[dict]:
    requests = []
    for e, count in groups.items():
        n = 2**e
        emit = rng.randrange(count)  # one PGSV round trip per size
        for i in range(count):
            # K and the local share of the queries cycle on a fixed pattern:
            # both move time and peak memory at the large sizes, where a
            # group holds a single request.
            k = _BLOCK_COUNTS[(e + i) % len(_BLOCK_COUNTS)]
            j1_max, j2_max = search_box(n, k)
            # Work is N*queries; bounding queries by the j1 side of the box
            # keeps it independent of K, and the cap bounds the large sizes.
            q_max = min(j1_max + 1, cap // n)
            queries = max(1, round(q_max * rng.uniform(0.98, 1.0)))
            j2 = round(min(j2_max, queries - 1) * (i + 0.5) / count)
            argv = ["simulate", "--engine", "full", "--n", str(n), "--k", str(k),
                    "--j1", str(queries - 1 - j2), "--j2", str(j2),
                    "--target", str(rng.randrange(n)), "--format", "json"]
            path = f"{scratch}/state-{e}.pgsv"
            if i == emit:
                argv += ["--emit-state", path]
            requests.append(_cli(argv))
            if i == emit:
                requests.append({"kind": "reload", "path": path, "expect": 0})
    # No shuffle: the order of large allocations and frees sets how much
    # of the heap the allocator keeps, so a seeded order would move
    # peak_rss_mb by 10-20% from seed to seed.
    return requests


def _k_spec(rng: random.Random) -> str:
    form = rng.randrange(3)
    if form == 0:
        return str(rng.randint(2, 1000))
    lo = rng.randint(2, 60)
    if form == 1:
        return f"{lo}..{lo + rng.randint(0, 20)}"
    return f"{lo},{rng.randint(2, 200)},inf"


def _geometry(rng: random.Random, max_n: int) -> tuple[int, int]:
    k = rng.randint(2, 64)
    return k * rng.randint(4, max_n // k), k


def _invalid(rng: random.Random) -> list[str]:
    """A request the CLI must refuse with exit code 2."""
    k = rng.choice([3, 5, 7, 11])
    forms = [
        ["schedule", "--n", str(k * rng.randint(10, 999) + 1), "--k", str(k)],
        ["bound", "--n", str(rng.randint(2, 10**6)), "--k", "0"],
        ["compare", "--k", f"1..{rng.randint(2, 50)}"],
        ["compare", "--k", f"{rng.randint(2, 50)},inf"],
        ["optimize", "--k", f"{rng.randint(5, 50)}..{rng.randint(2, 4)}"],
        ["simulate", "--n", "1024", "--j1", str(-rng.randint(1, 9))],
        ["simulate", "--n", "1024", "--emit-state", "unused.pgsv"],
    ]
    return rng.choice(forms)


def _report_mix(rng: random.Random, quick: bool) -> list[dict]:
    per_kind = 2 if quick else 8  # requests per kind and format
    large_rows = 2000 if quick else 100_000
    requests, large = [], []
    for fmt in _FORMATS:
        for _ in range(per_kind):
            io = ["--format", fmt]
            requests.append(_cli(["optimize", "--k", _k_spec(rng)] + io))
            n, k = _geometry(rng, 2**16)
            requests.append(_cli(["bound", "--n", str(n), "--k", str(k)] + io))
            n, k = _geometry(rng, 2**20)
            requests.append(_cli(["schedule", "--n", str(n), "--k", str(k)] + io))
            n, k = _geometry(rng, 2**20)
            j1_max, j2_max = search_box(n, k)
            argv = ["simulate", "--n", str(n), "--k", str(k),
                    "--j1", str(rng.randint(0, j1_max)),
                    "--j2", str(rng.randint(0, j2_max))]
            if rng.random() < 0.25:
                argv.append("--no-trailing")
            requests.append(_cli(argv + io))
            lo = rng.choice([2, 3, 4, rng.randint(2, _K_MAX - 50)])
            requests.append(_cli(
                ["compare", "--k", f"{lo}..{lo + rng.randint(0, 40)}"] + io))
        # One large compare per format: 100k rows each, where row building
        # and formatting dominate time and memory.
        lo = rng.randint(2, _K_MAX - large_rows + 1)
        large.append(_cli(
            ["compare", "--k", f"{lo}..{lo + large_rows - 1}", "--format", fmt]))
    for _ in range(per_kind):
        requests.append(_cli(_invalid(rng), expect=2))
    rng.shuffle(requests)
    # The large compares go in a fixed order at fixed places.  Which format
    # comes first sets how much heap the allocator keeps, so a seeded order
    # moved peak_rss_mb by 4% from seed to seed.
    step = len(requests) // (len(large) + 1)
    for i, request in reversed(list(enumerate(large, 1))):
        requests.insert(i * step, request)
    return requests

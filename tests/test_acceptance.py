"""Acceptance gate: every deliverable behavior, one timed check each.

Run with ``pytest -s tests/test_acceptance.py`` to see one
``[PASS]/[FAIL] <n> <label>`` line per criterion with its elapsed time.
Each check also enforces its own wall-clock budget.
"""

import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from pgsearch import (
    Schedule,
    asymptotic_expansion,
    asymptotic_optimum,
    asymptotic_schedule,
    block_success_probability,
    comparison_table,
    eta_from_alpha,
    item_success_probability,
    interrupted_probability,
    lower_bound_queries,
    make_geometry,
    operating_range,
    optimal_exact_schedule,
    partial_search_coefficient,
    random_pick_coefficient,
    run_schedule,
    sv_reduce,
    sv_run_schedule,
)

GOLDEN_CSV = Path(__file__).parent / "data" / "compare_k2_30.csv"


def _check(num, label, limit_s, body):
    t0 = time.perf_counter()
    ok, detail = body()
    elapsed = time.perf_counter() - t0
    in_budget = elapsed < limit_s
    status = "PASS" if (ok and in_budget) else "FAIL"
    print(f"[{status}] {num} {label}: {elapsed:.3f}s (limit {limit_s:g}s)")
    assert ok, f"criterion {num} ({label}): {detail}"
    assert in_budget, f"criterion {num} ({label}) took {elapsed:.3f}s >= {limit_s}s"


def test_criterion_01_optimum_table():
    targets = {
        2: (0.7854, 1.1107, -0.3253),
        3: (0.65906, 0.9961, -0.33704),
        4: (0.6155, 0.9553, -0.3398),
        5: (0.5932, 0.9341, -0.3409),
        math.inf: (0.5236, 0.866, -0.3424),
    }

    def body():
        worst = 0.0
        for k, (alpha, eta, diff) in targets.items():
            opt = asymptotic_optimum(k)
            worst = max(
                worst,
                abs(opt.alpha - alpha),
                abs(opt.eta - eta),
                abs((opt.alpha - opt.eta) - diff),
            )
        return worst <= 5e-4, f"worst deviation {worst:.3e} (tolerance 5e-4)"

    _check(1, "closed-form optimum table", 1.0, body)


def test_criterion_02_constraint_identities():
    def body():
        worst_consistency = 0.0
        lib_eta = {}
        for k in range(2, 10**4 + 1):
            opt = asymptotic_optimum(k)
            lib_eta[k] = opt.eta
            worst_consistency = max(
                worst_consistency, abs(eta_from_alpha(k, opt.alpha) - opt.eta)
            )
        if worst_consistency > 1e-12:
            return False, f"eta_from_alpha drift {worst_consistency:.3e} > 1e-12"

        # The stationarity residual cos(2*eta/sqrt(K))**2 * K*(K-1) - (K-2)**2
        # is identically zero, but the K*(K-1) factor amplifies float64
        # noise in eta to ~1e-8 at K = 10**4, so evaluate the whole chain
        # in extended precision (mpmath when the platform long double is
        # no wider than a double).
        ks = np.arange(3, 10**4 + 1)
        if np.finfo(np.longdouble).eps < 1e-18:
            kl = ks.astype(np.longdouble)
            eta = 0.5 * np.sqrt(kl) * np.arctan2(np.sqrt(3 * kl - 4), kl - 2)
            resid = np.cos(2 * eta / np.sqrt(kl)) ** 2 * kl * (kl - 1) - (kl - 2) ** 2
            worst_resid = float(np.max(np.abs(resid)))
            eta64 = eta.astype(np.float64)
        else:
            from mpmath import mp

            mp.dps = 40
            worst_resid = 0.0
            eta64 = np.empty(len(ks))
            for i, k in enumerate(ks):
                km = mp.mpf(int(k))
                e = mp.sqrt(km) / 2 * mp.atan2(mp.sqrt(3 * km - 4), km - 2)
                r = mp.cos(2 * e / mp.sqrt(km)) ** 2 * km * (km - 1) - (km - 2) ** 2
                worst_resid = max(worst_resid, abs(float(r)))
                eta64[i] = float(e)
        if worst_resid > 1e-9:
            return False, f"stationarity residual {worst_resid:.3e} > 1e-9"

        lib = np.array([lib_eta[int(k)] for k in ks])
        tie = float(np.max(np.abs(eta64 - lib)))
        if tie > 1e-12:
            return False, f"extended-precision eta differs from library by {tie:.3e}"
        return True, ""

    _check(2, "constraint and stationarity identities", 5.0, body)


def test_criterion_03_engines_agree_on_random_schedules():
    def body():
        rng = np.random.default_rng(20260819)
        worst_diff = 0.0
        worst_coherence = 0.0
        cases = 0
        for n in (64, 256, 1024, 4096):
            for k in (2, 4, 8, 16):
                if k > n // 4:
                    continue
                g = make_geometry(n, k)
                for _ in range(20):
                    sch = Schedule(
                        int(rng.integers(0, 51)),
                        int(rng.integers(0, 51)),
                        bool(rng.integers(0, 2)),
                    )
                    target = int(rng.integers(0, n))
                    full = sv_run_schedule(g, target, sch)
                    got, coherence = sv_reduce(full)
                    want = run_schedule(g, sch)
                    worst_diff = max(
                        worst_diff,
                        abs(got.amp_target - want.amp_target),
                        abs(got.amp_ntt - want.amp_ntt),
                        abs(got.amp_nb - want.amp_nb),
                    )
                    worst_coherence = max(worst_coherence, coherence)
                    cases += 1
        ok = worst_diff <= 1e-12 and worst_coherence <= 1e-12
        return ok, (
            f"{cases} cases, worst amplitude diff {worst_diff:.3e}, "
            f"worst coherence {worst_coherence:.3e} (tolerance 1e-12)"
        )

    _check(3, "full-state vs reduced-engine grid", 60.0, body)


def test_criterion_04_cost_coefficients():
    def body():
        r_quoted = {2: 0.5554, 3: 0.641, 4: 0.68, 5: 0.702}
        s_quoted = {2: 0.5554, 3: 0.59, 5: 0.63}
        for k, v in r_quoted.items():
            if abs(random_pick_coefficient(k) - v) > 5e-3:
                return False, f"r_coeff({k}) off the quoted {v} by > 5e-3"
        for k, v in s_quoted.items():
            if abs(partial_search_coefficient(k) - v) > 5e-3:
                return False, f"s_coeff({k}) off the quoted {v} by > 5e-3"
        if abs(partial_search_coefficient(4) - 0.6155) > 5e-4:
            return False, "s_coeff(4) off the consistent 0.6155 by > 5e-4"
        note = comparison_table(4, 4)[0].note
        if "0.586" not in note or "misprint" not in note:
            return False, f"K=4 note does not flag 0.586 as a misprint: {note!r}"
        return True, ""

    _check(4, "cost coefficients vs quoted values", 1.0, body)


def test_criterion_05_interrupted_runs():
    def body():
        for k in (4, 8, 16):
            g = make_geometry(k * 2**14, k)
            j1 = asymptotic_schedule(g).j1
            s = run_schedule(g, Schedule(j1, 0, False))
            got = item_success_probability(s)
            want = interrupted_probability(k)
            if abs(got - want) > 0.01:
                return False, f"K={k}: item success {got:.6f} vs {want:.6f}"
        r = operating_range(0.9)
        if (r.k_min, r.k_max) != (3, 30):
            return False, f"operating_range(0.9) reported ({r.k_min}, {r.k_max})"
        return True, ""

    _check(5, "interrupted-run success and range", 5.0, body)


def test_criterion_06_final_state_shape():
    def body():
        g = make_geometry(2**16, 4)
        s = run_schedule(g, asymptotic_schedule(g))
        target_dev = abs(s.amp_target - math.sin(asymptotic_optimum(4).alpha))
        outside = math.sqrt(g.n_items - g.block_size) * abs(s.amp_nb)
        if target_dev > 0.02:
            return False, f"target amplitude deviation {target_dev:.4f} > 0.02"
        if outside > 0.05:
            return False, f"outside-block weight {outside:.4f} > 0.05"
        return True, f"target dev {target_dev:.4f}, outside {outside:.4f}"

    _check(6, "final-state shape at large blocks", 1.0, body)


def test_criterion_07_exact_schedule_optimality():
    def body():
        sch = optimal_exact_schedule(make_geometry(1024, 4), 0.99)
        if sch.queries > 21:
            return False, f"N=1024, K=4 exact schedule costs {sch.queries} > 21"

        # independent reproduction on the raw amplitude vector at N=64, K=4,
        # including the (queries, j2, j1) tie-break
        g = make_geometry(64, 4)
        j1_cap = math.ceil(math.pi * math.sqrt(64) / 4.0)
        j2_cap = math.ceil(math.pi * math.sqrt(16) / 2.0)
        best_key, best = None, None
        for j1 in range(j1_cap + 1):
            for j2 in range(j2_cap + 1):
                cand = Schedule(j1, j2, True)
                reduced, _ = sv_reduce(sv_run_schedule(g, 37, cand))
                if block_success_probability(reduced, g) >= 0.99:
                    key = (cand.queries, j2, j1)
                    if best_key is None or key < best_key:
                        best_key, best = key, cand
        lib = optimal_exact_schedule(g, 0.99)
        if best is None or (lib.j1, lib.j2) != (best.j1, best.j2):
            return False, f"library found {lib}, independent scan found {best}"
        return True, f"N=64 scan agrees on (j1={best.j1}, j2={best.j2})"

    _check(7, "exact schedule optimality", 30.0, body)


def test_criterion_08_lower_bound_ordering():
    def body():
        for k in range(3, 101):
            g = make_geometry(k * 2**16, k)
            sqrt_n = math.sqrt(g.n_items)
            basic = lower_bound_queries(g, "basic") / sqrt_n
            tighter = lower_bound_queries(g, "tighter") / sqrt_n
            alpha_exact = lower_bound_queries(g, "alpha_exact") / sqrt_n
            achieved = partial_search_coefficient(k)
            chain = (basic, tighter, alpha_exact, achieved)
            for lo, hi in zip(chain, chain[1:]):
                if lo > hi + 1e-12:
                    return False, f"K={k}: ordering violated at {chain}"
        return True, ""

    _check(8, "lower-bound ordering", 1.0, body)


def test_criterion_09_expansion_accuracy():
    def body():
        c_const = 1.0  # calibrated; any single constant <= 10 qualifies
        for k in (50, 100, 500):
            alpha, eta = asymptotic_expansion(k)
            opt = asymptotic_optimum(k)
            bound = c_const / k**3
            if abs(alpha - opt.alpha) > bound or abs(eta - opt.eta) > bound:
                return False, f"K={k}: expansion error above {bound:.2e}"
        return True, f"C = {c_const}"

    _check(9, "large-K expansion accuracy", 1.0, body)


def test_criterion_10_deterministic_compare_output():
    def body():
        golden = GOLDEN_CSV.read_bytes()
        for attempt in range(2):
            proc = subprocess.run(
                [
                    sys.executable, "-m", "pgsearch",
                    "compare", "--k", "2..30", "--format", "csv",
                ],
                capture_output=True,
            )
            if proc.returncode != 0:
                return False, f"exit {proc.returncode}: {proc.stderr!r}"
            if proc.stdout != golden:
                return False, f"attempt {attempt}: output differs from the golden CSV"
        return True, ""

    _check(10, "deterministic compare output", 5.0, body)

"""Output checks, computed apart from the code under test where possible.

Closed forms for the optimum, the costs, the bounds and the final state
are written out here from the paper's formulas.  The exact optimizer is
checked through ``run_schedule`` (its threshold and one-query-fewer
minimality) and the full engine against the reduced one, as the
certification they exist for requires.  Each ``check_*`` returns a list
of problems, empty when the report is right.
"""

from __future__ import annotations

import csv
import json
import math
import re

from workloads import search_box

# Absolute tolerance of values printed in full precision (json, csv) ...
EXACT_TOL = 1e-9
# ... and relative tolerance of text output, printed to 6 significant digits.
TEXT_RTOL = 1e-5
ENGINE_TOL = 1e-10  # full engine against the reduced engine


def optimum(k: float) -> tuple[float, float]:
    """(alpha_K, eta_K) of the stationarity system; K = inf is the limit."""
    if math.isinf(k):
        return math.pi / 6, math.sqrt(3) / 2
    alpha = 0.5 * math.acos((k - 2) / (2.0 * (k - 1)))
    eta = 0.5 * math.sqrt(k) * math.atan2(math.sqrt(3 * k - 4), k - 2)
    return alpha, eta


def asymptotic_schedule(n: int, k: int) -> tuple[int, int]:
    alpha, eta = optimum(k)
    sqrt_b = math.sqrt(n // k)
    return (max(0, round(math.pi * math.sqrt(n) / 4.0 - eta * sqrt_b)),
            round(alpha * sqrt_b))


def final_state(n: int, k: int, j1: int, j2: int, trailing: bool):
    """Per-item amplitudes (target, in-block rest, outside) of a schedule,
    in closed form: each iteration is a rotation in a fixed plane of the
    orthonormal class basis (target t, in-block rest r, outside o)."""
    b = n // k
    th1, th2 = math.asin(1 / math.sqrt(n)), math.asin(1 / math.sqrt(b))
    # j1 globals rotate the uniform state within span(t, w), w = the
    # uniform sum of all non-targets.
    phi = (2 * j1 + 1) * th1
    wr, wo = math.sqrt((b - 1) / (n - 1)), math.sqrt((n - b) / (n - 1))
    rho = math.cos(phi)
    x_t, x_r, x_o = math.sin(phi), rho * wr, rho * wo
    # j2 locals rotate (t, r) by 2*theta2 each and leave o alone.
    radius, beta = math.hypot(x_t, x_r), math.atan2(x_t, x_r)
    x_t = radius * math.sin(beta + 2 * j2 * th2)
    x_r = radius * math.cos(beta + 2 * j2 * th2)
    if trailing:
        # A global rotates (t, w) by 2*theta1 and negates w's complement.
        y_w, y_perp = x_r * wr + x_o * wo, x_r * wo - x_o * wr
        c, s = math.cos(2 * th1), math.sin(2 * th1)
        x_t, y_w = c * x_t + s * y_w, c * y_w - s * x_t
        y_perp = -y_perp
        x_r, x_o = y_w * wr + y_perp * wo, y_w * wo - y_perp * wr
    return (x_t, x_r / math.sqrt(b - 1) if b > 1 else 0.0,
            x_o / math.sqrt(n - b) if n > b else 0.0)


def _success(n: int, k: int, amps) -> tuple[float, float]:
    """(block success, item success) of per-item class amplitudes."""
    return amps[0] ** 2 + (n // k - 1) * amps[1] ** 2, amps[0] ** 2


def _value(text: str):
    if text in ("true", "false"):
        return text == "true"
    try:
        return int(text)
    except ValueError:
        try:
            return float(text)
        except ValueError:
            return text


def parse(fmt: str, report: bytes, table: bool = True):
    """Rows of a table report (list of dicts) or the pairs of a key/value
    report (one dict), whatever the format."""
    text = report.decode()
    if fmt == "json":
        return json.loads(text)
    lines = text.splitlines()
    if fmt == "csv":
        header, *body = csv.reader(lines)
        rows = [{key: _value(v) for key, v in zip(header, r)} for r in body]
        return rows if table else rows[0]
    if not table:
        return {key: _value(v) for key, v in (line.split(None, 1) for line in lines)}
    starts = [m.start() for m in re.finditer(r"\S+", lines[0])]
    keys = lines[0].split()
    rows = []
    for line in lines[1:]:
        cells = [line[a:b].strip() for a, b in zip(starts, starts[1:] + [None])]
        rows.append({key: _value(cell) for key, cell in zip(keys, cells)})
    return rows


class _Checker:
    """Collects problems of one report."""

    def __init__(self, fmt: str):
        self.fmt = fmt
        self.problems: list[str] = []

    def equal(self, what: str, got, want) -> None:
        if got != want:
            self.problems.append(f"{what}: got {got!r}, want {want!r}")

    def close(self, what: str, got, want, tol: float | None = None) -> None:
        if tol is None:
            tol = (TEXT_RTOL * abs(want) + 1e-12 if self.fmt == "text"
                   else EXACT_TOL)
        if isinstance(got, bool) or not isinstance(got, (int, float)) \
                or not abs(got - want) <= tol:
            self.problems.append(f"{what}: got {got!r}, want {want!r}")


def _arg(argv: list[str], flag: str, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _k_values(spec: str) -> list[float]:
    values = []
    for token in spec.split(","):
        if token == "inf":
            values.append(math.inf)
        elif ".." in token:
            lo, hi = token.split("..")
            values.extend(float(k) for k in range(int(lo), int(hi) + 1))
        else:
            values.append(float(token))
    return values


def check_optimize(argv, report: bytes) -> list[str]:
    fmt = _arg(argv, "--format", "text")
    c = _Checker(fmt)
    ks = _k_values(_arg(argv, "--k"))
    rows = parse(fmt, report)
    if fmt == "json" and len(ks) == 1:
        rows = [rows]
    c.equal("rows", len(rows), len(ks))
    for k, row in zip(ks, rows):
        alpha, eta = optimum(k)
        if math.isinf(k):  # json spells infinity as a string
            want_k = "inf" if fmt == "json" else k
        else:
            want_k = int(k)
        c.equal("K", row.get("k", row.get("K")), want_k)
        c.close(f"alpha K={k}", row["alpha"], alpha)
        c.close(f"eta K={k}", row["eta"], eta)
        c.close(f"c K={k}", row["c"], eta - alpha)
    return c.problems


def check_bound(argv, report: bytes) -> list[str]:
    fmt = _arg(argv, "--format", "text")
    c = _Checker(fmt)
    n, k = int(_arg(argv, "--n")), int(_arg(argv, "--k"))
    parsed = parse(fmt, report)
    bounds = parsed["bounds"] if fmt == "json" else \
        {row["variant"]: row["queries"] for row in parsed}
    alpha, eta = optimum(k)
    sqrt_n, sqrt_b = math.sqrt(n), math.sqrt(n // k)
    base = math.pi * sqrt_n / 4.0
    j1, j2 = asymptotic_schedule(n, k)
    want = {
        "basic": base - math.pi * sqrt_b / 4.0,
        "tighter": base - math.pi * sqrt_b / 6.0,
        "alpha_exact": base + (0.5 * alpha - math.pi / 4.0) * sqrt_b,
        "achieved_asymptotic": (math.pi / 4.0 + (alpha - eta) / math.sqrt(k)) * sqrt_n,
    }
    c.equal("variants", sorted(bounds), sorted([*want, "achieved"]))
    for variant, value in want.items():
        c.close(variant, bounds.get(variant), value)
    c.equal("achieved", bounds.get("achieved"), j1 + j2 + 1)
    if fmt == "json":
        c.equal("n", parsed["n"], n)
        c.equal("k", parsed["k"], k)
    return c.problems


def _check_schedule_row(c: _Checker, n: int, k: int, row: dict) -> None:
    j1, j2 = row["j1"], row["j2"]
    c.equal("trailing_global", row["trailing_global"], True)
    c.equal("queries", row["queries"], j1 + j2 + 1)
    block, _ = _success(n, k, final_state(n, k, j1, j2, True))
    c.close(f"{row['mode']} block_success", row["block_success"], block)


def check_schedule(argv, report: bytes, run_schedule=None) -> list[str]:
    """``schedule``; with ``--exact``, ``run_schedule`` must be given."""
    fmt = _arg(argv, "--format", "text")
    c = _Checker(fmt)
    n, k = int(_arg(argv, "--n")), int(_arg(argv, "--k"))
    parsed = parse(fmt, report)
    rows = parsed["schedules"] if fmt == "json" else parsed
    exact = "--exact" in argv
    c.equal("modes", [row["mode"] for row in rows],
            ["asymptotic", "exact"] if exact else ["asymptotic"])
    if c.problems:
        return c.problems
    c.equal("asymptotic (j1, j2)", (rows[0]["j1"], rows[0]["j2"]),
            asymptotic_schedule(n, k))
    for row in rows:
        _check_schedule_row(c, n, k, row)
    if fmt == "json":
        c.equal("n", parsed["n"], n)
        c.equal("k", parsed["k"], k)
    if exact:
        threshold = float(_arg(argv, "--threshold", "0.99"))
        if fmt == "json":
            c.equal("threshold", parsed["threshold"], threshold)
        c.problems += _exact_minimal(n, k, threshold, rows[1], run_schedule)
    return c.problems


def _exact_minimal(n, k, threshold, row, run_schedule) -> list[str]:
    """The exact schedule is in the box, reaches the threshold through
    ``run_schedule``, and no in-box schedule one query cheaper does."""
    from pgsearch.model import Schedule, block_success_probability, make_geometry

    g = make_geometry(n, k)
    j1_max, j2_max = search_box(n, k)
    j1, j2 = row["j1"], row["j2"]
    if not (0 <= j1 <= j1_max and 0 <= j2 <= j2_max):
        return [f"exact schedule ({j1}, {j2}) outside the box"]
    p = block_success_probability(run_schedule(g, Schedule(j1, j2)), g)
    if p < threshold:
        return [f"exact schedule ({j1}, {j2}) reaches only {p!r} < {threshold}"]
    if abs(p - row["block_success"]) > 1e-12:
        return [f"exact block_success {row['block_success']!r} != re-run {p!r}"]
    cheaper = row["queries"] - 2  # j1 + j2 of a schedule one query cheaper
    for j2c in range(max(0, cheaper - j1_max), min(j2_max, cheaper) + 1):
        final = run_schedule(g, Schedule(cheaper - j2c, j2c))
        if block_success_probability(final, g) >= threshold:
            return [f"({cheaper - j2c}, {j2c}) uses one query fewer and qualifies"]
    return []


def check_simulate(argv, report: bytes, run_schedule=None) -> list[str]:
    """``simulate``; the full engine needs ``run_schedule`` as reference."""
    fmt = _arg(argv, "--format", "text")
    c = _Checker(fmt)
    n, k = int(_arg(argv, "--n")), int(_arg(argv, "--k", "2"))
    j1, j2 = int(_arg(argv, "--j1", "0")), int(_arg(argv, "--j2", "0"))
    trailing = "--no-trailing" not in argv
    engine = _arg(argv, "--engine", "reduced")
    got = parse(fmt, report, table=False)
    keys = ["n", "k", "engine", "j1", "j2", "trailing_global", "queries",
            "amp_target", "amp_ntt", "amp_nb", "block_success", "item_success"]
    if engine == "full":
        keys += ["target", "coherence_residual"]
    c.equal("keys", sorted(got), sorted(keys))
    if c.problems:
        return c.problems
    for key, want in (("n", n), ("k", k), ("engine", engine), ("j1", j1),
                      ("j2", j2), ("trailing_global", trailing),
                      ("queries", j1 + j2 + trailing)):
        c.equal(key, got[key], want)
    if engine == "full":
        from pgsearch.model import Schedule, make_geometry

        c.equal("target", got["target"], int(_arg(argv, "--target", "0")))
        ref = run_schedule(make_geometry(n, k), Schedule(j1, j2, trailing))
        amps = (ref.amp_target, ref.amp_ntt, ref.amp_nb)
        tol = ENGINE_TOL
        if not 0 <= got["coherence_residual"] <= ENGINE_TOL:
            c.problems.append(f"coherence_residual {got['coherence_residual']!r}")
    else:
        amps, tol = final_state(n, k, j1, j2, trailing), None
    for key, want in zip(("amp_target", "amp_ntt", "amp_nb"), amps):
        c.close(key, got[key], want, tol)
    block, item = _success(n, k, amps)
    c.close("block_success", got["block_success"], block, tol)
    c.close("item_success", got["item_success"], item, tol)
    return c.problems


def check_reload(report: bytes, printed: bytes) -> list[str]:
    """A reloaded PGSV file reduces to the printed amplitudes bit for bit."""
    got, sim = json.loads(report), json.loads(printed)
    problems = [f"{key}: reloaded {got[key]!r} != printed {sim[key]!r}"
                for key in ("amp_target", "amp_ntt", "amp_nb",
                            "coherence_residual") if got[key] != sim[key]]
    if abs(got["block_sum"] - 1.0) > ENGINE_TOL:
        problems.append(f"block distribution sums to {got['block_sum']!r}")
    if abs(got["target_block"] - sim["block_success"]) > ENGINE_TOL:
        problems.append(f"target block {got['target_block']!r} != "
                        f"block_success {sim['block_success']!r}")
    return problems


def check_compare(argv, report: bytes) -> list[str]:
    fmt = _arg(argv, "--format", "text")
    c = _Checker(fmt)
    ks = [int(k) for k in _k_values(_arg(argv, "--k"))]
    rows = parse(fmt, report)
    c.equal("rows", len(rows), len(ks))
    for k, row in zip(ks, rows):
        alpha, eta = optimum(k)
        c.equal("K", row.get("k", row.get("K")), k)
        c.close(f"s_coeff K={k}", row["s_coeff"],
                math.pi / 4.0 + (alpha - eta) / math.sqrt(k))
        c.close(f"r_coeff K={k}", row["r_coeff"],
                math.pi / 4.0 * math.sqrt((k - 1.0) / k))
        c.close(f"p_interrupted K={k}", row["p_interrupted"],
                (k - 2) ** 2 / (k * (k - 1)))
        c.close(f"c K={k}", row["c"], eta - alpha)
        note = str(row["note"])
        if not (("misprint" in note) if k == 4 else note == ""):
            c.problems.append(f"note of K={k}: {note!r}")
        if len(c.problems) > 10:
            break
    return c.problems


def check(request: dict, report: bytes, code: int, run_schedule,
          previous: bytes | None = None) -> list[str]:
    """Problems of one request's exit code and report."""
    if code != request["expect"]:
        return [f"exit code {code}, want {request['expect']}"]
    kind = request["kind"]
    if kind == "invalid":
        return [] if report == b"" else ["refused request printed a report"]
    if kind == "reload":
        return check_reload(report, previous)
    try:
        if kind in ("schedule", "simulate"):
            checker = check_schedule if kind == "schedule" else check_simulate
            return checker(request["argv"], report, run_schedule)
        return {"optimize": check_optimize, "bound": check_bound,
                "compare": check_compare}[kind](request["argv"], report)
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        return [f"unreadable report: {exc!r}"]

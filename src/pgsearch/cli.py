"""Command-line front end.

Five subcommands cover the library surface:

* ``optimize``  closed-form optimal coefficients per block count
* ``schedule``  integer iteration counts for a concrete database
* ``simulate``  run a schedule on either engine and report amplitudes
* ``compare``   cost table: blockwise search vs. random block pick
* ``bound``     query lower bounds vs. the achieved asymptotic cost

Reports go to stdout (or ``--output PATH``) in one of three formats:
``text`` (aligned, 6 significant digits), ``json`` (full double
precision, sorted keys), ``csv`` (RFC-4180 style, header row, LF line
endings).  Identical invocations produce byte-identical output.

Exit codes: 0 success, 2 invalid arguments or an unwritable path,
3 no feasible schedule, 4 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys

from .analysis import (
    MAX_TABLE_K,
    comparison_table,
    lower_bound_queries,
    partial_search_coefficient,
)
from .errors import BadKError, CapExceededError, InfeasibleError, PartialSearchError
from .model import (
    Schedule,
    block_success_probability,
    item_success_probability,
    make_geometry,
    run_schedule,
)
from .optimizer import asymptotic_optimum, asymptotic_schedule, optimal_exact_schedule
from .statevector import save_state, sv_reduce, sv_run_schedule

__all__ = ["main", "parse_k_spec"]


def parse_k_spec(spec: str) -> list[float]:
    """Parse block-count specs like ``"4"``, ``"2..5"``, or ``"2..5,inf"``;
    at most MAX_TABLE_K values, counted before any range is expanded."""
    values: list[float] = []
    for token in spec.split(","):
        token = token.strip()
        if token == "inf":
            values.append(math.inf)
            continue
        if ".." in token:
            lo_text, _, hi_text = token.partition("..")
            try:
                lo, hi = int(lo_text), int(hi_text)
            except ValueError as exc:
                raise argparse.ArgumentTypeError(
                    f"bad block-count range {token!r}"
                ) from exc
            if hi < lo:
                raise argparse.ArgumentTypeError(
                    f"descending block-count range {token!r}"
                )
            if len(values) + hi - lo + 1 > MAX_TABLE_K:
                raise argparse.ArgumentTypeError(
                    f"block-count spec {spec!r} has more than {MAX_TABLE_K} values"
                )
            values.extend(float(k) for k in range(lo, hi + 1))
            continue
        try:
            values.append(float(int(token)))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad block count {token!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError(f"empty block-count spec {spec!r}")
    return values


def _int_at_least(lo: int):
    """Argparse type for integers >= lo."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
        if value < lo:
            raise argparse.ArgumentTypeError(
                "must be a positive integer" if lo == 1 else f"must be >= {lo}"
            )
        return value

    return parse


def _cell(value, exact: bool) -> str:
    """One report cell: floats as repr() when exact, else 6 significant digits."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value) if exact else format(value, ".6g")
    return str(value)


def _render(fmt: str, rows: list[dict], doc, header=None, transpose=False) -> str:
    """Render a report: ``doc`` as JSON, or ``rows`` as a CSV or text table.

    ``header`` overrides the column names (default: the row keys).  With
    ``transpose`` the text form prints one ``name  value`` line per column,
    for single-row reports.
    """
    if fmt == "json":
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    header = header or list(rows[0])
    if fmt == "csv":
        sink = io.StringIO()
        writer = csv.writer(sink, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_cell(v, True) for v in row.values()] for row in rows)
        return sink.getvalue()
    cells = [[_cell(v, False) for v in row.values()] for row in rows]
    lines = list(zip(header, *cells)) if transpose else [header, *cells]
    widths = [max(len(cell) for cell in column) for column in zip(*lines)]
    return "".join(
        "  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip() + "\n"
        for line in lines
    )


def cmd_optimize(args) -> str:
    rows = []
    for k in args.k:
        opt = asymptotic_optimum(k)
        k_cell = "inf" if math.isinf(k) else int(k)
        rows.append({"k": k_cell, "alpha": opt.alpha, "eta": opt.eta, "c": opt.c})
    doc = rows[0] if len(rows) == 1 else rows
    return _render(args.format, rows, doc, header=["K", "alpha", "eta", "c"])


def _schedule_row(mode: str, g, schedule: Schedule) -> dict:
    final = run_schedule(g, schedule)
    return {
        "mode": mode,
        "j1": schedule.j1,
        "j2": schedule.j2,
        "trailing_global": schedule.trailing_global,
        "queries": schedule.queries,
        "block_success": block_success_probability(final, g),
    }


def cmd_schedule(args) -> str:
    g = make_geometry(args.n, args.k)
    rows = [_schedule_row("asymptotic", g, asymptotic_schedule(g))]
    doc = {"n": args.n, "k": args.k, "schedules": rows}
    if args.exact:
        rows.append(
            _schedule_row("exact", g, optimal_exact_schedule(g, args.threshold))
        )
        doc["threshold"] = args.threshold
    return _render(args.format, rows, doc)


def cmd_simulate(args) -> str:
    g = make_geometry(args.n, args.k)
    schedule = Schedule(args.j1, args.j2, trailing_global=args.trailing)
    row = {"n": args.n, "k": args.k, "engine": args.engine}
    if args.engine == "full":
        full = sv_run_schedule(g, args.target, schedule, cap=args.state_cap)
        reduced, coherence = sv_reduce(full)
        if args.emit_state:
            save_state(full, args.emit_state)
        row["target"] = args.target
        full_only = {"coherence_residual": coherence}
    else:
        reduced = run_schedule(g, schedule)
        full_only = {}
    row.update(j1=schedule.j1, j2=schedule.j2, trailing_global=schedule.trailing_global,
               queries=schedule.queries, **full_only, amp_target=reduced.amp_target,
               amp_ntt=reduced.amp_ntt, amp_nb=reduced.amp_nb,
               block_success=block_success_probability(reduced, g),
               item_success=item_success_probability(reduced))
    return _render(args.format, [row], row, transpose=True)


def cmd_compare(args) -> str:
    rows = []
    for k in args.k:
        if math.isinf(k):
            raise BadKError("compare requires finite block counts")
        r = comparison_table(int(k), int(k))[0]
        rows.append({"k": r.n_blocks, "s_coeff": r.s_coeff, "r_coeff": r.r_coeff,
                     "p_interrupted": r.p_interrupted, "c": r.c, "note": r.note})
    header = ["K", "s_coeff", "r_coeff", "p_interrupted", "c", "note"]
    return _render(args.format, rows, rows, header=header)


def cmd_bound(args) -> str:
    g = make_geometry(args.n, args.k)
    bounds = {
        "basic": lower_bound_queries(g, "basic"),
        "tighter": lower_bound_queries(g, "tighter"),
        "alpha_exact": lower_bound_queries(g, "alpha_exact"),
        "achieved": asymptotic_schedule(g).queries,
        "achieved_asymptotic": partial_search_coefficient(args.k) * math.sqrt(args.n),
    }
    rows = [{"variant": name, "queries": q} for name, q in bounds.items()]
    return _render(args.format, rows, {"n": args.n, "k": args.k, "bounds": bounds})


_N = ("--n", dict(type=_int_at_least(1), required=True, help="database size"))
_K = ("--k", dict(type=_int_at_least(1), required=True, help="block count"))


def _k_spec(examples: str):
    return ("--k", dict(type=parse_k_spec, required=True, metavar="SPEC",
                        help=f"block counts, e.g. {examples}"))


# name: (handler, help, [(flag, add_argument keywords)]); every subcommand
# also takes --format and --output.
_COMMANDS = {
    "optimize": (
        cmd_optimize, "closed-form optimal coefficients per block count",
        [_k_spec('"4", "2..5", "2..5,inf"')],
    ),
    "schedule": (
        cmd_schedule, "integer iteration counts for a concrete database",
        [_N, _K,
         ("--exact", dict(action="store_true", help=(
             "also find the cheapest schedule meeting --threshold"))),
         ("--threshold", dict(type=float, default=0.99, help=(
             "block success required by --exact (default 0.99)")))],
    ),
    "simulate": (
        cmd_simulate, "run one schedule and report amplitudes",
        [_N,
         ("--k", dict(type=_int_at_least(1), default=2,
                      help="block count (default 2)")),
         ("--j1", dict(type=_int_at_least(0), default=0, help="global iterations")),
         ("--j2", dict(type=_int_at_least(0), default=0, help="local iterations")),
         ("--trailing", dict(action=argparse.BooleanOptionalAction, default=True,
                             help="apply the final global iteration (default: yes)")),
         ("--engine", dict(choices=("reduced", "full"), default="reduced",
                           help="reduced 3-class dynamics or full state vector")),
         ("--target", dict(type=_int_at_least(0), default=0,
                           help="target item index (full engine; default 0)")),
         ("--emit-state", dict(metavar="PATH", default=None, help=(
             "write the final full state as a PGSV binary dump"))),
         ("--state-cap", dict(type=_int_at_least(1), default=None, help=(
             "override the amplitude cap of the full engine (default 2**24)")))],
    ),
    "compare": (
        cmd_compare, "cost table: blockwise search vs. random block pick",
        [_k_spec('"2..30"')],
    ),
    "bound": (
        cmd_bound, ("query lower bounds (asymptotic, for near-certain "
                    "success) vs. the achieved asymptotic cost"),
        [_N, _K],
    ),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and building it costs more than most requests."""
    parser = argparse.ArgumentParser(
        prog="pgsearch",
        description="Simulate and optimize blockwise (partial) Grover search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, description=help_text)
        for flag, options in flags:
            p.add_argument(flag, **options)
        p.add_argument(
            "--format", choices=("text", "json", "csv"), default="text",
            help="report format (default: text, 6 significant digits)",
        )
        p.add_argument(
            "--output", metavar="PATH", default=None,
            help="write the report to PATH instead of stdout",
        )
        p.set_defaults(handler=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "emit_state", None) and args.engine != "full":
        parser.error("--emit-state requires --engine full")
    try:
        text = args.handler(args)
        if args.output:
            with open(args.output, "w", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (PartialSearchError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, InfeasibleError):
            return 3
        return 4 if isinstance(exc, CapExceededError) else 2
    return 0

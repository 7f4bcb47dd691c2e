"""Command-line front end.

Five subcommands cover the library surface:

* ``optimize``  closed-form optimal coefficients per block count
* ``schedule``  integer iteration counts for a concrete database
* ``simulate``  run a schedule on either engine and report amplitudes
* ``compare``   cost table: blockwise search vs. random block pick
* ``bound``     query lower bounds vs. the achieved asymptotic cost

Schedules are reported from ``model.schedule_state``, O(1) at any N.
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
import itertools
import json
import math
import sys

from .analysis import (
    MAX_TABLE_K,
    _check_table_range,
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
    schedule_state,
)
from .optimizer import asymptotic_optimum, asymptotic_schedule, optimal_exact_schedule

__all__ = ["main", "parse_k_spec"]


def parse_k_spec(spec: str) -> list[int | float]:
    """Parse block-count specs like ``"4"``, ``"2..5"``, or ``"2..5,inf"``
    into exact ints, with ``math.inf`` for ``inf``; at most MAX_TABLE_K
    values, counted before any range is expanded.  Counts beyond the float
    range are refused."""
    values: list[int | float] = []
    for token in spec.split(","):
        token = token.strip()
        if token == "inf":
            values.append(math.inf)
            continue
        lo_text, dots, hi_text = token.partition("..")
        kind = "block-count range" if dots else "block count"
        try:
            lo = int(lo_text)
            hi = int(hi_text) if dots else lo
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad {kind} {token!r}") from exc
        if hi < lo:
            raise argparse.ArgumentTypeError(
                f"descending block-count range {token!r}"
            )
        if len(values) + hi - lo + 1 > MAX_TABLE_K:
            raise argparse.ArgumentTypeError(
                f"block-count spec {spec!r} has more than {MAX_TABLE_K} values"
            )
        try:
            float(lo), float(hi)
        except OverflowError as exc:  # beyond the float range
            raise argparse.ArgumentTypeError(f"bad {kind} {token!r}") from exc
        values.extend(range(lo, hi + 1))
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


#: The format() spec of a text cell, by value type: 6 significant digits
#: for floats, str() for ints and strings.
_TEXT_SPECS = {float: ".6g", int: "", str: ""}

#: Encodes a list of flat dicts in one pass of the C encoder, with every
#: member on a line of its own; _render re-indents the list level.
_RECORDS_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",\n    ", ": "))

#: Encodes a flat dict or list the same way; _json indents it.
_FLAT_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",\n", ": "))


def _json(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, whose indenting
    encoder is pure Python: here each dict or list of scalars is one C
    encoder call, re-indented, and only the levels above it recurse."""
    if not (isinstance(value, (dict, list)) and value):
        return _FLAT_ENCODER.encode(value)
    inner, brackets = indent + "  ", "{}" if isinstance(value, dict) else "[]"
    members = value.values() if isinstance(value, dict) else value
    if not any(isinstance(v, (dict, list)) and v for v in members):
        body = _FLAT_ENCODER.encode(value)[1:-1].replace("\n", "\n" + inner)
    elif isinstance(value, dict):  # str keys
        body = f",\n{inner}".join(f"{_FLAT_ENCODER.encode(k)}: {_json(v, inner)}"
                                  for k, v in sorted(value.items()))
    else:
        body = f",\n{inner}".join(_json(v, inner) for v in value)
    return f"{brackets[0]}\n{inner}{body}\n{indent}{brackets[1]}"


def _render(fmt: str, header: list[str], rows, doc, transpose=False) -> str:
    """Render a report: ``doc`` as JSON, or ``rows`` as a CSV or text table.

    ``rows`` hold the bools, ints, floats and strings of each table row in
    ``header`` order.  A list ``doc`` holds one flat dict per row.  With
    ``transpose`` the text form prints one ``name  value`` line per column,
    for single-row reports.  Cells are made by C-level maps, not per cell.
    """
    if fmt == "json":
        if isinstance(doc, list):
            # The bytes json.dumps(doc, indent=2, sort_keys=True) gives: an
            # encoded string holds no raw newline, so "},\n    {" occurs only
            # between two rows.
            body = _RECORDS_ENCODER.encode(doc)[2:-2]
            body = body.replace("},\n    {", "\n  },\n  {\n    ")
            return "[\n  {\n    " + body + "\n  }\n]\n"
        return _json(doc) + "\n"
    # Cells row after row, regrouped into rows by zip(*[iter(values)] * width);
    # `del values` frees them before the report text is copied.
    values, width = list(itertools.chain.from_iterable(rows)), len(header)
    if bool in set(map(type, values)):
        values = [("true" if v else "false") if type(v) is bool else v for v in values]
    if fmt == "csv":  # csv.writer writes ints and strings by str(), floats by repr()
        sink = io.StringIO()
        writer = csv.writer(sink, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(zip(*[iter(values)] * width))
        del values
        return sink.getvalue()
    values = list(map(format, values, map(_TEXT_SPECS.get, map(type, values))))
    if transpose:
        columns = [header, *zip(*[iter(values)] * width)]
    else:
        columns = [[name, *values[i::width]] for i, name in enumerate(header)]
    del values
    template = "  ".join([f"{{:<{max(map(len, column))}}}" for column in columns])
    return "\n".join(map(str.rstrip, map(template.format, *columns))) + "\n"


def cmd_optimize(args) -> str:
    rows = []
    for k in args.k:
        opt = asymptotic_optimum(k)
        rows.append({"k": "inf" if math.isinf(k) else k, "alpha": opt.alpha,
                     "eta": opt.eta, "c": opt.c})
    doc = rows[0] if len(rows) == 1 else rows
    return _render(args.format, ["K", "alpha", "eta", "c"],
                   [row.values() for row in rows], doc)


def _schedule_row(mode: str, g, schedule: Schedule) -> dict:
    final = schedule_state(g, schedule)
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
    return _render(args.format, list(rows[0]), [row.values() for row in rows], doc)


def cmd_simulate(args) -> str:
    g = make_geometry(args.n, args.k)
    schedule = Schedule(args.j1, args.j2, trailing_global=args.trailing)
    row = {"n": args.n, "k": args.k, "engine": args.engine}
    if args.engine == "full":
        # imported here, so the reduced commands stay pure Python
        from .statevector import save_state, sv_reduce, sv_run_schedule

        full = sv_run_schedule(g, args.target, schedule, cap=args.state_cap)
        reduced, coherence = sv_reduce(full)
        if args.emit_state:
            save_state(full, args.emit_state)
        row["target"] = args.target
        full_only = {"coherence_residual": coherence}
    else:
        reduced = schedule_state(g, schedule)
        full_only = {}
    row.update(j1=schedule.j1, j2=schedule.j2, trailing_global=schedule.trailing_global,
               queries=schedule.queries, **full_only, amp_target=reduced.amp_target,
               amp_ntt=reduced.amp_ntt, amp_nb=reduced.amp_nb,
               block_success=block_success_probability(reduced, g),
               item_success=item_success_probability(reduced))
    return _render(args.format, list(row), [row.values()], row, transpose=True)


def _contiguous_runs(ks: list[int | float]) -> list[list[int]]:
    """Split block counts into runs of consecutive values, in spec order.

    The first count, in spec order, that the comparison table does not
    cover raises the error that tabulating it alone would.
    """
    if not (2 <= min(ks) and max(ks) <= MAX_TABLE_K):
        k = next(k for k in ks if not 2 <= k <= MAX_TABLE_K)
        if math.isinf(k):
            raise BadKError("compare requires finite block counts")
        _check_table_range(k, k)  # raises
    runs, last = [], None
    for k in ks:
        if k - 1 == last:
            runs[-1][1] = k
        else:
            runs.append([k, k])
        last = k
    return runs


def cmd_compare(args) -> str:
    runs = _contiguous_runs(args.k)  # refuses a bad spec before any row is built
    # Rows are built as the report consumes them, so each run's table is
    # freed before the text is assembled.
    rows = (row for lo, hi in runs for row in comparison_table(lo, hi))
    doc = [{"k": k, "s_coeff": s, "r_coeff": r, "p_interrupted": p, "c": c,
            "note": note} for k, s, r, p, c, note in rows
           ] if args.format == "json" else None
    header = ["K", "s_coeff", "r_coeff", "p_interrupted", "c", "note"]
    return _render(args.format, header, rows, doc)


def cmd_bound(args) -> str:
    g = make_geometry(args.n, args.k)
    bounds = {
        "basic": lower_bound_queries(g, "basic"),
        "tighter": lower_bound_queries(g, "tighter"),
        "alpha_exact": lower_bound_queries(g, "alpha_exact"),
        "achieved": asymptotic_schedule(g).queries,
        "achieved_asymptotic": partial_search_coefficient(args.k) * math.sqrt(args.n),
    }
    return _render(args.format, ["variant", "queries"], bounds.items(),
                   {"n": args.n, "k": args.k, "bounds": bounds})


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

"""Command-line front end.

Five subcommands cover the library surface:

* ``optimize``  closed-form optimal coefficients per block count
* ``schedule``  integer iteration counts for a concrete database
* ``simulate``  run a schedule on either engine and report amplitudes
* ``compare``   cost table: blockwise search vs. random block pick
* ``bound``     query lower bounds vs. the achieved asymptotic cost

Schedules are reported from ``model.schedule_state``, O(1) at any N.
Reports go to stdout (or ``--output PATH``) in one of three formats:
``text`` (aligned, 6 significant digits), ``json`` (byte for byte
``json.dumps(doc, indent=2, sort_keys=True)``, full double precision),
``csv`` (RFC-4180 style, header row, LF line endings).  The list reports
of ``compare`` and multi-K ``optimize`` are written record by record
from a template.  Identical invocations produce byte-identical output.

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


def _render(fmt: str, header: list[str], rows, doc, transpose=False) -> str:
    """Render a report: ``doc`` as ``json.dumps(doc, indent=2, sort_keys=True)``,
    or ``rows`` as a CSV or text table.

    ``rows`` hold the bools, ints, floats and strings of each table row in
    ``header`` order.  With ``transpose`` the text form prints one
    ``name  value`` line per column, for single-row reports.  Cells are
    made by C-level maps, not per cell.
    """
    if fmt == "json":
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
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


#: One record of a list report as json.dumps(records, indent=2, sort_keys=True)
#: writes it, keys in sorted order: ints and (always finite) floats by repr,
#: as the C encoder writes them, and strings (%s) already encoded.
_COMPARE_RECORD = ('  {\n    "c": %r,\n    "k": %r,\n    "note": %s,\n'
                   '    "p_interrupted": %r,\n    "r_coeff": %r,\n    "s_coeff": %r\n  }')
_OPTIMIZE_RECORD = '  {\n    "alpha": %r,\n    "c": %r,\n    "eta": %r,\n    "k": %s\n  }'


def _records_json(template: str, records) -> str:
    """A list report of one or more records as JSON: each tuple of values
    formatted by ``template``, record by record, with no dict per record."""
    parts, records = [], map(template.__mod__, records)
    while piece := ",\n".join(itertools.islice(records, 4096)):
        parts += (",\n", piece)
    parts[0] = "[\n"  # in place of the first separator
    parts.append("\n]\n")
    return "".join(parts)


def cmd_optimize(args) -> str:
    optima = zip(args.k, map(asymptotic_optimum, args.k))
    if args.format == "json" and len(args.k) > 1:
        return _records_json(_OPTIMIZE_RECORD, (
            (o.alpha, o.c, o.eta, '"inf"' if math.isinf(k) else k) for k, o in optima))
    rows = [("inf" if math.isinf(k) else k, o.alpha, o.eta, o.c) for k, o in optima]
    return _render(args.format, ["K", "alpha", "eta", "c"], rows,
                   dict(zip(["k", "alpha", "eta", "c"], rows[0])))


def _schedule_row(mode: str, g, schedule: Schedule) -> dict:
    return {"mode": mode, **schedule._asdict(), "queries": schedule.queries,
            "block_success": block_success_probability(schedule_state(g, schedule), g)}


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
    row.update(schedule._asdict(), queries=schedule.queries, **full_only,
               **reduced._asdict(), block_success=block_success_probability(reduced, g),
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


def _compare_records(tables):
    """The values of each compare row in ``_COMPARE_RECORD`` order, zipped
    from its table's columns."""
    for table in tables:
        k, s, r, p, c, note = zip(*table)
        yield from zip(c, k, map(json.encoder.encode_basestring_ascii, note), p, r, s)


def cmd_compare(args) -> str:
    runs = _contiguous_runs(args.k)  # refuses a bad spec before any row is built
    # Tables are built as the report consumes them, so each run's table is
    # freed before the text is assembled.
    tables = (comparison_table(lo, hi) for lo, hi in runs)
    if args.format == "json":
        return _records_json(_COMPARE_RECORD, _compare_records(tables))
    header = ["K", "s_coeff", "r_coeff", "p_interrupted", "c", "note"]
    return _render(args.format, header, itertools.chain.from_iterable(tables), None)


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

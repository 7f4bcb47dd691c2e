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
``csv`` (RFC-4180 style, header row, LF line endings); the JSON list
reports of ``compare`` and multi-K ``optimize`` are keyed by the
lower-cased header.  Identical invocations produce byte-identical output.

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
import operator
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
from .optimizer import (_check_k, asymptotic_optimum, asymptotic_schedule,
                        optimal_exact_schedule)

__all__ = ["main", "parse_k_spec"]


def parse_k_spec(spec: str) -> list[int | float]:
    """Parse block-count specs like ``"4"``, ``"2..5"``, or ``"2..5,inf"``
    into exact ints, with ``math.inf`` for ``inf``; at most MAX_TABLE_K
    values, counted before any range is expanded.  Counts beyond the float
    range are refused."""
    return [*itertools.chain.from_iterable(_k_parts(spec))]


def _k_parts(spec: str) -> list[range | tuple[float]]:
    """The parts of a block-count spec, unexpanded and in spec order: a
    ``range`` per count or range, ``(math.inf,)`` per ``inf``; see
    :func:`parse_k_spec`."""
    parts: list[range | tuple[float]] = []
    values = 0
    for token in spec.split(","):
        token = token.strip()
        if token == "inf":
            parts.append((math.inf,))
            values += 1
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
        values += hi - lo + 1
        if values > MAX_TABLE_K:
            raise argparse.ArgumentTypeError(
                f"block-count spec {spec!r} has more than {MAX_TABLE_K} values"
            )
        try:
            float(lo), float(hi)
        except OverflowError as exc:  # beyond the float range
            raise argparse.ArgumentTypeError(f"bad {kind} {token!r}") from exc
        parts.append(range(lo, hi + 1))
    if not parts:
        raise argparse.ArgumentTypeError(f"empty block-count spec {spec!r}")
    return parts


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
    """A fixed-size report: ``doc`` as ``json.dumps(doc, indent=2, sort_keys=True)``,
    ``rows`` as a CSV or text :func:`_table`; with ``transpose`` the text form
    prints one ``name  value`` line per column, for single-row reports."""
    if fmt == "json":
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if transpose and fmt == "text":
        header, *rows = zip(header, *rows)
    return "".join(_table(fmt, header, rows))


def _table(fmt: str, header: list[str], rows):
    """Yield the table of ``rows`` under ``header``, at most 4096 rows a
    piece: as text, CSV, or the JSON list that json.dumps writes of the
    records ``dict(zip(map(str.lower, header), row))`` with indent=2 and
    sorted keys.  Cells are bools, ints, floats and strings, made into text
    by C-level maps; JSON takes one or more rows of ints, finite floats
    (whose str() is what the C encoder writes) and strings."""
    width, sink = len(header), io.StringIO()
    rows = itertools.chain([header] if fmt != "json" else [], rows)
    chunks = enumerate(iter(lambda: [*itertools.islice(rows, 4096)], []))
    if fmt == "json":
        encode, keys = json.encoder.encode_basestring_ascii, [*map(str.lower, header)]
        picks = [operator.itemgetter(keys.index(key)) for key in sorted(keys)]
        template = "  {\n%s\n  }" % ",\n".join([f"    {encode(k)}: %s" for k in sorted(keys)])
        for i, chunk in chunks:
            # Columns read from the rows: a transposed chunk grew RSS by about 10%.
            columns = [map(pick, chunk) for pick in picks]
            for j, pick in enumerate(picks):  # strings are encoded cell by cell
                if str in set(map(type, map(pick, chunk))):
                    columns[j] = (encode(v) if type(v) is str else v for v in columns[j])
            yield (",\n" if i else "[\n") + ",\n".join(map(template.__mod__, zip(*columns)))
        yield "\n]\n"
        return
    writer, kept, widths = csv.writer(sink, lineterminator="\n"), [], [0] * width
    for _, chunk in chunks:
        # Cells row after row, regrouped into rows by zip(*[iter(values)] * width).
        values = [*itertools.chain.from_iterable(chunk)]
        if bool in set(map(type, values)):
            values = [("true" if v else "false") if type(v) is bool else v for v in values]
        if fmt == "csv":  # csv.writer writes ints and strings by str(), floats by repr()
            writer.writerows(zip(*[iter(values)] * width))
            yield sink.getvalue()
            sink.truncate(sink.seek(0))
            continue
        values = [*map(format, values, map(_TEXT_SPECS.get, map(type, values)))]
        widths = [*map(max, widths, [max(map(len, values[i::width])) for i in range(width)])]
        # Kept until all widths are known: as one string, unless a cell has "\0".
        kept.append(j if (j := "\0".join(values)).count("\0") < len(values) else values)
    template = "  ".join([f"{{:<{w}}}" for w in widths])
    for values in kept:
        values = values.split("\0") if type(values) is str else values
        lines = itertools.starmap(template.format, zip(*[iter(values)] * width))
        yield "\n".join(map(str.rstrip, lines)) + "\n"


def cmd_optimize(args):
    header = ["K", "alpha", "eta", "c"]
    for part in args.k:  # every count, before any row is written
        _check_k(part[0])
    rows = (("inf" if math.isinf(k) else k, *asymptotic_optimum(k)[:3])
            for k in itertools.chain.from_iterable(args.k))
    if sum(map(len, args.k)) > 1:
        return _table(args.format, header, rows)
    row = next(rows)
    return [_render(args.format, header, [row], dict(zip(map(str.lower, header), row)))]


def _schedule_row(mode: str, g, schedule: Schedule) -> dict:
    return {"mode": mode, **schedule._asdict(), "queries": schedule.queries,
            "block_success": block_success_probability(schedule_state(g, schedule), g)}


def cmd_schedule(args) -> list[str]:
    g = make_geometry(args.n, args.k)
    rows = [_schedule_row("asymptotic", g, asymptotic_schedule(g))]
    doc = {"n": args.n, "k": args.k, "schedules": rows}
    if args.exact:
        rows.append(
            _schedule_row("exact", g, optimal_exact_schedule(g, args.threshold))
        )
        doc["threshold"] = args.threshold
    return [_render(args.format, list(rows[0]), [row.values() for row in rows], doc)]


def cmd_simulate(args) -> list[str]:
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
    return [_render(args.format, list(row), [row.values()], row, transpose=True)]


def _contiguous_runs(parts: list[range | tuple[float]]) -> list[list[int]]:
    """Merge the parts of a block-count spec into runs of consecutive
    values, in spec order.

    The first count, in spec order, that the comparison table does not
    cover raises the error that tabulating it alone would.
    """
    runs: list[list[int]] = []
    for part in parts:
        lo, hi = part[0], part[-1]
        if not 2 <= lo <= hi <= MAX_TABLE_K:
            if math.isinf(lo):
                raise BadKError("compare requires finite block counts")
            k = lo if lo < 2 else max(lo, MAX_TABLE_K + 1)
            _check_table_range(k, k)  # raises
        if runs and lo - 1 == runs[-1][1]:
            runs[-1][1] = hi
        else:
            runs.append([lo, hi])
    return runs


def cmd_compare(args):
    runs = _contiguous_runs(args.k)  # refuses a bad spec before any row is built
    # Tables of at most 4096 K, each built as the writer takes its rows.
    tables = (comparison_table(lo, min(lo + 4095, hi))
              for first, hi in runs for lo in range(first, hi + 1, 4096))
    header = ["K", "s_coeff", "r_coeff", "p_interrupted", "c", "note"]
    return _table(args.format, header, itertools.chain.from_iterable(tables))


def cmd_bound(args) -> list[str]:
    g = make_geometry(args.n, args.k)
    bounds = {
        "basic": lower_bound_queries(g, "basic"),
        "tighter": lower_bound_queries(g, "tighter"),
        "alpha_exact": lower_bound_queries(g, "alpha_exact"),
        "achieved": asymptotic_schedule(g).queries,
        "achieved_asymptotic": partial_search_coefficient(args.k) * math.sqrt(args.n),
    }
    return [_render(args.format, ["variant", "queries"], bounds.items(),
                    {"n": args.n, "k": args.k, "bounds": bounds})]


_N = ("--n", dict(type=_int_at_least(1), required=True, help="database size"))
_K = ("--k", dict(type=_int_at_least(1), required=True, help="block count"))


def _k_spec(examples: str):
    return ("--k", dict(type=_k_parts, required=True, metavar="SPEC",
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
        report = args.handler(args)  # checks the whole request first
        if args.output:
            with open(args.output, "w", newline="") as fh:
                fh.writelines(report)
        else:
            sys.stdout.writelines(report)
    except (PartialSearchError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, InfeasibleError):
            return 3
        return 4 if isinstance(exc, CapExceededError) else 2
    return 0

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
lower-cased header.  CSV is what ``csv.writer`` writes, made by one ``%s``
template per row: no string the CLI writes holds a comma, a double quote,
a CR, an LF or a NUL, and no one-column table has an empty cell, so no
cell is quoted.  Identical invocations produce byte-identical output.

Command lines are parsed by argparse, the only source of usage and error
text, or, when canonical, from a table of the same argparse actions, which
gives the same namespace in about a tenth of the time.  An argv is canonical when
its first token names a subcommand and every later token is an exact option
string of that subcommand, used at most once, or the one value after an
option that takes one; no value starts with ``-``, every value converts
under the option's type and lies in its choices, and every required option
is present.  Everything else goes to argparse: ``-h``, abbreviations,
``--flag=value``, repeated or unknown flags, dash-leading values, and every
refused argv.

Exit codes: 0 success, 2 invalid arguments or an unwritable path,
3 no feasible schedule, 4 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import operator
import os
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
    ``range`` per count or range, one for a run of adjacent ones, and
    ``(math.inf,)`` per ``inf``; see :func:`parse_k_spec`."""
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
        if parts and type(parts[-1]) is range and parts[-1].stop == lo:
            parts[-1] = range(parts[-1].start, hi + 1)  # adjacent: one part
        else:
            parts.append(range(lo, hi + 1))
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


#: Rows in one list of a list report, and block counts in one compare table.
_CHUNK = 4096

#: The format() spec of a text cell, by value type: 6 significant digits
#: for floats, str() for ints and strings.
_TEXT_SPECS = {float: ".6g", int: "", str: ""}

_JSON_WORDS = {None: "null", True: "true", False: "false"}.__getitem__
#: What json writes for a scalar, by exact type; a non-finite float as
#: ``json.dumps`` writes it, by the C encoder: NaN, Infinity or -Infinity.
_JSON_SCALARS = {str: json.encoder.encode_basestring_ascii, int: int.__repr__,
                 float: lambda v: float.__repr__(v) if math.isfinite(v) else json.dumps(v),
                 bool: _JSON_WORDS, type(None): _JSON_WORDS}


def _json(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` for string-keyed dicts,
    lists and the scalars of :data:`_JSON_SCALARS`.  Before Python 3.13 json
    writes an indented document in pure Python, at about twice this cost;
    delete this writer once ``requires-python`` reaches 3.13."""
    write = _JSON_SCALARS.get(type(value))
    if write is not None:
        return write(value)
    inner, encode = indent + "  ", json.encoder.encode_basestring_ascii
    if type(value) is dict:
        items = [f"{encode(k)}: {_json(v, inner)}" for k, v in sorted(value.items())]
    else:
        items = [_json(v, inner) for v in value]
    ends = "{}" if type(value) is dict else "[]"
    return ends[0] + inner + f",{inner}".join(items) + indent + ends[1] if items else ends


def _render(fmt: str, header: list[str], rows, doc, transpose=False) -> str:
    """A fixed-size report: ``doc`` as ``json.dumps(doc, indent=2, sort_keys=True)``,
    written by :func:`_json`, or ``rows`` as a CSV or text :func:`_table`; with
    ``transpose`` the text form prints one ``name  value`` line per column,
    for single-row reports."""
    if fmt == "json":
        return _json(doc) + "\n"
    if transpose and fmt == "text":
        header, *rows = zip(header, *rows)
    return "".join(_table(fmt, header, rows))


@functools.cache
def _fixed_mmap_threshold() -> None:
    """Fix glibc's mmap threshold at its default 128 KiB, once per process.

    glibc raises the threshold to the size of each large block freed (up
    to 32 MiB); blocks below it then come from the heap, whose freed pages
    it keeps.  How much of them a later report can reuse depends on what
    the process allocated in between, so in a process that makes many
    reports the peak RSS of one 10^5-row JSON ``compare`` ranged from 58
    to 81 MiB.  With the threshold fixed, a block of 128 KiB or more is
    mapped when made and unmapped when freed, and that peak held at
    57 MiB.  Does nothing on another C library."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc"):
            return
    except (AttributeError, ValueError, OSError):  # no confstr, or not glibc
        return
    import ctypes

    ctypes.CDLL(None).mallopt(-3, 128 * 1024)  # M_MMAP_THRESHOLD


def _chunks(rows):
    """Number and yield ``rows`` in lists of ``_CHUNK``; a report that runs past
    one list first fixes the mmap threshold (:func:`_fixed_mmap_threshold`)."""
    for i, chunk in enumerate(iter(lambda: [*itertools.islice(rows, _CHUNK)], [])):
        if i == 1:
            _fixed_mmap_threshold()
        yield i, chunk


def _table(fmt: str, header: list[str], rows):
    """Yield the table of ``rows`` under ``header``, at most ``_CHUNK`` rows a
    piece: as text, CSV, or the JSON list that json.dumps writes of the
    records ``dict(zip(map(str.lower, header), row))`` with indent=2 and
    sorted keys.  Cells are bools, ints, floats and strings that csv.writer
    writes bare (no comma, double quote, CR, LF or NUL; no empty cell in a
    one-column table), made into text by C-level maps; JSON takes one or
    more rows of ints, finite floats (whose str() is what the C encoder
    writes) and strings."""
    width = len(header)
    rows = itertools.chain([header] if fmt != "json" else [], rows)
    chunks = _chunks(rows)
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
    kept, widths, template = [], [0] * width, ",".join(["%s"] * width) + "\n"
    for _, chunk in chunks:
        # Cells row after row, regrouped into rows by zip(*[iter(values)] * width).
        values = [*itertools.chain.from_iterable(chunk)]
        if bool in set(map(type, values)):
            values = [_JSON_WORDS(v) if type(v) is bool else v for v in values]
        if fmt == "csv":  # as csv.writer: ints and strings by str(), floats by repr()
            yield "".join(map(template.__mod__, zip(*[iter(values)] * width)))
            continue
        values = [*map(format, values, map(_TEXT_SPECS.get, map(type, values)))]
        widths = [*map(max, widths, [max(map(len, values[i::width])) for i in range(width)])]
        # Kept until all widths are known, as one string: no cell has "\0".
        kept.append("\0".join(values))
    template = "  ".join([f"%-{w}s" for w in widths])
    for values in kept:
        lines = map(template.__mod__, zip(*[iter(values.split("\0"))] * width))
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
        if args.emit_state is not None:
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


def cmd_compare(args):
    for part in args.k:  # every part, in spec order, before any row is built
        if math.isinf(part[0]):
            raise BadKError("compare requires finite block counts")
        _check_table_range(part[0], part[0])
        k = min(part[-1], max(part[0], MAX_TABLE_K + 1))  # first K past the table, if any
        _check_table_range(k, k)
    # Tables of at most _CHUNK K, each built as the writer takes its rows.
    tables = (comparison_table(lo, min(lo + _CHUNK - 1, part[-1]))
              for part in args.k for lo in part[::_CHUNK])
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


#: The flags every subcommand takes after its own.
_SHARED = [
    ("--format", dict(choices=("text", "json", "csv"), default="text",
                      help="report format (default: text, 6 significant digits)")),
    ("--output", dict(metavar="PATH", default=None,
                      help="write the report to PATH instead of stdout")),
]

# name: (handler, help, [(flag, add_argument keywords)]); every subcommand
# also takes the _SHARED flags.
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
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, tuple]]:
    """The command-line parser and, per subcommand, the table that
    :func:`_parse_canonical` reads: ``(subparser, {option string: action},
    required actions, namespace defaults)``, made from the actions that
    ``add_argument`` returns.  Built once per process: parsing leaves both
    unchanged, and building them costs more than most requests."""
    parser = argparse.ArgumentParser(
        prog="pgsearch",
        description="Simulate and optimize blockwise (partial) Grover search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    tables = {}
    for name, (handler, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, description=help_text)
        actions = [p.add_argument(flag, **options) for flag, options in flags + _SHARED]
        p.set_defaults(handler=handler)
        tables[name] = (
            p, {flag: a for a in actions for flag in a.option_strings},
            frozenset(a for a in actions if a.required),
            # in the order argparse sets them
            {"command": name, **{a.dest: a.default for a in actions}, "handler": handler},
        )
    return parser, tables


def _parse_canonical(argv: list[str], tables) -> argparse.Namespace | None:
    """The namespace ``parser.parse_args(argv)`` returns, for a canonical
    argv (see the module docstring); None for any other argv.  Each option
    of the CLI takes one value or none; values are converted, checked and
    stored by the argparse action itself."""
    table = tables.get(argv[0]) if argv else None
    if table is None:
        return None
    sub, options, required, defaults = table
    args, seen, tokens = argparse.Namespace(), set(), iter(argv[1:])
    vars(args).update(defaults)  # a third of the time of Namespace(**defaults)
    for token in tokens:
        action = options.get(token)
        if action is None or action in seen:
            return None
        seen.add(action)
        value = []  # what argparse passes an option that takes no value
        if action.nargs != 0:
            value = next(tokens, "-")  # a missing value reads as dash-leading
            if value.startswith("-"):
                return None
            try:
                value = action.type(value) if action.type else value
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
            if action.choices is not None and value not in action.choices:
                return None
        action(sub, args, value, token)
    return args if required <= seen else None


def main(argv: list[str] | None = None) -> int:
    parser, tables = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    args = _parse_canonical(argv, tables) or parser.parse_args(argv)
    if getattr(args, "emit_state", None) is not None:
        if args.engine != "full":
            parser.error("--emit-state requires --engine full")
        if args.output is not None and (
                os.path.realpath(args.output) == os.path.realpath(args.emit_state)):
            parser.error("--output and --emit-state name the same file")
    try:
        report = args.handler(args)  # checks the whole request first
        if args.output is not None:  # "" too: open() refuses it
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

"""The CSV list-report writer against ``csv.writer``, on the running Python.

``cli._table`` writes CSV rows through one ``%s`` template alone, which
gives csv's bytes only for cells that csv writes bare: no string holding a
comma, a double quote, a CR, an LF or a NUL, and no empty cell in a
one-column table.  Every report the CLI makes keeps to that, as checked
here.  Nothing here imports numpy or hypothesis, so this module also runs
where only pytest is, on every Python that ``requires-python`` claims."""

import csv
import io
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pgsearch.cli as cli
from pgsearch.analysis import MISPRINT_NOTE_K4

from test_list_workers import chunked
from test_pins import GOLDEN_CASES, GOLDEN_DIR, _assert_same_report

SRC = Path(__file__).resolve().parent.parent / "src"

#: The fixed edge strings of ``tests/test_cli.py::_SCALARS`` that csv writes
#: bare, and strings made of the template's own characters.
EDGE_STRINGS = ["", " ", "café", "日本", "tab\t", "trailing  ", "{0}", "}{",
                "%s", "%%", "%"]
CELLS = [*EDGE_STRINGS, True, False, 0, -7, 2**70, 0.1, -0.0, 5e-324, 1e16,
         math.nan, -math.inf]


def _reference(header, rows) -> str:
    """The table as csv.writer writes it, bools as ``true``/``false``."""
    sink = io.StringIO()
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([("true" if v else "false") if type(v) is bool else v
                      for v in row] for row in rows)
    return sink.getvalue()


@pytest.mark.parametrize("header, width", [
    ("names", 1), ("names", 2), ("names", 3), ("empty", 2), ("empty", 3)])
def test_csv_table_matches_csv_writer(width, header):
    # Every row of ``width`` cells drawn from CELLS, 10,648 at width 3; no
    # empty cell in a one-column table, which csv quotes.
    header = {"names": [f"h{i}" for i in range(width)], "empty": [""] * width}[header]
    cells = [cell for cell in CELLS if width > 1 or cell != ""]
    rows = [*itertools.product(cells, repeat=width)]
    _assert_same_report("".join(cli._table("csv", header, chunked(rows))),
                        _reference(header, rows))
    for cell in cells:  # each cell alone, first in a table of plain rows
        rows = [(cell,) * width, *[(1,) * width] * 5000]
        _assert_same_report("".join(cli._table("csv", header, chunked(rows))),
                            _reference(header, rows), repr(cell))


CSV_GOLDENS = sorted(GOLDEN_DIR.glob("*.csv"))


def test_csv_goldens_are_the_csv_cases():
    """The files checked below are every CSV case of ``cases.json``."""
    assert CSV_GOLDENS
    assert [path.name for path in CSV_GOLDENS] == sorted(
        case_id for case_id in GOLDEN_CASES if case_id.endswith(".csv"))


@pytest.mark.parametrize("path", CSV_GOLDENS, ids=lambda path: path.name)
def test_csv_goldens_need_no_quoting(path):
    """Each CSV golden is what csv.writer writes of its own cells, and holds
    no double quote: no cell of it is quoted."""
    text = path.read_bytes().decode()
    assert '"' not in text, path.name
    header, *rows = csv.reader(io.StringIO(text, newline=""))
    _assert_same_report(_reference(header, rows), text, path.name)


def _json_report(argv, capsys):
    assert cli.main([*argv, "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)


def test_no_string_the_cli_writes_needs_quoting(capsys):
    """The string cells of the CLI's reports, goldens or not: the compare
    note, the ``inf`` block count, the schedule modes, the bound variants
    and the simulate engines.  csv writes each bare, even alone in a
    one-column table."""
    schedule = _json_report(["schedule", "--n", "1024", "--k", "4", "--exact"], capsys)
    bound = _json_report(["bound", "--n", "1024", "--k", "4"], capsys)
    engines = cli._build_parser()[1]["simulate"][1]["--engine"].choices
    strings = [MISPRINT_NOTE_K4, "inf", *[row["mode"] for row in schedule["schedules"]],
               *bound["bounds"], *engines]
    assert len(strings) == 2 + 2 + 5 + 2
    for value in strings:
        assert value and not set(value) & set(',"\r\n\0'), value
        assert _reference([value], [[value]]) == f"{value}\n{value}\n"


def test_csv_is_not_imported_by_the_cli():
    """``import pgsearch.cli`` loads no csv, nor does a CSV compare report,
    whose strings need no quoting (``-S``: no site hook imports it either)."""
    script = ("import sys, pgsearch.cli as cli; print('csv' in sys.modules); "
              "cli.main(['compare', '--k', '2..5000', '--format', 'csv']); "
              "print('csv' in sys.modules)")
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    assert (lines[0], lines[1], lines[-1]) == (
        "False", "K,s_coeff,r_coeff,p_interrupted,c,note", "False")
    assert len(lines) == 2 + 4999 + 1

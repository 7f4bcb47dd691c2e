"""The CSV list-report writer against ``csv.writer``, on the running Python.

``cli._table`` writes CSV rows through one ``%s`` template and hands csv
only the strings it would quote; which of those csv quotes differs between
Python versions.  Nothing here imports numpy or hypothesis, so this module
also runs where only pytest is, on every Python that ``requires-python``
claims."""

import csv
import io
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pgsearch.cli as cli

from test_pins import _assert_same_report

SRC = Path(__file__).resolve().parent.parent / "src"

#: csv before Python 3.11 refuses to write a NUL ("need to escape");
#: later versions write it bare, as ``cli._table`` does on every version.
NUL_REFUSED = sys.version_info < (3, 11)

#: The fixed edge strings of ``tests/test_cli.py::_SCALARS``, and strings
#: made of the template's own characters.
EDGE_STRINGS = ["", " ", "a,b", 'say "hi"', "two\nlines", "cr\r", "café",
                "日本", "tab\t", "trailing  ", "{0}", "}{", "%s", "%%", "%",
                ",", '"', "\r\n", "\n", *([] if NUL_REFUSED else ["nul\x00"])]
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


@pytest.mark.parametrize("width", [1, 2, 3])
@pytest.mark.parametrize("header", ["names", "empty", "quoted"])
def test_csv_table_matches_csv_writer(width, header):
    # Every row of ``width`` cells drawn from CELLS, 29,791 at width 3, so
    # that chunks with and without quoted strings follow each other.
    header = {"names": [f"h{i}" for i in range(width)], "empty": [""] * width,
              "quoted": ["a,b", "cr\r", 'say "hi"'][:width]}[header]
    rows = [*itertools.product(CELLS, repeat=width)]
    _assert_same_report("".join(cli._table("csv", header, rows)), _reference(header, rows))
    for cell in CELLS:  # each cell alone, first in a table of plain rows
        rows = [(cell,) * width, *[(1,) * width] * 5000]
        _assert_same_report("".join(cli._table("csv", header, rows)),
                            _reference(header, rows), repr(cell))


def test_csv_writes_nul_bare():
    assert "".join(cli._table("csv", ["a", "b"], [("nul\x00", 1)])) == "a,b\nnul\x00,1\n"


def test_csv_quotes_a_string_holding_a_nul_as_3_11_does():
    rows = [("a,\x00", '\x00"'), ("\x00\ue000\n", 1)]
    assert "".join(cli._table("csv", ["a", "b"], rows)) == (
        'a,b\n"a,\x00","\x00"""\n"\x00\ue000\n",1\n')


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

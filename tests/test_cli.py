"""End-to-end checks of the pgsearch command line."""

import argparse
import contextlib
import csv
import ctypes
import io
import json
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import pgsearch.cli as cli
from pgsearch import (
    asymptotic_optimum,
    asymptotic_schedule,
    comparison_table,
    load_state,
    make_geometry,
)
from pgsearch.analysis import MAX_TABLE_K
from pgsearch.cli import _build_parser, main, parse_k_spec

from test_list_workers import chunked
from test_optimizer import _mp_block_success
from test_pins import GOLDEN_CASES, _assert_golden, _assert_same_report


def run_cli(argv, capsys):
    """Invoke main() the way the console script does, catching argparse's
    own exits, and return (exit_code, stdout, stderr)."""
    try:
        code = main(argv)
    except SystemExit as exc:  # parser.error paths
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("case_id", sorted(GOLDEN_CASES))
def test_cli_matches_golden(case_id, capsys):
    code, out, err = run_cli(GOLDEN_CASES[case_id]["argv"], capsys)
    _assert_golden(case_id, code, out.encode(), err)


# ------------------------------------------------------------ small pieces

def test_parse_k_spec_forms():
    assert parse_k_spec("4") == [4]
    assert parse_k_spec("2..5") == [2, 3, 4, 5]
    assert parse_k_spec("2..4,inf") == [2, 3, 4, math.inf]
    assert parse_k_spec("inf") == [math.inf]
    assert parse_k_spec(" 3 , 7 ") == [3, 7]


def test_k_parts_merge_adjacent_ranges_only():
    assert cli._k_parts("2,3,4..6,8") == [range(2, 7), range(8, 9)]
    # an overlap is no merge: K = 3 is reported twice, in spec order
    assert cli._k_parts("2..3,3..4") == [range(2, 4), range(3, 5)]
    assert parse_k_spec("2..3,3..4") == [2, 3, 3, 4]


def test_block_counts_above_2_53_stay_exact(capsys):
    # floats would turn these into 2**53, 2**53 + 2 and 2**53 + 4
    spec = "9007199254740993..9007199254740995"
    assert parse_k_spec(spec) == [2**53 + 1, 2**53 + 2, 2**53 + 3]
    code, out, err = run_cli(["optimize", "--k", spec, "--format", "csv"], capsys)
    assert code == 0 and err == ""
    assert [row[0] for row in csv.reader(io.StringIO(out))][1:] == [
        "9007199254740993", "9007199254740994", "9007199254740995"]


@pytest.mark.parametrize("bad", ["", "x", "5..2", "3..", "1.5"])
def test_parse_k_spec_rejects(bad):
    with pytest.raises(argparse.ArgumentTypeError):
        parse_k_spec(bad)


def test_oversized_k_spec_is_refused_before_expansion(capsys):
    # 10**9 values would need tens of GiB; the count is checked first
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--k", "2..1000000000"])
    assert exc.value.code == 2
    assert "more than 1000000 values" in capsys.readouterr().err
    with pytest.raises(argparse.ArgumentTypeError):
        parse_k_spec("1..10,1..1000000")  # the count spans all ranges
    with pytest.raises(argparse.ArgumentTypeError):
        parse_k_spec("1..1000000,5")  # and single counts


_K_TOKENS = st.one_of(
    st.integers().map(str),
    st.integers(10**300, 10**310).map(str),  # some beyond the float range
    st.just("inf"),
    st.builds("{}..{}".format, st.integers(-5, 2 * 10**6), st.integers(-5, 2 * 10**6)),
    st.builds(lambda lo, width: f"{lo}..{lo + width}",
              st.one_of(st.integers(-5, 2 * 10**6), st.integers(10**300, 10**310)),
              st.integers(-2, 2000)),
    st.text(max_size=8),
    st.text(alphabet="0123456789.,inf +-_", max_size=12),
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), st.lists(_K_TOKENS, max_size=4).map(",".join)))
def test_parse_k_spec_returns_ints_or_refuses(spec):
    try:
        values = parse_k_spec(spec)
    except argparse.ArgumentTypeError:
        return
    assert 0 < len(values) <= MAX_TABLE_K
    assert all(type(v) is int or v == math.inf for v in values)
    for v in values:
        float(v)  # counts beyond the float range are refused


# ---------------------------------------------------------------- renderer

def _reference_cell(value, exact: bool) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value) if exact else format(value, ".6g")
    return str(value)


def _reference_render(fmt, header, rows, doc, transpose=False) -> str:
    """The per-cell report renderer that cli._render and cli._table must
    match byte for byte: a call and an ljust per cell, and json.dumps for
    every JSON doc."""
    if fmt == "json":
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        sink = io.StringIO()
        csv.writer(sink, lineterminator="\n").writerows(
            [header, *([_reference_cell(v, True) for v in row] for row in rows)])
        return sink.getvalue()
    cells = [[_reference_cell(v, False) for v in row] for row in rows]
    lines = list(zip(header, *cells)) if transpose else [header, *cells]
    widths = [max(len(cell) for cell in column) for column in zip(*lines)]
    return "".join(
        "  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip() + "\n"
        for line in lines
    )


_EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e16, 1e-5, 5e-324,
                0.1, 123456.5, 1234567.0]
_SCALARS = st.one_of(
    st.booleans(),
    st.integers(-10**30, 10**30),
    st.floats(),
    st.sampled_from(_EDGE_FLOATS),
    st.text(max_size=10),
    st.sampled_from(["", " ", "a,b", 'say "hi"', "two\nlines", "cr\r", "caf\u00e9",
                     "\u65e5\u672c", "tab\t", "trailing  ", "{0}", "}{", "nul\x00"]),
)


@st.composite
def _tables(draw):
    header = draw(st.lists(st.text(max_size=6), min_size=1, max_size=6))
    rows = draw(st.lists(st.lists(_SCALARS, min_size=len(header),
                                  max_size=len(header)), max_size=6))
    return header, rows


#: More rows than one 4096-row chunk, with strings on both sides of the
#: first boundary and in the last, short chunk.
_LONG_REPORT = (["K", "alpha", "eta", "note"], [
    ("inf" if k in (4095, 4096, 8192) else k, k / 7, -k * 1e-300,
     'q"\\' if k % 4096 < 2 else "") for k in range(8193)])


@settings(max_examples=250, deadline=None)
@given(_tables(), st.sampled_from(["text", "csv"]), st.booleans())
@example(_LONG_REPORT, "text", False)
@example(_LONG_REPORT, "csv", False)
def test_render_matches_per_cell_reference(table, fmt, transpose):
    header, rows = table
    if fmt == "text":  # text keeps cells "\0"-joined; no cell the CLI writes has a NUL
        drop, empty = "\0", ""
    else:  # nor, in CSV, a character that csv quotes, or an empty one-column cell
        drop, empty = ',"\r\n\0', "" if len(header) > 1 else "-"
    drop = dict.fromkeys(map(ord, drop))
    header, *rows = [[(v.translate(drop) or empty) if type(v) is str else v for v in row]
                     for row in [header, *rows]]
    expected = _reference_render(fmt, header, rows, None, transpose)
    _assert_same_report(cli._render(fmt, header, rows, None, transpose), expected)
    if not transpose:
        _assert_same_report("".join(cli._table(fmt, header, chunked(rows))), expected)
    rows = (tuple(row) for row in rows)  # compare passes a generator
    _assert_same_report(cli._render(fmt, header, rows, None, transpose), expected)


_JSON_SCALARS = st.one_of(st.none(), _SCALARS)
_JSON_KEYS = st.one_of(st.text(max_size=6),
                       st.sampled_from(["k", "n", "a,b", 'q"', "\n", "\u00e9"]))
_FLAT = st.one_of(st.dictionaries(_JSON_KEYS, _JSON_SCALARS, max_size=5),
                  st.lists(_JSON_SCALARS, max_size=4))
_DOCS = st.dictionaries(_JSON_KEYS, st.one_of(
    _JSON_SCALARS, _FLAT, st.lists(_FLAT, max_size=3),
    st.dictionaries(_JSON_KEYS, _FLAT, max_size=3),
    st.lists(st.lists(_FLAT, max_size=3), max_size=3),
    st.dictionaries(_JSON_KEYS, st.lists(st.dictionaries(_JSON_KEYS, _FLAT, max_size=3),
                                         max_size=3), max_size=3),
), max_size=6)


@settings(max_examples=250, deadline=None)
@given(_DOCS)
@example([{"k": 1}, [2, "x", None], [], {}])
@example([math.nan, math.inf, -math.inf])
@example({"nan": math.nan, "inf": math.inf, "-inf": -math.inf,
          "in": [math.nan, {"a": -math.inf, "b": [math.inf]}, [[math.nan]]]})
@example({"z": -0.0, "tiny": 5e-324, "big": 1e16, "in": [[-0.0, 5e-324], {"b": 1e16}]})
@example({"a": 2**64 + 1, "b": [-(2**70), {"c": 10**30 + 1}]})
@example({"a": [True, False, None], "b": [[True], {"c": [False, None]}]})
@example({})
@example([])
@example({"d": {}, "l": [], "ld": [{}, [], [{}, []]],
          "dd": {"e": [[], {}], "f": {"g": {}, "h": [[]]}}})
@example({"caf\u00e9": "\u65e5\u672c", "\x00\x1f\x7f": "tab\t nl\n \"q\" \\",
          "\u2028": ["\u2028\u2029", {"\U0001f600": "\ud800"}]})
def test_render_json_dicts_match_json_dumps(doc):
    assert cli._render("json", [], [], doc) == _reference_render("json", [], [], doc)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.dictionaries(_JSON_KEYS, _JSON_SCALARS, min_size=1, max_size=6),
                min_size=1, max_size=5))
def test_render_json_records_match_json_dumps(doc):
    assert cli._render("json", [], [], doc) == _reference_render("json", [], [], doc)


_FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from([-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e16,
                                     1e-5, 0.1, 123456.5, 1.7976931348623157e308]))
_INTS = st.one_of(st.integers(-10**30, 10**30),
                  st.sampled_from([2**53 + 1, -(2**53 + 1), 2**64, 10**30 + 1]))
_NOTES = st.one_of(st.text(max_size=12), st.sampled_from(
    ["", 'say "hi"', "back\\slash", "two\nlines", "caf\u00e9", "\u65e5\u672c",
     "\U0001f600", "\x00\x1f\x7f", "inf", "%s", "%%"]))
_COMPARE_HEADER = ["K", "s_coeff", "r_coeff", "p_interrupted", "c", "note"]
_OPTIMIZE_HEADER = ["K", "alpha", "eta", "c"]
#: The cells of one column: one type, or ints mixed with strings.
_COLUMNS = st.sampled_from([_INTS, _FINITE, _NOTES, st.one_of(_INTS, st.just("inf")),
                            st.one_of(_INTS, _NOTES), st.one_of(_INTS, _FINITE, _NOTES)])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_INTS, _FINITE, _FINITE, _FINITE, _FINITE, _NOTES),
                min_size=1, max_size=5))
def test_compare_records_match_json_dumps(rows):
    dicts = [{"k": k, "s_coeff": s, "r_coeff": r, "p_interrupted": p, "c": c,
              "note": note} for k, s, r, p, c, note in rows]
    assert "".join(cli._table("json", _COMPARE_HEADER, chunked(rows))) == (
        json.dumps(dicts, indent=2, sort_keys=True) + "\n")


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.one_of(_INTS, st.just(math.inf)), _FINITE, _FINITE,
                          _FINITE), min_size=1, max_size=5))
def test_optimize_records_match_json_dumps(rows):
    rows = [("inf" if k == math.inf else k, alpha, eta, c) for k, alpha, eta, c in rows]
    dicts = [{"k": k, "alpha": alpha, "eta": eta, "c": c} for k, alpha, eta, c in rows]
    assert "".join(cli._table("json", _OPTIMIZE_HEADER, chunked(rows))) == (
        json.dumps(dicts, indent=2, sort_keys=True) + "\n")


@st.composite
def _list_reports(draw):
    """A header and rows: the compare and optimize tables with their own
    cell types, or distinct identifiers over drawn columns."""
    header = draw(st.one_of(st.just(_COMPARE_HEADER), st.just(_OPTIMIZE_HEADER), st.lists(
        st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,7}", fullmatch=True),
        min_size=1, max_size=6, unique_by=str.lower)))
    if header is _COMPARE_HEADER:
        columns = [_INTS, _FINITE, _FINITE, _FINITE, _FINITE, _NOTES]
    elif header is _OPTIMIZE_HEADER:
        columns = [st.one_of(_INTS, st.just("inf")), _FINITE, _FINITE, _FINITE]
    else:
        columns = [draw(_COLUMNS) for _ in header]
    return header, draw(st.lists(st.tuples(*columns), min_size=1, max_size=6))


@settings(max_examples=200, deadline=None)
@given(_list_reports())
@example(_LONG_REPORT)
def test_records_json_matches_json_dumps(report):
    header, rows = report
    dicts = [dict(zip(map(str.lower, header), row)) for row in rows]
    assert "".join(cli._table("json", header, chunked(rows))) == (
        json.dumps(dicts, indent=2, sort_keys=True) + "\n")


def _no_pure_python_json(*args, **kwargs):
    raise AssertionError("json's pure-Python encoder was entered")


@pytest.mark.parametrize("case_id", sorted(c for c in GOLDEN_CASES if c.endswith(".json")))
def test_json_reports_skip_json_pure_python_encoder(case_id, capsys, monkeypatch):
    """No JSON report enters json's pure-Python encoder, which json.dumps
    runs for every indented document before Python 3.13."""
    monkeypatch.setattr(json.encoder, "_make_iterencode", _no_pure_python_json)
    with pytest.raises(AssertionError):  # the guard is the name json calls
        json.JSONEncoder(indent=2).iterencode({})
    code, out, err = run_cli(GOLDEN_CASES[case_id]["argv"], capsys)
    _assert_golden(case_id, code, out.encode(), err)


def test_render_json_shapes_the_cli_builds():
    for doc in ({"n": 16, "k": 4, "schedules": [], "bounds": {}},
                {"n": 16, "k": 4, "schedules": [{"mode": "exact", "j1": 1,
                 "trailing_global": True, "block_success": 0.5}], "threshold": 0.9},
                {"a": [[], {}, [1.5, {"b": math.nan}]], "c": -0.0},
                {}):
        assert cli._render("json", [], [], doc) == _reference_render("json", [], [], doc)


# ---------------------------------------------------------------- optimize

def test_optimize_text_single_k(capsys):
    code, out, err = run_cli(["optimize", "--k", "4"], capsys)
    assert code == 0 and err == ""
    header, row = out.splitlines()
    assert header.split() == ["K", "alpha", "eta", "c"]
    assert row.split() == ["4", "0.61548", "0.955317", "0.339837"]


def test_optimize_json_single_is_object(capsys):
    code, out, _ = run_cli(["optimize", "--k", "4", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"k", "alpha", "eta", "c"}
    assert payload["k"] == 4
    assert payload["alpha"] == pytest.approx(0.6154797086703874, rel=1e-15)


def test_optimize_json_list_and_inf(capsys):
    code, out, _ = run_cli(
        ["optimize", "--k", "2..3,inf", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert [row["k"] for row in payload] == [2, 3, "inf"]
    assert payload[2]["alpha"] == pytest.approx(math.pi / 6, rel=1e-15)


def test_optimize_csv_round_trips_floats(capsys):
    code, out, _ = run_cli(["optimize", "--k", "3", "--format", "csv"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "K,alpha,eta,c"
    cells = lines[1].split(",")
    opt = asymptotic_optimum(3)
    assert float(cells[1]) == opt.alpha  # repr() round-trip, no loss
    assert float(cells[2]) == opt.eta
    assert float(cells[3]) == opt.c


def test_optimize_rejects_k1(capsys):
    code, out, err = run_cli(["optimize", "--k", "1"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


# ---------------------------------------------------------------- schedule

def test_schedule_text_asymptotic(capsys):
    code, out, _ = run_cli(["schedule", "--n", "1024", "--k", "4"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == [
        "mode", "j1", "j2", "trailing_global", "queries", "block_success",
    ]
    assert lines[1].split() == ["asymptotic", "10", "10", "true", "21", "0.993497"]


def test_schedule_exact_row(capsys):
    code, out, _ = run_cli(
        [
            "schedule", "--n", "1024", "--k", "4",
            "--exact", "--threshold", "0.999", "--format", "json",
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 1024 and payload["k"] == 4
    assert payload["threshold"] == 0.999
    by_mode = {row["mode"]: row for row in payload["schedules"]}
    assert (by_mode["exact"]["j1"], by_mode["exact"]["j2"]) == (13, 6)
    assert by_mode["exact"]["queries"] == 20
    assert by_mode["exact"]["queries"] <= by_mode["asymptotic"]["queries"]
    assert by_mode["exact"]["block_success"] >= 0.999


def test_schedule_at_2_53_is_closed_form(capsys):
    """The reported row costs O(1): stepping its 58 million queries took
    seconds and drifted past the normalization check."""
    argv = ["schedule", "--n", str(2**53), "--k", "4", "--format", "csv"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert out.splitlines()[-1] == (
        "asymptotic,29206440,29206440,true,58412881,0.9999999999999999")


def test_simulate_at_2_53_is_fast(capsys):
    g = make_geometry(2**53, 2)
    sch = asymptotic_schedule(g)
    argv = ["simulate", "--n", str(2**53), "--k", "2", "--j1", str(sch.j1),
            "--j2", str(sch.j2), "--format", "json"]
    t0 = time.perf_counter()
    code, out, _ = run_cli(argv, capsys)
    assert time.perf_counter() - t0 < 1.0
    assert code == 0
    assert json.loads(out)["block_success"] == pytest.approx(1.0, abs=1e-14)


def test_exact_near_one_threshold_is_infeasible(capsys):
    """No schedule of the box reaches this threshold.  (439, 849) once won
    through run_schedule's drift, which lifted it above 1; at 50 digits it
    falls short."""
    threshold = 0.999999999999999
    code, _, err = run_cli(
        ["schedule", "--exact", "--n", "4194304", "--k", "4",
         "--threshold", repr(threshold)], capsys)
    assert code == 3
    assert err.strip().splitlines()[-1] == (
        "error: no schedule with j1 <= 1609, j2 <= 1609 reaches block "
        "success 0.999999999999999")
    assert _mp_block_success(4194304, 4, 439, 849) < threshold


def test_schedule_json_has_no_threshold_without_exact(capsys):
    code, out, _ = run_cli(
        ["schedule", "--n", "64", "--k", "4", "--format", "json"], capsys
    )
    assert code == 0
    assert "threshold" not in json.loads(out)


def test_schedule_rejects_non_dividing_k(capsys):
    code, _, err = run_cli(["schedule", "--n", "1000", "--k", "3"], capsys)
    assert code == 2
    assert "error:" in err


def test_schedule_infeasible_exit_code(capsys):
    code, _, err = run_cli(
        [
            "schedule", "--n", "16", "--k", "2",
            "--exact", "--threshold", "0.999999999999999",
        ],
        capsys,
    )
    assert code == 3
    assert "no schedule" in err


def test_schedule_threshold_domain_exit_code(capsys):
    code, _, err = run_cli(
        ["schedule", "--n", "16", "--k", "2", "--exact", "--threshold", "1.5"],
        capsys,
    )
    assert code == 2


# ---------------------------------------------------------------- simulate

def test_simulate_reduced_text_n4(capsys):
    code, out, _ = run_cli(["simulate", "--n", "4", "--k", "2"], capsys)
    assert code == 0
    report = dict(
        line.split(None, 1) for line in out.splitlines()
    )
    assert report["engine"] == "reduced"
    assert report["queries"] == "1"
    assert report["amp_target"] == "1"
    assert report["amp_nb"] == "0"
    assert report["block_success"] == "1"
    assert report["item_success"] == "1"


def test_simulate_engines_agree(capsys):
    args = ["--n", "4096", "--k", "8", "--j1", "20", "--j2", "5", "--format", "json"]
    code, out, _ = run_cli(["simulate"] + args, capsys)
    assert code == 0
    reduced = json.loads(out)
    code, out, _ = run_cli(
        ["simulate"] + args + ["--engine", "full", "--target", "777"], capsys
    )
    assert code == 0
    full = json.loads(out)

    assert full["target"] == 777
    assert full["coherence_residual"] <= 1e-12
    for key in ("amp_target", "amp_ntt", "amp_nb", "block_success", "item_success"):
        assert full[key] == pytest.approx(reduced[key], abs=1e-12)
    for key in ("n", "k", "j1", "j2", "queries", "trailing_global"):
        assert full[key] == reduced[key]


def test_simulate_full_respects_default_cap(capsys):
    code, _, err = run_cli(
        ["simulate", "--n", str(2**25), "--k", "2", "--engine", "full"], capsys
    )
    assert code == 4
    assert "cap" in err


def test_simulate_state_cap_override(capsys):
    code, _, err = run_cli(
        [
            "simulate", "--n", "1024", "--k", "2",
            "--engine", "full", "--state-cap", "512",
        ],
        capsys,
    )
    assert code == 4


def test_simulate_full_refuses_work_beyond_cap(tmp_path, capsys):
    # 16 amplitudes times 10**12 queries: stepping them would never end
    out_file = tmp_path / "state.pgsv"
    start = time.perf_counter()
    code, out, err = run_cli(
        ["simulate", "--engine", "full", "--n", "16", "--k", "4",
         "--j1", "1000000000000", "--emit-state", str(out_file)],
        capsys,
    )
    assert time.perf_counter() - start < 1.0
    assert code == 4
    assert out == ""
    assert err.splitlines()[-1] == (
        "error: 65536000000065536 amplitude-queries exceed the cap of 137438953472")
    assert not out_file.exists()


def test_simulate_full_charges_a_tile_per_query(capsys):
    # 2**21 + 1 queries on 2 amplitudes, about 25 s of tile-sized steps
    start = time.perf_counter()
    code, out, err = run_cli(["simulate", "--engine", "full", "--n", "2", "--k", "2",
                              "--j1", str(2**21)], capsys)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (4, "")
    assert err.splitlines()[-1] == (
        "error: 137439019008 amplitude-queries exceed the cap of 137438953472")
    code, _, _ = run_cli(["simulate", "--engine", "full", "--n", "2", "--k", "2",
                          "--j1", "1000", "--format", "csv"], capsys)
    assert code == 0


def test_simulate_emit_state_requires_full_engine(tmp_path, capsys):
    out_file = tmp_path / "state.pgsv"
    code, _, err = run_cli(
        ["simulate", "--n", "16", "--k", "2", "--emit-state", str(out_file)],
        capsys,
    )
    assert code == 2
    assert not out_file.exists()


def test_simulate_emit_state_round_trip(tmp_path, capsys):
    out_file = tmp_path / "state.pgsv"
    code, _, _ = run_cli(
        [
            "simulate", "--n", "64", "--k", "4", "--j1", "3", "--j2", "1",
            "--engine", "full", "--target", "21", "--emit-state", str(out_file),
        ],
        capsys,
    )
    assert code == 0
    st = load_state(out_file)
    assert st.geometry.n_items == 64
    assert st.target_index == 21
    assert out_file.stat().st_size == 32 + 8 * 64


def test_simulate_rejects_negative_j1(capsys):
    code, _, _ = run_cli(["simulate", "--n", "16", "--j1", "-1"], capsys)
    assert code == 2


@pytest.mark.parametrize("flag", ["--j1", "--j2"])
@pytest.mark.parametrize("count", [2**53 + 1, 10**400])
def test_simulate_refuses_counts_above_2_53(flag, count, capsys):
    code, out, err = run_cli(["simulate", "--n", "1024", "--k", "4", flag, str(count)],
                             capsys)
    assert (code, out) == (2, "")
    assert err == "error: iteration counts above 2**53 are not supported\n"


_COUNTS = st.one_of(st.integers(-2, 10**400), st.integers(0, 2**60),
                    st.sampled_from([0, 1, 2, 2**53, 2**53 + 1, 10**400]))


@st.composite
def _reduced_argv(draw):
    k = draw(st.one_of(_COUNTS, st.integers(1, 64)))
    n = draw(st.one_of(_COUNTS, st.builds(lambda b: k * b, st.integers(1, 2**20))))
    argv = [draw(st.sampled_from(["simulate", "schedule"])), "--n", str(n),
            "--k", str(k), "--format", draw(st.sampled_from(["text", "json", "csv"]))]
    if argv[0] == "simulate":
        argv += ["--j1", str(draw(_COUNTS)), "--j2", str(draw(_COUNTS))]
    return argv


@settings(max_examples=200, deadline=None)
@given(_reduced_argv())
def test_reduced_requests_exit_0_or_2(argv):
    """Reduced simulate and schedule (no --exact) on counts up to 10**400
    either report or refuse: exit 0 or 2, and nothing else."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(argv)
    except SystemExit as exc:  # parser.error paths
        code = exc.code
    assert code in (0, 2), (argv, sink.getvalue()[-300:])


_SPEC_TOKEN = st.one_of(
    st.integers(-1, 70).map(str), st.just("inf"),
    st.tuples(st.integers(-1, 70), st.integers(-1, 300)).map("{0[0]}..{0[1]}".format),
    st.text("0123456789.,inf -", max_size=6),
)
#: Iteration counts whose work exceeds AMPLITUDE_QUERY_CAP at any N (more
#: than 2**21 queries, each charged at least a 2**16-amplitude tile).
_REFUSED_FULL_COUNTS = [2**21 + 1, 2**40, 2**53 + 1, 10**400]

#: Iteration counts the full engine either runs at once or refuses at once.
_FULL_COUNTS = st.one_of(st.integers(0, 64), st.sampled_from(_REFUSED_FULL_COUNTS))


@pytest.mark.parametrize("n", [2, 1024])
@pytest.mark.parametrize("flag", ["--j1", "--j2"])
@pytest.mark.parametrize("count", _REFUSED_FULL_COUNTS)
def test_refused_full_counts_exit_4_within_a_second(count, flag, n, capsys):
    # every run, not only when hypothesis draws one of these counts
    start = time.perf_counter()
    code, out, _ = run_cli(["simulate", "--engine", "full", "--n", str(n), "--k", "2",
                            flag, str(count), "--no-trailing"], capsys)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (4, "")


@st.composite
def _any_argv(draw, out_dir):
    """A request to any subcommand, in any format, on a small database."""
    command = draw(st.sampled_from(["optimize", "compare", "bound", "schedule",
                                    "simulate", "simulate-full"]))
    argv = [command.partition("-")[0]]
    if command in ("optimize", "compare"):
        argv += ["--k", ",".join(draw(st.lists(_SPEC_TOKEN, min_size=1, max_size=3)))]
    else:
        big = 2**10 if command == "simulate-full" else 2**12
        k = draw(st.integers(-1, 70))
        n = draw(st.one_of(st.integers(-1, big),
                           st.integers(1, big // max(k, 1)).map(lambda b: max(k, 1) * b)))
        argv += ["--n", str(n), "--k", str(k)]
    if command == "schedule" and draw(st.booleans()):
        argv += ["--exact", "--threshold", draw(st.sampled_from(
            ["0.5", "0.9", "0.99", "0.999999", "0", "1", "nan", "-1"]))]
    if command.startswith("simulate"):
        counts = _FULL_COUNTS if command == "simulate-full" else _COUNTS
        argv += ["--j1", str(draw(counts)), "--j2", str(draw(counts)),
                 draw(st.sampled_from(["--trailing", "--no-trailing"]))]
    if command == "simulate-full":
        argv += ["--engine", "full", "--target", str(draw(st.integers(0, 2**10 + 1)))]
        if draw(st.booleans()):
            argv += ["--state-cap", str(draw(st.sampled_from([1, 16, 2**10])))]
    if command.startswith("simulate") and draw(st.booleans()):
        argv += ["--emit-state", str(out_dir / "state.pgsv")]  # reduced: refused
    if draw(st.booleans()):
        argv += ["--output", str(out_dir / "report")]
    argv += ["--format", draw(st.sampled_from(["text", "json", "csv"]))]
    return _respelled(draw, argv) if draw(st.integers(0, 3)) == 0 else argv


def _respelled(draw, argv):
    """argv in forms only argparse parses: option prefixes, --flag=value, a
    repeated option, a token replaced by "" or "-1", -- and -h."""
    out, i = argv[:1], 1
    while i < len(argv):
        token, i = argv[i], i + 1
        value = argv[i] if i < len(argv) and not argv[i].startswith("-") else None
        form = (draw(st.sampled_from(["keep", "prefix", "equals", "repeat"]))
                if token.startswith("--") else "keep")
        if form == "prefix":
            out.append(token[:draw(st.integers(min(3, len(token)), len(token)))])
        elif form == "equals" and value is not None:
            out.append(f"{token}={value}")
            i += 1
        else:
            out += [token, value] if form == "repeat" and value is not None else []
            out.append(token)
    if len(out) > 1 and draw(st.booleans()):
        out[draw(st.integers(1, len(out) - 1))] = draw(st.sampled_from(["", "-1"]))
    for extra in ("--", "-h"):
        if draw(st.integers(0, 3)) == 0:
            out.insert(draw(st.integers(1, len(out))), extra)
    return out


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_request_exits_0_2_3_or_4_within_a_second(data, tmp_path, monkeypatch):
    """Every subcommand, --exact and both engines included, reports, is
    refused, finds no schedule or hits a cap: exit 0, 2, 3 or 4, or
    argparse's SystemExit(2) (or 0 for -h), and no traceback; one request
    in four is respelled in forms only argparse parses."""
    monkeypatch.chdir(tmp_path)  # a respelled --output may be a relative "-1"
    argv = data.draw(_any_argv(tmp_path))
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(argv)
    except SystemExit as exc:  # parser.error paths, and -h
        assert exc.code in ((0, 2) if "-h" in argv else (2,)), (argv, sink.getvalue()[-300:])
    else:
        assert code in (0, 2, 3, 4), (argv, sink.getvalue()[-300:])
    assert time.perf_counter() - start < 1.0, argv


# ----------------------------------------------------------------- compare

def test_compare_csv_header_and_k4_row(capsys):
    code, out, _ = run_cli(["compare", "--k", "2..5", "--format", "csv"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "K,s_coeff,r_coeff,p_interrupted,c,note"
    assert lines[1].startswith("2,0.5553603672697958,0.5553603672697958,0.0,")
    k4 = lines[3].split(",")
    assert k4[0] == "4"
    assert float(k4[1]) == pytest.approx(0.6154797086703874, rel=1e-15)
    assert "suspected misprint" in lines[3]
    assert "0.586" in lines[3]
    # the note stays off every other row
    for line in (lines[1], lines[2], lines[4]):
        assert line.endswith(",")


def test_compare_json_far_k(capsys):
    code, out, _ = run_cli(["compare", "--k", "30", "--format", "json"], capsys)
    assert code == 0
    (row,) = json.loads(out)
    assert row["p_interrupted"] == pytest.approx(0.9011494252873563, rel=1e-12)
    assert row["note"] == ""


def test_compare_rejects_inf(capsys):
    code, _, err = run_cli(["compare", "--k", "inf"], capsys)
    assert code == 2
    assert "finite" in err


_OUTSIDE = "error: block range [{0}, {0}] outside the supported [2, 10**6]"


@pytest.mark.parametrize("spec, last_line", [
    ("2..1000001", _OUTSIDE.format(1000001)),
    ("1000001,inf", _OUTSIDE.format(1000001)),
    ("inf,1000001", "error: compare requires finite block counts"),
    ("5,1,9", _OUTSIDE.format(1)),
    ("5..10,999990..1000005", _OUTSIDE.format(1000001)),
    ("3..5,0..2", _OUTSIDE.format(0)),
    ("2..4,5..9,inf", "error: compare requires finite block counts"),
    ("999999..1000000,1000001", _OUTSIDE.format(1000001)),
])
def test_compare_refuses_bad_specs_before_building_rows(spec, last_line, capsys,
                                                        monkeypatch):
    # the first bad K in spec order is reported as if tabulated alone
    built = []
    table = cli.comparison_table
    monkeypatch.setattr(cli, "comparison_table",
                        lambda lo, hi: built.append((lo, hi)) or table(lo, hi))
    start = time.perf_counter()
    code, out, err = run_cli(["compare", "--k", spec], capsys)
    assert time.perf_counter() - start < 1.0
    assert (code, out, err.splitlines()[-1]) == (2, "", last_line)
    assert built == []


def _reference_compare(spec: str, fmt: str) -> str:
    """The compare report built one K at a time: a single-row table and a
    dict per K."""
    rows = []
    for k in parse_k_spec(spec):
        r = comparison_table(int(k), int(k))[0]
        rows.append({"k": r.n_blocks, "s_coeff": r.s_coeff, "r_coeff": r.r_coeff,
                     "p_interrupted": r.p_interrupted, "c": r.c, "note": r.note})
    return _reference_render(fmt, _COMPARE_HEADER, [list(r.values()) for r in rows], rows)


_RANDOM_LO = random.Random(2005).randint(2, MAX_TABLE_K - 1999)


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("spec", [
    "2..5000",  # holds the K = 4 note
    "999000..1000000",
    "100..200,150..160,7,7,3",
    f"{_RANDOM_LO}..{_RANDOM_LO + 1999}",
])
def test_compare_matches_per_k_reference(spec, fmt, capsys):
    code, out, err = run_cli(["compare", "--k", spec, "--format", fmt], capsys)
    assert (code, err) == (0, "")
    _assert_same_report(out, _reference_compare(spec, fmt))


def _reference_optimize(spec: str, fmt: str) -> str:
    """The multi-K optimize report built one K at a time, a dict per K."""
    rows = []
    for k in parse_k_spec(spec):
        o = asymptotic_optimum(k)
        rows.append({"k": "inf" if k == math.inf else k, "alpha": o.alpha,
                     "eta": o.eta, "c": o.c})
    return _reference_render(fmt, _OPTIMIZE_HEADER, [list(r.values()) for r in rows], rows)


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("spec", [
    "2..5000,inf",  # past the first 4096-record chunk of the JSON writer
    "inf,3,2..4",
])
def test_optimize_matches_per_k_reference(spec, fmt, capsys):
    code, out, err = run_cli(["optimize", "--k", spec, "--format", fmt], capsys)
    assert (code, err) == (0, "")
    _assert_same_report(out, _reference_optimize(spec, fmt))


def _no_gnu_libc_version(name):
    raise ValueError("unrecognized configuration name")


@pytest.mark.parametrize("confstr", [lambda name: "musl 1.2", _no_gnu_libc_version])
def test_mmap_threshold_is_left_alone_off_glibc(confstr, monkeypatch):
    """Another C library, or none that names a glibc version: the hook
    returns before it loads the C library."""
    monkeypatch.setattr(os, "confstr", confstr)
    monkeypatch.setattr(ctypes, "CDLL", lambda *args: pytest.fail("reached ctypes"))
    assert cli._fixed_mmap_threshold.__wrapped__() is None


# ------------------------------------------------------------------- bound

def test_bound_text_1024_4(capsys):
    code, out, _ = run_cli(["bound", "--n", "1024", "--k", "4"], capsys)
    assert code == 0
    report = dict(line.split(None, 1) for line in out.splitlines()[1:])
    assert report["basic"] == "12.5664"
    assert report["tighter"] == "16.7552"
    assert report["alpha_exact"] == "17.4902"
    assert report["achieved"] == "21"
    assert report["achieved_asymptotic"] == "19.6954"


def test_bound_json_ordering(capsys):
    code, out, _ = run_cli(
        ["bound", "--n", "4096", "--k", "8", "--format", "json"], capsys
    )
    assert code == 0
    bounds = json.loads(out)["bounds"]
    assert bounds["basic"] < bounds["tighter"] < bounds["alpha_exact"]
    assert bounds["alpha_exact"] < bounds["achieved_asymptotic"]
    assert isinstance(bounds["achieved"], int)


def test_bound_help_says_bounds_are_asymptotic(capsys):
    code, out, _ = run_cli(["--help"], capsys)
    assert code == 0
    assert "(asymptotic, for near-certain success)" in " ".join(out.split())


def test_subcommand_help_has_description(capsys):
    code, out, _ = run_cli(["bound", "--help"], capsys)
    assert code == 0
    assert "(asymptotic, for near-certain success)" in " ".join(out.split())


def test_bound_rejects_k1(capsys):
    code, _, err = run_cli(["bound", "--n", "1024", "--k", "1"], capsys)
    assert code == 2
    assert err.startswith("error:")


# ---------------------------------------------------------- shared plumbing

def test_output_file_matches_stdout(tmp_path, capsys):
    args = ["compare", "--k", "2..10", "--format", "csv"]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    path = tmp_path / "table.csv"
    code, piped, _ = run_cli(args + ["--output", str(path)], capsys)
    assert code == 0
    assert piped == ""
    assert path.read_text() == out


@pytest.mark.parametrize("flag", ["--output", "--emit-state"])
def test_unwritable_path_exits_2(tmp_path, capsys, flag):
    path = tmp_path / "missing" / "report"
    code, out, err = run_cli(
        ["simulate", "--n", "16", "--k", "2", "--engine", "full", flag, str(path)],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and str(path) in err
    assert not path.parent.exists()


def test_empty_output_path_is_refused_before_any_row(capsys, monkeypatch):
    built = []
    monkeypatch.setattr(cli, "comparison_table", lambda lo, hi: built.append(lo))
    code, out, err = run_cli(["compare", "--k", "2..3", "--output", ""], capsys)
    assert (code, out, built) == (2, "", []) and err.startswith("error:")


def test_empty_emit_state_path_is_refused(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(["simulate", "--n", "16", "--engine", "full",
                              "--emit-state", ""], capsys)
    assert (code, out) == (2, "") and err.startswith("error:")
    assert [*tmp_path.iterdir()] == []


def test_empty_emit_state_path_requires_full_engine(capsys):
    code, out, err = run_cli(["simulate", "--n", "16", "--emit-state", ""], capsys)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].endswith("error: --emit-state requires --engine full")


@pytest.mark.parametrize("spelling", ["state", "./state", "../{dir}/state", "link"])
@pytest.mark.parametrize("exists", [False, True])
def test_output_and_emit_state_naming_one_file_are_refused(
        tmp_path, capsys, monkeypatch, spelling, exists):
    """Both writes to one file would leave only the last; the request is
    refused (exit 2) before the engine runs, and the file is left as found."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "link").symlink_to("state")
    if exists:
        (tmp_path / "state").write_text("kept")
    monkeypatch.setattr(cli, "make_geometry", None)  # any work would raise
    code, out, err = run_cli(
        ["simulate", "--engine", "full", "--n", "16", "--k", "4", "--emit-state", "state",
         "--output", spelling.format(dir=tmp_path.name)], capsys)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].endswith(
        "error: --output and --emit-state name the same file")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "state"][:1 + exists]
    assert not exists or (tmp_path / "state").read_text() == "kept"


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("argv", [["optimize", "--k", "2..5,1"],
                                  ["compare", "--k", "2..5,inf"],
                                  ["compare", "--k", "2..5000,1"]])
def test_refused_list_report_writes_nothing(argv, fmt, tmp_path, capsys):
    path = tmp_path / "report"
    for output in ([], ["--output", str(path)]):
        code, out, err = run_cli(argv + ["--format", fmt] + output, capsys)
        assert (code, out) == (2, "") and err.startswith("error:")
    assert not path.exists()


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_unwritable_output_fails_before_any_row(fmt, tmp_path, capsys, monkeypatch):
    built = []
    monkeypatch.setattr(cli, "comparison_table", lambda lo, hi: built.append(lo))
    path = tmp_path / "missing" / "report"
    start = time.perf_counter()
    code, out, err = run_cli(["compare", "--k", "2..1000000", "--format", fmt,
                              "--output", str(path)], capsys)
    assert time.perf_counter() - start < 1.0
    assert (code, out, built) == (2, "", []) and str(path) in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", [["--k", "2..3"],
                                  ["--k", "2..1000000", "--format", "csv"],
                                  ["--k", "2..1000000", "--format", "json"]])
def test_output_to_a_full_device_exits_2(argv, capsys):
    # A short report fails as the file is closed, a long CSV or JSON one at
    # its first full buffer, before the rest of its rows are made.  (Text
    # writes nothing before all its column widths are known.)
    start = time.perf_counter()
    code, out, err = run_cli(["compare", *argv, "--output", "/dev/full"], capsys)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "") and err.startswith("error:")


def _traced_peak(argv: list[str]) -> int:
    tracemalloc.start()
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("command, fmt", [
    ("compare", "text"), ("compare", "csv"), ("compare", "json"), ("optimize", "json"),
])
def test_list_report_memory_does_not_grow_with_rows(command, fmt):
    """List reports are written 4096 rows at a time, so the traced peak of
    10**5 rows stays within 20% of that of 10**4.  Text also keeps each
    row's cells, compactly, until every column width is known: at most 48
    bytes per row here, where the old writer held several copies of them."""
    small, large = (_traced_peak([command, "--k", f"2..{rows + 1}", "--format", fmt])
                    for rows in (10**4, 10**5))
    kept = 48 * (10**5 - 10**4) if fmt == "text" else 0
    assert large < 1.2 * small + kept, (small, large)


def test_reports_are_deterministic(capsys):
    first = run_cli(["compare", "--k", "2..30", "--format", "csv"], capsys)
    second = run_cli(["compare", "--k", "2..30", "--format", "csv"], capsys)
    assert first == second


def test_parser_is_reused_after_refused_requests(capsys):
    assert _build_parser() is _build_parser()
    for argv in (["schedule", "--n", "abc", "--k", "4"],
                 ["bound", "--n", "1024", "--k", "1"],
                 ["simulate", "--n", "16", "--emit-state", "x.pgsv"]):
        code, _, _ = run_cli(argv, capsys)
        assert code == 2
    for case_id in sorted(GOLDEN_CASES):
        code, out, err = run_cli(GOLDEN_CASES[case_id]["argv"], capsys)
        _assert_golden(case_id, code, out.encode(), err)


#: The goldens spelled in forms only argparse parses, or refused while
#: parsing: the table hands each of these back to argparse.
_ARGPARSE_ONLY = {
    "bound_repeated_n.text", "schedule_1024_4_abbrev.csv", "err_ambiguous_prefix",
    "err_bad_spec", "err_missing_n", "err_negative_j1", "err_negative_j2",
    "err_text_n", "err_unknown_flag", "err_zero_n",
}


def _argparse_result(argv) -> str:
    """repr of the namespace parser.parse_args(argv) returns, or its exit."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return repr(vars(_build_parser()[0].parse_args(argv)))
    except SystemExit as exc:
        return f"exit {exc.code}"


def test_table_parses_every_canonical_golden():
    tables = _build_parser()[1]
    for case_id, case in sorted(GOLDEN_CASES.items()):
        args = cli._parse_canonical(case["argv"], tables)
        assert (args is None) == (case_id in _ARGPARSE_ONLY), case_id
        if args is not None:
            assert repr(vars(args)) == _argparse_result(case["argv"]), case_id


#: Option values: half of them valid for every option without choices.
_VALUES = st.one_of(st.sampled_from(["16", "4", "2"]), st.sampled_from(
    ["0", "13", "0.9", "nan", "x", "2..5,inf", "1..0", "report.txt", "", "-1", "-h", "--"]))


@st.composite
def _spelled_argv(draw):
    """A command line to any subcommand (or none), canonical or respelled
    by _respelled, with values of the option's type or not."""
    tables = _build_parser()[1]
    command = draw(st.sampled_from([*sorted(tables), "-h", "nosuch"]))
    options = tables.get(command, tables["simulate"])[1]
    argv, flags = [command], draw(st.lists(st.sampled_from(sorted(options)), unique=True))
    flags += [flag for flag in sorted(options) if flag not in flags
              and options[flag].required and draw(st.integers(0, 7))]
    for flag in draw(st.permutations(flags)):
        argv.append(flag)
        if options[flag].choices:
            argv.append(draw(st.one_of(st.sampled_from(options[flag].choices), _VALUES)))
        elif options[flag].nargs != 0:
            argv.append(draw(_VALUES))
    return _respelled(draw, argv) if draw(st.booleans()) else argv


@settings(max_examples=1000, deadline=None)
@given(_spelled_argv())
@example(["simulate", "--n", "16", "--no-trailing", "--trailing"])
@example(["simulate", "--n", "16", "--trailing", "--k", "4", "--engine", "full"])
@example(["schedule", "--n", "16", "--k", "2", "--threshold", "nan", "--exact"])
@example(["compare", "--k", "2..30", "--output", ""])
def test_table_parse_matches_argparse(argv):
    """Whatever argv the table parses, it parses into the namespace that
    parser.parse_args gives (compared by repr, so that nan matches nan)."""
    args = cli._parse_canonical(argv, _build_parser()[1])
    if args is not None:
        assert repr(vars(args)) == _argparse_result(argv)


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "pgsearch", "simulate", "--n", "16", "--k", "2",
         "--j1", "1", "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["queries"] == 2

"""End-to-end checks of the pgsearch command line."""

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from pgsearch import asymptotic_optimum, load_state
from pgsearch.cli import _build_parser, main, parse_k_spec


def run_cli(argv, capsys):
    """Invoke main() the way the console script does, catching argparse's
    own exits, and return (exit_code, stdout, stderr)."""
    try:
        code = main(argv)
    except SystemExit as exc:  # parser.error paths
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


# Byte goldens written by the CLI before its renderer was rewritten: stdout
# of every subcommand in every format, and the exit code and last stderr
# line of the error paths.
GOLDEN_DIR = Path(__file__).parent / "data" / "cli"
GOLDEN_CASES = json.loads((GOLDEN_DIR / "cases.json").read_text())


@pytest.mark.parametrize("case_id", sorted(GOLDEN_CASES))
def test_cli_matches_golden(case_id, capsys):
    case = GOLDEN_CASES[case_id]
    code, out, err = run_cli(case["argv"], capsys)
    assert code == case["code"]
    expected = (GOLDEN_DIR / case_id).read_bytes() if code == 0 else b""
    assert out.encode() == expected
    assert (err.splitlines() or [""])[-1] == case["stderr_last_line"]


# ------------------------------------------------------------ small pieces

def test_parse_k_spec_forms():
    assert parse_k_spec("4") == [4.0]
    assert parse_k_spec("2..5") == [2.0, 3.0, 4.0, 5.0]
    assert parse_k_spec("2..4,inf") == [2.0, 3.0, 4.0, math.inf]
    assert parse_k_spec("inf") == [math.inf]
    assert parse_k_spec(" 3 , 7 ") == [3.0, 7.0]


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


def test_reports_are_deterministic(capsys, monkeypatch):
    first = run_cli(["compare", "--k", "2..30", "--format", "csv"], capsys)
    monkeypatch.setenv("PGS_THREADS", "4")
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
        case = GOLDEN_CASES[case_id]
        code, out, _ = run_cli(case["argv"], capsys)
        assert code == case["code"]
        expected = (GOLDEN_DIR / case_id).read_bytes() if code == 0 else b""
        assert out.encode() == expected


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

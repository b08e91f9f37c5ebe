"""Unit tests for the command-line front end, driven through main()."""

import csv
import io
import json
import math
import os
import subprocess
import sys

import pytest

import rcsp
from rcsp import cli
from rcsp import thresholds as th
from rcsp.bp import ModelParams
from rcsp.cli import main
from rcsp.ensemble import read_instance, sample_instance, write_instance
from rcsp.interp import ThetaSpec, eta_cluster, functional_exact
from rcsp.thresholds import phi


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows_of(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_table(capsys):
    code, out, _ = run(capsys, "table", "--kmax", "4")
    assert code == 0
    rows = rows_of(out)
    assert [r["k"] for r in rows] == ["3", "4"]
    assert float(rows[0]["d_star"]) == pytest.approx(6.7417005766105653, abs=2e-9)
    assert rows[0]["ceil_d_star"] == "7"
    assert float(rows[0]["d_first_moment"]) == pytest.approx(7.2282625189596272)
    assert rows[0]["ceil_d1"] == "8"


def test_table_json(capsys):
    code, out, _ = run(capsys, "table", "--kmax", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data[0]["k"] == 3
    assert data[0]["ceil_d_star"] == 7
    assert isinstance(data[0]["d_star"], float)


def test_fixpoint(capsys):
    code, out, _ = run(capsys, "fixpoint", "--k", "3", "--d", "6.74")
    assert code == 0
    row = rows_of(out)[0]
    x = float(row["x"])
    assert x == pytest.approx(0.44653954652540051, abs=1e-11)
    # 17 significant digits round-trip through the text exactly
    assert format(x, ".17g") == row["x"]
    assert float(row["residual"]) < 1e-11
    assert float(row["max_derivative"]) < 1.0


def test_fixpoint_outside_window_exit_2(capsys):
    code, _, err = run(capsys, "fixpoint", "--k", "3", "--d", "4")
    assert code == 2
    assert "window" in err


def test_dstar(capsys):
    code, out, _ = run(capsys, "dstar", "--k", "3")
    assert code == 0
    row = rows_of(out)[0]
    assert float(row["d_star"]) == pytest.approx(6.7417005766105653, abs=2e-9)
    assert row["sign_changes"] == "1"
    assert float(row["bracket_lo"]) < float(row["d_star"]) < float(row["bracket_hi"])


def test_dstar_no_bracket_exit_2(capsys, monkeypatch):
    # the upper-end no_bracket of d_star gives up with one line
    monkeypatch.setattr(th, "phi_star", lambda params: 1.0)
    code, out, err = run(capsys, "dstar", "--k", "5")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("rcsp: computation failed: the float scan cannot bracket d_star at k=5:")
    assert "at the window's upper end, expected < 0" in err


def test_interp_over_budget_line(capsys):
    # one beta inside the certified k = 5 window exceeds the product budget
    code, out, err = run(
        capsys, "interp", "--k", "5", "--d", "52", "--betas", "16", "--model", "coloring"
    )
    assert code == 2 and out == ""
    assert err == (
        "rcsp: computation failed: product of 746241 states and 15 law entries "
        "exceeds 10000000\n"
    )


def test_phi_explicit_x(capsys):
    code, out, _ = run(capsys, "phi", "--k", "3", "--d", "7.4", "--x", "0.45")
    assert code == 0
    row = rows_of(out)[0]
    assert float(row["phi"]) == pytest.approx(phi(ModelParams(3, 7.4), 0.45), rel=1e-15)


def test_interp_single_lambda(capsys):
    code, out, _ = run(
        capsys, "interp", "--k", "3", "--d", "7.4", "--betas", "4", "--lam", "0.5"
    )
    assert code == 0
    row = rows_of(out)[0]
    params = ModelParams(3, 7.4)
    expected = functional_exact(
        params, eta_cluster(params, 4.0), ThetaSpec("coloring", 4.0), 0.5
    )
    assert float(row["P"]) == pytest.approx(expected, rel=1e-14)
    assert float(row["P_over_sqrt_beta"]) == pytest.approx(expected / 2.0, rel=1e-14)


def test_interp_lam_needs_one_beta(capsys):
    code, _, err = run(
        capsys, "interp", "--k", "3", "--d", "7.4", "--betas", "4,16", "--lam", "0.5"
    )
    assert code == 1
    assert "exactly one" in err


BAD_BETA = (
    (["interp", "--k", "3", "--d", "7.4", "--betas", "16,-1"], "-1.0"),
    (["interp", "--k", "3", "--d", "7.4", "--betas", "-1", "--lam", "0.5"], "-1.0"),
    (["z", "{inst}", "--beta", "-1"], "-1.0"),
    (["z", "{inst}", "--beta", "nan"], "nan"),
    (["z", "{inst}", "--beta", "inf"], "inf"),
)


@pytest.mark.parametrize("argv, shown", BAD_BETA, ids=[" ".join(c[0]) for c in BAD_BETA])
def test_bad_beta_has_one_message(capsys, inst_path, argv, shown):
    code, out, err = run(capsys, *(a.format(inst=inst_path) for a in argv))
    assert (code, out) == (1, "")
    assert err == f"rcsp: invalid input: beta must be >= 0 and finite, got {shown}\n"


def test_interp_scan_rows(capsys):
    code, out, _ = run(capsys, "interp", "--k", "3", "--d", "7.4", "--betas", "1,4")
    assert code == 0
    rows = rows_of(out)
    assert [r["beta"] for r in rows] == ["1", "4"]
    assert float(rows[1]["lambda"]) == 0.5


def test_interp_beta_zero_past_the_key_field(capsys):
    # at beta = 0 the measure is the point mass on 1/2, whose walk never
    # moves a key, so 130 product steps run
    code, out, err = run(capsys, "interp", "--k", "6", "--d", "130", "--betas", "0")
    assert (code, err) == (0, "")
    assert float(rows_of(out)[0]["P"]) == math.log(2.0)


def test_firstmo_csv(capsys):
    code, out, _ = run(capsys, "firstmo", "--k", "3", "--d", "3", "--n", "3")
    assert code == 0
    rows = rows_of(out)
    assert len(rows) == 4
    assert rows[1]["gamma"] == "1/3"
    assert rows[1]["p_gamma"] == "9/28"
    assert rows[1]["contribution"] == "27/28"


def test_firstmo_json(capsys):
    code, out, _ = run(capsys, "firstmo", "--k", "3", "--d", "3", "--n", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data[0]["ez_nae"] == "27/8"
    assert data[0]["ez_col"] == "27/14"
    assert data[0]["ratio"] == pytest.approx(4.0 / 7.0, rel=1e-15)


def test_firstmo_json_exact_past_400(capsys):
    code, out, _ = run(capsys, "firstmo", "--k", "2", "--d", "1", "--n", "402", "--format", "json")
    assert code == 0
    (row,) = json.loads(out)
    assert row["ez_col"] == row["ez_nae"] == str(2**201)


def test_firstmo_rejects_indivisible(capsys):
    code, _, err = run(capsys, "firstmo", "--k", "3", "--d", "2", "--n", "4")
    assert code == 1
    assert "divisible" in err


def test_gen_solve_z_round_trip(capsys, tmp_path):
    path = tmp_path / "inst.txt"
    code, out, _ = run(
        capsys, "gen", "--n", "6", "--k", "3", "--d", "2",
        "--seed", "1", "--model", "coloring", "--out", str(path),
    )
    assert code == 0
    assert out == ""  # gen writes only the file
    inst = read_instance(path)
    assert inst == sample_instance(6, 3, 2, seed=1, model="coloring")

    code, out, _ = run(capsys, "solve", str(path))
    assert code == 0
    row = rows_of(out)[0]
    assert row["model"] == "coloring"
    assert row["solutions"] == "18"

    code, out, _ = run(capsys, "z", str(path), "--beta", "0")
    assert code == 0
    row = rows_of(out)[0]
    assert float(row["logZ"]) == pytest.approx(6 * math.log(2.0), rel=1e-15)
    assert row["solution_count"] == "18"


def test_gen_deterministic_bytes(capsys, tmp_path):
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    for p in (p1, p2):
        code, _, _ = run(
            capsys, "gen", "--n", "9", "--k", "3", "--d", "2",
            "--seed", "42", "--out", str(p),
        )
        assert code == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_solve_missing_file_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "solve", str(tmp_path / "nope.txt"))
    assert code == 2
    assert "computation failed" in err


def test_solve_malformed_file_exit_1(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("p rcsp nae 3 6 4 2\nc 5 0 6 0 3 0\n")
    code, _, err = run(capsys, "solve", str(path))
    assert code == 1
    assert "line 1" in err


def test_sweep_matches_library(capsys):
    from rcsp.ensemble import sat_sweep

    code, out, _ = run(
        capsys, "sweep", "--k", "3", "--n", "9", "--d", "2,4",
        "--trials", "8", "--seed", "7", "--model", "coloring",
    )
    assert code == 0
    rows = rows_of(out)
    points = sat_sweep(3, 9, [2, 4], trials=8, seed=7, model="coloring")
    for row, point in zip(rows, points):
        assert int(row["d"]) == point.d
        assert float(row["sat_fraction"]) == point.sat_fraction


def test_sweep_search_budget_exit_2(capsys, monkeypatch):
    from rcsp import ensemble

    monkeypatch.setattr(ensemble, "SEARCH_NODE_BUDGET", 1)
    with pytest.raises(ensemble.SearchBudgetError, match="gave up after 1 nodes"):
        ensemble.is_satisfiable(sample_instance(24, 3, 4, 0, model="coloring"))
    code, out, err = run(
        capsys, "sweep", "--k", "3", "--n", "24", "--d", "4", "--trials", "1",
        "--seed", "0", "--model", "coloring",
    )
    assert (code, out) == (2, "")
    assert err.startswith("rcsp: computation failed: satisfiability search gave up")
    assert len(err.splitlines()) == 1


def test_concentrate_matches_library(capsys):
    from rcsp.ensemble import concentration_experiment

    code, out, _ = run(
        capsys, "concentrate", "--k", "3", "--d", "2", "--n", "6,9",
        "--beta", "1", "--samples", "3", "--seed", "5",
    )
    assert code == 0
    rows = rows_of(out)
    stats = concentration_experiment([6, 9], 3, 2, 1.0, 3, 5)
    for row, s in zip(rows, stats):
        assert float(row["mean"]) == pytest.approx(s.mean, rel=1e-15)
        assert float(row["std"]) == pytest.approx(s.std, rel=1e-15)


def test_certify_single_and_errors(capsys):
    code, out, _ = run(capsys, "certify", "--id", "alpha5")
    assert code == 0
    row = rows_of(out)[0]
    assert row["status"] == "pass"
    assert float(row["margin"]) < 0.0

    code, _, err = run(capsys, "certify", "--id", "no_such_id")
    assert code == 1

    code, _, err = run(capsys, "certify", "--digits", "30")
    assert code == 1
    assert "50" in err


def test_certify_full_json(capsys):
    code, out, _ = run(capsys, "certify", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data) == 18
    assert all(entry["passed"] is True for entry in data)
    assert all(entry["inconclusive"] is False for entry in data)


def test_out_flag_writes_file(capsys, tmp_path):
    path = tmp_path / "table.csv"
    code, out, _ = run(capsys, "table", "--kmax", "3", "--out", str(path))
    assert code == 0
    assert out == ""
    text = path.read_text()
    assert text.startswith("k,d_star,")
    code, out, _ = run(capsys, "table", "--kmax", "3")
    assert out == text


def test_usage_errors_exit_1(capsys):
    assert run(capsys, "table", "--bogus")[0] == 1
    assert run(capsys, "fixpoint", "--k", "3")[0] == 1  # missing --d
    assert run(capsys, "nonsense")[0] == 1
    assert run(capsys)[0] == 1


def test_parser_reused_across_calls(capsys):
    # main builds its parser once per process; a failed parse must leave
    # nothing behind for the next call
    bad = ["fixpoint", "--k", "3", "--bogus"]
    good = ["fixpoint", "--k", "3", "--d", "7"]
    in_turn = [run(capsys, *bad), run(capsys, *good), run(capsys, *bad)]
    fresh = []
    for argv in (bad, good, bad):
        cli._build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert in_turn == fresh
    assert [code for code, _, _ in in_turn] == [1, 0, 1]
    err = in_turn[0][2].splitlines()
    assert [line.startswith("usage: ") for line in err].count(True) == 1
    assert err[0].startswith("usage: rcsp fixpoint")
    assert err[-1].startswith("rcsp fixpoint: error: ")


# Every subcommand's CSV header and JSON key order; the JSON keys equal the
# CSV header unless given separately.
SCHEMAS = (
    (["table", "--kmax", "3"], "k,d_star,ceil_d_star,d_first_moment,ceil_d1", None),
    (
        ["fixpoint", "--k", "3", "--d", "7"],
        "k,d,x,residual,bracket_lo,bracket_hi,max_derivative,iteration_gap",
        None,
    ),
    (["phi", "--k", "3", "--d", "7"], "k,d,x,phi", None),
    (
        ["dstar", "--k", "3"],
        "k,d_star,ceil_d_star,d_first_moment,ceil_d1,bracket_lo,bracket_hi,sign_changes",
        None,
    ),
    (["interp", "--k", "3", "--d", "7.4", "--betas", "1"], "beta,lambda,P,P_over_sqrt_beta", None),
    (
        ["interp", "--k", "3", "--d", "7.4", "--betas", "4", "--lam", "0.5"],
        "beta,lambda,P,P_over_sqrt_beta",
        None,
    ),
    (
        ["firstmo", "--k", "3", "--d", "3", "--n", "3"],
        "n,gamma,binom,p_gamma,contribution",
        "n,m,k,d,ez_nae,ez_col,ratio",
    ),
    (["solve", "{inst}"], "n,m,k,d,model,solutions", None),
    (["z", "{inst}", "--beta", "1"], "beta,logZ,solution_count,free_energy_per_var", None),
    (
        ["sweep", "--k", "3", "--n", "6", "--d", "2", "--trials", "2", "--seed", "1"],
        "d,trials,sat_fraction",
        None,
    ),
    (
        ["concentrate", "--k", "3", "--d", "2", "--n", "6"]
        + ["--beta", "1", "--samples", "2", "--seed", "1"],
        "n,samples,mean,std",
        None,
    ),
    (
        ["certify", "--id", "alpha5"],
        "id,computed,bound,relation,margin,status",
        "id,expression,computed,claimed_bound,relation,margin,passed,inconclusive,notes",
    ),
)


@pytest.fixture
def inst_path(tmp_path):
    path = tmp_path / "inst.txt"
    write_instance(sample_instance(6, 3, 2, seed=1, model="coloring"), path)
    return str(path)


@pytest.mark.parametrize("argv, header, keys", SCHEMAS, ids=[" ".join(c[0]) for c in SCHEMAS])
def test_output_columns(capsys, inst_path, argv, header, keys):
    argv = [a.format(inst=inst_path) for a in argv]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.splitlines()[0] == header
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert list(json.loads(out)[0]) == (keys or header).split(",")


# Invocations that once hung, printed nan, or ended in a traceback, with the
# exit code each must now end with.  Each runs in its own process under a
# timeout, one at a time, so a hang fails the test instead of stalling it.
# dstar at k = 27 and k = 48 stays a known failure of the float bracket: at
# the window's ends phi_star is smaller than its own rounding error (ROADMAP
# item 3), so both must give up with exit 2 and one line.
CONCENTRATE = ["concentrate", "--k", "3", "--d", "2", "--n", "6", "--samples", "2", "--seed", "5"]
GEN_SIMPLE = [
    "gen", "--n", "3", "--k", "3", "--d", "3", "--seed", "0", "--simple", "--out", "{inst}.gen"
]
ENDS_CLEANLY = (
    (["dstar", "--k", "22"], 0),
    (["dstar", "--k", "3", "--tol", "1e-300"], 0),
    (["dstar", "--k", "3", "--tol", "nan"], 1),
    (["dstar", "--k", "1100"], 1),
    (["dstar", "--k", "27"], 2),
    (["dstar", "--k", "47"], 0),
    (["dstar", "--k", "48"], 2),
    (["dstar", "--k", "53"], 1),
    (["dstar", "--k", "56"], 1),
    (["fixpoint", "--k", "52", "--d", "8.116309198614963e16"], 0),
    (["fixpoint", "--k", "60", "--d", "5"], 1),
    (["fixpoint", "--k", "1100", "--d", "5"], 1),
    (["fixpoint", "--k", "3", "--d", "7", "--tol", "1e-300"], 2),
    (["fixpoint", "--k", "3", "--d", "7", "--tol", "nan"], 1),
    # an infinite tol once returned the bracket's midpoint with exit 0
    (["fixpoint", "--k", "3", "--d", "7", "--tol", "inf"], 1),
    (["dstar", "--k", "3", "--tol", "inf"], 1),
    (["interp", "--k", "3", "--d", "7.4", "--betas", "16", "--tol", "inf"], 1),
    # phi's float path takes only message weights, and never prints nan
    (["phi", "--k", "3", "--d", "7", "--x", "-0.5"], 1),
    (["phi", "--k", "3", "--d", "7", "--x", "1e308"], 1),
    (["phi", "--k", "3", "--d", "inf", "--x", "0.4"], 1),
    (["firstmo", "--k", "3", "--d", "3", "--n", "0"], 1),
    (["firstmo", "--k", "3", "--d", "0", "--n", "3"], 1),
    (["firstmo", "--k", "3", "--d", "3", "--n", "100000"], 1),
    # JSON once built the closed-form E Z_nae before the half-edge limit
    (["firstmo", "--k", "2", "--d", "1" + "0" * 30, "--n", "3", "--format", "json"], 1),
    (GEN_SIMPLE + ["--max-retries", "0"], 1),
    (GEN_SIMPLE + ["--max-retries", "-5"], 1),
    (["interp", "--k", "5", "--d", "52", "--betas", "16", "--model", "coloring"], 2),
    # lattice state probabilities underflow float64
    (["interp", "--k", "4", "--d", "20", "--betas", "16,16384", "--model", "coloring"], 2),
    (["interp", "--k", "4", "--d", "20", "--betas", "65536", "--lam", "0.00390625"], 2),
    # at beta = 1 too: at d = 70 the atom 1/2 carries mass 9.1e-13
    (["interp", "--k", "3", "--d", "70", "--betas", "1"], 2),
    # a negative or non-finite beta is bad input, on the --lam path and in a scan
    (["interp", "--k", "3", "--d", "7.4", "--betas", "inf", "--lam", "0.5"], 1),
    (["interp", "--k", "3", "--d", "7.4", "--betas", "nan", "--lam", "0.5"], 1),
    (["interp", "--k", "3", "--d", "7.4", "--betas", "16,inf"], 1),
    (["interp", "--k", "3", "--d", "7.4", "--betas", "16,-1"], 1),
    (["certify", "--digits", "1001"], 1),
    # past the counting cap (n <= 34) the sweep decides instead of counting
    (["sweep", "--k", "3", "--n", "60", "--d", "5,7", "--trials", "3", "--seed", "1"], 0),
    (["z", "{inst}", "--beta", "-1"], 1),
    (["z", "{inst}", "--beta", "nan"], 1),
    (["z", "{inst}", "--beta", "inf"], 1),
    (CONCENTRATE + ["--beta", "nan"], 1),
    (CONCENTRATE + ["--beta", "inf"], 1),
)
CLI = "import sys; from rcsp.cli import main; sys.exit(main(sys.argv[1:]))"


@pytest.mark.parametrize("argv, expected", ENDS_CLEANLY, ids=[" ".join(c[0]) for c in ENDS_CLEANLY])
def test_ends_cleanly(inst_path, argv, expected):
    argv = [a.format(inst=inst_path) for a in argv]
    src = os.path.dirname(os.path.dirname(rcsp.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", CLI, *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == expected, proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == (1 if expected else 0)
    assert (proc.stdout == "") == bool(expected)

import csv
import json

import numpy as np
import pytest

from cnpick.cli import build_parser, main
from cnpick.feasibility import _dual_bound, search_x_grid
from cnpick.interpolant import chain_from_json, verify_interpolant
from cnpick.problemfile import parse_problem

from conftest import fresh_builder


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write_problem(path, nodes, values, blaschke=None):
    doc = {
        "k": 1,
        "nodes": [[z.real, z.imag] for z in map(complex, nodes)],
        "values": [[v.real, v.imag] for v in map(complex, values)],
    }
    if blaschke is not None:
        doc["blaschke"] = blaschke
    path.write_text(json.dumps(doc))
    return path


def test_check_feasible_one_point(workdir, capsys):
    path = write_problem(workdir / "p.json", [0.5], [0.5])
    code = main(["check", str(path), "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["schema"] == "cnp/1"
    assert out["status"] == "Feasible"
    center = complex(*out["one_point_disk"]["center"])
    assert abs(complex(*out["witness_x"][0][0]) - center) <= out["one_point_disk"]["radius"] + 1e-9


def test_check_matches_library_verdict(workdir, capsys):
    path = write_problem(workdir / "p.json", [0.5, -0.2], [0.3, 0.1])
    code = main(["check", str(path), "--json"])
    out = json.loads(capsys.readouterr().out)
    problem = parse_problem(path)
    report = search_x_grid(problem.data, problem.blaschke)
    assert out["status"] == report.status
    assert (code == 0) == (report.status == "Feasible")


def test_check_infeasible_instance(workdir, capsys):
    path = write_problem(workdir / "p.json", [0.3, -0.3], [0.3, -0.3])
    code = main(["check", str(path), "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["status"] == "Infeasible"
    assert out["grid_stats"]["uniform_infeasible"]


def test_check_overlap_conflict(workdir, capsys):
    path = write_problem(
        workdir / "p.json",
        [0.3, 0.5],
        [0.1, 0.4],
        blaschke={"zeros": [[0.3, 0.0], [0.5, 0.0]], "multiplicities": [1, 1]},
    )
    code = main(["check", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "overlap values differ" in out

    def refuse(constant):
        raise ValueError(f"non-JSON constant {constant}")

    assert main(["check", str(path), "--json"]) == 1
    doc = json.loads(capsys.readouterr().out, parse_constant=refuse)
    assert doc["status"] == "Infeasible" and doc["margin"] is None


def test_check_parse_error_exit_64(workdir, capsys):
    path = workdir / "p.json"
    path.write_text("{broken")
    assert main(["check", str(path)]) == 64
    assert "error:" in capsys.readouterr().err


def test_check_matrix_data_feasible(workdir, capsys):
    doc = {
        "k": 2,
        "nodes": [[0.4, 0.0]],
        "values": [[[[0.2, 0.0], [0.0, 0.1]], [[0.0, 0.0], [0.2, 0.0]]]],
    }
    path = workdir / "p.json"
    path.write_text(json.dumps(doc))
    code = main(["check", str(path), "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["status"] == "Feasible"
    witness = np.array([[complex(*e) for e in row] for row in out["witness_x"]])
    assert witness.shape == (2, 2)


def test_check_matrix_data_undetermined_exit_2(workdir, capsys):
    """Norm-2 matrix data: Infeasible (exit 1), backed by a certificate."""
    doc = {
        "k": 2,
        "nodes": [[0.4, 0.0]],
        "values": [[[[0.0, 0.0], [2.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]],
    }
    path = workdir / "p.json"
    path.write_text(json.dumps(doc))
    code = main(["check", str(path), "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1 and out["status"] == "Infeasible"
    assert out["grid_stats"]["uniform_infeasible"]
    problem = parse_problem(path)
    report = search_x_grid(problem.data, problem.blaschke)
    bound = _dual_bound(*fresh_builder(problem.data, problem.blaschke), report.certificate)
    assert bound < -1e-9 * report.grid_stats["best_scale"]
    assert bound <= out["grid_stats"]["upper_bound"] + 1e-12


def test_solve_then_verify_round_trip(workdir, capsys):
    path = write_problem(workdir / "p.json", [0.5], [0.5])
    chain_path = workdir / "chain.json"
    code = main(["solve", str(path), "--out", str(chain_path), "--json"])
    solve_out = json.loads(capsys.readouterr().out)
    assert code == 0 and solve_out["verified"]
    assert max(solve_out["residuals"]["interpolation"]) <= 1e-7

    code = main(["verify", str(chain_path), str(path), "--json"])
    verify_out = json.loads(capsys.readouterr().out)
    assert code == 0 and verify_out["passed"]

    # verdict equals the library's
    chain = chain_from_json(json.loads(chain_path.read_text()))
    problem = parse_problem(path)
    assert verify_interpolant(chain, problem.data).passed


def test_solve_infeasible_exit_1(workdir, capsys):
    path = write_problem(workdir / "p.json", [0.3, -0.3], [0.3, -0.3])
    assert main(["solve", str(path)]) == 1

def test_solve_explicit_x_outside_disk(workdir, capsys):
    path = write_problem(workdir / "p.json", [0.5], [0.5])
    code = main(["solve", str(path), "--x", "0.9,0"])
    out = capsys.readouterr().out
    assert code == 1
    assert "x infeasible" in out


def test_verify_tampered_chain_fails(workdir, capsys):
    path = write_problem(workdir / "p.json", [0.5], [0.5])
    chain_path = workdir / "chain.json"
    main(["solve", str(path), "--out", str(chain_path)])
    capsys.readouterr()
    payload = json.loads(chain_path.read_text())
    payload["steps"][-1][2] += 0.1
    chain_path.write_text(json.dumps(payload))
    assert main(["verify", str(chain_path), str(path)]) == 1


def test_witness_pass_and_hit(workdir, capsys):
    good = write_problem(workdir / "good.json", [0.5], [0.2])
    assert main(["witness", str(good), "--samples", "64"]) == 0
    assert "PASS" in capsys.readouterr().out

    bad = write_problem(workdir / "bad.json", [0.5], [1.5])
    code = main(["witness", str(bad), "--samples", "64", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["status"] == "WITNESS"
    assert out["sample_index"] == 0


def test_witness_deterministic(workdir, capsys):
    path = write_problem(workdir / "p.json", [0.3, -0.3], [0.3, -0.3])
    main(["witness", str(path), "--samples", "128", "--seed", "3", "--json"])
    first = capsys.readouterr().out
    main(["witness", str(path), "--samples", "128", "--seed", "3", "--json"])
    second = capsys.readouterr().out
    assert first == second


def test_witness_negative_seed_is_usage_error(workdir, capsys):
    path = write_problem(workdir / "p.json", [0.5, -0.4j], [0.2, 0.1])
    assert main(["witness", str(path), "--seed", "-1"]) == 64
    captured = capsys.readouterr()
    assert "seed must be nonnegative" in captured.err
    assert "Traceback" not in captured.err


def test_consecutive_calls_share_no_options(workdir, capsys):
    """The parser is built once per process; each call still starts from the defaults."""
    path = write_problem(workdir / "p.json", [0.5], [0.2])
    assert main(["check", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "Feasible"
    assert main(["check", str(path)]) == 0
    assert capsys.readouterr().out.startswith("status: Feasible")

    build_parser.cache_clear()
    scanned = write_problem(workdir / "q.json", [0.5, -0.4j], [0.2, 0.1])
    witness = ["witness", str(scanned), "--samples", "32", "--json"]
    main(witness)
    fresh = capsys.readouterr().out
    main(witness + ["--seed", "3"])
    seeded = capsys.readouterr().out
    main(witness)
    assert seeded != fresh
    assert capsys.readouterr().out == fresh


@pytest.mark.parametrize("command", ["verify", "stein"])
def test_non_json_input_is_usage_error(workdir, capsys, command):
    problem = write_problem(workdir / "p.json", [0.5], [0.5])
    broken = workdir / "broken.json"
    broken.write_text("{not json")
    argv = {
        "verify": ["verify", str(broken), str(problem)],
        "stein": ["stein", str(broken), "--nodes", "0.5"],
    }[command]
    assert main(argv) == 64
    assert "line 1 column" in capsys.readouterr().err


def test_body_writes_csv(workdir, capsys):
    path = write_problem(workdir / "p.json", [0.5], [0.0])
    code = main(
        ["body", str(path), "--z0", "0.3,0", "--csv", "out", "--xres", "6", "--wres", "12", "--json"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    # Reference counts from independent closed forms: the 4x4 membership
    # matrix and the 3x3 anchored one-node Pick matrix.
    assert doc["inner_disks"] == 34
    assert doc["outer_inside"] == 1
    # Schwarz-Pick disk of s(0.5) = 0 at 0.3: centre 0, radius 0.2 / 0.85.
    assert doc["unconstrained_disk"]["center"] == [0.0, 0.0]
    assert doc["unconstrained_disk"]["radius"] == pytest.approx(0.2 / 0.85, abs=1e-12)
    with open("out/disks.csv") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["x_re", "x_im", "c_re", "c_im", "R"]
    assert len(rows) > 1
    with open("out/membership.csv") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["w_re", "w_im", "inside"]
    grid = {(float(r[0]), float(r[1])): int(r[2]) for r in rows[1:]}
    assert grid[(0.0, 0.0)] == 1  # the zero function realizes w0 = 0


def test_body_z0_equals_node_is_usage_error(workdir, capsys):
    path = write_problem(workdir / "p.json", [0.5], [0.0])
    assert main(["body", str(path), "--z0", "0.5,0"]) == 64


def test_body_refusal_writes_no_files(workdir, capsys):
    # Within about 1e-7 of the node the unconstrained pencil is numerically
    # unusable; the refusal must come before the CSV directory is made.
    path = write_problem(workdir / "p.json", [0.5], [0.0])
    assert main(["body", str(path), "--z0", "0.50000001,0", "--csv", "out"]) == 64
    assert "pencil unusable" in capsys.readouterr().err
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("flag, value", [("--xres", "0"), ("--xres", "-4"), ("--wres", "-2")])
def test_body_nonpositive_resolution_is_usage_error(workdir, capsys, flag, value):
    path = write_problem(workdir / "p.json", [0.5], [0.0])
    assert main(["body", str(path), "--z0", "0.2,0", flag, value]) == 64
    assert flag in capsys.readouterr().err


def test_stein_origin_double_zero(workdir, capsys):
    blaschke = workdir / "b.json"
    blaschke.write_text(json.dumps({"zeros": [[0.0, 0.0]], "multiplicities": [2]}))
    code = main(["stein", str(blaschke), "--nodes", "0.5,-0.5", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    q = np.array([[complex(*e) for e in row] for row in out["q"]])
    assert np.allclose(q, np.eye(2))
    assert out["q_dominates_identity"]
    assert max(out["residuals"].values()) <= 1e-12
    qt = np.array([[complex(*e) for e in row] for row in out["q_tilde"]])
    assert np.allclose(qt, [[1.0, 1.0], [0.5, -0.5]])


def test_tol_env_override(workdir, capsys, monkeypatch):
    path = write_problem(workdir / "p.json", [0.5], [0.5])
    monkeypatch.setenv("CNP_TOL", "not-a-number")
    assert main(["check", str(path)]) == 64
    monkeypatch.setenv("CNP_TOL", "1e-6")
    assert main(["check", str(path)]) == 0


@pytest.mark.parametrize("route", ["flag", "env", "file"])
def test_non_finite_tolerance_is_usage_error(workdir, capsys, monkeypatch, route):
    # The documented gap instance: an infinite tolerance would call it Feasible.
    path = write_problem(workdir / "p.json", [0.3, -0.3], [0.3, -0.3])
    argv = ["check", str(path)]
    if route == "flag":
        argv += ["--tol", "inf"]
    elif route == "env":
        monkeypatch.setenv("CNP_TOL", "nan")
    else:
        doc = json.loads(path.read_text())
        doc["tolerances"] = {"psd_tol": float("inf")}
        path.write_text(json.dumps(doc))
        assert "Infinity" in path.read_text()
    assert main(argv) == 64
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["inf", "nan", "-1e-7"])
def test_bad_check_tol_is_usage_error(workdir, capsys, value):
    # The constant 0.9 misses both targets; an infinite tolerance would pass it.
    path = write_problem(workdir / "p.json", [0.5, -0.5], [0.4, 0.1 - 0.2j])
    chain = workdir / "bad.json"
    chain.write_text(json.dumps({"steps": [[0, 0, 0.9, 0]], "tail": [0, 0]}))
    assert main(["verify", str(chain), str(path), f"--check-tol={value}", "--json"]) == 64
    assert "finite and nonnegative" in capsys.readouterr().err
    feasible = write_problem(workdir / "q.json", [0.5], [0.5])
    out = workdir / "chain.json"
    assert main(["solve", str(feasible), "--out", str(out), f"--check-tol={value}"]) == 64
    assert "finite and nonnegative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["inf", "nan", "-1"])
@pytest.mark.parametrize("x", ["auto", "0,0"])
def test_bad_check_tol_refused_before_the_verdict(workdir, capsys, value, x):
    # The gap instance is infeasible, so neither path ever reaches verification.
    path = write_problem(workdir / "gap.json", [0.3, -0.3], [0.3, -0.3])
    out = workdir / "chain.json"
    argv = ["solve", str(path), f"--x={x}", "--out", str(out), f"--check-tol={value}"]
    assert main(argv) == 64
    assert "finite and nonnegative" in capsys.readouterr().err
    assert not out.exists()
    assert main(argv[:-1]) == 1


def test_stein_malformed_node_is_usage_error(workdir, capsys):
    blaschke = workdir / "b.json"
    blaschke.write_text(json.dumps({"zeros": [[0.0, 0.0]], "multiplicities": [2]}))
    assert main(["stein", str(blaschke), "--nodes", "foo"]) == 64
    assert "--nodes" in capsys.readouterr().err
    assert main(["stein", str(blaschke), "--nodes", "0.5", "--k", "-1"]) == 64
    assert "--k" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", [["check", "p.json", "--bogus"], ["check"], ["check", "p.json", "--grid", "abc"]]
)
def test_command_line_usage_error_exit_64(workdir, capsys, argv):
    write_problem(workdir / "p.json", [0.5], [0.5])
    assert main(argv) == 64


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


@pytest.mark.parametrize("target", ["missing.json", "."])
def test_unreadable_input_is_usage_error(workdir, capsys, target):
    problem = write_problem(workdir / "p.json", [0.5], [0.5])
    assert main(["check", target]) == 64
    assert "error:" in capsys.readouterr().err
    assert main(["verify", target, str(problem)]) == 64
    assert "error:" in capsys.readouterr().err


def test_non_utf8_problem_is_usage_error(workdir, capsys):
    path = workdir / "p.json"
    path.write_bytes(b'{"k": 1, "nodes": "\xff\xfe"}')
    assert main(["check", str(path)]) == 64
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["node", "shorthand_value", "psd_tol", "multiplicity"])
def test_oversized_integer_is_usage_error(workdir, capsys, case):
    huge = 10**400
    doc = {"k": 1, "nodes": [[0.5, 0.0]], "values": [[0.2, 0.0]]}
    if case == "node":
        doc["nodes"] = [[huge, 0]]
    elif case == "shorthand_value":
        doc["values"] = [[0, huge]]
    elif case == "psd_tol":
        doc["tolerances"] = {"psd_tol": huge}
    else:
        doc["blaschke"] = {"zeros": [[0.0, 0.0]], "multiplicities": [10**30]}
    path = workdir / "p.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 64
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "chain",
    [
        {"steps": [[0.0, 0.0, 10**400, 0.0]], "tail": [0.0, 0.0]},
        {"steps": [[0.0, 0.0, 0.5, 0.0]], "tail": [True, False]},
    ],
    ids=["oversized_step", "boolean_tail"],
)
def test_malformed_chain_is_usage_error(workdir, capsys, chain):
    path = write_problem(workdir / "p.json", [0.5], [0.5])
    chain_path = workdir / "chain.json"
    chain_path.write_text(json.dumps(chain))
    assert main(["verify", str(chain_path), str(path)]) == 64
    assert "error:" in capsys.readouterr().err

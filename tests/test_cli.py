import argparse
import csv
import hashlib
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnpick.cli import _optional_disk, _write_csv, build_parser, main
from cnpick.feasibility import _dual_bound, one_point_disk, search_x_grid
from cnpick.interpolant import chain_from_json, generate_feasible, verify_interpolant
from cnpick.pick import DataSet, constrained_pick_cf
from cnpick.problemfile import complex_to_json, matrix_to_json, parse_problem

from conftest import (
    NEAR_SEED,
    NEAR_THRESHOLD,
    check_lines_oracle,
    csv_oracle,
    fresh_builder,
    matrix_feasible,
)


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


def test_check_writes_no_one_point_disk_for_other_constraints(workdir, capsys):
    # one_point_disk is the z^2 disk; for this B (a double zero at 0.2) points inside it fail.
    path = write_problem(workdir / "p.json", [0.5], [0.3], {"zeros": [[0.2, 0.0]], "multiplicities": [2]})
    assert main(["check", str(path), "--json"]) == 0
    assert "one_point_disk" not in json.loads(capsys.readouterr().out)
    assert main(["check", str(path)]) == 0
    assert "one-point" not in capsys.readouterr().out
    problem = parse_problem(path)
    z2_disk = one_point_disk(0.5, 0.3)
    for x in (z2_disk.center + 0.97 * z2_disk.radius, z2_disk.center - 0.97 * z2_disk.radius):
        pick = constrained_pick_cf(problem.data, problem.blaschke, np.array([[x]]))
        assert np.linalg.eigvalsh(pick).min() < -0.02


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


@pytest.mark.parametrize("first", [0.3, 0.31], ids=["on-zero", "off-zero"])
def test_check_residual_tol_below_rounding_decides(workdir, capsys, first):
    # A residual_tol of 1e-40 sets how closely overlap values agree; it does not refuse the bundle.
    blaschke = {"zeros": [[0.3, 0.0], [-0.2, 0.4]], "multiplicities": [2, 1]}
    path = write_problem(workdir / "p.json", [first, 0.5 + 0.1j], [0.1, 0.2], blaschke)
    doc = json.loads(path.read_text())
    doc["tolerances"] = {"residual_tol": 1e-40}
    path.write_text(json.dumps(doc))
    assert main(["check", str(path), "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["status"] == "Infeasible"


@pytest.mark.parametrize(
    "nodes, values, blaschke",
    [
        ([0.5], [0.5], None),
        ([0.3, -0.3], [0.3, -0.3], None),
        ([0.3, 0.6], [0.2, 0.2], {"zeros": [[0.3, 0.0]], "multiplicities": [1]}),
        ([0.3, 0.5], [0.1, 0.4], {"zeros": [[0.3, 0.0], [0.5, 0.0]], "multiplicities": [1, 1]}),
    ],
    ids=["solver-feasible-with-disk", "solver-infeasible", "overlap-feasible", "overlap-pair"],
)
def test_check_text_matches_eager_lines(workdir, capsys, nodes, values, blaschke):
    path = write_problem(workdir / "p.json", nodes, values, blaschke)
    problem = parse_problem(path)
    report = search_x_grid(problem.data, problem.blaschke)
    main(["check", str(path)])
    lines = check_lines_oracle(report, _optional_disk(problem))
    assert capsys.readouterr().out == "".join(f"{line}\n" for line in lines)


def test_check_json_formats_no_text(workdir, capsys, monkeypatch):
    path = write_problem(workdir / "p.json", [0.5], [0.5])

    def refuse(*args, **kwargs):
        raise AssertionError("text formatted under --json")

    monkeypatch.setattr(np, "array2string", refuse)
    assert main(["check", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["witness_x"] is not None


def test_check_parse_error_exit_64(workdir, capsys):
    path = workdir / "p.json"
    path.write_text("{broken")
    assert main(["check", str(path)]) == 64
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, location",
    [("nodes", "nodes/values"), ("values", "nodes/values"), ("blaschke", "blaschke"),
     ("tolerances", "tolerances")],
)
def test_check_nan_field_is_usage_error(workdir, capsys, field, location):
    nan = float("nan")
    doc = {
        "k": 1,
        "nodes": [[0.5, 0.0]],
        "values": [[0.1, 0.0]],
        "blaschke": {"zeros": [[0.2, 0.0]], "multiplicities": [2]},
        "tolerances": {"psd_tol": 1e-9},
    }
    doc[field] = {
        "nodes": [[nan, 0.0]],
        "values": [[0.1, nan]],
        "blaschke": {"zeros": [[nan, 0.0]], "multiplicities": [2]},
        "tolerances": {"psd_tol": nan},
    }[field]
    path = workdir / "p.json"
    path.write_text(json.dumps(doc))  # json writes the NaN token, which json reads back
    assert main(["check", str(path)]) == 64
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{location}:" in err


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


def test_check_matrix_data_infeasible_exit_1(workdir, capsys):
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


def test_check_degree4_below_its_own_dual_bound_exit_1(workdir, capsys):
    """Degree-4 data whose dual bound is negative at a CF-sized scale: Infeasible, certified."""
    doc = {
        "k": 1,
        "nodes": [[-0.10078682161407505, 0.4247439276739423],
                  [-0.19209133188690974, 0.3373740606543954],
                  [-0.28051246153244747, -0.2602229353910166]],
        "values": [[[[0.1580619759559745, 0.47143391958982706]]],
                   [[[0.16091433632180868, 0.4705816935782864]]],
                   [[[0.1692471422600311, 0.45395031880304865]]]],
        "blaschke": {"zeros": [[-0.17161480344525007, 0.3070073215512465],
                               [-0.1866993594051302, 0.12453422065859715]],
                     "multiplicities": [2, 2]},
        "tolerances": {"psd_tol": 1e-09, "residual_tol": 1e-08},
    }
    path = workdir / "p.json"
    path.write_text(json.dumps(doc))
    code = main(["check", str(path), "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1 and out["status"] == "Infeasible"
    assert out["grid_stats"]["best_scale"] <= 10.0
    problem = parse_problem(path)
    report = search_x_grid(problem.data, problem.blaschke, problem.tol)
    assert report.certificate_kind == "dual"
    bound = _dual_bound(*fresh_builder(problem.data, problem.blaschke), report.certificate)
    assert bound < -problem.tol.psd_tol * report.grid_stats["best_scale"]


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


def test_solve_boundary_data_refusal_prefix(workdir, capsys):
    # Values of s(z) = z^3: x = 0 is feasible only with a singular reduced Pick matrix.
    nodes = [0.5, -0.4 + 0.2j]
    path = write_problem(workdir / "p.json", nodes, [z**3 for z in nodes])
    out = workdir / "chain.json"
    assert main(["solve", str(path), "--x=0,0", "--out", str(out)]) == 64
    err = capsys.readouterr().err
    assert err.startswith("error: intermediate target") and "smallest eigenvalue" in err
    assert not out.exists()


@pytest.mark.parametrize("x", ["nan,0", "0.1,nan", "inf,0", "1,0"])
def test_solve_explicit_x_off_the_open_disk_is_usage_error(workdir, capsys, x):
    # NaN fails the disk test itself, so the message names --x.
    path = write_problem(workdir / "p.json", [0.5], [0.5])
    out = workdir / "chain.json"
    assert main(["solve", str(path), f"--x={x}", "--out", str(out)]) == 64
    assert "--x must be finite" in capsys.readouterr().err
    assert not out.exists()


SOLVE_NODES = [0.5, -0.2 + 0.3j, 0.1 - 0.6j]


@pytest.mark.parametrize(
    "nodes, values, x, digests",
    [
        ([0.5], [0.5], "0.45,0.05",
         ("4c35200705585d88160f00503c2e2431ecc7b1f70d3bf2a06c2592e82243ecd7",
          "ca09383d42878547e64094fee03a3f4782879197bd303df95c2791428383dd69",
          "cce44ac554a8c8f537adad7085ad2e7a3e96c51532995381934a5f9e5a9b41b5")),
        # s(z) = 0.2 + 0.1i + z^2 / 2 interpolates the data and has s(0) = x.
        (SOLVE_NODES, [0.2 + 0.1j + 0.5 * z * z for z in SOLVE_NODES], "0.2,0.1",
         ("ec3ab3a659bd96a17bd761729e7230abdebb4acd337ced4bbe036021e19eb2f1",
          "e821f61c682cdaa816353b758de5262f1c1f5edda1f55f34f4a54734a993f4af",
          "e73fc5c2a025ba55fe416d712283188b8813d466d05a12c17bfe63ffba9b0941")),
    ],
    ids=["one-point", "three-point"],
)
def test_solve_output_digests(workdir, capsys, nodes, values, x, digests):
    # Golden bytes: the text stdout, the --json stdout and the chain file, by their sha256.
    write_problem(workdir / "p.json", nodes, values)
    for extra, stdout_digest in zip(([], ["--json"]), digests):
        assert main(["solve", "p.json", f"--x={x}", "--out", "chain.json", *extra]) == 0
        outputs = (capsys.readouterr().out.encode(), (workdir / "chain.json").read_bytes())
        assert tuple(hashlib.sha256(data).hexdigest() for data in outputs) == (stdout_digest, digests[2])


def test_solve_x_takes_a_leading_minus(workdir, capsys):
    write_problem(workdir / "p.json", [0.5], [-0.1 + 0.1j])
    runs = []
    for argv in (["--x=-0.1,0.2"], ["--x", "-0.1,0.2"]):
        assert main(["solve", "p.json", *argv, "--out", "chain.json", "--json"]) == 0
        runs.append((capsys.readouterr().out, (workdir / "chain.json").read_bytes()))
    assert runs[0] == runs[1]


def test_verify_tampered_chain_fails(workdir, capsys):
    path = write_problem(workdir / "p.json", [0.5], [0.5])
    chain_path = workdir / "chain.json"
    main(["solve", str(path), "--out", str(chain_path)])
    capsys.readouterr()
    payload = json.loads(chain_path.read_text())
    payload["steps"][-1][2] += 0.1
    chain_path.write_text(json.dumps(payload))
    assert main(["verify", str(chain_path), str(path)]) == 1


def test_verify_scalar_chain_on_matrix_data_is_usage_error(workdir, capsys):
    # A chain has one scalar value per point; 2x2 targets need a 2x2 value.
    path = workdir / "p.json"
    value = [[[0.1, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.1, 0.0]]]
    path.write_text(json.dumps({"k": 2, "nodes": [[0.5, 0.0]], "values": [value]}))
    chain_path = workdir / "chain.json"
    chain_path.write_text(json.dumps({"schema": "cnp/1", "steps": [[0.0, 0.0, 0.1, 0.0]], "tail": [0.0, 0.0]}))
    assert main(["verify", str(chain_path), str(path)]) == 64
    # 1 node, 1 zero, 1 Cauchy ring and the sup-norm ring: 1 + 1 + 256 + 4096 points
    assert capsys.readouterr().err == "error: candidate values have shape (4354,), expected (4354, 2, 2)\n"


def test_verify_multiplicity_above_max_order_is_usage_error(workdir, capsys):
    blaschke = {"zeros": [[0.2, 0.0]], "multiplicities": [6]}
    path = write_problem(workdir / "p.json", [0.5], [0.1], blaschke)
    chain_path = workdir / "chain.json"
    chain_path.write_text(json.dumps({"schema": "cnp/1", "steps": [], "tail": [0.1, 0.0]}))
    assert main(["verify", str(chain_path), str(path)]) == 64
    err = capsys.readouterr().err
    assert err.startswith("error:") and "multiplicity 6" in err


def test_internal_error_exits_70_with_traceback(workdir, capsys, monkeypatch):
    # Exit 1 means "infeasible / fail"; an unexpected exception must not read as a verdict.
    def broken(*args, **kwargs):
        raise IndexError("tuple index out of range")

    monkeypatch.setattr("cnpick.cli.search_x_grid", broken)
    path = write_problem(workdir / "p.json", [0.5], [0.5])
    assert main(["check", str(path), "--json"]) == 70
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: IndexError('tuple index out of range')\n")
    assert "Traceback (most recent call last)" in captured.err

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr("cnpick.cli.search_x_grid", interrupted)
    with pytest.raises(KeyboardInterrupt):  # not an Exception: it still passes through
        main(["check", str(path)])


NAN_ENTRY = float("nan")


@pytest.mark.parametrize(
    "steps, tail",
    [
        ([[NAN_ENTRY, 0.0, 0.47, 0.0]], [0.0, 0.0]),
        ([[0.0, 0.0, NAN_ENTRY, 0.0]], [0.0, 0.0]),
        ([[0.0, 0.0, 0.47, 0.0]], [NAN_ENTRY, 0.0]),
    ],
    ids=["node", "value", "tail"],
)
def test_verify_nan_chain_is_usage_error(workdir, capsys, steps, tail):
    # Python's json reads NaN; the chain must refuse it, not verify with NaN residuals.
    path = write_problem(workdir / "p.json", [0.5], [0.5])
    chain_path = workdir / "chain.json"
    chain_path.write_text(json.dumps({"schema": "cnp/1", "steps": steps, "tail": tail}))
    assert main(["verify", str(chain_path), str(path)]) == 64
    assert "finite" in capsys.readouterr().err


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


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_witness_overflowing_forms_are_numeric_failure(workdir, capsys):
    # Values near 1e160 overflow the form matrices (numpy warns); the scan must not report PASS.
    path = write_problem(workdir / "p.json", [0.5, 0.3], [0.1, 1e160])
    assert main(["witness", str(path), "--json"]) == 70
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numeric failure: necessity form matrices are not finite")


def overflow_problem(path, w, k):
    doc = {
        "k": k,
        "nodes": [complex_to_json(0.5), complex_to_json(-0.3 + 0.2j)],
        "values": [matrix_to_json(w * np.eye(k)), matrix_to_json(np.zeros((k, k)))],
    }
    path.write_text(json.dumps(doc))
    return path


# Each case: the command, k, and the values w that reach the refusal.  From 1e155
# the Pick matrix overflows; at 1e154 it is finite but the solver's start is not,
# and solve --x reads the Pick matrix without starting the solver.
OVERFLOW_CASES = {
    "check-k1": (["check"], 1, (1e154, 1e155, 1e200)),
    "check-k2": (["check"], 2, (1e154, 1e155, 1e200)),
    "check-json-k2": (["check", "--json"], 2, (1e154, 1e155, 1e200)),
    "solve-k1": (["solve"], 1, (1e154, 1e155, 1e200)),
    "solve-x-json-k1": (["solve", "--x=0.1,0", "--json"], 1, (1e155, 1e200)),
}


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize(
    "argv, k, w",
    [(argv, k, w) for argv, k, values in OVERFLOW_CASES.values() for w in values],
    ids=[f"{name}-{w:.0e}" for name, (_, _, values) in OVERFLOW_CASES.items() for w in values],
)
def test_overflowing_data_are_numeric_failure(workdir, capsys, argv, k, w):
    path = overflow_problem(workdir / "p.json", w, k)
    assert main([*argv, str(path)]) == 70
    captured = capsys.readouterr()
    assert captured.out == ""
    where = "solver start" if w == 1e154 else "Pick matrix"
    expected = f"numeric failure: {where} is not finite: the data overflow"
    assert captured.err.splitlines()[-1] == expected


@pytest.mark.parametrize("command, k", [("check", 1), ("check", 2), ("solve", 1)])
def test_large_finite_data_are_still_certified(workdir, capsys, command, k):
    # One decade below the overflow the dual certifies Infeasible at iteration 0.
    path = overflow_problem(workdir / "p.json", 1e153, k)
    assert main([command, str(path), "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "Infeasible"
    if command == "check":
        assert doc["grid_stats"]["stop"] == "certified" and doc["grid_stats"]["points"] == 0


def test_witness_deterministic(workdir, capsys):
    path = write_problem(workdir / "p.json", [0.3, -0.3], [0.3, -0.3])
    main(["witness", str(path), "--samples", "128", "--seed", "3", "--json"])
    first = capsys.readouterr().out
    main(["witness", str(path), "--samples", "128", "--seed", "3", "--json"])
    second = capsys.readouterr().out
    assert first == second


@pytest.mark.parametrize("seed_args", [[], ["--seed", "7"]], ids=["default", "seeded"])
@pytest.mark.parametrize(
    "nodes, values, status",
    [([0.5, -0.4j], [0.2, 0.1], "PASS"), ([0.3, -0.3], [0.3, -0.3], "WITNESS")],
    ids=["pass", "witness"],
)
def test_witness_seed_reproduces_document(workdir, capsys, seed_args, nodes, values, status):
    path = write_problem(workdir / "p.json", nodes, values)
    main(["witness", str(path), "--samples", "200", "--json"] + seed_args)
    first = capsys.readouterr().out
    doc = json.loads(first)
    assert doc["status"] == status
    assert doc["seed"] == (int(seed_args[1]) if seed_args else 0)
    main(["witness", str(path), "--samples", "200", "--json", "--seed", str(doc["seed"])])
    assert capsys.readouterr().out == first


def test_witness_negative_seed_is_usage_error(workdir, capsys):
    path = write_problem(workdir / "p.json", [0.5, -0.4j], [0.2, 0.1])
    assert main(["witness", str(path), "--seed", "-1"]) == 64
    captured = capsys.readouterr()
    assert "seed must be nonnegative" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "data, seed, code, digests",
    [
        (generate_feasible(21, 3)[0], 0, 0,
         ("f4a69647fbac4997e2da1d42183472936737e40a85fb1da33d95fd3c05098d77",
          "2cc104e7736668c8c1dbd75cc0c3f8f241293d1d771467e96ff0de93a706e5a6")),
        (matrix_feasible(22, 2, 3), 0, 0,
         ("c02c700c6701c4693272af6129ff52da71f86f415622ffb200e885fb61fdc8da",
          "cecbbabd9d8a5ca8edf8d8446530d2c58ef33b40af6248b4dc6ee9330c378428")),
        (matrix_feasible(23, 3, 2), 0, 0,
         ("3db963f942e6a12b4e977e1be4e7901e643f64ba6d2f6c3d96b2a557128fb072",
          "ccae6ff86f25939d85a7702e1d7762f590473934525d4f2c5351e467b7743e38")),
        (DataSet.scalar([0.3, -0.3], [0.3, -0.3]), 0, 1,
         ("6cd75ba7bd8f7ab47e8e817c1a57f147452439da4e40107885eb1afec59f878a",
          "4bff86c6e667df02ee86c10e914771917eb17d1b830c28ac6091378f9197a95a")),
        (NEAR_THRESHOLD, NEAR_SEED, 1,
         ("803460ff8550f328eee2b42f0284025030e42610bb48f3b873b4ea7be5bf5171",
          "2fe96fbf751afd4e4ced14cce36a38bb894e61df17f02b9fe41ac984d8dbcc02")),
    ],
    ids=["k1-pass", "k2-pass", "k3-pass", "gap-canonical-witness", "near-random-witness"],
)
def test_witness_output_digests(workdir, capsys, data, seed, code, digests):
    # Golden bytes of a default 500-sample scan: the text and the --json stdout, by their sha256.
    # k = 3 data draw from all five shapes; the gap instance's witness is a canonical
    # parameter, the near-threshold one a random sample (index 115).
    doc = {
        "k": data.k,
        "nodes": [complex_to_json(z) for z in data.nodes],
        "values": [matrix_to_json(v) for v in data.values],
    }
    (workdir / "p.json").write_text(json.dumps(doc))
    for extra, stdout_digest in zip(([], ["--json"]), digests):
        assert main(["witness", "p.json", "--seed", str(seed), *extra]) == code
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == stdout_digest


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


COARSE = ("--xres", "3", "--wres", "5")
FINE = ("--xres", "25", "--wres", "80")


@pytest.mark.parametrize(
    "resolutions, z0, digests",
    [
        ((), "0.3,-0.2", ("b34e4d94a1dd3f699ffd41d93cbaae94797647d9afe4587620e267b634ffbe86",
                          "75bdedc37ded03434996362724c2ab12df4066c6bcc47ec066d12c87a094949b",
                          "a1501b63e6a26b27e821b3a86b27f4c56f7960463a28dd8e7a2ef82228454da7")),
        ((), "-0.35,0.2", ("820f7534206512d81ea2553ecd16c0fc42fc3f84be57d9d95174dac644937334",
                           "d87f651967ad60f71d70d921a84729813c84839dcb8f89d45ccefb097f47c3a6",
                           "88e3408c0d6751f1eb1887c4a6a5c1c8c2a72128f5aa5012cdc306476c2e96a1")),
        ((), "0.1,0.93", ("68557fc611dff4657dcb152080595d09977d596f0480fb43769876fe7bb39384",
                          "b047772b4fc188a836bf19f0b1d37ff1130516ed9edf11d37f6b0d9603218ed4",
                          "f8a39dd5e2103aa8fb0c7ee57d4d5c428d45049e81a956b01bb7329200a81ef4")),
        (COARSE, "0.3,-0.2", ("ef6549237cad53cd499d755514ae9254a9d1825d23c2927f033610c4dc1698eb",
                              "abf0632dc091df8b0b3cf994d100784b9b401bf5fa87d949bcb7b53aa0b74b95",
                              "d308f67680a5cdb66ba23cbcd98c0e92fa880057fc1689c4f3d025802ca9481d")),
        (COARSE, "-0.35,0.2", ("75fd6b9e3afbf41151887231398970e2847a267be2d1fb119461995509d75f8f",
                               "3c2e3c2397124c7aa43750f1464a27643ca9ab35081eae29d9fbf84e0519bb90",
                               "ad49565d20adaca4cd4ec4d486dd2a9674741fc618120bdcb4c314edd2193de7")),
        (COARSE, "0.1,0.93", ("3c5609d100337c25042eee77d79befe9659fd6ccb4a9cfaea322c91aeaab9946",
                              "735901d737f4f7d6d15dff400b02d587422f9217ea6692705af2eca2cb5df65a",
                              "59a7bf33a8b49172d98fd7b389c2d2db37e5078bf273266a641f91cbd2990c8a")),
        (FINE, "0.3,-0.2", ("aef0d4b2451d7218166d6342edd92ac56dd958696123eb6c19d114b101ae0ede",
                            "21be5416f152a26378ec4d66b5e97a4ff23ccdf7add354b790c5ad8eb357334e",
                            "6b2904135c7ab3db8af5f2366c2b56321cb4e2c35650058019ba3fd04a4211ba")),
        (FINE, "-0.35,0.2", ("56314833ca27da27d0aa1e8fcae3b537508ea6bdb56941586b7272bb04fe5ebb",
                             "075c5a21e4aae804cd6ac7b3746f39edac5229ca8b587c7f31c2dca3f2988837",
                             "ec7cab286932e4e271cf0800fa14e668923c28c7f50198b8422c8302ffb46934")),
        (FINE, "0.1,0.93", ("dbad81f6c2437e853c26408f743571b3e3b15a0a437ad646337456b5aab58824",
                            "4e10042bde33b6a39258787d1018fe942447031aef9964b3dd17cd9b656e104a",
                            "7fa359113a93fd9e7477d4550c90ecee31e0868b0a64c5918cea53605242fb60")),
    ],
    ids=[
        "near-node",
        "far",
        "near-circle",
        "near-node-x3-w5",
        "far-x3-w5",
        "near-circle-x3-w5",
        "near-node-x25-w80",
        "far-x25-w80",
        "near-circle-x25-w80",
    ],
)
def test_body_output_digests(workdir, capsys, resolutions, z0, digests):
    # Golden bytes at the default and two other resolutions: the --json
    # document, disks.csv and membership.csv, pinned by their sha256.
    write_problem(workdir / "p.json", [0.4 - 0.3j], [0.2 + 0.5j])
    assert main(["body", "p.json", f"--z0={z0}", "--csv", "out", "--json", *resolutions]) == 0
    outputs = [capsys.readouterr().out.encode()]
    outputs += [(workdir / "out" / f).read_bytes() for f in ("disks.csv", "membership.csv")]
    assert tuple(hashlib.sha256(data).hexdigest() for data in outputs) == digests


def assert_csv_bytes_match(header, columns, oracle_columns=None):
    with tempfile.TemporaryDirectory() as directory:
        ours, theirs = os.path.join(directory, "ours.csv"), os.path.join(directory, "theirs.csv")
        _write_csv(ours, header, columns)
        csv_oracle(theirs, header, columns if oracle_columns is None else oracle_columns)
        with open(ours, "rb") as a, open(theirs, "rb") as b:
            assert a.read() == b.read()


def test_write_csv_bytes_on_extreme_values():
    floats = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e-300, 1e308, -1e308, 0.1, 1 / 3, np.inf, np.nan])
    flags = np.arange(floats.size) % 2
    assert_csv_bytes_match(["a", "b", "inside"], (floats, floats[::-1] * 1e-7, flags))
    assert_csv_bytes_match(["x_re", "R"], (np.zeros(0), np.zeros(0)))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.floats(), st.floats(width=32), st.booleans()), max_size=40))
def test_write_csv_bytes_on_random_columns(rows):
    re = np.array([r[0] for r in rows], dtype=float)
    im = np.array([r[1] for r in rows], dtype=float)
    flags = np.array([r[2] for r in rows], dtype=bool).astype(int)
    assert_csv_bytes_match(["w_re", "w_im", "inside"], (re, im, flags))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.booleans(), max_size=40))
def test_write_csv_bool_column_is_written_as_ints(flags):
    flags = np.array(flags, dtype=bool)
    assert_csv_bytes_match(["w_re", "inside"], (flags * 0.5, flags), (flags * 0.5, flags.astype(int)))


@pytest.mark.parametrize(
    "argv",
    [
        ["witness", "gap.json", "--json"],
        ["witness", "p.json", "--json"],
        ["stein", "b.json", "--nodes=-0.5,0.5", "--k", "2", "--json"],
    ],
    ids=["witness-hit", "witness-pass", "stein"],
)
def test_json_document_is_encoded_once(workdir, capsys, monkeypatch, argv):
    write_problem(workdir / "gap.json", [0.3, -0.3], [0.3, -0.3])
    write_problem(workdir / "p.json", [0.5, -0.4j], [0.2, 0.1])
    (workdir / "b.json").write_text(json.dumps({"zeros": [[0.0, 0.0]], "multiplicities": [2]}))
    calls = []
    encode = json.dumps

    def counting_dumps(*args, **kwargs):
        calls.append(args)
        return encode(*args, **kwargs)

    monkeypatch.setattr("cnpick.cli.json.dumps", counting_dumps)
    main(argv)
    assert json.loads(capsys.readouterr().out)["command"] == argv[0]
    assert len(calls) == 1


def test_body_z0_takes_a_leading_minus(workdir, capsys):
    write_problem(workdir / "p.json", [0.4 - 0.3j], [0.2 + 0.5j])
    runs = []
    for argv in (["--z0=-0.3,0.2"], ["--z0", "-0.3,0.2"]):
        assert main(["body", "p.json", *argv, "--csv", "out", "--json"]) == 0
        files = [(workdir / "out" / f).read_bytes() for f in ("disks.csv", "membership.csv")]
        runs.append((capsys.readouterr().out, files))
    assert runs[0] == runs[1]


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


def test_stein_nodes_take_a_leading_minus(workdir, capsys):
    blaschke = workdir / "b.json"
    blaschke.write_text(json.dumps({"zeros": [[0.0, 0.0]], "multiplicities": [2]}))
    assert main(["stein", str(blaschke), "--nodes=-0.5,0.3", "--json"]) == 0
    glued = capsys.readouterr().out
    assert main(["stein", str(blaschke), "--nodes", "-0.5,0.3", "--json"]) == 0
    assert capsys.readouterr().out == glued
    assert main(["stein", str(blaschke), "--nodes", "--json"]) == 64  # still no value


@pytest.mark.parametrize(
    "blaschke, k, digests",
    [
        ({"zeros": [[0.0, 0.0]], "multiplicities": [2]}, 1,
         ("21370f63a8e0dc00e96865d158ac575cc41709b5cc1dbdcd9a37832a4a0d09ff",
          "7fd62325725d0ba567ac0a1dc7ad26fa47c630d40e4ff1beb9f153b2bee81034")),
        ({"zeros": [[0.0, 0.0]], "multiplicities": [2]}, 2,
         ("8ef3283948b58103d214da2dd36131cedd72c9da8c5952114f63d0318664500c",
          "304454dea385ef26dab327abc24a79eef2560c2b8658bd591297a92b40afe8e5")),
        ({"zeros": [[0.0, 0.0]], "multiplicities": [2]}, 3,
         ("c138f224c3f0e79c7ec8a7c89dcfb89b9018eb0f267a5340d029305b25c14678",
          "2e1e92e0edf7ab48466c5ca9c5e943bb0bf4162472ab6d27c92282f9cf3559ae")),
        ({"zeros": [[0.3, 0.1], [-0.2, 0.4]], "multiplicities": [3, 2]}, 1,
         ("c9f97c4c1167a805cf7d6e8c5192df84ba33374ef9339c70db9cb0b0c386f974",
          "ca685521cb5718cf77384531abcfbe9a9634a62d4435aa861fa5b09f5101f84c")),
        ({"zeros": [[0.3, 0.1], [-0.2, 0.4]], "multiplicities": [3, 2]}, 2,
         ("12ac9a6ec339e18570340240f18fb7fe6179ed3836cf10d58a4ffdec3b800a9a",
          "542f82d39a8ad7f47812e01e9aa8b8c59e4a57775f32bcfb488b8f31c647f2d4")),
        ({"zeros": [[0.3, 0.1], [-0.2, 0.4]], "multiplicities": [3, 2]}, 3,
         ("a1117e3f8c2e23aac86456d9602bb468d68b15ddb87fefcba5d0f3c0dfa61749",
          "1b3f4b9d78c1edc7f2fcb9aad406bfe25120e71461c572af548413463bcf4e64")),
    ],
    ids=["origin-k1", "origin-k2", "origin-k3", "degree5-k1", "degree5-k2", "degree5-k3"],
)
def test_stein_output_digests(workdir, capsys, blaschke, k, digests):
    # Golden bytes of the text and the --json stdout, by their sha256: J, Et, Q, Qt
    # and both Stein residuals, bit for bit.
    (workdir / "b.json").write_text(json.dumps(blaschke))
    for extra, stdout_digest in zip(([], ["--json"]), digests):
        assert main(["stein", "b.json", "--nodes=-0.5,0.5,0.1+0.2j", "--k", str(k), *extra]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == stdout_digest


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
    "argv",
    [
        ["check", "p.json", "--bogus"],
        ["check"],
        ["check", "p.json", "--grid", "abc"],
        ["verify", "c.json", "p.json", "--tol", "-5"],  # verify and stein use no PSD tolerance
        ["stein", "b.json", "--nodes", "0.5", "--tol", "-1"],
    ],
)
def test_command_line_usage_error_exit_64(workdir, capsys, argv):
    write_problem(workdir / "p.json", [0.5], [0.5])
    (workdir / "c.json").write_text(json.dumps({"steps": [], "tail": [0.5, 0.0]}))
    (workdir / "b.json").write_text(json.dumps({"zeros": [[0.0, 0.0]], "multiplicities": [2]}))
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


class _ReadRecorder(argparse.Namespace):
    """An ``argparse.Namespace`` that notes the name of every attribute read from it."""

    def __init__(self):
        super().__init__()
        self._reads = set()

    def __getattribute__(self, name):
        if not name.startswith("_"):
            super().__getattribute__("_reads").add(name)
        return super().__getattribute__(name)


# One run per subcommand, in order: verify reads the chain that solve writes.
OPTION_RUNS = {
    "check": ["check", "p.json", "--json"],
    "witness": ["witness", "p.json", "--samples", "8", "--json"],
    "body": ["body", "p.json", "--z0", "0.3,0", "--xres", "2", "--wres", "4", "--csv", "out", "--json"],
    "solve": ["solve", "p.json", "--out", "chain.json", "--json"],
    "verify": ["verify", "chain.json", "p.json", "--json"],
    "stein": ["stein", "b.json", "--nodes", "0.5", "--json"],
}


def test_every_registered_option_is_read(workdir, capsys):
    """A dest that no run reads is an option that does nothing."""
    write_problem(workdir / "p.json", [0.5], [0.5])
    (workdir / "b.json").write_text(json.dumps({"zeros": [[0.0, 0.0]], "multiplicities": [2]}))
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert list(OPTION_RUNS) == list(commands)
    unread = {}
    for name, argv in OPTION_RUNS.items():
        args = parser.parse_args(argv, namespace=_ReadRecorder())
        args._reads.clear()  # argparse's own reads while parsing
        assert args.func(args) == 0, name
        dests = {action.dest for action in commands[name]._actions if action.default != argparse.SUPPRESS}
        if dests - args._reads:
            unread[name] = sorted(dests - args._reads)
    assert unread == {}

import json

import numpy as np
import pytest

from cnpick.errors import ProblemFileError
from cnpick.problemfile import (
    parse_problem_text,
    serialize_problem,
)

GOOD = {
    "k": 1,
    "nodes": [[0.5, 0.0], [-0.3, 0.2]],
    "values": [[[[0.4, 0.0]]], [[[0.1, -0.2]]]],
    "blaschke": {"zeros": [[0.0, 0.0]], "multiplicities": [2]},
    "tolerances": {"psd_tol": 1e-10},
}


def test_parse_good_file():
    problem = parse_problem_text(json.dumps(GOOD))
    assert problem.data.n == 2 and problem.data.k == 1
    assert problem.data.nodes[1] == -0.3 + 0.2j
    assert problem.blaschke.is_z_squared()
    assert problem.tol.psd_tol == 1e-10


def test_scalar_value_shorthand():
    doc = {"k": 1, "nodes": [[0.5, 0.0]], "values": [[0.5, 0.0]]}
    problem = parse_problem_text(json.dumps(doc))
    assert problem.data.scalar_values()[0] == 0.5


def test_default_blaschke_is_origin_double_zero():
    doc = {"k": 1, "nodes": [[0.5, 0.0]], "values": [[0.5, 0.0]]}
    problem = parse_problem_text(json.dumps(doc))
    assert problem.blaschke.is_z_squared()


def test_matrix_values():
    doc = {
        "k": 2,
        "nodes": [[0.5, 0.0]],
        "values": [[[[0.1, 0.0], [0.0, 0.2]], [[0.0, -0.1], [0.3, 0.0]]]],
    }
    problem = parse_problem_text(json.dumps(doc))
    assert problem.data.values[0][1, 0] == 0.0 - 0.1j


def test_round_trip():
    problem = parse_problem_text(json.dumps(GOOD))
    again = parse_problem_text(json.dumps(serialize_problem(problem)))
    assert np.array_equal(problem.data.nodes, again.data.nodes)
    assert np.array_equal(problem.data.values, again.data.values)
    assert np.array_equal(problem.blaschke.zeros, again.blaschke.zeros)
    assert problem.tol == again.tol


def test_syntax_error_carries_position():
    with pytest.raises(ProblemFileError, match="line 1"):
        parse_problem_text("{nope}")


@pytest.mark.parametrize(
    "mutate, location",
    [
        (lambda d: d.update(nodes=[[0.5], [-0.3, 0.2]]), "nodes[0]"),
        (lambda d: d.update(values=[[[[0.4, 0.0]]]]), "values"),
        (lambda d: d.update(k="one"), "k"),
        (lambda d: d.update(nodes=[[0.5, 0.0], [1.5, 0.0]]), "nodes/values"),
        (lambda d: d.update(blaschke={"zeros": [[0.0, 0.0]], "multiplicities": [0]}), "blaschke"),
        (lambda d: d.update(tolerances={"psd_tol": "tiny"}), "tolerances.psd_tol"),
        (lambda d: d.update(tolerances={"bogus": 1.0}), "tolerances"),
        # Only a missing or null ``tolerances`` means the defaults.
        pytest.param(lambda d: d.update(tolerances=[]), "tolerances", id="tolerances=[]"),
        pytest.param(lambda d: d.update(tolerances=0), "tolerances", id="tolerances=0"),
        pytest.param(lambda d: d.update(tolerances=False), "tolerances", id="tolerances=False"),
        pytest.param(lambda d: d.update(tolerances=""), "tolerances", id="tolerances=''"),
    ],
)
def test_validation_errors_carry_path(mutate, location):
    doc = json.loads(json.dumps(GOOD))
    mutate(doc)
    with pytest.raises(ProblemFileError) as err:
        parse_problem_text(json.dumps(doc))
    assert location in str(err.value)


def test_value_count_must_match_nodes():
    doc = {"k": 1, "nodes": [[0.5, 0.0], [0.2, 0.0]], "values": [[0.5, 0.0]]}
    with pytest.raises(ProblemFileError, match="values"):
        parse_problem_text(json.dumps(doc))

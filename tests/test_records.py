"""The 13 record types behave as the frozen dataclasses they replace.

``REPRS`` are the texts the dataclass versions gave for the samples
below, copied literally; ``SIGNATURES`` are their ``__init__``
signatures, with the dataclasses' parameter names, order and defaults
(a ``None`` ``grid_stats`` stands for a fresh dict).  The other tests pin
value equality and hashing, frozenness, the per-instance ``grid_stats``
dict and the pickle and copy round trips.  The import guard checks that
``import cnpick.cli`` loads neither ``dataclasses`` nor ``traceback``.
"""

import copy
import inspect
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cnpick.body import BodyReport
from cnpick.feasibility import Disk, FeasReport, MatrixBall
from cnpick.interpolant import ResidualReport, SchurChain
from cnpick.kernels import GrassmannParam, ScanReport
from cnpick.linalg import ToleranceConfig
from cnpick.pick import BlaschkeSpec, DataSet, PickBundle
from cnpick.problemfile import ProblemFile

ROOT = Path(__file__).resolve().parents[1]


def _samples():
    d = DataSet(np.array([0.5, -0.25j]), np.array([[[0.125]], [[0.25j]]]))
    b = BlaschkeSpec.z_squared()
    return {
        "DataSet": d,
        "BlaschkeSpec": b,
        "PickBundle": PickBundle(d, b, np.eye(1), np.eye(1), np.zeros((1, 1)), np.ones((1, 1))),
        "ToleranceConfig": ToleranceConfig(1e-6, 1e-7),
        "Disk": Disk(0.5 + 0.25j, 0.125),
        "MatrixBall": MatrixBall(np.eye(1), 2 * np.eye(1), 3 * np.eye(1)),
        "FeasReport": FeasReport("Feasible", margin=0.5, grid_stats={"points": 3}),
        "BodyReport": BodyReport(
            0.5 + 0j, np.array([0j]), np.array([0.125 + 0j]), np.array([0.25]), np.array([0j, 0.5 + 0j])
        ),
        "GrassmannParam": GrassmannParam.scalar(0.6, 0.8),
        "ScanReport": ScanReport("PASS", 10, 9, 0.5, 8),
        "SchurChain": SchurChain(((0.5, 0.25),), 0.5j),
        "ResidualReport": ResidualReport((1e-16,), ((),), (), 1.0, 1e-8, True),
        "ProblemFile": ProblemFile(d, b, ToleranceConfig()),
    }


SAMPLES = _samples()

SIGNATURES = {
    "DataSet": "(nodes, values)",
    "BlaschkeSpec": "(zeros, multiplicities)",
    "PickBundle": "(data, blaschke, p, q, q_tilde, basis)",
    "ToleranceConfig": "(psd_tol=1e-09, residual_tol=1e-08)",
    "Disk": "(center, radius)",
    "MatrixBall": "(center, left, right)",
    "FeasReport": (
        "(status, witness_x=None, margin=-inf, grid_stats=None, detail='', certificate=None, "
        "certificate_kind=None)"
    ),
    "BodyReport": "(z0, xs, centers, radii, outer_grid)",
    "GrassmannParam": "(alpha, beta)",
    "ScanReport": (
        "(status, samples_requested, samples_evaluated, min_value, forms_evaluated, witness_param=None, "
        "witness_tuple=None, witness_value=None, witness_index=None)"
    ),
    "SchurChain": "(steps, tail=0j)",
    "ResidualReport": "(interpolation, jets, coupling, sup_norm, tol, passed)",
    "ProblemFile": "(data, blaschke, tol)",
}

_DATA = (
    "DataSet(nodes=array([ 0.5+0.j  , -0. -0.25j]), values=array([[[0.125+0.j  ]],\n\n"
    "       [[0.   +0.25j]]]))"
)
_Z2 = "BlaschkeSpec(zeros=array([0.+0.j]), multiplicities=array([2]))"
REPRS = {
    "DataSet": _DATA,
    "BlaschkeSpec": _Z2,
    "PickBundle": (
        f"PickBundle(data={_DATA}, blaschke={_Z2}, p=array([[1.]]), q=array([[1.]]), "
        "q_tilde=array([[0.]]), basis=array([[1.]]))"
    ),
    "ToleranceConfig": "ToleranceConfig(psd_tol=1e-06, residual_tol=1e-07)",
    "Disk": "Disk(center=(0.5+0.25j), radius=0.125)",
    "MatrixBall": "MatrixBall(center=array([[1.]]), left=array([[2.]]), right=array([[3.]]))",
    "FeasReport": (
        "FeasReport(status='Feasible', witness_x=None, margin=0.5, grid_stats={'points': 3}, detail='', "
        "certificate=None, certificate_kind=None)"
    ),
    "BodyReport": (
        "BodyReport(z0=(0.5+0j), xs=array([0.+0.j]), centers=array([0.125+0.j]), radii=array([0.25]), "
        "outer_grid=array([0. +0.j, 0.5+0.j]), inside=array([ True, False]))"
    ),
    "GrassmannParam": "GrassmannParam(alpha=array([[0.6+0.j]]), beta=array([[0.8+0.j]]))",
    "ScanReport": (
        "ScanReport(status='PASS', samples_requested=10, samples_evaluated=9, min_value=0.5, "
        "forms_evaluated=8, witness_param=None, witness_tuple=None, witness_value=None, witness_index=None)"
    ),
    "SchurChain": "SchurChain(steps=(((0.5+0j), (0.25+0j)),), tail=0.5j)",
    "ResidualReport": (
        "ResidualReport(interpolation=(1e-16,), jets=((),), coupling=(), sup_norm=1.0, tol=1e-08, passed=True)"
    ),
    "ProblemFile": (
        f"ProblemFile(data={_DATA}, blaschke={_Z2}, tol=ToleranceConfig(psd_tol=1e-09, residual_tol=1e-08))"
    ),
}


def test_samples_cover_the_13_records():
    assert len(SAMPLES) == 13 and set(SAMPLES) == set(SIGNATURES) == set(REPRS)
    assert all(type(record).__name__ == name for name, record in SAMPLES.items())


@pytest.mark.parametrize("name", sorted(SIGNATURES))
def test_signature_matches_dataclass(name):
    assert str(inspect.signature(type(SAMPLES[name]))) == SIGNATURES[name]


@pytest.mark.parametrize("name", sorted(REPRS))
def test_repr_matches_dataclass(name):
    assert repr(SAMPLES[name]) == REPRS[name]


def test_fields_list_every_field_in_order():
    assert BodyReport._fields == ("z0", "xs", "centers", "radii", "outer_grid", "inside")
    for name, record in SAMPLES.items():
        init = list(inspect.signature(type(record)).parameters)
        assert list(record._fields[: len(init)]) == init, name


@pytest.mark.parametrize(
    "make, other",
    [
        (lambda: SchurChain([(0.5, 0.25)], 0.5j), lambda: SchurChain([(0.5, 0.25)], 0.25j)),
        (lambda: ToleranceConfig(), lambda: ToleranceConfig(1e-8)),
        (lambda: Disk(0.5 + 0j, 0.125), lambda: Disk(0.5 + 0j, 0.25)),
    ],
    ids=["SchurChain", "ToleranceConfig", "Disk"],
)
def test_value_equality_and_hash(make, other):
    a, b = make(), make()
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert a != other() and a != tuple(a._fields)
    assert a.__eq__(tuple(getattr(a, name) for name in a._fields)) is NotImplemented


def test_body_report_compares_by_identity():
    report = SAMPLES["BodyReport"]
    twin = copy.copy(report)
    assert report == report and report != twin
    assert hash(report) == object.__hash__(report) and hash(twin) != hash(report)


def test_array_records_keep_dataclass_eq_and_hash():
    d = SAMPLES["DataSet"]
    assert d == d  # the tuple comparison sees identical arrays first
    with pytest.raises(ValueError):
        _ = d == DataSet(d.nodes.copy(), d.values)  # as the dataclass: elementwise array ==
    with pytest.raises(TypeError):
        hash(d)


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_assignment_and_deletion_raise(name):
    record = SAMPLES[name]
    before = repr(record)
    for field in record._fields + ("not_a_field",):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(record, field, 1)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(record, field)
    assert repr(record) == before


def test_feas_report_grid_stats_is_fresh_per_instance():
    first, second = FeasReport("x"), FeasReport("x")
    assert first.grid_stats == {} and second.grid_stats == {}
    assert first.grid_stats is not second.grid_stats
    first.grid_stats["points"] = 1
    assert FeasReport("x").grid_stats == {} and second.grid_stats == {}
    assert FeasReport("x", grid_stats=None).grid_stats == {}
    assert FeasReport("x", grid_stats=None).grid_stats is not FeasReport("x", grid_stats=None).grid_stats


@pytest.mark.parametrize("name", sorted(SAMPLES))
@pytest.mark.parametrize("round_trip", [lambda r: pickle.loads(pickle.dumps(r)), copy.deepcopy, copy.copy],
                         ids=["pickle", "deepcopy", "copy"])
def test_round_trips(name, round_trip):
    record = SAMPLES[name]
    back = round_trip(record)
    assert type(back) is type(record) and back is not record
    assert repr(back) == repr(record) and list(vars(back)) == list(record._fields)
    with pytest.raises(AttributeError):
        back.anything = 1


def test_init_refuses_bad_arguments_as_the_dataclass_did():
    with pytest.raises(TypeError, match=r"missing 1 required positional argument: 'radius'"):
        Disk(0.5)
    with pytest.raises(TypeError, match=r"got multiple values for argument 'center'"):
        Disk(0.5, center=0.25)
    with pytest.raises(TypeError, match=r"unexpected keyword argument 'inside'"):
        BodyReport(0j, np.zeros(0), np.zeros(0), np.zeros(0), np.zeros(0), inside=None)


GUARD = """
import json, sys
import numpy
before = set(sys.modules)
import cnpick.cli
loaded = sorted(set(sys.modules) - before)
classes = [
    f"{name}.{attr}" for name, module in list(sys.modules.items()) if name.split(".")[0] == "cnpick"
    for attr, value in vars(module).items()
    if isinstance(value, type) and hasattr(value, "__dataclass_fields__")
]
print(json.dumps({"loaded": loaded, "dataclass_classes": classes}))
"""


def test_cli_import_loads_no_dataclasses_or_traceback():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-c", GUARD], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    found = json.loads(result.stdout)
    assert "cnpick.record" in found["loaded"]  # the guard saw cnpick load
    assert "dataclasses" not in found["loaded"] and "traceback" not in found["loaded"]
    assert found["dataclass_classes"] == []

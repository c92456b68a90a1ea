"""Problem-file parsing and serialization.

A problem file is a JSON object:

    {
      "k": 1,
      "nodes": [[0.5, 0.0], [-0.3, 0.2]],
      "values": [[[[0.4, 0.0]]], [[[0.1, -0.2]]]],
      "blaschke": {"zeros": [[0.0, 0.0]], "multiplicities": [2]},
      "tolerances": {"psd_tol": 1e-9, "residual_tol": 1e-8}
    }

Complex numbers are two-element ``[re, im]`` arrays; matrices are
row-major nested arrays of them.  For ``k = 1`` a value may be given as
a bare ``[re, im]`` pair instead of a 1 x 1 matrix.  ``blaschke`` is
optional and defaults to the double zero at the origin (interpolants
with vanishing derivative at 0).  ``tolerances`` is optional: missing
or ``null`` means the defaults, anything else must be an object.

Validation failures raise :class:`ProblemFileError` carrying the JSON
path of the offending element (or line/column for syntax errors).
"""

from __future__ import annotations

import json

import numpy as np

from .errors import CnpError, ProblemFileError
from .linalg import ToleranceConfig
from .pick import BlaschkeSpec, DataSet
from .record import Record

__all__ = [
    "ProblemFile",
    "parse_problem",
    "parse_problem_text",
    "load_json_text",
    "parse_blaschke",
    "serialize_problem",
    "complex_to_json",
    "matrix_to_json",
    "matrix_from_json",
]


class ProblemFile(Record):
    data: DataSet
    blaschke: BlaschkeSpec
    tol: ToleranceConfig

    def __init__(self, data, blaschke, tol):
        self.__dict__.update(data=data, blaschke=blaschke, tol=tol)


def _want(obj, types, what, location):
    if not isinstance(obj, types):
        raise ProblemFileError(f"expected {what}", location=location)
    return obj


def _float_from(obj, what, location) -> float:
    """A JSON number (not a boolean) as a double; integers beyond its range are refused."""
    if not isinstance(obj, (int, float)) or isinstance(obj, bool):
        raise ProblemFileError(f"expected {what}", location=location)
    try:
        return float(obj)
    except OverflowError:
        raise ProblemFileError("number too large for a double", location=location) from None


def _complex_from(obj, location) -> complex:
    _want(obj, list, "a [re, im] pair", location)
    if len(obj) != 2:
        raise ProblemFileError("expected a [re, im] pair of numbers", location=location)
    return complex(*(_float_from(e, "a [re, im] pair of numbers", location) for e in obj))


def complex_to_json(z: complex):
    z = complex(z)
    return [z.real, z.imag]


def matrix_from_json(obj, k: int, location) -> np.ndarray:
    """Parse a k x k matrix of [re, im] pairs (1 x 1 shorthand allowed)."""
    _want(obj, list, "a matrix (nested lists)", location)
    if k == 1 and len(obj) == 2 and all(isinstance(e, (int, float)) for e in obj):
        return np.array([[_complex_from(obj, location)]])
    if len(obj) != k:
        raise ProblemFileError(f"expected {k} rows, got {len(obj)}", location=location)
    out = np.empty((k, k), dtype=complex)
    for r, row in enumerate(obj):
        _want(row, list, "a matrix row", f"{location}[{r}]")
        if len(row) != k:
            raise ProblemFileError(
                f"expected {k} entries, got {len(row)}", location=f"{location}[{r}]"
            )
        for c, entry in enumerate(row):
            out[r, c] = _complex_from(entry, f"{location}[{r}][{c}]")
    return out


def matrix_to_json(m: np.ndarray):
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    return [[complex_to_json(m[r, c]) for c in range(m.shape[1])] for r in range(m.shape[0])]


def parse_blaschke(obj, location="blaschke") -> BlaschkeSpec:
    _want(obj, dict, "an object with zeros and multiplicities", location)
    zeros = _want(obj.get("zeros"), list, "a list of [re, im] pairs", f"{location}.zeros")
    mult = _want(
        obj.get("multiplicities"), list, "a list of integers", f"{location}.multiplicities"
    )
    if len(zeros) != len(mult):
        raise ProblemFileError(
            "zeros and multiplicities must have the same length", location=location
        )
    zvals = [_complex_from(z, f"{location}.zeros[{i}]") for i, z in enumerate(zeros)]
    for i, r in enumerate(mult):
        if not isinstance(r, int) or isinstance(r, bool) or abs(r) >= 2**63:
            raise ProblemFileError("multiplicity must be a 64-bit integer",
                                   location=f"{location}.multiplicities[{i}]")
    try:
        return BlaschkeSpec(np.array(zvals, dtype=complex), np.array(mult, dtype=int))
    except CnpError as exc:
        raise ProblemFileError(str(exc), location=location) from exc


def load_json_text(text: str):
    """``json.loads``, with malformed JSON reported as a located :class:`ProblemFileError`."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFileError(exc.msg, location=f"line {exc.lineno} column {exc.colno}") from exc


def parse_problem_text(text: str) -> ProblemFile:
    raw = load_json_text(text)
    _want(raw, dict, "a JSON object", "$")

    k = raw.get("k", 1)
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ProblemFileError("k must be a positive integer", location="k")
    nodes_raw = _want(raw.get("nodes"), list, "a list of [re, im] pairs", "nodes")
    values_raw = _want(raw.get("values"), list, "a list of matrices", "values")
    if len(values_raw) != len(nodes_raw):
        raise ProblemFileError(
            f"got {len(nodes_raw)} nodes but {len(values_raw)} values", location="values"
        )
    nodes = [_complex_from(z, f"nodes[{i}]") for i, z in enumerate(nodes_raw)]
    values = [matrix_from_json(v, k, f"values[{i}]") for i, v in enumerate(values_raw)]
    try:
        data = DataSet(np.array(nodes, dtype=complex), np.array(values, dtype=complex))
    except CnpError as exc:
        raise ProblemFileError(str(exc), location="nodes/values") from exc

    if "blaschke" in raw and raw["blaschke"] is not None:
        blaschke = parse_blaschke(raw["blaschke"])
    else:
        blaschke = BlaschkeSpec.z_squared()

    tol_raw = {} if raw.get("tolerances") is None else raw["tolerances"]
    _want(tol_raw, dict, "an object", "tolerances")
    for key in tol_raw:
        if key not in ("psd_tol", "residual_tol"):
            raise ProblemFileError(f"unknown tolerance {key!r}", location="tolerances")
    tols = {key: _float_from(v, "a number", f"tolerances.{key}") for key, v in tol_raw.items()}
    try:
        tol = ToleranceConfig(**tols)
    except CnpError as exc:
        raise ProblemFileError(str(exc), location="tolerances") from exc
    return ProblemFile(data=data, blaschke=blaschke, tol=tol)


def parse_problem(path) -> ProblemFile:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_problem_text(handle.read())


def serialize_problem(problem: ProblemFile) -> dict:
    """Inverse of :func:`parse_problem_text` (lossless at double precision)."""
    d = problem.data
    return {
        "k": d.k,
        "nodes": [complex_to_json(z) for z in d.nodes],
        "values": [matrix_to_json(d.values[i]) for i in range(d.n)],
        "blaschke": {
            "zeros": [complex_to_json(z) for z in problem.blaschke.zeros],
            "multiplicities": [int(r) for r in problem.blaschke.multiplicities],
        },
        "tolerances": {
            "psd_tol": problem.tol.psd_tol,
            "residual_tol": problem.tol.residual_tol,
        },
    }

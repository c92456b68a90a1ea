"""Seeded problem sets for the three workloads.

The seed draws instances only: every seed yields the same kinds, sizes
and command sequences, so every seed does the same amount of work and
only the numbers inside the problem files change.  Each problem carries
the truth that its construction guarantees (``feasible``,
``infeasible`` or ``unknown`` for random data), which the output checks
compare verdicts against.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from cnpick import BlaschkeSpec, DataSet, generate_feasible
from cnpick.linalg import ToleranceConfig
from cnpick.problemfile import ProblemFile, serialize_problem

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
UNKNOWN = "unknown"

# The documented gap instance: solvable without the constraint, not with it.
INFEASIBLE_NODES = (0.3, -0.3)
INFEASIBLE_VALUES = (0.3, -0.3)

WORKLOADS = ("decide", "witness", "body")


@dataclass(frozen=True)
class Problem:
    name: str
    truth: str
    data: DataSet
    blaschke: BlaschkeSpec
    z0s: tuple = ()

    @property
    def scalar_z2(self) -> bool:
        return self.data.k == 1 and self.blaschke.is_z_squared()


def _disk_point(rng, radius):
    return radius * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())


def _nodes(rng, n, rmin=0.1, rmax=0.85, gap=0.05):
    out = []
    while len(out) < n:
        z = rng.uniform(rmin, rmax) * np.exp(2j * np.pi * rng.uniform())
        if all(abs(z - other) > gap for other in out):
            out.append(z)
    return np.asarray(out, dtype=complex)


def _contraction(rng, k, norm):
    x = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    return x * (norm / np.linalg.norm(x, 2))


def _generated(rng, n):
    data, _ = generate_feasible(int(rng.integers(2**31)), n)
    return Problem(f"generate_feasible_n{n}", FEASIBLE, data, BlaschkeSpec.z_squared())


def _random_scalar(rng, n):
    values = [_disk_point(rng, 0.85) for _ in range(n)]
    data = DataSet.scalar(_nodes(rng, n), values)
    return Problem(f"random_scalar_n{n}", UNKNOWN, data, BlaschkeSpec.z_squared())


def _infeasible_copies(rng):
    """The gap instance, rotated in the disk, and mapped by a value automorphism.

    ``f -> f(e^{-it} z)`` and ``f -> u (f - a) / (1 - conj(a) f)`` both keep
    the class ``C + z^2 H^inf`` and the unit ball, so both copies stay
    infeasible.
    """
    z2 = BlaschkeSpec.z_squared()
    nodes = np.asarray(INFEASIBLE_NODES, dtype=complex)
    values = np.asarray(INFEASIBLE_VALUES, dtype=complex)
    rotated = nodes * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    a = _disk_point(rng, 0.5)
    u = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    mapped = u * (values - a) / (1.0 - np.conj(a) * values)
    return [
        Problem("infeasible_gap", INFEASIBLE, DataSet.scalar(nodes, values), z2),
        Problem("infeasible_rotated", INFEASIBLE, DataSet.scalar(rotated, values), z2),
        Problem("infeasible_automorphism", INFEASIBLE, DataSet.scalar(nodes, mapped), z2),
    ]


def _matrix_feasible(rng, k, n):
    """``W_i = C + z_i^2 D`` with ``||C|| + ||D|| < 1``: ``C + z^2 D`` interpolates."""
    nodes = _nodes(rng, n)
    c_norm = rng.uniform(0.1, 0.5)
    c = _contraction(rng, k, c_norm)
    d = _contraction(rng, k, rng.uniform(0.1, 0.9 - c_norm))
    values = np.array([c + z**2 * d for z in nodes])
    return Problem(f"matrix_feasible_k{k}", FEASIBLE, DataSet(nodes, values), BlaschkeSpec.z_squared())


def _matrix_random(rng, k, n):
    nodes = _nodes(rng, n)
    values = np.array([_contraction(rng, k, rng.uniform(0.0, 0.85)) for _ in nodes])
    return Problem(f"matrix_random_k{k}", UNKNOWN, DataSet(nodes, values), BlaschkeSpec.z_squared())


def _blaschke_feasible(rng, n=3):
    """Degree-4 constraint (two double zeros off the origin), data from ``c + B g``.

    ``g`` is a scaled disk automorphism and ``|c| + ||g|| < 0.9``, so the
    function lies in ``C + B H^inf`` with sup-norm below one.
    """
    zeros = _nodes(rng, 2, rmin=0.2, rmax=0.6, gap=0.1)
    b = BlaschkeSpec(zeros, np.array([2, 2]))
    nodes = _nodes(rng, n)
    c = rng.uniform(0.0, 0.4) * np.exp(2j * np.pi * rng.uniform())
    gain = rng.uniform(0.0, 0.9 - abs(c)) * np.exp(2j * np.pi * rng.uniform())
    h = rng.uniform(0.0, 0.9) * np.exp(2j * np.pi * rng.uniform())
    values = c + b.evaluate(nodes) * gain * (nodes - h) / (1.0 - np.conj(h) * nodes)
    return Problem("blaschke_degree4_feasible", FEASIBLE, DataSet.scalar(nodes, values), b)


# Instances per size in ``decide``.  Whether a construction verifies or a
# verdict is determinate varies from instance to instance; with one
# instance per kind, ``verified_ratio`` moved by a quarter from seed to
# seed, so the cheap scalar kinds are drawn several times.
GENERATED_COPIES = {1: 4, 3: 4, 8: 2, 16: 1}
RANDOM_SCALAR_COPIES = {2: 3, 3: 3}


def decide_set(rng):
    problems = [_generated(rng, n) for n, copies in GENERATED_COPIES.items() for _ in range(copies)]
    problems += [_random_scalar(rng, n) for n, copies in RANDOM_SCALAR_COPIES.items() for _ in range(copies)]
    problems += _infeasible_copies(rng)
    for k, n in ((2, 3), (3, 2)):
        problems += [_matrix_feasible(rng, k, n), _matrix_random(rng, k, n)]
    problems.append(_blaschke_feasible(rng))
    return problems


def witness_set(rng):
    """Four full 500-sample scans on feasible data, three early exits."""
    problems = [_generated(rng, 3)]
    problems += [_matrix_feasible(rng, 2, 2), _matrix_feasible(rng, 2, 3), _matrix_feasible(rng, 3, 2)]
    problems += _infeasible_copies(rng)
    return problems


def body_set(rng, count=5):
    """One-point problems, each queried near the node, far from it and near the circle."""
    problems = []
    for i in range(count):
        z1 = rng.uniform(0.2, 0.7) * np.exp(2j * np.pi * rng.uniform())
        w1 = _disk_point(rng, 0.8)
        unit = z1 / abs(z1)
        near_node = z1 + 0.05 * np.exp(2j * np.pi * rng.uniform())
        far = -unit * rng.uniform(0.3, 0.6) * np.exp(1j * rng.uniform(-0.5, 0.5))
        near_circle = 0.95 * np.exp(2j * np.pi * rng.uniform())
        problems.append(
            Problem(
                f"one_point_{i}",
                FEASIBLE,
                DataSet.scalar([z1], [w1]),
                BlaschkeSpec.z_squared(),
                z0s=(complex(near_node), complex(far), complex(near_circle)),
            )
        )
    return problems


def build(workload: str, seed: int):
    """Problem set of ``workload`` for ``seed``; the same seed gives the same set."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return {"decide": decide_set, "witness": witness_set, "body": body_set}[workload](rng)


def write(problems, directory):
    """Write one problem file per problem; return the paths in order."""
    paths = []
    for i, p in enumerate(problems):
        path = os.path.join(directory, f"{i:02d}_{p.name}.json")
        document = serialize_problem(ProblemFile(p.data, p.blaschke, ToleranceConfig()))
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        paths.append(path)
    return paths

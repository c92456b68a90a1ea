"""Command sequences of the three workloads and the checks on their outputs.

A problem is the workload's full command sequence on one problem file.
Each command is an in-process call of ``cnpick.cli.main(argv)`` with
stdout and stderr captured; only those calls are timed.  The checks run
afterwards, between problems, and read what the commands printed and
wrote.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from cnpick.pick import constrained_pick_cf

from problems import FEASIBLE, INFEASIBLE

# Relative slack of the independent PSD test on the Caratheodory-Fejer
# form.  The verdict itself uses 1e-9 on the linearized form; the two
# forms are PSD-equivalent but their smallest eigenvalues differ in scale
# near the boundary, so the re-check allows a wider band.
CF_PSD_TOL = 1e-7
# Absolute slack of the inner-disk containment test in the body checks.
DISK_SLACK = 1e-9
# The documented diagnostic of a construction refusal on boundary-feasible data.
REFUSAL_PREFIX = "error: intermediate target"


@dataclass
class Outcome:
    """What one problem run answered, and which checks it failed."""

    elapsed: float = 0.0
    asked: int = 0
    decided: int = 0
    certificates: int = 0
    verified: int = 0
    failures: list = field(default_factory=list)


def _cli(argv, call):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = call(argv)
        except SystemExit as exc:  # argparse rejects a malformed command line this way
            code = exc.code
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


def _fmt(z) -> str:
    z = complex(z)
    return f"{z.real!r},{z.imag!r}"


def _independent_psd(problem, x) -> bool:
    m = constrained_pick_cf(problem.data, problem.blaschke, np.asarray(x, dtype=complex))
    w = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
    return bool(w[0] >= -CF_PSD_TOL * (1.0 + max(abs(w[0]), abs(w[-1]))))


def _kernel(alpha, beta, z, w):
    """K(z, w) = (alpha* + conj(w) beta*)(alpha + z beta) + conj(w)^2 z^2 / (1 - conj(w) z) I."""
    left = alpha.conj().T + np.conj(w) * beta.conj().T
    tail = np.conj(w) ** 2 * z**2 / (1.0 - np.conj(w) * z)
    return left @ (alpha + z * beta) + tail * np.eye(alpha.shape[1])


def _necessity_form(data, alpha, beta, xs) -> float:
    """The necessity form, summed directly from its definition."""
    total = 0.0 + 0.0j
    for i in range(data.n):
        for j in range(data.n):
            core = xs[j] @ _kernel(alpha, beta, data.nodes[i], data.nodes[j]) @ xs[i].conj().T
            total += np.trace(core) - np.trace(data.values[j].conj().T @ core @ data.values[i])
    return float(total.real)


def _matrix(doc):
    return np.array([[complex(re, im) for re, im in row] for row in doc], dtype=complex)


class Runner:
    """Runs one workload's problems through ``call`` (``cli.main`` or a traced wrapper)."""

    def __init__(self, workload, problems, paths, workdir):
        self.problems = problems
        self.paths = paths
        self.workdir = workdir
        self._run = {"decide": self._decide, "witness": self._witness, "body": self._body}[workload]

    def run(self, index, call) -> Outcome:
        outcome = Outcome()
        problem = self.problems[index]
        self._run(problem, self.paths[index], call, outcome)
        outcome.failures = [f"{problem.name}: {message}" for message in outcome.failures]
        return outcome

    # -- decide ---------------------------------------------------------

    def _decide(self, problem, path, call, o):
        code, out, err, dt = _cli(["check", "--json", path], call)
        o.elapsed += dt
        o.asked += 1
        if code not in (0, 1, 2):
            o.failures.append(f"check exit {code}: {err.strip()}")
            return
        doc = json.loads(out)
        status = doc["status"]
        if status in ("Feasible", "Infeasible"):
            o.decided += 1
        if status == "Infeasible" and problem.truth == FEASIBLE:
            o.failures.append("feasible-by-construction problem reported Infeasible")
        if status == "Feasible" and problem.truth == INFEASIBLE:
            o.failures.append("infeasible problem reported Feasible")
        if status != "Feasible":
            return
        x = _matrix(doc["witness_x"])
        if not problem.scalar_z2:
            self._check_witness_x(problem, x, o)
            return
        o.certificates += 1
        chain = os.path.join(self.workdir, "chain.json")
        if os.path.exists(chain):
            os.remove(chain)
        code, out, err, dt = _cli(
            ["solve", path, f"--x={_fmt(x[0, 0])}", "--out", chain, "--json"], call
        )
        o.elapsed += dt
        written = os.path.exists(chain)
        if written:
            code_v, out_v, err_v, dt = _cli(["verify", chain, path, "--json"], call)
            o.elapsed += dt
        self._check_witness_x(problem, x, o)
        if code == 64 and err.startswith(REFUSAL_PREFIX):
            return  # documented refusal on boundary-feasible data, not a failure
        if not written:
            o.failures.append(f"solve exit {code} wrote no chain: {err.strip() or out.strip()}")
        elif code_v == 0 and json.loads(out_v)["passed"]:
            o.verified += 1
        else:
            o.failures.append(f"written chain fails verify (exit {code_v})")

    def _check_witness_x(self, problem, x, o):
        if not _independent_psd(problem, x):
            o.failures.append("check witness fails the independent PSD test of the CF form")

    # -- witness --------------------------------------------------------

    def _witness(self, problem, path, call, o):
        code, out, err, dt = _cli(["witness", "--json", path], call)
        o.elapsed += dt
        if problem.truth == INFEASIBLE:
            o.asked += 1
        if code not in (0, 1):
            o.failures.append(f"witness exit {code}: {err.strip()}")
            return
        doc = json.loads(out)
        if doc["status"] != "WITNESS":
            return
        if problem.truth == INFEASIBLE:
            o.decided += 1
        else:
            o.failures.append("witness found on feasible-by-construction data")
        o.certificates += 1
        alpha, beta = _matrix(doc["alpha"]), _matrix(doc["beta"])
        xs = [_matrix(entry) for entry in doc["tuple"]]
        if _necessity_form(problem.data, alpha, beta, xs) < 0:
            o.verified += 1
        else:
            o.failures.append("witness certificate: recomputed necessity form is not negative")

    # -- body -----------------------------------------------------------

    def _body(self, problem, path, call, o):
        outdir = os.path.join(self.workdir, "body")
        for z0 in problem.z0s:
            code, out, err, dt = _cli(
                ["body", path, f"--z0={_fmt(z0)}", "--csv", outdir, "--json"], call
            )
            o.elapsed += dt
            o.asked += 1
            if code != 0:
                o.failures.append(f"body exit {code} at z0={z0}: {err.strip()}")
                continue
            doc = json.loads(out)
            if doc["inner_disks"] > 0:
                o.decided += 1
            disk = doc["unconstrained_disk"]
            center, radius = complex(*disk["center"]), disk["radius"]
            with open(doc["files"]["disks"], encoding="utf-8", newline="") as handle:
                rows = list(csv.DictReader(handle))
            if len(rows) != doc["inner_disks"]:
                o.failures.append("disks.csv does not hold the reported inner disks")
            for row in rows:
                o.certificates += 1
                c = complex(float(row["c_re"]), float(row["c_im"]))
                if abs(c - center) + float(row["R"]) <= radius + DISK_SLACK:
                    o.verified += 1
                else:
                    o.failures.append(f"inner disk at {c} leaves the unconstrained disk (z0={z0})")

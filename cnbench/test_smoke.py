"""Smoke tests of the benchmark itself.

    python3 -m pytest cnbench/test_smoke.py

Every workload runs once at a tiny length, untraced and traced: the last
line of stdout must carry every metric that ``BENCHMARK.json`` names,
with its unit, and ``failed = 0``.  The reference kernel must never
import cnpick, and the benchmark must refuse to run without the sources.
"""

from __future__ import annotations

import ast
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "cnbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True


def test_reference_kernel_never_imports_cnpick():
    tree = ast.parse((HERE / "reference.py").read_text())
    imported = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    imported += [n.module or "" for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    assert not [name for name in imported if name.split(".")[0] == "cnpick"]

    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(HERE)!r})\n"
        "import reference\n"
        "for kernel in set(reference.KERNELS.values()):\n"
        "    kernel().run()\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'cnpick'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_refuses_without_sources():
    bare = ROOT / ".cnbench_work" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(HERE, bare / "cnbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _bench(bare, "decide", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

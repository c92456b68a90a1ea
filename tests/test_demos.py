"""Every demo script runs to completion and prints the pinned bytes.

Each demo's stdout is pinned by its sha256, as the CLI's golden outputs
are.  A change that moves a digest changes what a demo shows, and says
why when it updates the digest.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

STDOUT_SHA256 = {
    "build_interpolant": "45403a5e6183e5881b373fb94a08a6f20bda562c729399abdf4125803a7e8a21",
    "feasibility_basics": "88fda4c4c1b85477706294490f66d495efcfa18179e62818931cbd08e69b9e96",
    "interpolation_body": "05e6fc46ab1f30bc9f97544ca5e8efe54d984c95125154c9685d5deb8b339133",
    "kernel_family": "1ede79d0aa91d2900e25ebb4fc5582ed9af9d9f2374b0344bd2f911fcae96c57",
    "matrix_ball": "ec6d40cc7eb54302eabd6e8b5a9dc8672858a5ed1ee256604237494df9a0383e",
    "stein_machinery": "f61106a95adea565378d5041dada52b60c864bbfc37ac933cc1cbe5a0ceaec1a",
}


def test_every_demo_is_pinned():
    assert sorted(STDOUT_SHA256) == [path.stem for path in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, timeout=120
    )
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout.strip()
    assert hashlib.sha256(result.stdout).hexdigest() == STDOUT_SHA256[demo.stem]

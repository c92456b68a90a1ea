"""Run one workload several times, each with another seed, and report the spread.

    python3 cnbench/spread.py --workload decide --runs 10 [--first-seed 1] [--seconds S]

Every run is untraced.  For every end-to-end metric it prints the
median, the quartiles (as ``statistics.quantiles(values, n=4)`` gives
them), the quartile distance as a share of the median, the lowest and
the highest run as a share of the median, max/min, and the quartile
share as a fraction of the metric's bound in ``BENCHMARK.json``.
``--seconds`` defaults to ``run_seconds`` from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report(workload, results, bounds):
    lines = [f"workload {workload}: {len(results)} runs"]
    lines.append(
        "  attempted " + ", ".join(str(r["attempted"]) for r in results)
        + "; failed " + ", ".join(str(r["failed"]) for r in results)
    )
    lines.append(
        f"  {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8}"
        f" {'min/med':>8} {'max/med':>8} {'max/min':>8} {'/bound':>7}"
    )
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        share = (q3 - q1) / med if med else 0.0
        low, high = (min(values) / med, max(values) / med) if med else (1.0, 1.0)
        ratio = max(values) / min(values) if min(values) > 0 else float("nan")
        lines.append(
            f"  {name:<16} {med:12.6g} {q1:12.6g} {q3:12.6g} {share:8.4f}"
            f" {low:8.4f} {high:8.4f} {ratio:8.4f} {share / bounds[name]:7.2f}"
        )
    return "\n".join(lines)


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        results.append(run_once(args.workload, seed, args.seconds))
        print(f"seed {seed}: {json.dumps(results[-1])}", flush=True)
    print(report(args.workload, results, bounds))
    return 0


if __name__ == "__main__":
    sys.exit(main())

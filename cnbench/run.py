"""Benchmark of the cnpick command line on seeded problem sets.

    python3 cnbench/run.py --workload decide|witness|body --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; cnpick is imported from the
checkout's ``src`` directory and nowhere else.  One process, one client,
a closed loop: each problem's command sequence runs through in-process
calls of ``cnpick.cli.main(argv)``, in whole passes over the problem set
until ``--seconds`` have been measured.  Each problem time is divided by
the host's speed factor from the interleaved reference kernel of the
workload (see ``reference.py``); the raw times are printed beside the
scaled ones.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs half the
time untraced and half traced and prints the per-layer metrics and the
tracing overhead.  The last line of stdout is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from reference import KERNELS, speed_factors
from tracing import COUNTS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".cnbench_work"

SETUP_REPEATS = 12
# Median fresh-interpreter ``import numpy`` time on the development host.
# Like the reference kernels' ``NOMINAL_S`` it only fixes the unit of ``setup_s``.
NUMPY_START_NOMINAL_S = 0.22


def _import_cnpick():
    if not (SRC / "cnpick" / "__init__.py").is_file():
        raise SystemExit(f"cnpick sources not found: {SRC / 'cnpick'} is missing")
    sys.path.insert(0, str(SRC))
    import cnpick

    if Path(cnpick.__file__).resolve().parent != SRC / "cnpick":
        raise SystemExit(f"imported cnpick from {cnpick.__file__}, not from {SRC}")


def measure_setup(repeats=SETUP_REPEATS):
    """Fresh-interpreter ``import cnpick.cli`` time, scaled by adjacent ``import numpy`` starts.

    The starts alternate, numpy first and last, and each cnpick start is
    divided by the mean of the two numpy starts around it, so a drift of
    the host's speed within the sequence cancels.  Returns
    ``(scaled_s, raw_s, repeats)``, both medians.  The first start is
    untimed and fills the bytecode cache.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # The cache must be written even where the caller's environment turns
    # writing off, or every start would compile the sources again.
    env.pop("PYTHONDONTWRITEBYTECODE", None)

    def start(code):
        # A blocking wait: ``subprocess.run(timeout=...)`` polls for the
        # child's exit in steps of up to 50 ms, which would round every
        # start to that step.  The timer only stops a hung child.
        began = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, env=env,
                                 stdout=subprocess.DEVNULL)
        watchdog = threading.Timer(120, child.kill)
        watchdog.start()
        try:
            status = child.wait()
        finally:
            watchdog.cancel()
        elapsed = time.perf_counter() - began
        if status != 0:
            raise SystemExit(f"fresh interpreter start exited {status}")
        return elapsed

    start("import cnpick.cli")
    base, full = [start("import numpy")], []
    for _ in range(repeats):
        full.append(start("import cnpick.cli"))
        base.append(start("import numpy"))
    ratios = [f / (0.5 * (before + after)) for f, before, after in zip(full, base, base[1:])]
    print("setup starts (s): numpy " + " ".join(f"{t:.4f}" for t in base)
          + "; cnpick.cli " + " ".join(f"{t:.4f}" for t in full))
    return statistics.median(ratios) * NUMPY_START_NOMINAL_S, statistics.median(full), repeats


class Phase:
    """Timed passes over the problem set, with a reference sample before each problem."""

    def __init__(self, runner, reference, seconds, call_for):
        self.records = []  # (pass, problem index, Outcome)
        samples = []
        began = time.perf_counter()
        count = len(runner.problems)
        npass = 0
        while npass == 0 or time.perf_counter() - began < seconds:
            for i in range(count):
                samples.append(reference.run())
                self.records.append((npass, i, runner.run(i, call_for(len(self.records)))))
            npass += 1
        samples.append(reference.run())
        self.factors = speed_factors(samples, reference.NOMINAL_S)
        self.count = count
        self.passes = npass

    def times_ms(self, scaled=True):
        """Problem times in ms, indexed ``[problem][pass]``."""
        out = [[] for _ in range(self.count)]
        for (npass, i, outcome), factor in zip(self.records, self.factors):
            out[i].append(1000.0 * outcome.elapsed / (factor if scaled else 1.0))
        return out

    def medians_ms(self, scaled=True):
        """Each problem's median time across passes, in ms."""
        return [statistics.median(t) for t in self.times_ms(scaled)]

    def problems_per_s(self, scaled=True):
        return 1000.0 * self.count / sum(self.medians_ms(scaled))


def _percentile_90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 else values[0]


def end_to_end(phase, setup, problems):
    scaled, raw = phase.times_ms(True), phase.times_ms(False)
    for problem, times, raw_times in zip(problems, scaled, raw):
        print(f"  {problem.name:<28} median {statistics.median(times):10.3f} ms"
              f"  raw {statistics.median(raw_times):10.3f} ms  (n={len(times)})")
    flat, flat_raw = sum(scaled, []), sum(raw, [])
    outcomes = [o for _, _, o in phase.records]
    asked = sum(o.asked for o in outcomes)
    certificates = sum(o.certificates for o in outcomes)
    samples = len(flat)
    rows = [
        ("setup_s", setup[0], "s", setup[1], setup[2]),
        ("problems_per_s", phase.problems_per_s(True), "1/s", phase.problems_per_s(False), samples),
        ("problem_ms_p50", statistics.median(flat), "ms", statistics.median(flat_raw), samples),
        ("problem_ms_p90", _percentile_90(phase.medians_ms(True)), "ms",
         _percentile_90(phase.medians_ms(False)), phase.count),
        ("decided_ratio", sum(o.decided for o in outcomes) / asked if asked else 0.0,
         "ratio", None, asked),
        ("verified_ratio", sum(o.verified for o in outcomes) / certificates if certificates else 0.0,
         "ratio", None, certificates),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
         "MB", None, 1),
    ]
    for name, value, unit, raw_value, n in rows:
        raw_text = f"  raw {raw_value:.6g}" if raw_value is not None else ""
        print(f"{name:<18} {value:12.6g} {unit:<6}{raw_text}  (n={n})")
    return {name: {"value": value, "unit": unit} for name, value, unit, _, _ in rows}


def per_layer(untraced, traced, tracer):
    pass_of = {rid: npass for rid, (npass, _, _) in enumerate(traced.records)}
    factor_of = dict(enumerate(traced.factors))
    values = tracer.layer_metrics(pass_of, factor_of)
    values["trace.overhead_ratio"] = traced.problems_per_s() / untraced.problems_per_s()
    metrics = {}
    for name, value in values.items():
        unit = "count" if name in COUNTS else ("ratio" if name.endswith("ratio") else "ms")
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:<38} {value:14.6g} {unit}")
    print(f"traced passes {traced.passes}, untraced passes {untraced.passes}, spans {len(tracer.spans)}")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("decide", "witness", "body"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_cnpick()
    import problems as problem_sets
    from cnpick import cli
    from workloads import Runner

    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        problems = problem_sets.build(args.workload, args.seed)
        paths = problem_sets.write(problems, str(workdir))
        runner = Runner(args.workload, problems, paths, str(workdir))
        setup = None if args.trace else measure_setup()
        reference = KERNELS[args.workload]()
        warmup = runner.run(0, cli.main)
        if args.trace:
            untraced = Phase(runner, reference, args.seconds / 2, lambda rid: cli.main)
            tracer = Tracer()
            tracer.install()
            try:
                traced = Phase(
                    runner, reference, args.seconds / 2, lambda rid: tracer.bind(rid, cli.main)
                )
            finally:
                tracer.uninstall()
            phases = [untraced, traced]
            metrics = per_layer(untraced, traced, tracer)
            traces = WORK / "traces"
            traces.mkdir(exist_ok=True)
            tracer.write(traces / f"{args.workload}-seed{args.seed}.jsonl")
        else:
            phase = Phase(runner, reference, args.seconds, lambda rid: cli.main)
            phases = [phase]
            metrics = end_to_end(phase, setup, problems)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    outcomes = [warmup] + [o for phase in phases for _, _, o in phase.records]
    failed = [o for o in outcomes if o.failures]
    for message in sorted({m for o in failed for m in o.failures}):
        print(f"FAILED: {message}")
    print(f"{type(reference).__name__} nominal {reference.NOMINAL_S * 1000:.1f} ms; "
          f"speed factors {min(f for p in phases for f in p.factors):.3f}"
          f"..{max(f for p in phases for f in p.factors):.3f}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

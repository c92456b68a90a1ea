"""Spans and counts recorded around cnpick's layers from outside the library.

The tracer wraps public functions where cnpick looks them up at call
time: the bindings in every ``cnpick.*`` module namespace, and the
``numpy.linalg`` attributes ``eigh``, ``eigvalsh`` and ``solve``.  Each
call made while a problem runs records a span ``(id, parent, problem,
name, start, end)``; spans stay in memory and are written out once, at
the end.  A span's self time is its duration minus the part of it that
its child spans cover.  The library itself is not modified.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter

ROOT = "cli"

# (module, function, span name)
SPANNED = (
    ("cnpick.problemfile", "parse_problem", "problemfile.parse_problem"),
    ("cnpick.pick", "assemble_bundle", "pick.assemble_bundle"),
    ("cnpick.pick", "constrained_pick", "pick.constrained_pick"),
    ("cnpick.feasibility", "search_x_grid", "feasibility.search_x_grid"),
    ("cnpick.kernels", "necessity_scan", "kernels.necessity_scan"),
    ("cnpick.kernels", "necessity_form_matrix", "kernels.necessity_form_matrix"),
    ("cnpick.kernels", "grassmann_sample", "kernels.grassmann_sample"),
    ("cnpick.body", "body_union", "body.body_union"),
    ("cnpick.body", "body_disk_x", "body.body_disk_x"),
    ("cnpick.body", "unconstrained_body", "body.unconstrained_body"),
    ("cnpick.interpolant", "construct_interpolant", "interpolant.construct_interpolant"),
    ("cnpick.interpolant", "verify_interpolant", "interpolant.verify_interpolant"),
    ("numpy.linalg", "eigh", "linalg.eig"),
    ("numpy.linalg", "eigvalsh", "linalg.eig"),
    ("numpy.linalg", "solve", "linalg.solve"),
)
# Called tens of thousands of times per pass: counted only, so their time
# stays in the caller's self time and the tracing overhead stays small.
COUNTED = (
    ("cnpick.pick", "pick_matrix", "pick.pick_matrix"),
    ("cnpick.kernels", "kernel_eval", "kernels.kernel_eval"),
    ("cnpick.interpolant", "chain_eval", "interpolant.chain_eval"),
)

# Per-layer metrics, in the order they are reported.
TIMES = (
    "cli.self_ms",
    "problemfile.parse_problem.ms",
    "pick.assemble_bundle.ms",
    "pick.constrained_pick.ms",
    "linalg.eig.ms",
    "linalg.solve.ms",
    "feasibility.search_x_grid.ms",
    "feasibility.search_x_grid.self_ms",
    "kernels.necessity_scan.ms",
    "kernels.necessity_form_matrix.ms",
    "kernels.grassmann_sample.ms",
    "body.body_union.ms",
    "body.body_disk_x.ms",
    "body.unconstrained_body.ms",
    "interpolant.construct_interpolant.ms",
    "interpolant.verify_interpolant.ms",
)
COUNTS = (
    "pick.assemble_bundle.calls",
    "pick.constrained_pick.calls",
    "pick.pick_matrix.calls",
    "linalg.eig.calls",
    "linalg.eig.matrices",
    "linalg.solve.calls",
    "feasibility.search_x_grid.calls",
    "feasibility.points",
    "feasibility.points_per_decided",
    "kernels.samples",
    "kernels.necessity_form_matrix.calls",
    "kernels.kernel_eval.calls",
    "body.body_disk_x.calls",
    "body.membership_points",
    "interpolant.chain_eval.calls",
)


def _grid_hook(tracer, sid, problem, result, args):
    stats = result.grid_stats or {}
    # Scalar data report grid points, matrix data their candidate count.
    tracer.counts[problem, "feasibility.points"] += stats.get("points", stats.get("candidates", 0))
    if result.status in ("Feasible", "Infeasible"):
        tracer.counts[problem, "feasibility.decided"] += 1


def _scan_hook(tracer, sid, problem, result, args):
    tracer.counts[problem, "kernels.samples"] += result.samples_evaluated


def _eig_hook(tracer, sid, problem, result, args):
    shape = getattr(args[0], "shape", ())
    matrices = 1
    for dim in shape[:-2]:
        matrices *= dim
    tracer.counts[problem, "linalg.eig.matrices"] += matrices


def _body_hook(tracer, sid, problem, result, args):
    # Every outer-grid value is tested against the whole parameter grid,
    # whose size is the number of body_disk_x children of this span.
    tracer.outer_points[sid] = len(result.outer_grid)


HOOKS = {
    "feasibility.search_x_grid": _grid_hook,
    "kernels.necessity_scan": _scan_hook,
    "linalg.eig": _eig_hook,
    "body.body_union": _body_hook,
}


class Tracer:
    """Records spans and counts while ``problem`` is set; passes calls through otherwise."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.outer_points = {}
        self.problem = None
        self._stack = []
        self._undo = []

    # -- wrapping -------------------------------------------------------

    def _spanned(self, fn, name):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            problem = self.problem
            if problem is None:
                return fn(*args, **kwargs)
            span = [len(self.spans), self._stack[-1] if self._stack else None, problem, name, 0.0, 0.0]
            self.spans.append(span)
            self._stack.append(span[0])
            self.counts[problem, name + ".calls"] += 1
            span[4] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(self, span[0], problem, result, args)
            return result

        return wrapper

    def _counted(self, fn, name):
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.problem is not None:
                self.counts[self.problem, key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Replace every binding of the traced functions; ``uninstall`` restores them."""
        targets = [(m, a, n, self._spanned) for m, a, n in SPANNED]
        targets += [(m, a, n, self._counted) for m, a, n in COUNTED]
        for module_name, attr, name, make in targets:
            home = importlib.import_module(module_name)
            original = getattr(home, attr)
            wrapper = make(original, name)
            if module_name.startswith("numpy"):
                holders = [home]
            else:
                holders = [
                    mod
                    for key, mod in list(sys.modules.items())
                    if (key == "cnpick" or key.startswith("cnpick.")) and mod is not None
                ]
            for mod in holders:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, original))

    def uninstall(self):
        while self._undo:
            mod, key, original = self._undo.pop()
            setattr(mod, key, original)

    def bind(self, problem, call):
        """``call`` as one root span per command, recorded under ``problem``."""
        root = self._spanned(call, ROOT)

        def traced(argv):
            self.problem = problem
            try:
                return root(argv)
            finally:
                self.problem = None

        return traced

    # -- results --------------------------------------------------------

    def _self_times(self):
        children = defaultdict(list)
        for span in self.spans:
            if span[1] is not None:
                children[span[1]].append((span[4], span[5]))
        self_time = {}
        for sid, _, _, _, start, end in self.spans:
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            self_time[sid] = (end - start) - covered
        return self_time

    def layer_metrics(self, pass_of, factor_of):
        """Per-layer metrics, each the median over passes of its per-pass total.

        ``pass_of`` and ``factor_of`` map a problem-run id to its pass and
        to the speed factor its times are divided by.  Counts are exact.
        """
        passes = sorted(set(pass_of.values()))
        per_pass = {p: defaultdict(float) for p in passes}
        self_time = self._self_times()
        disk_children = defaultdict(int)
        for sid, parent, problem, name, start, end in self.spans:
            totals = per_pass[pass_of[problem]]
            scale = 1000.0 / factor_of[problem]
            totals[name + ".ms"] += (end - start) * scale
            totals[name + ".self_ms"] += self_time[sid] * scale
            if name == "body.body_disk_x" and parent is not None:
                disk_children[parent] += 1
        for (problem, key), value in self.counts.items():
            per_pass[pass_of[problem]][key] += value
        for sid, outer in self.outer_points.items():
            problem = self.spans[sid][2]
            per_pass[pass_of[problem]]["body.membership_points"] += outer * disk_children[sid]
        for totals in per_pass.values():
            decided = totals["feasibility.decided"]
            totals["feasibility.points_per_decided"] = (
                totals["feasibility.points"] / decided if decided else 0.0
            )
        return {
            name: statistics.median(per_pass[p][name] for p in passes) for name in TIMES + COUNTS
        }

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, problem, name, start, end in self.spans:
                handle.write(
                    json.dumps(
                        {"id": sid, "parent": parent, "problem": problem,
                         "name": name, "start": start, "end": end}
                    )
                    + "\n"
                )

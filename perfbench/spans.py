"""In-memory span recorder for the traced benchmark run.

The tracer replaces functions on qmsd's modules with wrappers that record
a span (parent, name, start, end) per call, under the name of the module
that defines the function. Each function is wrapped where its caller looks
it up: ``qmsd.exact`` binds ``pair_arrays``/``msd_reduce``/``blocked_sum``,
``qmsd.montecarlo`` binds ``sample_phases``/``ensemble_positions``, and
``qmsd.cli`` binds everything it calls. Work counts are taken from argument
and result shapes at the same boundary; byte counts are computed from
those shapes, not measured.

A span's self time is its duration minus that of its children. Per-module
self times plus the time no span covers add up to the traced pass time.
"""

from __future__ import annotations

import importlib
import math
import os
from collections import defaultdict
from time import perf_counter

import numpy as np

MODULES = ("constants", "basis", "kernels", "exact", "closedforms", "ideal",
           "montecarlo", "scattering", "output", "svgplot", "cli")


def _count_basis(t, basis, *args, **kwargs):
    t.counts["basis.K"] += basis.K


def _count_pairs(t, result, *args, **kwargs):
    wprod, half_omega = result
    c = t.counts
    c["kernels.pairs"] += wprod.size
    c["kernels.pair_bytes"] += wprod.nbytes + half_omega.nbytes
    # pair_arrays keeps the states at or above its weight floor and pairs them
    # n < j, so pairs = kept (kept - 1) / 2
    root = math.isqrt(1 + 8 * wprod.size)
    if root * root != 1 + 8 * wprod.size:
        raise ValueError(f"{wprod.size} pairs is not kept (kept - 1) / 2 for any kept")
    c["basis.kept_states"] += (1 + root) // 2


def _count_reduce(t, result, wprod, *args, **kwargs):
    c = t.counts
    n, nt = np.size(wprod), np.size(result)
    c["kernels.pair_evals"] += n * nt
    # each time point reads both pair arrays and writes one float64
    c["kernels.reduce_bytes_computed"] += 8 * (2 * n * nt + nt)


def _count_members(t, result, wt, *args, **kwargs):
    c = t.counts
    members, nt = result.shape
    K = np.size(wt)
    c["kernels.member_evals"] += members * nt
    # per member and time: K x K matrix-vector product plus O(K) phase work
    c["kernels.member_flops_computed"] += members * nt * (2 * K * K + 6 * K)


def _count_phases(t, result, *args, **kwargs):
    t.counts["montecarlo.phase_draws"] += result.size


def _keep_ensemble(t, result, *args, **kwargs):
    # kept so that the checks can compare the estimate with the reference
    # sum even when the program's own 3-stderr gate refuses it
    t.ensembles.append({"t_s": result.times.tolist(), "mc_msd_m2": result.mean_msd.tolist(),
                        "mc_stderr_m2": result.stderr.tolist()})


def _count_collision(t, result, *args, **kwargs):
    t.counts["closedforms.collision_calls"] += 1


def _count_csv(t, result, path, *args, **kwargs):
    t.counts["output.csv_bytes"] += os.path.getsize(path)


def _count_svg(t, result, *args, **kwargs):
    t.counts["svgplot.bytes"] += len(result)


# (module that looks the name up, attribute, span name, counter)
WRAPS = (
    ("qmsd.cli", "derive_scales", "constants.derive_scales", None),
    ("qmsd.cli", "build_basis", "basis.build_basis", _count_basis),
    ("qmsd.cli", "partition_function", "basis.partition_function", None),
    ("qmsd.cli", "breve_closed", "closedforms.breve_closed", None),
    ("qmsd.cli", "msd_collision_model", "closedforms.msd_collision_model", _count_collision),
    ("qmsd.cli", "breve_sum", "exact.breve_sum", None),
    ("qmsd.cli", "msd_exact_curve", "exact.msd_exact_curve", None),
    ("qmsd.cli", "msd_ideal_curve", "ideal.msd_ideal_curve", None),
    ("qmsd.cli", "sample_msd", "montecarlo.sample_msd", _keep_ensemble),
    ("qmsd.cli", "sample_msd_rerandomized", "montecarlo.sample_msd_rerandomized", None),
    ("qmsd.cli", "isf", "scattering.isf", None),
    ("qmsd.cli", "isf_phase", "scattering.isf_phase", None),
    ("qmsd.cli", "dsf", "scattering.dsf", None),
    ("qmsd.cli", "config_hash", "output.config_hash", None),
    ("qmsd.cli", "write_csv", "output.write_csv", _count_csv),
    ("qmsd.cli", "write_json_meta", "output.write_json_meta", None),
    ("qmsd.cli", "line_plot", "svgplot.line_plot", _count_svg),
    ("qmsd.exact", "pair_arrays", "kernels.pair_arrays", _count_pairs),
    ("qmsd.exact", "msd_reduce", "kernels.msd_reduce", _count_reduce),
    ("qmsd.exact", "blocked_sum", "kernels.blocked_sum", None),
    ("qmsd.montecarlo", "sample_phases", "montecarlo.sample_phases", _count_phases),
    ("qmsd.montecarlo", "ensemble_positions", "kernels.ensemble_positions", _count_members),
    ("qmsd.montecarlo", "antisym_coupling_matrix", "kernels.antisym_coupling_matrix", None),
)

# per-layer metric -> span names whose inclusive time it sums
INCLUSIVE = {
    "kernels.msd_reduce_s": ("kernels.msd_reduce",),
    "kernels.pair_arrays_s": ("kernels.pair_arrays",),
    "kernels.blocked_sum_s": ("kernels.blocked_sum",),
    "kernels.ensemble_positions_s": ("kernels.ensemble_positions",),
    "exact.curve_s": ("exact.msd_exact_curve",),
    "exact.breve_sum_s": ("exact.breve_sum",),
    "montecarlo.sample_phases_s": ("montecarlo.sample_phases",),
    "basis.build_s": ("basis.build_basis",),
    "closedforms.collision_s": ("closedforms.msd_collision_model",),
    "closedforms.breve_closed_s": ("closedforms.breve_closed",),
    "ideal.curve_s": ("ideal.msd_ideal_curve",),
    "scattering.s": ("scattering.isf", "scattering.isf_phase", "scattering.dsf"),
    "output.csv_s": ("output.write_csv",),
    "output.meta_s": ("output.write_json_meta",),
    "svgplot.s": ("svgplot.line_plot",),
}

COUNTS = ("kernels.pair_evals", "kernels.reduce_bytes_computed", "kernels.pairs",
          "kernels.pair_bytes", "kernels.member_evals", "kernels.member_flops_computed",
          "montecarlo.phase_draws", "basis.K", "basis.kept_states",
          "closedforms.collision_calls", "output.csv_bytes", "svgplot.bytes")


class Tracer:
    def __init__(self):
        self.spans = []      # (parent index or -1, name, start, end)
        self.counts = defaultdict(int)
        self.passes = 0
        self.pass_s = 0.0    # summed duration of the traced passes
        self.covered_s = 0.0  # part of it covered by root spans
        self.ensembles = []  # sample_msd results, taken by the worker per op
        self._stack = []
        self._saved = []
        self._pass_start = 0

    def call(self, name, fn, args=(), kwargs=None, counter=None):
        kwargs = kwargs or {}
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.spans[index] = (parent, name, t0, t1)
        if counter is not None:
            counter(self, result, *args, **kwargs)
        return result

    def _wrap(self, fn, name, counter):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counter)
        return traced

    def install(self):
        self._pass_start = len(self.spans)
        for module_name, attr, name, counter in WRAPS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)  # a missing target fails the traced run
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, counter))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def end_pass(self, pass_s: float):
        self.passes += 1
        self.pass_s += pass_s
        self.covered_s += sum(t1 - t0 for parent, _, t0, t1
                              in self.spans[self._pass_start:] if parent == -1)

    def summary(self) -> dict:
        """Per-pass means over the traced passes."""
        n = max(self.passes, 1)
        inclusive = defaultdict(float)
        child = defaultdict(float)
        for parent, name, t0, t1 in self.spans:
            inclusive[name] += t1 - t0
            if parent >= 0:
                child[parent] += t1 - t0
        self_by_module = dict.fromkeys(MODULES, 0.0)
        for index, (_, name, t0, t1) in enumerate(self.spans):
            module = name.split(".")[0]
            self_by_module[module] = self_by_module.get(module, 0.0) + t1 - t0 - child[index]
        out = {metric: sum(inclusive[s] for s in names) / n
               for metric, names in INCLUSIVE.items()}
        out.update({f"{m}.self_s": s / n for m, s in self_by_module.items()})
        out.update({c: self.counts[c] / n for c in COUNTS})
        reduce_s = inclusive["kernels.msd_reduce"]
        out["kernels.pair_evals_per_s"] = (self.counts["kernels.pair_evals"] / reduce_s
                                           if reduce_s else 0.0)
        out["trace.run_s"] = self.pass_s / n
        out["trace.unattributed_s"] = (self.pass_s - self.covered_s) / n
        return {"metrics": out, "passes": self.passes, "spans": len(self.spans)}

    def write_spans(self, path):
        with open(path, "w") as f:
            f.write("id,parent,name,start_s,end_s\n")
            for index, (parent, name, t0, t1) in enumerate(self.spans):
                f.write(f"{index},{parent},{name},{t0:.9f},{t1:.9f}\n")

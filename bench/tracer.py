"""Spans and counters around auditopt's public functions, installed from outside.

`install` replaces each public function (and the test and audit methods
the solvers call per point or per step) by a wrapper, in every auditopt
module that holds a reference to it, so calls between modules are seen too.
A span records its name, start, end and parent; spans stay in memory and
are written out at the end. Self time is a span's time minus the time of
the wrapped calls made inside it.

Per-point and per-step leaves (test evaluations, Audit.test_at, the
liability loss and the opt-out utility) are counted and timed but not kept
as spans: Monte Carlo alone makes millions of them.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

LEAVES = {"types.test_eval", "multistep.Audit.test_at", "threshold.liability_loss",
          "threshold.opt_out_utility"}

PUBLIC = {
    "types": ["ThresholdTest.__call__", "LinearTest.__call__", "ConstantTest.__call__"],
    "core": ["g_value", "waiver_cost", "golden_max", "optimal_strategy",
             "enumerate_schedules", "value_iteration_oracle"],
    "threshold": ["liability_loss", "opt_out_utility", "max_opt_out_utility", "gamma_bar",
                  "coverage_grid", "ca_shape_report"],
    "linear": ["g_linear", "design_static", "capacity_gap_bound", "tail_value",
               "two_step_value", "argmax_largest_tie", "design_dynamic_easier_first",
               "design_dynamic_harder_first"],
    "multistep": ["Audit.test_at", "backward_induction", "perturb_one_test", "truncate",
                  "approximation_study", "bdd_check"],
    "sim": ["evaluate_schedule", "simulate", "never_quit_audit_trail"],
    "cli": ["main", "cmd_g_sweep", "cmd_optimal", "cmd_coverage", "cmd_design",
            "cmd_approx", "cmd_simulate"],
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent id or -1, name, start, end)
        self.keep_spans = True
        self.stack: list[list] = []  # open calls: [id, name, seconds spent in wrapped children]
        self.active: dict[str, int] = defaultdict(int)
        self.next_id = 0
        self.reset()

    def reset(self) -> None:
        """Start a new set of counters; spans already kept stay."""
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "total_s": dict(self.total_s), "counts": dict(self.counts)}

    def wrap(self, name: str, fn, hook=None, after=None):
        tracer = self
        keep = name not in LEAVES

        def traced(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            if hook is not None:
                args, kwargs = hook(tracer, parent, args, kwargs)
            frame = [tracer.next_id, name, 0.0]
            tracer.next_id += 1
            stack.append(frame)
            tracer.active[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.active[name] -= 1
                took = end - start
                tracer.calls[name] += 1
                tracer.self_s[name] += took - frame[2]
                tracer.total_s[name] += took
                if parent is not None:
                    parent[2] += took
                if keep and tracer.keep_spans:
                    tracer.spans.append((frame[0], parent[0] if parent else -1, name, start, end))
            if after is not None:
                after(tracer, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for sid, parent, name, start, end in self.spans:
                fh.write(f"{sid},{parent},{name},{start!r},{end!r}\n")


# ---------------------------------------------------------- counters


def _count_points(key, index):
    def hook(tracer, parent, args, kwargs):
        x = args[index] if len(args) > index else kwargs["x"]
        tracer.counts[key] += int(np.size(x))
        return args, kwargs

    return hook


def _golden(tracer, parent, args, kwargs):
    f = args[0]

    def counted(x):
        tracer.counts["core.golden_max.evals"] += 1
        return f(x)

    if parent is not None and parent[1] == "core.optimal_strategy":
        tracer.counts["core.optimal_strategy.refines"] += 1
    return (counted,) + tuple(args[1:]), kwargs


def _opt_out_solve(tracer, parent, args, kwargs):
    if tracer.active["threshold.gamma_bar"]:
        tracer.counts["threshold.gamma_bar.opt_out_solves"] += 1
    return args, kwargs


def _test_at(tracer, parent, args, kwargs):
    if tracer.active["sim.simulate"]:
        tracer.counts["sim.simulate.steps"] += 1
    return args, kwargs


def _episodes(tracer, parent, args, kwargs):
    tracer.counts["sim.simulate.episodes"] += int(
        args[3] if len(args) > 3 else kwargs["episodes"])
    return args, kwargs


def _grid_points(tracer, result):
    tracer.counts["multistep.backward_induction.grid_points"] += int(result.xs.size)


HOOKS = {
    "types.test_eval": (_count_points("types.test_eval.points", 1), None),
    "threshold.liability_loss": (_count_points("threshold.liability_loss.points", 1), None),
    "linear.two_step_value": (_count_points("linear.two_step_value.points", 3), None),
    "core.golden_max": (_golden, None),
    "threshold.max_opt_out_utility": (_opt_out_solve, None),
    "multistep.Audit.test_at": (_test_at, None),
    "sim.simulate": (_episodes, None),
    "multistep.backward_induction": (None, _grid_points),
}


def install(tracer: Tracer) -> None:
    """Wrap every function in PUBLIC wherever an auditopt module refers to it."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "auditopt" or name.startswith("auditopt."))]
    for short, names in PUBLIC.items():
        mod = sys.modules[f"auditopt.{short}"]
        for qual in names:
            if "." in qual:
                cls_name, meth = qual.split(".")
                span = "types.test_eval" if meth == "__call__" else f"{short}.{qual}"
                cls = getattr(mod, cls_name)
                hook, after = HOOKS.get(span, (None, None))
                setattr(cls, meth, tracer.wrap(span, cls.__dict__[meth], hook, after))
                continue
            span = f"{short}.{qual}"
            original = getattr(mod, qual)
            hook, after = HOOKS.get(span, (None, None))
            wrapped = tracer.wrap(span, original, hook, after)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapped)

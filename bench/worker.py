"""Runs one workload's operations against auditopt, one at a time, in this process.

    python3 worker.py JOB.json RESULT.json
        Imports auditopt, makes one small warm-up call, prints "ready <path of
        the auditopt package>" and waits for a line on stdin. On "run" it runs
        the job and writes the result file; on end of input it exits, which
        is how run.py times set-up in several fresh interpreters.

    python3 worker.py --traced-cli COUNTERS.json SPANS.csv -- ARGS...
        Runs one auditopt CLI command with the tracer installed and writes
        its counters and spans.

run.py starts it with the checkout's src/ on PYTHONPATH.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys
import time

import auditopt
from auditopt import cli, core, linear, multistep, sim, threshold, types

import tracer as tracing


def _params(p: dict) -> types.VendorParams:
    return types.VendorParams(R=p["R"], c=p["c"], alpha=p["alpha"])


def prepare(op: dict, out_dir: str, traced_cli: bool = False):
    """(call, to_json, failed) for one operation.

    Inputs are built here, outside the timed call; the call looks the
    solver up on its module each time, so an installed tracer sees it.
    `failed(result)` says whether the program itself reported failure.
    """
    kind, a = op["kind"], op["args"]
    ok = lambda r: False
    to_json = lambda r: r.to_json()
    if kind in ("optimal_strategy", "value_iteration"):
        test, P = types.TestFunction.from_json(a["test"]), _params(a["params"])
        if kind == "optimal_strategy":
            return (lambda: core.optimal_strategy(test, P)), to_json, ok
        return ((lambda: core.value_iteration_oracle(test, P)),
                (lambda r: {"at_zero": r.at_zero()}), ok)
    if kind.startswith("design_"):
        P = _params(a["params"])
        not_verified = lambda r: not r.verified
        if kind == "design_static":
            return (lambda: linear.design_static(P)), to_json, not_verified
        if kind == "design_easier_first":
            return (lambda: linear.design_dynamic_easier_first(P)), to_json, not_verified
        eps = a["epsilon"]
        return ((lambda: linear.design_dynamic_harder_first(P, epsilon=eps)), to_json,
                not_verified)
    if kind in ("backward_induction", "approximation_study"):
        P = _params(a["params"])
        audit = multistep.Audit.from_json(a["audit"])
        grid = types.GridSpec(x_max=a["grid"]["x_max"], step=a["grid"]["step"])
        if kind == "backward_induction":
            return ((lambda: multistep.backward_induction(audit, P, grid)),
                    (lambda r: {"values": r.values.tolist(), "maximizer": r.maximizer,
                                "max_value": r.max_value}), ok)
        ks = list(a["k_list"])
        return ((lambda: multistep.approximation_study(audit, P, grid, ks)),
                (lambda r: {"rows": [[row.k, row.measured_error, row.bound, row.maximizer]
                                     for row in r.rows],
                            "reference_residual": r.reference_residual,
                            "reference_maximizer": r.reference_maximizer}), ok)
    if kind == "coverage_grid":
        P = _params(a)
        deltas, sigmas, mu0, s0 = list(a["deltas"]), list(a["sigmas"]), a["mu0"], a["s0"]
        return ((lambda: threshold.coverage_grid(deltas, sigmas, mu0, s0, P)),
                (lambda cells: {"gamma_bar": [c.gamma_bar for c in cells]}), ok)
    if kind in ("simulate", "evaluate_schedule"):
        P = _params(a["params"])
        audit = multistep.Audit.from_json(a["audit"])
        schedule = types.Schedule(levels=tuple(a["schedule"]))
        if kind == "simulate":
            n, seed = a["episodes"], a["seed"]
            return ((lambda: sim.simulate(schedule, audit, P, episodes=n, seed=seed)),
                    to_json, ok)
        return ((lambda: sim.evaluate_schedule(schedule, audit, P)),
                (lambda v: {"value": v}), ok)
    if kind == "cli":
        return _prepare_cli(op, out_dir, traced_cli)
    raise ValueError(f"unknown operation kind {kind!r}")


def _prepare_cli(op: dict, out_dir: str, traced: bool):
    a = op["args"]
    if traced:
        base = os.path.join(out_dir, "trace", op["id"])
        argv = [sys.executable, os.path.abspath(__file__), "--traced-cli",
                base + ".counters.json", base + ".spans.csv", "--", *a["argv"]]
    else:
        argv = [sys.executable, "-m", "auditopt.cli", *a["argv"]]

    # the CLI runs from the same source tree as this worker
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(auditopt.__file__)))

    def call():
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=150, env=env)
        return proc.returncode, proc.stderr

    def to_json(result):
        code, stderr = result
        out = {"exit": code, "stderr": stderr, "text": None, "meta": None}
        if code == 0:
            with open(a["output"]) as fh:
                out["text"] = fh.read()
            if a["argv"][0] == "g-sweep":
                with open(a["output"] + ".meta.json") as fh:
                    out["meta"] = fh.read()
        return out

    return call, to_json, (lambda r: r[0] != 0)


def run_rounds(ops: list[dict], calls: list, budget_s: float, min_rounds: int,
               after_round=None) -> tuple[list[dict], list[dict]]:
    """Whole rounds of every operation, started until the budget is spent.

    Returns one record per round (latencies, failed ids, output digest) and
    the outputs of the first round.
    """
    rounds, first = [], None
    start = time.perf_counter()
    while True:
        lat, failed, outputs = [], [], []
        for op, (call, to_json, program_failed) in zip(ops, calls):
            t0 = time.perf_counter()
            try:
                result = call()
            except Exception as exc:  # an operation that raises counts as failed
                lat.append(time.perf_counter() - t0)
                failed.append(op["id"])
                outputs.append({"error": repr(exc)})
                continue
            lat.append(time.perf_counter() - t0)
            out = to_json(result)
            if program_failed(result):
                failed.append(op["id"])
            outputs.append(out)
        blob = json.dumps(outputs, sort_keys=True).encode()
        record = {"lat": lat, "failed": failed, "digest": hashlib.sha256(blob).hexdigest()}
        if after_round is not None:
            record.update(after_round())
        rounds.append(record)
        if first is None:
            first = outputs
        if len(rounds) >= min_rounds and time.perf_counter() - start >= budget_s:
            return rounds, first


def run_job(job: dict) -> dict:
    ops, out_dir, seconds = job["ops"], job["out_dir"], job["seconds"]
    is_cli = all(op["kind"] == "cli" for op in ops)
    calls = [prepare(op, out_dir) for op in ops]
    untraced_budget = seconds / 2.0 if job["trace"] else seconds
    rounds, outputs = run_rounds(ops, calls, untraced_budget, min_rounds=2)
    who = resource.RUSAGE_CHILDREN if is_cli else resource.RUSAGE_SELF
    result = {"rounds": rounds, "outputs": outputs,
              "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0}
    if job["trace"]:
        tracer = tracing.Tracer()
        if is_cli:
            os.makedirs(os.path.join(out_dir, "trace"), exist_ok=True)
            calls = [prepare(op, out_dir, traced_cli=True) for op in ops]

            def collect():
                snaps = []
                for op in ops:
                    with open(os.path.join(out_dir, "trace", op["id"] + ".counters.json")) as fh:
                        snaps.append(json.load(fh))
                return {"counters": merge(snaps)}
        else:
            tracing.install(tracer)

            def collect():
                snap = tracer.snapshot()
                tracer.reset()
                tracer.keep_spans = False  # spans of the first traced round only
                return {"counters": snap}

        traced, _ = run_rounds(ops, calls, seconds - untraced_budget, min_rounds=1,
                               after_round=collect)
        if not is_cli:
            tracer.write_spans(os.path.join(out_dir, "spans.csv"))
        result["traced_rounds"] = traced
    return result


def merge(snaps: list[dict]) -> dict:
    total = {"calls": {}, "self_s": {}, "total_s": {}, "counts": {}}
    for snap in snaps:
        for part, values in snap.items():
            for key, v in values.items():
                total[part][key] = total[part].get(key, 0) + v
    return total


def traced_cli(counters_path: str, spans_path: str, argv: list[str]) -> int:
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        code = cli.main(argv)
    finally:
        with open(counters_path, "w") as fh:
            json.dump(tracer.snapshot(), fh)
        tracer.write_spans(spans_path)
    return code


def main() -> int:
    if sys.argv[1] == "--traced-cli":
        return traced_cli(sys.argv[2], sys.argv[3], sys.argv[5:])
    job_path, result_path = sys.argv[1], sys.argv[2]
    core.optimal_strategy(types.ThresholdTest(1.0, 1.0), types.VendorParams(4.0, 1.0, 0.5))
    print("ready", os.path.dirname(os.path.abspath(auditopt.__file__)), flush=True)
    if sys.stdin.readline().strip() != "run":
        return 0
    with open(job_path) as fh:
        job = json.load(fh)
    result = run_job(job)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

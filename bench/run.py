"""auditopt benchmark: one seeded workload per run, in a closed loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is the checkout's src/auditopt. One worker
process (worker.py) calls the program one operation at a time and starts
the next only when the last has returned. It repeats whole rounds of the
workload's fixed operation list for S seconds. The outputs of the first
round are then checked against oracle.py, which shares no code with the
program, and every later round must reproduce them bit for bit. An
operation listed in workloads.KNOWN_FAULTS whose output fails its check
counts as failed; any other failed check makes the result incorrect.

--trace 0 prints the end-to-end metrics. --trace 1 spends half the time on
untraced rounds and half on rounds with every public function of the
program wrapped (tracer.py); it prints the per-layer metrics, writes the
spans under .bench_out/, and reports the tracing overhead.
--workload all runs every workload in turn.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Exit code 2 means the benchmark
could not run (for example, no src/auditopt in the checkout).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5  # fresh interpreters timed to "auditopt imported and warmed up"
# after --seconds the worker finishes the round in progress and writes its
# result; the longest round (cli-readme, traced) takes about 15 s
ROUND_MARGIN_S = 90.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}

README_NAMES = [name for name, _, _ in workloads.README_COMMANDS]

# name -> (unit, how it is read from one traced round's counters)
PER_LAYER_COUNTERS = {
    "types.test_eval.calls": ("count", ("calls", "types.test_eval")),
    "types.test_eval.points": ("count", ("counts", "types.test_eval.points")),
    "types.test_eval.self_s": ("s", ("self_s", "types.test_eval")),
    "core.g_value.calls": ("count", ("calls", "core.g_value")),
    "core.g_value.self_s": ("s", ("self_s", "core.g_value")),
    "core.golden_max.calls": ("count", ("calls", "core.golden_max")),
    "core.golden_max.evals": ("count", ("counts", "core.golden_max.evals")),
    "core.golden_max.self_s": ("s", ("self_s", "core.golden_max")),
    "core.optimal_strategy.calls": ("count", ("calls", "core.optimal_strategy")),
    "core.optimal_strategy.self_s": ("s", ("self_s", "core.optimal_strategy")),
    "core.optimal_strategy.refines_per_call": (
        "1/call", ("ratio", "core.optimal_strategy.refines", "core.optimal_strategy")),
    "core.value_iteration_oracle.calls": ("count", ("calls", "core.value_iteration_oracle")),
    "core.value_iteration_oracle.self_s": ("s", ("self_s", "core.value_iteration_oracle")),
    "threshold.coverage_grid.self_s": ("s", ("self_s", "threshold.coverage_grid")),
    "threshold.gamma_bar.calls": ("count", ("calls", "threshold.gamma_bar")),
    "threshold.gamma_bar.self_s": ("s", ("self_s", "threshold.gamma_bar")),
    "threshold.max_opt_out_utility.calls": ("count", ("calls", "threshold.max_opt_out_utility")),
    "threshold.max_opt_out_utility.self_s": ("s", ("self_s", "threshold.max_opt_out_utility")),
    "threshold.opt_out_solves_per_cell": (
        "1/cell", ("ratio", "threshold.gamma_bar.opt_out_solves", "threshold.gamma_bar")),
    "threshold.liability_loss.calls": ("count", ("calls", "threshold.liability_loss")),
    "threshold.liability_loss.points": ("count", ("counts", "threshold.liability_loss.points")),
    "linear.design_static.self_s": ("s", ("self_s", "linear.design_static")),
    "linear.design_dynamic_easier_first.self_s": (
        "s", ("self_s", "linear.design_dynamic_easier_first")),
    "linear.design_dynamic_harder_first.self_s": (
        "s", ("self_s", "linear.design_dynamic_harder_first")),
    "linear.argmax_largest_tie.calls": ("count", ("calls", "linear.argmax_largest_tie")),
    "linear.argmax_largest_tie.self_s": ("s", ("self_s", "linear.argmax_largest_tie")),
    "linear.two_step_value.points": ("count", ("counts", "linear.two_step_value.points")),
    "multistep.backward_induction.calls": ("count", ("calls", "multistep.backward_induction")),
    "multistep.backward_induction.self_s": ("s", ("self_s", "multistep.backward_induction")),
    "multistep.backward_induction.grid_points": (
        "count", ("counts", "multistep.backward_induction.grid_points")),
    "multistep.approximation_study.self_s": ("s", ("self_s", "multistep.approximation_study")),
    "sim.simulate.self_s": ("s", ("self_s", "sim.simulate")),
    "sim.simulate.episodes": ("count", ("counts", "sim.simulate.episodes")),
    "sim.simulate.episodes_per_s": ("1/s", ("rate", "sim.simulate.episodes", "sim.simulate")),
    "sim.simulate.steps": ("count", ("counts", "sim.simulate.steps")),
    "sim.evaluate_schedule.calls": ("count", ("calls", "sim.evaluate_schedule")),
    "sim.evaluate_schedule.self_s": ("s", ("self_s", "sim.evaluate_schedule")),
}
PER_LAYER = {
    **{name: unit for name, (unit, _) in PER_LAYER_COUNTERS.items()},
    "cli.import_s": "s",
    "cli.import_scipy_special_s": "s",
    **{f"cli.{name}.wall_s": "s" for name in README_NAMES},
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _median(values) -> float:
    return float(statistics.median(values))


def start_worker(job_path: Path, result_path: Path) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait until it has imported auditopt; return it and that time."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(job_path), str(result_path)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=_env(), cwd=ROOT,
        start_new_session=True)
    line = proc.stdout.readline()
    took = time.perf_counter() - t0
    words = line.split(maxsplit=1)
    if words[:1] != ["ready"]:
        stop(proc)
        raise BenchError(f"worker did not start: {line!r}")
    if Path(words[1].strip()) != ROOT / "src" / "auditopt":
        stop(proc)
        raise BenchError(f"imported auditopt from {words[1].strip()}, not from this checkout")
    return proc, took


def stop(proc: subprocess.Popen) -> None:
    """Kill the worker and any CLI process it started, and wait for it."""
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()


def run_worker(name: str, seed: int, seconds: float, trace: bool) -> tuple[list, dict, list]:
    out_dir = OUT / name
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    ops = workloads.make_ops(name, seed, str(out_dir / "cli"))
    job_path, result_path = out_dir / "job.json", out_dir / "result.json"
    job_path.write_text(json.dumps({"ops": ops, "seconds": seconds, "trace": trace,
                                    "out_dir": str(out_dir)}))
    setups = []
    for i in range(SETUP_PROBES):
        proc, took = start_worker(job_path, result_path)
        setups.append(took)
        last = i == SETUP_PROBES - 1
        try:
            proc.stdin.write("run\n" if last else "")
            proc.stdin.close()
            proc.wait(timeout=seconds + ROUND_MARGIN_S if last else 30.0)
        except subprocess.TimeoutExpired:
            raise BenchError("worker did not finish in time")
        finally:
            stop(proc)
        if proc.returncode != 0:
            raise BenchError(f"worker exited with code {proc.returncode}")
    return ops, json.loads(result_path.read_text()), setups


def verify(ops: list, result: dict) -> tuple[list[str], list[str]]:
    """Check the first round's outputs and that every round reproduced them.

    Returns the check errors and the ids of the operations that failed in
    every round: those the program itself reported as failed, and the known
    faults (workloads.KNOWN_FAULTS) whose output fails its check.
    """
    rounds = result["rounds"] + result.get("traced_rounds", [])
    errors = []
    if len({r["digest"] for r in rounds}) != 1:
        errors.append("rounds of the same operations gave different outputs")
    if len({tuple(r["failed"]) for r in rounds}) != 1:
        errors.append("rounds of the same operations failed differently")
    program_failed = set(result["rounds"][0]["failed"])
    failed = []
    for op, out in zip(ops, result["outputs"]):
        if op["id"] in program_failed:
            failed.append(op["id"])
            continue
        errs = oracle.check(op, out)
        if errs and op["id"] in workloads.KNOWN_FAULTS:
            failed.append(op["id"])
        else:
            errors += [f"{op['id']}: {e}" for e in errs]
    return errors, failed


def import_times() -> tuple[float, float]:
    """Cumulative import time of auditopt and of scipy.special, from -X importtime."""
    found = {"auditopt": [], "scipy.special": []}
    for _ in range(3):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import auditopt"],
                              capture_output=True, text=True, env=_env(), cwd=ROOT, timeout=60)
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$", line)
            if m and m.group(2) in found:
                found[m.group(2)].append(int(m.group(1)) / 1e6)
    if not found["auditopt"]:
        raise BenchError("could not read the import time of auditopt")
    return _median(found["auditopt"]), _median(found["scipy.special"] or [0.0])


def pass_wall(rounds: list[dict]) -> float:
    """Median over rounds of the time one whole pass through the operations took."""
    return _median([sum(r["lat"]) for r in rounds])


def op_median(rounds: list[dict], i: int) -> float:
    """Median latency of operation i over the rounds."""
    return _median([r["lat"][i] for r in rounds])


def layer_metrics(counters: dict) -> dict:
    out = {}
    for name, (_, (part, *keys)) in PER_LAYER_COUNTERS.items():
        if part == "ratio":
            num, den = counters["counts"].get(keys[0], 0), counters["calls"].get(keys[1], 0)
            out[name] = num / den if den else 0.0
        elif part == "rate":
            num, den = counters["counts"].get(keys[0], 0), counters["total_s"].get(keys[1], 0.0)
            out[name] = num / den if den else 0.0
        else:
            out[name] = counters[part].get(keys[0], 0)
    return out


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    ops, result, setups = run_worker(name, seed, seconds, trace)
    errors, failed_ids = verify(ops, result)
    rounds = result["rounds"]
    attempted = len(ops) * len(rounds)
    failed = len(failed_ids) * len(rounds)
    if not trace:
        latencies = [t for r in rounds for t in r["lat"]]
        values = {"setup_s": _median(setups), "wall_s": pass_wall(rounds),
                  "op_p50_ms": 1e3 * _median(latencies), "peak_rss_mb": result["peak_rss_mb"]}
        units = END_TO_END
    else:
        traced = result["traced_rounds"]
        per_round = [layer_metrics(r["counters"]) for r in traced]
        values = {}
        for metric, (unit, _) in PER_LAYER_COUNTERS.items():
            # times vary, so take their median; counts repeat, so take the first
            if unit in ("s", "1/s"):
                values[metric] = _median([m[metric] for m in per_round])
            else:
                values[metric] = per_round[0][metric]
        values["cli.import_s"], values["cli.import_scipy_special_s"] = import_times()
        for i, op in enumerate(ops):
            if op["kind"] == "cli":
                values[f"cli.{op['id']}.wall_s"] = op_median(rounds, i)
        for cmd in README_NAMES:
            values.setdefault(f"cli.{cmd}.wall_s", 0.0)
        values["trace.untraced_wall_s"] = pass_wall(rounds)
        values["trace.wall_s"] = pass_wall(traced)
        values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
        units = PER_LAYER
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    for op_id in failed_ids:
        why = workloads.KNOWN_FAULTS.get(op_id, "reported by the program")
        print(f"operation failed every round: {op_id} ({why})", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        "samples": {"rounds": len(rounds), "operations": len(ops), "setups": len(setups)},
    }


def report(name: str, res: dict) -> None:
    s = res["samples"]
    print(f"# workload {name}: {s['rounds']} rounds of {s['operations']} "
          f"operations, {res['attempted']} attempted, {res['failed']} failed, "
          f"correct={res['correct']}")
    for metric, m in res["metrics"].items():
        note = ""
        if metric == "op_p50_ms":
            note = (f"  (median of {s['operations'] * s['rounds']} latencies: "
                    f"{s['operations']} operations x {s['rounds']} rounds)")
        elif metric == "wall_s":
            note = f"  (median over {s['rounds']} rounds of one pass through the operations)"
        elif metric == "setup_s":
            note = f"  (median of {s['setups']} fresh interpreters)"
        print(f"#   {metric} = {m['value']:.6g} {m['unit']}{note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "auditopt" / "__init__.py").is_file():
        print(f"error: no auditopt source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else [args.workload]
    try:
        for name in names:
            res = measure(name, args.seed, args.seconds, bool(args.trace))
            report(name, res)
            del res["samples"]
            print(json.dumps(res))
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-tests of the benchmark's own checks.

    python3 -m pytest bench -q

The reference computations must reproduce the paper's landmarks, every
check must accept the program's real output and reject a corrupted copy,
and a checkout without the program must make the benchmark exit non-zero.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402

P4 = {"R": 4.0, "c": 1.0, "alpha": 0.5}


@pytest.fixture
def out_dir(request) -> Path:
    """A scratch directory for one test, inside the checkout's benchmark output."""
    path = ROOT / ".bench_out" / "selftest" / request.node.name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def test_static_design_landmark():
    b_star = oracle.static_entrance(P4)
    assert b_star == pytest.approx(3.0, abs=1e-9)
    test = {"type": "linear", "b": b_star}
    x, u = oracle.largest_maximizer(lambda x: oracle.g(test, P4, x), 0.0, 6.0, 1e-9)
    assert x == pytest.approx(4.0, abs=1e-6)
    assert u == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("test", [
    {"type": "threshold", "delta": 1.0, "sigma": 1.0},
    {"type": "linear", "b": 2.5},
    {"type": "constant", "p": 0.3},
])
def test_net_utility_plus_waiver_plus_cost_is_revenue(test):
    xs = np.linspace(0.0, 5.0, 501)
    total = oracle.g(test, P4, xs) + oracle.waiver(test, P4, xs) + P4["c"] * xs
    assert np.max(np.abs(total - P4["R"])) < 1e-12


def test_exact_series_of_a_certain_pass():
    audit = {"prefix": [], "tail": {"type": "constant", "p": 1.0}}
    assert oracle.schedule_value([1.5], audit, P4) == pytest.approx(4.0 - 1.5)


def test_opt_out_is_indifferent_at_the_known_root():
    # with gamma = 0 the opt-out supremum is R - 1, approached at zero effort
    assert oracle.opt_out(0.0, 1.0, 1.5, P4)[0] == 3.0
    u1, du = oracle.opt_out(1.0, 1.0, 1.5, P4)
    u2, _ = oracle.opt_out(1.0 + 1e-6, 1.0, 1.5, P4)
    assert (u2 - u1) / 1e-6 == pytest.approx(du, rel=1e-4)


def _run(op: dict, out_dir: Path) -> dict:
    call, to_json, program_failed = worker.prepare(op, str(out_dir))
    result = call()
    assert not program_failed(result)
    return to_json(result)


def _ops() -> dict:
    """One small operation of every kind, taken from the workloads."""
    vendor = workloads.vendor_ops(5)
    by_id = {op["id"]: op for op in vendor}
    mc = workloads.monte_carlo_ops(5)
    sim_op = copy.deepcopy(mc[0])
    sim_op["args"]["episodes"] = 2000
    cell = workloads.participation_ops(5)[1]
    small_grid = copy.deepcopy(cell)
    small_grid["args"]["deltas"] = [0.0, 1.5, 3.0]
    small_grid["args"]["sigmas"] = [0.5, 1.0, 2.0]

    def bump(key, by):
        return lambda o: o.update({key: o[key] + by})

    def bump_item(key, i, by):
        return lambda o: o[key].__setitem__(i, o[key][i] + by)

    return {
        "optimal": (by_id["optimal-mid0-threshold"], bump("utility", 1e-4)),
        "vi": (by_id["vi-high0-constant"], bump("at_zero", 1e-3)),
        "static": (by_id["static-mid1"], bump("x", 1e-3)),
        "easier": (by_id["easier-first-0"], bump("x", -1e-3)),
        "backward": (by_id["backward-2"], bump_item("values", 7, 1e-6)),
        "approx": (by_id["approx-0"], lambda o: o["rows"][1].__setitem__(1, o["rows"][1][1] + 1e-6)),
        "cell": (cell, bump_item("gamma_bar", 0, 1e-3)),
        "grid": (small_grid, lambda o: o["gamma_bar"].__setitem__(3, o["gamma_bar"][0] * 0.5)),
        "simulate": (sim_op, lambda o: o.update(mean=o["mean"] + 5.0 * o["std_error"])),
        "evaluate": (mc[-1], bump("value", 1e-6)),
    }


@pytest.mark.parametrize("name", list(_ops()))
def test_check_accepts_real_output_and_rejects_a_corrupted_one(name, out_dir):
    op, corrupt = _ops()[name]
    out = _run(op, out_dir)
    assert oracle.check(op, out) == []
    bad = copy.deepcopy(out)
    corrupt(bad)
    assert oracle.check(op, bad) != []


def test_harder_first_check_finds_the_known_fault_and_accepts_a_best_response(out_dir):
    # the program's harder-first x loses to zero effort; with x and the
    # utility replaced by the oracle's own best response the check passes
    op = next(o for o in workloads.vendor_ops(5) if o["id"] == "harder-first-0")
    assert op["id"] in workloads.KNOWN_FAULTS
    out = _run(op, out_dir)
    P, b, bp = op["args"]["params"], out["b"], out["b_prime"]
    assert oracle.two_step(bp, b, P, 0.0) > out["utility"] + 1e-3
    assert any("largest maximizer" in e for e in oracle.check(op, out))
    x, u = oracle.largest_maximizer(lambda x: oracle.two_step(bp, b, P, x), 0.0, bp + 2.0, 1e-9)
    fixed = dict(out, x=x, utility=u)
    assert oracle.check(op, fixed) == []
    assert oracle.check(op, dict(fixed, x=x + 1e-3)) != []


@pytest.mark.parametrize("cmd", ["g-sweep", "design-static", "approx"])
def test_cli_check_rejects_a_corrupted_file(cmd, out_dir):
    op = next(o for o in workloads.cli_readme_ops(3, str(out_dir)) if o["id"] == cmd)
    out = _run(op, out_dir)
    assert oracle.check(op, out) == []
    bad = dict(out)
    if cmd == "design-static":
        doc = json.loads(out["text"])
        doc["design"]["b"] = 2.9
        bad["text"] = json.dumps(doc)
    else:
        # change one digit of the first data row's second column
        lines = out["text"].splitlines()
        first = next(i for i, ln in enumerate(lines) if ln and ln[0].isdigit())
        cols = lines[first].split(",")
        cols[1] = repr(float(cols[1]) + 1e-3)
        lines[first] = ",".join(cols)
        bad["text"] = "\n".join(lines)
    assert oracle.check(op, bad) != []


def test_workloads_are_seeded_and_their_shape_is_not(out_dir):
    for name in workloads.WORKLOADS:
        a = workloads.make_ops(name, 1, str(out_dir))
        b = workloads.make_ops(name, 1, str(out_dir))
        c = workloads.make_ops(name, 2, str(out_dir))
        assert a == b
        assert a != c
        assert [op["id"] for op in a] == [op["id"] for op in c]


def test_verify_rejects_rounds_that_disagree():
    op = {"id": "x", "kind": "evaluate_schedule",
          "args": {"params": P4, "schedule": [0.0],
                   "audit": {"prefix": [], "tail": {"type": "constant", "p": 1.0}}}}
    result = {"rounds": [{"digest": "a", "failed": []}, {"digest": "b", "failed": []}],
              "outputs": [{"value": 4.0}]}
    errors, failed = run.verify([op], result)
    assert errors == ["rounds of the same operations gave different outputs"]
    assert failed == []


def test_verify_counts_known_faults_as_failed_and_other_check_failures_as_wrong(out_dir):
    ops = workloads.vendor_ops(5)
    picked = [next(o for o in ops if o["id"] == i) for i in ("harder-first-0", "static-mid1")]
    outputs = [_run(op, out_dir) for op in picked]
    result = {"rounds": [{"digest": "a", "failed": []}] * 2, "outputs": outputs}
    assert run.verify(picked, result) == ([], ["harder-first-0"])
    outputs[1] = dict(outputs[1], x=outputs[1]["x"] + 1e-3)
    errors, failed = run.verify(picked, result)
    assert failed == ["harder-first-0"]
    assert errors and all(e.startswith("static-mid1: ") for e in errors)


def _traced_counts(seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "vendor", "--seed", str(seed),
         "--seconds", "1", "--trace", "1"], capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.splitlines()[-1])
    assert res["correct"]
    return {k: m["value"] for k, m in res["metrics"].items() if m["unit"] not in ("s", "1/s")}


def test_traced_counts_repeat_exactly():
    first = _traced_counts(4)
    assert first["core.optimal_strategy.calls"] > 0
    assert first["multistep.backward_induction.grid_points"] > 0
    assert _traced_counts(4) == first


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_the_program(out_dir):
    shutil.copytree(HERE, out_dir / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", out_dir / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "vendor", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=out_dir, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

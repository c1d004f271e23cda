"""bench/worker.py calls auditopt's solvers with fixed arguments, so one
operation of each kind the benchmark runs in process must still run."""

import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load(name):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def one_op_per_kind():
    workloads, ops = load("workloads"), {}
    for workload in ("vendor", "participation", "monte-carlo"):
        for op in workloads.make_ops(workload, 1, ""):
            ops.setdefault(op["kind"], op)
    return list(ops.values())


@pytest.mark.parametrize("op", one_op_per_kind(), ids=lambda op: op["kind"])
def test_each_bench_operation_kind_runs(op, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # worker imports bench/tracer.py as tracer
    call, to_json, failed = load("worker").prepare(op, str(tmp_path))
    result = call()
    to_json(result)
    assert not failed(result)

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from auditopt import LinearTest, VendorParams, optimal_strategy
from auditopt.cli import main


def read_csv(path):
    meta = []
    rows = []
    header = None
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                meta.append(line)
            elif header is None:
                header = line
            else:
                rows.append(line.split(","))
    return meta, header, rows


def test_g_sweep_writes_csv_and_meta(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(
        [
            "g-sweep",
            "--R", "4", "--c", "1", "--alpha", "0.5",
            "--test", "threshold", "--delta", "1", "--sigma", "1",
            "--grid-step", "0.01",
            "--out", str(out),
        ]
    )
    assert rc == 0
    meta, header, rows = read_csv(out)
    assert header == "x,G,CA"
    assert meta[0].startswith("# auditopt")
    assert "config:" in meta[1]
    assert len(rows) == 501
    for x, g, ca in rows:
        assert abs(float(g) + float(ca) + float(x) - 4.0) < 1e-9
    with open(str(out) + ".meta.json") as fh:
        doc = json.load(fh)
    assert doc["solution"]["utility"] > 1.7
    assert doc["config"]["delta"] == 1.0


def test_g_sweep_constant_is_line(tmp_path):
    out = tmp_path / "line.csv"
    rc = main(
        [
            "g-sweep",
            "--R", "4", "--c", "1", "--alpha", "0.5",
            "--test", "constant", "--p", "1", "--grid-step", "0.5",
            "--out", str(out),
        ]
    )
    assert rc == 0
    _, _, rows = read_csv(out)
    for x, g, ca in rows:
        assert float(g) == 4.0 - float(x)
        assert float(ca) == 0.0


def test_optimal_json(tmp_path):
    out = tmp_path / "opt.json"
    rc = main(
        [
            "optimal",
            "--R", "4", "--c", "1", "--alpha", "0.5",
            "--test", "linear", "--b", "3",
            "--out", str(out),
        ]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert abs(doc["solution"]["utility"]) < 1e-9
    assert max(doc["solution"]["maximizers"]) == 4.0
    assert doc["version"]
    sol = optimal_strategy(LinearTest(3.0), VendorParams(R=4.0, c=1.0, alpha=0.5))
    assert all(type(m) is float for m in sol.maximizers)


def test_coverage_single_cell_and_inf(tmp_path):
    out = tmp_path / "cov.csv"
    # gamma_bar ~ 1/mu0 lies far above the 1e6 cap at both moments
    for moment in ("1e-12", "1e-300"):
        rc = main(
            [
                "coverage",
                "--R", "4", "--c", "1", "--alpha", "0.5",
                "--delta-range", "3", "--sigma-range", "0.5",
                "--mu0", moment, "--s0", moment,
                "--out", str(out),
            ]
        )
        assert rc == 0
        _, header, rows = read_csv(out)
        assert header == "delta,sigma,gamma_bar"
        assert rows == [["3", "0.5", "inf"]]


def test_coverage_range_parsing(tmp_path):
    out = tmp_path / "cov2.csv"
    rc = main(
        [
            "coverage",
            "--R", "4", "--c", "1", "--alpha", "0.5",
            "--delta-range", "0.5:1.5:2", "--sigma-range", "1",
            "--out", str(out),
        ]
    )
    assert rc == 0
    _, _, rows = read_csv(out)
    assert [r[0] for r in rows] == ["0.5", "1.5"]
    assert float(rows[0][2]) <= float(rows[1][2]) + 1e-9


def test_design_modes(tmp_path):
    out = tmp_path / "design.json"
    rc = main(
        [
            "design", "--mode", "static",
            "--R", "4", "--c", "1", "--alpha", "0.5",
            "--out", str(out),
        ]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["design"] == {
        "case": "iii", "b": 3.0, "x": 4.0, "utility": 0.0, "verified": True,
    }

    rc = main(
        [
            "design", "--mode", "harder-first", "--epsilon", "0.01",
            "--R", "1.5", "--c", "1", "--alpha", "0.5",
            "--out", str(out),
        ]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert math.isclose(doc["design"]["b_prime"] - doc["design"]["b"], 0.01, rel_tol=1e-9)
    assert doc["design"]["verified"]


def test_design_rejects_nan_epsilon(tmp_path):
    out = tmp_path / "d.json"
    rc = main(
        [
            "design", "--mode", "harder-first", "--epsilon", "nan",
            "--R", "1.5", "--c", "1", "--alpha", "0.5",
            "--out", str(out),
        ]
    )
    assert rc == 2
    assert not out.exists()


def test_optimal_grid_size_limits(tmp_path):
    base = ["optimal", "--R", "4", "--c", "1", "--alpha", "0.5", "--test", "linear", "--b", "3"]
    out = tmp_path / "o.json"
    assert main(base + ["--grid-step", "1e-9", "--x-max", "1e3", "--out", str(out)]) == 2
    assert not out.exists()
    assert main(base + ["--grid-step", "1", "--x-max", "4", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["solution"]["maximizers"] == [0.0, 4.0]


def test_optimal_on_a_coarse_grid_far_from_zero_stops(tmp_path):
    # a 100-wide grid cell near x = 1e7, where floats are 1.9e-9 apart
    argv = ["optimal", "--R", "1e7", "--c", "1", "--alpha", "0.5", "--test", "constant",
            "--p", "0.5", "--grid-step", "100", "--out", str(tmp_path / "o.json")]
    start = time.monotonic()
    assert main(argv) == 0
    assert time.monotonic() - start < 10.0


@pytest.mark.parametrize(
    "argv",
    [
        ["coverage", "--delta-range", "1", "--sigma-range", "1"],
        ["design", "--mode", "static"],
        ["simulate", "--test", "constant", "--p", "0.5", "--schedule", "0:1"],
    ],
)
def test_grid_flags_only_where_a_grid_is_read(tmp_path, argv):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--R", "4", "--c", "1", "--alpha", "0.5", "--grid-step", "0.5",
                     "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_design_regime_error_exit_code(tmp_path):
    rc = main(
        [
            "design", "--mode", "easier-first",
            "--R", "4", "--c", "1", "--alpha", "0.5",
            "--out", str(tmp_path / "d.json"),
        ]
    )
    assert rc == 3


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"R": 4.0, "c": 1.0, "alpha": 0.5, "mode": "static"}))
    out = tmp_path / "d.json"
    rc = main(
        ["design", "--config", str(cfg), "--R", "1.5", "--out", str(out)]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["design"]["case"] == "ii"
    assert doc["config"]["R"] == 1.5


def test_invalid_params_exit_code(tmp_path):
    rc = main(
        [
            "optimal", "--R", "-1", "--c", "1", "--alpha", "0.5",
            "--test", "constant", "--p", "0.5",
            "--out", str(tmp_path / "x.json"),
        ]
    )
    assert rc == 2
    rc = main(
        [
            "optimal", "--R", "4", "--c", "1", "--alpha", "0.5",
            "--out", str(tmp_path / "x.json"),
        ]
    )
    assert rc == 2
    rc = main(
        [
            "coverage", "--R", "4", "--c", "1", "--alpha", "0.5",
            "--delta-range", "", "--sigma-range", "1",
            "--out", str(tmp_path / "x.csv"),
        ]
    )
    assert rc == 2


def test_test_config_errors(tmp_path, capsys):
    base = ["optimal", "--R", "4", "--c", "1", "--alpha", "0.5", "--out", str(tmp_path / "x.json")]
    assert main(base + ["--test", "threshold", "--delta", "1"]) == 2
    assert "error: test: threshold requires 'sigma'" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"test": "mystery"}))
    assert main(base + ["--config", str(cfg)]) == 2
    assert "error: test: unknown test type: 'mystery'" in capsys.readouterr().err


def test_approx_csv_and_precondition(tmp_path):
    audit = tmp_path / "audit.json"
    audit.write_text(
        json.dumps(
            {
                "prefix": [{"type": "linear", "b": 0.5 + 0.2 * i} for i in range(10)],
                "tail": {"type": "constant", "p": 0.4},
            }
        )
    )
    out = tmp_path / "study.csv"
    rc = main(
        [
            "approx", "--audit", str(audit),
            "--R", "4", "--c", "1", "--alpha", "0.5",
            "--grid-step", "0.01", "--k-list", "0,1,2",
            "--out", str(out),
        ]
    )
    assert rc == 0
    _, header, rows = read_csv(out)
    assert header == "k,measured_error,bound,maximizer"
    assert [r[0] for r in rows] == ["0", "1", "2"]
    assert float(rows[2][2]) == 1.0

    short = tmp_path / "short.json"
    short.write_text(
        json.dumps(
            {
                "prefix": [{"type": "linear", "b": 1.0}],
                "tail": {"type": "constant", "p": 0.4},
            }
        )
    )
    rc = main(
        [
            "approx", "--audit", str(short),
            "--R", "4", "--c", "1", "--alpha", "0.5",
            "--k-list", "0,1",
            "--out", str(out),
        ]
    )
    assert rc == 3


def test_simulate_json_and_bad_schedule(tmp_path):
    out = tmp_path / "sim.json"
    rc = main(
        [
            "simulate",
            "--R", "4", "--c", "1", "--alpha", "0.5",
            "--test", "constant", "--p", "1",
            "--schedule", "0:1.0",
            "--episodes", "200", "--seed", "3",
            "--out", str(out),
        ]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["result"]["mean"] == 3.0
    assert doc["analytic"] == 3.0

    rc = main(
        [
            "simulate",
            "--R", "4", "--c", "1", "--alpha", "0.5",
            "--test", "constant", "--p", "1",
            "--schedule", "1:1.0",
            "--out", str(out),
        ]
    )
    assert rc == 2


def test_missing_out_is_config_error():
    rc = main(["design", "--mode", "static", "--R", "4", "--c", "1", "--alpha", "0.5"])
    assert rc == 2


SIM_BASE = ["simulate", "--R", "4", "--c", "1", "--alpha", "0.5", "--schedule", "0:1.0"]


def test_simulate_audit_missing_file_is_config_error(tmp_path, capsys):
    rc = main(
        SIM_BASE + ["--audit", str(tmp_path / "absent.json"), "--out", str(tmp_path / "s.json")]
    )
    assert rc == 2
    assert "error: audit:" in capsys.readouterr().err


def test_simulate_audit_without_tail_is_config_error(tmp_path, capsys):
    audit = tmp_path / "audit.json"
    audit.write_text(json.dumps({"prefix": [{"type": "linear", "b": 1.0}]}))
    rc = main(SIM_BASE + ["--audit", str(audit), "--out", str(tmp_path / "s.json")])
    assert rc == 2
    assert "error: audit:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [
        ["--R", "inf", "--test", "constant", "--p", "1"],
        ["--c", "nan", "--test", "constant", "--p", "1"],
        ["--test", "threshold", "--delta", "nan", "--sigma", "1"],
        ["--test", "threshold", "--delta", "1", "--sigma", "inf"],
        ["--test", "linear", "--b", "inf"],
        ["--test", "constant", "--p", "1", "--schedule", "0:1,2:nan"],
        # finite, but the exact value overflows to -inf
        ["--test", "constant", "--p", "0.5", "--schedule", "0:0.5,1:1e300"],
    ],
)
def test_simulate_rejects_non_finite_inputs(tmp_path, flags):
    out = tmp_path / "s.json"
    assert main(SIM_BASE + flags + ["--out", str(out)]) == 2
    assert not out.exists()


FUZZ_BAD = ("0", "-1", "1e300", "nan", "inf", "-inf")
FUZZ_BAD_ALPHAS = ("0", "1", "nan", "inf")
FUZZ_VALUES = st.one_of(st.sampled_from(["0.5", "1", "4"]), st.sampled_from(FUZZ_BAD))
FUZZ_ALPHAS = st.one_of(st.sampled_from(["0.2", "0.5", "0.9"]), st.sampled_from(FUZZ_BAD_ALPHAS))


def run_fuzzed(argv):
    """Exit code of main(argv), which must keep the contract: 0, 2 or 3."""
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        rc = exc.code
    assert rc in (0, 2, 3)
    return rc


def finite_json(path):
    def refuse(name):
        raise AssertionError(f"{path.name} holds {name}")

    return json.loads(path.read_text(), parse_constant=refuse)


def csv_columns(path):
    _, _, rows = read_csv(path)
    return [[float(v) for v in col] for col in zip(*rows)]


def mostly(*valid, bad=FUZZ_BAD):
    """One of valid three times in four, else one of bad, so that most
    fuzzed commands get past the parameter checks into the solvers."""
    return st.sampled_from(list(valid) * (3 * len(bad)) + list(bad) * len(valid))


@settings(max_examples=100, deadline=None)
@given(
    R=FUZZ_VALUES,
    c=FUZZ_VALUES,
    alpha=FUZZ_ALPHAS,
    test=st.sampled_from(
        [
            ["--test", "threshold", "--delta", "{0}", "--sigma", "{1}"],
            ["--test", "linear", "--b", "{0}"],
            ["--test", "constant", "--p", "{0}"],
            ["--audit", "{dir}/absent.json"],
        ]
    ),
    test_args=st.tuples(FUZZ_VALUES, FUZZ_VALUES),
    levels=st.tuples(FUZZ_VALUES, FUZZ_VALUES),
    episodes=st.integers(min_value=0, max_value=1000),
)
def test_simulate_exit_code_contract(tmp_path_factory, R, c, alpha, test, test_args, levels,
                                     episodes):
    out_dir = tmp_path_factory.mktemp("fuzz")
    argv = ["simulate", "--R", R, "--c", c, "--alpha", alpha]
    argv += [a.format(*test_args, dir=out_dir) for a in test]
    argv += ["--schedule", f"0:{levels[0]},1:{levels[1]}", "--episodes", str(episodes)]
    argv += ["--seed", "5", "--out", str(out_dir / "s.json")]
    if run_fuzzed(argv) == 0:
        doc = json.loads((out_dir / "s.json").read_text())
        assert math.isfinite(doc["result"]["mean"]) and math.isfinite(doc["analytic"])


def test_simulate_refuses_a_schedule_longer_than_the_grid_cap(tmp_path):
    # one level per step: a switch time of 10^9 would need about 16 GB
    out = tmp_path / "s.json"
    start = time.perf_counter()
    rc = main(["simulate", "--R", "4", "--c", "1", "--alpha", "0.5", "--test", "constant",
               "--p", "1", "--schedule", "0:1,1000000000:2", "--out", str(out)])
    assert rc == 2
    assert time.perf_counter() - start < 1.0
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        # the static best-response check would need a 1e8-point grid over [0, R/c + 1]
        ["--mode", "static", "--R", "1e5", "--c", "1", "--alpha", "0.5"],
        # R/c inside harder-first's band, whose check grid would cover [0, b' + 2]
        ["--mode", "harder-first", "--R", "1e5", "--c", "1", "--alpha", "0.999999"],
    ],
)
def test_design_refuses_a_check_grid_beyond_the_cap(tmp_path, argv):
    out = tmp_path / "d.json"
    start = time.perf_counter()
    assert main(["design", *argv, "--out", str(out)]) == 2
    assert time.perf_counter() - start < 1.0
    assert not out.exists()


def run_python(*args):
    """Run a fresh interpreter with args, importing auditopt from src/."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env, timeout=60)


SCIPY_LOADED = "import sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"


def test_import_loads_no_scipy():
    proc = run_python("-c", "import auditopt\n" + SCIPY_LOADED)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["design", "--mode", "static", "--R", "4", "--c", "1", "--alpha", "0.5"],
        ["optimal", "--R", "4", "--c", "1", "--alpha", "0.5", "--test", "linear", "--b", "3"],
    ],
)
def test_commands_without_a_threshold_test_load_no_scipy(tmp_path, argv):
    code = ("import sys\nfrom auditopt.cli import main\n"
            "assert main(sys.argv[1:]) == 0\n" + SCIPY_LOADED)
    proc = run_python("-c", code, *argv, "--out", str(tmp_path / "out.json"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
    assert (tmp_path / "out.json").exists()


def test_first_threshold_evaluation_is_ndtr_bit_for_bit():
    code = """
import numpy as np
from auditopt import ThresholdTest
test = ThresholdTest(1.25, 0.7)
xs = [np.array(0.3), np.linspace(-2.0, 6.0, 5001)]
first = [test(x) for x in xs]  # scipy is loaded by the first call
from scipy.special import ndtr
for x, p in zip(xs, first):
    expected = ndtr((x - 1.25) / 0.7)
    assert (p.dtype, np.shape(p)) == (expected.dtype, np.shape(expected))
    assert p.tobytes() == expected.tobytes()
print("ok")
"""
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def test_simulate_overflow_leaves_only_the_error_on_stderr(tmp_path):
    # finite inputs whose utilities overflow: refused by the JSON writer, with
    # no numpy warning on the way
    argv = ["simulate", "--R", "4", "--c", "1", "--alpha", "0.5", "--test", "constant",
            "--p", "0.5", "--schedule", "0:0.5,1:1e300", "--out", str(tmp_path / "s.json")]
    proc = run_python("-m", "auditopt.cli", *argv)
    assert proc.returncode == 2
    assert proc.stderr == "error: inputs out of range: a result is not finite\n"
    assert not (tmp_path / "s.json").exists()


FUZZ_R, FUZZ_C = mostly("1", "2.5", "4"), mostly("0.5", "1")
FUZZ_ALPHA = mostly("0.3", "0.5", "0.7", bad=FUZZ_BAD_ALPHAS)
FUZZ_ARGS = st.tuples(mostly("0.5", "1", "2"), mostly("0.5", "1"))
FUZZ_TESTS = st.sampled_from(
    [
        ["--test=threshold", "--delta={0}", "--sigma={1}"],
        ["--test=linear", "--b={0}"],
        ["--test=constant", "--p={1}"],
    ]
)


def fuzz_range(*valid):
    return st.lists(mostly(*valid), min_size=1, max_size=3).map(",".join)


def fuzz_params(R, c, alpha):
    return [f"--R={R}", f"--c={c}", f"--alpha={alpha}"]


@settings(max_examples=100, deadline=None)
@given(
    command=st.sampled_from(["g-sweep", "optimal"]),
    R=FUZZ_R,
    c=FUZZ_C,
    alpha=FUZZ_ALPHA,
    test=FUZZ_TESTS,
    test_args=FUZZ_ARGS,
    grid_step=st.one_of(st.none(), FUZZ_VALUES),
)
def test_solver_exit_code_contract(tmp_path_factory, command, R, c, alpha, test, test_args,
                                   grid_step):
    out = tmp_path_factory.mktemp("fuzz") / "out"
    argv = [command] + fuzz_params(R, c, alpha) + [a.format(*test_args) for a in test]
    if grid_step is not None:
        argv.append(f"--grid-step={grid_step}")
    if run_fuzzed(argv + ["--out", str(out)]) != 0:
        return
    if command == "g-sweep":
        assert all(math.isfinite(v) for col in csv_columns(out) for v in col)
        out = out.with_name("out.meta.json")
    finite_json(out)


@settings(max_examples=200, deadline=None)
@given(
    R=FUZZ_R,
    c=FUZZ_C,
    alpha=FUZZ_ALPHA,
    mu0=mostly("1e-300", "1", "1e300"),
    s0=mostly("1e-300", "1.5", "1e300"),
    deltas=fuzz_range("0", "1", "3"),
    sigmas=fuzz_range("0.1", "1", "3"),
)
def test_coverage_exit_code_contract(tmp_path_factory, R, c, alpha, mu0, s0, deltas, sigmas):
    out = tmp_path_factory.mktemp("fuzz") / "cov.csv"
    argv = ["coverage"] + fuzz_params(R, c, alpha)
    argv += [f"--mu0={mu0}", f"--s0={s0}", f"--delta-range={deltas}", f"--sigma-range={sigmas}"]
    if run_fuzzed(argv + ["--out", str(out)]) != 0:
        return
    delta, sigma, gb = csv_columns(out)
    assert all(math.isfinite(v) for v in delta + sigma)
    assert all(g >= 0.0 for g in gb)  # +inf is the never-participates sentinel, NaN fails


@settings(max_examples=100, deadline=None)
@given(
    mode=st.sampled_from(["static", "easier-first", "harder-first"]),
    R=FUZZ_R,
    c=FUZZ_C,
    alpha=FUZZ_ALPHA,
    epsilon=st.one_of(st.none(), mostly("0.01", "0.05")),
)
def test_design_exit_code_contract(tmp_path_factory, mode, R, c, alpha, epsilon):
    out = tmp_path_factory.mktemp("fuzz") / "design.json"
    argv = ["design", f"--mode={mode}"] + fuzz_params(R, c, alpha)
    if epsilon is not None:
        argv.append(f"--epsilon={epsilon}")
    if run_fuzzed(argv + ["--out", str(out)]) == 0:
        finite_json(out)


@settings(max_examples=100, deadline=None)
@given(
    R=FUZZ_R,
    c=FUZZ_C,
    alpha=FUZZ_ALPHA,
    prefix=st.lists(mostly("0.5", "1", "2"), max_size=3),
    tail=mostly("0.4"),
    k_list=st.sampled_from(["0", "0,1", "0,1,2,3", "-1", "x"]),
    grid_step=st.one_of(st.none(), FUZZ_VALUES),
)
def test_approx_exit_code_contract(tmp_path_factory, R, c, alpha, prefix, tail, k_list,
                                   grid_step):
    out_dir = tmp_path_factory.mktemp("fuzz")
    audit = {
        "prefix": [{"type": "linear", "b": float(b)} for b in prefix],
        "tail": {"type": "constant", "p": float(tail)},
    }
    (out_dir / "audit.json").write_text(json.dumps(audit))
    argv = ["approx", f"--audit={out_dir / 'audit.json'}", f"--k-list={k_list}"]
    argv += fuzz_params(R, c, alpha)
    if grid_step is not None:
        argv.append(f"--grid-step={grid_step}")
    if run_fuzzed(argv + ["--out", str(out_dir / "study.csv")]) == 0:
        assert all(math.isfinite(v) for col in csv_columns(out_dir / "study.csv") for v in col)

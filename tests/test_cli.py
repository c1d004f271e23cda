import json
import math
import os
import shlex
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from auditopt import (
    LinearTest,
    StrategySolution,
    VendorParams,
    enumerate_schedules,
    optimal_strategy,
)
from auditopt.cli import _parse_schedule, main


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


def test_coverage_needs_no_effort_grid(tmp_path):
    # R/c = 1e5 would ask for a 1e8-point effort grid; coverage builds none
    out = tmp_path / "cov.csv"
    rc = main(["coverage", "--R", "1e5", "--c", "1", "--alpha", "0.5",
               "--delta-range", "0:3:13", "--sigma-range", "0.1:3:13", "--out", str(out)])
    assert rc == 0
    _, header, rows = read_csv(out)
    assert header == "delta,sigma,gamma_bar" and len(rows) == 169
    assert all(float(r[2]) >= 0.0 for r in rows)


@pytest.mark.parametrize("ranges", [["--delta-range", "0,nan"], ["--delta-range", "0,inf"]])
def test_coverage_refuses_a_delta_that_is_not_finite(tmp_path, capsys, ranges):
    out = tmp_path / "cov.csv"
    rc = main(["coverage", "--R", "4", "--c", "1", "--alpha", "0.5", *ranges,
               "--sigma-range", "1", "--out", str(out)])
    assert rc == 2
    assert "delta must be finite" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize(
    "argv,config,message",
    [
        (["coverage", "--sigma-range", "1"], {"delta_range": [0, 1]},
         "delta_range: expected str, got [0, 1]"),
        (["optimal", "--test", "constant", "--p", "0.5"], {"grid_step": [0.001]},
         "grid_step: expected float, got [0.001]"),
        (["coverage", "--delta-range", "0,1", "--sigma-range", "1"], {"mu0": None},
         "mu0: expected float, got null"),
        # int() would run 2 episodes with seed 1 while the output embeds 2.5 and 1.9
        (["simulate", "--test", "constant", "--p", "0.5", "--schedule", "0:1"],
         {"episodes": 2.5, "seed": 1.9}, "episodes: expected int, got 2.5"),
        (["simulate", "--test", "constant", "--p", "0.5", "--schedule", "0:1"],
         {"seed": 1.9}, "seed: expected int, got 1.9"),
        # open(0) would read the audit from stdin
        (["approx"], {"audit": 0}, "audit: expected str, got 0"),
        # and open(0, "w") would write the output to stdin
        (["design", "--mode", "static"], {"out": 0}, "out: expected str, got 0"),
        # float() would take the strings, and the output would embed them
        (["optimal", "--test", "threshold"], {"delta": "1", "sigma": "1"},
         'delta: expected float, got "1"'),
        (["approx"], {"k_list": [0, 1]}, "k_list: expected str, got [0, 1]"),
        (["design"], {"mode": ["static"]}, 'mode: expected str, got ["static"]'),
        (["simulate", "--test", "constant", "--p", "0.5"], {"schedule": 5},
         "schedule: expected str, got 5"),
        (["simulate", "--schedule", "0:1"], {"test": 5}, "test: expected str, got 5"),
        # float() would raise OverflowError, which is not a ValueError
        pytest.param(["coverage", "--delta-range", "0,1", "--sigma-range", "1"],
                     {"mu0": 10**400}, "mu0: expected float, got 1" + "0" * 400,
                     id="mu0-beyond-float"),
        # strings of the right type whose spec does not parse
        pytest.param(["coverage", "--delta-range", "0:x:3", "--sigma-range", "1"], {},
                     "delta_range: cannot parse range '0:x:3'", id="delta-range-count"),
        pytest.param(["coverage", "--delta-range", "a,b", "--sigma-range", "1"], {},
                     "delta_range: cannot parse range 'a,b'", id="delta-range-values"),
        pytest.param(["simulate", "--test", "constant", "--p", "0.5", "--schedule", "0:1,x"], {},
                     "schedule: cannot parse '0:1,x'", id="schedule-pair"),
        pytest.param(["simulate", "--test", "constant", "--p", "0.5", "--schedule", "0:1:7"], {},
                     "schedule: cannot parse '0:1:7'", id="schedule-three-fields"),
    ],
)
def test_config_values_of_the_wrong_json_type_exit_2(tmp_path, capsys, argv, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    flags = [] if "out" in config else ["--out", str(out)]
    rc = main([argv[0], "--R", "4", "--c", "1", "--alpha", "0.5", *argv[1:],
               "--config", str(cfg), *flags])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "text,message",
    [
        (None, "config: cannot read {cfg}: "),  # None: the file does not exist
        ("{", "config: cannot read {cfg}: "),
        ('[{"R": 4}]', "config: file must hold a flat JSON object\n"),
    ],
)
def test_an_unusable_config_exits_2_with_one_line(tmp_path, capsys, text, message):
    cfg = tmp_path / "cfg.json"
    if text is not None:
        cfg.write_text(text)
    out = tmp_path / "d.json"
    rc = main(["design", "--mode", "static", "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: " + message.format(cfg=cfg))
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not out.exists()


def test_config_keys_of_other_commands_are_ignored(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"R": 4.0, "c": 1.0, "alpha": 0.5, "delta_range": [0, 1]}))
    out = tmp_path / "d.json"
    assert main(["design", "--mode", "static", "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["delta_range"] == [0, 1]


@pytest.mark.parametrize(
    "argv", [["design", "--mode", "static"], ["coverage", "--delta-range", "1", "--sigma-range", "1"]]
)
@pytest.mark.parametrize("missing", [True, False])
def test_an_unwritable_out_exits_2_with_one_line(tmp_path, capsys, argv, missing):
    out = tmp_path / "absent" / "out" if missing else tmp_path  # a directory
    rc = main([argv[0], "--R", "4", "--c", "1", "--alpha", "0.5", *argv[1:], "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: out: cannot write {out}: ")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_g_sweep_writes_nothing_when_the_solver_refuses_the_grid(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = main(["g-sweep", "--R", "4", "--c", "1", "--alpha", "0.5", "--test", "constant",
               "--p", "0.5", "--x-max", "1", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == "error: grid.x_max must be >= R/c = 4.0\n"
    assert list(tmp_path.iterdir()) == []


def test_g_sweep_removes_its_csv_when_the_meta_file_cannot_be_written(tmp_path, capsys):
    (tmp_path / "sweep.csv.meta.json").mkdir()
    out = tmp_path / "sweep.csv"
    rc = main(["g-sweep", "--R", "4", "--c", "1", "--alpha", "0.5", "--test", "constant",
               "--p", "0.5", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: out: cannot write {out}.meta.json: ")
    assert [p.name for p in tmp_path.iterdir()] == ["sweep.csv.meta.json"]


@pytest.mark.parametrize("k_list", ["x", "0,,1"])
def test_approx_k_list_errors_name_their_key(tmp_path, capsys, k_list):
    audit = tmp_path / "audit.json"
    audit.write_text(json.dumps({"prefix": [], "tail": {"type": "constant", "p": 0.4}}))
    out = tmp_path / "study.csv"
    rc = main(["approx", "--audit", str(audit), "--R", "4", "--c", "1", "--alpha", "0.5",
               "--k-list", k_list, "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: k_list: cannot parse {k_list!r}\n"
    assert not out.exists()


def write_ten_step_audit(path):
    path.write_text(
        json.dumps(
            {
                "prefix": [{"type": "linear", "b": 0.5 + 0.2 * i} for i in range(10)],
                "tail": {"type": "constant", "p": 0.4},
            }
        )
    )


def readme_commands():
    """The argv of each auditopt command in README.md's CLI examples block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI examples", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("auditopt ")]


def json_paths(doc, prefix=""):
    """Every key of a JSON document as a dotted path; the keys of config and of
    the pass-time histogram vary with the input and are left out."""
    paths = set()
    for key, val in doc.items():
        paths.add(prefix + key)
        if isinstance(val, dict) and key not in ("config", "pass_time_histogram"):
            paths |= json_paths(val, prefix + key + ".")
    return paths


SOLUTION = {"version", "config", "solution", "solution.utility", "solution.maximizers",
            "solution.tie_tol"}
DESIGN = {"version", "config", "design"} | {
    "design." + key for key in ("case", "b", "x", "utility", "verified")}
# the output schema of each file the README examples write: a CSV header or JSON key paths
README_OUTPUTS = {
    "sweep.csv": "x,G,CA",
    "sweep.csv.meta.json": SOLUTION,
    "opt.json": SOLUTION,
    "coverage.csv": "delta,sigma,gamma_bar",
    "design.json": DESIGN,
    "d2.json": DESIGN | {"design.b_prime"},
    "d3.json": DESIGN | {"design.b_prime"},
    "study.csv": "k,measured_error,bound,maximizer",
    "sim.json": {"version", "config", "analytic", "result"} | {
        "result." + key for key in ("mean", "std_error", "episodes", "truncated_fraction",
                                    "pass_time_histogram")},
}


def test_readme_cli_examples_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_ten_step_audit(tmp_path / "audit.json")
    commands = readme_commands()
    assert len(commands) == 8
    for argv in commands:
        assert main(argv) == 0, argv
        assert (tmp_path / argv[argv.index("--out") + 1]).exists(), argv
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([*README_OUTPUTS, "audit.json"])
    for name, schema in README_OUTPUTS.items():
        if name.endswith(".csv"):
            assert read_csv(tmp_path / name)[1] == schema, name
        else:
            assert json_paths(json.loads((tmp_path / name).read_text())) == schema, name


def test_approx_csv_and_precondition(tmp_path):
    audit = tmp_path / "audit.json"
    write_ten_step_audit(audit)
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


def test_simulate_plays_a_far_switch_time_in_steps_played(tmp_path):
    # every episode passes at step 0, so a switch 10^9 steps out is never reached
    docs = []
    for spec in ("0:1,1000000000:2", "0:1"):
        out = tmp_path / "s.json"
        start = time.perf_counter()
        rc = main(["simulate", "--R", "4", "--c", "1", "--alpha", "0.5", "--test", "constant",
                   "--p", "1", "--schedule", spec, "--out", str(out)])
        assert rc == 0
        assert time.perf_counter() - start < 1.0
        docs.append(json.loads(out.read_text()))
    assert docs[0]["result"] == docs[1]["result"]
    assert docs[0]["analytic"] == docs[1]["analytic"]


def test_simulate_stops_at_a_stationary_zero_pass_probability(tmp_path):
    # at alpha = 1 - 1e-6 the horizons are tens of millions of steps, none of which can pass
    out = tmp_path / "s.json"
    start = time.perf_counter()
    rc = main(["simulate", "--R", "4", "--c", "1", "--alpha", "0.999999", "--test", "constant",
               "--p", "0", "--schedule", "0:1", "--out", str(out)])
    assert rc == 0
    assert time.perf_counter() - start < 1.0
    doc = json.loads(out.read_text())
    assert doc["analytic"] == doc["result"]["mean"] == -1.0
    assert doc["result"]["truncated_fraction"] == 1.0


def test_a_switch_time_given_twice_exits_2(tmp_path, capsys):
    out = tmp_path / "s.json"
    rc = main(SIM_BASE + ["--test", "constant", "--p", "0.5", "--schedule", "0:1,1:2,1:3",
                          "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == "error: schedule: a switch time is given twice\n"
    assert not out.exists()


def test_a_cli_schedule_has_the_levels_of_enumerate_schedules():
    sol = StrategySolution(utility=1.0, maximizers=(0.5, 1.0, 2.0), tie_tol=1e-6)
    inc = enumerate_schedules(sol, switch_times=[1, 3])[-1]
    assert _parse_schedule("0:0.5,1:1.0,3:2.0") == inc
    assert (inc.levels, inc.switch_times) == ((0.5, 1.0, 2.0), (1, 3))


def test_simulate_rejects_a_negative_seed(tmp_path, capsys):
    out = tmp_path / "s.json"
    rc = main(SIM_BASE + ["--test", "constant", "--p", "0.5", "--seed", "-1", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == "error: seed must be a non-negative integer\n"
    assert not out.exists()


def test_simulate_a_trillion_episodes_in_steps_played(tmp_path):
    out = tmp_path / "s.json"
    start = time.perf_counter()
    rc = main(SIM_BASE + ["--test", "constant", "--p", "0.5", "--episodes", "1000000000000",
                          "--out", str(out)])
    assert rc == 0
    assert time.perf_counter() - start < 1.0
    res = json.loads(out.read_text())["result"]
    assert sum(res["pass_time_histogram"].values()) + round(
        res["truncated_fraction"] * 10**12
    ) == 10**12


def test_simulate_rejects_an_episode_count_beyond_int64(tmp_path, capsys):
    out = tmp_path / "s.json"
    rc = main(SIM_BASE + ["--test", "constant", "--p", "0.5", "--episodes",
                          "9223372036854775808", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == "error: episodes must be an integer in [1, 2**63)\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "ranges",
    [
        # 10^9 values of delta would need an 8 GB array
        ["--delta-range", "0:1:1000000000", "--sigma-range", "1"],
        # each range is small, but 10^8 cells would keep about 14 GB of results
        ["--delta-range", "0:1:10000", "--sigma-range", "0.5:1.5:10000"],
    ],
)
def test_coverage_refuses_ranges_beyond_the_grid_cap(tmp_path, capsys, ranges):
    out = tmp_path / "cov.csv"
    start = time.perf_counter()
    rc = main(["coverage", "--R", "4", "--c", "1", "--alpha", "0.5", *ranges, "--out", str(out)])
    assert rc == 2
    assert time.perf_counter() - start < 1.0
    assert "is more than" in capsys.readouterr().err
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


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["optimal", "--test", "threshold", "--delta", "1e300", "--sigma", "1e-300"],
         '"solution": {\n    "maximizers": [\n      0.0\n    ],\n    "tie_tol": 4e-06,\n'
         '    "utility": 0.0\n  }'),
        (["coverage", "--delta-range", "1e300", "--sigma-range", "1e-300"],
         "delta,sigma,gamma_bar\n1e+300,1e-300,0.915893732352\n"),
    ],
    ids=["optimal", "coverage"],
)
def test_a_threshold_quotient_beyond_the_floats_warns_nothing(tmp_path, argv, expected):
    # (x - delta)/sigma overflows to -inf, where Phi is exactly 0
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([argv[0], "--R", "4", "--c", "1", "--alpha", "0.5", *argv[1:],
                     "--out", str(out)]) == 0
    assert expected in out.read_text()


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

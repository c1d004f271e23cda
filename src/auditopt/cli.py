"""Command-line front end: solvers and sweeps with CSV/JSON output.

Each parameter is declared once, in PARAMS, which builds the flags and
type-checks every key a command reads, from a flag or a --config file. Each
cmd_* returns its output files' text; main writes all or none once it returns.

Exit codes: 0 success, 2 config error or unwritable --out, 3 regime/precondition error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import namedtuple

import numpy as np

from . import __version__
from .core import g_value, optimal_strategy, waiver_cost
from .linear import (
    RegimeError,
    design_dynamic_easier_first,
    design_dynamic_harder_first,
    design_static,
)
from .multistep import Audit, PreconditionError, approximation_study
from .sim import evaluate_schedule, simulate
from .threshold import coverage_grid
from .types import MAX_GRID_POINTS, GridSpec, Schedule, TestFunction, VendorParams

CONFIG_ERROR = 2
REGIME_ERROR = 3


def _csv(header: str, rows, config: dict) -> str:
    lines = [f"# auditopt {__version__}", f"# config: {json.dumps(config, sort_keys=True)}", header]
    lines += [",".join(f"{v:.12g}" for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _json(payload: dict, config: dict) -> str:
    doc = {"version": __version__, "config": config, **payload}
    try:
        return json.dumps(doc, indent=2, sort_keys=True, default=float, allow_nan=False) + "\n"
    except ValueError:  # finite inputs so large that a result overflowed
        raise ConfigError("inputs out of range: a result is not finite")


class ConfigError(ValueError):
    pass


ALL = ("g-sweep", "optimal", "coverage", "design", "approx", "simulate")
GRID = ("g-sweep", "optimal", "approx")  # the commands that solve on an effort grid
TEST = ("g-sweep", "optimal", "simulate")

# Each parameter, as the flag --KEY (with _ written as -) and the --config key
# KEY, in flag order: its JSON type (an int passes for a float), its default
# (None: required by every command that reads it), the commands that read it
# and take its flag, and its choices
Param = namedtuple("Param", "kind default commands choices", defaults=[None])
PARAMS = {
    "R": Param(float, None, ALL),
    "c": Param(float, None, ALL),
    "alpha": Param(float, None, ALL),
    "out": Param(str, None, ALL),
    "config": Param(str, None, ALL),
    "grid_step": Param(float, 1e-3, GRID),
    "x_max": Param(float, None, GRID),  # R/c + 1, set by _grid
    "test": Param(str, None, TEST, ("threshold", "linear", "constant")),
    "delta": Param(float, None, TEST),
    "sigma": Param(float, None, TEST),
    "b": Param(float, None, TEST),
    "p": Param(float, None, TEST),
    "delta_range": Param(str, None, ("coverage",)),
    "sigma_range": Param(str, None, ("coverage",)),
    "mu0": Param(float, 1.0, ("coverage",)),
    "s0": Param(float, 1.5, ("coverage",)),
    "mode": Param(str, None, ("design",), ("static", "easier-first", "harder-first")),
    "epsilon": Param(float, 1e-2, ("design",)),
    "audit": Param(str, None, ("approx", "simulate")),
    "k_list": Param(str, "0,1,2,3", ("approx",)),
    "schedule": Param(str, None, ("simulate",)),
    "episodes": Param(int, 10000, ("simulate",)),
    "seed": Param(int, 0, ("simulate",)),
}


def _resolve(args: argparse.Namespace) -> dict:
    """Merge config-file values with flags, flags winning on conflict, and check
    the JSON type of every key the command reads; other keys are kept and ignored."""
    flags = {key: val for key, val in vars(args).items() if key in PARAMS and val is not None}
    path = flags.pop("config", None)
    config = {}
    if path:
        try:
            with open(path) as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"config: cannot read {path}: {exc}")
        if not isinstance(config, dict):
            raise ConfigError("config: file must hold a flat JSON object")
    config.update(flags)
    for key, val in config.items():
        if key not in PARAMS or args.command not in PARAMS[key].commands:
            continue
        kind = PARAMS[key].kind
        if (isinstance(val, bool) or not isinstance(val, (int, float) if kind is float else kind)
                or kind is float and isinstance(val, int) and abs(val) > sys.float_info.max):
            raise ConfigError(f"{key}: expected {kind.__name__}, got {json.dumps(val)}")
    return config


def _get(config: dict, key: str, default=None):
    """config[key], else default, else the key's default in PARAMS; a key
    with neither must be present."""
    val = config.get(key, PARAMS[key].default if default is None else default)
    if val is None:
        raise ConfigError(f"{key}: missing required parameter")
    return float(val) if PARAMS[key].kind is float else val


def _params(config: dict) -> VendorParams:
    return VendorParams(*(_get(config, field) for field in ("R", "c", "alpha")))


def _grid(config: dict, params: VendorParams) -> GridSpec:
    try:
        return GridSpec(x_max=_get(config, "x_max", params.rosi + 1.0),
                        step=_get(config, "grid_step"))
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}")


def _test(config: dict) -> TestFunction:
    kind = _get(config, "test")
    try:
        return TestFunction.from_json({**config, "type": kind})
    except KeyError as exc:
        raise ConfigError(f"test: {kind} requires {exc}")
    except ValueError as exc:
        raise ConfigError(f"test: {exc}")


def _audit(config: dict) -> Audit:
    """The finite-step audit in the JSON file named by the audit key."""
    path = _get(config, "audit")
    try:
        with open(path) as fh:
            return Audit.from_json(json.load(fh))
    except KeyError as exc:
        raise ConfigError(f"audit: missing key {exc}")
    except (OSError, ValueError, TypeError, AttributeError) as exc:
        raise ConfigError(f"audit: {exc}")


def _parse_range(spec: str, name: str) -> list:
    """Either comma-separated values or start:stop:count (inclusive linspace),
    with at most MAX_GRID_POINTS values."""
    try:
        if ":" in spec:
            start, stop, count = spec.split(":")
            count = int(count)
            if count > MAX_GRID_POINTS:
                raise ConfigError(f"{name}: {count} values is more than {MAX_GRID_POINTS}")
            values = list(np.linspace(float(start), float(stop), count))
        else:
            values = [float(v) for v in spec.split(",") if v != ""]
    except ConfigError:
        raise
    except ValueError:
        raise ConfigError(f"{name}: cannot parse range {spec!r}")
    if not values:
        raise ConfigError(f"{name}: empty range")
    return values


def _parse_schedule(spec: str) -> Schedule:
    """Switch-time/level pairs 't0:x0,t1:x1,...'; t0 must be 0."""
    try:
        pairs = sorted((int(t), float(x)) for t, x in (p.split(":") for p in spec.split(",") if p))
    except ValueError:  # also a pair of more or fewer than two fields
        raise ConfigError(f"schedule: cannot parse {spec!r}")
    if len({t for t, _ in pairs}) < len(pairs):
        raise ConfigError("schedule: a switch time is given twice")
    if not pairs or pairs[0][0] != 0:
        raise ConfigError("schedule: must start with a t=0 level")
    times, levels = zip(*pairs)
    try:
        return Schedule(levels=levels, switch_times=times[1:])
    except ValueError as exc:
        raise ConfigError(f"schedule: {exc}")


def cmd_g_sweep(config: dict) -> dict:
    params = _params(config)
    grid = _grid(config, params)
    test = _test(config)
    sol = optimal_strategy(test, params, grid)
    xs = grid.points()
    rows = zip(xs, g_value(test, params, xs), waiver_cost(test, params, xs))
    return {config["out"]: _csv("x,G,CA", rows, config),
            config["out"] + ".meta.json": _json({"solution": sol.to_json()}, config)}


def cmd_optimal(config: dict) -> dict:
    params = _params(config)
    sol = optimal_strategy(_test(config), params, _grid(config, params))
    return {config["out"]: _json({"solution": sol.to_json()}, config)}


def cmd_coverage(config: dict) -> dict:
    params = _params(config)
    deltas = _parse_range(_get(config, "delta_range"), "delta_range")
    sigmas = _parse_range(_get(config, "sigma_range"), "sigma_range")
    if len(deltas) * len(sigmas) > MAX_GRID_POINTS:
        raise ConfigError(f"coverage: {len(deltas)} x {len(sigmas)} cells is more than "
                          f"{MAX_GRID_POINTS}")
    if any(s <= 0 for s in sigmas):
        raise ConfigError("sigma_range: sigma values must be positive")
    cells = coverage_grid(deltas, sigmas, _get(config, "mu0"), _get(config, "s0"), params)
    rows = ((cell.delta, cell.sigma, cell.gamma_bar) for cell in cells)
    return {config["out"]: _csv("delta,sigma,gamma_bar", rows, config)}


def cmd_design(config: dict) -> dict:
    params = _params(config)
    mode = _get(config, "mode")
    if mode == "static":
        design = design_static(params)
    elif mode == "easier-first":
        design = design_dynamic_easier_first(params)
    elif mode == "harder-first":
        design = design_dynamic_harder_first(params, epsilon=_get(config, "epsilon"))
    else:
        raise ConfigError(f"mode: must be static, easier-first or harder-first, got {mode!r}")
    return {config["out"]: _json({"design": design.to_json()}, config)}


def cmd_approx(config: dict) -> dict:
    params = _params(config)
    audit = _audit(config)
    spec = _get(config, "k_list")
    try:
        ks = [int(k) for k in spec.split(",")]
    except ValueError:
        raise ConfigError(f"k_list: cannot parse {spec!r}")
    study = approximation_study(audit, params, _grid(config, params), ks)
    rows = ((r.k, r.measured_error, r.bound, r.maximizer) for r in study.rows)
    return {config["out"]: _csv("k,measured_error,bound,maximizer", rows, config)}


def cmd_simulate(config: dict) -> dict:
    params = _params(config)
    schedule = _parse_schedule(_get(config, "schedule"))
    audit = _audit(config) if "audit" in config else Audit(prefix=(), tail=_test(config))
    result = simulate(schedule, audit, params, episodes=_get(config, "episodes"),
                      seed=_get(config, "seed"))
    analytic = evaluate_schedule(schedule, audit, params)
    return {config["out"]: _json({"result": result.to_json(), "analytic": analytic}, config)}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="auditopt", description="Vendor investment and audit-design solvers"
    )
    parser.add_argument("--version", action="version", version=f"auditopt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, summary in (
        ("g-sweep", cmd_g_sweep, "sweep net utility and waiver cost over effort"),
        ("optimal", cmd_optimal, "optimal investment strategy for a test"),
        ("coverage", cmd_coverage, "participation threshold over (delta, sigma)"),
        ("design", cmd_design, "linear audit designers"),
        ("approx", cmd_approx, "truncation error study for a finite-step audit"),
        ("simulate", cmd_simulate, "Monte Carlo of a schedule under an audit"),
    ):
        p = sub.add_parser(name, help=summary)
        for key, spec in PARAMS.items():
            if name in spec.commands:
                p.add_argument("--" + key.replace("_", "-"), type=spec.kind, choices=spec.choices)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _resolve(args)
        _get(config, "out")
        written = []  # removed again if a later path cannot be written
        for path, text in args.func(config).items():
            try:
                with open(path, "w") as fh:
                    written.append(path)
                    fh.write(text)
            except OSError as exc:
                for done in written:
                    os.remove(done)
                raise ConfigError(f"out: cannot write {path}: {exc.strerror}")
        return 0
    except (RegimeError, PreconditionError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return REGIME_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())

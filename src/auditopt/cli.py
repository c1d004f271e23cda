"""Command-line front end: solvers and sweeps with CSV/JSON output.

Exit codes: 0 success, 2 config error, 3 regime/precondition error.
"""

from __future__ import annotations

import argparse
import json
import sys

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


def _fmt(v: float) -> str:
    if v == float("inf"):
        return "inf"
    return f"{v:.12g}"


def _write_csv(path: str, header: str, rows, config: dict) -> None:
    lines = [f"# auditopt {__version__}", f"# config: {json.dumps(config, sort_keys=True)}", header]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json(path: str, payload: dict, config: dict) -> None:
    doc = {"version": __version__, "config": config, **payload}
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, default=float, allow_nan=False)
    except ValueError:  # finite inputs so large that a result overflowed
        raise ConfigError("inputs out of range: a result is not finite")
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _resolve(args: argparse.Namespace) -> dict:
    """Merge config-file values with flags; flags win on conflict."""
    config = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"config: cannot read {args.config}: {exc}")
        if not isinstance(config, dict):
            raise ConfigError("config: file must hold a flat JSON object")
    for key, val in vars(args).items():
        if key in ("config", "command", "func") or val is None:
            continue
        config[key] = val
    return config


class ConfigError(ValueError):
    pass


def _get(config: dict, key: str, kind: type, default=None):
    """config[key], or default if absent, when it has the JSON type kind (an
    int passes for a float); a key without a default must be present."""
    if key not in config and default is None:
        raise ConfigError(f"{key}: missing required parameter")
    val = config.get(key, default)
    if isinstance(val, bool) or not isinstance(val, (int, float) if kind is float else kind):
        raise ConfigError(f"{key}: expected {kind.__name__}, got {json.dumps(val)}")
    return float(val) if kind is float else val


def _params(config: dict) -> VendorParams:
    return VendorParams(*(_get(config, field, float) for field in ("R", "c", "alpha")))


def _grid(config: dict, params: VendorParams) -> GridSpec:
    step = _get(config, "grid_step", float, 1e-3)
    x_max = _get(config, "x_max", float, params.rosi + 1.0)
    try:
        return GridSpec(x_max=x_max, step=step)
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}")


def _test(config: dict) -> TestFunction:
    try:
        return TestFunction.from_json({**config, "type": config.get("test")})
    except KeyError as exc:
        raise ConfigError(f"test: {config.get('test')} requires {exc}")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"test: {exc}")


def _audit(config: dict) -> Audit:
    """The finite-step audit in the JSON file named by the audit key."""
    path = _get(config, "audit", str)
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
    """Switch-time/level pairs 't0:x0,t1:x1,...'; t0 must be 0, and the
    schedule, one level per step, may have at most MAX_GRID_POINTS steps."""
    try:
        pairs = sorted(
            (int(p.split(":")[0]), float(p.split(":")[1])) for p in spec.split(",") if p
        )
    except (ValueError, IndexError):
        raise ConfigError(f"schedule: cannot parse {spec!r}")
    if not pairs or pairs[0][0] != 0:
        raise ConfigError("schedule: must start with a t=0 level")
    horizon = pairs[-1][0] + 1
    if horizon > MAX_GRID_POINTS:
        raise ConfigError(f"schedule: switch time {pairs[-1][0]} gives more than "
                          f"{MAX_GRID_POINTS} steps")
    levels = []
    k = 0
    for t in range(horizon):
        if k + 1 < len(pairs) and t >= pairs[k + 1][0]:
            k += 1
        levels.append(pairs[k][1])
    try:
        return Schedule(levels=tuple(levels))
    except ValueError as exc:
        raise ConfigError(f"schedule: {exc}")


def cmd_g_sweep(config: dict) -> int:
    params = _params(config)
    grid = _grid(config, params)
    test = _test(config)
    xs = grid.points()
    rows = zip(xs, g_value(test, params, xs), waiver_cost(test, params, xs))
    _write_csv(config["out"], "x,G,CA", rows, config)
    sol = optimal_strategy(test, params, grid)
    _write_json(config["out"] + ".meta.json", {"solution": sol.to_json()}, config)
    return 0


def cmd_optimal(config: dict) -> int:
    params = _params(config)
    sol = optimal_strategy(_test(config), params, _grid(config, params))
    _write_json(config["out"], {"solution": sol.to_json()}, config)
    return 0


def cmd_coverage(config: dict) -> int:
    params = _params(config)
    deltas = _parse_range(_get(config, "delta_range", str, ""), "delta_range")
    sigmas = _parse_range(_get(config, "sigma_range", str, ""), "sigma_range")
    if len(deltas) * len(sigmas) > MAX_GRID_POINTS:
        raise ConfigError(f"coverage: {len(deltas)} x {len(sigmas)} cells is more than "
                          f"{MAX_GRID_POINTS}")
    if any(s <= 0 for s in sigmas):
        raise ConfigError("sigma_range: sigma values must be positive")
    cells = coverage_grid(
        deltas, sigmas, _get(config, "mu0", float, 1.0), _get(config, "s0", float, 1.5), params
    )
    rows = ((cell.delta, cell.sigma, cell.gamma_bar) for cell in cells)
    _write_csv(config["out"], "delta,sigma,gamma_bar", rows, config)
    return 0


def cmd_design(config: dict) -> int:
    params = _params(config)
    mode = config.get("mode")
    if mode == "static":
        design = design_static(params)
    elif mode == "easier-first":
        design = design_dynamic_easier_first(params)
    elif mode == "harder-first":
        design = design_dynamic_harder_first(params, epsilon=_get(config, "epsilon", float, 1e-2))
    else:
        raise ConfigError(f"mode: must be static, easier-first or harder-first, got {mode!r}")
    _write_json(config["out"], {"design": design.to_json()}, config)
    return 0


def cmd_approx(config: dict) -> int:
    params = _params(config)
    audit = _audit(config)
    ks = [int(k) for k in str(config.get("k_list", "0,1,2,3")).split(",")]
    study = approximation_study(audit, params, _grid(config, params), ks)
    rows = ((r.k, r.measured_error, r.bound, r.maximizer) for r in study.rows)
    _write_csv(config["out"], "k,measured_error,bound,maximizer", rows, config)
    return 0


def cmd_simulate(config: dict) -> int:
    params = _params(config)
    schedule = _parse_schedule(str(config.get("schedule", "")))
    audit = _audit(config) if "audit" in config else Audit(prefix=(), tail=_test(config))
    result = simulate(
        schedule,
        audit,
        params,
        episodes=_get(config, "episodes", int, 10000),
        seed=_get(config, "seed", int, 0),
    )
    analytic = evaluate_schedule(schedule, audit, params)
    _write_json(config["out"], {"result": result.to_json(), "analytic": analytic}, config)
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--R", type=float)
    p.add_argument("--c", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--out", required=False)
    p.add_argument("--config")


def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    """The effort grid, read only by the subcommands that solve on it."""
    p.add_argument("--grid-step", dest="grid_step", type=float)
    p.add_argument("--x-max", dest="x_max", type=float)


def _add_test_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--test", choices=["threshold", "linear", "constant"])
    p.add_argument("--delta", type=float)
    p.add_argument("--sigma", type=float)
    p.add_argument("--b", type=float)
    p.add_argument("--p", type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="auditopt", description="Vendor investment and audit-design solvers"
    )
    parser.add_argument("--version", action="version", version=f"auditopt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("g-sweep", help="sweep net utility and waiver cost over effort")
    _add_common(p)
    _add_grid_flags(p)
    _add_test_flags(p)
    p.set_defaults(func=cmd_g_sweep)

    p = sub.add_parser("optimal", help="optimal investment strategy for a test")
    _add_common(p)
    _add_grid_flags(p)
    _add_test_flags(p)
    p.set_defaults(func=cmd_optimal)

    p = sub.add_parser("coverage", help="participation threshold over (delta, sigma)")
    _add_common(p)
    p.add_argument("--delta-range", dest="delta_range")
    p.add_argument("--sigma-range", dest="sigma_range")
    p.add_argument("--mu0", type=float)
    p.add_argument("--s0", type=float)
    p.set_defaults(func=cmd_coverage)

    p = sub.add_parser("design", help="linear audit designers")
    _add_common(p)
    p.add_argument("--mode", choices=["static", "easier-first", "harder-first"])
    p.add_argument("--epsilon", type=float)
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("approx", help="truncation error study for a finite-step audit")
    _add_common(p)
    _add_grid_flags(p)
    p.add_argument("--audit")
    p.add_argument("--k-list", dest="k_list")
    p.set_defaults(func=cmd_approx)

    p = sub.add_parser("simulate", help="Monte Carlo of a schedule under an audit")
    _add_common(p)
    _add_test_flags(p)
    p.add_argument("--audit")
    p.add_argument("--schedule")
    p.add_argument("--episodes", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _resolve(args)
        _get(config, "out", str)
        return args.func(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    except (RegimeError, PreconditionError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return REGIME_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())

"""Reference computations made apart from auditopt, and the output checks.

Nothing here imports auditopt. The normal CDF comes from math.erfc, maxima
come from a dense grid refined by this module's own golden-section search,
and finite-step audits and schedules are valued by this module's own
recursions. Every check returns a list of error strings; an empty list
means the output passed.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_erfc = np.frompyfunc(math.erfc, 1, 1)


# ---------------------------------------------------------------- model


def phi(z):
    """Standard normal CDF."""
    z = np.asarray(z, dtype=float)
    out = 0.5 * _erfc(-z / math.sqrt(2.0))
    return out.astype(float) if isinstance(out, np.ndarray) else float(out)


def pass_prob(test: dict, x):
    x = np.asarray(x, dtype=float)
    kind = test["type"]
    if kind == "threshold":
        return phi((x - test["delta"]) / test["sigma"])
    if kind == "linear":
        return np.clip(x - test["b"], 0.0, 1.0)
    if kind == "constant":
        return np.full_like(x, test["p"])
    raise ValueError(f"unknown test type {kind!r}")


def g(test: dict, P: dict, x):
    """Net utility of a one-time investment x: -c*x + p*R / (1 - alpha + alpha*p)."""
    x = np.asarray(x, dtype=float)
    p = pass_prob(test, x)
    return -P["c"] * x + p * P["R"] / (1.0 - P["alpha"] + P["alpha"] * p)


def waiver(test: dict, P: dict, x):
    """Waiver cost (1 - alpha)(1 - p)R / (1 - alpha + alpha*p)."""
    p = pass_prob(test, x)
    a = P["alpha"]
    return (1.0 - a) * (1.0 - p) * P["R"] / (1.0 - a + a * p)


def rosi_case(P: dict) -> str:
    rosi, a = P["R"] / P["c"], P["alpha"]
    if rosi < 1.0 - a:
        return "i"
    return "ii" if rosi < 1.0 / (1.0 - a) else "iii"


# ------------------------------------------------------------ maximizing


def golden(f, lo: float, hi: float, tol: float = 1e-12) -> tuple[float, float]:
    """Best point seen by a golden-section search for a maximum of f on [lo, hi]."""
    x1 = hi - _INV_GOLDEN * (hi - lo)
    x2 = lo + _INV_GOLDEN * (hi - lo)
    f1, f2 = float(f(x1)), float(f(x2))
    for _ in range(200):
        if hi - lo <= tol:
            break
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_GOLDEN * (hi - lo)
            f1 = float(f(x1))
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_GOLDEN * (hi - lo)
            f2 = float(f(x2))
    return max([(lo, float(f(lo))), (x1, f1), (x2, f2), (hi, float(f(hi)))], key=lambda t: t[1])


def peaks(f, lo: float, hi: float, n: int = 20001) -> list[tuple[float, float]]:
    """Refined local maxima of f on [lo, hi] that come near its grid maximum.

    Every grid local maximum within a slope-sized window of the grid maximum
    is refined by golden section over its two neighbouring cells, so a peak
    between grid points is found, and separate peaks of nearly equal value
    are all kept. A flat stretch of local maxima counts once, by its right end.
    """
    xs = np.linspace(lo, hi, n)
    v = np.asarray(f(xs), dtype=float)
    step = xs[1] - xs[0]
    window = 3.0 * float(np.max(np.abs(np.diff(v)))) + 1e-9
    padded = np.concatenate(([-np.inf], v, [-np.inf]))
    local = np.nonzero((v >= padded[:-2]) & (v >= padded[2:]) & (v >= v.max() - window))[0]
    ends = local[np.append(np.diff(local) > 1, True)]
    out = []
    for i in ends:
        refined = golden(f, max(lo, xs[i] - step), min(hi, xs[i] + step))
        out.append(max(refined, (float(xs[i]), float(v[i])), key=lambda t: t[1]))
    return out


def max_value(f, lo: float, hi: float) -> float:
    return max(v for _, v in peaks(f, lo, hi))


def largest_maximizer(f, lo: float, hi: float, tie: float) -> tuple[float, float]:
    """Largest x whose value is within `tie` of the maximum, with the maximum."""
    cands = peaks(f, lo, hi)
    best = max(v for _, v in cands)
    return max(x for x, v in cands if v >= best - tie), best


# --------------------------------------------------------- linear tests


def linear_peak(b: float, P: dict) -> tuple[float, float]:
    """Best investment inside the ramp [b, b+1] of the linear-b test, and its value."""
    test = {"type": "linear", "b": b}
    return golden(lambda x: g(test, P, x), b, b + 1.0)


def static_entrance(P: dict) -> float:
    """Largest entrance value whose ramp peak the vendor still accepts (value >= 0).

    The induced investment rises with b while the peak stays acceptable, so
    this is the static design's b*, found by bisection. Low ROSI: no b works.
    """
    if linear_peak(0.0, P)[1] < 0.0:
        return 0.0
    lo, hi = 0.0, P["R"] / P["c"] + 1.0
    while hi - lo > 1e-13 * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if linear_peak(mid, P)[1] >= 0.0:
            lo = mid
        else:
            hi = mid
    return lo


def tail_best(b: float, P: dict, x):
    """max over y >= x of the static linear-b net utility.

    That utility falls below b, is concave on the ramp [b, b+1] and falls
    again after it, so the best point at or beyond x is x itself or the ramp
    peak, if the peak lies at or beyond x.
    """
    x = np.asarray(x, dtype=float)
    y_peak, v_peak = linear_peak(b, P)
    here = g({"type": "linear", "b": b}, P, x)
    return np.where(x <= y_peak, np.maximum(here, v_peak), here)


def two_step(b_prime: float, b: float, P: dict, x):
    """Utility of investing x against test b' once, then the static b audit."""
    x = np.asarray(x, dtype=float)
    c, R, a = P["c"], P["R"], P["alpha"]
    pp = np.clip(x - b_prime, 0.0, 1.0)
    return -(1.0 - a + a * pp) * c * x + pp * R + a * (1.0 - pp) * tail_best(b, P, x)


# ------------------------------------------------------ finite-step audits


def grid_points(x_max: float, step: float) -> np.ndarray:
    n = int(math.floor(x_max / step + 0.5)) + 1
    return np.linspace(0.0, (n - 1) * step, n)


def backward(audit: dict, P: dict, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Step-0 best net value max_{y >= x} U_0(y), and the raw step-0 utility U_0."""
    c, R, a = P["c"], P["R"], P["alpha"]
    raw = g(audit["tail"], P, xs)
    best = np.maximum.accumulate(raw[::-1])[::-1]
    for test in reversed(audit["prefix"]):
        p = pass_prob(test, xs)
        raw = -(1.0 - a + a * p) * c * xs + p * R + a * (1.0 - p) * best
        best = np.maximum.accumulate(raw[::-1])[::-1]
    return best, raw


def truncated(audit: dict, k: int) -> dict:
    prefix = audit["prefix"]
    if k == len(prefix):
        return audit
    return {"prefix": prefix[:k], "tail": prefix[k]}


def schedule_value(levels, audit: dict, P: dict, tol: float = 1e-14) -> float:
    """Exact expected discounted utility of an open-loop schedule, by its series."""
    c, R, a = P["c"], P["R"], P["alpha"]
    prefix = audit["prefix"]
    total, alive, disc, x_prev, t = 0.0, 1.0, 1.0, 0.0, 0
    while alive * disc * R / (1.0 - a) >= tol * R:
        x = levels[min(t, len(levels) - 1)]
        test = prefix[t] if t < len(prefix) else audit["tail"]
        p = float(pass_prob(test, x))
        total += alive * disc * (p * R - c * (x - x_prev))
        alive *= 1.0 - p
        x_prev, disc, t = x, disc * a, t + 1
    return total


# -------------------------------------------------------- participation


def _loss(gamma: float, mu0: float, s0: float, x: float) -> float:
    try:
        return math.exp(gamma * mu0 / x + 0.5 * (gamma * s0 / x) ** 2)
    except OverflowError:
        return math.inf


def opt_out(gamma: float, mu0: float, s0: float, P: dict) -> tuple[float, float]:
    """Best opt-out utility R - c*x - loss(x), and its derivative in gamma.

    The loss is the exponential of a convex decreasing function of x, so the
    utility is concave; its maximizer is the root of the derivative, found
    by bisection. With gamma = 0 the supremum R - 1 is approached as x -> 0.
    """
    R, c = P["R"], P["c"]
    if gamma == 0.0:
        return R - 1.0, -math.inf

    def slope(x):
        return -c + _loss(gamma, mu0, s0, x) * (gamma * mu0 / x**2 + gamma**2 * s0**2 / x**3)

    hi = 1.0
    while slope(hi) > 0.0:
        hi *= 2.0
    lo = hi / 2.0
    while slope(lo) <= 0.0:
        lo /= 2.0
    for _ in range(200):
        if hi - lo <= 1e-15 * hi:
            break
        mid = 0.5 * (lo + hi)
        if slope(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    loss = _loss(gamma, mu0, s0, x)
    return R - c * x - loss, -loss * (mu0 / x + gamma * s0**2 / x**2)


def opt_in(delta: float, sigma: float, P: dict) -> float:
    test = {"type": "threshold", "delta": delta, "sigma": sigma}
    return max(0.0, max_value(lambda x: g(test, P, x), 0.0, P["R"] / P["c"] + 1.0))


# ----------------------------------------------------------------- checks


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def check_optimal(args: dict, out: dict) -> list[str]:
    P, test = args["params"], args["test"]
    f = lambda x: g(test, P, x)
    best = max(0.0, max_value(f, 0.0, P["R"] / P["c"] + 1.0))
    errs = []
    if not _close(out["utility"], best, 1e-6 * P["R"]):
        errs.append(f"utility {out['utility']!r} but the dense-grid maximum is {best!r}")
    for m in out["maximizers"]:
        if float(f(m)) < out["utility"] - out["tie_tol"] - 1e-9 * P["R"]:
            errs.append(f"maximizer {m!r} has utility {float(f(m))!r} < {out['utility']!r}")
    if not out["maximizers"]:
        errs.append("no maximizers")
    return errs


def check_value_iteration(args: dict, out: dict) -> list[str]:
    """Value iteration solves the problem on its own grid (the default grid,
    step 1e-3), so it is held to the maximum of G over that grid, and it may
    not exceed the maximum over all efforts."""
    P, test = args["params"], args["test"]
    x_max = P["R"] / P["c"] + 1.0
    on_grid = max(0.0, float(np.max(g(test, P, grid_points(x_max, 1e-3)))))
    best = max(0.0, max_value(lambda x: g(test, P, x), 0.0, x_max))
    errs = []
    if not _close(out["at_zero"], on_grid, 1e-4):
        errs.append(f"value at 0 is {out['at_zero']!r} but G peaks at {on_grid!r} on the grid")
    if out["at_zero"] > best + 1e-9 * P["R"]:
        errs.append(f"value at 0 is {out['at_zero']!r}, above the maximum {best!r} of G")
    return errs


def _check_induced(f, lo: float, hi: float, out: dict, P: dict) -> list[str]:
    """The design's x is the largest maximizer of f, with utility f(x) >= -1e-9."""
    errs = []
    x_star, _ = largest_maximizer(f, lo, hi, 1e-9 * max(1.0, P["R"]))
    if not _close(out["x"], x_star, 1e-6):
        errs.append(f"induced x {out['x']!r} but the largest maximizer is {x_star!r}")
    u = float(f(out["x"]))
    if u < -1e-9:
        errs.append(f"utility at the induced x is {u!r} < -1e-9")
    if not _close(out["utility"], u, 1e-9 * max(1.0, P["R"])):
        errs.append(f"reported utility {out['utility']!r} but it is {u!r}")
    return errs


def check_design_static(args: dict, out: dict) -> list[str]:
    P = args["params"]
    errs = []
    if out["case"] != rosi_case(P):
        errs.append(f"case {out['case']!r} but R/c puts it in case {rosi_case(P)!r}")
    b_star = static_entrance(P)
    if not _close(out["b"], b_star, 1e-7 * max(1.0, b_star)):
        errs.append(f"entrance value {out['b']!r} but bisection gives {b_star!r}")
    if not out["verified"]:
        errs.append("design not verified")
    test = {"type": "linear", "b": out["b"]}
    hi = max(P["R"] / P["c"], out["b"]) + 2.0
    return errs + _check_induced(lambda x: g(test, P, x), 0.0, hi, out, P)


def check_design_two_step(args: dict, out: dict) -> list[str]:
    """x is the largest maximizer of the two-step utility over all efforts;
    harder-first also keeps its first test at least epsilon above the tail."""
    P = args["params"]
    b, bp = out["b"], out["b_prime"]
    errs = []
    eps = args.get("epsilon")
    if eps is not None and bp < b + eps - 1e-12:
        errs.append(f"first test b'={bp!r} is not at least epsilon above b={b!r}")
    f = lambda x: two_step(bp, b, P, x)
    return errs + _check_induced(f, 0.0, max(b, bp) + 2.0, out, P)


def check_backward(args: dict, out: dict) -> list[str]:
    P = args["params"]
    xs = grid_points(args["grid"]["x_max"], args["grid"]["step"])
    values = np.asarray(out["values"], dtype=float)
    if values.shape != xs.shape:
        return [f"{values.size} values for a grid of {xs.size} points"]
    tol = 1e-9 * max(1.0, P["R"])
    best, raw = backward(args["audit"], P, xs)
    errs = []
    gap = float(np.max(np.abs(values - best)))
    if gap > tol:
        errs.append(f"net value differs from the recursion by {gap:.3e}")
    net = P["c"] * xs + values
    if net.min() < -1e-9 or net.max() > P["R"] + 1e-9:
        errs.append(f"c*x + U leaves [0, R]: [{net.min()!r}, {net.max()!r}]")
    i = int(round(out["maximizer"] / args["grid"]["step"]))
    if not 0 <= i < xs.size or raw[i] < raw.max() - tol:
        errs.append(f"maximizer {out['maximizer']!r} is not a grid maximizer")
    if not _close(out["max_value"], best[0], tol):
        errs.append(f"max value {out['max_value']!r} but the recursion gives {best[0]!r}")
    return errs


def approx_errors(audit: dict, P: dict, xs: np.ndarray, ks) -> list[float]:
    ref, _ = backward(audit, P, xs)
    return [float(np.max(np.abs(backward(truncated(audit, k), P, xs)[0] - ref))) for k in ks]


def check_approx_rows(audit: dict, P: dict, xs: np.ndarray, rows) -> list[str]:
    """rows: (k, measured error, bound) triples."""
    a, R = P["alpha"], P["R"]
    residual = a ** (len(audit["prefix"]) + 1) * R / (1.0 - a)
    errs = []
    mine = approx_errors(audit, P, xs, [int(r[0]) for r in rows])
    for (k, err, bound), own in zip(rows, mine):
        k = int(k)
        if not _close(bound, a ** (k + 1) * R / (1.0 - a), 1e-12 * R):
            errs.append(f"k={k}: bound {bound!r} is not alpha^(k+1) R/(1-alpha)")
        if err > bound + residual + 1e-9:
            errs.append(f"k={k}: error {err!r} exceeds bound {bound!r} + residual {residual!r}")
        if not _close(err, own, 1e-9 * max(1.0, R)):
            errs.append(f"k={k}: error {err!r} but the recursion gives {own!r}")
    return errs


def check_approximation_study(args: dict, out: dict) -> list[str]:
    P = args["params"]
    xs = grid_points(args["grid"]["x_max"], args["grid"]["step"])
    a = P["alpha"]
    residual = a ** (len(args["audit"]["prefix"]) + 1) * P["R"] / (1.0 - a)
    errs = []
    if not _close(out["reference_residual"], residual, 1e-12 * P["R"]):
        errs.append(f"reference residual {out['reference_residual']!r} != {residual!r}")
    if [int(r[0]) for r in out["rows"]] != sorted(set(args["k_list"])):
        errs.append("rows do not cover the requested k values")
    return errs + check_approx_rows(args["audit"], P, xs, [r[:3] for r in out["rows"]])


def check_cells(P: dict, mu0: float, s0: float, deltas, sigmas, gamma_bars) -> list[str]:
    """Opt-in and opt-out utilities agree at each gamma_bar; the sweep is monotone."""
    tol_u = 1e-8 * P["R"]
    errs = []
    gb = np.asarray(gamma_bars, dtype=float).reshape(len(deltas), len(sigmas))
    for i, d in enumerate(deltas):
        for j, s in enumerate(sigmas):
            u_in, gbar = opt_in(d, s, P), float(gb[i, j])
            if gbar == 0.0:
                if u_in < P["R"] - 1.0 - tol_u:
                    errs.append(f"({d:.4g},{s:.4g}): gamma_bar 0 but opt-in {u_in!r} < R-1")
                continue
            if math.isinf(gbar):
                u_out, _ = opt_out(2.0**19, mu0, s0, P)
                if u_out < u_in - tol_u:
                    errs.append(f"({d:.4g},{s:.4g}): gamma_bar inf but opt-out loses at 2^19")
                continue
            u_out, du = opt_out(gbar, mu0, s0, P)
            tol = tol_u + 2e-9 * max(1.0, gbar) * abs(du)
            if not _close(u_out, u_in, tol):
                errs.append(f"({d:.4g},{s:.4g}): at gamma_bar={gbar!r} opt-out {u_out!r} "
                            f"!= opt-in {u_in!r}")
    for j in range(len(sigmas)):
        col = gb[:, j]
        for lo, hi in zip(col[:-1], col[1:]):
            if hi < lo - 1e-9 and not (math.isinf(lo) and math.isinf(hi)):
                errs.append(f"sigma={sigmas[j]:.4g}: gamma_bar falls in delta ({lo!r} -> {hi!r})")
    col_min = gb.min(axis=0)
    if np.any(np.diff(col_min) < -1e-9):
        errs.append(f"per-sigma minimum falls in sigma: {col_min.tolist()}")
    return errs


def check_coverage(args: dict, out: dict) -> list[str]:
    P = {k: args[k] for k in ("R", "c", "alpha")}
    return check_cells(P, args["mu0"], args["s0"], args["deltas"], args["sigmas"],
                       out["gamma_bar"])


def check_sim_result(levels, audit: dict, P: dict, res: dict) -> list[str]:
    exact = schedule_value(levels, audit, P)
    errs = []
    if abs(res["mean"] - exact) > 4.0 * res["std_error"] + 1e-9 * P["R"]:
        errs.append(f"mean {res['mean']!r} is more than 4 standard errors "
                    f"({res['std_error']!r}) from the exact {exact!r}")
    passed = sum(res["pass_time_histogram"].values())
    truncated_n = round(res["truncated_fraction"] * res["episodes"])
    if passed + truncated_n != res["episodes"]:
        errs.append(f"{passed} passed + {truncated_n} truncated != {res['episodes']} episodes")
    return errs


def check_simulate(args: dict, out: dict) -> list[str]:
    errs = check_sim_result(args["schedule"], args["audit"], args["params"], out)
    if out["episodes"] != args["episodes"]:
        errs.append(f"{out['episodes']} episodes run, {args['episodes']} asked")
    return errs


def check_evaluate(args: dict, out: dict) -> list[str]:
    P = args["params"]
    exact = schedule_value(args["schedule"], args["audit"], P)
    if not _close(out["value"], exact, 1e-9 * P["R"]):
        return [f"exact value {out['value']!r} but the series gives {exact!r}"]
    return []


# ------------------------------------------------------------ CLI outputs


def _flags(argv: list[str]) -> dict:
    """--name value pairs of a command line, values as written."""
    return {argv[i][2:]: argv[i + 1] for i in range(1, len(argv) - 1, 2)}


def _csv_rows(text: str) -> list[list[float]]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return [[float(v) for v in row] for row in csv.reader(io.StringIO("\n".join(lines[1:])))]


def _test_from_flags(fl: dict) -> dict:
    kind = fl["test"]
    keys = {"threshold": ("delta", "sigma"), "linear": ("b",), "constant": ("p",)}[kind]
    return {"type": kind, **{k: float(fl[k]) for k in keys}}


def _levels_from_spec(spec: str) -> list[float]:
    pairs = sorted((int(t), float(x)) for t, x in (p.split(":") for p in spec.split(",")))
    return [[x for t, x in pairs if t <= step][-1] for step in range(pairs[-1][0] + 1)]


def check_cli(args: dict, out: dict) -> list[str]:
    argv = args["argv"]
    if out["exit"] != 0:
        return [f"exit code {out['exit']}: {out['stderr'][-300:]}"]
    fl = _flags(argv)
    P = {"R": float(fl["R"]), "c": float(fl["c"]), "alpha": float(fl["alpha"])}
    text = out["text"]
    cmd = argv[0]
    if cmd == "g-sweep":
        rows = np.asarray(_csv_rows(text))
        test = _test_from_flags(fl)
        errs = []
        gap = float(np.max(np.abs(rows[:, 1] - g(test, P, rows[:, 0]))))
        if gap > 1e-9 * P["R"]:
            errs.append(f"G column differs from G(x) by {gap:.3e}")
        ident = float(np.max(np.abs(rows[:, 1] + rows[:, 2] + P["c"] * rows[:, 0] - P["R"])))
        if ident > 1e-9 * P["R"]:
            errs.append(f"G + CA + c*x differs from R by {ident:.3e}")
        meta = json.loads(out["meta"])
        return errs + check_optimal({"params": P, "test": test}, meta["solution"])
    doc = json.loads(text) if args["output"].endswith(".json") else None
    if cmd == "optimal":
        return check_optimal({"params": P, "test": _test_from_flags(fl)}, doc["solution"])
    if cmd == "coverage":
        rows = _csv_rows(text)
        deltas = sorted({r[0] for r in rows})
        sigmas = sorted({r[1] for r in rows})
        return check_cells(P, float(fl.get("mu0", 1.0)), float(fl.get("s0", 1.5)),
                           deltas, sigmas, [r[2] for r in rows])
    if cmd == "design":
        design = doc["design"]
        if fl["mode"] == "static":
            return check_design_static({"params": P}, design)
        eps = float(fl["epsilon"]) if fl["mode"] == "harder-first" else None
        return check_design_two_step({"params": P, "epsilon": eps}, design)
    if cmd == "approx":
        xs = grid_points(P["R"] / P["c"] + 1.0, 1e-3)
        rows = [r[:3] for r in _csv_rows(text)]
        return check_approx_rows(args["audit"], P, xs, rows)
    if cmd == "simulate":
        levels = _levels_from_spec(fl["schedule"])
        audit = {"prefix": [], "tail": _test_from_flags(fl)}
        errs = check_sim_result(levels, audit, P, doc["result"])
        exact = schedule_value(levels, audit, P)
        if not _close(doc["analytic"], exact, 1e-9 * P["R"]):
            errs.append(f"analytic {doc['analytic']!r} but the series gives {exact!r}")
        return errs
    return [f"no check for command {cmd!r}"]


CHECKS = {
    "optimal_strategy": check_optimal,
    "value_iteration": check_value_iteration,
    "design_static": check_design_static,
    "design_easier_first": check_design_two_step,
    "design_harder_first": check_design_two_step,
    "backward_induction": check_backward,
    "approximation_study": check_approximation_study,
    "coverage_grid": check_coverage,
    "simulate": check_simulate,
    "evaluate_schedule": check_evaluate,
    "cli": check_cli,
}


def check(op: dict, out: dict) -> list[str]:
    return CHECKS[op["kind"]](op["args"], out)

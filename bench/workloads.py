"""Seeded inputs for the four benchmark workloads.

Every workload is a fixed list of operations; the seed chooses only the
numbers inside them. Parameters are stratified (one draw per equal slice of
each range) so that the cost of a round barely depends on the seed, while
the values the program sees still change with it. Nothing here imports
auditopt: the program receives only the generated inputs.

An operation is a plain dict: {"id": str, "kind": str, "args": {...}}.
"""

from __future__ import annotations

import json
import os
from statistics import NormalDist

import numpy as np

WORKLOADS = ("vendor", "participation", "monte-carlo", "cli-readme")

# Operations that fail today because of faults in the program (see
# CHANGES.md), on inputs that do not depend on the seed. They are counted as
# failed, not as wrong, while the program's output fails its check, so the
# failed share is the same in every run; once the program is fixed they pass.
KNOWN_FAULTS = {
    # the easier-first designer's own check rejects its design just above R/c = 1
    "easier-first-rosi-1.001": "easier-first design reports verified: false",
    # the harder-first designer's induced x is not the vendor's best response:
    # zero effort, then the easier tail, is worth more
    **{f"harder-first-{j}": "harder-first x is not the largest maximizer" for j in range(8)},
    "design-harder-first": "harder-first x is not the largest maximizer",
}


def _strata(rng: np.random.Generator, n: int, lo: float, hi: float) -> list[float]:
    """One uniform draw in each of n equal slices of [lo, hi], shuffled."""
    pos = (np.arange(n) + rng.uniform(0.0, 1.0, n)) / n
    rng.shuffle(pos)
    return [float(lo + p * (hi - lo)) for p in pos]


def _params(R: float, c: float, alpha: float) -> dict:
    return {"R": R, "c": c, "alpha": alpha}


def _random_test(rng: np.random.Generator, hardest: float) -> dict:
    if rng.random() < 0.5:
        return {"type": "threshold", "delta": float(rng.uniform(0.0, hardest)),
                "sigma": float(rng.uniform(0.3, 1.5))}
    return {"type": "linear", "b": float(rng.uniform(0.0, hardest))}


def _random_audit(rng: np.random.Generator, n_prefix: int, hardest: float) -> dict:
    tests = [_random_test(rng, hardest) for _ in range(n_prefix + 1)]
    return {"prefix": tests[:-1], "tail": tests[-1]}


def vendor_ops(seed: int) -> list[dict]:
    """Vendor decisions in all three ROSI regimes, designers and finite-step audits."""
    rng = np.random.default_rng([seed, 1])
    ops = []
    per_regime = 8
    for regime in ("low", "mid", "high"):
        alphas = _strata(rng, per_regime, 0.25, 0.75)
        costs = _strata(rng, per_regime, 0.5, 2.0)
        spots = _strata(rng, per_regime, 0.0, 1.0)
        for j, (a, c, u) in enumerate(zip(alphas, costs, spots)):
            if regime == "low":
                rosi = (0.2 + 0.7 * u) * (1.0 - a)
            elif regime == "mid":
                rosi = (1.0 - a) * 1.05 + u * (0.95 / (1.0 - a) - (1.0 - a) * 1.05)
            else:
                rosi = (1.05 + 0.45 * u) / (1.0 - a)
            params = _params(rosi * c, c, a)
            tests = {
                "threshold": {"type": "threshold",
                              "delta": float(rng.uniform(0.0, 0.8 * rosi)),
                              "sigma": float(rng.uniform(0.3, 1.5))},
                "linear": {"type": "linear", "b": float(rng.uniform(0.0, rosi))},
                "constant": {"type": "constant", "p": float(rng.uniform(0.05, 0.95))},
            }
            for name, test in tests.items():
                ops.append({"id": f"optimal-{regime}{j}-{name}", "kind": "optimal_strategy",
                            "args": {"params": params, "test": test}})
                ops.append({"id": f"vi-{regime}{j}-{name}", "kind": "value_iteration",
                            "args": {"params": params, "test": test}})
            ops.append({"id": f"static-{regime}{j}", "kind": "design_static",
                        "args": {"params": params}})

    # two-step designers, inside the band where both are defined and the
    # harder-first design keeps the first of its two closed-form branches
    for j, (a, c, u) in enumerate(zip(_strata(rng, 8, 0.3, 0.7), _strata(rng, 8, 0.5, 2.0),
                                      _strata(rng, 8, 0.0, 1.0))):
        rosi = 1.05 + u * (0.95 / (1.0 - a) - 1.05)
        ops.append({"id": f"easier-first-{j}", "kind": "design_easier_first",
                    "args": {"params": _params(rosi * c, c, a)}})
    # the harder-first designer fails its check on every input in this band
    # (see KNOWN_FAULTS), so its inputs are fixed: the same 8 points of the
    # band for every seed, spread like the strata above
    for j in range(8):
        a = 0.3 + 0.4 * (j + 0.5) / 8
        c = 0.5 + 1.5 * ((3 * j) % 8 + 0.5) / 8
        u = ((5 * j) % 8 + 0.5) / 8
        eps = 0.005 + 0.045 * ((7 * j + 2) % 8 + 0.5) / 8
        rosi = 1.05 + u * (0.97 / (1.0 - a * a) - 1.05)
        ops.append({"id": f"harder-first-{j}", "kind": "design_harder_first",
                    "args": {"params": _params(rosi * c, c, a), "epsilon": eps}})

    # finite-step audits: prefix lengths are fixed per slot, values are seeded
    for j, (n_prefix, a, c, rosi) in enumerate(zip(
            (0, 1, 3, 5) * 2, _strata(rng, 8, 0.2, 0.8), _strata(rng, 8, 0.5, 2.0),
            _strata(rng, 8, 1.0, 4.0))):
        params = _params(rosi * c, c, a)
        ops.append({"id": f"backward-{j}", "kind": "backward_induction",
                    "args": {"params": params, "audit": _random_audit(rng, n_prefix, 0.8 * rosi),
                             "grid": {"x_max": rosi + 1.0, "step": 1e-3}}})
    for j, (a, c, rosi) in enumerate(zip(_strata(rng, 4, 0.3, 0.6), _strata(rng, 4, 0.5, 2.0),
                                         _strata(rng, 4, 1.0, 4.0))):
        params = _params(rosi * c, c, a)
        ops.append({"id": f"approx-{j}", "kind": "approximation_study",
                    "args": {"params": params, "audit": _random_audit(rng, 12, 0.8 * rosi),
                             "grid": {"x_max": rosi + 1.0, "step": 1e-2},
                             "k_list": [0, 1, 2, 3, 4, 5]}})

    ops.append({"id": "easier-first-rosi-1.001", "kind": "design_easier_first",
                "args": {"params": _params(1.001, 1.0, 0.5)}})
    return ops


def participation_ops(seed: int) -> list[dict]:
    """24 single-cell coverage queries and one 13x13 coverage sweep."""
    rng = np.random.default_rng([seed, 2])
    model = {"R": 4.0, "c": 1.0, "alpha": 0.5,
             "mu0": float(rng.uniform(0.9, 1.1)), "s0": float(rng.uniform(1.35, 1.65))}
    d_hi = float(rng.uniform(2.9, 3.1))
    s_lo, s_hi = float(rng.uniform(0.09, 0.11)), float(rng.uniform(2.9, 3.1))
    grid = {"id": "grid-13x13", "kind": "coverage_grid",
            "args": {**model, "deltas": np.linspace(0.0, d_hi, 13).tolist(),
                     "sigmas": np.linspace(s_lo, s_hi, 13).tolist()}}
    # single cells on a jittered 4 x 6 lattice over the same (delta, sigma) box
    cells = []
    for i in range(4):
        for j in range(6):
            d = (i + rng.uniform()) / 4 * 3.0
            s = 0.1 + (j + rng.uniform()) / 6 * 2.9
            cells.append({"kind": "coverage_grid",
                          "args": {**model, "deltas": [float(d)], "sigmas": [float(s)]},
                          "id": f"cell-{i}-{j}"})
    return cells + [grid]


def monte_carlo_ops(seed: int) -> list[dict]:
    """Seeded simulations with short and long episodes, plus exact evaluations.

    Each configuration fixes the pass probability of its schedule level
    (through the normal quantile), so episode lengths, and so the cost of a
    round, do not depend on the seed; the test, prices and prefix do.
    """
    rng = np.random.default_rng([seed, 3])
    z = NormalDist().inv_cdf
    configs = []
    # (label, alpha, pass probability, stepped schedule, prefixed audit, episodes);
    # episode counts keep a round near 2 s, so a run holds about ten rounds
    shapes = [
        ("short-static", None, 0.90, False, False, 15000),
        ("short-stepped", None, 0.85, True, False, 15000),
        ("short-prefixed", None, 0.90, False, True, 15000),
        ("long-static", 0.8, 0.08, False, False, 5000),
        ("long-stepped", 0.8, 0.07, True, False, 5000),
        ("long-prefixed", 0.8, 0.08, False, True, 5000),
    ]
    for label, alpha, p, stepped, prefixed, episodes in shapes:
        a = float(rng.uniform(0.3, 0.7)) if alpha is None else alpha
        c = float(rng.uniform(0.5, 2.0))
        R = float(rng.uniform(2.0, 5.0)) * c
        # long episodes sit deeper so that even the lower first level is positive
        delta = float(rng.uniform(0.0, 2.0) if alpha is None else rng.uniform(3.0, 4.5))
        sigma = float(rng.uniform(0.3, 1.5))
        level = max(0.0, delta + sigma * z(p))
        tail = {"type": "threshold", "delta": delta, "sigma": sigma}
        prefix = []
        if prefixed:
            # prefix tests that pass with the same probability at the same level
            for _ in range(2):
                s = float(rng.uniform(0.3, 1.5))
                prefix.append({"type": "threshold", "delta": level - s * z(p), "sigma": s})
        levels = [level]
        if stepped:
            # start lower (half the pass odds) and step up to the level at t = 3
            lo = max(0.0, delta + sigma * z(p / 2.0))
            levels = [lo, lo, lo, level]
        configs.append({"label": label, "params": _params(R, c, a),
                        "audit": {"prefix": prefix, "tail": tail},
                        "schedule": levels, "episodes": episodes,
                        "seed": int(rng.integers(0, 2**31 - 1))})
    ops = [{"id": f"simulate-{cfg['label']}", "kind": "simulate", "args": cfg} for cfg in configs]
    # exact evaluation of one short and two long configurations
    for cfg in (configs[1], configs[3], configs[5]):
        ops.append({"id": f"evaluate-{cfg['label']}", "kind": "evaluate_schedule",
                    "args": {k: cfg[k] for k in ("params", "audit", "schedule")}})
    return ops


# README examples, verbatim apart from where their outputs go. "{out}" is the
# output directory, "{audit}" the generated audit file.
README_COMMANDS = [
    ("g-sweep", "g-sweep --R 4 --c 1 --alpha 0.5 --test threshold --delta 1 --sigma 1 "
                "--out {out}/sweep.csv", "sweep.csv"),
    ("optimal", "optimal --R 4 --c 1 --alpha 0.5 --test linear --b 3 --out {out}/opt.json",
     "opt.json"),
    ("coverage", "coverage --R 4 --c 1 --alpha 0.5 --delta-range 0:3:13 "
                 "--sigma-range 0.1:3:13 --out {out}/coverage.csv", "coverage.csv"),
    ("design-static", "design --mode static --R 4 --c 1 --alpha 0.5 --out {out}/design.json",
     "design.json"),
    ("design-easier-first", "design --mode easier-first --R 1.5 --c 1 --alpha 0.5 "
                            "--out {out}/d2.json", "d2.json"),
    ("design-harder-first", "design --mode harder-first --epsilon 0.01 --R 1.5 --c 1 "
                            "--alpha 0.5 --out {out}/d3.json", "d3.json"),
    ("approx", "approx --audit {audit} --R 4 --c 1 --alpha 0.5 --k-list 0,1,2,3 "
               "--out {out}/study.csv", "study.csv"),
    ("simulate", "simulate --R 4 --c 1 --alpha 0.5 --test threshold --delta 1 --sigma 1 "
                 "--schedule 0:1.0,3:1.5 --episodes 100000 --seed 7 --out {out}/sim.json",
     "sim.json"),
]


def cli_readme_ops(seed: int, out_dir: str) -> list[dict]:
    """Every README CLI example; the seed draws the audit that `approx` studies.

    With alpha = 0.5 the study's precondition (reference residual below a
    tenth of the k = 3 bound) needs a prefix of at least 7 tests; 8 are used.
    """
    rng = np.random.default_rng([seed, 4])
    os.makedirs(out_dir, exist_ok=True)
    audit_path = os.path.join(out_dir, "audit.json")
    audit = _random_audit(rng, 8, 0.8 * 4.0)
    with open(audit_path, "w") as fh:
        json.dump(audit, fh)
    ops = []
    for name, template, output in README_COMMANDS:
        argv = template.format(out=out_dir, audit=audit_path).split()
        ops.append({"id": name, "kind": "cli",
                    "args": {"argv": argv, "output": os.path.join(out_dir, output),
                             "audit": audit}})
    return ops


def make_ops(workload: str, seed: int, out_dir: str) -> list[dict]:
    if workload == "vendor":
        return vendor_ops(seed)
    if workload == "participation":
        return participation_ops(seed)
    if workload == "monte-carlo":
        return monte_carlo_ops(seed)
    if workload == "cli-readme":
        return cli_readme_ops(seed, out_dir)
    raise ValueError(f"unknown workload {workload!r}")

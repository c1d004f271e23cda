"""Episode simulation and exact evaluation of investment schedules."""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .multistep import Audit, backward_induction
from .types import GridSpec, Schedule, VendorParams


def evaluate_schedule(schedule: Schedule, audit: Audit, params: VendorParams) -> float:
    """Exact expected discounted utility of following the schedule.

    Sums survival-weighted terms alpha^t * (pass_prob*R - incremental cost)
    until the tail bound S_t * alpha^t * R/(1-alpha) drops below 1e-12.
    The cost paid at step t and the reward for passing the test revealed at
    t+1 share the same discount alpha^t.
    """
    c, R, a = params.c, params.R, params.alpha
    total = 0.0
    survive = 1.0  # probability no test has been passed before step t
    x_prev = 0.0
    disc = 1.0
    t = 0
    while survive * disc * R / (1.0 - a) >= 1e-12:
        x_t = schedule.level_at(t)
        p = float(audit.test_at(t)(x_t))
        total += survive * disc * (p * R - c * (x_t - x_prev))
        survive *= 1.0 - p
        x_prev = x_t
        disc *= a
        t += 1
    return total


@dataclass(frozen=True)
class SimResult:
    mean_utility: float
    std_error: float
    episodes: int
    pass_time_histogram: dict
    truncated_fraction: float

    def to_json(self) -> dict:
        return {
            "mean": self.mean_utility,
            "std_error": self.std_error,
            "episodes": self.episodes,
            "truncated_fraction": self.truncated_fraction,
            "pass_time_histogram": {str(k): v for k, v in sorted(self.pass_time_histogram.items())},
        }


# Episodes per random substream: chunk k draws from the substream keyed by
# (seed, k), so a result depends only on the seed and the episode count.
CHUNK = 8192


def simulate(
    schedule: Schedule,
    audit: Audit,
    params: VendorParams,
    episodes: int,
    seed: int,
    horizon_eps: float | None = None,
) -> SimResult:
    """Seeded Monte Carlo of the repeated-audit episode process.

    Episodes run in chunks of CHUNK. Chunk k draws from its own substream,
    keyed by (seed, k) through SeedSequence spawn keys, so for a fixed seed
    the result is bit-identical whatever order the chunks run in, and the
    first chunks do not depend on how many follow.

    The schedule is open-loop, so each step's discount, pass probability and
    utility so far are computed once, when an episode first reaches that
    step, and shared by every episode. For the same reason the episodes of a
    chunk still running at step t are interchangeable, so the number that
    pass is one Binomial(alive, p_t) draw. The cost of step t is charged
    before that step's test. Episodes are truncated once the remaining
    discounted revenue alpha^t * R/(1-alpha) falls below horizon_eps
    (default 1e-9 * R); a truncated episode has paid the costs of every
    step it played.

    Episodes that pass at the same step earn the same utility, as do the
    truncated ones, so each chunk's mean and sum of squared deviations
    follow from its counts. The chunks are merged in order (Chan, Golub and
    LeVeque), so a chunk costs time and memory in the steps played, not in
    the episodes.
    """
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    if not isinstance(seed, Integral) or seed < 0:
        raise ValueError("seed must be a non-negative integer")
    if horizon_eps is None:
        horizon_eps = 1e-9 * params.R
    if horizon_eps <= 0:
        raise ValueError("horizon_eps must be positive")

    c, R, a = params.c, params.R, params.alpha
    # per step, filled in only as deep as some episode plays: discount
    # alpha^t, pass probability, and the utility so far once step t's cost
    # is paid
    discs: list[float] = []
    probs: list[float] = []
    paid: list[float] = []
    histogram: dict[int, int] = {}
    truncated = 0
    n_all, mean_all, m2_all = 0, 0.0, 0.0
    for k, first in enumerate(range(0, episodes, CHUNK)):
        n = min(CHUNK, episodes - first)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(k,)))
        counts: list[int] = []  # episodes of this chunk per distinct utility
        values: list[float] = []
        alive = n  # episodes of this chunk that have not passed yet
        t = 0
        while alive:
            if t == len(probs):
                disc = discs[-1] * a if discs else 1.0
                if disc * R / (1.0 - a) < horizon_eps:
                    break
                x_t = schedule.level_at(t)
                x_prev = schedule.level_at(t - 1) if t else 0.0
                discs.append(disc)
                paid.append((paid[-1] if paid else 0.0) - disc * c * (x_t - x_prev))
                probs.append(float(audit.test_at(t)(x_t)))
            n_passed = int(rng.binomial(alive, probs[t]))
            if n_passed:
                histogram[t + 1] = histogram.get(t + 1, 0) + n_passed
                counts.append(n_passed)
                values.append(paid[t] + discs[t] * R)
                alive -= n_passed
            t += 1
        # the rest reached the horizon, having paid through step t - 1
        if alive:
            truncated += alive
            counts.append(alive)
            values.append(paid[t - 1] if t else 0.0)

        # merge this chunk's count, mean and M2 into the running totals (an
        # overflow stays non-finite, for the caller to refuse)
        with np.errstate(over="ignore", invalid="ignore"):
            ks, vs = np.array(counts, dtype=float), np.array(values)
            mean = float(ks @ vs / n)
            m2 = float(ks @ (vs - mean) ** 2)
        n_new = n_all + n
        delta = mean - mean_all
        mean_all += delta * (n / n_new)
        m2_all += m2 + delta * delta * (n_all * n / n_new)
        n_all = n_new

    std_error = math.sqrt(m2_all / (episodes - 1) / episodes) if episodes > 1 else 0.0
    return SimResult(
        mean_utility=mean_all,
        std_error=std_error,
        episodes=episodes,
        pass_time_histogram=histogram,
        truncated_fraction=truncated / episodes,
    )


def never_quit_audit_trail(
    audit: Audit,
    params: VendorParams,
    schedule: Schedule,
    grid: GridSpec | None = None,
) -> tuple:
    """Continuation value c*x + U*_t(x) entering each scheduled step.

    Every entry is the analytic reward-to-go of continuing rather than
    quitting; non-negativity shows quitting is never strictly optimal.
    """
    if grid is None:
        x_cap = max([params.rosi] + list(schedule.levels)) + 1.0
        grid = GridSpec(x_max=x_cap, step=1e-3)
    nvf = backward_induction(audit, params, grid)
    steps = nvf.step_values

    values = []
    x_prev = 0.0
    for t in range(len(schedule.levels) + 1):
        u_star = steps[min(t, len(steps) - 1)]
        cont = params.c * x_prev + float(np.interp(x_prev, nvf.xs, u_star))
        values.append(cont)
        x_prev = schedule.level_at(t)
    return tuple(values)

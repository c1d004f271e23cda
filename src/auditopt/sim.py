"""Episode simulation and exact evaluation of investment schedules."""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .multistep import Audit, _backups
from .types import GridSpec, Schedule, VendorParams


def evaluate_schedule(schedule: Schedule, audit: Audit, params: VendorParams) -> float:
    """Exact expected discounted utility of following the schedule.

    Sums survival-weighted terms alpha^t * (pass_prob*R - incremental cost)
    until the tail bound S_t * alpha^t * R/(1-alpha) drops below 1e-12 * R,
    a stop in units of R, or at a stationary pass probability of exactly 0,
    after which no step passes or pays. The cost paid at step t and the
    reward for passing the test revealed at t+1 share the same discount alpha^t.
    """
    c, R, a = params.c, params.R, params.alpha
    stationary = max((len(audit.prefix), *schedule.switch_times))
    total = 0.0
    survive = 1.0  # probability no test has been passed before step t
    x_prev = 0.0
    disc = 1.0
    t = 0
    while survive * disc / (1.0 - a) >= 1e-12:
        x_t = schedule.level_at(t)
        p = float(audit.test_at(t)(x_t))
        total += survive * disc * (p * R - c * (x_t - x_prev))
        if p == 0.0 and t >= stationary:
            break
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


def simulate(
    schedule: Schedule,
    audit: Audit,
    params: VendorParams,
    episodes: int,
    seed: int,
) -> SimResult:
    """Seeded Monte Carlo of the repeated-audit episode process.

    One generator, default_rng(seed), serves every episode, so a fixed seed
    gives bit-identical results. The schedule is open-loop, so the episodes
    still running at step t are interchangeable: the number that pass is one
    Binomial(alive, p_t) draw. The cost of step t is charged before that
    step's test. Episodes are truncated once the remaining discounted revenue
    alpha^t * R/(1-alpha) falls below 1e-9 * R, or at a stationary pass
    probability of exactly 0, having paid the costs of every step they played.
    Episodes that pass at the same step earn the same utility, as do the
    truncated ones, so the mean and variance follow from those counts: time
    and memory grow with the steps played, not with the episodes.
    """
    if not isinstance(episodes, Integral) or not 1 <= episodes < 2**63:
        raise ValueError("episodes must be an integer in [1, 2**63)")
    if not isinstance(seed, Integral) or seed < 0:
        raise ValueError("seed must be a non-negative integer")

    c, R, a = params.c, params.R, params.alpha
    horizon_eps = 1e-9 * R
    stationary = max((len(audit.prefix), *schedule.switch_times))
    rng = np.random.default_rng(seed)
    histogram: dict[int, int] = {}
    counts: list[int] = []  # episodes per distinct utility
    values: list[float] = []
    alive = episodes  # episodes that have not passed yet
    paid = 0.0  # utility so far: the discounted costs of the steps played
    disc = 1.0
    x_prev = 0.0
    t = 0
    while alive and disc * R / (1.0 - a) >= horizon_eps:
        x_t = schedule.level_at(t)
        paid -= disc * c * (x_t - x_prev)
        p = float(audit.test_at(t)(x_t))
        n_passed = int(rng.binomial(alive, p))
        if n_passed:
            histogram[t + 1] = n_passed
            counts.append(n_passed)
            values.append(paid + disc * R)
            alive -= n_passed
        if p == 0.0 and t >= stationary:
            break
        x_prev = x_t
        disc *= a
        t += 1
    # the rest reached the horizon, having paid for every step played
    if alive:
        counts.append(alive)
        values.append(paid)

    # an overflow stays non-finite, for the caller to refuse
    with np.errstate(over="ignore", invalid="ignore"):
        ks, vs = np.array(counts, dtype=float), np.array(values)
        mean = float(ks @ vs / episodes)
        m2 = float(ks @ (vs - mean) ** 2)
    std_error = math.sqrt(m2 / (episodes - 1) / episodes) if episodes > 1 else 0.0
    return SimResult(
        mean_utility=mean,
        std_error=std_error,
        episodes=episodes,
        pass_time_histogram=histogram,
        truncated_fraction=alive / episodes,
    )


def never_quit_audit_trail(audit: Audit, params: VendorParams, schedule: Schedule) -> tuple:
    """Continuation value c*x + U*_t(x) entering each step t, x the effort held.

    Every entry is the analytic reward-to-go of continuing rather than
    quitting; non-negativity shows quitting is never strictly optimal. The
    steps run from t = 0 to max(prefix length, last switch time) + 1, past
    which both the schedule and the audit are stationary: one float per step,
    so memory grows with the last switch time. The values come from backward
    induction on the 1e-3 grid over [0, max(R/c, levels) + 1].
    """
    x_cap = max([params.rosi] + list(schedule.levels)) + 1.0
    xs = GridSpec(x_max=x_cap, step=1e-3).points()
    K = len(audit.prefix)
    last = max((K, *schedule.switch_times)) + 1
    held = np.searchsorted(schedule.switch_times, np.arange(last), "right")  # level of step t
    x_in = np.append(0.0, np.take(schedule.levels, held))  # effort entering step t

    trail = np.empty(last + 1)
    for n, (_, u_star) in zip(range(K, -1, -1), _backups(audit, params, xs)):
        # the tail's U* serves every step from the end of the prefix on
        steps = slice(n, last + 1 if n == K else n + 1)
        trail[steps] = params.c * x_in[steps] + np.interp(x_in[steps], xs, u_star)
    return tuple(trail.tolist())

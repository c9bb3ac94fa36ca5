"""Best-constant estimation by derivative-free ascent, plus the kernel
dilation sweep.

The inequality ratios are exact sup-type quantities, piecewise smooth with
kinks wherever the attaining ball switches, so the optimizer is a
multiplicative coordinate ascent: scale one coordinate of f up or down,
keep the move if the ratio improved, shrink the step when a full sweep
stalls.  Results are lower bounds on the best constants by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .functions import ExponentSet
from .space import MetricMeasureSpace
from .theorems import BALL_CHECKS, CHECK_IDS, UnknownCheckId, _t2_table, enumerate_balls, evaluate

STEP_INIT = 1.5  # first multiplicative step of each restart
STEP_DECAY = 0.9  # step - 1 shrinks by this factor after a stalled sweep
STOP_TOL = 1e-6  # a sweep stalls when its relative gain is at most this


@dataclass(frozen=True)
class OptimizerConfig:
    seed: int = 0
    restarts: int = 8
    max_iters: int = 2000

    def __post_init__(self):
        if self.restarts < 1 or self.max_iters < 1:
            raise ValueError("restarts and max_iters must be positive")


@dataclass(frozen=True)
class ExtremalResult:
    best_ratio: float
    argmax_f: np.ndarray
    iterations_used: int
    trace: list  # per restart: nondecreasing best-ratio sequence


def make_objective(space: MetricMeasureSpace, check_id: str, exps: ExponentSet, seed: int = 0):
    """Ratio-of-the-check as a scalar function of f >= 0.

    For the level-set checks the ball enumeration is frozen up front (seeded)
    and the level grid tracks the operator's range of the current f, so the
    objective is a pure function of f.
    """
    if check_id not in CHECK_IDS:
        raise UnknownCheckId(f"unknown check id {check_id!r}")
    balls = enumerate_balls(space, limit=64, seed=seed) if check_id in BALL_CHECKS else []

    def objective(f: np.ndarray) -> float:
        return float(evaluate(space, f, check_id, [exps], balls)[0].empirical_constant.max(initial=0.0))

    return objective


def _initial_function(space: MetricMeasureSpace, restart: int, seed: int) -> np.ndarray:
    n = space.n
    kind = restart % 3
    if kind == 0:
        return np.ones(n)
    if kind == 1:
        f = np.zeros(n)
        f[rng.randint_below(seed, n, restart, 1)] = 1.0
        return f
    f = np.zeros(n)
    for i in range(n):
        if rng.uniform01(seed, restart, 2, i) < 0.3:
            f[i] = rng.uniform01(seed, restart, 3, i)
    if not f.any():
        f[rng.randint_below(seed, n, restart, 4)] = 1.0
    return f


def estimate_constant(
    space: MetricMeasureSpace,
    check_id: str,
    exps: ExponentSet,
    cfg: OptimizerConfig = OptimizerConfig(),
) -> ExtremalResult:
    """Maximize the check's empirical constant over f >= 0.

    Restarts are independent seeded streams (uniform, single-spike and
    random-sparse initializations in rotation); ties between restarts break
    toward the earlier restart, so the result is a pure function of the
    arguments.
    """
    objective = make_objective(space, check_id, exps, seed=cfg.seed)
    n = space.n
    best_ratio = -math.inf
    best_f = np.ones(n)
    total_iters = 0
    trace: list[list[float]] = []
    for restart in range(cfg.restarts):
        f = _initial_function(space, restart, cfg.seed)
        if f.max() > 0.0:
            f = f / f.max()
        val = objective(f)
        step = STEP_INIT
        rtrace = [val]
        it = 0
        while it < cfg.max_iters:
            sweep_start = val
            for i in range(n):
                if it >= cfg.max_iters:
                    break
                it += 1
                for factor in (step, 1.0 / step):
                    g = f.copy()
                    if g[i] == 0.0:
                        if factor <= 1.0:
                            continue
                        g[i] = g.max() * (factor - 1.0)
                    else:
                        g[i] *= factor
                    v = objective(g)
                    if v > val:
                        val = v
                        f = g
                        break
            rtrace.append(val)
            gain = val - sweep_start
            if gain <= STOP_TOL * max(abs(sweep_start), 1e-300):
                step = 1.0 + (step - 1.0) * STEP_DECAY
                if step - 1.0 < 1e-4:
                    break
            if f.max() > 0.0:
                f = f / f.max()  # the objective is scale-invariant
        total_iters += it
        trace.append(rtrace)
        if val > best_ratio:
            best_ratio = val
            best_f = f
    # recompute at the reported argmax so best_ratio matches the checker
    best_ratio = objective(best_f)
    return ExtremalResult(
        best_ratio=float(best_ratio),
        argmax_f=best_f,
        iterations_used=total_iters,
        trace=trace,
    )


def kappa_sweep(instances, alpha: float, p: float, kappas) -> list[dict]:
    """Check T2's ratio per (instance, kappa) for the ``(space, f)`` pairs
    in ``instances``: the kernel dilation kappa varies, the maximal
    operator and the reference norm stay at dilation 2.

    Report-only; kappa < 2 is the regime the theory does not cover.
    """
    return [
        {"instance": idx, "n": space.n, "kappa": k, "ratio": _t2_table(space, f, p, alpha, k).lhs.item()}
        for idx, (space, f) in enumerate(instances)
        for k in map(float, kappas)
    ]

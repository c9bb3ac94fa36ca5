"""Executable checkers for the weak- and strong-type inequalities.

Each checker evaluates both sides of one inequality on a concrete
(space, function) instance and reports the empirical constant lhs/rhs.
Checkers that come with an explicit constant (the weak maximal bound with
constant 4 and the pointwise potential bound with the derived geometric
constant) also carry a pass flag; the existence-of-C statements only
report.  A checker takes f as an array or as a ``Values``, and checkers
given the same ``Values`` compute each operator value and norm of f once.

A check call computes one table: the check id, params and theory constant
its rows share, a float64 array over the rows in ``gamma`` (None without
levels), ``lhs``, ``rhs_without_constant`` and ``empirical_constant``, and
a bool array in ``passed`` (None without a theory constant).
``evaluate`` returns tables; a ``CheckReport`` per row, from the
``check_*`` functions, is their library view, with Python floats and bools.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .functions import ExponentOutOfRange, ExponentSet, as_function, level_masses, lq_norm, morrey_norm
from .operators import fractional_integral, hedberg_constant, maximal
from .rng import sample_indices
from .space import MetricMeasureSpace, row_blocks

CHECK_IDS = ("T1", "T2", "T3", "T6", "T7", "weakL1")
BALL_CHECKS = ("T1", "T3")  # the checks that quantify over enumerate_balls
GAMMA_LO, GAMMA_HI, GAMMA_COUNT = 1e-3, 1e3, 25  # default level grid, relative to the operator's maximum


class EmptyBall(ValueError):
    pass


class UnknownCheckId(ValueError):
    pass


@dataclass(frozen=True)
class CheckReport:
    check_id: str
    params: dict
    lhs: float
    rhs_without_constant: float
    empirical_constant: float
    theory_constant: float | None = None
    passed: bool | None = None


def _constants(lhs, rhs, theory_constant=None):
    """The empirical constants ``lhs / rhs`` and the pass flags, elementwise
    for scalars or arrays: the constant is 0 where lhs == 0 == rhs (a vacuous
    inequality) and inf where lhs > 0 == rhs; a row passes when lhs <=
    theory_constant * rhs or its constant is 0.  Flags are None without a
    theory constant."""
    lhs, rhs = np.asarray(lhs, dtype=float), np.asarray(rhs, dtype=float)
    positive = rhs > 0.0
    const = np.where(positive, lhs / np.where(positive, rhs, 1.0), np.where(lhs == 0.0, 0.0, math.inf))
    if theory_constant is None:
        return const, None
    return const, (lhs <= theory_constant * rhs) | (const == 0.0)


_Table = namedtuple(
    "_Table", "check_id params theory_constant gamma lhs rhs_without_constant empirical_constant passed"
)


def _table(check_id, params, lhs, rhs, theory_constant=None, gamma=None) -> _Table:
    """The rows with sides ``lhs`` and ``rhs``, scalars or arrays of one shape
    read in C order, and the constants and flags of ``_constants``."""
    lhs, rhs = np.asarray(lhs, dtype=float).ravel(), np.asarray(rhs, dtype=float).ravel()
    const, passed = _constants(lhs, rhs, theory_constant)
    return _Table(check_id, params, theory_constant, gamma, lhs, rhs, const, passed)


def _reports(t: _Table, balls=None) -> list[CheckReport]:
    """The library view of a table: a report per row, the row's ball (of ``balls``) and level in its params."""
    n = len(t.lhs)
    heads = [{}] * n if balls is None else [{"a": a, "r": r} for a, r in balls for _ in range(n // len(balls))]
    levels = [{}] * n if t.gamma is None else [{"gamma": g} for g in t.gamma.tolist()]
    numbers = (t.lhs.tolist(), t.rhs_without_constant.tolist(), t.empirical_constant.tolist())
    rows = zip(heads, levels, *numbers, [None] * n if t.passed is None else t.passed.tolist())
    return [CheckReport(t.check_id, {**h, **t.params, **g}, *row, t.theory_constant, ok) for h, g, *row, ok in rows]


def gamma_grid(base: float, lo: float = GAMMA_LO, hi: float = GAMMA_HI, count: int = GAMMA_COUNT) -> np.ndarray:
    """Logarithmic level grid spanning [lo, hi] times the reference value."""
    if base <= 0.0 or not math.isfinite(base):
        base = 1.0
    return np.geomspace(lo * base, hi * base, count)


def _radius_rows(space: MetricMeasureSpace, rows, diam: float):
    """The sorted candidate radii of the centers ``rows`` (d(a, y) * {0.5, 1,
    1.5}, or 1 on a zero-diameter space) and the mask of the positive ones
    that differ from their left neighbour."""
    sd = space.sorted_dist[rows]
    if diam == 0.0:
        radii = np.ones((len(sd), 1))
    else:
        radii = np.concatenate([sd * 0.5, sd, np.minimum(sd * 1.5, diam)], axis=1)  # only 1.5 d can pass the cap
        radii.sort(axis=1)
    keep = radii > 0.0
    keep[:, 1:] &= radii[:, 1:] != radii[:, :-1]
    return radii, keep


def enumerate_balls(space: MetricMeasureSpace, limit: int = 64, seed: int = 0) -> list[tuple[int, float]]:
    """Deterministic (center, radius) pairs covering the ball quantifier.

    All centers a with radii d(a, y) * {0.5, 1, 1.5}, positive and
    capped at the diameter, deduplicated, then a seeded uniform sample of
    at most ``limit`` pairs (``rng.sample_indices``: every pair if there
    are no more).  The kept pairs stay in enumeration order: by center,
    then by increasing radius.  Only they become Python ``(int, float)``
    tuples.  The radii are counted a ``row_blocks`` block of centers at a
    time, and only the sampled centers' rows are built: at most ``limit``
    radius rows, so no (n x 3n) table is held for a sample of fewer centers.
    """
    diam = space.diameter
    counts = np.concatenate([np.count_nonzero(_radius_rows(space, r, diam)[1], axis=1) for r in row_blocks(space.n)])
    # a sampled flat index is (center, rank among the center's radii)
    flat = np.array(sample_indices(int(counts.sum()), limit, seed), dtype=int)
    ends = np.cumsum(counts)
    centers = np.searchsorted(ends, flat, side="right")
    ranks = flat - (ends - counts)[centers]
    rows, row_of = np.unique(centers, return_inverse=True)
    radii, keep = _radius_rows(space, rows, diam)  # a row per sampled center
    firsts = np.cumsum(counts[rows]) - counts[rows]  # where each row's kept radii start among all kept
    cols = np.nonzero(keep)[1][firsts[row_of] + ranks]
    return list(zip(centers.tolist(), radii[row_of, cols].tolist()))


def _ball_sides(space, values, balls, gammas, p):
    """The sides of a (ball x level) table for the level sets of ``values``
    inside each ball B(a,r) of ``balls``: the column w of mu(B(a,6r))^(1-1/p),
    the measures of the level sets, and ``gammas`` as an array.

    The right side the check computes from w stays bit for bit that of the
    scalar formula: ``**`` runs in Python, once per ball here and once per
    level in the check, because ``np.power`` may round differently; across
    the table run only ``*`` and ``/``, which round correctly either way, in
    the formula's order."""
    gammas = np.asarray(gammas, dtype=float)
    centers = np.array([a for a, _ in balls], dtype=int)
    radii = np.array([r for _, r in balls], dtype=float)
    masks = space.dist[centers] < radii[:, None]
    empty = np.flatnonzero(~masks.any(axis=1))  # masses are positive
    if empty.size:
        a, r = balls[empty[0]]
        raise EmptyBall(f"ball({a}, {r}) has zero measure")
    inside6 = np.count_nonzero(space.dist[centers] < 6.0 * radii[:, None], axis=1)
    w = np.array([mu6 ** (1.0 - 1.0 / p) for mu6 in space.csum0[centers, inside6].tolist()])
    return w[:, None], level_masses(space, values, masks, gammas), gammas


class Values:
    """The operator values of one f on one space, each computed once:
    ``of(op, *args)`` is ``op(space, |f|, *args)``, memoized per ``(op, args)``.
    f is validated whenever a value is computed, not here, so an invalid f
    raises its ``ValueError`` in every check that uses it."""

    def __init__(self, space: MetricMeasureSpace, f):
        self.space, self._f, self._memo = space, f, {}

    def of(self, op, *args):
        key = (op, args)
        if key not in self._memo:
            self._memo[key] = op(self.space, np.abs(as_function(self.space, self._f)), *args)
        return self._memo[key]


def _values(space, f) -> Values:
    """``f`` itself if it is a ``Values`` on ``space``; a plain array gets a fresh one."""
    if not isinstance(f, Values):
        return Values(space, f)
    if f.space is not space:
        raise ValueError("the values of f were built on another space")
    return f


def _t1_table(space, f, balls, p, gammas) -> _Table:
    if not p > 1.0:
        raise ExponentOutOfRange(f"p must exceed 1, got {p}")
    v = _values(space, f)
    mf, norm = v.of(maximal, 2.0), v.of(morrey_norm, p, 1.0, 2.0)
    w, lhs, gammas = _ball_sides(space, mf, balls, gammas, p)
    return _table("T1", {"p": p}, lhs, w * norm / gammas, 4.0, np.tile(gammas, len(balls)))


def check_T1_weak_maximal(space, f, balls, p: float, gammas) -> list[CheckReport]:
    """Level sets of M_2 f inside each ball B(a,r) of ``balls`` against the
    6r-ball Morrey bound, explicit constant 4; f may be a ``Values``."""
    return _reports(_t1_table(space, f, balls, p, gammas), balls)


def _t2_table(space, f, p, alpha, kappa=2.0) -> _Table:
    ch = hedberg_constant(p, alpha)  # also validates (p, alpha)
    v = _values(space, f)
    pot = v.of(fractional_integral, alpha, kappa)
    denom = v.of(maximal, 2.0) ** (1.0 - p * alpha) * v.of(morrey_norm, p, 1.0, 2.0) ** (p * alpha)
    ratios = np.where(denom > 0.0, pot / np.where(denom > 0.0, denom, 1.0), 0.0)
    lhs = float(ratios.max()) if ratios.size else 0.0
    return _table("T2", {"p": p, "alpha": alpha}, lhs, 1.0, theory_constant=ch)


def check_T2_hedberg(space, f, p: float, alpha: float, kappa: float = 2.0) -> CheckReport:
    """Worst-point ratio of I_alpha f, with kernel dilation ``kappa``, to
    M_2 f^{1-p*alpha} norm^{p*alpha}; points where the denominator vanishes
    count as 0, and f may be a ``Values``.  The explicit constant is the one
    derived for kappa = 2."""
    return _reports(_t2_table(space, f, p, alpha, kappa))[0]


def _t3_table(space, f, balls, exps, gammas) -> _Table:
    v = _values(space, f)
    pot, norm = v.of(fractional_integral, exps.alpha, 2.0), v.of(morrey_norm, exps.p, 1.0, 2.0)
    sp = exps.s / exps.p  # = 1 / (1 - p*alpha)
    w, lhs, gammas = _ball_sides(space, pot, balls, gammas, exps.p)
    rhs = w * np.array([(norm / g) ** sp for g in gammas])
    return _table("T3", {"p": exps.p, "alpha": exps.alpha, "s": exps.s}, lhs, rhs, gamma=np.tile(gammas, len(balls)))


def check_T3_weak_frac(space, f, balls, exps: ExponentSet, gammas) -> list[CheckReport]:
    """Level sets of I_alpha f (kappa=2) inside each ball B(a,r) of
    ``balls``; constant left abstract, and f may be a ``Values``."""
    return _reports(_t3_table(space, f, balls, exps, gammas), balls)


def _t6_table(space, f, exps) -> _Table:
    v = _values(space, f)
    lhs = morrey_norm(space, v.of(fractional_integral, exps.alpha, 2.0), exps.s, exps.t, 6.0)
    params = {"p": exps.p, "q": exps.q, "alpha": exps.alpha, "s": exps.s, "t": exps.t}
    return _table("T6", params, lhs, v.of(morrey_norm, exps.p, exps.q, 2.0))


def check_T6_strong(space, f, exps: ExponentSet) -> CheckReport:
    """Morrey norm of the potential on the (s, t, 6) scale against the
    (p, q, 2) norm of f, which may be a ``Values``."""
    return _reports(_t6_table(space, f, exps))[0]


def _t7_table(space, f, p, q) -> _Table:
    if not 1.0 < q <= p:
        raise ExponentOutOfRange(f"need 1 < q <= p, got q={q}, p={p}")
    v = _values(space, f)
    lhs = morrey_norm(space, v.of(maximal, 2.0), p, q, 6.0)
    return _table("T7", {"p": p, "q": q}, lhs, v.of(morrey_norm, p, q, 2.0))


def check_T7_maximal_morrey(space, f, p: float, q: float) -> CheckReport:
    """Morrey boundedness of M_2 on the (p, q) scale; f may be a ``Values``."""
    return _reports(_t7_table(space, f, p, q))[0]


def _weak_l1_table(space, f, gammas) -> _Table:
    v, gammas = _values(space, f), np.asarray(gammas, dtype=float)
    mf, l1 = v.of(maximal, 2.0), v.of(lq_norm, 1.0)
    lhs = level_masses(space, mf, np.ones((1, space.n), dtype=bool), gammas)[0]
    return _table("weakL1", {}, lhs, l1 / gammas, gamma=gammas)


def check_weak_L1(space, f, gammas) -> list[CheckReport]:
    """Global level sets of M_2 f against the L1 norm; report-only (the
    constant lives in the cited literature), and f may be a ``Values``."""
    return _reports(_weak_l1_table(space, f, gammas))


def evaluate(
    space,
    f,
    check_id: str,
    exponents,
    balls,
    gamma_lo: float = GAMMA_LO,
    gamma_hi: float = GAMMA_HI,
    gamma_count: int = GAMMA_COUNT,
) -> list[_Table]:
    """The tables of one check on one function: one per exponent triple
    (weakL1: one), with a row per ball in ``balls`` and level for the ball
    checks (``BALL_CHECKS``).  Row i is report i of the public check.

    This is the one dispatch over ``CHECK_IDS``.  It runs the checks on one
    ``Values`` (``f`` itself if it is one), so each operator value and norm
    is computed once for all of them.  The level grids span [gamma_lo,
    gamma_hi] times the maximum of the operator whose level sets are measured.
    """
    v = _values(space, f)

    def levels(op, *args):
        return gamma_grid(float(v.of(op, *args).max()), gamma_lo, gamma_hi, gamma_count)

    per_triple = {
        "T1": lambda e: _t1_table(space, v, balls, e.p, levels(maximal, 2.0)),
        "T2": lambda e: _t2_table(space, v, e.p, e.alpha),
        "T3": lambda e: _t3_table(space, v, balls, e, levels(fractional_integral, e.alpha, 2.0)),
        "T6": lambda e: _t6_table(space, v, e),
        "T7": lambda e: _t7_table(space, v, e.p, e.q),
    }
    if check_id == "weakL1":
        return [_weak_l1_table(space, v, levels(maximal, 2.0))]
    if check_id not in per_triple:
        raise UnknownCheckId(f"unknown check id {check_id!r}")
    return [per_triple[check_id](e) for e in exponents]

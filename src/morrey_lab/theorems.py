"""Executable checkers for the weak- and strong-type inequalities.

Each checker evaluates both sides of one inequality on a concrete
(space, function) instance and reports the empirical constant lhs/rhs.
Checkers that come with an explicit constant (the weak maximal bound with
constant 4 and the pointwise potential bound with the derived geometric
constant) also carry a pass flag; the existence-of-C statements only
report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .functions import ExponentOutOfRange, ExponentSet, as_function, lq_norm, morrey_norm
from .operators import KernelConvention, fractional_integral, hedberg_constant, maximal
from .rng import shuffle_indices
from .space import MetricMeasureSpace

CHECK_IDS = ("T1", "T2", "T3", "T6", "T7", "weakL1")
BALL_CHECKS = ("T1", "T3")  # the checks that quantify over enumerate_balls


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


def _make_report(check_id, params, lhs, rhs, theory_constant=None) -> CheckReport:
    if rhs > 0.0:
        const = lhs / rhs
    elif lhs == 0.0:
        const = 0.0  # vacuous inequality
    else:
        const = math.inf
    passed = None
    if theory_constant is not None:
        passed = lhs <= theory_constant * rhs or const == 0.0
    return CheckReport(
        check_id=check_id,
        params=dict(params),
        lhs=float(lhs),
        rhs_without_constant=float(rhs),
        empirical_constant=float(const),
        theory_constant=theory_constant,
        passed=passed,
    )


def gamma_grid(base: float, lo: float = 1e-3, hi: float = 1e3, count: int = 25) -> np.ndarray:
    """Logarithmic level grid spanning [lo, hi] times the reference value."""
    if base <= 0.0 or not math.isfinite(base):
        base = 1.0
    return np.geomspace(lo * base, hi * base, count)


def enumerate_balls(space: MetricMeasureSpace, limit: int = 64, seed: int = 0) -> list[tuple[int, float]]:
    """Deterministic (center, radius) pairs covering the ball quantifier.

    All centers with radii breakpoints(a) * {0.5, 1, 1.5}, positive and
    capped at the diameter, deduplicated, then seeded-subsampled to at most
    ``limit`` pairs.
    """
    diam = space.diameter
    cap = diam if diam > 0.0 else 1.0
    pairs = []
    seen = set()
    for a in range(space.n):
        bps = np.unique(space.dist[a])
        radii = np.unique(np.concatenate([bps * 0.5, bps, bps * 1.5]))
        if diam == 0.0:
            radii = np.array([1.0])
        for r in radii:
            r = float(min(r, cap))
            if r <= 0.0:
                continue
            key = (a, r)
            if key not in seen:
                seen.add(key)
                pairs.append(key)
    if len(pairs) > limit:
        keep = shuffle_indices(len(pairs), seed)[:limit]
        pairs = [pairs[i] for i in sorted(keep)]
    return pairs


def _open_ball_mask(space: MetricMeasureSpace, a: int, r: float) -> np.ndarray:
    return space.dist[a] < r


def _level_masses(space, values, mask, gammas) -> np.ndarray:
    """mu{x in mask : values(x) > gamma} for each gamma, via sorted cumsums."""
    v = values[mask]
    m = space.mass[mask]
    order = np.argsort(v, kind="stable")
    v = v[order]
    tail = np.concatenate([np.cumsum(m[order][::-1])[::-1], [0.0]])
    idx = np.searchsorted(v, gammas, side="right")
    return tail[idx]


def check_T1_weak_maximal(space, f, a: int, r: float, p: float, gammas, *, mf=None, norm=None) -> list[CheckReport]:
    """Level sets of M_2 f inside B(a,r) against the 6r-ball Morrey bound,
    explicit constant 4.

    ``mf`` and ``norm`` accept precomputed M_2|f| and the (p,1,2) Morrey
    norm of f, so sweeps over many balls pay for them once.
    """
    if not p > 1.0:
        raise ExponentOutOfRange(f"p must exceed 1, got {p}")
    f = np.abs(as_function(space, f))
    mask = _open_ball_mask(space, a, r)
    if float(space.mass[mask].sum()) <= 0.0:
        raise EmptyBall(f"ball({a}, {r}) has zero measure")
    if mf is None:
        mf = maximal(space, f, 2.0)
    if norm is None:
        norm = morrey_norm(space, f, p, 1.0, 2.0)
    mu6 = float(space.open_measure(a, 6.0 * r))
    gammas = np.asarray(gammas, dtype=float)
    lhs = _level_masses(space, mf, mask, gammas)
    out = []
    for g, l in zip(gammas, lhs):
        rhs = mu6 ** (1.0 - 1.0 / p) * norm / g
        out.append(
            _make_report(
                "T1",
                {"a": a, "r": r, "p": p, "gamma": float(g)},
                l,
                rhs,
                theory_constant=4.0,
            )
        )
    return out


def check_T2_hedberg(space, f, p: float, alpha: float) -> CheckReport:
    """Worst-point ratio of the potential to maximal^{1-p*alpha} norm^{p*alpha};
    explicit derived constant."""
    ch = hedberg_constant(p, alpha)  # also validates (p, alpha)
    f = np.abs(as_function(space, f))
    pot = fractional_integral(space, f, alpha, KernelConvention(kappa=2.0))
    mf = maximal(space, f, 2.0)
    norm = morrey_norm(space, f, p, 1.0, 2.0)
    denom = mf ** (1.0 - p * alpha) * norm ** (p * alpha)
    ratios = np.where(denom > 0.0, pot / np.where(denom > 0.0, denom, 1.0), 0.0)
    lhs = float(ratios.max()) if ratios.size else 0.0
    return _make_report("T2", {"p": p, "alpha": alpha}, lhs, 1.0, theory_constant=ch)


def check_T3_weak_frac(space, f, a: int, r: float, exps: ExponentSet, gammas, *, pot=None, norm=None) -> list[CheckReport]:
    """Level sets of I_alpha f inside B(a,r); constant left abstract.

    ``pot`` and ``norm`` accept precomputed I_alpha|f| (kappa=2, closed
    kernel balls) and the (p,1,2) Morrey norm of f.
    """
    f = np.abs(as_function(space, f))
    mask = _open_ball_mask(space, a, r)
    if float(space.mass[mask].sum()) <= 0.0:
        raise EmptyBall(f"ball({a}, {r}) has zero measure")
    if pot is None:
        pot = fractional_integral(space, f, exps.alpha, KernelConvention(kappa=2.0))
    if norm is None:
        norm = morrey_norm(space, f, exps.p, 1.0, 2.0)
    mu6 = float(space.open_measure(a, 6.0 * r))
    sp = exps.s / exps.p  # = 1 / (1 - p*alpha)
    gammas = np.asarray(gammas, dtype=float)
    lhs = _level_masses(space, pot, mask, gammas)
    out = []
    for g, l in zip(gammas, lhs):
        rhs = mu6 ** (1.0 - 1.0 / exps.p) * (norm / g) ** sp
        out.append(
            _make_report(
                "T3",
                {"a": a, "r": r, "p": exps.p, "alpha": exps.alpha, "s": exps.s, "gamma": float(g)},
                l,
                rhs,
            )
        )
    return out


def check_T6_strong(space, f, exps: ExponentSet) -> CheckReport:
    """Morrey norm of the potential on the (s, t, 6) scale against the
    (p, q, 2) norm of f."""
    f = np.abs(as_function(space, f))
    pot = fractional_integral(space, f, exps.alpha, KernelConvention(kappa=2.0))
    lhs = morrey_norm(space, pot, exps.s, exps.t, 6.0)
    rhs = morrey_norm(space, f, exps.p, exps.q, 2.0)
    return _make_report(
        "T6",
        {"p": exps.p, "q": exps.q, "alpha": exps.alpha, "s": exps.s, "t": exps.t},
        lhs,
        rhs,
    )


def check_T7_maximal_morrey(space, f, p: float, q: float) -> CheckReport:
    """Morrey boundedness of the maximal operator on the (p, q) scale."""
    if not 1.0 < q <= p:
        raise ExponentOutOfRange(f"need 1 < q <= p, got q={q}, p={p}")
    f = np.abs(as_function(space, f))
    mf = maximal(space, f, 2.0)
    lhs = morrey_norm(space, mf, p, q, 6.0)
    rhs = morrey_norm(space, f, p, q, 2.0)
    return _make_report("T7", {"p": p, "q": q}, lhs, rhs)


def check_weak_L1(space, f, gammas) -> list[CheckReport]:
    """Global level sets of M_2 f against the L1 norm; report-only (the
    constant lives in the cited literature)."""
    f = np.abs(as_function(space, f))
    mf = maximal(space, f, 2.0)
    l1 = lq_norm(space, f, 1.0)
    gammas = np.asarray(gammas, dtype=float)
    lhs = _level_masses(space, mf, np.ones(space.n, dtype=bool), gammas)
    out = []
    for g, l in zip(gammas, lhs):
        out.append(_make_report("weakL1", {"gamma": float(g)}, l, l1 / g))
    return out


def evaluate(
    space,
    f,
    check_id: str,
    exponents,
    balls,
    gamma_lo: float = 1e-3,
    gamma_hi: float = 1e3,
    gamma_count: int = 25,
) -> list[CheckReport]:
    """Every report of one check on one function: per exponent triple, and
    for the ball checks (``BALL_CHECKS``) per ball in ``balls``.

    This is the one dispatch over ``CHECK_IDS``.  For T1 and T3 the values
    shared by all balls (M_2|f|, I_alpha|f| at kappa=2, the (p,1,2) Morrey
    norm and the level grid) are computed once per function and exponent
    triple and handed to the per-ball checkers.  The level grids span
    [gamma_lo, gamma_hi] times the maximum of the operator whose level sets
    are measured.
    """
    f = np.abs(as_function(space, f))

    def levels(values):
        return gamma_grid(float(values.max()), gamma_lo, gamma_hi, gamma_count)

    out = []
    if check_id == "T1":
        mf = maximal(space, f, 2.0)
        gam = levels(mf)
        for exps in exponents:
            norm = morrey_norm(space, f, exps.p, 1.0, 2.0)
            for a, r in balls:
                out += check_T1_weak_maximal(space, f, a, r, exps.p, gam, mf=mf, norm=norm)
    elif check_id == "T3":
        for exps in exponents:
            pot = fractional_integral(space, f, exps.alpha, KernelConvention(kappa=2.0))
            gam = levels(pot)
            norm = morrey_norm(space, f, exps.p, 1.0, 2.0)
            for a, r in balls:
                out += check_T3_weak_frac(space, f, a, r, exps, gam, pot=pot, norm=norm)
    elif check_id == "T2":
        out = [check_T2_hedberg(space, f, exps.p, exps.alpha) for exps in exponents]
    elif check_id == "T6":
        out = [check_T6_strong(space, f, exps) for exps in exponents]
    elif check_id == "T7":
        out = [check_T7_maximal_morrey(space, f, exps.p, exps.q) for exps in exponents]
    elif check_id == "weakL1":
        out = check_weak_L1(space, f, levels(maximal(space, f, 2.0)))
    else:
        raise UnknownCheckId(f"unknown check id {check_id!r}")
    return out

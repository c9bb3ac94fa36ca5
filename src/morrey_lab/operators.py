"""The centered modified maximal operator, the fractional integral with the
dilated closed-ball kernel mu(B(x, kappa d(x,y)))^{alpha-1}, and the dyadic
layer machinery behind the pointwise (Hedberg-type) domination of the
potential by maximal-function powers.
"""

from __future__ import annotations

import math

import numpy as np

from .functions import ExponentOutOfRange, as_function
from .space import MetricMeasureSpace


def maximal(space: MetricMeasureSpace, f, k: float = 2.0) -> np.ndarray:
    """M_k f(x) = sup_{r>0} mu(B(x,kr))^{-1} int_{B(x,r)} |f| dmu.

    Exact breakpoint enumeration: the numerator is constant between the
    breakpoint radii of x and the normalizer is nondecreasing, so each interval
    sup is the closed-ball value at the left breakpoint.
    """
    if k < 1.0:
        raise ExponentOutOfRange(f"need k >= 1, got {k}")
    f = as_function(space, f)
    return (space.cumulative(np.abs(f) * space.mass) / space.dilated_measure(k)).max(axis=1, initial=0.0)


def fractional_integral(space: MetricMeasureSpace, f, alpha: float, kappa: float = 2.0) -> np.ndarray:
    """I_alpha f(x) = sum_y f(y) mass_y mu(B(x, kappa*d(x,y)))^{alpha-1}.

    The kernel ball is the eps->0 right limit, the closed ball, so the
    diagonal term y=x contributes through the atom's own mass.
    """
    if not 0.0 < alpha < 1.0:
        raise ExponentOutOfRange(f"alpha must lie in (0, 1), got {alpha}")
    if not kappa > 0.0:
        raise ExponentOutOfRange(f"kappa must be positive, got {kappa}")
    f = as_function(space, f)
    km = np.empty((space.n, space.n))
    np.put_along_axis(km, space.order, space.dilated_measure(kappa), axis=1)  # back to natural order
    return np.sum(f * space.mass * km ** (alpha - 1.0), axis=1)


def default_k_range(space: MetricMeasureSpace) -> tuple[int, int]:
    """Dyadic index range outside of which the layer radii are constant."""
    lo = math.floor(math.log2(float(space.mass.min()))) - 1
    hi = math.ceil(math.log2(space.total_mass)) + 1
    return lo, hi


def _layer_table(space: MetricMeasureSpace, lo: int, hi: int) -> np.ndarray:
    """R[x, k - lo] = R_k(x), the smallest R with mu(B(x, 2R)) > 2^k (closed
    ball), for lo <= k <= hi.

    On a finite space R_k(x) = t/2 where t is the first breakpoint whose
    closed ball exceeds mass 2^k; the padded inf column stands for "no ball
    exceeds 2^k".
    """
    cs = space.csum0[:, 1:]  # closed-ball mass at each sorted position
    first_above = np.stack([np.count_nonzero(cs <= 2.0**k, axis=1) for k in range(lo, hi + 1)], axis=1)
    sd = np.concatenate([space.sorted_dist, np.full((space.n, 1), math.inf)], axis=1)
    return np.take_along_axis(sd, first_above, axis=1) / 2.0


def hedberg_constant(p: float, alpha: float) -> float:
    """Explicit constant for the pointwise potential bound.

    Splitting the dyadic-layer sum at 2^{k0} ~ (norm / maximal)^p leaves two
    geometric series; their closed forms give
    2^{1-alpha} * (1/(1-2^{-alpha}) + 1/(1-2^{alpha-1/p})).
    """
    if not p > 1.0:
        raise ExponentOutOfRange(f"p must exceed 1, got {p}")
    if not 0.0 < alpha < 1.0 / p:
        raise ExponentOutOfRange(f"alpha must lie in (0, 1/p), got alpha={alpha}, p={p}")
    return 2.0 ** (1.0 - alpha) * (
        1.0 / (1.0 - 2.0 ** (-alpha)) + 1.0 / (1.0 - 2.0 ** (alpha - 1.0 / p))
    )


def hedberg_layer_sum(space: MetricMeasureSpace, f, alpha: float) -> np.ndarray:
    """Per point x: sum over active layers k (R_{k-1}(x) < R_k(x)) of
    2^{(k-1)(alpha-1)} * int_{B(x, R_k(x))} |f| dmu  (open balls).

    Layers with R_{k-1} = R_k (both zero or both infinite) contribute
    nothing; the single layer reaching R_k = infinity integrates over all
    of X.  This sum dominates I_alpha f pointwise (kappa=2, closed-ball
    kernel) and is in turn dominated by the explicit-constant bound.
    """
    if not 0.0 < alpha < 1.0:
        raise ExponentOutOfRange(f"alpha must lie in (0, 1), got {alpha}")
    f = as_function(space, f)
    absfm = np.abs(f) * space.mass
    lo, hi = default_k_range(space)
    radii = _layer_table(space, lo, hi)
    integrals = np.concatenate([np.zeros((space.n, 1)), space.cumulative(absfm)], axis=1)
    rows = np.arange(space.n)
    total = float(absfm.sum())
    out = np.zeros(space.n)
    prev = np.zeros(space.n)  # R_{lo-1} = 0 by the range choice
    for k in range(lo, hi + 1):
        rk = radii[:, k - lo]
        inside = np.count_nonzero(space.sorted_dist < rk[:, None], axis=1)  # the open ball B(x, R_k)
        integral = np.where(np.isinf(rk), total, integrals[rows, inside])
        out += np.where(prev < rk, 2.0 ** ((k - 1) * (alpha - 1.0)) * integral, 0.0)
        prev = rk
    return out

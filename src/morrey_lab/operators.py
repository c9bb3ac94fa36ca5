"""The centered modified maximal operator, the fractional integral with the
dilated closed-ball kernel mu(B(x, kappa d(x,y)))^{alpha-1}, and the explicit
constant of check T2's pointwise (Hedberg-type) bound.  The tests check that
bound through its proof's middle term, a dyadic layer sum of their own.
"""

from __future__ import annotations

import numpy as np

from .functions import ExponentOutOfRange, as_function
from .space import MetricMeasureSpace, row_blocks


def maximal(space: MetricMeasureSpace, f, k: float = 2.0) -> np.ndarray:
    """M_k f(x) = sup_{r>0} mu(B(x,kr))^{-1} int_{B(x,r)} |f| dmu.

    Exact breakpoint enumeration: the numerator is constant between the
    breakpoint radii of x and the normalizer is nondecreasing, so each interval
    sup is the closed-ball value at the left breakpoint.
    """
    if k < 1.0:
        raise ExponentOutOfRange(f"need k >= 1, got {k}")
    f = as_function(space, f)
    w, table, out = np.abs(f) * space.mass, space.dilated_measure(k), np.empty(space.n)
    for rows in row_blocks(space.n):
        ratio = space.cumulative(w, rows)
        ratio /= table[rows]
        ratio.max(axis=1, initial=0.0, out=out[rows])
    return out


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
    fm, table, out = f * space.mass, space.dilated_measure(kappa), np.empty(space.n)
    for rows in row_blocks(space.n):
        km = np.empty_like(table[rows])
        np.put_along_axis(km, space.order[rows], table[rows], axis=1)  # back to natural order
        km **= alpha - 1.0
        km *= fm
        np.sum(km, axis=1, out=out[rows])
    return out


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


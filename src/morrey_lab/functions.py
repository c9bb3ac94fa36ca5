"""Functions on a space and the norm/level-set functionals.

Norms follow the ball-dilated Morrey scale: the normalizing measure uses the
k-dilated ball while the integral runs over the undilated one.  All suprema
over radii are evaluated exactly on the breakpoint set via right limits
(closed balls), never by sampling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .space import MetricMeasureSpace, row_blocks


class ExponentOutOfRange(ValueError):
    pass


@dataclass(frozen=True)
class ExponentSet:
    """The coupled exponent tuple (p, q, alpha, s, t).

    s and t are derived: 1/s = 1/p - alpha and t = s*q/p, so the pair
    (p, q) -> (s, t) keeps q/p = t/s.
    """

    p: float
    q: float
    alpha: float
    s: float
    t: float

    @classmethod
    def from_pqa(cls, p: float, q: float, alpha: float) -> "ExponentSet":
        if not p > 1.0:
            raise ExponentOutOfRange(f"p must exceed 1, got {p}")
        if not 1.0 < q <= p:
            raise ExponentOutOfRange(f"q must lie in (1, p], got q={q}, p={p}")
        if not 0.0 < alpha < 1.0 / p:
            raise ExponentOutOfRange(f"alpha must lie in (0, 1/p), got alpha={alpha}, p={p}")
        s = p / (1.0 - p * alpha)
        t = q / (1.0 - p * alpha)  # equals s*q/p, and exactly s when q == p
        return cls(p=p, q=q, alpha=alpha, s=s, t=t)


def as_function(space: MetricMeasureSpace, values) -> np.ndarray:
    """Validate a value vector against the space: right length, all finite."""
    f = np.asarray(values, dtype=float)
    if f.shape != (space.n,):
        raise ValueError(f"function has shape {f.shape}, expected ({space.n},)")
    if not np.all(np.isfinite(f)):
        raise ValueError("function values must be finite")
    return f


def lq_norm(space: MetricMeasureSpace, f, q: float) -> float:
    """(sum_i |f(x_i)|^q mass_i)^{1/q}."""
    if q < 1.0:
        raise ExponentOutOfRange(f"q must be >= 1, got {q}")
    f = as_function(space, f)
    return float(np.sum(np.abs(f) ** q * space.mass) ** (1.0 / q))


def morrey_norm(space: MetricMeasureSpace, f, p: float, q: float = 1.0, k: float = 1.0) -> float:
    """sup over x, r>0 of mu(B(x,kr))^{1/p-1/q} (int_{B(x,r)} |f|^q dmu)^{1/q}.

    Exact: the integral is constant between breakpoint radii and the
    normalizer carries a nonpositive exponent, so the sup per interval sits at
    the left endpoint's right limit, i.e. closed balls at breakpoint radii.
    """
    if not 1.0 <= q <= p:
        raise ExponentOutOfRange(f"need 1 <= q <= p, got q={q}, p={p}")
    if k < 1.0:
        raise ExponentOutOfRange(f"need k >= 1, got {k}")
    f = as_function(space, f)
    e = 1.0 / p - 1.0 / q  # <= 0
    w, table, best = np.abs(f) ** q * space.mass, space.dilated_measure(k), 0.0
    for rows in row_blocks(space.n):
        vals = space.cumulative(w, rows)
        vals **= 1.0 / q
        vals *= table[rows] ** e
        best = vals.max(initial=best)  # the running maximum, through numpy: a NaN propagates
    return float(best)


def level_masses(space: MetricMeasureSpace, values: np.ndarray, masks: np.ndarray, gammas: np.ndarray) -> np.ndarray:
    """mu{x in mask : values(x) > gamma} for each row of ``masks`` (axis 0) and
    gamma (axis 1), via reverse cumsums over the values sorted once.  A point
    outside a mask adds 0.0, which leaves every partial sum as it is."""
    order = np.argsort(values, kind="stable")
    weights = masks[:, order] * space.mass[order]
    tail = np.concatenate([np.cumsum(weights[:, ::-1], axis=1)[:, ::-1], np.zeros((len(masks), 1))], axis=1)
    return tail[:, np.searchsorted(values[order], gammas, side="right")]

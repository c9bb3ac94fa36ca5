"""Shared fixtures and dense-grid brute-force oracles.

The oracles deliberately avoid the breakpoint-enumeration shortcut: they
sample a dense radius grid (closed-ball evaluation, which realizes the
right limits the enumeration claims to compute) and take the max.  They
are the independent side of every oracle-equivalence test.
"""

from __future__ import annotations

import numpy as np

from morrey_lab.generators import SpaceSpec, generate_space
from morrey_lab.space import MetricMeasureSpace, validate_space


def two_point_space(d=1.0, masses=(1.0, 1.0)) -> MetricMeasureSpace:
    return validate_space([[0.0, d], [d, 0.0]], list(masses))


def single_point_space(mass=1.0) -> MetricMeasureSpace:
    return validate_space([[0.0]], [mass])


def line_space(coords, masses=None) -> MetricMeasureSpace:
    coords = np.asarray(coords, dtype=float)
    dist = np.abs(coords[:, None] - coords[None, :])
    masses = np.ones(len(coords)) if masses is None else np.asarray(masses, dtype=float)
    return validate_space(dist, masses)


def random_space(seed: int, n: int | None = None) -> MetricMeasureSpace:
    """Small random planar space with uneven masses; metric by construction."""
    g = np.random.default_rng(seed)
    if n is None:
        n = int(g.integers(2, 13))
    pts = g.uniform(-1.0, 1.0, size=(n, 2))
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    dist = np.triu(dist, 1)
    dist = dist + dist.T
    mass = g.uniform(0.1, 2.0, size=n)
    return validate_space(dist, mass)


def table_spaces():
    return [
        *(random_space(seed) for seed in range(6)),
        random_space(7, n=40),
        generate_space(SpaceSpec("grid", n=16, dim=1, halfwidth=0.5)),
        generate_space(SpaceSpec("ultrametric-tree", depth=3)),  # tied distances
        generate_space(SpaceSpec("grid", n=1)),
    ]


def reference_spaces():
    """The spaces on which vectorized code must equal the loops it replaced:
    ``table_spaces()``, the Gaussian grid (151 dyadic layers), one point and
    two points."""
    return [
        *table_spaces(),
        generate_space(SpaceSpec("gaussian-grid", n=256, dim=1, halfwidth=10.0)),
        single_point_space(mass=0.3),
        two_point_space(masses=(1.0, 3.0)),
    ]


def radius_grid(space: MetricMeasureSpace, x: int, count: int = 10_000) -> np.ndarray:
    """Dense radii covering [0, diam] plus every breakpoint and its right
    limit rho*(1+1e-9), and half-breakpoints for doubling ratios."""
    bp = np.unique(space.dist[x])
    diam = max(space.diameter, 1.0)
    grid = np.concatenate(
        [
            np.linspace(0.0, diam * 1.05, count),
            bp,
            bp * (1.0 + 1e-9),
            bp / 2.0,
            (bp / 2.0) * (1.0 + 1e-9),
        ]
    )
    return np.unique(grid)


def closed_integral(space: MetricMeasureSpace, x: int, radii, weights) -> np.ndarray:
    """int_{closed ball(x, r)} weights for each r."""
    cum0 = np.concatenate([[0.0], np.cumsum(np.asarray(weights, dtype=float)[space.order[x]])])
    idx = np.searchsorted(space.sorted_dist[x], radii, side="right")
    return cum0[idx]


def brute_morrey(space, f, p, q, k, count=10_000):
    f = np.asarray(f, dtype=float)
    w = np.abs(f) ** q * space.mass
    e = 1.0 / p - 1.0 / q
    best = 0.0
    for x in range(space.n):
        radii = radius_grid(space, x, count)
        integ = closed_integral(space, x, radii, w)
        norm_mass = space.closed_measure(x, k * radii)
        vals = norm_mass**e * integ ** (1.0 / q)
        best = max(best, float(vals.max()))
    return best


def brute_maximal(space, f, k, count=10_000):
    f = np.asarray(f, dtype=float)
    w = np.abs(f) * space.mass
    out = np.empty(space.n)
    for x in range(space.n):
        radii = radius_grid(space, x, count)
        integ = closed_integral(space, x, radii, w)
        denom = space.closed_measure(x, k * radii)
        out[x] = float((integ / denom).max())
    return out


def brute_doubling(space, count=10_000):
    best = 1.0
    for x in range(space.n):
        radii = radius_grid(space, x, count)
        num = space.closed_measure(x, 2.0 * radii)
        den = space.closed_measure(x, radii)
        best = max(best, float((num / den).max()))
    return best

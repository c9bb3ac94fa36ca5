"""Shared fixtures and dense-grid brute-force oracles.

The oracles deliberately avoid the breakpoint-enumeration shortcut: they
sample a dense radius grid (closed-ball evaluation, which realizes the
right limits the enumeration claims to compute) and take the max.  They
are the independent side of every oracle-equivalence test.

``hedberg_layer_sum`` is the middle term of T2's proof, which the library
does not compute: the tests check I_alpha f <= layer sum <= the T2 bound.
"""

from __future__ import annotations

import math

import numpy as np

from morrey_lab.functions import morrey_norm
from morrey_lab.generators import SpaceSpec, generate_space
from morrey_lab.operators import fractional_integral, maximal
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


def default_k_range(space: MetricMeasureSpace) -> tuple[int, int]:
    """Dyadic index range outside of which the layer radii are constant."""
    lo = math.floor(math.log2(float(space.mass.min()))) - 1
    hi = math.ceil(math.log2(space.total_mass)) + 1
    return lo, hi


def layer_radii(space: MetricMeasureSpace, x: int, k_range=None) -> np.ndarray:
    """R_k(x) for lo <= k <= hi, ``default_k_range`` unless (lo, hi) is given:
    the smallest R with mu(closed ball(x, 2R)) > 2^k.  On a finite space it
    is t/2 for the first distance t from x whose closed ball exceeds mass
    2^k, and inf where no ball does."""
    lo, hi = default_k_range(space) if k_range is None else k_range
    first_above = np.searchsorted(space.csum0[x][1:], 2.0 ** np.arange(lo, hi + 1), side="right")
    return np.append(space.sorted_dist[x], math.inf)[first_above] / 2.0


def hedberg_layer_sum(space: MetricMeasureSpace, f, alpha: float) -> np.ndarray:
    """The middle term of T2's proof, per point x: the sum over the layers k
    with R_{k-1}(x) < R_k(x) (``layer_radii``) of
    2^{(k-1)(alpha-1)} * int_{B(x, R_k(x))} |f| dmu, open balls, the layer
    reaching R_k = inf integrating over all of X.  It dominates I_alpha f
    (kappa = 2) and is dominated by ``hedberg_constant`` times
    (M_2 f)^{1-p*alpha} ||f||^{p*alpha}.  The terms are added in k order
    (``np.cumsum``), as a loop over k adds them."""
    absfm = np.abs(np.asarray(f, dtype=float)) * space.mass
    lo, hi = default_k_range(space)
    weights = np.array([2.0 ** ((k - 1) * (alpha - 1.0)) for k in range(lo, hi + 1)])
    total = float(absfm.sum())
    out = np.empty(space.n)
    for x in range(space.n):
        sd = space.sorted_dist[x]
        radii = layer_radii(space, x, (lo, hi))
        cf = np.concatenate([[0.0], np.cumsum(absfm[space.order[x]])])
        integrals = np.where(np.isinf(radii), total, cf[np.searchsorted(sd, radii, side="left")])
        active = np.concatenate([[0.0], radii[:-1]]) < radii  # R_{lo-1} = 0 by the range choice
        out[x] = np.cumsum(np.where(active, weights * integrals, 0.0))[-1]
    return out


def brute_doubling(space, count=10_000):
    best = 1.0
    for x in range(space.n):
        radii = radius_grid(space, x, count)
        num = space.closed_measure(x, 2.0 * radii)
        den = space.closed_measure(x, radii)
        best = max(best, float((num / den).max()))
    return best


# Each operator as one expression with fresh n x n temporaries, the
# reference for the library's forms, which work one block of rows at a time
# and reuse its temporaries in place.
# The values must be equal bit for bit: an elementwise ufunc writing into its
# own input gives the same doubles, and a product is the same in either order.


def expression_cumulative(space, weights):
    return np.cumsum(np.asarray(weights, dtype=float)[space.order], axis=1)


def expression_maximal(space, f, k):
    return (expression_cumulative(space, np.abs(f) * space.mass) / space.dilated_measure(k)).max(axis=1, initial=0.0)


def expression_fractional_integral(space, f, alpha, kappa):
    km = np.empty((space.n, space.n))
    np.put_along_axis(km, space.order, space.dilated_measure(kappa), axis=1)
    return np.sum(f * space.mass * km ** (alpha - 1.0), axis=1)


def expression_morrey_norm(space, f, p, q, k):
    e = 1.0 / p - 1.0 / q
    vals = space.dilated_measure(k) ** e * expression_cumulative(space, np.abs(f) ** q * space.mass) ** (1.0 / q)
    return float(vals.max(initial=0.0))


def assert_operators_equal_expression_forms(space, f):
    """``cumulative``, ``maximal``, ``fractional_integral`` and
    ``morrey_norm`` of f equal their one-expression forms bit for bit at
    the corpus's dilations and exponents, and every cached
    ``dilated_measure`` table stays read-only and unchanged."""
    f = np.asarray(f, dtype=float)
    dilations = (1.0, 1.5, 2.0, 6.0)
    for k in dilations:
        space.dilated_measure(k)
    before = {k: table.copy() for k, table in space._dilated.items()}
    w = np.abs(f) * space.mass
    assert np.array_equal(space.cumulative(w), expression_cumulative(space, w))
    for k in dilations:
        assert np.array_equal(maximal(space, f, k), expression_maximal(space, f, k)), k
        for p, q in ((2.0, 1.0), (4.0, 1.0), (2.0, 1.5), (4.0, 2.0), (2.0, 2.0)):
            assert morrey_norm(space, f, p, q, k) == expression_morrey_norm(space, f, p, q, k), (k, p, q)
        for alpha in (0.125, 0.25, 0.5):
            got = fractional_integral(space, f, alpha, kappa=k)
            assert np.array_equal(got, expression_fractional_integral(space, f, alpha, k)), (k, alpha)
    assert space._dilated.keys() == before.keys()
    for k, table in space._dilated.items():
        assert not table.flags.writeable and np.array_equal(table, before[k]), k

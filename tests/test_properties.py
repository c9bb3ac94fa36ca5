"""Property tests over random finite metric spaces.

They add to the fixed-seed oracles in ``conftest.py``: hypothesis draws the
points, the metric and uneven masses.  Runs are derandomized and small, so
the suite stays deterministic and fast.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from morrey_lab import theorems
from morrey_lab.functions import lq_norm, morrey_norm
from morrey_lab.operators import fractional_integral, hedberg_constant, maximal
from morrey_lab.space import doubling_ratio, validate_space
from morrey_lab.theorems import Values, check_T1_weak_maximal, enumerate_balls, gamma_grid

from conftest import assert_operators_equal_expression_forms, hedberg_layer_sum

SETTINGS = settings(derandomize=True, deadline=None, max_examples=40, database=None)


@st.composite
def spaces(draw):
    """Up to 24 points on a small integer grid (tied and zero distances are
    likely) under the l1, l-infinity or Euclidean metric, with masses
    spread over six decades."""
    n = draw(st.integers(1, 24))
    pts = np.array(draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=n, max_size=n)), float)
    diff = np.abs(pts[:, None, :] - pts[None, :, :])
    metric = draw(st.sampled_from(["l1", "linf", "l2"]))
    dist = {"l1": diff.sum(axis=2), "linf": diff.max(axis=2), "l2": np.sqrt((diff * diff).sum(axis=2))}[metric]
    mass = 10.0 ** np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)))
    return validate_space(dist, mass)


@st.composite
def space_and_function(draw):
    sp = draw(spaces())
    f = np.array(draw(st.lists(st.floats(0.0, 100.0), min_size=sp.n, max_size=sp.n)))
    return sp, f


@SETTINGS
@given(spaces(), st.data())
def test_doubling_ratio_bounds_every_ball_pair(sp, data):
    ratio, _ = doubling_ratio(sp)
    x = data.draw(st.integers(0, sp.n - 1))
    radii = [*sp.dist[x].tolist(), *(sp.dist[x] / 2.0).tolist(), data.draw(st.floats(0.0, 20.0))]
    for r in radii:
        assert sp.closed_measure(x, 2.0 * r) / sp.closed_measure(x, r) <= ratio
        if r > 0.0:
            assert sp.open_measure(x, 2.0 * r) / sp.open_measure(x, r) <= ratio


@SETTINGS
@given(space_and_function(), st.sampled_from([(2.0, 0.25), (4.0, 0.125), (1.5, 0.5), (1.2, 0.8)]))
def test_layer_sum_between_potential_and_hedberg_bound(sp_f, pa):
    sp, f = sp_f
    p, alpha = pa
    pot = fractional_integral(sp, f, alpha)
    lsum = hedberg_layer_sum(sp, f, alpha)
    assert np.all(pot <= lsum * (1 + 1e-12))
    mf = maximal(sp, f, 2.0)
    norm = morrey_norm(sp, f, p, 1.0, 2.0)
    upper = hedberg_constant(p, alpha) * mf ** (1.0 - p * alpha) * norm ** (p * alpha)
    assert np.all(lsum <= upper * (1 + 1e-12))


@SETTINGS
@given(space_and_function())
def test_operators_equal_expression_forms(sp_f):
    assert_operators_equal_expression_forms(*sp_f)


@SETTINGS
@given(space_and_function(), st.sampled_from([1.5, 2.0, 4.0]))
def test_t1_passes_with_constant_four(sp_f, p):
    sp, f = sp_f
    gammas = gamma_grid(float(maximal(sp, f, 2.0).max()))
    reports = check_T1_weak_maximal(sp, f, enumerate_balls(sp), p, gammas)
    assert reports and all(rep.passed for rep in reports)


@st.composite
def space_and_sparse_function(draw):
    """A space of ``spaces()`` and an f that is zero at most points and
    nonzero at one point at least."""
    sp = draw(spaces())
    support = draw(st.lists(st.integers(0, sp.n - 1), min_size=1, max_size=max(1, sp.n // 3), unique=True))
    f = np.zeros(sp.n)
    f[support] = draw(st.lists(st.floats(1e-3, 1e3), min_size=len(support), max_size=len(support)))
    return sp, f


@SETTINGS
@given(space_and_sparse_function(), st.sampled_from([1.5, 2.0, 4.0]))
def test_exact_t1_and_weak_l1_suprema_at_most_one(sp_f, p):
    """The sharp constants of ``tests/test_theorems.py::TestSharpConstant``,
    whose docstring holds the covering proof, on random spaces: over every
    right-limit ball ``nextafter(d, inf)`` and every level ``nextafter(v,
    0)`` of M_2 f, the exact T1 supremum is at most 1 within 3 ulps, with
    mu(B(a, 6r)) as checked and with mu(B(a, 4r)), and gamma mu({M_2 f >
    gamma}) is at most ||f||_1 within the same slack."""
    sp, f = sp_f
    ulps = 3 * np.spacing(1.0)
    v = Values(sp, f)
    radii = [(a, d) for a in range(sp.n) for d in np.unique(sp.dist[a]).tolist()]
    balls = [(a, float(np.nextafter(d, math.inf))) for a, d in radii]
    levels = np.nextafter(np.unique(v.of(maximal, 2.0)), 0.0)
    t1 = theorems._t1_table(sp, v, balls, p, levels)
    assert t1.empirical_constant.max() <= 1.0 + ulps
    # The 4r form: the right limit of mu(B(a, 4r)) at r = d is the closed
    # 4d ball, dilated_measure(4) at d's place in the sorted row.
    mu4 = [sp.dilated_measure(4.0)[a, np.searchsorted(sp.sorted_dist[a], d)] for a, d in radii]
    w4 = np.array([m ** (1.0 - 1.0 / p) for m in mu4])
    rhs4 = w4[:, None] * v.of(morrey_norm, p, 1.0, 2.0) / levels
    const4, _ = theorems._constants(t1.lhs.reshape(len(balls), len(levels)), rhs4)
    assert const4.max() <= 1.0 + ulps
    weak_l1 = theorems._weak_l1_table(sp, v, levels)
    assert (levels * weak_l1.lhs).max() <= lq_norm(sp, f, 1.0) * (1.0 + ulps)

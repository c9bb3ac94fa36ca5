"""Property tests over random finite metric spaces.

They add to the fixed-seed oracles in ``conftest.py``: hypothesis draws the
points, the metric and uneven masses.  Runs are derandomized and small, so
the suite stays deterministic and fast.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morrey_lab import theorems
from morrey_lab.functions import ExponentSet, lq_norm, morrey_norm
from morrey_lab.generators import SpaceSpec, generate_space
from morrey_lab.operators import fractional_integral, hedberg_constant, maximal
from morrey_lab.space import doubling_ratio, find_violations, validate_space
from morrey_lab.theorems import (
    Values,
    check_T1_weak_maximal,
    check_T2_hedberg,
    check_T6_strong,
    check_T7_maximal_morrey,
    check_weak_L1,
    enumerate_balls,
    gamma_grid,
)

from conftest import assert_operators_equal_expression_forms, hedberg_layer_sum, proof_chain_ratio

SETTINGS = settings(derandomize=True, deadline=None, max_examples=40, database=None)
RTOL = 1e-9  # acceptance 1's oracle tolerance
EXPS = ExponentSet.from_pqa(2.0, 1.5, 0.25)


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
    rep = check_T1_weak_maximal(sp, f, enumerate_balls(sp), p, gammas)
    assert len(rep.passed) > 0 and rep.passed.all()


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
@given(space_and_sparse_function(), st.sampled_from([(2.0, 1.5, 0.25), (4.0, 2.0, 0.125), (3.0, 1.2, 0.3), (2.0, 2.0, 0.4)]))
def test_proof_chain_binds_t6(sp_f, pqa):
    """T6(f) <= H * T7(f)**(1 - p*alpha), H = T2's constant of f: ``proof_chain_ratio`` asserts it."""
    proof_chain_ratio(*sp_f, ExponentSet.from_pqa(*pqa))


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
    t1 = check_T1_weak_maximal(sp, v, balls, p, levels)
    assert t1.empirical_constant.max() <= 1.0 + ulps
    # The 4r form: the right limit of mu(B(a, 4r)) at r = d is the closed
    # 4d ball, dilated_measure(4) at d's place in the sorted row.
    mu4 = [sp.dilated_measure(4.0)[a, np.searchsorted(sp.sorted_dist(a), d)] for a, d in radii]
    w4 = np.array([m ** (1.0 - 1.0 / p) for m in mu4])
    rhs4 = w4[:, None] * v.of(morrey_norm, p, 1.0, 2.0) / levels
    const4, _ = theorems._constants(t1.lhs.reshape(len(balls), len(levels)), rhs4)
    assert const4.max() <= 1.0 + ulps
    weak_l1 = check_weak_L1(sp, v, levels)
    assert (levels * weak_l1.lhs).max() <= lq_norm(sp, f, 1.0) * (1.0 + ulps)


def invariants(sp, f):
    """The values a metamorphic relation must keep: the (2, 1, 2) and
    (2, 1.5, 2) Morrey norms of f and the T2, T6 and T7 constants."""
    return [
        morrey_norm(sp, f, EXPS.p, 1.0, 2.0),
        morrey_norm(sp, f, EXPS.p, EXPS.q, 2.0),
        check_T2_hedberg(sp, f, EXPS.p, EXPS.alpha).empirical_constant.item(),
        check_T6_strong(sp, f, EXPS).empirical_constant.item(),
        check_T7_maximal_morrey(sp, f, EXPS.p, EXPS.q).empirical_constant.item(),
    ]


def exact_t1_supremum(sp, f, p):
    """The exact T1 supremum of ``TestSharpConstant``: every right-limit ball
    ``nextafter(d, inf)`` and every level ``nextafter(v, 0)`` below a
    positive value v of M_2 f; 0 when f vanishes."""
    v = Values(sp, f)
    balls = [(a, float(np.nextafter(d, math.inf))) for a in range(sp.n) for d in np.unique(sp.dist[a]).tolist()]
    values = np.unique(v.of(maximal, 2.0))
    levels = np.nextafter(values[values > 0.0], 0.0)
    return float(check_T1_weak_maximal(sp, v, balls, p, levels).empirical_constant.max(initial=0.0))


@SETTINGS
@given(space_and_function(), st.data())
def test_relabeling_permutes_values(sp_f, data):
    """Renumbering the points (and f with them) permutes M_2 f and I_alpha f
    and leaves the Morrey norms and the T2, T6 and T7 constants unchanged."""
    sp, f = sp_f
    perm = np.array(data.draw(st.permutations(range(sp.n))), dtype=int)
    relabeled = validate_space(sp.dist[np.ix_(perm, perm)], sp.mass[perm])
    np.testing.assert_allclose(maximal(relabeled, f[perm], 2.0), maximal(sp, f, 2.0)[perm], rtol=RTOL)
    for kappa in (1.0, 2.0):
        got = fractional_integral(relabeled, f[perm], EXPS.alpha, kappa)
        np.testing.assert_allclose(got, fractional_integral(sp, f, EXPS.alpha, kappa)[perm], rtol=RTOL)
    np.testing.assert_allclose(invariants(relabeled, f[perm]), invariants(sp, f), rtol=RTOL)


@SETTINGS
@given(space_and_function(), st.data(), st.floats(0.01, 0.99))
def test_atom_splitting_keeps_values(sp_f, data, lam):
    """Replacing the atom at a point x of mass m by two coincident atoms of
    masses lam m and (1 - lam) m, with f copied to both, changes no ball's
    measure or integral: M_2 f and I_alpha f keep their values (the new atom
    takes x's), and the Morrey norms, the T2, T6 and T7 constants and the
    exact T1 supremum stay the same.  An operator that reads an atom's own
    mass where the measure of its zero-distance class belongs fails this."""
    sp, f = sp_f
    x = data.draw(st.integers(0, sp.n - 1))
    idx = np.append(np.arange(sp.n), x)  # the new atom n is a copy of x, at distance 0 from it
    mass = sp.mass[idx]
    mass[x], mass[-1] = lam * sp.mass[x], (1.0 - lam) * sp.mass[x]
    split, g = validate_space(sp.dist[np.ix_(idx, idx)], mass), f[idx]
    np.testing.assert_allclose(maximal(split, g, 2.0), maximal(sp, f, 2.0)[idx], rtol=RTOL)
    for kappa in (1.0, 2.0):
        got = fractional_integral(split, g, EXPS.alpha, kappa)
        np.testing.assert_allclose(got, fractional_integral(sp, f, EXPS.alpha, kappa)[idx], rtol=RTOL)
    np.testing.assert_allclose(invariants(split, g), invariants(sp, f), rtol=RTOL)
    assert exact_t1_supremum(split, g, EXPS.p) == pytest.approx(exact_t1_supremum(sp, f, EXPS.p), rel=RTOL)


random_points = st.builds(
    SpaceSpec,
    family=st.just("random-points"),
    n=st.integers(1, 48),
    dim=st.integers(1, 3),
    halfwidth=st.floats(-150.0, 150.0).map(lambda e: 10.0**e),
    seed=st.integers(0, 2**64 - 1),
)


@SETTINGS
@given(random_points)
def test_generated_random_points_are_metrics(spec):
    """generate_space builds random points without the triangle screen; the
    screen finds nothing on them, at any scale from 1e-150 to 1e150."""
    sp = generate_space(spec)
    assert find_violations(sp.dist, sp.mass) == []


import numpy as np
import pytest

from morrey_lab.functions import (
    ExponentOutOfRange,
    ExponentSet,
    level_masses,
    lq_norm,
    morrey_norm,
)
from morrey_lab.space import MetricMeasureSpace

from conftest import brute_morrey, random_space, single_point_space, two_point_space


class TestExponentSet:
    def test_coupling(self):
        e = ExponentSet.from_pqa(2.0, 1.5, 0.25)
        assert 1.0 / e.s == pytest.approx(1.0 / e.p - e.alpha, abs=1e-15)
        assert e.t == pytest.approx(e.s * e.q / e.p, rel=1e-15)
        assert e.s > e.p and 1.0 < e.t <= e.s

    @pytest.mark.parametrize(
        "p,q,alpha", [(1.0, 1.0, 0.1), (2.0, 0.5, 0.1), (2.0, 3.0, 0.1), (2.0, 1.5, 0.5), (2.0, 1.5, 0.0)]
    )
    def test_rejects_bad_triples(self, p, q, alpha):
        with pytest.raises(ExponentOutOfRange):
            ExponentSet.from_pqa(p, q, alpha)


class TestLqNorm:
    def test_constant_function(self):
        sp = two_point_space(masses=(1.0, 2.0))
        for q in (1.0, 2.0, 3.5):
            assert lq_norm(sp, [5.0, 5.0], q) == pytest.approx(5.0 * 3.0 ** (1.0 / q), rel=1e-14)

    def test_zero(self):
        sp = random_space(3)
        assert lq_norm(sp, np.zeros(sp.n), 2.0) == 0.0

    def test_hand_sum(self):
        sp = two_point_space(masses=(1.0, 2.0))
        assert lq_norm(sp, [3.0, 0.0], 2.0) == pytest.approx(3.0, rel=1e-15)

    def test_rejects_q_below_one(self):
        sp = two_point_space()
        with pytest.raises(ExponentOutOfRange):
            lq_norm(sp, [1.0, 1.0], 0.5)


class TestMorreyNorm:
    def test_single_point(self):
        sp = single_point_space(mass=0.6)
        for p in (1.5, 2.0, 4.0):
            assert morrey_norm(sp, [2.0], p, 1.0, 2.0) == pytest.approx(2.0 * 0.6 ** (1.0 / p), rel=1e-14)

    def test_two_point_enumeration(self):
        sp = two_point_space()
        for p in (1.5, 2.0, 7.0):
            assert morrey_norm(sp, [1.0, 0.0], p, 1.0, 2.0) == pytest.approx(1.0, rel=1e-15)

    def test_homogeneity(self):
        sp = random_space(7)
        f = np.random.default_rng(7).uniform(0, 1, sp.n)
        base = morrey_norm(sp, f, 2.0, 1.5, 2.0)
        for lam in (0.0, 0.25, 3.0):
            assert morrey_norm(sp, lam * f, 2.0, 1.5, 2.0) == pytest.approx(lam * base, rel=1e-12)

    def test_matches_dense_grid_brute_force(self):
        for seed in range(12):
            sp = random_space(seed)
            f = np.random.default_rng(seed + 100).uniform(0, 2, sp.n)
            for p, q, k in [(2.0, 1.0, 2.0), (3.0, 1.5, 6.0), (2.5, 2.5, 1.0)]:
                exact = morrey_norm(sp, f, p, q, k)
                brute = brute_morrey(sp, f, p, q, k)
                assert brute <= exact * (1 + 1e-9)
                assert exact == pytest.approx(brute, rel=1e-9)

    def test_mass_scaling(self):
        sp = random_space(11)
        scaled = MetricMeasureSpace(sp.dist, 3.0 * sp.mass)
        f = np.random.default_rng(11).uniform(0, 1, sp.n)
        for p, q in [(2.0, 1.0), (3.0, 2.0)]:
            a = morrey_norm(sp, f, p, q, 2.0)
            b = morrey_norm(scaled, f, p, q, 2.0)
            assert b == pytest.approx(3.0 ** (1.0 / p) * a, rel=1e-10)

    def test_metric_scaling_invariance(self):
        sp = random_space(13)
        scaled = MetricMeasureSpace(0.5 * sp.dist, sp.mass)
        f = np.random.default_rng(13).uniform(0, 1, sp.n)
        assert morrey_norm(scaled, f, 2.0, 1.5, 2.0) == pytest.approx(
            morrey_norm(sp, f, 2.0, 1.5, 2.0), rel=1e-13
        )
        assert lq_norm(scaled, f, 2.0) == lq_norm(sp, f, 2.0)
        whole = np.ones(sp.n, dtype=bool)
        assert level_mass(scaled, f, whole, 0.5) == level_mass(sp, f, whole, 0.5)

    def test_pointwise_monotonicity(self):
        sp = random_space(17)
        g = np.random.default_rng(17).uniform(0, 1, sp.n)
        f = g * np.random.default_rng(18).uniform(0, 1, sp.n)
        assert morrey_norm(sp, f, 2.0, 1.5, 2.0) <= morrey_norm(sp, g, 2.0, 1.5, 2.0)
        assert lq_norm(sp, f, 2.0) <= lq_norm(sp, g, 2.0)

    def test_nesting_p_equals_q(self):
        # with k=1, q=p the normalizer drops out: sup of local L^p norms
        sp = random_space(19)
        f = np.random.default_rng(19).uniform(0, 1, sp.n)
        p = 2.5
        best = 0.0
        for x in range(sp.n):
            for rho in np.unique(sp.dist[x]):
                best = max(best, lq_norm(sp, np.where(sp.dist[x] <= rho, f, 0.0), p))
        assert morrey_norm(sp, f, p, p, 1.0) == pytest.approx(best, rel=1e-12)


def level_mass(space, g, mask, gamma):
    """mu{x in mask : g(x) > gamma} through ``level_masses`` with one mask and one level."""
    return float(level_masses(space, np.asarray(g, dtype=float), np.asarray(mask)[None], np.array([gamma]))[0, 0])


class TestLevelSet:
    def test_zero_function(self):
        sp = random_space(2)
        assert level_mass(sp, np.zeros(sp.n), np.ones(sp.n, dtype=bool), 0.5) == 0.0

    def test_whole_region(self):
        sp = two_point_space(masses=(1.0, 2.0))
        assert level_mass(sp, [2.0, 2.0], [True, True], 1.0) == 3.0

    def test_strict_inequality_count(self):
        sp = two_point_space(masses=(1.0, 2.0))
        assert level_mass(sp, [5.0, 1.0], [True, True], 3.0) == 1.0
        # boundary value is excluded
        assert level_mass(sp, [3.0, 1.0], [True, True], 3.0) == 0.0

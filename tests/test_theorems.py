import json
import math
import os

import numpy as np
import pytest

from morrey_lab import theorems
from morrey_lab.cli import parse_config
from morrey_lab.functions import ExponentSet, level_masses, lq_norm, morrey_norm
from morrey_lab.generators import SPACE_FAMILIES, SpaceSpec, generate_function, generate_space
from morrey_lab.operators import fractional_integral, maximal
from morrey_lab.rng import sample_indices
from morrey_lab.space import MetricMeasureSpace
from morrey_lab.theorems import (
    CHECK_IDS,
    CheckReport,
    EmptyBall,
    UnknownCheckId,
    Values,
    check_T1_weak_maximal,
    check_T2_hedberg,
    check_T3_weak_frac,
    check_T6_strong,
    check_T7_maximal_morrey,
    check_weak_L1,
    enumerate_balls,
    evaluate,
    gamma_grid,
)

from conftest import random_space, reference_spaces, single_point_space, two_point_space

EXPS = ExponentSet.from_pqa(2.0, 1.5, 0.25)


def small_corpus():
    out = []
    for seed in range(6):
        sp = random_space(seed)
        f = np.random.default_rng(seed + 800).uniform(0, 2, sp.n)
        out.append((sp, f))
    return out


class TestEnumeration:
    def test_gamma_grid_spans_decades(self):
        g = gamma_grid(2.0)
        assert len(g) == 25
        assert g[0] == pytest.approx(2e-3) and g[-1] == pytest.approx(2e3)

    def test_gamma_grid_zero_base(self):
        g = gamma_grid(0.0)
        assert g[0] == pytest.approx(1e-3) and g[-1] == pytest.approx(1e3)

    def test_ball_cap_and_determinism(self):
        sp = random_space(5, n=12)
        balls = enumerate_balls(sp, limit=64, seed=9)
        assert len(balls) <= 64
        assert balls == enumerate_balls(sp, limit=64, seed=9)
        assert all(r > 0 for _, r in balls)
        diam = sp.diameter
        assert all(r <= diam for _, r in balls)


    def test_matches_per_pair_loop(self):
        """The per-center vectorized radii equal the per-pair loop with a
        seen-set, which is kept here as the reference."""
        def reference(space, limit, seed):
            diam = space.diameter
            cap = diam if diam > 0.0 else 1.0
            pairs, seen = [], set()
            for a in range(space.n):
                bps = np.unique(space.dist[a])
                radii = np.unique(np.concatenate([bps * 0.5, bps, bps * 1.5]))
                if diam == 0.0:
                    radii = np.array([1.0])
                for r in radii:
                    key = (a, float(min(r, cap)))
                    if key[1] > 0.0 and key not in seen:
                        seen.add(key)
                        pairs.append(key)
            if len(pairs) > limit:
                pairs = [pairs[i] for i in sample_indices(len(pairs), limit, seed)]
            return pairs

        spaces = [
            random_space(5, n=12),
            generate_space(SpaceSpec("grid", n=16, dim=1, halfwidth=0.5)),
            generate_space(SpaceSpec("ultrametric-tree", depth=3)),
            generate_space(SpaceSpec("grid", n=1)),
        ]
        for sp in spaces:
            for limit in (64, 10**9):
                assert enumerate_balls(sp, limit, seed=2) == reference(sp, limit, seed=2)

    def test_matches_per_center_loop(self):
        """The table of every center's candidate radii, sorted and
        deduplicated by row, gives the list of the per-center ``np.unique``
        loop, which is kept here as the reference, bit for bit."""

        def reference(space, limit, seed):
            diam = space.diameter
            cap = diam if diam > 0.0 else 1.0
            centers, radii = [], []
            for a in range(space.n):
                if diam == 0.0:
                    r = np.array([1.0])
                else:
                    bps = np.unique(space.dist[a])
                    r = np.unique(np.minimum(np.concatenate([bps * 0.5, bps, bps * 1.5]), cap))
                r = r[r > 0.0]
                centers.append(np.full(r.size, a))
                radii.append(r)
            centers, radii = np.concatenate(centers), np.concatenate(radii)
            if centers.size > limit:
                keep = sample_indices(centers.size, limit, seed)
                centers, radii = centers[keep], radii[keep]
            return list(zip(centers.tolist(), radii.tolist()))

        spaces = [
            *(generate_space(SpaceSpec(family, n=n, dim=2, beta=1.5)) for family in SPACE_FAMILIES[:3] for n in (1, 3, 5)),
            *(generate_space(SpaceSpec("ultrametric-tree", depth=depth)) for depth in (0, 2, 4)),
            *(generate_space(SpaceSpec("random-points", n=n, dim=2, seed=s)) for n in (1, 7, 40, 256) for s in (0, 7)),
            generate_space(SpaceSpec("grid", n=16, dim=1, halfwidth=0.5)),
            MetricMeasureSpace(np.zeros((3, 3)), np.ones(3)),  # zero diameter
            random_space(5, n=12),
        ]
        for sp in spaces:
            for limit in (1, 8, 64, 10**9):
                for seed in (0, 7, 20260823):
                    assert enumerate_balls(sp, limit, seed) == reference(sp, limit, seed)

    def test_pairs_are_python_scalars(self):
        """A numpy scalar would break json.dump or change the params bytes."""
        for sp in reference_spaces():
            for limit in (8, 10**9):
                balls = enumerate_balls(sp, limit, seed=0)
                assert balls
                assert all(type(a) is int and type(r) is float for a, r in balls)


class TestT1:
    def test_single_point_passes(self):
        sp = single_point_space(mass=0.8)
        c, gamma, p = 2.0, 0.5, 2.0
        (rep,) = check_T1_weak_maximal(sp, [c], [(0, 1.0)], p, [gamma])
        assert rep.lhs == pytest.approx(0.8)
        assert rep.rhs_without_constant == pytest.approx(0.8 * c / gamma, rel=1e-12)
        assert rep.passed

    def test_zero_function(self):
        sp = random_space(1)
        reps = check_T1_weak_maximal(sp, np.zeros(sp.n), [(0, 0.5)], 2.0, [0.1, 1.0])
        assert all(r.lhs == 0.0 and r.passed for r in reps)

    def test_empty_ball_rejected(self):
        sp = two_point_space()
        with pytest.raises(EmptyBall):
            check_T1_weak_maximal(sp, [1.0, 0.0], [(0, 0.0)], 2.0, [1.0])

    def test_corpus_passes_with_constant_four(self):
        from morrey_lab.operators import maximal

        for sp, f in small_corpus():
            mf = maximal(sp, f, 2.0)
            gammas = gamma_grid(float(mf.max()))
            for a, r in enumerate_balls(sp, limit=24, seed=0):
                for rep in check_T1_weak_maximal(sp, f, [(a, r)], 2.0, gammas):
                    assert rep.passed, rep


class TestBallSets:
    """A checker given a ball set reports every ball, in order, as if called
    once per ball."""

    @pytest.mark.parametrize("check_id", ["T1", "T3"])
    def test_concatenation_of_single_ball_calls(self, check_id):
        for sp, f in small_corpus():
            balls = enumerate_balls(sp, limit=12, seed=4)
            if check_id == "T1":
                whole = check_T1_weak_maximal(sp, f, balls, 2.0, [0.05, 0.4, 1.5])
                single = [rep for ball in balls for rep in check_T1_weak_maximal(sp, f, [ball], 2.0, [0.05, 0.4, 1.5])]
            else:
                whole = check_T3_weak_frac(sp, f, balls, EXPS, [0.05, 0.4, 1.5])
                single = [rep for ball in balls for rep in check_T3_weak_frac(sp, f, [ball], EXPS, [0.05, 0.4, 1.5])]
            assert len(whole) == 3 * len(balls)
            assert whole == single

    def test_any_empty_ball_raises(self):
        sp = two_point_space()
        for check in (
            lambda balls: check_T1_weak_maximal(sp, [1.0, 0.5], balls, 2.0, [1.0]),
            lambda balls: check_T3_weak_frac(sp, [1.0, 0.5], balls, EXPS, [1.0]),
        ):
            assert len(check([(0, 0.5), (1, 2.0)])) == 2
            with pytest.raises(EmptyBall):
                check([(0, 0.5), (1, 0.0), (1, 2.0)])


class TestT2:
    def test_single_point_ratio_one(self):
        sp = single_point_space(mass=0.5)
        rep = check_T2_hedberg(sp, [3.0], 2.0, 0.25)
        assert rep.lhs == pytest.approx(1.0, rel=1e-12)
        assert rep.passed

    def test_zero_function(self):
        sp = random_space(2)
        rep = check_T2_hedberg(sp, np.zeros(sp.n), 2.0, 0.25)
        assert rep.lhs == 0.0 and rep.empirical_constant == 0.0 and rep.passed

    def test_two_point_hand_value(self):
        sp = two_point_space()
        rep = check_T2_hedberg(sp, [1.0, 0.0], 2.0, 0.25)
        # ratio at the empty-valued point: 2^{alpha-1} / (1/2)^{1/2} = 2^{-1/4},
        # dominated by the ratio 1 at the mass-bearing point
        assert rep.lhs == pytest.approx(1.0, rel=1e-12)
        assert rep.passed


class TestT3:
    def test_zero_function(self):
        sp = random_space(3)
        reps = check_T3_weak_frac(sp, np.zeros(sp.n), [(0, 0.5)], EXPS, [0.5, 2.0])
        assert all(r.lhs == 0.0 for r in reps)

    def test_single_point_formulas(self):
        m, c = 0.7, 2.0
        sp = single_point_space(mass=m)
        gamma = 0.5 * c * m**EXPS.alpha
        (rep,) = check_T3_weak_frac(sp, [c], [(0, 1.0)], EXPS, [gamma])
        assert rep.lhs == pytest.approx(m)
        norm = c * m ** (1.0 / EXPS.p)
        expect = m ** (1.0 - 1.0 / EXPS.p) * (norm / gamma) ** (EXPS.s / EXPS.p)
        assert rep.rhs_without_constant == pytest.approx(expect, rel=1e-12)

    def test_joint_scaling_leaves_constant(self):
        sp = random_space(4)
        f = np.random.default_rng(4).uniform(0, 1, sp.n)
        lam = 3.7
        balls = enumerate_balls(sp, limit=8, seed=1)
        gammas = [0.3, 1.1]
        for a, r in balls:
            base = check_T3_weak_frac(sp, f, [(a, r)], EXPS, gammas)
            scaled = check_T3_weak_frac(sp, lam * f, [(a, r)], EXPS, [lam * g for g in gammas])
            for b, s in zip(base, scaled):
                assert s.empirical_constant == pytest.approx(b.empirical_constant, rel=1e-9)


class TestT6:
    def test_single_point_exact_coupling(self):
        for mass in (0.25, 1.0, 7.0):
            sp = single_point_space(mass=mass)
            for p, q, alpha in [(2.0, 1.5, 0.25), (4.0, 2.0, 0.125), (1.5, 1.2, 0.5)]:
                rep = check_T6_strong(sp, [3.0], ExponentSet.from_pqa(p, q, alpha))
                assert rep.empirical_constant == pytest.approx(1.0, abs=1e-12)

    def test_zero_function(self):
        sp = random_space(5)
        rep = check_T6_strong(sp, np.zeros(sp.n), EXPS)
        assert rep.lhs == 0.0 and rep.rhs_without_constant == 0.0
        assert rep.empirical_constant == 0.0

    def test_mass_scaling_invariance(self):
        sp = random_space(6)
        f = np.random.default_rng(6).uniform(0, 1, sp.n)
        base = check_T6_strong(sp, f, EXPS).empirical_constant
        for lam in (0.5, 3.0):
            scaled = MetricMeasureSpace(sp.dist, lam * sp.mass)
            assert check_T6_strong(scaled, f, EXPS).empirical_constant == pytest.approx(base, rel=1e-10)


class TestT7:
    def test_single_point(self):
        sp = single_point_space(mass=2.0)
        rep = check_T7_maximal_morrey(sp, [5.0], 2.0, 1.5)
        assert rep.empirical_constant == pytest.approx(1.0, rel=1e-12)

    def test_zero_function(self):
        sp = random_space(7)
        rep = check_T7_maximal_morrey(sp, np.zeros(sp.n), 2.0, 1.5)
        assert rep.empirical_constant == 0.0

    def test_finite_on_corpus(self):
        for sp, f in small_corpus():
            rep = check_T7_maximal_morrey(sp, f, 2.0, 1.5)
            assert math.isfinite(rep.empirical_constant)
            assert rep.empirical_constant >= 1.0 - 1e-12  # maximal dominates f


class TestWeakL1:
    def test_zero_function(self):
        sp = random_space(8)
        reps = check_weak_L1(sp, np.zeros(sp.n), [1.0])
        assert reps[0].lhs == 0.0

    def test_single_point_direct(self):
        sp = single_point_space(mass=0.9)
        (rep,) = check_weak_L1(sp, [2.0], [0.5])
        assert rep.lhs == pytest.approx(0.9)
        assert rep.empirical_constant == pytest.approx(0.5 / 2.0, rel=1e-12)

    def test_vanishes_past_max(self):
        for sp, f in small_corpus():
            from morrey_lab.operators import maximal

            top = float(maximal(sp, f, 2.0).max())
            reps = check_weak_L1(sp, f, [top * 1.0000001, top * 10.0])
            assert all(r.lhs == 0.0 for r in reps)

    def test_constant_at_most_one_empirically(self):
        # the cited weak-(1,1) bound for the 2-dilated maximal operator;
        # report-only in the checker, observed to hold on the corpus
        for sp, f in small_corpus():
            from morrey_lab.operators import maximal

            gammas = gamma_grid(float(maximal(sp, f, 2.0).max()))
            for rep in check_weak_L1(sp, f, gammas):
                assert rep.empirical_constant <= 1.0 + 1e-12


class TestSharpConstant:
    """On a finite space T1 holds with constant 1, and so does weakL1.

    Covering proof.  Take E = {M_2 f > gamma} inside B(a, r).  Each x in E
    has an r_x with int_{B(x, r_x)} |f| > gamma mu(B(x, 2 r_x)).
    - Some r_x >= r: then E lies in B(x, 2 r_x), and the (p,1,2) norm gives
      gamma < ||f|| mu(B(x, 2 r_x))^{-1/p}, so gamma mu(E) < ||f||
      mu(E)^{1-1/p} <= ||f|| mu(B(a, r))^{1-1/p}.
    - Every r_x < r: greedy Vitali by decreasing r_x picks disjoint balls
      B(x_i, r_i) inside B(a, 2r) whose doubles cover E, so gamma mu(E) <
      int_{B(a, 2r)} |f| <= ||f|| mu(B(a, 4r))^{1-1/p}.
    So T1 holds with constant 1 even with mu(B(a, 4r)) in place of the
    checked mu(B(a, 6r)); the same covering without the ball gives weakL1
    with constant 1: gamma mu({M_2 f > gamma}) <= ||f||_1.  If a gap is
    found in this argument, the oracle is wrong, not the code.

    The suprema are exact: a ball's level sets and its 6r measure change
    only at the distances d from its center, and the ratio is largest at
    the right limit, so every ball is taken at each radius ``nextafter(d,
    inf)``; a level set changes only at the values v of M_2 f, and gamma
    times its measure is largest just below, so every level is
    ``nextafter(v, 0)``.
    """

    ULPS = 3 * np.spacing(1.0)

    def test_corpus_suprema_at_most_one(self):
        """Every corpus (space, function, p) triple: the exact T1 supremum is
        at most 1 within 3 ulps, and 1 up to rounding on all but three
        triples, where it is 0.80 to 0.87; the weakL1 supremum is 1 within
        3 ulps on every (space, function) pair.  The maxima are read from
        the tables."""
        here = os.path.dirname(os.path.abspath(__file__))
        with open(os.path.join(here, "..", "configs", "corpus.json"), encoding="utf-8") as fh:
            cfg = parse_config(json.load(fh))
        below = set()
        for sid, sspec in cfg.spaces:
            sp = generate_space(sspec)
            balls = [(a, float(np.nextafter(d, math.inf))) for a in range(sp.n) for d in np.unique(sp.dist[a]).tolist()]
            for fid, fspec in cfg.functions:
                v = Values(sp, generate_function(sp, fspec))
                levels = np.nextafter(np.unique(v.of(maximal, 2.0)), 0.0)
                for exps in cfg.exponents:
                    t1 = theorems._t1_table(sp, v, balls, exps.p, levels)
                    assert len(t1.lhs) == len(balls) * len(levels)
                    sup = t1.empirical_constant.max()
                    assert sup <= 1.0 + self.ULPS, (sid, fid, exps.p)
                    if sup < 1.0 - 1e-12:
                        below.add((sid, fid, exps.p))
                        assert 0.8 < sup < 0.87
                weak_l1 = theorems._weak_l1_table(sp, v, levels)
                assert abs(weak_l1.empirical_constant.max() - 1.0) <= self.ULPS, (sid, fid)
                assert (levels * weak_l1.lhs).max() <= lq_norm(sp, generate_function(sp, fspec), 1.0) * (1.0 + self.ULPS)
        assert len(cfg.spaces) * len(cfg.functions) * len(cfg.exponents) == 30
        assert below == {("grid16", "bump", 2.0), ("grid16", "bump", 4.0), ("grid16", "spike", 2.0)}


class TestHubAndSpoke:
    """The sharp constant 1 of ``TestSharpConstant`` on spaces far from
    doubling: a hub of mass 1 at distance 1 from N leaves of mass 0.5, the
    leaves 2 apart, and f the hub's indicator with p = 2.  The doubling
    ratio grows with N, and the dilation 2 of M_2 is what keeps the
    constant at 1: the unmodified M_1 reaches 1.49, 2.75 and 5.37 at N = 8,
    32 and 128, past the checked 4 at N = 128.

    Every ball is taken at each right-limit radius, ``nextafter(d, inf)``
    for each distance d from its center, and every level just below a value
    of the maximal operator: any ``M_k f`` value here is 1/mu for the
    measure mu of a closed ball, so ``nextafter(1/mu, 0)`` over those
    measures gives every level set whatever the operator.
    """

    ULPS = 3 * np.spacing(1.0)

    @staticmethod
    def instance(N):
        dist = np.full((N + 1, N + 1), 2.0)
        dist[0, :] = dist[:, 0] = 1.0
        np.fill_diagonal(dist, 0.0)
        space = MetricMeasureSpace(dist, np.array([1.0] + [0.5] * N))
        radii = [(a, d) for a in range(space.n) for d in np.unique(space.dist[a]).tolist()]
        balls = [(a, float(np.nextafter(d, math.inf))) for a, d in radii]
        measures = np.unique([space.closed_measure(a, d) for a, d in radii])
        return space, np.eye(N + 1)[0], balls, np.nextafter(1.0 / measures, 0.0)

    @pytest.mark.parametrize("N", [8, 32, 128])
    def test_t1_constant_is_one(self, N):
        space, f, balls, gammas = self.instance(N)
        reps = check_T1_weak_maximal(space, f, balls, 2.0, gammas)
        assert len(reps) == len(balls) * len(gammas)
        assert abs(max(rep.empirical_constant for rep in reps) - 1.0) <= self.ULPS
        assert all(rep.passed is True for rep in reps)

    @pytest.mark.parametrize("N", [8, 32, 128])
    def test_weak_l1_constant_is_one(self, N):
        space, f, _, gammas = self.instance(N)
        assert lq_norm(space, f, 1.0) == 1.0
        reps = check_weak_L1(space, f, gammas)
        assert [rep.rhs_without_constant for rep in reps] == (1.0 / gammas).tolist()
        assert abs(max(rep.empirical_constant for rep in reps) - 1.0) <= self.ULPS


    @staticmethod
    def brute_force(space, f, balls, gammas, p, k):
        """The largest T1 and weakL1 constants with M_k in place of M_2, every
        value from its definition: open balls, each sup over radii taken at
        the right limits ``nextafter(d, inf)``, each level set by a loop."""
        n, mass = space.n, space.mass.tolist()

        def inside(x, r):
            return [y for y in range(n) if space.dist[x, y] < r]

        def mu(x, r):
            return sum(mass[y] for y in inside(x, r))

        def integral(x, r):
            return sum(abs(f[y]) * mass[y] for y in inside(x, r))

        limits = [[float(np.nextafter(d, math.inf)) for d in set(space.dist[x].tolist())] for x in range(n)]
        mk = [max(integral(x, r) / mu(x, k * r) for r in limits[x]) for x in range(n)]
        norm = max(mu(x, 2.0 * r) ** (1.0 / p - 1.0) * integral(x, r) for x in range(n) for r in limits[x])
        t1 = max(
            g * sum(mass[y] for y in inside(a, r) if mk[y] > g) / (norm * mu(a, 6.0 * r) ** (1.0 - 1.0 / p))
            for a, r in balls
            for g in gammas
        )
        weak_l1 = max(g * sum(mass[y] for y in range(n) if mk[y] > g) for g in gammas) / sum(
            abs(f[y]) * mass[y] for y in range(n)
        )
        return t1, weak_l1

    @pytest.mark.parametrize("N", [8, 32, 128])
    def test_unmodified_maximal_by_brute_force(self, N):
        """M_1 f is 1 at the hub and 2/3 at a leaf, so just below 2/3 the level
        set is all of X, of measure 1 + N/2: the weakL1 ratio is (N + 2)/3,
        3.33, 11.3 and 43.3, and T1's sup is sqrt(2 (N + 2))/3, past the checked
        4 at N = 128.  M_2 f is 1/(1 + N/2) at a leaf, and both ratios stay 1."""
        space, f, balls, gammas = self.instance(N)
        t1, weak_l1 = self.brute_force(space, f, balls, gammas, 2.0, 1.0)
        assert t1 == pytest.approx(math.sqrt(2.0 * (N + 2)) / 3.0, rel=1e-12)
        assert weak_l1 == pytest.approx((N + 2) / 3.0, rel=1e-12)
        assert (t1 > 4.0) == (N == 128)
        for ratio in self.brute_force(space, f, balls, gammas, 2.0, 2.0):
            assert abs(ratio - 1.0) <= self.ULPS


class TestScalingInvariance:
    def test_metric_scaling_all_checkers(self):
        sp = random_space(9)
        f = np.random.default_rng(9).uniform(0, 1, sp.n)
        lam = 0.5
        scaled = MetricMeasureSpace(lam * sp.dist, sp.mass)
        assert check_T2_hedberg(scaled, f, 2.0, 0.25).lhs == pytest.approx(
            check_T2_hedberg(sp, f, 2.0, 0.25).lhs, rel=1e-12
        )
        assert check_T6_strong(scaled, f, EXPS).empirical_constant == pytest.approx(
            check_T6_strong(sp, f, EXPS).empirical_constant, rel=1e-12
        )
        assert check_T7_maximal_morrey(scaled, f, 2.0, 1.5).empirical_constant == pytest.approx(
            check_T7_maximal_morrey(sp, f, 2.0, 1.5).empirical_constant, rel=1e-12
        )
        for a, r in enumerate_balls(sp, limit=6, seed=2):
            base = check_T1_weak_maximal(sp, f, [(a, r)], 2.0, [0.4])
            sc = check_T1_weak_maximal(scaled, f, [(a, lam * r)], 2.0, [0.4])
            assert sc[0].empirical_constant == pytest.approx(base[0].empirical_constant, rel=1e-12)

    def test_function_scaling_t1_weakl1(self):
        sp = random_space(10)
        f = np.random.default_rng(10).uniform(0, 1, sp.n)
        lam = 2.25
        for a, r in enumerate_balls(sp, limit=4, seed=3):
            base = check_T1_weak_maximal(sp, f, [(a, r)], 2.0, [0.3])
            sc = check_T1_weak_maximal(sp, lam * f, [(a, r)], 2.0, [lam * 0.3])
            assert sc[0].empirical_constant == pytest.approx(base[0].empirical_constant, rel=1e-12)
        b = check_weak_L1(sp, f, [0.3])[0].empirical_constant
        s = check_weak_L1(sp, lam * f, [lam * 0.3])[0].empirical_constant
        assert s == pytest.approx(b, rel=1e-12)


def assert_rows_are_reports(tables, reports):
    """Row i of ``tables``, read table by table, is ``reports[i]`` field by
    field: the tables' float64 arrays, read with ``.tolist()``, ``==`` the
    reports' floats, which are Python floats, and the tables' bool arrays of
    flags, read the same way, the same bool or None.  A report's ball ``a``, ``r`` is not a table column."""
    rows = []
    for t in tables:
        arrays = (t.lhs, t.rhs_without_constant, t.empirical_constant, *([] if t.gamma is None else [t.gamma]))
        assert all(type(x) is np.ndarray and x.dtype == np.float64 and x.shape == t.lhs.shape for x in arrays)
        assert t.passed is None or (type(t.passed) is np.ndarray and t.passed.dtype == bool and t.passed.shape == t.lhs.shape)
        levels = [{}] * len(t.lhs) if t.gamma is None else [{"gamma": g} for g in t.gamma.tolist()]
        numbers = zip(t.lhs.tolist(), t.rhs_without_constant.tolist(), t.empirical_constant.tolist())
        flags = [None] * len(t.lhs) if t.passed is None else t.passed.tolist()
        rows += [(t, *cells) for cells in zip(levels, numbers, flags)]
    assert len(rows) == len(reports) > 0
    for (t, level, numbers, passed), rep in zip(rows, reports):
        assert (t.check_id, t.theory_constant) == (rep.check_id, rep.theory_constant)
        assert {**t.params, **level} == {k: v for k, v in rep.params.items() if k not in ("a", "r")}
        assert numbers == (rep.lhs, rep.rhs_without_constant, rep.empirical_constant)
        assert all(type(x) is float for x in (rep.lhs, rep.rhs_without_constant, rep.empirical_constant))
        assert all(type(rep.params[k]) is float for k in ("r", "gamma") if k in rep.params)
        assert passed is rep.passed and (passed is None or type(passed) is bool)


def per_ball_reports(space, f, check_id, exponents, balls, lo, hi, count):
    """Every report of a check from the public checkers, each called without
    precomputed operator values or norms."""
    out = []
    for exps in exponents:
        if check_id == "T1":
            gam = gamma_grid(float(maximal(space, f, 2.0).max()), lo, hi, count)
            for a, r in balls:
                out += check_T1_weak_maximal(space, f, [(a, r)], exps.p, gam)
        elif check_id == "T3":
            pot = fractional_integral(space, f, exps.alpha)
            gam = gamma_grid(float(pot.max()), lo, hi, count)
            for a, r in balls:
                out += check_T3_weak_frac(space, f, [(a, r)], exps, gam)
        elif check_id == "T2":
            out.append(check_T2_hedberg(space, f, exps.p, exps.alpha))
        elif check_id == "T6":
            out.append(check_T6_strong(space, f, exps))
        elif check_id == "T7":
            out.append(check_T7_maximal_morrey(space, f, exps.p, exps.q))
    if check_id == "weakL1":
        out += check_weak_L1(space, f, gamma_grid(float(maximal(space, f, 2.0).max()), lo, hi, count))
    return out


CHECKS_ON = {
    "T1": lambda sp, f: check_T1_weak_maximal(sp, f, [(0, 1.0)], EXPS.p, [0.5]),
    "T2": lambda sp, f: check_T2_hedberg(sp, f, EXPS.p, EXPS.alpha),
    "T3": lambda sp, f: check_T3_weak_frac(sp, f, [(0, 1.0)], EXPS, [0.5]),
    "T6": lambda sp, f: check_T6_strong(sp, f, EXPS),
    "T7": lambda sp, f: check_T7_maximal_morrey(sp, f, EXPS.p, EXPS.q),
    "weakL1": lambda sp, f: check_weak_L1(sp, f, [0.5]),
}


@pytest.mark.parametrize("check_id", CHECK_IDS)
def test_values_of_another_space_raise(check_id):
    sp, other = random_space(3, n=5), random_space(4, n=5)
    CHECKS_ON[check_id](sp, Values(sp, np.ones(sp.n)))  # its own space works
    with pytest.raises(ValueError, match="another space"):
        CHECKS_ON[check_id](sp, Values(other, np.ones(other.n)))


class TestEvaluate:
    def test_matches_per_ball_checkers_on_corpus(self):
        here = os.path.dirname(os.path.abspath(__file__))
        with open(os.path.join(here, "..", "configs", "corpus.json"), encoding="utf-8") as fh:
            cfg = parse_config(json.load(fh))
        assert len(cfg.exponents) == 2
        grid = (cfg.gamma_lo, cfg.gamma_hi, cfg.gamma_count)
        for _, sspec in cfg.spaces:
            sp = generate_space(sspec)
            balls = enumerate_balls(sp, limit=64, seed=cfg.seed)
            for _, fspec in cfg.functions:
                f = generate_function(sp, fspec)
                for check in CHECK_IDS:
                    got = evaluate(sp, f, check, cfg.exponents, balls, *grid)
                    want = per_ball_reports(sp, f, check, cfg.exponents, balls, *grid)
                    assert len(got) == (1 if check == "weakL1" else len(cfg.exponents))
                    assert_rows_are_reports(got, want)
                    ball_rows = balls if check in theorems.BALL_CHECKS else None
                    assert [rep for t in got for rep in theorems._reports(t, ball_rows)] == want, (check, fspec)

    def test_unknown_check_id(self):
        with pytest.raises(UnknownCheckId):
            evaluate(single_point_space(), [1.0], "T9", [EXPS], [(0, 1.0)])

    def test_weak_l1_runs_maximal_once(self, monkeypatch):
        from morrey_lab import theorems

        calls = []

        def counted(space, f, k=2.0):
            calls.append(k)
            return maximal(space, f, k)

        monkeypatch.setattr(theorems, "maximal", counted)
        sp = random_space(4)
        (got,) = evaluate(sp, np.linspace(0.0, 1.0, sp.n), "weakL1", [EXPS], [])
        assert calls == [2.0] and len(got.lhs) == 25


def loop_level_masses(space, values, mask, gammas):
    """The one-mask ``level_masses`` that the mask stack replaced, kept as the reference."""
    v = values[mask]
    m = space.mass[mask]
    order = np.argsort(v, kind="stable")
    v = v[order]
    tail = np.concatenate([np.cumsum(m[order][::-1])[::-1], [0.0]])
    return tail[np.searchsorted(v, gammas, side="right")]


def loop_ball_reports(space, f, check_id, balls, gammas, p, params, theory_constant=None):
    """The per-(ball, gamma) loop that the (ball x level) tables replaced, kept
    as the reference: each right side from the scalar formula of the check,
    from the norm of f, and each constant and flag from the scalar form of
    the one rule, ``_constants``."""
    scalar_rhs = {
        "T1": lambda mu6, g, p, s, norm: mu6 ** (1.0 - 1.0 / p) * norm / g,
        "T3": lambda mu6, g, p, s, norm: mu6 ** (1.0 - 1.0 / p) * (norm / g) ** (s / p),
    }
    f = np.abs(f)
    values = maximal(space, f, 2.0) if check_id == "T1" else fractional_integral(space, f, params["alpha"], 2.0)
    norm = morrey_norm(space, f, p, 1.0, 2.0)
    out = []
    for a, r in balls:
        mask = space.dist[a] < r
        mu6 = float(space.open_measure(a, 6.0 * r))
        for g, l in zip(gammas, loop_level_masses(space, values, mask, gammas)):
            right = scalar_rhs[check_id](mu6, g, p, params.get("s"), norm)
            const, passed = theorems._constants(l, right, theory_constant)
            params_g = {"a": a, "r": r, **params, "gamma": float(g)}
            ok = None if passed is None else bool(passed)
            out.append(CheckReport(check_id, params_g, float(l), float(right), float(const), theory_constant, ok))
    return out


def loop_level_masses_stack(space, values, masks, gammas):
    """``level_masses`` as a stack of one-mask loops, one row per mask."""
    return np.array([loop_level_masses(space, values, mask, gammas) for mask in masks])


class TestBallTables:
    def test_reports_equal_per_ball_loop(self, monkeypatch):
        for i, sp in enumerate(reference_spaces()):
            balls = enumerate_balls(sp, limit=64, seed=i)
            g = np.random.default_rng(i + 900)
            fs = [g.uniform(0.0, 3.0, sp.n), np.where(g.uniform(size=sp.n) < 0.3, 2.0, 0.0), np.zeros(sp.n)]
            for f in fs:
                mf = maximal(sp, f, 2.0)
                pot = fractional_integral(sp, f, EXPS.alpha)
                # the level grid plus gammas equal to attained values (ties)
                gam1 = np.concatenate([gamma_grid(float(mf.max())), mf[mf > 0.0][::5]])
                gam3 = np.concatenate([gamma_grid(float(pot.max())), pot[pot > 0.0][::5]])

                def reports():
                    return (
                        check_T1_weak_maximal(sp, f, balls, 2.0, gam1),
                        check_T3_weak_frac(sp, f, balls, EXPS, gam3),
                        check_weak_L1(sp, f, gam1),
                    )

                got = reports()
                with monkeypatch.context() as m:
                    m.setattr(theorems, "level_masses", loop_level_masses_stack)
                    weak_l1 = check_weak_L1(sp, f, gam1)
                want = (
                    loop_ball_reports(sp, f, "T1", balls, gam1, 2.0, {"p": 2.0}, 4.0),
                    loop_ball_reports(sp, f, "T3", balls, gam3, EXPS.p, {"p": EXPS.p, "alpha": EXPS.alpha, "s": EXPS.s}),
                    weak_l1,
                )
                assert [len(reps) for reps in got] == [len(reps) for reps in want]
                assert got == want, i
                tables = (
                    theorems._t1_table(sp, f, balls, 2.0, gam1),
                    theorems._t3_table(sp, f, balls, EXPS, gam3),
                    theorems._weak_l1_table(sp, f, gam1),
                )
                for table, reps in zip(tables, want):
                    assert_rows_are_reports([table], reps)
                t1, t3, _ = got
                assert all(type(rep.passed) is bool for rep in t1) and all(rep.passed is None for rep in t3)
                numbers = [(rep.lhs, rep.rhs_without_constant, rep.empirical_constant) for rep in t1 + t3]
                assert all(type(x) is float for row in numbers for x in row)

    def test_level_masses_equal_one_mask_loop(self):
        for i, sp in enumerate(reference_spaces()):
            g = np.random.default_rng(i + 950)
            f = np.round(g.uniform(0.0, 3.0, sp.n), 1)  # repeated values
            masks = np.array(
                [
                    np.ones(sp.n, dtype=bool),
                    np.zeros(sp.n, dtype=bool),
                    np.isin(np.arange(sp.n), g.integers(0, sp.n, size=sp.n)),  # from indices with repeats
                    g.uniform(size=sp.n) < 0.5,
                    sp.dist[0] < float(np.median(sp.dist[0])),
                ]
            )
            gammas = np.array([-1.0, 0.0, *f[::3].tolist(), 1.25, 5.0])
            got = level_masses(sp, f, masks, gammas)
            for mask, row in zip(masks, got):
                assert np.array_equal(row, loop_level_masses(sp, f, mask, gammas)), i


class TestConstants:
    """The one rule for a row's empirical constant and pass flag, in the
    one-row tables of the scalar checks, their reports, and the array form
    of the ball tables."""

    CASES = [  # lhs, rhs, constant, pass at theory constant 4
        (3.0, 2.0, 1.5, True),  # rhs > 0
        (9.0, 2.0, 4.5, False),
        (0.0, 2.0, 0.0, True),
        (0.0, 0.0, 0.0, True),  # lhs == rhs == 0: a vacuous inequality
        (1.0, 0.0, math.inf, False),  # lhs > 0 == rhs
    ]

    def test_three_branches(self):
        for lhs, rhs, const, passed in self.CASES:
            table = theorems._table("T2", {}, lhs, rhs, 4.0)
            assert (table.empirical_constant.tolist(), table.passed.tolist()) == ([const], [passed])
            assert table.passed.dtype == bool
            (rep,) = theorems._reports(table)
            assert (rep.empirical_constant, rep.passed) == (const, passed)
            assert type(rep.empirical_constant) is float and type(rep.passed) is bool
            assert theorems._table("T6", {}, lhs, rhs).passed is None
            assert theorems._reports(theorems._table("T6", {}, lhs, rhs))[0].passed is None
        lhs, rhs, const, passed = (np.array([column] * 2) for column in zip(*self.CASES))
        got_const, got_passed = theorems._constants(lhs, rhs, 4.0)
        assert got_const.tolist() == const.tolist() and got_passed.tolist() == passed.tolist()
        assert theorems._constants(lhs, rhs)[1] is None

import json
import math
import os

import numpy as np
import pytest

from morrey_lab.cli import parse_config
from morrey_lab.functions import ExponentSet
from morrey_lab.generators import generate_function, generate_space
from morrey_lab.operators import KernelConvention, fractional_integral, maximal
from morrey_lab.space import MetricMeasureSpace
from morrey_lab.theorems import (
    CHECK_IDS,
    EmptyBall,
    UnknownCheckId,
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

from conftest import random_space, single_point_space, two_point_space

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


class TestT1:
    def test_single_point_passes(self):
        sp = single_point_space(mass=0.8)
        c, gamma, p = 2.0, 0.5, 2.0
        (rep,) = check_T1_weak_maximal(sp, [c], 0, 1.0, p, [gamma])
        assert rep.lhs == pytest.approx(0.8)
        assert rep.rhs_without_constant == pytest.approx(0.8 * c / gamma, rel=1e-12)
        assert rep.passed

    def test_zero_function(self):
        sp = random_space(1)
        reps = check_T1_weak_maximal(sp, np.zeros(sp.n), 0, 0.5, 2.0, [0.1, 1.0])
        assert all(r.lhs == 0.0 and r.passed for r in reps)

    def test_empty_ball_rejected(self):
        sp = two_point_space()
        with pytest.raises(EmptyBall):
            check_T1_weak_maximal(sp, [1.0, 0.0], 0, 0.0, 2.0, [1.0])

    def test_corpus_passes_with_constant_four(self):
        from morrey_lab.operators import maximal

        for sp, f in small_corpus():
            mf = maximal(sp, f, 2.0)
            gammas = gamma_grid(float(mf.max()))
            for a, r in enumerate_balls(sp, limit=24, seed=0):
                for rep in check_T1_weak_maximal(sp, f, a, r, 2.0, gammas):
                    assert rep.passed, rep


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
        reps = check_T3_weak_frac(sp, np.zeros(sp.n), 0, 0.5, EXPS, [0.5, 2.0])
        assert all(r.lhs == 0.0 for r in reps)

    def test_single_point_formulas(self):
        m, c = 0.7, 2.0
        sp = single_point_space(mass=m)
        gamma = 0.5 * c * m**EXPS.alpha
        (rep,) = check_T3_weak_frac(sp, [c], 0, 1.0, EXPS, [gamma])
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
            base = check_T3_weak_frac(sp, f, a, r, EXPS, gammas)
            scaled = check_T3_weak_frac(sp, lam * f, a, r, EXPS, [lam * g for g in gammas])
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
            base = check_T1_weak_maximal(sp, f, a, r, 2.0, [0.4])
            sc = check_T1_weak_maximal(scaled, f, a, lam * r, 2.0, [0.4])
            assert sc[0].empirical_constant == pytest.approx(base[0].empirical_constant, rel=1e-12)

    def test_function_scaling_t1_weakl1(self):
        sp = random_space(10)
        f = np.random.default_rng(10).uniform(0, 1, sp.n)
        lam = 2.25
        for a, r in enumerate_balls(sp, limit=4, seed=3):
            base = check_T1_weak_maximal(sp, f, a, r, 2.0, [0.3])
            sc = check_T1_weak_maximal(sp, lam * f, a, r, 2.0, [lam * 0.3])
            assert sc[0].empirical_constant == pytest.approx(base[0].empirical_constant, rel=1e-12)
        b = check_weak_L1(sp, f, [0.3])[0].empirical_constant
        s = check_weak_L1(sp, lam * f, [lam * 0.3])[0].empirical_constant
        assert s == pytest.approx(b, rel=1e-12)


def per_ball_reports(space, f, check_id, exponents, balls, lo, hi, count):
    """Every report of a check from the public checkers, each called without
    precomputed operator values or norms."""
    out = []
    for exps in exponents:
        if check_id == "T1":
            gam = gamma_grid(float(maximal(space, f, 2.0).max()), lo, hi, count)
            for a, r in balls:
                out += check_T1_weak_maximal(space, f, a, r, exps.p, gam)
        elif check_id == "T3":
            pot = fractional_integral(space, f, exps.alpha, KernelConvention(kappa=2.0))
            gam = gamma_grid(float(pot.max()), lo, hi, count)
            for a, r in balls:
                out += check_T3_weak_frac(space, f, a, r, exps, gam)
        elif check_id == "T2":
            out.append(check_T2_hedberg(space, f, exps.p, exps.alpha))
        elif check_id == "T6":
            out.append(check_T6_strong(space, f, exps))
        elif check_id == "T7":
            out.append(check_T7_maximal_morrey(space, f, exps.p, exps.q))
    if check_id == "weakL1":
        out += check_weak_L1(space, f, gamma_grid(float(maximal(space, f, 2.0).max()), lo, hi, count))
    return out


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
                    assert len(got) == len(want) > 0
                    assert got == want, (check, fspec)

    def test_unknown_check_id(self):
        with pytest.raises(UnknownCheckId):
            evaluate(single_point_space(), [1.0], "T9", [EXPS], [(0, 1.0)])

import json
import math
import os

import numpy as np
import pytest

from morrey_lab import theorems
from morrey_lab.cli import parse_config
from morrey_lab.functions import ExponentSet, level_masses, morrey_norm
from morrey_lab.generators import SpaceSpec, generate_function, generate_space
from morrey_lab.operators import fractional_integral, maximal
from morrey_lab.rng import sample_indices
from morrey_lab.space import MetricMeasureSpace
from morrey_lab.theorems import (
    CHECK_IDS,
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
                    assert len(got) == len(want) > 0
                    assert got == want, (check, fspec)

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
        got = evaluate(sp, np.linspace(0.0, 1.0, sp.n), "weakL1", [EXPS], [])
        assert calls == [2.0] and len(got) == 25


def loop_level_masses(space, values, mask, gammas):
    """The one-mask ``level_masses`` that the mask stack replaced, kept as the reference."""
    v = values[mask]
    m = space.mass[mask]
    order = np.argsort(v, kind="stable")
    v = v[order]
    tail = np.concatenate([np.cumsum(m[order][::-1])[::-1], [0.0]])
    return tail[np.searchsorted(v, gammas, side="right")]


def loop_ball_reports(f):
    """The per-(ball, gamma) loop that ``theorems._ball_reports`` replaced, kept
    as the reference: it ignores the table ``rhs`` it is given and evaluates
    each right side with the scalar formula of the check, from the norm of f."""
    scalar_rhs = {
        "T1": lambda mu6, g, p, s, norm: mu6 ** (1.0 - 1.0 / p) * norm / g,
        "T3": lambda mu6, g, p, s, norm: mu6 ** (1.0 - 1.0 / p) * (norm / g) ** (s / p),
    }

    def reports(space, values, balls, gammas, p, rhs, check_id, params, theory_constant=None):
        gammas = np.asarray(gammas, dtype=float)
        norm = morrey_norm(space, np.abs(f), p, 1.0, 2.0)
        out = []
        for a, r in balls:
            mask = space.dist[a] < r
            if float(space.mass[mask].sum()) <= 0.0:
                raise EmptyBall(f"ball({a}, {r}) has zero measure")
            mu6 = float(space.open_measure(a, 6.0 * r))
            lhs = loop_level_masses(space, values, mask, gammas)
            for g, l in zip(gammas, lhs):
                params_g = {"a": a, "r": r, **params, "gamma": float(g)}
                right = scalar_rhs[check_id](mu6, g, p, params.get("s"), norm)
                out.append(theorems._make_report(check_id, params_g, l, right, theory_constant))
        return out

    return reports


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
                    m.setattr(theorems, "_ball_reports", loop_ball_reports(f))
                    m.setattr(theorems, "level_masses", loop_level_masses_stack)
                    want = reports()
                assert [len(reps) for reps in got] == [len(reps) for reps in want]
                assert got == want, i
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
    """The one rule for a report's empirical constant and pass flag, in the
    scalar form of ``_make_report`` and the array form of the ball tables."""

    CASES = [  # lhs, rhs, constant, pass at theory constant 4
        (3.0, 2.0, 1.5, True),  # rhs > 0
        (9.0, 2.0, 4.5, False),
        (0.0, 2.0, 0.0, True),
        (0.0, 0.0, 0.0, True),  # lhs == rhs == 0: a vacuous inequality
        (1.0, 0.0, math.inf, False),  # lhs > 0 == rhs
    ]

    def test_three_branches(self):
        for lhs, rhs, const, passed in self.CASES:
            rep = theorems._make_report("T2", {}, lhs, rhs, 4.0)
            assert (rep.empirical_constant, rep.passed) == (const, passed)
            assert type(rep.empirical_constant) is float and type(rep.passed) is bool
            assert theorems._make_report("T6", {}, lhs, rhs).passed is None
        lhs, rhs, const, passed = (np.array([column] * 2) for column in zip(*self.CASES))
        got_const, got_passed = theorems._constants(lhs, rhs, 4.0)
        assert got_const.tolist() == const.tolist() and got_passed.tolist() == passed.tolist()
        assert theorems._constants(lhs, rhs)[1] is None

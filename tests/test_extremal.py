import numpy as np
import pytest

from morrey_lab.extremal import (
    OptimizerConfig,
    UnknownCheckId,
    _initial_function,
    estimate_constant,
    kappa_sweep,
    make_objective,
)
from morrey_lab.functions import ExponentSet
from morrey_lab.generators import FunctionSpec, SpaceSpec, generate_function, generate_space
from morrey_lab.operators import fractional_integral, maximal
from morrey_lab.theorems import (
    check_T1_weak_maximal,
    check_T2_hedberg,
    check_T3_weak_frac,
    enumerate_balls,
    evaluate,
    gamma_grid,
)

from conftest import random_space, single_point_space

EXPS = ExponentSet.from_pqa(2.0, 1.5, 0.25)
FAST = OptimizerConfig(seed=7, restarts=3, max_iters=120)


class TestEstimate:
    def test_single_point_t6_is_one(self):
        res = estimate_constant(single_point_space(), "T6", EXPS, FAST)
        assert res.best_ratio == pytest.approx(1.0, abs=1e-12)

    def test_unknown_check_id(self):
        with pytest.raises(UnknownCheckId):
            estimate_constant(single_point_space(), "T9", EXPS, FAST)

    def test_dominates_sampled_functions(self):
        sp = random_space(12, n=6)
        for check in ("T2", "T6", "T7"):
            objective = make_objective(sp, check, EXPS, seed=FAST.seed)
            res = estimate_constant(sp, check, EXPS, FAST)
            for fseed in range(8):
                f = np.random.default_rng(fseed).uniform(0, 1, sp.n)
                assert res.best_ratio >= objective(f) - 1e-12

    def test_seed_determinism_bit_identical(self):
        sp = random_space(14, n=5)
        a = estimate_constant(sp, "T7", EXPS, FAST)
        b = estimate_constant(sp, "T7", EXPS, FAST)
        assert a.best_ratio == b.best_ratio
        np.testing.assert_array_equal(a.argmax_f, b.argmax_f)
        assert a.trace == b.trace and a.iterations_used == b.iterations_used

    def test_trace_nondecreasing(self):
        sp = random_space(15, n=5)
        res = estimate_constant(sp, "T6", EXPS, FAST)
        for rtrace in res.trace:
            assert rtrace == sorted(rtrace)

    def test_best_ratio_matches_recomputation(self):
        sp = random_space(16, n=5)
        res = estimate_constant(sp, "T2", EXPS, FAST)
        objective = make_objective(sp, "T2", EXPS, seed=FAST.seed)
        assert res.best_ratio == pytest.approx(objective(res.argmax_f), rel=1e-12)


class TestObjective:
    @staticmethod
    def per_ball_objective(space, check_id, exps, seed, f):
        """The largest empirical constant over the seeded balls, each ball
        checked on its own with no precomputed values."""
        best = 0.0
        for a, r in enumerate_balls(space, limit=64, seed=seed):
            if check_id == "T1":
                gam = gamma_grid(float(maximal(space, f, 2.0).max()))
                rep = check_T1_weak_maximal(space, f, [(a, r)], exps.p, gam)
            else:
                gam = gamma_grid(float(fractional_integral(space, f, exps.alpha).max()))
                rep = check_T3_weak_frac(space, f, [(a, r)], exps, gam)
            for const in rep.empirical_constant.tolist():
                best = max(best, const)
        return best

    @pytest.mark.parametrize("check_id", ["T1", "T2", "T3", "T6", "T7", "weakL1"])
    def test_returns_a_python_float(self, check_id):
        """The maximum of a table's float64 column leaves as a Python float."""
        sp = random_space(17, n=6)
        objective = make_objective(sp, check_id, EXPS, seed=FAST.seed)
        for f in (np.linspace(0.0, 1.0, sp.n), np.zeros(sp.n)):
            assert type(objective(f)) is float

    @pytest.mark.parametrize("check_id", ["T1", "T2", "T3", "T6", "T7", "weakL1"])
    def test_equals_python_max_of_the_column_on_grid16(self, check_id):
        """The objective is the float64 maximum of the table's constants, the
        same value as Python's ``max`` over them (0 for no row), at the
        uniform, spike and sparse start functions of the optimizer."""
        sp = generate_space(SpaceSpec("grid", n=16, dim=1, halfwidth=0.5))
        objective = make_objective(sp, check_id, EXPS, seed=FAST.seed)
        for restart in range(3):
            f = _initial_function(sp, restart, FAST.seed)
            column = evaluate(sp, f, check_id, [EXPS], FAST.seed)[0].empirical_constant
            assert objective(f) == max(column.tolist(), default=0.0)

    @pytest.mark.parametrize("check_id", ["T1", "T3"])
    def test_ball_checks_match_per_ball_loop_on_grid16(self, check_id):
        sp = generate_space(SpaceSpec("grid", n=16, dim=1, halfwidth=0.5))
        functions = [
            generate_function(sp, FunctionSpec("power-spike", center=2, beta=1.5, cap=50.0)),
            generate_function(sp, FunctionSpec("random-sparse", seed=11, density=0.3)),
            generate_function(sp, FunctionSpec("random-uniform", seed=21)),
        ]
        for exps in (EXPS, ExponentSet.from_pqa(4.0, 2.0, 0.125)):
            objective = make_objective(sp, check_id, exps, seed=FAST.seed)
            for f in functions:
                assert objective(f) == self.per_ball_objective(sp, check_id, exps, FAST.seed, f)


class TestKappaSweep:
    def spaces(self):
        return [
            generate_space(SpaceSpec("grid", n=4, dim=1)),
            generate_space(SpaceSpec("gaussian-grid", n=8, dim=1, halfwidth=4.0)),
            generate_space(SpaceSpec("ultrametric-tree", depth=3)),
        ]

    def test_kappa2_column_matches_t2(self):
        spaces = self.spaces()
        fspec = FunctionSpec("random-uniform", seed=3)
        rows = kappa_sweep([(sp, generate_function(sp, fspec)) for sp in spaces], 0.25, 2.0, [1.0, 2.0])
        for idx, sp in enumerate(spaces):
            f = generate_function(sp, fspec)
            t2 = check_T2_hedberg(sp, f, 2.0, 0.25).lhs.item()
            (row,) = [r for r in rows if r["instance"] == idx and r["kappa"] == 2.0]
            assert row["ratio"] == t2
        assert all(type(r["ratio"]) is float and type(r["kappa"]) is float for r in rows)

    def test_kappa1_dominates_kappa2(self):
        fspec = FunctionSpec("random-uniform", seed=4)
        rows = kappa_sweep([(sp, generate_function(sp, fspec)) for sp in self.spaces()], 0.25, 2.0, [1.0, 2.0])
        by_instance = {}
        for r in rows:
            by_instance.setdefault(r["instance"], {})[r["kappa"]] = r["ratio"]
        for vals in by_instance.values():
            assert vals[1.0] >= vals[2.0] * (1 - 1e-12)
        assert any(vals[1.0] > vals[2.0] for vals in by_instance.values())  # kappa reaches the kernel

    def test_single_point_independent_of_kappa(self):
        rows = kappa_sweep([(single_point_space(), [2.0])], 0.25, 2.0, [0.5, 1.0, 2.0])
        ratios = {r["ratio"] for r in rows}
        assert len(ratios) == 1

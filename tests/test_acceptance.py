"""Acceptance suite: one test per exit criterion, each printing a PASS line.

The standard corpus: Lebesgue grids n in {16, 64, 256} (dim 1) and 16x16
(dim 2), a Gaussian grid n=256, radial-decay grids beta in {1, 3}, an
ultrametric tree of depth 5; 20 seeded functions per space; p in
{1.5, 2, 4}; at most 64 balls per instance; 25-point level grids.
"""

import hashlib
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from morrey_lab import __version__, cli
from morrey_lab.extremal import OptimizerConfig, estimate_constant, kappa_sweep, make_objective
from morrey_lab.functions import ExponentSet, morrey_norm
from morrey_lab.generators import FunctionSpec, SpaceSpec, generate_function, generate_space
from morrey_lab.operators import fractional_integral, hedberg_constant, maximal
from morrey_lab.space import MetricMeasureSpace, doubling_ratio
from morrey_lab.theorems import (
    check_T1_weak_maximal,
    check_T2_hedberg,
    check_T3_weak_frac,
    check_T6_strong,
    check_T7_maximal_morrey,
    check_weak_L1,
    enumerate_balls,
    gamma_grid,
)

from conftest import (
    brute_doubling,
    brute_maximal,
    brute_morrey,
    hedberg_layer_sum,
    random_space,
    single_point_space,
)

P_GRID = (1.5, 2.0, 4.0)
PA_PAIRS = ((2.0, 0.25), (4.0, 0.125), (1.5, 0.5))

CORPUS_SPECS = [
    ("grid16", SpaceSpec("grid", n=16, dim=1, halfwidth=0.5)),
    ("grid64", SpaceSpec("grid", n=64, dim=1, halfwidth=0.5)),
    ("grid256", SpaceSpec("grid", n=256, dim=1, halfwidth=0.5)),
    ("grid16x16", SpaceSpec("grid", n=16, dim=2, halfwidth=0.5)),
    ("gauss256", SpaceSpec("gaussian-grid", n=256, dim=1, halfwidth=10.0)),
    ("radial1", SpaceSpec("radial-decay-grid", n=64, dim=1, beta=1.0, halfwidth=4.0)),
    ("radial3", SpaceSpec("radial-decay-grid", n=64, dim=1, beta=3.0, halfwidth=4.0)),
    ("tree5", SpaceSpec("ultrametric-tree", depth=5)),
]


def corpus_functions(space):
    """20 seeded functions spanning the generator families."""
    n = space.n
    diam = space.diameter
    out = [("const", generate_function(space, FunctionSpec("constant", value=1.0)))]
    for i, frac in enumerate((0.0, 0.1, 0.3)):
        spec = FunctionSpec("ball-indicator", center=(7 * i + 1) % n, radius=diam * frac, value=2.0)
        out.append((f"bump{i}", generate_function(space, spec)))
    for i, beta in enumerate((0.5, 1.0, 1.5, 2.0)):
        spec = FunctionSpec("power-spike", center=(11 * i + 3) % n, beta=beta, cap=100.0)
        out.append((f"spike{i}", generate_function(space, spec)))
    for i in range(6):
        out.append((f"sparse{i}", generate_function(space, FunctionSpec("random-sparse", seed=100 + i, density=0.3))))
    for i in range(6):
        out.append((f"rough{i}", generate_function(space, FunctionSpec("random-uniform", seed=200 + i))))
    return out


@pytest.fixture(scope="module")
def corpus():
    return [(sid, generate_space(spec)) for sid, spec in CORPUS_SPECS]


def test_criterion_1_oracle_equivalence(capsys):
    """Breakpoint enumeration matches dense-grid brute force on 100 spaces."""
    start = time.monotonic()
    for seed in range(100):
        sp = random_space(seed)
        f = np.random.default_rng(seed + 10_000).uniform(0, 2, sp.n)

        exact = morrey_norm(sp, f, 2.0, 1.5, 2.0)
        brute = brute_morrey(sp, f, 2.0, 1.5, 2.0)
        assert brute <= exact * (1 + 1e-9)
        assert exact == pytest.approx(brute, rel=1e-9)

        em = maximal(sp, f, 2.0)
        bm = brute_maximal(sp, f, 2.0)
        assert np.all(bm <= em * (1 + 1e-9))
        np.testing.assert_allclose(em, bm, rtol=1e-9)

        ed, _ = doubling_ratio(sp)
        bd = brute_doubling(sp)
        assert bd <= ed * (1 + 1e-12)
        assert ed == pytest.approx(bd, rel=1e-9)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    with capsys.disabled():
        print(f"\nACCEPTANCE 1 (oracle equivalence, {elapsed:.1f}s): PASS")


def test_criterion_2_t1_constant_four(corpus, capsys):
    """Every weak-maximal record passes with the explicit constant 4, and
    its constant is at most the sharp 1 (``TestSharpConstant``) within 3
    ulps: the largest is 0.9846, while M_1 in place of M_2 takes 297
    records past 1 and none past 4."""
    ulps = 3 * np.spacing(1.0)
    start = time.monotonic()
    records = 0
    for sid, sp in corpus:
        balls = enumerate_balls(sp, limit=64, seed=0)
        for fid, f in corpus_functions(sp):
            mf = maximal(sp, f, 2.0)
            gammas = gamma_grid(float(mf.max()))
            for p in P_GRID:
                rep = check_T1_weak_maximal(sp, f, balls, p, gammas)
                assert rep.passed.all(), (sid, fid, p, rep)
                assert rep.empirical_constant.max() <= 1.0 + ulps, (sid, fid, p, rep)
                records += len(rep.lhs)
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    with capsys.disabled():
        print(f"\nACCEPTANCE 2 (T1 with constant 4, {records} records, {elapsed:.1f}s): PASS")


def test_criterion_3_hedberg_with_derived_constant(corpus, capsys):
    """T2 passes with the derived constant; layer sum is two-sided tight."""
    start = time.monotonic()
    for p, alpha in PA_PAIRS:
        # cross-check the closed form against direct series maximization
        ks = np.arange(-300, 300)
        best = 0.0
        for a in np.geomspace(1e-5, 1e5, 2001):
            series = float(np.sum(2.0 ** (ks * alpha) * np.minimum(a, 2.0 ** (-ks / p))))
            best = max(best, series / a ** (1.0 - p * alpha))
        assert 2.0 ** (1.0 - alpha) * best <= hedberg_constant(p, alpha) <= 2.0 ** (2.0 - alpha) * best

    for sid, sp in corpus:
        for fid, f in corpus_functions(sp):
            for p, alpha in PA_PAIRS:
                rep = check_T2_hedberg(sp, f, p, alpha)
                assert rep.passed.item() is True, (sid, fid, p, alpha, rep)
            for _, alpha in PA_PAIRS[:1]:
                pot = fractional_integral(sp, f, alpha)
                lsum = hedberg_layer_sum(sp, f, alpha)
                assert np.all(pot <= lsum * (1 + 1e-12)), (sid, fid)
                for p2, a2 in PA_PAIRS:
                    if a2 != alpha:
                        continue
                    mf = maximal(sp, f, 2.0)
                    norm = morrey_norm(sp, f, p2, 1.0, 2.0)
                    upper = hedberg_constant(p2, a2) * mf ** (1.0 - p2 * a2) * norm ** (p2 * a2)
                    assert np.all(lsum <= upper * (1 + 1e-12)), (sid, fid)
    elapsed = time.monotonic() - start
    with capsys.disabled():
        print(f"\nACCEPTANCE 3 (Hedberg derived constant, {elapsed:.1f}s): PASS")


def test_criterion_4_existence_stability(capsys):
    """Running max of the reported constants grows by < 2x with size."""
    start = time.monotonic()
    exps = ExponentSet.from_pqa(2.0, 1.5, 0.25)
    families = {
        "grid": lambda n: SpaceSpec("grid", n=n, dim=1, halfwidth=0.5),
        "gaussian-grid": lambda n: SpaceSpec("gaussian-grid", n=n, dim=1, halfwidth=10.0),
        "radial-decay-grid": lambda n: SpaceSpec("radial-decay-grid", n=n, dim=1, beta=2.0, halfwidth=4.0),
        "random-points": lambda n: SpaceSpec("random-points", n=n, dim=1, seed=5),
    }

    def family_constants(sp):
        consts = {"T3": 0.0, "T6": 0.0, "T7": 0.0, "weakL1": 0.0}
        balls = enumerate_balls(sp, limit=16, seed=0)
        funcs = [
            generate_function(sp, FunctionSpec("random-uniform", seed=s)) for s in (1, 2)
        ] + [
            generate_function(sp, FunctionSpec("random-sparse", seed=s, density=0.3)) for s in (3, 4)
        ] + [
            generate_function(sp, FunctionSpec("power-spike", center=0, beta=1.0, cap=100.0))
        ]
        for f in funcs:
            pot = fractional_integral(sp, f, exps.alpha)
            gammas = gamma_grid(float(pot.max()))
            t3 = check_T3_weak_frac(sp, f, balls, exps, gammas)
            consts["T3"] = max([consts["T3"], *t3.empirical_constant.tolist()])
            consts["T6"] = max(consts["T6"], check_T6_strong(sp, f, exps).empirical_constant.item())
            consts["T7"] = max(consts["T7"], check_T7_maximal_morrey(sp, f, exps.p, exps.q).empirical_constant.item())
            mf = maximal(sp, f, 2.0)
            weak_l1 = check_weak_L1(sp, f, gamma_grid(float(mf.max())))
            consts["weakL1"] = max([consts["weakL1"], *weak_l1.empirical_constant.tolist()])
        return consts

    for name, make in families.items():
        running = {"T3": 0.0, "T6": 0.0, "T7": 0.0, "weakL1": 0.0}
        prev = None
        for n in (16, 64, 256):
            consts = family_constants(generate_space(make(n)))
            for key in running:
                running[key] = max(running[key], consts[key])
            if prev is not None:
                for key in running:
                    assert running[key] < 2.0 * prev[key], (name, n, key, prev[key], running[key])
            prev = dict(running)
    elapsed = time.monotonic() - start
    with capsys.disabled():
        print(f"\nACCEPTANCE 4 (existence-of-C stability, {elapsed:.1f}s): PASS")


def test_criterion_5_exponent_coupling_exactness(capsys):
    """Single-point strong-type constant is exactly 1 for the whole grid."""
    for mass in (0.3, 1.0, 5.0):
        sp = single_point_space(mass=mass)
        for p in P_GRID:
            for qfrac in (0.2, 0.6, 1.0):
                q = 1.0 + qfrac * (p - 1.0)
                for afrac in (0.1, 0.5, 0.9):
                    exps = ExponentSet.from_pqa(p, q, afrac / p)
                    rep = check_T6_strong(sp, [2.5], exps)
                    assert abs(rep.empirical_constant.item() - 1.0) <= 1e-12, exps
    with capsys.disabled():
        print("\nACCEPTANCE 5 (exponent-coupling exactness): PASS")


def test_criterion_6_scaling_laws(capsys):
    """Mass scaling moves the operator and norms by the right powers;
    metric scaling moves nothing; empirical constants are invariant."""
    sp = generate_space(SpaceSpec("gaussian-grid", n=16, dim=1, halfwidth=3.0))
    exps = ExponentSet.from_pqa(2.0, 1.5, 0.25)
    funcs = [
        generate_function(sp, FunctionSpec("random-uniform", seed=31)),
        generate_function(sp, FunctionSpec("power-spike", center=4, beta=1.0, cap=50.0)),
        generate_function(sp, FunctionSpec("constant", value=1.0)),
    ]
    balls = enumerate_balls(sp, limit=8, seed=0)
    for lam in (0.5, 3.0):
        mass_sp = MetricMeasureSpace(sp.dist, lam * sp.mass)
        metric_sp = MetricMeasureSpace(lam * sp.dist, sp.mass)
        for f in funcs:
            base_pot = fractional_integral(sp, f, exps.alpha)
            np.testing.assert_allclose(
                fractional_integral(mass_sp, f, exps.alpha), lam**exps.alpha * base_pot, rtol=1e-10
            )
            np.testing.assert_allclose(fractional_integral(metric_sp, f, exps.alpha), base_pot, rtol=1e-10)
            base_norm = morrey_norm(sp, f, exps.p, 1.0, 2.0)
            assert morrey_norm(mass_sp, f, exps.p, 1.0, 2.0) == pytest.approx(
                lam ** (1.0 / exps.p) * base_norm, rel=1e-10
            )
            assert morrey_norm(metric_sp, f, exps.p, 1.0, 2.0) == pytest.approx(base_norm, rel=1e-10)

            # empirical constants under both scalings
            b2 = check_T2_hedberg(sp, f, exps.p, exps.alpha).empirical_constant.item()
            assert check_T2_hedberg(mass_sp, f, exps.p, exps.alpha).empirical_constant.item() == pytest.approx(b2, rel=1e-9)
            assert check_T2_hedberg(metric_sp, f, exps.p, exps.alpha).empirical_constant.item() == pytest.approx(b2, rel=1e-9)
            b6 = check_T6_strong(sp, f, exps).empirical_constant.item()
            assert check_T6_strong(mass_sp, f, exps).empirical_constant.item() == pytest.approx(b6, rel=1e-9)
            assert check_T6_strong(metric_sp, f, exps).empirical_constant.item() == pytest.approx(b6, rel=1e-9)
            b7 = check_T7_maximal_morrey(sp, f, exps.p, exps.q).empirical_constant.item()
            assert check_T7_maximal_morrey(mass_sp, f, exps.p, exps.q).empirical_constant.item() == pytest.approx(b7, rel=1e-9)
            assert check_T7_maximal_morrey(metric_sp, f, exps.p, exps.q).empirical_constant.item() == pytest.approx(b7, rel=1e-9)

            mf = maximal(sp, f, 2.0)
            pot = fractional_integral(sp, f, exps.alpha)
            for a, r in balls:
                g1 = 0.4 * float(mf.max())
                c = check_T1_weak_maximal(sp, f, [(a, r)], exps.p, [g1]).empirical_constant.item()
                assert check_T1_weak_maximal(mass_sp, f, [(a, r)], exps.p, [g1]).empirical_constant.item() == pytest.approx(c, rel=1e-9)
                assert check_T1_weak_maximal(metric_sp, f, [(a, lam * r)], exps.p, [g1]).empirical_constant.item() == pytest.approx(c, rel=1e-9)
                g3 = 0.4 * float(pot.max())
                c3 = check_T3_weak_frac(sp, f, [(a, r)], exps, [g3]).empirical_constant.item()
                assert check_T3_weak_frac(mass_sp, f, [(a, r)], exps, [lam**exps.alpha * g3]).empirical_constant.item() == pytest.approx(c3, rel=1e-9)
                assert check_T3_weak_frac(metric_sp, f, [(a, lam * r)], exps, [g3]).empirical_constant.item() == pytest.approx(c3, rel=1e-9)
            cw = check_weak_L1(sp, f, [0.5 * float(mf.max())]).empirical_constant.item()
            assert check_weak_L1(mass_sp, f, [0.5 * float(mf.max())]).empirical_constant.item() == pytest.approx(cw, rel=1e-9)
            assert check_weak_L1(metric_sp, f, [0.5 * float(mf.max())]).empirical_constant.item() == pytest.approx(cw, rel=1e-9)
    with capsys.disabled():
        print("\nACCEPTANCE 6 (scaling laws): PASS")


def test_criterion_7_extremal_dominance_and_determinism(capsys):
    sp = generate_space(SpaceSpec("grid", n=8, dim=1, halfwidth=0.5))
    exps = ExponentSet.from_pqa(2.0, 1.5, 0.25)
    cfg = OptimizerConfig(seed=13, restarts=6, max_iters=400)
    for check in ("T2", "T6", "T7"):
        objective = make_objective(sp, check, exps, seed=cfg.seed)
        corpus_max = max(objective(np.abs(f)) for _, f in corpus_functions(sp))
        res = estimate_constant(sp, check, exps, cfg)
        assert res.best_ratio >= corpus_max - 1e-12, (check, res.best_ratio, corpus_max)
        again = estimate_constant(sp, check, exps, cfg)
        assert res.best_ratio == again.best_ratio
        np.testing.assert_array_equal(res.argmax_f, again.argmax_f)
        assert res.trace == again.trace
    # The sharp T1 and weakL1 constant of a finite space is 1
    # (tests/test_theorems.py::TestSharpConstant), so no estimate exceeds it.
    ulps = 3 * np.spacing(1.0)
    short = OptimizerConfig(seed=13, restarts=2, max_iters=48)
    for check in ("T1", "weakL1"):
        res = estimate_constant(sp, check, exps, short)
        assert 0.0 < res.best_ratio <= 1.0 + ulps, (check, res.best_ratio)
    with capsys.disabled():
        print("\nACCEPTANCE 7 (extremal dominance and determinism): PASS")


def test_criterion_8_kappa_sweep_monotonicity(corpus, capsys):
    p, alpha = 2.0, 0.25
    for fspec in (
        FunctionSpec("random-uniform", seed=777),
        FunctionSpec("random-sparse", seed=778, density=0.3),
        FunctionSpec("constant", value=1.0),
    ):
        spaces = [sp for _, sp in corpus]
        rows = kappa_sweep([(sp, generate_function(sp, fspec)) for sp in spaces], alpha, p, [1.0, 2.0])
        by_instance = {}
        for r in rows:
            by_instance.setdefault(r["instance"], {})[r["kappa"]] = r["ratio"]
        for idx, sp in enumerate(spaces):
            vals = by_instance[idx]
            assert vals[1.0] >= vals[2.0] * (1 - 1e-12)
            f = generate_function(sp, fspec)
            assert vals[2.0] == check_T2_hedberg(sp, f, p, alpha).lhs.item()
    with capsys.disabled():
        print("\nACCEPTANCE 8 (kappa-sweep monotonicity): PASS")


# sha256 of the seed-0 corpus run's files, with the tool version they were
# taken at.  A change that alters report bytes on purpose bumps __version__
# and re-pins both digests here.
CORPUS_PINNED = (
    "0.2.0",
    {
        "report.json": "d2dd4bf8ab55f19c4e56c8b800561832cac8ced44165223c8d9c3148de7aaa17",
        "records.csv": "0d4006f338bba44a6924cbce257a27bfe097bb8a567c4fb0afcc3cda6a921040",
    },
)


def test_criterion_9_end_to_end_determinism(tmp_path, capsys):
    here = os.path.dirname(os.path.abspath(__file__))
    cfg = os.path.join(here, "..", "configs", "corpus.json")
    assert cli.main(["--quiet", "run", cfg, "--out", str(tmp_path / "a")]) == 0
    assert cli.main(["--quiet", "run", cfg, "--out", str(tmp_path / "b")]) == 0
    pinned_version, pinned = CORPUS_PINNED
    for name in ("report.json", "records.csv"):
        data = (tmp_path / "a" / name).read_bytes()
        assert data == (tmp_path / "b" / name).read_bytes(), name
        assert (__version__, hashlib.sha256(data).hexdigest()) == (pinned_version, pinned[name]), name
    records = json.loads((tmp_path / "a" / "report.json").read_text())["records"]
    assert not any("error" in r for r in records)
    with capsys.disabled():
        print("\nACCEPTANCE 9 (end-to-end determinism): PASS")


def test_corpus_run_as_a_program(tmp_path):
    """``python -m morrey_lab.cli`` in a fresh interpreter, as users and the
    benchmark run it: the ``__main__`` path, the exit code, silence under
    ``--quiet`` and the pinned bytes, through interpreter shutdown."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    cfg = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "configs", "corpus.json")
    argv = [sys.executable, "-m", "morrey_lab.cli", "--quiet", "run", cfg, "--out", str(tmp_path)]
    proc = subprocess.run(argv, env=env, capture_output=True, timeout=300)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
    pinned_version, pinned = CORPUS_PINNED
    assert pinned_version == __version__
    for name in ("report.json", "records.csv"):
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == pinned[name], name

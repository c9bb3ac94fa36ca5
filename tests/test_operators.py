import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from morrey_lab import space as space_module
from morrey_lab.cli import parse_config
from morrey_lab.functions import ExponentOutOfRange, morrey_norm
from morrey_lab.generators import FunctionSpec, SpaceSpec, generate_function, generate_space
from morrey_lab.operators import fractional_integral, hedberg_constant, maximal
from morrey_lab.space import MetricMeasureSpace

from conftest import (
    assert_operators_equal_expression_forms,
    brute_maximal,
    default_k_range,
    hedberg_layer_sum,
    layer_radii,
    random_space,
    single_point_space,
    table_spaces,
    two_point_space,
)


class TestMaximal:
    def test_single_point(self):
        sp = single_point_space(mass=0.3)
        assert maximal(sp, [4.0], 2.0).tolist() == [4.0]

    def test_two_point(self):
        sp = two_point_space()
        assert maximal(sp, [1.0, 0.0], 2.0).tolist() == [1.0, 0.5]

    def test_constant_fixed_point(self):
        for seed in range(6):
            sp = random_space(seed)
            mf = maximal(sp, np.full(sp.n, 2.5), 2.0)
            np.testing.assert_allclose(mf, 2.5, rtol=1e-12)

    def test_k_below_one_rejected(self):
        sp = two_point_space()
        with pytest.raises(ExponentOutOfRange):
            maximal(sp, [1.0, 0.0], 0.5)

    def test_matches_dense_grid_brute_force(self):
        for seed in range(12):
            sp = random_space(seed)
            f = np.random.default_rng(seed + 50).uniform(0, 2, sp.n)
            for k in (1.0, 2.0, 6.0):
                exact = maximal(sp, f, k)
                brute = brute_maximal(sp, f, k)
                assert np.all(brute <= exact * (1 + 1e-9))
                np.testing.assert_allclose(exact, brute, rtol=1e-9)

    def test_sublinearity(self):
        sp = random_space(23)
        g1 = np.random.default_rng(1).uniform(0, 1, sp.n)
        g2 = np.random.default_rng(2).uniform(0, 1, sp.n)
        lhs = maximal(sp, g1 + g2, 2.0)
        rhs = maximal(sp, g1, 2.0) + maximal(sp, g2, 2.0)
        assert np.all(lhs <= rhs * (1 + 1e-12))
        np.testing.assert_allclose(maximal(sp, -3.0 * g1, 2.0), 3.0 * maximal(sp, g1, 2.0), rtol=1e-12)

    def test_monotone_and_scaling(self):
        sp = random_space(29)
        g = np.random.default_rng(3).uniform(0, 1, sp.n)
        f = g * np.random.default_rng(4).uniform(0, 1, sp.n)
        assert np.all(maximal(sp, f, 2.0) <= maximal(sp, g, 2.0) * (1 + 1e-12))
        metric = MetricMeasureSpace(2.0 * sp.dist, sp.mass)
        mass = MetricMeasureSpace(sp.dist, 0.5 * sp.mass)
        np.testing.assert_allclose(maximal(metric, g, 2.0), maximal(sp, g, 2.0), rtol=1e-12)
        np.testing.assert_allclose(maximal(mass, g, 2.0), maximal(sp, g, 2.0), rtol=1e-10)


class TestFractionalIntegral:
    def test_single_point(self):
        sp = single_point_space(mass=0.4)
        out = fractional_integral(sp, [3.0], 0.25)
        assert out[0] == pytest.approx(3.0 * 0.4**0.25, rel=1e-14)

    def test_two_point_hand_sum(self):
        sp = two_point_space()
        alpha = 0.3
        out = fractional_integral(sp, [1.0, 0.0], alpha)
        assert out[0] == pytest.approx(1.0, rel=1e-14)
        assert out[1] == pytest.approx(2.0 ** (alpha - 1.0), rel=1e-14)

    def test_mass_scaling_power_alpha(self):
        sp = random_space(31)
        f = np.random.default_rng(5).uniform(0, 1, sp.n)
        alpha = 0.2
        for lam in (0.5, 3.0):
            scaled = MetricMeasureSpace(sp.dist, lam * sp.mass)
            np.testing.assert_allclose(
                fractional_integral(scaled, f, alpha),
                lam**alpha * fractional_integral(sp, f, alpha),
                rtol=1e-10,
            )

    def test_metric_scaling_invariance(self):
        sp = random_space(37)
        f = np.random.default_rng(6).uniform(0, 1, sp.n)
        scaled = MetricMeasureSpace(3.0 * sp.dist, sp.mass)
        np.testing.assert_allclose(
            fractional_integral(scaled, f, 0.25), fractional_integral(sp, f, 0.25), rtol=1e-12
        )

    def test_linearity_on_nonnegative_cone(self):
        sp = random_space(41)
        g1 = np.random.default_rng(7).uniform(0, 1, sp.n)
        g2 = np.random.default_rng(8).uniform(0, 1, sp.n)
        np.testing.assert_allclose(
            fractional_integral(sp, g1 + g2, 0.25),
            fractional_integral(sp, g1, 0.25) + fractional_integral(sp, g2, 0.25),
            rtol=1e-12,
        )
        np.testing.assert_allclose(
            fractional_integral(sp, 2.5 * g1, 0.25), 2.5 * fractional_integral(sp, g1, 0.25), rtol=1e-12
        )
        assert np.all(
            fractional_integral(sp, g1 * g2, 0.25) <= fractional_integral(sp, g1, 0.25) * (1 + 1e-12)
        )

    @pytest.mark.parametrize("kappa", [0.0, -1.0, math.nan])
    def test_kappa_must_be_positive(self, kappa):
        sp = two_point_space()
        with pytest.raises(ExponentOutOfRange, match="kappa"):
            fractional_integral(sp, [1.0, 1.0], 0.25, kappa=kappa)

    def test_kernel_monotone_in_kappa(self):
        sp = random_space(43)
        f = np.random.default_rng(9).uniform(0, 1, sp.n)
        prev = None
        for kappa in (0.5, 1.0, 2.0):
            cur = fractional_integral(sp, f, 0.25, kappa=kappa)
            if prev is not None:
                assert np.all(prev >= cur * (1 - 1e-12))
            prev = cur


class TestLayerRadii:
    def test_single_point_step(self):
        sp = single_point_space(mass=1.0)
        assert layer_radii(sp, 0, (-3, 3)).tolist() == [0.0] * 3 + [math.inf] * 4  # k = -3 .. 3

    def test_two_point_scan(self):
        sp = two_point_space()
        assert layer_radii(sp, 0, (-2, 2)).tolist() == [0.0, 0.0, 0.5, math.inf, math.inf]  # k = -2 .. 2

    def test_nondecreasing_in_k(self):
        for seed in range(8):
            sp = random_space(seed)
            lo, hi = default_k_range(sp)
            for x in range(sp.n):
                radii = layer_radii(sp, x)
                assert radii.shape == (hi - lo + 1,)
                assert np.all(radii[1:] >= radii[:-1])

    def test_default_range_saturates(self):
        sp = random_space(3)
        lo, hi = default_k_range(sp)
        radii = layer_radii(sp, 0, (lo - 2, hi + 2))  # radii[i] is R_{lo - 2 + i}
        assert radii[0] == radii[1] == radii[2] == 0.0
        assert radii[hi - lo + 2] == math.inf


class TestHedbergConstant:
    def test_closed_form_value(self):
        # p=2, alpha=1/4 collapses to 2^{3/4} * 2 / (1 - 2^{-1/4})
        expect = 2.0**0.75 * 2.0 / (1.0 - 2.0**-0.25)
        assert hedberg_constant(2.0, 0.25) == pytest.approx(expect, rel=1e-15)
        assert hedberg_constant(2.0, 0.25) == pytest.approx(21.1408540315, rel=1e-10)

    def test_diverges_as_alpha_vanishes(self):
        assert hedberg_constant(2.0, 1e-8) > 1e7

    def test_at_least_two_on_grid(self):
        for p in (1.1, 1.5, 2.0, 4.0, 16.0):
            for frac in (0.05, 0.3, 0.6, 0.95):
                alpha = frac / p
                assert hedberg_constant(p, alpha) >= 2.0

    @pytest.mark.parametrize("p,alpha", [(2.0, 0.25), (4.0, 0.125), (1.5, 0.5)])
    def test_cross_check_series_maximization(self, p, alpha):
        # maximize sum_k 2^{k*alpha} min(A, 2^{-k/p}) / A^{1-p*alpha} over A
        ks = np.arange(-400, 400)
        best = 0.0
        for a in np.geomspace(1e-6, 1e6, 4001):
            series = float(np.sum(2.0 ** (ks * alpha) * np.minimum(a, 2.0 ** (-ks / p))))
            best = max(best, series / a ** (1.0 - p * alpha))
        bound = 2.0 ** (1.0 - alpha) * best
        assert bound <= hedberg_constant(p, alpha) <= 2.0 * bound

    def test_rejects_bad_exponents(self):
        with pytest.raises(ExponentOutOfRange):
            hedberg_constant(2.0, 0.5)
        with pytest.raises(ExponentOutOfRange):
            hedberg_constant(0.9, 0.1)


class TestLayerSum:
    @pytest.mark.parametrize("p,alpha", [(2.0, 0.25), (4.0, 0.125), (1.5, 0.5)])
    def test_two_sided_bound(self, p, alpha):
        # layer sum dominates the potential and is dominated by the
        # explicit-constant product
        for seed in range(10):
            sp = random_space(seed)
            f = np.random.default_rng(seed + 300).uniform(0, 2, sp.n)
            pot = fractional_integral(sp, f, alpha)
            lsum = hedberg_layer_sum(sp, f, alpha)
            assert np.all(pot <= lsum * (1 + 1e-12))
            mf = maximal(sp, f, 2.0)
            norm = morrey_norm(sp, f, p, 1.0, 2.0)
            upper = hedberg_constant(p, alpha) * mf ** (1.0 - p * alpha) * norm ** (p * alpha)
            assert np.all(lsum <= upper * (1 + 1e-12))


def loop_maximal(space, f, k):
    """The per-point loop that ``maximal`` replaced, kept as the reference."""
    cum = space.cumulative(np.abs(f) * space.mass)
    out = np.empty(space.n)
    for x in range(space.n):
        denom = space.closed_measure(x, k * space.sorted_dist(x))
        out[x] = float((cum[x] / denom).max())
    return out


def loop_morrey_norm(space, f, p, q, k):
    """The per-point loop that ``morrey_norm`` replaced, kept as the reference."""
    e = 1.0 / p - 1.0 / q
    cum = space.cumulative(np.abs(f) ** q * space.mass)
    best = 0.0
    for x in range(space.n):
        norm_mass = space.closed_measure(x, k * space.sorted_dist(x))
        vals = norm_mass**e * cum[x] ** (1.0 / q) if e != 0.0 else cum[x] ** (1.0 / q)
        m = float(vals.max())
        if m > best:
            best = m
    return best


def loop_fractional_integral(space, f, alpha, kappa):
    """The per-point closed-ball loop that ``fractional_integral`` replaced."""
    fm = f * space.mass
    out = np.empty(space.n)
    for x in range(space.n):
        km = space.closed_measure(x, kappa * space.dist[x])
        out[x] = float(np.sum(fm * km ** (alpha - 1.0)))
    return out


class TestDilatedTable:
    def test_operators_equal_per_point_loops_bitwise(self):
        for i, sp in enumerate(table_spaces()):
            g = np.random.default_rng(i + 500)
            fs = [g.uniform(0.0, 3.0, sp.n), np.where(g.uniform(size=sp.n) < 0.3, 2.0, 0.0), np.zeros(sp.n)]
            for f in fs:
                for k in (1.0, 2.0, 6.0):
                    assert np.array_equal(maximal(sp, f, k), loop_maximal(sp, f, k))
                    for p, q in ((2.0, 1.0), (4.0, 1.0), (2.0, 1.5), (4.0, 2.0), (2.0, 2.0), (4.0, 4.0)):
                        assert morrey_norm(sp, f, p, q, k) == loop_morrey_norm(sp, f, p, q, k), (i, k, p, q)
                for kappa in (1.0, 1.5, 2.0):
                    for alpha in (0.125, 0.25, 0.5):
                        got = fractional_integral(sp, f, alpha, kappa=kappa)
                        assert np.array_equal(got, loop_fractional_integral(sp, f, alpha, kappa)), (i, kappa)

    def test_table_built_once_per_space_and_k(self, monkeypatch):
        """Each k's index table is built once per space, one row per point, and
        kept read-only: idx[x, j] is the column of ``csum0`` holding
        mu(closed ball(x, k * sorted_dist(x)[j])), in the smallest unsigned
        dtype that holds n, and ``dilated_measure`` reads through it."""
        sp = generate_space(SpaceSpec("ultrametric-tree", depth=3))
        f = np.random.default_rng(3).uniform(0.0, 2.0, sp.n)
        calls = []
        original = space_module._closed_rank

        def counted(row, radii):
            calls.append(len(row))
            return original(row, radii)

        monkeypatch.setattr(space_module, "_closed_rank", counted)
        maximal(sp, f, 2.0)
        assert len(calls) == sp.n
        morrey_norm(sp, f, 2.0, 1.0, 2.0)
        fractional_integral(sp, f, 0.25)
        maximal(sp, 2.0 * f, 2.0)
        assert len(calls) == sp.n
        index = sp._cache[("dilated", 2.0)]
        assert list(sp._cache) == [("dilated", 2.0)]
        assert index.dtype == np.min_scalar_type(sp.n) and index.shape == (sp.n, sp.n)
        assert not index.flags.writeable
        with pytest.raises(ValueError):
            index[0, 0] = 0
        want = [np.searchsorted(sp.sorted_dist(x), 2.0 * sp.sorted_dist(x), side="right") for x in range(sp.n)]
        assert np.array_equal(index, want)
        assert np.array_equal(sp.dilated_measure(2.0), np.take_along_axis(sp.csum0, index.astype(int), axis=1))
        sp.dilated_measure(6.0, 0)
        assert len(calls) == 2 * sp.n and sp._cache[("dilated", 2.0)] is index

    @pytest.mark.parametrize("n", [255, 256, 257])
    def test_index_holds_n(self, n):
        """The last column of every row, k >= 1, is index n, the whole space:
        at n = 256 a uint8 table would wrap it to 0.  Rows read as an int, a
        slice across a block edge and the whole table agree."""
        sp = random_space(n, n)
        for k in (1.0, 6.0):
            whole = sp.dilated_measure(k)
            assert np.array_equal(whole[:, -1], sp.csum0[:, -1]), k
            assert sp._cache[("dilated", k)].max() == n
            rows = [sp.closed_measure(x, k * sp.sorted_dist(x)) for x in range(n)]
            assert np.array_equal(whole, rows), k
            assert np.array_equal(sp.dilated_measure(k, n - 1), whole[n - 1])
            assert np.array_equal(sp.dilated_measure(k, slice(60, 130)), whole[60:130])

    def test_index_table_is_a_quarter_table(self):
        """At n = 512 one index table (uint16) retains a quarter of one n x n
        float table, with less than a row's bytes besides."""
        sp = generate_space(SpaceSpec("random-points", n=512, dim=2, seed=1))
        table = sp.n * sp.n * 8
        tracemalloc.start()
        try:
            sp.dilated_measure(2.0, 0)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert sp._cache[("dilated", 2.0)].dtype == np.uint16
        assert kept <= table / 4 + 8 * sp.n, kept / table


def traced_peak(call) -> int:
    """The ``tracemalloc`` peak of ``call()`` in bytes, above what was allocated before it."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestInPlaceTemporaries:
    def test_corpus_values_equal_expression_forms(self):
        """The operators work one block of rows at a time and reuse its
        temporaries in place; on every corpus (space, function) their values
        stay those of the one-expression forms, and the cached tables are
        untouched."""
        here = os.path.dirname(os.path.abspath(__file__))
        with open(os.path.join(here, "..", "configs", "corpus.json"), encoding="utf-8") as fh:
            cfg = parse_config(json.load(fh))
        for _, sspec in cfg.spaces:
            sp = generate_space(sspec)
            for _, fspec in cfg.functions:
                assert_operators_equal_expression_forms(sp, generate_function(sp, fspec))

    @pytest.mark.parametrize("n", [63, 64, 65, 129])
    def test_values_across_row_block_edges(self, n):
        """Spaces of one row short of a 64-row block, one block, one row past it
        and two blocks plus a row keep the one-expression values."""
        g = np.random.default_rng(n)
        for sp in (random_space(n, n), generate_space(SpaceSpec("ultrametric-tree", depth=7))):  # tree: tied distances
            for f in (g.uniform(0.0, 3.0, sp.n), np.where(g.uniform(size=sp.n) < 0.1, 2.0, 0.0)):
                assert_operators_equal_expression_forms(sp, f)

    def test_operators_hold_one_row_block(self):
        """With the k = 2 and k = 6 tables built, each operator's traced peak at
        n = 512 stays under half of one n x n table; the 64 x n block and its
        temporaries are 0.5 MiB of the 2 MiB table.  Reading a row of a new k
        builds its index table, a quarter of a float table, and holds one block
        of sorted rows besides, not a float table."""
        sp = generate_space(SpaceSpec("random-points", n=512, dim=2, seed=1))
        f = generate_function(sp, FunctionSpec("random-uniform", seed=1))
        for k in (2.0, 6.0):
            sp.dilated_measure(k)
        table = sp.n * sp.n * 8
        assert traced_peak(lambda: maximal(sp, f, 2.0)) < table / 2
        assert traced_peak(lambda: fractional_integral(sp, f, 0.25, kappa=2.0)) < table / 2
        assert traced_peak(lambda: morrey_norm(sp, f, 2.0, 1.5, 6.0)) < table / 2
        assert traced_peak(lambda: sp.dilated_measure(1.5, 0)) < 1.25 * table


def tree_block_sums(depth, w):
    """sums[b, x]: the sum of ``w`` over leaf x's block of 2**b leaves, b = 0 .. depth,
    with ``w`` padded by zeros to all 2**depth leaves."""
    w = np.concatenate([w, np.zeros((1 << depth) - len(w))])
    return np.array([np.repeat(w.reshape(-1, 1 << b).sum(axis=1), 1 << b) for b in range(depth + 1)])


def tree_dilated_levels(depth, k):
    """levels[b]: the block level of the closed ball B(x, k r) at the radius r = 2**(b - depth)
    of x's block at level b: x alone at r = 0, else the block of 2**(b + floor(log2 k)) leaves."""
    return [0] + [min(depth, b + math.floor(math.log2(k))) for b in range(1, depth + 1)]


def tree_operators(depth, mass, f):
    """maximal (k = 2, 6), fractional_integral (alpha = 0.25, kappa = 2) and morrey_norm
    (p = 2, q = 1.5, k = 2) on a prefix of the leaves of an ultrametric tree, from block sums:
    every closed ball is x's block at some level, cut to the prefix."""
    m = len(mass)
    mu = tree_block_sums(depth, mass)[:, :m]  # past the prefix a block of zero mass would divide 0 by 0
    w = tree_block_sums(depth, np.abs(f) * mass)[:, :m]
    maximals = [(w / mu[tree_dilated_levels(depth, k)]).max(axis=0) for k in (2.0, 6.0)]
    kernel = mu[tree_dilated_levels(depth, 2.0)] ** (0.25 - 1.0)
    fm, x = tree_block_sums(depth, f * mass), np.arange(m)
    frac = fm[0, :m] * kernel[0]  # x's own atom; layer b is the sibling block at level b - 1
    for b in range(1, depth + 1):
        frac += fm[b - 1][x ^ (1 << (b - 1))] * kernel[b]
    wq = tree_block_sums(depth, np.abs(f) ** 1.5 * mass)[:, :m]
    norm = (wq ** (1.0 / 1.5) * mu[tree_dilated_levels(depth, 2.0)] ** (1.0 / 2.0 - 1.0 / 1.5)).max()
    return maximals, frac, norm


class TestTreeOracle:
    @pytest.mark.parametrize("depth,m", [(8, 256), (9, 512), (10, 1024), (8, 255), (9, 257)])
    def test_operators_equal_block_sums(self, depth, m):
        """maximal, fractional_integral and morrey_norm on the first m leaves of
        a depth-``depth`` tree, masses spread over six decades and a 30 % sparse
        f, equal the closed form within 1e-12: a prefix reaches a partial last
        row block and the dtype edges of ``order`` and the index tables at 256."""
        g = np.random.default_rng(depth * m)
        dist = generate_space(SpaceSpec("ultrametric-tree", depth=depth)).dist
        mass = 10.0 ** g.uniform(-3.0, 3.0, m)
        f = np.where(g.random(m) < 0.3, g.random(m), 0.0)
        sp = MetricMeasureSpace(dist[:m, :m], mass)
        maximals, frac, norm = tree_operators(depth, mass, f)
        for k, want in zip((2.0, 6.0), maximals):
            np.testing.assert_allclose(maximal(sp, f, k), want, rtol=1e-12)
        np.testing.assert_allclose(fractional_integral(sp, f, 0.25, kappa=2.0), frac, rtol=1e-12)
        assert morrey_norm(sp, f, 2.0, 1.5, 2.0) == pytest.approx(norm, rel=1e-12)


class TestLayerTable:
    def test_reference_gaussian_grid_has_151_layers(self):
        lo, hi = default_k_range(generate_space(SpaceSpec("gaussian-grid", n=256, dim=1, halfwidth=10.0)))
        assert hi - lo + 1 == 151

import numpy as np
import pytest

from morrey_lab import generators
from morrey_lab.generators import (
    FunctionSpec,
    InvalidSpec,
    SpaceSpec,
    generate_function,
    generate_space,
)
from morrey_lab.space import doubling_ratio, find_violations


def loop_ball_indicator(space, center, radius, value):
    """The membership-set construction that the distance mask replaced, kept as the reference."""
    f = np.zeros(space.n)
    f[[y for y in range(space.n) if space.dist[center, y] <= radius]] = value
    return f


def broadcast_euclidean(points):
    """The one-broadcast distance table that the row-block form replaced, kept
    as the reference: the (n, n, dim) differences, then the upper triangle
    mirrored onto the lower one."""
    diff = points[:, None, :] - points[None, :, :]
    d = np.triu(np.sqrt(np.sum(diff * diff, axis=2)), 1)
    return d + d.T


class TestSpaces:
    def test_lebesgue_grid_normalization(self):
        sp = generate_space(SpaceSpec("grid", n=4, dim=1, halfwidth=0.5))
        assert sp.n == 4
        assert np.unique(np.diff(np.sort(sp.dist[0]))).tolist() == [0.25]
        assert sp.total_mass == pytest.approx(1.0, rel=1e-12)

    def test_grid_2d(self):
        sp = generate_space(SpaceSpec("grid", n=4, dim=2, halfwidth=1.0))
        assert sp.n == 16
        assert sp.total_mass == pytest.approx(4.0, rel=1e-12)

    def test_gaussian_grid_is_non_doubling(self):
        sp = generate_space(SpaceSpec("gaussian-grid", n=256, dim=1, halfwidth=10.0))
        ratio, _ = doubling_ratio(sp)
        assert ratio > 10.0

    def test_ultrametric_tree(self):
        sp = generate_space(SpaceSpec("ultrametric-tree", depth=3))
        assert sp.n == 8
        d = sp.dist
        # strong (max-form) triangle inequality
        for i in range(8):
            for j in range(8):
                for k in range(8):
                    assert d[i, k] <= max(d[i, j], d[j, k]) + 1e-15

    @pytest.mark.parametrize("depth", [0, 1, 2, 5, 8])
    def test_ultrametric_tree_matches_bit_length_loop(self, depth):
        n = 2**depth
        lca = np.zeros((n, n), dtype=int)
        for i in range(n):
            for j in range(n):
                lca[i, j] = depth - (i ^ j).bit_length()
        ref = np.where(lca == depth, 0.0, 2.0 ** (-lca.astype(float)))
        assert np.array_equal(generate_space(SpaceSpec("ultrametric-tree", depth=depth)).dist, ref)

    def test_euclidean_equals_broadcast_form(self, monkeypatch):
        """Bit for bit, non-finite entries included, on every grid family in
        dims 1-3 and on random points, with tables of 1 to 3 row blocks; a
        halfwidth of 1e200 overflows the squares to inf and one of 1e308 the
        grid step, so every coordinate is inf and every difference NaN."""
        seen = []
        original = generators._euclidean
        monkeypatch.setattr(generators, "_euclidean", lambda points: seen.append(points) or original(points))
        specs = [
            SpaceSpec(family, n=n, dim=dim, beta=2.0, halfwidth=5.0)
            for family in ("grid", "gaussian-grid", "radial-decay-grid")
            for dim, n in ((1, 130), (2, 9), (3, 5))
        ]
        specs += [SpaceSpec("random-points", n=n, dim=dim, seed=n) for n, dim in ((63, 1), (150, 2), (65, 3))]
        specs += [SpaceSpec("grid", n=9, dim=2, halfwidth=hw) for hw in (1e200, 1e308)]
        non_finite = 0
        for spec in specs:
            with np.errstate(over="ignore", invalid="ignore"):
                dist, _ = generators._space_arrays(spec)
                want = broadcast_euclidean(seen[-1])
            assert np.array_equal(dist.view(np.int64), want.view(np.int64)), spec
            non_finite += not np.all(np.isfinite(dist))
        assert non_finite == 2

    def test_all_families_validate(self):
        specs = [
            SpaceSpec("grid", n=8, dim=1),
            SpaceSpec("grid", n=3, dim=2),
            SpaceSpec("gaussian-grid", n=16, dim=1, halfwidth=5.0),
            SpaceSpec("radial-decay-grid", n=16, dim=1, beta=2.0, halfwidth=4.0),
            SpaceSpec("ultrametric-tree", depth=4),
            SpaceSpec("random-points", n=12, dim=2, seed=7),
        ]
        for spec in specs:
            sp = generate_space(spec)
            assert find_violations(sp.dist, sp.mass) == []

    def test_seed_determinism(self):
        a = generate_space(SpaceSpec("random-points", n=10, dim=3, seed=42))
        b = generate_space(SpaceSpec("random-points", n=10, dim=3, seed=42))
        c = generate_space(SpaceSpec("random-points", n=10, dim=3, seed=43))
        np.testing.assert_array_equal(a.dist, b.dist)
        assert not np.array_equal(a.dist, c.dist)

    def test_lebesgue_doubling_stable_in_n(self):
        ratios = []
        for n in (16, 64, 256):
            sp = generate_space(SpaceSpec("grid", n=n, dim=1, halfwidth=0.5))
            ratios.append(doubling_ratio(sp)[0])
        assert max(ratios) < 2.0 * min(ratios)

    def test_rejects_unknown_family(self):
        with pytest.raises(InvalidSpec):
            SpaceSpec("klein-bottle")


class TestFunctions:
    def setup_method(self):
        self.sp = generate_space(SpaceSpec("grid", n=8, dim=1))

    def test_constant(self):
        f = generate_function(self.sp, FunctionSpec("constant", value=2.5))
        assert np.all(f == 2.5)

    def test_ball_indicator_zero_radius(self):
        f = generate_function(self.sp, FunctionSpec("ball-indicator", center=3, radius=0.0, value=2.0))
        assert f[3] == 2.0 and np.count_nonzero(f) == 1

    def test_ball_indicator_equals_membership_loop(self):
        # the closed ball at every distance from the center, ties included
        specs = (SpaceSpec("grid", n=6, dim=2), SpaceSpec("ultrametric-tree", depth=4), SpaceSpec("random-points", n=24, dim=2, seed=3))
        for spec in specs:
            sp = generate_space(spec)
            for center in range(0, sp.n, 5):
                for radius in np.unique(sp.dist[center]):
                    spec_f = FunctionSpec("ball-indicator", center=center, radius=float(radius), value=2.0)
                    f = generate_function(sp, spec_f)
                    assert np.array_equal(f, loop_ball_indicator(sp, center, float(radius), 2.0)), (spec.family, center)

    def test_power_spike_capped(self):
        f = generate_function(self.sp, FunctionSpec("power-spike", center=0, beta=2.0, cap=10.0))
        assert f[0] == 10.0
        assert np.all(f <= 10.0) and np.all(f > 0.0)

    def test_random_families_nonnegative_and_deterministic(self):
        for family in ("random-sparse", "random-uniform"):
            f1 = generate_function(self.sp, FunctionSpec(family, seed=5))
            f2 = generate_function(self.sp, FunctionSpec(family, seed=5))
            f3 = generate_function(self.sp, FunctionSpec(family, seed=6))
            np.testing.assert_array_equal(f1, f2)
            assert not np.array_equal(f1, f3)
            assert np.all(f1 >= 0.0) and np.all(np.isfinite(f1))

    def test_rejects_bad_center(self):
        with pytest.raises(InvalidSpec):
            generate_function(self.sp, FunctionSpec("ball-indicator", center=99))

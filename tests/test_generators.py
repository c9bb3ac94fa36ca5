import tracemalloc

import numpy as np
import pytest

from morrey_lab import generators
from morrey_lab import space as space_module
from morrey_lab.generators import (
    SPACE_FAMILIES,
    FunctionSpec,
    InvalidSpec,
    SpaceSpec,
    generate_function,
    generate_space,
)
from morrey_lab.space import InvalidSpaceError, doubling_ratio, find_violations, validate_space

HALFWIDTHS = (1e-150, 1e-5, 1.0, 1e5, 1e150)


def family_specs(family):
    """Specs of ``family`` in dims 1-3 at every halfwidth of HALFWIDTHS (two
    seeds for random points), then at n = 255-257 (and 1024 for random
    points), which reach a partial last row block and the 256 dtype edges."""
    if family == "ultrametric-tree":
        return [SpaceSpec(family, depth=depth) for depth in range(9)]
    if family == "random-points":
        specs = [SpaceSpec(family, n=40, dim=dim, halfwidth=hw, seed=seed)
                 for dim in (1, 2, 3) for hw in HALFWIDTHS for seed in (0, 2**64 - 1)]
        return specs + [SpaceSpec(family, n=n, dim=2, seed=n) for n in (255, 256, 257, 1024)]
    specs = [SpaceSpec(family, n=n, dim=dim, beta=2.0, halfwidth=hw)
             for dim, n in ((1, 33), (2, 6), (3, 4)) for hw in HALFWIDTHS]
    return specs + [SpaceSpec(family, n=n, beta=2.0, halfwidth=4.0) for n in (255, 256, 257)]


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


def expression_tree(depth):
    """The one-expression tree distances that the row-block form replaced,
    kept as the reference: full n x n ``xor``, ``frexp`` and ``where`` tables."""
    idx = np.arange(2**depth)
    xor = idx[:, None] ^ idx[None, :]
    lca = depth - np.frexp(xor)[1]
    return np.where(xor == 0, 0.0, 2.0 ** (-lca.astype(float)))


class TestSpaces:
    def test_lebesgue_grid_normalization(self):
        sp = generate_space(SpaceSpec("grid", n=4, dim=1, halfwidth=0.5))
        assert sp.n == 4
        assert np.unique(np.diff(np.sort(sp.dist[0]))).tolist() == [0.25]
        assert sp.csum0[0, -1] == pytest.approx(1.0, rel=1e-12)

    def test_grid_2d(self):
        sp = generate_space(SpaceSpec("grid", n=4, dim=2, halfwidth=1.0))
        assert sp.n == 16
        assert sp.csum0[0, -1] == pytest.approx(4.0, rel=1e-12)

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

    def test_ultrametric_tree_equals_expression_form(self):
        """Bit for bit at depths 0 to 10, one row block to 16."""
        for depth in range(11):
            dist, _ = generators._space_arrays(SpaceSpec("ultrametric-tree", depth=depth))
            assert np.array_equal(dist.view(np.int64), expression_tree(depth).view(np.int64)), depth

    def test_ultrametric_tree_holds_one_row_block(self):
        """At depth 10 (n = 1024) the traced peak stays under 1.5 of the 8 MiB
        table it returns: one table plus one 64-row block of temporaries."""
        tracemalloc.start()
        try:
            generators._space_arrays(SpaceSpec("ultrametric-tree", depth=10))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 1024 * 1024 * 8

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
        """Every family is a metric: its distances have no violation wherever
        they are finite, in dims 1-3, at several n and seeds and at halfwidths
        from 1e-150 to 1e150.  generate_space returns the spaces whose masses
        pass too, and raises the full violation list for the others (a mass
        that underflows to 0 or overflows to inf)."""
        specs = [spec for family in SPACE_FAMILIES for spec in family_specs(family)]
        built = 0
        for spec in specs:
            try:
                sp = generate_space(spec)
            except InvalidSpaceError as exc:
                with np.errstate(over="ignore", invalid="ignore"):
                    dist, mass = generators._space_arrays(spec)
                assert exc.violations == find_violations(dist, mass), spec
                if np.all(np.isfinite(dist)):
                    assert find_violations(dist, np.ones(len(dist))) == [], spec
            else:
                assert find_violations(sp.dist, sp.mass) == [], spec
                built += 1
        assert built >= len(specs) // 2

    def test_valid_space_skips_the_triangle_screen(self, monkeypatch):
        """A valid generated space never enters the O(n^3) screen, and its
        tables are bitwise those of validate_space on the same arrays; an
        invalid one takes the full screen."""
        calls = []
        screen = space_module._triangle_violations
        monkeypatch.setattr(space_module, "_triangle_violations", lambda *args: calls.append(args) or screen(*args))
        for family in SPACE_FAMILIES:
            for spec in family_specs(family)[:3]:
                sp = generate_space(spec)
                assert calls == [], spec
                ref = validate_space(*generators._space_arrays(spec))
                assert len(calls) == 1, spec
                calls.clear()
                for name in ("dist", "mass", "order", "csum0"):
                    got, want = getattr(sp, name), getattr(ref, name)
                    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes()), (spec, name)
        with pytest.raises(InvalidSpaceError, match="NonpositiveMass"):
            generate_space(SpaceSpec("gaussian-grid", n=16, halfwidth=40.0))
        assert len(calls) == 1

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

    @pytest.mark.parametrize(
        "kwargs,accepted",
        [
            ({"family": "grid", "n": 4096}, True),
            ({"family": "gaussian-grid", "n": 64, "dim": 2}, True),
            ({"family": "radial-decay-grid", "n": 16, "dim": 3}, True),
            ({"family": "random-points", "n": 4096, "dim": 3}, True),
            ({"family": "ultrametric-tree", "depth": 12}, True),
            ({"family": "grid", "n": 4097}, False),
            ({"family": "grid", "n": 2, "dim": 13}, False),
            ({"family": "radial-decay-grid", "n": 17, "dim": 3}, False),
            ({"family": "random-points", "n": 4097}, False),
            ({"family": "ultrametric-tree", "depth": 13}, False),
            ({"family": "ultrametric-tree", "depth": 10**18}, False),
            ({"family": "grid", "n": 3, "dim": 10**18}, False),
        ],
        ids=["grid-4096", "grid-64x64", "grid-16x16x16", "points-4096", "tree-depth-12", "grid-4097", "grid-2-dim-13",
             "grid-17x17x17", "points-4097", "tree-depth-13", "tree-depth-1e18", "grid-dim-1e18"],
    )
    def test_max_points_at_parse_time(self, kwargs, accepted):
        """Only the spec is built: MAX_POINTS bounds n**dim, 2**depth or n,
        without raising anything to an absurd power."""
        assert generators.MAX_POINTS == 4096
        if accepted:
            assert SpaceSpec(**kwargs).family == kwargs["family"]
        else:
            with pytest.raises(InvalidSpec, match="at most MAX_POINTS = 4096 points"):
                SpaceSpec(**kwargs)


    @pytest.mark.parametrize(
        ("kwargs", "accepted"),
        [
            ({"family": "random-points", "n": 4096, "dim": 64}, True),
            ({"family": "grid", "n": 1, "dim": 262144}, True),
            ({"family": "grid", "n": 2, "dim": 12}, True),
            ({"family": "random-points", "n": 4096, "dim": 65}, False),
            ({"family": "grid", "n": 1, "dim": 262145}, False),
            ({"family": "random-points", "n": 4, "dim": 10**8}, False),
            ({"family": "grid", "n": 1, "dim": 10**8}, False),
        ],
        ids=["points-4096x64", "grid-1-dim-262144", "grid-2-dim-12", "points-4096x65", "grid-1-dim-262145",
             "points-4-dim-1e8", "grid-1-dim-1e8"],
    )
    def test_max_coordinates_at_parse_time(self, kwargs, accepted):
        """Only the spec is built: points x dim is at most MAX_POINTS * 64, so
        the 64-row difference block of the distances is at most one
        MAX_POINTS float table."""
        if accepted:
            assert SpaceSpec(**kwargs).dim == kwargs["dim"]
        else:
            with pytest.raises(InvalidSpec, match=r"at most MAX_POINTS \* 64 = 262144 coordinates"):
                SpaceSpec(**kwargs)


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

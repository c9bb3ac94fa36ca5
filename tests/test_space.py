import numpy as np
import pytest

from morrey_lab.generators import SpaceSpec, generate_space
from morrey_lab.space import (
    TRIANGLE_RTOL,
    InvalidSpaceError,
    Violation,
    doubling_ratio,
    find_violations,
    validate_space,
)

from conftest import (
    brute_doubling,
    line_space,
    random_space,
    reference_spaces,
    single_point_space,
    two_point_space,
)


class TestValidate:
    def test_smallest_nontrivial_metric(self):
        sp = validate_space([[0, 1], [1, 0]], [1, 1])
        assert sp.n == 2
        assert sp.total_mass == 2.0

    def test_asymmetry_reported(self):
        violations = find_violations([[0, 1], [2, 0]], [1, 1])
        assert any(v.kind == "Asymmetry" and v.indices == (0, 1) for v in violations)

    def test_triangle_violation(self):
        dist = [[0, 1, 5], [1, 0, 1], [5, 1, 0]]
        violations = find_violations(dist, [1, 1, 1])
        kinds = {(v.kind, v.indices) for v in violations}
        assert ("TriangleViolation", (0, 1, 2)) in kinds

    def test_nonzero_diagonal_and_negative(self):
        violations = find_violations([[1.0, -1.0], [-1.0, 0.0]], [1, 1])
        kinds = {v.kind for v in violations}
        assert "NonzeroDiagonal" in kinds and "NegativeDistance" in kinds

    def test_nonpositive_mass(self):
        violations = find_violations([[0, 1], [1, 0]], [1, 0])
        assert any(v.kind == "NonpositiveMass" and v.indices == (1,) for v in violations)

    def test_invalid_raises_with_all_violations(self):
        with pytest.raises(InvalidSpaceError) as exc:
            validate_space([[0, 1], [2, 0]], [1, -1])
        kinds = {v.kind for v in exc.value.violations}
        assert kinds == {"Asymmetry", "NonpositiveMass"}


class TestBalls:
    def test_closed_boundary_inclusion(self):
        sp = two_point_space()
        assert sp.closed_measure(0, 1.0) == 2.0

    def test_open_boundary_exclusion(self):
        sp = two_point_space()
        assert sp.open_measure(0, 1.0) == 1.0

    def test_closed_zero_radius_contains_center(self):
        for seed in range(5):
            sp = random_space(seed)
            for x in range(sp.n):
                assert sp.closed_measure(x, 0.0) >= sp.mass[x]

    def test_open_zero_radius_empty(self):
        sp = two_point_space()
        assert sp.open_measure(0, 0.0) == 0.0

    def test_measure_sums_atoms(self):
        sp = two_point_space(masses=(1.0, 2.0))
        assert sp.closed_measure(0, 1.0) == 3.0

    def test_single_point_whole_space(self):
        sp = single_point_space(mass=0.7)
        assert sp.closed_measure(0, 5.0) == 0.7

    def test_monotonicity_in_radius(self):
        for seed in range(10):
            sp = random_space(seed)
            x = seed % sp.n
            radii = np.sort(np.random.default_rng(seed).uniform(0, 2.5, size=8))
            for measure in (sp.open_measure, sp.closed_measure):
                assert np.all(np.diff(measure(x, radii)) >= 0.0)


class TestBreakpoints:
    """The breakpoints of x are the distinct entries of ``sorted_dist[x]``."""

    def test_line_endpoint(self):
        sp = line_space([0.0, 1.0, 2.0])
        assert sp.sorted_dist[0].tolist() == [0.0, 1.0, 2.0]

    def test_single_point(self):
        assert single_point_space().sorted_dist[0].tolist() == [0.0]

    def test_deduplication(self):
        # a tied distance is one breakpoint: both atoms enter the ball at once
        sp = line_space([-1.0, 0.0, 1.0])
        assert sp.sorted_dist[1].tolist() == [0.0, 1.0, 1.0]
        assert sp.open_measure(1, 1.0) == 1.0 and sp.closed_measure(1, 1.0) == 3.0

    def test_right_limit_identity(self):
        # closed ball at a breakpoint = open balls just above it
        for seed in range(10):
            sp = random_space(seed)
            for x in range(sp.n):
                bp = np.unique(sp.sorted_dist[x])
                gaps = np.diff(bp)
                g = float(gaps.min()) / 2.0 if gaps.size else 0.5
                for rho in bp:
                    closed = sp.closed_measure(x, float(rho))
                    for eps in (g, g / 10.0, g / 100.0):
                        assert sp.open_measure(x, float(rho) + eps) == closed


class TestDoubling:
    def test_single_point(self):
        ratio, _ = doubling_ratio(single_point_space())
        assert ratio == 1.0

    def test_two_point_witness(self):
        ratio, (x, c) = doubling_ratio(two_point_space())
        assert ratio == 2.0
        assert c == 0.5

    def test_gaussian_line_is_non_doubling(self):
        # 1D grid on [-10, 10], n=256, Gaussian masses
        n = 256
        h = 20.0 / n
        coords = -10.0 + h * (np.arange(n) + 0.5)
        sp = line_space(coords, h * np.exp(-(coords**2)))
        ratio, _ = doubling_ratio(sp)
        assert ratio > 10.0
        assert ratio == pytest.approx(brute_doubling(sp, count=2000), rel=1e-12)

    def test_matches_brute_force(self):
        for seed in range(20):
            sp = random_space(seed)
            ratio, _ = doubling_ratio(sp)
            brute = brute_doubling(sp)
            assert brute <= ratio * (1 + 1e-12)
            assert ratio == pytest.approx(brute, rel=1e-12)


class TestEngulfing:
    def test_doubled_ball_engulfs(self):
        # B(c, rho) centered inside B(a, r) and reaching past B(a, 3r)
        # must contain B(a, r) once its radius is doubled.
        for seed in range(8):
            sp = random_space(seed, n=10)
            checked = 0
            for a in range(sp.n):
                for rb in np.unique(sp.dist[a]):
                    for mult in (0.5, 1.0, 1.5):
                        r = float(rb) * mult
                        if r <= 0:
                            continue
                        inner = sp.dist[a] < r
                        far = sp.dist[a] >= 3 * r
                        if not inner.any() or not far.any():
                            continue
                        for c in np.nonzero(inner)[0]:
                            for rho_b in np.unique(sp.dist[c]):
                                for m2 in (0.5, 1.0, 1.5):
                                    rho = float(rho_b) * m2
                                    if not (far & (sp.dist[c] < rho)).any():
                                        continue
                                    doubled = sp.dist[c] < 2 * rho
                                    assert np.all(doubled[inner])
                                    checked += 1
            assert checked > 0


def loop_doubling_ratio(space):
    """The per-point loop that ``doubling_ratio`` replaced, kept as the reference."""
    best = 1.0
    witness = (0, 0.0)
    for x in range(space.n):
        bp = np.unique(space.dist[x])
        cand = np.unique(np.concatenate([[0.0], bp, bp / 2.0]))
        ratios = space.closed_measure(x, 2.0 * cand) / space.closed_measure(x, cand)
        j = int(np.argmax(ratios))
        if ratios[j] > best:
            best = float(ratios[j])
            witness = (x, float(cand[j]))
    return best, witness


def cube_find_violations(dist, mass):
    """The n^3-memory ``find_violations`` (one via[i, j, k] array), kept as
    the reference for the row-at-a-time triangle check."""
    dist = np.asarray(dist, dtype=float)
    mass = np.asarray(mass, dtype=float)
    out = []
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        return [Violation("Shape", (dist.shape,))]
    n = dist.shape[0]
    if mass.shape != (n,):
        return [Violation("Shape", (mass.shape,))]
    for i in np.nonzero(np.diag(dist) != 0.0)[0]:
        out.append(Violation("NonzeroDiagonal", (int(i),)))
    for i, j in np.argwhere(dist < 0.0):
        out.append(Violation("NegativeDistance", (int(i), int(j))))
    for i, j in np.argwhere(dist != dist.T):
        if i < j:
            out.append(Violation("Asymmetry", (int(i), int(j))))
    via = dist[:, :, None] + dist[None, :, :]
    tol = TRIANGLE_RTOL * np.maximum(via, 1.0)
    for i, j, k in np.argwhere(dist[:, None, :] > via + tol):
        if i != j and j != k:
            out.append(Violation("TriangleViolation", (int(i), int(j), int(k))))
    for i in np.nonzero(~(mass > 0.0))[0]:
        out.append(Violation("NonpositiveMass", (int(i),)))
    if not np.all(np.isfinite(dist)) or not np.all(np.isfinite(mass)):
        out.append(Violation("Shape", ("non-finite entries",)))
    return out


def row_find_violations(dist, mass):
    """The row loop that expanded every row of the triangle check into
    witnesses, kept as the reference for the min-plus screen."""
    dist = np.asarray(dist, dtype=float)
    mass = np.asarray(mass, dtype=float)
    out = []
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        return [Violation("Shape", (dist.shape,))]
    n = dist.shape[0]
    if mass.shape != (n,):
        return [Violation("Shape", (mass.shape,))]
    if n == 0:
        return [Violation("Shape", ("no points",))]
    for i in np.nonzero(np.diag(dist) != 0.0)[0]:
        out.append(Violation("NonzeroDiagonal", (int(i),)))
    for i, j in np.argwhere(dist < 0.0):
        out.append(Violation("NegativeDistance", (int(i), int(j))))
    for i, j in np.argwhere(dist != dist.T):
        if i < j:
            out.append(Violation("Asymmetry", (int(i), int(j))))
    for i in range(n):
        via = dist[i][:, None] + dist  # via[j, k]
        viol = dist[i][None, :] > via + TRIANGLE_RTOL * np.maximum(via, 1.0)
        for j, k in np.argwhere(viol):
            if i != j and j != k:
                out.append(Violation("TriangleViolation", (i, int(j), int(k))))
    for i in np.nonzero(~(mass > 0.0))[0]:
        out.append(Violation("NonpositiveMass", (int(i),)))
    if not np.all(np.isfinite(dist)) or not np.all(np.isfinite(mass)):
        out.append(Violation("Shape", ("non-finite entries",)))
    return out


def assert_same_violations(dist, mass):
    """find_violations equals both references, down to the index types."""
    got = find_violations(dist, mass)
    assert got == row_find_violations(dist, mass) == cube_find_violations(dist, mass)
    for v in got:
        if v.kind != "Shape":
            assert all(type(i) is int for i in v.indices), v
    return got


class TestTables:
    def test_doubling_ratio_equals_per_point_loop(self):
        for i, sp in enumerate(reference_spaces()):
            ratio, (x, r) = doubling_ratio(sp)
            want_ratio, (want_x, want_r) = loop_doubling_ratio(sp)
            assert (ratio, x, r) == (want_ratio, want_x, want_r), i
            assert type(ratio) is float and type(x) is int and type(r) is float

    def test_violations_equal_cube_version(self):
        g = np.random.default_rng(11)
        inputs = [
            ([[0.0, 1.0, 2.0]], [1.0]),  # not square
            ([[0.0, 1.0], [1.0, 0.0]], [1.0, 1.0, 1.0]),  # mass of the wrong length
            ([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]], [1.0, 1.0, 1.0]),
        ]
        for seed in range(40):
            sp = random_space(seed)
            dist, mass = sp.dist.copy(), sp.mass.copy()
            i, j = g.integers(0, sp.n, size=2)
            kind = seed % 8
            if kind == 1:
                dist[i, j] *= 3.0  # asymmetry, usually a triangle violation too
            elif kind == 2:
                dist[i, j] = dist[j, i] = 10.0 * dist[i, j] + 5.0
            elif kind == 3:
                dist[i, j] = -0.5
            elif kind == 4:
                dist[i, i] = 0.25
            elif kind == 5:
                mass[i] = -mass[i] if seed % 16 == 5 else 0.0
            elif kind == 6:
                dist[i, j] = np.nan if seed % 16 == 6 else np.inf
            elif kind == 7:
                dist = dist * (1.0 + 1e-13 * g.standard_normal(dist.shape))  # ulps near the slack
            inputs.append((dist, mass))
        n_invalid = 0
        for dist, mass in inputs:
            got = assert_same_violations(dist, mass)
            n_invalid += bool(got)
        assert n_invalid >= 30

    def test_tables_equal_stacked_forms(self):
        """``csum0``, filled a row block at a time, and each ``dilated_measure``
        table, filled a row at a time, equal the ``concatenate`` and
        ``np.array``-of-rows forms they replaced."""
        for sp in [*reference_spaces(), random_space(2, n=129)]:
            csum = np.cumsum(sp.mass[sp.order], axis=1)
            assert np.array_equal(sp.csum0, np.concatenate([np.zeros((sp.n, 1)), csum], axis=1))
            for k in (0.5, 1.0, 1.5, 2.0, 6.0):
                rows = np.array([sp.closed_measure(x, k * sp.sorted_dist[x]) for x in range(sp.n)])
                assert np.array_equal(sp.dilated_measure(k), rows), k

    def test_empty_space_is_a_shape_violation(self):
        assert find_violations(np.zeros((0, 0)), np.zeros(0)) == [Violation("Shape", ("no points",))]
        with pytest.raises(InvalidSpaceError):
            validate_space(np.zeros((0, 0)), np.zeros(0))


class TestTriangleScreen:
    """The per-row min-plus screen flags exactly the rows that the full
    expansion finds a triangle violation in."""

    def test_nan_sum_does_not_hide_a_violation(self):
        dist = np.ones((4, 4)) - np.eye(4)
        dist[0, 3] = dist[3, 0] = 3.0  # violated through 1 and through 2
        dist[0, 1] = np.nan  # every sum through j=1 in row 0 is NaN
        got = assert_same_violations(dist, np.ones(4))
        triangles = [v.indices for v in got if v.kind == "TriangleViolation"]
        assert triangles == [(0, 2, 3), (3, 1, 0), (3, 2, 0)]

    def test_violation_just_past_the_slack(self):
        # two clusters 10 apart; in each, d(a, c) exceeds d(a, b) + d(b, c) = 2
        # by a multiple of the slack TRIANGLE_RTOL * 2
        dist = np.full((6, 6), 10.0)
        for base, excess in ((0, 1.5), (3, 0.5)):
            block = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
            block[0, 2] = block[2, 0] = 2.0 + excess * TRIANGLE_RTOL * 2.0
            dist[base : base + 3, base : base + 3] = block
        got = assert_same_violations(dist, np.ones(6))
        assert got == [Violation("TriangleViolation", (0, 1, 2)), Violation("TriangleViolation", (2, 1, 0))]

    def test_slack_forgives_only_rounding(self):
        # a few ulps of excess pass, a relative excess of 1e-9 is a violation
        for excess, want in ((4 * np.spacing(2.0), 0), (2e-9, 2)):
            dist = np.array([[0.0, 1.0, 2.0 + excess], [1.0, 0.0, 1.0], [2.0 + excess, 1.0, 0.0]])
            assert len(assert_same_violations(dist, np.ones(3))) == want

    def test_violation_row_in_last_row_block(self):
        """At n = 150 the screen runs in blocks of rows 0-63, 64-127 and
        128-149; a stretched pair in the last, partial block is still found."""
        pts = np.random.default_rng(5).uniform(-1.0, 1.0, (150, 2))
        dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
        dist[140, 145] = dist[145, 140] = 3.0 * dist[140, 145] + 0.5
        got = find_violations(dist, np.ones(150))
        assert got == row_find_violations(dist, np.ones(150))
        assert got and {v.indices[0] for v in got} == {140, 145}
        assert all(v.kind == "TriangleViolation" for v in got)

    def test_random_points_with_one_stretched_distance(self):
        sp = generate_space(SpaceSpec("random-points", n=160, dim=2, seed=3))
        assert find_violations(sp.dist, sp.mass) == []
        for i, j, factor, triangles in ((17, 101, 1.5, 11), (40, 41, 3.0, 158), (159, 0, 1.0 + 1e-9, 0)):
            dist = sp.dist.copy()
            dist[i, j] *= factor
            got = find_violations(dist, sp.mass)
            assert got == row_find_violations(dist, sp.mass)
            assert got[0] == Violation("Asymmetry", (min(i, j), max(i, j)))
            assert sum(v.kind == "TriangleViolation" for v in got) == triangles

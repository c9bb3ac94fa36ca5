"""Finite metric measure spaces and ball/measure queries.

A space is the triple (X, d, mu): a finite point set, a distance matrix and
strictly positive atomic masses.  All sup-over-radius quantities downstream
are piecewise constant in the radius, so every module reduces its supremum
to the finite breakpoint set {d(x, y) : y in X} and evaluates right limits,
which on a finite space are closed-ball values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Relative slack for the triangle-inequality check.  Euclidean distances
# computed in floating point can miss the exact inequality by a few ulps.
TRIANGLE_RTOL = 1e-12

_ROWS = 64  # rows of an n x n table that one pass holds at a time

# Most points of a generated space.  At 4096 points each n x n float64 table is
# 128 MiB: a space holds 288 MiB, and a run with the corpus's four dilation
# index tables (32 MiB each) holds 416 MiB of tables.
MAX_POINTS = 4096


def row_blocks(n: int):
    """Consecutive slices of at most ``_ROWS`` rows that cover range(n)."""
    return (slice(a, a + _ROWS) for a in range(0, n, _ROWS))


def _closed_rank(sorted_row: np.ndarray, radii):
    """How many entries of the sorted distance row lie within each radius:
    the closed ball's size, the column of ``csum0`` holding its measure."""
    return np.searchsorted(sorted_row, radii, side="right")


class InvalidSpaceError(ValueError):
    def __init__(self, violations):
        self.violations = list(violations)
        lines = ", ".join(str(v) for v in self.violations[:8])
        more = "" if len(self.violations) <= 8 else f" (+{len(self.violations) - 8} more)"
        super().__init__(f"invalid space: {lines}{more}")


@dataclass(frozen=True)
class Violation:
    """One violated space invariant, with the witnessing indices."""

    kind: str  # Asymmetry | TriangleViolation | NegativeDistance | NonzeroDiagonal | NonpositiveMass | Shape
    indices: tuple

    def __str__(self):
        return f"{self.kind}{self.indices}"


@dataclass(frozen=True, eq=False)
class MetricMeasureSpace:
    """Validated (X, d, mu) with cached sorted-distance prefix sums.

    ``order[x]`` sorts the points by distance from x (stable: ties in index
    order), ``sorted_dist(rows)`` reads ``dist`` through it and ``csum0[x, j]``
    is the mass of the j nearest points (leading zero included), so any
    closed/open ball measure is one searchsorted away.  Memory: two resident
    n x n float64 tables, ``dist`` and ``csum0``, each 8 n^2 bytes (0.5 MiB at
    n = 256, 32 MiB at n = 2048); ``order`` in the smallest unsigned dtype that
    indexes n points (1 byte per entry up to n = 256, 2 up to 65,536).  What
    is built once per space stays in the ``cached`` dict: one index table per
    distinct k of ``dilated_measure``, its columns into ``csum0`` in the
    smallest unsigned dtype that holds n (1 byte per entry up to n = 255, 2 up
    to 65,535), and ``theorems``' ball sample per seed.  Every other n x n pass
    holds one ``_ROWS`` x n block of ``row_blocks`` at a time.
    """

    dist: np.ndarray
    mass: np.ndarray
    order: np.ndarray = field(init=False, repr=False)
    csum0: np.ndarray = field(init=False, repr=False)
    _cache: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        dist = np.ascontiguousarray(np.asarray(self.dist, dtype=float))
        mass = np.ascontiguousarray(np.asarray(self.mass, dtype=float))
        n = dist.shape[0]
        order = np.empty((n, n), dtype=np.min_scalar_type(max(n - 1, 0)))
        csum0 = np.zeros((n, n + 1))
        for rows in row_blocks(n):
            order[rows] = np.argsort(dist[rows], axis=1, kind="stable")
            np.cumsum(mass[order[rows]], axis=1, out=csum0[rows, 1:])
        for name, arr in (("dist", dist), ("mass", mass), ("order", order), ("csum0", csum0)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    @property
    def diameter(self) -> float:
        return float(self.dist.max())

    def sorted_dist(self, rows=slice(None)) -> np.ndarray:
        """Row x of ``rows``: the distances from x in increasing order (one 1-D row for an int x)."""
        d, o = self.dist[rows], self.order[rows]
        if d.ndim == 2:  # flat take: 2.5x faster than take_along_axis
            o = o + np.arange(0, d.size, self.n)[:, None]
        return d.take(o)

    def closed_measure(self, x: int, radii):
        """mu(closed ball(x, r)) for scalar or array radii."""
        return self.csum0[x][_closed_rank(self.sorted_dist(x), radii)]

    def open_measure(self, x: int, radii):
        """mu(open ball(x, r)) for scalar or array radii."""
        idx = np.searchsorted(self.sorted_dist(x), radii, side="left")
        return self.csum0[x][idx]

    def cached(self, key, build):
        """The value of ``key`` in the space's cache, ``build()`` on its first use."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def dilated_measure(self, k: float, rows=slice(None)) -> np.ndarray:
        """Rows of T[x, j] = mu(closed ball(x, k * sorted_dist(x)[j])), one 1-D
        row for an int x, read from ``csum0`` through the read-only index table
        of k: idx[x, j] is the column of ``csum0`` that holds T[x, j].  The
        table is ``cached`` per k, built from one block of sorted rows at a time."""

        def build():
            index = np.empty((self.n, self.n), dtype=np.min_scalar_type(self.n))
            for block in row_blocks(self.n):
                for x, row in enumerate(self.sorted_dist(block), block.start):
                    index[x] = _closed_rank(row, k * row)
            index.setflags(write=False)
            return index

        index, csum = self.cached(("dilated", k), build)[rows], self.csum0[rows]
        if index.ndim == 2:  # flat take, as in sorted_dist
            index = index + np.arange(0, csum.size, self.n + 1)[:, None]
        return csum.take(index)

    def cumulative(self, weights: np.ndarray, rows=slice(None)) -> np.ndarray:
        """Row x of ``rows``, column j: sum of ``weights`` over the j+1 nearest points of x.

        With ``weights = |f|**q * mass`` this is the closed-ball integral of
        |f|^q at every candidate radius at once (take the last duplicate of a
        tied distance for the exact ball value; earlier duplicates give
        partial sums that never exceed it).
        """
        table = np.asarray(weights, dtype=float).take(self.order[rows])  # 2.6x faster than [uint index]
        return np.cumsum(table, axis=1, out=table)


def _entry_violations(dist: np.ndarray, mass: np.ndarray, triangle: bool = False) -> list[Violation]:
    """Every violated invariant in O(n^2): shape, diagonal, sign, symmetry, mass and finiteness;
    with ``triangle``, the O(n^3) triangle screen's too, between symmetry and mass."""
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        return [Violation("Shape", (dist.shape,))]
    n = dist.shape[0]
    if mass.shape != (n,):
        return [Violation("Shape", (mass.shape,))]
    if n == 0:
        return [Violation("Shape", ("no points",))]

    out = [Violation("NonzeroDiagonal", (int(i),)) for i in np.nonzero(np.diag(dist) != 0.0)[0]]
    out += [Violation("NegativeDistance", (int(i), int(j))) for i, j in np.argwhere(dist < 0.0)]
    asym = np.argwhere(dist != dist.T)
    out += [Violation("Asymmetry", (int(i), int(j))) for i, j in asym if i < j]
    if triangle:
        out += _triangle_violations(dist, len(asym) == 0)
    out += [Violation("NonpositiveMass", (int(i),)) for i in np.nonzero(~(mass > 0.0))[0]]
    if not np.all(np.isfinite(dist)) or not np.all(np.isfinite(mass)):
        out.append(Violation("Shape", ("non-finite entries",)))
    return out


def _triangle_violations(dist: np.ndarray, half: bool) -> list[Violation]:
    """Every (i, j, k) with d(i,k) > d(i,j) + d(j,k) past the slack, in O(n^3); ``half``: dist
    equals its transpose exactly."""
    n, out = dist.shape[0], []
    buf, suspects = np.empty(n * n), set()
    for rows in row_blocks(n):
        low = np.full_like(dist[rows], np.inf)  # in the half screen, columns k < i stay inf: never flagged
        for i, low_i in enumerate(low, rows.start):  # low_i[k]: the least d(i,j) + d(j,k) over j, NaN sums skipped
            k = i if half else 0
            via = np.add(dist[i][:, None], dist[:, k:], out=buf[: n * (n - k)].reshape(n, n - k))
            np.fmin.reduce(via, axis=0, out=low_i[k:])
        bound = np.maximum(low, 1.0, out=buf[: low.size].reshape(low.shape))
        bound *= TRIANGLE_RTOL
        bound += low
        hit_rows, hit_cols = np.nonzero(dist[rows] > bound)
        suspects.update((rows.start + hit_rows).tolist())
        if half:
            suspects.update(hit_cols.tolist())
    for i in sorted(suspects):
        via = dist[i][:, None] + dist  # via[j, k]
        viol = dist[i][None, :] > via + TRIANGLE_RTOL * np.maximum(via, 1.0)
        for j, k in np.argwhere(viol):
            if i != j and j != k:
                out.append(Violation("TriangleViolation", (i, int(j), int(k))))
    return out


def find_violations(dist, mass) -> list[Violation]:
    """Every violated MetricMeasureSpace invariant, with indices.

    The triangle check takes O(n^3) time, one n x n buffer and a row block of low: row i is expanded
    into witnesses only if some d(i,k) exceeds low[i, k] = min_j d(i,j) + d(j,k) plus its slack.
    The screen is exact: the slack v + rtol * max(v, 1) is monotone in v, also in floating
    point, and fmin skips NaN sums, which never compare as violations.  When dist equals its
    transpose exactly (so holds no NaN), d(k,j) + d(j,i) is the same double as d(i,j) + d(j,k),
    so (i, j, k) is violated iff (k, j, i) is and low is symmetric: row i screens only the
    columns k >= i, half the sums, and a flagged (i, k) makes both rows suspects.
    ``generate_space`` runs only the O(n^2) checks on arrays that pass them: its families are
    metrics by construction."""
    return _entry_violations(np.asarray(dist, dtype=float), np.asarray(mass, dtype=float), triangle=True)


def validate_space(dist, mass) -> MetricMeasureSpace:
    """Build a space, raising InvalidSpaceError listing every violation."""
    violations = find_violations(dist, mass)
    if violations:
        raise InvalidSpaceError(violations)
    return MetricMeasureSpace(np.asarray(dist, dtype=float), np.asarray(mass, dtype=float))


def doubling_ratio(space: MetricMeasureSpace) -> tuple[float, tuple[int, float]]:
    """sup over x and r > 0 of mu(B(x,2r)) / mu(B(x,r)), with its witness.

    Both ball measures are piecewise constant in r, jumping at breakpoint
    radii (denominator) and at half of them (numerator), so the sup of the
    right-limit evaluation is attained on {0} u bp(x) u bp(x)/2 with closed
    balls.
    """
    # every denominator is at least the mass of x's zero-distance class > 0
    def ratios(rows):  # r = sorted_dist(x)[j], and r = sorted_dist(x)[j] / 2
        mu1 = space.dilated_measure(1.0, rows)
        return space.dilated_measure(2.0, rows) / mu1, mu1 / space.dilated_measure(0.5, rows)

    row_max = np.empty(space.n)
    for rows in row_blocks(space.n):
        at_bp, at_half = ratios(rows)
        np.maximum(at_bp.max(axis=1), at_half.max(axis=1), out=row_max[rows])
    best = float(row_max.max())
    if not best > 1.0:
        return 1.0, (0, 0.0)
    # witness: the first point attaining the sup, at its smallest such radius
    x = int(np.argmax(row_max == best))
    sd, (at_bp, at_half) = space.sorted_dist(x), ratios(x)
    r = min(np.where(at_bp == best, sd, np.inf).min(), np.where(at_half == best, sd / 2.0, np.inf).min())
    return best, (x, float(r))

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


def row_blocks(n: int):
    """Consecutive slices of at most ``_ROWS`` rows that cover range(n)."""
    return (slice(a, a + _ROWS) for a in range(0, n, _ROWS))


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

    ``order[x]`` sorts the points by distance from x, ``sorted_dist`` is the
    row-sorted distance matrix and ``csum0[x, j]`` is the mass of the j
    nearest points (leading zero included), so any closed/open ball measure
    is one searchsorted away.  With ``dist`` these are the four resident
    n x n tables, plus one per distinct k of ``dilated_measure``, each 8 n^2
    bytes (0.5 MiB at n = 256, 32 MiB at n = 2048); every other n x n pass
    holds one ``_ROWS`` x n block of ``row_blocks`` at a time.
    """

    dist: np.ndarray
    mass: np.ndarray
    order: np.ndarray = field(init=False, repr=False)
    sorted_dist: np.ndarray = field(init=False, repr=False)
    csum0: np.ndarray = field(init=False, repr=False)
    _dilated: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        dist = np.ascontiguousarray(np.asarray(self.dist, dtype=float))
        mass = np.ascontiguousarray(np.asarray(self.mass, dtype=float))
        order = np.argsort(dist, axis=1, kind="stable")
        sorted_dist = np.take_along_axis(dist, order, axis=1)
        csum0 = np.zeros((dist.shape[0], dist.shape[0] + 1))
        for rows in row_blocks(dist.shape[0]):
            np.cumsum(mass[order[rows]], axis=1, out=csum0[rows, 1:])
        for name, arr in (
            ("dist", dist),
            ("mass", mass),
            ("order", order),
            ("sorted_dist", sorted_dist),
            ("csum0", csum0),
        ):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    @property
    def total_mass(self) -> float:
        return float(self.csum0[0, -1])

    @property
    def diameter(self) -> float:
        return float(self.sorted_dist[:, -1].max())

    def closed_measure(self, x: int, radii):
        """mu(closed ball(x, r)) for scalar or array radii."""
        idx = np.searchsorted(self.sorted_dist[x], radii, side="right")
        return self.csum0[x][idx]

    def open_measure(self, x: int, radii):
        """mu(open ball(x, r)) for scalar or array radii."""
        idx = np.searchsorted(self.sorted_dist[x], radii, side="left")
        return self.csum0[x][idx]

    def dilated_measure(self, k: float) -> np.ndarray:
        """Read-only T[x, j] = mu(closed ball(x, k * sorted_dist[x, j])), built once per k."""
        table = self._dilated.get(k)
        if table is None:
            table = np.empty((self.n, self.n))
            for x in range(self.n):
                table[x] = self.closed_measure(x, k * self.sorted_dist[x])
            table.setflags(write=False)
            self._dilated[k] = table
        return table

    def cumulative(self, weights: np.ndarray, rows=slice(None)) -> np.ndarray:
        """Row x of ``rows``, column j: sum of ``weights`` over the j+1 nearest points of x.

        With ``weights = |f|**q * mass`` this is the closed-ball integral of
        |f|^q at every candidate radius at once (take the last duplicate of a
        tied distance for the exact ball value; earlier duplicates give
        partial sums that never exceed it).
        """
        table = np.asarray(weights, dtype=float)[self.order[rows]]
        return np.cumsum(table, axis=1, out=table)


def find_violations(dist, mass) -> list[Violation]:
    """Every violated MetricMeasureSpace invariant, with indices.

    The triangle check takes O(n^3) time, one n x n buffer and a row block of low: row i is expanded
    into witnesses only if some d(i,k) exceeds low[i, k] = min_j d(i,j) + d(j,k) plus its slack.
    The screen is exact: the slack v + rtol * max(v, 1) is monotone in v, also in floating
    point, and fmin skips NaN sums, which never compare as violations."""
    dist = np.asarray(dist, dtype=float)
    mass = np.asarray(mass, dtype=float)
    out: list[Violation] = []
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        out.append(Violation("Shape", (dist.shape,)))
        return out
    n = dist.shape[0]
    if mass.shape != (n,):
        out.append(Violation("Shape", (mass.shape,)))
        return out
    if n == 0:
        out.append(Violation("Shape", ("no points",)))
        return out

    for i in np.nonzero(np.diag(dist) != 0.0)[0]:
        out.append(Violation("NonzeroDiagonal", (int(i),)))
    bad = np.argwhere(dist < 0.0)
    for i, j in bad:
        out.append(Violation("NegativeDistance", (int(i), int(j))))
    asym = np.argwhere(dist != dist.T)
    for i, j in asym:
        if i < j:
            out.append(Violation("Asymmetry", (int(i), int(j))))
    # d(i,k) <= d(i,j) + d(j,k), checked with a small relative slack
    buf, suspects = np.empty((n, n)), []
    for rows in row_blocks(n):
        low = np.empty_like(dist[rows])
        for i, low_i in enumerate(low, rows.start):  # low_i[k]: the least d(i,j) + d(j,k) over j, NaN sums skipped
            np.fmin.reduce(np.add(dist[i][:, None], dist, out=buf), axis=0, out=low_i)
        bound = np.maximum(low, 1.0, out=buf[: len(low)])
        bound *= TRIANGLE_RTOL
        bound += low
        suspects += (rows.start + np.nonzero(np.any(dist[rows] > bound, axis=1))[0]).tolist()
    for i in suspects:
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
    at_bp = space.dilated_measure(2.0) / space.dilated_measure(1.0)  # r = sorted_dist[x, j]
    at_half = space.dilated_measure(1.0) / space.dilated_measure(0.5)  # r = sorted_dist[x, j] / 2
    row_max = np.maximum(at_bp.max(axis=1), at_half.max(axis=1))
    best = float(row_max.max())
    if not best > 1.0:
        return 1.0, (0, 0.0)
    # witness: the first point attaining the sup, at its smallest such radius
    x = int(np.argmax(row_max == best))
    sd = space.sorted_dist[x]
    r = min(np.where(at_bp[x] == best, sd, np.inf).min(), np.where(at_half[x] == best, sd / 2.0, np.inf).min())
    return best, (x, float(r))

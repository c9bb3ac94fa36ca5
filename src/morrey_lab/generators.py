"""Seeded, reproducible families of spaces and functions.

The space families straddle the doubling / non-doubling divide: Lebesgue
grids are doubling, Gaussian-weighted grids are strongly non-doubling
(mass decays faster than any polynomial), radial-decay grids sit in
between, and ultrametric trees leave Euclidean geometry entirely.
Coordinates are dyadic where possible so distances deduplicate exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .space import MetricMeasureSpace, row_blocks, validate_space

SPACE_FAMILIES = ("grid", "gaussian-grid", "radial-decay-grid", "ultrametric-tree", "random-points")
FUNCTION_FAMILIES = ("constant", "ball-indicator", "power-spike", "random-sparse", "random-uniform")


class InvalidSpec(ValueError):
    pass


@dataclass(frozen=True)
class SpaceSpec:
    family: str
    n: int = 16  # points per axis for grids, leaves count is 2**depth for trees
    dim: int = 1
    beta: float = 0.0
    halfwidth: float = 1.0
    depth: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.family not in SPACE_FAMILIES:
            raise InvalidSpec(f"unknown space family {self.family!r}")
        if self.n < 1 or self.dim < 1 or self.depth < 0:
            raise InvalidSpec(f"counts must be positive: {self}")
        if not (0.0 < self.halfwidth < math.inf and 0.0 <= self.beta < math.inf):
            raise InvalidSpec(f"need finite halfwidth > 0 and finite beta >= 0: {self}")
        if not 0 <= self.seed < 2**64:
            raise InvalidSpec(f"seed must lie in [0, 2**64), got {self.seed}")


@dataclass(frozen=True)
class FunctionSpec:
    family: str
    value: float = 1.0
    center: int = 0
    radius: float = 0.0
    beta: float = 1.0
    cap: float = 100.0
    density: float = 0.25
    seed: int = 0

    def __post_init__(self):
        if self.family not in FUNCTION_FAMILIES:
            raise InvalidSpec(f"unknown function family {self.family!r}")
        finite = all(map(math.isfinite, (self.value, self.radius, self.beta, self.cap)))
        if not (finite and self.value >= 0.0 and self.cap > 0.0 and 0.0 <= self.density <= 1.0):
            raise InvalidSpec(f"bad function parameters: {self}")
        if not 0 <= self.seed < 2**64:
            raise InvalidSpec(f"seed must lie in [0, 2**64), got {self.seed}")


def _euclidean(points: np.ndarray) -> np.ndarray:
    d = np.empty((len(points), len(points)))
    for rows in row_blocks(len(points)):
        diff = points[rows, None, :] - points[None, :, :]
        np.sqrt(np.sum(diff * diff, axis=2), out=d[rows])
    np.fill_diagonal(d, 0.0)  # exactly symmetric already: x - y == -(y - x) in IEEE arithmetic, inf and NaN too
    return d


def _grid_points(spec: SpaceSpec) -> tuple[np.ndarray, float]:
    h = 2.0 * spec.halfwidth / spec.n
    axis = -spec.halfwidth + h * (np.arange(spec.n) + 0.5)
    coords = np.array(list(itertools.product(axis, repeat=spec.dim)))
    return coords, h


def _space_arrays(spec: SpaceSpec) -> tuple[np.ndarray, np.ndarray]:
    """The distances and masses of the space of ``spec``, not yet validated."""
    if spec.family in ("grid", "gaussian-grid", "radial-decay-grid"):
        coords, h = _grid_points(spec)
        dist = _euclidean(coords)
        try:
            cell = h**spec.dim
        except OverflowError:
            cell = math.inf
        if spec.family == "grid":
            mass = np.full(len(coords), cell)
        else:
            norms2 = np.sum(coords * coords, axis=1)
            if spec.family == "gaussian-grid":
                mass = cell * np.exp(-norms2)
            else:
                mass = cell * (1.0 + np.sqrt(norms2)) ** (-spec.beta)
        return dist, mass

    if spec.family == "ultrametric-tree":
        n = 2**spec.depth
        idx = np.arange(n)
        # depth of the least common ancestor of two leaves = number of
        # shared leading bits of their paths; frexp's exponent is bit_length
        xor = idx[:, None] ^ idx[None, :]
        lca = spec.depth - np.frexp(xor)[1]
        dist = np.where(xor == 0, 0.0, 2.0 ** (-lca.astype(float)))
        return dist, np.ones(n)

    if spec.family == "random-points":
        pts = np.array(
            [
                [
                    rng.uniform(spec.seed, i, ax, low=-spec.halfwidth, high=spec.halfwidth)
                    for ax in range(spec.dim)
                ]
                for i in range(spec.n)
            ]
        )
        return _euclidean(pts), np.ones(spec.n)

    raise InvalidSpec(f"unknown space family {spec.family!r}")


def generate_space(spec: SpaceSpec) -> MetricMeasureSpace:
    """The space of ``spec``, validated once.  A number past the float range
    becomes a non-finite entry, which validation reports."""
    with np.errstate(over="ignore", invalid="ignore"):
        dist, mass = _space_arrays(spec)
    return validate_space(dist, mass)


def generate_function(space: MetricMeasureSpace, spec: FunctionSpec) -> np.ndarray:
    n = space.n
    if spec.family == "constant":
        return np.full(n, spec.value)
    if spec.family == "ball-indicator":
        if not 0 <= spec.center < n:
            raise InvalidSpec(f"center {spec.center} out of range for n={n}")
        return np.where(space.dist[spec.center] <= spec.radius, spec.value, 0.0)
    if spec.family == "power-spike":
        if not 0 <= spec.center < n:
            raise InvalidSpec(f"center {spec.center} out of range for n={n}")
        d = space.dist[spec.center]
        with np.errstate(divide="ignore"):
            f = np.where(d > 0.0, np.minimum(d ** (-spec.beta), spec.cap), spec.cap)
        return f
    if spec.family == "random-sparse":
        f = np.zeros(n)
        for i in range(n):
            if rng.uniform01(spec.seed, i, 0) < spec.density:
                f[i] = rng.uniform01(spec.seed, i, 1)
        return f
    if spec.family == "random-uniform":
        return np.array([rng.uniform01(spec.seed, i, 0) for i in range(n)])
    raise InvalidSpec(f"unknown function family {spec.family!r}")

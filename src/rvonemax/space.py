"""Search space, component metrics, and the r-valued OneMax fitness family.

Search points are 1-D integer numpy arrays over the alphabet {0, ..., r-1}.
A problem instance fixes the dimensions, the metric on the alphabet, and a
hidden target vector; fitness is the component-wise metric distance to the
target, so the target is the unique optimum with fitness 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


class MetricKind(Enum):
    """Metric on the alphabet: plain interval distance or wrap-around ring."""

    INTERVAL = "interval"
    RING = "ring"

    @classmethod
    def parse(cls, name: str) -> "MetricKind":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise ValueError(f"unknown metric {name!r}; expected 'interval' or 'ring'") from None


@dataclass(frozen=True)
class SpaceParams:
    """Dimensions of the search space {0,...,r-1}^n."""

    n: int
    r: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.r < 2:
            raise ValueError(f"r must be >= 2, got {self.r}")
        if self.r >= 2**53:  # where floor(u * r) of a double u stops being uniform
            raise ValueError(f"r must be < 2**53, got {self.r}")


def as_point(values, params: SpaceParams) -> np.ndarray:
    """Validate and normalize a search point to a read-only int64 array."""
    x = np.asarray(values, dtype=np.int64).copy()
    if x.ndim != 1 or x.shape[0] != params.n:
        raise ValueError(f"point must have shape ({params.n},), got {x.shape}")
    return _read_only_points(x, params)


def _read_only_points(x: np.ndarray, params: SpaceParams) -> np.ndarray:
    """The int64 array x of points, range-checked once as a whole and made
    read-only; its rows are then valid points without a check each."""
    if np.minimum.reduce(x, axis=None) < 0 or np.maximum.reduce(x, axis=None) >= params.r:
        raise ValueError(f"point entries must lie in [0, {params.r - 1}]")
    x.setflags(write=False)
    return x


def _scaled(u: np.ndarray, m: int) -> np.ndarray:
    """floor(u * m) of uniforms u in [0, 1): uniform integers in [0, m).

    Every set-up draw of the library maps uniforms to integers this way;
    u * m rounds below m for every double u < 1 and m < 2**53, and
    SpaceParams keeps r below 2**53."""
    return (u * m).astype(np.int64)


def metric_distance(kind: MetricKind, a: int, b: int, r: int) -> int:
    """Distance between two alphabet values under the chosen metric."""
    if not (0 <= a < r and 0 <= b < r):
        raise ValueError(f"values must lie in [0, {r - 1}], got a={a}, b={b}")
    d = abs(b - a)
    if kind is MetricKind.RING:
        return min(d, r - d)
    return d


def component_distances(kind: MetricKind, x: np.ndarray, z: np.ndarray, r: int) -> np.ndarray:
    """Vector of per-component metric distances d(x_i, z_i)."""
    d = np.abs(x - z)
    if kind is MetricKind.RING:
        return np.minimum(d, r - d)
    return d


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """An r-valued OneMax instance: metric choice plus hidden target."""

    params: SpaceParams
    metric: MetricKind
    target: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "target", as_point(self.target, self.params))

    @property
    def max_distances(self) -> np.ndarray:
        """Per position, the largest distance a value can have from the target."""
        r = self.params.r
        if self.metric is MetricKind.RING:
            return np.full(self.params.n, r // 2, dtype=np.int64)
        return np.maximum(self.target, r - 1 - self.target)

    @property
    def max_fitness(self) -> int:
        """The largest fitness of any point; an interior interval target
        keeps it below n (r-1)."""
        return int(self.max_distances.sum())


def fitness(instance: ProblemInstance, x):
    """Sum of component-wise metric distances from x to the target: an int
    for one point, an int64 array of S values for an (S, n) array of rows."""
    x = np.asarray(x, dtype=np.int64)
    params = instance.params
    if x.ndim not in (1, 2) or x.shape[-1] != params.n:
        raise ValueError(f"point must have shape ({params.n},) or (S, {params.n}), got {x.shape}")
    if x.min() < 0 or x.max() >= params.r:
        raise ValueError(f"point entries must lie in [0, {params.r - 1}]")
    d = component_distances(instance.metric, x, instance.target, params.r)
    return int(d.sum()) if x.ndim == 1 else d.sum(axis=1)


def hamming_distance(x, y):
    """Number of positions where x differs from the point y: an int for one
    point x, an array of S counts for an (S, n) array x of rows."""
    x = np.asarray(x)
    y = np.asarray(y)
    if x.ndim not in (1, 2) or x.shape[-1:] != y.shape:
        raise ValueError(f"length mismatch: {x.shape} vs {y.shape}")
    d = np.count_nonzero(x != y, axis=-1)
    return int(d) if x.ndim == 1 else d


def sample_uniform_point(params: SpaceParams, rng: np.random.Generator) -> np.ndarray:
    """Draw each component independently and uniformly from [0, r-1], as
    floor(u * r) of one uniform each."""
    return _scaled(rng.random(params.n), params.r)

"""Domains, low-discrepancy point sets, and fill-distance measurement.

Point sets are prefixes of a fixed Halton-type sequence mapped into the
target domain, so the set for ``N`` points is always a prefix of the set
for ``M >= N`` points.  Nestedness is what makes sparse-grid
interpolation interpolate and lets samplers reuse evaluations across
resolutions.  For boxes the sequence starts with the box corners (kernel
interpolation degrades badly when the boundary is uncovered) and
continues with the Halton sequence; discs use the rejection-filtered
Halton sequence over the bounding box.  The tensor grid of checked point
sets (:meth:`PointSet.product`) takes its checks from its factors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy.spatial import cKDTree

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)
_CONTAIN_TOL = 1e-12


@dataclass(frozen=True)
class Box:
    """Axis-aligned box ``[lows_1, highs_1] x ... x [lows_d, highs_d]``."""

    lows: tuple[float, ...]
    highs: tuple[float, ...]

    def __post_init__(self):
        if len(self.lows) != len(self.highs):
            raise ValueError("lows and highs must have equal length")
        if any(h <= l for l, h in zip(self.lows, self.highs)):
            raise ValueError(f"degenerate box: lows={self.lows}, highs={self.highs}")

    @property
    def dim(self) -> int:
        return len(self.lows)

    @property
    def volume(self) -> float:
        return float(np.prod([h - l for l, h in zip(self.lows, self.highs)]))

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(points)
        lows = np.asarray(self.lows) - _CONTAIN_TOL
        highs = np.asarray(self.highs) + _CONTAIN_TOL
        return np.all((pts >= lows) & (pts <= highs), axis=1)

    def from_unit(self, u: np.ndarray) -> np.ndarray:
        lows = np.asarray(self.lows)
        highs = np.asarray(self.highs)
        return lows + u * (highs - lows)

    def candidate_grid(self, resolution: int) -> np.ndarray:
        axes = [
            np.linspace(l, h, resolution)
            for l, h in zip(self.lows, self.highs)
        ]
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)


@dataclass(frozen=True)
class Disc:
    """Closed disc in the plane."""

    center: tuple[float, float]
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError(f"radius must be positive, got {self.radius}")

    @property
    def dim(self) -> int:
        return 2

    @property
    def bounding_box(self) -> Box:
        cx, cy = self.center
        r = self.radius
        return Box(lows=(cx - r, cy - r), highs=(cx + r, cy + r))

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(points)
        d = np.linalg.norm(pts - np.asarray(self.center), axis=1)
        return d <= self.radius + _CONTAIN_TOL

    def candidate_grid(self, resolution: int) -> np.ndarray:
        grid = self.bounding_box.candidate_grid(resolution)
        return grid[self.contains(grid)]


Domain = Box | Disc


def _radical_inverse(index: int, base: int) -> float:
    inv = 0.0
    scale = 1.0
    while index > 0:
        scale /= base
        inv += scale * (index % base)
        index //= base
    return inv


def halton_sequence(count: int, dim: int, start: int = 1) -> np.ndarray:
    """First ``count`` Halton points in the open unit cube (index origin 1)."""
    if dim > len(_PRIMES):
        raise ValueError(f"halton sequence supports up to {len(_PRIMES)} dimensions")
    out = np.empty((count, dim))
    for j in range(dim):
        base = _PRIMES[j]
        out[:, j] = [_radical_inverse(i, base) for i in range(start, start + count)]
    return out


@dataclass(frozen=True)
class PointSet:
    """Pairwise-distinct points inside a domain."""

    points: np.ndarray
    domain: Domain

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.shape[1] != self.domain.dim:
            raise ValueError(
                f"point dimension {pts.shape[1]} != domain dimension {self.domain.dim}"
            )
        if not np.all(self.domain.contains(pts)):
            raise ValueError("all points must lie inside the domain")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        if len(pts) > 1 and self.min_separation <= 0.0:
            raise ValueError("points must be pairwise distinct")

    @classmethod
    def product(cls, factors: Sequence["PointSet"]) -> "PointSet":
        """The tensor grid of ``factors`` (first factor slowest, as in
        :func:`tensor_grid`) on the product of their domains.

        Its properties follow from the factors, which were checked when
        they were built: each factor lies in its domain, so the grid lies in
        the product box; two grid points differ in at least one factor, and
        are nearest when they differ in one factor only, so the grid's
        minimum separation is the smallest separation of a factor.
        """
        grid = object.__new__(cls)
        points = tensor_grid([f.points for f in factors])
        points.setflags(write=False)
        object.__setattr__(grid, "points", points)
        object.__setattr__(grid, "domain", _product_domain([f.domain for f in factors]))
        grid.__dict__["min_separation"] = min(f.min_separation for f in factors)
        return grid

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @cached_property
    def min_separation(self) -> float:
        if len(self) < 2:
            return float("inf")
        dist, _ = cKDTree(self.points).query(self.points, k=2)
        return float(np.min(dist[:, 1]))

    def fill_distance(self, resolution: int = 64) -> float:
        """Measured fill distance of this set (see :func:`fill_distance`)."""
        return fill_distance(self, resolution)


def tensor_grid(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Cartesian product of per-factor ``(n_j, d_j)`` arrays (first factor slowest)."""
    counts = [a.shape[0] for a in arrays]
    dims = [a.shape[1] for a in arrays]
    total = int(np.prod(counts))
    out = np.empty((total, sum(dims)))
    col = 0
    for j, a in enumerate(arrays):
        reps_before = int(np.prod(counts[:j])) if j > 0 else 1
        reps_after = int(np.prod(counts[j + 1 :])) if j + 1 < len(counts) else 1
        block = np.repeat(a, reps_after, axis=0)
        block = np.tile(block, (reps_before, 1))
        out[:, col : col + dims[j]] = block
        col += dims[j]
    return out


def _product_domain(domains: Sequence[Domain]) -> Domain:
    if len(domains) == 1:
        return domains[0]
    if all(isinstance(d, Box) for d in domains):
        lows = tuple(v for d in domains for v in d.lows)
        highs = tuple(v for d in domains for v in d.highs)
        return Box(lows=lows, highs=highs)
    raise NotImplementedError("mixed product domains with discs are not supported")


def generate_points(domain: Domain, count: int) -> PointSet:
    """First ``count`` points of the fixed low-discrepancy sequence in ``domain``.

    Box domains start with the ``2**d`` corners in lexicographic order and
    continue with the affinely mapped Halton sequence; disc domains keep
    accepted points of the sequence mapped over the bounding box,
    preserving order.  Point sets are nested: the result for ``N`` points
    is a prefix of the result for any ``M >= N``.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if isinstance(domain, Box):
        corners = np.array(
            list(itertools.product(*zip(domain.lows, domain.highs))), dtype=float
        )
        if count <= len(corners):
            return PointSet(points=corners[:count], domain=domain)
        raw = halton_sequence(count - len(corners), domain.dim)
        return PointSet(
            points=np.vstack([corners, domain.from_unit(raw)]), domain=domain
        )
    if isinstance(domain, Disc):
        accepted: list[np.ndarray] = []
        start = 1
        box = domain.bounding_box
        while len(accepted) < count:
            chunk = max(32, 2 * (count - len(accepted)))
            raw = halton_sequence(chunk, 2, start=start)
            start += chunk
            mapped = box.from_unit(raw)
            keep = domain.contains(mapped)
            accepted.extend(mapped[keep])
        return PointSet(points=np.array(accepted[:count]), domain=domain)
    raise TypeError(f"unsupported domain type {type(domain)!r}")


def fill_distance(point_set: PointSet, resolution: int) -> float:
    """Largest candidate-grid distance to the point set.

    Maximizes the nearest-neighbor distance over a uniform candidate grid
    with ``resolution`` points per axis; this is a lower bound on the true
    supremum that converges as the resolution grows.
    """
    if resolution < 32:
        raise ValueError(f"resolution must be >= 32 per axis, got {resolution}")
    candidates = point_set.domain.candidate_grid(resolution)
    dist, _ = cKDTree(point_set.points).query(candidates)
    return float(np.max(dist))

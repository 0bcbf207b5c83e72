"""Domains, low-discrepancy point sets, and fill-distance measurement.

Point sets are prefixes of a fixed Halton-type sequence mapped into the
target domain, so the set for ``N`` points is always a prefix of the set
for ``M >= N`` points.  Nestedness is what makes sparse-grid
interpolation interpolate and lets samplers reuse evaluations across
resolutions.  For boxes the sequence starts with the box corners (kernel
interpolation degrades badly when the boundary is uncovered) and
continues with the Halton sequence; discs use the rejection-filtered
Halton sequence over the bounding box.  The tensor grid of checked point
sets (:meth:`PointSet.product`) takes its checks from its factors and
carries them, so a tensor kernel reads its Kronecker structure off them
instead of searching it for repeated coordinates.

Distances are plain numpy (:func:`pairwise_distances`, which reproduces
``scipy.spatial.distance.cdist`` bit for bit).  A point set checks that
its points are distinct by sorting their byte rows; its minimum separation
and fill distance are blocked distance scans, computed only when asked for.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)
_CONTAIN_TOL = 1e-12
# Largest distance block (rows x points) that one scan step builds.
_DISTANCE_BLOCK_ENTRIES = 2**18


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
    """Pairwise-distinct points inside a domain.

    ``factors`` is empty, except on a :meth:`product` grid, where it holds
    the factor point sets the grid was built from.  It takes no part in
    equality or hashing.
    """

    points: np.ndarray
    domain: Domain
    factors: tuple["PointSet", ...] = field(
        default=(), init=False, repr=False, compare=False
    )

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.shape[1] != self.domain.dim:
            raise ValueError(
                f"point dimension {pts.shape[1]} != domain dimension {self.domain.dim}"
            )
        if not np.all(self.domain.contains(pts)):
            raise ValueError("all points must lie inside the domain")
        if _has_repeated_rows(pts):
            raise ValueError("points must be pairwise distinct")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @classmethod
    def product(cls, factors: Sequence["PointSet"]) -> "PointSet":
        """The tensor grid of ``factors`` (first factor slowest, as in
        :func:`tensor_grid`) on the product of their domains.

        Its properties follow from the factors, which were checked when
        they were built: each factor lies in its domain, so the grid lies in
        the product box; two grid points differ in at least one factor, so
        they are distinct.  The grid keeps its factors, so that consumers
        can read its structure instead of searching the points for it.
        """
        grid = object.__new__(cls)
        points = tensor_grid([f.points for f in factors])
        points.setflags(write=False)
        object.__setattr__(grid, "points", points)
        object.__setattr__(grid, "domain", _product_domain([f.domain for f in factors]))
        object.__setattr__(grid, "factors", tuple(factors))
        return grid

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @cached_property
    def min_separation(self) -> float:
        """Smallest distance between two of the points (inf for one point)."""
        pts = self.points
        best = float("inf")
        for start, block in _distance_blocks(pts, pts):
            rows = np.arange(len(block))
            block[rows, start + rows] = np.inf
            best = min(best, float(np.min(block)))
        return best

    def fill_distance(self, resolution: int = 64) -> float:
        """Measured fill distance of this set (see :func:`fill_distance`)."""
        return fill_distance(self, resolution)


def pairwise_distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of ``x`` ``(m, d)`` and ``y`` ``(n, d)``.

    The square root of the squared coordinate differences summed in
    coordinate order, as ``scipy.spatial.distance.cdist`` computes it, so
    the two agree bit for bit.  Allocates the ``(m, n)`` result and, for
    ``d > 1``, one temporary of the same shape.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[1]:
        raise ValueError(f"need (m, d) and (n, d) arrays, got {x.shape} and {y.shape}")
    out = np.subtract.outer(x[:, 0], y[:, 0])
    np.square(out, out=out)
    if x.shape[1] > 1:
        scratch = np.empty_like(out)
        for k in range(1, x.shape[1]):
            np.subtract.outer(x[:, k], y[:, k], out=scratch)
            np.square(scratch, out=scratch)
            out += scratch
    np.sqrt(out, out=out)
    return out


def _distance_blocks(x: np.ndarray, y: np.ndarray):
    """``(start, pairwise_distances(x[start:stop], y))`` over row blocks of ``x``."""
    step = max(1, _DISTANCE_BLOCK_ENTRIES // max(1, len(y)))
    for start in range(0, len(x), step):
        yield start, pairwise_distances(x[start : start + step], y)


def _has_repeated_rows(points: np.ndarray) -> bool:
    """Whether two rows are equal, by sorting the rows' bytes.

    Adding ``0.0`` maps ``-0.0`` to ``0.0``, so rows that compare equal have
    equal bytes (the points lie in a domain, so none is NaN).
    """
    rows = np.add(points, 0.0, order="C")
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    return len(np.unique(keys)) < len(keys)


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


@lru_cache(maxsize=None)
def generate_points(domain: Domain, count: int) -> PointSet:
    """First ``count`` points of the fixed low-discrepancy sequence in ``domain``.

    Box domains start with the ``2**d`` corners in lexicographic order and
    continue with the affinely mapped Halton sequence; disc domains keep
    accepted points of the sequence mapped over the bounding box,
    preserving order.  Point sets are nested: the result for ``N`` points
    is a prefix of the result for any ``M >= N``.  This is the library's
    one nested-prefix cache: each ``(domain, count)`` is generated once per
    process, and every caller shares the read-only point set.
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
    return max(
        float(np.max(np.min(block, axis=1)))
        for _, block in _distance_blocks(candidates, point_set.points)
    )

"""Domains, low-discrepancy point sets, random points and the one RNG helper.

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
is a blocked distance scan, computed only when asked for.  The same row
blocks (:func:`_distance_blocks`) build every Matern Gram matrix.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Sequence

import numpy as np

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)
_CONTAIN_TOL = 1e-12
# Largest distance block (rows x points) that one scan step builds.  At
# 2**16 (0.5 MB) a block stays in cache while a Gram matrix profiles it:
# the 512-point nu = 3/2 Gram matrix took 2.3-2.8 ms, against 5.2-5.5 ms
# in blocks of 2**18 and 3.7-3.8 ms unblocked (shared 2-core machine).
_DISTANCE_BLOCK_ENTRIES = 2**16
# Philox blocks (4 uniforms each) computed together by philox_uniforms; a
# round's temporaries are (2, blocks) uint64 arrays, 64 kB each.
_PHILOX_CHUNK = 4096


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

    def from_unit_stream(self, draw: Callable[[int, int], np.ndarray], count: int) -> np.ndarray:
        """The first ``count`` points of a unit-square stream, mapped over the
        bounding box, that lie in the disc.  ``draw(start, k)`` returns stream
        points ``start`` to ``start + k - 1``, shape ``(k, 2)``, on consecutive
        ranges, so a sequential generator may ignore ``start``."""
        accepted, drawn = np.empty((0, 2)), 0
        while len(accepted) < count:
            chunk = max(32, 2 * (count - len(accepted)))
            mapped = self.bounding_box.from_unit(draw(drawn, chunk))
            drawn += chunk
            accepted = np.concatenate([accepted, mapped[self.contains(mapped)]])
        return accepted[:count]


Domain = Box | Disc


def halton_sequence(count: int, dim: int, start: int = 1) -> np.ndarray:
    """First ``count`` Halton points in the open unit cube (index origin 1).

    Coordinate ``j`` of point ``i`` is the radical inverse of ``i`` in the
    ``j``-th prime ``b``: digit ``k`` of ``i`` times ``b**-(k+1)``, that
    scale divided down from 1 one digit at a time, summed lowest digit
    first (a cumulative sum, so every point keeps the bits of that order).
    """
    if dim > len(_PRIMES):
        raise ValueError(f"halton sequence supports up to {len(_PRIMES)} dimensions")
    out = np.empty((count, dim))
    index = np.arange(start, start + count)[:, None]
    for j, base in enumerate(_PRIMES[:dim]):
        scales = [1.0 / base]
        while base ** len(scales) < start + count:
            scales.append(scales[-1] / base)
        terms = np.multiply(scales, index // base ** np.arange(len(scales)) % base)
        out[:, j] = terms.cumsum(axis=1)[:, -1]
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


def pairwise_distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of ``x`` ``(m, d)`` and ``y`` ``(n, d)``.

    The square root of the squared coordinate differences summed in
    coordinate order, as ``scipy.spatial.distance.cdist`` computes it, so
    the two agree bit for bit.  Allocates the ``(m, n)`` result and, for
    ``d > 1``, one temporary of the same shape; callers that build large
    matrices take it over row blocks (:func:`_distance_blocks`), which
    keeps both block-sized.
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
    """``(start, pairwise_distances(x[start:stop], y))`` over row blocks of ``x``.

    A block holds at most ``_DISTANCE_BLOCK_ENTRIES`` entries, and at least
    one row; each is a fresh array that the caller may overwrite.
    :attr:`PointSet.min_separation` and :meth:`MaternKernel.gram
    <kernelkit.kernels.MaternKernel.gram>` scan with it.
    """
    step = max(1, _DISTANCE_BLOCK_ENTRIES // max(1, len(y)))
    for start in range(0, len(x), step):
        yield start, pairwise_distances(x[start : start + step], y)


def _has_repeated_rows(points: np.ndarray) -> bool:
    """Whether two rows are equal, by sorting the rows' bytes.

    Adding ``0.0`` maps ``-0.0`` to ``0.0``, so rows that compare equal have
    equal bytes (the points lie in a domain, so none is NaN).
    """
    rows = np.add(points, 0.0, order="C")
    keys = np.sort(rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel())
    return bool((keys[1:] == keys[:-1]).any())


def distinct_rows(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First-seen positions of the byte-distinct rows, and each row's slot.

    Returns ``(first, slot)``: ``points[first]`` are the distinct rows in
    the order they first appear, and row ``i`` equals ``points[first][slot[i]]``.
    """
    rows = np.ascontiguousarray(points)
    keys = rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    slot = np.empty_like(order)
    slot[order] = np.arange(len(order))
    return first[order], slot[inverse.ravel()]


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


def tensor_weights(vectors: Sequence[np.ndarray]) -> np.ndarray:
    """The products ``((1 * v_1) * v_2) * ...`` of one entry of each vector,
    in :func:`tensor_grid` order: a tensor product's weights or eigenvalues."""
    weights = np.ones(1)
    for vector in vectors:
        weights = np.outer(weights, vector).ravel()
    return weights


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
        points = domain.from_unit_stream(lambda start, k: halton_sequence(k, 2, start + 1), count)
        return PointSet(points=points, domain=domain)
    raise TypeError(f"unsupported domain type {type(domain)!r}")


def philox_generator(seed: int, stream: int, draw: int = 0) -> np.random.Generator:
    """Counter-based generator: a pure function of ``(seed, stream, draw)``.

    The key is built as a uint64 array, so every seed below ``2**64`` keys
    its own stream (a list would reach numpy through float64)."""
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=[0, 0, draw, 0], key=key))


def philox_uniforms(seed: int, stream: int, start: int, shape) -> np.ndarray:
    """Values ``start`` onwards of ``philox_generator(seed, stream).random``,
    bit for bit, as an array of ``shape``, computed by uint64 array
    operations without loading ``numpy.random``.

    Value ``i`` is ``(w >> 11) * 2**-53`` for the Philox4x64-10 word ``w``
    in lane ``i % 4`` of the block keyed ``(seed, stream)`` at counter
    ``[i // 4 + 1, 0, 0, 0]`` (the generator increments its counter before
    each block; Salmon et al., SC'11).  Blocks are computed
    ``_PHILOX_CHUNK`` at a time, so the temporaries stay small beside the
    output.
    """
    count = math.prod(shape)
    first, last = start // 4, (start + count + 3) // 4
    out = np.empty(4 * (last - first))
    bump = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
    multiplier = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
    low, half = np.uint64(0xFFFFFFFF), np.uint64(32)
    m_lo, m_hi = multiplier & low, multiplier >> half
    for at in range(first, last, _PHILOX_CHUNK):
        counters = np.arange(at + 1, min(at + _PHILOX_CHUNK, last) + 1, dtype=np.uint64)
        # Counter words 0 and 2, and words 1 and 3, each pair one (2, blocks) array.
        even = np.stack([counters, np.zeros_like(counters)])
        odd = np.zeros_like(even)
        key = np.array([[seed], [stream]], dtype=np.uint64)
        for _ in range(10):
            # The high words of the 128-bit products even * multiplier, from
            # 32-bit halves; uint64 products wrap, so the low words are plain.
            e_lo, e_hi = even & low, even >> half
            cross, other = e_lo * m_hi, e_hi * m_lo
            middle = (e_lo * m_lo >> half) + (cross & low) + (other & low)
            high = e_hi * m_hi + (cross >> half) + (other >> half) + (middle >> half)
            even, odd = high[::-1] ^ odd ^ key, (even * multiplier)[::-1]
            key += bump
        words = np.stack([even, odd], axis=1).reshape(4, -1).T.ravel()
        offset = 4 * (at - first)
        out[offset : offset + words.size] = (words >> np.uint64(11)) * 2.0**-53
    return out[start - 4 * first :][:count].reshape(shape)


def random_points(domain: Domain, count: int, seed: int) -> np.ndarray:
    """Deterministic pseudo-random evaluation points inside a domain, from
    the uniforms of stream 101 of ``seed`` (:func:`philox_uniforms`), taken
    in order."""
    if isinstance(domain, Box):
        return domain.from_unit(philox_uniforms(seed, 101, 0, (count, domain.dim)))
    if isinstance(domain, Disc):
        return domain.from_unit_stream(
            lambda start, k: philox_uniforms(seed, 101, 2 * start, (k, 2)), count
        )
    raise TypeError(f"unsupported domain type {type(domain)!r}")

r"""Matern reproducing kernels, best-approximation fits, kernel quadrature.

The radial profile used throughout is

    phi(r) = 2**(1-beta) / Gamma(beta) * r**nu * K_nu(r),   nu = beta - d/2,

whose Fourier transform is ``(1 + |w|^2)**-beta``, so the native space of
the kernel ``Phi(x, y) = phi(|x - y| / length_scale)`` is the Sobolev
space of order ``beta``.  Supported orders are positive integer and
half-integer ``nu``; half-integer profiles use their closed
exponential-polynomial form (by Horner's rule), integer profiles the
modified Bessel function ``K_nu`` from ``K_0`` and ``K_1`` by upward
recurrence, with the analytic limit at ``r = 0``.  Distances come from
numpy (:func:`kernelkit.points.pairwise_distances`, bit-identical to
scipy's ``cdist``), and the profile is computed in place in the fresh
distance array (in a scaled copy of a caller's array through the public
:meth:`MaternKernel.profile`), so a Gram block costs the block and a few
temporaries.

A :class:`TensorKernel` multiplies Matern kernels on disjoint coordinate
blocks.  Tensor grids and sparse grids repeat each block coordinate many
times, so its Gram matrix, which the dense fits need, evaluates every
block profile once per pair of distinct block coordinates and gathers
the result back; the entries are bit-identical to the pairwise products.
A kernel expansion never forms its points x nodes Gram matrix: it keeps
a contraction plan of its nodes, which groups the coefficients by their
other-block coordinates into dense matrices over a prefix of the last
block's coordinates.  On a sparse grid, evaluation is then a few matrix
products of the last block's profile with those matrices, times gathers
of the other blocks' profiles per group of coordinates.  Expansions of
one kernel always evaluate as a stack, one expansion being a stack of
one: :func:`stack_layout` unites their block coordinates, and
:func:`evaluate_stacked`, the one loop over point chunks, computes each
chunk's block profiles once over that union, of which each plan
contracts its own columns.

Interpolation coefficients solve the symmetric positive-definite kernel
system ``(K + jitter I) x = b`` with an escalating diagonal shift, followed
by iterative refinement against the unshifted ``K`` so that node residuals
stay below 1e-8 relative even when a shift was needed.  A
:meth:`~kernelkit.points.PointSet.product` grid of two or more factors
under ``TensorKernel.product`` of their kernels has
``K = K_1 (x) ... (x) K_m``, read off the grid's factors
(:meth:`TensorKernel.grid_factors`); it is solved through the
eigendecomposition ``K_j = Q_j diag(lambda_j) Q_j^T`` of each factor, so a
fit on an ``n_1 x n_2`` grid costs ``n_1**3 + n_2**3`` instead of
``(n_1 n_2)**3`` and never forms ``K``; each Kronecker mode product is one
``np.dot``.  All other node sets are solved by a dense Cholesky
factorization, with the shift added in place to one copy of the Gram
matrix per attempt.  One cache, ``_FACTORED_GRAMS`` (32 MiB), keeps both
paths' factorizations, so fits of new values on nodes seen before factor
nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial, reduce
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.special import k0 as bessel_k0
from scipy.special import k1 as bessel_k1

from kernelkit.points import Box, PointSet, pairwise_distances, tensor_grid

_NU_TOL = 1e-9
_JITTER_START = 1e-12  # relative to trace/N
_JITTER_LIMIT = 1e-6
_RESIDUAL_TARGET = 1e-12
_RESIDUAL_REQUIRED = 1e-8
_REFINEMENT_PASSES = 4
_SMALL_RADIUS = 1e-8
_GAUSS_POINTS_PER_AXIS = 64
# Most entries that one evaluation chunk's shared block profiles hold
# together, and that any one of its group products holds
# (:func:`evaluate_stacked`).  The studies evaluate their stack after
# building every surrogate, when they hold the most memory, and an
# integer-order profile holds three temporaries of its own size: at 2**18
# entries the ouu study's peak RSS rose from 97.2 to 100.7 MB, at 2**16 it
# fell to 94.5 MB.
_STACK_BLOCK_ENTRIES = 2**16
# A contraction plan may hold up to this many coefficient-matrix entries
# per node; one that pads more evaluates by per-node gathers instead.
_PLAN_ENTRIES_PER_NODE = 2
# Bytes of factorizations that both fit paths keep (``_FACTORED_GRAMS``).
# The interp benchmark's ten grid factors (2 to 1024 points) hold 22.4 MB;
# its 1024-point factor, decomposed for the tuple (2, 1024), is used again
# at (1024, 2), and below about 23 MB it would be decomposed twice.  The
# ouu pipelines fit 239 times over 7 node sets of at most 128 nodes
# (0.26 MB a Gram matrix and its factor).
_FACTORED_GRAM_BYTES = 2**25


class ConditioningError(RuntimeError):
    """Kernel system could not be solved to tolerance."""

    def __init__(self, message: str, node_count: int, min_separation: float):
        super().__init__(
            f"{message} (nodes {node_count}, min separation {min_separation:.3e})"
        )
        self.node_count = node_count
        self.min_separation = min_separation


@dataclass(frozen=True)
class MaternKernel:
    """Matern kernel with Sobolev smoothness ``beta`` on ``R**dim``.

    Requires ``beta > dim / 2`` and ``nu = beta - dim/2`` to be a positive
    integer or half-integer.
    """

    beta: float
    dim: int
    length_scale: float = 1.0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dim}")
        if self.length_scale <= 0:
            raise ValueError(f"length scale must be positive, got {self.length_scale}")
        nu = self.beta - self.dim / 2.0
        if nu <= 0:
            raise ValueError(
                f"need beta > dim/2, got beta={self.beta}, dim={self.dim}"
            )
        doubled = 2.0 * nu
        if abs(doubled - round(doubled)) > _NU_TOL:
            raise ValueError(
                f"order nu={nu:g} unsupported: must be a positive integer or half-integer"
            )

    @property
    def nu(self) -> float:
        return self.beta - self.dim / 2.0

    @cached_property
    def _normalization(self) -> float:
        return 2.0 ** (1.0 - self.beta) / math.gamma(self.beta)

    @cached_property
    def value_at_zero(self) -> float:
        """Analytic limit ``2**(-d/2) Gamma(beta - d/2) / Gamma(beta)``."""
        return (
            2.0 ** (-self.dim / 2.0)
            * math.gamma(self.beta - self.dim / 2.0)
            / math.gamma(self.beta)
        )

    @cached_property
    def _half_integer_coefficients(self) -> np.ndarray | None:
        doubled = round(2.0 * self.nu)
        if doubled % 2 == 0:
            return None
        m = (doubled - 1) // 2
        # r**nu K_nu(r) = sqrt(pi/2) exp(-r) sum_k c_k 2**-k r**(m-k)
        coeffs = np.array(
            [
                math.factorial(m + k)
                / (math.factorial(k) * math.factorial(m - k))
                * 2.0**-k
                for k in range(m + 1)
            ]
        )
        return coeffs

    def profile(self, r: np.ndarray) -> np.ndarray:
        """Radial profile ``phi(r / length_scale)`` for raw distances ``r``.

        Works in place on the scaled copy of ``r``; ``r`` itself is not written.
        """
        return self._profile_in_place(np.array(r, dtype=float))

    def _profile_in_place(self, s: np.ndarray) -> np.ndarray:
        """:meth:`profile` of a float array that the caller hands over.

        ``s`` is scaled and overwritten; the result may be ``s`` itself.
        """
        s /= self.length_scale
        coeffs = self._half_integer_coefficients
        if coeffs is not None:
            if len(coeffs) == 1:
                poly = coeffs[0]
            else:  # Horner's rule, highest power first
                poly = s * coeffs[0]
                poly += coeffs[1]
                for c in coeffs[2:]:
                    poly *= s
                    poly += c
            out = np.negative(s, out=s)
            np.exp(out, out=out)
            out *= self._normalization * math.sqrt(math.pi / 2.0)
            out *= poly
            return out
        order = int(round(self.nu))
        far = s > _SMALL_RADIUS
        if far.all():
            out = _scaled_bessel_k(order, s)
            out *= self._normalization
            return out
        values = _scaled_bessel_k(order, s[far])
        values *= self._normalization
        s.fill(self.value_at_zero)
        s[far] = values
        return s

    def gram(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self._profile_in_place(
            pairwise_distances(np.atleast_2d(x), np.atleast_2d(y))
        )


def _scaled_bessel_k(order: int, s: np.ndarray) -> np.ndarray:
    """``s**order * K_order(s)`` for an integer ``order >= 1`` and ``s > 0``.

    Runs the upward recurrence ``K_{n+1} = K_{n-1} + (2n/s) K_n``, which is
    stable for ``K``, scaled by ``s**(n+1)``: with ``g_n = s**n K_n`` it
    reads ``g_{n+1} = s**2 g_{n-1} + 2n g_n``, a sum of positive terms.
    The recurrence runs in place in two arrays and one scratch array, and
    overwrites ``s`` with ``s**2``.
    """
    current = bessel_k1(s)
    current *= s
    if order > 1:
        previous = bessel_k0(s)
        s_sq = np.square(s, out=s)
        scratch = np.empty_like(s)
        for n in range(1, order):
            previous *= s_sq
            np.multiply(current, 2 * n, out=scratch)
            previous += scratch
            previous, current = current, previous
    return current


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


def _distinct_block_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Distinct rows and the gather index back, or ``(rows, None)`` if none repeat."""
    if rows.shape[0] < 2:
        return rows, None
    first, slot = distinct_rows(rows)
    if len(first) == rows.shape[0]:
        return rows, None
    return rows[first], slot


@dataclass(frozen=True)
class TensorKernel:
    """Product of Matern kernels acting on disjoint coordinate blocks."""

    blocks: tuple[tuple[MaternKernel, tuple[int, ...]], ...]

    def __post_init__(self):
        seen: list[int] = []
        for kernel, coords in self.blocks:
            if len(coords) != kernel.dim:
                raise ValueError(
                    f"block kernel dimension {kernel.dim} != slice length {len(coords)}"
                )
            seen.extend(coords)
        if sorted(seen) != list(range(len(seen))):
            raise ValueError(
                f"coordinate slices must partition 0..d-1, got {sorted(seen)}"
            )

    @classmethod
    def product(cls, factor_kernels: Sequence[MaternKernel]) -> "TensorKernel":
        """The kernel of ``factor_kernels`` on consecutive coordinate blocks,
        in order, as a :meth:`PointSet.product` grid lays out its factors."""
        coords = _factor_coords(factor_kernels)
        return cls(blocks=tuple(zip(factor_kernels, coords)))

    @property
    def dim(self) -> int:
        return sum(kernel.dim for kernel, _ in self.blocks)

    @cached_property
    def value_at_zero(self) -> float:
        return float(np.prod([k.value_at_zero for k, _ in self.blocks]))

    def split(
        self, points: np.ndarray
    ) -> tuple[tuple[np.ndarray, np.ndarray | None], ...]:
        """Each block's distinct coordinate rows of ``points``, with the index back.

        One ``(rows, slot)`` pair per block: the block columns of
        ``points`` equal ``rows[slot]``; when no row repeats, ``rows`` are
        the block columns themselves and ``slot`` is None.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return tuple(
            _distinct_block_rows(pts[:, list(coords)]) for _, coords in self.blocks
        )

    def split_nodes(
        self, nodes: PointSet
    ) -> tuple[tuple[np.ndarray, np.ndarray | None], ...]:
        """:meth:`split` of a point set's own points.

        A point set is pairwise distinct, so a single block, which covers
        every coordinate, has no repeated rows to search for.
        """
        if len(self.blocks) == 1:
            ((_, coords),) = self.blocks
            return ((nodes.points[:, list(coords)], None),)
        return self.split(nodes.points)

    def grid_factors(self, nodes: PointSet) -> list[np.ndarray] | None:
        """The factors' points of a :meth:`PointSet.product` grid of two or
        more factors laid out as this kernel's blocks, in order; else None.

        The grid's Gram matrix is then the Kronecker product of the blocks'
        Gram matrices over these points.  The structure is read off the
        factors, never searched for, so the same points as a plain point
        set get None.
        """
        factors = nodes.factors
        if len(factors) < 2 or [c for _, c in self.blocks] != _factor_coords(factors):
            return None
        return [factor.points for factor in factors]

    def gram(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Kernel matrix ``prod_b phi_b(|x_b - y_b|)`` over the blocks.

        Each block's profile is evaluated once per pair of distinct block
        coordinates and gathered back, so a tensor grid of ``n_1 x n_2``
        nodes costs ``n_1**2 + n_2**2`` profile entries instead of
        ``(n_1 n_2)**2``.  Every entry is the same product of the same
        profile values as the pairwise evaluation, bit for bit.
        """
        return self.split_gram(self.split(x), self.split(y))

    def split_gram(self, x_split, y_split) -> np.ndarray:
        """:meth:`gram` of two point arrays given by their :meth:`split`."""
        out = None
        for (kernel, _), (x_rows, x_slot), (y_rows, y_slot) in zip(
            self.blocks, x_split, y_split
        ):
            profile = kernel.gram(x_rows, y_rows)
            if x_slot is not None:
                profile = profile.take(x_slot, axis=0)
            if y_slot is not None:
                profile = profile.take(y_slot, axis=1)
            if out is None:
                # Products with the Gram matrix sum in memory order, so it
                # must be C-ordered like the pairwise evaluation's.
                out = np.ascontiguousarray(profile)
            else:
                out *= profile
        return out


def _factor_coords(factors) -> list[tuple[int, ...]]:
    """The consecutive coordinate blocks that ``factors``, each with a
    ``dim``, fill in order."""
    coords = []
    offset = 0
    for factor in factors:
        coords.append(tuple(range(offset, offset + factor.dim)))
        offset += factor.dim
    return coords


def single_block(kernel: MaternKernel) -> TensorKernel:
    """Tensor kernel with one block covering all coordinates."""
    return TensorKernel(blocks=((kernel, tuple(range(kernel.dim))),))


def _solve_spd(kernel: TensorKernel, nodes: PointSet, rhs: np.ndarray) -> np.ndarray:
    """Solve ``K x = rhs`` with jitter escalation and iterative refinement.

    A tensor grid (:meth:`TensorKernel.grid_factors`) is solved through its
    factors' eigendecompositions (:func:`_solve_kronecker`), all other node
    sets by a dense Cholesky factorization.  Raises ConditioningError when
    the shifted system is not positive definite at the largest admissible
    shift or the residual stays above the required tolerance.
    """
    factors = kernel.grid_factors(nodes)
    if factors is not None:
        return _solve_kronecker(kernel, factors, nodes, rhs)
    gram, factor = _FACTORED_GRAMS.get(
        (kernel, nodes.points.tobytes()), partial(_factor_gram, kernel, nodes)
    )
    # cho_factor checked the factor, and the refinement solves reuse it.
    solve = partial(cho_solve, (factor, True), check_finite=False)
    return _refine(solve, gram.__matmul__, rhs, nodes)


def _factor_gram(kernel: TensorKernel, nodes: PointSet):
    """``(gram, factor)``: the Gram matrix of ``nodes`` and the lower
    Cholesky factor of its smallest admissible diagonal shift."""
    split = kernel.split_nodes(nodes)
    gram = kernel.split_gram(split, split)
    count = len(nodes)
    base = np.trace(gram) / count
    jitter = _JITTER_START * base
    limit = _JITTER_LIMIT * base
    while True:
        # The Gram matrix is symmetric bit for bit, so the transpose of a C
        # copy is the same matrix in the Fortran order LAPACK factors in
        # place.
        shifted = gram.copy()
        shifted.flat[:: count + 1] += jitter
        try:
            factor, _ = cho_factor(shifted.T, lower=True, overwrite_a=True)
            break
        except LinAlgError:
            jitter *= 10.0
            if jitter > limit:
                raise _shift_failed(nodes) from None
    gram.setflags(write=False)
    factor.setflags(write=False)
    return gram, factor


def _decompose_factor(kernel: MaternKernel, rows: np.ndarray):
    """``(gram, eigenvalues, eigenvectors)`` of one block kernel on one
    factor's points."""
    gram = kernel.gram(rows, rows)
    eigenvalues, eigenvectors = np.linalg.eigh(gram)
    for array in (gram, eigenvalues, eigenvectors):
        array.setflags(write=False)
    return gram, eigenvalues, eigenvectors


class _FactoredGrams:
    """Factorizations by key, least recently used first, holding at most
    ``limit`` bytes of arrays.

    An entry is :func:`_factor_gram`'s pair by (kernel, node bytes) or
    :func:`_decompose_factor`'s triple by (block kernel, factor point
    bytes): read-only arrays, a pure function of the key, so every caller
    in the process may share it.  One larger than the bound is not kept.
    """

    def __init__(self, limit: int):
        self.limit = limit
        self.nbytes = 0
        self._entries: dict = {}

    def get(self, key, build: Callable[[], tuple]):
        """The entry of ``key``, from ``build()`` if it is not kept."""
        entry = self._entries.pop(key, None)
        if entry is None:
            entry = build()
            size = sum(array.nbytes for array in entry)
            if size > self.limit:
                return entry
            self.nbytes += size
        self._entries[key] = entry
        while self.nbytes > self.limit:
            oldest = self._entries.pop(next(iter(self._entries)))
            self.nbytes -= sum(array.nbytes for array in oldest)
        return entry

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()
        self.nbytes = 0


_FACTORED_GRAMS = _FactoredGrams(limit=_FACTORED_GRAM_BYTES)


def _kron_apply(matrices: Sequence[np.ndarray], x: np.ndarray) -> np.ndarray:
    """``(M_1 (x) ... (x) M_m) x`` for ``x`` shaped ``(n_1, ..., n_m)``.

    Each mode is one ``np.dot`` of ``M_j`` with mode ``j`` of ``x`` moved
    first and flattened behind it, the product ``np.tensordot(M_j, x,
    axes=(1, j))`` computes, so the two agree bit for bit.  The axes are
    moved by plain transposes, as ``np.moveaxis`` would move them.
    """
    for axis, matrix in enumerate(matrices):
        rest = range(axis + 1, x.ndim)
        moved = x.transpose(axis, *range(axis), *rest)
        product = np.dot(matrix, moved.reshape(len(moved), -1))
        x = product.reshape(moved.shape).transpose(*range(1, axis + 1), 0, *rest)
    return x


def _solve_kronecker(
    kernel: TensorKernel, factors: list[np.ndarray], nodes: PointSet, rhs: np.ndarray
) -> np.ndarray:
    """:func:`_solve_spd` on a tensor grid, through per-factor eigendecompositions.

    With ``K_j = Q_j diag(lambda_j) Q_j^T`` the shifted system is solved
    exactly as ``x = (x)Q_j [((x)Q_j^T b) / ((x)lambda_j + jitter)]``; the
    shift escalates like the dense path's while that spectrum is not
    positive, and refinement applies the unshifted ``(x)K_j`` by mode
    products, never forming the Gram matrix.
    """
    grams, eigenvalues, eigenvectors = zip(
        *(
            _FACTORED_GRAMS.get(
                (block, rows.tobytes()), partial(_decompose_factor, block, rows)
            )
            for (block, _), rows in zip(kernel.blocks, factors)
        )
    )
    shape = tuple(len(rows) for rows in factors)
    spectrum = reduce(np.multiply.outer, eigenvalues)
    # trace(K) / N, the dense path's shift scale.
    base = math.prod(np.trace(gram) / len(gram) for gram in grams)
    jitter = _JITTER_START * base
    limit = _JITTER_LIMIT * base
    while np.min(spectrum) + jitter <= 0.0:
        jitter *= 10.0
        if jitter > limit:
            raise _shift_failed(nodes)
    shifted = spectrum + jitter
    transposed = [q.T for q in eigenvectors]

    def solve(r: np.ndarray) -> np.ndarray:
        projected = _kron_apply(transposed, r.reshape(shape))
        return _kron_apply(eigenvectors, projected / shifted).ravel()

    def apply(x: np.ndarray) -> np.ndarray:
        return _kron_apply(grams, x.reshape(shape)).ravel()

    return _refine(solve, apply, rhs, nodes)


def _shift_failed(nodes: PointSet) -> ConditioningError:
    return ConditioningError(
        "shifted kernel system not positive definite at maximum diagonal shift",
        len(nodes),
        nodes.min_separation,
    )


def _refine(
    solve: Callable[[np.ndarray], np.ndarray],
    apply: Callable[[np.ndarray], np.ndarray],
    rhs: np.ndarray,
    nodes: PointSet,
) -> np.ndarray:
    """Solve the shifted system, then refine against the unshifted operator.

    ``solve`` applies the inverse of the shifted system and ``apply`` the
    unshifted Gram matrix.  Raises ConditioningError when the node residual
    stays above the required tolerance.
    """
    solution = solve(rhs)
    scale = np.max(np.abs(rhs))
    if scale > 0.0:
        for _ in range(_REFINEMENT_PASSES):
            residual = rhs - apply(solution)
            if np.max(np.abs(residual)) <= _RESIDUAL_TARGET * scale:
                break
            solution = solution + solve(residual)
        residual = rhs - apply(solution)
        if np.max(np.abs(residual)) > _RESIDUAL_REQUIRED * scale:
            raise ConditioningError(
                "node residual above tolerance after refinement",
                len(nodes),
                nodes.min_separation,
            )
    return solution


@dataclass(frozen=True)
class _ContractionPlan:
    """How a kernel expansion contracts its block profiles with its coefficients.

    Each block's profile is evaluated against ``node_rows``.  In a ranked
    plan (``contracted``) the last block's rows are its distinct
    coordinates ranked by node count, descending, and a node is the pair
    of its tuple (its distinct coordinates in the other blocks) and its
    last-block rank.  Each group ``(width, matrix, columns)`` holds the
    tuples whose highest rank is ``width - 1``: ``matrix`` is their
    ``width x tuples`` coefficient matrix and ``columns`` gives each other
    block's row of every tuple.  The gather plan has one group whose
    ``matrix`` is the coefficient row and whose ``columns`` give every
    block's row of every node.
    """

    node_rows: tuple[np.ndarray, ...]
    contracted: bool
    groups: tuple[tuple[int, np.ndarray, tuple[np.ndarray, ...]], ...]

    @classmethod
    def build(
        cls, kernel: TensorKernel, nodes: PointSet, coefficients: np.ndarray
    ) -> "_ContractionPlan":
        """The ranked plan, or the gather plan when ranking would pad too much.

        On a union of tensor grids over nested sequences every tuple's
        last-block partners are a prefix of the ranking, so the groups
        tile the nodes with no zero entries; on unstructured nodes the
        group matrices would be mostly zeros.
        """
        coefficients = np.asarray(coefficients, dtype=float)
        split = kernel.split_nodes(nodes)
        count = len(nodes)
        slots = [np.arange(count) if slot is None else slot for _, slot in split]
        *other_slots, last_slot = slots
        last_rows = split[-1][0]
        order = np.argsort(
            -np.bincount(last_slot, minlength=len(last_rows)), kind="stable"
        )
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        node_rank = rank[last_slot]
        if other_slots:
            first, tuple_of = distinct_rows(np.stack(other_slots, axis=1))
        else:
            first, tuple_of = np.zeros(1, dtype=int), np.zeros(count, dtype=int)
        width = np.zeros(len(first), dtype=int)
        np.maximum.at(width, tuple_of, node_rank + 1)
        if width.sum() > _PLAN_ENTRIES_PER_NODE * count:
            return cls(
                node_rows=tuple(rows for rows, _ in split),
                contracted=False,
                groups=((0, coefficients, tuple(slots)),),
            )
        position = np.empty_like(width)
        groups = []
        for w in np.unique(width):
            members = np.flatnonzero(width == w)
            position[members] = np.arange(len(members))
            in_group = np.flatnonzero(width[tuple_of] == w)
            matrix = np.zeros((w, len(members)))
            column = position[tuple_of[in_group]]
            matrix[node_rank[in_group], column] = coefficients[in_group]
            groups.append((int(w), matrix, tuple(s[first[members]] for s in other_slots)))
        return cls(
            node_rows=(*(rows for rows, _ in split[:-1]), last_rows[order]),
            contracted=True,
            groups=tuple(groups),
        )

    def over(
        self, rows: Sequence[np.ndarray], maps: Sequence[np.ndarray]
    ) -> "_ContractionPlan":
        """This plan against the gathered blocks' rows ``rows``.

        Row ``i`` of the plan's block ``b`` is row ``maps[b][i]`` of
        ``rows[b]``.  A ranked plan's last block keeps its own rows.
        """
        gathered = len(self.node_rows) - self.contracted
        groups = tuple(
            (width, matrix, tuple(m[c] for m, c in zip(maps, columns)))
            for width, matrix, columns in self.groups
        )
        node_rows = (*rows[:gathered], *self.node_rows[gathered:])
        return _ContractionPlan(node_rows, self.contracted, groups)

    def contract_profiles(self, profiles: list[np.ndarray]) -> np.ndarray:
        """The values at the points whose block profiles are ``profiles``.

        Per group, ``q = last[:, :width] @ matrix`` (or the coefficient
        row), times each gathered block's profile columns, summed per row.
        """
        last = profiles[-1] if self.contracted else None
        sums = []
        for width, matrix, columns in self.groups:
            product = matrix if last is None else last[:, :width] @ matrix
            for profile, cols in zip(profiles, columns):
                factor = profile.take(cols, axis=1)
                factor *= product
                product = factor
            sums.append(product.sum(axis=1))
        return reduce(np.add, sums)


def _block_profiles(
    kernel: TensorKernel, points: np.ndarray, node_rows: Sequence[np.ndarray]
) -> list[np.ndarray]:
    """Each block's profile between the block columns of ``points`` and its
    ``node_rows``.

    Points are taken as they come: study points do not repeat, so a search
    for repeated block rows would only cost time.
    """
    return [
        block.gram(points[:, list(coords)], nodes)
        for (block, coords), nodes in zip(kernel.blocks, node_rows)
    ]


def stack_layout(expansions: Sequence["KernelExpansion"]):
    """How :func:`evaluate_stacked` shares block profiles among expansions
    of one kernel.

    Returns ``(kernel, node_rows, members, columns)``.  ``node_rows``
    holds, per block, the distinct rows of all the plans' rows of that
    block, in first-seen order, so that nested plans' rows are prefixes.
    Each member is its plan moved onto those rows
    (:meth:`_ContractionPlan.over`) and, for a ranked plan, the last-block
    columns that are its own rows in rank order: a slice when they lie in
    a row, as nested members' rows do, otherwise an index array to
    gather.  ``columns`` counts a chunk's entries per point: in its shared
    profiles with the widest gathered last block, or in its widest group
    product, whichever is more.
    """
    kernel = expansions[0].kernel
    if any(e.kernel != kernel for e in expansions):
        raise ValueError("stacked expansions must share one kernel")
    plans = [e._plan for e in expansions]
    node_rows = []
    maps: list[list[np.ndarray]] = [[] for _ in plans]
    for b in range(len(plans[0].node_rows)):
        rows = np.concatenate([plan.node_rows[b] for plan in plans])
        first, slot = distinct_rows(rows)
        node_rows.append(rows[first])
        ends = np.cumsum([len(plan.node_rows[b]) for plan in plans])
        for own, piece in zip(maps, np.split(slot, ends[:-1])):
            own.append(piece)
    members = []
    gathered = 0
    for plan, own in zip(plans, maps):
        last = None
        if plan.contracted:
            last = own[-1]
            if np.array_equal(last, np.arange(last[0], last[0] + len(last))):
                last = slice(int(last[0]), int(last[0]) + len(last))
            else:
                gathered = max(gathered, len(last))
        members.append((plan.over(node_rows, own), last))
    columns = max(
        sum(map(len, node_rows)) + gathered,
        *(matrix.shape[-1] for plan in plans for _, matrix, _ in plan.groups),
    )
    return kernel, node_rows, members, columns


def evaluate_stacked(layout, points: np.ndarray) -> np.ndarray:
    """Values at ``points`` of the expansions laid out by :func:`stack_layout`,
    one column each.

    The one loop over point chunks.  A chunk holds ``_STACK_BLOCK_ENTRIES
    // columns`` points (at least one), so that its shared block profiles
    together, and each of its group products, hold at most
    ``_STACK_BLOCK_ENTRIES`` entries whatever the point count.  Per chunk
    each block's profile is computed once, against the layout's rows of
    that block, and each expansion contracts only its own columns of it.
    Domains are not checked.
    """
    kernel, node_rows, members, columns = layout
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    rows = max(1, _STACK_BLOCK_ENTRIES // columns)
    out = np.empty((pts.shape[0], len(members)))
    for start in range(0, pts.shape[0], rows):
        chunk = slice(start, start + rows)
        profiles = _block_profiles(kernel, pts[chunk], node_rows)
        for j, (plan, last) in enumerate(members):
            own = profiles if last is None else [*profiles[:-1], profiles[-1][:, last]]
            out[chunk, j] = plan.contract_profiles(own)
    return out


def _require_matching_dims(kernel: TensorKernel, nodes: PointSet) -> None:
    if kernel.dim != nodes.dim:
        raise ValueError(f"kernel dimension {kernel.dim} != node dimension {nodes.dim}")


@dataclass(frozen=True)
class KernelExpansion:
    """Kernel expansion ``x -> sum_i c_i Phi(x_i, x)`` over a node set.

    Every fit is one (:func:`fit_interpolant`).  Evaluation contracts each
    block's profile with the coefficients by a :class:`_ContractionPlan`,
    built once per expansion: on a sparse grid a few matrix products over
    the distinct block coordinates, never a points x nodes array.  An
    expansion evaluates as the one-term surrogate of itself
    (:meth:`kernelkit.surrogate.Surrogate.evaluate`), kept on the expansion.
    """

    kernel: TensorKernel
    nodes: PointSet
    coefficients: np.ndarray

    def __post_init__(self):
        _require_matching_dims(self.kernel, self.nodes)
        shape = np.shape(self.coefficients)
        if shape != (len(self.nodes),):
            raise ValueError(
                f"expansion over {len(self.nodes)} nodes needs one coefficient "
                f"per node, got coefficients of shape {shape}"
            )

    def evaluate(self, points: np.ndarray, check_domain: bool = True) -> np.ndarray:
        return self._surrogate.evaluate(points, check_domain)

    @cached_property
    def _surrogate(self):
        """The one-term surrogate of this expansion, whose layout is built once."""
        return KernelExpansion.weighted_sum([(1.0, self)])

    @cached_property
    def _plan(self) -> _ContractionPlan:
        return _ContractionPlan.build(self.kernel, self.nodes, self.coefficients)

    def __call__(self, point) -> float:
        return float(self.evaluate(np.asarray(point, dtype=float).reshape(1, -1))[0])

    def __rmul__(self, coefficient: float):
        return KernelExpansion.weighted_sum([(coefficient, self)])

    @staticmethod
    def weighted_sum(pairs: Sequence[tuple[float, "KernelExpansion"]]):
        """The surrogate ``sum_t c_t e_t``, merged once over all terms in order."""
        from kernelkit.surrogate import Surrogate

        return Surrogate(terms=tuple((float(c), e) for c, e in pairs))


def fit_interpolant(
    kernel: TensorKernel | MaternKernel, nodes: PointSet, values
) -> KernelExpansion:
    """Fit the minimum-norm kernel interpolant through ``values`` at ``nodes``."""
    if isinstance(kernel, MaternKernel):
        kernel = single_block(kernel)
    _require_matching_dims(kernel, nodes)
    rhs = np.asarray(values, dtype=float)
    if rhs.shape != (len(nodes),):
        raise ValueError(
            f"value vector length {rhs.shape} != node count {len(nodes)}"
        )
    alpha = _solve_spd(kernel, nodes, rhs)
    alpha.setflags(write=False)
    return KernelExpansion(kernel=kernel, nodes=nodes, coefficients=alpha)


@dataclass(frozen=True)
class QuadratureRule:
    """Kernel quadrature: integrates the interpolant of the supplied data."""

    nodes: PointSet
    weights: np.ndarray
    kernel: TensorKernel
    embeddings: np.ndarray  # integral of Phi(x_i, .) against the density

    def apply(self, values) -> float:
        data = np.asarray(values, dtype=float)
        if data.shape != (len(self.nodes),):
            raise ValueError(
                f"value vector length {data.shape} != node count {len(self.nodes)}"
            )
        return float(self.weights @ data)


def _gauss_legendre_grid(box: Box, per_axis: int) -> tuple[np.ndarray, np.ndarray]:
    xi, wi = np.polynomial.legendre.leggauss(per_axis)
    axes_pts = []
    axes_wts = []
    for lo, hi in zip(box.lows, box.highs):
        half = 0.5 * (hi - lo)
        axes_pts.append((lo + half * (xi + 1.0)).reshape(-1, 1))
        axes_wts.append(half * wi)
    pts = tensor_grid(axes_pts)
    wts = axes_wts[0]
    for w in axes_wts[1:]:
        wts = np.outer(wts, w).ravel()
    return pts, np.asarray(wts, dtype=float).ravel()


def quadrature_weights(
    kernel: TensorKernel | MaternKernel, nodes: PointSet
) -> QuadratureRule:
    """Kernel-quadrature weights for the uniform density on a box.

    The weights solve ``K w = c`` where ``c_i`` is the integral of
    ``Phi(x_i, .)`` against the uniform probability density, computed with
    a fixed tensor Gauss-Legendre reference rule (64 points per axis).
    """
    if isinstance(kernel, MaternKernel):
        kernel = single_block(kernel)
    _require_matching_dims(kernel, nodes)
    box = nodes.domain
    if not isinstance(box, Box):
        raise ValueError("quadrature weights require a box domain")
    if box.dim > 3:
        raise ValueError("tensor reference rule limited to dimension <= 3")
    grid, grid_w = _gauss_legendre_grid(box, _GAUSS_POINTS_PER_AXIS)
    embeddings = kernel.gram(nodes.points, grid) @ (grid_w / box.volume)
    weights = _solve_spd(kernel, nodes, embeddings)
    weights.setflags(write=False)
    embeddings.setflags(write=False)
    return QuadratureRule(
        nodes=nodes, weights=weights, kernel=kernel, embeddings=embeddings
    )


"""Fitted functions: signed combinations of kernel interpolants, and their evaluation.

A surrogate is the function-valued output of the combination engine: a
weighted sum of tensor-product kernel interpolants.  This module holds and
evaluates every fitted function, and imports neither
:mod:`kernelkit.kernels`, whose :func:`~kernelkit.kernels.fit_interpolant`
makes them, nor :mod:`kernelkit.packets`.  The terms of one combination
share a kernel and a domain, and a :class:`Surrogate` merges them into one
expansion when it is built; terms of different kernels or domains are
rejected.  An expansion is of one of two kinds, fixed by the kernel and
the nodes a fit is given:

* a :class:`KernelExpansion`, ``sum_i c_i Phi(x_i, .)`` over its nodes.
  The terms' nodes are nested prefixes, so their weighted sum is itself
  one kernel expansion over the distinct nodes (the combination
  technique's collapse onto the sparse grid).  It is evaluated by its
  contraction plan (:class:`_ContractionPlan`), never by its points x
  nodes Gram matrix;
* a :class:`PacketExpansion`, the fits on product grids of
  one-dimensional half-integer blocks (:class:`PacketGrid`) in their
  factors' kernel-packet bases (:mod:`kernelkit.packets`).  Packets depend
  on the whole factor, so these do not collapse by node: the merged
  expansion holds each grid once with its summed weight, and its
  ``nodes``, the distinct nodes of its grids, describe it only.

It is the one function-valued type: a fit is the one-term surrogate of its
expansion, and the engine reduces a combination of fits in one call
(:meth:`Surrogate.weighted_sum`), in lexicographic order; merging is a
fixed function of the term order, so the result is reproducible.  A
surrogate is evaluated on its domain only: :meth:`Surrogate.evaluate`
refuses a point outside it, as no pipeline extrapolates.

A study compares many surrogates at the same points: one per threshold
``L``, per replication, and a reference.  Their nodes are prefixes of one
nested sequence, so :meth:`Surrogate.stack` evaluates them together, one
column per member.  Every evaluation is such a stack, a plain surrogate
being the one-column stack of itself, laid out once per surrogate in the
layout of its expansions' kind (:func:`stack_layout`).  The one loop over
point chunks, :func:`evaluate_stacked`, has that layout fill each chunk's
columns from block profiles or packet values computed once per chunk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Any, NamedTuple, Sequence

import numpy as np

from kernelkit.points import PointSet, distinct_rows

# Most entries that one evaluation chunk's shared block profiles or basis
# values hold together, and that any one of its group products or gathered
# weights holds (:func:`evaluate_stacked`).  The studies evaluate their
# stack after building every surrogate, when they hold the most memory.  Up
# to ``points._DISTANCE_BLOCK_ENTRIES`` (also 2**16) a kernel block's
# profile is one distance block, profiled in place: at half-integer order
# beside one temporary of its own size; at integer order within the series
# radius beside a fixed 0.33 MB (``kernels._BESSEL_SERIES_BLOCK``), and
# above it beside three temporaries of its own size.  A larger budget would
# build each profile from several distance blocks and copy them.  Against
# 2**16, 2**18 entries raised the peak RSS of one run at 1 BLAS thread by
# 0.1-0.4 MB for interp (80.3-80.5 to 80.6-80.7 MB) and by 1.8-1.9 MB for
# rsr (63.7-63.9 to 65.6-65.7 MB), and left ouu's at 75.6-75.7 MB, when
# distances were not yet blocked.
_STACK_BLOCK_ENTRIES = 2**16


@dataclass(frozen=True)
class _ContractionPlan:
    """How a kernel expansion contracts its block profiles with its coefficients.

    Each block's profile is evaluated against ``node_rows``.  The last
    block's rows are its distinct coordinates ranked by node count,
    descending, and a node is the pair of its tuple (its distinct
    coordinates in the other blocks) and its last-block rank.  Each group
    ``(width, matrix, columns)`` holds the tuples whose highest rank is
    ``width - 1``: ``matrix`` is their ``width x tuples`` coefficient
    matrix and ``columns`` gives each other block's row of every tuple.
    """

    node_rows: tuple[np.ndarray, ...]
    groups: tuple[tuple[int, np.ndarray, tuple[np.ndarray, ...]], ...]

    @classmethod
    def build(cls, kernel, nodes: PointSet, coefficients: np.ndarray) -> "_ContractionPlan":
        """The ranked plan of an expansion.

        On a union of tensor grids over nested sequences, which is every
        expansion a pipeline builds, each tuple's last-block partners are
        a prefix of the ranking, so the groups tile the nodes with no zero
        entries; other node sets are padded with zeros.
        """
        coefficients = np.asarray(coefficients, dtype=float)
        split = kernel.split_nodes(nodes)
        *other_slots, last_slot = (slot for _, slot in split)
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
            first, tuple_of = np.zeros(1, dtype=int), np.zeros(len(nodes), dtype=int)
        width = np.zeros(len(first), dtype=int)
        np.maximum.at(width, tuple_of, node_rank + 1)
        position = np.empty_like(width)
        groups = []
        for w in np.flatnonzero(np.bincount(width)):
            members = np.flatnonzero(width == w)
            position[members] = np.arange(len(members))
            in_group = np.flatnonzero(width[tuple_of] == w)
            matrix = np.zeros((w, len(members)))
            column = position[tuple_of[in_group]]
            matrix[node_rank[in_group], column] = coefficients[in_group]
            groups.append((int(w), matrix, tuple(s[first[members]] for s in other_slots)))
        return cls(
            node_rows=(*(rows for rows, _ in split[:-1]), last_rows[order]),
            groups=tuple(groups),
        )


class _KernelLayout(NamedTuple):
    """How :func:`evaluate_stacked` shares block profiles among kernel
    expansions of one kernel (:meth:`KernelExpansion.layout`).

    ``node_rows`` holds, per block, the distinct rows of all the plans'
    rows of that block, in first-seen order, so that nested plans' rows are
    prefixes.  Each of the ``count`` members is its plan's groups, their
    columns moved onto those rows, and its own last-block columns in rank
    order: a slice when they lie in a row, as nested members' do, otherwise
    an index array to gather.  ``columns`` counts a chunk's entries per
    point: in its shared profiles with the widest gathered last block, or
    in its widest group product, whichever is more.
    """

    kernel: Any
    node_rows: list[np.ndarray]
    members: list
    count: int
    columns: int

    def fill(self, points: np.ndarray, out: np.ndarray) -> None:
        """Write the members' values at the chunk ``points`` into ``out``:
        each block's profile once, against the layout's rows of that block;
        per member and group, ``q = last[:, :width] @ matrix`` over the
        member's own last-block columns, times each other block's profile
        columns, summed per row."""
        # Points are taken as they come: study points do not repeat, so a
        # search for repeated block rows would only cost time.
        kernel = self.kernel
        *others, shared = [
            block.gram(points[:, columns], nodes)
            for block, columns, nodes in zip(kernel.kernels, kernel._columns, self.node_rows)
        ]
        for j, (groups, own) in enumerate(self.members):
            last = shared[:, own]
            sums = []
            for width, matrix, columns in groups:
                product = last[:, :width] @ matrix
                for profile, cols in zip(others, columns):
                    factor = profile.take(cols, axis=1)
                    factor *= product
                    product = factor
                sums.append(product.sum(axis=1))
            out[:, j] = reduce(np.add, sums)


@dataclass(frozen=True)
class KernelExpansion:
    """The kernel, nodes and coefficients of ``x -> sum_i c_i Phi(x_i, x)``,
    ``kernel`` a :class:`~kernelkit.kernels.TensorKernel`.

    A :class:`Surrogate` evaluates it, a fit
    (:func:`~kernelkit.kernels.fit_interpolant`) being the one-term
    surrogate of one, by a :class:`_ContractionPlan` built once per
    expansion: on a sparse grid a few matrix products over the distinct
    block coordinates.
    """

    kernel: Any
    nodes: PointSet
    coefficients: np.ndarray

    def __post_init__(self):
        if self.kernel.dim != self.nodes.dim:
            raise ValueError(
                f"kernel dimension {self.kernel.dim} != node dimension {self.nodes.dim}"
            )
        shape = np.shape(self.coefficients)
        if shape != (len(self.nodes),):
            raise ValueError(
                f"expansion over {len(self.nodes)} nodes needs one coefficient "
                f"per node, got coefficients of shape {shape}"
            )

    @property
    def domain(self):
        return self.nodes.domain

    @cached_property
    def _plan(self) -> _ContractionPlan:
        return _ContractionPlan.build(self.kernel, self.nodes, self.coefficients)

    @classmethod
    def merge(cls, terms) -> "KernelExpansion":
        """The one expansion of the weighted kernel expansions ``terms``:
        over the byte-distinct node rows of the terms, in first-seen order,
        with the weighted term coefficients summed per node in term order."""
        head = terms[0][1]
        points = np.concatenate([e.nodes.points for _, e in terms])
        weighted = np.concatenate([float(c) * e.coefficients for c, e in terms])
        first, slot = distinct_rows(points)
        coefficients = np.bincount(slot, weights=weighted, minlength=len(first))
        coefficients.setflags(write=False)
        nodes = PointSet(points=points[first], domain=head.domain)
        return cls(kernel=head.kernel, nodes=nodes, coefficients=coefficients)

    @staticmethod
    def layout(expansions: Sequence["KernelExpansion"]) -> _KernelLayout:
        """The :class:`_KernelLayout` of kernel expansions of one kernel."""
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
        for plan, (*other, last) in zip(plans, maps):
            if np.array_equal(last, np.arange(last[0], last[0] + len(last))):
                last = slice(int(last[0]), int(last[0]) + len(last))
            else:
                gathered = max(gathered, len(last))
            groups = [
                (width, matrix, [m[c] for m, c in zip(other, columns)])
                for width, matrix, columns in plan.groups
            ]
            members.append((groups, last))
        columns = max(
            sum(map(len, node_rows)) + gathered,
            *(matrix.shape[-1] for plan in plans for _, matrix, _ in plan.groups),
        )
        return _KernelLayout(expansions[0].kernel, node_rows, members, len(members), columns)


@dataclass(frozen=True, eq=False)
class PacketGrid:
    """A fit on a product grid, ``x -> sum_i weights[i] prod_j b_(j, i_j)(x_j)``
    over the bases ``b_j`` of its factors
    (:class:`kernelkit.packets._FactorBasis`), with ``weights`` shaped by
    the factors, in each basis's order."""

    nodes: PointSet
    bases: tuple
    weights: np.ndarray

    def contract(self, values: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
        """The values at the points whose basis values, per factor, are
        ``values`` (:meth:`~kernelkit.packets._FactorBasis.values`): per
        point, the weights of the functions nonzero there, gathered and
        contracted with one factor's values at a time, the last first."""
        index = sum(first * stride for (first, _), stride in zip(values, self._strides))
        gathered = np.take(self.weights, index[:, None] + self._offsets).reshape(-1, *self._widths)
        for _, factor in values[:0:-1]:
            gathered = np.einsum("p...a,pa->p...", gathered, factor)
        return np.einsum("pa,pa->p", gathered, values[0][1])

    @cached_property
    def _strides(self) -> tuple[int, ...]:
        return tuple(s // self.weights.itemsize for s in self.weights.strides)

    @cached_property
    def _widths(self) -> tuple[int, ...]:
        return tuple(basis.width for basis in self.bases)

    @cached_property
    def _offsets(self) -> np.ndarray:
        """Each function tuple's offset in the weights from its first one's."""
        offsets = np.zeros(1, dtype=np.intp)
        for width, stride in zip(self._widths, self._strides):
            offsets = (offsets[:, None] + stride * np.arange(width)).ravel()
        return offsets


class _PacketLayout(NamedTuple):
    """How :func:`evaluate_stacked` shares values among packet expansions
    of one kernel (:meth:`PacketExpansion.layout`).

    ``bases`` holds the distinct factor bases, each with its block;
    ``grids`` the distinct grids in first-seen order, each with the
    positions of its bases and its uses, ``(column, coefficient)`` per term
    of an expansion that holds it; ``count`` the number of expansions; and
    ``columns`` the entries per point that a chunk holds at most: in its
    basis values together, in the largest array of one basis's values
    (``_FactorBasis.entries``) or in one grid's gathered weights.
    """

    kernel: Any
    bases: list
    grids: list
    count: int
    columns: int

    def fill(self, points: np.ndarray, out: np.ndarray) -> None:
        """Add the expansions' values at the chunk ``points`` to ``out``:
        each basis's values once, and each grid's values once from them,
        added to the column of each expansion that holds the grid."""
        values = [
            basis.values(points[:, self.kernel._columns[block]]) for block, basis in self.bases
        ]
        for grid, positions, uses in self.grids:
            value = grid.contract([values[p] for p in positions])
            for column, coefficient in uses:
                out[:, column] += coefficient * value


@dataclass(frozen=True, eq=False)
class PacketExpansion:
    """``x -> sum_g c_g g(x)`` over fits on product grids of one tensor
    kernel (:class:`PacketGrid`), ``grids`` holding the pairs ``(c_g, g)``.

    A fit on a grid of one-dimensional blocks of order 1/2, 3/2 or 5/2
    (:func:`~kernelkit.kernels._packet_solve`) is the expansion of its one
    grid.  Packets depend on the whole factor, so grids are not merged by
    node as kernel expansions are: ``nodes``, the grids' distinct nodes in
    first-seen order, describes the expansion and takes no part in
    evaluating it.
    """

    kernel: Any
    grids: tuple[tuple[float, PacketGrid], ...]

    @property
    def domain(self):
        return self.grids[0][1].nodes.domain

    @cached_property
    def nodes(self) -> PointSet:
        (_, head), *rest = self.grids
        if not rest:
            return head.nodes
        points = np.concatenate([grid.nodes.points for _, grid in self.grids])
        first, _ = distinct_rows(points)
        return PointSet(points=points[first], domain=self.domain)

    @classmethod
    def merge(cls, terms) -> "PacketExpansion":
        """The one expansion of the weighted packet expansions ``terms``:
        their distinct grids, in first-seen order, each with its weights
        times the terms' summed in term order."""
        grids: dict[int, list] = {}
        for w, e in terms:
            for c, grid in e.grids:
                grids.setdefault(id(grid), [0.0, grid])[0] += float(w) * c
        return cls(kernel=terms[0][1].kernel, grids=tuple(map(tuple, grids.values())))

    @staticmethod
    def layout(expansions: Sequence["PacketExpansion"]) -> _PacketLayout:
        """The :class:`_PacketLayout` of packet expansions of one kernel."""
        bases: dict = {}
        grids: dict = {}
        for column, expansion in enumerate(expansions):
            for coefficient, grid in expansion.grids:
                if id(grid) not in grids:
                    positions = tuple(
                        bases.setdefault((block, id(basis)), (len(bases), block, basis))[0]
                        for block, basis in enumerate(grid.bases)
                    )
                    grids[id(grid)] = (grid, positions, [])
                grids[id(grid)][2].append((column, coefficient))
        columns = max(
            sum(basis.width for _, _, basis in bases.values()),
            *(basis.entries for _, _, basis in bases.values()),
            *(math.prod(grid._widths) for grid, _, _ in grids.values()),
        )
        bases = [(block, basis) for _, block, basis in bases.values()]
        return _PacketLayout(
            expansions[0].kernel, bases, list(grids.values()), len(expansions), columns
        )


def stack_layout(expansions: Sequence[KernelExpansion | PacketExpansion]):
    """How :func:`evaluate_stacked` evaluates ``expansions``, one column
    each: the layout of their kind.  Raises ValueError unless they share
    one kernel and one kind."""
    kind, kernel = type(expansions[0]), expansions[0].kernel
    if any(type(e) is not kind or e.kernel != kernel for e in expansions):
        raise ValueError("stacked expansions must share one kernel and one basis")
    return kind.layout(expansions)


def evaluate_stacked(layout, points: np.ndarray) -> np.ndarray:
    """Values at the ``(P, dim)`` float array ``points`` of the expansions
    laid out by :func:`stack_layout`, one column each.

    The one loop over point chunks.  A chunk holds ``_STACK_BLOCK_ENTRIES
    // layout.columns`` points (at least one), so that its shared profiles
    or basis values together, and each of its group products or gathered
    weights, hold at most ``_STACK_BLOCK_ENTRIES`` entries whatever the
    point count; the layout fills each chunk's columns.  Domains are not
    checked.
    """
    rows = max(1, _STACK_BLOCK_ENTRIES // layout.columns)
    out = np.zeros((len(points), layout.count))
    for start in range(0, len(points), rows):
        layout.fill(points[start : start + rows], out[start : start + rows])
    return out


def _merge(terms) -> tuple[float, KernelExpansion | PacketExpansion]:
    """The one expansion ``(1.0, expansion)`` of ``terms``, merged by their
    kind (:meth:`KernelExpansion.merge`, :meth:`PacketExpansion.merge`).

    Raises ValueError unless the terms share one kernel, one domain and one
    kind of expansion.
    """
    (weight, head), *rest = terms
    kernel, domain = head.kernel, head.domain
    if any(e.kernel != kernel or e.domain != domain for _, e in rest):
        raise ValueError("surrogate terms must share one kernel and one domain")
    if any(type(e) is not type(head) for _, e in rest):
        raise ValueError("surrogate terms must share one kind of expansion")
    if not rest and float(weight) == 1.0:
        return 1.0, head  # already one expansion
    return 1.0, type(head).merge(terms)


@dataclass(frozen=True)
class Surrogate:
    """Weighted sum of expansions of one kernel on one domain, merged into
    one expansion.

    ``terms`` pairs a coefficient with an expansion; after construction
    it is the single pair ``(1.0, expansion)``, the weights living in the
    expansion's coefficients or grid weights.  A stack (:meth:`stack`) also
    holds its ``members``; its terms are theirs, one per member, in member
    order.
    """

    terms: tuple[tuple[float, KernelExpansion | PacketExpansion], ...]
    members: tuple["Surrogate", ...] = ()

    def __post_init__(self):
        if len(self.terms) == 0:
            raise ValueError("surrogate needs at least one term")
        if not self.members:
            object.__setattr__(self, "terms", (_merge(self.terms),))

    @classmethod
    def stack(cls, members: Sequence["Surrogate"]) -> "Surrogate":
        """The surrogates ``members`` evaluated together.

        ``evaluate(points)`` of the stack returns one column per member,
        shape ``(P, len(members))``, each equal to the member's own
        :meth:`evaluate` up to rounding.  The members share each chunk's
        block profiles or packet values (:func:`evaluate_stacked`), so they
        must share one kernel and one kind of expansion.
        """
        members = tuple(members)
        if not members or any(m.members for m in members):
            raise ValueError("a stack needs one or more surrogates that are not stacks")
        return cls(terms=tuple(t for m in members for t in m.terms), members=members)

    @classmethod
    def weighted_sum(cls, pairs: Sequence[tuple[float, "Surrogate"]]) -> "Surrogate":
        """The surrogate ``sum_t c_t s_t``, its terms merged once in order."""
        return cls(terms=tuple((float(c) * w, e) for c, s in pairs for w, e in s.terms))

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Values at ``points``: shape ``(P,)``, or ``(P, members)`` for a
        stack.  Raises ValueError, naming the first, if a point lies outside
        an expansion's domain (its ``contains``, within 1e-12)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        for domain in dict.fromkeys(expansion.domain for _, expansion in self.terms):
            outside = np.flatnonzero(~domain.contains(pts))
            if outside.size:
                raise ValueError(
                    f"point {outside[0]}, {pts[outside[0]].tolist()}, lies outside "
                    f"its domain {domain}: a surrogate is not extrapolated"
                )
        out = evaluate_stacked(self._layout, pts)
        return out if self.members else out[:, 0]

    @cached_property
    def _layout(self):
        """:func:`stack_layout` of the expansions, one per output column."""
        return stack_layout([expansion for _, expansion in self.terms])

    def __call__(self, point) -> float:
        return float(self.evaluate(np.asarray(point, dtype=float).reshape(1, -1))[0])

"""Signed combinations of kernel interpolants.

A surrogate is the function-valued output of the combination engine: a
weighted sum of tensor-product kernel interpolants.  The terms of one
combination share a kernel and a domain, and a :class:`Surrogate` merges
them into one expansion when it is built; terms of different kernels or
domains are rejected.  An expansion is of one of two kinds, fixed by the
kernel and the nodes a fit is given
(:func:`~kernelkit.kernels.fit_interpolant`):

* a :class:`~kernelkit.kernels.KernelExpansion`, ``sum_i c_i Phi(x_i, .)``
  over its nodes.  The terms' nodes are nested prefixes, so their weighted
  sum is itself one kernel expansion over the distinct nodes (the
  combination technique's collapse onto the sparse grid);
* a :class:`~kernelkit.packets.PacketExpansion`, the fits on product grids
  of one-dimensional half-integer blocks in their factors' kernel-packet
  bases.  Packets depend on the whole factor, so these do not collapse by
  node: the merged expansion holds each grid once with its summed weight,
  and its ``nodes``, the distinct nodes of its grids, describe it only.

It is the one function-valued type: a fit is the one-term surrogate of its
expansion, and the engine reduces a combination of fits in one call
(:meth:`Surrogate.weighted_sum`), in lexicographic order; merging is a
fixed function of the term order, so the result is reproducible.

A study compares many surrogates at the same points: one per threshold
``L``, per replication, and a reference.  Their nodes are prefixes of one
nested sequence, so :meth:`Surrogate.stack` evaluates them together,
one column per member.  Every evaluation is such a stack, a plain
surrogate being the one-column stack of itself, laid out once per
surrogate.  Kernel expansions take one
:func:`~kernelkit.kernels.stack_layout`: per chunk of points each block's
profile is computed once over the layout's distinct block coordinates, of
which each expansion contracts only its own columns, never a zero-padded
product over the union.  Packet expansions take one
:func:`~kernelkit.packets.packet_layout`: per chunk each factor's packet
values are computed once, and each grid's values once from them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

import numpy as np

from kernelkit.kernels import KernelExpansion, distinct_rows, evaluate_stacked, stack_layout
from kernelkit.points import PointSet

if TYPE_CHECKING:
    from kernelkit.packets import PacketExpansion


def _merge(terms) -> tuple[float, KernelExpansion | PacketExpansion]:
    """The one expansion ``(1.0, expansion)`` of ``terms``.

    Kernel expansions merge by node: the nodes are the byte-distinct node
    rows of the terms, in first-seen order, and the coefficients are the
    weighted term coefficients summed per node in term order.  Packet
    expansions merge by grid: the distinct grids of the terms, in
    first-seen order, each with its weights times the terms' summed in term
    order.  Raises ValueError unless the terms share one kernel, one domain
    and one kind of expansion.
    """
    (weight, head), *rest = terms
    kernel, domain = head.kernel, head.domain
    if any(e.kernel != kernel or e.domain != domain for _, e in rest):
        raise ValueError("surrogate terms must share one kernel and one domain")
    if any(type(e) is not type(head) for _, e in rest):
        raise ValueError("surrogate terms must share one kind of expansion")
    if not rest and float(weight) == 1.0:
        return 1.0, head  # already one expansion
    if not isinstance(head, KernelExpansion):
        from kernelkit.packets import PacketExpansion

        grids: dict[int, list] = {}
        for w, e in terms:
            for c, grid in e.grids:
                grids.setdefault(id(grid), [0.0, grid])[0] += float(w) * c
        return 1.0, PacketExpansion(kernel=kernel, grids=tuple(map(tuple, grids.values())))
    points = np.concatenate([e.nodes.points for _, e in terms])
    weighted = np.concatenate([float(c) * e.coefficients for c, e in terms])
    first, slot = distinct_rows(points)
    coefficients = np.bincount(slot, weights=weighted, minlength=len(first))
    coefficients.setflags(write=False)
    expansion = KernelExpansion(
        kernel=kernel,
        nodes=PointSet(points=points[first], domain=domain),
        coefficients=coefficients,
    )
    return 1.0, expansion


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
        block profiles (:func:`evaluate_stacked`) or packet values
        (:func:`~kernelkit.packets.evaluate_packets`), so they must share
        one kernel and one kind of expansion.
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
        """Values at ``points``: shape ``(P,)``, or ``(P, members)`` for a stack."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        domains = {expansion.domain for _, expansion in self.terms}
        if not all(np.all(domain.contains(pts)) for domain in domains):
            warnings.warn(
                "evaluating kernel expansion outside its domain (extrapolation)",
                stacklevel=2,
            )
        evaluate, layout = self._layout
        out = evaluate(layout, pts)
        return out if self.members else out[:, 0]

    @cached_property
    def _layout(self):
        """The evaluation and layout of the expansions, one per output
        column: :func:`stack_layout` of kernel expansions, or
        :func:`packet_layout` of packet expansions."""
        expansions = [expansion for _, expansion in self.terms]
        if isinstance(expansions[0], KernelExpansion):
            return evaluate_stacked, stack_layout(expansions)
        from kernelkit.packets import evaluate_packets, packet_layout

        return evaluate_packets, packet_layout(expansions)

    def __call__(self, point) -> float:
        return float(self.evaluate(np.asarray(point, dtype=float).reshape(1, -1))[0])

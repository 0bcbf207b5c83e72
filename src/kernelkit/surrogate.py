"""Signed combinations of kernel expansions.

A surrogate is the function-valued output of the combination engine: a
weighted sum of tensor-product kernel interpolants.  The terms of one
combination share a kernel and a domain, and their nodes are nested
prefixes, so the weighted sum is itself one kernel expansion over the
distinct nodes (the combination technique's collapse onto the sparse
grid).  A :class:`Surrogate` keeps it in that form: one expansion per
distinct ``(kernel, domain)`` pair, merged when the surrogate is built.
It is built from its terms, which the engine hands over in one call
(:meth:`~kernelkit.kernels.KernelExpansion.weighted_sum`), in
lexicographic order; merging is a fixed function of the term order, so
the result is reproducible.

A study compares many surrogates at the same points: one per threshold
``L``, per replication, and a reference.  Their nodes are prefixes of one
nested sequence, so :meth:`Surrogate.stack` evaluates them together,
one column per member.  Every evaluation is such a stack, a plain
surrogate being the one-column stack of itself: per kernel, a
:func:`~kernelkit.kernels.stack_layout` of the expansions of that kernel,
built once per surrogate, and per chunk of points each block's profile
computed once over the layout's distinct block coordinates, of which each
expansion contracts only its own columns, never a zero-padded product
over the union.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from kernelkit.kernels import (
    KernelExpansion,
    TensorKernel,
    distinct_rows,
    evaluate_stacked,
    stack_layout,
)
from kernelkit.points import Domain, PointSet


def _merge(terms) -> tuple[tuple[float, KernelExpansion], ...]:
    """One expansion per ``(kernel, domain)`` pair, in first-seen order.

    Its nodes are the byte-distinct node rows of the pair's terms, and its
    coefficients are the weighted term coefficients summed per node in
    term order.
    """
    groups: dict[tuple[TensorKernel, Domain], list[tuple[float, KernelExpansion]]] = {}
    for coefficient, expansion in terms:
        key = (expansion.kernel, expansion.nodes.domain)
        groups.setdefault(key, []).append((float(coefficient), expansion))
    merged = []
    for (kernel, domain), group in groups.items():
        if len(group) == 1 and group[0][0] == 1.0:
            merged.append(group[0])  # already one expansion over distinct nodes
            continue
        points = np.concatenate([e.nodes.points for _, e in group])
        weighted = np.concatenate([c * e.coefficients for c, e in group])
        first, slot = distinct_rows(points)
        coefficients = np.bincount(slot, weights=weighted, minlength=len(first))
        coefficients.setflags(write=False)
        expansion = KernelExpansion(
            kernel=kernel,
            nodes=PointSet(points=points[first], domain=domain),
            coefficients=coefficients,
        )
        merged.append((1.0, expansion))
    return tuple(merged)


@dataclass(frozen=True)
class Surrogate:
    """Weighted sum of kernel expansions, merged per ``(kernel, domain)``.

    ``terms`` pairs a coefficient with an expansion; after construction
    every coefficient is 1.0 and the weights live in the expansions'
    coefficients.  A stack (:meth:`stack`) also holds its ``members``;
    its terms are theirs, in member order and not merged.
    """

    terms: tuple[tuple[float, KernelExpansion], ...]
    members: tuple["Surrogate", ...] = ()

    def __post_init__(self):
        if len(self.terms) == 0:
            raise ValueError("surrogate needs at least one term")
        if not self.members:
            object.__setattr__(self, "terms", _merge(self.terms))

    @classmethod
    def stack(cls, members: Sequence["Surrogate"]) -> "Surrogate":
        """The surrogates ``members`` evaluated together.

        ``evaluate(points)`` of the stack returns one column per member,
        shape ``(P, len(members))``, each equal to the member's own
        :meth:`evaluate` up to rounding.  Members' expansions of one kernel
        share each chunk's block profiles (:func:`evaluate_stacked`).
        """
        members = tuple(members)
        if not members or any(m.members for m in members):
            raise ValueError("a stack needs one or more surrogates that are not stacks")
        return cls(terms=tuple(t for m in members for t in m.terms), members=members)

    def evaluate(self, points: np.ndarray, check_domain: bool = True) -> np.ndarray:
        """Values at ``points``: shape ``(P,)``, or ``(P, members)`` for a stack."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if check_domain:
            domains = {expansion.nodes.domain for _, expansion in self.terms}
            if not all(np.all(domain.contains(pts)) for domain in domains):
                warnings.warn(
                    "evaluating kernel expansion outside its domain (extrapolation)",
                    stacklevel=2,
                )
        out = np.zeros((pts.shape[0], len(self.members) or 1))
        for layout, owners in self._layouts:
            values = evaluate_stacked(layout, pts)
            for (column, coefficient), value in zip(owners, values.T):
                out[:, column] += coefficient * value
        return out if self.members else out[:, 0]

    @cached_property
    def _layouts(self) -> list[tuple]:
        """Per kernel, the :func:`stack_layout` of its expansions, with each
        expansion's output column and coefficient."""
        owners: dict[TensorKernel, list[tuple[int, float, KernelExpansion]]] = {}
        for column, member in enumerate(self.members or (self,)):
            for coefficient, expansion in member.terms:
                owners.setdefault(expansion.kernel, []).append(
                    (column, coefficient, expansion)
                )
        return [
            (stack_layout([e for _, _, e in group]), [(col, c) for col, c, _ in group])
            for group in owners.values()
        ]

    def __call__(self, point) -> float:
        return float(self.evaluate(np.asarray(point, dtype=float).reshape(1, -1))[0])

"""Signed combinations of kernel expansions, with plain-text persistence.

A surrogate is the function-valued output of the combination engine: a
weighted sum of tensor-product kernel interpolants.  The terms of one
combination share a kernel and a domain, and their nodes are nested
prefixes, so the weighted sum is itself one kernel expansion over the
distinct nodes (the combination technique's collapse onto the sparse
grid).  A :class:`Surrogate` keeps it in that form: one expansion per
distinct ``(kernel, domain)`` pair, merged whenever a surrogate is built,
added or scaled.  Merging is a fixed function of the term order, and the
engine reduces terms in lexicographic order, so the result is
reproducible.

A study compares many surrogates at the same points: one per threshold
``L``, per replication, and a reference.  Their nodes are prefixes of one
nested sequence, so :meth:`Surrogate.stack` evaluates them together,
one column per member.  Every evaluation is such a stack, a plain
surrogate being the one-column stack of itself: per kernel, a
:func:`~kernelkit.kernels.stack_layout` of the expansions of that kernel,
built once per surrogate, and per chunk of points each block's profile
computed once over the layout's distinct block coordinates, of which each
expansion contracts only its own columns, never a zero-padded product
over the union.  A stack is only evaluated: it neither combines nor
saves.

The on-disk format is versioned plain text (header ``kernelkit-surrogate
v1``) with one block per term listing the combination coefficient, kernel
parameters, node coordinates and expansion coefficients, all floats
written with ``%.17g`` so a round trip preserves values bit-for-bit.  A
file with several terms per ``(kernel, domain)`` pair loads merged.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from kernelkit.kernels import (
    KernelExpansion,
    MaternKernel,
    TensorKernel,
    distinct_rows,
    evaluate_stacked,
    stack_layout,
)
from kernelkit.points import Box, Disc, Domain, PointSet

_HEADER = "kernelkit-surrogate v1"


def _fmt(value: float) -> str:
    return f"{value:.17g}"


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

    def _unstacked(self) -> None:
        if self.members:
            raise TypeError("a stack of surrogates is only evaluated")

    def __add__(self, other):
        if isinstance(other, KernelExpansion):
            other = Surrogate(terms=((1.0, other),))
        if not isinstance(other, Surrogate):
            return NotImplemented
        self._unstacked()
        other._unstacked()
        return Surrogate(terms=self.terms + other.terms)

    __radd__ = __add__

    def __rmul__(self, coefficient: float) -> "Surrogate":
        self._unstacked()
        c = float(coefficient)
        return Surrogate(terms=tuple((c * w, s) for w, s in self.terms))

    __mul__ = __rmul__

    def __neg__(self) -> "Surrogate":
        return -1.0 * self

    def __sub__(self, other) -> "Surrogate":
        return self + (-1.0 * other)


def _domain_line(domain: Domain) -> str:
    if isinstance(domain, Box):
        parts = ["domain", "box", str(domain.dim)]
        parts += [_fmt(v) for v in domain.lows] + [_fmt(v) for v in domain.highs]
        return " ".join(parts)
    if isinstance(domain, Disc):
        return " ".join(
            ["domain", "disc", _fmt(domain.center[0]), _fmt(domain.center[1]), _fmt(domain.radius)]
        )
    raise TypeError(f"unsupported domain type {type(domain)!r}")


@contextmanager
def _naming(where: str):
    """Re-raise a ValueError of the enclosed parsing with ``where`` appended."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{exc} {where}") from None


def _parse_domain(tokens: list[str]) -> Domain:
    kind = tokens[0]
    if kind == "box":
        d = int(tokens[1])
        values = [float(v) for v in tokens[2:]]
        if len(values) != 2 * d:
            raise ValueError("malformed box domain")
        return Box(lows=tuple(values[:d]), highs=tuple(values[d:]))
    if kind == "disc":
        if len(tokens) != 4:
            raise ValueError("expected 3 values after 'domain disc'")
        cx, cy, r = (float(v) for v in tokens[1:])
        return Disc(center=(cx, cy), radius=r)
    raise ValueError(f"unknown domain kind {kind!r}")


def dump_surrogate(surrogate: Surrogate) -> str:
    """Serialize to the versioned plain-text format."""
    surrogate._unstacked()
    lines = [_HEADER, f"terms {len(surrogate.terms)}"]
    for coefficient, expansion in surrogate.terms:
        lines.append("term")
        lines.append(f"coefficient {_fmt(coefficient)}")
        lines.append(f"blocks {len(expansion.kernel.blocks)}")
        for kernel, coords in expansion.kernel.blocks:
            lines.append(
                "block "
                + " ".join(
                    [_fmt(kernel.beta), str(kernel.dim), _fmt(kernel.length_scale)]
                    + [str(c) for c in coords]
                )
            )
        lines.append(_domain_line(expansion.nodes.domain))
        pts = expansion.nodes.points
        lines.append(f"nodes {pts.shape[0]} {pts.shape[1]}")
        for row in pts:
            lines.append(" ".join(_fmt(v) for v in row))
        lines.append(f"alpha {len(expansion.coefficients)}")
        for v in expansion.coefficients:
            lines.append(_fmt(v))
        lines.append("end")
    return "\n".join(lines) + "\n"


def save_surrogate(surrogate: Surrogate, path) -> None:
    with open(path, "w") as handle:
        handle.write(dump_surrogate(surrogate))


def _expect(lines: list[str], pos: int, token: str, values: int = 0, kind=str) -> list:
    """The tokens after ``token`` opening line ``pos``, at least ``values`` of
    them, each converted by ``kind``.

    Raises ValueError naming the token and the line when it is missing, and
    naming the line when a token does not convert.
    """
    if pos >= len(lines):
        raise ValueError(f"expected {token!r} at line {pos + 1}, found end of file")
    tokens = lines[pos].split()
    if tokens[0] != token:
        raise ValueError(f"expected {token!r} at line {pos + 1}")
    if len(tokens) <= values:
        raise ValueError(f"expected {values} values after {token!r} at line {pos + 1}")
    with _naming(f"at line {pos + 1}"):
        return [kind(t) for t in tokens[1:]]


def _rows(lines: list[str], pos: int, count: int, what: str) -> list[str]:
    """The ``count`` lines of ``what`` from line ``pos``; ValueError if the file ends."""
    if pos + count > len(lines):
        raise ValueError(
            f"expected {count} {what} from line {pos + 1}, found end of file "
            f"after line {len(lines)}"
        )
    return lines[pos : pos + count]


def parse_surrogate(text: str) -> Surrogate:
    """Inverse of :func:`dump_surrogate`; several terms per pair load merged.

    Every malformed input raises a ValueError that names its line.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != _HEADER:
        raise ValueError("not a kernelkit surrogate file (bad header)")
    term_count = _expect(lines, 1, "terms", 1, int)[0]
    pos = 2
    terms = []
    for _ in range(term_count):
        _expect(lines, pos, "term")
        term_line = pos + 1
        pos += 1
        coefficient = _expect(lines, pos, "coefficient", 1, float)[0]
        pos += 1
        block_count = _expect(lines, pos, "blocks", 1, int)[0]
        blocks_line = pos + 1
        pos += 1
        blocks = []
        for _ in range(block_count):
            tokens = _expect(lines, pos, "block", 3)
            with _naming(f"at line {pos + 1}"):
                beta, dim, scale = float(tokens[0]), int(tokens[1]), float(tokens[2])
                coords = tuple(int(c) for c in tokens[3:])
                kernel = MaternKernel(beta=beta, dim=dim, length_scale=scale)
            blocks.append((kernel, coords))
            pos += 1
        with _naming(f"in the block lines after line {blocks_line}"):
            kernel = TensorKernel(blocks=tuple(blocks))
        tokens = _expect(lines, pos, "domain", 2)
        with _naming(f"at line {pos + 1}"):
            domain = _parse_domain(tokens)
        pos += 1
        count, dim = _expect(lines, pos, "nodes", 2, int)[:2]
        nodes_line = pos + 1
        pos += 1
        pts = np.empty((count, dim))
        for i, line in enumerate(_rows(lines, pos, count, "node rows")):
            with _naming(f"at line {pos + i + 1}"):
                values = line.split()
                if len(values) != dim:
                    raise ValueError(f"expected {dim} values in node row")
                pts[i] = [float(v) for v in values]
        pos += count
        with _naming(f"in the node rows after line {nodes_line}"):
            nodes = PointSet(points=pts, domain=domain)
        alpha_count = _expect(lines, pos, "alpha", 1, int)[0]
        pos += 1
        alpha = np.empty(alpha_count)
        for i, line in enumerate(_rows(lines, pos, alpha_count, "alpha values")):
            with _naming(f"at line {pos + i + 1}"):
                alpha[i] = float(line)
        pos += alpha_count
        _expect(lines, pos, "end")
        pos += 1
        with _naming(f"in the term at line {term_line}"):
            expansion = KernelExpansion(kernel=kernel, nodes=nodes, coefficients=alpha)
        terms.append((coefficient, expansion))
    return Surrogate(terms=tuple(terms))


def load_surrogate(path) -> Surrogate:
    with open(path) as handle:
        return parse_surrogate(handle.read())

r"""Simplex multi-index sets and combination-rule coefficients.

A multi-index is a tuple of positive integer levels $(l_1, \dots, l_n)$.
The simplex of threshold $L$ collects all multi-indices with
$l_1 + \dots + l_n \le L$; sparse estimators over this set can be
rewritten as a short signed sum over the two outermost layers
($L - n + 1 \le |l|_1 \le L$) with binomial coefficients.  This module
provides the enumeration, the signed coefficients and the
inclusion-exclusion expansion of a single difference term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

# Exact integer binomials only; desk scale never approaches this bound.
_MAX_N_PLUS_L = 64

MultiIndex = tuple[int, ...]


@dataclass(frozen=True)
class CombinationTerm:
    """One term of the combination rule: a multi-index and its signed weight."""

    index: MultiIndex
    coefficient: int


def _check_simplex_args(n: int, L: int) -> None:
    if n < 1:
        raise ValueError(f"factor count must be >= 1, got {n}")
    if L < 0:
        raise ValueError(f"threshold must be >= 0, got {L}")
    if n + L > _MAX_N_PLUS_L:
        raise ValueError(
            f"n + L = {n + L} exceeds the exact-arithmetic bound {_MAX_N_PLUS_L}"
        )


def validate_multiindex(index: Sequence[int]) -> MultiIndex:
    """Return ``index`` as a tuple after checking all entries are >= 1."""
    out = tuple(int(v) for v in index)
    if len(out) < 1:
        raise ValueError("multi-index must have at least one entry")
    if any(v < 1 for v in out):
        raise ValueError(f"multi-index entries must be >= 1, got {out}")
    return out


def enumerate_simplex(n: int, L: int) -> list[MultiIndex]:
    """Enumerate all multi-indices ``l`` of length ``n`` with ``sum(l) <= L``.

    Parameters
    ----------
    n : int
        Number of factors (length of each multi-index), >= 1.
    L : int
        Simplex threshold.  The result is empty when ``L < n``.

    Returns
    -------
    list of tuple of int
        All admissible multi-indices in lexicographic order.  The
        cardinality equals ``binom(L, n)`` for ``L >= n``.
    """
    _check_simplex_args(n, L)
    result: list[MultiIndex] = []
    if L < n:
        return result

    def extend(prefix: tuple[int, ...], remaining: int, slots: int) -> None:
        if slots == 0:
            result.append(prefix)
            return
        # Leave at least one unit per remaining slot.
        for v in range(1, remaining - (slots - 1) + 1):
            extend(prefix + (v,), remaining - v, slots - 1)

    extend((), L, n)
    return result


def combination_coefficients(n: int, L: int) -> list[CombinationTerm]:
    """Signed weights of the two outermost simplex layers.

    The sparse estimator over the simplex ``sum(l) <= L`` equals
    ``sum_l c_l v_l`` over ``L - n + 1 <= sum(l) <= L`` with
    ``c_l = (-1)**(L - sum(l)) * binom(n - 1, L - sum(l))``.

    Parameters
    ----------
    n, L : int
        Factor count and threshold; requires ``L >= n``.

    Returns
    -------
    list of CombinationTerm
        Terms in lexicographic order of their indices.  The coefficients
        always sum to 1.
    """
    _check_simplex_args(n, L)
    if L < n:
        raise ValueError(f"combination rule needs L >= n, got L={L}, n={n}")
    terms = []
    for index in enumerate_simplex(n, L):
        deficit = L - sum(index)
        if deficit > n - 1:
            continue
        coeff = (-1) ** deficit * math.comb(n - 1, deficit)
        terms.append(CombinationTerm(index=index, coefficient=coeff))
    return terms


def delta_expand(index: Sequence[int]) -> list[tuple[MultiIndex, int]]:
    """Inclusion-exclusion corners of a single tensor difference term.

    The difference term at ``l`` expands into the ``2**n`` corners
    ``l - eps`` for ``eps in {0,1}**n`` with sign ``(-1)**sum(eps)``.
    Corners containing a zero level correspond to the auxiliary zero
    approximation and contribute nothing; they are returned explicitly
    (zero-flagged by the presence of a 0 entry) so callers can count
    work correctly.

    Returns
    -------
    list of (tuple of int, int)
        Pairs ``(corner, sign)`` in a fixed order (offset patterns in
        lexicographic order).
    """
    levels = validate_multiindex(index)
    n = len(levels)
    corners = []
    for mask in range(2**n):
        offsets = tuple((mask >> (n - 1 - j)) & 1 for j in range(n))
        corner = tuple(levels[j] - offsets[j] for j in range(n))
        sign = -1 if sum(offsets) % 2 else 1
        corners.append((corner, sign))
    return corners


def corner_is_zero(corner: Sequence[int]) -> bool:
    """True when a corner touches the auxiliary level-0 (zero) approximation."""
    return any(v == 0 for v in corner)


r"""Kernel packets: the basis in which grids of half-integer Matern blocks are fitted.

A kernel packet of the one-dimensional Matern kernel of order ``nu = m +
1/2`` (Chen, Ding & Tuo, JMLR 23, 2022) combines the kernel at ``2m + 3``
consecutive sorted points and vanishes outside them; the first and last
``m + 1`` packets of a factor combine ``m + 2`` points and vanish on one
side only.  So at most ``2m + 2`` of a factor's packets are nonzero at any
point, their values at the factor's points, ``Phi``, are banded, and
``cond(Phi)`` does not grow with the factor's size, where that of the
factor's Gram matrix does.  :func:`kernelkit.kernels._packet_solve` fits a
product grid of such blocks as ``x -> ((x)phi_j(x_j))^T w`` with
``((x)Phi_j^T) w = b``, by a banded inverse of each ``Phi_j^T``
(:func:`kernelkit.kernels._packet_factor`), whose diagonals
:func:`_packet_band` reads off here.

A packet's values come in three exact forms, of which the cheapest loses
the fewest digits; each evaluates the profile's polynomial by the kernel's
own :meth:`~kernelkit.kernels.MaternKernel._half_integer_poly`.  A factor's basis
(:func:`_packet_basis`) fixes each packet's form once per interval
between neighbouring points, as one table over the ``4m + 4`` points
around it.  Each Taylor series sums only the leading terms
that can reach its result at the call's largest argument
(:func:`_leading`), so a basis takes the same array passes at any size.
The basis, a :class:`_FactorBasis`,
gives its functions' values from the factor's first point to its last
(:meth:`_FactorBasis.values`) and refuses points past them; every factor
a pipeline builds spans its domain, on which alone a surrogate is
evaluated.  A fit on a grid of such factors is a
:class:`~kernelkit.surrogate.PacketGrid` over their bases, held and
evaluated by :mod:`kernelkit.surrogate` with every other fitted function.

:mod:`kernelkit.kernels` imports this module on first use, so runs without
such grids do not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from kernelkit.kernels import MaternKernel, _half_integer_polynomial, _packet_order
from kernelkit.points import _CONTAIN_TOL

# Kernel packets (:func:`_packet_basis`): Taylor series are summed to at
# most this many terms, for arguments up to this radius (in length scales);
# wider windows and distances use the closed exponential forms.
_PACKET_SERIES_TERMS = 40
_PACKET_SERIES_RADIUS = 2.0


def _packet_coefficients(u: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """``(starts, coefficients)`` of the kernel packets on sorted points ``u``
    (in length scales): packet ``i`` combines the kernel at points
    ``starts[i]`` to ``starts[i] + 2m + 2`` with ``coefficients[i]``.

    Right of all its points a combination of order ``m + 1/2`` translates
    is ``sum_p c_p u**p exp(-u)``, left of them ``sum_p c_p u**p exp(u)``:
    it vanishes on the right if its coefficients annihilate ``u**p
    exp(u)``, ``p <= m``, and on the left if they annihilate ``u**p
    exp(-u)``.  Central packets do both over ``2m + 3`` points
    (:func:`_central_packets`).  The first and last ``m + 1`` packets are
    one-sided: over the ``m + 2`` points from (or up to) their own point,
    they vanish on the right (or left), with coefficients ``exp(-u_j)``
    (or ``exp(u_j)``) times the divided-difference weights of order
    ``m + 1``, which annihilate polynomials of degree ``m``.
    """
    n = len(u)
    width = 2 * m + 3
    index = np.arange(n)
    starts = np.clip(index - m - 1, 0, n - width)
    points = u[starts[:, None] + np.arange(width)]
    coefficients = np.zeros((n, width))
    for packets, first, sign in (
        (index[: m + 1], index[: m + 1], 1.0),
        (index[n - m - 1 :], index[n - m - 1 :] - m - 1, -1.0),
    ):
        columns = (first - starts[packets])[:, None] + np.arange(m + 2)
        own = np.take_along_axis(points[packets], columns, axis=1)
        anchor = u[packets][:, None]
        z = (own - anchor) / (own[:, -1:] - own[:, :1])
        gaps = z[:, :, None] - z[:, None, :] + np.eye(m + 2)
        coefficients[packets[:, None], columns] = np.exp(sign * (anchor - own)) / gaps.prod(axis=2)
    central = index[m + 1 : n - m - 1]
    coefficients[central] = _central_packets(points[central], m)
    return starts, coefficients


def _central_packets(points: np.ndarray, m: int) -> np.ndarray:
    """Coefficients of the packets over each row of ``2m + 3`` sorted
    ``points``, each scaled to a middle coefficient of 1.

    They span the null space of the ``2m + 2`` conditions that a basis of
    the span of ``u**p exp(+-u)`` imposes, in local coordinates ``v`` about
    the window's midpoint.  Narrow windows use the solutions ``f_k`` of
    ``(D**2 - 1)**(m+1) f = 0`` with ``f_k(v) = v**k / k! + O(v**(2m+2))``,
    summed to the terms the widest of them needs (:func:`_taylor`) and
    divided by ``span**k``: they tend to ``(v / span)**k / k!`` as the
    window shrinks, where ``u**p exp(+-u)`` would become linearly
    dependent.  Wide windows use ``(v / span)**p exp(+-v)``, each point's
    column divided by ``exp(|v|)`` so that nothing overflows or vanishes,
    which the coefficients then undo.  Every coefficient of a packet is
    nonzero, since no ``2m + 2`` points carry one, so the middle one can be
    fixed.
    """
    count, width = points.shape
    span = points[:, -1:] - points[:, :1]
    v = points - 0.5 * (points[:, :1] + points[:, -1:])
    conditions = np.empty((count, width - 1, width))
    narrow = span[:, 0] <= 2.0 * _PACKET_SERIES_RADIUS
    basis = _packet_tables(m)[1]
    values = _taylor(basis, v[narrow])
    powers = span[narrow].T[:, :, None] ** np.arange(width - 1)[:, None, None]
    conditions[narrow] = (values / powers).transpose(1, 0, 2)
    far = v[~narrow]
    z = far / span[~narrow]
    for p in range(m + 1):
        conditions[~narrow, 2 * p] = z**p * np.exp(far - np.abs(far))
        conditions[~narrow, 2 * p + 1] = z**p * np.exp(-far - np.abs(far))
    middle = m + 1
    others = [j for j in range(width) if j != middle]
    solved = np.linalg.solve(
        conditions[:, :, others], -conditions[:, :, middle, None]
    )[..., 0]
    coefficients = np.insert(solved, middle, 1.0, axis=1)
    coefficients[~narrow] *= np.exp(np.abs(far[:, middle : middle + 1]) - np.abs(far))
    return coefficients


def _packet_band(basis: "_FactorBasis") -> np.ndarray:
    """The band of ``Phi^T``, ``Phi`` the values of a packet basis's packets
    at its own points (:meth:`_FactorBasis.values`): entry ``[l, t]`` is
    packet ``l - m + t``'s value at point ``l``, zero past the ends."""
    first, values = basis.values(basis.points)
    n, width = values.shape
    m = width // 2 - 1
    column = first[:, None] + np.arange(width) - np.arange(n)[:, None] + m
    kept = (column >= 0) & (column <= 2 * m)
    band = np.zeros((n, 2 * m + 1))
    band[np.nonzero(kept)[0], column[kept]] = values[kept]
    return band


def _packet_basis(kernel: MaternKernel, points: np.ndarray) -> "_FactorBasis":
    """The kernel packets of order ``m + 1/2`` on at least ``2m + 3`` sorted
    one-dimensional ``points``, laid out for evaluation.

    A packet vanishes outside its window, and its values there come in
    three exact forms, of which the one whose terms' magnitudes sum the
    least loses the fewest digits.  Summing the kernel values themselves
    cancels to ``O(h**(2m+1))`` in a window of width ``h``.  But a packet
    that vanishes on the right is, at ``t``, the sum over its points ``u_j
    > t`` of ``c_j (psi(d) - psi(-d))``, ``d = u_j - t``, ``psi(s) = q(s)
    exp(-s)`` the profile, because its analytic continuation ``sum_j c_j
    psi(u - u_j)`` from the right is zero; likewise over ``u_j < t`` for
    one that vanishes on the left.  ``psi(d) - psi(-d)`` is
    ``O(d**(2m+1))`` and is summed by its series (:func:`_odd_profile`).

    Between two neighbouring points ``u_j`` and ``u_(j+1)`` (in length
    scales) at most the ``2m + 2`` packets from ``first[j]`` are nonzero,
    and their windows lie within the ``4m + 4`` points from ``local[j]``.
    Each takes there the form that is cheapest at the interval's midpoint,
    so that its value at any ``t`` of the interval is ``table[j, a] @
    [psi(d), o(d)]``, with ``d`` the distances from ``t`` to those points,
    ``psi`` the profile without its constant and ``o`` its odd part.  The
    tables hold only between the first and the last point, so a basis is
    evaluated there alone (:meth:`_FactorBasis.values`).
    """
    u = points[:, 0] / kernel.length_scale
    m = _packet_order(kernel)
    starts, coefficients = _packet_coefficients(u, m)
    n, window = coefficients.shape
    width, span = 2 * m + 2, 4 * m + 4
    j = np.arange(n - 1)
    first = np.clip(j - m, 0, n - width)
    local = starts[first]
    packets = first[:, None] + np.arange(width)
    x = points[:, 0]
    # The forms of each interval's packets at its midpoint.
    index = starts[packets][..., None] + np.arange(window)
    # In length scales, scaled after the difference, which is exact near a point.
    offsets = 0.5 * (x[:-1] + x[1:])[:, None, None] - x[index]
    offsets /= kernel.length_scale
    sides = [offsets < 0, offsets > 0]
    distance = np.abs(offsets, out=offsets)
    # psi's constant: the profile is constant * q(d) exp(-d).
    weights = coefficients[packets] * kernel._half_integer_constant
    with np.errstate(over="ignore", invalid="ignore"):
        direct = kernel._half_integer_poly(distance)
        direct *= weights
        direct *= np.exp(-distance)
        odd = _odd_profile(distance, kernel)
        odd *= weights
        forms = [direct, *(np.where(side, odd, 0.0) for side in sides)]
        costs = [np.nan_to_num(np.abs(f).sum(axis=-1), nan=np.inf) for f in forms]
        # The last packets do not vanish on the right, nor the first on the left.
        costs[1][packets >= n - m - 1] = costs[2][packets < m + 1] = np.inf
    del distance, direct, odd, forms  # each as large as the weights: freed before the table
    # An odd form is taken only in a window narrower than the series radius,
    # where its terms are finite throughout.
    wide = u[index[..., -1]] - u[index[..., 0]] >= _PACKET_SERIES_RADIUS
    form = np.argmin([costs[0], *(np.where(wide, np.inf, c) for c in costs[1:])], axis=0)
    # Packets j - m to j + m + 1 may be nonzero on interval j, the others not.
    weights *= np.abs(packets - j[:, None] - 0.5)[..., None] <= m + 1
    right = index > j[:, None, None]
    odd = np.where(form[..., None] == 1, right, ~right) & (form[..., None] > 0)
    table = np.zeros((n - 1, width, 2 * span))
    rows, slots = np.arange(n - 1)[:, None, None], np.arange(width)[:, None]
    position = index - local[:, None, None]
    table[rows, slots, position] = np.where(form[..., None] == 0, weights, 0.0)
    table[rows, slots, span + position] = np.where(odd, weights, 0.0)
    arrays = (starts, coefficients, first, local, table)
    for array in arrays:
        array.setflags(write=False)
    return _FactorBasis(kernel, points, arrays)


def _odd_profile(d: np.ndarray, kernel: MaternKernel) -> np.ndarray:
    """``psi(d) - psi(-d)`` for ``d >= 0``, with ``psi(s) = q(s) exp(-s)``
    the profile of ``kernel``, of order ``m + 1/2``, without its constant
    (:meth:`~kernelkit.kernels.MaternKernel._half_integer_poly`).

    It equals ``2 (q_odd(d) cosh(d) - q_even(d) sinh(d))``, ``d cosh(d) -
    sinh(d)`` times 2 for ``m = 1``, and is ``O(d**(2m+1))``, so below the
    series radius, where its two terms nearly cancel, it is summed as a
    Taylor series in ``d**2`` instead.
    """
    m = _packet_order(kernel)
    near = d < _PACKET_SERIES_RADIUS
    every = near.all()
    small = d if every else d[near]
    square = small * small
    series = _taylor(_packet_tables(m)[0], square)
    series *= small * square**m
    if every:
        return series
    out = np.empty_like(d)
    out[near] = series
    large = d[~near]
    poly = kernel._half_integer_poly
    out[~near] = poly(large) * np.exp(-large) - poly(-large) * np.exp(large)
    return out


@lru_cache(maxsize=None)
def _packet_tables(m: int) -> tuple[np.ndarray, ...]:
    """Series tables of the Matern kernel of order ``m + 1/2``, as floats.

    ``(odd, basis)``: with the profile ``q(s) exp(-s)`` up to its constant
    (:func:`~kernelkit.kernels._half_integer_polynomial`), ``psi(d) -
    psi(-d) = d**(2m+1) sum_i odd[i] d**(2i)``; ``basis[k, j]`` is the
    ``v**j`` Taylor coefficient of the solution ``f_k`` of ``(D**2 -
    1)**(m+1) f = 0`` whose first ``2m + 2`` derivatives at 0 are those of
    ``v**k / k!``.  Each entry is an exact ratio of integers, rounded once
    by ``int / int`` (correctly, as ``float`` rounds a ``Fraction``), so
    the coefficients that vanish are exactly 0.
    """
    terms, factorial, comb = _PACKET_SERIES_TERMS, math.factorial, math.comb
    weights, scale = _half_integer_polynomial(m)
    # psi[j] = psi_numerators[j] / (scale * j!): the v**j coefficient of q(v) exp(-v)
    psi_numerators = [
        sum(
            weights[p] * (-1) ** (j - p) * (factorial(j) // factorial(j - p))
            for p in range(min(j, m) + 1)
        )
        for j in range(terms)
    ]
    odd = [2 * psi_numerators[j] / (scale * factorial(j)) for j in range(2 * m + 1, terms, 2)]
    order = 2 * m + 2
    # (D**2 - 1)**(m+1) = D**order + sum_i recurrence[i] D**(2i)
    recurrence = [comb(m + 1, i) * (-1) ** (m + 1 - i) for i in range(m + 1)]
    basis = []
    for k in range(order):
        derivatives = [int(j == k) for j in range(order)]
        for j in range(order, terms):
            derivatives.append(
                -sum(c * derivatives[j - order + 2 * i] for i, c in enumerate(recurrence))
            )
        basis.append([d / factorial(j) for j, d in enumerate(derivatives)])
    return np.array(odd, dtype=float), np.array(basis, dtype=float)


def _leading(sizes: np.ndarray) -> int:
    """How many leading terms of a series to sum, ``sizes[..., i]`` the size
    of term ``i`` of each row at the largest argument: those up to the last
    whose tail (it and every later term) exceeds ``eps**2`` times its row's
    largest term, so that the terms left out lie far below the last bit of
    any sum of the row's terms."""
    tail = np.cumsum(sizes[..., ::-1], axis=-1)[..., ::-1]
    reach = tail > np.finfo(float).eps ** 2 * sizes.max(axis=-1, keepdims=True)
    return int(reach.sum(axis=-1).max(initial=1))


def _taylor(table: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``sum_i table[..., i] x**i`` at each ``x``, shaped ``table.shape[:-1] +
    x.shape``, by Horner's rule over the leading terms that can reach the
    sum at the largest ``|x|`` (:func:`_leading`)."""
    reach = max(x.max(initial=0.0), -x.min(initial=0.0))
    terms = _leading(np.abs(table) * reach ** np.arange(table.shape[-1]))
    rows = table.shape[:-1]
    out = np.zeros(rows + x.shape)
    for coefficient in table[..., terms - 1 :: -1].T.reshape(terms, *rows, *(1,) * x.ndim):
        out *= x  # highest power first
        out += coefficient
    return out


@dataclass(frozen=True, eq=False)
class _FactorBasis:
    """The functions of one grid factor that a
    :class:`~kernelkit.surrogate.PacketGrid` combines:
    the kernel packets on its sorted ``points``, laid out by
    :func:`_packet_basis` in ``packets`` (``starts``, ``coefficients``,
    ``first``, ``local``, ``table``); or, with no ``packets``, the kernel
    translates on ``points``."""

    kernel: MaternKernel
    points: np.ndarray
    packets: tuple[np.ndarray, ...] = ()

    @property
    def nbytes(self) -> int:
        return self.points.nbytes + sum(array.nbytes for array in self.packets)

    @property
    def width(self) -> int:
        """How many of the functions can be nonzero at one point."""
        return self.packets[4].shape[1] if self.packets else len(self.points)

    @property
    def entries(self) -> int:
        """Entries per point of the largest array :meth:`values` builds."""
        return self.packets[4][0].size if self.packets else len(self.points)

    def values(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(first, values)`` at the points ``x``, shaped ``(P, 1)``:
        ``values[p, a]`` is function ``first[p] + a`` at ``x[p]``, and every
        other function is 0 there.

        Packets take their interval's table (:func:`_packet_basis`), which
        holds from the factor's first point to its last.  A point within
        ``Box.contains``' tolerance past an end takes the end's values;
        one farther out raises ValueError.
        """
        if not self.packets:
            return np.zeros(len(x), dtype=np.intp), self.kernel.gram(x, self.points)
        _, _, first, local, table = self.packets
        s, t = self.points[:, 0], x[:, 0]
        if t.min(initial=s[0]) < s[0] or t.max(initial=s[-1]) > s[-1]:
            far = np.flatnonzero((t < s[0] - _CONTAIN_TOL) | (t > s[-1] + _CONTAIN_TOL))
            if far.size:
                raise ValueError(
                    f"point {t[far[0]]!r} lies outside the packet basis's points "
                    f"[{s[0]!r}, {s[-1]!r}]"
                )
            t = np.clip(t, s[0], s[-1])
        n, span = len(s), table.shape[2] // 2
        interval = np.searchsorted(s[1:-1], t, side="right")
        d = s[np.minimum(local[interval][:, None] + np.arange(span), n - 1)]
        np.subtract(t[:, None], d, out=d)
        np.abs(d, out=d)
        d /= self.kernel.length_scale
        psi = self.kernel._half_integer_poly(d)
        psi *= np.exp(-d)
        with np.errstate(over="ignore", invalid="ignore"):
            profiles = np.concatenate([psi, _odd_profile(d, self.kernel)], axis=1)
        if d.max(initial=0.0) >= _PACKET_SERIES_RADIUS:
            # Odd parts too large for a float have no weight in the table.
            np.nan_to_num(profiles, copy=False, nan=0.0, posinf=0.0, neginf=0.0)
        return first[interval], np.einsum("pac,pc->pa", table[interval], profiles)

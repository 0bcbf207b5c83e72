r"""Matern reproducing kernels, best-approximation fits, kernel quadrature.

The radial profile used throughout is

    phi(r) = 2**(1-beta) / Gamma(beta) * r**nu * K_nu(r),   nu = beta - d/2,

whose Fourier transform is ``(1 + |w|^2)**-beta``, so the native space of
the kernel ``Phi(x, y) = phi(|x - y| / length_scale)`` is the Sobolev
space of order ``beta``.  Supported orders are positive integer and
half-integer ``nu``; half-integer profiles use their closed
exponential-polynomial form (by Horner's rule), integer profiles the
modified Bessel function ``K_nu``, with the analytic limit at ``r = 0``:
up to 2 length scales, where every distance of the benchmark workloads
lies, by its ascending series in numpy; above, from scipy's ``k0`` and
``k1`` by upward recurrence, with ``scipy.special`` imported on first use.
Distances come from numpy (:func:`kernelkit.points.pairwise_distances`,
bit-identical to scipy's ``cdist``), over the row blocks of
:func:`kernelkit.points._distance_blocks`, and each block is profiled in
place, in its rows of the Gram matrix (in a scaled copy of a caller's
array through the public :meth:`MaternKernel.profile`), so a Gram matrix
costs itself, one distance block and a few block-sized temporaries.

A :class:`TensorKernel` is the tuple of its factor kernels, Matern kernels
on consecutive coordinate blocks; its Gram matrix, which the dense fits
need, is the plain product of the block profiles.  Every multi-block node
set a pipeline fits is a product grid, which the Kronecker solves below
take without a Gram matrix.  A fit (:func:`fit_interpolant`) is the
one-term :class:`~kernelkit.surrogate.Surrogate` of its expansion; that
module holds and evaluates every fitted function, on its nodes' domain
only, and this one imports it.

Interpolation coefficients solve the symmetric positive-definite kernel
system ``(K + jitter I) x = b`` with an escalating diagonal shift, followed
by iterative refinement against the unshifted ``K`` so that node residuals
stay below 1e-8 relative even when a shift was needed.  A
:meth:`~kernelkit.points.PointSet.product` grid of two or more factors
under the :class:`TensorKernel` of their kernels has
``K = K_1 (x) ... (x) K_m``, read off the grid's factors
(:meth:`TensorKernel.grid_factors`), and is solved through per-factor
eigendecompositions, ``K_j = Q_j diag(lambda_j) Q_j^T`` at ``n_j**3``, so
it never forms ``K``; each Kronecker mode product is one ``np.dot``.

When every block is a one-dimensional Matern kernel of order ``nu = m +
1/2`` = 1/2, 3/2 or 5/2, a grid is fitted in its factors' kernel-packet
basis instead (:func:`_packet_solve`; the basis lives in
:mod:`kernelkit.packets`, which only runs that fit such grids import):
``x -> ((x)phi_j(x_j))^T w`` with ``((x)Phi_j^T) w = b``, ``Phi_j`` the
packets' values at factor ``j``'s points, banded (half-width ``m``) and
well conditioned whatever the factor's size, where ``K_j`` is not.  The
packets are evaluated from each factor's first point to its last, which
are its domain's ends in every pipeline.  Each
``Phi_j^T`` is inverted once, in numpy, by levels of small block inverses
(:func:`_band_factor`, the SPIKE algorithm), each mode solved by a fixed
number of numpy calls and applied by a sum over its diagonals.  It needs
no shift and no Gram matrix, and gives the same bits at any BLAS thread
count.  A grid whose packet solve misses the residual gate takes the
eigen solve, and keeps its kernel-basis coefficients over its factors'
kernel translates.  All other node sets, of at most
``_DENSE_FIT_NODES_MAX`` nodes, are solved by a dense Cholesky
factorization, with the shift added in place to one copy of the Gram
matrix per attempt; only that path calls LAPACK through
:mod:`kernelkit.lapack`, imported on its first call, so a run that fits
only packet and eigen grids maps no scipy library.  A run plan whose fits
can take it imports that module when it is made
(:func:`kernelkit.config.run_plan`).  One cache, ``_FACTORED_GRAMS`` (32
MiB), keeps every path's factorizations, so fits of new values on nodes
seen before factor nothing.

Every run imports this module, so it also allocates and frees one
untouched 1 MiB array at import.  Freeing a mapped block raises glibc
malloc's mmap threshold (128 KiB at start) to that block's size; below the
threshold a run's arrays are reused from the heap, above it each is mapped
afresh and its pages faulted in again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import Callable, Sequence

import numpy as np
from numpy.linalg import LinAlgError

from kernelkit.points import Box, PointSet, _distance_blocks, distinct_rows
from kernelkit.points import tensor_grid, tensor_weights
from kernelkit.surrogate import KernelExpansion, PacketExpansion, PacketGrid, Surrogate

np.empty(1 << 17)  # the malloc warm-up of the module docstring

_NU_TOL = 1e-9
# The highest order nu a kernel takes.  Just above it the profile's
# constants overflow (the half-integer coefficients from nu = 151.5,
# Gamma(beta) from beta = 172), and a huge integer order would run the
# Bessel recurrence without bound.
_MAX_NU = 150
_JITTER_START = 1e-12  # relative to trace/N
_JITTER_LIMIT = 1e-6
_RESIDUAL_TARGET = 1e-12
_RESIDUAL_REQUIRED = 1e-8
_REFINEMENT_PASSES = 4
_SMALL_RADIUS = 1e-8
_GAUSS_POINTS_PER_AXIS = 64
# Highest box dimension whose tensor Gauss-Legendre reference rule
# (:func:`quadrature_weights`, 64**d points) is built.
REFERENCE_RULE_MAX_DIM = 3
# Most kernel entries against the reference grid that one row chunk of
# :func:`quadrature_weights`' embeddings holds: whole multiples of 8 rows,
# at least 8, so the 64**3-point grid of d = 3 takes 8 rows (16 MB).
_EMBEDDING_BLOCK_ENTRIES = 8 * _GAUSS_POINTS_PER_AXIS**REFERENCE_RULE_MAX_DIM
# Bytes of factorizations that every fit path keeps (``_FACTORED_GRAMS``);
# a grid whose packet solve falls back to eigendecompositions keeps both.
# The interp benchmark's ten grid factors (2 to 1024 points) hold 1.66 MB
# and no Gram matrix: 1.19 MB of packet bases laid out for evaluation,
# 0.07 MB of ``Phi^T`` diagonals and 0.40 MB of the levels of their
# inverses (:func:`_band_factor`).  Its 1024-point factor, factored for
# the tuple (2, 1024), is used again at (1024, 2), and below about 1.7 MB
# every factor would be factored twice.  At l_max = 14 the 13 factors (up
# to 8,192 points) hold 13.5 MB, 3.4 MB of them inverses.  The ouu
# pipelines fit 239 times over 7 node sets of at most 128 nodes (0.26 MB a
# Gram matrix and its factor).
_FACTORED_GRAM_BYTES = 2**25
# Most nodes of a dense fit (:func:`_solve_spd`), checked before the Gram
# matrix is built.  On a 2-core machine LAPACK's ``dpotrf`` segfaulted on
# 16,384 nodes at 2 OpenBLAS threads (at 1 it took 32.7 s); 12,000 nodes
# factored at both.  No example or benchmark config fits over 128 densely.
_DENSE_FIT_NODES_MAX = 2**13
# Highest order m (nu = m + 1/2) whose grids are fitted in the packet basis.
# Against a 50-digit dense solve on 40 and 100 Halton points at length
# scales 1 and 0.1, the unrefined one-factor packet fit's largest error off
# the nodes, relative to the data, grew with m: 5.6e-14 at m = 2, 3.0e-10
# at m = 3, 3.7e-8 at m = 4 and 2.6e-6 at m = 5, as the largest cond(Phi)
# grew from 5e4 to 6e6, 4e8 and 3e10; and from m = 20 on the odd series
# table of ``packets._packet_tables`` holds no term.  Higher orders keep
# the eigen solve.
_PACKET_ORDER_MAX = 2
# The banded inverse of a packet factor's Phi^T (:func:`_band_factor`):
# its first level cuts Phi^T into blocks of at most _BAND_ROWS rows, and
# every level inverts blocks of at most _BAND_BLOCK_MAX rows, all of a
# level's blocks in one batched ``np.linalg.inv``.  OpenBLAS factors a
# matrix of fewer than 10,000 entries on one thread, so those inverses
# have the same bits at any BLAS thread count; inverses of 128 rows and
# up did not, at 1 and 2 threads.
_BAND_ROWS = 16
_BAND_BLOCK_MAX = 64
# Integer-order profiles (:func:`_bessel_series`): entries within this
# radius (in length scales) sum the ascending series of ``s**n K_n(s)`` to
# this degree in ``t = s**2 / 4``, its n finite terms and 15 - n terms of
# each infinite sum, for orders up to the degree.  Against 50-digit values
# on (1e-8, 2] that is within 5e-16 relative for orders 1 to 4; at order
# 1, ten terms would leave 1.2e-13 and eleven 1.2e-15.  Wider entries and
# higher orders take scipy's K_0 and K_1 and the upward recurrence.
_BESSEL_SERIES_RADIUS = 2.0
_BESSEL_SERIES_DEGREE = 14
# The series runs over blocks of this many entries, in five block-sized
# arrays (0.33 MB) whatever the size of the call.
_BESSEL_SERIES_BLOCK = 2**13
# Euler's constant to 40 digits, from which the series table is built.
_EULER_GAMMA = "0.5772156649015328606065120900824024310422"


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
    integer or half-integer of at most ``_MAX_NU``.
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
        if nu > _MAX_NU:
            raise ValueError(f"order nu={nu:g} unsupported: must be at most {_MAX_NU}")
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
        """:func:`_half_integer_polynomial` in floats, highest power first, or None."""
        doubled = round(2.0 * self.nu)
        if doubled % 2 == 0:
            return None
        weights, scale = _half_integer_polynomial((doubled - 1) // 2)
        return np.array([weight / scale for weight in weights[::-1]])

    @cached_property
    def _half_integer_constant(self) -> float:
        """``c`` of a half-integer order's profile ``c q(s) exp(-s)``."""
        return self._normalization * math.sqrt(math.pi / 2.0)

    def _half_integer_poly(self, s: np.ndarray) -> np.ndarray | float:
        """``q(s)`` of a half-integer order's profile ``c q(s) exp(-s)``, by
        Horner's rule highest power first; at ``m = 0`` the constant itself.
        ``s`` is not written."""
        coeffs = self._half_integer_coefficients
        if len(coeffs) == 1:
            return coeffs[0]
        poly = s * coeffs[0]
        poly += coeffs[1]
        for c in coeffs[2:]:
            poly *= s
            poly += c
        return poly

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
        if self._half_integer_coefficients is not None:
            poly = self._half_integer_poly(s)
            out = np.negative(s, out=s)
            np.exp(out, out=out)
            out *= self._half_integer_constant
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
        """Kernel matrix ``phi(|x_i - y_j| / length_scale)``, ``(m, n)``.

        Rows that fit one block of :func:`~kernelkit.points._distance_blocks`
        return that block, profiled in place.  Otherwise each block is copied
        into its rows of the output and profiled there while it is in cache,
        so besides the output the call holds one block and the profile's
        block-sized temporaries, never a second matrix of the output's size.
        """
        x, y = np.atleast_2d(x), np.atleast_2d(y)
        out = np.empty((0, len(y)))  # no rows make no block
        for start, block in _distance_blocks(x, y):
            if len(block) == len(x):
                return self._profile_in_place(block)
            if start == 0:
                out = np.empty((len(x), len(y)))
            rows = out[start : start + len(block)]
            rows[...] = block
            del block  # before the next one is built
            profiled = self._profile_in_place(rows)
            if not np.may_share_memory(profiled, rows):  # orders past the series
                rows[...] = profiled
        return out


def _half_integer_polynomial(m: int) -> tuple[list[int], int]:
    """``(weights, scale)``, exact integers: ``r**nu K_nu(r) = sqrt(pi/2) q(r)
    exp(-r)`` at ``nu = m + 1/2``, ``q(r) = sum_p weights[p] r**p / scale``.
    Each float coefficient is one ``int / int``, rounded once."""
    weights = [math.factorial(2 * m - p) * math.comb(m, p) * 2**p for p in range(m + 1)]
    return weights, math.factorial(m) * 2**m


def bessel_k0(s: np.ndarray) -> np.ndarray:
    """scipy's ``K_0``; ``scipy.special`` is imported on the first call."""
    from scipy.special import k0

    return k0(s)


def bessel_k1(s: np.ndarray) -> np.ndarray:
    """scipy's ``K_1``; ``scipy.special`` is imported on the first call."""
    from scipy.special import k1

    return k1(s)


def _scaled_bessel_k(order: int, s: np.ndarray) -> np.ndarray:
    """``s**order * K_order(s)`` for an integer ``order >= 1`` and ``s > 0``.

    Entries within ``_BESSEL_SERIES_RADIUS`` take :func:`_bessel_series`
    (orders up to ``_BESSEL_SERIES_DEGREE``), the others scipy's ``K_0``
    and ``K_1`` and the upward recurrence ``K_{n+1} = K_{n-1} + (2n/s)
    K_n``, which is stable for ``K``, scaled by ``s**(n+1)``: with ``g_n =
    s**n K_n`` it reads ``g_{n+1} = s**2 g_{n-1} + 2n g_n``, a sum of
    positive terms, run in place in two arrays and one scratch array.  The
    choice is made per entry, so an entry's value never depends on the
    other entries of the call.  ``s`` is overwritten, and the result may be
    ``s`` itself.
    """
    if order > _BESSEL_SERIES_DEGREE:
        return _bessel_recurrence(order, s)
    if s.max(initial=0.0) <= _BESSEL_SERIES_RADIUS:
        return _bessel_series(order, s)
    near = s <= _BESSEL_SERIES_RADIUS
    wide = ~near
    values = _bessel_recurrence(order, s[wide])
    s[near] = _bessel_series(order, s[near])
    s[wide] = values
    return s


def _bessel_recurrence(order: int, s: np.ndarray) -> np.ndarray:
    """:func:`_scaled_bessel_k` from scipy's ``K_0`` and ``K_1``,
    overwriting ``s`` with ``s**2``."""
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


def _bessel_series(order: int, s: np.ndarray) -> np.ndarray:
    """:func:`_scaled_bessel_k` by the ascending series, in place in ``s``.

    With ``t = s**2 / 4`` and ``l = log(s / 2)``, Abramowitz & Stegun
    9.6.11 gives ``s**n K_n(s) = l P(t) - Q(t)`` with two polynomials
    (:func:`_bessel_series_table`).  ``P + iQ`` is summed as one complex
    polynomial by Horner's rule at ``t + 0i``: multiplying by a real
    number and adding a coefficient act on the real and imaginary parts
    exactly as on two real polynomials, so each part has the bits of its
    own real Horner sum, in half the numpy calls.  That count sets the cost
    of short calls, such as a minimizer's point evaluations.  Only
    elementwise operations touch an entry, so its value does not depend on
    the call's other entries or its blocking.
    """
    coefficients = _bessel_series_table(order)
    flat = s.reshape(-1)
    width = min(flat.size, _BESSEL_SERIES_BLOCK)
    t_buffer = np.zeros(width, dtype=complex)  # the imaginary parts stay 0
    sums_buffer = np.empty(width, dtype=complex)
    log_buffer = np.empty(width)
    for start in range(0, flat.size, _BESSEL_SERIES_BLOCK):
        block = flat[start : start + _BESSEL_SERIES_BLOCK]
        t = t_buffer[: len(block)]
        sums = sums_buffer[: len(block)]
        log = log_buffer[: len(block)]
        block *= 0.5
        np.log(block, out=log)
        np.square(block, out=t.real)
        np.multiply(t, coefficients[0], out=sums)
        for c in coefficients[1:-1]:
            sums += c
            sums *= t
        sums += coefficients[-1]
        np.multiply(sums.real, log, out=block)
        block -= sums.imag
    return flat.reshape(s.shape)


@lru_cache(maxsize=None)
def _bessel_series_table(order: int) -> np.ndarray:
    """Coefficients of :func:`_bessel_series`'s ``P + iQ`` for ``K_order``,
    highest power of ``t`` first, to degree ``_BESSEL_SERIES_DEGREE``.

    From A&S 9.6.11 with ``psi(m) = H_(m-1) - gamma``::

        P(t) = (-1)**(n+1) 2**n sum_k t**(n+k) / (k! (n+k)!),
        Q(t) = -2**(n-1) sum_(k<n) (n-k-1)!/k! (-t)**k
               - (-1)**n 2**(n-1) sum_k (psi(k+1) + psi(n+k+1)) t**(n+k) / (k! (n+k)!).

    Each coefficient is an exact ratio of integers, with Euler's constant
    to 40 digits, rounded once by ``int / int``, like
    :func:`kernelkit.packets._packet_tables`.
    """
    n, degree = order, _BESSEL_SERIES_DEGREE
    whole, digits = _EULER_GAMMA.split(".")
    gamma, gamma_scale = int(whole + digits), 10 ** len(digits)
    # psi(k + 1) = H_k - gamma = psi[k] / scale
    common = math.lcm(*range(1, degree + 1))
    scale = common * gamma_scale
    psi = [-gamma * common]
    for k in range(1, degree + 1):
        psi.append(psi[-1] + common // k * gamma_scale)
    p = [0.0] * (degree + 1)
    q = [0.0] * (degree + 1)
    for k in range(n):
        q[k] = -(2 ** (n - 1) * math.factorial(n - k - 1) * (-1) ** k) / math.factorial(k)
    for k in range(degree + 1 - n):
        denominator = math.factorial(k) * math.factorial(n + k)
        p[n + k] = (-1) ** (n + 1) * 2**n / denominator
        numerator = -((-1) ** n) * 2 ** (n - 1) * (psi[k] + psi[n + k])
        q[n + k] = numerator / (scale * denominator)
    return np.array([complex(a, b) for a, b in zip(p[::-1], q[::-1])])


@dataclass(frozen=True)
class TensorKernel:
    """Product of Matern kernels on consecutive coordinate blocks, in order,
    as a :meth:`PointSet.product` grid lays out its factors."""

    kernels: tuple[MaternKernel, ...]

    @property
    def dim(self) -> int:
        return sum(kernel.dim for kernel in self.kernels)

    @cached_property
    def _columns(self) -> tuple[slice, ...]:
        """Each factor's columns of a point array."""
        columns, start = [], 0
        for kernel in self.kernels:
            columns.append(slice(start, start + kernel.dim))
            start += kernel.dim
        return tuple(columns)

    def split_nodes(self, nodes: PointSet) -> list[tuple[np.ndarray, np.ndarray]]:
        """Each factor's distinct coordinate rows of a point set's points, in
        first-seen order, with the index back: one ``(rows, slot)`` pair per
        factor, the factor's columns of the points being ``rows[slot]``.

        A point set is pairwise distinct, so a single factor, which covers
        every coordinate, has no repeated rows to search for.
        """
        if len(self.kernels) == 1:
            return [(nodes.points, np.arange(len(nodes)))]
        split = []
        for columns in self._columns:
            rows = nodes.points[:, columns]
            first, slot = distinct_rows(rows)
            split.append((rows[first], slot))
        return split

    @property
    def fits_densely(self) -> bool:
        """Whether every fit of this kernel is dense (:func:`_solve_spd`): a
        kernel of one block has no grid factors, so it fits any node set by
        one Cholesky factorization of its Gram matrix."""
        return len(self.kernels) < 2

    def grid_factors(self, nodes: PointSet) -> list[np.ndarray] | None:
        """The factors' points of a :meth:`PointSet.product` grid of this
        kernel's factor dimensions, in order, unless the kernel
        :attr:`fits_densely`; else None.

        The grid's Gram matrix is then the Kronecker product of the factor
        kernels' Gram matrices over these points.  The structure is read off
        the grid's factors, never searched for, so the same points as a
        plain point set get None.
        """
        factors = nodes.factors
        if self.fits_densely or [f.dim for f in factors] != [k.dim for k in self.kernels]:
            return None
        return [factor.points for factor in factors]

    def gram(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Kernel matrix ``prod_b phi_b(|x_b - y_b|)``: the product of the
        factors' profiles, in order, in the first one's C-ordered array."""
        x, y = (np.atleast_2d(np.asarray(a, dtype=float)) for a in (x, y))
        profiles = (
            kernel.gram(x[:, columns], y[:, columns])
            for kernel, columns in zip(self.kernels, self._columns)
        )
        out = next(profiles)
        for profile in profiles:
            out *= profile
        return out


def _tensor_kernel(kernel: TensorKernel | MaternKernel, nodes: PointSet) -> TensorKernel:
    """``kernel``, a bare :class:`MaternKernel` as the tensor kernel of one
    factor, checked against the dimension of ``nodes``."""
    if isinstance(kernel, MaternKernel):
        kernel = TensorKernel(kernels=(kernel,))
    if kernel.dim != nodes.dim:
        raise ValueError(f"kernel dimension {kernel.dim} != node dimension {nodes.dim}")
    return kernel


def _solve_spd(kernel: TensorKernel, nodes: PointSet, rhs: np.ndarray) -> np.ndarray:
    """Solve ``K x = rhs`` with jitter escalation and iterative refinement.

    A tensor grid (:meth:`TensorKernel.grid_factors`) is solved through its
    factors' eigendecompositions (:func:`_solve_kronecker`), all other node
    sets by a dense Cholesky factorization.  Raises LinAlgError for a dense
    system of more than ``_DENSE_FIT_NODES_MAX`` nodes, and
    ConditioningError when the shifted system is not positive definite at
    the largest admissible shift, or the residual stays above the required
    tolerance.
    """
    factors = kernel.grid_factors(nodes)
    if factors is not None:
        return _solve_kronecker(kernel, factors, nodes, rhs)
    if len(nodes) > _DENSE_FIT_NODES_MAX:
        raise LinAlgError(
            f"dense kernel fit on {len(nodes)} nodes exceeds the bound of "
            f"{_DENSE_FIT_NODES_MAX} nodes"
        )
    from kernelkit.lapack import dpotrs

    gram, factor = _FACTORED_GRAMS.get(
        (kernel, nodes.points.tobytes()), partial(_factor_gram, kernel, nodes)
    )

    def solve(r: np.ndarray) -> np.ndarray:
        x, info = dpotrs(factor, r, lower=1)
        if info != 0:
            raise ValueError(f"LAPACK dpotrs info {info} on {len(nodes)} nodes")
        return x

    return _refine(solve, gram.__matmul__, rhs, nodes)


def _factor_gram(kernel: TensorKernel, nodes: PointSet):
    """``(gram, factor)``: the Gram matrix of ``nodes`` and the lower
    Cholesky factor of its smallest admissible diagonal shift."""
    from kernelkit.lapack import dpotrf

    gram = kernel.gram(nodes.points, nodes.points)
    count = len(nodes)

    def factor_shifted(jitter: float) -> np.ndarray:
        # The Gram matrix is symmetric bit for bit, so the transpose of a C
        # copy is the same matrix in the Fortran order LAPACK factors in
        # place.
        shifted = gram.copy()
        shifted.flat[:: count + 1] += jitter
        factor, info = dpotrf(shifted.T, lower=1, overwrite_a=1, clean=0)
        if info > 0:
            raise LinAlgError(f"LAPACK dpotrf info {info}: not positive definite")
        return factor

    factor = _smallest_shift(factor_shifted, np.trace(gram) / count, nodes)
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


def _packet_order(kernel: MaternKernel) -> int | None:
    """``m`` of a one-dimensional Matern kernel of order ``nu = m + 1/2``,
    ``m <= _PACKET_ORDER_MAX``, whose grid factors :func:`_packet_factor`
    factors; else None."""
    coefficients = kernel._half_integer_coefficients
    if kernel.dim != 1 or coefficients is None or len(coefficients) > _PACKET_ORDER_MAX + 1:
        return None
    return len(coefficients) - 1


def _packet_factor(kernel: MaternKernel, rows: np.ndarray):
    """``(order, basis, phi, inverse, condition)`` of one block kernel on
    one factor's points.

    ``order`` sorts the points into those of ``basis``, the factor's kernel
    packets (:mod:`kernelkit.packets`).  ``phi`` is ``Phi^T`` by its
    diagonals (:func:`kernelkit.packets._packet_band`), ``Phi`` being the
    packets' values at the points, and ``inverse`` its inverse by
    :func:`_band_factor`; ``phi`` is applied by :func:`_band_apply` and
    its inverse by :func:`_band_solve`.  The packet machinery is imported
    on the first call, so that runs without packet grids never load it.  A
    factor of fewer points than a packet spans takes its kernel translates
    as its basis: ``phi`` is then its Gram matrix as a full band.
    ``condition`` is ``cond(Phi)`` in the 1-norm, ``||Phi||_1`` times
    :func:`_inverse_norm`.  No entry holds a Gram matrix of a factor that
    takes packets.  Raises ConditioningError when ``Phi`` holds a
    non-finite entry or a block that :func:`_band_factor` inverts is
    exactly singular.
    """
    from kernelkit import packets

    m = _packet_order(kernel)
    order = np.argsort(rows[:, 0], kind="stable")
    points = rows[order]
    points.setflags(write=False)
    n = len(points)
    if n < 2 * m + 3:
        basis = packets._FactorBasis(kernel, points)
        i, j = np.indices((n, n))
        phi = np.zeros((n, 2 * n - 1))
        phi[i, j - i + n - 1] = kernel.gram(points, points)
    else:
        basis = packets._packet_basis(kernel, points)
        phi = packets._packet_band(basis)
    try:
        if not np.isfinite(phi).all():
            raise LinAlgError("non-finite entry")
        inverse = _band_factor(phi)
    except LinAlgError:
        gaps = np.diff(points[:, 0])
        raise ConditioningError(
            "kernel packet inverse met a zero or non-finite pivot",
            n,
            float(gaps.min()) if len(gaps) else math.inf,
        ) from None
    anorm = np.abs(phi).sum(axis=1).max()  # of Phi^T in the max-norm, Phi's 1-norm
    condition = np.array(anorm * _inverse_norm(inverse, n))
    for array in (order, phi, condition):
        array.setflags(write=False)
    return order, basis, phi, inverse, condition


def _band_apply(band: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``M x`` for ``x`` shaped ``(n, k)``, ``M`` given by its diagonals:
    entry ``(i, i - w + t)`` is ``band[i, t]``, 0 past the ends.  A sum of
    elementwise products over the diagonals, so no BLAS reduction enters."""
    n, width = band.shape
    padded = np.zeros((n + width - 1, x.shape[1]))
    padded[width // 2 : width // 2 + n] = x
    product = band[:, :1] * padded[:n]
    for t in range(1, width):
        product += band[:, t, None] * padded[t : t + n]
    return product


class _BandInverse(tuple):
    """:func:`_band_factor`'s levels, ``(inverse, spikes, ..., inverse)``:
    read-only arrays, sized together as one ``_FACTORED_GRAMS`` item."""

    @property
    def nbytes(self) -> int:
        return sum(array.nbytes for array in self)


def _band_factor(band: np.ndarray) -> _BandInverse:
    """The inverse of ``M``, given by its diagonals as :func:`_band_apply`
    takes them, by levels of the SPIKE algorithm (Polizzi & Sameh, Parallel
    Computing 32, 2006), for :func:`_band_solve`.

    A level is a matrix of diagonal blocks, each coupled to the first ``c``
    columns of the next block and the last ``c`` of the one before.  The
    first is ``M`` in blocks of at most ``_BAND_ROWS`` rows (``4w`` if that
    is more, so that a block holds its ``2w`` end rows), ``c = w`` its
    half-width; a diagonal ``M`` takes blocks of one row.  A level keeps
    its blocks' inverses, from one batched ``np.linalg.inv``, and its
    spikes: each inverse times its block's couplings, ``(count, size,
    2c)``, to the next block first.  Given the unknowns at the first and
    last ``c`` rows of every block, each block's unknowns are its inverse
    times its right-hand side less its spikes times its neighbours' end
    unknowns.  Those ``2c`` rows of each block solve the next level, in
    which the spikes' end rows couple them, in blocks of at most
    ``_BAND_BLOCK_MAX`` rows.  The last level is one block, or has no
    couplings.  Raises LinAlgError when a block is singular.
    """
    c = band.shape[1] // 2
    units, per, levels = band[:, None, :], max(_BAND_ROWS, 4 * c) if c else 1, []
    while True:
        diagonal, couplings = _grouped(units, c, per)
        if diagonal.shape[1] > 1:
            levels.append(np.linalg.inv(diagonal))
        elif diagonal.all():
            levels.append(1.0 / diagonal)
        else:
            raise LinAlgError("Singular matrix")
        count, size, _ = diagonal.shape
        if count == 1 or c == 0:
            break
        levels.append(levels[-1] @ couplings)
        # Each block's end rows, over the last c unknowns of the block
        # before, its own 2c and the first c of the next.
        ends = levels[-1][:, _ends(size, c)]
        own = np.broadcast_to(np.identity(2 * c), ends.shape)
        units = np.concatenate([ends[:, :, c:], own, ends[:, :, :c]], axis=2)
        per = _BAND_BLOCK_MAX // (2 * c)
    for array in levels:
        array.setflags(write=False)
    return _BandInverse(levels)


def _grouped(units: np.ndarray, c: int, per: int) -> tuple[np.ndarray, np.ndarray]:
    """``(diagonal, couplings)`` of a level of :func:`_band_factor` whose
    blocks take at most ``per`` of ``units``, ``(count, h, h + 2c)``: the
    rows of ``count`` consecutive diagonal blocks of ``h`` rows, over the
    columns from ``c`` before their block to ``c`` after it.  The last
    block is padded with identity rows; ``couplings`` holds each block's
    columns of the next block, then those of the one before."""
    count, h, window = units.shape
    groups = -(-count // per)
    per = -(-count // groups)
    size = per * h
    padding = groups * per - count
    if padding:
        identity = np.zeros((padding, h, window))
        identity[:, range(h), range(c, c + h)] = 1.0
        units = np.concatenate([units, identity])
    # Unit p's rows start at column p h of its block's rows over the
    # columns from c before the block to c after it, ``size + 2c`` wide.
    wide = size + 2 * c
    flat = np.zeros((groups, per, h * (wide + 1)))
    flat[:, :, : h * wide].reshape(groups, per, h, wide)[..., :window] = units.reshape(
        groups, per, h, window
    )
    rows = flat.reshape(groups, -1)[:, : size * wide].reshape(groups, size, wide)
    diagonal = rows[:, :, c : c + size]
    couplings = np.concatenate([rows[:, :, c + size :], rows[:, :, :c]], axis=2)
    return diagonal, couplings


def _ends(size: int, c: int) -> list[int]:
    """The first and last ``c`` of ``size`` rows of a block."""
    return [*range(c), *range(size - c, size)]


def _band_solve(inverse: _BandInverse, x: np.ndarray, transpose: bool = False) -> np.ndarray:
    """``M^-1 x``, or ``M^-T x`` if ``transpose``, for ``x`` shaped ``(n,
    k)``, from :func:`_band_factor`'s levels of ``M``'s inverse.

    Up the levels, each block's inverse takes its right-hand side, and the
    end rows of the results are the next level's right-hand side; back
    down, each block's result less its spikes times its neighbours' end
    unknowns is its solution.  ``M^-T`` takes the transposed steps in
    reverse order.  A fixed number of numpy calls per level, whatever
    ``n``; every product is a batch of small matrices.
    """
    n, k = x.shape
    inverses, spikes = inverse[::2], inverse[1::2]
    if transpose:
        inverses = [np.swapaxes(a, 1, 2) for a in inverses]
    r, below = x, []
    for a, spike in zip(inverses, spikes):
        count, size, _ = a.shape
        c = spike.shape[2] // 2
        r = _padded(r, count * size).reshape(count, size, k)
        if transpose:
            below.append(r)
            r = _neighbours(np.swapaxes(spike, 1, 2) @ r, c, transpose)
        else:
            r = a @ r
            below.append(r)
            r = r[:, _ends(size, c)]
        r = r.reshape(-1, k)
    count, size, _ = inverses[-1].shape
    r = inverses[-1] @ _padded(r, count * size).reshape(count, size, k)
    for a, spike, top in zip(inverses[-2::-1], spikes[::-1], below[::-1]):
        count, size, _ = a.shape
        c = spike.shape[2] // 2
        ends = r.reshape(-1, k)[: count * 2 * c].reshape(count, 2 * c, k)
        if transpose:
            top = top.copy()
            top[:, _ends(size, c)] -= ends
            r = a @ top
        else:
            r = top - spike @ _neighbours(ends, c, transpose)
    return r.reshape(-1, k)[:n]


def _padded(r: np.ndarray, rows: int) -> np.ndarray:
    """``r`` with zero rows appended up to ``rows``."""
    if len(r) == rows:
        return r
    out = np.zeros((rows, r.shape[1]))
    out[: len(r)] = r
    return out


def _neighbours(ends: np.ndarray, c: int, transpose: bool) -> np.ndarray:
    """What each block's spikes take of the blocks' end rows ``ends``,
    ``(count, 2c, k)``: the next block's first ``c`` rows, then the last
    ``c`` of the one before, zero past the ends; transposed, the first ``c``
    rows of the one before, then the last ``c`` of the next."""
    out = np.zeros_like(ends)
    later, earlier = slice(1, None), slice(None, -1)
    if transpose:
        later, earlier = earlier, later
    out[earlier, :c] = ends[later, :c]
    out[later, c:] = ends[earlier, c:]
    return out


def _inverse_norm(inverse: _BandInverse, n: int) -> float:
    """``||M^-1||_inf`` of the ``n``-row ``M`` of :func:`_band_factor`:
    exact from an inverse of one level, else a lower estimate of
    ``||M^-T||_1``, the same norm, by at most two steps of Hager's (1984)
    iteration, with Higham's (1988) alternating-sign vector, as LAPACK's
    ``dlacn2`` takes them: three or five solves.  On packet factors of 17
    to 1,024 points, at nu = 3/2 and 5/2, one step read at least 0.9 of
    the exact norm, and two steps read it to 3e-8."""
    if len(inverse) == 1:
        return float(np.abs(inverse[0]).sum(axis=2).max())
    i = np.arange(n)
    probes = np.column_stack([np.full(n, 1.0 / n), (1.0 - 2.0 * (i % 2)) * (1.0 + i / (n - 1))])
    y = _band_solve(inverse, probes, transpose=True)
    estimate = np.abs(y[:, 0]).sum()
    alternating = 2.0 * np.abs(y[:, 1]).sum() / (3.0 * n)
    y = y[:, 0]
    for _ in range(2):
        gradient = _band_solve(inverse, np.where(y >= 0.0, 1.0, -1.0)[:, None])
        unit = np.zeros((n, 1))
        unit[np.argmax(np.abs(gradient))] = 1.0
        y = _band_solve(inverse, unit, transpose=True)[:, 0]
        previous, estimate = estimate, max(estimate, np.abs(y).sum())
        if estimate <= previous:
            break
    return float(max(estimate, alternating))


class _FactoredGrams:
    """Factorizations by key, least recently used first, holding at most
    ``limit`` bytes of arrays.

    An entry is :func:`_factor_gram`'s pair by (kernel, node bytes), or
    :func:`_packet_factor`'s or :func:`_decompose_factor`'s tuple by
    (block kernel, factor point bytes, kind): a flat tuple of read-only
    arrays, packet bases and banded inverses (:class:`_BandInverse`),
    sized by their bytes, a pure function of the
    key, so every caller in the process may share it.  One larger than the
    bound is not kept.
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


_FACTORED_GRAMS = _FactoredGrams(limit=_FACTORED_GRAM_BYTES)


def _kron_apply(maps: Sequence[Callable], x: np.ndarray) -> np.ndarray:
    """``(M_1 (x) ... (x) M_m) x`` for ``x`` shaped ``(n_1, ..., n_m)``,
    with ``maps[j]`` the map ``y -> M_j y`` of arrays ``y`` shaped ``(n_j,
    k)``.

    Each mode applies ``M_j`` to mode ``j`` of ``x`` moved first and
    flattened behind it.  A matrix, such as a Gram matrix or eigenvectors,
    is applied by its ``dot``, the product ``np.tensordot(M_j, x, axes=(1,
    j))`` computes, so the two agree bit for bit; a packet factor by
    :func:`_band_apply` or :func:`_band_solve`.  The axes are moved by plain
    transposes, as ``np.moveaxis`` would move them.
    """
    for axis, apply in enumerate(maps):
        rest = range(axis + 1, x.ndim)
        moved = x.transpose(axis, *range(axis), *rest)
        product = apply(moved.reshape(len(moved), -1))
        x = product.reshape(moved.shape).transpose(*range(1, axis + 1), 0, *rest)
    return x


def _factor_entries(kernel: TensorKernel, factors: list[np.ndarray], kind: str, build):
    """Each grid factor's ``_FACTORED_GRAMS`` entry of ``kind``, from
    ``build(block kernel, factor points)`` if it is not kept."""
    return [
        _FACTORED_GRAMS.get((block, rows.tobytes(), kind), partial(build, block, rows))
        for block, rows in zip(kernel.kernels, factors)
    ]


def _solve_kronecker(
    kernel: TensorKernel, factors: list[np.ndarray], nodes: PointSet, rhs: np.ndarray
) -> np.ndarray:
    """:func:`_solve_spd` on a tensor grid, through per-factor
    eigendecompositions.

    Each factor is eigendecomposed, ``K_j = Q_j diag(lambda_j) Q_j^T``, at
    ``n_j**3``, and the shifted system is solved exactly as ``x = (x)Q_j
    [((x)Q_j^T b) / ((x)lambda_j + jitter)]``; the shift escalates like the
    dense path's while that spectrum is not positive.  Refinement applies
    the unshifted ``(x)K_j`` by mode products, never forming the Gram
    matrix.  Grids of one-dimensional blocks of order 1/2, 3/2 or 5/2 are
    fitted in their kernel-packet basis instead (:func:`_packet_solve`),
    and come here only when that misses the residual gate.
    """
    shape = tuple(len(rows) for rows in factors)
    eigen = _factor_entries(kernel, factors, "eigen", _decompose_factor)
    grams = [entry[0].dot for entry in eigen]

    def apply(x: np.ndarray) -> np.ndarray:
        return _kron_apply(grams, x.reshape(shape)).ravel()

    return _refine(_eigen_solve(eigen, shape, nodes), apply, rhs, nodes)


def _packet_solve(
    kernel: TensorKernel, factors: list[np.ndarray], nodes: PointSet, rhs: np.ndarray
) -> PacketGrid:
    """The fit on a tensor grid of one-dimensional blocks of order 1/2, 3/2
    or 5/2 (:func:`_packet_order`), in its factors' kernel-packet basis.

    With ``Phi_j`` the packets' values at factor ``j``'s points
    (:func:`_packet_factor`), the interpolant is ``x -> ((x)phi_j(x_j))^T
    w`` with ``((x)Phi_j^T) w = b``: ``w = ((x)Phi_j^-T) b``, one banded
    solve per mode (:func:`_band_solve`), unshifted and refined against
    ``(x)Phi_j^T``, applied by its diagonals.  That node residual
    is the interpolant minus the data at the nodes, the quantity every fit
    is gated on, and no Gram matrix is built.  ``Phi_j`` is well
    conditioned whatever the factor's size, where ``K_j`` is not.  A grid
    with a factor whose ``cond(Phi_j)`` would leave the weights less
    accurate than the required residual, as one with two points 1e-9
    apart, or whose residual refinement cannot bring within tolerance,
    takes the eigen solve (:func:`_solve_kronecker`) instead, whose
    kernel-basis coefficients it holds over its factors' kernel
    translates.
    """
    from kernelkit.packets import _FactorBasis

    shape = tuple(len(rows) for rows in factors)
    packets = _factor_entries(kernel, factors, "packets", _packet_factor)
    orders, bases, phis, inverses, conditions = zip(*packets)

    def kron(maps: Sequence[Callable]) -> Callable[[np.ndarray], np.ndarray]:
        return lambda x: _kron_apply(maps, x.reshape(shape)).ravel()

    def grid(bases: Sequence, weights: np.ndarray) -> PacketGrid:
        weights = weights.reshape(shape)
        weights.setflags(write=False)
        return PacketGrid(nodes=nodes, bases=tuple(bases), weights=weights)

    # Rounding leaves the weights about cond(Phi_j) eps off, relative.
    if max(conditions) * np.finfo(float).eps <= _RESIDUAL_REQUIRED:
        data = rhs.reshape(shape)[np.ix_(*orders)].ravel()
        solve = kron([partial(_band_solve, inverse) for inverse in inverses])
        apply = kron([partial(_band_apply, phi) for phi in phis])
        try:
            weights = _refine(solve, apply, data, nodes)
        except ConditioningError:
            pass  # the packet solve missed the residual gate
        else:
            return grid(bases, weights)
    weights = _solve_kronecker(kernel, factors, nodes, rhs)
    return grid(map(_FactorBasis, kernel.kernels, factors), weights)


def _eigen_solve(entries, shape: tuple[int, ...], nodes: PointSet):
    """The solve of the smallest admissibly shifted Kronecker system whose
    factors have the eigendecompositions ``entries``."""
    grams, eigenvalues, eigenvectors = zip(*entries)
    spectrum = tensor_weights(eigenvalues).reshape(shape)

    def shift(jitter: float) -> np.ndarray:
        if np.min(spectrum) + jitter <= 0.0:
            raise LinAlgError("shifted Kronecker spectrum not positive")
        return spectrum + jitter

    # trace(K) / N of the Kronecker product, the dense path's shift scale.
    base = math.prod(np.trace(gram) / len(gram) for gram in grams)
    shifted = _smallest_shift(shift, base, nodes)
    transposed = [q.T.dot for q in eigenvectors]
    vectors = [q.dot for q in eigenvectors]

    def solve(r: np.ndarray) -> np.ndarray:
        projected = _kron_apply(transposed, r.reshape(shape))
        return _kron_apply(vectors, projected / shifted).ravel()

    return solve


def _smallest_shift(attempt: Callable[[float], np.ndarray], base: float, nodes: PointSet):
    """``attempt(jitter)`` at the smallest admissible diagonal shift: from
    ``_JITTER_START * base``, tenfold while ``attempt`` raises LinAlgError
    (not positive definite), and ConditioningError past ``_JITTER_LIMIT * base``."""
    jitter = _JITTER_START * base
    while True:
        try:
            return attempt(jitter)
        except LinAlgError:
            jitter *= 10.0
            if jitter > _JITTER_LIMIT * base:
                raise ConditioningError(
                    "shifted kernel system not positive definite at maximum diagonal shift",
                    len(nodes),
                    nodes.min_separation,
                ) from None


def _refine(
    solve: Callable[[np.ndarray], np.ndarray],
    apply: Callable[[np.ndarray], np.ndarray],
    rhs: np.ndarray,
    nodes: PointSet,
) -> np.ndarray:
    """Solve the shifted system, then refine against the unshifted operator.

    ``solve`` applies the inverse of the shifted system and ``apply`` the
    unshifted Gram matrix.  Refinement stops at the target, or after the
    first pass that does not halve the node residual, and returns the
    iterate with the smaller residual.  Raises ConditioningError when that
    residual stays above the required tolerance.
    """
    solution = solve(rhs)
    scale = np.max(np.abs(rhs))
    if scale > 0.0:
        residual = rhs - apply(solution)
        size = np.max(np.abs(residual))
        for _ in range(_REFINEMENT_PASSES):
            if size <= _RESIDUAL_TARGET * scale:
                break
            candidate = solution + solve(residual)
            candidate_residual = rhs - apply(candidate)
            candidate_size = np.max(np.abs(candidate_residual))
            halved = candidate_size <= 0.5 * size
            if candidate_size < size:
                solution, residual, size = candidate, candidate_residual, candidate_size
            if not halved:
                break
        # Written so that a residual that is not a number fails too.
        if not size <= _RESIDUAL_REQUIRED * scale:
            raise ConditioningError(
                "node residual above tolerance after refinement",
                len(nodes),
                nodes.min_separation,
            )
    return solution


def fit_interpolant(kernel: TensorKernel | MaternKernel, nodes: PointSet, values):
    """The minimum-norm kernel interpolant through ``values`` at ``nodes``:
    the one-term :class:`~kernelkit.surrogate.Surrogate` of its expansion.

    A tensor grid of one-dimensional blocks of order 1/2, 3/2 or 5/2 is
    fitted in its factors' kernel-packet basis (:func:`_packet_solve`), a
    :class:`~kernelkit.surrogate.PacketExpansion`; every other node set in
    the kernel basis (:func:`_solve_spd`), a
    :class:`~kernelkit.surrogate.KernelExpansion`.  A bare
    :class:`MaternKernel` is fitted as the tensor kernel of one factor."""
    kernel = _tensor_kernel(kernel, nodes)
    rhs = np.asarray(values, dtype=float)
    if rhs.shape != (len(nodes),):
        raise ValueError(
            f"value vector length {rhs.shape} != node count {len(nodes)}"
        )
    factors = kernel.grid_factors(nodes)
    if factors is not None and all(_packet_order(b) is not None for b in kernel.kernels):
        grid = _packet_solve(kernel, factors, nodes, rhs)
        return Surrogate(terms=((1.0, PacketExpansion(kernel, ((1.0, grid),))),))
    alpha = _solve_spd(kernel, nodes, rhs)
    alpha.setflags(write=False)
    return Surrogate(terms=((1.0, KernelExpansion(kernel, nodes, alpha)),))


@dataclass(frozen=True)
class QuadratureRule:
    """Kernel quadrature: integrates the interpolant of the supplied data."""

    nodes: PointSet
    weights: np.ndarray
    embeddings: np.ndarray  # integral of Phi(x_i, .) against the density


def _gauss_legendre_grid(box: Box, per_axis: int) -> tuple[np.ndarray, np.ndarray]:
    xi, wi = np.polynomial.legendre.leggauss(per_axis)
    axes_pts = []
    axes_wts = []
    for lo, hi in zip(box.lows, box.highs):
        half = 0.5 * (hi - lo)
        axes_pts.append((lo + half * (xi + 1.0)).reshape(-1, 1))
        axes_wts.append(half * wi)
    return tensor_grid(axes_pts), tensor_weights(axes_wts)


def quadrature_weights(
    kernel: TensorKernel | MaternKernel, nodes: PointSet
) -> QuadratureRule:
    """Kernel-quadrature weights for the uniform density on a box.

    The weights solve ``K w = c`` where ``c_i`` is the integral of
    ``Phi(x_i, .)`` against the uniform probability density, computed with
    a fixed tensor Gauss-Legendre reference rule (64 points per axis).
    A bare :class:`MaternKernel`, which the ``misc`` pipeline's kernel
    quadrature passes, is the tensor kernel of one factor.
    """
    kernel = _tensor_kernel(kernel, nodes)
    box = nodes.domain
    if not isinstance(box, Box):
        raise ValueError("quadrature weights require a box domain")
    if box.dim > REFERENCE_RULE_MAX_DIM:
        raise ValueError(
            f"tensor reference rule limited to dimension <= {REFERENCE_RULE_MAX_DIM}"
        )
    grid, grid_w = _gauss_legendre_grid(box, _GAUSS_POINTS_PER_AXIS)
    grid_w /= box.volume
    rows = max(8, _EMBEDDING_BLOCK_ENTRIES // len(grid) // 8 * 8)
    embeddings = np.concatenate(
        [
            kernel.gram(nodes.points[start : start + rows], grid) @ grid_w
            for start in range(0, len(nodes.points), rows)
        ]
    )
    weights = _solve_spd(kernel, nodes, embeddings)
    weights.setflags(write=False)
    embeddings.setflags(write=False)
    return QuadratureRule(nodes=nodes, weights=weights, embeddings=embeddings)


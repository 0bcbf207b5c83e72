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
bit-identical to scipy's ``cdist``), and the profile is computed in place
in the fresh distance array (in a scaled copy of a caller's array through
the public :meth:`MaternKernel.profile`), so a Gram block costs the block
and a few temporaries.

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
(:meth:`TensorKernel.grid_factors`), and is solved through per-factor
inverses, so it never forms ``K``; each Kronecker mode product is one
``np.dot``.  When every block is a one-dimensional Matern kernel of
order ``nu = m + 1/2`` = 1/2, 3/2 or 5/2, each factor's exact inverse comes
from kernel packets (Chen, Ding & Tuo, JMLR 23, 2022): combinations of
the kernel at ``2m + 3`` consecutive sorted points that vanish outside
them, which make ``K_j = A^-1 Phi`` with ``A`` and ``Phi`` banded.
``K_j^-1 = Phi^-1 A`` decays away from the diagonal, so only its
numerically nonzero band is eliminated, in ``O(n)`` row operations, and
kept as row blocks; it needs no shift, and gives the same bits at any
BLAS thread count.
Otherwise, or when the packet solve's node residual stays above
tolerance, each factor is eigendecomposed, ``K_j = Q_j diag(lambda_j)
Q_j^T``, at ``n_j**3``.  All other node sets are solved by a dense Cholesky
factorization, with the shift added in place to one copy of the Gram
matrix per attempt.  One cache, ``_FACTORED_GRAMS`` (32 MiB), keeps every
path's factorizations, so fits of new values on nodes seen before factor
nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial, reduce
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

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
# building every surrogate, when they hold the most memory.  A
# half-integer profile holds one temporary of its own size; an
# integer-order one within the series radius holds a fixed 0.33 MB
# (``_BESSEL_SERIES_BLOCK``), and above it three temporaries of its own
# size.  Against 2**16, 2**18 entries raise the peak RSS of one run at 1
# BLAS thread by 0.1-0.4 MB for interp (80.3-80.5 to 80.6-80.7 MB) and by
# 1.8-1.9 MB for rsr (63.7-63.9 to 65.6-65.7 MB), and leave ouu's at
# 75.6-75.7 MB.
_STACK_BLOCK_ENTRIES = 2**16
# A contraction plan may hold up to this many coefficient-matrix entries
# per node; one that pads more evaluates by per-node gathers instead.
_PLAN_ENTRIES_PER_NODE = 2
# Bytes of factorizations that both fit paths keep (``_FACTORED_GRAMS``);
# a grid whose packet solve falls back to eigendecompositions keeps both.
# The interp benchmark's ten grid factors (2 to 1024 points) hold 13.3 MB:
# 11.2 MB of Gram matrices and 2.1 MB of packet inverse bands (as dense
# inverses they held 22.4 MB).  Its 1024-point factor, factored for the
# tuple (2, 1024), is used again at (1024, 2), and below about 13.3 MB
# every factor would be factored twice.  The ouu pipelines fit 239 times
# over 7 node sets of at most 128 nodes (0.26 MB a Gram matrix and its
# factor).
_FACTORED_GRAM_BYTES = 2**25
# Kernel packets (:func:`_packet_inverse`): Taylor series are summed to
# this many terms, for arguments up to this radius (in length scales);
# wider windows and distances use the closed exponential forms.
_PACKET_SERIES_TERMS = 40
_PACKET_SERIES_RADIUS = 2.0
# A packet inverse is swept over a band whose half-width starts at this
# many points per ``m + 1`` and doubles until its edge entries are at most
# ``_PACKET_BAND_FLOOR`` of their row's diagonal entry; entries that small
# are dropped.  The inverse decays by about 2 - sqrt(3) = 0.27 a point at
# nu = 3/2, so on interp's 1024-point factor the band keeps 36 points each
# side at nu = 3/2, 58 at nu = 5/2 and 1 at nu = 1/2 (where it is exact),
# and no subnormal number, where the dense inverse held 10,176.
_PACKET_BAND_GUESS = 24
_PACKET_BAND_FLOOR = 2.0**-64
# A banded packet factor is kept as blocks of this many rows
# (:func:`_packet_blocks`).
_PACKET_BLOCK_ROWS = 64
# Highest order m (nu = m + 1/2) whose factors are inverted by packets.
# Against a 50-digit inverse on 40 points, the packet inverse's relative
# error grows with m: 2e-13 at m = 2, 7e-11 at m = 4, 4e-9 at m = 5 and
# of order 1 at m = 8 (length scale 0.1); and from m = 20 on the odd
# series table above holds no term.  Higher orders keep the eigen solve.
_PACKET_ORDER_MAX = 2
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
    to 40 digits, rounded once by ``int / int``, like :func:`_packet_tables`.
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
    factors' packet inverses or eigendecompositions (:func:`_solve_kronecker`),
    all other node sets by a dense Cholesky factorization.  Raises
    ConditioningError when the shifted system is not positive definite at
    the largest admissible shift, a packet elimination meets a zero or
    non-finite pivot, or the residual stays above the required tolerance.
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


def _packet_order(kernel: MaternKernel) -> int | None:
    """``m`` of a one-dimensional Matern kernel of order ``nu = m + 1/2``,
    ``m <= _PACKET_ORDER_MAX``, whose grid factors :func:`_packet_factor`
    inverts; else None."""
    coefficients = kernel._half_integer_coefficients
    if kernel.dim != 1 or coefficients is None or len(coefficients) > _PACKET_ORDER_MAX + 1:
        return None
    return len(coefficients) - 1


def _packet_factor(kernel: MaternKernel, rows: np.ndarray):
    """``(gram, order, blocks)`` of one block kernel on one factor's points.

    ``order`` sorts the points, and ``blocks`` hold their inverse Gram
    matrix in that order, for :func:`_band_apply`: the numerically nonzero
    band from kernel packets (:func:`_packet_inverse`,
    :func:`_packet_blocks`), or the whole inverse as one block when the
    factor has fewer points than a packet spans.
    """
    gram = kernel.gram(rows, rows)
    m = _packet_order(kernel)
    order = np.argsort(rows[:, 0], kind="stable")
    try:
        if len(rows) < 2 * m + 3:
            blocks = np.linalg.inv(gram[np.ix_(order, order)])[None]
        else:
            blocks = _packet_blocks(_packet_inverse(kernel, rows[order, 0], m))
    except np.linalg.LinAlgError:
        gaps = np.diff(np.sort(rows[:, 0]))
        raise ConditioningError(
            "kernel packet inverse met a zero or non-finite pivot",
            len(rows),
            float(gaps.min()) if len(gaps) else math.inf,
        ) from None
    for array in (gram, order, blocks):
        array.setflags(write=False)
    return gram, order, blocks


def _packet_inverse(kernel: MaternKernel, x: np.ndarray, m: int) -> np.ndarray:
    """The numerically nonzero band of ``K^-1`` of the Matern kernel of
    order ``m + 1/2`` on at least ``2m + 3`` sorted one-dimensional points
    ``x``, from kernel packets: ``band[i, t]`` is entry ``(i, i - w + t)``,
    0 past the ends, with ``band`` shaped ``(n, 2w + 1)``.

    Packet ``i`` is the combination ``sum_j A[i, j] K(., x_j)`` over a
    window of consecutive points that vanishes on one or both sides of the
    window (:func:`_packet_coefficients`).  So ``A`` is banded, ``Phi = A
    K``, the packets' values at the points, is banded (:func:`_packet_band`),
    and ``K^-1 = Phi^-1 A`` (Chen, Ding & Tuo, JMLR 23, 2022).  ``Phi^-1 A``
    is dense but decays away from the diagonal, so it is eliminated on a
    band only (:func:`_packet_sweep`), which doubles from
    ``_PACKET_BAND_GUESS (m + 1)`` points each side until every row's edge
    entries are at most ``_PACKET_BAND_FLOOR`` of its diagonal entry, or
    until it spans every point, where it is exact.  Entries that small are
    then zeroed, which leaves no subnormal number, and the band is trimmed
    to the widest half-width that still holds a nonzero entry.  Raises
    LinAlgError at a zero or non-finite pivot.
    """
    u = x / kernel.length_scale
    n = len(u)
    starts, coefficients = _packet_coefficients(u, m)
    lower, upper = _packet_lu(_packet_band(kernel, u, starts, coefficients))
    width = min(_PACKET_BAND_GUESS * (m + 1), n - 1)
    while True:
        band = _packet_sweep(lower, upper, starts, coefficients, width)
        dead = np.abs(band) <= _PACKET_BAND_FLOOR * np.abs(band[:, width : width + 1])
        if width == n - 1 or dead[:, [0, -1]].all():
            break
        width = min(2 * width, n - 1)
    band[dead] = 0.0
    keep = int(np.max(np.abs(np.flatnonzero(~dead.all(axis=0)) - width), initial=0))
    return band[:, width - keep : width + keep + 1].copy()


def _packet_lu(phi: np.ndarray) -> tuple[list, list]:
    """Gaussian elimination without pivoting of ``Phi``, given by its band
    (:func:`_packet_band`): ``(lower, upper)`` with ``lower[i][k - 1]`` the
    multiple of row ``i`` taken from row ``i + k``, and ``upper[i]`` the
    diagonal of row ``i`` and the ``m`` entries right of it.  Raises
    LinAlgError at a zero or non-finite pivot."""
    band = phi.tolist()
    n, m = len(band), phi.shape[1] // 2
    lower = []
    for i in range(n):
        pivot = band[i][m]
        if not (math.isfinite(pivot) and pivot != 0.0):
            raise np.linalg.LinAlgError(f"kernel packet pivot {pivot} at row {i}")
        factors = []
        for k in range(1, min(m, n - 1 - i) + 1):
            below = band[i + k]
            factor = below[m - k] / pivot
            for t in range(m - k + 1, 2 * m + 1 - k):
                below[t] -= factor * band[i][t + k]
            factors.append(factor)
        lower.append(factors)
    return lower, [row[m:] for row in band]


def _packet_sweep(
    lower: list, upper: list, starts: np.ndarray, coefficients: np.ndarray, width: int
) -> np.ndarray:
    """``Phi^-1 A`` on the band of half-width ``width`` (as
    :func:`_packet_inverse` returns it), from the elimination of ``Phi``
    (:func:`_packet_lu`) and the packets' coefficients ``A``.

    Each row operation of the forward and backward sweeps acts on one band
    row, shifted by the two rows' distance; entries that would fall outside
    the band are dropped.  The rows are divided by their pivots before the
    backward sweep, whose multipliers are divided likewise.  ``A`` lies
    within ``2m + 2`` points of the diagonal, so ``width`` must be at least
    that.
    """
    n, window = coefficients.shape
    band = np.zeros((n, 2 * width + 1))
    index = np.arange(n)[:, None]
    band[index, starts[:, None] + np.arange(window) - index + width] = coefficients
    rows = list(band)
    for i, factors in enumerate(lower):
        for k, factor in enumerate(factors, 1):
            rows[i + k][:-k] -= factor * rows[i][k:]
    diagonal = [row[0] for row in upper]
    band /= np.array(diagonal)[:, None]
    for i in range(n - 2, -1, -1):
        row = rows[i]
        for k, entry in enumerate(upper[i][1 : n - i], 1):
            row[k:] -= entry / diagonal[i] * rows[i + k][:-k]
    return band


def _packet_blocks(band: np.ndarray) -> np.ndarray:
    """A packet inverse's band (:func:`_packet_inverse`) as the blocks of
    :func:`_band_apply`, shaped ``(count, rows, columns)``.

    Block ``b`` holds rows ``b * rows`` to ``b * rows + rows - 1`` over the
    columns from ``w`` before the first to ``w`` after the last, 0 past the
    ends, with ``rows = _PACKET_BLOCK_ROWS`` and ``columns = rows + 2w``.
    When that would hold no fewer entries than the whole inverse, as for
    every factor of fewer than ``rows`` points, the whole inverse is one
    block.  The band is written into the blocks through a strided view of
    their diagonals.
    """
    n, width = band.shape
    w = width // 2
    rows = _PACKET_BLOCK_ROWS
    count = -(-n // rows)
    dense = count * rows * (rows + 2 * w) >= n * n
    if dense:
        rows, count = n, 1
    blocks = np.zeros((count, rows, rows + 2 * w))
    step, row_step, item = blocks.strides
    diagonals = np.lib.stride_tricks.as_strided(
        blocks, (count, rows, width), (step, row_step + item, item)
    )
    full, rest = divmod(n, rows)
    diagonals[:full] = band[: full * rows].reshape(full, rows, width)
    if rest:
        diagonals[full, :rest] = band[full * rows :]
    return blocks[:, :, w : w + n].copy() if dense else blocks


def _band_apply(order: np.ndarray, blocks: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``K^-1 x`` for ``x`` shaped ``(n, k)``, with a packet factor's
    ``order`` and ``blocks`` (:func:`_packet_factor`): the rows of ``x`` are
    gathered into sorted order with zero padding, each block multiplies
    its window of them in one batched matmul, and the products are
    scattered back into the points' order."""
    count, rows, columns = blocks.shape
    pad = (columns - rows) // 2
    n, k = x.shape
    padded = np.zeros((count * rows + 2 * pad, k))
    np.take(x, order, axis=0, out=padded[pad : pad + n])
    step, item = padded.strides
    windows = np.lib.stride_tricks.as_strided(
        padded, (count, columns, k), (rows * step, step, item), writeable=False
    )
    product = np.matmul(blocks, windows).reshape(-1, k)
    result = np.empty((n, k))
    result[order] = product[:n]
    return result


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
        gaps = z[:, :, None] - z[:, None, :]
        gaps[:, range(m + 2), range(m + 2)] = 1.0
        coefficients[packets[:, None], columns] = np.exp(
            sign * (anchor - own)
        ) / gaps.prod(axis=2)
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
    basis = _packet_tables(m)[2]
    near = v[narrow]
    values = np.zeros((width - 1, *near.shape))
    for coefficient in basis.T[::-1]:  # Horner's rule, highest power first
        values *= near
        values += coefficient[:, None, None]
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


def _packet_band(
    kernel: MaternKernel, u: np.ndarray, starts: np.ndarray, coefficients: np.ndarray
) -> np.ndarray:
    """The band of ``Phi``: entry ``[i, t]`` is packet ``i``'s value at point
    ``i - m + t``, zero past the ends.

    A packet vanishes outside its window, and its values there come in
    three exact forms; each entry takes the one whose terms' magnitudes sum
    the least, so that it loses the fewest digits.  Summing the kernel
    values themselves cancels to ``O(h**(2m+1))`` in a window of width
    ``h``.  But a packet that vanishes on the right is, at ``u_l``, the
    sum over its points ``u_j > u_l`` of ``c_j (psi(d) - psi(-d))``,
    ``d = u_j - u_l``, ``psi(s) = q(s) exp(-s)`` the profile, because its
    analytic continuation ``sum_j c_j psi(u - u_j)`` from the right is
    zero; likewise over ``u_j < u_l`` for one that vanishes on the left.
    ``psi(d) - psi(-d)`` is ``O(d**(2m+1))`` and is summed by its series
    (:func:`_odd_profile`).
    """
    n, width = coefficients.shape
    m = (width - 3) // 2
    columns = np.arange(n)[:, None] + np.arange(-m, m + 1)
    inside = (columns >= 0) & (columns < n)
    offsets = (
        u[np.clip(columns, 0, n - 1)][:, :, None]
        - u[starts[:, None] + np.arange(width)][:, None, :]
    )
    distance = np.abs(offsets)
    # psi's constant: the profile is constant * q(d) exp(-d).
    weights = coefficients[:, None, :] * (kernel._normalization * math.sqrt(math.pi / 2.0))
    q = _packet_tables(m)[0]
    with np.errstate(over="ignore", invalid="ignore"):
        direct = weights * np.polynomial.polynomial.polyval(distance, q)
        direct *= np.exp(-distance)
        odd = weights * _odd_profile(distance, m)
        forms = [direct, np.where(offsets < 0, odd, 0.0), np.where(offsets > 0, odd, 0.0)]
        costs = [np.nan_to_num(np.abs(f).sum(axis=2), nan=np.inf) for f in forms]
    costs[1][n - m - 1 :] = np.inf  # the last packets do not vanish on the right
    costs[2][: m + 1] = np.inf  # nor the first on the left
    band = np.choose(np.argmin(costs, axis=0), [f.sum(axis=2) for f in forms])
    return np.where(inside, band, 0.0)


def _odd_profile(d: np.ndarray, m: int) -> np.ndarray:
    """``psi(d) - psi(-d)`` for ``d >= 0``, with ``psi(s) = q(s) exp(-s)``
    the order ``m + 1/2`` profile without its constant.

    It equals ``2 (q_odd(d) cosh(d) - q_even(d) sinh(d))``, ``d cosh(d) -
    sinh(d)`` times 2 for ``m = 1``, and is ``O(d**(2m+1))``, so below the
    series radius, where its two terms nearly cancel, it is summed as a
    Taylor series in ``d**2`` instead.
    """
    q, odd, _ = _packet_tables(m)
    out = np.empty_like(d)
    near = d < _PACKET_SERIES_RADIUS
    small = d[near]
    square = small * small
    series = np.full_like(small, odd[-1])
    for coefficient in odd[-2::-1]:
        series *= square
        series += coefficient
    out[near] = series * small ** (2 * m + 1)
    large = d[~near]
    polyval = np.polynomial.polynomial.polyval
    out[~near] = polyval(large, q) * np.exp(-large) - polyval(-large, q) * np.exp(large)
    return out


@lru_cache(maxsize=None)
def _packet_tables(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Series tables of the Matern kernel of order ``m + 1/2``, as floats.

    ``(q, odd, basis)``: the profile is ``q(s) exp(-s)`` up to its constant,
    ``q`` lowest power first; ``psi(d) - psi(-d) = d**(2m+1) sum_i
    odd[i] d**(2i)``; ``basis[k, j]`` is the ``v**j`` Taylor coefficient of
    the solution ``f_k`` of ``(D**2 - 1)**(m+1) f = 0`` whose first
    ``2m + 2`` derivatives at 0 are those of ``v**k / k!``.  Each entry is
    an exact ratio of integers, rounded once by ``int / int`` (correctly,
    as ``float`` rounds a ``Fraction``), so the coefficients that vanish
    are exactly 0.
    """
    terms = _PACKET_SERIES_TERMS
    # q[p] = weights[p] / scale
    scale = math.factorial(m) * 2**m
    weights = [math.factorial(2 * m - p) * math.comb(m, p) * 2**p for p in range(m + 1)]
    q = [weight / scale for weight in weights]
    # psi[j] = psi_numerators[j] / (scale * j!): the v**j coefficient of q(v) exp(-v)
    psi_numerators = [
        sum(
            weights[p] * (-1) ** (j - p) * (math.factorial(j) // math.factorial(j - p))
            for p in range(min(j, m) + 1)
        )
        for j in range(terms)
    ]
    odd = [
        2 * psi_numerators[j] / (scale * math.factorial(j))
        for j in range(2 * m + 1, terms, 2)
    ]
    order = 2 * m + 2
    # (D**2 - 1)**(m+1) = D**order + sum_i recurrence[i] D**(2i)
    recurrence = [math.comb(m + 1, i) * (-1) ** (m + 1 - i) for i in range(m + 1)]
    basis = []
    for k in range(order):
        derivatives = [int(j == k) for j in range(order)]
        for j in range(order, terms):
            derivatives.append(
                -sum(c * derivatives[j - order + 2 * i] for i, c in enumerate(recurrence))
            )
        basis.append([d / math.factorial(j) for j, d in enumerate(derivatives)])
    return tuple(np.array(table, dtype=float) for table in (q, odd, basis))


class _FactoredGrams:
    """Factorizations by key, least recently used first, holding at most
    ``limit`` bytes of arrays.

    An entry is :func:`_factor_gram`'s pair by (kernel, node bytes), or
    :func:`_packet_factor`'s or :func:`_decompose_factor`'s triple by
    (block kernel, factor point bytes, kind): a flat tuple of read-only
    arrays, sized by their bytes, a pure function of the key, so every
    caller in the process may share it.  One larger than the bound is not
    kept.
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


def _kron_apply(matrices: Sequence, x: np.ndarray) -> np.ndarray:
    """``(M_1 (x) ... (x) M_m) x`` for ``x`` shaped ``(n_1, ..., n_m)``.

    Each mode applies ``M_j`` to mode ``j`` of ``x`` moved first and
    flattened behind it.  A matrix, such as a Gram matrix or eigenvectors,
    takes one ``np.dot``, the product ``np.tensordot(M_j, x, axes=(1, j))``
    computes, so the two agree bit for bit; a packet factor's ``(order,
    blocks)`` takes :func:`_band_apply`.  The axes are moved by plain
    transposes, as ``np.moveaxis`` would move them.
    """
    for axis, matrix in enumerate(matrices):
        rest = range(axis + 1, x.ndim)
        moved = x.transpose(axis, *range(axis), *rest)
        flat = moved.reshape(len(moved), -1)
        if isinstance(matrix, np.ndarray):
            product = np.dot(matrix, flat)
        else:
            product = _band_apply(*matrix, flat)
        x = product.reshape(moved.shape).transpose(*range(1, axis + 1), 0, *rest)
    return x


def _solve_kronecker(
    kernel: TensorKernel, factors: list[np.ndarray], nodes: PointSet, rhs: np.ndarray
) -> np.ndarray:
    """:func:`_solve_spd` on a tensor grid, through per-factor inverses.

    When every block is a one-dimensional Matern kernel of order 1/2, 3/2
    or 5/2 (:func:`_packet_order`), each factor's inverse is kept as the
    numerically nonzero band of its exact inverse from kernel packets
    (:func:`_packet_factor`), and the solve is one mode product per factor
    with them (:func:`_band_apply`), unshifted.  If refinement cannot
    bring that solve's node residual within tolerance, as on a grid whose
    lowest eigenvalues lie far below the starting shift, or when a block
    takes no packets, each factor is eigendecomposed, ``K_j = Q_j
    diag(lambda_j) Q_j^T``, and the shifted system is solved exactly as
    ``x = (x)Q_j [((x)Q_j^T b) / ((x)lambda_j + jitter)]``; the shift
    escalates like the dense path's while that spectrum is not positive.
    Either way refinement applies the unshifted ``(x)K_j`` by mode
    products, never forming the Gram matrix: a packet inverse is exact in
    exact arithmetic up to the entries its band drops, each at most
    ``_PACKET_BAND_FLOOR`` of its row's diagonal, but a solve by it alone
    is not backward stable.
    """
    shape = tuple(len(rows) for rows in factors)
    blocks = [block for block, _ in kernel.blocks]

    def entries(kind: str, build: Callable) -> list[tuple]:
        return [
            _FACTORED_GRAMS.get((block, rows.tobytes(), kind), partial(build, block, rows))
            for block, rows in zip(blocks, factors)
        ]

    def kron(matrices: Sequence[np.ndarray]) -> Callable[[np.ndarray], np.ndarray]:
        return lambda x: _kron_apply(matrices, x.reshape(shape)).ravel()

    if all(_packet_order(block) is not None for block in blocks):
        packets = entries("packets", _packet_factor)
        grams = [entry[0] for entry in packets]
        inverses = [entry[1:] for entry in packets]
        try:
            return _refine(kron(inverses), kron(grams), rhs, nodes)
        except ConditioningError:
            pass  # the packet solve missed the residual gate
    eigen = entries("eigen", _decompose_factor)
    grams = [entry[0] for entry in eigen]
    return _refine(_eigen_solve(eigen, shape, nodes), kron(grams), rhs, nodes)


def _eigen_solve(entries, shape: tuple[int, ...], nodes: PointSet):
    """The solve of the smallest admissibly shifted Kronecker system whose
    factors have the eigendecompositions ``entries``."""
    grams, eigenvalues, eigenvectors = zip(*entries)
    spectrum = reduce(np.multiply.outer, eigenvalues)
    # trace(K) / N of the Kronecker product, the dense path's shift scale.
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

    return solve


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


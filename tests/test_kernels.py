import math
import tracemalloc
from functools import reduce
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.linalg.lapack import dgbtrf, dgbtrs
from scipy.spatial.distance import cdist
from scipy.special import kn, kv

import kernelkit.kernels as kernels_module
import kernelkit.lapack as lapack_module
import kernelkit.packets as packets_module
import kernelkit.surrogate as surrogate_module
from kernelkit.kernels import (
    ConditioningError,
    MaternKernel,
    TensorKernel,
    fit_interpolant,
    quadrature_weights,
)
from kernelkit.multiindex import combination_coefficients
from kernelkit.points import (
    _DISTANCE_BLOCK_ENTRIES,
    Box,
    Disc,
    PointSet,
    generate_points,
    halton_sequence,
    pairwise_distances,
    tensor_grid,
)
from kernelkit.smolyak import FactorSpec, level_to_resolution
from kernelkit.surrogate import KernelExpansion, PacketExpansion, Surrogate
from kernelkit.uq import doubling_levels, sparse_interpolate

UNIT_INTERVAL = Box((0.0,), (1.0,))
UNIT_SQUARE = Box((0.0, 0.0), (1.0, 1.0))


def grid_fit(factor_kernels, factor_points, values):
    """The tensor-product interpolant on the product of per-factor point sets."""
    return fit_interpolant(
        TensorKernel(kernels=tuple(factor_kernels)), PointSet.product(factor_points), values
    )


def expansion_of(fit):
    """The one expansion of a fit (a one-term surrogate)."""
    ((_, expansion),) = fit.terms
    return expansion


def grid_of(fit):
    """The one grid of a fit in the packet basis."""
    ((_, grid),) = expansion_of(fit).grids
    return grid


def uniform_nodes(count):
    return PointSet(
        points=np.linspace(0.0, 1.0, count).reshape(-1, 1), domain=UNIT_INTERVAL
    )


def sobolev_series(x, order=2.05, modes=400, seed=11):
    """Random sine series lying in H^order but no smoother."""
    ks = np.arange(1, modes + 1)
    amps = ks ** -(order + 0.5)
    signs = np.random.default_rng(seed).choice([-1.0, 1.0], size=modes)
    return (signs * amps * np.sin(np.outer(x[:, 0], ks * np.pi))).sum(axis=1)


class TestMaternKernel:
    def test_exponential_case_at_zero(self):
        k = MaternKernel(beta=1.0, dim=1)
        value = k.gram([0.3], [0.3])[0, 0]
        assert value == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-12)

    def test_order_one_limit_at_zero(self):
        k = MaternKernel(beta=2.0, dim=2)
        assert k.gram([0.1, 0.2], [0.1, 0.2])[0, 0] == pytest.approx(0.5)
        near = k.gram([0.0, 0.0], [1e-8, 0.0])[0, 0]
        assert near == pytest.approx(0.5, rel=1e-9)

    def test_half_integer_matches_bessel(self):
        k = MaternKernel(beta=2.0, dim=1)  # order 3/2
        for r in (0.1, 0.73, 2.5):
            closed = k.profile(np.array([r]))[0]
            reference = 2.0 ** (1 - 2.0) / math.gamma(2.0) * r**1.5 * kv(1.5, r)
            assert closed == pytest.approx(reference, rel=1e-13)

    def test_integer_order_three(self):
        k = MaternKernel(beta=4.0, dim=2)  # order 3
        assert k.value_at_zero == pytest.approx(1.0 / 6.0)
        r = 0.8
        reference = 2.0 ** (1 - 4.0) / math.gamma(4.0) * r**3 * kv(3.0, r)
        assert k.profile(np.array([r]))[0] == pytest.approx(reference, rel=1e-10)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        for k in (MaternKernel(2.0, 1), MaternKernel(2.0, 2), MaternKernel(4.0, 2)):
            x = rng.random(k.dim)
            y = rng.random(k.dim)
            assert k.gram(x, y)[0, 0] == k.gram(y, x)[0, 0]

    def test_length_scale(self):
        k1 = MaternKernel(beta=2.0, dim=1, length_scale=0.5)
        k2 = MaternKernel(beta=2.0, dim=1, length_scale=1.0)
        assert k1.gram([0.0], [0.25])[0, 0] == pytest.approx(
            k2.gram([0.0], [0.5])[0, 0], rel=1e-13
        )

    @pytest.mark.parametrize("nu", [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5])
    @pytest.mark.parametrize("length_scale", [1.0, 0.3])
    def test_profile_matches_bessel_kn_and_power_form(self, nu, length_scale):
        k = MaternKernel(beta=nu + 1.0, dim=2, length_scale=length_scale)
        small = kernels_module._SMALL_RADIUS
        s = np.concatenate(
            [
                np.geomspace(1e-8, 40.0, 400),
                small * np.array([0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 2.0]),
            ]
        )
        normalization = 2.0 ** (-nu) / math.gamma(nu + 1.0)
        if nu == int(nu):
            order = int(nu)
            far = s > small
            reference = np.full_like(s, k.value_at_zero)
            reference[far] = normalization * s[far] ** order * kn(order, s[far])
        else:
            # r**nu K_nu(r) = sqrt(pi/2) exp(-r) sum_k c_k r**(m-k), term by term.
            m = int(nu - 0.5)
            coeffs = [
                math.factorial(m + j) / (math.factorial(j) * math.factorial(m - j)) * 2.0**-j
                for j in range(m + 1)
            ]
            poly = sum(c * s ** (m - j) for j, c in enumerate(coeffs))
            reference = normalization * math.sqrt(math.pi / 2.0) * np.exp(-s) * poly
        profile = k.profile(s * length_scale)
        assert np.max(np.abs(profile - reference) / reference) <= 1e-13

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_series_matches_50_digit_values(self, monkeypatch, order):
        # mpmath is a test-only dependency; without it this reference skips.
        mpmath = pytest.importorskip("mpmath")

        def no_scipy(*args, **kwargs):
            raise AssertionError("an argument within the series radius called scipy")

        monkeypatch.setattr(kernels_module, "bessel_k0", no_scipy)
        monkeypatch.setattr(kernels_module, "bessel_k1", no_scipy)
        s = np.append(np.geomspace(1e-8, 2.0, 400, endpoint=False), 2.0)
        with mpmath.workdps(50):
            reference = np.array(
                [float(mpmath.mpf(x) ** order * mpmath.besselk(order, mpmath.mpf(x))) for x in s]
            )
        values = kernels_module._scaled_bessel_k(order, s.copy())
        assert np.max(np.abs(values - reference) / reference) <= 2e-15

    @pytest.mark.parametrize(
        "order, largest, scipy_entries",
        [
            (1, 2.0, []),
            (3, 2.0, []),
            (1, np.nextafter(2.0, 3.0), [1]),
            (3, np.nextafter(2.0, 3.0), [1]),
            (3, 2.5, [1]),
            # Orders above the series degree take scipy whatever the argument.
            (15, 2.0, [17001]),
        ],
    )
    def test_entries_beyond_the_series_radius_take_scipy(
        self, monkeypatch, order, largest, scipy_entries
    ):
        calls = []
        counting(monkeypatch, kernels_module, "bessel_k1", calls)
        # Enough entries for several series blocks, the last one partial.
        s = np.append(np.geomspace(1e-6, 1.9, 17000), largest)
        values = kernels_module._scaled_bessel_k(order, s.copy())
        assert calls == scipy_entries
        reference = s**order * kn(order, s)
        assert np.max(np.abs(values - reference) / reference) <= 1e-13
        # Each entry's value is its own: the series entries keep their bits
        # whatever else the call holds, and however it is blocked.
        alone = kernels_module._scaled_bessel_k(order, s[:-1].copy())
        assert values[:-1].tobytes() == alone.tobytes()
        singles = [
            kernels_module._scaled_bessel_k(order, s[i : i + 1].copy()) for i in range(0, 17000, 997)
        ]
        assert np.concatenate(singles).tobytes() == values[:-1:997].tobytes()

    @pytest.mark.parametrize("nu", [0.5, 1.0, 1.5, 3.0])
    def test_profile_does_not_write_its_input(self, nu):
        k = MaternKernel(beta=nu + 1.0, dim=2, length_scale=0.7)
        r = np.array([[0.0, 0.3, 1.2], [2.5, 1e-9, 0.05]])
        before = r.copy()
        k.profile(r)
        assert np.array_equal(r, before)

    @pytest.mark.parametrize("nu", [1.0, 2.0, 3.0])
    def test_profile_all_far_path_matches_masked_path(self, nu):
        k = MaternKernel(beta=nu + 1.0, dim=2)
        far = np.geomspace(2e-8, 40.0, 300)
        masked = k.profile(np.concatenate([far, [0.0, kernels_module._SMALL_RADIUS]]))
        assert k.profile(far).tobytes() == masked[:-2].tobytes()
        assert np.all(masked[-2:] == k.value_at_zero)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("nu", [0.5, 1.5, 2.5, 1.0, 3.0, 16.0])
    def test_gram_from_row_blocks_matches_one_whole_profile_bit_for_bit(self, nu, dim):
        # At length scale 0.1 entries reach past the series radius, so the
        # integer orders take both the series and scipy's recurrence, which
        # order 16, past the series degree, takes alone.
        k = MaternKernel(beta=nu + dim / 2, dim=dim, length_scale=0.1)
        rng = np.random.default_rng(int(10 * nu) + dim)

        def check(x, y):
            x[0] = y[-1]  # a zero distance
            whole = k._profile_in_place(pairwise_distances(x, y))
            gram = k.gram(x, y)
            assert gram.flags.c_contiguous
            assert gram.shape == whole.shape
            assert gram.tobytes() == whole.tobytes()

        y = rng.random((300, dim))
        block_rows = _DISTANCE_BLOCK_ENTRIES // len(y)
        for rows in (1, block_rows - 1, block_rows, block_rows + 1):
            check(rng.random((rows, dim)), y)
        # Each block holds a single row.
        check(rng.random((3, dim)), rng.random((_DISTANCE_BLOCK_ENTRIES + 1, dim)))
        assert k.gram(np.empty((0, dim)), y).shape == (0, len(y))

    def test_gram_holds_one_array_of_its_size(self):
        # nu = 3/2 on 1,024 points, the interp workload's largest grid factor:
        # a whole-matrix distance or Horner temporary would double the peak.
        k = MaternKernel(beta=2.0, dim=1)
        x = np.linspace(0.0, 1.0, 1024).reshape(-1, 1)
        tracemalloc.start()
        try:
            gram = k.gram(x, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert gram.nbytes == 2**23
        assert peak < gram.nbytes + 2**20

    def test_rejects_unsupported_orders(self):
        with pytest.raises(ValueError):
            MaternKernel(beta=1.25, dim=1)  # order 0.75
        with pytest.raises(ValueError):
            MaternKernel(beta=0.5, dim=2)  # order <= 0
        with pytest.raises(ValueError):
            MaternKernel(beta=2.0, dim=1, length_scale=0.0)

    def test_order_bound(self):
        # At nu = 150, the highest order, and at the highest half-integer
        # order below it the profile's constants are finite; a kernel of an
        # order above it is refused as it is built.
        for beta, dim in [(150.5, 1), (151.0, 2)]:
            kernel = MaternKernel(beta=beta, dim=dim)
            assert kernel.nu == 150
            assert 0 < kernel._normalization and math.isfinite(kernel.value_at_zero)
        assert np.isfinite(MaternKernel(beta=150.0, dim=1)._half_integer_coefficients).all()
        for beta, dim in [(151.0, 1), (151.5, 2), (1e6, 1), (1e300, 1)]:
            with pytest.raises(ValueError, match="at most 150"):
                MaternKernel(beta=beta, dim=dim)


def fraction_half_integer_polynomial(m):
    """The order ``m + 1/2`` profile's polynomial ``q`` in ``Fraction``s,
    lowest power first."""
    from fractions import Fraction

    return [
        Fraction(math.factorial(2 * m - p), math.factorial(p) * math.factorial(m - p))
        / 2 ** (m - p)
        for p in range(m + 1)
    ]


def fraction_packet_tables(m, terms):
    """:func:`packets._packet_tables` computed in ``Fraction``s."""
    from fractions import Fraction

    q = fraction_half_integer_polynomial(m)
    psi = [
        sum(q[p] * Fraction((-1) ** (j - p), math.factorial(j - p)) for p in range(min(j, m) + 1))
        for j in range(terms)
    ]
    odd = [2 * psi[j] for j in range(2 * m + 1, terms, 2)]
    order = 2 * m + 2
    recurrence = [math.comb(m + 1, i) * (-1) ** (m + 1 - i) for i in range(m + 1)]
    basis = []
    for k in range(order):
        derivatives = [Fraction(int(j == k)) for j in range(order)]
        for j in range(order, terms):
            derivatives.append(
                -sum(c * derivatives[j - order + 2 * i] for i, c in enumerate(recurrence))
            )
        basis.append([d / math.factorial(j) for j, d in enumerate(derivatives)])
    return np.array(odd, dtype=float), np.array(basis, dtype=float)


def fraction_bessel_series_table(n, degree, euler_gamma):
    """:func:`kernels._bessel_series_table` computed in ``Fraction``s."""
    from fractions import Fraction

    psi = [-Fraction(euler_gamma)]
    for m in range(1, degree + 1):
        psi.append(psi[-1] + Fraction(1, m))
    p = [Fraction(0)] * (degree + 1)
    q = [Fraction(0)] * (degree + 1)
    for k in range(n):
        q[k] = -Fraction(2 ** (n - 1) * math.factorial(n - k - 1) * (-1) ** k, math.factorial(k))
    for k in range(degree + 1 - n):
        denominator = math.factorial(k) * math.factorial(n + k)
        p[n + k] = Fraction((-1) ** (n + 1) * 2**n, denominator)
        q[n + k] = -((-1) ** n) * 2 ** (n - 1) * (psi[k] + psi[n + k]) / denominator
    return np.array([complex(a, b) for a, b in zip(p[::-1], q[::-1])])


class TestSeriesTables:
    # The tables round exact integer ratios once each, as a Fraction rounds.
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_packet_tables_match_fractions_bit_for_bit(self, m):
        tables = packets_module._packet_tables(m)
        reference = fraction_packet_tables(m, packets_module._PACKET_SERIES_TERMS)
        assert [t.tobytes() for t in tables] == [r.tobytes() for r in reference]

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_sized_series_match_the_full_sums_within_2_ulps(self, m):
        # A call sums only the leading terms that can reach the sum at its
        # largest argument.  At every argument of calls whose largest spans
        # (0, radius), the odd profile's series in d**2 and the narrow-window
        # solutions' series in v (:func:`packets._central_packets`) match
        # the full 40-term sums.  Largest seen: 0 ulps.
        odd, basis = packets_module._packet_tables(m)
        kernel = MaternKernel(beta=m + 1.0, dim=1)

        def full_sum(table, x):
            out = np.zeros(table.shape[:-1] + x.shape)
            for coefficient in table.T[::-1]:
                out = out * x + coefficient.reshape(coefficient.shape + (1,) * x.ndim)
            return out

        def ulps(got, expected):
            nonzero = expected != 0
            assert np.all(got[~nonzero] == 0)
            return np.max(np.abs(got - expected)[nonzero] / np.spacing(np.abs(expected[nonzero])))

        radius = packets_module._PACKET_SERIES_RADIUS
        for largest in radius * np.geomspace(1e-6, 1.0, 60, endpoint=False):
            d = np.linspace(0.0, largest, 257)
            square = d * d
            expected = full_sum(odd, square)
            assert ulps(packets_module._taylor(odd, square), expected) <= 2
            profile = packets_module._odd_profile(d, kernel)
            assert ulps(profile, expected * (d * square**m)) <= 2
            v = np.linspace(-largest, largest, 257)
            assert ulps(packets_module._taylor(basis, v), full_sum(basis, v)) <= 2

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_half_integer_poly_matches_numpy_polynomial_bit_for_bit(self, m):
        # The profile polynomial q(s) that the profile and the packets share,
        # at the shapes the packets evaluate it on and at finite extremes.
        # At m = 0 it is the constant itself.
        kernel = MaternKernel(beta=m + 1.0, dim=1)
        q = kernel._half_integer_coefficients[::-1]  # lowest power first
        rng = np.random.default_rng(m)
        distances = [
            rng.uniform(0.0, 40.0, (7, 3, 5)),
            -rng.uniform(0.0, 40.0, 64),
            np.array([0.0, -0.0, 1e-300, -1e-300, 700.0, -700.0]),
        ]
        for d in distances:
            expected = np.polynomial.polynomial.polyval(d, q)
            got = np.broadcast_to(kernel._half_integer_poly(d), d.shape)
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("m", range(15))
    def test_half_integer_polynomial_matches_fractions_bit_for_bit(self, m):
        # The profile and the packets share this one table.
        kernel = MaternKernel(beta=m + 1.0, dim=1)  # nu = m + 1/2
        reference = np.array(fraction_half_integer_polynomial(m)[::-1], dtype=float)
        assert kernel._half_integer_coefficients.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("order", range(1, 15))
    def test_bessel_series_table_matches_fractions_bit_for_bit(self, order):
        table = kernels_module._bessel_series_table(order)
        reference = fraction_bessel_series_table(
            order, kernels_module._BESSEL_SERIES_DEGREE, kernels_module._EULER_GAMMA
        )
        assert table.tobytes() == reference.tobytes()


class TestTensorKernel:
    def test_block_product(self):
        ka = MaternKernel(beta=2.0, dim=1)
        kb = MaternKernel(beta=1.0, dim=1)
        tensor = TensorKernel(kernels=(ka, kb))
        x = np.array([[0.1, 0.7]])
        y = np.array([[0.4, 0.2]])
        expected = ka.gram([0.1], [0.4])[0, 0] * kb.gram([0.7], [0.2])[0, 0]
        assert tensor.gram(x, y)[0, 0] == pytest.approx(expected, rel=1e-13)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_gram_is_pairwise_block_product_bit_for_bit(self, data):
        # Block layouts: one 1-D block, one 2-D block, and mixed products,
        # with Bessel (integer nu) and closed-form (half-integer nu) profiles.
        layout = data.draw(
            st.sampled_from(
                [
                    ((1.5, 1),),
                    ((2.0, 2),),
                    ((2.0, 1), (1.5, 1)),
                    ((2.0, 2), (2.0, 1)),
                    ((1.5, 1), (2.5, 2), (2.0, 1)),
                ]
            )
        )
        tensor = layout_kernel(layout)
        offset = tensor.dim
        # A small pool makes block coordinates repeat; -0.0 sits next to 0.0.
        coordinate = st.one_of(
            st.sampled_from([0.0, -0.0, 0.5, 1.0]),
            st.floats(-2.0, 2.0, allow_nan=False, allow_subnormal=False),
        )

        def points(label):
            rows = data.draw(st.integers(1, 12), label=f"{label} rows")
            values = data.draw(
                st.lists(coordinate, min_size=rows * offset, max_size=rows * offset),
                label=label,
            )
            return np.array(values).reshape(rows, offset)

        x, y = points("x"), points("y")
        expected = np.ones((len(x), len(y)))
        start = 0
        for kernel in tensor.kernels:
            idx = list(range(start, start + kernel.dim))
            start += kernel.dim
            expected *= kernel.profile(cdist(x[:, idx], y[:, idx]))
        gram = tensor.gram(x, y)
        assert gram.flags.c_contiguous
        assert gram.tobytes() == expected.tobytes()
        assert tensor.gram(x, x).tobytes() == tensor.gram(x, x).T.tobytes()

    def test_tensor_grid_fit_evaluates_each_block_profile_once(self, monkeypatch):
        entries = []
        profile = MaternKernel._profile_in_place

        def counting_profile(kernel, r):
            entries.append(np.size(r))
            return profile(kernel, r)

        monkeypatch.setattr(MaternKernel, "_profile_in_place", counting_profile)
        k = MaternKernel(beta=2.0, dim=1)
        grids = [generate_points(UNIT_INTERVAL, n) for n in (32, 64)]
        nodes = tensor_grid([g.points for g in grids])
        grid_fit([k, k], grids, np.sin(nodes.sum(axis=1)))
        assert sum(entries) <= 32**2 + 64**2


# Block layouts ((beta, dim) per block) with Bessel (integer nu) and
# closed-form (half-integer nu) profiles.
EXPANSION_LAYOUTS = [
    ((2.0, 1),),
    ((2.0, 2),),
    ((2.0, 1), (1.5, 1)),
    ((2.0, 2), (2.5, 2)),
    ((1.5, 1), (2.5, 2), (2.0, 1)),
]


def unit_box(dim):
    return Box((0.0,) * dim, (1.0,) * dim)


def layout_kernel(layout):
    """Tensor kernel of a layout, its blocks on consecutive coordinates."""
    return TensorKernel(kernels=tuple(MaternKernel(beta=beta, dim=dim) for beta, dim in layout))


def merged_sparse_grid(layout, L, resolution, rng):
    """The merged combination of random expansions on the simplex-``L`` grids,
    a surrogate of one expansion.

    Each term lives on the tensor grid of nested ``generate_points``
    prefixes of ``resolution(level)`` points per block, as the engine
    builds them, so the result is one expansion over the sparse grid.
    """
    kernel = layout_kernel(layout)
    boxes = [unit_box(dim) for _, dim in layout]
    terms = []
    for term in combination_coefficients(len(layout), L):
        grids = [generate_points(b, resolution(l)) for b, l in zip(boxes, term.index)]
        nodes = PointSet.product(grids)
        coefficients = rng.standard_normal(len(nodes))
        terms.append((term.coefficient, KernelExpansion(kernel, nodes, coefficients)))
    return Surrogate(terms=tuple(terms))


def plan_entries(expansion):
    return sum(matrix.size for _, matrix, _ in expansion._plan.groups)


class TestKernelExpansionEvaluation:
    @settings(max_examples=80, deadline=None)
    @given(
        layout=st.sampled_from(EXPANSION_LAYOUTS),
        sparse=st.booleans(),
        L=st.integers(0, 3),
        doubling=st.booleans(),
        random_count=st.integers(1, 60),
        point_count=st.integers(1, 40),
        budget=st.sampled_from([surrogate_module._STACK_BLOCK_ENTRIES, 97, 1]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_evaluate_matches_gram_product(
        self, layout, sparse, L, doubling, random_count, point_count, budget, seed
    ):
        rng = np.random.default_rng(seed)
        dim = sum(d for _, d in layout)
        if sparse:
            resolution = doubling_levels if doubling else (lambda l: l + 1)
            surrogate = merged_sparse_grid(layout, len(layout) + L, resolution, rng)
        else:
            nodes = PointSet(rng.random((random_count, dim)), unit_box(dim))
            coefficients = rng.standard_normal(random_count)
            surrogate = Surrogate(
                terms=((1.0, KernelExpansion(layout_kernel(layout), nodes, coefficients)),)
            )
        expansion = expansion_of(surrogate)
        nodes, c = expansion.nodes.points, expansion.coefficients
        # Random points, some nodes (zero block distances) and a repeated row.
        points = np.vstack([rng.random((point_count, dim)), nodes[:3], nodes[:1]])
        with mock.patch.object(surrogate_module, "_STACK_BLOCK_ENTRIES", budget):
            got = surrogate.evaluate(points)
        gram = expansion.kernel.gram(points, nodes)
        bound = 8 * np.finfo(float).eps * (np.abs(gram) @ np.abs(c))
        assert np.all(np.abs(got - gram @ c) <= bound)
        if len(layout) == 1:
            # One block keeps the Gram-vector product, chunk by chunk, bit for bit.
            rows = max(1, budget // len(nodes))
            expected = np.concatenate(
                [gram[start : start + rows] @ c for start in range(0, len(points), rows)]
            )
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dim", [1, 2])
    def test_sparse_grid_plan_pads_nothing(self, dim):
        # nu = 1: grids of half-integer one-dimensional blocks take packets.
        k = MaternKernel(beta=1.0 + dim / 2, dim=dim)
        L = 8
        surrogate = sparse_interpolate([k, k], [unit_box(dim)] * 2, smooth_values, L=L)
        ((_, expansion),) = surrogate.terms
        assert plan_entries(expansion) == len(expansion.nodes)
        assert len(expansion._plan.groups) <= L

    def test_large_sparse_grid_stays_within_block_budget(self, monkeypatch):
        # About 11k nodes: the interp workload's largest surrogate.
        budget = 2**18
        monkeypatch.setattr(surrogate_module, "_STACK_BLOCK_ENTRIES", budget)
        rng = np.random.default_rng(8)
        surrogate = merged_sparse_grid(((2.0, 1), (2.0, 1)), 11, doubling_levels, rng)
        assert len(expansion_of(surrogate).nodes) == 11264
        points = rng.random((2048, 2))
        surrogate.evaluate(points[:1])  # builds the plan
        tracemalloc.start()
        try:
            surrogate.evaluate(points)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        budget_bytes = budget * 8
        # A chunk's block profiles together fill one budget, and a profile
        # under construction holds a few temporaries of its own size; one
        # points x nodes array would take 88 budgets, one unchunked profile 8.
        assert peak <= 3 * budget_bytes

    def test_rejects_coefficients_that_do_not_match_the_nodes(self):
        nodes = uniform_nodes(13)
        kernel = TensorKernel(kernels=(MaternKernel(beta=2.0, dim=1),))
        for coefficients in (np.zeros(12), np.zeros((13, 1))):
            with pytest.raises(ValueError, match=r"13 nodes.*shape \(1[23],"):
                KernelExpansion(kernel, nodes, coefficients)


class TestFitInterpolant:
    def test_zero_values_give_zero_interpolant(self):
        k = MaternKernel(beta=2.0, dim=1)
        nodes = uniform_nodes(9)
        values = np.zeros(9)
        interp = fit_interpolant(k, nodes, values)
        assert np.allclose(expansion_of(interp).coefficients, 0.0)
        assert values @ expansion_of(interp).coefficients == 0.0
        xs = np.linspace(0, 1, 50).reshape(-1, 1)
        assert np.allclose(interp.evaluate(xs), 0.0)

    def test_kernel_translate_gives_unit_vector(self):
        k = MaternKernel(beta=2.0, dim=1)
        nodes = uniform_nodes(10)
        gram = TensorKernel(kernels=(k,)).gram(nodes.points, nodes.points)
        j = 4
        interp = fit_interpolant(k, nodes, gram[:, j])
        expected = np.zeros(10)
        expected[j] = 1.0
        assert np.max(np.abs(expansion_of(interp).coefficients - expected)) <= 1e-8

    def test_sin_l2_error_below_threshold(self):
        k = MaternKernel(beta=2.0, dim=1)
        nodes = uniform_nodes(17)
        f = lambda x: np.sin(2 * np.pi * x[:, 0])
        interp = fit_interpolant(k, nodes, f(nodes.points))
        xs = np.linspace(0, 1, 4001).reshape(-1, 1)
        err = interp.evaluate(xs) - f(xs)
        l2 = math.sqrt(np.trapezoid(err**2, xs[:, 0]))
        assert l2 < 1e-2

    def test_node_residuals(self):
        k = MaternKernel(beta=2.0, dim=2)
        nodes = generate_points(UNIT_SQUARE, 60)
        rng = np.random.default_rng(3)
        values = rng.standard_normal(60)
        interp = fit_interpolant(k, nodes, values)
        residual = interp.evaluate(nodes.points) - values
        assert np.max(np.abs(residual)) <= 1e-8 * np.max(np.abs(values))

    def test_interpolation_at_node_via_call(self):
        k = MaternKernel(beta=2.0, dim=1)
        nodes = uniform_nodes(9)
        values = np.cos(nodes.points[:, 0])
        interp = fit_interpolant(k, nodes, values)
        assert interp(nodes.points[3]) == pytest.approx(
            values[3], rel=1e-8
        )

    @pytest.mark.parametrize(
        "kernel,nodes_builder",
        [
            (MaternKernel(beta=2.0, dim=1), lambda: uniform_nodes(10)),
            (MaternKernel(beta=2.0, dim=2), lambda: generate_points(UNIT_SQUARE, 40)),
        ],
    )
    def test_idempotent_refit(self, kernel, nodes_builder):
        nodes = nodes_builder()
        values = np.exp(nodes.points.sum(axis=1))
        first = fit_interpolant(kernel, nodes, values)
        refit = fit_interpolant(kernel, nodes, first.evaluate(nodes.points))
        assert np.max(np.abs(expansion_of(refit).coefficients - expansion_of(first).coefficients)) <= 1e-8 * max(
            1.0, np.max(np.abs(expansion_of(first).coefficients))
        )

    def test_native_norm_nonnegative(self):
        k = MaternKernel(beta=2.0, dim=1)
        rng = np.random.default_rng(9)
        for trial in range(5):
            nodes = generate_points(UNIT_INTERVAL, 20)
            values = rng.standard_normal(20)
            interp = fit_interpolant(k, nodes, values)
            assert values @ expansion_of(interp).coefficients >= 0.0

    def test_native_space_member_reproduced_exactly(self):
        k = MaternKernel(beta=2.0, dim=1)
        centers = uniform_nodes(7)
        coeffs = np.array([0.5, -1.0, 2.0, 0.3, -0.7, 1.1, -0.2])
        tensor = TensorKernel(kernels=(k,))

        def f(x):
            return tensor.gram(x, centers.points) @ coeffs

        nodes = uniform_nodes(13)  # superset of the 7 centers
        interp = fit_interpolant(k, nodes, f(nodes.points))
        rng = np.random.default_rng(8)
        test = rng.random((100, 1))
        assert np.max(np.abs(interp.evaluate(test) - f(test))) <= 1e-7

    def test_value_count_mismatch(self):
        k = MaternKernel(beta=2.0, dim=1)
        with pytest.raises(ValueError):
            fit_interpolant(k, uniform_nodes(5), np.zeros(4))

    def test_kernel_and_node_dimensions_must_match(self, monkeypatch):
        def no_solve(*args):
            raise AssertionError("solved a system whose kernel misses coordinates")

        monkeypatch.setattr(kernels_module, "_solve_spd", no_solve)
        nodes = generate_points(UNIT_SQUARE, 12)
        k = MaternKernel(beta=2.0, dim=1)
        message = "kernel dimension 1 != node dimension 2"
        with pytest.raises(ValueError, match=message):
            fit_interpolant(k, nodes, np.zeros(12))
        with pytest.raises(ValueError, match=message):
            KernelExpansion(TensorKernel(kernels=(k,)), nodes, np.zeros(12))
        with pytest.raises(ValueError, match=message):
            quadrature_weights(k, nodes)

    def test_extrapolation_is_refused(self):
        k = MaternKernel(beta=2.0, dim=1)
        interp = fit_interpolant(k, uniform_nodes(5), np.ones(5))
        with pytest.raises(ValueError, match=r"point 1, \[1\.5\], lies outside its domain"):
            interp.evaluate(np.array([[0.5], [1.5], [-0.5]]))

    def test_single_factor_convergence_order(self):
        k = MaternKernel(beta=2.0, dim=1)
        xs = np.linspace(0, 1, 8193).reshape(-1, 1)
        fx = sobolev_series(xs)
        counts, errors = [9, 17, 33, 65, 129], []
        for count in counts:
            nodes = generate_points(UNIT_INTERVAL, count)
            interp = fit_interpolant(k, nodes, sobolev_series(nodes.points))
            diff = interp.evaluate(xs) - fx
            errors.append(math.sqrt(np.trapezoid(diff**2, xs[:, 0])))
        slope = np.polyfit(np.log(counts), np.log(errors), 1)[0]
        assert abs(slope - (-2.0)) <= 0.4

    def test_cholesky_jitter_stays_small_at_desk_scale(self):
        # Representative configurations actually exercised by the pipelines.
        cases = [
            (MaternKernel(beta=1.0, dim=1), generate_points(UNIT_INTERVAL, 512)),
            (MaternKernel(beta=2.0, dim=1), generate_points(UNIT_INTERVAL, 200)),
            (MaternKernel(beta=2.0, dim=2), generate_points(UNIT_SQUARE, 400)),
            (
                MaternKernel(beta=4.0, dim=2),
                generate_points(Disc(center=(0.0, 0.0), radius=1.0), 64),
            ),
        ]
        for kernel, nodes in cases:
            assert nodes.min_separation >= 1e-3
            tensor = TensorKernel(kernels=(kernel,))
            gram = tensor.gram(nodes.points, nodes.points)
            bound = 1e-8 * np.trace(gram) / len(nodes)
            np.linalg.cholesky(gram + bound * np.eye(len(nodes)))


def shifted_solve_reference(gram, rhs, failures):
    """Factor ``gram + jitter I`` out of place after ``failures`` shift raises."""
    jitter = kernels_module._JITTER_START * np.trace(gram) / len(gram)
    for _ in range(failures):
        jitter *= 10.0
    factor = cho_factor(gram + jitter * np.eye(len(gram)), lower=True)
    solution = cho_solve(factor, rhs)
    scale = np.max(np.abs(rhs))
    for _ in range(kernels_module._REFINEMENT_PASSES):
        residual = rhs - gram @ solution
        if np.max(np.abs(residual)) <= kernels_module._RESIDUAL_TARGET * scale:
            break
        solution = solution + cho_solve(factor, residual)
    return solution


def pair_bytes(count):
    """Bytes of a dense entry: the Gram matrix and its Cholesky factor."""
    return 2 * 8 * count**2


def decomposition_bytes(count):
    """Bytes of a grid-factor entry: the Gram matrix and its eigendecomposition."""
    return 8 * (2 * count**2 + count)


def packet_bytes(count, m=1):
    """Bytes of a packet grid-factor entry: the sort order, the sorted
    points, ``Phi^T`` by its ``2w + 1`` diagonals, the levels of its
    inverse (:func:`inverse_entries`) and ``cond(Phi)``, with ``w = m``;
    beside them, from ``2m + 3`` points on, the packets' starts and
    coefficients, and each interval's first packet, first point and table
    (:func:`packets._packet_basis`).  Below ``2m + 3`` points ``Phi^T`` is
    the Gram matrix, ``w = count - 1``."""
    w = m if count >= 2 * m + 3 else count - 1
    size = 2 * count + count * (2 * w + 1) + inverse_entries(count, w) + 1
    if count >= 2 * m + 3:
        intervals = count - 1
        size += count * (2 * m + 4) + intervals * (2 + (2 * m + 2) * (8 * m + 8))
    return 8 * size


def inverse_entries(count, w):
    """Entries of the levels of :func:`kernels._band_factor`'s inverse of a
    ``count``-row band of half-width ``w``: per level, its blocks'
    inverses and, below the last, spikes of ``2w`` columns.  The first
    level has blocks of at most ``_BAND_ROWS`` rows (one row at ``w = 0``);
    each next one has ``2w`` rows per block below, at most
    ``_BAND_BLOCK_MAX`` rows a block, and the last has one block."""
    per, rows, entries = kernels_module._BAND_ROWS if w else 1, 1, 0
    while True:
        blocks = -(-count // per)
        size = -(-count // blocks) * rows
        entries += blocks * size * size
        if blocks == 1 or w == 0:
            return entries
        entries += blocks * size * 2 * w
        count, per, rows = blocks, kernels_module._BAND_BLOCK_MAX // (2 * w), 2 * w


def counting(monkeypatch, owner, name, calls, record=len):
    """Wrap ``owner.name`` so that each call appends ``record(first argument)``."""
    original = getattr(owner, name)

    def counted(a, *args, **kwargs):
        calls.append(record(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def fresh_cache(monkeypatch):
    """Put an empty factor cache of the library's bound in place of the shared one."""
    cache = kernels_module._FactoredGrams(limit=kernels_module._FACTORED_GRAM_BYTES)
    monkeypatch.setattr(kernels_module, "_FACTORED_GRAMS", cache)
    return cache


@pytest.fixture
def fresh_factored_grams(monkeypatch):
    return fresh_cache(monkeypatch)


class TestSolveSpd:
    def test_dense_fit_above_the_node_bound_builds_no_gram(self, monkeypatch):
        def no_gram(*args):
            raise AssertionError("built the Gram matrix of a dense fit above the bound")

        monkeypatch.setattr(MaternKernel, "gram", no_gram)
        count = kernels_module._DENSE_FIT_NODES_MAX + 1
        assert count == 8193
        nodes = uniform_nodes(count)
        with pytest.raises(LinAlgError, match="8193 nodes exceeds the bound of 8192 nodes"):
            fit_interpolant(MaternKernel(beta=1.0, dim=1), nodes, np.zeros(count))

    @pytest.mark.parametrize("failures", [0, 2])
    def test_in_place_shift_matches_out_of_place(
        self, monkeypatch, failures, fresh_factored_grams
    ):
        factor = lapack_module.dpotrf
        calls = []

        def failing_first(a, **kwargs):
            calls.append(a)
            if len(calls) <= failures:
                a[...] = np.nan  # a failed in-place factorization leaves garbage
                return a, 1  # LAPACK's info: the first leading minor failed
            return factor(a, **kwargs)

        monkeypatch.setattr(lapack_module, "dpotrf", failing_first)
        kernel = TensorKernel(kernels=(MaternKernel(beta=2.0, dim=2),))
        nodes = generate_points(UNIT_SQUARE, 60)
        rhs = np.random.default_rng(3).standard_normal(60)
        solution = kernels_module._solve_spd(kernel, nodes, rhs)
        assert len(calls) == failures + 1
        # Refinement against a scribbled Gram matrix would not reproduce this.
        gram = kernel.gram(nodes.points, nodes.points)
        expected = shifted_solve_reference(gram, rhs, failures)
        assert solution.tobytes() == expected.tobytes()

    def test_fits_on_one_node_set_factor_once(self, monkeypatch, fresh_factored_grams):
        factored = []
        counting(monkeypatch, lapack_module, "dpotrf", factored)
        kernel = MaternKernel(beta=4.0, dim=2)
        nodes = generate_points(Disc(center=(0.0, 0.0), radius=1.0), 40)
        rng = np.random.default_rng(7)
        values = [rng.standard_normal(40) for _ in range(4)]
        # A point set equal to the nodes, not the same object, shares them.
        again = PointSet(points=nodes.points.copy(), domain=nodes.domain)
        fits = [fit_interpolant(kernel, n, v) for n, v in zip([nodes, again] * 2, values)]
        assert factored == [40]
        fit_interpolant(MaternKernel(beta=3.0, dim=2), nodes, values[0])
        assert factored == [40, 40]
        for fit, v in zip(fits, values):
            fresh_cache(monkeypatch)
            fresh = fit_interpolant(kernel, nodes, v)
            assert expansion_of(fit).coefficients.tobytes() == expansion_of(fresh).coefficients.tobytes()

    def test_a_gram_matrix_with_a_nan_entry_is_a_conditioning_error(
        self, monkeypatch, fresh_factored_grams
    ):
        # LAPACK's dpotrf is given no finiteness check; the refinement's
        # residual test, written so that NaN fails it, catches the entry.
        gram = TensorKernel.gram

        def poisoned(self, x, y):
            out = gram(self, x, y)
            if x is y:  # the Gram matrix of the nodes
                out[0, 1] = out[1, 0] = np.nan
            return out

        monkeypatch.setattr(TensorKernel, "gram", poisoned)
        nodes = generate_points(UNIT_SQUARE, 30)
        with pytest.raises(ConditioningError, match="node residual above tolerance"):
            fit_interpolant(MaternKernel(beta=2.0, dim=2), nodes, smooth_values(nodes.points))

    @staticmethod
    def counted(calls, name, function):
        def wrapped(vector):
            calls.append(name)
            return function(vector)

        return wrapped

    def test_refinement_converged_at_once_applies_once(self):
        calls = []
        rhs = np.array([1.0, -3.0, 0.5])
        solution = kernels_module._refine(
            self.counted(calls, "solve", lambda r: r / 2.0),
            self.counted(calls, "apply", lambda x: 2.0 * x),
            rhs,
            generate_points(UNIT_SQUARE, 3),
        )
        # The residual of the first solve is zero; it is also the final check.
        assert calls == ["solve", "apply"]
        assert solution.tolist() == [0.5, -1.5, 0.25]

    def test_stalled_refinement_returns_the_better_iterate(self):
        # The first solve is 1e-10 off; the pass after it is worse, so
        # refinement stops there and keeps the first solve.
        calls = []
        errors = iter([1e-10, 1e-9])

        def solve(r):
            return r / 2.0 + np.array([next(errors), 0.0, 0.0])

        rhs = np.array([1.0, -3.0, 0.5])
        solution = kernels_module._refine(
            self.counted(calls, "solve", solve),
            self.counted(calls, "apply", lambda x: 2.0 * x),
            rhs,
            generate_points(UNIT_SQUARE, 3),
        )
        assert calls == ["solve", "apply"] * 2
        assert solution.tobytes() == (rhs / 2.0 + np.array([1e-10, 0.0, 0.0])).tobytes()

    def test_refinement_that_stops_halving_keeps_its_last_gain(self):
        # Each pass shrinks the residual by 0.6: the first pass is kept, and
        # refinement stops after it.
        calls = []
        rhs = np.array([1.0, -3.0, 0.5]) * 1e-9
        rhs[0] = 1.0
        solution = kernels_module._refine(
            self.counted(calls, "solve", lambda r: r / 2.0 * np.array([1.0, 1.6, 1.0])),
            self.counted(calls, "apply", lambda x: 2.0 * x),
            rhs,
            generate_points(UNIT_SQUARE, 3),
        )
        assert calls == ["solve", "apply"] * 2
        assert np.abs(2.0 * solution[1] - rhs[1]) == pytest.approx(0.36 * 3e-9, rel=1e-6)

    @pytest.mark.parametrize("gain", [0.7, np.nan])
    def test_refinement_short_of_the_required_residual_raises(self, gain):
        # Each pass shrinks the residual by 0.7, or the solve gives no
        # number at all: neither reaches 1e-8.
        with pytest.raises(ConditioningError, match="node residual"):
            kernels_module._refine(
                lambda r: r / 2.0 * (1.0 + gain),
                lambda x: 2.0 * x,
                np.array([1.0, -3.0, 0.5]),
                generate_points(UNIT_SQUARE, 3),
            )

    def test_converged_fit_applies_the_gram_once_per_solve(
        self, monkeypatch, fresh_factored_grams
    ):
        calls = []
        refine = kernels_module._refine

        def counted_refine(solve, apply, rhs, nodes):
            solve = self.counted(calls, "solve", solve)
            return refine(solve, self.counted(calls, "apply", apply), rhs, nodes)

        monkeypatch.setattr(kernels_module, "_refine", counted_refine)
        nodes = generate_points(UNIT_SQUARE, 20)
        fit_interpolant(MaternKernel(beta=2.0, dim=2), nodes, smooth_values(nodes.points))
        # The loop broke on a small residual, which is not computed again.
        assert calls.count("solve") <= kernels_module._REFINEMENT_PASSES
        assert calls.count("apply") == calls.count("solve")

    def test_factor_cache_keeps_recent_node_sets_within_its_bound(
        self, monkeypatch, fresh_factored_grams
    ):
        cache = kernels_module._FACTORED_GRAMS
        monkeypatch.setattr(cache, "limit", 3 * pair_bytes(20))
        factored = []
        counting(monkeypatch, lapack_module, "dpotrf", factored)
        kernel = MaternKernel(beta=2.0, dim=2)
        for count in (20, 19, 18, 20, 17, 19, 40, 20):
            nodes = generate_points(UNIT_SQUARE, count)
            fit_interpolant(kernel, nodes, smooth_values(nodes.points))
            assert cache.nbytes <= cache.limit
        # 17 dropped 19, the least recently used; 19 then dropped 18; the
        # 40-node pair is larger than the bound, so it dropped nothing.
        assert factored == [20, 19, 18, 17, 19, 40]
        assert len(cache._entries) == 3
        assert cache.nbytes == sum(map(pair_bytes, (20, 17, 19)))


def block_grid(layout, counts):
    """Tensor kernel of a layout and the product grid of its factors' points."""
    grids = [generate_points(unit_box(dim), n) for (_, dim), n in zip(layout, counts)]
    return layout_kernel(layout), PointSet.product(grids)


def smooth_values(points):
    return np.cos(points @ np.linspace(1.0, 2.5, points.shape[1])) + points[:, 0]


class TestKroneckerSolve:
    # (beta, dim) per factor: nu = beta - dim/2 is half-integer for (2.0, 1),
    # (2.5, 2) and (3.0, 1), integer for (1.5, 1) and (2.0, 2).  Grids of
    # one-dimensional half-integer blocks alone, like the last, are fitted
    # in the kernel-packet basis (TestPacketInverse), so the
    # eigendecomposition tests below use integer orders.  The last grid's
    # smallest product eigenvalues lie far below the diagonal shift, so its
    # packet fit is checked against a 50-digit solve: off-node, the shifted
    # dense solve lies 4.1e-9 from that.
    @pytest.mark.parametrize(
        "layout,counts",
        [
            (((2.0, 1), (1.5, 1)), (24, 16)),
            (((2.0, 2), (2.0, 1)), (20, 12)),
            (((1.5, 1), (2.5, 2), (2.0, 1)), (6, 9, 7)),
            (((3.0, 1), (2.0, 1)), (64, 6)),
        ],
    )
    def test_matches_dense_solve(self, monkeypatch, layout, counts):
        kernel, nodes = block_grid(layout, counts)
        rhs = smooth_values(nodes.points)
        gram = kernel.gram(nodes.points, nodes.points)
        dense = shifted_solve_reference(gram, rhs, 0)

        def no_dense(*args, **kwargs):
            raise AssertionError("tensor grid took the dense Cholesky path")

        def no_eigh(gram):
            raise AssertionError("a grid of half-integer factors was eigendecomposed")

        monkeypatch.setattr(lapack_module, "dpotrf", no_dense)
        packets = all(kernels_module._packet_order(block) is not None for block in kernel.kernels)
        scale = np.max(np.abs(rhs))
        dense_residual = np.max(np.abs(gram @ dense - rhs))
        off_node = np.random.default_rng(5).random((300, nodes.dim))
        if packets:
            monkeypatch.setattr(np.linalg, "eigh", no_eigh)
            fit = fit_interpolant(kernel, nodes, rhs)
            residual = np.max(np.abs(fit.evaluate(nodes.points) - rhs))
            factors = kernel.grid_factors(nodes)
            exact = mp_interpolant(kernel.kernels, factors, rhs, off_node)
            error = np.max(np.abs(fit.evaluate(off_node) - exact))
        else:
            solution = kernels_module._solve_spd(kernel, nodes, rhs)
            residual = np.max(np.abs(gram @ solution - rhs))
            between = kernel.gram(off_node, nodes.points)
            error = np.max(np.abs(between @ (solution - dense)))
        assert residual <= 10.0 * dense_residual + 1e-12 * scale
        assert error <= 1e-9 * scale

    def test_singular_factor_raises(self):
        # Two points of the first factor are 1e-13 apart: its Gram matrix is
        # numerically singular and the values differ there.
        kernel = TensorKernel(
            kernels=(MaternKernel(beta=2.0, dim=1), MaternKernel(beta=1.5, dim=1))
        )
        first = PointSet(
            points=np.array([[0.0], [0.5], [0.5 + 1e-13], [1.0]]), domain=UNIT_INTERVAL
        )
        grids = [first, generate_points(UNIT_INTERVAL, 3)]
        values = np.random.default_rng(1).standard_normal(12)
        with pytest.raises(ConditioningError, match="node residual") as caught:
            grid_fit(kernel.kernels, grids, values)
        assert caught.value.node_count == 12

    def test_spectrum_not_positive_at_largest_shift_raises(
        self, monkeypatch, fresh_factored_grams
    ):
        eigh = np.linalg.eigh

        def negative_first(gram):
            eigenvalues, eigenvectors = eigh(gram)
            eigenvalues[0] = -1e-3 * eigenvalues[-1]
            return eigenvalues, eigenvectors

        monkeypatch.setattr(np.linalg, "eigh", negative_first)
        kernel, nodes = block_grid(((1.5, 1), (1.5, 1)), (5, 4))
        with pytest.raises(ConditioningError, match="maximum diagonal shift"):
            fit_interpolant(kernel, nodes, smooth_values(nodes.points))

    def test_single_factor_keeps_dense_cholesky(self, monkeypatch):
        def no_eigh(gram):
            raise AssertionError("single factor took the Kronecker path")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        k = MaternKernel(beta=2.0, dim=1)
        grid = generate_points(UNIT_INTERVAL, 33)
        fit = grid_fit([k], [grid], np.sin(grid.points[:, 0]))
        residual = fit.evaluate(grid.points) - np.sin(grid.points[:, 0])
        assert np.max(np.abs(residual)) <= 1e-8

    def test_fits_decompose_each_factor_once(self, monkeypatch, fresh_factored_grams):
        decomposed = []
        counting(monkeypatch, np.linalg, "eigh", decomposed)
        k = MaternKernel(beta=1.5, dim=1)
        sets = {n: generate_points(UNIT_INTERVAL, n) for n in (4, 8, 16)}
        pairs = [(4, 8), (8, 4), (16, 16), (8, 16), (4, 4), (16, 8)]

        def fit_all():
            fits = []
            for a, b in pairs:
                nodes = tensor_grid([sets[a].points, sets[b].points])
                fits.append(
                    grid_fit(
                        [k, k], [sets[a], sets[b]], smooth_values(nodes)
                    )
                )
            return [expansion_of(fit).coefficients for fit in fits]

        first, again = fit_all(), fit_all()
        assert sorted(decomposed) == [4, 8, 16]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(first, again))

    def test_decomposition_memo_stays_bounded(self, monkeypatch, fresh_factored_grams):
        cache = kernels_module._FACTORED_GRAMS
        monkeypatch.setattr(cache, "limit", 8 * decomposition_bytes(12))
        k = MaternKernel(beta=1.5, dim=1)
        second = generate_points(UNIT_INTERVAL, 2)
        counts = range(2, 22)
        for count in counts:
            first = generate_points(UNIT_INTERVAL, count)
            nodes = tensor_grid([first.points, second.points])
            grid_fit([k, k], [first, second], smooth_values(nodes))
            assert cache.nbytes <= cache.limit
        # The second factor is used by every fit; of the first factors, the
        # most recent that fit beside it are kept.
        kept = [2]
        for count in reversed(counts):
            if sum(map(decomposition_bytes, [*kept, count])) > cache.limit:
                break
            kept.append(count)
        assert 2 < len(kept) < len(counts)
        assert len(cache._entries) == len(kept)
        assert cache.nbytes == sum(map(decomposition_bytes, kept))

    def test_decomposition_memo_drops_least_recently_used(
        self, monkeypatch, fresh_factored_grams
    ):
        # One entry per block kernel, each of the same size.
        grid = generate_points(UNIT_INTERVAL, 6)
        cache = kernels_module._FACTORED_GRAMS
        monkeypatch.setattr(cache, "limit", 4 * decomposition_bytes(6))
        decomposed = []
        counting(
            monkeypatch,
            kernels_module,
            "_decompose_factor",
            decomposed,
            lambda k: k.length_scale,
        )
        values = smooth_values(tensor_grid([grid.points, grid.points]))

        def fit(scale):
            k = MaternKernel(beta=1.5, dim=1, length_scale=scale)
            grid_fit([k, k], [grid, grid], values)

        scales = [1.0, 0.8, 0.6, 0.4]
        for scale in scales:
            fit(scale)
        assert decomposed == scales
        fit(1.0)  # the oldest entry becomes the newest
        fit(0.2)  # drops the least recently used entry, scale 0.8
        fit(1.0)
        fit(0.8)
        assert decomposed[4:] == [0.2, 0.8]
        assert cache.nbytes == cache.limit

    def test_dense_pairs_and_grid_factors_share_one_budget(
        self, monkeypatch, fresh_factored_grams
    ):
        cache = kernels_module._FACTORED_GRAMS
        limit = pair_bytes(20) + decomposition_bytes(8) + decomposition_bytes(6)
        monkeypatch.setattr(cache, "limit", limit)
        factored, decomposed = [], []
        counting(monkeypatch, lapack_module, "dpotrf", factored)
        counting(monkeypatch, np.linalg, "eigh", decomposed)
        dense = generate_points(UNIT_SQUARE, 20)
        k = MaternKernel(beta=1.5, dim=1)
        grids = {n: generate_points(UNIT_INTERVAL, n) for n in (5, 6, 8)}

        def fit_dense():
            fit_interpolant(MaternKernel(beta=2.0, dim=2), dense, smooth_values(dense.points))

        def fit_grid(a, b):
            nodes = tensor_grid([grids[a].points, grids[b].points])
            grid_fit([k, k], [grids[a], grids[b]], smooth_values(nodes))

        fit_dense()
        fit_grid(8, 6)
        assert cache.nbytes == limit  # the pair and both factors, in one budget
        fit_dense()  # kept: the pair becomes the newest entry
        fit_grid(5, 6)  # the 5-point factor drops the least recently used, 8
        assert cache.nbytes == limit - decomposition_bytes(8) + decomposition_bytes(5)
        fit_dense()  # the recently used pair was kept
        fit_grid(8, 6)  # 8 drops 5, now the least recently used
        assert factored == [20]
        assert decomposed == [8, 6, 5, 8]
        assert len(cache._entries) == 3
        assert cache.nbytes == limit

    def test_failed_decomposition_leaves_factor_computable(
        self, monkeypatch, fresh_factored_grams
    ):
        eigh = np.linalg.eigh
        outcomes = [np.linalg.LinAlgError("eigh did not converge")]

        def failing_once(gram):
            if outcomes:
                raise outcomes.pop()
            return eigh(gram)

        monkeypatch.setattr(np.linalg, "eigh", failing_once)
        kernel, nodes = block_grid(((2.0, 1), (1.5, 1)), (6, 5))
        values = smooth_values(nodes.points)
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            fit_interpolant(kernel, nodes, values)
        assert len(fresh_factored_grams._entries) == 0
        fit = fit_interpolant(kernel, nodes, values)
        assert len(fresh_factored_grams._entries) == 2
        assert np.max(np.abs(fit.evaluate(nodes.points) - values)) <= 1e-8

    def test_split_nodes_skips_the_search_for_one_block(self, monkeypatch):
        nodes = generate_points(UNIT_SQUARE, 40)
        one = TensorKernel(kernels=(MaternKernel(beta=2.0, dim=2),))

        def no_search(points):
            raise AssertionError("distinct rows searched for a point set")

        monkeypatch.setattr(kernels_module, "distinct_rows", no_search)
        ((rows, slot),) = one.split_nodes(nodes)
        assert slot.tolist() == list(range(40))
        assert rows.tobytes() == nodes.points.tobytes()

    def test_product_grid_fit_takes_no_search(self):
        layout = ((2.0, 1), (2.0, 2), (1.5, 1))
        grids = [generate_points(unit_box(d), n) for (_, d), n in zip(layout, (5, 7, 1))]
        grid = PointSet.product(grids)
        plain = PointSet(points=grid.points, domain=grid.domain)
        values = smooth_values(grid.points)
        kernel = layout_kernel(layout)
        dense = fit_interpolant(kernel, plain, values)

        def no_search(points):
            raise AssertionError("distinct rows searched for a product grid")

        with mock.patch.object(kernels_module, "distinct_rows", no_search):
            fit = grid_fit([MaternKernel(b, d) for b, d in layout], grids, values)
        scale = np.max(np.abs(values))
        off_node = np.random.default_rng(5).random((300, grid.dim))
        between = kernel.gram(off_node, grid.points)
        assert np.max(np.abs(between @ (expansion_of(fit).coefficients - expansion_of(dense).coefficients))) <= (
            1e-9 * scale
        )

    def test_grid_factors_need_a_product_grid_of_the_blocks(self):
        grids = [generate_points(unit_box(d), n) for d, n in ((1, 4), (2, 6))]
        grid = PointSet.product(grids)
        matching = layout_kernel([(2.0, 1), (2.0, 2)])
        factors = matching.grid_factors(grid)
        assert [f.tobytes() for f in factors] == [g.points.tobytes() for g in grids]
        # The same points without their factors, blocks that cut the factors
        # differently, and a single factor have no Kronecker structure.
        for kernel, nodes in [
            (matching, PointSet(points=grid.points, domain=grid.domain)),
            (layout_kernel([(2.0, 2), (2.0, 1)]), grid),
            (layout_kernel([(2.0, 1), (2.0, 1), (2.0, 1)]), grid),
            (layout_kernel([(2.0, 2)]), PointSet.product(grids[1:])),
        ]:
            assert kernel.grid_factors(nodes) is None

    @pytest.mark.parametrize("shape", [(3, 5), (1, 4), (4, 2, 3), (2, 1, 5)])
    def test_kron_apply_is_the_tensordot_product(self, shape):
        rng = np.random.default_rng(len(shape))
        # Eigenvector transposes, which the solve applies, are Fortran-ordered.
        matrices = [rng.standard_normal((n, n)).T for n in shape]
        x = rng.standard_normal(shape)
        result = kernels_module._kron_apply([matrix.dot for matrix in matrices], x)
        expected = reduce(np.kron, matrices) @ x.ravel()
        assert np.allclose(result.ravel(), expected, rtol=1e-13, atol=1e-13)
        reference = x
        for axis, matrix in enumerate(matrices):
            reference = np.moveaxis(np.tensordot(matrix, reference, axes=(1, axis)), 0, axis)
        assert result.shape == shape
        assert result.tobytes() == reference.tobytes()


def mp_gram(kernel, x, y=None):
    """The Gram matrix of a one-dimensional half-integer Matern kernel
    between the points ``x`` and ``y`` (default ``x``), as rows of mpmath
    numbers at the working precision."""
    mpmath = pytest.importorskip("mpmath")
    m = kernels_module._packet_order(kernel)
    beta = mpmath.mpf(kernel.beta)
    scale = mpmath.mpf(2) ** (1 - beta) / mpmath.gamma(beta) * mpmath.sqrt(mpmath.pi / 2)
    # Highest power first: r**nu K_nu(r) is exp(-r) times this polynomial.
    coefficients = [
        mpmath.factorial(m + k) / (mpmath.factorial(k) * mpmath.factorial(m - k) * 2**k)
        for k in range(m + 1)
    ]
    u, v = (
        [mpmath.mpf(float(t)) / kernel.length_scale for t in points]
        for points in (x, x if y is None else y)
    )
    return [
        [scale * mpmath.exp(-abs(a - b)) * mpmath.polyval(coefficients, abs(a - b)) for b in v]
        for a in u
    ]


def mp_end_packets(kernel, x, t):
    """The first and last ``m + 1`` kernel packets on the sorted points
    ``x`` (:func:`packets._packet_coefficients`) at 50 digits, rounded to
    floats: ``(coefficients, values)``, ``coefficients[i]`` packet ``i``'s
    weights of its ``m + 2`` own points and ``values[i]`` its values at
    ``t``, by the sum of its weighted kernel translates (:func:`mp_gram`).
    A one-sided packet's weights are ``exp(-|u_j - u_i|)`` times the
    divided-difference weights of order ``m + 1`` over its own points
    ``u_j`` in length scales, ``u_i`` its own point, the first of them at
    the first end and the last at the last."""
    mpmath = pytest.importorskip("mpmath")
    m, n = kernels_module._packet_order(kernel), len(x)
    packets = [*range(m + 1), *range(n - m - 1, n)]
    coefficients, values = np.zeros((len(packets), m + 2)), np.zeros((len(packets), len(t)))
    with mpmath.workdps(50):
        u = [mpmath.mpf(float(s)) / kernel.length_scale for s in x]
        gram = mp_gram(kernel, t, x)
        for row, i in enumerate(packets):
            start = i if i < m + 1 else i - m - 1
            own = u[start : start + m + 2]
            z = [(s - own[0]) / (own[-1] - own[0]) for s in own]
            weights = [
                mpmath.exp(-abs(s - u[i])) / mpmath.fprod(z[j] - z[k] for k in range(m + 2) if k != j)
                for j, s in enumerate(own)
            ]
            coefficients[row] = [float(w) for w in weights]
            for p, kernel_row in enumerate(gram):
                values[row, p] = float(mpmath.fdot(weights, kernel_row[start : start + m + 2]))
    return coefficients, values


def mp_inverse_columns(gram, columns):
    """Columns of the inverse of an SPD mpmath matrix, by a dense Cholesky
    factorization and solve at the working precision, as a list of columns
    of mpmath numbers."""
    mpmath = pytest.importorskip("mpmath")
    n = len(gram)
    lower = [[mpmath.mpf(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            rest = gram[i][j] - mpmath.fdot(lower[i][:j], lower[j][:j])
            lower[i][j] = mpmath.sqrt(rest) if i == j else rest / lower[j][j]
    upper = [list(column) for column in zip(*lower)]
    solved = []
    for c in columns:
        y = []
        for i in range(n):
            y.append((int(i == c) - mpmath.fdot(lower[i][:i], y)) / lower[i][i])
        x = [mpmath.mpf(0)] * n
        for i in reversed(range(n)):
            x[i] = (y[i] - mpmath.fdot(upper[i][i + 1 :], x[i + 1 :])) / lower[i][i]
        solved.append(x)
    return solved


def mp_interpolant(kernels, factors, rhs, points):
    """The exact interpolant of ``rhs`` on the tensor grid of ``factors``
    (one-dimensional point columns) under the half-integer Matern
    ``kernels``, at ``points``: a 50-digit Kronecker solve, contracted with
    the 50-digit kernel values one block at a time, rounded to floats."""
    mpmath = pytest.importorskip("mpmath")
    shape = tuple(map(len, factors))
    as_mp = np.vectorize(mpmath.mpf, otypes=[object])
    with mpmath.workdps(50):
        exact = as_mp(rhs).reshape(shape)
        for axis, (block, rows) in enumerate(zip(kernels, factors)):
            columns = mp_inverse_columns(mp_gram(block, rows[:, 0]), range(len(rows)))
            inverse = np.array(columns, dtype=object).T
            exact = np.moveaxis(np.tensordot(inverse, exact, axes=(1, axis)), 0, axis)
        # (points or 1, n_j, rest)
        contracted = exact.reshape(1, *shape)
        for axis, (block, rows) in enumerate(zip(kernels, factors)):
            profile = np.array(mp_gram(block, points[:, axis], rows[:, 0]), dtype=object)
            rest = contracted.reshape(len(contracted), len(rows), -1)
            contracted = (profile[:, :, None] * rest).sum(axis=1)
        return np.array([float(value) for value in contracted[:, 0]])


def packet_interpolant(kernel, rows, values, points):
    """The one-factor interpolant of ``values`` in the factor's basis
    (:func:`kernels._packet_factor`) at ``points``: ``phi(t)^T Phi^-T y``,
    one solve by the banded inverse, unrefined."""
    order, basis, _, inverse, _ = kernels_module._packet_factor(kernel, rows)
    weights = kernels_module._band_solve(inverse, values[order][:, None])[:, 0]
    first, found = basis.values(points)
    return np.sum(found * weights[first[:, None] + np.arange(found.shape[1])], axis=1)


def band_matrix(band):
    """The dense matrix of a band: entry ``(i, i - w + t)`` is ``band[i, t]``."""
    n, width = band.shape
    w = width // 2
    dense = np.zeros((n, n + 2 * w))
    for i in range(n):
        dense[i, i : i + width] = band[i]
    return dense[:, w : w + n]


def lapack_band_lu(band):
    """scipy's ``dgbtrf`` of the matrix of a band (:func:`band_matrix`), in
    LAPACK's band storage: ``(lu, pivots, w)``."""
    n, width = band.shape
    w = width // 2
    storage = np.zeros((3 * w + 1, n))
    i, t = np.indices(band.shape)
    j = i - w + t
    kept = (j >= 0) & (j < n)
    storage[2 * w + i[kept] - j[kept], j[kept]] = band[kept]
    lu, pivots, info = dgbtrf(storage, w, w)
    assert info == 0
    return lu, pivots, w


# The factors of the interp benchmark (2 to 1,024 points) and the sizes
# around the packet window and the band inverse's block sizes.
PACKET_FACTOR_COUNTS = [2, 3, 4, 5, 6, 7, 16, 17, 33, 64, 100, 256, 1024]


class TestBandInverse:
    # kernels._band_factor and _band_solve against scipy's banded LU
    # (dgbtrf, dgbtrs), a test-only reference, on the packet factors of
    # Halton points at nu = 1/2, 3/2 and 5/2.
    @pytest.mark.parametrize("beta", [1.0, 2.0, 3.0], ids=["nu=1/2", "nu=3/2", "nu=5/2"])
    def test_solves_match_lapack_banded_lu(self, beta):
        kernel = MaternKernel(beta=beta, dim=1)
        swapped = 0
        for count in PACKET_FACTOR_COUNTS:
            rows = generate_points(UNIT_INTERVAL, count).points
            _, basis, phi, inverse, condition = kernels_module._packet_factor(kernel, rows)
            lu, pivots, w = lapack_band_lu(phi)
            swapped += np.any(pivots != np.arange(count))
            x = np.random.default_rng(count).standard_normal((count, 3))
            # Largest seen on packet factors: 6.6e-16 relative.  Below the
            # packet window Phi is the Gram matrix, whose cond(Phi) reaches
            # 1.8e6 at nu = 5/2 (6 points); there two solves agree to
            # cond(Phi) eps, and the largest seen was 0.05 cond(Phi) eps.
            bound = 1e-13 if basis.packets else max(1e-13, condition * np.finfo(float).eps)
            for transpose in (False, True):
                expected, info = dgbtrs(lu, w, w, x, pivots, trans=int(transpose))
                assert info == 0
                got = kernels_module._band_solve(inverse, x, transpose)
                error = np.max(np.abs(got - expected)) / np.max(np.abs(expected))
                assert error <= bound, f"{count} points, transpose {transpose}: {error:.2e}"
        if beta > 1.0:
            # dgbtrf swaps rows on some of these factors; the blocks of the
            # numpy inverse are pivoted within themselves only.
            assert swapped

    @pytest.mark.parametrize("beta", [1.0, 2.0, 3.0], ids=["nu=1/2", "nu=3/2", "nu=5/2"])
    def test_condition_is_within_three_times_the_exact(self, beta):
        kernel = MaternKernel(beta=beta, dim=1)
        for count in PACKET_FACTOR_COUNTS:
            rows = generate_points(UNIT_INTERVAL, count).points
            _, _, phi, _, condition = kernels_module._packet_factor(kernel, rows)
            exact = np.linalg.cond(band_matrix(phi).T, 1)
            # A lower estimate; every one seen was exact to 1e-12 relative.
            assert exact / 3 <= condition <= exact * (1 + 1e-9), (count, condition, exact)

    def test_near_coincident_factor_trips_the_condition_gate(self):
        # 100 Halton points and one 1e-9 from the middle one: the inverse
        # takes several levels, whose norm is estimated, and cond(Phi) eps
        # lies far above the required residual.
        kernel = MaternKernel(beta=2.0, dim=1)
        halton = generate_points(UNIT_INTERVAL, 100).points
        rows = np.vstack([halton, [[0.5 + 1e-9]]])
        _, _, phi, inverse, condition = kernels_module._packet_factor(kernel, rows)
        assert len(inverse) > 1
        assert condition * np.finfo(float).eps > kernels_module._RESIDUAL_REQUIRED
        exact = np.linalg.cond(band_matrix(phi).T, 1)
        assert exact / 3 <= condition <= exact * (1 + 1e-9)

    @pytest.mark.parametrize("count", [1, 2, 17, 33, 64, 1000, 1024])
    @pytest.mark.parametrize("w", [0, 1, 2, 5])
    def test_general_band_solves_match_a_dense_solve(self, count, w):
        # Random bands with a heavy diagonal: from one level to four (w =
        # 5, 1,000 rows), with padded blocks.
        rng = np.random.default_rng(count * 7 + w)
        band = rng.standard_normal((count, 2 * w + 1))
        band[:, w] += 2.0 * w + 2.0
        i, t = np.indices(band.shape)
        band[(i - w + t < 0) | (i - w + t >= count)] = 0.0
        inverse = kernels_module._band_factor(band)
        dense = band_matrix(band)
        x = rng.standard_normal((count, 2))
        for transpose in (False, True):
            expected = np.linalg.solve(dense.T if transpose else dense, x)
            got = kernels_module._band_solve(inverse, x, transpose)
            assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_a_singular_block_raises(self):
        # A zero on a diagonal band, and two equal rows of a tridiagonal one.
        diagonal = np.ones((40, 1))
        diagonal[20] = 0.0
        with pytest.raises(LinAlgError):
            kernels_module._band_factor(diagonal)
        band = np.tile([1.0, 4.0, 1.0], (40, 1))
        band[0, 0] = band[-1, 2] = 0.0
        band[1] = [4.0, 1.0, 0.0]  # row 1 of the matrix equals row 0
        with pytest.raises(LinAlgError):
            kernels_module._band_factor(band)


class TestPacketInverse:
    # beta 1.0, 2.0 and 3.0 in one dimension: nu = 1/2, 3/2 and 5/2.  At
    # length scale 0.004 the windows span many length scales, where the
    # packets' values are summed from the kernel values themselves.
    @pytest.mark.parametrize(
        "beta,length_scale,count",
        [
            *((beta, 1.0, count) for beta in (1.0, 2.0, 3.0) for count in (40, 100)),
            (3.0, 0.004, 40),
        ],
    )
    def test_matches_50_digit_dense_solve(self, beta, length_scale, count):
        # mpmath is a test-only dependency; without it this reference skips.
        kernel = MaternKernel(beta=beta, dim=1, length_scale=length_scale)
        rows = generate_points(UNIT_INTERVAL, count).points
        values = smooth_values(rows)
        points = np.random.default_rng(count).random((60, 1))
        got = packet_interpolant(kernel, rows, values, points)
        expected = mp_interpolant([kernel], [rows], values, points)
        # Largest seen: 3.4e-13 (nu = 5/2, 100 points).
        assert np.max(np.abs(got - expected)) <= 1e-11 * np.max(np.abs(values))

    @pytest.mark.parametrize("beta", [1.0, 2.0, 3.0])
    def test_points_far_apart_match_the_dense_inverse(self, beta):
        # Windows span about 1,500 length scales, where exp(+-u) over a
        # window under- or overflows, and so does the odd part of the
        # profile at the points around an interval; the Gram matrix is
        # nearly diagonal.  The points lie within a length scale of a node.
        kernel = MaternKernel(beta=beta, dim=1, length_scale=1e-5)
        rows = generate_points(UNIT_INTERVAL, 64).points
        values = smooth_values(rows)
        offsets = np.random.default_rng(3).uniform(-1e-5, 1e-5, (64, 1))
        points = np.clip(rows + offsets, 0.0, 1.0)
        got = packet_interpolant(kernel, rows, values, points)
        gram = kernel.gram(rows, rows)
        expected = kernel.gram(points, rows) @ np.linalg.solve(gram, values)
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(values))

    def test_factors_below_the_window_solve_with_their_gram_matrix(self, monkeypatch):
        packets = []
        counting(monkeypatch, packets_module, "_packet_basis", packets, lambda k: k.beta)
        for beta, window in ((1.0, 3), (2.0, 5), (3.0, 7)):
            kernel = MaternKernel(beta=beta, dim=1)
            for count in (window - 1, window):
                rows = generate_points(UNIT_INTERVAL, count).points
                entry = kernels_module._packet_factor(kernel, rows)
                order, basis, phi, inverse, condition = entry
                assert order.tolist() == np.argsort(rows[:, 0], kind="stable").tolist()
                y = np.random.default_rng(count).standard_normal((count, 2))
                solved = kernels_module._band_solve(inverse, y)
                if count < window:
                    # The kernel translates: Phi is the Gram matrix, as a full band.
                    sorted_gram = kernel.gram(rows[order], rows[order])
                    assert not basis.packets
                    assert phi.shape == (count, 2 * count - 1)
                    assert band_matrix(phi).tobytes() == sorted_gram.tobytes()
                    # Backward stable: largest seen 2.4e-17, as np.linalg.solve's.
                    norm = np.abs(sorted_gram).sum(axis=1).max()
                    residual = np.max(np.abs(sorted_gram @ solved - y))
                    assert residual <= 1e-15 * (norm * np.max(np.abs(solved)) + np.max(np.abs(y)))
                    # So within cond(Phi) eps of np.linalg.solve, relative:
                    # largest seen 0.45 cond(Phi) eps (nu = 1/2, 2 points), and
                    # 9.8e-13 (nu = 5/2, 6 points, where cond(Phi) is 1.8e6).
                    expected = np.linalg.solve(sorted_gram, y)
                    bound = condition * np.finfo(float).eps * np.max(np.abs(expected))
                    assert np.max(np.abs(solved - expected)) <= bound
                else:
                    assert np.allclose(band_matrix(phi) @ solved, y, atol=1e-12)
        assert packets == [1.0, 2.0, 3.0]

    @pytest.mark.parametrize("beta", [1.0, 2.0, 3.0])
    def test_kept_factor_holds_no_subnormal_number(self, beta):
        # At nu = 3/2 the dense inverse of the Gram matrix on these points
        # held 10,176 subnormal entries.
        kernel = MaternKernel(beta=beta, dim=1)
        _, _, phi, inverse, _ = kernels_module._packet_factor(
            kernel, generate_points(UNIT_INTERVAL, 1024).points
        )
        for band in (phi, *inverse):
            magnitudes = np.abs(band[band != 0.0])
            assert magnitudes.size and np.min(magnitudes) >= np.finfo(float).tiny

    def test_kept_1024_point_factor_holds_under_900_kb(self):
        # It holds 845 KB: 598 KB the basis laid out for evaluation and 215
        # KB the levels of its inverse, 16-row block inverses and their
        # spikes (the banded LU and pivots it replaced held 36 KB).  With
        # its Gram matrix (8.4 MB) beside the band of its inverse, the
        # entry held 10.5 MB; with the band of the inverse as blocks, 2.3 MB.
        kernel = MaternKernel(beta=2.0, dim=1)
        entry = kernels_module._packet_factor(
            kernel, generate_points(UNIT_INTERVAL, 1024).points
        )
        assert sum(array.nbytes for array in entry) < 9e5
        order, basis, phi, inverse, condition = entry
        arrays = (order, *basis.packets, phi, *inverse, condition)
        assert all(not array.flags.writeable for array in arrays)

    @pytest.mark.parametrize("columns", [1, 2, 33])
    @pytest.mark.parametrize("beta", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("count", [63, 64, 209, 256])
    def test_apply_matches_the_dense_product(self, count, beta, columns):
        kernel = MaternKernel(beta=beta, dim=1)
        rows = generate_points(UNIT_INTERVAL, count).points
        _, _, phi, inverse, _ = kernels_module._packet_factor(kernel, rows)
        dense = band_matrix(phi)
        x = np.random.default_rng(columns).standard_normal((count, columns))
        expected = dense @ x
        result = kernels_module._band_apply(phi, x)
        assert result.shape == (count, columns)
        assert np.max(np.abs(result - expected)) <= 1e-15 * np.max(np.abs(expected))
        # Largest seen: 4.8e-16 relative (nu = 5/2, cond(Phi) up to 3.3e4 here).
        expected = np.linalg.solve(dense, x)
        result = kernels_module._band_solve(inverse, x)
        assert result.shape == (count, columns)
        assert np.max(np.abs(result - expected)) <= 1e-14 * np.max(np.abs(expected))

    @pytest.mark.parametrize("fault", ["equal rows", "nan"])
    def test_zero_or_non_finite_pivot_raises(self, monkeypatch, fresh_factored_grams, fault):
        band = packets_module._packet_band

        def broken(*args):
            values = band(*args)
            if fault == "nan":
                values[0, values.shape[1] // 2] = np.nan
            else:
                # Row 0 of Phi^T starts at its diagonal, row 1 one column
                # left of it: row 1 becomes row 0, and the pivoted LU meets
                # an exact zero pivot.
                values[1] = np.roll(values[0], -1)
            return values

        monkeypatch.setattr(packets_module, "_packet_band", broken)
        kernel, nodes = block_grid(((2.0, 1), (2.0, 1)), (12, 9))
        with pytest.raises(ConditioningError, match="zero or non-finite pivot") as caught:
            fit_interpolant(kernel, nodes, smooth_values(nodes.points))
        assert caught.value.node_count == 12

    @pytest.mark.parametrize(
        "layout,counts",
        [
            (((2.0, 1), (2.0, 1)), (24, 16)),
            (((1.0, 1), (3.0, 1)), (40, 12)),
            (((2.0, 1), (1.0, 1), (2.0, 1)), (9, 7, 6)),
        ],
    )
    def test_grid_fit_matches_dense_solve_without_eigh(self, monkeypatch, layout, counts):
        kernel, nodes = block_grid(layout, counts)
        rhs = smooth_values(nodes.points)
        gram = kernel.gram(nodes.points, nodes.points)
        dense = shifted_solve_reference(gram, rhs, 0)

        def no_eigh(gram):
            raise AssertionError("a grid of half-integer factors was eigendecomposed")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        fit = fit_interpolant(kernel, nodes, rhs)
        assert isinstance(expansion_of(fit), PacketExpansion)
        scale = np.max(np.abs(rhs))
        assert np.max(np.abs(fit.evaluate(nodes.points) - rhs)) <= 1e-10 * scale
        off_node = np.random.default_rng(5).random((300, nodes.dim))
        between = kernel.gram(off_node, nodes.points)
        assert np.max(np.abs(fit.evaluate(off_node) - between @ dense)) <= 1e-9 * scale

    def test_grid_whose_packet_solve_misses_the_gate_takes_the_eigen_solve(
        self, monkeypatch, fresh_factored_grams
    ):
        # Two points of the first factor are 1e-9 apart: refinement cannot
        # bring the unshifted packet solve's node residual within tolerance,
        # and the shifted eigen solve fits the grid.
        decomposed = []
        counting(monkeypatch, np.linalg, "eigh", decomposed)
        k = MaternKernel(beta=2.0, dim=1)
        halton = generate_points(UNIT_INTERVAL, 9).points
        first = PointSet(points=np.vstack([halton, [[0.5 + 1e-9]]]), domain=UNIT_INTERVAL)
        grids = [first, generate_points(UNIT_INTERVAL, 7)]
        values = smooth_values(tensor_grid([p.points for p in grids]))
        fit = grid_fit([k, k], grids, values)
        assert sorted(decomposed) == [7, 10]
        residual = fit.evaluate(tensor_grid([p.points for p in grids])) - values
        assert np.max(np.abs(residual)) <= 1e-8

    @pytest.mark.parametrize("beta", [4.0, 21.0])
    def test_orders_above_five_halves_keep_the_eigen_solve(
        self, monkeypatch, fresh_factored_grams, beta
    ):
        # nu = 7/2 and 41/2; at length scale 0.001 the 64-point factor's
        # Gram matrix is well conditioned and wider than a packet window.
        built, decomposed = [], []
        counting(monkeypatch, kernels_module, "_packet_factor", built)
        counting(monkeypatch, np.linalg, "eigh", decomposed)
        k = MaternKernel(beta=beta, dim=1, length_scale=0.001)
        sets = [generate_points(UNIT_INTERVAL, n) for n in (2, 64)]
        values = smooth_values(tensor_grid([p.points for p in sets]))
        fit = grid_fit([k, k], sets, values)
        assert built == []
        assert sorted(decomposed) == [2, 64]
        assert np.max(np.abs(fit.evaluate(tensor_grid([p.points for p in sets])) - values)) <= 1e-8

    def test_fits_build_each_packet_factor_once(self, monkeypatch, fresh_factored_grams):
        built = []
        counting(monkeypatch, kernels_module, "_packet_factor", built, lambda k: k.beta)
        k = MaternKernel(beta=2.0, dim=1)
        sets = {n: generate_points(UNIT_INTERVAL, n) for n in (4, 8, 16)}
        pairs = [(4, 8), (8, 4), (16, 16), (8, 16), (4, 4), (16, 8)]

        def fit_all():
            fits = [
                grid_fit(
                    [k, k],
                    [sets[a], sets[b]],
                    smooth_values(tensor_grid([sets[a].points, sets[b].points])),
                )
                for a, b in pairs
            ]
            return [grid_of(fit).weights for fit in fits]

        first, again = fit_all(), fit_all()
        assert built == [2.0] * 3
        assert all(a.tobytes() == b.tobytes() for a, b in zip(first, again))
        cache = kernels_module._FACTORED_GRAMS
        assert cache.nbytes == sum(packet_bytes(n) for n in (4, 8, 16))

    def test_packet_path_takes_no_cholesky_or_bessel_function(
        self, monkeypatch, fresh_factored_grams
    ):
        def forbidden(*args, **kwargs):
            raise AssertionError("the packet path called a Cholesky or Bessel function")

        for name in ("dpotrf", "dpotrs"):
            monkeypatch.setattr(lapack_module, name, forbidden)
        for name in ("bessel_k0", "bessel_k1"):
            monkeypatch.setattr(kernels_module, name, forbidden)
        kernel, nodes = block_grid(((2.0, 1), (2.0, 1)), (33, 17))
        fit = fit_interpolant(kernel, nodes, smooth_values(nodes.points))
        residual = fit.evaluate(nodes.points) - smooth_values(nodes.points)
        assert np.max(np.abs(residual)) <= 1e-8


def corner_grid(beta, count):
    """The tensor kernel of two one-dimensional blocks of order ``beta -
    1/2`` and the grid of a ``count``-point Halton factor with the 2-point
    corner factor {0, 1}, whose basis is its kernel translates."""
    kernel = MaternKernel(beta=beta, dim=1)
    grids = [generate_points(UNIT_INTERVAL, count), generate_points(UNIT_INTERVAL, 2)]
    return TensorKernel(kernels=(kernel, kernel)), PointSet.product(grids)


def long_double_gram(kernel, x, y):
    """The Gram matrix of a one-dimensional half-integer Matern kernel
    between the points ``x`` and ``y``, in long double."""
    d = np.abs(np.subtract.outer(x.astype(np.longdouble), y.astype(np.longdouble)))
    d /= np.longdouble(kernel.length_scale)
    poly = np.zeros_like(d)
    for c in kernel._half_integer_coefficients:  # highest power first
        poly = poly * d + np.longdouble(c)
    return np.longdouble(kernel._half_integer_constant) * poly * np.exp(-d)


def long_double_solve(matrix, rhs):
    """``matrix^-1 rhs`` by Gaussian elimination without pivoting (the
    matrix is symmetric positive definite), in long double."""
    a, b = matrix.copy(), rhs.copy()
    n = len(a)
    for k in range(n - 1):
        factor = a[k + 1 :, k] / a[k, k]
        a[k + 1 :, k + 1 :] -= np.outer(factor, a[k, k + 1 :])
        b[k + 1 :] -= np.outer(factor, b[k])
    x = np.zeros_like(b)
    for k in range(n - 1, -1, -1):
        x[k] = (b[k] - a[k, k + 1 :] @ x[k + 1 :]) / a[k, k]
    return x


class TestPacketBasis:
    # Grids of a 5-, 256- or 1,024-point factor and the 2-point corner
    # factor, at nu = 1/2, 3/2 and 5/2.  The 5-point factor takes packets
    # at nu = 1/2 and 3/2, and its kernel translates at nu = 5/2, whose
    # packets span 7 points.
    @pytest.mark.parametrize("count", [5, 256, 1024])
    @pytest.mark.parametrize("beta", [1.0, 2.0, 3.0])
    def test_node_residual_is_within_the_target(self, beta, count):
        kernel, nodes = corner_grid(beta, count)
        values = smooth_values(nodes.points)
        fit = fit_interpolant(kernel, nodes, values)
        assert isinstance(expansion_of(fit), PacketExpansion)
        # Largest seen: 2.1e-13 relative (nu = 5/2, 5 points).
        residual = fit.evaluate(nodes.points) - values
        target = kernels_module._RESIDUAL_TARGET
        assert np.max(np.abs(residual)) <= target * np.max(np.abs(values))

    @pytest.mark.parametrize("count", [5, 256, 1024])
    @pytest.mark.parametrize("beta", [1.0, 2.0, 3.0])
    def test_reproduces_a_native_space_member(self, beta, count):
        # A combination of kernel translates at nodes is its own
        # interpolant, so its values are exact off the nodes, where each
        # packet takes its cheapest form.
        kernel, nodes = corner_grid(beta, count)
        block = kernel.kernels[0]
        factors = kernel.grid_factors(nodes)
        centers = [factors[0][[1, count // 2]], factors[1]]

        def member(points):
            first = block.gram(points[:, :1], centers[0]) @ [0.7, -1.3]
            return first * (block.gram(points[:, 1:], centers[1]) @ [1.1, 0.4])

        fit = fit_interpolant(kernel, nodes, member(nodes.points))
        scale = np.max(np.abs(member(nodes.points)))
        rng = np.random.default_rng(count)
        inside = rng.random((400, 2))
        # Largest seen: 9.8e-13 relative (nu = 5/2, 5 points).
        assert np.max(np.abs(fit.evaluate(inside) - member(inside))) <= 1e-11 * scale
        with pytest.raises(ValueError, match="outside its domain"):
            fit.evaluate([[1.2, 0.5]])

    @pytest.mark.parametrize("count", [5, 256])
    @pytest.mark.parametrize("beta", [1.0, 2.0, 3.0])
    def test_matches_a_long_double_dense_solve(self, beta, count):
        kernel, nodes = corner_grid(beta, count)
        values = smooth_values(nodes.points)
        fit = fit_interpolant(kernel, nodes, values)
        block = kernel.kernels[0]
        x, corners = (rows[:, 0] for rows in kernel.grid_factors(nodes))
        grams = [long_double_gram(block, rows, rows) for rows in (x, corners)]
        coefficients = long_double_solve(grams[0], values.reshape(count, 2).astype(np.longdouble))
        coefficients = long_double_solve(grams[1], coefficients.T).T
        points = np.random.default_rng(count).random((300, 2))
        expected = np.einsum(
            "pi,ij,pj->p",
            long_double_gram(block, points[:, 0], x),
            coefficients,
            long_double_gram(block, points[:, 1], corners),
        )
        # Largest seen: 5.0e-13 relative (nu = 5/2, 256 points).
        error = np.abs(fit.evaluate(points) - expected.astype(float))
        assert np.max(error) <= 1e-11 * np.max(np.abs(values))

    @pytest.mark.parametrize("points", ["halton", "random"])
    @pytest.mark.parametrize("length_scale", [1.0, 0.01])
    @pytest.mark.parametrize("beta", [1.0, 2.0, 3.0])
    def test_end_packets_match_50_digit_values(self, beta, length_scale, points):
        # The first and last m + 1 packets vanish on one side only.  On 16
        # Halton or 40 random points, at length scale 1 every end window is
        # narrower than a length scale, where those packets take the odd
        # form near their points, and at 0.01 every one is wider, where
        # they take the kernel values themselves.  Their weights and their
        # values between the factor's ends, at points that cover every
        # interval they reach, match the 50-digit sums, relative to each
        # packet's largest weight or value.
        kernel = MaternKernel(beta=beta, dim=1, length_scale=length_scale)
        rng = np.random.default_rng(3)
        x = halton_sequence(16, 1) if points == "halton" else rng.random((40, 1))
        x = np.sort(x, axis=0)
        u = x[:, 0] / length_scale
        m, n = kernels_module._packet_order(kernel), len(x)
        spans = [u[m + 1 + a] - u[a] for a in range(m + 1)]
        spans += [u[-1 - a] - u[-m - 2 - a] for a in range(m + 1)]
        assert all((span < 1.0) == (length_scale == 1.0) for span in spans)
        ends = [(x[0, 0], x[2 * m + 2, 0]), (x[n - 2 * m - 3, 0], x[-1, 0])]
        t = np.concatenate([x[:, 0], *(rng.uniform(a, b, 40) for a, b in ends)])
        basis = packets_module._packet_basis(kernel, x)
        expected_coefficients, expected_values = mp_end_packets(kernel, x[:, 0], t)
        packets = [*range(m + 1), *range(n - m - 1, n)]
        starts, coefficients = basis.packets[:2]
        own = [
            coefficients[i, i - starts[i] : i - starts[i] + m + 2]
            if i < m + 1
            else coefficients[i, i - starts[i] - m - 1 : i - starts[i] + 1]
            for i in packets
        ]
        error = np.abs(np.array(own) - expected_coefficients).max(axis=1)
        assert np.max(error / np.abs(expected_coefficients).max(axis=1)) <= 1e-13
        first, found = basis.values(t[:, None])
        dense = np.zeros((len(t), n))
        dense[np.arange(len(t))[:, None], first[:, None] + np.arange(found.shape[1])] = found
        got = dense[:, packets].T
        error = np.abs(got - expected_values).max(axis=1)
        # Largest seen: 4.8e-15 for a weight and 3.6e-14 for a value (nu =
        # 5/2, random points, length scales 0.01 and 1).
        assert np.max(error / np.abs(expected_values).max(axis=1)) <= 1e-13

    @pytest.mark.parametrize("count", [8, 256])
    @pytest.mark.parametrize("beta", [1.0, 2.0, 3.0])
    def test_a_point_just_past_an_end_takes_the_end_value(self, beta, count):
        # Within Box.contains' tolerance, 1e-12, past either end of a
        # factor, its packets take their values at that end; a point
        # farther out is refused.
        kernel, nodes = corner_grid(beta, count)
        basis = grid_of(fit_interpolant(kernel, nodes, smooth_values(nodes.points))).bases[0]
        assert basis.packets
        for end, past in ((0.0, -1e-12), (1.0, 1.0 + 1e-12)):
            got, expected = basis.values(np.array([[past]])), basis.values(np.array([[end]]))
            assert [a.tobytes() for a in got] == [a.tobytes() for a in expected]
            with pytest.raises(ValueError, match="outside the packet basis's points"):
                basis.values(np.array([[past + (past - end)]]))

    def test_a_basis_short_of_its_domain_refuses_points_past_its_ends(self):
        # A packet basis holds from its factor's first point to its last.
        # A fit whose factor stops short of its domain's ends, as no
        # pipeline's does, refuses a point of the domain past them rather
        # than read its tables outside their span.
        kernel = MaternKernel(beta=2.0, dim=1)
        factor = PointSet(points=halton_sequence(16, 1), domain=UNIT_INTERVAL)
        nodes = PointSet.product([factor, generate_points(UNIT_INTERVAL, 2)])
        tensor = TensorKernel(kernels=(kernel, kernel))
        fit = fit_interpolant(tensor, nodes, smooth_values(nodes.points))
        assert isinstance(expansion_of(fit), PacketExpansion)
        low, high = factor.points.min(), factor.points.max()
        assert 0.0 < low and high < 1.0
        assert np.isfinite(fit.evaluate([[low, 0.3], [high, 0.7]])).all()
        for outside in (0.5 * low, 0.5 * (1.0 + high)):
            with pytest.raises(ValueError, match="outside the packet basis's points"):
                fit.evaluate([[0.5, 0.5], [outside, 0.5]])

    @pytest.mark.parametrize("beta", [1.0, 2.0, 3.0])
    def test_basis_built_twice_in_one_process_is_byte_identical(self, beta):
        # Each series sums the terms its call's largest argument needs: a
        # basis built again after bases of other sizes keeps its bytes, and
        # so do its values at points taken whole or in chunks, within every
        # basis's points.
        kernel = MaternKernel(beta=beta, dim=1)
        grids = [np.sort(halton_sequence(n, 1), axis=0) for n in (8, 64, 1024)]
        low, high = max(grid[0, 0] for grid in grids), min(grid[-1, 0] for grid in grids)
        t = np.random.default_rng(0).uniform(low, high, (862, 1))

        def snapshot(basis):
            arrays = (*basis.packets, packets_module._packet_band(basis), *basis.values(t))
            return [array.tobytes() for array in arrays]

        before = [snapshot(packets_module._packet_basis(kernel, grid)) for grid in grids]
        after = [snapshot(packets_module._packet_basis(kernel, grid)) for grid in grids[::-1]]
        assert before == after[::-1]
        for grid in grids:
            basis = packets_module._packet_basis(kernel, grid)
            chunks = [basis.values(chunk)[1] for chunk in np.array_split(t, 3)]
            assert np.concatenate(chunks).tobytes() == basis.values(t)[1].tobytes()

    @pytest.mark.parametrize("beta", [1.0, 2.0, 3.0])
    def test_factor_entries_hold_no_gram_matrix(self, beta, fresh_factored_grams):
        kernel = MaternKernel(beta=beta, dim=1)
        for count in (256, 1024):
            grid = PointSet.product([generate_points(UNIT_INTERVAL, count)] * 2)
            tensor = TensorKernel(kernels=(kernel, kernel))
            fit_interpolant(tensor, grid, smooth_values(grid.points))
        entries = list(fresh_factored_grams._entries.values())
        assert len(entries) == 2
        for order, basis, phi, inverse, condition in entries:
            count = len(order)
            for array in (order, *basis.packets, phi, *inverse, condition):
                assert array.size < count * count
        assert fresh_factored_grams.nbytes == sum(
            sum(array.nbytes for array in entry) for entry in entries
        )
        m = kernels_module._packet_order(kernel)
        assert fresh_factored_grams.nbytes == sum(packet_bytes(n, m) for n in (256, 1024))


class TestQuadratureWeights:
    def test_single_node_rule(self):
        k = MaternKernel(beta=2.0, dim=1)
        nodes = PointSet(points=np.array([[0.4]]), domain=UNIT_INTERVAL)
        rule = quadrature_weights(k, nodes)
        expected = rule.embeddings[0] / k.gram([0.4], [0.4])[0, 0]
        assert rule.weights[0] == pytest.approx(expected, rel=1e-12)

    def test_recovers_kernel_translate_integrals(self):
        k = MaternKernel(beta=2.0, dim=1)
        nodes = uniform_nodes(21)
        rule = quadrature_weights(k, nodes)
        tensor = TensorKernel(kernels=(k,))
        for i in (0, 7, 20):
            samples = tensor.gram(nodes.points, nodes.points[i : i + 1])[:, 0]
            assert rule.weights @ samples == pytest.approx(
                rule.embeddings[i], rel=1e-8, abs=1e-10
            )

    def test_sin_integral_near_zero(self):
        k = MaternKernel(beta=2.0, dim=1)
        nodes = uniform_nodes(33)
        rule = quadrature_weights(k, nodes)
        result = rule.weights @ np.sin(2 * np.pi * nodes.points[:, 0])
        assert abs(result) <= 1e-3

    def test_embedding_matches_adaptive_quadrature(self):
        k = MaternKernel(beta=2.0, dim=1)
        nodes = PointSet(points=np.array([[0.3], [0.8]]), domain=UNIT_INTERVAL)
        rule = quadrature_weights(k, nodes)
        for i, x in enumerate((0.3, 0.8)):
            reference, _ = quad(
                lambda y: float(k.profile(np.array([abs(y - x)]))[0]), 0.0, 1.0
            )
            # The fixed 64-point reference rule crosses the profile's
            # derivative kink at the node, limiting it to ~1e-9 here.
            assert rule.embeddings[i] == pytest.approx(reference, rel=1e-7)

    def test_rejects_disc_domain(self):
        k = MaternKernel(beta=4.0, dim=2)
        nodes = generate_points(Disc(center=(0.0, 0.0), radius=1.0), 10)
        with pytest.raises(ValueError):
            quadrature_weights(k, nodes)

    def test_three_dimensional_rule_builds_its_embeddings_in_row_chunks(self):
        # The reference grid of d = 3 holds 64**3 points, so each node's row
        # of kernel values against it takes 2 MB; the embeddings are built
        # 8 rows at a time, and the peak does not grow with the node count.
        box = Box((0.0,) * 3, (1.0,) * 3)
        k = MaternKernel(beta=3.0, dim=3)
        quadrature_weights(k, generate_points(box, 2))  # loads the profile tables
        nodes = generate_points(box, 40)
        tracemalloc.start()
        try:
            rule = quadrature_weights(k, nodes)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        chunk_bytes = 8 * 64**3 * 8
        # A chunk and its distance temporary, plus the grid and its weights;
        # one 40 x 64**3 array alone would take 5 chunks.
        assert peak <= 4 * chunk_bytes
        grid, grid_w = kernels_module._gauss_legendre_grid(box, 64)
        whole = TensorKernel(kernels=(k,)).gram(nodes.points[:12], grid) @ grid_w
        np.testing.assert_allclose(rule.embeddings[:12], whole, rtol=1e-13)


class TestSparseInterpolate:
    kernel = MaternKernel(beta=2.0, dim=1)
    domains = [UNIT_INTERVAL, UNIT_INTERVAL]

    @staticmethod
    def product_sine(points):
        return np.sin(2 * np.pi * points[:, 0]) * np.sin(2 * np.pi * points[:, 1])

    def top_layer_nodes(self, L):
        spec = FactorSpec(gamma=1.0, beta=2.0, resolution_map=doubling_levels)
        grids = []
        for term in combination_coefficients(2, L):
            if sum(term.index) == L:
                sets = [
                    generate_points(self.domains[j], level_to_resolution(spec, l))
                    for j, l in enumerate(term.index)
                ]
                grids.append(tensor_grid([ps.points for ps in sets]))
        return np.unique(np.vstack(grids), axis=0)

    def test_constant_reproduced_at_sparse_grid_nodes(self):
        surrogate = sparse_interpolate(
            [self.kernel, self.kernel],
            self.domains,
            lambda p: np.full(p.shape[0], 3.7),
            L=5,
        )
        nodes = self.top_layer_nodes(5)
        assert np.max(np.abs(surrogate.evaluate(nodes) - 3.7)) <= 1e-8

    def test_single_factor_collapses_to_plain_fit(self):
        L = 4
        f = lambda p: np.exp(p[:, 0])
        surrogate = sparse_interpolate([self.kernel], [UNIT_INTERVAL], f, L=L)
        count = doubling_levels(L)
        nodes = generate_points(UNIT_INTERVAL, count)
        direct = fit_interpolant(self.kernel, nodes, f(nodes.points))
        xs = np.linspace(0, 1, 101).reshape(-1, 1)
        assert np.allclose(surrogate.evaluate(xs), direct.evaluate(xs), atol=1e-12)

    def test_product_sine_study(self):
        rng = np.random.default_rng(42)
        test_points = rng.random((1024, 2))
        errors = []
        for L in range(4, 9):
            surrogate = sparse_interpolate(
                [self.kernel, self.kernel], self.domains, self.product_sine, L=L
            )
            diff = surrogate.evaluate(test_points) - self.product_sine(test_points)
            errors.append(np.max(np.abs(diff)))
        assert all(b < a for a, b in zip(errors, errors[1:]))
        assert errors[-1] <= 1e-2 * errors[0]

    def test_interpolates_on_sparse_grid(self):
        L = 6
        surrogate = sparse_interpolate(
            [self.kernel, self.kernel], self.domains, self.product_sine, L=L
        )
        nodes = self.top_layer_nodes(L)
        residual = surrogate.evaluate(nodes) - self.product_sine(nodes)
        assert np.max(np.abs(residual)) <= 1e-7

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sparse_interpolate(
                [self.kernel], [UNIT_SQUARE], lambda p: p[:, 0], L=2
            )

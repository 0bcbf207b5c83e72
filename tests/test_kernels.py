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
from scipy.spatial.distance import cdist
from scipy.special import kn, kv

import kernelkit.kernels as kernels_module
from kernelkit.kernels import (
    ConditioningError,
    KernelExpansion,
    MaternKernel,
    TensorKernel,
    fit_interpolant,
    quadrature_weights,
    single_block,
)
from kernelkit.multiindex import combination_coefficients
from kernelkit.points import Box, Disc, PointSet, generate_points, tensor_grid
from kernelkit.smolyak import FactorSpec, level_to_resolution
from kernelkit.surrogate import Surrogate
from kernelkit.uq import doubling_levels, sparse_interpolate

UNIT_INTERVAL = Box((0.0,), (1.0,))
UNIT_SQUARE = Box((0.0, 0.0), (1.0, 1.0))


def grid_fit(factor_kernels, factor_points, values):
    """The tensor-product interpolant on the product of per-factor point sets."""
    return fit_interpolant(
        TensorKernel.product(factor_kernels), PointSet.product(factor_points), values
    )


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

    def test_rejects_unsupported_orders(self):
        with pytest.raises(ValueError):
            MaternKernel(beta=1.25, dim=1)  # order 0.75
        with pytest.raises(ValueError):
            MaternKernel(beta=0.5, dim=2)  # order <= 0
        with pytest.raises(ValueError):
            MaternKernel(beta=2.0, dim=1, length_scale=0.0)


def fraction_packet_tables(m, terms):
    """:func:`kernels._packet_tables` computed in ``Fraction``s."""
    from fractions import Fraction

    q = [
        Fraction(math.factorial(2 * m - p), math.factorial(p) * math.factorial(m - p))
        / 2 ** (m - p)
        for p in range(m + 1)
    ]
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
    return tuple(np.array(table, dtype=float) for table in (q, odd, basis))


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
        tables = kernels_module._packet_tables(m)
        reference = fraction_packet_tables(m, kernels_module._PACKET_SERIES_TERMS)
        assert [t.tobytes() for t in tables] == [r.tobytes() for r in reference]

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
        tensor = TensorKernel(blocks=((ka, (0,)), (kb, (1,))))
        x = np.array([[0.1, 0.7]])
        y = np.array([[0.4, 0.2]])
        expected = ka.gram([0.1], [0.4])[0, 0] * kb.gram([0.7], [0.2])[0, 0]
        assert tensor.gram(x, y)[0, 0] == pytest.approx(expected, rel=1e-13)

    def test_rejects_bad_partition(self):
        ka = MaternKernel(beta=2.0, dim=1)
        with pytest.raises(ValueError):
            TensorKernel(blocks=((ka, (0,)), (ka, (0,))))
        with pytest.raises(ValueError):
            TensorKernel(blocks=((ka, (0, 1)),))

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
        blocks, offset = [], 0
        for beta, dim in layout:
            blocks.append(
                (MaternKernel(beta=beta, dim=dim), tuple(range(offset, offset + dim)))
            )
            offset += dim
        tensor = TensorKernel(blocks=tuple(blocks))
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
        for kernel, coords in tensor.blocks:
            idx = list(coords)
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
    return TensorKernel.product([MaternKernel(beta=beta, dim=dim) for beta, dim in layout])


def merged_sparse_grid(layout, L, resolution, rng):
    """The merged combination of random expansions on the simplex-``L`` grids.

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
    ((_, merged),) = Surrogate(terms=tuple(terms)).terms
    return merged


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
        budget=st.sampled_from([kernels_module._STACK_BLOCK_ENTRIES, 97, 1]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_evaluate_matches_gram_product(
        self, layout, sparse, L, doubling, random_count, point_count, budget, seed
    ):
        rng = np.random.default_rng(seed)
        dim = sum(d for _, d in layout)
        if sparse:
            resolution = doubling_levels if doubling else (lambda l: l + 1)
            expansion = merged_sparse_grid(layout, len(layout) + L, resolution, rng)
        else:
            nodes = PointSet(rng.random((random_count, dim)), unit_box(dim))
            expansion = KernelExpansion(
                layout_kernel(layout), nodes, rng.standard_normal(random_count)
            )
        nodes, c = expansion.nodes.points, expansion.coefficients
        # Random points, some nodes (zero block distances) and a repeated row.
        points = np.vstack([rng.random((point_count, dim)), nodes[:3], nodes[:1]])
        with mock.patch.object(kernels_module, "_STACK_BLOCK_ENTRIES", budget):
            got = expansion.evaluate(points)
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
        k = MaternKernel(beta=2.0, dim=dim)
        L = 8
        surrogate = sparse_interpolate([k, k], [unit_box(dim)] * 2, smooth_values, L=L)
        ((_, expansion),) = surrogate.terms
        plan = expansion._plan
        assert plan.contracted
        assert plan_entries(expansion) == len(expansion.nodes)
        assert len(plan.groups) <= L

    def test_random_nodes_take_the_gather_plan(self):
        rng = np.random.default_rng(3)
        nodes = PointSet(rng.random((300, 2)), UNIT_SQUARE)
        expansion = KernelExpansion(
            layout_kernel(((2.0, 1), (2.0, 1))), nodes, rng.standard_normal(300)
        )
        plan = expansion._plan
        assert not plan.contracted
        assert plan_entries(expansion) == len(nodes)

    def test_large_sparse_grid_stays_within_block_budget(self, monkeypatch):
        # About 11k nodes: the interp workload's largest surrogate.
        budget = 2**18
        monkeypatch.setattr(kernels_module, "_STACK_BLOCK_ENTRIES", budget)
        rng = np.random.default_rng(8)
        expansion = merged_sparse_grid(((2.0, 1), (2.0, 1)), 11, doubling_levels, rng)
        assert len(expansion.nodes) == 11264
        points = rng.random((2048, 2))
        expansion.evaluate(points[:1])  # builds the plan
        tracemalloc.start()
        try:
            expansion.evaluate(points)
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
        kernel = single_block(MaternKernel(beta=2.0, dim=1))
        for coefficients in (np.zeros(12), np.zeros((13, 1))):
            with pytest.raises(ValueError, match=r"13 nodes.*shape \(1[23],"):
                KernelExpansion(kernel, nodes, coefficients)


class TestFitInterpolant:
    def test_zero_values_give_zero_interpolant(self):
        k = MaternKernel(beta=2.0, dim=1)
        nodes = uniform_nodes(9)
        values = np.zeros(9)
        interp = fit_interpolant(k, nodes, values)
        assert np.allclose(interp.coefficients, 0.0)
        assert values @ interp.coefficients == 0.0
        xs = np.linspace(0, 1, 50).reshape(-1, 1)
        assert np.allclose(interp.evaluate(xs), 0.0)

    def test_kernel_translate_gives_unit_vector(self):
        k = MaternKernel(beta=2.0, dim=1)
        nodes = uniform_nodes(10)
        gram = single_block(k).gram(nodes.points, nodes.points)
        j = 4
        interp = fit_interpolant(k, nodes, gram[:, j])
        expected = np.zeros(10)
        expected[j] = 1.0
        assert np.max(np.abs(interp.coefficients - expected)) <= 1e-8

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
        assert np.max(np.abs(refit.coefficients - first.coefficients)) <= 1e-8 * max(
            1.0, np.max(np.abs(first.coefficients))
        )

    def test_native_norm_nonnegative(self):
        k = MaternKernel(beta=2.0, dim=1)
        rng = np.random.default_rng(9)
        for trial in range(5):
            nodes = generate_points(UNIT_INTERVAL, 20)
            values = rng.standard_normal(20)
            interp = fit_interpolant(k, nodes, values)
            assert values @ interp.coefficients >= 0.0

    def test_native_space_member_reproduced_exactly(self):
        k = MaternKernel(beta=2.0, dim=1)
        centers = uniform_nodes(7)
        coeffs = np.array([0.5, -1.0, 2.0, 0.3, -0.7, 1.1, -0.2])
        tensor = single_block(k)

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
            KernelExpansion(single_block(k), nodes, np.zeros(12))
        with pytest.raises(ValueError, match=message):
            quadrature_weights(k, nodes)

    def test_extrapolation_warns(self):
        k = MaternKernel(beta=2.0, dim=1)
        interp = fit_interpolant(k, uniform_nodes(5), np.ones(5))
        with pytest.warns(UserWarning):
            interp.evaluate(np.array([[1.5]]))

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
            tensor = single_block(kernel)
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


def packet_bytes(count):
    """Bytes of a packet grid-factor entry of fewer points than a block: the
    Gram matrix, the sort order and the inverse as one dense block."""
    return 16 * count**2 + 8 * count


def counting(monkeypatch, owner, name, calls, record=len):
    """Wrap ``owner.name`` so that each call appends ``record(first argument)``."""
    original = getattr(owner, name)

    def counted(a, *args, **kwargs):
        calls.append(record(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


@pytest.fixture
def fresh_factored_grams():
    kernels_module._FACTORED_GRAMS.clear()
    yield
    kernels_module._FACTORED_GRAMS.clear()


class TestSolveSpd:
    @pytest.mark.parametrize("failures", [0, 2])
    def test_in_place_shift_matches_out_of_place(
        self, monkeypatch, failures, fresh_factored_grams
    ):
        factor = kernels_module.cho_factor
        calls = []

        def failing_first(a, **kwargs):
            calls.append(a)
            if len(calls) <= failures:
                a[...] = np.nan  # a failed in-place factorization leaves garbage
                raise LinAlgError("forced failure")
            return factor(a, **kwargs)

        monkeypatch.setattr(kernels_module, "cho_factor", failing_first)
        kernel = single_block(MaternKernel(beta=2.0, dim=2))
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
        counting(monkeypatch, kernels_module, "cho_factor", factored)
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
            kernels_module._FACTORED_GRAMS.clear()
            fresh = fit_interpolant(kernel, nodes, v)
            assert fit.coefficients.tobytes() == fresh.coefficients.tobytes()

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
        counting(monkeypatch, kernels_module, "cho_factor", factored)
        kernel = MaternKernel(beta=2.0, dim=2)
        for count in (20, 19, 18, 20, 17, 19, 40, 20):
            nodes = generate_points(UNIT_SQUARE, count)
            fit_interpolant(kernel, nodes, smooth_values(nodes.points))
            assert cache.nbytes <= cache.limit
        # 17 dropped 19, the least recently used; 19 then dropped 18; the
        # 40-node pair is larger than the bound, so it dropped nothing.
        assert factored == [20, 19, 18, 17, 19, 40]
        assert len(cache) == 3
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
    # one-dimensional half-integer blocks alone, like the last, are solved
    # by kernel packets (TestPacketInverse), so the eigendecomposition tests
    # below use integer orders.  The last grid's smallest product
    # eigenvalues lie far below the diagonal shift, so its unshifted packet
    # solve is checked against a 50-digit solve: off-node, the shifted
    # dense solve lies 4.1e-9 from that, the packet solve 9.7e-11.
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

        monkeypatch.setattr(kernels_module, "cho_factor", no_dense)
        blocks = [block for block, _ in kernel.blocks]
        packets = all(kernels_module._packet_order(block) is not None for block in blocks)
        if packets:
            monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        solution = kernels_module._solve_spd(kernel, nodes, rhs)
        scale = np.max(np.abs(rhs))
        residual = np.max(np.abs(gram @ solution - rhs))
        dense_residual = np.max(np.abs(gram @ dense - rhs))
        assert residual <= 10.0 * dense_residual + 1e-12 * scale
        off_node = np.random.default_rng(5).random((300, nodes.dim))
        if packets:
            error = mp_off_node_error(kernel, nodes, rhs, solution, off_node)
        else:
            between = kernel.gram(off_node, nodes.points)
            error = np.max(np.abs(between @ (solution - dense)))
        assert error <= 1e-9 * scale

    def test_singular_factor_raises(self):
        # Two points of the first factor are 1e-13 apart: its Gram matrix is
        # numerically singular and the values differ there.
        kernel = TensorKernel(
            blocks=(
                (MaternKernel(beta=2.0, dim=1), (0,)),
                (MaternKernel(beta=1.5, dim=1), (1,)),
            )
        )
        first = PointSet(
            points=np.array([[0.0], [0.5], [0.5 + 1e-13], [1.0]]), domain=UNIT_INTERVAL
        )
        grids = [first, generate_points(UNIT_INTERVAL, 3)]
        values = np.random.default_rng(1).standard_normal(12)
        with pytest.raises(ConditioningError, match="node residual") as caught:
            grid_fit([k for k, _ in kernel.blocks], grids, values)
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
                    ).coefficients
                )
            return fits

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
        assert len(cache) == len(kept)
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
        counting(monkeypatch, kernels_module, "cho_factor", factored)
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
        assert len(cache) == 3
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
        assert len(kernels_module._FACTORED_GRAMS) == 0
        fit = fit_interpolant(kernel, nodes, values)
        assert len(kernels_module._FACTORED_GRAMS) == 2
        assert np.max(np.abs(fit.evaluate(nodes.points) - values)) <= 1e-8

    def test_split_nodes_skips_the_search_for_one_block(self, monkeypatch):
        nodes = generate_points(UNIT_SQUARE, 40)
        one = single_block(MaternKernel(beta=2.0, dim=2))
        expected = one.split(nodes.points)

        def no_search(points):
            raise AssertionError("distinct rows searched for a point set")

        monkeypatch.setattr(kernels_module, "distinct_rows", no_search)
        ((rows, slot),) = one.split_nodes(nodes)
        assert slot is None
        assert rows.tobytes() == expected[0][0].tobytes()

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
        assert np.max(np.abs(between @ (fit.coefficients - dense.coefficients))) <= (
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
        result = kernels_module._kron_apply(matrices, x)
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


def mp_off_node_error(kernel, nodes, rhs, solution, points):
    """Largest difference at ``points`` between the expansion with
    coefficients ``solution`` on the tensor grid ``nodes`` of one-dimensional
    half-integer blocks and the exact interpolant of ``rhs`` there, from a
    50-digit Kronecker solve, the difference evaluated in mpmath."""
    mpmath = pytest.importorskip("mpmath")
    factors = kernel.grid_factors(nodes)
    shape = tuple(map(len, factors))
    as_mp = np.vectorize(mpmath.mpf, otypes=[object])
    with mpmath.workdps(50):
        exact = as_mp(rhs).reshape(shape)
        for axis, ((block, _), rows) in enumerate(zip(kernel.blocks, factors)):
            columns = mp_inverse_columns(mp_gram(block, rows[:, 0]), range(len(rows)))
            inverse = np.array(columns, dtype=object).T
            exact = np.moveaxis(np.tensordot(inverse, exact, axes=(1, axis)), 0, axis)
        # The difference of the two expansions, contracted one block at a
        # time: (points or 1, n_j, rest).
        contracted = (as_mp(solution).reshape(shape) - exact).reshape(1, *shape)
        for (block, coords), rows in zip(kernel.blocks, factors):
            profile = np.array(mp_gram(block, points[:, coords[0]], rows[:, 0]), dtype=object)
            rest = contracted.reshape(len(contracted), len(rows), -1)
            contracted = (profile[:, :, None] * rest).sum(axis=1)
        return float(max(abs(d) for d in contracted[:, 0]))


def packet_matrix(kernel, rows):
    """The Gram matrix of a packet factor and its kept inverse, applied to
    the identity, in the points' order."""
    gram, order, blocks = kernels_module._packet_factor(kernel, rows)
    return gram, kernels_module._band_apply(order, blocks, np.eye(len(rows)))


def packet_band(kernel, count):
    """The sorted points of a Halton factor and their packet band."""
    x = np.sort(generate_points(UNIT_INTERVAL, count).points[:, 0])
    return x, kernels_module._packet_inverse(kernel, x, kernels_module._packet_order(kernel))


def band_matrix(band):
    """The dense matrix of a band: entry ``(i, i - w + t)`` is ``band[i, t]``."""
    n, width = band.shape
    w = width // 2
    dense = np.zeros((n, n + 2 * w))
    for i in range(n):
        dense[i, i : i + width] = band[i]
    return dense[:, w : w + n]


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
        mpmath = pytest.importorskip("mpmath")
        kernel = MaternKernel(beta=beta, dim=1, length_scale=length_scale)
        rows = generate_points(UNIT_INTERVAL, count).points
        _, inverse = packet_matrix(kernel, rows)
        columns = list(range(count)) if count <= 40 else list(range(0, count, 9))
        with mpmath.workdps(50):
            reference = np.array(
                mp_inverse_columns(mp_gram(kernel, rows[:, 0]), columns), dtype=float
            ).T
        error = np.max(np.abs(inverse[:, columns] - reference))
        assert error <= 1e-9 * np.max(np.abs(reference))

    @pytest.mark.parametrize("beta", [1.0, 2.0, 3.0])
    def test_points_far_apart_match_the_dense_inverse(self, beta):
        # Windows span about 1,500 length scales, where exp(+-u) over a
        # window under- or overflows; the Gram matrix is nearly diagonal.
        kernel = MaternKernel(beta=beta, dim=1, length_scale=1e-5)
        rows = generate_points(UNIT_INTERVAL, 64).points
        gram, inverse = packet_matrix(kernel, rows)
        dense = np.linalg.inv(gram)
        assert np.max(np.abs(inverse - dense)) <= 1e-14 * np.max(np.abs(dense))

    def test_factors_below_the_window_take_the_direct_inverse(self, monkeypatch):
        packets = []
        counting(monkeypatch, kernels_module, "_packet_inverse", packets, lambda k: k.beta)
        for beta, window in ((1.0, 3), (2.0, 5), (3.0, 7)):
            kernel = MaternKernel(beta=beta, dim=1)
            for count in (window - 1, window):
                rows = generate_points(UNIT_INTERVAL, count).points
                gram, order, blocks = kernels_module._packet_factor(kernel, rows)
                assert order.tolist() == np.argsort(rows[:, 0], kind="stable").tolist()
                assert blocks.shape == (1, count, count)
                if count < window:
                    sorted_gram = gram[np.ix_(order, order)]
                    assert blocks[0].tobytes() == np.linalg.inv(sorted_gram).tobytes()
                else:
                    inverse = kernels_module._band_apply(order, blocks, np.eye(count))
                    assert np.allclose(inverse @ gram, np.eye(count), atol=1e-6)
        assert packets == [1.0, 2.0, 3.0]

    @pytest.mark.parametrize("beta", [1.0, 2.0, 3.0])
    def test_band_drops_only_entries_below_its_floor(self, beta):
        # The sweep over every point is exact; the kept band is its nonzero
        # part, and every entry outside it is at most 2**-64 of its row's
        # diagonal entry.
        kernel = MaternKernel(beta=beta, dim=1)
        count = 200
        x, band = packet_band(kernel, count)
        m = kernels_module._packet_order(kernel)
        starts, coefficients = kernels_module._packet_coefficients(x, m)
        lower, upper = kernels_module._packet_lu(
            kernels_module._packet_band(kernel, x, starts, coefficients)
        )
        full = kernels_module._packet_sweep(lower, upper, starts, coefficients, count - 1)
        exact = band_matrix(full)
        diagonal = np.abs(np.diag(exact))[:, None]
        kept = band_matrix(band)
        w = band.shape[1] // 2
        offsets = np.abs(np.subtract.outer(np.arange(count), np.arange(count)))
        outside = offsets > w
        floor = 2.0**-64 * np.broadcast_to(diagonal, exact.shape)
        assert np.all(np.abs(exact[outside]) <= floor[outside])
        assert np.all(np.abs(kept - exact) <= 1e-15 * diagonal)
        # The band is trimmed: its outermost diagonals hold a nonzero entry.
        assert np.any(band[:, [0, -1]] != 0.0)
        assert w == {1.0: 1, 2.0: 35, 3.0: 57}[beta]

    @pytest.mark.parametrize("beta", [1.0, 2.0, 3.0])
    def test_kept_factor_holds_no_subnormal_number(self, beta):
        # At nu = 3/2 the dense inverse on these points holds 10,176
        # subnormal entries.
        kernel = MaternKernel(beta=beta, dim=1)
        _, _, blocks = kernels_module._packet_factor(
            kernel, generate_points(UNIT_INTERVAL, 1024).points
        )
        magnitudes = np.abs(blocks[blocks != 0.0])
        assert magnitudes.size and np.min(magnitudes) >= np.finfo(float).tiny

    def test_kept_1024_point_factor_holds_under_12_mb(self):
        # A dense inverse beside the 8.4 MB Gram matrix held 16.8 MB.
        kernel = MaternKernel(beta=2.0, dim=1)
        entry = kernels_module._packet_factor(
            kernel, generate_points(UNIT_INTERVAL, 1024).points
        )
        assert sum(array.nbytes for array in entry) < 12e6
        assert all(not array.flags.writeable for array in entry)

    @pytest.mark.parametrize("columns", [1, 2, 33])
    @pytest.mark.parametrize("beta", [1.0, 2.0])
    @pytest.mark.parametrize(
        "count,layout",
        [
            (kernels_module._PACKET_BLOCK_ROWS - 1, "one dense block"),
            (kernels_module._PACKET_BLOCK_ROWS, "one dense block"),
            (4 * kernels_module._PACKET_BLOCK_ROWS, "whole blocks"),
            (3 * kernels_module._PACKET_BLOCK_ROWS + 17, "a partial last block"),
        ],
    )
    def test_apply_matches_the_dense_product(self, count, layout, beta, columns):
        kernel = MaternKernel(beta=beta, dim=1)
        rows = generate_points(UNIT_INTERVAL, count).points
        _, order, blocks = kernels_module._packet_factor(kernel, rows)
        block_rows = kernels_module._PACKET_BLOCK_ROWS
        if layout == "one dense block":
            assert blocks.shape == (1, count, count)
        else:
            assert blocks.shape[:2] == (-(-count // block_rows), block_rows)
        _, band = packet_band(kernel, count)
        dense = np.empty((count, count))
        dense[np.ix_(order, order)] = band_matrix(band)
        x = np.random.default_rng(columns).standard_normal((count, columns))
        expected = dense @ x
        result = kernels_module._band_apply(order, blocks, x)
        assert result.shape == (count, columns)
        assert np.max(np.abs(result - expected)) <= 1e-15 * np.max(np.abs(expected))

    @pytest.mark.parametrize("pivot", [0.0, np.nan])
    def test_zero_or_non_finite_pivot_raises(self, monkeypatch, fresh_factored_grams, pivot):
        band = kernels_module._packet_band

        def broken(*args):
            values = band(*args)
            values[0, values.shape[1] // 2] = pivot  # row 0's pivot is its diagonal
            return values

        monkeypatch.setattr(kernels_module, "_packet_band", broken)
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
        solution = kernels_module._solve_spd(kernel, nodes, rhs)
        scale = np.max(np.abs(rhs))
        assert np.max(np.abs(gram @ solution - rhs)) <= 1e-10 * scale
        off_node = np.random.default_rng(5).random((300, nodes.dim))
        between = kernel.gram(off_node, nodes.points)
        assert np.max(np.abs(between @ (solution - dense))) <= 1e-9 * scale

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
            return [
                grid_fit(
                    [k, k],
                    [sets[a], sets[b]],
                    smooth_values(tensor_grid([sets[a].points, sets[b].points])),
                ).coefficients
                for a, b in pairs
            ]

        first, again = fit_all(), fit_all()
        assert built == [2.0] * 3
        assert all(a.tobytes() == b.tobytes() for a, b in zip(first, again))
        cache = kernels_module._FACTORED_GRAMS
        assert cache.nbytes == sum(packet_bytes(n) for n in (4, 8, 16))

    def test_packet_path_takes_no_scipy(self, monkeypatch, fresh_factored_grams):
        def no_scipy(*args, **kwargs):
            raise AssertionError("the packet path called scipy")

        for name in ("cho_factor", "cho_solve", "bessel_k0", "bessel_k1"):
            monkeypatch.setattr(kernels_module, name, no_scipy)
        kernel, nodes = block_grid(((2.0, 1), (2.0, 1)), (33, 17))
        fit = fit_interpolant(kernel, nodes, smooth_values(nodes.points))
        residual = fit.evaluate(nodes.points) - smooth_values(nodes.points)
        assert np.max(np.abs(residual)) <= 1e-8


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
        tensor = single_block(k)
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

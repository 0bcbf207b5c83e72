import os
import subprocess
import sys

import numpy as np
import pytest

import kernelkit.surrogate as surrogate_module
from kernelkit.kernels import MaternKernel, TensorKernel, fit_interpolant
from kernelkit.multiindex import (
    combination_coefficients,
    corner_is_zero,
    delta_expand,
    enumerate_simplex,
)
from kernelkit.points import Box, Disc, PointSet, generate_points, tensor_grid
from kernelkit.smolyak import FactorSpec, ProblemSpec, SmolyakEngine
from kernelkit.surrogate import KernelExpansion, PacketExpansion, Surrogate
from kernelkit.uq import sparse_interpolate

UNIT_INTERVAL = Box((0.0,), (1.0,))
UNIT_SQUARE = Box((0.0, 0.0), (1.0, 1.0))
UNIT_DISC = Disc(center=(0.0, 0.0), radius=1.0)


def grid_fit(factor_kernels, factor_points, values):
    """The tensor-product interpolant on the product of per-factor point sets."""
    return fit_interpolant(
        TensorKernel(kernels=tuple(factor_kernels)), PointSet.product(factor_points), values
    )


def simple_terms():
    """Two weighted fits, each a one-term surrogate."""
    k = MaternKernel(beta=2.0, dim=1)
    nodes_a = generate_points(UNIT_INTERVAL, 6)
    nodes_b = generate_points(UNIT_INTERVAL, 9)
    ia = fit_interpolant(k, nodes_a, np.sin(nodes_a.points[:, 0]))
    ib = fit_interpolant(k, nodes_b, np.cos(nodes_b.points[:, 0]))
    return ((1.0, ib), (-0.5, ia))


def simple_surrogate():
    return Surrogate.weighted_sum(simple_terms())


def term_by_term(terms, points):
    """Unmerged evaluation ``sum_t c_t K_t alpha_t`` and its rounding scale.

    The scale is ``sum_t |c_t| |K_t| |alpha_t|``: merging reassociates these
    products, and the interpolation coefficients of an ill-conditioned fit
    are far larger than the values they produce.  Merged packet expansions
    sum the same grid values in another order, so for them the scale is
    ``sum_t |c_t| |f_t|``.
    """
    values = sum(c * fit.evaluate(points) for c, fit in terms)
    expansions = [(c, fit.terms[0][1]) for c, fit in terms]
    if isinstance(expansions[0][1], PacketExpansion):
        return values, sum(abs(c) * np.abs(fit.evaluate(points)) for c, fit in terms)
    scale = sum(
        abs(c) * (np.abs(e.kernel.gram(points, e.nodes.points)) @ np.abs(e.coefficients))
        for c, e in expansions
    )
    return values, scale


def assert_matches_term_by_term(surrogate, terms, points):
    expected, scale = term_by_term(terms, points)
    assert np.all(np.abs(surrogate.evaluate(points) - expected) <= 1e-12 * scale)


def sine_product(points):
    return np.sin(2 * np.pi * points[:, 0]) * np.sin(2 * np.pi * points[:, 1])


class TestSurrogateAlgebra:
    def test_weighted_evaluation(self):
        terms = simple_terms()
        xs = np.linspace(0.0, 1.0, 33).reshape(-1, 1)
        expected = terms[0][1].evaluate(xs) - 0.5 * terms[1][1].evaluate(xs)
        assert np.allclose(simple_surrogate().evaluate(xs), expected, atol=1e-14)

    def test_addition_merges_terms(self):
        s = simple_surrogate()
        total = Surrogate(terms=s.terms + s.terms)
        assert len(total.terms) == len(s.terms) == 1
        (_, doubled), (_, single) = total.terms[0], s.terms[0]
        assert np.array_equal(doubled.nodes.points, single.nodes.points)
        assert np.array_equal(doubled.coefficients, 2.0 * single.coefficients)

    def test_nodes_are_distinct_in_first_seen_order(self):
        ib, ia = (fit.terms[0][1] for _, fit in simple_terms())
        (_, merged), = simple_surrogate().terms
        # Nested prefixes: the 6 nodes of ia are the first 6 of ib.
        assert np.array_equal(merged.nodes.points, ib.nodes.points)
        expected = ib.coefficients.copy()
        expected[:6] += -0.5 * ia.coefficients
        assert np.array_equal(merged.coefficients, expected)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Surrogate(terms=())

    def test_mixed_kernels_or_domains_are_rejected(self):
        nodes = generate_points(UNIT_SQUARE, 20)
        values = sine_product(nodes.points)
        fa = fit_interpolant(MaternKernel(beta=2.0, dim=2), nodes, values)
        fb = fit_interpolant(MaternKernel(beta=3.0, dim=2), nodes, values)
        disc = generate_points(UNIT_DISC, 20)
        fc = fit_interpolant(MaternKernel(beta=2.0, dim=2), disc, sine_product(disc.points))
        for other in (fb, fc):
            with pytest.raises(ValueError, match="one kernel and one domain"):
                Surrogate.weighted_sum(((1.5, fa), (-0.5, other)))
        # Members of one stack share each chunk's block profiles.
        stack = Surrogate.stack([fa, fb])
        with pytest.raises(ValueError, match="share one kernel"):
            stack.evaluate(nodes.points)


class TestExpansionKinds:
    def test_kernel_and_packet_expansions_do_not_mix(self):
        # One kernel fits a product grid in the packet basis and the same
        # points as a plain point set in the kernel basis.
        k = MaternKernel(beta=2.0, dim=1)
        grids = [generate_points(UNIT_INTERVAL, 5), generate_points(UNIT_INTERVAL, 3)]
        grid = PointSet.product(grids)
        plain = PointSet(points=grid.points, domain=grid.domain)
        values = sine_product(grid.points)
        packets = grid_fit([k, k], grids, values)
        dense = fit_interpolant(TensorKernel(kernels=(k, k)), plain, values)
        assert isinstance(packets.terms[0][1], PacketExpansion)
        assert isinstance(dense.terms[0][1], KernelExpansion)
        with pytest.raises(ValueError, match="one kind of expansion"):
            Surrogate.weighted_sum(((1.0, packets), (-1.0, dense)))
        with pytest.raises(ValueError, match="one kernel and one basis"):
            Surrogate.stack([packets, dense]).evaluate(grid.points)

    def test_packet_sums_hold_each_grid_once(self):
        k = MaternKernel(beta=2.0, dim=1)
        grids = [generate_points(UNIT_INTERVAL, 9), generate_points(UNIT_INTERVAL, 5)]
        fit = grid_fit([k, k], grids, sine_product(tensor_grid([g.points for g in grids])))
        total = Surrogate.weighted_sum(((1.0, fit), (2.0, fit), (-0.5, fit)))
        ((_, merged),) = total.terms
        ((_, grid),) = fit.terms[0][1].grids
        assert merged.grids == ((2.5, grid),)
        assert merged.nodes.points.tobytes() == fit.terms[0][1].nodes.points.tobytes()
        points = np.random.default_rng(4).random((50, 2))
        assert np.allclose(total.evaluate(points), 2.5 * fit.evaluate(points), rtol=1e-14, atol=0)


def incremental_sum(pairs):
    """``c_0 v_0 + c_1 v_1 + ...`` of fits, merging after every term."""
    merged = ()
    for c, fit in pairs:
        merged = Surrogate(terms=merged + ((c, fit.terms[0][1]),)).terms
    return Surrogate(terms=merged)


def assert_same_expansions(a: Surrogate, b: Surrogate):
    assert len(a.terms) == len(b.terms)
    for (ca, ea), (cb, eb) in zip(a.terms, b.terms):
        assert ca == cb and ea.kernel == eb.kernel
        assert ea.nodes.points.tobytes() == eb.nodes.points.tobytes()
        if isinstance(ea, PacketExpansion):
            assert [(c, id(g)) for c, g in ea.grids] == [(c, id(g)) for c, g in eb.grids]
        else:
            assert ea.coefficients.tobytes() == eb.coefficients.tobytes()


class TestMergedExpansion:
    # beta 2.0 in one dimension (nu = 3/2) fits its grids in the packet
    # basis, beta 1.5 (nu = 1) in the kernel basis.
    @pytest.mark.parametrize("beta", [2.0, 1.5])
    def test_engine_merges_once_per_estimate_as_the_incremental_sum(self, monkeypatch, beta):
        k = MaternKernel(beta=beta, dim=1)
        spec = FactorSpec(gamma=1.0, beta=2.0, resolution_map=lambda l: 2**l)

        def evaluator(resolutions):
            grids = [generate_points(UNIT_INTERVAL, n) for n in resolutions]
            nodes = tensor_grid([g.points for g in grids])
            return grid_fit([k, k], grids, sine_product(nodes))

        problem = ProblemSpec(factors=(spec, spec), tensor_evaluator=evaluator)
        engine = SmolyakEngine(problem)
        engine.estimate(6)
        engine.estimate_via_deltas(6)
        merges = []
        merge = surrogate_module._merge

        def counting_merge(terms):
            merges.append(terms)
            return merge(terms)

        monkeypatch.setattr(surrogate_module, "_merge", counting_merge)
        value, _ = engine.estimate(6)
        deltas = engine.estimate_via_deltas(6)
        assert len(merges) == 2
        monkeypatch.undo()

        cache = engine._cache
        terms = [
            (t.coefficient, cache[problem.resolutions(t.index)])
            for t in combination_coefficients(2, 6)
        ]
        assert_same_expansions(value, incremental_sum(terms))
        deltas_plan = [
            (sign, cache[problem.resolutions(corner)])
            for index in enumerate_simplex(2, 6)
            for corner, sign in delta_expand(index)
            if not corner_is_zero(corner)
        ]
        assert_same_expansions(deltas, incremental_sum(deltas_plan))

    @pytest.mark.parametrize("beta", [2.0, 1.5])
    def test_sparse_interpolate_matches_term_by_term(self, beta):
        k = MaternKernel(beta=beta, dim=1)
        L = 6
        s = sparse_interpolate([k, k], [UNIT_INTERVAL, UNIT_INTERVAL], sine_product, L=L)
        terms = []
        for term in combination_coefficients(2, L):
            grids = [generate_points(UNIT_INTERVAL, 2**level) for level in term.index]
            samples = sine_product(tensor_grid([g.points for g in grids]))
            interp = grid_fit([k, k], grids, samples)
            terms.append((term.coefficient, interp))
        (_, merged), = s.terms
        assert len(merged.nodes) < sum(len(fit.terms[0][1].nodes) for _, fit in terms)
        assert_matches_term_by_term(s, terms, np.random.default_rng(1).random((300, 2)))

    def test_disc_surrogate_matches_term_by_term(self):
        k = MaternKernel(beta=4.0, dim=2)
        terms = []
        for count, weight in ((8, -1.0), (16, 2.0), (32, 1.0)):
            nodes = generate_points(UNIT_DISC, count)
            values = np.cos(count * nodes.points[:, 0]) + nodes.points[:, 1]
            terms.append((weight, fit_interpolant(k, nodes, values)))
        s = Surrogate.weighted_sum(terms)
        (_, merged), = s.terms
        assert len(merged.nodes) == 32
        assert_matches_term_by_term(s, terms, generate_points(UNIT_DISC, 200).points)

    @pytest.mark.parametrize("offset", [None, -1, 0, 1])
    def test_chunked_evaluation_matches_one_gram(self, offset):
        kernel = TensorKernel(kernels=(MaternKernel(beta=2.0, dim=2),))
        nodes = generate_points(UNIT_SQUARE, 1000)
        coefficients = np.random.default_rng(4).standard_normal(1000)
        s = Surrogate(terms=((1.0, KernelExpansion(kernel, nodes, coefficients)),))
        chunk = surrogate_module._STACK_BLOCK_ENTRIES // len(nodes)
        count = 1 if offset is None else chunk + offset
        xs = np.random.default_rng(5).random((count, 2))
        expected = kernel.gram(xs, nodes.points) @ coefficients
        got = s.evaluate(xs)
        assert got.shape == (count,)
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_outside_domain_is_refused(self):
        # Within Box.contains' tolerance of the domain a point is evaluated;
        # the first point farther out is named.
        s = simple_surrogate()
        with pytest.raises(ValueError, match=r"point 2, \[1\.5\], lies outside its domain"):
            s.evaluate(np.array([[0.5], [1.0 + 1e-12], [1.5], [-0.5]]))
        assert s.evaluate(np.array([[-1e-12], [0.5]])).shape == (2,)


def disc_family(rng):
    """ouu-like: signed sums of one-block fits on nested disc prefixes."""
    kernel = MaternKernel(beta=4.0, dim=2, length_scale=0.5)
    fits = {}
    for count in (8, 16, 32, 64, 128):
        nodes = generate_points(UNIT_DISC, count)
        values = np.cos(nodes.points @ [1.3, -0.7]) + rng.normal(0.0, 0.01, count)
        fits[count] = fit_interpolant(kernel, nodes, values)
    members = [fits[128]]
    for low, mid, high in ((8, 16, 32), (16, 32, 64), (32, 64, 128)):
        terms = ((1.0, fits[high]), (1.0, fits[mid]), (-1.0, fits[low]))
        members.append(Surrogate.weighted_sum(terms))
    points = rng.uniform(-1.0, 1.0, (3000, 2))
    return members, points[np.sum(points**2, axis=1) <= 1.0][:1200]


def sparse_family(kernel, domain, rng):
    """interp- and rsr-like: two-block sparse interpolants at L = 3..7."""

    def target(points):
        return np.prod(np.sin(2.0 * np.pi * points), axis=1)

    members = [
        sparse_interpolate([kernel] * 2, [domain] * 2, target, L=L) for L in range(3, 8)
    ]
    return members, rng.random((1200, 2 * domain.dim))


def stacked_family(name):
    """Members of one kernel and the points to evaluate them at: "interval"
    fits its grids in the packet basis (nu = 3/2), the others in the kernel
    basis, "bessel" on the same grids as "interval" at nu = 1."""
    rng = np.random.default_rng(11)
    if name == "disc":
        return disc_family(rng)
    if name == "interval":
        return sparse_family(MaternKernel(beta=2.0, dim=1), UNIT_INTERVAL, rng)
    if name == "bessel":
        return sparse_family(MaternKernel(beta=1.5, dim=1), UNIT_INTERVAL, rng)
    return sparse_family(MaternKernel(beta=3.0, dim=2), UNIT_SQUARE, rng)


def assert_columns_match(stacked, members, points):
    assert stacked.shape == (len(points), len(members))
    for column, member in zip(stacked.T, members):
        alone = member.evaluate(points)
        assert np.max(np.abs(column - alone)) <= 1e-13 * np.max(np.abs(alone))


class TestStackedEvaluation:
    @pytest.mark.parametrize("family", ["disc", "interval", "bessel", "square"])
    def test_columns_match_members_evaluated_alone(self, family):
        members, points = stacked_family(family)
        # Several chunks, the last one short.
        stack = Surrogate.stack(members)
        rows = surrogate_module._STACK_BLOCK_ENTRIES // stack._layout.columns
        assert rows < len(points) and len(points) % rows != 0
        assert_columns_match(stack.evaluate(points), members, points)

    def test_nested_members_share_rows_without_gathers(self):
        members, _ = stacked_family("bessel")
        layout = Surrogate.stack(members)._layout
        widest = members[-1].terms[0][1]._plan
        assert [len(r) for r in layout.node_rows] == [len(r) for r in widest.node_rows]
        assert all(isinstance(last, slice) for _, last in layout.members)

    def test_one_member_stack_equals_plain_evaluate(self):
        members, points = stacked_family("square")
        stacked = Surrogate.stack(members[-1:]).evaluate(points)
        assert stacked.shape == (len(points), 1)
        assert_columns_match(stacked, members[-1:], points)

    @pytest.mark.parametrize("beta", [1.5, 2.0])
    def test_unnested_members(self, beta):
        # In the kernel basis (beta 1.5), a sparse grid's last-block columns
        # are a slice of the shared rows, and a grid whose last block runs
        # backwards gathers its columns; packets (beta 2.0) sort each factor.
        rng = np.random.default_rng(5)
        kernel = MaternKernel(beta=beta, dim=1)
        backwards = generate_points(UNIT_INTERVAL, 7).points[::-1].copy()
        tensor = grid_fit(
            [kernel, kernel],
            [generate_points(UNIT_INTERVAL, 5), PointSet(backwards, UNIT_INTERVAL)],
            rng.standard_normal(35),
        )
        members = [
            sparse_interpolate([kernel] * 2, [UNIT_INTERVAL] * 2, sine_product, L=4),
            tensor,
        ]
        points = rng.random((301, 2))
        assert_columns_match(Surrogate.stack(members).evaluate(points), members, points)
        if beta == 1.5:
            layout = Surrogate.stack(members)._layout
            assert [slice, np.ndarray] == [type(last) for _, last in layout.members]

    def test_packet_members_with_a_kernel_translate_grid(self):
        # A grid with two points 1e-9 apart takes the eigen solve and keeps
        # its coefficients over its factors' kernel translates; summed with
        # a packet grid and stacked, it evaluates as its members do alone.
        k = MaternKernel(beta=2.0, dim=1)
        halton = generate_points(UNIT_INTERVAL, 9)
        close = PointSet(points=np.vstack([halton.points, [[0.5 + 1e-9]]]), domain=UNIT_INTERVAL)
        other = generate_points(UNIT_INTERVAL, 7)

        def fit(grids):
            values = sine_product(tensor_grid([g.points for g in grids]))
            return grid_fit([k, k], grids, values)

        translates, packets = fit([close, other]), fit([halton, other])
        ((_, grid),) = translates.terms[0][1].grids
        assert not any(basis.packets for basis in grid.bases)
        members = [Surrogate.weighted_sum(((1.0, packets), (-0.5, translates))), packets, translates]
        points = np.random.default_rng(3).random((301, 2))
        assert_columns_match(Surrogate.stack(members).evaluate(points), members, points)

    @pytest.mark.parametrize("family", ["interval", "bessel"])
    def test_temporaries_stay_within_the_chunk_budget(self, monkeypatch, family):
        members, _ = stacked_family(family)
        points = np.random.default_rng(2).random((500, 2))
        budget = 4096
        monkeypatch.setattr(surrogate_module, "_STACK_BLOCK_ENTRIES", budget)
        stack = Surrogate.stack(members)
        assert points.size <= budget and len(points) * len(members) <= budget
        package = os.path.dirname(surrogate_module.__file__)
        sizes = []

        def record(frame, event, arg):
            for value in (*frame.f_locals.values(), arg):
                items = value if isinstance(value, (list, tuple)) else (value,)
                sizes.extend(a.size for a in items if isinstance(a, np.ndarray))
            return record

        def enter(frame, event, arg):
            return record if frame.f_code.co_filename.startswith(package) else None

        sys.settrace(enter)
        try:
            stack.evaluate(points)
        finally:
            sys.settrace(None)
        assert budget // 2 < max(sizes) <= budget

    def test_a_stack_is_only_evaluated(self):
        stack = Surrogate.stack([simple_surrogate()] * 2)
        with pytest.raises(ValueError):
            Surrogate.stack([stack])
        with pytest.raises(ValueError):
            Surrogate.stack([])
        with pytest.raises(ValueError, match="outside its domain"):
            stack.evaluate(np.array([[1.5]]))


class TestOneEvaluationPath:
    def test_surrogate_imports_without_kernels_or_packets(self):
        # Fitted functions are held and evaluated in one module, which the
        # fitting module imports, never the other way round.
        code = (
            "import sys, kernelkit.surrogate; "
            "print(sorted(m for m in sys.modules if m in ('kernelkit.kernels', 'kernelkit.packets')))"
        )
        src = os.path.dirname(os.path.dirname(surrogate_module.__file__))
        result = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]", result.stdout

    def test_plain_evaluate_is_column_zero_of_its_stack(self):
        disc, disc_points = stacked_family("disc")
        square, square_points = stacked_family("square")
        cases = [(m, disc_points) for m in disc] + [(m, square_points) for m in square]
        for member, points in cases:
            stacked = Surrogate.stack([member]).evaluate(points)
            assert member.evaluate(points).tobytes() == stacked[:, 0].tobytes()

    def test_repeated_calls_lay_out_once(self, monkeypatch):
        layouts = []
        stack_layout = surrogate_module.stack_layout

        def counting_layout(expansions):
            layouts.append(len(expansions))
            return stack_layout(expansions)

        monkeypatch.setattr(surrogate_module, "stack_layout", counting_layout)
        members, points = stacked_family("disc")
        for point in points[:20]:
            members[1](point)
        members[1].evaluate(points)
        assert layouts == [1]

    def test_fit_point_calls_lay_out_once(self, monkeypatch):
        nodes = generate_points(UNIT_DISC, 128)
        fit = fit_interpolant(MaternKernel(beta=3.0, dim=2), nodes, sine_product(nodes.points))
        points = 0.5 * np.random.default_rng(5).uniform(-1.0, 1.0, (20, 2))
        expected = [Surrogate(terms=fit.terms)(point) for point in points]
        layouts = []
        stack_layout = surrogate_module.stack_layout

        def counting_layout(expansions):
            layouts.append(len(expansions))
            return stack_layout(expansions)

        monkeypatch.setattr(surrogate_module, "stack_layout", counting_layout)
        values = [fit(point) for point in points]
        assert layouts == [1]
        assert np.array(values).tobytes() == np.array(expected).tobytes()

    def test_each_evaluation_is_one_surrogate_evaluate_call(self, monkeypatch):
        calls = []
        evaluate = Surrogate.evaluate

        def counting_evaluate(self, *args, **kwargs):
            calls.append(self)
            return evaluate(self, *args, **kwargs)

        monkeypatch.setattr(Surrogate, "evaluate", counting_evaluate)
        members, points = stacked_family("disc")
        fit = members[0]  # a fit is a one-term surrogate
        evaluations = [
            lambda: members[1].evaluate(points),
            lambda: members[1](points[0]),
            lambda: Surrogate.stack(members).evaluate(points),
            lambda: fit.evaluate(points),
            lambda: fit(points[0]),
        ]
        for count, evaluation in enumerate(evaluations, start=1):
            evaluation()
            assert len(calls) == count

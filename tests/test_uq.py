import math

import numpy as np
import pytest

from kernelkit.kernels import MaternKernel, TensorKernel, fit_interpolant
from kernelkit.pde import (
    AdvectionDiffusionProblem,
    GaussianFieldSampler,
    Mesh,
    _field_factor,
)
from kernelkit.points import Box, Disc, PointSet, generate_points, philox_generator, random_points
from kernelkit.smolyak import (
    EvaluationError,
    ProblemSpec,
    SmolyakEngine,
    fit_loglog_slope,
    level_to_resolution,
    predicted_rates,
)
from kernelkit.uq import (
    InterpolationFactor,
    OuuObjective,
    OuuPipeline,
    build_expectation_problem,
    doubling_levels,
    expectation_study,
    interpolation_factor,
    interpolation_problem,
    kernel_quadrature_factor,
    midpoint_quadrature_factor,
    minimize_objective,
    ouu_sample_specs,
    ouu_study,
    surface_study,
    synthetic_bias_factor,
)

UNIT_INTERVAL = Box((0.0,), (1.0,))
UNIT_DISC = Disc(center=(0.0, 0.0), radius=1.0)
# The study points of an ouu study at seed 0 with the default count.
STUDY_POINTS = random_points(UNIT_DISC, 2048, seed=0)


def parabola_factors():
    quad = midpoint_quadrature_factor(beta=2.0)
    sample = synthetic_bias_factor(lambda pts: pts[:, 0] ** 2, gamma=1.0, kappa=1.0)
    return quad, sample


def expectation_estimate(quad_factors, sample, L):
    return SmolyakEngine(build_expectation_problem(quad_factors, sample)).estimate(L)


def surface_estimate(interp_factors, sample, L):
    problem = interpolation_problem(interp_factors, sample.values, (sample.spec,))
    return SmolyakEngine(problem).estimate(L)


class TestMultilevelExpectation:
    def test_study_errors_are_the_engine_estimates(self):
        quad, sample = parabola_factors()
        rows = expectation_study([quad], sample, range(2, 7), 1.0 / 3.0)
        quad, sample = parabola_factors()
        engine = SmolyakEngine(build_expectation_problem([quad], sample))
        for row in rows:
            value, ledger = engine.estimate(row["L"])
            assert row["error_l2"] == row["error_linf"] == abs(1.0 / 3.0 - value)
            assert row["work_units"] == ledger.total_work
            assert row["pde_solves"] == sample.solve_count

    def test_matches_telescoped_double_sum(self):
        quad, sample = parabola_factors()
        for L in range(2, 7):
            value, _ = expectation_estimate([quad], sample, L)
            total = 0.0
            for l1 in range(1, L):
                l2 = L - l1
                pts, w = quad.rule(level_to_resolution(quad.spec, l1))
                fine = sample.values(pts, level_to_resolution(sample.spec, l2))
                if l2 == 1:
                    coarse = np.zeros(len(pts))
                else:
                    coarse = sample.values(pts, level_to_resolution(sample.spec, l2 - 1))
                total += float(w @ (fine - coarse))
            assert abs(value - total) <= 1e-12 * max(1.0, abs(total))

    def test_exact_quadrature_with_saturating_samples(self):
        # Quadrature exact for the integrand; sample family exact from level 2.
        def rule(count):
            pts = np.array([[0.5 - 0.5 / math.sqrt(3.0)], [0.5 + 0.5 / math.sqrt(3.0)]])
            return pts, np.array([0.5, 0.5])  # 2-point Gauss, exact for cubics

        from kernelkit.smolyak import FactorSpec
        from kernelkit.uq import QuadratureFactor, SampleFactor

        quad = QuadratureFactor(spec=FactorSpec(gamma=1.0, beta=2.0), rule=rule, dim=1)
        cap = level_to_resolution(FactorSpec(gamma=1.0, beta=1.0), 2)

        def evaluate_one(point, resolution):
            return float(point[0] ** 2) + 1.0 / min(resolution, cap)

        sample = SampleFactor(
            spec=FactorSpec(gamma=1.0, beta=1.0), evaluate_one=evaluate_one
        )
        value, _ = expectation_estimate([quad], sample, 8)
        assert value == pytest.approx(1.0 / 3.0 + 1.0 / cap, rel=1e-12)

    def test_synthetic_error_slope(self):
        quad, sample = parabola_factors()
        pred = predicted_rates([quad.spec, sample.spec])
        rows = expectation_study([quad], sample, range(2, 15), 1.0 / 3.0)
        slope = fit_loglog_slope(
            [(r["work_units"], r["error_l2"]) for r in rows], window=0.5
        )
        assert abs(slope - pred.slope) <= 0.3 * abs(pred.slope)

    def test_work_model_is_product_of_resolutions(self):
        quad, sample = parabola_factors()
        _, ledger = expectation_estimate([quad], sample, 5)
        recomputed = 0.0
        for index, work in ledger.per_term:
            n1 = level_to_resolution(quad.spec, index[0])
            n2 = level_to_resolution(sample.spec, index[1])
            assert work == pytest.approx(n1 * n2, rel=1e-13)
            recomputed += work
        assert ledger.total_work == pytest.approx(recomputed, rel=1e-13)


class TestMultiindexExpectation:
    def test_constant_integrand_with_kernel_quadrature(self):
        kernel = MaternKernel(beta=2.0, dim=1)
        quad = kernel_quadrature_factor(kernel, UNIT_INTERVAL)
        constant = 4.2
        from kernelkit.smolyak import FactorSpec
        from kernelkit.uq import SampleFactor

        sample = SampleFactor(
            spec=FactorSpec(gamma=1.0, beta=1.0),
            evaluate_one=lambda point, resolution: constant,
        )
        L = 6
        value, _ = expectation_estimate([quad], sample, L)
        # Kernel rules integrate constants only up to a measurable defect.
        n_top = level_to_resolution(quad.spec, L - 1)
        pts, w = quad.rule(n_top)
        defect = float(w.sum()) - 1.0
        assert value == pytest.approx(constant * (1.0 + defect), abs=1e-9)

    def test_two_block_sine_product_converges(self):
        kernel = MaternKernel(beta=2.0, dim=1)
        quads = [
            kernel_quadrature_factor(kernel, UNIT_INTERVAL),
            kernel_quadrature_factor(kernel, UNIT_INTERVAL),
        ]
        integrand = lambda pts: np.sin(2 * np.pi * pts[:, 0]) * np.sin(
            2 * np.pi * pts[:, 1]
        )
        sample = synthetic_bias_factor(integrand, gamma=1.5, kappa=1.0)
        rows = []
        engine = SmolyakEngine(build_expectation_problem(quads, sample))
        reference, _ = engine.estimate(10)
        for L in range(3, 9):
            value, _ = engine.estimate(L)
            rows.append(abs(value - reference))
        assert all(b <= a + 1e-15 for a, b in zip(rows, rows[1:]))
        assert rows[-1] < 0.2 * rows[0]


class TestInterpolationFactor:
    def test_domain_and_kernel_dimensions_must_match(self):
        # Caught when the factor is built, not deep inside the first fit.
        with pytest.raises(ValueError, match="dimension 2 != kernel dimension 1"):
            interpolation_factor(MaternKernel(beta=2.0, dim=1), UNIT_DISC)
        with pytest.raises(ValueError, match="dimension 1 != kernel dimension 2"):
            kernel_quadrature_factor(MaternKernel(beta=2.0, dim=2), UNIT_INTERVAL)

    def test_rate_must_be_positive(self):
        with pytest.raises(ValueError, match="nonpositive interpolation rate"):
            interpolation_factor(MaternKernel(beta=2.0, dim=1), UNIT_INTERVAL, alpha=2.0)

    def test_kernel_quadrature_converges_at_the_interpolation_rate(self):
        kernel = MaternKernel(beta=3.0, dim=2)
        box = Box((0.0, 0.0), (1.0, 1.0))
        quad = kernel_quadrature_factor(kernel, box, alpha=1.0)
        assert quad.spec.beta == interpolation_factor(kernel, box, alpha=1.0).spec.beta == 1.0
        assert quad.spec.gamma == 1.0


class TestResponseSurface:
    def test_exactness_for_native_target(self):
        kernel = MaternKernel(beta=2.0, dim=1)
        factor = interpolation_factor(kernel, UNIT_INTERVAL)
        anchors = factor.points(level_to_resolution(factor.spec, 1))
        coeffs = np.array([1.5, -0.75])
        tensor = TensorKernel(kernels=(kernel,))

        def target(pts):
            return tensor.gram(pts, anchors.points) @ coeffs

        from kernelkit.smolyak import FactorSpec
        from kernelkit.uq import SampleFactor

        sample = SampleFactor(
            spec=FactorSpec(gamma=1.5, beta=1.0),
            evaluate_one=lambda point, resolution: float(target(point.reshape(1, -1))[0]),
        )
        surrogate, _ = surface_estimate([factor], sample, 5)
        test_pts = random_points(UNIT_INTERVAL, 100, seed=3)
        err = surrogate.evaluate(test_pts) - target(test_pts)
        assert np.max(np.abs(err)) <= 1e-7

    def test_surrogate_linearity_in_samples(self):
        from kernelkit.smolyak import FactorSpec
        from kernelkit.uq import SampleFactor

        kernel = MaternKernel(beta=2.0, dim=1)
        results = []
        for scale in (1.0, 2.0):
            factor = interpolation_factor(kernel, UNIT_INTERVAL)
            sample = SampleFactor(
                spec=FactorSpec(gamma=1.5, beta=1.0),
                evaluate_one=lambda point, resolution, s=scale: s
                * (math.exp(point[0]) + 1.0 / resolution),
            )
            results.append(surface_estimate([factor], sample, 5)[0])
        xs = random_points(UNIT_INTERVAL, 64, seed=4)
        assert np.allclose(
            2.0 * results[0].evaluate(xs), results[1].evaluate(xs), rtol=0, atol=1e-12
        )

    def test_study_rows_are_consistent(self):
        kernel = MaternKernel(beta=2.0, dim=1)
        factor = interpolation_factor(kernel, UNIT_INTERVAL)
        sample = synthetic_bias_factor(
            lambda pts: np.sin(2 * np.pi * pts[:, 0]), gamma=1.5, kappa=1.0
        )
        pts = random_points(UNIT_INTERVAL, 256, seed=6)
        rows = surface_study([factor], sample, range(2, 7), eval_points=pts)
        works = [r["work_units"] for r in rows]
        assert works == sorted(works)
        assert all(r["error_l2"] <= r["error_linf"] + 1e-15 for r in rows)

    def test_pde_work_model_charged_per_term(self):
        from kernelkit.multiindex import combination_coefficients
        from kernelkit.uq import bump_sample_factor

        kernel = MaternKernel(beta=2.0, dim=2)
        box = Box((0.25, 0.25), (0.75, 0.75))
        factor = interpolation_factor(kernel, box)
        sample = bump_sample_factor(n_bumps=1, max_cells=16)
        L = 5
        _, ledger = surface_estimate([factor], sample, L)
        expected = sum(
            level_to_resolution(factor.spec, term.index[0])
            * level_to_resolution(sample.spec, term.index[1]) ** 1.5
            for term in combination_coefficients(2, L)
        )
        assert ledger.total_work == pytest.approx(expected, rel=1e-12)


def stub_interp_factor():
    kernel = MaternKernel(beta=4.0, dim=2)
    return interpolation_factor(
        kernel, UNIT_DISC, alpha=1.0, resolution_map=doubling_levels
    )


def ouu_factors():
    """An ouu run plan's factors: the stub control factor, unit scales and
    meshes of at most 4 cells per axis."""
    return (stub_interp_factor(), *ouu_sample_specs(1.0, 1.0, 4))


class TestOuuPipeline:
    def test_degenerate_factors_reduce_to_interpolation(self):
        target = lambda z: float(np.sin(z[0]) + 0.5 * z[1])
        pipeline = OuuPipeline(
            ouu_factors(),
            seed=0,
            stream=1,
            qoi=lambda z, field, mesh: target(z),
            field_grid=Mesh(cells=8),
        )
        L = 6
        surrogate, _ = pipeline.engine.estimate(L)
        count = level_to_resolution(pipeline.interp_factor.spec, L - 2)
        nodes = generate_points(UNIT_DISC, count)
        direct = fit_interpolant(
            pipeline.interp_factor.kernel,
            nodes,
            np.array([target(z) for z in nodes.points]),
        )
        pts = random_points(UNIT_DISC, 200, seed=1)
        assert np.max(np.abs(surrogate.evaluate(pts) - direct.evaluate(pts))) <= 1e-9

    def test_draw_sets_shared_across_mesh_levels(self):
        pipeline = OuuPipeline(
            ouu_factors(),
            seed=0,
            stream=2,
            field_grid=Mesh(cells=8),
        )
        pipeline.engine.estimate(5)
        draws_by_cells = {}
        for draw, cells in pipeline._prefixes:
            draws_by_cells.setdefault(cells, set()).add(draw)
        assert len(draws_by_cells) > 1
        # Every mesh resolution consumed a prefix of the same draw sequence.
        for draws in draws_by_cells.values():
            assert draws == set(range(len(draws)))

    def test_solve_cache_couples_corners(self, means_log):
        pipeline = OuuPipeline(
            ouu_factors(),
            seed=0,
            stream=3,
            field_grid=Mesh(cells=8),
        )
        pipeline.engine.estimate(5)
        # Every tuple's draws are in the store, each over a prefix at least
        # as long as the tuple's node count.
        assert len(means_log) == pipeline.engine.evaluations > 0
        for n_points, n_draws, mesh_resolution in means_log:
            cells = math.isqrt(mesh_resolution)
            for draw in range(n_draws):
                assert len(pipeline._prefixes[draw, cells]) >= n_points

    def test_estimator_unbiased_on_noisy_stub(self):
        target = 1.7

        def qoi(z, field, mesh):
            return target + 0.3 * float(field.values[0])

        values = []
        for seed in range(100):
            pipeline = OuuPipeline(
                ouu_factors(),
                seed=seed,
                stream=1,
                qoi=qoi,
                field_grid=Mesh(cells=4),
            )
            values.append(pipeline.engine.estimate(4)[0](np.array([0.2, 0.1])))
        values = np.array(values)
        stderr = values.std(ddof=1) / math.sqrt(len(values))
        assert abs(values.mean() - target) <= 4.0 * max(stderr, 1e-12)

    def test_objective_at_origin_has_no_penalty(self):
        pipeline = OuuPipeline(
            ouu_factors(),
            seed=0,
            stream=1,
            qoi=lambda z, field, mesh: float(z[0] ** 2),
            field_grid=Mesh(cells=4),
        )
        surrogate = pipeline.engine.estimate(4)[0]
        objective = OuuObjective(surrogate=surrogate)
        origin = np.zeros(2)
        assert objective(origin) == pytest.approx(float(surrogate(origin)))

    def test_linearity_under_qoi_scaling(self):
        def build(scale):
            pipeline = OuuPipeline(
                ouu_factors(),
                seed=0,
                stream=1,
                qoi=lambda z, field, mesh: scale
                * (1.0 + z[0] + 0.1 * float(field.values[0])),
                field_grid=Mesh(cells=4),
            )
            return pipeline.engine.estimate(5)[0]

        xs = random_points(UNIT_DISC, 50, seed=2)
        a = build(1.0).evaluate(xs)
        b = build(2.0).evaluate(xs)
        assert np.allclose(2.0 * a, b, rtol=0, atol=1e-10)


class TestMinimizeObjective:
    def test_quadratic_bowl(self):
        z0 = np.array([0.3, 0.2])
        objective = lambda z: float(np.sum((np.asarray(z) - z0) ** 2))
        z, value = minimize_objective(objective, restarts=6)
        assert np.linalg.norm(z - z0) <= 1e-3
        assert value <= 1e-6

    def test_pure_penalty(self):
        objective = OuuObjective(surrogate=_zero_surrogate())
        z, _ = minimize_objective(objective, restarts=6)
        assert np.linalg.norm(z) <= 1e-3

    def test_objective_evaluates_each_point_once(self):
        surrogate = _zero_surrogate()
        evaluated, probed = [], []

        def counted(z):
            evaluated.append(np.asarray(z).tobytes())
            return surrogate(z)

        objective = OuuObjective(surrogate=counted)

        def probe(z):
            probed.append(np.asarray(z).tobytes())
            return objective(z)

        def plain(z):
            z = np.asarray(z, dtype=float)
            return float(surrogate(z)) + 0.1 * float(z @ z)

        z, value = minimize_objective(probe, restarts=3)
        # The search revisits points; each is evaluated once, and the
        # search takes the same path as without the kept values.
        assert len(probed) > len(evaluated) == len(set(probed))
        assert sorted(evaluated) == sorted(set(probed))
        reference, reference_value = minimize_objective(plain, restarts=3)
        assert z.tobytes() == reference.tobytes() and value == reference_value

    def test_minimizer_stays_in_disc(self):
        objective = lambda z: -float(z[0])  # pushes toward the boundary
        z, _ = minimize_objective(objective, restarts=4)
        assert np.linalg.norm(z) <= 1.0 + 1e-9
        assert z[0] == pytest.approx(1.0, abs=1e-3)


def _zero_surrogate():
    kernel = MaternKernel(beta=4.0, dim=2)
    nodes = generate_points(UNIT_DISC, 3)
    return fit_interpolant(kernel, nodes, np.zeros(3))


class TestDeterminism:
    def test_philox_draws_are_order_independent(self):
        a = philox_generator(3, 1, draw=7).standard_normal(4)
        philox_generator(3, 1, draw=6).standard_normal(100)
        b = philox_generator(3, 1, draw=7).standard_normal(4)
        assert np.array_equal(a, b)


class TestPdeSolvesColumn:
    def test_expectation_study_counts_are_cumulative(self):
        from kernelkit.smolyak import FactorSpec
        from kernelkit.uq import SampleFactor

        calls = []

        def evaluate_one(point, resolution):
            calls.append((resolution, float(point[0])))
            return float(point[0] ** 2) + 1.0 / resolution

        def factors():
            quad = midpoint_quadrature_factor(beta=2.0)
            return quad, SampleFactor(FactorSpec(gamma=1.0, beta=1.0), evaluate_one)

        quad, sample = factors()
        rows = expectation_study([quad], sample, range(2, 6), 1.0 / 3.0)
        assert len(set(calls)) == len(calls) == rows[-1]["pde_solves"]
        # Replay: the rows in order, each reporting every distinct solve
        # made so far.
        quad, sample = factors()
        engine = SmolyakEngine(build_expectation_problem([quad], sample))
        expected = []
        for L in range(2, 6):
            engine.estimate(L)
            expected.append(sample.solve_count)
        assert [r["pde_solves"] for r in rows] == expected
        assert expected == sorted(expected) and expected[0] < expected[-1]

    def test_ouu_study_counts_are_cumulative_over_replications(self):
        calls = []

        def qoi(z, field, mesh):
            calls.append(1)
            return float(z[0]) + 0.1 * float(field.values[0])

        settings = dict(qoi=qoi, field_grid=Mesh(cells=4))
        OuuPipeline(ouu_factors(), seed=0, stream=0, **settings).engine.estimate(6)
        reference_solves = len(calls)
        calls.clear()
        rows, _ = ouu_study(
            ouu_factors(),
            [3, 4, 5],
            seed=0,
            eval_points=STUDY_POINTS,
            replications=2,
            reference_L=6,
            **settings,
        )
        solves = [r["pde_solves"] for r in rows]
        assert solves == sorted(solves) and solves[0] < solves[-1]
        # The last row counts every replication solve, but not the reference.
        assert len(calls) == reference_solves + solves[-1]


class TestSolveOnce:
    def test_sample_factor_evaluates_each_input_once(self):
        from kernelkit.smolyak import FactorSpec, ProblemSpec
        from kernelkit.uq import SampleFactor

        calls = []

        def evaluate_one(point, resolution):
            calls.append((resolution, point.tobytes()))
            return float(point[0]) * resolution

        sample = SampleFactor(FactorSpec(gamma=1.0, beta=1.0), evaluate_one)
        points = np.linspace(0.0, 1.0, 6).reshape(-1, 1)

        def evaluator(resolutions):
            return float(sample.values(points, resolutions[1]).sum()) / resolutions[0]

        factors = (FactorSpec(gamma=1.0, beta=1.0), FactorSpec(gamma=1.0, beta=1.0))
        engine = SmolyakEngine(ProblemSpec(factors, evaluator))
        engine.estimate(8)
        assert len(calls) == len(set(calls)) == sample.solve_count

    def test_ouu_pipeline_solves_once_on_identical_redrawn_fields(self, monkeypatch):
        solves, drawn = [], []
        sample = GaussianFieldSampler.sample

        def counting(sampler, seed, draw):
            drawn.append(draw)
            return sample(sampler, seed, draw)

        monkeypatch.setattr(GaussianFieldSampler, "sample", counting)

        def qoi(z, field, mesh):
            value = float(z[0]) + 0.1 * float(field.values[0])
            solves.append((z.tobytes(), field.draw, mesh.cells, value, field.values.tobytes()))
            return value

        pipeline = small_ouu_pipeline(qoi)
        pipeline.engine.estimate(6)
        keys = [solve[:3] for solve in solves]
        assert len(keys) == len(set(keys)) == pipeline.pde_solves
        # The store holds, per (draw, cells), the values of the node prefix
        # in the order they were solved.
        longest = max(map(len, pipeline._prefixes.values()))
        nodes = pipeline.interp_factor.points(longest).points
        for (draw, cells), done in pipeline._prefixes.items():
            mine = [s for s in solves if s[1:3] == (draw, cells)]
            assert [s[0] for s in mine] == [z.tobytes() for z in nodes[: len(done)]]
            assert done.tolist() == [s[3] for s in mine]
        # Unplanned tuples draw their fields again: every solve of a draw
        # saw the same field, bit for bit.
        draws = {draw for draw, _ in pipeline._prefixes}
        assert len(drawn) > len(set(drawn)) == len(draws)
        assert len({(s[1], s[4]) for s in solves}) == len(draws)

    def test_each_tuple_solves_only_its_new_suffix(self):
        calls = []

        def qoi(z, field, mesh):
            calls.append((z.tobytes(), field.draw, mesh.cells))
            return stub_qoi(z, field, mesh)

        pipeline = small_ouu_pipeline(qoi)
        nodes = pipeline.interp_factor.points(6).points

        def solved_by(resolutions):
            calls.clear()
            pipeline.engine.problem.tensor_evaluator(resolutions)
            return sorted(calls)

        def expected(draws, first, last, cells):
            return sorted(
                (z.tobytes(), draw, cells) for draw in draws for z in nodes[first:last]
            )

        assert solved_by((3, 2, 16)) == expected([0, 1], 0, 3, 4)
        assert solved_by((6, 2, 16)) == expected([0, 1], 3, 6, 4)
        assert solved_by((4, 3, 16)) == expected([2], 0, 4, 4)
        assert solved_by((2, 3, 16)) == []
        assert solved_by((2, 1, 9)) == expected([0], 0, 2, 3)
        assert pipeline.pde_solves == 6 + 6 + 4 + 2

    def test_estimate_equals_a_plain_per_node_loop(self):
        pipeline = OuuPipeline(ouu_factors(), seed=0, stream=1, field_grid=Mesh(cells=4))
        problem = AdvectionDiffusionProblem()

        def plain(resolutions):
            n_points, n_draws, mesh_resolution = resolutions
            mesh = Mesh(cells=math.isqrt(mesh_resolution))
            nodes = pipeline.interp_factor.points(n_points)
            sampler = GaussianFieldSampler(pipeline.field_grid, stream=pipeline.stream)
            sums = np.zeros(n_points)
            for k in range(n_draws):
                field = sampler.sample(pipeline.seed, k)
                for i, z in enumerate(nodes.points):
                    sums[i] += problem.sample_qoi(z, field, mesh)
            return fit_interpolant(pipeline.interp_factor.kernel, nodes, sums / n_draws)

        looped = SmolyakEngine(ProblemSpec(pipeline.engine.problem.factors, plain))
        for L in (5, 6):
            assert_same_estimate(pipeline.engine.estimate(L)[0], looped.estimate(L)[0])
        assert pipeline.pde_solves == sum(map(len, pipeline._prefixes.values())) > 0

    def test_point_sets_that_are_not_nested_raise(self):
        class Reversed(InterpolationFactor):
            def points(self, count):
                nodes = generate_points(self.domain, count)
                return PointSet(points=nodes.points[::-1].copy(), domain=self.domain)

        factor = stub_interp_factor()
        calls = []

        def qoi(z, field, mesh):
            calls.append(1)
            return stub_qoi(z, field, mesh)

        pipeline = OuuPipeline(
            (Reversed(factor.kernel, factor.domain, factor.spec), *ouu_factors()[1:]),
            seed=0,
            qoi=qoi,
            field_grid=Mesh(cells=4),
        )
        evaluate = pipeline.engine.problem.tensor_evaluator
        evaluate((3, 1, 16))
        solved = len(calls)
        with pytest.raises(ValueError, match=r"tuple \(5, 1, 16\) are not a prefix"):
            evaluate((5, 1, 16))
        assert len(calls) == solved == pipeline.pde_solves == 3

    def test_failed_compute_leaves_key_computable(self):
        from kernelkit.smolyak import FactorSpec
        from kernelkit.uq import SampleFactor

        outcomes = [RuntimeError("solver failed"), 3.0]

        def evaluate_one(point, resolution):
            outcome = outcomes.pop(0)
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        sample = SampleFactor(FactorSpec(gamma=1.0, beta=1.0), evaluate_one)
        point = np.array([[0.25]])
        with pytest.raises(RuntimeError, match="solver failed"):
            sample.values(point, 4)
        assert sample.solve_count == 0
        assert sample.values(point, 4).tolist() == [3.0]
        assert sample.values(point, 4).tolist() == [3.0]
        assert sample.solve_count == 1 and not outcomes

    def test_failed_solve_leaves_ouu_key_computable(self):
        calls = []

        def qoi(z, field, mesh):
            calls.append((z.tobytes(), field.draw, mesh.cells))
            if len(calls) == 3:
                raise RuntimeError("solver failed")
            return stub_qoi(z, field, mesh)

        pipeline = small_ouu_pipeline(qoi)
        with pytest.raises(EvaluationError, match="solver failed"):
            pipeline.engine.estimate(6)
        # The store keeps the two solves before the failure and nothing past it.
        failed = calls[2]
        _, draw, cells = failed
        kept = [c for c in calls[:2] if c[1:] == (draw, cells)]
        assert len(pipeline._prefixes.get((draw, cells), ())) == len(kept)
        assert pipeline.pde_solves == 2
        retried = pipeline.engine.estimate(6)[0]
        assert calls.count(failed) == 2
        assert len(calls) - 1 == len(set(calls)) == pipeline.pde_solves
        fresh = small_ouu_pipeline(stub_qoi)
        expected = fresh.engine.estimate(6)[0]
        pts = random_points(UNIT_DISC, 32, seed=0)
        assert np.array_equal(retried.evaluate(pts), expected.evaluate(pts))
        assert_same_store(pipeline, fresh)

    def test_failed_field_draw_leaves_draw_computable(self):
        pipeline = small_ouu_pipeline(stub_qoi)
        sample = pipeline._field_sampler.sample
        outcomes = [RuntimeError("draw failed")]

        def failing_once(seed, draw):
            if draw == 1 and outcomes:
                raise outcomes.pop()
            return sample(seed, draw)

        pipeline._field_sampler.sample = failing_once
        with pytest.raises(EvaluationError, match="draw failed"):
            pipeline.engine.estimate(5)
        # Draw 0 was solved and kept; draw 1 left no values.
        assert pipeline._prefixes and {draw for draw, _ in pipeline._prefixes} == {0}
        retried = pipeline.engine.estimate(5)[0]
        fresh = small_ouu_pipeline(stub_qoi)
        expected = fresh.engine.estimate(5)[0]
        pts = random_points(UNIT_DISC, 32, seed=0)
        assert np.array_equal(retried.evaluate(pts), expected.evaluate(pts))
        assert_same_store(pipeline, fresh)


class TestPlannedStore:
    @staticmethod
    def pipeline():
        return OuuPipeline(ouu_factors(), seed=0, stream=1, field_grid=Mesh(cells=4))

    def test_planned_pipeline_assembles_each_pair_once(self, monkeypatch):
        assembled = []
        assemble = AdvectionDiffusionProblem._base

        def counting(self, operator, field):
            assembled.append((field.draw, operator.mesh.cells))
            return assemble(self, operator, field)

        monkeypatch.setattr(AdvectionDiffusionProblem, "_base", counting)
        unplanned = self.pipeline()
        for L in (5, 6):
            unplanned.engine.estimate(L)
        unplanned_count = len(assembled)
        assembled.clear()
        planned = self.pipeline()
        planned.engine.plan(6)
        for L in (5, 6):
            planned.engine.estimate(L)
        assert len(assembled) == len(set(assembled)) == len(planned._prefixes)
        assert unplanned_count > len(assembled)

    def test_planned_estimates_and_counts_match_unplanned(self):
        planned, unplanned = self.pipeline(), self.pipeline()
        planned.engine.plan(6)
        for L in (5, 6):
            assert_same_estimate(planned.engine.estimate(L)[0], unplanned.engine.estimate(L)[0])
            assert planned.pde_solves == unplanned.pde_solves > 0
            solved = sum(map(len, planned._prefixes.values()))
            # At L = 5 nodes were solved ahead of need; L = 6 needs them all.
            assert (solved > planned.pde_solves) == (L == 5)
        assert_same_store(planned, unplanned)

    def test_failed_solve_ahead_of_need_keeps_the_prefix(self):
        calls = []

        def qoi(z, field, mesh):
            calls.append((z.tobytes(), field.draw, mesh.cells))
            if len(calls) == 22:
                raise RuntimeError("solver failed")
            return stub_qoi(z, field, mesh)

        pipeline = small_ouu_pipeline(qoi)
        pipeline.engine.plan(6)
        with pytest.raises(EvaluationError, match="solver failed"):
            pipeline.engine.estimate(6)
        # The first tuple, (2, 2, 4), needs 2 nodes of draws 0 and 1 on 2
        # cells.  The plan is solved draw by draw: draw 0 to its targets on
        # 2 and 3 cells (16 + 4 nodes), then draw 1 on 2 cells, whose second
        # node fails.  The 21 solves before it are kept, 2 + 1 counted.
        assert {key: len(done) for key, done in pipeline._prefixes.items()} == {
            (0, 2): 16,
            (0, 3): 4,
            (1, 2): 1,
        }
        assert pipeline.pde_solves == 3
        retried = pipeline.engine.estimate(6)[0]
        assert calls.count(calls[21]) == 2
        assert len(calls) - 1 == len(set(calls)) == pipeline.pde_solves
        fresh = small_ouu_pipeline(stub_qoi)
        assert_same_estimate(retried, fresh.engine.estimate(6)[0])
        assert_same_store(pipeline, fresh)

    def test_planned_pipeline_draws_each_field_once_in_order(self, monkeypatch):
        drawn = []
        sample = GaussianFieldSampler.sample

        def counting(sampler, seed, draw):
            drawn.append(draw)
            return sample(sampler, seed, draw)

        monkeypatch.setattr(GaussianFieldSampler, "sample", counting)
        pipeline = self.pipeline()
        pipeline.engine.plan(6)
        for L in (5, 6):
            pipeline.engine.estimate(L)
        assert drawn == sorted({draw for draw, _ in pipeline._prefixes})

    def test_planned_pipeline_keeps_no_field_machinery(self):
        pipeline = self.pipeline()
        pipeline.engine.plan(6)
        pipeline.engine.estimate(5)
        sampler = pipeline._field_sampler
        assert sampler._block is None and sampler._factor is None

    def test_tuple_evaluated_after_its_plan_was_solved_draws_no_field(self, monkeypatch):
        drawn = []
        sample = GaussianFieldSampler.sample

        def counting(sampler, seed, draw):
            drawn.append(draw)
            return sample(sampler, seed, draw)

        monkeypatch.setattr(GaussianFieldSampler, "sample", counting)
        pipeline = self.pipeline()
        pipeline.engine.plan(6)
        pipeline.engine.estimate(5)  # its first tuple solves the whole plan
        drawn.clear()
        pipeline.engine.estimate(6)
        assert drawn == []
        sampler = pipeline._field_sampler
        assert sampler._block is None and sampler._factor is None

    def test_ouu_study_frees_the_field_factor(self):
        ouu_study(
            ouu_factors(),
            [3, 4],
            seed=0,
            eval_points=STUDY_POINTS,
            replications=2,
            reference_L=5,
            field_grid=Mesh(cells=4),
        )
        assert _field_factor.cache_info().currsize == 0

    def test_planned_nodes_that_are_not_nested_raise(self):
        class Reversed(InterpolationFactor):
            def points(self, count):
                nodes = generate_points(self.domain, count)
                return PointSet(points=nodes.points[::-1].copy(), domain=self.domain)

        factor = stub_interp_factor()
        calls = []

        def qoi(z, field, mesh):
            calls.append(1)
            return stub_qoi(z, field, mesh)

        pipeline = OuuPipeline(
            (Reversed(factor.kernel, factor.domain, factor.spec), *ouu_factors()[1:]),
            seed=0,
            qoi=qoi,
            field_grid=Mesh(cells=4),
        )
        pipeline.engine.plan(5)
        # The first tuple's own nodes are consistent, but not with the
        # longer planned set that it would solve ahead.
        with pytest.raises(EvaluationError, match=r"not a prefix of the nodes solved or planned"):
            pipeline.engine.estimate(5)
        assert not calls and pipeline.pde_solves == 0

    def test_ouu_study_plans_each_pipeline_once(self, monkeypatch):
        plans = []
        plan = SmolyakEngine.plan

        def recording(engine, L):
            plans.append(L)
            return plan(engine, L)

        monkeypatch.setattr(SmolyakEngine, "plan", recording)
        settings = dict(qoi=stub_qoi, field_grid=Mesh(cells=4))
        ouu_study(
            ouu_factors(),
            [3, 5, 4],
            seed=0,
            eval_points=STUDY_POINTS,
            replications=2,
            reference_L=6,
            **settings,
        )
        assert plans == [5, 5, 6]


def assert_same_estimate(a, b):
    """Both surrogates hold the same expansions, byte for byte."""
    assert len(a.terms) == len(b.terms) > 0
    for (ca, ea), (cb, eb) in zip(a.terms, b.terms):
        assert ca == cb and ea.kernel == eb.kernel
        assert ea.nodes.domain == eb.nodes.domain
        assert ea.nodes.points.tobytes() == eb.nodes.points.tobytes()
        assert ea.coefficients.tobytes() == eb.coefficients.tobytes()


def assert_same_store(pipeline, fresh):
    """Both pipelines hold the same prefixes, byte for byte."""
    assert pipeline.pde_solves == fresh.pde_solves > 0
    assert pipeline._prefixes.keys() == fresh._prefixes.keys()
    for key, done in fresh._prefixes.items():
        assert pipeline._prefixes[key].tobytes() == done.tobytes()


def stub_qoi(z, field, mesh):
    return float(z[0]) + 0.1 * float(field.values[0])


def small_ouu_pipeline(qoi):
    return OuuPipeline(
        ouu_factors(),
        seed=0,
        stream=1,
        qoi=qoi,
        field_grid=Mesh(cells=4),
    )


@pytest.fixture
def means_log(monkeypatch):
    """Every ``OuuPipeline._means`` call as ``(n_points, n_draws, mesh_resolution)``."""
    log = []
    means = OuuPipeline._means

    def recording(pipeline, points, n_draws, mesh_resolution):
        log.append((len(points), n_draws, mesh_resolution))
        return means(pipeline, points, n_draws, mesh_resolution)

    monkeypatch.setattr(OuuPipeline, "_means", recording)
    return log


@pytest.fixture
def estimate_log(monkeypatch):
    """Every ``SmolyakEngine.estimate`` call as ``(engine, L)``, in call order."""
    log = []
    estimate = SmolyakEngine.estimate

    def recording(engine, L):
        log.append((engine, L))
        return estimate(engine, L)

    monkeypatch.setattr(SmolyakEngine, "estimate", recording)
    return log


class TestStudyWiring:
    def test_surface_study_estimates_reference_first_on_its_engine(self, estimate_log):
        kernel = MaternKernel(beta=2.0, dim=1)
        sample = synthetic_bias_factor(lambda pts: pts[:, 0], gamma=1.5, kappa=1.0)
        pts = random_points(UNIT_INTERVAL, 16, seed=6)
        surface_study(
            [interpolation_factor(kernel, UNIT_INTERVAL)], sample, [4, 2, 3], eval_points=pts
        )
        assert [L for _, L in estimate_log] == [6, 2, 3, 4]
        assert len({id(engine) for engine, _ in estimate_log}) == 1

    def test_expectation_study_estimates_each_threshold_once(self, estimate_log):
        quad, sample = parabola_factors()
        expectation_study([quad], sample, [4, 2, 3], 1.0 / 3.0)
        assert [L for _, L in estimate_log] == [2, 3, 4]

    def test_ouu_study_runs_reference_stream_then_replications_inside_L(
        self, estimate_log, monkeypatch
    ):
        stream_of = {}
        init = OuuPipeline.__init__

        def recording(pipeline, *args, **kwargs):
            init(pipeline, *args, **kwargs)
            stream_of[id(pipeline.engine)] = pipeline.stream

        monkeypatch.setattr(OuuPipeline, "__init__", recording)
        settings = dict(qoi=stub_qoi, field_grid=Mesh(cells=4))
        ouu_study(
            ouu_factors(),
            [4, 3],
            seed=0,
            eval_points=STUDY_POINTS,
            replications=3,
            reference_L=5,
            **settings,
        )
        streams = [(stream_of[id(engine)], L) for engine, L in estimate_log]
        assert streams == [(0, 5)] + [(r, L) for L in (3, 4) for r in (1, 2, 3)]

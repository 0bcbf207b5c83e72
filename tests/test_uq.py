import math

import numpy as np
import pytest

from kernelkit.kernels import (
    MaternKernel,
    doubling_levels,
    fit_interpolant,
    single_block,
)
from kernelkit.pde import Mesh
from kernelkit.points import Box, Disc, generate_points
from kernelkit.smolyak import (
    EvaluationError,
    SmolyakEngine,
    fit_loglog_slope,
    level_to_resolution,
    predicted_rates,
)
from kernelkit.surrogate import load_surrogate, save_surrogate
from kernelkit.uq import (
    OuuObjective,
    OuuPipeline,
    build_expectation_problem,
    build_surface_problem,
    expectation_study,
    interpolation_factor,
    kernel_quadrature_factor,
    midpoint_quadrature_factor,
    minimize_objective,
    ouu_study,
    philox_generator,
    random_points,
    surface_study,
    synthetic_bias_factor,
)

UNIT_INTERVAL = Box((0.0,), (1.0,))
UNIT_DISC = Disc(center=(0.0, 0.0), radius=1.0)


def parabola_factors():
    quad = midpoint_quadrature_factor(gamma=1.0, beta=2.0)
    sample = synthetic_bias_factor(lambda pts: pts[:, 0] ** 2, gamma=1.0, kappa=1.0)
    return quad, sample


def expectation_estimate(quad_factors, sample, L):
    return SmolyakEngine(build_expectation_problem(quad_factors, sample)).estimate(L)


def surface_estimate(interp_factors, sample, L):
    return SmolyakEngine(build_surface_problem(interp_factors, sample)).estimate(L)


class TestMultilevelExpectation:
    def test_study_errors_are_the_engine_estimates(self):
        quad, sample = parabola_factors()
        rows = expectation_study([quad], sample, range(2, 7), reference=1.0 / 3.0)
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

        quad = QuadratureFactor(spec=FactorSpec(gamma=1.0, beta=2.0), rule=rule)
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
        rows = expectation_study([quad], sample, range(2, 15), reference=1.0 / 3.0)
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


class TestResponseSurface:
    def test_exactness_for_native_target(self):
        kernel = MaternKernel(beta=2.0, dim=1)
        factor = interpolation_factor(kernel, UNIT_INTERVAL)
        anchors = factor.points(level_to_resolution(factor.spec, 1))
        coeffs = np.array([1.5, -0.75])
        tensor = single_block(kernel)

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

    def test_serialization_round_trip(self, tmp_path):
        kernel = MaternKernel(beta=2.0, dim=1)
        factor = interpolation_factor(kernel, UNIT_INTERVAL)
        sample = synthetic_bias_factor(
            lambda pts: np.sin(2 * np.pi * pts[:, 0]), gamma=1.5, kappa=1.0
        )
        surrogate, _ = surface_estimate([factor], sample, 5)
        path = tmp_path / "rsr.txt"
        save_surrogate(surrogate, path)
        loaded = load_surrogate(path)
        xs = random_points(UNIT_INTERVAL, 128, seed=5)
        assert np.array_equal(surrogate.evaluate(xs), loaded.evaluate(xs))

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


class TestOuuPipeline:
    def test_degenerate_factors_reduce_to_interpolation(self):
        target = lambda z: float(np.sin(z[0]) + 0.5 * z[1])
        pipeline = OuuPipeline(
            stub_interp_factor(),
            seed=0,
            stream=1,
            qoi=lambda z, field, mesh: target(z),
            field_grid=Mesh(cells=8),
            max_cells=8,
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
            stub_interp_factor(),
            seed=0,
            stream=2,
            field_grid=Mesh(cells=8),
            max_cells=8,
        )
        pipeline.engine.estimate(5)
        by_draw_count = {}
        for resolutions, draws in pipeline.draw_log.items():
            assert draws == tuple(range(resolutions[1]))
            by_draw_count.setdefault(resolutions[1], set()).add(draws)
        for draws_used in by_draw_count.values():
            assert len(draws_used) == 1

    def test_solve_cache_couples_corners(self):
        pipeline = OuuPipeline(
            stub_interp_factor(),
            seed=0,
            stream=3,
            field_grid=Mesh(cells=8),
            max_cells=8,
        )
        pipeline.engine.estimate(5)
        draws_by_cells = {}
        for _, draw, cells in pipeline._solve_cache:
            draws_by_cells.setdefault(cells, set()).add(draw)
        counts = {c: max(d) + 1 for c, d in draws_by_cells.items()}
        # Every mesh resolution consumed a prefix of the same draw sequence.
        for cells, draws in draws_by_cells.items():
            assert draws == set(range(counts[cells]))

    def test_estimator_unbiased_on_noisy_stub(self):
        target = 1.7

        def qoi(z, field, mesh):
            return target + 0.3 * float(field.values[0])

        values = []
        for seed in range(100):
            pipeline = OuuPipeline(
                stub_interp_factor(),
                seed=seed,
                stream=1,
                qoi=qoi,
                field_grid=Mesh(cells=4),
                max_cells=4,
            )
            values.append(pipeline.engine.estimate(4)[0](np.array([0.2, 0.1])))
        values = np.array(values)
        stderr = values.std(ddof=1) / math.sqrt(len(values))
        assert abs(values.mean() - target) <= 4.0 * max(stderr, 1e-12)

    def test_objective_at_origin_has_no_penalty(self):
        pipeline = OuuPipeline(
            stub_interp_factor(),
            seed=0,
            stream=1,
            qoi=lambda z, field, mesh: float(z[0] ** 2),
            field_grid=Mesh(cells=4),
            max_cells=4,
        )
        surrogate = pipeline.engine.estimate(4)[0]
        objective = OuuObjective(surrogate=surrogate)
        origin = np.zeros(2)
        assert objective(origin) == pytest.approx(float(surrogate(origin)))

    def test_linearity_under_qoi_scaling(self):
        def build(scale):
            pipeline = OuuPipeline(
                stub_interp_factor(),
                seed=0,
                stream=1,
                qoi=lambda z, field, mesh: scale
                * (1.0 + z[0] + 0.1 * float(field.values[0])),
                field_grid=Mesh(cells=4),
                max_cells=4,
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
        objective = OuuObjective(
            surrogate=_zero_surrogate(), penalty_weight=0.1
        )
        z, _ = minimize_objective(objective, restarts=6)
        assert np.linalg.norm(z) <= 1e-3

    def test_minimizer_stays_in_disc(self):
        objective = lambda z: -float(z[0])  # pushes toward the boundary
        z, _ = minimize_objective(objective, restarts=4)
        assert np.linalg.norm(z) <= 1.0 + 1e-9
        assert z[0] == pytest.approx(1.0, abs=1e-3)


def _zero_surrogate():
    kernel = MaternKernel(beta=4.0, dim=2)
    nodes = generate_points(UNIT_DISC, 3)
    interp = fit_interpolant(kernel, nodes, np.zeros(3))
    from kernelkit.surrogate import Surrogate

    return Surrogate(terms=((1.0, interp),))


class TestDeterminism:
    def test_philox_draws_are_order_independent(self):
        a = philox_generator(3, 1, draw=7).standard_normal(4)
        philox_generator(3, 1, draw=6).standard_normal(100)
        b = philox_generator(3, 1, draw=7).standard_normal(4)
        assert np.array_equal(a, b)


class TestPdeSolvesColumn:
    def test_expectation_study_counts_are_cumulative_and_include_reference(self):
        from kernelkit.smolyak import FactorSpec
        from kernelkit.uq import SampleFactor

        calls = []

        def evaluate_one(point, resolution):
            calls.append((resolution, float(point[0])))
            return float(point[0] ** 2) + 1.0 / resolution

        def factors():
            quad = midpoint_quadrature_factor(gamma=1.0, beta=2.0)
            return quad, SampleFactor(FactorSpec(gamma=1.0, beta=1.0), evaluate_one)

        quad, sample = factors()
        rows = expectation_study([quad], sample, range(2, 6), reference_L=7)
        assert len(set(calls)) == len(calls) == rows[-1]["pde_solves"]
        # Replay: the reference at L = 7 first, then the rows in order; each
        # row reports every distinct solve made so far.
        quad, sample = factors()
        engine = SmolyakEngine(build_expectation_problem([quad], sample))
        engine.estimate(7)
        reference_only = sample.solve_count
        expected = []
        for L in range(2, 6):
            engine.estimate(L)
            expected.append(sample.solve_count)
        assert [r["pde_solves"] for r in rows] == expected
        assert reference_only <= expected[0] <= expected[-1]

    def test_ouu_study_counts_are_cumulative_over_replications(self):
        calls = []

        def qoi(z, field, mesh):
            calls.append(1)
            return float(z[0]) + 0.1 * float(field.values[0])

        settings = dict(qoi=qoi, field_grid=Mesh(cells=4), max_cells=4)
        OuuPipeline(stub_interp_factor(), seed=0, stream=0, **settings).engine.estimate(6)
        reference_solves = len(calls)
        calls.clear()
        rows, _ = ouu_study(
            stub_interp_factor, [3, 4, 5], seed=0, replications=2, reference_L=6, **settings
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

    def test_ouu_pipeline_solves_and_draws_once(self):
        solves = []

        def qoi(z, field, mesh):
            solves.append((z.tobytes(), id(field), mesh.cells))
            return float(z[0]) + 0.1 * float(field.values[0])

        pipeline = OuuPipeline(
            stub_interp_factor(),
            seed=0,
            stream=1,
            qoi=qoi,
            field_grid=Mesh(cells=4),
            max_cells=4,
        )
        pipeline.engine.estimate(6)
        assert len(solves) == len(set(solves)) == pipeline.pde_solves
        # One sample object per draw: every solve of a draw saw the same one.
        draws = {draw for _, draw, _ in pipeline._solve_cache}
        assert len({field_id for _, field_id, _ in solves}) == len(draws)

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
        failed = calls[2]
        assert failed not in pipeline._solve_cache
        retried = pipeline.engine.estimate(6)[0]
        assert calls.count(failed) == 2
        assert len(calls) - 1 == len(set(calls)) == pipeline.pde_solves
        expected = small_ouu_pipeline(stub_qoi).engine.estimate(6)[0]
        pts = random_points(UNIT_DISC, 32, seed=0)
        assert np.array_equal(retried.evaluate(pts), expected.evaluate(pts))

    def test_failed_field_draw_leaves_draw_computable(self):
        pipeline = small_ouu_pipeline(stub_qoi)
        sample = pipeline._field_sampler.sample
        outcomes = [RuntimeError("draw failed")]

        def failing_once(seed, draw):
            if outcomes:
                raise outcomes.pop()
            return sample(seed, draw)

        pipeline._field_sampler.sample = failing_once
        with pytest.raises(EvaluationError, match="draw failed"):
            pipeline.engine.estimate(5)
        assert not pipeline._field_cache and not pipeline._solve_cache
        retried = pipeline.engine.estimate(5)[0]
        expected = small_ouu_pipeline(stub_qoi).engine.estimate(5)[0]
        pts = random_points(UNIT_DISC, 32, seed=0)
        assert np.array_equal(retried.evaluate(pts), expected.evaluate(pts))


def stub_qoi(z, field, mesh):
    return float(z[0]) + 0.1 * float(field.values[0])


def small_ouu_pipeline(qoi):
    return OuuPipeline(
        stub_interp_factor(),
        seed=0,
        stream=1,
        qoi=qoi,
        field_grid=Mesh(cells=4),
        max_cells=4,
    )


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

    def test_expectation_study_with_exact_reference_makes_no_reference(self, estimate_log):
        quad, sample = parabola_factors()
        expectation_study([quad], sample, [2, 3, 4], reference=1.0 / 3.0, reference_L=9)
        assert [L for _, L in estimate_log] == [2, 3, 4]

    def test_ouu_study_runs_reference_stream_then_replications_inside_L(self, estimate_log):
        settings = dict(qoi=stub_qoi, field_grid=Mesh(cells=4), max_cells=4)
        ouu_study(
            stub_interp_factor, [4, 3], seed=0, replications=3, reference_L=5, **settings
        )
        streams = [
            (engine.problem.tensor_evaluator.__self__.stream, L) for engine, L in estimate_log
        ]
        assert streams == [(0, 5)] + [(r, L) for L in (3, 4) for r in (1, 2, 3)]

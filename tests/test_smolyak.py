import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from kernelkit.multiindex import combination_coefficients
from kernelkit.pde import pde_resolution_map
from kernelkit.smolyak import (
    EvaluationError,
    FactorSpec,
    ProblemSpec,
    SlopeFitError,
    SmolyakEngine,
    WorkLedger,
    convergence_study,
    fit_loglog_slope,
    level_to_resolution,
    predicted_rates,
    scaled_exponential_map,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def product_problem(value_tables, factors):
    """Scalar problem multiplying per-factor values looked up by resolution."""

    def evaluator(resolutions):
        out = 1.0
        for table, n in zip(value_tables, resolutions):
            out *= table(n)
        return out

    return ProblemSpec(factors=tuple(factors), tensor_evaluator=evaluator)


def distinct_resolution_map(t):
    """Strictly increasing variant of ceil(exp(t*l)); avoids duplicate levels."""

    def mapped(level):
        values = []
        for l in range(1, level + 1):
            n = math.ceil(math.exp(t * l))
            if values and n <= values[-1]:
                n = values[-1] + 1
            values.append(n)
        return values[-1]

    return mapped


class TestLevelToResolution:
    def test_zero_level_is_zero(self):
        f = FactorSpec(gamma=1.0, beta=1.0)
        assert level_to_resolution(f, 0) == 0

    def test_half_spacing(self):
        f = FactorSpec(gamma=1.0, beta=1.0)
        assert f.t == pytest.approx(0.5)
        assert level_to_resolution(f, 2) == 3

    def test_two_fifths_spacing(self):
        f = FactorSpec(gamma=1.5, beta=1.0)
        assert level_to_resolution(f, 5) == 8

    def test_override_map(self):
        f = FactorSpec(gamma=1.0, beta=1.0, resolution_map=lambda l: 2 ** l)
        assert level_to_resolution(f, 3) == 8
        assert level_to_resolution(f, 0) == 0

    @pytest.mark.parametrize("gamma, beta", [(1.0, 1.0), (1.5, 1.0), (1.0, 0.5), (0.3, 0.7)])
    def test_default_map_is_the_exponential_map_at_scale_one(self, gamma, beta):
        f = FactorSpec(gamma=gamma, beta=beta)
        mapped = scaled_exponential_map(gamma, beta, 1.0)
        for level in range(1, 60):
            expected = math.ceil(math.exp(1.0 / (gamma + beta) * level))
            assert level_to_resolution(f, level) == mapped(level) == expected

    @pytest.mark.parametrize("scale", [0.0, -1.0])
    def test_exponential_maps_refuse_a_nonpositive_scale(self, scale):
        with pytest.raises(ValueError, match="scale must be positive"):
            scaled_exponential_map(1.0, 0.5, scale)
        with pytest.raises(ValueError, match="scale must be positive"):
            pde_resolution_map(1.5, 1.0, max_cells=64, scale=scale)

    @pytest.mark.parametrize(
        "mapped, level",
        [
            # exp itself overflows at level 2 ...
            (lambda l: level_to_resolution(FactorSpec(gamma=0.001, beta=0.001), l), 2),
            (pde_resolution_map(0.001, 0.001, max_cells=64), 2),
            # ... and the scale takes a finite exp past the largest float.
            (scaled_exponential_map(1.0, 0.5, 1e308), 1),
        ],
        ids=["default", "pde", "scaled"],
    )
    def test_overflow_names_the_map_and_the_level(self, mapped, level):
        if level > 1:
            assert mapped(level - 1) >= 1
        with pytest.raises(OverflowError, match=rf"^level map ceil\(.*\) .* at level {level}$"):
            mapped(level)


class TestPredictedRates:
    def test_single_worst_factor(self):
        pred = predicted_rates(
            [FactorSpec(gamma=1.0, beta=1.0), FactorSpec(gamma=1.5, beta=1.0)]
        )
        assert pred.rho == pytest.approx(1.5)
        assert pred.n0 == 1
        assert pred.slope == pytest.approx(-2.0 / 3.0)

    def test_three_factor_setup(self):
        pred = predicted_rates(
            [
                FactorSpec(gamma=1.0, beta=1.5),
                FactorSpec(gamma=1.0, beta=0.5),
                FactorSpec(gamma=1.5, beta=1.0),
            ]
        )
        assert pred.rho == pytest.approx(2.0)
        assert pred.n0 == 1
        assert pred.slope == pytest.approx(-0.5)

    def test_symmetric_tie(self):
        pred = predicted_rates(
            [FactorSpec(gamma=1.0, beta=1.0), FactorSpec(gamma=1.0, beta=1.0)]
        )
        assert pred.rho == pytest.approx(1.0)
        assert pred.n0 == 2

    def test_invariant_under_joint_rescaling(self):
        base = [FactorSpec(gamma=1.0, beta=2.0), FactorSpec(gamma=0.5, beta=1.5)]
        for c in (0.25, 3.0, 17.0):
            scaled = [FactorSpec(gamma=c * f.gamma, beta=c * f.beta) for f in base]
            p0 = predicted_rates(base)
            p1 = predicted_rates(scaled)
            assert p1.rho == pytest.approx(p0.rho, rel=1e-12)
            assert p1.n0 == p0.n0


class TestEstimateBasics:
    def test_exact_factors_collapse(self):
        # Factors constant in resolution: all higher differences vanish.
        factors = [FactorSpec(gamma=1.0, beta=1.0) for _ in range(3)]
        problem = product_problem(
            [lambda n: 0.5, lambda n: 2.0, lambda n: -1.5], factors
        )
        for L in (3, 5, 8):
            value, _ = SmolyakEngine(problem).estimate(L)
            assert value == pytest.approx(0.5 * 2.0 * -1.5, rel=1e-13)

    def test_single_factor_is_plain_evaluation(self):
        factor = FactorSpec(gamma=1.0, beta=2.0)
        problem = product_problem([lambda n: 1.0 - 2.0 ** -n], [factor])
        for L in (1, 3, 6):
            value, ledger = SmolyakEngine(problem).estimate(L)
            n_l = level_to_resolution(factor, L)
            assert value == pytest.approx(1.0 - 2.0 ** -n_l, rel=1e-14)
            assert len(ledger.per_term) == 1

    def test_rejects_small_threshold(self):
        problem = product_problem(
            [lambda n: 1.0, lambda n: 1.0],
            [FactorSpec(gamma=1.0, beta=1.0)] * 2,
        )
        with pytest.raises(ValueError):
            SmolyakEngine(problem).estimate(1)
        with pytest.raises(ValueError):
            SmolyakEngine(problem).estimate_via_deltas(1)

    def test_minimal_threshold_is_single_unit_term(self):
        # At L = n the only admissible index is all-ones.
        factors = [FactorSpec(gamma=1.0, beta=1.0) for _ in range(2)]
        problem = product_problem(
            [lambda n: 1.0 - 2.0 ** -n, lambda n: 1.0 - 3.0 ** -n], factors
        )
        unit = problem.resolutions((1, 1))
        expected = problem.tensor_evaluator(unit)
        delta = SmolyakEngine(problem).estimate_via_deltas(2)
        assert delta == pytest.approx(expected, rel=1e-14)
        value, ledger = SmolyakEngine(problem).estimate(2)
        assert value == pytest.approx(expected, rel=1e-14)
        assert [index for index, _ in ledger.per_term] == [(1, 1)]

    def test_two_factor_matches_delta_sum(self):
        factors = [FactorSpec(gamma=1.0, beta=1.0), FactorSpec(gamma=1.0, beta=1.0)]
        problem = product_problem(
            [lambda n: 1.0 - 2.0 ** -n, lambda n: 1.0 - 3.0 ** -n], factors
        )
        combo, _ = SmolyakEngine(problem).estimate(4)
        delta = SmolyakEngine(problem).estimate_via_deltas(4)
        assert combo == pytest.approx(delta, rel=1e-12)

    def test_evaluator_failure_carries_term(self):
        def evaluator(resolutions):
            raise RuntimeError("boom")

        problem = ProblemSpec(
            factors=(FactorSpec(gamma=1.0, beta=1.0),), tensor_evaluator=evaluator
        )
        with pytest.raises(EvaluationError) as err:
            SmolyakEngine(problem).estimate(2)
        assert err.value.resolutions == (3,)


class TestPlan:
    def test_plan_passes_the_missing_tuples_of_the_combination(self):
        factors = [FactorSpec(gamma=1.0, beta=1.0, resolution_map=lambda l: 2**l)] * 2
        planned = []
        problem = replace(
            product_problem([lambda n: 1.0 / n] * 2, factors), plan=planned.append
        )
        engine = SmolyakEngine(problem)
        engine.plan(5)
        combination = [problem.resolutions(t.index) for t in combination_coefficients(2, 5)]
        assert planned == [combination]
        engine.estimate(4)
        engine.plan(5)
        missing = [res for res in combination if res not in engine._cache]
        assert planned[1] == missing and 0 < len(missing) < len(combination)
        # Planning evaluates nothing.
        assert engine.evaluations == len(combination_coefficients(2, 4))

    def test_plan_without_a_hook_does_nothing(self):
        factors = [FactorSpec(gamma=1.0, beta=1.0)] * 2
        engine = SmolyakEngine(product_problem([lambda n: 1.0] * 2, factors))
        engine.plan(6)
        assert engine.evaluations == 0


class TestCombinationDeltaEquivalence:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_random_problems(self, n):
        rng = np.random.default_rng(100 + n)
        for trial in range(50):
            tables = []
            for _ in range(n):
                coeff = rng.uniform(0.2, 2.0)
                rate = rng.uniform(0.3, 1.5)
                offset = rng.uniform(-1.0, 1.0)
                tables.append(
                    lambda m, c=coeff, r=rate, o=offset: o + c * (1.0 + m) ** -r
                )
            factors = [
                FactorSpec(gamma=rng.uniform(0.5, 2.0), beta=rng.uniform(0.5, 2.0))
                for _ in range(n)
            ]
            problem = product_problem(tables, factors)
            L = int(rng.integers(n, 9))
            engine = SmolyakEngine(problem)
            combo, _ = engine.estimate(L)
            delta = engine.estimate_via_deltas(L)
            scale = max(abs(combo), abs(delta), 1e-30)
            assert abs(combo - delta) <= 1e-10 * scale

    def test_saturating_factors_reach_full_tensor(self):
        # Each factor stops changing beyond the resolution of level l*.
        l_star = 2
        factors = [FactorSpec(gamma=1.0, beta=1.0) for _ in range(2)]
        caps = [level_to_resolution(f, l_star) for f in factors]

        def table(cap):
            return lambda n: 1.0 - 2.0 ** -min(n, cap)

        problem = product_problem([table(c) for c in caps], factors)
        exact = np.prod([1.0 - 2.0 ** -c for c in caps])
        for L in (2 * l_star, 2 * l_star + 2):
            value, _ = SmolyakEngine(problem).estimate(L)
            assert value == pytest.approx(float(exact), rel=1e-13)


class TestWorkLedger:
    def test_total_matches_per_term(self):
        factors = [FactorSpec(gamma=1.0, beta=1.0), FactorSpec(gamma=1.5, beta=1.0)]
        problem = product_problem([lambda n: 1.0, lambda n: 1.0], factors)
        _, ledger = SmolyakEngine(problem).estimate(6)
        recomputed = 0.0
        for index, work in ledger.per_term:
            expected = np.prod(
                [
                    float(level_to_resolution(f, l)) ** f.gamma
                    for f, l in zip(factors, index)
                ]
            )
            assert work == pytest.approx(float(expected), rel=1e-13)
            recomputed += work
        assert ledger.total_work == pytest.approx(recomputed, rel=1e-13)

    def test_work_nondecreasing_in_threshold(self):
        factors = [FactorSpec(gamma=1.0, beta=1.0), FactorSpec(gamma=1.0, beta=1.0)]
        problem = product_problem([lambda n: 1.0, lambda n: 1.0], factors)
        engine = SmolyakEngine(problem)
        works = [engine.estimate(L)[1].total_work for L in range(2, 10)]
        assert all(b >= a for a, b in zip(works, works[1:]))

    def test_memoization_counts_distinct_evaluations(self):
        calls = []

        def evaluator(res):
            calls.append(res)
            return 1.0

        factors = (FactorSpec(gamma=1.0, beta=1.0), FactorSpec(gamma=1.0, beta=1.0))
        problem = ProblemSpec(factors=factors, tensor_evaluator=evaluator)
        engine = SmolyakEngine(problem)
        engine.estimate(5)
        first = len(calls)
        engine.estimate(5)
        assert len(calls) == first
        engine.estimate_via_deltas(5)
        # The difference path only adds interior tuples not in the band.
        assert len(calls) == len(set(calls))

    def test_evaluates_missing_tuples_in_lexicographic_order(self):
        calls = []

        def evaluator(res):
            calls.append(res)
            return 1.0

        # A decreasing level map makes the terms' own order non-lexicographic.
        factors = (
            FactorSpec(gamma=1.0, beta=1.0, resolution_map=lambda level: 20 - level),
            FactorSpec(gamma=1.0, beta=1.0),
            FactorSpec(gamma=1.0, beta=1.0),
        )
        engine = SmolyakEngine(ProblemSpec(factors=factors, tensor_evaluator=evaluator))
        engine.estimate_via_deltas(6)
        first = len(calls)
        engine.estimate(8)
        assert calls[:first] == sorted(calls[:first])
        assert calls[first:] == sorted(calls[first:])
        assert len(calls) == len(set(calls)) == engine.evaluations


class TestWeightedSum:
    @pytest.mark.parametrize(
        "value",
        [
            lambda res: 1.0 + 0.1 * sum(res),
            lambda res: np.sin(np.arange(4.0) + sum(res)),
        ],
    )
    def test_estimate_folds_plain_values_in_term_order(self, value):
        factors = (FactorSpec(gamma=1.0, beta=1.0), FactorSpec(gamma=1.0, beta=2.0))
        problem = ProblemSpec(factors=factors, tensor_evaluator=value)
        estimate, _ = SmolyakEngine(problem).estimate(6)
        folded = None
        for term in combination_coefficients(2, 6):
            contribution = term.coefficient * value(problem.resolutions(term.index))
            folded = contribution if folded is None else folded + contribution
        assert np.asarray(estimate).tobytes() == np.asarray(folded).tobytes()


def absolute_errors(exact):
    """Error function of a scalar study against a known value."""
    return lambda _, values: [{"error": abs(exact - v)} for v in values]


class RecordingEngine:
    """Stands in for an engine: logs every estimate and returns its key;
    logs its plans in ``plans``."""

    def __init__(self, name, log):
        self.name = name
        self.log = log
        self.plans = []

    def plan(self, L):
        self.plans.append(L)

    def estimate(self, L):
        self.log.append((self.name, L))
        ledger = WorkLedger(total_work=10.0 * L + len(self.name), evaluations=len(self.log))
        return (self.name, L), ledger


class TestConvergenceStudy:
    def test_call_order_reference_first_then_replications_inside_L(self):
        log, calls = [], []
        engines = [RecordingEngine(name, log) for name in ("a", "b")]

        def errors(reference, values):
            calls.append((reference, list(values), list(log)))
            return [{"error": float(i)} for i in range(len(values) // 2)]

        reference_engine = RecordingEngine("ref", log)
        rows, reference = convergence_study(
            engines, [5, 3, 4], errors, reference=(reference_engine, 7), solves=lambda: len(log)
        )
        expected = [("ref", 7)] + [(name, L) for L in (3, 4, 5) for name in ("a", "b")]
        assert log == expected
        # Each engine is planned once, for the largest threshold it estimates.
        assert [engine.plans for engine in engines] == [[5], [5]]
        # One call to the error function, after every estimate, with all values.
        assert calls == [(("ref", 7), expected[1:], expected)]
        assert reference == ("ref", 7)
        assert reference_engine.plans == [7]
        # Each row records the last engine's ledger and the solves so far.
        assert rows == [
            {"L": L, "work_units": 10.0 * L + 1, "evaluations": count,
             "pde_solves": count, "error": float(i)}
            for i, (L, count) in enumerate([(3, 3), (4, 5), (5, 7)])
        ]

    def test_without_reference_makes_no_reference_estimate(self):
        log = []
        rows, reference = convergence_study(
            [RecordingEngine("a", log)],
            [2, 3, 4],
            lambda ref, values: [{"error": 0.0, "ref": ref} for _ in values],
        )
        assert log == [("a", 2), ("a", 3), ("a", 4)]
        assert reference is None and all(row["ref"] is None for row in rows)
        assert all(row["pde_solves"] == 0 for row in rows)

    def test_error_columns_must_match_the_rows(self):
        engine = RecordingEngine("a", [])
        with pytest.raises(ValueError):
            convergence_study([engine], [2, 3], lambda _, values: [{"error": 1.0}])

    def test_exact_factor_toy_has_zero_error(self):
        factors = [FactorSpec(gamma=1.0, beta=1.0) for _ in range(2)]
        problem = product_problem([lambda n: 0.7, lambda n: 1.3], factors)
        rows, _ = convergence_study(
            [SmolyakEngine(problem)], range(2, 7), absolute_errors(0.7 * 1.3)
        )
        for row in rows:
            assert row["error"] <= 1e-14
            assert row["work_units"] > 0.0
            assert row["evaluations"] > 0

    def test_synthetic_slope_against_level_decay(self):
        # Per-level geometric factor decay; fitted error-vs-L slope should
        # track -b_min within 20%.
        gammas = (1.0, 1.5)
        betas = (1.0, 1.0)
        factors = []
        for g, b in zip(gammas, betas):
            t = 1.0 / (g + b)
            factors.append(
                FactorSpec(gamma=g, beta=b, resolution_map=distinct_resolution_map(t))
            )
        pred = predicted_rates(factors)

        def make_table(factor):
            decay = factor.beta * factor.t
            levels = {}
            for l in range(1, 30):
                levels[level_to_resolution(factor, l)] = l

            def table(n):
                l = levels[n]
                return sum(math.exp(-decay * k) for k in range(1, l + 1))

            return table

        problem = product_problem([make_table(f) for f in factors], factors)
        limit = float(
            np.prod(
                [
                    math.exp(-f.beta * f.t) / (1.0 - math.exp(-f.beta * f.t))
                    for f in factors
                ]
            )
        )
        rows, _ = convergence_study(
            [SmolyakEngine(problem)], range(2, 17), absolute_errors(limit)
        )
        slope = fit_loglog_slope(
            [(math.exp(row["L"]), row["error"]) for row in rows], window=0.5
        )
        assert abs(slope - (-pred.b_min)) <= 0.2 * pred.b_min

    def test_csv_format(self, tmp_path):
        from kernelkit.cli import _csv_text, _write

        rows = [(2, 10.0, 3, 0.125), (3, 20.0, 5, 0.0625)]
        header = ["L", "work_units", "evaluations", "error"]
        _write(str(tmp_path), "study.csv", _csv_text(header, [dict(zip(header, r)) for r in rows]))
        text = (tmp_path / "study.csv").read_text().splitlines()
        assert text[0] == "L,work_units,evaluations,error"
        assert text[1] == "2,1.000000000000e+01,3,1.250000000000e-01"


class TestFitLoglogSlope:
    def test_exact_square_law(self):
        pts = [(x, x**2) for x in (1.0, 2.0, 4.0, 8.0)]
        assert fit_loglog_slope(pts) == pytest.approx(2.0, abs=1e-12)

    def test_exact_decay_with_prefactor(self):
        pts = [(x, 5.0 * x ** (-2.0 / 3.0)) for x in (1.0, 3.0, 9.0, 27.0)]
        assert fit_loglog_slope(pts) == pytest.approx(-2.0 / 3.0, abs=1e-12)

    def test_noisy_decay(self):
        xs = np.linspace(10.0, 200.0, 25)
        pts = [(x, x**-0.5 * (1.0 + 0.01 * math.sin(x))) for x in xs]
        assert abs(fit_loglog_slope(pts) - (-0.5)) <= 0.05

    def test_rejects_small_or_nonpositive(self):
        with pytest.raises(SlopeFitError):
            fit_loglog_slope([(1.0, 1.0), (2.0, 0.5)])
        with pytest.raises(SlopeFitError, match=r"1 are not, the first \(2, 0\)"):
            fit_loglog_slope([(1.0, 1.0), (2.0, 0.0), (3.0, 0.1)])
        with pytest.raises(ValueError):
            fit_loglog_slope([(1.0, 1.0), (2.0, 0.5), (3.0, 0.25)], window=0.0)

    def test_trailing_window(self):
        # Early points follow a different law; the window ignores them.
        pts = [(1.0, 100.0), (2.0, 100.0)]
        pts += [(x, x**-1.0) for x in (10.0, 20.0, 40.0, 80.0)]
        assert fit_loglog_slope(pts, window=0.6) == pytest.approx(-1.0, abs=1e-10)


def rates_table(gammas, betas=(1.0, 1.0), thresholds=range(2, 62)):
    """``(L, work, error)`` of the closed-form problem ``prod_j (1 + N_j**-beta_j)``,
    whose limit is 1, and the predicted rates.  The thresholds run to 61,
    so that ``n + L <= 64``."""
    factors = tuple(FactorSpec(gamma=g, beta=b) for g, b in zip(gammas, betas))
    engine = SmolyakEngine(
        product_problem([lambda n, b=b: 1.0 + float(n) ** -b for b in betas], factors)
    )
    rows = []
    for L in thresholds:
        value, ledger = engine.estimate(L)
        rows.append((L, ledger.total_work, abs(1.0 - value)))
    return np.array(rows), predicted_rates(factors)


def log_exponent(rows, rho, low, high):
    """``k`` of ``W ~ eps**-rho log(1/eps)**k`` over thresholds ``low..high``:
    the slope of ``log W - rho log(1/eps)`` against ``log log(1/eps)``."""
    L, work, error = rows.T
    inside = (L >= low) & (L <= high)
    decades = np.log(1.0 / error[inside])
    return np.polyfit(np.log(decades), np.log(work[inside]) - rho * decades, 1)[0]


def late_slope(rows):
    """The log-log slope of error against work over the last three thresholds."""
    return np.polyfit(np.log(rows[-3:, 1]), np.log(rows[-3:, 2]), 1)[0]


class TestComplexityResults:
    # The paper's two results on the closed-form problem: with a unique
    # largest gamma_j / beta_j the work for error eps is eps**-rho with no
    # log factor (k = 0); with n tied factors it is eps**-rho
    # log(1/eps)**((n - 1)(1 + rho)), so k = 2 for two factors at rho = 1.
    def test_unique_largest_ratio_has_no_log_factor(self):
        rows, prediction = rates_table((1.0, 1.5))
        assert prediction.rho == 1.5
        # The exponent is approached from above as the thresholds grow.
        windows = [log_exponent(rows, 1.5, *window) for window in ((20, 40), (30, 50), (40, 61))]
        assert windows[0] > windows[1] > windows[2]
        assert windows[2] <= 0.3
        assert abs(late_slope(rows) - (-2.0 / 3.0)) <= 0.005

    def test_tied_ratios_take_the_log_factor(self):
        rows, prediction = rates_table((1.0, 1.0))
        assert prediction.rho == 1.0 and prediction.n0 == 2
        assert abs(log_exponent(rows, 1.0, 40, 61) - 2.0) <= 0.15
        assert -1.0 < late_slope(rows) < -0.9


@pytest.mark.parametrize("module", ["kernelkit.smolyak", "kernelkit.multiindex", "kernelkit.points"])
def test_generic_engine_imports_without_scipy_or_pipelines(module):
    # The engine is usable on its own: importing it loads no scipy and none
    # of the kernel, PDE, surrogate or pipeline modules.
    code = (
        f"import sys, {module}; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m in "
        "{f'kernelkit.{n}' for n in ('kernels', 'pde', 'uq', 'surrogate', 'config', 'cli')}))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]", result.stdout

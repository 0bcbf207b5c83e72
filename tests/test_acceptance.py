"""Acceptance gate: one test per criterion, at the stated tolerances.

Every test prints a single pass/fail line (visible with ``pytest -s``);
timed criteria additionally assert their runtime budget.  The pipeline
criteria run through the command-line entry point so the determinism
criterion can compare the artifacts of two runs in one process.
"""

import math
import os
import time

import numpy as np
import pytest

from kernelkit.cli import main
from kernelkit.kernels import MaternKernel, fit_interpolant
from kernelkit.multiindex import combination_coefficients, enumerate_simplex
from kernelkit.pde import (
    GaussianFieldSampler,
    l2_error_against,
    mesh_at_level,
    solve_poisson_dirichlet,
)
from kernelkit.points import Box, generate_points, random_points
from kernelkit.smolyak import (
    FactorSpec,
    ProblemSpec,
    SmolyakEngine,
    fit_loglog_slope,
    level_to_resolution,
)
from kernelkit.uq import sparse_interpolate

UNIT_INTERVAL = Box((0.0,), (1.0,))

MISC_CONFIG = """
[run]
pipeline = misc
l_min = 2
l_max = 14
fit_window = 0.5
[misc]
quadrature = midpoint
integrand = parabola
"""

RSR_CONFIG = """
[run]
pipeline = rsr
l_min = 2
l_max = 7
fit_window = 0.7
[kernel]
beta = 2.0
d = 2
[pde]
bumps = 1
max_mesh_level = 6
[study]
reference_l = 9
"""

OUU_CONFIG = """
[run]
pipeline = ouu
l_min = 3
l_max = 7
[kernel]
beta = 4.0
d = 2
alpha = 1.0
[ouu]
replications = 5
field_level = 5
max_mesh_level = 5
[study]
reference_l = 9
"""


def report(criterion, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] criterion {criterion:>2} {status} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def run_cli(tmp_root, name, text, run):
    config_path = os.path.join(tmp_root, f"{name}.cfg")
    with open(config_path, "w") as handle:
        handle.write(text)
    out = os.path.join(tmp_root, f"{name}_run{run}")
    started = time.monotonic()
    code = main(["--config", config_path, "--out", out, "--quiet"])
    elapsed = time.monotonic() - started
    assert code == 0, f"pipeline {name} exited with {code}"
    return out, elapsed


@pytest.fixture(scope="module")
def pipeline_runs(tmp_path_factory):
    """Criteria 6-9 pipelines, each run twice in one process; the second run
    goes through the process-wide caches that the first one filled."""
    root = str(tmp_path_factory.mktemp("acceptance"))
    runs = {}
    for name, text in (("misc", MISC_CONFIG), ("rsr", RSR_CONFIG), ("ouu", OUU_CONFIG)):
        runs[name] = [run_cli(root, name, text, run) for run in (1, 2)]
    return runs


def read_slopes(out_dir):
    values = {}
    with open(os.path.join(out_dir, "slope.txt")) as handle:
        for line in handle:
            key, _, value = line.partition("=")
            values[key.strip()] = float(value)
    return values


class TestAcceptance:
    def test_01_combination_rule_equivalence(self):
        started = time.monotonic()
        worst = 0.0
        for n in (1, 2, 3, 4):
            rng = np.random.default_rng(1000 + n)
            for _ in range(50):
                tables = [
                    (rng.uniform(-1, 1), rng.uniform(0.2, 2.0), rng.uniform(0.3, 1.5))
                    for _ in range(n)
                ]

                def evaluator(resolutions, tables=tables):
                    value = 1.0
                    for (offset, coeff, rate), m in zip(tables, resolutions):
                        value *= offset + coeff * (1.0 + m) ** -rate
                    return value

                factors = tuple(
                    FactorSpec(gamma=rng.uniform(0.5, 2.0), beta=rng.uniform(0.5, 2.0))
                    for _ in range(n)
                )
                problem = ProblemSpec(factors=factors, tensor_evaluator=evaluator)
                L = int(rng.integers(n, 11))
                engine = SmolyakEngine(problem)
                combined, _ = engine.estimate(L)
                expanded = engine.estimate_via_deltas(L)
                scale = max(abs(combined), abs(expanded), 1e-30)
                worst = max(worst, abs(combined - expanded) / scale)
        elapsed = time.monotonic() - started
        report(
            1,
            worst <= 1e-10 and elapsed < 5.0,
            f"max relative gap {worst:.2e} (tol 1e-10), {elapsed:.1f}s (budget 5s)",
        )

    def test_02_coefficient_identities(self):
        failures = []
        for n in range(1, 6):
            for L in range(n, 13):
                total = sum(t.coefficient for t in combination_coefficients(n, L))
                if total != 1:
                    failures.append((n, L, "sum", total))
                count = len(enumerate_simplex(n, L))
                if count != math.comb(L, n):
                    failures.append((n, L, "cardinality", count))
        report(2, not failures, f"checked n=1..5, L=n..12 exactly; failures: {failures}")

    def test_03_kernel_interpolation_order(self):
        started = time.monotonic()
        kernel = MaternKernel(beta=2.0, dim=1)
        modes = np.arange(1, 401)
        amplitudes = modes ** -2.55
        signs = np.random.default_rng(11).choice([-1.0, 1.0], size=len(modes))

        def target(x):
            return (signs * amplitudes * np.sin(np.outer(x[:, 0], modes * np.pi))).sum(
                axis=1
            )

        grid = np.linspace(0.0, 1.0, 8193).reshape(-1, 1)
        exact = target(grid)
        counts, errors = [9, 17, 33, 65, 129], []
        for count in counts:
            nodes = generate_points(UNIT_INTERVAL, count)
            interp = fit_interpolant(kernel, nodes, target(nodes.points))
            diff = interp.evaluate(grid) - exact
            errors.append(math.sqrt(np.trapezoid(diff**2, grid[:, 0])))
        slope = float(np.polyfit(np.log(counts), np.log(errors), 1)[0])
        elapsed = time.monotonic() - started
        report(
            3,
            -2.4 <= slope <= -1.6 and elapsed < 10.0,
            f"fitted L2 slope {slope:.3f} (band [-2.4, -1.6]), {elapsed:.1f}s (budget 10s)",
        )

    def test_04_sparse_kernel_interpolation(self):
        started = time.monotonic()
        kernel = MaternKernel(beta=2.0, dim=1)
        domains = [UNIT_INTERVAL, UNIT_INTERVAL]

        def smooth(points):
            return np.sin(2 * np.pi * points[:, 0]) * np.sin(2 * np.pi * points[:, 1])

        eval_points = random_points(
            Box((0.0, 0.0), (1.0, 1.0)), 2048, seed=0
        )
        exact = smooth(eval_points)
        spec = FactorSpec(gamma=1.0, beta=2.0, resolution_map=lambda l: 2**l)
        table = []
        for L in range(4, 9):
            surrogate = sparse_interpolate([kernel, kernel], domains, smooth, L=L)
            diff = surrogate.evaluate(eval_points) - exact
            points_used = sum(
                np.prod([level_to_resolution(spec, l) for l in term.index])
                for term in combination_coefficients(2, L)
            )
            table.append((float(points_used), float(np.sqrt(np.mean(diff**2)))))
        errors = [row[1] for row in table]
        monotone = all(b < a for a, b in zip(errors, errors[1:]))
        slope = fit_loglog_slope(table)
        elapsed = time.monotonic() - started
        report(
            4,
            monotone and slope <= -1.3 and elapsed < 60.0,
            f"monotone={monotone}, error-vs-points slope {slope:.3f} (need <= -1.3), "
            f"{elapsed:.1f}s (budget 60s)",
        )

    def test_05_fem_order(self):
        started = time.monotonic()

        def exact(x):
            return np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])

        errors, steps = [], []
        for level in (3, 4, 5, 6):
            mesh = mesh_at_level(level)
            source = 2.0 * np.pi**2 * exact(mesh.centroids)
            solution = solve_poisson_dirichlet(mesh, 1.0, source)
            errors.append(l2_error_against(mesh, solution, exact))
            steps.append(mesh.h)
        slope = float(np.polyfit(np.log(steps), np.log(errors), 1)[0])
        elapsed = time.monotonic() - started
        report(
            5,
            1.8 <= slope <= 2.2 and elapsed < 30.0,
            f"manufactured L2 slope {slope:.3f} (band [1.8, 2.2]), {elapsed:.1f}s (budget 30s)",
        )

    def test_06_multilevel_synthetic(self, pipeline_runs):
        out, elapsed = pipeline_runs["misc"][0]
        slopes = read_slopes(out)
        fitted, predicted = slopes["fitted_slope"], slopes["predicted_slope"]
        within = abs(fitted - predicted) <= 0.3 * abs(predicted)
        report(
            6,
            within and elapsed < 30.0,
            f"fitted {fitted:.3f} vs predicted {predicted:.3f} (within 30%), "
            f"{elapsed:.1f}s (budget 30s)",
        )

    def test_07_response_surface_reproduction(self, pipeline_runs):
        out, elapsed = pipeline_runs["rsr"][0]
        fitted = read_slopes(out)["fitted_slope"]
        report(
            7,
            -0.95 <= fitted <= -0.45 and elapsed < 1200.0,
            f"error-vs-work slope {fitted:.3f} (band [-0.95, -0.45], ideal -2/3), "
            f"{elapsed:.1f}s (budget 1200s)",
        )

    def test_08_ouu_reproduction(self, pipeline_runs):
        out, elapsed = pipeline_runs["ouu"][0]
        fitted = read_slopes(out)["fitted_slope"]
        with open(os.path.join(out, "minimizer.txt")) as handle:
            minimizer_log = handle.read().strip().splitlines()
        for line in minimizer_log:
            print(f"[acceptance]   ouu {line}")
        report(
            8,
            -0.8 <= fitted <= -0.25 and elapsed < 2700.0,
            f"sqrt-MSE-vs-work slope {fitted:.3f} (band [-0.8, -0.25], ideal -1/2), "
            f"{elapsed:.1f}s (budget 2700s)",
        )

    def test_09_repeat_run_determinism(self, pipeline_runs):
        mismatches = []
        for name, runs in pipeline_runs.items():
            studies = []
            for out, _ in runs:
                with open(os.path.join(out, "study.csv"), "rb") as handle:
                    studies.append(handle.read())
            if studies[0] != studies[1]:
                mismatches.append(name)
        report(
            9,
            not mismatches,
            f"byte-identical study.csv on a warm-cache repeat; mismatches: {mismatches}",
        )

    def test_10_field_statistics(self):
        started = time.monotonic()
        grid = mesh_at_level(5)
        sampler = GaussianFieldSampler(grid)
        draws = np.stack(
            [sampler.sample(seed=0, draw=k).values for k in range(2000)]
        )
        variances = draws.var(axis=0)
        nx = grid.nodes_per_axis
        a = 10 * nx + 10
        b = 11 * nx + 13  # offset (3, 1) cells: distance sqrt(10)/32 = 0.0988
        covariance = float(np.mean(draws[:, a] * draws[:, b]))
        gap = abs(covariance - math.exp(-1.0))
        elapsed = time.monotonic() - started
        ok = (
            float(variances.min()) >= 0.85
            and float(variances.max()) <= 1.15
            and gap <= 0.08
            and elapsed < 60.0
        )
        report(
            10,
            ok,
            f"variance range [{variances.min():.3f}, {variances.max():.3f}] "
            f"(band [0.85, 1.15]), |cov - 1/e| = {gap:.4f} (tol 0.08), "
            f"{elapsed:.1f}s (budget 60s)",
        )

"""Configuration-driven experiment runner.

Reads a sectioned plain-text configuration, runs the requested pipeline,
and writes three artifacts into the output directory: ``manifest.txt``
(configuration hash, seed, version; written before any numerics),
``study.csv`` (one row per threshold or mesh level), and ``slope.txt``
(fitted and predicted log-log slopes).  The optimization pipeline also
writes ``minimizer.txt``.  Every pipeline builds its problem from the
run plan of its configuration (:func:`~kernelkit.config.run_plan`) and
returns its table to :func:`run`, which fits the slope first and then
writes the study's artifacts together, so a failed fit leaves only the
manifest.

Exit codes:

* 0 success;
* 1 numerical failure, one ``numerical failure:`` line naming the failing
  term where there is one, with only ``manifest.txt`` written;
* 2 configuration error, one ``configuration error:`` line naming the
  config line where there is one, with nothing written.  It includes an
  output directory that cannot be created, and a threshold that the plan
  cannot reach: ``n + L`` above the combination rule's bound of 64, a
  level map that is not a finite float at a reached level, or a dense
  kernel fit above its node bound.  An artifact that cannot be written,
  such as a ``study.csv`` that is a directory, is one too; the artifacts
  written before it stay.
"""

from __future__ import annotations

import argparse
import locale  # noqa: F401 - argparse's messages import it through gettext; loaded at start-up
import math
import os
import sys
from typing import NamedTuple

# CPython's own SHA-256, which hashlib falls back to without OpenSSL: the
# same digest, and no libcrypto mapped for one hash of under 1 KB.
try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    from _sha256 import sha256

# An idle OpenBLAS worker sleeps after 2**4 cycles, the least OpenBLAS takes,
# instead of spinning through a run.  OpenBLAS reads this as it loads.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

import numpy as np  # noqa: E402

import kernelkit  # noqa: E402
from kernelkit.config import (  # noqa: E402
    _MAX_SEED,
    ConfigError,
    RunConfig,
    RunPlan,
    parse_config_file,
    run_plan,
    serialize_config,
    sine_product,
)
from kernelkit.kernels import ConditioningError  # noqa: E402
from kernelkit.points import Box, _product_domain, random_points  # noqa: E402
from kernelkit.points import generate_points  # noqa: E402, F401 - bench/tests read this binding
from kernelkit.smolyak import (  # noqa: E402
    EvaluationError,
    ProblemSpec,
    SlopeFitError,
    SmolyakEngine,
    convergence_study,
    fit_loglog_slope,
    predicted_rates,
)
from kernelkit.surrogate import Surrogate  # noqa: E402
from kernelkit.uq import (  # noqa: E402
    OuuObjective,
    expectation_study,
    interpolation_problem,
    minimize_objective,
    ouu_study,
    surface_study,
)

# Informational reference for the optimization experiment; compared in
# logs only, never asserted (discretization details shift the optimum).
_REFERENCE_MINIMIZER = ((-0.451, -0.062), 5.059)


def _write(out: str, name: str, text: str) -> None:
    """Write the artifact ``name`` into ``out``; one that cannot be written
    is a configuration error."""
    path = os.path.join(out, name)
    try:
        with open(path, "w", newline="") as handle:
            handle.write(text)
    except OSError as err:
        raise ConfigError(
            f"output file {path!r} cannot be written: {err.strerror or err}"
        ) from None


def _manifest_text(config: RunConfig, seed: int, extra: dict) -> str:
    canonical = serialize_config(config)
    digest = sha256(canonical.encode()).hexdigest()
    lines = [
        f"kernelkit {kernelkit.__version__}",
        f"pipeline = {config.pipeline}",
        f"config_sha256 = {digest}",
        f"seed = {seed}",
    ]
    lines += [f"{key} = {value}" for key, value in extra.items()]
    return "\n".join(lines) + "\n"


def _csv_text(header: list[str], rows: list[dict]) -> str:
    def fmt(key, value):
        if isinstance(value, float):
            return f"{value:.12e}"
        return str(value)

    lines = [",".join(header)] + [",".join(fmt(k, row[k]) for k in header) for row in rows]
    return "\n".join(lines) + "\n"


class _Study(NamedTuple):
    """A pipeline's table, the (x, y) series its slope is fitted to, and
    further artifacts to write (name to text)."""

    header: list[str]
    rows: list[dict]
    series: list[tuple[float, float]]
    artifacts: dict[str, str] = {}


def _run_rates(config: RunConfig, plan: RunPlan, seed: int) -> _Study:
    def evaluator(resolutions):
        out_value = 1.0
        for n, spec in zip(resolutions, plan.factors):
            out_value *= 1.0 + float(n) ** -spec.beta
        return out_value

    engine = SmolyakEngine(ProblemSpec(factors=plan.factors, tensor_evaluator=evaluator))
    rows, _ = convergence_study(
        [engine], plan.rows, lambda _, values: [{"error": abs(1.0 - v)} for v in values]
    )
    series = [(r["work_units"], r["error"]) for r in rows]
    return _Study(["L", "work_units", "evaluations", "error"], rows, series)


def _run_interp(config: RunConfig, plan: RunPlan, seed: int) -> _Study:
    dim = config[("kernel", "d")] * len(plan.factors)
    unit = Box(lows=(0.0,) * dim, highs=(1.0,) * dim)
    points = random_points(unit, config[("study", "eval_points")], seed)

    def errors(_, surrogates):
        values = Surrogate.stack(surrogates).evaluate(points)
        diffs = values - sine_product(points)[:, None]
        return [{"error": float(np.sqrt(np.mean(diff**2)))} for diff in diffs.T]

    problem = interpolation_problem(plan.factors, sine_product)
    rows, _ = convergence_study([SmolyakEngine(problem)], plan.rows, errors)
    series = [(r["work_units"], r["error"]) for r in rows]
    return _Study(["L", "work_units", "evaluations", "error"], rows, series)


def _run_misc(config: RunConfig, plan: RunPlan, seed: int) -> _Study:
    *quads, sample = plan.factors
    m = config.section("misc")
    # Each x_j**2 integrates to 1/3 and each sin(2 pi x_j) to 0 over [0, 1],
    # and the bias 1/N tends to 0.
    coordinates = sum(q.dim for q in quads)
    mean = coordinates / 3.0 if m["integrand"] == "parabola" else 0.0
    rows = expectation_study(quads, sample, plan.rows, mean)
    series = [(r["work_units"], r["error_l2"]) for r in rows]
    return _Study(["L", "work_units", "pde_solves", "error_l2", "error_linf"], rows, series)


def _run_rsr(config: RunConfig, plan: RunPlan, seed: int) -> _Study:
    *factors, sample = plan.factors
    box = _product_domain([f.domain for f in factors])
    points = random_points(box, config[("study", "eval_points")], seed)
    rows = surface_study(factors, sample, plan.rows, points, reference_L=plan.reference_l)
    series = [(r["work_units"], r["error_l2"]) for r in rows]
    return _Study(["L", "work_units", "pde_solves", "error_l2", "error_linf"], rows, series)


def _run_ouu(config: RunConfig, plan: RunPlan, seed: int) -> _Study:
    from kernelkit.pde import mesh_at_level

    o, factor = config.section("ouu"), plan.factors[0]
    rows, reference = ouu_study(
        plan.factors,
        plan.rows,
        seed=seed,
        eval_points=random_points(factor.domain, config[("study", "eval_points")], seed),
        replications=o["replications"],
        reference_L=plan.reference_l,
        field_grid=mesh_at_level(o["field_level"]),
    )
    minimizer, value = minimize_objective(
        OuuObjective(surrogate=reference), restarts=o["restarts"]
    )
    lines = [
        f"minimizer = {minimizer[0]:.6f} {minimizer[1]:.6f}",
        f"objective = {value:.6f}",
        f"surrogate = {float(reference(minimizer)):.6f}",
        f"informational_reference_minimizer = {_REFERENCE_MINIMIZER[0][0]} "
        f"{_REFERENCE_MINIMIZER[0][1]}",
        f"informational_reference_objective = {_REFERENCE_MINIMIZER[1]}",
    ]
    header = ["L", "work_units", "pde_solves", "mse_linf", "replications"]
    series = [(r["work_units"], math.sqrt(r["mse_linf"])) for r in rows]
    return _Study(header, rows, series, {"minimizer.txt": "\n".join(lines) + "\n"})


def _run_fem_check(config: RunConfig, plan: None, seed: int) -> _Study:
    from kernelkit.pde import l2_error_against, mesh_at_level, solve_poisson_dirichlet

    p = config.section("pde")

    def exact(x):
        return np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])

    rows = []
    for level in range(p["level_min"], p["level_max"] + 1):
        mesh = mesh_at_level(level)
        source = 2.0 * np.pi**2 * exact(mesh.centroids)
        solution = solve_poisson_dirichlet(mesh, 1.0, source)
        rows.append(
            {
                "level": level,
                "h_max": mesh.h_max,
                "error_l2": l2_error_against(mesh, solution, exact),
            }
        )
    series = [(r["h_max"], r["error_l2"]) for r in rows]
    return _Study(["level", "h_max", "error_l2"], rows, series)


_RUNNERS = {
    "rates": _run_rates,
    "interp": _run_interp,
    "misc": _run_misc,
    "rsr": _run_rsr,
    "ouu": _run_ouu,
    "fem-check": _run_fem_check,
}


def run(config: RunConfig, out: str, seed: int, quiet: bool) -> None:
    """Execute one configured pipeline, writing artifacts into the existing
    directory ``out``.

    ``manifest.txt`` comes first; the study's artifacts are written only
    after its slope fit succeeded, so a failed run leaves the manifest alone.
    """
    extra = {}
    if "eval_points" in config.section("study"):
        extra["eval_points"] = config[("study", "eval_points")]
    if config.pipeline == "ouu":
        extra["replications"] = config[("ouu", "replications")]
    _write(out, "manifest.txt", _manifest_text(config, seed, extra))
    plan = run_plan(config.pipeline, config.sections)
    study = _RUNNERS[config.pipeline](config, plan, seed)
    fitted = fit_loglog_slope(study.series, window=config.fit_window)
    # fem-check's P1 solutions converge in L2 at order 2 in the mesh width.
    predicted = 2.0 if plan is None else predicted_rates(plan.specs).slope
    _write(out, "study.csv", _csv_text(study.header, study.rows))
    slopes = (
        f"predicted_slope = {predicted:.12e}\n"
        f"fitted_slope = {fitted:.12e}\n"
        f"fit_window = {config.fit_window:.12e}\n"
    )
    _write(out, "slope.txt", slopes)
    for name, text in study.artifacts.items():
        _write(out, name, text)
        if not quiet:
            print(text, end="")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kernelkit",
        description="sparse combination-technique experiment runner",
    )
    parser.add_argument("--config", required=True, help="path to the run configuration")
    parser.add_argument("--out", default=None, help="output directory (default from config)")
    parser.add_argument("--seed", type=int, default=None, help="seed override")
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="accepted for compatibility; terms are evaluated serially, so it has no effect",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress stdout reporting")
    args = parser.parse_args(argv)
    try:
        config = parse_config_file(args.config)
        seed = config.seed if args.seed is None else args.seed
        if not 0 <= seed <= _MAX_SEED:
            raise ConfigError(f"--seed must be a 64-bit unsigned integer, got {seed}")
        out = args.out if args.out is not None else config.out
        try:
            os.makedirs(out, exist_ok=True)
        except OSError as err:
            raise ConfigError(
                f"output directory {out!r} cannot be created: {err.strerror or err}"
            ) from None
    except (ConfigError, OSError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    try:
        run(config, out, seed, args.quiet)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except (
        EvaluationError,
        ConditioningError,
        SlopeFitError,
        np.linalg.LinAlgError,
        OverflowError,
    ) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 1
    if not args.quiet:
        print(f"wrote {out}/study.csv, {out}/slope.txt, {out}/manifest.txt")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

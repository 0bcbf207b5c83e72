"""Run one kernelkit pipeline in a fresh interpreter and report its cost.

Usage (from the root of a checkout; ``run.py`` starts it)::

    python3 bench/child.py --src src --config run.cfg --out OUT \
        --workers N --result result.json [--setup-only] [--spans spans.json]

The result file holds ``setup_s`` (``import kernelkit.cli``, numpy and
scipy included, plus parsing the config), ``wall_s`` (one call of the
command-line entry point, from entering it to the last artifact
written), the exit code, the peak resident memory of this process and a
record of the numerical environment.  With ``--spans`` the library's
public entry points are wrapped and every recorded span is written out
after the run.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

_BLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS library loaded in this process."""
    try:
        with open("/proc/self/maps") as handle:
            paths = sorted(
                {
                    line.split()[-1]
                    for line in handle
                    if "openblas" in line.lower() and line.split()[-1].startswith("/")
                }
            )
    except OSError:
        return {}
    out = {}
    for path in paths:
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _BLAS_THREAD_SYMBOLS:
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                out[os.path.basename(path)] = int(getter())
                break
    return out


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        vendor = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": vendor,
        "blas_threads": blas_threads(),
        "thread_env": {
            key: os.environ[key]
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if key in os.environ
        },
    }


def trace_targets():
    """The public entry points the traced run wraps, with their attributes."""
    import numpy as np

    from spans import Hooks, Target

    def solve_input(state, args, kwargs, result):
        mesh = kwargs.get("mesh", args[-1])
        # A field sample is identified by its nodal values.
        data = [getattr(a, "values", a) for a in args[1:] if a is not mesh]
        key = tuple(np.asarray(d, dtype=float).tobytes() for d in data)
        return {"cells": mesh.cells, "input": hash((key, mesh.cells))}

    def grid_cells(state, args, kwargs, result):
        grid = args[1] if len(args) > 1 else kwargs["grid"]
        return {"grid": grid.cells}

    def node_count(state, args, kwargs, result):
        nodes = args[1] if len(args) > 1 else kwargs["nodes"]
        return {"nodes": len(nodes)}

    shapes: dict[int, tuple[object, int, int]] = {}

    def surrogate_shape(state, args, kwargs, result):
        surrogate = args[0]
        points = args[1] if len(args) > 1 else kwargs["points"]
        known = shapes.get(id(surrogate))
        if known is None:
            stacked = np.vstack([interp.nodes.points for _, interp in surrogate.terms])
            distinct = len(np.unique(stacked, axis=0))
            # Holding the surrogate keeps its id from being reused.
            known = shapes[id(surrogate)] = (surrogate, distinct, len(stacked))
        return {
            "points": int(np.atleast_2d(np.asarray(points)).shape[0]),
            "surrogate": id(surrogate),
            "distinct_nodes": known[1],
            "node_rows": known[2],
        }

    def evaluations_before(args, kwargs):
        return args, kwargs, args[0].evaluations

    def estimate_counts(before, args, kwargs, result):
        _, ledger = result
        return {"terms": len(ledger.per_term), "evals": args[0].evaluations - before}

    def count_objective(args, kwargs):
        counter = [0]
        objective = args[0] if args else kwargs["objective"]

        def counted(z):
            counter[0] += 1
            return objective(z)

        if args:
            args = (counted,) + tuple(args[1:])
        else:
            kwargs = dict(kwargs, objective=counted)
        return args, kwargs, counter

    def objective_calls(counter, args, kwargs, result):
        return {"objective_calls": counter[0]}

    return [
        Target("pde.solve", "kernelkit.pde", "AdvectionDiffusionProblem.sample_qoi",
               Hooks(after=solve_input)),
        Target("pde.solve", "kernelkit.pde", "BumpDiffusionProblem.sample_qoi",
               Hooks(after=solve_input)),
        Target("pde.field.factor", "kernelkit.pde", "GaussianFieldSampler.__init__",
               Hooks(after=grid_cells)),
        Target("pde.field.draw", "kernelkit.pde", "GaussianFieldSampler.sample"),
        Target("kernels.fit", "kernelkit.kernels", "fit_interpolant",
               Hooks(after=node_count)),
        Target("surrogate.evaluate", "kernelkit.surrogate", "Surrogate.evaluate",
               Hooks(after=surrogate_shape)),
        Target("surrogate.point", "kernelkit.surrogate", "Surrogate.__call__"),
        Target("smolyak.estimate", "kernelkit.smolyak", "SmolyakEngine.estimate",
               Hooks(before=evaluations_before, after=estimate_counts)),
        Target("uq.study", "kernelkit.uq", "ouu_study"),
        Target("uq.study", "kernelkit.uq", "surface_study"),
        Target("uq.minimize", "kernelkit.uq", "minimize_objective",
               Hooks(before=count_objective, after=objective_calls)),
        Target("points.generate", "kernelkit.points", "generate_points"),
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    sys.path.insert(0, os.path.abspath(args.src))
    import kernelkit.cli
    from kernelkit.config import parse_config_file

    parse_config_file(args.config)
    setup_s = time.perf_counter() - _T0
    result = {"setup_s": setup_s}
    if args.setup_only:
        result["env"] = environment()
    else:
        recorder = None
        if args.spans:
            from spans import Recorder, install

            recorder = Recorder()
            install(recorder, trace_targets(), "kernelkit")
        argv = ["--config", args.config, "--out", args.out,
                "--workers", str(args.workers), "--quiet"]
        start = time.perf_counter()
        result["rc"] = kernelkit.cli.main(argv)
        result["wall_s"] = time.perf_counter() - start
        if recorder is not None:
            from spans import spans_to_json

            with open(args.spans, "w") as handle:
                json.dump(spans_to_json(recorder.spans), handle)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())

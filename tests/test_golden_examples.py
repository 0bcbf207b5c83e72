"""The example configurations against their stored outputs.

``tests/golden/<example>/`` holds ``study.csv`` and ``slope.txt`` of
``docs/examples/<example>.cfg`` at its default seed.  A golden whose
config is no example keeps it beside its outputs, as
``tests/golden/<name>/<name>.cfg``: one per config path that no example
reaches.  The ``ouu-advection`` example is the benchmark's ``ouu``
workload and is compared with ``bench/reference/ouu``.  They are compared
with the benchmark's comparison (``bench/golden.py``: integers exactly,
floats within rtol 1e-5 / atol 1e-9), so a change to a solver or to the
engine that moves these numbers beyond rounding fails here.
"""

import importlib.util
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import kernelkit.kernels as kernels_module
from kernelkit.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ARTIFACTS = ("study.csv", "slope.txt")


def load_golden():
    spec = importlib.util.spec_from_file_location("golden", os.path.join(ROOT, "bench", "golden.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden = load_golden()


def golden_config(name):
    pinned = os.path.join(ROOT, "tests", "golden", name, f"{name}.cfg")
    if os.path.exists(pinned):
        return pinned
    return os.path.join(ROOT, "docs", "examples", f"{name}.cfg")


@pytest.mark.parametrize(
    "example",
    [
        "fem-check",
        "interp",
        "misc-synthetic",
        "rates",
        "rsr-bump",
        # [misc] quadrature = kernel: Matern quadrature weights on a
        # Gauss-Legendre grid, with a sine-product integrand.
        "misc-kernel",
        # [kernel] length_scale = 0.1: profiles beyond two length scales.
        "rsr-short-scale",
    ],
)
def test_example_matches_golden_outputs(example, tmp_path):
    config = golden_config(example)
    out = str(tmp_path / example)
    assert main(["--config", config, "--out", out, "--quiet"]) == 0
    problems = golden.compare_dirs(os.path.join(ROOT, "tests", "golden", example), out, ARTIFACTS)
    assert not problems, problems


def test_ouu_example_matches_the_benchmark_reference(tmp_path):
    # docs/examples/ouu-advection.cfg is the benchmark's ouu workload, whose
    # reference outputs at seed 0 live in bench/reference/ouu.
    config = os.path.join(ROOT, "docs", "examples", "ouu-advection.cfg")
    out = str(tmp_path / "ouu")
    assert main(["--config", config, "--out", out, "--seed", "0", "--quiet"]) == 0
    artifacts = ARTIFACTS + ("minimizer.txt",)
    problems = golden.compare_dirs(os.path.join(ROOT, "bench", "reference", "ouu"), out, artifacts)
    assert not problems, problems


@pytest.mark.parametrize("example", ["interp", "rsr-bump"])
def test_example_repeats_byte_for_byte_in_one_process(example, tmp_path):
    # The second run reuses every process-wide cache the first one filled:
    # nested point prefixes, grid-factor inverses, mesh operators.
    config = os.path.join(ROOT, "docs", "examples", f"{example}.cfg")
    studies = []
    for run in ("first", "second"):
        out = tmp_path / run
        assert main(["--config", config, "--out", str(out), "--quiet"]) == 0
        studies.append((out / "study.csv").read_bytes())
    assert studies[0] == studies[1]


def test_interp_example_inverts_its_factors_by_packets(monkeypatch, tmp_path):
    # Its grids' blocks are all one-dimensional with nu = 3/2: each of the 7
    # distinct factors is given one banded LU, and nothing is
    # eigendecomposed.
    fresh = kernels_module._FactoredGrams(limit=kernels_module._FACTORED_GRAM_BYTES)
    monkeypatch.setattr(kernels_module, "_FACTORED_GRAMS", fresh)
    calls = {"eigh": 0, "_packet_factor": 0, "dgbtrf": 0}
    owners = {"eigh": np.linalg, "_packet_factor": kernels_module, "dgbtrf": kernels_module}
    for name, owner in owners.items():
        original = getattr(owner, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    config = os.path.join(ROOT, "docs", "examples", "interp.cfg")
    assert main(["--config", config, "--out", str(tmp_path / "out"), "--quiet"]) == 0
    assert calls == {"eigh": 0, "_packet_factor": 7, "dgbtrf": 7}


@pytest.mark.parametrize("l_max", [8, 11, 14])
def test_interp_example_is_byte_identical_across_blas_thread_counts(tmp_path, l_max):
    # At l_max = 11 the grids have factors of up to 1,024 points, where an
    # eigendecomposition or a dense LU inverse gives different bits at one
    # and at two BLAS threads; l_max = 14, the highest a config admits,
    # reaches 8,192 points.  The example itself stops at l_max = 8.
    with open(os.path.join(ROOT, "docs", "examples", "interp.cfg")) as handle:
        text = handle.read()
    assert "l_max = 8\n" in text
    config = tmp_path / "interp.cfg"
    config.write_text(text.replace("l_max = 8\n", f"l_max = {l_max}\n"))
    src = os.path.join(ROOT, "src")
    studies = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        result = subprocess.run(
            [sys.executable, "-m", "kernelkit.cli", "--config", str(config), "--out", str(out), "--quiet"],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr
        studies.append((out / "study.csv").read_bytes())
    assert studies[0] == studies[1]


def run_measured(config, out):
    """Run the CLI on ``config`` in a child process that must exit 0: its
    wall time in seconds, imports included, and its peak RSS in MB."""
    if not os.path.exists("/proc/self/status"):
        pytest.skip("needs /proc for the child's peak RSS")
    # The child's own peak RSS (VmHWM): ru_maxrss would keep this process's
    # from before the child's exec.
    script = (
        "import sys, kernelkit.cli\n"
        "code = kernelkit.cli.main(['--config', sys.argv[1], '--out', sys.argv[2], '--quiet'])\n"
        "print(open('/proc/self/status').read().split('VmHWM:')[1].split()[0])\n"
        "sys.exit(code)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-c", script, str(config), str(out)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    elapsed = time.perf_counter() - start
    assert result.returncode == 0, result.stderr
    return elapsed, int(result.stdout.split()[-1]) / 1024


@pytest.mark.parametrize("l_max,seconds,mb", [(13, 10.0, 145.0), (14, 13.0, 170.0)])
def test_interp_example_at_l_max_13_runs_within_its_budget(tmp_path, l_max, seconds, mb):
    # l_max = 13 fits two 8,192-node grids, 2 x 4,096 and 4,096 x 2, whose
    # 4,096-point factor's Gram matrix has condition number 3.3e15.  In the
    # kernel basis they missed the residual gate and fell back to two
    # eigendecompositions of it: 24 s and 872 MB.  In the packet basis,
    # solved by banded LU, the run took 1.0-1.25 s and peaked at 72 MB,
    # imports included; at l_max = 14, the highest a config admits, with
    # an 8,192-point factor, 1.2-1.45 s and 85 MB.  The budgets leave 2x
    # headroom on the memory and 10x on the time.
    with open(os.path.join(ROOT, "docs", "examples", "interp.cfg")) as handle:
        text = handle.read()
    config = tmp_path / "interp.cfg"
    config.write_text(text.replace("l_max = 8\n", f"l_max = {l_max}\n"))
    elapsed, peak_mb = run_measured(config, tmp_path / "out")
    assert elapsed <= seconds
    assert peak_mb <= mb
    rows = (tmp_path / "out" / "study.csv").read_text().splitlines()
    assert rows[-1].startswith(f"{l_max},")


def test_fem_check_at_the_finest_mesh_level_runs_within_its_budget(tmp_path):
    # Levels 6-8 end at the finest admitted mesh, 256 cells per axis.  The
    # run took 1.3 s and peaked at 274 MB, imports included; the budget
    # leaves 2x headroom on the memory and 10x on the time.
    config = tmp_path / "fem-check.cfg"
    config.write_text("[run]\npipeline = fem-check\n[pde]\nlevel_min = 6\nlevel_max = 8\n")
    elapsed, peak_mb = run_measured(config, tmp_path / "out")
    assert elapsed <= 13.0
    assert peak_mb <= 550.0
    rows = (tmp_path / "out" / "study.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["6", "7", "8"]
    errors = [float(row.split(",")[2]) for row in rows]
    # P1 converges at order 2 in L2: each halving of h divides the error by 4.
    for coarse, fine in zip(errors, errors[1:]):
        assert coarse / fine == pytest.approx(4.0, abs=0.01)

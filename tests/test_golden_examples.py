"""The example configurations against their stored outputs.

``tests/golden/<example>/`` holds ``study.csv`` and ``slope.txt`` of
``docs/examples/<example>.cfg`` at its default seed.  They are compared
with the benchmark's comparison (``bench/golden.py``: integers exactly,
floats within rtol 1e-5 / atol 1e-9), so a change to a solver or to the
engine that moves these numbers beyond rounding fails here.
"""

import importlib.util
import os

import pytest

from kernelkit.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ARTIFACTS = ("study.csv", "slope.txt")


def load_golden():
    spec = importlib.util.spec_from_file_location("golden", os.path.join(ROOT, "bench", "golden.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden = load_golden()


@pytest.mark.parametrize(
    "example", ["fem-check", "interp", "misc-synthetic", "rates", "rsr-bump"]
)
def test_example_matches_golden_outputs(example, tmp_path):
    config = os.path.join(ROOT, "docs", "examples", f"{example}.cfg")
    out = str(tmp_path / example)
    assert main(["--config", config, "--out", out, "--quiet"]) == 0
    problems = golden.compare_dirs(os.path.join(ROOT, "tests", "golden", example), out, ARTIFACTS)
    assert not problems, problems


@pytest.mark.parametrize("example", ["interp", "rsr-bump"])
def test_example_repeats_byte_for_byte_in_one_process(example, tmp_path):
    # The second run reuses every process-wide cache the first one filled:
    # nested point prefixes, factor eigendecompositions, mesh operators.
    config = os.path.join(ROOT, "docs", "examples", f"{example}.cfg")
    studies = []
    for run in ("first", "second"):
        out = tmp_path / run
        assert main(["--config", config, "--out", str(out), "--quiet"]) == 0
        studies.append((out / "study.csv").read_bytes())
    assert studies[0] == studies[1]

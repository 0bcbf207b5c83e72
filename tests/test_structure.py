"""Structural rules on the library's source, checked on its syntax trees,
and counts of the work that an example run does."""

import ast
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "kernelkit"

# Runs the ouu example through the CLI and prints how often each unit of
# work happened: sample_qoi calls (one per distinct solve), assembled
# (field draw, mesh) systems, dense node-set factorizations, field draws,
# field covariance factorizations and solved plans.
_OUU_COUNTS = """
import collections, sys
import kernelkit.cli, kernelkit.kernels as kernels, kernelkit.pde as pde, kernelkit.uq as uq
counts = collections.Counter()
def count(owner, name):
    original = getattr(owner, name)
    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)
    setattr(owner, name, counted)
count(pde.AdvectionDiffusionProblem, 'sample_qoi')
count(pde.AdvectionDiffusionProblem, '_base')
count(kernels, 'cho_factor')
count(pde.GaussianFieldSampler, 'sample')
count(pde, 'dpotrf')
count(uq.OuuPipeline, '_solve_plan')
argv = ['--config', 'docs/examples/ouu-advection.cfg', '--out', sys.argv[1], '--quiet']
code = kernelkit.cli.main(argv)
print(*(counts[name] for name in ('sample_qoi', '_base', 'cho_factor', 'sample', 'dpotrf', '_solve_plan')))
sys.exit(code)
"""


def test_one_exponential_level_map():
    # math.exp is called only inside smolyak.scaled_exponential_map, the one
    # map ceil(scale * exp(l / (gamma + beta))) that level_to_resolution and
    # pde.pde_resolution_map take.
    outside = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text())
        helper = set()
        for node in ast.walk(tree):
            if path.name == "smolyak.py" and getattr(node, "name", None) == "scaled_exponential_map":
                helper.update(map(id, ast.walk(node)))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute) or id(node) in helper:
                continue
            if node.attr == "exp" and getattr(node.value, "id", None) == "math":
                outside.append(f"{path.name}:{node.lineno}")
    assert not outside, "math.exp outside smolyak.scaled_exponential_map: " + ", ".join(outside)


def test_each_ouu_unit_of_work_happens_once(tmp_path):
    # The ouu example makes 12,618 distinct solves, each one sample_qoi
    # call; it assembles each of its 1,995 (field draw, mesh) systems once,
    # factors each of its 7 dense node sets once, draws each of its 991
    # fields once and factors the field covariance once.  Each of its 6
    # pipelines solves one plan, and no tuple outside it.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", _OUU_COUNTS, str(tmp_path / "once")],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "12618 1995 7 991 1 6\n"

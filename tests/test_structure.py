"""Structural rules on the library's source, checked on its syntax trees,
and counts of the work that an example run does."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

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


# Philox4x64's two round multipliers and its two key increments (Salmon et
# al., SC'11).
_PHILOX_CONSTANTS = {
    0xD2E7470EE14C6C93, 0xCA5A826395121157, 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
}


def test_one_counter_based_rng_helper():
    # np.random.Philox is built only inside pde.philox_generator, and the
    # Philox round constants appear only inside pde.philox_uniforms, which
    # computes the same generator's uniforms without numpy.random.
    built, constants, inside = [], [], set()
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text())
        generator, uniforms = set(), set()
        for node in ast.walk(tree):
            if path.name == "pde.py" and getattr(node, "name", None) == "philox_generator":
                generator.update(map(id, ast.walk(node)))
            if path.name == "pde.py" and getattr(node, "name", None) == "philox_uniforms":
                uniforms.update(map(id, ast.walk(node)))
        for node in ast.walk(tree):
            called = getattr(node, "func", None)
            name = getattr(called, "attr", getattr(called, "id", None))
            if isinstance(node, ast.Call) and name == "Philox" and id(node) not in generator:
                built.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.Constant) and node.value in _PHILOX_CONSTANTS:
                if id(node) in uniforms:
                    inside.add(node.value)
                else:
                    constants.append(f"{path.name}:{node.lineno}")
    assert not built, "np.random.Philox built outside pde.philox_generator: " + ", ".join(built)
    assert not constants, "Philox constants outside pde.philox_uniforms: " + ", ".join(constants)
    assert inside == _PHILOX_CONSTANTS, "pde.philox_uniforms does not hold the Philox constants"


def test_each_ouu_unit_of_work_happens_once(tmp_path):
    # The ouu example makes 12,618 distinct solves, each one sample_qoi
    # call; it assembles each of its 1,995 (field draw, mesh) systems once,
    # factors each of its 7 dense node sets once, draws each of its 991
    # fields once and factors the field covariance once.  Each of its 6
    # pipelines solves one plan, and no tuple outside it.
    done = run_child(_OUU_COUNTS, str(tmp_path / "once"))
    assert done.returncode == 0, done.stderr
    assert done.stdout == "12618 1995 7 991 1 6\n"


# No library module imports scipy.sparse, at any depth of its code.  The
# generic engine, kernelkit.smolyak, imports without any scipy module, and
# the CLI loads neither scipy.spatial, scipy.sparse and scipy.special nor
# the scipy.linalg package and scipy._lib._util, which it would load with
# scipy.linalg's __init__.  Then the interp and rsr-bump examples are parsed
# and run in the same process; their packet and series tables are rounded
# from integer ratios, so neither loads fractions or decimal, and they call
# no numpy.random, numpy.ma or numpy.polynomial code and load no top-level
# scipy package.
_SCIPY_IMPORTS = """
import ast, pathlib, sys
sparse = []
for path in sorted(pathlib.Path('src/kernelkit').glob('*.py')):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ''
            names = [module] + [f'{module}.{alias.name}' for alias in node.names]
        else:
            continue
        if any(name == 'scipy.sparse' or name.startswith('scipy.sparse.') for name in names):
            sparse.append(f'{path}:{node.lineno}')
if sparse:
    sys.exit('scipy.sparse imported at ' + ', '.join(sparse))
import kernelkit.smolyak
loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')
if loaded:
    sys.exit('import kernelkit.smolyak loads ' + ', '.join(loaded))
import kernelkit.cli
loaded = sorted(
    m for m in sys.modules
    if m.startswith(('scipy.spatial', 'scipy.sparse', 'scipy.special'))
    or m in ('scipy.linalg', 'scipy._lib._util')
)
if loaded:
    sys.exit('import kernelkit.cli loads ' + ', '.join(loaded))
for name in ('interp', 'rsr-bump'):
    argv = ['--config', f'docs/examples/{name}.cfg', '--out', f'{sys.argv[1]}/{name}', '--quiet']
    if kernelkit.cli.main(argv):
        sys.exit(f'docs/examples/{name}.cfg failed')
unused = ('fractions', 'decimal', 'numpy.random', 'numpy.ma', 'numpy.polynomial', 'scipy')
loaded = sorted(m for m in unused if m in sys.modules)
sys.exit('the interp and rsr-bump examples load ' + ', '.join(loaded) if loaded else 0)
"""

# Imports the CLI and parses a config, then prints the modules that the run
# itself imports.
_RUN_IMPORTS = """
import sys
import kernelkit.cli
from kernelkit.config import parse_config_file
parse_config_file(sys.argv[1])
before = set(sys.modules)
code = kernelkit.cli.main(['--config', sys.argv[1], '--out', sys.argv[2], '--quiet'])
print(*sorted(set(sys.modules) - before))
sys.exit(code)
"""


def run_child(script, *argv):
    """``python -c script *argv`` with the library on the path, from the root."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, "-c", script, *argv],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_cli_loads_no_scipy_package_beyond_the_compiled_wrappers(tmp_path):
    done = run_child(_SCIPY_IMPORTS, str(tmp_path))
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("name", ["interp", "rsr-bump", "ouu-advection"])
def test_a_run_imports_only_the_lazy_modules(tmp_path, name):
    # Every module a run needs is imported with the CLI, so its cost stays
    # in start-up; only kernelkit.packets, which only packet-grid fits use,
    # loads on first use.
    done = run_child(_RUN_IMPORTS, f"docs/examples/{name}.cfg", str(tmp_path / name))
    assert done.returncode == 0, done.stderr
    assert set(done.stdout.split()) <= {"kernelkit.packets"}, done.stdout

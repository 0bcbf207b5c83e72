"""Structural rules on the library's source, checked on its syntax trees,
and counts of the work that an example run does."""

import ast
import os
import pathlib
import re
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
    # np.random.Philox is built only inside points.philox_generator, and the
    # Philox round constants appear only inside points.philox_uniforms, which
    # computes the same generator's uniforms without numpy.random.
    built, constants, inside = [], [], set()
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text())
        generator, uniforms = set(), set()
        for node in ast.walk(tree):
            if path.name == "points.py" and getattr(node, "name", None) == "philox_generator":
                generator.update(map(id, ast.walk(node)))
            if path.name == "points.py" and getattr(node, "name", None) == "philox_uniforms":
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
    assert not built, "np.random.Philox built outside points.philox_generator: " + ", ".join(built)
    assert not constants, "Philox constants outside points.philox_uniforms: " + ", ".join(constants)
    assert inside == _PHILOX_CONSTANTS, "points.philox_uniforms does not hold the Philox constants"


def test_the_library_stays_serial():
    # No thread or weak-reference machinery.
    pattern = re.compile(r"^\s*(import|from)\s+(threading|concurrent|weakref)\b")
    found = [
        f"{path.name}:{number}"
        for path in sorted(SOURCE.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if pattern.search(line)
    ]
    message = "src/kernelkit imports threading, concurrent.futures or weakref: "
    assert not found, message + ", ".join(found)


def test_the_library_writes_files_in_one_place():
    # Only cli.py writes: open() for writing, write_text or write_bytes.  A
    # mode that is not a string literal counts as writing.
    writers = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name == "open":
                modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
                writing = any(
                    not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax+")
                    for m in modes
                )
            else:
                writing = name in ("write_text", "write_bytes")
            if writing:
                writers.append(f"{path.name}:{node.lineno}")
    assert not writers, "files written outside cli.py: " + ", ".join(writers)


def test_one_tensor_product_builder():
    # np.outer, np.multiply.outer and np.kron are called only inside
    # points.tensor_weights; np.subtract.outer (distances) is no tensor
    # product.
    outside = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text())
        helper = set()
        for node in ast.walk(tree):
            if path.name == "points.py" and getattr(node, "name", None) == "tensor_weights":
                helper.update(map(id, ast.walk(node)))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute) or id(node) in helper:
                continue
            owner = node.value
            outer = node.attr == "outer" and getattr(owner, "attr", None) == "multiply"
            numpy = getattr(owner, "id", None) in ("np", "numpy")
            if node.attr in ("outer", "kron") and numpy or outer:
                outside.append(f"{path.name}:{node.lineno}")
    assert not outside, "tensor products built outside points.tensor_weights: " + ", ".join(outside)


def test_one_loop_over_point_chunks():
    # _STACK_BLOCK_ENTRIES, the evaluation chunk budget, is read only inside
    # surrogate.evaluate_stacked, the one loop that walks a stack's points
    # in chunks, whatever the kind of its expansions.
    outside, inside = [], 0
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text())
        helper = set()
        for node in ast.walk(tree):
            if path.name == "surrogate.py" and getattr(node, "name", None) == "evaluate_stacked":
                helper.update(map(id, ast.walk(node)))
        for node in ast.walk(tree):
            name = isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id
            attribute = isinstance(node, ast.Attribute) and node.attr
            if "_STACK_BLOCK_ENTRIES" not in (name, attribute):
                continue
            if id(node) in helper:
                inside += 1
            else:
                outside.append(f"{path.name}:{node.lineno}")
    assert inside, "surrogate.evaluate_stacked does not read _STACK_BLOCK_ENTRIES"
    assert not outside, (
        "_STACK_BLOCK_ENTRIES read outside surrogate.evaluate_stacked: " + ", ".join(outside)
    )


def test_the_cli_sets_the_openblas_thread_timeout_before_numpy_loads():
    # OpenBLAS reads OPENBLAS_THREAD_TIMEOUT as it loads, with numpy, so the
    # CLI's setdefault comes before its first numpy or kernelkit import.
    setting = ast.unparse(ast.parse('os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")'))
    set_at = first_import = None
    for index, node in enumerate(ast.parse((SOURCE / "cli.py").read_text()).body):
        if ast.unparse(node) == setting and set_at is None:
            set_at = index
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            names = [node.module or ""] if isinstance(node, ast.ImportFrom) else []
        if first_import is None and any(n.split(".")[0] in ("numpy", "kernelkit") for n in names):
            first_import = index
    assert set_at is not None, "cli.py does not set OPENBLAS_THREAD_TIMEOUT by setdefault"
    assert set_at < first_import, "cli.py imports numpy or kernelkit before it sets the timeout"


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
# itself imports, and whether the FEM module is loaded.
_RUN_IMPORTS = """
import sys
import kernelkit.cli
from kernelkit.config import parse_config_file
parse_config_file(sys.argv[1])
before = set(sys.modules)
code = kernelkit.cli.main(['--config', sys.argv[1], '--out', sys.argv[2], '--quiet'])
print(*sorted(set(sys.modules) - before))
print('kernelkit.pde' in sys.modules)
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
    # Every module a run needs is imported with the CLI or its config's run
    # plan, so its cost stays in start-up; only kernelkit.packets, which
    # only packet-grid fits use, loads on first use.  The interp run never
    # loads the FEM module, kernelkit.pde.
    done = run_child(_RUN_IMPORTS, f"docs/examples/{name}.cfg", str(tmp_path / name))
    assert done.returncode == 0, done.stderr
    run_imports, pde_loaded = done.stdout.split("\n")[:2]
    assert set(run_imports.split()) <= {"kernelkit.packets"}, done.stdout
    if name == "interp":
        assert pde_loaded == "False", done.stdout

"""Structural rules on the library's source, checked on its syntax trees,
and on the CI workflow, and counts and budgets of the work that an example
run does."""

import ast
import cProfile
import os
import pathlib
import pstats
import re
import subprocess
import sys

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "kernelkit"

# The preamble of each child script that counts calls: count(owner, name,
# label) wraps owner.name so that each call adds one to counts[label],
# which is the name unless given.
_COUNTING = """
import collections, sys
import kernelkit.cli
counts = collections.Counter()
def count(owner, name, label=None):
    original = getattr(owner, name)
    def counted(*args, **kwargs):
        counts[label or name] += 1
        return original(*args, **kwargs)
    setattr(owner, name, counted)
"""

# Runs the ouu example through the CLI and prints how often each unit of
# work happened: sample_qoi calls (one per distinct solve), assembled
# (field draw, mesh) systems, dense node-set factorizations, field draws,
# field covariance factorizations and solved plans.  The dense fits take
# LAPACK's dpotrf from kernelkit.lapack when they call it; kernelkit.pde
# bound its own when it was imported, before the counters.
_OUU_COUNTS = _COUNTING + """
import kernelkit.lapack as lapack, kernelkit.pde as pde, kernelkit.uq as uq
count(pde.AdvectionDiffusionProblem, 'sample_qoi')
count(pde.AdvectionDiffusionProblem, '_base')
count(lapack, 'dpotrf', 'kernels.dpotrf')
count(pde.GaussianFieldSampler, 'sample')
count(pde, 'dpotrf', 'pde.dpotrf')
count(uq.OuuPipeline, '_solve_plan')
argv = ['--config', 'docs/examples/ouu-advection.cfg', '--out', sys.argv[1], '--quiet']
code = kernelkit.cli.main(argv)
names = ('sample_qoi', '_base', 'kernels.dpotrf', 'sample', 'pde.dpotrf', '_solve_plan')
print(*(counts[name] for name in names))
sys.exit(code)
"""

# Runs a config through the CLI and prints how often each named function
# of kernelkit.kernels (np.linalg for eigh, kernelkit.lapack for dpotrf)
# was called.
_FACTORED_ONCE = _COUNTING + """
import numpy as np
import kernelkit.kernels as kernels, kernelkit.lapack as lapack
config, out, *names = sys.argv[1:]
for name in names:
    count({'eigh': np.linalg, 'dpotrf': lapack}.get(name, kernels), name)
code = kernelkit.cli.main(['--config', config, '--out', out, '--quiet'])
print(*(counts[name] for name in names))
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


def test_one_half_integer_polynomial_evaluation():
    # The half-integer Matern polynomial q(s) is evaluated only by
    # MaternKernel._half_integer_poly: its coefficients are read only inside
    # MaternKernel and by kernels._packet_order, which reads its degree.
    allowed = {("kernels.py", "MaternKernel"), ("kernels.py", "_packet_order")}
    outside = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text())
        inside = set()
        for node in ast.walk(tree):
            if (path.name, getattr(node, "name", None)) in allowed:
                inside.update(map(id, ast.walk(node)))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "_half_integer_coefficients":
                if id(node) not in inside:
                    outside.append(f"{path.name}:{node.lineno}")
    assert not outside, (
        "_half_integer_coefficients read outside MaternKernel and _packet_order: "
        + ", ".join(outside)
    )


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


def test_ci_runs_library_code_only_through_tier_1():
    # The tier-1 verify command runs every check CI runs: beside the tier-1
    # step, no workflow step names kernelkit or puts src on PYTHONPATH.
    text = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    steps = re.split(r"(?m)^\s*- (?=name:|uses:)", text)[1:]
    found = [
        step.splitlines()[0]
        for step in steps
        if not step.startswith("name: Tier-1 tests")
        and ("kernelkit" in step or re.search(r"PYTHONPATH[=:]\s*\S*\bsrc\b", step))
    ]
    assert steps, "no step found in .github/workflows/tests.yml"
    assert not found, "workflow steps that run library code beside tier-1: " + ", ".join(found)


def test_each_ouu_unit_of_work_happens_once(tmp_path):
    # The ouu example makes 12,618 distinct solves, each one sample_qoi
    # call; it assembles each of its 1,995 (field draw, mesh) systems once,
    # factors each of its 7 dense node sets once, draws each of its 991
    # fields once and factors the field covariance once.  Each of its 6
    # pipelines solves one plan, and no tuple outside it.
    done = run_child(_OUU_COUNTS, str(tmp_path / "once"))
    assert done.returncode == 0, done.stderr
    assert done.stdout == "12618 1995 7 991 1 6\n"


@pytest.mark.parametrize(
    "name, functions, expected",
    [
        ("interp", ["_packet_factor", "eigh", "_band_factor"], "7 0 7"),
        ("rsr-bump", ["dpotrf"], "8"),
    ],
    ids=["interp", "rsr-bump"],
)
def test_each_kernel_node_set_and_grid_factor_is_factored_once(
    tmp_path, name, functions, expected
):
    # The interp example fits on product grids of 7 distinct one-dimensional
    # nu = 3/2 factors, each given its kernel-packet basis and one banded
    # inverse (_band_factor) once, and none eigendecomposed; the rsr-bump
    # example fits on 8 distinct dense node sets, each Cholesky-factored once.
    config, out = f"docs/examples/{name}.cfg", str(tmp_path / name)
    done = run_child(_FACTORED_ONCE, config, out, *functions)
    assert done.returncode == 0, done.stderr
    assert done.stdout == expected + "\n", f"{' '.join(functions)}: {done.stdout}"


@pytest.mark.parametrize("beta", [1.0, 2.0, 3.0], ids=["nu=1/2", "nu=3/2", "nu=5/2"])
def test_a_kernel_packet_basis_costs_a_fixed_number_of_calls(beta):
    # packets._packet_basis builds a factor's basis in a fixed number of
    # array passes, whatever its size: at each packet order it makes as
    # many Python-level calls (cProfile) on 64 sorted Halton points as on
    # 1,024.  Measured: 316 on each at every order (313 at nu = 3/2
    # when the packets evaluated q(s) with their own polyval copy, 462 when
    # the basis also built the end packets' polynomials, and 1,296 when
    # those and the series were summed term by term); the ceiling, 400,
    # leaves room for numpy's own wrappers to differ between versions.
    from kernelkit import packets
    from kernelkit.kernels import MaternKernel
    from kernelkit.points import halton_sequence

    kernel = MaternKernel(beta=beta, dim=1)
    grids = [np.sort(halton_sequence(count, 1), axis=0) for count in (64, 1024)]
    packets._packet_basis(kernel, grids[0])  # builds the order's series tables once
    counts = []
    for points in grids:
        profile = cProfile.Profile()
        profile.runcall(packets._packet_basis, kernel, points)
        counts.append(pstats.Stats(profile).total_calls)
    assert counts[0] == counts[1] <= 400, f"calls at 64 and 1,024 points: {counts}"


# Runs a config through the CLI with tracemalloc on and prints its exit
# code, the size of the largest Gram matrix TensorKernel.gram returned and
# the heap growth while that matrix was built.
_GRAM_BUILDS = """
import sys, tracemalloc
import kernelkit.cli, kernelkit.kernels as kernels
build = kernels.TensorKernel.gram
builds = []
def measured(self, x, y):
    start, _ = tracemalloc.get_traced_memory()
    tracemalloc.reset_peak()
    out = build(self, x, y)
    builds.append((out.nbytes, tracemalloc.get_traced_memory()[1] - start))
    return out
kernels.TensorKernel.gram = measured
tracemalloc.start()
code = kernelkit.cli.main(['--config', sys.argv[1], '--out', sys.argv[2], '--quiet'])
print(code, *max(builds, default=(0, 0)))
"""


def test_a_gram_build_holds_one_gram_sized_array(tmp_path):
    # The interp example with one block fits 2,048 nodes at l_max = 11 on
    # the dense Cholesky path, whose Gram matrix takes 32 MiB; grids of
    # several blocks are fitted in the packet basis and build none.  Built
    # from row blocks, that matrix grows the heap by 32.6 MiB while it is
    # built; a whole-matrix distance or Horner temporary beside it would
    # take the growth to 64 MiB or more.
    text = (ROOT / "docs" / "examples" / "interp.cfg").read_text()
    config = tmp_path / "gram.cfg"
    config.write_text(re.sub(r"(?m)^l_max = .*", "l_max = 11", text) + "\n[interp]\nblocks = 1\n")
    done = run_child(_GRAM_BUILDS, str(config), str(tmp_path / "gram"))
    assert done.returncode == 0, done.stderr
    code, size, grown = map(int, done.stdout.split())
    message = f"exit {code}, largest Gram {size / 2**20:.1f} MiB, heap growth {grown / 2**20:.1f} MiB"
    assert code == 0 and size >= 32 * 2**20 and grown <= 40 * 2**20, message


# Runs each config given after the output directory through the CLI and
# prints how many ranked plans surrogate._ContractionPlan.build made, their
# coefficient-matrix entries in all, and each plan with more entries than
# nodes.
_RANKED_PLANS = """
import os, sys
import kernelkit.cli, kernelkit.surrogate as surrogate
build = surrogate._ContractionPlan.build.__func__
plans, padded = [], []
def checked(cls, kernel, nodes, coefficients):
    plan = build(cls, kernel, nodes, coefficients)
    entries = sum(matrix.size for _, matrix, _ in plan.groups)
    plans.append(entries)
    if entries > len(nodes):
        padded.append(f'{entries} entries for {len(nodes)} nodes')
    return plan
surrogate._ContractionPlan.build = classmethod(checked)
for config in sys.argv[2:]:
    out = os.path.join(sys.argv[1], os.path.basename(config)[:-4])
    if kernelkit.cli.main(['--config', config, '--out', out, '--quiet']):
        sys.exit(f'{config} failed')
print(len(plans), 'plans,', sum(plans), 'entries')
print(*padded, sep=', ')
"""


def test_every_kernel_expansion_a_config_builds_is_a_padless_ranked_plan(tmp_path):
    # surrogate.py contracts every kernel expansion by its ranked plan alone,
    # which holds one coefficient-matrix entry per node on a union of grids
    # over nested prefixes, the only node sets a pipeline builds, and pads
    # the rest with zeros.  The rsr-bump and ouu-advection examples build
    # one-block plans here (33, with 545 entries), whose ranking cannot pad;
    # rsr-bump with two bumps from l_min = 3 builds six two-block plans (339
    # entries), which a last block ranked by ascending node count pads (5
    # of the 6).  The interp example's grids are fitted in the packet basis
    # and build none.  Any plan with more entries than nodes fails.
    text = (ROOT / "docs" / "examples" / "rsr-bump.cfg").read_text()
    two_bumps = tmp_path / "rsr-two-bumps.cfg"
    two_bumps.write_text(
        re.sub(r"(?m)^bumps = .*", "bumps = 2", re.sub(r"(?m)^l_min = .*", "l_min = 3", text))
    )
    examples = [f"docs/examples/{name}.cfg" for name in ("interp", "rsr-bump", "ouu-advection")]
    done = run_child(_RANKED_PLANS, str(tmp_path), *examples, str(two_bumps))
    assert done.returncode == 0, done.stderr
    built, padded = done.stdout.split("\n")[:2]
    assert not built.startswith("0 plans"), "no plan was built"
    assert not padded, f"{built}; padded plans: {padded}"


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
# itself imports, whether the FEM module is loaded, whether scipy's BLAS
# wrapper was loaded before the run, which of hashlib, OpenSSL's _hashlib
# and that wrapper are loaded after it, whether kernelkit.lapack was loaded
# before the run, the scipy modules loaded after it, and which of scipy's
# OpenBLAS and LAPACK wrapper libraries are mapped then.
_RUN_IMPORTS = """
import os, sys
import kernelkit.cli
from kernelkit.config import parse_config_file
parse_config_file(sys.argv[1])
before = set(sys.modules)
code = kernelkit.cli.main(['--config', sys.argv[1], '--out', sys.argv[2], '--quiet'])
print(*sorted(set(sys.modules) - before))
print('kernelkit.pde' in sys.modules)
print('scipy.linalg._fblas' in before)
print(*[m for m in ('hashlib', '_hashlib', 'scipy.linalg._fblas') if m in sys.modules])
print('kernelkit.lapack' in before)
print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))
with open('/proc/self/maps') as maps:
    libraries = {os.path.basename(line.split()[-1]) for line in maps if '/' in line}
print(*sorted(n for n in libraries if n.startswith(('libscipy_openblas-', '_flapack'))))
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


@pytest.mark.parametrize(
    "name", ["interp", "rsr-bump", "ouu-advection", "rates", "misc-synthetic", "fem-check"]
)
def test_a_run_imports_only_the_lazy_modules(tmp_path, name):
    # Every module a run needs is imported with the CLI or when its config
    # is validated (through the run plan, or for fem-check, which has none,
    # by the validation itself), so its cost stays in start-up; only
    # kernelkit.packets, which only packet-grid fits use, loads on first
    # use.  The interp run never loads kernelkit.pde, kernelkit.lapack or
    # any scipy module, and maps neither scipy's OpenBLAS nor its LAPACK
    # wrapper; the runs that call LAPACK load kernelkit.lapack before the
    # run.  The manifest's hash maps no OpenSSL, and only the ouu field
    # draws call BLAS: their run plan loads scipy's BLAS wrapper, and no
    # other run maps it.
    done = run_child(_RUN_IMPORTS, f"docs/examples/{name}.cfg", str(tmp_path / name))
    assert done.returncode == 0, done.stderr
    lines = done.stdout.split("\n")
    run_imports, pde_loaded, fblas_planned, native, lapack_planned, scipy, mapped = lines[:7]
    assert set(run_imports.split()) <= {"kernelkit.packets"}, done.stdout
    if name == "interp":
        assert pde_loaded == "False", done.stdout
        assert lapack_planned == "False" and scipy == "" and mapped == "", done.stdout
    if name in ("rsr-bump", "ouu-advection", "fem-check"):
        assert lapack_planned == "True", done.stdout
    if name == "ouu-advection":
        assert fblas_planned == "True", done.stdout
    else:
        assert native == "", done.stdout

import contextlib
import dataclasses
import glob
import hashlib
import importlib.util
import io
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import kernelkit.cli
import kernelkit.config
import kernelkit.kernels
import kernelkit.pde
from kernelkit.cli import _RUNNERS, main
from kernelkit.config import (
    _KEYS_READ,
    _MAX_EVAL_POINTS,
    _MAX_REPLICATIONS,
    _MAX_RESTARTS,
    _MAX_THRESHOLD,
    _MISC_BY_KERNEL,
    _SCHEMA,
    _convert_section,
    _rates_terms_round_off,
    _unreachable,
    MAX_MESH_LEVEL,
    PIPELINES,
    ConfigError,
    parse_config,
    parse_config_file,
    run_plan,
    serialize_config,
    sine_product,
)
from kernelkit.kernels import MaternKernel
from kernelkit.points import Box, random_points
from kernelkit.smolyak import SlopeFitError, SmolyakEngine
from kernelkit.surrogate import Surrogate
from kernelkit.uq import build_expectation_problem, sparse_interpolate

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

RATES_CONFIG = """
[run]
pipeline = rates
l_min = 2
l_max = 6

[factors]
gamma = 1, 1.5
beta = 1, 1
"""


def run_study(config, seed):
    """The study table of ``config``'s runner, on the plan the run makes."""
    return _RUNNERS[config.pipeline](config, run_plan(config.pipeline, config.sections), seed)


# One quick configuration per pipeline.
SMALL_CONFIGS = {
    "rates": RATES_CONFIG,
    "interp": "[run]\npipeline = interp\nl_min = 2\nl_max = 4\n[study]\neval_points = 64\n",
    "misc": "[run]\npipeline = misc\nl_min = 2\nl_max = 4\n",
    "rsr": "[run]\npipeline = rsr\nl_min = 2\nl_max = 4\n"
    "[pde]\nmax_mesh_level = 3\n[study]\neval_points = 64\n",
    "ouu": "[run]\npipeline = ouu\nl_min = 3\nl_max = 5\n"
    "[kernel]\nbeta = 4.0\nd = 2\nalpha = 1.0\n"
    "[ouu]\nreplications = 2\nfield_level = 2\nmax_mesh_level = 2\nrestarts = 1\n"
    "[study]\neval_points = 64\n",
    "fem-check": "[run]\npipeline = fem-check\n[pde]\nlevel_min = 2\nlevel_max = 4\n",
}


class TestParseConfig:
    def test_minimal_rates_config_applies_defaults(self):
        config = parse_config(RATES_CONFIG)
        config2 = parse_config(RATES_CONFIG)
        assert config == config2
        assert config.pipeline == "rates"
        assert config[("run", "seed")] == 0
        assert config[("run", "fit_window")] == 1.0
        assert config[("factors", "gamma")] == (1.0, 1.5)

    def test_comments_and_blank_lines(self):
        config = parse_config(
            """
            # a comment
            [run]
            pipeline = rates ; trailing comment
            l_min = 2
            l_max = 4

            [factors]
            gamma = 1, 1
            beta = 1, 1
            """
        )
        assert config.pipeline == "rates"

    def test_duplicate_key_names_both_lines(self):
        text = "\n".join(
            [
                "[run]",
                "pipeline = rates",
                "seed = 1",
                "l_min = 2",
                "seed = 2",
            ]
        )
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert "line 5" in str(err.value)
        assert "line 3" in str(err.value)

    def test_unknown_key_is_error(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[run]\npipeline = rates\nl_mn = 2\n")
        assert "l_mn" in str(err.value)
        assert "line 3" in str(err.value)

    def test_unknown_section_is_error(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[rnu]\npipeline = rates\n")
        assert "rnu" in str(err.value)

    def test_negative_exponent_names_field(self):
        text = RATES_CONFIG.replace("beta = 1, 1", "beta = 1, -1")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert "[factors] beta" in str(err.value)

    def test_length_mismatch(self):
        text = RATES_CONFIG.replace("beta = 1, 1", "beta = 1")
        with pytest.raises(ConfigError):
            parse_config(text)

    def test_threshold_range_validation(self):
        with pytest.raises(ConfigError) as err:
            parse_config(RATES_CONFIG.replace("l_min = 2", "l_min = 1"))
        assert "threshold" in str(err.value)
        with pytest.raises(ConfigError):
            parse_config(RATES_CONFIG.replace("l_max = 6", "l_max = 15"))

    def test_seed_range(self):
        with pytest.raises(ConfigError):
            parse_config(RATES_CONFIG + "\n[run2]")
        bad = RATES_CONFIG.replace("[run]", "[run]\nseed = -1")
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        assert "seed" in str(err.value)

    def test_section_not_used_by_pipeline(self):
        text = RATES_CONFIG + "\n[pde]\nbumps = 1\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert "[pde]" in str(err.value)

    def test_missing_required_section(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[run]\npipeline = rates\nl_min = 2\nl_max = 4\n")
        assert "factors" in str(err.value)

    def test_bad_pipeline_name(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[run]\npipeline = warp\n")
        assert "warp" in str(err.value)


def _floats(low=0.01, high=100.0):
    return st.floats(min_value=low, max_value=high, allow_nan=False).map(repr)


_LEVEL_MAPS = st.sampled_from(["doubling", "exponential"])


@st.composite
def _kernel(draw, pipeline):
    """A [kernel] section whose Matern order ``beta - dim/2`` is a positive
    integer or half-integer at the dimension the pipeline builds its kernel
    at: ``d`` (default 1), or 2 for rsr and ouu, which admit only d = 2.
    The default beta = 2.0 is valid at every dimension drawn."""
    keys = {}
    fixed = pipeline in ("rsr", "ouu")
    if draw(st.booleans()):
        keys["d"] = str(2 if fixed else draw(st.integers(1, 3)))
    dim = 2 if fixed else int(keys.get("d", 1))
    beta = 2.0
    if draw(st.booleans()):
        beta = dim / 2.0 + draw(st.integers(1, 19)) / 2.0
        keys["beta"] = repr(beta)
    optional = {
        "length_scale": _floats(),
        "alpha": st.floats(min_value=0.0, max_value=min(beta, 2.0) / 2.0).map(repr),
    }
    return {**keys, **draw(st.fixed_dictionaries({}, optional=optional))}


# The values of every key drawn on its own, by section; [factors], [kernel]
# and fem-check's level range are drawn whole.
_VALUES = {
    "run": {
        "seed": st.integers(0, 2**64 - 1).map(str),
        "out": st.sampled_from(["out", "runs/a"]),
        "fit_window": _floats(0.01, 1.0),
    },
    "interp": {"blocks": st.integers(1, 4).map(str), "level_map": _LEVEL_MAPS},
    "misc": {
        # Kernel quadrature reads other keys; config_texts draws it on its own.
        "quadrature": st.just("midpoint"),
        "blocks": st.integers(1, 3).map(str),
        "integrand": st.sampled_from(["parabola", "sine-product"]),
        "quad_beta": _floats(),
        "sample_gamma": _floats(),
        "sample_kappa": _floats(),
    },
    "pde": {
        "bumps": st.sampled_from([1, 2, 4]).map(str),
        "max_mesh_level": st.integers(1, 8).map(str),
        "work_exponent": _floats(),
        "convergence_exponent": _floats(),
    },
    "ouu": {
        "field_level": st.integers(1, 6).map(str),
        "max_mesh_level": st.integers(1, 8).map(str),
        "replications": st.integers(1, _MAX_REPLICATIONS).map(str),
        "mc_scale": _floats(),
        "pde_scale": _floats(),
        "level_map": _LEVEL_MAPS,
        "restarts": st.integers(1, _MAX_RESTARTS).map(str),
    },
    "study": {
        "eval_points": st.integers(1, _MAX_EVAL_POINTS).map(str),
        # config_texts redraws it within the thresholds the run reaches.
        "reference_l": st.integers(0, 14).map(str),
    },
}


@st.composite
def config_texts(draw, pipeline, reference_ls=None):
    """A valid configuration of ``pipeline``: any subset of the keys it reads
    (``_KEYS_READ``), each value drawn from its key's valid range, and a
    threshold range that its run plan reaches.  With ``reference_ls``, a
    reference threshold drawn from it, which may be invalid, is always set."""
    keys = _KEYS_READ[pipeline]
    kernel_quadrature = pipeline == "misc" and draw(st.booleans())
    if kernel_quadrature:
        keys = _MISC_BY_KERNEL
    sections = {}
    for name, read in keys.items():
        if name == "factors":
            n = draw(st.integers(1, 4))
            sections[name] = {
                key: ", ".join(draw(st.lists(_floats(), min_size=n, max_size=n)))
                for key in read
            }
        elif name != "run" and not draw(st.booleans()):
            continue
        elif name == "kernel":
            sections[name] = draw(_kernel(pipeline))
        elif name == "pde" and pipeline == "fem-check":
            low = draw(st.integers(1, MAX_MESH_LEVEL - 2))
            high = draw(st.integers(low + 2, MAX_MESH_LEVEL))
            sections[name] = {"level_min": str(low), "level_max": str(high)}
        else:
            values = {key: _VALUES[name][key] for key in read if key in _VALUES[name]}
            sections[name] = draw(st.fixed_dictionaries({}, optional=values))
        assert set(sections[name]) <= set(read)
    sections["run"]["pipeline"] = pipeline
    if kernel_quadrature:
        sections.setdefault("misc", {})["quadrature"] = "kernel"
    if pipeline != "fem-check":
        # The plan of the drawn keys, at a placeholder range drawn below.
        sections["run"].update(l_min="0", l_max="0")
        plan = run_plan(
            pipeline,
            {
                name: _convert_section(
                    name, {k: (v, 0) for k, v in sections.get(name, {}).items()}, read
                )
                for name, read in keys.items()
            },
        )
        n = len(plan.factors)
        # The plan reaches every threshold up to top, up to 16.
        top = max((L for L in range(n, 17) if _unreachable(plan, L) is None), default=0)
        # An automatic reference is estimated at l_max + 2.
        last = min(_MAX_THRESHOLD, top - 2 * (plan.reference_l is not None))
        assume(last >= n + 2)
        # A rates study whose every term rounds to 1 is refused.
        assume(pipeline != "rates" or not _rates_terms_round_off(plan))
        l_min = draw(st.integers(n, last - 2))
        l_max = draw(st.integers(l_min + 2, last))
        sections["run"].update(l_min=str(l_min), l_max=str(l_max))
        if reference_ls is not None:
            sections.setdefault("study", {})["reference_l"] = str(draw(reference_ls))
        elif "reference_l" in sections.get("study", {}):
            # Automatic (0) or above the study's range.
            reference_l = draw(st.one_of(st.just(0), st.integers(l_max + 1, top)))
            sections["study"]["reference_l"] = str(reference_l)
    return "\n".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
        for name, keys in sections.items()
    )


class TestRoundTrip:
    @pytest.mark.parametrize("pipeline", PIPELINES)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_serialize_parse_identity(self, pipeline, data):
        config = parse_config(data.draw(config_texts(pipeline)))
        again = parse_config(serialize_config(config))
        assert again == config
        assert serialize_config(again) == serialize_config(config)

    def test_field_level_bound_is_the_dense_factor_bound(self, tmp_path, capsys):
        text = "[run]\npipeline = ouu\nl_min = 3\nl_max = 5\n[ouu]\nfield_level = {}\n"
        # Level 6 has 65**2 = 4225 reference nodes, level 7 has 129**2 = 16641.
        assert parse_config(text.format(6)).sections["ouu"]["field_level"] == 6
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text.format(7))
        out = tmp_path / "o"
        assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "[ouu] field_level 7: reference grid has 16641 nodes" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text,section,key",
        [
            (
                "[run]\npipeline = fem-check\n[pde]\nlevel_min = 6\nlevel_max = {}\n",
                "pde",
                "level_max",
            ),
            (
                SMALL_CONFIGS["rsr"].replace("max_mesh_level = 3", "max_mesh_level = {}"),
                "pde",
                "max_mesh_level",
            ),
            (
                SMALL_CONFIGS["ouu"].replace("max_mesh_level = 2", "max_mesh_level = {}"),
                "ouu",
                "max_mesh_level",
            ),
            (
                SMALL_CONFIGS["interp"].replace("eval_points = 64", "eval_points = {}"),
                "study",
                "eval_points",
            ),
            (
                SMALL_CONFIGS["ouu"].replace("replications = 2", "replications = {}"),
                "ouu",
                "replications",
            ),
            (
                SMALL_CONFIGS["ouu"].replace("restarts = 1", "restarts = {}"),
                "ouu",
                "restarts",
            ),
        ],
        ids=["fem-check", "rsr", "ouu", "eval_points", "replications", "restarts"],
    )
    def test_bounded_key_is_capped_at_its_maximum(self, tmp_path, capsys, text, section, key):
        assert MAX_MESH_LEVEL == 8
        maximum = _SCHEMA[section][key].maximum
        assert parse_config(text.format(maximum)).sections[section][key] == maximum
        line = next(n for n, row in enumerate(text.splitlines(), 1) if row.startswith(key))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text.format(maximum + 1))
        out = tmp_path / "o"
        assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: line {line}: [{section}] {key} "
            f"must be <= {maximum}, got {maximum + 1}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "text,row,message",
        [
            (
                RATES_CONFIG.replace("l_max = 6\n", "l_max = 6\nfit_window = 1.5\n"),
                "fit_window = ",
                "[run] fit_window must be <= 1.0, got 1.5",
            ),
            (
                SMALL_CONFIGS["misc"] + "seed = -1\n",
                "seed = ",
                "[run] seed must be a 64-bit unsigned integer, got -1",
            ),
            (
                SMALL_CONFIGS["interp"] + "[kernel]\nalpha = -0.5\n",
                "alpha = ",
                "[kernel] alpha must be >= 0, got -0.5",
            ),
            (
                SMALL_CONFIGS["ouu"].replace("field_level = 2", "field_level = 7"),
                "field_level = ",
                "[ouu] field_level 7: reference grid has 16641 nodes",
            ),
            (
                SMALL_CONFIGS["interp"] + "[kernel]\nbeta = 2.0\nalpha = 2.0\n",
                "alpha = ",
                "[kernel] alpha must be smaller than beta",
            ),
            (
                RATES_CONFIG.replace("beta = 1, 1", "beta = 1"),
                "beta = ",
                "[factors] gamma and beta must have equal length (2 vs 1)",
            ),
        ],
        ids=["fit_window", "seed", "alpha", "field_level", "alpha_below_beta", "factor_lengths"],
    )
    def test_a_check_on_one_key_names_its_line(self, tmp_path, capsys, text, row, message):
        line = next(n for n, r in enumerate(text.splitlines(), 1) if r.startswith(row))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        out = tmp_path / "o"
        assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: line {line}: {message}")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("pipeline", ["interp", "rsr", "ouu"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_any_count_parses_or_names_its_line(self, pipeline, data, tmp_path_factory):
        # A bounded count drawn up to four times its maximum, in a config
        # that is valid otherwise: it parses, or the run exits 2 with one
        # line that names the count's line and writes nothing.
        text = data.draw(config_texts(pipeline))
        counts = [("study", "eval_points"), ("ouu", "replications"), ("ouu", "restarts")]
        section, key = data.draw(
            st.sampled_from([c for c in counts if c[1] in _KEYS_READ[pipeline].get(c[0], {})])
        )
        maximum = _SCHEMA[section][key].maximum
        value = data.draw(st.integers(1, 4 * maximum))
        rows = [row for row in text.splitlines() if not row.startswith(f"{key} = ")]
        rows += [f"[{section}]", f"{key} = {value}"]
        if value <= maximum:
            assert parse_config("\n".join(rows))[(section, key)] == value
            return
        directory = tmp_path_factory.mktemp("count")
        cfg, out = directory / "run.cfg", directory / "out"
        cfg.write_text("\n".join(rows) + "\n")
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(["--config", str(cfg), "--out", str(out), "--quiet"])
        assert code == 2
        assert stderr.getvalue() == (
            f"configuration error: line {len(rows)}: [{section}] {key} "
            f"must be <= {maximum}, got {value}\n"
        )
        assert not out.exists()

    def test_round_trip_other_pipelines(self):
        samples = [
            "[run]\npipeline = fem-check\n[pde]\nlevel_min = 3\nlevel_max = 5\n",
            "[run]\npipeline = interp\nl_min = 4\nl_max = 6\n[kernel]\nbeta = 2.0\n",
            "[run]\npipeline = misc\nl_min = 2\nl_max = 8\n[misc]\nblocks = 1\n",
            "[run]\npipeline = ouu\nl_min = 3\nl_max = 5\n[kernel]\nbeta = 4.0\nd = 2\nalpha = 1.0\n",
        ]
        for text in samples:
            config = parse_config(text)
            assert parse_config(serialize_config(config)) == config


MISC_KERNEL_CONFIG = SMALL_CONFIGS["misc"] + "[misc]\nquadrature = kernel\n"
MISC_SINE_CONFIG = SMALL_CONFIGS["misc"] + "[misc]\nintegrand = sine-product\n"
CONFIGS = {**SMALL_CONFIGS, "misc-kernel": MISC_KERNEL_CONFIG, "misc-sine": MISC_SINE_CONFIG}

# Every key that a pipeline's run does not read, with a value it parses to.
UNREAD_KEYS = [
    ("rates", "study", "eval_points", "64"),
    ("rates", "study", "reference_l", "9"),
    ("interp", "study", "reference_l", "9"),
    ("misc", "study", "eval_points", "64"),
    ("misc", "study", "reference_l", "9"),
    ("misc-sine", "study", "reference_l", "9"),
    ("misc", "kernel", "beta", "2.0"),
    ("misc", "kernel", "d", "1"),
    ("misc", "kernel", "length_scale", "1.0"),
    ("misc", "kernel", "alpha", "0.0"),
    ("misc-kernel", "study", "eval_points", "64"),
    ("misc-kernel", "misc", "quad_beta", "2.0"),
    ("rsr", "pde", "level_min", "3"),
    ("rsr", "pde", "level_max", "6"),
    ("fem-check", "run", "l_min", "2"),
    ("fem-check", "run", "l_max", "4"),
    ("fem-check", "pde", "bumps", "1"),
    ("fem-check", "pde", "max_mesh_level", "6"),
    ("fem-check", "pde", "work_exponent", "1.5"),
    ("fem-check", "pde", "convergence_exponent", "1.0"),
]


class _Recording(dict):
    """A config section that records each key read from it."""

    def __init__(self, entries, read):
        super().__init__(entries)
        self.read = read

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


def _serialized_keys(config):
    """The keys of each section of the canonical form."""
    keys = {}
    for line in serialize_config(config).splitlines():
        if line.startswith("["):
            section = keys.setdefault(line[1:-1], set())
        elif line:
            section.add(line.split(" = ")[0])
    return keys


class TestKeysRead:
    @pytest.mark.parametrize("name", CONFIGS)
    def test_runner_reads_exactly_the_keys_serialized(self, name):
        config = parse_config(CONFIGS[name])
        read = {section: set() for section in config.sections if section != "run"}
        recording = dataclasses.replace(
            config,
            sections={
                name: _Recording(entries, read[name]) if name in read else entries
                for name, entries in config.sections.items()
            },
        )
        run_study(recording, config[("run", "seed")])
        serialized = _serialized_keys(config)
        del serialized["run"]
        assert read == serialized

    @pytest.mark.parametrize(
        "name,section,key,value", UNREAD_KEYS, ids=[f"{n}-{k}" for n, _, k, _ in UNREAD_KEYS]
    )
    def test_unread_key_is_a_config_error(self, name, section, key, value):
        text = CONFIGS[name] + f"[{section}]\n{key} = {value}\n"
        line = len(text.splitlines())
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        pipeline = parse_config(CONFIGS[name]).pipeline
        assert str(err.value).startswith(
            f"line {line}: [{section}] {key} is not read by pipeline {pipeline!r}"
        )

    def test_unread_section_header_is_a_config_error(self):
        # Midpoint quadrature builds no kernel.
        with pytest.raises(ConfigError, match=r"section \[kernel\] is not read by pipeline 'misc'"):
            parse_config(SMALL_CONFIGS["misc"] + "[kernel]\n")

    @pytest.mark.parametrize("name", ["rsr", "fem-check"])
    def test_pde_problem_is_an_unknown_key(self, name):
        text = CONFIGS[name] + "[pde]\nproblem = bump\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert str(err.value).startswith(
            f"line {len(text.splitlines())}: unknown key 'problem' in [pde]"
        )

    @pytest.mark.parametrize("name", ["rsr", "ouu"])
    def test_planar_kernel_admits_only_d_2(self, name):
        text = f"[run]\npipeline = {name}\nl_min = 3\nl_max = 5\n"
        assert parse_config(text).sections["kernel"]["d"] == 2
        with pytest.raises(ConfigError) as err:
            parse_config(text + "[kernel]\nd = 1\n")
        assert str(err.value) == "line 6: [kernel] d: expected one of 2, got 1"

    def test_unread_key_exits_two_and_writes_nothing(self, tmp_path, capsys):
        with open(os.path.join(ROOT, "docs", "examples", "rsr-bump.cfg")) as handle:
            text = handle.read() + "\n[pde]\nlevel_min = 3\n"
        cfg = tmp_path / "rsr.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err == (
            f"configuration error: line {len(text.splitlines())}: "
            "[pde] level_min is not read by pipeline 'rsr'\n"
        )
        assert not out.exists()


def _workload_configs():
    """The benchmark's workload configs at its default seed, by name."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", os.path.join(ROOT, "bench", "workloads.py")
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return {
        f"bench/workloads.py:{name}": workload.config_text(module.DEFAULT_SEED)
        for name, workload in module.WORKLOADS.items()
    }


def _config_files():
    paths = sorted(glob.glob(os.path.join(ROOT, "docs", "examples", "*.cfg")))
    paths += sorted(glob.glob(os.path.join(ROOT, "tests", "golden", "*", "*.cfg")))
    texts = {}
    for path in paths:
        with open(path) as handle:
            texts[os.path.relpath(path, ROOT)] = handle.read()
    return {**texts, **_workload_configs()}


CONFIG_FILES = _config_files()


def _set_reference(text, reference_l):
    return re.sub(r"(?m)^reference_l = .*", f"reference_l = {reference_l}", text)


# Configs that parse at the parent of the run plan, by a short name: the
# text, the key that sets the threshold the run cannot reach, and why.
UNREACHABLE = {
    "rsr-bound": (
        _set_reference(CONFIG_FILES["docs/examples/rsr-bump.cfg"], 70),
        "[study] reference_l = 70",
        "n + L = 72 exceeds the exact-arithmetic bound 64",
    ),
    "ouu-bound": (
        _set_reference(CONFIG_FILES["docs/examples/ouu-advection.cfg"], 70),
        "[study] reference_l = 70",
        "n + L = 73 exceeds the exact-arithmetic bound 64",
    ),
    "misc-map": (
        CONFIG_FILES["docs/examples/misc-synthetic.cfg"]
        + "sample_gamma = 0.001\nsample_kappa = 0.001\n",
        "[run] l_max = 14",
        "level map ceil(1.0 * exp(l / (0.001 + 0.001))) is not a finite float at level 13",
    ),
    "rates-map": (
        re.sub(r"(?m)^(gamma|beta) = .*", r"\1 = 0.001, 0.001", CONFIG_FILES["docs/examples/rates.cfg"]),
        "[run] l_max = 10",
        "level map ceil(1.0 * exp(l / (0.001 + 0.001))) is not a finite float at level 9",
    ),
    # At the parent it ran 13.7 s and peaked at 1.2 GB before exit 1.
    "rsr-dense": (
        _set_reference(CONFIG_FILES["docs/examples/rsr-bump.cfg"], 20),
        "[study] reference_l = 20",
        "factor 1 at level 19 needs a dense kernel fit on 13360 nodes, "
        "above the bound of 8192 nodes",
    ),
    # One block of nu = 1/2: 6.2 s and 1.18 GB before exit 1 at the parent.
    "interp-dense": (
        "[run]\npipeline = interp\nl_min = 4\nl_max = 14\n"
        "[kernel]\nbeta = 1.0\nd = 1\n[interp]\nblocks = 1\n",
        "[run] l_max = 14",
        "factor 1 at level 14 needs a dense kernel fit on 16384 nodes",
    ),
}

# The manifest's config_sha256 of each example and workload config: a change
# to the canonical form, or to one of these configs, moves it.
PINNED_SHA256 = {
    "docs/examples/fem-check.cfg": (
        "fc219aee39b1e85754fb3fb6dad32955"
        "5477c852fd9a2ac1986c7dde32f74b1a"
    ),
    "docs/examples/interp.cfg": (
        "890c5b71d720992a1852bedc69db96f8"
        "cdcef06c614f64de6cd39ec09b98a976"
    ),
    "docs/examples/misc-synthetic.cfg": (
        "142200c5a26a81b219bbf4383995302a"
        "5b4239d44bdeea47522248fefa3f710d"
    ),
    "docs/examples/ouu-advection.cfg": (
        "9c351f10494a487539b74dc9c697afc2"
        "5b0490fbc86f391675faa03f725ec279"
    ),
    "docs/examples/rates.cfg": (
        "c32c71eedb04cff553126b871b3be7fa"
        "63f53181fd28d5b78d7d37b14ad4cb07"
    ),
    "docs/examples/rsr-bump.cfg": (
        "811f9c3675e468e4ff6a12ddf3d596fb"
        "abab362aef369cc93be1564d7ae0d562"
    ),
    "bench/workloads.py:interp": (
        "0cb41e102b7d2f2c6b74f94555b2e0ec"
        "27eb5c849f15869ba6431950a9bb18fc"
    ),
    "bench/workloads.py:rsr": (
        "c5ddce60a9e1e680705482f956c4dac0"
        "79afec57a6ab2f7c6c34cef92f53ec98"
    ),
    "bench/workloads.py:ouu": (
        "9c351f10494a487539b74dc9c697afc2"
        "5b0490fbc86f391675faa03f725ec279"
    ),
}


class TestConfigFiles:
    @pytest.mark.parametrize("name", CONFIG_FILES)
    def test_parses_and_round_trips(self, name):
        config = parse_config(CONFIG_FILES[name])
        canonical = serialize_config(config)
        assert parse_config(canonical) == config
        assert serialize_config(parse_config(canonical)) == canonical

    def test_every_example_and_workload_is_pinned(self):
        assert set(PINNED_SHA256) == {
            name for name in CONFIG_FILES if not name.startswith("tests/")
        }

    @pytest.mark.parametrize("name", PINNED_SHA256)
    def test_config_sha256_is_pinned(self, name):
        # The digest that the manifest writes, not one computed here.
        manifest = kernelkit.cli._manifest_text(parse_config(CONFIG_FILES[name]), 0, {})
        assert f"config_sha256 = {PINNED_SHA256[name]}\n" in manifest

    def test_cli_sha256_matches_hashlib(self):
        # Lengths 0 to 200 cross every padding boundary of SHA-256's 64-byte
        # blocks: 55 and 56 bytes (whether the length fits the last block)
        # and 64 (a full block), also at the second and third block.
        for length in range(201):
            message = bytes(range(length))
            assert kernelkit.cli.sha256(message).hexdigest() == hashlib.sha256(message).hexdigest()


class TestCliRuns:
    def write(self, tmp_path, text):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        return str(path)

    def test_rates_config_whose_errors_round_off_is_refused(self, tmp_path, capsys):
        # At beta 55.5 and 74.8 each factor's coarsest term is 1 + 2**-beta,
        # which rounds to 1, so every error of the study is 0: the run
        # exited 1 at its slope fit, after writing the manifest.  The parse
        # refuses it, naming [factors] beta and its line, and writes nothing.
        text = CONFIG_FILES["docs/examples/rates.cfg"].replace("beta = 1, 1", "beta = 55.5, 74.8")
        line = text.splitlines().index("beta = 55.5, 74.8") + 1
        out = tmp_path / "out"
        assert main(["--config", self.write(tmp_path, text), "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: line {line}: [factors] beta = 55.5, 74.8: ")
        assert "slope cannot be fitted" in err and len(err.splitlines()) == 1
        assert not out.exists()
        # One factor whose term stays above 1 leaves its errors positive.
        kept = text.replace("beta = 55.5, 74.8", "beta = 55.5, 1")
        assert main(["--config", self.write(tmp_path, kept), "--out", str(out), "--quiet"]) == 0

    def test_a_run_fits_over_the_fit_window_of_its_sections(self, tmp_path):
        # A config whose sections are replaced runs what they hold, as the
        # manifest hashes and the canonical form serializes them.
        text = CONFIG_FILES["docs/examples/rates.cfg"]
        config = parse_config(text)
        run = {**config.sections["run"], "fit_window": 0.5}
        replaced = dataclasses.replace(config, sections={**config.sections, "run": run})
        edited = parse_config(text.replace("l_max = 10\n", "l_max = 10\nfit_window = 0.5\n"))
        slopes = []
        for name, cfg in (("replaced", replaced), ("edited", edited)):
            os.makedirs(tmp_path / name)
            kernelkit.cli.run(cfg, str(tmp_path / name), 0, quiet=True)
            slopes.append((tmp_path / name / "slope.txt").read_text())
        assert "fit_window = 5.000000000000e-01\n" in slopes[0]
        assert slopes[0] == slopes[1]
        assert replaced == edited

    @pytest.mark.parametrize(
        "study", ["[study]\nreference_l = 0\n", ""], ids=["reference_l-0", "no-study"]
    )
    def test_automatic_reference_is_two_thresholds_above_the_study(self, study):
        text = CONFIG_FILES["docs/examples/rsr-bump.cfg"].split("[study]")[0] + study
        config = parse_config(text)
        plan = run_plan(config.pipeline, config.sections)
        assert plan.reference_l == config[("run", "l_max")] + 2 == 9

    @pytest.mark.parametrize("name", ["rsr", "ouu"])
    def test_reference_l_inside_the_study_is_refused(self, tmp_path, capsys, name):
        # Every pipeline that reads [study] reference_l: at l_max the
        # reference would be a row of the study itself.
        text = CONFIGS[name] + "[study]\nreference_l = {}\n"
        l_max = parse_config(CONFIGS[name])[("run", "l_max")]
        line = len(text.splitlines())
        inside = tmp_path / "inside"
        assert main(["--config", self.write(tmp_path, text.format(l_max)), "--out", str(inside)]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: line {line}: [study] reference_l = {l_max} "
            f"must be 0 (automatic) or above l_max = {l_max}\n"
        )
        assert not inside.exists()
        above = str(tmp_path / "above")
        cfg = self.write(tmp_path, text.format(l_max + 1))
        assert main(["--config", cfg, "--out", above, "--quiet"]) == 0
        assert sorted(os.listdir(above))[-2:] == ["slope.txt", "study.csv"]

    def test_sine_product_misc_is_measured_against_its_exact_mean(self, monkeypatch):
        # prod_j sin(2 pi x_j) has mean 0 over the unit cube, so the run
        # estimates no reference: one estimate per row, and each row's
        # solves are those of the estimates up to it.
        estimated = []
        estimate = SmolyakEngine.estimate

        def counted(engine, L):
            estimated.append(L)
            return estimate(engine, L)

        config = parse_config(MISC_SINE_CONFIG)
        monkeypatch.setattr(SmolyakEngine, "estimate", counted)
        rows = run_study(config, config[("run", "seed")]).rows
        monkeypatch.undo()
        assert estimated == [row["L"] for row in rows] == [2, 3, 4]
        *quads, sample = run_plan(config.pipeline, config.sections).factors
        engine = SmolyakEngine(build_expectation_problem(quads, sample))
        for row in rows:
            value, ledger = engine.estimate(row["L"])
            assert row["error_l2"] == row["error_linf"] == abs(value)
            assert row["work_units"] == ledger.total_work
            assert row["pde_solves"] == sample.solve_count

    def test_parabola_misc_is_measured_against_the_mean_of_every_coordinate(self):
        # sum(x**2) over one block of d = 2 coordinates has mean 2/3.  Measured
        # against blocks / 3 the error levelled off near 1/3 (0.81 at L = 3,
        # 0.38 at L = 7).
        text = MISC_KERNEL_CONFIG.replace("l_min = 2\nl_max = 4", "l_min = 3\nl_max = 7")
        config = parse_config(text + "[kernel]\nd = 2\n")
        errors = [row["error_l2"] for row in run_study(config, config[("run", "seed")]).rows]
        assert all(later < earlier for earlier, later in zip(errors, errors[1:])), errors
        assert errors[-1] < 0.1, errors

    @pytest.mark.parametrize("name", UNREACHABLE)
    def test_unreachable_threshold_is_a_config_error(self, tmp_path, capsys, name):
        text, key, reason = UNREACHABLE[name]
        assignment = key.split("] ")[1].split(" =")[0] + " = "
        line = next(n for n, row in enumerate(text.splitlines(), 1) if row.startswith(assignment))
        out = tmp_path / "unreachable"
        assert main(["--config", self.write(tmp_path, text), "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: line {line}: {key}")
        assert reason in err
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("name", UNREACHABLE)
    def test_unreachable_threshold_without_the_parse_check_fails_in_one_line(
        self, tmp_path, capsys, monkeypatch, name
    ):
        # Each run then fails where it did before the check: before any
        # evaluation (n + L), at the level map, or at the first dense fit
        # past the bound, lowered to 64 nodes so that it fails in a second.
        monkeypatch.setattr(kernelkit.config, "_unreachable", lambda plan, L: None)
        monkeypatch.setattr(kernelkit.kernels, "_DENSE_FIT_NODES_MAX", 64)
        text, _, reason = UNREACHABLE[name]
        out = tmp_path / "unreachable"
        assert main(["--config", self.write(tmp_path, text), "--out", str(out), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ")
        if reason.startswith("n + L"):
            assert err.startswith("numerical failure: reference estimate at L=70 failed: " + reason)
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err
        assert os.listdir(out) == ["manifest.txt"]

    def test_a_nan_in_a_dense_gram_matrix_is_a_numerical_failure(
        self, tmp_path, capsys, monkeypatch
    ):
        # The dense fits' Cholesky factorization checks no entry for NaN;
        # the refinement's residual test fails the fit, and the run ends in
        # one line.
        gram = kernelkit.kernels.TensorKernel.gram

        def poisoned(self, x, y):
            out = gram(self, x, y)
            if x is y:  # the Gram matrix of the nodes
                out[0, 1] = out[1, 0] = np.nan
            return out

        monkeypatch.setattr(kernelkit.kernels.TensorKernel, "gram", poisoned)
        # An empty factor cache, so that no earlier test's factor is reused.
        cache = kernelkit.kernels._FactoredGrams(limit=kernelkit.kernels._FACTORED_GRAM_BYTES)
        monkeypatch.setattr(kernelkit.kernels, "_FACTORED_GRAMS", cache)
        out = tmp_path / "nan"
        cfg = self.write(tmp_path, SMALL_CONFIGS["rsr"])
        assert main(["--config", cfg, "--out", str(out), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ")
        assert "node residual above tolerance after refinement" in err
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("pipeline", ["rsr", "ouu"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_any_reference_l_parses_or_names_its_line(self, pipeline, data):
        # Drawn in [0, 70]: past the study, past the combination bound and,
        # for dense fits, past their node bound.
        text = data.draw(config_texts(pipeline, reference_ls=st.integers(0, 70)))
        line = next(
            n for n, row in enumerate(text.splitlines(), 1) if row.startswith("reference_l = ")
        )
        try:
            parse_config(text)
        except ConfigError as err:
            assert str(err).startswith(f"line {line}: [study] reference_l = ")

    def test_rates_run_and_artifacts(self, tmp_path):
        cfg = self.write(tmp_path, RATES_CONFIG)
        out = str(tmp_path / "out")
        assert main(["--config", cfg, "--out", out, "--quiet"]) == 0
        slope_text = (tmp_path / "out" / "slope.txt").read_text()
        predicted = float(slope_text.splitlines()[0].split("=")[1])
        assert predicted == pytest.approx(-2.0 / 3.0, rel=1e-10)
        study = (tmp_path / "out" / "study.csv").read_text().splitlines()
        assert study[0] == "L,work_units,evaluations,error"
        assert len(study) == 1 + 5
        manifest = (tmp_path / "out" / "manifest.txt").read_text()
        assert "config_sha256 = " in manifest
        assert "seed = 0" in manifest

    def test_config_error_exit_code(self, tmp_path):
        cfg = self.write(tmp_path, RATES_CONFIG.replace("beta = 1, 1", "beta = 1, -1"))
        assert main(["--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2

    @pytest.mark.parametrize(
        "text",
        [
            RATES_CONFIG.replace("l_max = 6", "l_max = 3"),
            "[run]\npipeline = fem-check\n[pde]\nlevel_min = 3\nlevel_max = 4\n",
        ],
    )
    def test_short_range_is_a_config_error(self, tmp_path, capsys, text):
        cfg = self.write(tmp_path, text)
        out = tmp_path / "short"
        assert main(["--config", cfg, "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert "at least 3" in err
        assert "Traceback" not in err
        assert not (out / "study.csv").exists()

    @pytest.mark.parametrize(
        "text,key",
        [
            ("interp\n[kernel]\nbeta = 2.3\n", "[kernel] beta"),
            ("interp\n[kernel]\nbeta = 1.0\nd = 2\n", "[kernel] beta"),
            ("interp\n[interp]\nblocks = 0\n", "line 6: [interp] blocks"),
            ("misc\n[misc]\nquadrature = kernel\n[kernel]\nbeta = 2.2\n", "[kernel] beta"),
            # rsr and ouu build two-dimensional kernels and admit only d = 2.
            ("rsr\n[kernel]\nbeta = 1.0\n", "[kernel] beta"),
            ("rsr\n[kernel]\nd = 3\n", "line 6: [kernel] d"),
            ("ouu\n[kernel]\nd = 3\n", "line 6: [kernel] d"),
        ],
        ids=["order", "beta-at-d", "blocks", "misc-order", "rsr-beta", "rsr-d", "ouu-d"],
    )
    def test_unusable_kernel_or_blocks_is_a_config_error(self, tmp_path, capsys, text, key):
        cfg = self.write(tmp_path, "[run]\nl_min = 4\nl_max = 6\npipeline = " + text)
        out = tmp_path / "k"
        assert main(["--config", cfg, "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {key}")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text,limit",
        [
            # The 1,024-point factor runs past the 512 corners of the 9-cube.
            (
                "interp\nl_min = 8\nl_max = 10\n[kernel]\nd = 9\nbeta = 5\n"
                "[interp]\nblocks = 1\n",
                "holds 1024 points, more than the 512 box corners",
            ),
            (
                "misc\nl_min = 2\nl_max = 4\n[misc]\nquadrature = kernel\n"
                "[kernel]\nd = 4\nbeta = 3\n",
                "reference rule exists up to dimension 3",
            ),
        ],
        ids=["interp-points", "misc-reference-rule"],
    )
    def test_unusable_point_dimension_is_a_config_error(self, tmp_path, capsys, text, limit):
        cfg = self.write(tmp_path, "[run]\npipeline = " + text)
        out = tmp_path / "dim"
        assert main(["--config", cfg, "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: [kernel] d = ")
        assert limit in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_interp_point_limit_follows_the_level_map(self):
        # At beta = 6.5 the exponential map's level-10 factor holds 333 points,
        # within the 512 corners; the doubling map's holds 1,024.
        text = (
            "[run]\npipeline = interp\nl_min = 8\nl_max = 10\n"
            "[kernel]\nd = 9\nbeta = 6.5\n[interp]\nblocks = 1\nlevel_map = {}\n"
        )
        assert parse_config(text.format("exponential"))[("run", "l_max")] == 10
        with pytest.raises(ConfigError, match="holds 1024 points"):
            parse_config(text.format("doubling"))

    def test_interp_within_the_box_corners_runs_at_any_dimension(self, tmp_path):
        # Its largest factor holds 16 of the 512 corners of the 9-cube.
        text = (
            "[run]\npipeline = interp\nl_min = 2\nl_max = 4\n"
            "[kernel]\nd = 9\nbeta = 5\n[interp]\nblocks = 1\n[study]\neval_points = 64\n"
        )
        cfg = self.write(tmp_path, text)
        assert main(["--config", cfg, "--out", str(tmp_path / "d9"), "--quiet"]) == 0

    def test_missing_config_file(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.cfg"), "--quiet"]) == 2

    @pytest.mark.parametrize("below", [(), ("sub",)], ids=["file", "under-file"])
    def test_unusable_output_path_is_a_config_error(self, tmp_path, capsys, below):
        cfg = self.write(tmp_path, RATES_CONFIG)
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        out = taken.joinpath(*below)
        assert main(["--config", cfg, "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: output directory")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err
        assert taken.read_text() == "not a directory\n"

    def test_config_that_is_not_utf8_is_a_config_error(self, tmp_path, capsys):
        # Byte 0xE9 (Latin-1 e-acute) in a comment on line 3; the file is
        # read as UTF-8 whatever the locale, and the same comment in UTF-8
        # parses.
        lines = RATES_CONFIG.lstrip("\n").splitlines(keepends=True)
        path = tmp_path / "latin1.cfg"
        text = "".join(lines[:2]) + "# caf\u00e9\n" + "".join(lines[2:])
        path.write_bytes(text.encode("latin-1"))
        out = tmp_path / "latin1"
        assert main(["--config", str(path), "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err == "configuration error: line 3: byte 0xe9 is not UTF-8 text\n"
        assert not out.exists()
        path.write_bytes(text.encode("utf-8"))
        assert parse_config_file(str(path)) == parse_config(RATES_CONFIG)

    @pytest.mark.parametrize(
        "example,assignment",
        [
            ("interp", "alpha = nan"),
            ("interp", "length_scale = inf"),
            ("rates", "gamma = inf, 1"),
            ("rates", "beta = 1, 1e400"),
        ],
    )
    def test_non_finite_number_is_a_config_error(self, tmp_path, capsys, example, assignment):
        # Each ran before: nan ended in a ValueError traceback, inf in a
        # failed packet LU (exit 1), and an infinite rate exited 0 (with a
        # predicted slope of -0.0 for gamma = inf).
        key, value = assignment.split(" = ")
        with open(os.path.join(ROOT, "docs", "examples", f"{example}.cfg")) as handle:
            text = re.sub(rf"(?m)^{key} = .*\n", "", handle.read()) + assignment + "\n"
        out = tmp_path / "nonfinite"
        assert main(["--config", self.write(tmp_path, text), "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        line = len(text.splitlines())
        assert err.startswith(f"configuration error: line {line}: ")
        assert f"] {key}: expected a finite number, got " in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_seed_override_changes_manifest(self, tmp_path):
        cfg = self.write(tmp_path, RATES_CONFIG)
        out = str(tmp_path / "s")
        assert main(["--config", cfg, "--out", out, "--seed", "7", "--quiet"]) == 0
        assert "seed = 7" in (tmp_path / "s" / "manifest.txt").read_text()

    def test_fem_check_slope(self, tmp_path):
        cfg = self.write(
            tmp_path,
            "[run]\npipeline = fem-check\n[pde]\nlevel_min = 3\nlevel_max = 6\n",
        )
        out = str(tmp_path / "fem")
        assert main(["--config", cfg, "--out", out, "--quiet"]) == 0
        slope_line = (tmp_path / "fem" / "slope.txt").read_text().splitlines()[1]
        fitted = float(slope_line.split("=")[1])
        assert abs(fitted - 2.0) <= 0.2

    def test_fem_check_honours_the_fit_window(self, tmp_path):
        cfg = self.write(
            tmp_path,
            "[run]\npipeline = fem-check\nfit_window = 0.5\n"
            "[pde]\nlevel_min = 3\nlevel_max = 6\n",
        )
        out = tmp_path / "fem"
        assert main(["--config", cfg, "--out", str(out), "--quiet"]) == 0
        slopes = dict(line.split(" = ") for line in (out / "slope.txt").read_text().splitlines())
        assert slopes["fit_window"] == "5.000000000000e-01"
        rows = [line.split(",") for line in (out / "study.csv").read_text().splitlines()[1:]]
        h, error = np.log(np.array([[float(r[1]), float(r[2])] for r in rows])).T
        # Four levels: the window 0.5 keeps the last 3 rows, the fit's minimum.
        last_three = np.polyfit(h[1:], error[1:], 1)[0]
        assert float(slopes["fitted_slope"]) == pytest.approx(last_three, rel=1e-9)
        assert abs(np.polyfit(h, error, 1)[0] - last_three) > 1e-6

    @pytest.mark.parametrize(
        "owner,name,replacement,message",
        [
            (
                kernelkit.pde,
                "dpbsv",
                lambda ab, b, **_: (ab, b, 1),
                "banded Cholesky failed (LAPACK dpbsv info 1) on 8 cells",
            ),
            (
                kernelkit.pde,
                "l2_error_against",
                lambda *_: 0.0,
                "log-log slope fit needs positive values",
            ),
        ],
        ids=["solve", "slope-fit"],
    )
    def test_fem_check_numerical_failure_exits_one(
        self, tmp_path, capsys, monkeypatch, owner, name, replacement, message
    ):
        # fem-check runs outside the engine, which wraps evaluator errors, so
        # each numerical failure it can reach is checked here: a failed
        # Cholesky solve and a slope fit over errors that are not positive.
        # Its configuration errors (level range, mesh-level cap) exit 2.
        monkeypatch.setattr(owner, name, replacement)
        cfg = self.write(
            tmp_path, "[run]\npipeline = fem-check\n[pde]\nlevel_min = 3\nlevel_max = 5\n"
        )
        out = tmp_path / "fem"
        assert main(["--config", cfg, "--out", str(out), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"numerical failure: {message}")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err
        assert os.listdir(out) == ["manifest.txt"]

    def test_misc_deterministic_across_workers(self, tmp_path):
        # --workers is accepted and ignored: terms are evaluated serially.
        # The option stays because the benchmark harness passes it; this is
        # the one test that it parses and moves no byte of the output.
        text = "\n".join(
            [
                "[run]",
                "pipeline = misc",
                "l_min = 2",
                "l_max = 9",
                "[misc]",
                "integrand = parabola",
            ]
        )
        cfg = self.write(tmp_path, text)
        outputs = []
        for tag, workers in (("a", "1"), ("b", "8")):
            out = str(tmp_path / tag)
            code = main(
                ["--config", cfg, "--out", out, "--workers", workers, "--quiet"]
            )
            assert code == 0
            outputs.append((tmp_path / tag / "study.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_numerical_failure_exits_one_with_manifest(self, tmp_path):
        # A very smooth one-dimensional kernel at dense doubling grids is
        # numerically singular beyond the admissible diagonal shift.
        text = "\n".join(
            [
                "[run]",
                "pipeline = interp",
                "l_min = 6",
                "l_max = 8",
                "[kernel]",
                "beta = 4.0",
                "d = 1",
                "[interp]",
                "blocks = 1",
            ]
        )
        cfg = self.write(tmp_path, text)
        out = tmp_path / "fail"
        assert main(["--config", cfg, "--out", str(out), "--quiet"]) == 1
        # The manifest is written before any numerical output.
        assert (out / "manifest.txt").exists()
        assert not (out / "study.csv").exists()

    def test_dense_fit_above_the_node_bound_is_a_numerical_failure(
        self, tmp_path, capsys, monkeypatch
    ):
        # One block fits each level's nodes densely; past the bound the fit
        # is refused before its Gram matrix is built (at 8,192 nodes the
        # bound is first reached at l_max = 14).
        monkeypatch.setattr(kernelkit.kernels, "_DENSE_FIT_NODES_MAX", 64)
        text = "\n".join(
            [
                "[run]",
                "pipeline = interp",
                "l_min = 4",
                "l_max = 8",
                "[kernel]",
                "beta = 1.0",
                "d = 1",
                "[interp]",
                "blocks = 1",
            ]
        )
        out = tmp_path / "dense"
        assert main(["--config", self.write(tmp_path, text), "--out", str(out), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ")
        assert "nodes exceeds the bound of 64 nodes" in err
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err
        assert sorted(os.listdir(out)) == ["manifest.txt"]

    def test_failed_slope_fit_is_a_numerical_failure(self, tmp_path, capsys, monkeypatch):
        # When every term of the rates study is 1, every error is exactly
        # 0.0, so the log-log fit has nothing positive to fit.  A config
        # whose terms all round to 1 (beta = 60, 60) is refused at parse
        # time, so the run's terms are made 1 here.
        monkeypatch.setattr(kernelkit.cli, "rates_term", lambda resolution, beta: 1.0)
        text = RATES_CONFIG
        study = run_study(parse_config(text), 0)
        assert all(row["error"] == 0.0 for row in study.rows)
        out = tmp_path / "flat"
        assert main(["--config", self.write(tmp_path, text), "--out", str(out), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: log-log slope fit needs positive values")
        assert "Traceback" not in err
        # The manifest comes first; the study's artifacts only after a fit.
        assert sorted(os.listdir(out)) == ["manifest.txt"]

    @pytest.mark.parametrize(
        "example, edit, level",
        [
            (
                "rates",
                lambda text: re.sub(r"(?m)^(gamma|beta) = .*", r"\1 = 0.001, 0.001", text),
                2,
            ),
            (
                "misc-synthetic",
                lambda text: text + "sample_gamma = 0.001\nsample_kappa = 0.001\n",
                2,
            ),
            (
                "rsr-bump",
                lambda text: text + "[pde]\nwork_exponent = 0.001\nconvergence_exponent = 0.001\n",
                7,
            ),
            ("ouu-advection", lambda text: text + "[ouu]\nmc_scale = 1e308\n", 1),
        ],
        ids=["rates", "misc", "rsr", "ouu"],
    )
    def test_overflowing_level_map_is_a_numerical_failure(
        self, tmp_path, capsys, monkeypatch, example, edit, level
    ):
        # Each edited example admits a level map ceil(scale * exp(l / (gamma
        # + beta))) that passes the largest float within its levels.  Parsing
        # refuses it; with that check patched out, the run fails at the map.
        monkeypatch.setattr(kernelkit.config, "_unreachable", lambda plan, L: None)
        with open(os.path.join(ROOT, "docs", "examples", f"{example}.cfg")) as handle:
            cfg = self.write(tmp_path, edit(handle.read()))
        out = tmp_path / "overflow"
        assert main(["--config", cfg, "--out", str(out), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: level map ceil(")
        assert err.endswith(f" at level {level}\n")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err
        assert sorted(os.listdir(out)) == ["manifest.txt"]

    @pytest.mark.parametrize("pipeline", PIPELINES)
    def test_failed_slope_fit_leaves_only_the_manifest(
        self, tmp_path, monkeypatch, pipeline
    ):
        def failing_fit(series, window=1.0):
            raise SlopeFitError("no slope")

        monkeypatch.setattr(kernelkit.cli, "fit_loglog_slope", failing_fit)
        out = tmp_path / "failed"
        cfg = self.write(tmp_path, SMALL_CONFIGS[pipeline])
        assert main(["--config", cfg, "--out", str(out)]) == 1
        assert sorted(os.listdir(out)) == ["manifest.txt"]

    def test_ouu_study_takes_the_plan_factors(self, monkeypatch):
        # The run builds its pipelines from the very factors that the
        # validator and the predicted slope read.
        received = []

        class Recorded(Exception):
            pass

        def recording(factors, *args, **kwargs):
            received.append(factors)
            raise Recorded

        monkeypatch.setattr(kernelkit.cli, "ouu_study", recording)
        config = parse_config(SMALL_CONFIGS["ouu"])
        plan = run_plan(config.pipeline, config.sections)
        with pytest.raises(Recorded):
            kernelkit.cli._run_ouu(config, plan, config[("run", "seed")])
        assert len(received) == 1 and received[0] is plan.factors

    @pytest.mark.parametrize("pipeline", ["interp", "rsr", "ouu"])
    def test_function_valued_study_evaluates_once(self, tmp_path, monkeypatch, pipeline):
        evaluated = []
        evaluate = Surrogate.evaluate

        def recording(surrogate, points):
            evaluated.append(len(surrogate.members))
            return evaluate(surrogate, points)

        monkeypatch.setattr(Surrogate, "evaluate", recording)
        config = parse_config(SMALL_CONFIGS[pipeline])
        study = run_study(config, 0)
        rows = config[("run", "l_max")] - config[("run", "l_min")] + 1
        # One stacked call holds every surrogate of the table, after the
        # reference (rsr, ouu) and every replication (ouu); the ouu
        # minimizer's own point evaluations come after it, unstacked.
        if pipeline == "interp":
            assert evaluated[0] == rows
        else:
            replications = config.section("ouu").get("replications", 1)
            assert evaluated[0] == 1 + rows * replications
        assert not any(evaluated[1:])
        assert len(study.rows) == rows

    def test_interp_study_is_the_sparse_interpolant(self):
        # The interp pipeline estimates the problem sparse_interpolate builds.
        config = parse_config(SMALL_CONFIGS["interp"])
        study = run_study(config, 0)
        kernel = MaternKernel(beta=2.0, dim=1)
        points = random_points(Box((0.0, 0.0), (1.0, 1.0)), 64, 0)
        target = np.sin(2 * np.pi * points[:, 0]) * np.sin(2 * np.pi * points[:, 1])
        for row in study.rows:
            surrogate = sparse_interpolate(
                [kernel] * 2, [Box((0.0,), (1.0,))] * 2, sine_product, L=row["L"]
            )
            error = np.sqrt(np.mean((surrogate.evaluate(points) - target) ** 2))
            assert row["error"] == pytest.approx(error, rel=1e-12)

    def test_interp_run(self, tmp_path):
        text = "\n".join(
            [
                "[run]",
                "pipeline = interp",
                "l_min = 4",
                "l_max = 7",
                "[kernel]",
                "beta = 2.0",
            ]
        )
        cfg = self.write(tmp_path, text)
        out = str(tmp_path / "interp")
        assert main(["--config", cfg, "--out", out, "--quiet"]) == 0
        rows = (tmp_path / "interp" / "study.csv").read_text().splitlines()[1:]
        errors = [float(r.split(",")[3]) for r in rows]
        assert all(b < a for a, b in zip(errors, errors[1:]))


def run_cli_child(*argv, timeout=120):
    """Run the command line in a child process, as a shell runs it."""
    return subprocess.run(
        [sys.executable, "-m", "kernelkit.cli", *argv, "--quiet"],
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        capture_output=True,
        text=True,
        timeout=timeout,
    )


class TestCliExitPathsInChild:
    """Each exit path as a shell sees it: the exit code, one stderr line and
    no traceback, and exactly the files the path leaves behind."""

    def test_failed_run_leaves_only_the_manifest(self, tmp_path):
        # One block of a very smooth kernel on doubling grids: the dense fit
        # stays above the residual tolerance at the largest shift.  (A rates
        # config whose errors are all 0, which failed its slope fit here, is
        # now refused at parse time.)
        text = "\n".join(
            ["[run]", "pipeline = interp", "l_min = 6", "l_max = 8"]
            + ["[kernel]", "beta = 4.0", "d = 1", "[interp]", "blocks = 1", ""]
        )
        cfg = tmp_path / "flat.cfg"
        cfg.write_text(text)
        out = tmp_path / "flat"
        result = run_cli_child("--config", str(cfg), "--out", str(out))
        assert result.returncode == 1
        assert result.stderr.startswith("numerical failure:")
        assert len(result.stderr.splitlines()) == 1
        assert "Traceback" not in result.stderr
        assert os.listdir(out) == ["manifest.txt"]

    def test_unusable_output_path_is_a_configuration_error(self, tmp_path):
        # --out names an existing file, which is left alone.
        taken = tmp_path / "taken"
        taken.write_text("taken\n")
        cfg = os.path.join(ROOT, "docs", "examples", "rates.cfg")
        result = run_cli_child("--config", cfg, "--out", str(taken))
        assert result.returncode == 2
        assert result.stderr.startswith("configuration error:")
        assert len(result.stderr.splitlines()) == 1
        assert "Traceback" not in result.stderr
        assert taken.read_text() == "taken\n"

    @pytest.mark.parametrize(
        "name, before",
        [("manifest.txt", []), ("study.csv", ["manifest.txt"])],
        ids=["manifest.txt", "study.csv"],
    )
    def test_unwritable_artifact_is_a_configuration_error(self, tmp_path, name, before):
        # A directory takes the artifact's path; the artifacts written before
        # it stay.
        out = tmp_path / "taken"
        (out / name).mkdir(parents=True)
        cfg = os.path.join(ROOT, "docs", "examples", "rates.cfg")
        result = run_cli_child("--config", cfg, "--out", str(out))
        assert result.returncode == 2
        path = str(out / name)
        assert result.stderr.startswith(f"configuration error: output file {path!r} cannot be written:")
        assert len(result.stderr.splitlines()) == 1
        assert "Traceback" not in result.stderr
        assert sorted(os.listdir(out)) == sorted(before + [name])
        assert not os.listdir(out / name)

    @pytest.mark.parametrize("beta", ["1e6", "1e300"])
    def test_huge_kernel_order_is_refused_at_parse_time(self, tmp_path, beta):
        # Such an order, an integer-valued float, would run the Bessel
        # recurrence without bound; refused at parse time, it exits well
        # within 10 s.
        with open(os.path.join(ROOT, "docs", "examples", "interp.cfg")) as handle:
            text = re.sub(r"(?m)^beta = .*", f"beta = {beta}", handle.read())
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(text)
        out = tmp_path / "huge"
        result = run_cli_child("--config", str(cfg), "--out", str(out), timeout=10)
        assert result.returncode == 2
        assert result.stderr.startswith("configuration error: [kernel] beta = ")
        assert "at most 150" in result.stderr
        assert len(result.stderr.splitlines()) == 1
        assert not out.exists()

    def test_unread_key_is_a_configuration_error(self, tmp_path):
        # rsr reads no [pde] level_min (fem-check's level range).
        with open(os.path.join(ROOT, "docs", "examples", "rsr-bump.cfg")) as handle:
            text = handle.read() + "[pde]\nlevel_min = 3\n"
        cfg = tmp_path / "unread.cfg"
        cfg.write_text(text)
        out = tmp_path / "unread"
        result = run_cli_child("--config", str(cfg), "--out", str(out))
        assert result.returncode == 2
        line = len(text.splitlines())
        assert result.stderr.startswith(f"configuration error: line {line}: [pde] level_min ")
        assert len(result.stderr.splitlines()) == 1
        assert "Traceback" not in result.stderr
        assert not out.exists()

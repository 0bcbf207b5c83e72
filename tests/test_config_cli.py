import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kernelkit.cli
from kernelkit.cli import _RUNNERS, _run_rates, _sine_product, main
from kernelkit.config import (
    _PIPELINE_SECTIONS,
    PIPELINES,
    ConfigError,
    parse_config,
    serialize_config,
)
from kernelkit import sparse_interpolate
from kernelkit.kernels import MaternKernel
from kernelkit.points import Box
from kernelkit.smolyak import SlopeFitError
from kernelkit.surrogate import Surrogate
from kernelkit.uq import random_points

RATES_CONFIG = """
[run]
pipeline = rates
l_min = 2
l_max = 6

[factors]
gamma = 1, 1.5
beta = 1, 1
"""

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
        assert config.seed == 0
        assert config.fit_window == 1.0
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
    at: ``d`` (default 1), or 2 for rsr and ouu, which take d = 2 or the
    default.  The default beta = 2.0 is valid at every dimension drawn."""
    keys = {}
    fixed = pipeline in ("rsr", "ouu")
    if draw(st.booleans()):
        keys["d"] = str(draw(st.sampled_from([1, 2]) if fixed else st.integers(1, 3)))
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


@st.composite
def _pde(draw):
    low = draw(st.integers(1, 8))
    keys = {
        "problem": st.just("bump"),
        "bumps": st.sampled_from([1, 2, 4]).map(str),
        "max_mesh_level": st.integers(1, 8).map(str),
        "work_exponent": _floats(),
        "convergence_exponent": _floats(),
    }
    section = draw(st.fixed_dictionaries({}, optional=keys))
    section.update(level_min=str(low), level_max=str(draw(st.integers(low + 2, 10))))
    return section


# Every optional section; [factors] is drawn with its factor count, and
# [kernel] for its pipeline.
_SECTIONS = {
    "interp": st.fixed_dictionaries(
        {}, optional={"blocks": st.integers(1, 4).map(str), "level_map": _LEVEL_MAPS}
    ),
    "misc": st.fixed_dictionaries(
        {},
        optional={
            "quadrature": st.sampled_from(["midpoint", "kernel"]),
            "blocks": st.integers(1, 3).map(str),
            "integrand": st.sampled_from(["parabola", "sine-product"]),
            "quad_beta": _floats(),
            "sample_gamma": _floats(),
            "sample_kappa": _floats(),
        },
    ),
    "pde": _pde(),
    "ouu": st.fixed_dictionaries(
        {},
        optional={
            "field_level": st.integers(1, 6).map(str),
            "max_mesh_level": st.integers(1, 8).map(str),
            "replications": st.integers(1, 9).map(str),
            "mc_scale": _floats(),
            "pde_scale": _floats(),
            "level_map": _LEVEL_MAPS,
            "restarts": st.integers(1, 20).map(str),
        },
    ),
    "study": st.fixed_dictionaries(
        {},
        optional={
            "eval_points": st.integers(1, 4096).map(str),
            "reference_l": st.integers(0, 14).map(str),
        },
    ),
}


def _factor_count(pipeline, sections):
    if pipeline == "rates":
        return len(sections["factors"]["gamma"].split(","))
    if pipeline == "interp":
        return int(sections.get("interp", {}).get("blocks", 2))
    if pipeline == "misc":
        return int(sections.get("misc", {}).get("blocks", 1)) + 1
    if pipeline == "rsr":
        return int(sections.get("pde", {}).get("bumps", 1)) + 1
    return 3 if pipeline == "ouu" else None


@st.composite
def config_texts(draw, pipeline):
    """A valid configuration of ``pipeline``: any subset of the optional
    sections and keys, each value drawn from its key's valid range."""
    run = draw(
        st.fixed_dictionaries(
            {},
            optional={
                "seed": st.integers(0, 2**64 - 1).map(str),
                "out": st.sampled_from(["out", "runs/a"]),
                "fit_window": _floats(0.01, 1.0),
            },
        )
    )
    sections = {"run": {"pipeline": pipeline, **run}}
    for name, required in _PIPELINE_SECTIONS[pipeline].items():
        if name == "run" or not (required or draw(st.booleans())):
            continue
        if name == "factors":
            n = draw(st.integers(1, 4))
            sections[name] = {
                key: ", ".join(draw(st.lists(_floats(), min_size=n, max_size=n)))
                for key in ("gamma", "beta")
            }
        elif name == "kernel":
            sections[name] = draw(_kernel(pipeline))
        else:
            sections[name] = draw(_SECTIONS[name])
    n = _factor_count(pipeline, sections)
    if n is not None:
        l_min = draw(st.integers(n, 12))
        sections["run"].update(l_min=str(l_min), l_max=str(draw(st.integers(l_min + 2, 14))))
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


class TestCliRuns:
    def write(self, tmp_path, text):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        return str(path)

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
            ("interp\n[interp]\nblocks = 0\n", "[interp] blocks"),
            ("misc\n[misc]\nquadrature = kernel\n[kernel]\nbeta = 2.2\n", "[kernel] beta"),
            # rsr and ouu build two-dimensional kernels whatever d says.
            ("rsr\n[kernel]\nbeta = 1.0\n", "[kernel] beta"),
            ("rsr\n[kernel]\nd = 3\n", "[kernel] d"),
            ("ouu\n[kernel]\nd = 3\n", "[kernel] d"),
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

    def test_unused_kernel_order_is_not_checked(self):
        # Midpoint quadrature builds no kernel.
        text = "[run]\npipeline = misc\nl_min = 2\nl_max = 4\n[kernel]\nbeta = 2.2\n"
        assert parse_config(text).sections["kernel"]["beta"] == 2.2

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

    def test_misc_deterministic_across_workers(self, tmp_path):
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

    def test_failed_slope_fit_is_a_numerical_failure(self, tmp_path, capsys):
        # At beta = 60 every error of the rates study rounds to exactly 0.0,
        # so the log-log fit has nothing positive to fit.
        text = RATES_CONFIG.replace("beta = 1, 1", "beta = 60, 60")
        study = _run_rates(parse_config(text), 0)
        assert all(row["error"] == 0.0 for row in study.rows)
        out = tmp_path / "flat"
        assert main(["--config", self.write(tmp_path, text), "--out", str(out), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: log-log slope fit needs positive values")
        assert "Traceback" not in err
        # The manifest comes first; the study's artifacts only after a fit.
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

    @pytest.mark.parametrize("pipeline", ["interp", "rsr", "ouu"])
    def test_function_valued_study_evaluates_once(self, tmp_path, monkeypatch, pipeline):
        evaluated = []
        evaluate = Surrogate.evaluate

        def recording(surrogate, points, check_domain=True):
            evaluated.append(len(surrogate.members))
            return evaluate(surrogate, points, check_domain)

        monkeypatch.setattr(Surrogate, "evaluate", recording)
        config = parse_config(SMALL_CONFIGS[pipeline])
        study = _RUNNERS[pipeline](config, 0)
        rows = config.l_max - config.l_min + 1
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
        study = _RUNNERS["interp"](config, 0)
        kernel = MaternKernel(beta=2.0, dim=1)
        points = random_points(Box((0.0, 0.0), (1.0, 1.0)), 64, 0)
        target = np.sin(2 * np.pi * points[:, 0]) * np.sin(2 * np.pi * points[:, 1])
        for row in study.rows:
            surrogate = sparse_interpolate(
                [kernel] * 2, [Box((0.0,), (1.0,))] * 2, _sine_product, L=row["L"]
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

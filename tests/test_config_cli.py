import numpy as np
import pytest

from kernelkit.cli import main
from kernelkit.config import (
    ConfigError,
    parse_config,
    serialize_config,
)

RATES_CONFIG = """
[run]
pipeline = rates
l_min = 2
l_max = 6

[factors]
gamma = 1, 1.5
beta = 1, 1
"""


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


def generated_configs():
    rng = np.random.default_rng(2024)
    texts = []
    for _ in range(20):
        n = int(rng.integers(1, 4))
        gammas = np.round(rng.uniform(0.5, 2.0, size=n), 3)
        betas = np.round(rng.uniform(0.5, 2.0, size=n), 3)
        l_min = n + int(rng.integers(0, 2))
        l_max = l_min + 2 + int(rng.integers(0, 2))
        texts.append(
            "\n".join(
                [
                    "[run]",
                    "pipeline = rates",
                    f"seed = {int(rng.integers(0, 2**63))}",
                    f"l_min = {l_min}",
                    f"l_max = {l_max}",
                    f"fit_window = {round(float(rng.uniform(0.3, 1.0)), 3)}",
                    "[factors]",
                    "gamma = " + ", ".join(map(str, gammas)),
                    "beta = " + ", ".join(map(str, betas)),
                ]
            )
        )
    return texts


class TestRoundTrip:
    @pytest.mark.parametrize("text", generated_configs())
    def test_serialize_parse_identity(self, text):
        config = parse_config(text)
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

    def test_missing_config_file(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.cfg"), "--quiet"]) == 2

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
        cfg = self.write(tmp_path, RATES_CONFIG.replace("beta = 1, 1", "beta = 60, 60"))
        out = tmp_path / "flat"
        assert main(["--config", cfg, "--out", str(out), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: log-log slope fit needs positive values")
        rows = (out / "study.csv").read_text().splitlines()[1:]
        assert all(float(r.split(",")[3]) == 0.0 for r in rows)

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

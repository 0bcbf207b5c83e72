"""Run configuration: sectioned plain-text format, schema, validation.

Grammar (one statement per line):

    # comment (';' also starts a comment)
    [section]
    key = value

Keys are lowercase identifiers; values are integers, floats, comma lists
of floats, or words, depending on the key.  Unknown sections or keys are
errors (no silent defaults for misspellings), duplicate keys are errors
naming both lines, and every parse error carries a line number.  The
serializer emits a canonical form (all defaults applied, fixed order)
whose parse compares equal to the original configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from kernelkit.kernels import MaternKernel
from kernelkit.pde import check_field_grid, mesh_at_level

PIPELINES = ("rates", "interp", "misc", "rsr", "ouu", "fem-check")
_MAX_THRESHOLD = 14
# Every study fits its log-log slope over at least 3 rows.
_MIN_STUDY_ROWS = 3
_MAX_SEED = 2**64 - 1
# Pipelines whose kernel acts on a fixed number of coordinates.
_FIXED_KERNEL_DIM = {"rsr": 2, "ouu": 2}


class ConfigError(ValueError):
    """Configuration problem with an optional source line."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(f"{prefix}{message}")


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"expected an integer, got {text!r}") from None


def _parse_float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"expected a number, got {text!r}") from None


def _parse_float_list(text: str) -> tuple[float, ...]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"expected a comma-separated list, got {text!r}")
    return tuple(_parse_float(p) for p in parts)


def _parse_word(text: str) -> str:
    return text.strip()


@dataclass(frozen=True)
class _Key:
    parse: Callable[[str], Any]
    default: Any = None  # None means required when the section is active
    choices: tuple | None = None


def _positive(name: str, value) -> None:
    values = value if isinstance(value, tuple) else (value,)
    if any(not (v > 0) for v in values):
        raise ConfigError(f"{name} must be positive, got {value}")


_SCHEMA: dict[str, dict[str, _Key]] = {
    "run": {
        "pipeline": _Key(_parse_word, choices=PIPELINES),
        "seed": _Key(_parse_int, default=0),
        "l_min": _Key(_parse_int, default=0),
        "l_max": _Key(_parse_int, default=0),
        "out": _Key(_parse_word, default="out"),
        "fit_window": _Key(_parse_float, default=1.0),
    },
    "factors": {
        "gamma": _Key(_parse_float_list),
        "beta": _Key(_parse_float_list),
    },
    "kernel": {
        "beta": _Key(_parse_float, default=2.0),
        "d": _Key(_parse_int, default=1),
        "length_scale": _Key(_parse_float, default=1.0),
        "alpha": _Key(_parse_float, default=0.0),
    },
    "interp": {
        "blocks": _Key(_parse_int, default=2),
        "level_map": _Key(_parse_word, default="doubling", choices=("doubling", "exponential")),
    },
    "misc": {
        "quadrature": _Key(_parse_word, default="midpoint", choices=("midpoint", "kernel")),
        "blocks": _Key(_parse_int, default=1),
        "integrand": _Key(_parse_word, default="parabola", choices=("parabola", "sine-product")),
        "quad_beta": _Key(_parse_float, default=2.0),
        "sample_gamma": _Key(_parse_float, default=1.0),
        "sample_kappa": _Key(_parse_float, default=1.0),
    },
    "pde": {
        "problem": _Key(_parse_word, default="bump", choices=("bump",)),
        "bumps": _Key(_parse_int, default=1),
        "max_mesh_level": _Key(_parse_int, default=6),
        "work_exponent": _Key(_parse_float, default=1.5),
        "convergence_exponent": _Key(_parse_float, default=1.0),
        "level_min": _Key(_parse_int, default=3),
        "level_max": _Key(_parse_int, default=6),
    },
    "ouu": {
        "field_level": _Key(_parse_int, default=5),
        "max_mesh_level": _Key(_parse_int, default=5),
        "replications": _Key(_parse_int, default=5),
        "mc_scale": _Key(_parse_float, default=4.0),
        "pde_scale": _Key(_parse_float, default=12.0),
        "level_map": _Key(_parse_word, default="doubling", choices=("doubling", "exponential")),
        "restarts": _Key(_parse_int, default=8),
    },
    "study": {
        "eval_points": _Key(_parse_int, default=2048),
        "reference_l": _Key(_parse_int, default=0),
    },
}

# Sections admitted per pipeline; True marks sections that must be present.
_PIPELINE_SECTIONS: dict[str, dict[str, bool]] = {
    "rates": {"run": True, "factors": True, "study": False},
    "interp": {"run": True, "kernel": False, "interp": False, "study": False},
    "misc": {"run": True, "misc": False, "kernel": False, "study": False},
    "rsr": {"run": True, "kernel": False, "pde": False, "study": False},
    "ouu": {"run": True, "kernel": False, "ouu": False, "study": False},
    "fem-check": {"run": True, "pde": False},
}

_SECTION_ORDER = ("run", "factors", "kernel", "interp", "misc", "pde", "ouu", "study")


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration of one experiment run."""

    pipeline: str
    seed: int
    l_min: int
    l_max: int
    out: str
    fit_window: float
    sections: dict[str, dict[str, Any]] = field(default_factory=dict, compare=True)

    def section(self, name: str) -> dict[str, Any]:
        return self.sections.get(name, {})

    def __getitem__(self, address: tuple[str, str]):
        section, key = address
        return self.sections[section][key]


def _tokenize(text: str):
    """Yield (line_no, kind, payload) for sections and assignments."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#") or stripped.startswith(";"):
            continue
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ConfigError("malformed section header", line_no)
            yield line_no, "section", stripped[1:-1].strip()
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected 'key = value', got {stripped!r}", line_no)
        key, _, value = stripped.partition("=")
        comment_split = value.split("#", 1)[0].split(";", 1)[0]
        yield line_no, "pair", (key.strip(), comment_split.strip())


def parse_config(text: str) -> RunConfig:
    """Parse and validate a configuration document."""
    raw: dict[str, dict[str, tuple[str, int]]] = {}
    current: str | None = None
    for line_no, kind, payload in _tokenize(text):
        if kind == "section":
            name = payload
            if name not in _SCHEMA:
                raise ConfigError(
                    f"unknown section [{name}]; known: {', '.join(_SCHEMA)}", line_no
                )
            current = name
            raw.setdefault(name, {})
            continue
        key, value = payload
        if current is None:
            raise ConfigError(f"key {key!r} appears before any [section]", line_no)
        if key not in _SCHEMA[current]:
            raise ConfigError(
                f"unknown key {key!r} in [{current}]; known: "
                f"{', '.join(_SCHEMA[current])}",
                line_no,
            )
        if key in raw[current]:
            first_line = raw[current][key][1]
            raise ConfigError(
                f"duplicate key {key!r} in [{current}] (first set on line "
                f"{first_line})",
                line_no,
            )
        raw[current][key] = (value, line_no)
    return _validate(raw)


def _convert_section(name: str, entries: dict[str, tuple[str, int]]) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for key, spec in _SCHEMA[name].items():
        if key in entries:
            text, line_no = entries[key]
            try:
                value = spec.parse(text)
            except ConfigError as err:
                raise ConfigError(f"[{name}] {key}: {err.args[0]}", line_no) from None
            if spec.choices is not None and value not in spec.choices:
                raise ConfigError(
                    f"[{name}] {key}: expected one of {', '.join(map(str, spec.choices))}, "
                    f"got {value!r}",
                    line_no,
                )
            out[key] = value
        elif spec.default is not None:
            out[key] = spec.default
        else:
            raise ConfigError(f"missing required key {key!r} in [{name}]")
    return out


def _factor_count(pipeline: str, sections: dict[str, dict[str, Any]]) -> int | None:
    if pipeline == "rates":
        return len(sections["factors"]["gamma"])
    if pipeline == "interp":
        return sections["interp"]["blocks"]
    if pipeline == "misc":
        return sections["misc"]["blocks"] + 1
    if pipeline == "rsr":
        return sections["pde"]["bumps"] + 1
    if pipeline == "ouu":
        return 3
    return None  # fem-check has no threshold range


def _kernel_dim(pipeline: str, sections: dict[str, dict[str, Any]]) -> int | None:
    """The dimension the pipeline builds its Matern kernel at, or None if it
    builds none."""
    if pipeline in _FIXED_KERNEL_DIM:
        return _FIXED_KERNEL_DIM[pipeline]
    if pipeline == "interp" or (
        pipeline == "misc" and sections["misc"]["quadrature"] == "kernel"
    ):
        return sections["kernel"]["d"]
    return None


def _validate(raw: dict[str, dict[str, tuple[str, int]]]) -> RunConfig:
    if "run" not in raw:
        raise ConfigError("missing required section [run]")
    if "pipeline" not in raw["run"]:
        raise ConfigError("missing required key 'pipeline' in [run]")
    pipeline_text, pipeline_line = raw["run"]["pipeline"]
    if pipeline_text not in PIPELINES:
        raise ConfigError(
            f"[run] pipeline: expected one of {', '.join(PIPELINES)}, got "
            f"{pipeline_text!r}",
            pipeline_line,
        )
    allowed = _PIPELINE_SECTIONS[pipeline_text]
    for name in raw:
        if name not in allowed:
            line = min(line for _, line in raw[name].values()) if raw[name] else None
            raise ConfigError(
                f"section [{name}] is not used by pipeline {pipeline_text!r}", line
            )
    for name, required in allowed.items():
        if required and name not in raw:
            raise ConfigError(f"pipeline {pipeline_text!r} requires section [{name}]")
    sections = {
        name: _convert_section(name, raw.get(name, {})) for name in allowed
    }

    run = sections["run"]
    seed = run["seed"]
    if not 0 <= seed <= _MAX_SEED:
        raise ConfigError(f"[run] seed must be a 64-bit unsigned integer, got {seed}")
    _positive("[run] fit_window", run["fit_window"])
    if run["fit_window"] > 1.0:
        raise ConfigError(f"[run] fit_window must be <= 1, got {run['fit_window']}")

    if "factors" in sections:
        gamma = sections["factors"]["gamma"]
        beta = sections["factors"]["beta"]
        if len(gamma) != len(beta):
            raise ConfigError(
                f"[factors] gamma and beta must have equal length "
                f"({len(gamma)} vs {len(beta)})"
            )
        _positive("[factors] gamma", gamma)
        _positive("[factors] beta", beta)
    if "kernel" in sections:
        k = sections["kernel"]
        _positive("[kernel] beta", k["beta"])
        _positive("[kernel] d", k["d"])
        _positive("[kernel] length_scale", k["length_scale"])
        if k["alpha"] < 0:
            raise ConfigError(f"[kernel] alpha must be >= 0, got {k['alpha']}")
        if k["beta"] - k["alpha"] <= 0:
            raise ConfigError("[kernel] alpha must be smaller than beta")
        fixed = _FIXED_KERNEL_DIM.get(pipeline_text)
        # The schema default stands for an absent key in the canonical form.
        if fixed is not None and k["d"] not in (fixed, _SCHEMA["kernel"]["d"].default):
            raise ConfigError(
                f"[kernel] d: pipeline {pipeline_text!r} uses a kernel of "
                f"dimension {fixed}, got d = {k['d']}"
            )
        dim = _kernel_dim(pipeline_text, sections)
        if dim is not None:
            try:
                MaternKernel(beta=k["beta"], dim=dim)
            except ValueError as err:
                raise ConfigError(
                    f"[kernel] beta = {k['beta']!r} at kernel dimension {dim}: {err}"
                ) from None
    if "interp" in sections:
        _positive("[interp] blocks", sections["interp"]["blocks"])
    if "misc" in sections:
        m = sections["misc"]
        _positive("[misc] blocks", m["blocks"])
        _positive("[misc] quad_beta", m["quad_beta"])
        _positive("[misc] sample_gamma", m["sample_gamma"])
        _positive("[misc] sample_kappa", m["sample_kappa"])
    if "pde" in sections:
        p = sections["pde"]
        if p["bumps"] not in (1, 2, 4):
            raise ConfigError(f"[pde] bumps must be 1, 2 or 4, got {p['bumps']}")
        _positive("[pde] max_mesh_level", p["max_mesh_level"])
        _positive("[pde] work_exponent", p["work_exponent"])
        _positive("[pde] convergence_exponent", p["convergence_exponent"])
        if not 1 <= p["level_min"] <= p["level_max"] <= 10:
            raise ConfigError(
                f"[pde] level range [{p['level_min']}, {p['level_max']}] invalid"
            )
        rows = p["level_max"] - p["level_min"] + 1
        if pipeline_text == "fem-check" and rows < _MIN_STUDY_ROWS:
            raise ConfigError(
                f"[pde] level range [{p['level_min']}, {p['level_max']}] gives "
                f"{rows} study rows; the slope fit needs at least {_MIN_STUDY_ROWS}"
            )
    if "ouu" in sections:
        o = sections["ouu"]
        _positive("[ouu] field_level", o["field_level"])
        _positive("[ouu] max_mesh_level", o["max_mesh_level"])
        _positive("[ouu] replications", o["replications"])
        _positive("[ouu] mc_scale", o["mc_scale"])
        _positive("[ouu] pde_scale", o["pde_scale"])
        _positive("[ouu] restarts", o["restarts"])
        try:
            check_field_grid(mesh_at_level(o["field_level"]))
        except ValueError as err:
            raise ConfigError(f"[ouu] field_level {o['field_level']}: {err}") from None
    if "study" in sections:
        s = sections["study"]
        _positive("[study] eval_points", s["eval_points"])
        if s["reference_l"] < 0:
            raise ConfigError("[study] reference_l must be >= 0 (0 selects automatic)")

    n = _factor_count(pipeline_text, sections)
    l_min, l_max = run["l_min"], run["l_max"]
    if n is not None:
        if l_min == 0 and l_max == 0:
            raise ConfigError(
                f"pipeline {pipeline_text!r} requires [run] l_min and l_max"
            )
        if not n <= l_min <= l_max <= _MAX_THRESHOLD:
            raise ConfigError(
                f"[run] threshold range [{l_min}, {l_max}] must satisfy "
                f"{n} <= l_min <= l_max <= {_MAX_THRESHOLD} "
                f"(factor count {n})"
            )
        if l_max - l_min + 1 < _MIN_STUDY_ROWS:
            raise ConfigError(
                f"[run] threshold range [{l_min}, {l_max}] gives {l_max - l_min + 1} "
                f"study rows; the slope fit needs at least {_MIN_STUDY_ROWS}"
            )

    return RunConfig(
        pipeline=pipeline_text,
        seed=seed,
        l_min=l_min,
        l_max=l_max,
        out=run["out"],
        fit_window=run["fit_window"],
        sections=sections,
    )


def _format_value(value: Any) -> str:
    if isinstance(value, tuple):
        return ", ".join(_format_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def serialize_config(config: RunConfig) -> str:
    """Canonical text form; parses back to an equal configuration."""
    lines = []
    for name in _SECTION_ORDER:
        if name not in config.sections:
            continue
        lines.append(f"[{name}]")
        for key in _SCHEMA[name]:
            if key in config.sections[name]:
                lines.append(f"{key} = {_format_value(config.sections[name][key])}")
        lines.append("")
    return "\n".join(lines)


def parse_config_file(path) -> RunConfig:
    with open(path) as handle:
        return parse_config(handle.read())

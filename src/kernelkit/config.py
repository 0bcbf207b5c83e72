"""Run configuration: sectioned plain-text format, schema, validation.

Grammar (one statement per line):

    # comment (';' also starts a comment)
    [section]
    key = value

Keys are lowercase identifiers; values are integers, floats, comma lists
of floats, or words, depending on the key.  Unknown sections or keys are
errors (no silent defaults for misspellings), duplicate keys are errors
naming both lines, and every parse error carries a line number.  Each
pipeline admits only the keys its run reads (``_KEYS_READ``); any other
key is an error naming its line.  The serializer emits a canonical form
(those keys, defaults applied, fixed order) whose parse compares equal to
the original configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

import numpy as np

from kernelkit.kernels import (
    _DENSE_FIT_NODES_MAX,
    REFERENCE_RULE_MAX_DIM,
    MaternKernel,
    TensorKernel,
)
from kernelkit.multiindex import _MAX_N_PLUS_L
from kernelkit.points import _PRIMES, Box, Disc
from kernelkit.smolyak import FactorSpec, level_to_resolution
from kernelkit.uq import (
    bump_sample_factor,
    doubling_levels,
    interpolation_factor,
    kernel_quadrature_factor,
    midpoint_quadrature_factor,
    ouu_sample_specs,
    synthetic_bias_factor,
)

PIPELINES = ("rates", "interp", "misc", "rsr", "ouu", "fem-check")
_MAX_THRESHOLD = 14
# Every study fits its log-log slope over at least 3 rows.
_MIN_STUDY_ROWS = 3
_MAX_SEED = 2**64 - 1
# Finest mesh level a config may ask for: 2**8 = 256 cells per axis, whose
# Dirichlet band holds 134 MB.  Measured at one BLAS thread on a shared
# 2-core machine, a first bump solve there took 0.4-0.7 s (255 MB peak RSS)
# and a first advection solve 1.8-3.1 s (2.1 GB).
MAX_MESH_LEVEL = 8
# Counts that size a run: at each maximum the benchmark's workload configs ran in
# 0.5-5 s and 70-109 MB peak RSS (2 cores, 1 BLAS thread); 2**20 study points took
# 9-15 s, and ouu 748 MB.
_MAX_EVAL_POINTS = 2**16
_MAX_REPLICATIONS = 64
_MAX_RESTARTS = 1024


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
        value = float(text)
    except ValueError:
        raise ConfigError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {text!r}")
    return value


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
    default: Any = None  # None means required when the section is read
    choices: tuple | None = None
    positive: bool = False  # every value must be > 0
    maximum: float | None = None  # no value may exceed it


# Sections and keys in the order of the canonical form (serialize_config).
_SCHEMA: dict[str, dict[str, _Key]] = {
    "run": {
        "pipeline": _Key(_parse_word, choices=PIPELINES),
        "seed": _Key(_parse_int, default=0),
        "l_min": _Key(_parse_int),
        "l_max": _Key(_parse_int),
        "out": _Key(_parse_word, default="out"),
        "fit_window": _Key(_parse_float, default=1.0, positive=True, maximum=1.0),
    },
    "factors": {
        "gamma": _Key(_parse_float_list, positive=True),
        "beta": _Key(_parse_float_list, positive=True),
    },
    "kernel": {
        "beta": _Key(_parse_float, default=2.0, positive=True),
        "d": _Key(_parse_int, default=1, positive=True),
        "length_scale": _Key(_parse_float, default=1.0, positive=True),
        "alpha": _Key(_parse_float, default=0.0),
    },
    "interp": {
        "blocks": _Key(_parse_int, default=2, positive=True),
        "level_map": _Key(_parse_word, default="doubling", choices=("doubling", "exponential")),
    },
    "misc": {
        "quadrature": _Key(_parse_word, default="midpoint", choices=("midpoint", "kernel")),
        "blocks": _Key(_parse_int, default=1, positive=True),
        "integrand": _Key(_parse_word, default="parabola", choices=("parabola", "sine-product")),
        "quad_beta": _Key(_parse_float, default=2.0, positive=True),
        "sample_gamma": _Key(_parse_float, default=1.0, positive=True),
        "sample_kappa": _Key(_parse_float, default=1.0, positive=True),
    },
    "pde": {
        "bumps": _Key(_parse_int, default=1, choices=(1, 2, 4)),
        "max_mesh_level": _Key(_parse_int, default=6, positive=True, maximum=MAX_MESH_LEVEL),
        "work_exponent": _Key(_parse_float, default=1.5, positive=True),
        "convergence_exponent": _Key(_parse_float, default=1.0, positive=True),
        "level_min": _Key(_parse_int, default=3),
        "level_max": _Key(_parse_int, default=6, maximum=MAX_MESH_LEVEL),
    },
    "ouu": {
        "field_level": _Key(_parse_int, default=5, positive=True),
        "max_mesh_level": _Key(_parse_int, default=5, positive=True, maximum=MAX_MESH_LEVEL),
        "replications": _Key(_parse_int, default=5, positive=True, maximum=_MAX_REPLICATIONS),
        "mc_scale": _Key(_parse_float, default=4.0, positive=True),
        "pde_scale": _Key(_parse_float, default=12.0, positive=True),
        "level_map": _Key(_parse_word, default="doubling", choices=("doubling", "exponential")),
        "restarts": _Key(_parse_int, default=8, positive=True, maximum=_MAX_RESTARTS),
    },
    "study": {
        "eval_points": _Key(_parse_int, default=2048, positive=True, maximum=_MAX_EVAL_POINTS),
        "reference_l": _Key(_parse_int, default=0),
    },
}


def _read(section: str, *keys: str) -> dict[str, _Key]:
    return {key: _SCHEMA[section][key] for key in keys}


_RUN = _SCHEMA["run"]
_KERNEL = _SCHEMA["kernel"]
# rsr and ouu build their kernels over the plane.
_PLANAR_KERNEL = {**_KERNEL, "d": _Key(_parse_int, default=2, choices=(2,))}

# The keys each pipeline reads, by section: the only keys it admits, and the
# only ones its canonical form writes.
_KEYS_READ: dict[str, dict[str, dict[str, _Key]]] = {
    "rates": {"run": _RUN, "factors": _SCHEMA["factors"]},
    "interp": {
        "run": _RUN,
        "kernel": _KERNEL,
        "interp": _SCHEMA["interp"],
        "study": _read("study", "eval_points"),
    },
    "misc": {"run": _RUN, "misc": _SCHEMA["misc"]},
    "rsr": {
        "run": _RUN,
        "kernel": _PLANAR_KERNEL,
        "pde": _read("pde", "bumps", "max_mesh_level", "work_exponent", "convergence_exponent"),
        "study": _SCHEMA["study"],
    },
    "ouu": {
        "run": _RUN,
        "kernel": _PLANAR_KERNEL,
        "ouu": _SCHEMA["ouu"],
        "study": _SCHEMA["study"],
    },
    "fem-check": {
        "run": _read("run", "pipeline", "seed", "out", "fit_window"),
        "pde": _read("pde", "level_min", "level_max"),
    },
}
# Kernel quadrature makes misc read [kernel] in place of [misc] quad_beta.
_MISC_BY_KERNEL = {
    **_KEYS_READ["misc"],
    "kernel": _KERNEL,
    "misc": {key: spec for key, spec in _SCHEMA["misc"].items() if key != "quad_beta"},
}


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration of one experiment run."""

    pipeline: str
    seed: int
    l_min: int | None  # None for fem-check, which has no threshold range
    l_max: int | None
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


def _convert_section(
    name: str, entries: dict[str, tuple[str, int]], keys: dict[str, _Key]
) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for key, spec in keys.items():
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
            values = value if isinstance(value, tuple) else (value,)
            if spec.positive and any(not (v > 0) for v in values):
                raise ConfigError(f"[{name}] {key} must be positive, got {value}", line_no)
            if spec.maximum is not None and value > spec.maximum:
                raise ConfigError(
                    f"[{name}] {key} must be <= {spec.maximum}, got {value}", line_no
                )
            out[key] = value
        elif spec.default is not None:
            out[key] = spec.default
        else:
            raise ConfigError(f"missing required key {key!r} in [{name}]")
    return out


def matern_kernel(sections: dict[str, dict[str, Any]]) -> MaternKernel:
    """The kernel that the ``[kernel]`` section configures."""
    k = sections["kernel"]
    return MaternKernel(beta=k["beta"], dim=k["d"], length_scale=k["length_scale"])


def sine_product(points: np.ndarray) -> np.ndarray:
    """``prod_j sin(2 pi x_j)``: the ``interp`` target and ``misc``'s
    sine-product integrand."""
    values = np.ones(points.shape[0])
    for j in range(points.shape[1]):
        values = values * np.sin(2.0 * np.pi * points[:, j])
    return values


class RunPlan(NamedTuple):
    """What a run estimates, fixed by its configuration before any numerics.

    ``factors`` are the pipeline's factors in engine order: a
    :class:`~kernelkit.smolyak.FactorSpec`, or a factor object that holds
    one as ``spec`` (its level map included).  ``dense`` tells, per factor,
    whether its nodes are fitted by a kernel that :attr:`~kernelkit.kernels.
    TensorKernel.fits_densely`.  ``rows`` are the study's thresholds and
    ``reference_l`` the threshold of its reference estimate, None for a run
    that makes none.
    """

    factors: tuple
    dense: tuple[bool, ...]
    rows: range
    reference_l: int | None

    @property
    def specs(self) -> tuple[FactorSpec, ...]:
        return tuple(f if isinstance(f, FactorSpec) else f.spec for f in self.factors)


def run_plan(pipeline: str, sections: dict[str, dict[str, Any]]) -> RunPlan | None:
    """The plan of a run of ``pipeline`` on converted ``sections``; None
    for fem-check, which estimates no threshold.  It builds factor objects
    only: no mesh, point set, Gram matrix or field factor."""
    if pipeline == "fem-check":
        return None
    k, study = sections.get("kernel"), sections.get("study", {})
    if k:
        kernel = matern_kernel(sections)
        unit = Box(lows=(0.0,) * k["d"], highs=(1.0,) * k["d"])

    def fitted(blocks: int) -> list[bool]:
        # The flags of the factors that one kernel of ``blocks`` blocks fits.
        return [TensorKernel((kernel,) * blocks).fits_densely] * blocks

    if pipeline == "rates":
        gammas, betas = sections["factors"]["gamma"], sections["factors"]["beta"]
        factors = [FactorSpec(gamma=g, beta=b) for g, b in zip(gammas, betas)]
        dense = [False] * len(factors)
    elif pipeline == "interp":
        level_map = doubling_levels if sections["interp"]["level_map"] == "doubling" else None
        factor = interpolation_factor(kernel, unit, k["alpha"], level_map)
        factors = [factor] * sections["interp"]["blocks"]
        dense = fitted(len(factors))
    elif pipeline == "misc":
        m = sections["misc"]
        if m["quadrature"] == "midpoint":
            factors = [midpoint_quadrature_factor(m["quad_beta"]) for _ in range(m["blocks"])]
            dense = [False] * m["blocks"]
        else:
            factors = [
                kernel_quadrature_factor(kernel, unit, k["alpha"]) for _ in range(m["blocks"])
            ]
            # Each rule solves its weights on its own nodes.
            dense = fitted(1) * m["blocks"]
        if m["integrand"] == "parabola":
            integrand = lambda pts: np.sum(pts**2, axis=1)  # noqa: E731
        else:
            integrand = sine_product
        factors.append(synthetic_bias_factor(integrand, m["sample_gamma"], m["sample_kappa"]))
        dense.append(False)
    elif pipeline == "rsr":
        from kernelkit.pde import BumpDiffusionProblem

        p = sections["pde"]
        boxes = BumpDiffusionProblem(n_bumps=p["bumps"]).center_boxes
        factors = [interpolation_factor(kernel, box, alpha=k["alpha"]) for box in boxes]
        dense = fitted(len(factors)) + [False]
        factors.append(
            bump_sample_factor(
                n_bumps=p["bumps"],
                work_exponent=p["work_exponent"],
                convergence_exponent=p["convergence_exponent"],
                max_cells=2 ** p["max_mesh_level"],
            )
        )
    else:
        o = sections["ouu"]
        level_map = doubling_levels if o["level_map"] == "doubling" else None
        disc = Disc(center=(0.0, 0.0), radius=1.0)
        factors = [interpolation_factor(kernel, disc, k["alpha"], level_map)]
        dense = fitted(1) + [False, False]
        factors += ouu_sample_specs(o["mc_scale"], o["pde_scale"], 2 ** o["max_mesh_level"])
    l_min, l_max = sections["run"]["l_min"], sections["run"]["l_max"]
    reference_l = (study["reference_l"] or l_max + 2) if "reference_l" in study else None
    return RunPlan(tuple(factors), tuple(dense), range(l_min, l_max + 1), reference_l)


def _unreachable(plan: RunPlan, L: int) -> str | None:
    """Why a run of ``plan`` cannot estimate threshold ``L``, or None: ``n +
    L`` past the combination rule's exact-arithmetic bound, a factor whose
    level map is not a finite float at its highest level ``L - n + 1``, or a
    dense fit there of more than ``_DENSE_FIT_NODES_MAX`` nodes, which
    :func:`~kernelkit.kernels.fit_interpolant` would refuse after the fits
    below it."""
    n = len(plan.factors)
    if n + L > _MAX_N_PLUS_L:
        return f"n + L = {n + L} exceeds the exact-arithmetic bound {_MAX_N_PLUS_L}"
    level = L - n + 1
    for j, (spec, dense) in enumerate(zip(plan.specs, plan.dense), start=1):
        try:
            count = level_to_resolution(spec, level)
        except OverflowError as err:
            return str(err)
        if dense and count > _DENSE_FIT_NODES_MAX:
            return (
                f"factor {j} at level {level} needs a dense kernel fit on {count} "
                f"nodes, above the bound of {_DENSE_FIT_NODES_MAX} nodes"
            )
    return None


def _check_point_dims(pipeline: str, sections: dict[str, dict[str, Any]], plan: RunPlan) -> None:
    """Reject a ``[kernel] d`` whose points the pipeline cannot build: past
    its ``2**d`` corners a box's nested points are Halton points, which exist
    up to dimension ``len(_PRIMES)``, and ``misc``'s kernel quadrature needs
    the reference rule of :func:`~kernelkit.kernels.quadrature_weights`."""
    d = sections.get("kernel", {}).get("d")
    if pipeline == "interp" and d > len(_PRIMES):
        # The largest factor of a run has the highest level, l_max - blocks + 1.
        level = plan.rows[-1] - len(plan.factors) + 1
        count = level_to_resolution(plan.specs[0], level)
        if count > 2**d:
            raise ConfigError(
                f"[kernel] d = {d}: the largest interp factor holds {count} points, "
                f"more than the {2**d} box corners, and the points past them "
                f"exist up to dimension {len(_PRIMES)}"
            )
    if pipeline == "misc" and d is not None and d > REFERENCE_RULE_MAX_DIM:
        raise ConfigError(
            f"[kernel] d = {d}: the kernel quadrature's reference rule "
            f"exists up to dimension {REFERENCE_RULE_MAX_DIM}"
        )


def _validate(raw: dict[str, dict[str, tuple[str, int]]]) -> RunConfig:
    pipeline = _convert_section("run", raw.get("run", {}), _read("run", "pipeline"))["pipeline"]
    reader, keys = f"pipeline {pipeline!r}", _KEYS_READ[pipeline]
    if pipeline == "misc":
        misc = _convert_section(
            "misc", raw.get("misc", {}), _read("misc", "quadrature", "integrand")
        )
        reader += f" with quadrature = {misc['quadrature']}, integrand = {misc['integrand']}"
        if misc["quadrature"] == "kernel":
            keys = _MISC_BY_KERNEL
    for name, entries in raw.items():
        for key, (_, line) in entries.items():
            if key not in keys.get(name, {}):
                raise ConfigError(f"[{name}] {key} is not read by {reader}", line)
        if name not in keys:
            raise ConfigError(f"section [{name}] is not read by {reader}")
    sections = {
        name: _convert_section(name, raw.get(name, {}), spec) for name, spec in keys.items()
    }

    run = sections["run"]
    seed = run["seed"]
    if not 0 <= seed <= _MAX_SEED:
        message = f"[run] seed must be a 64-bit unsigned integer, got {seed}"
        raise ConfigError(message, raw["run"]["seed"][1])

    if "factors" in sections:
        gamma = sections["factors"]["gamma"]
        beta = sections["factors"]["beta"]
        if len(gamma) != len(beta):
            raise ConfigError(
                f"[factors] gamma and beta must have equal length "
                f"({len(gamma)} vs {len(beta)})",
                raw["factors"]["beta"][1],
            )
    if "kernel" in sections:
        k = sections["kernel"]
        if k["alpha"] < 0:
            message = f"[kernel] alpha must be >= 0, got {k['alpha']}"
            raise ConfigError(message, raw["kernel"]["alpha"][1])
        if k["beta"] - k["alpha"] <= 0:
            # beta is positive and alpha defaults to 0, so only a set alpha
            # gets here.
            line = raw["kernel"]["alpha"][1]
            raise ConfigError("[kernel] alpha must be smaller than beta", line)
        try:
            matern_kernel(sections)
        except ValueError as err:
            raise ConfigError(
                f"[kernel] beta = {k['beta']!r} at kernel dimension {k['d']}: {err}"
            ) from None
    if pipeline == "fem-check":
        p = sections["pde"]
        if not 1 <= p["level_min"] <= p["level_max"]:
            raise ConfigError(
                f"[pde] level range [{p['level_min']}, {p['level_max']}] invalid"
            )
        rows = p["level_max"] - p["level_min"] + 1
        if rows < _MIN_STUDY_ROWS:
            raise ConfigError(
                f"[pde] level range [{p['level_min']}, {p['level_max']}] gives "
                f"{rows} study rows; the slope fit needs at least {_MIN_STUDY_ROWS}"
            )
    if "ouu" in sections:
        from kernelkit.pde import check_field_grid, mesh_at_level

        o = sections["ouu"]
        try:
            check_field_grid(mesh_at_level(o["field_level"]))
        except ValueError as err:
            message = f"[ouu] field_level {o['field_level']}: {err}"
            raise ConfigError(message, raw["ouu"]["field_level"][1]) from None

    plan = run_plan(pipeline, sections)
    if plan is not None:
        n = len(plan.factors)
        l_min, l_max = run["l_min"], run["l_max"]
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
        _check_point_dims(pipeline, sections, plan)
        # A reference inside the study would be measured against itself.
        reference_l = sections.get("study", {}).get("reference_l", 0)
        if reference_l != 0 and not reference_l > l_max:
            message = f"must be 0 (automatic) or above l_max = {l_max}"
            line = raw["study"]["reference_l"][1]
            raise ConfigError(f"[study] reference_l = {reference_l} {message}", line)
        # The largest threshold is the reference's, when the run makes one.
        top = plan.rows[-1] if plan.reference_l is None else plan.reference_l
        reason = _unreachable(plan, top)
        if reason is not None:
            section, key = ("study", "reference_l") if reference_l else ("run", "l_max")
            value = sections[section][key]
            at = "" if top == value else f" (reference at {top})"
            raise ConfigError(f"[{section}] {key} = {value}{at}: {reason}", raw[section][key][1])

    return RunConfig(
        pipeline=pipeline,
        seed=seed,
        l_min=run.get("l_min"),
        l_max=run.get("l_max"),
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
    for name, keys in _SCHEMA.items():
        if name not in config.sections:
            continue
        lines.append(f"[{name}]")
        for key in keys:
            if key in config.sections[name]:
                lines.append(f"{key} = {_format_value(config.sections[name][key])}")
        lines.append("")
    return "\n".join(lines)


def parse_config_file(path) -> RunConfig:
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        line = data.count(b"\n", 0, err.start) + 1
        raise ConfigError(f"byte 0x{data[err.start]:02x} is not UTF-8 text", line) from None
    return parse_config(text)

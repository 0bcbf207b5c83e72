"""Correctness checks of pipeline artifacts against stored reference data.

The reference directory of each workload holds the artifacts of the
original code at the workload's default seed, made with the benchmark's
worker and BLAS thread counts.  Artifacts are compared
token by token, splitting on commas, ``=`` and white space:

* a token that is an integer literal must match exactly;
* a token that is a float literal must lie within ``max(RTOL * |ref|,
  ATOL, one unit in the last digit printed in the reference)``;
* every other token must match exactly.

The kernel systems are ill-conditioned, so they amplify a change in the
order of floating-point sums far beyond 1e-12.  Changing only the BLAS
thread count (1 or 2) moved the ``ouu`` study by up to 8e-8 relative, the
``interp`` errors by up to 3.3e-11 absolute (2.7e-5 relative on values
near 1e-6) and the ``interp`` fitted slope by 1.1e-6 relative.  RTOL and
ATOL sit about ten times above that drift; a real change to a method
moves these numbers by 1e-4 relative or more.  The printed-digit part
covers values written with few decimals, such as the minimizer.

A missing artifact is a failure.  For seeds without reference data,
:func:`check_structure` checks the shape of the output instead.
"""

from __future__ import annotations

import math
import os
import re

RTOL = 1e-5
ATOL = 1e-9

_SPLIT = re.compile(r"[,=\s]+")
_INT = re.compile(r"^[+-]?\d+$")


def _tokens(text: str) -> list[list[str]]:
    return [[t for t in _SPLIT.split(line) if t] for line in text.splitlines()]


def _last_digit_unit(token: str) -> float:
    mantissa, _, exponent = token.lower().partition("e")
    decimals = len(mantissa.partition(".")[2])
    return 10.0 ** (int(exponent or 0) - decimals)


def token_problem(ref: str, new: str) -> str | None:
    """Why ``new`` does not match ``ref``, or None when it does."""
    if ref == new:
        return None
    if _INT.match(ref):
        return f"integer {new} != {ref}"
    try:
        a, b = float(new), float(ref)
    except ValueError:
        return f"{new!r} != {ref!r}"
    # The factor on the printed unit absorbs the rounding of the subtraction.
    tolerance = max(RTOL * abs(b), ATOL, _last_digit_unit(ref) * (1 + 1e-6))
    if not abs(a - b) <= tolerance:
        return f"float {new} differs from {ref} by {abs(a - b):.3g} > {tolerance:.3g}"
    return None


def compare_text(ref: str, new: str, label: str = "") -> list[str]:
    """Problems found comparing one artifact with its reference."""
    ref_lines, new_lines = _tokens(ref), _tokens(new)
    if len(ref_lines) != len(new_lines):
        return [f"{label}: {len(new_lines)} lines, reference has {len(ref_lines)}"]
    problems = []
    for number, (ref_row, new_row) in enumerate(zip(ref_lines, new_lines), 1):
        if len(ref_row) != len(new_row):
            problems.append(f"{label}:{number}: {len(new_row)} fields, reference has {len(ref_row)}")
            continue
        for ref_token, new_token in zip(ref_row, new_row):
            problem = token_problem(ref_token, new_token)
            if problem:
                problems.append(f"{label}:{number}: {problem}")
    return problems


def _read(path: str) -> str | None:
    try:
        with open(path) as handle:
            return handle.read()
    except FileNotFoundError:
        return None


def compare_dirs(ref_dir: str, out_dir: str, artifacts) -> list[str]:
    """Compare every artifact in ``out_dir`` with ``ref_dir``."""
    problems = []
    for name in artifacts:
        ref = _read(os.path.join(ref_dir, name))
        new = _read(os.path.join(out_dir, name))
        if ref is None:
            problems.append(f"{name}: reference data missing")
        elif new is None:
            problems.append(f"{name}: artifact missing")
        else:
            problems += compare_text(ref, new, name)
    return problems


def _finite(token: str) -> bool:
    try:
        return math.isfinite(float(token))
    except ValueError:
        return False


def _table(text: str) -> tuple[list[str], list[dict[str, str]]]:
    lines = text.splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


def check_structure(ref_dir: str, out_dir: str, artifacts, rows: int, fixed_columns) -> list[str]:
    """Check artifacts of a seed that has no reference data.

    Every artifact must exist; ``study.csv`` must have the reference
    header, ``rows`` rows, finite values, and the reference values in the
    columns that do not depend on the seed; every number in ``slope.txt``
    and ``minimizer.txt`` must be finite, and the predicted slope and fit
    window must equal the reference.
    """
    texts = {name: _read(os.path.join(out_dir, name)) for name in artifacts}
    problems = [f"{name}: artifact missing" for name, text in texts.items() if text is None]
    if problems:
        return problems
    ref_header, ref_rows = _table(_read(os.path.join(ref_dir, "study.csv")))
    header, table = _table(texts["study.csv"])
    if header != ref_header:
        return [f"study.csv: header {header} != reference {ref_header}"]
    if len(table) != rows:
        return [f"study.csv: {len(table)} rows, expected {rows}"]
    for number, (row, ref_row) in enumerate(zip(table, ref_rows), 2):
        for column in header:
            value = row.get(column, "")
            if column in fixed_columns:
                problem = token_problem(ref_row[column], value)
                if problem:
                    problems.append(f"study.csv:{number}: {column}: {problem}")
            elif not _finite(value):
                problems.append(f"study.csv:{number}: {column} = {value!r} is not finite")
    for name in artifacts:
        if name == "study.csv":
            continue
        for line in texts[name].splitlines():
            value = line.partition("=")[2]
            if not value.split() or not all(_finite(t) for t in value.split()):
                problems.append(f"{name}: {line!r} is not a finite number")
    slopes = _read(os.path.join(ref_dir, "slope.txt"))
    for line in slopes.splitlines():
        if line.startswith(("predicted_slope", "fit_window")) and line not in texts["slope.txt"].splitlines():
            problems.append(f"slope.txt: expected {line!r}")
    return problems

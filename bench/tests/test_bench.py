"""Tests of the benchmark's own arithmetic, wrapping and output checks.

Run with ``python3 -m pytest bench/tests -q`` from the repository root.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import types
from concurrent.futures import ThreadPoolExecutor

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

from golden import check_structure, compare_dirs, compare_text, token_problem  # noqa: E402
from run import tail_percentile, unit_of  # noqa: E402
from spans import Hooks, Recorder, Span, Target, covered, install, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# ---------------------------------------------------------------------------
# self time


def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 4), (3, 6), (8, 12)], 0, 10) == pytest.approx(3 + 2 + 2)
    assert covered([(2, 3), (1, 5)], 0, 10) == pytest.approx(4)
    assert covered([], 0, 10) == 0


def test_self_time_of_nested_spans():
    spans = [
        Span("smolyak.estimate", 0.0, 10.0, None),
        Span("pde.solve", 1.0, 4.0, 0),
        # Runs on another thread, overlapping its sibling.
        Span("pde.solve", 3.0, 6.0, 0),
        Span("pde.field.draw", 2.0, 3.0, 1),
    ]
    assert self_times(spans) == pytest.approx([10 - 5, 3 - 1, 3, 1])


def test_layer_shares_use_self_time():
    spans = [
        Span("uq.study", 0.0, 10.0, None),
        Span("smolyak.estimate", 0.0, 8.0, 0),
        Span("pde.solve", 0.0, 6.0, 1, {"cells": 6}),
        Span("kernels.fit", 6.0, 7.0, 1, {"nodes": 4}),
    ]
    m = layer_metrics(spans, wall_s=10.0)
    assert m["pde.share"] == pytest.approx(0.6)
    assert m["kernels.share"] == pytest.approx(0.1)
    assert m["smolyak.share"] == pytest.approx(0.1)
    assert m["uq.share"] == pytest.approx(0.2)
    assert m["smolyak.estimate.self_s"] == pytest.approx(1.0)
    assert m["pde.solve.c6.calls"] == 1
    assert m["pde.solve.ms_per_call"] == pytest.approx(6000.0)
    assert m["kernels.fit.gram_entries"] == 16


# ---------------------------------------------------------------------------
# recording and by-name wrapping


def test_recorder_links_parents_within_and_across_threads():
    recorder = Recorder()

    def inner():
        return 1

    inner_w = recorder.wrap("inner", inner)

    def outer():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return sum(pool.map(lambda _: inner_w(), range(4))) + inner_w()

    assert recorder.wrap("outer", outer)() == 5
    spans = recorder.spans
    names = [s.name for s in spans]
    assert names.count("inner") == 5
    outer_index = names.index("outer")
    assert all(s.parent == outer_index for s in spans if s.name == "inner")


def test_hooks_see_arguments_and_result():
    recorder = Recorder()

    def before(args, kwargs):
        return (args[0] * 2,), kwargs, "state"

    def after(state, args, kwargs, result):
        return {"state": state, "arg": args[0], "result": result}

    wrapped = recorder.wrap("f", lambda x: x + 1, Hooks(before=before, after=after))
    assert wrapped(3) == 7
    assert recorder.spans[0].attrs == {"state": "state", "arg": 6, "result": 7}


@pytest.fixture
def fake_package(monkeypatch):
    """``fakepkg.a`` defines ``work`` and ``Thing``; ``fakepkg.b`` imports both by name."""
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")

    def work(x):
        return x + 1

    class Thing:
        def run(self):
            return a.work(1)

    a.work, a.Thing = work, Thing
    b.work_alias, b.Thing = work, Thing
    b.call = lambda: b.work_alias(10)
    for name, module in (("fakepkg", pkg), ("fakepkg.a", a), ("fakepkg.b", b)):
        monkeypatch.setitem(sys.modules, name, module)
    return a, b


def test_install_patches_every_namespace_by_identity(fake_package):
    a, b = fake_package
    original = a.work
    recorder = Recorder()
    restore = install(
        recorder,
        [Target("w", "fakepkg.a", "work"), Target("t", "fakepkg.a", "Thing.run")],
        "fakepkg",
    )
    try:
        assert b.call() == 11
        assert b.Thing().run() == 2
        assert [s.name for s in recorder.spans] == ["w", "t", "w"]
        assert recorder.spans[2].parent == 1
    finally:
        restore()
    assert a.work is original and b.work_alias is original
    assert "run" in vars(a.Thing) and not hasattr(a.Thing.run, "__wrapped__")


def test_install_ignores_other_packages(fake_package, monkeypatch):
    a, _ = fake_package
    other = types.ModuleType("otherpkg")
    other.work = a.work
    monkeypatch.setitem(sys.modules, "otherpkg", other)
    restore = install(Recorder(), [Target("w", "fakepkg.a", "work")], "fakepkg")
    try:
        assert other.work is not a.work
    finally:
        restore()


def test_trace_targets_reach_names_imported_elsewhere(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(BENCH), "src"))
    import kernelkit.cli
    import kernelkit.uq
    from child import trace_targets

    originals = (kernelkit.uq.fit_interpolant, kernelkit.cli.ouu_study, kernelkit.cli.generate_points)
    restore = install(Recorder(), trace_targets(), "kernelkit")
    try:
        patched = (kernelkit.uq.fit_interpolant, kernelkit.cli.ouu_study, kernelkit.cli.generate_points)
        assert all(p is not o and p.__wrapped__ is o for p, o in zip(patched, originals))
        assert kernelkit.kernels.fit_interpolant is kernelkit.uq.fit_interpolant
    finally:
        restore()
    assert kernelkit.uq.fit_interpolant is originals[0]


# ---------------------------------------------------------------------------
# output checks


def test_integers_match_exactly():
    assert token_problem("1036", "1036") is None
    assert token_problem("1036", "1037") is not None
    assert token_problem("5", "5.0") is not None


def test_floats_absorb_reassociation_but_not_real_changes():
    # Drift measured when only the BLAS thread count changes.
    assert token_problem("2.556782204009e-03", "2.556782413965e-03") is None
    assert token_problem("-2.095941013451e+00", "-2.095943266606e+00") is None
    assert token_problem("1.242821918475e-06", "1.242788969112e-06") is None
    # Changes of 1e-4 relative, or 1e-8 absolute on a small error, are real.
    assert token_problem("2.556782204009e-03", "2.557e-03") is not None
    assert token_problem("-2.095941013451e+00", "-2.0957e+00") is not None
    assert token_problem("1.242821918475e-06", "1.26e-06") is not None
    # Six printed decimals: a change in the last digit is allowed, not more.
    assert token_problem("-0.276489", "-0.276490") is None
    assert token_problem("-0.276489", "-0.276479") is not None
    assert token_problem("nan", "1.0") is not None
    assert token_problem("ouu", "rsr") is not None


def test_compare_text_reports_shape_changes():
    ref = "L,error\n3,1.0e+00\n4,5.0e-01\n"
    assert compare_text(ref, ref) == []
    assert compare_text(ref, "L,error\n3,1.0e+00\n") != []
    assert compare_text(ref, "L,err\n3,1.0e+00\n4,5.0e-01\n") != []
    assert compare_text(ref, "L,error\n3,1.0e+00,7\n4,5.0e-01\n") != []


def _reference(name):
    return os.path.join(BENCH, "reference", name)


def test_missing_artifact_is_a_failure(tmp_path):
    workload = WORKLOADS["ouu"]
    out = tmp_path / "out"
    shutil.copytree(_reference("ouu"), out)
    assert compare_dirs(_reference("ouu"), str(out), workload.artifacts) == []
    os.remove(out / "minimizer.txt")
    problems = compare_dirs(_reference("ouu"), str(out), workload.artifacts)
    assert problems == ["minimizer.txt: artifact missing"]
    problems = check_structure(
        _reference("ouu"), str(out), workload.artifacts, workload.rows, workload.fixed_columns
    )
    assert problems == ["minimizer.txt: artifact missing"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_structure_check_accepts_reference_and_rejects_damage(tmp_path, name):
    workload = WORKLOADS[name]
    ref = _reference(name)
    out = tmp_path / "out"
    shutil.copytree(ref, out)

    def check():
        return check_structure(ref, str(out), workload.artifacts, workload.rows, workload.fixed_columns)

    assert check() == []
    study = (out / "study.csv").read_text().splitlines()
    (out / "study.csv").write_text("\n".join(study[:-1]) + "\n")
    assert check() != []
    last = study[-1].split(",")
    last[-2] = "nan"
    (out / "study.csv").write_text("\n".join(study[:-1] + [",".join(last)]) + "\n")
    assert check() != []
    (out / "study.csv").write_text("\n".join(study[:-1] + [study[-1].rsplit(",", 1)[0]]) + "\n")
    assert check() != []
    shutil.copy(os.path.join(ref, "study.csv"), out / "study.csv")
    (out / "slope.txt").write_text("fitted_slope = nan\n")
    assert check() != []


# ---------------------------------------------------------------------------
# the benchmark's declared metrics


def _spec():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_declared_metrics_match_what_the_benchmark_reports():
    spec = _spec()
    per_layer = set(layer_metrics([], wall_s=1.0)) | {"trace.wall_s", "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == per_layer
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}
    for metric in spec["per_layer"] + spec["end_to_end"]:
        assert metric["unit"] == unit_of(metric["name"])
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(w["why"] == WORKLOADS[w["name"]].why for w in spec["workloads"])


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert tail_percentile([1.0] * 10) is None
    assert tail_percentile(list(range(21)))[0] == "p50"
    assert tail_percentile(list(range(200)))[0] == "p90"

"""Benchmark of the kernelkit pipelines, driven from outside like a user.

Usage, from the root of a checkout::

    python3 bench/run.py --workload {ouu,rsr,interp,all} --seed N \
        --seconds S --trace {0,1}

For the workload it writes a config (``bench/workloads.py``) with
``[run] seed = N`` and runs the pipeline through the command-line entry
point, one run at a time (closed loop, one client), each in a fresh
interpreter (``bench/child.py``), until ``S`` seconds have passed and the
workload's minimum number of runs is done.  It reports with tracing off:

* ``wall_s``: median wall time of one pipeline run;
* ``setup_s``: median time of ``import kernelkit.cli`` plus parsing the
  config, over several fresh interpreters;
* ``peak_rss_mb``: median peak resident memory of a pipeline process.

Every run is checked: exit code 0, and the artifacts match
``bench/reference/<workload>`` within the tolerance of ``golden.py`` at
the default seed, or have the expected structure at any other seed.  Once
per invocation, untimed, the run is repeated at the other worker count
and ``study.csv`` must be byte-identical.  Runs that fail count in
``failed``; ``failed_frac`` is printed.

With ``--trace 1`` a further run wraps the library's public entry points
(``bench/spans.py``) and the per-layer metrics are reported instead.  A
span that the workload must hit but that recorded no call fails the run,
and counts that must repeat exactly are compared with earlier traced runs
of the same code and seed.

Every result, with a record of the environment, is appended to
``.bench_runs/history.jsonl``.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from golden import check_structure, compare_dirs  # noqa: E402
from spans import EXACT_COUNTS, LAYERS, layer_metrics, spans_from_json  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Workload  # noqa: E402

RUNS_DIR = os.path.join(ROOT, ".bench_runs")
# Every child is stopped this long after the invocation started.
DEADLINE_S = 170.0


class Invocation:
    """Children started by one benchmark invocation, all under one deadline."""

    def __init__(self, workdir: str, config: str, blas_threads: int):
        self.workdir = workdir
        self.config = config
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads))

    def child(self, tag: str, workers: int, setup_only=False, spans=None) -> dict | None:
        """Run ``child.py`` once; the parsed result, or None if it failed."""
        result = os.path.join(self.workdir, f"{tag}.json")
        command = [
            sys.executable, os.path.join(HERE, "child.py"),
            "--src", os.path.join(ROOT, "src"),
            "--config", self.config,
            "--out", os.path.join(self.workdir, tag),
            "--workers", str(workers),
            "--result", result,
        ]
        if setup_only:
            command.append("--setup-only")
        if spans:
            command += ["--spans", spans]
        log_path = os.path.join(self.workdir, f"{tag}.log")
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            with open(log_path, "w") as log:
                code = subprocess.run(
                    command, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT,
                    env=self.env, timeout=timeout,
                ).returncode
        except subprocess.TimeoutExpired:
            print(f"{tag}: stopped after {timeout:.0f} s", file=sys.stderr)
            return None
        if code != 0 or not os.path.exists(result):
            with open(log_path) as log:
                print(f"{tag}: child exited {code}\n{log.read()[-2000:]}", file=sys.stderr)
            return None
        with open(result) as handle:
            data = json.load(handle)
        data["out"] = os.path.join(self.workdir, tag)
        if data.get("rc", 0) != 0:
            print(f"{tag}: kernelkit exited {data['rc']}", file=sys.stderr)
        return data


def unit_of(name: str) -> str:
    """The unit of a metric, from its name."""
    if name.endswith("ms_per_call"):
        return "ms"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("ratio", "share")):
        return "ratio"
    return "count"


def tail_percentile(samples: list[float]) -> tuple[str, float] | None:
    """The highest of p50/p90/p99 with at least ten samples beyond it."""
    ordered = sorted(samples)
    best = None
    for p in (50, 90, 99):
        rank = int(len(ordered) * p / 100)
        if len(ordered) - rank - 1 >= 10:
            best = (f"p{p}", ordered[rank])
    return best


def code_digest() -> str:
    digest = hashlib.sha256()
    package = os.path.join(ROOT, "src", "kernelkit")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def check_outputs(workload: Workload, seed: int, out: str) -> list[str]:
    ref_dir = os.path.join(HERE, "reference", workload.name)
    if seed == DEFAULT_SEED:
        return compare_dirs(ref_dir, out, workload.artifacts)
    return check_structure(
        ref_dir, out, workload.artifacts, workload.rows, workload.fixed_columns
    )


def read_history() -> list[dict]:
    try:
        with open(os.path.join(RUNS_DIR, "history.jsonl")) as handle:
            return [json.loads(line) for line in handle if line.strip()]
    except FileNotFoundError:
        return []


def traced(inv: Invocation, workload: Workload, record: dict) -> None:
    """The traced run: per-layer metrics, span coverage and exact counts."""
    spans_path = os.path.join(RUNS_DIR, f"spans-{workload.name}.json")
    data = inv.child("traced", record["workers"], spans=spans_path)
    record_outcome(record, workload, "traced", data)
    if not completed(data):
        raise SystemExit("traced run failed:\n" + "\n".join(record["problems"]))
    with open(spans_path) as handle:
        spans = spans_from_json(json.load(handle))
    layers = layer_metrics(spans, data["wall_s"])
    layers["trace.wall_s"] = data["wall_s"]
    layers["trace.overhead_s"] = data["wall_s"] - record["metrics"]["wall_s"]
    record["layers"] = layers
    hit = {s.name for s in spans}
    problems = [f"span {name} recorded no call" for name in workload.must_hit if name not in hit]
    record["exact"] = {name: layers[name] for name in EXACT_COUNTS}
    key = ("workload", "seed", "workers", "code_sha256")
    for earlier in read_history():
        if "exact" in earlier and all(earlier.get(k) == record[k] for k in key):
            if earlier["exact"] != record["exact"]:
                problems.append(
                    f"exact counts differ from an earlier traced run: "
                    f"{earlier['exact']} != {record['exact']}"
                )
            break
    if problems:
        record["failed"] += 1
        record["problems"] += [f"traced: {p}" for p in problems]


def completed(data: dict | None) -> bool:
    """Whether a pipeline run exited 0, so that its timing is valid."""
    return data is not None and data["rc"] == 0


def record_outcome(record: dict, workload: Workload, tag: str, data: dict | None) -> bool:
    """Count one attempted run; check its exit code and artifacts."""
    record["attempted"] += 1
    problems = [] if completed(data) else [f"{tag}: run failed"]
    if not problems:
        problems = [f"{tag}: {p}" for p in check_outputs(workload, record["seed"], data["out"])]
    if problems:
        record["failed"] += 1
        record["problems"] += problems
    return not problems


def bench_workload(workload: Workload, seed: int, seconds: int, trace: bool) -> dict:
    """Run one workload; returns its result record."""
    workdir = os.path.join(RUNS_DIR, f"{workload.name}-{seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    config = os.path.join(workdir, "run.cfg")
    with open(config, "w") as handle:
        handle.write(workload.config_text(seed))
    workers = workload.worker_count()
    # Each worker thread may call BLAS.  One BLAS thread per worker's share
    # of the cores keeps the timed runs at nproc threads.  The count is the
    # same for every run of the invocation, because it changes the order of
    # BLAS sums and so the last bits of study.csv.
    inv = Invocation(workdir, config, max(1, (os.cpu_count() or 1) // workers))
    record = {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": trace, "workers": workers, "code_sha256": code_digest(),
        "attempted": 0, "failed": 0, "problems": [],
    }

    # Set-up is also timed in every pipeline run below; this interpreter
    # adds one more sample and records the environment.
    data = inv.child("setup", workers, setup_only=True)
    if data is None:
        raise SystemExit("cannot import kernelkit from src/")
    record["env"] = data["env"]
    setups = [data["setup_s"]]

    # A run with wrong artifacts still times the program; it counts as failed.
    walls, rss, first_out = [], [], None
    start = time.monotonic()
    while record["attempted"] < workload.min_runs or time.monotonic() - start < seconds:
        tag = f"run{record['attempted']}"
        data = inv.child(tag, workers)
        record_outcome(record, workload, tag, data)
        if data is not None:
            setups.append(data["setup_s"])
        if completed(data):
            walls.append(data["wall_s"])
            rss.append(data["peak_rss_mb"])
            first_out = first_out or data["out"]
    if not walls:
        raise SystemExit("no run completed:\n" + "\n".join(record["problems"]))

    # Untimed: study.csv must not depend on the worker count.
    data = inv.child("workers", workload.other_worker_count())
    if data is not None:
        setups.append(data["setup_s"])
    if record_outcome(record, workload, "workers", data):
        with open(os.path.join(first_out, "study.csv"), "rb") as a, \
                open(os.path.join(data["out"], "study.csv"), "rb") as b:
            if a.read() != b.read():
                record["failed"] += 1
                record["problems"].append(
                    f"study.csv differs between --workers {workers} and "
                    f"--workers {workload.other_worker_count()}"
                )

    record["walls"] = walls
    record["setups"] = setups
    record["metrics"] = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss),
    }
    if trace:
        traced(inv, workload, record)
    shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(RUNS_DIR, "history.jsonl"), "a") as handle:
        handle.write(json.dumps(dict(record, time=time.time())) + "\n")
    return record


def summary(record: dict) -> str:
    walls = record["walls"]
    tail = tail_percentile(walls)
    tail_text = f"{tail[0]} {tail[1]:.4f} s" if tail else "no percentile with 10 samples beyond it"
    m = record["metrics"]
    return (
        f"{record['workload']} seed={record['seed']} workers={record['workers']}: "
        f"wall_s median {m['wall_s']:.4f} s, {tail_text} (n={len(walls)}); "
        f"setup_s {m['setup_s']:.4f} s (n={len(record['setups'])}); "
        f"peak_rss_mb {m['peak_rss_mb']:.1f} MB; "
        f"failed_frac {record['failed']}/{record['attempted']} = "
        f"{record['failed'] / record['attempted']:.3f}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="kernelkit pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "kernelkit", "cli.py")):
        print(f"no kernelkit sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    os.makedirs(RUNS_DIR, exist_ok=True)
    records = [
        bench_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        for name in names
    ]
    metrics = {}
    for record in records:
        print(summary(record))
        print("  env " + json.dumps(record["env"], sort_keys=True))
        if args.trace:
            expected = WORKLOADS[record["workload"]].layers
            for layer in LAYERS:
                share = record["layers"][f"{layer}.share"]
                print(f"  {layer} share {share:.3f} (expected: {expected[layer]})")
            print(f"  exact counts {record['exact']}")
        for problem in record["problems"]:
            print(f"  FAILED {problem}")
        values = record["layers"] if args.trace else record["metrics"]
        for name, value in values.items():
            key = name if len(records) == 1 else f"{record['workload']}.{name}"
            metrics[key] = {"value": value, "unit": unit_of(name)}
    failed = sum(r["failed"] for r in records)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

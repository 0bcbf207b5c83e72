"""The benchmark's workloads: one generated pipeline config each.

Every workload is one ``kernelkit`` pipeline run.  The config is fixed
except for ``[run] seed``, which is the benchmark's ``--seed``.
``workers`` is the ``--workers`` value of the timed runs: ``"nproc"``
means ``os.cpu_count()``, the command-line default.  ``layers`` maps each
library layer to what the workload should show when that layer changes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: str
    workers: str
    artifacts: tuple[str, ...]
    rows: int
    # Study columns that do not depend on the seed.
    fixed_columns: tuple[str, ...]
    # Spans that must record at least one call in the traced run.
    must_hit: tuple[str, ...]
    layers: dict[str, str]
    # Timed runs per invocation at least, however short ``--seconds`` is.
    min_runs: int = 1

    def config_text(self, seed: int) -> str:
        return self.config.format(seed=seed)

    def worker_count(self) -> int:
        if self.workers == "nproc":
            return os.cpu_count() or 1
        return int(self.workers)

    def other_worker_count(self) -> int:
        """The worker count the byte-identity check compares against."""
        return 1 if self.workers == "nproc" else os.cpu_count() or 1


_ARTIFACTS = ("study.csv", "slope.txt")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="interp",
            why="no PDE: kernel fits (up to 2048 nodes) and surrogate evaluation, "
            "serial, so a PDE or thread-pool change should not move it (L 4..11, workers 1)",
            config="""\
[run]
pipeline = interp
seed = {seed}
l_min = 4
l_max = 11

[kernel]
beta = 2.0
d = 1

[interp]
blocks = 2
level_map = doubling
""",
            workers="1",
            artifacts=_ARTIFACTS,
            rows=8,
            fixed_columns=("L", "work_units", "evaluations"),
            must_hit=(
                "kernels.fit",
                "surrogate.evaluate",
                "smolyak.estimate",
                "points.generate",
            ),
            layers={
                "pde": "never",
                "surrogate": "about half of wall_s",
                "kernels": "about half of wall_s (Gram plus Cholesky)",
                "smolyak": "serial path; thread-pool changes should not show",
                "uq": "not used",
                "points": "small",
            },
        ),
        Workload(
            name="rsr",
            why="surrogate-bound: 4-D tensor-kernel Surrogate.evaluate dominates; "
            "light SPD bump solves (bumps 2, L 3..9, reference_l 11, workers nproc)",
            config="""\
[run]
pipeline = rsr
seed = {seed}
l_min = 3
l_max = 9

[pde]
bumps = 2
max_mesh_level = 6

[study]
reference_l = 11
""",
            workers="nproc",
            artifacts=_ARTIFACTS,
            rows=7,
            fixed_columns=("L", "work_units", "pde_solves"),
            must_hit=(
                "pde.solve",
                "kernels.fit",
                "surrogate.evaluate",
                "smolyak.estimate",
                "uq.study",
                "points.generate",
            ),
            layers={
                "pde": "a little of wall_s (SPD bump diffusion path)",
                "surrogate": "most of wall_s",
                "kernels": "a little of wall_s",
                "smolyak": "thread-pool changes show (workers nproc)",
                "uq": "surface_study loop",
                "points": "small",
            },
            # One run is the noisiest of the three workloads; two fit the time budget.
            min_runs=2,
        ),
        Workload(
            name="ouu",
            why="PDE-bound: ~12.6k small advection solves take most of the time "
            "(docs example config, L 3..7, reference_l 9, workers nproc)",
            config="""\
[run]
pipeline = ouu
seed = {seed}
l_min = 3
l_max = 7

[kernel]
beta = 4.0
d = 2
alpha = 1.0

[ouu]
replications = 5
field_level = 5
max_mesh_level = 5

[study]
reference_l = 9
""",
            workers="nproc",
            artifacts=_ARTIFACTS + ("minimizer.txt",),
            rows=5,
            fixed_columns=("L", "work_units", "pde_solves", "replications"),
            must_hit=(
                "pde.solve",
                "pde.field.factor",
                "pde.field.draw",
                "kernels.fit",
                "surrogate.evaluate",
                "surrogate.point",
                "smolyak.estimate",
                "uq.study",
                "uq.minimize",
                "points.generate",
            ),
            layers={
                "pde": "most of wall_s (advection solves, field factorizations)",
                "surrogate": "part of wall_s (study evaluations and the minimizer)",
                "kernels": "under 1% of wall_s",
                "smolyak": "thread-pool changes show (workers nproc)",
                "uq": "minimize_objective and the study loop",
                "points": "small",
            },
        ),
    )
}

"""Application pipelines on the combination engine.

Each pipeline is a problem for the generic sparse estimator
(:class:`~kernelkit.smolyak.SmolyakEngine`).  The Matern interpolation
factor is defined once (:func:`interpolation_factor`: its rate
``(beta - alpha) / dim``, its checks and its level map), and one function,
:func:`interpolation_problem`, wires tensor-product interpolation on the
factors' nested points for every pipeline that interpolates:

* sparse interpolation (:func:`sparse_interpolate`): interpolation of a
  plain function, the ``interp`` pipeline;
* expectation (:func:`build_expectation_problem`): per-block quadrature
  rules applied to a sample family; with one block it is the classic
  multilevel telescope, with several a multi-index estimator;
* response surface (:func:`surface_study`): per-block kernel
  interpolation of the sample family, producing a function-valued
  surrogate;
* optimization under uncertainty (:class:`OuuPipeline`) on the run plan's
  factors (:func:`~kernelkit.config.run_plan`): kernel interpolation over a
  control disc of empirical means over random-field draws of PDE outputs,
  followed by pattern-search minimization of surrogate plus penalty.  The
  control nodes of every term are prefixes of the control domain's one
  nested sequence (:func:`~kernelkit.points.generate_points`), so the PDE
  outputs are kept as a nested-suffix store of values only: per field draw
  and mesh, the outputs at the node prefix solved so far, which a term
  extends by its new nodes only; a term with other nodes is refused.  A
  plan, made once per study or by a tuple outside it, is solved one field
  draw at a time, each pair to its longest needed prefix in one run; no
  field is kept.

Work ledgers charge only sampler work (``prod N_j * N_pde**gamma`` per
term).  The study functions (:func:`expectation_study`,
:func:`surface_study`, :func:`ouu_study`) wire a pipeline into the one
study loop, :func:`kernelkit.smolyak.convergence_study`: the threshold
range, a solve count and one error function.  The expectation study
measures against the integrand's exact mean; the function-valued studies
measure against a reference estimate, and their error functions evaluate
every surrogate of the table, the reference included, in one stacked pass
at the study points (:meth:`Surrogate.stack`).  Randomness is counter-based
throughout: the draw with index ``k`` of a given ``(seed, stream)``
never depends on evaluation order.  The PDE factors and pipeline import
:mod:`kernelkit.pde` when they are built; other pipelines never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from kernelkit.kernels import (
    MaternKernel,
    QuadratureRule,
    TensorKernel,
    fit_interpolant,
    quadrature_weights,
)
from kernelkit.points import Box, Disc, Domain, PointSet, generate_points
from kernelkit.points import tensor_grid, tensor_weights
from kernelkit.smolyak import (
    FactorSpec,
    ProblemSpec,
    SmolyakEngine,
    convergence_study,
    scaled_exponential_map,
)
from kernelkit.surrogate import Surrogate

if TYPE_CHECKING:
    from kernelkit.pde import Mesh


# ---------------------------------------------------------------------------
# factors


@dataclass(frozen=True)
class QuadratureFactor:
    """A family of quadrature rules indexed by node count, on ``dim``
    coordinates."""

    spec: FactorSpec
    rule: Callable[[int], tuple[np.ndarray, np.ndarray]]
    dim: int


def midpoint_quadrature_factor(beta: float = 2.0) -> QuadratureFactor:
    """Composite midpoint rule on [0, 1] at unit work per node (order-2 on
    smooth integrands)."""

    def rule(count: int):
        pts = ((np.arange(count) + 0.5) / count).reshape(-1, 1)
        return pts, np.full(count, 1.0 / count)

    return QuadratureFactor(spec=FactorSpec(gamma=1.0, beta=beta), rule=rule, dim=1)


def kernel_quadrature_factor(
    kernel: MaternKernel,
    domain: Box,
    alpha: float = 0.0,
) -> QuadratureFactor:
    """Kernel quadrature on nested points; rules are cached per node count.

    It integrates the kernel interpolant, so it converges at the rate of
    :func:`interpolation_factor`, at the same unit work per node.
    """
    spec = interpolation_factor(kernel, domain, alpha).spec
    cache: dict[int, QuadratureRule] = {}

    def rule(count: int):
        if count not in cache:
            cache[count] = quadrature_weights(kernel, generate_points(domain, count))
        built = cache[count]
        return built.nodes.points, built.weights

    return QuadratureFactor(spec=spec, rule=rule, dim=domain.dim)


class SampleFactor:
    """Sample family ``q_N(y)`` with coordinate-keyed memoization.

    ``evaluate_one(point, resolution)`` is called once per distinct
    ``(resolution, point)`` pair (a call that raises stores nothing);
    ``solve_count`` reports the number of distinct evaluations performed
    so far.
    """

    def __init__(self, spec: FactorSpec, evaluate_one: Callable[[np.ndarray, int], float]):
        self.spec = spec
        self._evaluate_one = evaluate_one
        self._cache: dict[tuple[int, bytes], float] = {}

    def values(self, points: np.ndarray, resolution: int) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.empty(len(pts))
        for idx, row in enumerate(pts):
            key = (resolution, row.tobytes())
            value = self._cache.get(key)
            if value is None:
                value = self._cache[key] = float(self._evaluate_one(row, resolution))
            out[idx] = value
        return out

    @property
    def solve_count(self) -> int:
        return len(self._cache)


def synthetic_bias_factor(
    integrand: Callable[[np.ndarray], np.ndarray],
    gamma: float = 1.0,
    kappa: float = 1.0,
) -> SampleFactor:
    """Synthetic family ``q_N(y) = integrand(y) + 1/N`` with known bias."""
    spec = FactorSpec(gamma=gamma, beta=kappa)

    def evaluate_one(point: np.ndarray, resolution: int) -> float:
        return float(integrand(point.reshape(1, -1))[0]) + 1.0 / resolution

    return SampleFactor(spec=spec, evaluate_one=evaluate_one)


def bump_sample_factor(
    n_bumps: int = 1,
    work_exponent: float = 1.5,
    convergence_exponent: float = 1.0,
    max_cells: int = 64,
) -> SampleFactor:
    """Bump-diffusion quantity of interest on meshes realizing the level map."""
    from kernelkit.pde import BumpDiffusionProblem, cached_mesh, pde_resolution_map

    problem = BumpDiffusionProblem(n_bumps=n_bumps)
    spec = FactorSpec(
        gamma=work_exponent,
        beta=convergence_exponent,
        resolution_map=pde_resolution_map(work_exponent, convergence_exponent, max_cells),
    )

    def evaluate_one(point: np.ndarray, resolution: int) -> float:
        cells = math.isqrt(resolution)
        if cells * cells != resolution:
            raise ValueError(f"resolution {resolution} is not a realized mesh size")
        return problem.sample_qoi(point, cached_mesh(cells))

    return SampleFactor(spec=spec, evaluate_one=evaluate_one)


@dataclass(frozen=True)
class InterpolationFactor:
    """Kernel best-approximation factor on nested points in one block."""

    kernel: MaternKernel
    domain: Domain
    spec: FactorSpec

    def points(self, count: int) -> PointSet:
        return generate_points(self.domain, count)


def doubling_levels(level: int) -> int:
    """Classic nested sparse-grid subsequence ``N_l = 2**l``."""
    return 2**level


def interpolation_factor(
    kernel: MaternKernel,
    domain: Domain,
    alpha: float = 0.0,
    resolution_map: Callable[[int], int] | None = None,
) -> InterpolationFactor:
    """Matern interpolation on ``domain``'s nested points: unit work per
    node and convergence exponent ``(beta - alpha) / dim``, the error of
    best approximation in the Sobolev norm of order ``alpha``."""
    if domain.dim != kernel.dim:
        raise ValueError(
            f"factor domain dimension {domain.dim} != kernel dimension {kernel.dim}"
        )
    rate = (kernel.beta - alpha) / kernel.dim
    if rate <= 0:
        raise ValueError(f"nonpositive interpolation rate {rate}")
    spec = FactorSpec(gamma=1.0, beta=rate, resolution_map=resolution_map)
    return InterpolationFactor(kernel=kernel, domain=domain, spec=spec)


# ---------------------------------------------------------------------------
# interpolation


def interpolation_problem(
    interp_factors: Sequence[InterpolationFactor],
    values: Callable[..., np.ndarray],
    sample_specs: Sequence[FactorSpec] = (),
    plan: Callable[[list[tuple[int, ...]]], None] | None = None,
) -> ProblemSpec:
    """Tensor-product kernel interpolation of a sample family.

    The problem's factors are ``interp_factors`` followed by
    ``sample_specs``.  A resolution tuple ``(n_1, ..., n_m, *s)`` fits
    the tensor-product kernel to ``values(points, *s)`` on the product of
    each factor's first ``n_j`` nested points, where ``points`` are the
    grid's rows in :func:`~kernelkit.points.tensor_grid` order.  ``plan``
    is the problem's planning hook (:class:`~kernelkit.smolyak.ProblemSpec`).
    """
    kernel = TensorKernel(kernels=tuple(f.kernel for f in interp_factors))
    count = len(interp_factors)

    def evaluator(resolutions: tuple[int, ...]):
        nodes = PointSet.product(
            [f.points(n) for f, n in zip(interp_factors, resolutions[:count])]
        )
        return fit_interpolant(kernel, nodes, values(nodes.points, *resolutions[count:]))

    factors = tuple(f.spec for f in interp_factors) + tuple(sample_specs)
    return ProblemSpec(factors=factors, tensor_evaluator=evaluator, plan=plan)


def sparse_interpolate(
    factor_kernels: Sequence[MaternKernel],
    factor_domains: Sequence[Domain],
    f_sampler: Callable[[np.ndarray], np.ndarray],
    L: int,
    alphas: Sequence[float] | None = None,
    resolution_map: Callable[[int], int] | None = doubling_levels,
) -> Surrogate:
    """Sparse kernel interpolant of ``f_sampler`` on a product domain.

    Runs the combination engine on the tensor product of per-factor
    best-approximation operators (:func:`interpolation_factor`): factor
    ``j`` has unit work per sample and convergence exponent
    ``(beta_j - alpha_j) / d_j``; its level-``l`` operator interpolates on
    the first ``N_l`` points of the factor's nested sequence.  The result
    is the signed combination of tensor-product interpolants fitted to
    ``f_sampler`` values on sparse grids, merged into one kernel expansion
    over the distinct sparse-grid nodes.

    Parameters
    ----------
    factor_kernels, factor_domains : sequences of equal length
    f_sampler : callable
        Vectorized ``(M, d) -> (M,)`` sampler of the target function.
    L : int
        Simplex threshold, >= the number of factors.
    alphas : optional
        Target smoothness offsets, default all zero (approximation error
        measured in the base norm).
    resolution_map : callable, optional
        Level-to-point-count map shared by all factors.  Defaults to the
        doubling sequence ``2**l``; pass ``None`` for the engine default
        ``ceil(exp(t*l))``, which grows too slowly to resolve oscillatory
        targets at desk-scale thresholds.
    """
    if len(factor_domains) != len(factor_kernels):
        raise ValueError("kernel and domain counts differ")
    if alphas is None:
        alphas = [0.0] * len(factor_kernels)
    factors = [
        interpolation_factor(kernel, domain, alpha, resolution_map)
        for kernel, domain, alpha in zip(factor_kernels, factor_domains, alphas)
    ]
    value, _ = SmolyakEngine(interpolation_problem(factors, f_sampler)).estimate(L)
    return value


# ---------------------------------------------------------------------------
# expectation pipelines


def build_expectation_problem(
    quad_factors: Sequence[QuadratureFactor], sample_factor: SampleFactor
) -> ProblemSpec:
    """Multilinear problem: per-block quadrature applied to the sample family."""

    def evaluator(resolutions: tuple[int, ...]) -> float:
        *rule_counts, sample_resolution = resolutions
        rules = [f.rule(n) for f, n in zip(quad_factors, rule_counts)]
        values = sample_factor.values(tensor_grid([p for p, _ in rules]), sample_resolution)
        return float(tensor_weights([w for _, w in rules]) @ values)

    factors = tuple(f.spec for f in quad_factors) + (sample_factor.spec,)
    return ProblemSpec(factors=factors, tensor_evaluator=evaluator)


def expectation_study(
    quad_factors: Sequence[QuadratureFactor],
    sample_factor: SampleFactor,
    L_values: Sequence[int],
    mean: float,
) -> list[dict]:
    """Error table for an expectation pipeline against the integrand's exact
    ``mean``: one estimate per threshold, and ``pde_solves`` counts the
    sample evaluations that the estimates so far made."""
    engine = SmolyakEngine(build_expectation_problem(quad_factors, sample_factor))

    def errors(_, values):
        return [{"error_l2": abs(mean - v), "error_linf": abs(mean - v)} for v in values]

    rows, _ = convergence_study(
        [engine], L_values, errors, solves=lambda: sample_factor.solve_count
    )
    return rows


# ---------------------------------------------------------------------------
# response surfaces


def surface_study(
    interp_factors: Sequence[InterpolationFactor],
    sample_factor: SampleFactor,
    L_values: Sequence[int],
    eval_points: np.ndarray,
    reference_L: int,
) -> list[dict]:
    """Surrogate error table against a fine reference surrogate.

    The reference, at ``reference_L``, is estimated first on the same
    engine.  Errors are estimated on ``eval_points``: ``error_l2`` is the
    root mean square difference, ``error_linf`` the maximum difference, all
    from one stacked pass (:meth:`Surrogate.stack`), which computes each
    block profile once over the union of the surrogates' nested nodes.
    """
    engine = SmolyakEngine(
        interpolation_problem(interp_factors, sample_factor.values, (sample_factor.spec,))
    )

    def errors(reference, values):
        columns = Surrogate.stack([reference, *values]).evaluate(eval_points)
        for column in columns[:, 1:].T:
            diff = column - columns[:, 0]
            yield {
                "error_l2": float(np.sqrt(np.mean(diff**2))),
                "error_linf": float(np.max(np.abs(diff))),
            }

    rows, _ = convergence_study(
        [engine],
        L_values,
        errors,
        reference=(engine, reference_L),
        solves=lambda: sample_factor.solve_count,
    )
    return rows


# ---------------------------------------------------------------------------
# optimization under uncertainty


_NO_VALUES = np.empty(0)
# (gamma, beta) of the sample factors: a field draw costs unit work and the
# mean converges at rate 1/2; an advection solve on a mesh of size
# ``cells**2`` costs that size to the power 1.5 and converges at rate 1.
_MC_RATES = (1.0, 0.5)
_PDE_RATES = (1.5, 1.0)
# The first and the last coordinate step of :func:`minimize_objective`.
_INITIAL_STEP = 0.25
_FINAL_STEP = 1e-4


def ouu_sample_specs(
    mc_scale: float, pde_scale: float, max_cells: int
) -> tuple[FactorSpec, FactorSpec]:
    """The Monte Carlo and field-PDE factors of the ``ouu`` run plan."""
    # The field draws take their normals from numpy.random and their
    # products from BLAS dtrmm (see pde.GaussianFieldSampler).  A run plan
    # is built at parse time, so importing all three here keeps their cost
    # in start-up, not in the run.
    import numpy.random  # noqa: F401

    from kernelkit.lapack import dtrmm  # noqa: F401
    from kernelkit.pde import pde_resolution_map

    mc_map = scaled_exponential_map(*_MC_RATES, mc_scale)
    pde_map = pde_resolution_map(*_PDE_RATES, max_cells, scale=pde_scale)
    return (
        FactorSpec(*_MC_RATES, resolution_map=mc_map),
        FactorSpec(*_PDE_RATES, resolution_map=pde_map),
    )


class OuuPipeline:
    """Surrogate construction for optimization under uncertainty.

    The run plan's three factors: kernel interpolation over the control domain
    (:func:`interpolation_problem`) of empirical means over random-field
    draws and the PDE mesh family (:func:`ouu_sample_specs`).  Field draws
    are sampled once on the reference grid ``field_grid`` per
    ``(seed, stream, k)`` and every mesh resolution consumes the same
    realization (the solver samples its bilinear extension), so difference
    terms across mesh resolutions are exactly coupled.

    The control nodes of every tuple are prefixes of one nested sequence,
    ``generate_points(domain, n)`` on the factor's domain, so solves are
    kept as a nested-suffix store of values only: per ``(draw, cells)``
    pair, the QoI values of the node prefix solved so far.  A solve reads
    its nodes from that cache, solves only the nodes past the prefix, and a
    tuple adds each draw's values with one vector add; a QoI call that
    raises keeps the values solved before it.  A tuple whose nodes are not
    the sequence's prefix raises ``ValueError`` before any draw or solve, so
    a factor whose ``points`` differ from its domain's sequence is refused.

    A plan (:meth:`~kernelkit.smolyak.SmolyakEngine.plan`, which the study
    loop makes once for its largest threshold) sets a target per pair: the
    longest node prefix that a planned tuple needs there.  The next
    evaluation solves the whole plan one field draw at a time, in ascending
    draw order: it draws field ``k`` once, solves every planned pair of
    ``k`` up to its target, and drops the field.  So each pair's system is
    assembled once and each field drawn once, and no field is kept; once
    the plan is solved the sampler's block and factor are released
    (:meth:`~kernelkit.pde.GaussianFieldSampler.release`).  If a QoI call
    raises, the prefixes solved so far are kept and the next evaluation
    solves the rest of the plan.  A tuple outside the plan, or of a
    pipeline that has none, plans and solves its own short pairs, so a
    tuple evaluated after its plan was solved draws no field.
    :attr:`pde_solves` counts, per pair, the longest prefix that an
    evaluated tuple has needed, so nodes solved ahead of need are not
    counted until a tuple needs them.
    """

    def __init__(
        self,
        factors: tuple[InterpolationFactor, FactorSpec, FactorSpec],
        seed: int,
        field_grid: Mesh,
        stream: int = 0,
        qoi: Callable[[np.ndarray, Any, Mesh], float] | None = None,
    ):
        from kernelkit.pde import AdvectionDiffusionProblem, GaussianFieldSampler

        interp_factor, *sample_specs = factors
        self.interp_factor = interp_factor
        self.seed = seed
        self.stream = stream
        self.field_grid = field_grid
        self._field_sampler = GaussianFieldSampler(self.field_grid, stream=stream)
        if qoi is None:
            qoi = AdvectionDiffusionProblem().sample_qoi
        self._qoi = qoi
        self._prefixes: dict[tuple[int, int], np.ndarray] = {}
        self._targets: dict[tuple[int, int], int] = {}
        self._needed: dict[tuple[int, int], int] = {}
        self.engine = SmolyakEngine(
            interpolation_problem([interp_factor], self._means, sample_specs, plan=self._plan)
        )

    def _plan(self, tuples: list[tuple[int, ...]]) -> None:
        """Raise each short pair's target to the longest prefix a planned tuple needs."""
        for n_points, n_draws, mesh_resolution in tuples:
            cells = math.isqrt(mesh_resolution)
            if cells * cells != mesh_resolution:
                continue  # the tuple raises when it is evaluated
            for k in range(n_draws):
                short = len(self._prefixes.get((k, cells), _NO_VALUES)) < n_points
                if short and self._targets.get((k, cells), 0) < n_points:
                    self._targets[k, cells] = n_points

    def _solve_plan(self) -> None:
        """Extend every planned pair short of its target, one field draw at a
        time in ascending order, then release the field sampler; a QoI call
        that raises keeps the values solved before it."""
        from kernelkit.pde import cached_mesh

        pending: dict[int, list[tuple[int, int]]] = {}
        for (draw, cells), target in sorted(self._targets.items()):
            if len(self._prefixes.get((draw, cells), _NO_VALUES)) < target:
                pending.setdefault(draw, []).append((cells, target))
        if pending:
            longest = max(target for targets in pending.values() for _, target in targets)
            nodes = generate_points(self.interp_factor.domain, longest).points
        for draw, targets in pending.items():
            field = self._field_sampler.sample(self.seed, draw)
            for cells, target in targets:
                done = self._prefixes.get((draw, cells), _NO_VALUES)
                mesh = cached_mesh(cells)
                solved = []
                try:
                    for z in nodes[len(done) : target]:
                        solved.append(float(self._qoi(z, field, mesh)))
                finally:
                    if solved:
                        self._prefixes[draw, cells] = np.concatenate([done, solved])
        self._targets.clear()
        self._field_sampler.release()

    def _means(self, points: np.ndarray, n_draws: int, mesh_resolution: int) -> np.ndarray:
        """Mean QoI over draws ``0..n_draws-1`` at each control node in
        ``points`` on the mesh of ``mesh_resolution``."""
        n_points = len(points)
        resolutions = (n_points, n_draws, mesh_resolution)
        cells = math.isqrt(mesh_resolution)
        if cells * cells != mesh_resolution:
            raise ValueError(
                f"resolution {mesh_resolution} is not a realized mesh size"
            )
        nested = generate_points(self.interp_factor.domain, n_points).points
        if not np.array_equal(points, nested):
            raise ValueError(
                f"control nodes of tuple {resolutions} are not the first {n_points} "
                f"points of the control domain's nested sequence, which the store holds"
            )
        for k in range(n_draws):
            if self._needed.get((k, cells), 0) < n_points:
                self._needed[k, cells] = n_points
        # A tuple outside the plan plans its own short pairs.
        self._plan([resolutions])
        if self._targets:
            self._solve_plan()
        # Every node sums its draws in the order 0..n-1.
        sums = np.zeros(n_points)
        for k in range(n_draws):
            sums += self._prefixes[k, cells][:n_points]
        return sums / n_draws

    @property
    def pde_solves(self) -> int:
        """Distinct solves that the tuples evaluated so far have needed."""
        return sum(
            min(len(self._prefixes.get(key, _NO_VALUES)), needed)
            for key, needed in self._needed.items()
        )


@dataclass(frozen=True)
class OuuObjective:
    """Surrogate objective plus the quadratic control penalty ``|z|^2 / 10``.

    Each value is kept by the bytes of its point: a pattern search probes
    points it has evaluated before (216 of the 736 probes on the ouu
    example), and such a probe then evaluates no surrogate.
    """

    surrogate: Surrogate
    _values: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __call__(self, z) -> float:
        z = np.asarray(z, dtype=float)
        key = z.tobytes()
        value = self._values.get(key)
        if value is None:
            value = float(self.surrogate(z)) + 0.1 * float(z @ z)
            self._values[key] = value
        return value


def minimize_objective(
    objective: Callable[[np.ndarray], float], restarts: int = 8
) -> tuple[np.ndarray, float]:
    """Multi-start coordinate pattern search over the closed unit disc.

    Starts are a low-discrepancy prefix over the disc; each search probes
    coordinate steps from ``_INITIAL_STEP``, projects onto the disc, and
    halves the step on failure until it drops below ``_FINAL_STEP``.  The
    best visited point is returned; the search is fully deterministic.
    """
    starts = generate_points(Disc(center=(0.0, 0.0), radius=1.0), max(1, restarts)).points

    def project(z: np.ndarray) -> np.ndarray:
        norm = np.linalg.norm(z)
        return z if norm <= 1.0 else z * (1.0 / norm)

    best_z = None
    best_value = math.inf
    for start in starts:
        z = project(start.copy())
        value = objective(z)
        step = _INITIAL_STEP
        while step > _FINAL_STEP:
            improved = False
            for axis in range(len(z)):
                for direction in (1.0, -1.0):
                    candidate = z.copy()
                    candidate[axis] += direction * step
                    candidate = project(candidate)
                    candidate_value = objective(candidate)
                    if candidate_value < value - 1e-15:
                        z, value = candidate, candidate_value
                        improved = True
            if not improved:
                step *= 0.5
        if value < best_value:
            best_z, best_value = z, value
    return best_z, best_value


def ouu_study(
    factors: tuple[InterpolationFactor, FactorSpec, FactorSpec],
    L_values: Sequence[int],
    seed: int,
    eval_points: np.ndarray,
    field_grid: Mesh,
    reference_L: int,
    replications: int = 5,
    qoi: Callable[[np.ndarray, Any, Mesh], float] | None = None,
) -> tuple[list[dict], Surrogate]:
    """Mean-squared maximum-error table over stochastic replications.

    Each pipeline (:class:`OuuPipeline`) takes the run plan's ``factors``
    and draws its fields on ``field_grid``.  The reference surrogate is
    built on its own stream at ``reference_L``; each replication r = 1..R
    runs the full threshold range on stream ``r``.  All surrogates are
    built first and then evaluated in one stacked pass
    (:meth:`Surrogate.stack`): their nodes are prefixes of one nested
    sequence, so each kernel profile is computed once per study point and
    node of the largest surrogate.
    Errors are the maxima over ``eval_points``.  Returns the rows and the
    reference surrogate (for downstream minimization).
    """
    reference_pipeline, *pipelines = (
        OuuPipeline(factors, seed, field_grid, stream=r, qoi=qoi)
        for r in range(replications + 1)
    )

    def errors(reference, values):
        columns = Surrogate.stack([reference, *values]).evaluate(eval_points)
        worst = np.max(np.abs(columns[:, 1:] - columns[:, :1]), axis=0)
        for per_replication in worst.reshape(-1, replications):
            yield {
                "mse_linf": float(np.mean(per_replication**2)),
                "replications": replications,
            }

    return convergence_study(
        [p.engine for p in pipelines],
        L_values,
        errors,
        reference=(reference_pipeline.engine, reference_L),
        solves=lambda: sum(p.pde_solves for p in pipelines),
    )

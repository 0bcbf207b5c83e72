r"""Generic sparse-combination engine for multilinear approximation problems.

Each factor of a multilinear problem is described by a work exponent
``gamma`` (work to build the input at resolution ``N`` scales like
``N**gamma``) and a convergence exponent ``beta`` (error scales like
``N**-beta``).  Levels are mapped to resolutions through
``N_l = ceil(exp(t * l))`` with ``t = 1/(gamma + beta)``, so the
work-to-contribution ratio grows at the same rate in every direction and
the simplex ``sum(l) <= L`` is the natural index set.  The engine
evaluates the signed combination over the two outermost layers, accounts
abstract work units, and predicts the error-versus-work exponent
``-1/rho`` with ``rho = max_j gamma_j / beta_j``.

Values produced by a tensor evaluator may be plain floats or any object
supporting addition and scalar multiplication; a type that defines
``weighted_sum`` reduces a whole estimate in one call (see
:func:`weighted_sum` and :meth:`kernelkit.surrogate.Surrogate.weighted_sum`,
which merges the fits of a kernel pipeline).

Every error-versus-work table is built by one study loop,
:func:`convergence_study`: it plans every engine once for its largest
threshold, makes the optional reference estimate, then estimates each threshold in ascending order on every engine (one
per replication), records work, evaluations and solves per row, and
hands the reference and all estimates to one error function, so that a
function-valued study evaluates its surrogates in a single stacked pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from kernelkit.multiindex import (
    MultiIndex,
    combination_coefficients,
    corner_is_zero,
    delta_expand,
    enumerate_simplex,
)

# Relative tolerance when detecting ties among gamma/beta ratios; inputs
# typically arrive as floats parsed from config files.
_TIE_RTOL = 1e-9


class EvaluationError(RuntimeError):
    """Raised when a tensor evaluator, or an estimate before its first
    evaluation, fails; carries the offending term, if any."""

    def __init__(
        self,
        message: str,
        index: MultiIndex | None = None,
        resolutions: tuple[int, ...] | None = None,
    ):
        term = "" if index is None else f" (multi-index {index}, resolutions {resolutions})"
        super().__init__(message + term)
        self.index = index
        self.resolutions = resolutions


class SlopeFitError(ValueError):
    """A study table whose trailing window admits no log-log slope fit."""


@dataclass(frozen=True)
class FactorSpec:
    """Work/convergence description of one factor of a multilinear problem.

    Parameters
    ----------
    gamma : float
        Work exponent; building the factor at resolution ``N`` costs
        ``N**gamma`` abstract units.
    beta : float
        Convergence exponent; the factor error decays like ``N**-beta``.
    resolution_map : callable, optional
        Override for the level-to-resolution map.  Must return a positive
        integer for every level >= 1.  The default map is
        ``ceil(exp(t * level))``.
    """

    gamma: float
    beta: float
    resolution_map: Callable[[int], int] | None = None

    def __post_init__(self):
        if not (self.gamma > 0 and self.beta > 0):
            raise ValueError(
                f"exponents must be positive, got gamma={self.gamma}, beta={self.beta}"
            )

    @property
    def t(self) -> float:
        """Level spacing ``1 / (gamma + beta)``."""
        return 1.0 / (self.gamma + self.beta)


def level_to_resolution(factor: FactorSpec, level: int) -> int:
    """Map a level to its resolution: 0 at level 0, else ``ceil(exp(t*l))``."""
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    if level == 0:
        return 0
    if factor.resolution_map is not None:
        value = int(factor.resolution_map(level))
        if value < 1:
            raise ValueError(f"resolution map returned {value} at level {level}")
        return value
    return scaled_exponential_map(factor.gamma, factor.beta, 1.0)(level)


def scaled_exponential_map(gamma: float, beta: float, scale: float) -> Callable[[int], int]:
    """Resolution map ``ceil(scale * exp(t*l))`` with ``t = 1/(gamma+beta)``:
    the one exponential level map, which :func:`level_to_resolution` takes
    at ``scale = 1`` and :func:`kernelkit.pde.pde_resolution_map` rounds to
    a mesh.

    Prefactors do not change any convergence or work exponent; they shift
    a subsequence so that its coarsest members are already meaningful,
    which matters at small thresholds.  A level at which ``scale *
    exp(t*l)`` is not a finite float raises OverflowError naming the map
    and the level.
    """
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    t = 1.0 / (gamma + beta)

    def mapped(level: int) -> int:
        try:
            value = scale * math.exp(t * level)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise OverflowError(
                f"level map ceil({scale!r} * exp(l / ({gamma!r} + {beta!r}))) "
                f"is not a finite float at level {level}"
            )
        return math.ceil(value)

    return mapped


@dataclass(frozen=True)
class ProblemSpec:
    """A multilinear problem: factor specs plus a deterministic evaluator.

    ``tensor_evaluator`` maps a tuple of per-factor resolutions to a value
    (scalar or summable object); it must be deterministic given the same
    resolution tuple and seed.  The optional ``plan`` hook is told, ahead
    of time, the resolution tuples that later estimates will evaluate
    (:meth:`SmolyakEngine.plan`), so that work shared by several tuples
    can be done once; it must not change any value.
    """

    factors: tuple[FactorSpec, ...]
    tensor_evaluator: Callable[[tuple[int, ...]], Any]
    plan: Callable[[list[tuple[int, ...]]], None] | None = None

    def __post_init__(self):
        if len(self.factors) < 1:
            raise ValueError("problem needs at least one factor")

    @property
    def n(self) -> int:
        return len(self.factors)

    def resolutions(self, index: Sequence[int]) -> tuple[int, ...]:
        return tuple(
            level_to_resolution(f, l) for f, l in zip(self.factors, index)
        )


@dataclass(frozen=True)
class RatePrediction:
    """Predicted complexity exponents of the sparse estimator."""

    rho: float
    n0: int
    b_min: float
    slope: float


def predicted_rates(factors: Sequence[FactorSpec]) -> RatePrediction:
    """Predict the error-versus-work exponent for a factor collection.

    Returns ``rho = max_j gamma_j/beta_j``, its multiplicity ``n0``
    (ties detected with relative tolerance 1e-9), the least error share
    ``b_min = min_j beta_j/(gamma_j+beta_j)``, and the predicted log-log
    slope ``-1/rho`` of error against work.
    """
    if len(factors) < 1:
        raise ValueError("need at least one factor")
    ratios = [f.gamma / f.beta for f in factors]
    rho = max(ratios)
    n0 = sum(1 for r in ratios if r >= rho * (1.0 - _TIE_RTOL))
    b_min = min(f.beta / (f.gamma + f.beta) for f in factors)
    return RatePrediction(rho=rho, n0=n0, b_min=b_min, slope=-1.0 / rho)


@dataclass
class WorkLedger:
    """Abstract work account of one sparse estimate.

    ``total_work`` charges ``prod_j N_j**gamma_j`` for every combination
    term with nonzero coefficient (the multiplicative work model);
    ``evaluations`` counts distinct tensor-evaluator calls, which can be
    smaller because identical resolution tuples are memoized.
    """

    total_work: float = 0.0
    evaluations: int = 0
    per_term: list[tuple[MultiIndex, float]] = field(default_factory=list)


def weighted_sum(pairs: Sequence[tuple[float, Any]]) -> Any:
    """``c_0 v_0 + c_1 v_1 + ...`` over ``(c, v)`` pairs, reduced in order.

    A value whose type defines ``weighted_sum(pairs)`` reduces all pairs in
    one call (a surrogate merges the nodes of all terms once);
    other values are folded left one product at a time.
    """
    reduce_all = getattr(type(pairs[0][1]), "weighted_sum", None)
    if reduce_all is not None:
        return reduce_all(pairs)
    total = None
    for coefficient, value in pairs:
        contribution = coefficient * value
        total = contribution if total is None else total + contribution
    return total


def _term_work(factors: Sequence[FactorSpec], resolutions: Sequence[int]) -> float:
    work = 1.0
    for f, n in zip(factors, resolutions):
        work *= float(n) ** f.gamma
    return work


class SmolyakEngine:
    """Evaluates sparse estimates of one problem with a shared memo cache.

    Tensor-evaluator results are memoized by resolution tuple for the
    lifetime of the engine, so repeated estimates (e.g. a convergence
    study over a range of thresholds) never recompute a tuple, and the
    combination and difference-expansion paths share evaluations.
    Missing tuples are evaluated one after another in lexicographic order,
    and results are reduced in lexicographic term order.
    """

    def __init__(self, problem: ProblemSpec):
        self.problem = problem
        self._cache: dict[tuple[int, ...], Any] = {}

    @property
    def evaluations(self) -> int:
        """Number of distinct resolution tuples evaluated so far."""
        return len(self._cache)

    def _ensure_evaluated(self, needed: Iterable[tuple[tuple[int, ...], MultiIndex]]):
        pending: dict[tuple[int, ...], MultiIndex] = {}
        for resolutions, index in needed:
            if resolutions not in self._cache:
                pending.setdefault(resolutions, index)
        for res in sorted(pending):
            try:
                self._cache[res] = self.problem.tensor_evaluator(res)
            except Exception as exc:  # noqa: BLE001 - re-raised with context
                raise EvaluationError(
                    f"tensor evaluator failed: {exc}", pending[res], res
                ) from exc

    def plan(self, L: int) -> None:
        """Tell the problem's ``plan`` hook the tuples not yet evaluated
        that an estimate at threshold ``L`` needs.

        Simplex level sets are downward closed, so every tuple of an
        estimate at a smaller threshold is bounded, factor by factor, by
        one of these: one plan for the largest threshold covers a study.
        """
        if self.problem.plan is None:
            return
        tuples = [
            self.problem.resolutions(t.index)
            for t in combination_coefficients(self.problem.n, L)
        ]
        self.problem.plan([res for res in tuples if res not in self._cache])

    def estimate(self, L: int) -> tuple[Any, WorkLedger]:
        """Signed-combination estimate at threshold ``L`` plus its ledger."""
        n = self.problem.n
        if L < n:
            raise ValueError(f"threshold L={L} below factor count n={n}")
        terms = combination_coefficients(n, L)
        tuples = [self.problem.resolutions(t.index) for t in terms]
        self._ensure_evaluated(zip(tuples, (t.index for t in terms)))

        ledger = WorkLedger()
        for term, resolutions in zip(terms, tuples):
            work = _term_work(self.problem.factors, resolutions)
            ledger.per_term.append((term.index, work))
            ledger.total_work += work
        ledger.evaluations = self.evaluations
        value = weighted_sum(
            [(t.coefficient, self._cache[res]) for t, res in zip(terms, tuples)]
        )
        return value, ledger

    def estimate_via_deltas(self, L: int) -> Any:
        """Same estimate through per-index difference expansion (cross-check)."""
        n = self.problem.n
        if L < n:
            raise ValueError(f"threshold L={L} below factor count n={n}")
        needed = []
        plan: list[tuple[tuple[int, ...], int]] = []
        for index in enumerate_simplex(n, L):
            for corner, sign in delta_expand(index):
                if corner_is_zero(corner):
                    continue
                resolutions = self.problem.resolutions(corner)
                needed.append((resolutions, index))
                plan.append((resolutions, sign))
        self._ensure_evaluated(needed)
        return weighted_sum([(sign, self._cache[res]) for res, sign in plan])


def convergence_study(
    engines: Sequence[SmolyakEngine],
    L_values: Sequence[int],
    errors: Callable[[Any, list], Iterable[dict]],
    reference: SmolyakEngine | None = None,
    reference_L: int | None = None,
    solves: Callable[[], int] = lambda: 0,
) -> tuple[list[dict], Any]:
    """Error-versus-work table over a range of thresholds: the one study loop.

    Every engine is first planned (:meth:`SmolyakEngine.plan`) for the
    largest threshold it will estimate.  With ``reference``, its estimate
    at ``reference_L`` (default ``max(L_values) + 2``) comes first.  Then
    every threshold, ascending, is estimated on each of ``engines`` (one
    per replication) in turn; a row records ``L``, the last estimate's
    ``work_units`` and ``evaluations``, and ``pde_solves``, the count
    ``solves()`` returns after the row's estimates.  Last, ``errors(reference_value, values)``
    gets the reference estimate (None without ``reference``) and every
    estimate in the order made, and returns one dict of error columns per
    row.  Returns the rows and the reference estimate.  A ValueError that
    planning or making the reference estimate raises outside its evaluator
    (a threshold past the combination rule's bound, say) is raised again as
    an :class:`EvaluationError`, as the engine raises evaluator failures.
    """
    Ls = sorted(int(L) for L in L_values)
    for engine in engines:
        engine.plan(Ls[-1])
    reference_value = None
    if reference is not None:
        ref_L = reference_L if reference_L is not None else Ls[-1] + 2
        try:
            reference.plan(ref_L)
            reference_value, _ = reference.estimate(ref_L)
        except ValueError as exc:
            # Evaluator failures arrive wrapped; this one came before them.
            raise EvaluationError(f"reference estimate at L={ref_L} failed: {exc}") from exc
    rows, values = [], []
    for L in Ls:
        for engine in engines:
            value, ledger = engine.estimate(L)
            values.append(value)
        rows.append(
            {
                "L": L,
                "work_units": ledger.total_work,
                "evaluations": ledger.evaluations,
                "pde_solves": solves(),
            }
        )
    for row, columns in zip(rows, errors(reference_value, values), strict=True):
        row.update(columns)
    return rows, reference_value


def fit_loglog_slope(
    table: Sequence[tuple[float, float]], window: float = 1.0
) -> float:
    """Least-squares slope of ``log y`` against ``log x`` over a trailing window.

    Parameters
    ----------
    table : sequence of (x, y)
        Positive pairs; typically (work, error).
    window : float
        Trailing fraction of the table to fit, in (0, 1].

    Raises
    ------
    ValueError
        If ``window`` lies outside (0, 1].
    SlopeFitError
        If fewer than 3 points fall in the window, or any windowed value
        is nonpositive (a study whose errors are all exactly 0, say).
    """
    if not 0.0 < window <= 1.0:
        raise ValueError(f"window must lie in (0, 1], got {window}")
    count = max(3, math.ceil(window * len(table)))
    tail = list(table)[-count:]
    if len(tail) < 3:
        raise SlopeFitError(f"need at least 3 points in the window, got {len(tail)}")
    xs = np.array([p[0] for p in tail], dtype=float)
    ys = np.array([p[1] for p in tail], dtype=float)
    bad = np.flatnonzero((xs <= 0.0) | (ys <= 0.0))
    if len(bad):
        x, y = tail[bad[0]]
        raise SlopeFitError(
            f"log-log slope fit needs positive values in its window of {len(tail)} "
            f"rows; {len(bad)} are not, the first ({x:g}, {y:g})"
        )
    slope, _ = np.polyfit(np.log(xs), np.log(ys), 1)
    return float(slope)

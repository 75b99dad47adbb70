"""Query planning and resilient execution.

The paper offers two executions per ranking definition — an exact pass
over all ``N`` tuples, and a pruned scan that touches a prefix but
requires sorted access (and, in the attribute-level model, strictly
positive scores for the Markov bounds).  :class:`TopKPlanner` encodes
those applicability rules so the engine can route a query to the
cheapest sound algorithm given a declared access cost.

:class:`ResilientExecutor` layers fault tolerance on top: it walks a
**graceful-degradation ladder** — exact → pruned → Monte-Carlo
estimate — retrying each rung under a shared deadline, so transient
data-access faults or a tight time budget cost answer *exactness*
rather than answer *availability*.  The ladder is the paper's own
trade-off surface: pruned scans (Sections 5–6) and sampled expected
ranks both approximate the exact answer at bounded cost.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace
from typing import Callable

from repro.core.result import TopKResult
from repro.core.semantics import available_methods, rank
from repro.exceptions import (
    CircuitOpenError,
    DeadlineExceededError,
    EngineError,
    PruningBoundError,
    TransientAccessError,
    UnknownMethodError,
)
from repro.models.attribute import AttributeLevelRelation
from repro.models.tuple_level import TupleLevelRelation
from repro.obs import count, emit_event, trace
from repro.obs.capture import query_context
from repro.obs.costmodel import CostEstimate, CostModel
from repro.obs.logging import get_logger
from repro.robust import (
    BreakerBoard,
    Deadline,
    FaultInjector,
    RetryPolicy,
    call_with_retry,
)

__all__ = ["ResilientExecutor", "TopKPlan", "TopKPlanner"]

_log = get_logger("repro.engine.query")

Relation = AttributeLevelRelation | TupleLevelRelation

#: Methods with a pruned twin, and that twin's registry name.
_PRUNABLE = {
    "expected_rank": "expected_rank_prune",
    "median_rank": "quantile_rank_prune",
    "quantile_rank": "quantile_rank_prune",
}


@dataclass(frozen=True)
class TopKPlan:
    """The planner's decision for one query."""

    method: str
    options: dict
    reason: str
    #: The calibrated cost model's prediction for the chosen method;
    #: ``None`` when the planner ran on heuristics alone.
    estimate: CostEstimate | None = None
    #: Every candidate the planner priced, cheapest first.
    candidates: tuple[CostEstimate, ...] = ()

    def execute(self, relation: Relation, k: int) -> TopKResult:
        """Run the planned query."""
        with trace(
            "query.execute",
            method=self.method,
            k=k,
            n=relation.size,
            reason=self.reason,
        ):
            result = rank(
                relation, k, method=self.method, **self.options
            )
        count(f"query.method.{self.method}")
        accessed = result.metadata.get("tuples_accessed")
        if isinstance(accessed, int):
            count("query.tuples_accessed", accessed)
        if self.estimate is not None:
            # Stamp the prediction so the cost ledger and EXPLAIN can
            # hold it against the actuals.  Only cost-model plans pay
            # this copy; heuristic plans stay bit-identical.
            metadata = dict(result.metadata)
            metadata["cost_estimate"] = self.estimate.to_dict()
            result = replace(result, metadata=metadata)
        return result


class TopKPlanner:
    """Chooses between exact and pruned execution.

    Parameters
    ----------
    expensive_access:
        Declare that tuple accesses dominate the cost (remote or
        on-disk data).  Pruned variants are then preferred whenever
        they are sound for the input.
    cost_model:
        Optional calibrated :class:`~repro.obs.costmodel.CostModel`.
        When set, candidate plans (the requested method plus its
        sound pruned twin) are ranked by predicted total seconds,
        and the heuristic choice is reported in the plan reason as
        the fallback it remains; without coefficients for the
        query's kernel the planner behaves exactly as before.
    """

    def __init__(
        self,
        *,
        expensive_access: bool = False,
        cost_model: CostModel | None = None,
    ) -> None:
        self.expensive_access = expensive_access
        self.cost_model = cost_model

    def _prune_unsound(
        self, relation: Relation, pruned: str, options: dict
    ) -> str | None:
        """Why ``pruned`` is unsound for this input, or ``None``."""
        if pruned == "quantile_rank_prune":
            phi = options.get("phi", 0.5)
            if not 0.0 < phi < 1.0:
                return (
                    f"phi={phi!r} outside (0, 1); pruning bounds "
                    "unsound"
                )
        if isinstance(relation, AttributeLevelRelation) and any(
            row.score.min_value <= 0.0 for row in relation
        ):
            return (
                "non-positive scores; Markov pruning bounds unsound"
            )
        return None

    def plan(
        self,
        relation: Relation,
        k: int,
        method: str = "expected_rank",
        **options,
    ) -> TopKPlan:
        """Pick the algorithm for ``method`` on ``relation``.

        With a calibrated cost model, candidates are ranked by
        predicted cost.  Otherwise — or when the model has no
        coefficient for this kernel — the static heuristic decides,
        falling back to the exact algorithm (with an explanatory
        reason) whenever pruning is not applicable: cheap access, a
        method with no pruned twin, phi at the boundary, or
        non-positive scores in the attribute-level model.
        """
        if k < 0:
            raise EngineError(f"k must be >= 0, got {k!r}")
        if method not in available_methods():
            known = ", ".join(available_methods())
            raise UnknownMethodError(
                f"unknown ranking method {method!r}; available: {known}"
            )
        if method == "median_rank":
            options.setdefault("phi", 0.5)
        if self.cost_model is not None:
            plan = self._plan_by_cost(relation, k, method, options)
            if plan is not None:
                return plan
        if not self.expensive_access:
            return TopKPlan(method, options, "access is cheap; exact pass")
        pruned = _PRUNABLE.get(method)
        if pruned is None:
            return TopKPlan(
                method, options, f"{method!r} has no pruned variant"
            )
        unsound = self._prune_unsound(relation, pruned, options)
        if unsound is not None:
            return TopKPlan(method, options, unsound)
        return TopKPlan(
            pruned, options, "expensive access; pruned scan chosen"
        )

    def _plan_by_cost(
        self,
        relation: Relation,
        k: int,
        method: str,
        options: dict,
    ) -> TopKPlan | None:
        """Rank candidate plans by calibrated predicted cost.

        Returns ``None`` when the model cannot price the requested
        method — the caller then applies the heuristic unchanged, so
        an uncalibrated kernel never sees invented numbers.
        """
        model_kind = (
            "attribute"
            if isinstance(relation, AttributeLevelRelation)
            else "tuple"
        )
        assert self.cost_model is not None
        base = self.cost_model.estimate(
            model_kind,
            method,
            relation.size,
            k,
            expensive_access=self.expensive_access,
        )
        if base is None:
            return None
        candidates = [base]
        pruned = _PRUNABLE.get(method)
        if (
            pruned is not None
            and self._prune_unsound(relation, pruned, options)
            is None
        ):
            twin = self.cost_model.estimate(
                model_kind,
                pruned,
                relation.size,
                k,
                expensive_access=self.expensive_access,
            )
            if twin is not None:
                candidates.append(twin)
        candidates.sort(key=lambda item: item.total_seconds)
        best = candidates[0]
        heuristic = (
            pruned
            if self.expensive_access
            and pruned is not None
            and len(candidates) > 1
            else method
        )
        if len(candidates) > 1:
            other = candidates[1]
            comparison = (
                f"predicted {best.total_seconds:.3g}s for "
                f"{best.method!r} vs {other.total_seconds:.3g}s "
                f"for {other.method!r}"
            )
        else:
            comparison = (
                f"predicted {best.total_seconds:.3g}s for "
                f"{best.method!r}; only sound candidate"
            )
        agreement = (
            "agrees with"
            if best.method == heuristic
            else "overrides"
        )
        reason = (
            f"cost model: {comparison} "
            f"({agreement} heuristic {heuristic!r})"
        )
        return TopKPlan(
            best.method,
            options,
            reason,
            estimate=best,
            candidates=tuple(candidates),
        )

    def execute(
        self,
        relation: Relation,
        k: int,
        method: str = "expected_rank",
        **options,
    ) -> TopKResult:
        """Plan and run in one step."""
        return self.plan(relation, k, method, **options).execute(
            relation, k
        )


#: Failures that cost a rung rather than the whole query: retriable
#: access faults (after the retry layer gave up), deadline expiry, and
#: a pruning algorithm refusing unsound preconditions at runtime.
_RUNG_FAILURES = (
    TransientAccessError,
    DeadlineExceededError,
    OSError,
    PruningBoundError,
)


@dataclass(frozen=True)
class _Rung:
    """One step of the degradation ladder."""

    name: str
    method: str
    options: dict
    #: The last rung runs fault-free and deadline-free: it samples the
    #: already-loaded in-memory relation, so there is no external
    #: access left to fail, and it must produce *an* answer.
    last_resort: bool = False


class ResilientExecutor:
    """Execute ranking queries down a graceful-degradation ladder.

    Each query walks up to three rungs:

    1. **exact** — the requested method, untouched;
    2. **pruned** — the method's pruned twin, when
       :class:`TopKPlanner` deems it sound for the input (cheaper:
       touches a prefix of the relation);
    3. **monte_carlo** — sampled expected ranks over the in-memory
       relation, with the sample budget shrunk to fit whatever
       deadline remains.  This rung cannot be faulted and always
       answers.

    Every rung runs under the retry policy (transient faults are
    retried with backoff) and a single shared :class:`Deadline`; when
    retries exhaust or the deadline cannot fund another attempt, the
    executor steps down instead of raising.  Genuine errors — unknown
    methods, unsupported models, bad parameters — propagate
    immediately: degradation is for *environmental* failure only.

    The returned :class:`TopKResult` always records what happened in
    ``metadata``: ``degraded``, ``fallback_method``, ``ladder`` (each
    rung's outcome), ``attempts``, ``faults_survived``, and
    ``faults_injected`` when a chaos ``injector`` is attached.

    Parameters
    ----------
    retry:
        Per-rung retry policy (default: 3 retries, 50 ms base
        backoff).
    deadline_ms:
        Wall-clock budget shared by *all* rungs of one query; ``None``
        = unbounded.
    injector:
        Optional :class:`~repro.robust.FaultInjector` pulsed once per
        attempt — the chaos-testing hook.
    planner:
        Decides the pruned rung; defaults to a planner that prefers
        pruning (that is the point of the rung).
    mc_batch, mc_max_samples:
        Monte-Carlo budget ceiling; the executor shrinks it further
        when the deadline is nearly spent.
    seed:
        Seeds backoff jitter and the Monte-Carlo rung, making a
        degraded answer reproducible.
    breakers:
        Optional shared :class:`~repro.robust.BreakerBoard`.  When
        set, each non-last-resort rung is gated by a circuit breaker:
        a rung whose breaker is open is skipped straight to the next
        degradation level without spending retries or deadline on it.
        Share one board across executors (the serving core does) so
        the breakers learn from fleet-wide outcomes.
    clock, sleep:
        Injectable time sources so tests can run deadline and backoff
        logic instantly.
    """

    def __init__(
        self,
        *,
        retry: RetryPolicy | None = None,
        deadline_ms: float | None = None,
        injector: FaultInjector | None = None,
        planner: TopKPlanner | None = None,
        mc_batch: int = 250,
        mc_max_samples: int = 4_000,
        seed: int = 0,
        breakers: BreakerBoard | None = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if deadline_ms is not None and deadline_ms < 0:
            raise EngineError(
                f"deadline_ms must be >= 0, got {deadline_ms!r}"
            )
        if mc_batch < 1 or mc_max_samples < mc_batch:
            raise EngineError(
                "need 1 <= mc_batch <= mc_max_samples, got "
                f"{mc_batch!r}, {mc_max_samples!r}"
            )
        self.retry = retry if retry is not None else RetryPolicy()
        self.deadline_ms = deadline_ms
        self.injector = injector
        self.planner = (
            planner
            if planner is not None
            else TopKPlanner(expensive_access=True)
        )
        self.mc_batch = mc_batch
        self.mc_max_samples = mc_max_samples
        self.seed = seed
        self.breakers = breakers
        self._clock = clock
        self._sleep = sleep

    # ------------------------------------------------------------------
    # Ladder construction
    # ------------------------------------------------------------------
    def _ladder(
        self, relation: Relation, k: int, method: str, options: dict
    ) -> tuple[list[_Rung], TopKPlan]:
        rungs = [_Rung("exact", method, dict(options))]
        # The planner validates the method name (UnknownMethodError
        # with the list of valid methods) and picks the pruned twin
        # only where its bounds are sound for this input.
        plan = self.planner.plan(relation, k, method, **dict(options))
        if plan.method != method:
            rungs.append(
                _Rung("pruned", plan.method, dict(plan.options))
            )
        if method != "monte_carlo":
            mc_options: dict = {
                "batch": self.mc_batch,
                "max_samples": self.mc_max_samples,
                "rng": random.Random(self.seed),
            }
            if "ties" in options:
                mc_options["ties"] = options["ties"]
            rungs.append(
                _Rung(
                    "monte_carlo",
                    "monte_carlo",
                    mc_options,
                    last_resort=True,
                )
            )
        rungs[-1] = replace(rungs[-1], last_resort=True)
        return rungs, plan

    def _shrink_mc_budget(
        self, rung_options: dict, deadline: Deadline
    ) -> dict:
        """Fit the sampling budget to the remaining deadline.

        The heuristic is deliberately blunt: an expired (or nearly
        expired) deadline drops to one minimal batch — an estimate,
        fast — while a comfortable deadline keeps the configured
        ceiling.  ``metadata["samples"]`` reports what was actually
        spent.
        """
        remaining = deadline.remaining()
        if remaining == float("inf") or remaining > 0.5:
            return rung_options
        shrunk = dict(rung_options)
        batch = min(int(rung_options.get("batch", self.mc_batch)), 64)
        shrunk["batch"] = max(1, batch)
        shrunk["max_samples"] = shrunk["batch"]
        return shrunk

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(
        self,
        relation: Relation,
        k: int,
        method: str = "expected_rank",
        **options,
    ) -> TopKResult:
        """Run ``method`` with retries, degrading instead of failing.

        Raises only for genuine request errors (unknown method,
        negative ``k``, unsupported model, ...) — never for transient
        faults or deadline pressure, which are absorbed by the ladder.

        When an ambient capture log or cost ledger is installed (and
        no outer layer such as ``db.topk`` has already claimed the
        :func:`~repro.obs.capture.query_context`), the query is
        recorded with this executor's full resilience configuration,
        so a replay can rebuild an identical ladder.
        """
        with query_context(
            relation, k, method, options, executor=self
        ) as query:
            result = self._execute_ladder(
                relation, k, method, **options
            )
            if query is not None:
                query.finish(result)
        return result

    def _execute_ladder(
        self,
        relation: Relation,
        k: int,
        method: str = "expected_rank",
        **options,
    ) -> TopKResult:
        deadline = Deadline.from_ms(self.deadline_ms, clock=self._clock)
        ladder, plan = self._ladder(relation, k, method, options)
        rng = random.Random(self.seed)
        count("robust.execute.calls")
        attempts = 0
        faults_survived = 0
        backoff_seconds = 0.0
        outcomes: list[dict] = []
        with trace(
            "robust.execute", method=method, k=k, n=relation.size
        ) as root_span:
            for index, rung in enumerate(ladder):
                degraded = index > 0
                if rung.last_resort:
                    rung = replace(
                        rung,
                        options=self._shrink_mc_budget(
                            rung.options, deadline
                        ),
                    )
                # The last-resort rung is never breaker-gated: it must
                # answer, and it runs fault-free in-memory anyway.
                breaker = (
                    self.breakers.breaker(rung.name)
                    if self.breakers is not None
                    and not rung.last_resort
                    else None
                )
                try:
                    if breaker is not None:
                        breaker.allow()
                    with trace(
                        "robust.rung",
                        rung=rung.name,
                        method=rung.method,
                    ):
                        result, stats = call_with_retry(
                            f"query.{rung.name}",
                            self._attempt(relation, k, rung),
                            policy=self.retry,
                            # The last resort must answer: no deadline
                            # abort, no injected faults (see _Rung).
                            deadline=(
                                Deadline(None)
                                if rung.last_resort
                                else deadline
                            ),
                            rng=rng,
                            sleep=self._sleep,
                        )
                except CircuitOpenError as error:
                    count(f"robust.breaker.skip.{rung.name}")
                    emit_event(
                        "robust.breaker_skip",
                        rung=rung.name,
                        method=rung.method,
                        error=str(error),
                    )
                    outcomes.append(
                        {
                            "rung": rung.name,
                            "method": rung.method,
                            "outcome": (
                                f"{type(error).__name__}: {error}"
                            ),
                        }
                    )
                    continue
                except _RUNG_FAILURES as error:
                    if breaker is not None:
                        breaker.record_failure()
                    count(f"robust.degrade.from_{rung.name}")
                    emit_event(
                        "robust.degrade",
                        rung=rung.name,
                        method=rung.method,
                        error=f"{type(error).__name__}: {error}",
                    )
                    _log.warning(
                        "robust.degrade",
                        rung=rung.name,
                        method=rung.method,
                        error=f"{type(error).__name__}: {error}",
                    )
                    outcomes.append(
                        {
                            "rung": rung.name,
                            "method": rung.method,
                            "outcome": (
                                f"{type(error).__name__}: {error}"
                            ),
                        }
                    )
                    continue
                if breaker is not None:
                    breaker.record_success()
                attempts += stats.attempts
                faults_survived += stats.faults_survived
                backoff_seconds += stats.backoff_seconds
                outcomes.append(
                    {
                        "rung": rung.name,
                        "method": rung.method,
                        "outcome": "ok",
                    }
                )
                if degraded:
                    count(f"robust.fallback.{rung.name}")
                    emit_event(
                        "robust.fallback",
                        rung=rung.name,
                        method=rung.method,
                    )
                    _log.warning(
                        "robust.fallback",
                        rung=rung.name,
                        method=rung.method,
                    )
                return self._finalise(
                    result,
                    degraded=degraded,
                    rung=rung,
                    outcomes=outcomes,
                    attempts=attempts,
                    faults_survived=faults_survived,
                    backoff_seconds=backoff_seconds,
                    trace_id=root_span.trace_id,
                    estimate=plan.estimate,
                )
        raise DeadlineExceededError(  # pragma: no cover - defensive
            "every rung of the degradation ladder failed: "
            + "; ".join(str(outcome) for outcome in outcomes)
        )

    def _attempt(
        self, relation: Relation, k: int, rung: _Rung
    ) -> Callable[[], TopKResult]:
        def attempt() -> TopKResult:
            if self.injector is not None and not rung.last_resort:
                self.injector.pulse(f"query.{rung.name}")
            return rank(relation, k, method=rung.method, **rung.options)

        return attempt

    def _finalise(
        self,
        result: TopKResult,
        *,
        degraded: bool,
        rung: _Rung,
        outcomes: list[dict],
        attempts: int,
        faults_survived: int,
        backoff_seconds: float,
        trace_id: str | None = None,
        estimate: CostEstimate | None = None,
    ) -> TopKResult:
        # Per-rung retry stats only count the *winning* rung's
        # attempts; the failed rungs' attempts live in their ladder
        # outcome strings.  faults_injected is the chaos ground truth
        # to compare faults_survived against.  trace_id (None while
        # observability is off) links the answer to its span tree in
        # the JSONL trace and the query log.
        metadata = dict(result.metadata)
        metadata.update(
            {
                "resilient": True,
                "degraded": degraded,
                "fallback_method": result.method,
                "ladder": tuple(outcomes),
                "attempts": attempts,
                "faults_survived": faults_survived,
                "retry_backoff_seconds": backoff_seconds,
                "deadline_ms": self.deadline_ms,
                "faults_injected": (
                    self.injector.total_injected
                    if self.injector is not None
                    else 0
                ),
                "trace_id": trace_id,
            }
        )
        if estimate is not None:
            # The planner's prediction for its *chosen* method; the
            # ledger compares it against whatever rung answered (a
            # degraded answer drifting from the estimate is signal,
            # not noise).  Absent without a cost model — the default
            # metadata stays bit-identical.
            metadata["cost_estimate"] = estimate.to_dict()
        return replace(result, metadata=metadata)

"""Tests for resource accounting: ledger, cost model, planner wiring.

Three layers:

* the :class:`CostLedger` on fake clocks — entry arithmetic, per
  ``(tenant, method)`` aggregation, drift tracking, and the
  ``cost_drift`` anomaly contract (fires once, re-arms after
  recovery);
* :func:`~repro.obs.capture.query_context` claim semantics — off
  path yields ``None`` everywhere, the outermost layer wins, explicit
  ledger beats ambient — plus the end-to-end wiring through
  ``db.topk`` and the resilient executor;
* the :class:`CostModel` — metric-name parsing, median fits from
  bench history and capture records, persistence, and the acceptance
  criterion: a fitted model changes a planner choice the static
  heuristic would have made differently.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from repro.core.result import RankedItem, TopKResult
from repro.engine.database import ProbabilisticDatabase
from repro.engine.query import ResilientExecutor, TopKPlanner
from repro.models import (
    AttributeLevelRelation,
    AttributeTuple,
    DiscretePDF,
)
from repro.obs import MetricsRegistry, set_registry
from repro.obs.costmodel import (
    COST_MODEL_SCHEMA_VERSION,
    CostModel,
    fit_cost_model,
    parse_metric_name,
)
from repro.obs.costs import (
    CostEntry,
    CostLedger,
    get_cost_ledger,
    set_cost_ledger,
)
from repro.obs.flight import set_flight_recorder
from repro.obs.capture import query_context
from repro.robust import RetryPolicy

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_HISTORY = (
    REPO_ROOT / "benchmarks" / "results" / "BENCH_history.jsonl"
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class FakeRecorder:
    """Duck-typed flight recorder capturing notify_anomaly calls."""

    def __init__(self) -> None:
        self.anomalies: list[tuple[object, dict]] = []

    def notify(self, anomaly, *, trace_id=None, **attributes):
        attributes["trace_id"] = trace_id
        self.anomalies.append((anomaly, attributes))


@pytest.fixture
def registry():
    fresh = MetricsRegistry(enabled=True)
    previous = set_registry(fresh)
    yield fresh
    set_registry(previous)


def make_result(method="expected_rank", **metadata) -> TopKResult:
    return TopKResult(
        method=method,
        k=1,
        items=(RankedItem("t1", 0, 0.5),),
        metadata=metadata,
    )


def make_ledger(**overrides):
    wall, cpu = FakeClock(), FakeClock()
    ledger = CostLedger(
        wall_clock=wall, cpu_clock=cpu, **overrides
    )
    return ledger, wall, cpu


def positive_relation(n: int) -> AttributeLevelRelation:
    return AttributeLevelRelation(
        [
            AttributeTuple(f"t{i}", DiscretePDF.point(float(n - i)))
            for i in range(n)
        ]
    )


# ----------------------------------------------------------------------
# The ledger on fake clocks
# ----------------------------------------------------------------------
class TestCostLedger:
    def test_meter_arithmetic_is_exact_on_fake_clocks(self):
        ledger, wall, cpu = make_ledger()
        meter = ledger.meter(tenant="acme")
        wall.advance(2.0)
        cpu.advance(0.5)
        entry = meter.finish(
            make_result(tuples_accessed=7),
            k=2,
            n=3,
            method="expected_rank",
        )
        assert entry.wall_seconds == 2.0
        assert entry.cpu_seconds == 0.5
        assert entry.tuples_accessed == 7
        assert entry.tenant == "acme"
        assert entry.rung == "direct"
        assert not entry.degraded
        assert entry.predicted_seconds is None
        assert ledger.entries == (entry,)

    def test_finish_reads_prediction_and_rung_off_metadata(self):
        ledger, wall, _ = make_ledger()
        meter = ledger.meter()
        wall.advance(1.0)
        entry = meter.finish(
            make_result(
                cost_estimate={"total_seconds": 0.25, "tuples": 40},
                resilient=True,
                degraded=True,
                ladder=(
                    {"rung": "exact", "outcome": "OSError: x"},
                    {"rung": "pruned", "outcome": "ok"},
                ),
                trace_id="trace-1",
            ),
            k=2,
            n=8,
            method="expected_rank",
        )
        assert entry.predicted_seconds == 0.25
        assert entry.predicted_tuples == 40
        assert entry.rung == "pruned"
        assert entry.degraded
        assert entry.trace_id == "trace-1"
        assert entry.tenant == "default"

    def test_aggregates_per_tenant_and_method(self):
        ledger, wall, cpu = make_ledger()
        for tenant, seconds in (
            ("acme", 1.0),
            ("acme", 3.0),
            ("globex", 5.0),
        ):
            meter = ledger.meter(tenant=tenant)
            wall.advance(seconds)
            cpu.advance(seconds / 2)
            meter.finish(
                make_result(tuples_accessed=10),
                k=1,
                n=4,
                method="expected_rank",
            )
        summary = ledger.summary()
        assert summary["queries"] == 3
        acme = summary["tenants"]["acme"]["expected_rank"]
        assert acme["queries"] == 2
        assert acme["wall_seconds"] == pytest.approx(4.0)
        assert acme["cpu_seconds"] == pytest.approx(2.0)
        assert acme["tuples_accessed"] == 20
        globex = summary["tenants"]["globex"]["expected_rank"]
        assert globex["queries"] == 1
        assert globex["wall_seconds"] == pytest.approx(5.0)

    def test_entry_ring_is_bounded_but_aggregates_are_not(self):
        ledger, wall, _ = make_ledger(max_entries=3)
        for index in range(5):
            meter = ledger.meter()
            wall.advance(1.0)
            meter.finish(
                make_result(), k=index, n=1, method="expected_rank"
            )
        assert len(ledger.entries) == 3
        assert [entry.k for entry in ledger.entries] == [2, 3, 4]
        assert ledger.summary()["queries"] == 5

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="drift_threshold"):
            CostLedger(drift_threshold=0.0)
        with pytest.raises(ValueError, match="drift_min_samples"):
            CostLedger(drift_min_samples=0)

    def test_drift_is_none_without_predictions(self):
        ledger, wall, _ = make_ledger()
        meter = ledger.meter()
        wall.advance(1.0)
        meter.finish(make_result(), k=1, n=1, method="expected_rank")
        assert ledger.drift("expected_rank") is None
        assert ledger.summary()["drift"] == {}

    def test_drift_ratio_over_predicted_runs(self):
        ledger, wall, _ = make_ledger()
        for predicted, actual in ((1.0, 2.0), (1.0, 2.0)):
            meter = ledger.meter()
            wall.advance(actual)
            meter.finish(
                make_result(
                    cost_estimate={
                        "total_seconds": predicted,
                        "tuples": 1,
                    }
                ),
                k=1,
                n=1,
                method="expected_rank",
            )
        # 4.0 actual over 2.0 predicted: 100% over calibration.
        assert ledger.drift("expected_rank") == pytest.approx(1.0)
        drift = ledger.summary()["drift"]["expected_rank"]
        assert drift["samples"] == 2

    def test_cost_metrics_are_exported(self, registry):
        ledger, wall, cpu = make_ledger()
        meter = ledger.meter(tenant="acme")
        wall.advance(2.0)
        cpu.advance(1.0)
        meter.finish(
            make_result(
                tuples_accessed=5,
                cost_estimate={"total_seconds": 1.5, "tuples": 5},
            ),
            k=1,
            n=4,
            method="expected_rank",
        )
        labels = {"tenant": "acme", "method": "expected_rank"}
        assert registry.counter("cost.queries", labels).value == 1
        assert registry.counter(
            "cost.wall_seconds", labels
        ).value == pytest.approx(2.0)
        assert registry.counter(
            "cost.cpu_seconds", labels
        ).value == pytest.approx(1.0)
        assert registry.counter(
            "cost.tuples_accessed", labels
        ).value == 5
        assert registry.gauge(
            "cost.drift", {"method": "expected_rank"}
        ).value == pytest.approx(2.0 / 1.5 - 1.0)
        assert "cost.drift" in registry.help_texts()


class TestDriftAnomaly:
    @pytest.fixture
    def recorder(self):
        fake = FakeRecorder()
        previous = set_flight_recorder(fake)
        yield fake
        set_flight_recorder(previous)

    def drifting_query(self, ledger, wall, *, actual=2.0):
        meter = ledger.meter()
        wall.advance(actual)
        meter.finish(
            make_result(
                cost_estimate={"total_seconds": 1.0, "tuples": 1},
                trace_id="trace-drift",
            ),
            k=1,
            n=1,
            method="expected_rank",
        )

    def test_fires_once_past_threshold_with_enough_samples(
        self, recorder
    ):
        ledger, wall, _ = make_ledger(
            drift_threshold=0.5, drift_min_samples=2
        )
        self.drifting_query(ledger, wall)
        assert recorder.anomalies == []  # one sample: not trusted yet
        self.drifting_query(ledger, wall)
        assert len(recorder.anomalies) == 1
        anomaly, attributes = recorder.anomalies[0]
        assert anomaly == "cost_drift"
        assert attributes["method"] == "expected_rank"
        assert attributes["drift"] == pytest.approx(1.0)
        assert attributes["samples"] == 2
        assert attributes["threshold"] == 0.5
        assert attributes["trace_id"] == "trace-drift"
        self.drifting_query(ledger, wall)
        assert len(recorder.anomalies) == 1  # latched, not repeated
        assert ledger.summary()["drift"]["expected_rank"]["alarmed"]

    def test_rearms_after_recovery(self, recorder):
        ledger, wall, _ = make_ledger(
            drift_threshold=0.5, drift_min_samples=1
        )
        self.drifting_query(ledger, wall, actual=2.0)
        assert len(recorder.anomalies) == 1
        # Enough on-calibration runs pull aggregate drift under the
        # threshold: the alarm clears...
        for _ in range(8):
            self.drifting_query(ledger, wall, actual=1.0)
        assert not ledger.summary()["drift"]["expected_rank"][
            "alarmed"
        ]
        # ...so a fresh excursion alarms again.
        for _ in range(40):
            self.drifting_query(ledger, wall, actual=4.0)
        assert len(recorder.anomalies) == 2


# ----------------------------------------------------------------------
# Claim semantics and engine wiring
# ----------------------------------------------------------------------
class TestQueryAccounting:
    def test_off_path_yields_none(self, fig2):
        assert get_cost_ledger() is None
        with query_context(fig2, 1) as query:
            assert query is None

    def test_outermost_layer_claims_inner_sees_none(self, fig2):
        ledger, _, _ = make_ledger()
        with query_context(fig2, 1, ledger=ledger) as outer:
            assert outer is not None
            with query_context(fig2, 1, ledger=ledger) as inner:
                assert inner is None
        # The claim is released: the next query meters again.
        with query_context(fig2, 1, ledger=ledger) as again:
            assert again is not None

    def test_explicit_ledger_beats_ambient(self, fig2):
        ambient, _, _ = make_ledger()
        explicit, wall, _ = make_ledger()
        previous = set_cost_ledger(ambient)
        try:
            with query_context(fig2, 1, ledger=explicit) as query:
                assert query is not None
                wall.advance(1.0)
                query.finish(make_result())
            # An unclaimed scope carries its ledger to the claimer.
            with query_context(ledger=explicit):
                with query_context(fig2, 1) as query:
                    assert query is not None
                    query.finish(make_result())
        finally:
            set_cost_ledger(previous)
        assert len(explicit.entries) == 2
        assert explicit.entries[0].wall_seconds == 1.0
        assert ambient.entries == ()

    def test_db_topk_accounts_once_via_ambient_ledger(
        self, fig2, registry
    ):
        database = ProbabilisticDatabase()
        database.create_relation("fig2", fig2)
        ledger = CostLedger()
        previous = set_cost_ledger(ledger)
        try:
            database.topk("fig2", 2)
        finally:
            set_cost_ledger(previous)
        assert len(ledger.entries) == 1
        entry = ledger.entries[0]
        assert entry.method == "expected_rank"
        assert entry.n == 3
        assert entry.k == 2
        assert entry.wall_seconds >= 0.0
        assert entry.trace_id  # span id flows into the entry

    def test_resilient_executor_accounts_with_ladder_rung(self, fig2):
        executor = ResilientExecutor(
            retry=RetryPolicy(max_retries=0, base_delay=0.0)
        )
        ledger = CostLedger()
        previous = set_cost_ledger(ledger)
        try:
            executor.execute(fig2, 2)
        finally:
            set_cost_ledger(previous)
        assert len(ledger.entries) == 1
        entry = ledger.entries[0]
        assert entry.rung == "exact"
        assert entry.plan_method == "expected_rank"

    def test_accounting_off_leaves_results_identical(self, fig2):
        bare = TopKPlanner().execute(fig2, 2)
        ledger = CostLedger()
        previous = set_cost_ledger(ledger)
        try:
            with query_context(fig2, 2) as query:
                accounted = TopKPlanner().execute(fig2, 2)
                assert query is not None
        finally:
            set_cost_ledger(previous)
        assert accounted == bare  # metering never mutates the answer


# ----------------------------------------------------------------------
# The cost model
# ----------------------------------------------------------------------
class TestParseMetricName:
    def test_full_name_with_k(self):
        assert parse_metric_name(
            "a_erank_prune/uu/n=2000/k=10/tuples_accessed"
        ) == {
            "kernel": "a_erank_prune",
            "workload": "uu",
            "n": 2000,
            "k": 10,
            "kind": "tuples_accessed",
        }

    def test_name_without_k(self):
        parsed = parse_metric_name("a_erank/uu/n=2000/seconds")
        assert parsed["n"] == 2000
        assert parsed["k"] is None

    @pytest.mark.parametrize(
        "name",
        [
            "seconds",
            "a_erank/uu/seconds",
            "a_erank/uu/n=x/seconds",
            "a_erank/uu/n=2000/latency",
        ],
    )
    def test_out_of_convention_names_are_skipped(self, name):
        assert parse_metric_name(name) is None


def history_entry(metrics: dict) -> dict:
    return {"commit": "abc1234", "suite": "smoke", "metrics": metrics}


class TestFitCostModel:
    def test_fit_recovers_planted_coefficients(self):
        n = 1024
        units = n * math.log2(n)
        model = fit_cost_model(
            [
                history_entry(
                    {
                        f"a_erank/uu/n={n}/seconds": units * 1e-6,
                        f"a_erank_prune/uu/n={n}/k=8/tuples_accessed": (
                            8 * math.log2(n) * 2.0
                        ),
                    }
                )
            ],
            fitted_from=["unit-test"],
        )
        erank = model.kernels["a_erank"]
        assert erank["seconds_per_unit"] == pytest.approx(1e-6)
        assert erank["observations"] == 1
        prune = model.kernels["a_erank_prune"]
        assert prune["prefix_ratio"] == pytest.approx(2.0)
        assert model.fitted_from == ("unit-test",)

    def test_median_is_robust_to_one_noisy_run(self):
        n = 1024
        units = n * math.log2(n)
        entries = [
            history_entry({f"a_erank/uu/n={n}/seconds": units * c})
            for c in (1e-6, 1e-6, 5e-3)  # one polluted CI run
        ]
        model = fit_cost_model(entries)
        assert model.kernels["a_erank"][
            "seconds_per_unit"
        ] == pytest.approx(1e-6)

    def test_fit_from_capture_records_skips_degraded(self):
        n = 512
        units = n * math.log2(n)
        records = [
            {
                "type": "query",
                "model": "attribute",
                "plan": {"method": "expected_rank"},
                "n": n,
                "wall_seconds": units * 2e-6,
            },
            {
                "type": "query",
                "model": "attribute",
                "plan": {"method": "expected_rank"},
                "n": n,
                "wall_seconds": units * 9e-3,
                "degraded": True,  # retries, not the kernel
            },
            {"type": "relation", "name": "x"},
        ]
        model = fit_cost_model(capture_records=records)
        assert model.kernels["a_erank"][
            "seconds_per_unit"
        ] == pytest.approx(2e-6)

    def test_fit_from_the_checked_in_bench_history(self):
        entries = [
            json.loads(line)
            for line in BENCH_HISTORY.read_text().splitlines()
            if line.strip()
        ]
        model = fit_cost_model(
            entries, fitted_from=[str(BENCH_HISTORY)]
        )
        assert model.kernels["a_erank"]["seconds_per_unit"] > 0
        assert model.kernels["t_erank"]["seconds_per_unit"] > 0
        assert model.kernels["a_erank_prune"]["prefix_ratio"] > 0


class TestCostModelEstimates:
    @pytest.fixture
    def model(self):
        return CostModel(
            {
                "a_erank": {"seconds_per_unit": 1e-6},
                "a_erank_prune": {"prefix_ratio": 2.0},
            },
            expensive_access_seconds=1e-4,
        )

    def test_exact_estimate_prices_the_whole_relation(self, model):
        estimate = model.estimate("attribute", "expected_rank", 1024, 8)
        assert estimate.tuples == 1024
        assert estimate.units == pytest.approx(1024 * 10.0)
        assert estimate.kernel_seconds == pytest.approx(1024e-5)
        assert estimate.access_seconds == 0.0
        assert estimate.total_seconds == estimate.kernel_seconds

    def test_pruned_estimate_prices_the_predicted_prefix(self, model):
        estimate = model.estimate(
            "attribute",
            "expected_rank_prune",
            1024,
            8,
            expensive_access=True,
        )
        assert estimate.tuples == math.ceil(2.0 * 8 * 10.0)
        assert estimate.access_seconds == pytest.approx(
            estimate.tuples * 1e-4
        )

    def test_prefix_is_clamped_into_k_plus_one_to_n(self, model):
        assert model.predicted_prefix(
            "attribute", "expected_rank_prune", 8, 4
        ) <= 8
        tiny = CostModel(
            {"a_erank_prune": {"prefix_ratio": 1e-9}}
        )
        assert tiny.predicted_prefix(
            "attribute", "expected_rank_prune", 100, 5
        ) == 6

    def test_uncalibrated_kernel_estimates_none(self, model):
        assert (
            model.estimate("tuple", "expected_rank", 100, 5) is None
        )
        assert (
            model.estimate("attribute", "monte_carlo", 100, 5) is None
        )


class TestCostModelPersistence:
    def test_save_load_round_trip(self, tmp_path):
        model = CostModel(
            {"a_erank": {"seconds_per_unit": 3e-7, "observations": 4}},
            expensive_access_seconds=2e-4,
            fitted_from=["BENCH_history.jsonl"],
        )
        path = tmp_path / "model.json"
        model.save(path)
        loaded = CostModel.load(path)
        assert loaded.kernels == model.kernels
        assert loaded.expensive_access_seconds == 2e-4
        assert loaded.fitted_from == ("BENCH_history.jsonl",)
        assert loaded.schema_version == COST_MODEL_SCHEMA_VERSION

    def test_document_kind_and_schema_are_enforced(self):
        with pytest.raises(ValueError, match="kind"):
            CostModel.from_document({"schema": 1, "kind": "other"})
        with pytest.raises(ValueError, match="schema"):
            CostModel.from_document(
                {"schema": 99, "kind": "repro-cost-model"}
            )

    def test_describe_names_every_kernel(self):
        model = CostModel(
            {
                "a_erank": {
                    "seconds_per_unit": 1e-6,
                    "observations": 2,
                },
                "a_erank_prune": {"prefix_ratio": 1.5},
            }
        )
        text = model.describe()
        assert "a_erank: seconds_per_unit=1.000e-06" in text
        assert "prefix_ratio=1.500" in text


# ----------------------------------------------------------------------
# The planner under a calibrated model (acceptance criterion)
# ----------------------------------------------------------------------
class TestPlannerWithCostModel:
    @pytest.fixture
    def model(self):
        return CostModel(
            {
                "a_erank": {"seconds_per_unit": 1e-6},
                "a_erank_prune": {"prefix_ratio": 1.0},
            }
        )

    def test_calibration_changes_the_planner_choice(self, model):
        """The PR's acceptance criterion: a fitted model flips a
        workload the heuristic routes to the exact pass."""
        relation = positive_relation(64)
        before = TopKPlanner().plan(relation, 2)
        assert before.method == "expected_rank"
        assert before.reason == "access is cheap; exact pass"
        after = TopKPlanner(cost_model=model).plan(relation, 2)
        assert after.method == "expected_rank_prune"
        assert "overrides heuristic 'expected_rank'" in after.reason
        assert after.estimate is not None
        assert [c.method for c in after.candidates] == [
            "expected_rank_prune",
            "expected_rank",
        ]
        assert (
            after.candidates[0].total_seconds
            <= after.candidates[1].total_seconds
        )

    def test_agreement_with_expensive_access_heuristic(self, model):
        plan = TopKPlanner(
            expensive_access=True, cost_model=model
        ).plan(positive_relation(64), 2)
        assert plan.method == "expected_rank_prune"
        assert "agrees with heuristic" in plan.reason

    def test_unsound_pruning_leaves_one_candidate(self, model):
        relation = AttributeLevelRelation(
            [
                AttributeTuple("neg", DiscretePDF.point(-1.0)),
                AttributeTuple("pos", DiscretePDF.point(2.0)),
            ]
        )
        plan = TopKPlanner(cost_model=model).plan(relation, 1)
        assert plan.method == "expected_rank"
        assert "only sound candidate" in plan.reason
        assert len(plan.candidates) == 1

    def test_uncalibrated_kernel_falls_back_to_heuristic(self):
        plan = TopKPlanner(cost_model=CostModel()).plan(
            positive_relation(16), 2
        )
        assert plan.method == "expected_rank"
        assert plan.reason == "access is cheap; exact pass"
        assert plan.estimate is None
        assert plan.candidates == ()

    def test_execute_stamps_the_estimate_into_metadata(self, model):
        relation = positive_relation(32)
        plan = TopKPlanner(cost_model=model).plan(relation, 2)
        result = plan.execute(relation, 2)
        stamped = result.metadata["cost_estimate"]
        assert stamped["total_seconds"] == pytest.approx(
            plan.estimate.total_seconds
        )
        assert stamped["method"] == plan.method
        heuristic = TopKPlanner().plan(relation, 2)
        assert "cost_estimate" not in heuristic.execute(
            relation, 2
        ).metadata

    def test_resilient_executor_stamps_the_plan_estimate(self, model):
        executor = ResilientExecutor(
            planner=TopKPlanner(
                expensive_access=True, cost_model=model
            ),
            retry=RetryPolicy(max_retries=0, base_delay=0.0),
        )
        result = executor.execute(positive_relation(32), 2)
        assert result.metadata["cost_estimate"]["method"] == (
            "expected_rank_prune"
        )

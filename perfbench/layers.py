"""Metric names, units, and the per-layer figures drawn from a trace.

``END_TO_END`` and ``PER_LAYER`` are the names ``BENCHMARK.json``
declares; the benchmark's tests keep the two in step.  Every workload
prints every name.  A layer a workload does not exercise reads 0 with
``n=0`` in the text report.
"""

from __future__ import annotations

from common import Metrics, median
from inputs import QUERY_CELLS, RELATIONS, cell_key
from tracing import Recorder

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("success_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)

CORE_CELLS = tuple(
    cell_key(method, relation, RELATIONS["query-heavy"])
    for method, relation, _, _ in QUERY_CELLS
)
PRUNE_PAIRS = ("attribute.uu", "attribute.zipf", "tuple.uu")

PER_LAYER = (
    (
        ("import.repro_s", "s"),
        ("import.repro_cli_s", "s"),
        ("import.numpy_s", "s"),
        ("import.repro_over_numpy", "ratio"),
        ("engine.io.load_attribute_csv_ms", "ms"),
        ("engine.io.load_tuple_csv_ms", "ms"),
        ("engine.io.rows_per_s", "1/s"),
        ("models.relation_build_ms", "ms"),
        ("engine.maintenance.snapshot_ms", "ms"),
        ("engine.maintenance.write_us", "us"),
        ("engine.views.refresh_ms", "ms"),
        ("engine.views.refreshes_per_read", "ratio"),
    )
    + tuple((f"core.{cell}.ms", "ms") for cell in CORE_CELLS)
    + tuple(
        (f"core.{cell}.tuples_accessed", "count") for cell in CORE_CELLS
    )
    + tuple((f"core.prune_over_exact.{pair}", "ratio") for pair in PRUNE_PAIRS)
    + (
        ("engine.database.topk_self_ms", "ms"),
        ("engine.database.relation_digest_ms", "ms"),
        ("engine.query.plan_ms", "ms"),
        ("engine.query.execute_self_ms", "ms"),
        ("engine.query.degraded", "count"),
        ("serve.admission.admit_us", "us"),
        ("serve.admission.shed", "count"),
        ("serve.coalesce.coalesced_ratio", "ratio"),
        ("serve.coalesce.leader_runs", "count"),
        ("serve.core.submit_self_ms", "ms"),
        ("serve.transport.handle_line_self_ms", "ms"),
        ("serve.transport.tcp_overhead_ms", "ms"),
        ("loadgen.lag_p99_ms", "ms"),
        ("loadgen.latency_p99_ms", "ms"),
        ("trace.throughput_ratio", "ratio"),
        ("trace.latency_p50_ratio", "ratio"),
    )
)


def engine_layers(metrics: Metrics, setup: Recorder, window: Recorder) -> None:
    """Per-layer figures of ingest, models, engine and kernels.

    ``setup`` holds the spans of loading the relations, ``window`` those
    of the traced timed window.
    """
    loads = {
        kind: setup.by_name(f"engine.io.load_{kind}_csv")
        for kind in ("attribute", "tuple")
    }
    for kind, spans in loads.items():
        metrics.timing(
            f"engine.io.load_{kind}_csv_ms",
            [span.seconds for span in spans],
            "ms",
            1e3,
        )
    every_load = loads["attribute"] + loads["tuple"]
    rows = sum(span.info["rows"] for span in every_load)
    seconds = sum(span.seconds for span in every_load)
    metrics.put(
        "engine.io.rows_per_s",
        rows / seconds if seconds else 0.0,
        "1/s",
        len(every_load),
    )
    builds = [
        span.seconds
        for recorder in (setup, window)
        for span in recorder.by_name("models.relation_build")
    ]
    metrics.timing("models.relation_build_ms", builds, "ms", 1e3)

    by_cell: dict[str, list] = {}
    for span in window.by_name("core.rank"):
        by_cell.setdefault(span.info["cell"], []).append(span)
    cell_ms = {}
    for cell in CORE_CELLS:
        spans = by_cell.get(cell, [])
        metrics.timing(
            f"core.{cell}.ms", [span.seconds for span in spans], "ms", 1e3
        )
        cell_ms[cell] = metrics.values[f"core.{cell}.ms"][0]
        accessed = [
            span.info["tuples_accessed"]
            for span in spans
            if span.info["tuples_accessed"] is not None
        ]
        metrics.put(
            f"core.{cell}.tuples_accessed",
            median(accessed) if accessed else 0,
            "count",
            len(accessed),
        )
    for pair in PRUNE_PAIRS:
        exact = cell_ms[f"expected_rank.{pair}"]
        pruned = cell_ms[f"expected_rank_prune.{pair}"]
        metrics.put(
            f"core.prune_over_exact.{pair}",
            pruned / exact if exact and pruned else 0.0,
            "ratio",
        )

    metrics.timing(
        "engine.database.topk_self_ms",
        window.self_seconds("engine.database.topk"),
        "ms",
        1e3,
    )
    metrics.timing(
        "engine.database.relation_digest_ms",
        [span.seconds for span in window.by_name(
            "engine.database.relation_digest")],
        "ms",
        1e3,
    )
    metrics.timing(
        "engine.query.plan_ms",
        [span.seconds for span in window.by_name("engine.query.plan")],
        "ms",
        1e3,
    )
    executions = window.by_name("engine.query.execute")
    metrics.timing(
        "engine.query.execute_self_ms",
        window.self_seconds("engine.query.execute"),
        "ms",
        1e3,
    )
    metrics.put(
        "engine.query.degraded",
        sum(1 for span in executions if span.info["degraded"]),
        "count",
        len(executions),
    )


def live_layers(metrics: Metrics, window: Recorder, reads: int,
                refreshes: int) -> None:
    """Per-layer figures of the maintained store and its views."""
    metrics.timing(
        "engine.maintenance.snapshot_ms",
        [span.seconds for span in window.by_name(
            "engine.maintenance.snapshot")],
        "ms",
        1e3,
    )
    metrics.timing(
        "engine.maintenance.write_us",
        [span.seconds for span in window.by_name(
            "engine.maintenance.write")],
        "us",
        1e6,
    )
    metrics.timing(
        "engine.views.refresh_ms",
        [span.seconds for span in window.by_name("engine.views.current")],
        "ms",
        1e3,
    )
    metrics.put(
        "engine.views.refreshes_per_read",
        refreshes / reads if reads else 0.0,
        "ratio",
        reads,
    )


def fill_missing(metrics: Metrics) -> None:
    """Zero, with ``n=0``, every layer this workload did not reach."""
    for name, unit in PER_LAYER:
        if name not in metrics.values:
            metrics.put(name, 0.0, unit, 0)

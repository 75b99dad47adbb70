"""Seeded inputs of the three workloads.

Relations come from ``repro.bench.workloads`` and are written as CSV
before any timed set-up, so the program only ever receives files.  The
call order (``query-heavy``), the arrival schedule (``serve-small``) and
the write seed (``live-updates``) are drawn from the same ``--seed``:
one seed always gives byte-identical inputs.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from common import use_source

#: Offered load of ``serve-small``, requests per second (a fixed rate,
#: not adapted to the machine).
SERVE_RATE = 150.0
#: Burst sizes of identical queries, drawn uniformly; a burst of ``b``
#: identical requests is one leader and ``b - 1`` coalescing followers.
SERVE_BURSTS = (1, 1, 2, 3)
SERVE_TENANTS = ("alpha", "beta", "gamma", "delta")
SERVE_CONNECTIONS = 2
#: The p99 latency limit of ``serve-small``.
SERVE_P99_LIMIT_MS = 100.0
#: A run is flagged when the generator's p99 lag exceeds this share of
#: the latency limit.
SERVE_LAG_FRACTION = 0.1

#: ``live-updates`` writes per step, by kind.
LIVE_BATCH = {
    "insert": 2,
    "delete": 2,
    "update_probability": 2,
    "update_score": 2,
}
LIVE_METHODS = ("expected_rank", "expected_rank_prune", "expected_score")

#: ``query-heavy`` cells: (method, relation, options, copies per round).
#: 23 of the 30 calls of a round (77%) are cheap (A/T-ERank, expected
#: score, T-ERank-Prune), 7 (23%) heavy (A-ERank-Prune, GF
#: median/quantile sweeps, quantile pruning).  Eight calls sort below
#: the 14 copies of A-ERank on ``attribute_uu`` and eight above, so the
#: median sits in the middle of that block, away from the boundary
#: between the two cost clusters, and the p90 among the GF sweeps.  One
#: A-ERank call varies widely (a full GC lands in about one call in
#: five), so the block holds twice the copies a 70% share would give
#: it, and a run's p50 is the median of 42-56 samples rather than 21-28.
QUERY_CELLS = (
    ("expected_score", "attribute_uu", {}, 1),
    ("expected_score", "attribute_zipf", {}, 1),
    ("expected_score", "tuple_uu", {}, 1),
    ("expected_rank_prune", "tuple_uu", {}, 2),
    ("expected_rank", "tuple_uu", {}, 3),
    ("expected_rank", "attribute_uu", {}, 14),
    ("expected_rank", "attribute_zipf", {}, 1),
    ("expected_rank_prune", "attribute_uu", {}, 1),
    ("expected_rank_prune", "attribute_zipf", {}, 1),
    ("median_rank", "attribute_uu", {}, 1),
    ("quantile_rank", "attribute_uu", {"phi": 0.9}, 1),
    ("median_rank", "tuple_uu", {}, 1),
    ("quantile_rank", "tuple_uu", {"phi": 0.9}, 1),
    ("quantile_rank_prune", "attribute_zipf", {"phi": 0.9}, 1),
)

#: Rounds of shuffled calls drawn for ``query-heavy``; a run uses as many
#: whole rounds as fit its window.
QUERY_ROUNDS = 200

SERVE_QUERIES = (
    ("expected_rank", "serve_attribute_uu"),
    ("expected_rank", "serve_tuple_uu"),
    ("expected_score", "serve_attribute_uu"),
    ("expected_score", "serve_tuple_uu"),
    ("expected_rank_prune", "serve_tuple_uu"),
)

#: Relation sizes at scale 1: (model, distribution, tuples).
RELATIONS = {
    "query-heavy": {
        "attribute_uu": ("attribute", "uu", 1000),
        "attribute_zipf": ("attribute", "zipf", 2000),
        "tuple_uu": ("tuple", "uu", 2000),
    },
    "serve-small": {
        "serve_attribute_uu": ("attribute", "uu", 200),
        "serve_tuple_uu": ("tuple", "uu", 200),
    },
    "live-updates": {
        "live_tuple_uu": ("tuple", "uu", 2500),
    },
}


def load(spec: dict):
    """Load one generated relation through ``repro.engine.io``.

    The loader is looked up at call time, so the traced run's shims on
    ``repro.engine.io`` see the call.
    """
    import repro.engine.io as io

    loader = (
        io.load_attribute_csv
        if spec["model"] == "attribute"
        else io.load_tuple_csv
    )
    return loader(spec["path"])


def cell_key(method: str, relation: str, relations: dict) -> str:
    """``<method>.<model>.<distribution>``, the core metric stem."""
    model, distribution, _ = relations[relation]
    return f"{method}.{model}.{distribution}"


def _write_relations(
    workload: str, seed: int, directory: Path, scale: float
) -> dict[str, dict]:
    use_source()
    from repro.bench.workloads import attribute_workload, tuple_workload
    from repro.engine.io import save_attribute_csv, save_tuple_csv

    written = {}
    for index, (name, (model, distribution, size)) in enumerate(
        RELATIONS[workload].items()
    ):
        count = max(20, int(size * scale))
        relation_seed = seed * 1009 + index
        path = directory / f"{name}.csv"
        if model == "attribute":
            save_attribute_csv(
                attribute_workload(distribution, count, seed=relation_seed),
                path,
            )
        else:
            save_tuple_csv(
                tuple_workload(distribution, count, seed=relation_seed),
                path,
            )
        written[name] = {
            "path": str(path),
            "model": model,
            "distribution": distribution,
            "tuples": count,
        }
    return written


def query_heavy(seed: int, directory: Path, scale: float) -> dict:
    relations = _write_relations("query-heavy", seed, directory, scale)
    layout = RELATIONS["query-heavy"]
    cells = [
        {
            "key": cell_key(method, relation, layout),
            "method": method,
            "relation": relation,
            "options": options,
            "copies": copies,
        }
        for method, relation, options, copies in QUERY_CELLS
    ]
    deck = [
        index
        for index, cell in enumerate(cells)
        for _ in range(cell["copies"])
    ]
    rng = random.Random(f"query-heavy:{seed}")
    rounds = []
    for _ in range(QUERY_ROUNDS):
        order = list(deck)
        rng.shuffle(order)
        rounds.append(order)
    return {"relations": relations, "cells": cells, "rounds": rounds}


def serve_schedule(seed: int, seconds: float) -> list[dict]:
    """Evenly spaced bursts of identical queries at :data:`SERVE_RATE`.

    Burst sizes and queries are dealt from shuffled decks, so every
    window of 20 bursts offers the same mix whatever the seed; the seed
    picks the order and the tenants.
    """
    rng = random.Random(f"serve-small:{seed}")
    mean_burst = sum(SERVE_BURSTS) / len(SERVE_BURSTS)
    interval = mean_burst / SERVE_RATE
    sizes: list[int] = []
    queries: list[int] = []
    bursts = []
    while len(bursts) * interval < seconds:
        if not sizes:
            sizes = list(SERVE_BURSTS)
            rng.shuffle(sizes)
        if not queries:
            queries = list(range(len(SERVE_QUERIES)))
            rng.shuffle(queries)
        bursts.append(
            {
                "offset": len(bursts) * interval,
                "query": queries.pop(),
                "tenants": [
                    rng.choice(SERVE_TENANTS) for _ in range(sizes.pop())
                ],
                "connection": len(bursts) % SERVE_CONNECTIONS,
            }
        )
    return bursts


def serve_small(seed: int, directory: Path, scale: float) -> dict:
    relations = _write_relations("serve-small", seed, directory, scale)
    layout = RELATIONS["serve-small"]
    queries = [
        {
            "key": cell_key(method, relation, layout),
            "method": method,
            "relation": relation,
        }
        for method, relation in SERVE_QUERIES
    ]
    return {"relations": relations, "queries": queries}


def live_updates(seed: int, directory: Path, scale: float) -> dict:
    relations = _write_relations("live-updates", seed, directory, scale)
    return {
        "relations": relations,
        "methods": list(LIVE_METHODS),
        "batch": LIVE_BATCH,
        "write_seed": f"live-updates:{seed}",
    }


GENERATORS = {
    "query-heavy": query_heavy,
    "serve-small": serve_small,
    "live-updates": live_updates,
}


def build(workload: str, seed: int, directory: Path, scale: float) -> dict:
    """Write the workload's inputs under ``directory``; return its plan."""
    plan = GENERATORS[workload](seed, directory, scale)
    plan.update(workload=workload, seed=seed, scale=scale)
    (directory / "plan.json").write_text(json.dumps(plan, indent=1))
    return plan

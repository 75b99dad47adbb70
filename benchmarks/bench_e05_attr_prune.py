"""E5 — A-ERank-Prune: tuples accessed against k, per distribution.

Reconstructs the pruning-power experiment: tuples are served in
decreasing expected-score order and the scan stops once the Markov
bounds certify the top-k.  The paper's shape: a small, k-dependent
prefix suffices; skewed (zipf) score distributions prune best because
the expected-score order separates tuples quickly, while flat uniform
scores are the hard case.
"""

from __future__ import annotations

from repro.bench import Table, attribute_workload, measure_seconds
from repro.core import a_erank_prune
from tests.oracles.pruning import a_erank_prune_pairwise

N = 2000
KS = (10, 20, 50, 100)
WORKLOADS = ("uu", "zipf", "norm")


def test_pruned_scan_stops_early(benchmark, record):
    table = Table(
        f"E5 — A-ERank-Prune tuples accessed (N={N}, s=5)",
        ["workload", *[f"k={k}" for k in KS]],
    )
    accessed: dict[str, list[int]] = {}
    for code in WORKLOADS:
        relation = attribute_workload(code, N)
        row = []
        for k in KS:
            result = a_erank_prune(relation, k)
            row.append(result.metadata["tuples_accessed"])
        accessed[code] = row
        table.add_row([code, *row])
    table.add_note(
        "paper shape: accessed prefix grows with k and never needs "
        "the full relation on skewed data"
    )
    record("e05_attr_prune", table)

    # Monotone in k for each workload (weakly).
    for code, row in accessed.items():
        assert row == sorted(row), (code, row)
    # Zipf (skewed) must prune much harder than uniform at small k.
    assert accessed["zipf"][0] < accessed["uu"][0]
    # Pruning must actually save accesses somewhere.
    assert min(accessed["zipf"]) < N

    relation = attribute_workload("zipf", N)
    benchmark.pedantic(
        a_erank_prune, args=(relation, 10), rounds=2, iterations=1
    )


def test_columnar_scan_against_pairwise_oracle(record, benchmark):
    """The columnar seen-state and the pairwise scan it replaced, timed
    in the same run: same prefix, same answer, less time."""
    table = Table(
        f"E5b — columnar vs pairwise A-ERank-Prune (k=10, N={N})",
        [
            "workload",
            "accessed",
            "columnar (s)",
            "pairwise (s)",
            "speed-up",
        ],
    )
    for code in WORKLOADS:
        relation = attribute_workload(code, N)
        columnar = a_erank_prune(relation, 10)
        oracle = a_erank_prune_pairwise(relation, 10)
        assert (
            columnar.metadata["tuples_accessed"]
            == oracle.metadata["tuples_accessed"]
        )
        assert columnar.tids() == oracle.tids()
        columnar_seconds = measure_seconds(
            lambda relation=relation: a_erank_prune(relation, 10),
            repeats=1,
        )
        oracle_seconds = measure_seconds(
            lambda relation=relation: a_erank_prune_pairwise(relation, 10),
            repeats=1,
        )
        table.add_row(
            [
                code,
                columnar.metadata["tuples_accessed"],
                columnar_seconds,
                oracle_seconds,
                oracle_seconds / columnar_seconds,
            ]
        )
    table.add_note(
        "same prefix and answer; the columnar seen-state folds the "
        "pairwise sums in numpy instead of a Python loop per arrival"
    )
    record("e05_attr_prune", table)

    # On the uniform workload (long scans) the columnar scan must win.
    rows = {row[0]: row for row in table.rows}
    assert rows["uu"][2] < rows["uu"][3]

    relation = attribute_workload("uu", N)
    benchmark.pedantic(
        a_erank_prune, args=(relation, 10), rounds=1, iterations=1
    )

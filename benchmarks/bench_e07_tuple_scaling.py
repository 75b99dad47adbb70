"""E7 — T-ERank versus brute force: running time against N.

Tuple-level twin of E3: T-ERank computes every expected rank from one
sorted pass with prefix sums (``O(N log N)`` including the sort),
against the direct ``O(N^2)`` pairwise evaluation of equation (7).
The same run times the columnar production kernel against the scalar
pass it replaced (``tests/oracles/expected_rank.py``), which it must
match bit for bit and beat.
"""

from __future__ import annotations

import pytest

from repro.bench import (
    Table,
    growth_exponent,
    measure_seconds,
    tuple_workload,
)
from repro.core import (
    tuple_expected_ranks,
    tuple_expected_ranks_vectorized,
)
from tests.oracles.expected_rank import (
    tuple_expected_ranks_quadratic,
    tuple_expected_ranks_scalar,
)

FAST_SIZES = (2000, 4000, 8000, 16000)
SLOW_SIZES = (250, 500, 1000, 2000)
SMOKE_SIZES = (500, 1000, 2000)


@pytest.mark.smoke
def test_smoke_t_erank_shape_and_agreement():
    """CI perf-smoke slice: a shrunken E7 with loose thresholds.

    Same contract as the full run — quasi-linear growth and agreement
    with the scalar oracle (bit for bit) and the vectorized pass — at
    sizes that finish in seconds.  No ``record`` fixture, so
    ``benchmarks/results/`` stays untouched.
    """
    times = {}
    for size in SMOKE_SIZES:
        relation = tuple_workload("uu", size)
        times[size] = measure_seconds(
            lambda relation=relation: tuple_expected_ranks(relation),
            repeats=2,
        )
    exponent = growth_exponent(
        list(SMOKE_SIZES), [times[s] for s in SMOKE_SIZES]
    )
    assert exponent < 1.8

    relation = tuple_workload("uu", SMOKE_SIZES[-1])
    fast = tuple_expected_ranks(relation)
    scalar = tuple_expected_ranks_scalar(relation)
    assert all(fast[tid].hex() == scalar[tid].hex() for tid in scalar)
    vectorized = tuple_expected_ranks_vectorized(relation)
    worst = max(abs(fast[tid] - vectorized[tid]) for tid in fast)
    assert worst < 1e-6


def test_t_erank_scales_quasilinearly(benchmark, record):
    fast_times = {}
    for size in FAST_SIZES:
        relation = tuple_workload("uu", size)
        fast_times[size] = measure_seconds(
            lambda relation=relation: tuple_expected_ranks(relation),
            repeats=3,
        )
    scalar_times = {}
    for size in FAST_SIZES:
        relation = tuple_workload("uu", size)
        scalar_times[size] = measure_seconds(
            lambda relation=relation: tuple_expected_ranks_scalar(relation),
            repeats=3,
        )
    slow_times = {}
    for size in SLOW_SIZES:
        relation = tuple_workload("uu", size)
        slow_times[size] = measure_seconds(
            lambda relation=relation: tuple_expected_ranks_quadratic(
                relation
            ),
            repeats=1,
        )

    table = Table(
        "E7 — T-ERank vs brute force (uu, 30% rules), seconds",
        ["N", "T-ERank (s)", "scalar oracle (s)", "BFS O(N^2) (s)"],
    )
    for size in sorted(set(FAST_SIZES) | set(SLOW_SIZES)):
        table.add_row(
            [
                size,
                fast_times.get(size, float("nan")),
                scalar_times.get(size, float("nan")),
                slow_times.get(size, float("nan")),
            ]
        )
    fast_exponent = growth_exponent(
        list(FAST_SIZES), [fast_times[s] for s in FAST_SIZES]
    )
    slow_exponent = growth_exponent(
        list(SLOW_SIZES), [slow_times[s] for s in SLOW_SIZES]
    )
    table.add_note(
        f"fitted exponents: T-ERank {fast_exponent:.2f} (paper: "
        f"~N log N), BFS {slow_exponent:.2f} (paper: ~N^2)"
    )
    table.add_note(
        "columnar speedup over the scalar oracle: "
        + ", ".join(
            f"N={size} {scalar_times[size] / fast_times[size]:.1f}x"
            for size in FAST_SIZES
        )
    )
    record("e07_tuple_scaling", table)

    assert fast_exponent < 1.5
    assert slow_exponent > 1.6
    assert fast_times[2000] < slow_times[2000]
    # The columnar kernel must beat the scalar pass it replaced.
    assert all(fast_times[s] < scalar_times[s] for s in FAST_SIZES)

    relation = tuple_workload("uu", 8000)
    benchmark(tuple_expected_ranks, relation)

"""E3 — A-ERank versus brute force: running time against N.

The paper's headline efficiency claim for the attribute-level model:
the exact A-ERank algorithm costs ``O(N log N)`` while the direct
equation-(3) evaluation (BFS) costs ``O(N^2)``.  Absolute numbers are
Python, not the authors' C++, so the assertion is about *shape*: the
fitted growth exponent of A-ERank stays near one while BFS approaches
two, and the speedup widens with N.  The same run also times the
columnar production kernel against the per-object scalar pass it
replaced (``tests/oracles/expected_rank.py``), which it must match bit
for bit and beat.
"""

from __future__ import annotations

import pytest

from repro.bench import (
    Table,
    attribute_workload,
    growth_exponent,
    measure_seconds,
)
from repro.core import (
    attribute_expected_ranks,
    attribute_expected_ranks_vectorized,
)
from tests.oracles.expected_rank import (
    attribute_expected_ranks_quadratic,
    attribute_expected_ranks_scalar,
)

FAST_SIZES = (1000, 2000, 4000, 8000)
SLOW_SIZES = (125, 250, 500, 1000)
VECTOR_SIZES = (8000, 16000, 32000, 64000)
SMOKE_SIZES = (500, 1000, 2000)


@pytest.mark.smoke
def test_smoke_a_erank_shape_and_agreement():
    """CI perf-smoke slice: a shrunken E3 with loose thresholds.

    Keeps the two load-bearing claims — quasi-linear growth of the
    exact pass and its agreement with the scalar oracle (bit for bit)
    and the vectorized kernel — at sizes that finish in seconds.  The
    ``record`` fixture is deliberately not used so the smoke run never
    rewrites ``benchmarks/results/``.
    """
    times = {}
    for size in SMOKE_SIZES:
        relation = attribute_workload("uu", size)
        times[size] = measure_seconds(
            lambda relation=relation: attribute_expected_ranks(relation),
            repeats=2,
        )
    exponent = growth_exponent(
        list(SMOKE_SIZES), [times[s] for s in SMOKE_SIZES]
    )
    # Generous bound: tiny inputs are noisy, O(N^2) would show ~2.
    assert exponent < 1.8

    relation = attribute_workload("uu", SMOKE_SIZES[-1])
    fast = attribute_expected_ranks(relation)
    scalar = attribute_expected_ranks_scalar(relation)
    assert all(fast[tid].hex() == scalar[tid].hex() for tid in scalar)
    vectorized = attribute_expected_ranks_vectorized(relation)
    worst = max(abs(fast[tid] - vectorized[tid]) for tid in fast)
    assert worst < 1e-6


def test_a_erank_scales_quasilinearly(benchmark, record):
    fast_times = {}
    for size in FAST_SIZES:
        relation = attribute_workload("uu", size)
        fast_times[size] = measure_seconds(
            lambda relation=relation: attribute_expected_ranks(relation),
            repeats=3,
        )
    scalar_times = {}
    for size in FAST_SIZES:
        relation = attribute_workload("uu", size)
        scalar_times[size] = measure_seconds(
            lambda relation=relation: attribute_expected_ranks_scalar(
                relation
            ),
            repeats=3,
        )
    slow_times = {}
    for size in SLOW_SIZES:
        relation = attribute_workload("uu", size)
        slow_times[size] = measure_seconds(
            lambda relation=relation: attribute_expected_ranks_quadratic(
                relation
            ),
            repeats=1,
        )

    table = Table(
        "E3 — A-ERank vs brute force (uu, s=5), seconds per full pass",
        ["N", "A-ERank (s)", "scalar oracle (s)", "BFS O(N^2) (s)"],
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
        f"fitted exponents: A-ERank {fast_exponent:.2f} (paper: "
        f"~N log N), BFS {slow_exponent:.2f} (paper: ~N^2)"
    )
    table.add_note(
        "columnar speedup over the scalar oracle: "
        + ", ".join(
            f"N={size} {scalar_times[size] / fast_times[size]:.1f}x"
            for size in FAST_SIZES
        )
    )
    record("e03_attr_scaling", table)

    assert fast_exponent < 1.5
    assert slow_exponent > 1.6
    # At the shared size the fast algorithm must win outright.
    assert fast_times[1000] < slow_times[1000]
    # The columnar kernel must beat the scalar pass it replaced.
    assert all(fast_times[s] < scalar_times[s] for s in FAST_SIZES)

    relation = attribute_workload("uu", 4000)
    benchmark(attribute_expected_ranks, relation)


def test_vectorized_fast_path_scales_further(record, benchmark):
    """The ``np.add.at`` batch evaluation, perfbench's cross-check,
    extends the N sweep by another 8x while agreeing with A-ERank."""
    times = {}
    for size in VECTOR_SIZES:
        relation = attribute_workload("uu", size)
        times[size] = measure_seconds(
            lambda relation=relation: attribute_expected_ranks_vectorized(
                relation
            ),
            repeats=3,
        )
    table = Table(
        "E3b — vectorized A-ERank (numpy batch), seconds per pass",
        ["N", "vectorized (s)"],
    )
    for size in VECTOR_SIZES:
        table.add_row([size, times[size]])
    exponent = growth_exponent(
        list(VECTOR_SIZES), [times[s] for s in VECTOR_SIZES]
    )
    table.add_note(
        f"fitted exponent {exponent:.2f}; same O(S log S) shape as "
        "the columnar A-ERank"
    )
    record("e03_attr_scaling", table)

    assert exponent < 1.5
    relation = attribute_workload("uu", 8000)
    fast = attribute_expected_ranks(relation)
    vectorized = attribute_expected_ranks_vectorized(relation)
    worst = max(
        abs(fast[tid] - vectorized[tid]) for tid in fast
    )
    assert worst < 1e-6

    benchmark(attribute_expected_ranks_vectorized, relation)

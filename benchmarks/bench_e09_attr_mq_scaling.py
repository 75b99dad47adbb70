"""E9 — A-MQRank running time against N (the O(N^3) dynamic program).

Section 7's stated complexity for attribute-level median/quantile
ranks is cubic in N (for constant pdf size): each of the N tuples
mixes s Poisson-binomial convolutions of quadratic cost.  The fitted
growth exponent should sit clearly above the quasi-linear expected-
rank algorithms and approach three.  The shape tests call
``attribute_rank_distributions_dp`` — the production entry point is
now the quadratic generating-function sweep, whose speedup and parity
the smoke test gates.
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
    attribute_rank_distributions,
    attribute_rank_distributions_dp,
)

SIZES = (40, 80, 160, 320)

#: Smoke sizes: the legacy DP is measured at the small size and
#: extrapolated cubically; the GF engine is measured at the large one.
SMOKE_DP_N = 256
SMOKE_GF_N = 1024


@pytest.mark.smoke
def test_smoke_gf_speedup_and_parity():
    """CI perf-smoke slice: the generating-function engine's gate.

    Two load-bearing claims: (a) the GF sweep matches the Section 7
    DP exactly (1e-9) where the DP is still affordable, and (b) at
    N >= 1000 it is at least 50x faster than the DP's cubic cost,
    extrapolated from a small measured size so the smoke job never
    pays the cubic bill.  Ratios are machine-relative, so the gate is
    stable across runner speeds.
    """
    relation = attribute_workload("uu", SMOKE_DP_N, pdf_size=3)
    dp_seconds = measure_seconds(
        lambda: attribute_rank_distributions_dp(relation),
        repeats=1,
    )
    gf = attribute_rank_distributions(relation)
    dp = attribute_rank_distributions_dp(relation)
    assert all(gf[tid].allclose(dp[tid], atol=1e-9) for tid in dp)

    large = attribute_workload("uu", SMOKE_GF_N, pdf_size=3)
    gf_seconds = measure_seconds(
        lambda: attribute_rank_distributions(large),
        repeats=2,
    )
    dp_estimate = dp_seconds * (SMOKE_GF_N / SMOKE_DP_N) ** 3
    assert dp_estimate / gf_seconds >= 50.0


def test_a_mqrank_is_cubic_shaped(benchmark, record):
    times = {}
    for size in SIZES:
        relation = attribute_workload("uu", size, pdf_size=3)
        times[size] = measure_seconds(
            lambda relation=relation: attribute_rank_distributions_dp(
                relation
            ),
            repeats=1,
        )

    table = Table(
        "E9 — A-MQRank (full rank distributions) time vs N (s=3)",
        ["N", "seconds"],
    )
    for size in SIZES:
        table.add_row([size, times[size]])
    exponent = growth_exponent(list(SIZES), [times[s] for s in SIZES])
    table.add_note(
        f"fitted exponent {exponent:.2f} (paper: O(N^3); convolution "
        "vectors are numpy, so small N is overhead-dominated)"
    )
    record("e09_attr_mq_scaling", table)

    # Clearly super-quadratic territory and far above the O(N log N)
    # expected-rank pass.
    assert exponent > 1.8

    relation = attribute_workload("uu", 160, pdf_size=3)
    benchmark.pedantic(
        attribute_rank_distributions_dp,
        args=(relation,),
        rounds=1,
        iterations=1,
    )

"""Monte-Carlo expected ranks with certified early stopping.

Before this paper's exact algorithms, the generic approach to any
query over a probabilistic database was Monte-Carlo simulation over
possible worlds ([26], [34] in the paper's related work).  This module
implements that alternative honestly, so the benchmarks can quantify
what the exact ``O(N log N)`` algorithms buy:

* worlds are sampled in batches and every tuple's rank is averaged;
* ranks live in ``[0, N]``, so Hoeffding's inequality gives a
  simultaneous confidence band (union bound over tuples) of half-width
  ``(N) * sqrt(ln(2 N / delta) / (2 m))`` after ``m`` samples;
* sampling stops once the band *certifies* the top-k: the k-th
  smallest upper band sits below every other tuple's lower band — or
  when the sample budget runs out, in which case the answer is the
  best estimate and ``metadata["certified"]`` is false.

The experiment E18 shows the certified sample count explodes with N
(the band shrinks as ``1/sqrt(m)`` while rank gaps shrink as ``1/N``),
which is precisely the paper's case for exact algorithms.
"""

from __future__ import annotations

import math
import random

from repro.core.result import TopKResult, top_k_result
from repro.exceptions import RankingError
from repro.models.attribute import AttributeLevelRelation
from repro.models.possible_worlds import TieRule, _check_ties
from repro.models.sampling import (
    sample_attribute_rank_counts,
    sample_tuple_rank_counts,
)
from repro.models.tuple_level import TupleLevelRelation

__all__ = ["mc_expected_rank"]

Relation = AttributeLevelRelation | TupleLevelRelation


def _hoeffding_half_width(
    rank_bound: float, samples: int, delta: float, tuples: int
) -> float:
    """Simultaneous CI half-width for all tuples' mean ranks."""
    per_tuple_delta = delta / tuples
    return rank_bound * math.sqrt(
        math.log(2.0 / per_tuple_delta) / (2.0 * samples)
    )


def mc_expected_rank(
    relation: Relation,
    k: int,
    *,
    confidence: float = 0.95,
    batch: int = 500,
    max_samples: int = 50_000,
    ties: TieRule = "shared",
    rng=None,
) -> TopKResult:
    """Top-k by sampled expected ranks, with certification.

    Returns the k tuples with the smallest estimated expected ranks.
    ``metadata`` reports ``samples``, the final ``half_width`` of the
    simultaneous confidence band, and ``certified`` — whether the band
    proves the reported set is the true expected-rank top-k at the
    requested ``confidence``.
    """
    if k < 0:
        raise RankingError(f"k must be >= 0, got {k!r}")
    if not 0.0 < confidence < 1.0:
        raise RankingError(
            f"confidence must be in (0, 1), got {confidence!r}"
        )
    if batch < 1 or max_samples < batch:
        raise RankingError(
            f"need 1 <= batch <= max_samples, got {batch!r}, "
            f"{max_samples!r}"
        )
    _check_ties(ties)
    if not isinstance(rng, random.Random):
        rng = random.Random(rng)

    size = relation.size
    sums = {tid: 0.0 for tid in relation.tids()}
    samples = 0
    delta = 1.0 - confidence
    certified = False
    half_width = math.inf

    if isinstance(relation, AttributeLevelRelation):
        sampler = sample_attribute_rank_counts
    else:
        sampler = sample_tuple_rank_counts

    while samples < max_samples:
        counts = sampler(relation, batch, ties=ties, rng=rng)
        for tid, histogram in counts.items():
            sums[tid] += sum(
                rank * count for rank, count in histogram.items()
            )
        samples += batch
        if k == 0 or k >= size:
            certified = True
            half_width = _hoeffding_half_width(
                float(size), samples, delta, size
            )
            break
        half_width = _hoeffding_half_width(
            float(size), samples, delta, size
        )
        means = sorted(value / samples for value in sums.values())
        kth_upper = means[k - 1] + half_width
        next_lower = means[k] - half_width
        if kth_upper < next_lower:
            certified = True
            break

    return top_k_result(
        "mc_expected_rank",
        k,
        {tid: value / samples for tid, value in sums.items()},
        relation.tids(),
        {
            "samples": samples,
            "certified": certified,
            "half_width": half_width,
            "confidence": confidence,
            "ties": ties,
        },
    )

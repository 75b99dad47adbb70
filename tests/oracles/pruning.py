"""Pairwise pruning scans: the reference for the columnar seen-state.

These are the original per-arrival implementations of A-ERank-Prune
and the attribute-level quantile-rank pruner.  Each arrival walks the
whole seen set, calling :func:`beat_probability` twice per pair, and
every halting check recomputes each seen tuple's Markov tail in
Python.  The production scans in :mod:`repro.core.attr_expected_rank`
and :mod:`repro.core.attr_mq_rank` fold the same sums in the same
order over padded numpy columns, so the parity tests require
*bit-identical* bounds, not just equal answers.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterator

from hypothesis import strategies as st

from repro.core.attr_expected_rank import attribute_expected_ranks
from repro.core.attr_mq_rank import (
    _markov_quantile_upper,
    _method_name,
    _seen_quantile_upper,
    _unseen_quantile_lower,
    a_mqrank,
)
from repro.core.beats import beat_probability, value_beat_probability
from repro.core.result import TopKResult, top_k_result
from repro.exceptions import PruningBoundError, RankingError
from repro.models.attribute import AttributeLevelRelation, AttributeTuple
from repro.models.pdf import DiscretePDF
from repro.models.possible_worlds import TieRule, _check_ties
from repro.obs import get_registry

__all__ = [
    "PairwiseSeenTuple",
    "a_erank_prune_pairwise",
    "a_mqrank_prune_pairwise",
    "pairwise_arrivals",
    "prune_relations",
]


class PairwiseSeenTuple:
    """Per-tuple pruning state: seen-beats sum and Markov tail shape."""

    __slots__ = ("row", "position", "seen_term")

    def __init__(self, row: AttributeTuple, position: int) -> None:
        self.row = row
        self.position = position
        # sum over seen j != i of Pr[X_j beats X_i]
        self.seen_term = 0.0

    def markov_tail(self, expectation_bound: float) -> float:
        """``sum_l p_{i,l} min(1, E / v_{i,l})`` — clamped equation 5/6
        term."""
        tail = 0.0
        for value, probability in self.row.score.items():
            tail += probability * min(1.0, expectation_bound / value)
        return tail


def _admit(
    seen: list[PairwiseSeenTuple],
    arriving: PairwiseSeenTuple,
    ties: TieRule,
) -> None:
    """Update every pairwise seen-beats sum for one arrival."""
    for other in seen:
        other.seen_term += beat_probability(
            arriving.row.score,
            other.row.score,
            challenger_is_earlier=arriving.position < other.position,
            ties=ties,
        )
        arriving.seen_term += beat_probability(
            other.row.score,
            arriving.row.score,
            challenger_is_earlier=other.position < arriving.position,
            ties=ties,
        )
    seen.append(arriving)


def pairwise_arrivals(
    relation: AttributeLevelRelation, ties: TieRule
) -> Iterator[list[PairwiseSeenTuple]]:
    """The pairwise seen set after each arrival, in access order."""
    seen: list[PairwiseSeenTuple] = []
    for row in relation.order_by_expected_score():
        _admit(
            seen,
            PairwiseSeenTuple(row, relation.position_of(row.tid)),
            ties,
        )
        yield seen


def _check_positive(relation: AttributeLevelRelation) -> None:
    for row in relation:
        if row.score.min_value <= 0.0:
            raise PruningBoundError(
                f"tuple {row.tid!r} has score {row.score.min_value!r}; "
                "the Markov bounds require strictly positive scores"
            )


def _curtail(
    relation: AttributeLevelRelation, seen: list[PairwiseSeenTuple]
) -> AttributeLevelRelation:
    return AttributeLevelRelation(
        sorted(
            (entry.row for entry in seen),
            key=lambda candidate: relation.position_of(candidate.tid),
        )
    )


def a_erank_prune_pairwise(
    relation: AttributeLevelRelation,
    k: int,
    *,
    ties: TieRule = "shared",
) -> TopKResult:
    """A-ERank-Prune with the ``O(seen)`` Python loop per arrival."""
    if k < 0:
        raise RankingError(f"k must be >= 0, got {k!r}")
    _check_ties(ties)
    if k == 0:
        return top_k_result(
            "expected_rank_prune",
            0,
            {},
            (),
            {
                "tuples_accessed": 0,
                "halted_early": True,
                "exact": False,
                "ties": ties,
            },
        )
    _check_positive(relation)

    access_order = relation.order_by_expected_score()
    total = relation.size
    seen: list[PairwiseSeenTuple] = []
    halted_early = False
    trajectory: list[dict] | None = (
        [] if get_registry().enabled else None
    )
    stride = max(1, total // 64)

    for row, seen in zip(access_order, pairwise_arrivals(relation, ties)):
        n = len(seen)
        if n < k or n == total:
            continue
        expectation_bound = row.expected_score()
        tails = [entry.markov_tail(expectation_bound) for entry in seen]
        unseen_count = total - n
        upper_bounds = [
            entry.seen_term + unseen_count * tail
            for entry, tail in zip(seen, tails)
        ]
        lower_bound = n - math.fsum(tails)
        kth_upper = heapq.nsmallest(k, upper_bounds)[-1]
        halting = kth_upper < lower_bound
        if trajectory is not None and (
            halting or n % stride == 0 or n == total
        ):
            trajectory.append(
                {
                    "accessed": n,
                    "kth_rank": kth_upper,
                    "unseen_bound": lower_bound,
                }
            )
        if halting:
            halted_early = True
            break

    curtailed = _curtail(relation, seen)
    metadata: dict[str, object] = {
        "tuples_accessed": len(seen),
        "halted_early": halted_early,
        "exact": len(seen) == total,
        "ties": ties,
    }
    if trajectory is not None:
        metadata["prune_trajectory"] = tuple(trajectory)
    return top_k_result(
        "expected_rank_prune",
        k,
        attribute_expected_ranks(curtailed, ties=ties),
        curtailed.tids(),
        metadata,
    )


def a_mqrank_prune_pairwise(
    relation: AttributeLevelRelation,
    k: int,
    *,
    phi: float = 0.5,
    ties: TieRule = "by_index",
    check_every: int = 16,
    tight_bounds: bool = True,
) -> TopKResult:
    """The quantile-rank pruner over pairwise seen-state."""
    if k < 0:
        raise RankingError(f"k must be >= 0, got {k!r}")
    if not 0.0 < phi < 1.0:
        raise RankingError(f"phi must be in (0, 1), got {phi!r}")
    _check_ties(ties)
    if check_every < 1:
        raise RankingError(
            f"check_every must be >= 1, got {check_every!r}"
        )
    _check_positive(relation)

    access_order = relation.order_by_expected_score()
    total = relation.size
    seen: list[PairwiseSeenTuple] = []
    halted_early = False

    for row, seen in zip(access_order, pairwise_arrivals(relation, ties)):
        n = len(seen)
        if n < max(k, 1) or n == total or n % check_every:
            continue
        expectation_bound = row.expected_score()
        unseen_count = total - n
        lower = _unseen_quantile_lower(
            [entry.row for entry in seen], expectation_bound, phi
        )
        if k == 0:
            halted_early = True
            break
        if lower == 0:
            continue
        markov_uppers = []
        for entry in seen:
            rank_upper = entry.seen_term + unseen_count * entry.markov_tail(
                expectation_bound
            )
            markov_uppers.append(
                (_markov_quantile_upper(rank_upper, phi), entry)
            )
        markov_uppers.sort(key=lambda pair: pair[0])
        candidates = markov_uppers[:k]
        if tight_bounds:
            uppers = [
                _seen_quantile_upper(
                    entry.row.score,
                    [
                        [
                            value_beat_probability(
                                other.row.score,
                                value,
                                challenger_is_earlier=other.position
                                < entry.position,
                                ties=ties,
                            )
                            for other in seen
                            if other is not entry
                        ]
                        for value in entry.row.score.values
                    ],
                    unseen_count,
                    expectation_bound,
                    phi,
                    markov_cap,
                )
                for markov_cap, entry in candidates
            ]
        else:
            uppers = [markov_cap for markov_cap, _ in candidates]
        if max(uppers) < lower:
            halted_early = True
            break

    exact_on_seen = a_mqrank(
        _curtail(relation, seen), k, phi=phi, ties=ties
    )
    return TopKResult(
        method=f"{_method_name(phi)}_prune",
        k=k,
        items=exact_on_seen.items,
        statistics=exact_on_seen.statistics,
        metadata={
            "tuples_accessed": len(seen),
            "halted_early": halted_early,
            "exact": len(seen) == total,
            "phi": phi,
            "ties": ties,
        },
    )


#: Few distinct, skewed scores: duplicate values across tuples, and
#: repeated pdfs give equal expected scores.
_PRUNE_VALUES = (1.0, 2.0, 3.0, 5.0, 8.0, 20.0, 60.0, 150.0, 400.0)


@st.composite
def prune_relations(draw):
    """Up to 40 tuples drawn from up to 8 pdfs of 1-4 entries each."""
    pdfs = draw(
        st.lists(
            st.lists(
                st.tuples(
                    st.sampled_from(_PRUNE_VALUES), st.integers(1, 9)
                ),
                min_size=1,
                max_size=4,
                unique_by=lambda pair: pair[0],
            ),
            min_size=1,
            max_size=8,
        )
    )
    picks = draw(
        st.lists(st.integers(0, len(pdfs) - 1), min_size=1, max_size=40)
    )
    return AttributeLevelRelation(
        [
            AttributeTuple(
                f"t{index}",
                DiscretePDF.from_pairs(pdfs[pick], normalize=True),
            )
            for index, pick in enumerate(picks)
        ]
    )

"""Expected ranks in the tuple-level model (paper Section 6).

* :func:`t_erank` — exact ``O(N log N)`` computation (Section 6.1).
  With tuples sorted by score and ``q_i = sum_{j < i} p(t_j)``,
  equation (8) evaluates each tuple's expected rank in constant time
  from three per-tuple aggregates: the probability mass ranked above
  it, the mass of its own rule, and the expected world size
  ``E[|W|] = sum_t p(t)``.  The three terms of equation (7) are:
  rank while present (independent higher tuples outside the rule),
  the same-rule mass (conditioned on absence the rule renormalises,
  and the ``(1 - p)`` factor cancels), and the rest of the world's
  expected size while absent.  :func:`tuple_expected_ranks` is the
  only production kernel: one columnar pass.  The scalar pass and the
  ``O(N^2)`` BFS it is checked against live in
  ``tests/oracles/expected_rank.py``.

* :func:`t_erank_prune` — the early-stop scan (Section 6.2).  Only
  ``E[|W|]`` is needed up front; tuples arrive in decreasing score
  order, each seen tuple's expected rank is *exact* (equation 8 only
  references higher-score tuples plus the tuple's own rule, which is
  stored with it), and every unseen tuple's rank is at least
  ``q_n - 1`` (equation 9).  The scan stops once the k-th smallest
  exact rank falls below that bound.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from repro.core.columnar import equal_runs, fold_runs
from repro.core.result import TopKResult, top_k_result
from repro.exceptions import RankingError
from repro.models.possible_worlds import TieRule, _check_ties
from repro.models.tuple_level import TupleLevelRelation, TupleLevelTuple
from repro.obs import count, get_registry, profiled

__all__ = [
    "tuple_expected_ranks",
    "tuple_expected_ranks_vectorized",
    "t_erank",
    "t_erank_prune",
]


def _beats(
    challenger: TupleLevelTuple,
    target: TupleLevelTuple,
    positions: dict[str, int],
    ties: TieRule,
) -> bool:
    """Whether ``challenger`` ranks above ``target`` when both appear."""
    if challenger.score > target.score:
        return True
    # Ties are exact equality of input scores.  # repro: noqa RPR002
    if ties == "by_index" and challenger.score == target.score:
        return positions[challenger.tid] < positions[target.tid]
    return False


def _rule_aggregates(
    relation: TupleLevelRelation,
    row: TupleLevelTuple,
    positions: dict[str, int],
    ties: TieRule,
) -> tuple[float, float]:
    """(mass of same-rule tuples that beat ``row``, total same-rule mass).

    Both sums exclude ``row`` itself.  Rules have constant size, so
    this is ``O(1)`` per tuple in the paper's cost model.
    """
    beating = 0.0
    total = 0.0
    for tid in relation.rule_of(row.tid):
        if tid == row.tid:
            continue
        other = relation.tuple_by_id(tid)
        total += other.probability
        if _beats(other, row, positions, ties):
            beating += other.probability
    return beating, total


def _expected_rank(
    row: TupleLevelTuple,
    higher_mass: float,
    same_rule_higher: float,
    same_rule_total: float,
    expected_world_size: float,
) -> float:
    """Equation (7)/(8) of the paper for one tuple.

    ``higher_mass`` is the total probability mass of tuples that beat
    ``row`` (over the whole relation); the same-rule portions are
    subtracted / added per the three-term decomposition.
    """
    present_term = row.probability * (higher_mass - same_rule_higher)
    absent_rest = expected_world_size - row.probability - same_rule_total
    return (
        present_term
        + same_rule_total
        + (1.0 - row.probability) * absent_rest
    )


@profiled("t_erank")
def tuple_expected_ranks(
    relation: TupleLevelRelation,
    *,
    ties: TieRule = "shared",
) -> dict[str, float]:
    """Exact expected rank of every tuple — the core of T-ERank.

    One sort by score gives each tuple's higher mass as a prefix sum
    over tie groups; the same-rule aggregates touch multi-member rules
    only, and equation (8) is then one elementwise pass.  Every sum
    folds in the order of the scalar reference
    (``tests/oracles/expected_rank.py``) — ``math.fsum`` per tie group,
    group sums left to right, rule members in rule order — so the
    ranks are bit-identical to it.
    """
    _check_ties(ties)
    size = relation.size
    count("t_erank.tuples_accessed", size)
    if not size:
        return {}
    scores = np.fromiter((row.score for row in relation), float, size)
    probs = np.fromiter((row.probability for row in relation), float, size)

    # Score-descending, ties by insertion order: order_by_score().
    order = np.lexsort((np.arange(size), -scores))
    sorted_scores = scores[order]
    sorted_probs = probs[order]
    starts, sizes = equal_runs(sorted_scores)
    group_mass = sorted_probs[starts]
    for group in np.flatnonzero(sizes > 1).tolist():
        start = starts[group]
        group_mass[group] = math.fsum(
            sorted_probs[start : start + sizes[group]].tolist()
        )
    # Mass strictly above each tie group, accumulated from 0.0.
    running = np.cumsum(np.concatenate(([0.0], group_mass)))[:-1]
    if ties == "shared":
        higher_sorted = np.repeat(running, sizes)
    else:
        # Earlier members of the tie group also beat.
        higher_sorted = fold_runs(starts, sizes, sorted_probs, running)
    higher_mass = np.empty(size)
    higher_mass[order] = higher_sorted

    # Same-rule sums, folded in rule-member order; singleton rules
    # contribute nothing.
    same_rule_higher = np.zeros(size)
    same_rule_total = np.zeros(size)
    score_of = scores.tolist()
    probability_of = probs.tolist()
    for rule in relation.rules:
        if len(rule) < 2:
            continue
        members = [relation.position_of(tid) for tid in rule]
        for target in members:
            beating = 0.0
            total = 0.0
            for other in members:
                if other == target:
                    continue
                total += probability_of[other]
                if score_of[other] > score_of[target] or (
                    ties == "by_index"
                    # Exact input-score ties.  # repro: noqa RPR002
                    and score_of[other] == score_of[target]
                    and other < target
                ):
                    beating += probability_of[other]
            same_rule_higher[target] = beating
            same_rule_total[target] = total

    # Equation (8) in _expected_rank's operand order.
    present = probs * (higher_mass - same_rule_higher)
    absent_rest = relation.expected_world_size() - probs - same_rule_total
    ranks = present + same_rule_total + (1.0 - probs) * absent_rest
    return dict(zip(relation.tids(), ranks.tolist()))


@profiled("t_erank_vectorized")
def tuple_expected_ranks_vectorized(
    relation: TupleLevelRelation,
    *,
    ties: TieRule = "shared",
) -> dict[str, float]:
    """Numpy batch evaluation of equation (8) — the T-ERank arithmetic
    as a handful of vector operations.

    One argsort by score yields the higher-probability-mass prefix
    sums (strictly-greater under ``shared`` ties via tie-group
    boundaries); rule aggregates are accumulated with ``np.add.at``
    over rule indices.  Not on the production path: its sums fold in a
    different order than :func:`tuple_expected_ranks`, so ranks can
    differ in the last bit.  Kept as an independent cross-check for
    the end-to-end benchmark.
    """
    _check_ties(ties)
    size = relation.size
    count("t_erank_vectorized.tuples_accessed", size)
    if size == 0:
        return {}
    scores = np.array([row.score for row in relation])
    probabilities = np.array([row.probability for row in relation])
    expected_world_size = float(probabilities.sum())

    # Sorted by (score desc, insertion asc): lexsort on (index, -score).
    order = np.lexsort((np.arange(size), -scores))
    sorted_probabilities = probabilities[order]
    exclusive_prefix = np.concatenate(
        ([0.0], np.cumsum(sorted_probabilities)[:-1])
    )
    if ties == "by_index":
        higher_sorted = exclusive_prefix
    else:
        sorted_scores = scores[order]
        is_new_group = np.empty(size, dtype=bool)
        is_new_group[0] = True
        np.not_equal(
            sorted_scores[1:], sorted_scores[:-1], out=is_new_group[1:]
        )
        group_ids = np.cumsum(is_new_group) - 1
        group_starts = np.nonzero(is_new_group)[0]
        higher_sorted = exclusive_prefix[group_starts][group_ids]
    higher_mass = np.empty(size)
    higher_mass[order] = higher_sorted

    # Per-rule aggregates: total mass and mass beating each member.
    rule_index_of: dict[str, int] = {}
    rule_ids = np.empty(size, dtype=np.int64)
    for index, row in enumerate(relation):
        rule = relation.rule_of(row.tid)
        rule_ids[index] = rule_index_of.setdefault(
            rule.rule_id, len(rule_index_of)
        )
    rule_count = len(rule_index_of)
    rule_mass = np.zeros(rule_count)
    np.add.at(rule_mass, rule_ids, probabilities)
    same_rule_total = rule_mass[rule_ids] - probabilities

    # Mass of same-rule tuples that beat each member: rules are small,
    # so a per-rule pass is cheap (O(sum |rule|^2) = O(N) for constant
    # rule sizes).
    same_rule_higher = np.zeros(size)
    members_of: dict[int, list[int]] = {}
    for index in range(size):
        members_of.setdefault(int(rule_ids[index]), []).append(index)
    for members in members_of.values():
        if len(members) < 2:
            continue
        for target in members:
            total = 0.0
            for challenger in members:
                if challenger == target:
                    continue
                if scores[challenger] > scores[target] or (
                    ties == "by_index"
                    and scores[challenger] == scores[target]
                    and challenger < target
                ):
                    total += probabilities[challenger]
            same_rule_higher[target] = total

    present = probabilities * (higher_mass - same_rule_higher)
    absent_rest = (
        expected_world_size - probabilities - same_rule_total
    )
    ranks = (
        present
        + same_rule_total
        + (1.0 - probabilities) * absent_rest
    )
    return {
        row.tid: float(ranks[index])
        for index, row in enumerate(relation)
    }


def t_erank(
    relation: TupleLevelRelation,
    k: int,
    *,
    ties: TieRule = "shared",
) -> TopKResult:
    """Exact top-k by expected rank (algorithm T-ERank)."""
    if k < 0:
        raise RankingError(f"k must be >= 0, got {k!r}")
    return top_k_result(
        "expected_rank",
        k,
        tuple_expected_ranks(relation, ties=ties),
        relation.tids(),
        {"tuples_accessed": relation.size, "exact": True, "ties": ties},
    )


@profiled("t_erank_prune")
def t_erank_prune(
    relation: TupleLevelRelation,
    k: int,
    *,
    ties: TieRule = "shared",
) -> TopKResult:
    """Early-stop top-k by expected rank (algorithm T-ERank-Prune).

    Assumes (as the paper does) that ``E[|W|]`` is maintained by the
    store and that accessing a tuple also reveals its exclusion rule.
    Each scanned tuple's expected rank is exact; the scan stops as soon
    as the k-th smallest of them is at most the unseen lower bound.

    The unseen bound used is ``G_n - 1`` where ``G_n`` is the seen mass
    with score *strictly above* the current tuple's — equal to the
    paper's ``q_n - 1`` when scores are distinct, and still sound in
    the presence of ties under either tie rule.
    """
    if k < 0:
        raise RankingError(f"k must be >= 0, got {k!r}")
    _check_ties(ties)
    positions = {row.tid: index for index, row in enumerate(relation)}
    ordered = relation.order_by_score()
    expected_world_size = relation.expected_world_size()

    ranks_seen: dict[str, float] = {}
    # Max-heap (negated) of the k smallest exact ranks seen so far.
    worst_of_best: list[float] = []
    halted_early = False
    accessed = 0

    # Bound trajectory for EXPLAIN: only while observability is on
    # (the disabled path pays one pointer compare per tuple), and
    # downsampled to a bounded number of points.
    trajectory: list[dict] | None = (
        [] if get_registry().enabled else None
    )
    stride = max(1, len(ordered) // 64)

    running = 0.0  # mass of all tuples scanned so far
    strict_before_group = 0.0  # mass with score strictly above current
    group_running = 0.0  # by-index exclusive mass within the tie group
    previous_score: float | None = None

    for row in ordered:
        # previous_score is a copied input score.  # repro: noqa RPR002
        if previous_score is None or row.score != previous_score:
            strict_before_group = running
            group_running = running
            previous_score = row.score
        higher_mass = (
            strict_before_group if ties == "shared" else group_running
        )
        group_running += row.probability
        running += row.probability
        accessed += 1

        same_rule_higher, same_rule_total = _rule_aggregates(
            relation, row, positions, ties
        )
        rank = _expected_rank(
            row,
            higher_mass,
            same_rule_higher,
            same_rule_total,
            expected_world_size,
        )
        ranks_seen[row.tid] = rank

        if len(worst_of_best) < k:
            heapq.heappush(worst_of_best, -rank)
        elif k > 0 and rank < -worst_of_best[0]:
            heapq.heapreplace(worst_of_best, -rank)

        if k == 0:
            halted_early = True
            break
        unseen_bound = strict_before_group - 1.0
        halting = (
            len(worst_of_best) == k and -worst_of_best[0] <= unseen_bound
        )
        if trajectory is not None and (
            halting or accessed % stride == 0 or accessed == len(ordered)
        ):
            trajectory.append(
                {
                    "accessed": accessed,
                    "kth_rank": (
                        -worst_of_best[0]
                        if len(worst_of_best) == k
                        else None
                    ),
                    "unseen_bound": unseen_bound,
                }
            )
        if halting:
            halted_early = True
            break

    count("t_erank_prune.tuples_accessed", accessed)
    if halted_early:
        count("t_erank_prune.halted_early")
    metadata: dict[str, object] = {
        "tuples_accessed": accessed,
        "halted_early": halted_early,
        "exact": True,  # seen ranks are exact, and the top-k is global
        "ties": ties,
    }
    if trajectory is not None:
        metadata["prune_trajectory"] = tuple(trajectory)
    return top_k_result(
        "expected_rank_prune",
        k,
        ranks_seen,
        relation.tids(),
        metadata,
    )

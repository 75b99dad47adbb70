"""Median and quantile ranks, tuple-level model (paper Section 7.3).

Conditioned on ``t_i`` being *present*, each other exclusion rule
contributes at most one appearing tuple, so the number of tuples that
beat ``t_i`` is a Poisson-binomial over **rules**: rule ``tau_j``
succeeds with probability ``sum of p(t)`` over its members that beat
``t_i`` (members of ``t_i``'s own rule are excluded by mutual
exclusion).  Conditioned on ``t_i`` being *absent*, its rank is
``|W|`` — again Poisson-binomial over rules, with ``t_i``'s own rule
renormalised by ``1/(1 - p(t_i))``.  Mixing the two components with
weights ``p(t_i)`` and ``1 - p(t_i)`` gives the exact rank
distribution; each tuple costs ``O(M^2)``, the whole pass ``O(N M^2)``
as the paper states.

The pruning variant (:func:`t_mqrank_prune`) is this reproduction's
own design (the paper's Section 7 pruning text is truncated; see
DESIGN.md): tuples arrive in decreasing score order, seen tuples'
quantiles are upper-bounded by mixing their *exact* present-branch
Poisson-binomial with a Markov bound on ``|W|`` for the absent branch,
and unseen tuples are lower-bounded by the Poisson-binomial of the
seen rules' strictly-higher mass with the heaviest rule dropped (any
unseen tuple's own rule is unknown, and dropping the heaviest is the
worst case).
"""

from __future__ import annotations

import heapq
import math
from typing import Sequence

import numpy as np

from repro.core.attr_mq_rank import _gf_distress, _method_name
from repro.core.columnar import (
    mass_violation,
    rank_quantiles,
    tuple_rank_pmf_matrix,
)
from repro.core.rank_distribution import RankDistribution
from repro.core.result import TopKResult, top_k_result
from repro.core.tuple_expected_rank import _beats, tuple_expected_ranks
from repro.exceptions import RankingError
from repro.models.possible_worlds import TieRule, _check_ties
from repro.models.rules import ExclusionRule
from repro.models.tuple_level import TupleLevelRelation, TupleLevelTuple
from repro.obs import count, profiled
from repro.stats.poisson_binomial import (
    mixture_pmf,
    poisson_binomial_pmf,
    poisson_binomial_quantile,
)

__all__ = [
    "tuple_present_rank_pmf",
    "tuple_rank_distribution",
    "tuple_rank_distributions",
    "tuple_rank_distributions_dp",
    "t_mqrank",
    "t_mqrank_prune",
]


def tuple_present_rank_pmf(
    relation: TupleLevelRelation,
    tid: str,
    *,
    ties: TieRule = "by_index",
) -> np.ndarray:
    """``Pr[exactly j tuples beat t | t appears]`` as a pmf vector.

    One Bernoulli per rule other than ``t``'s own: the rule "succeeds"
    when one of its beating members appears.  This conditional pmf is
    the common core of T-MQRank's present branch and of the U-kRanks,
    PT-k and Global-Topk baselines (their per-tuple statistics are
    ``p(t) * pmf[j]`` and ``p(t) * cdf[k-1]``).
    """
    _check_ties(ties)
    positions = {row.tid: index for index, row in enumerate(relation)}
    row = relation.tuple_by_id(tid)
    own_rule = relation.rule_of(tid)
    beat_params: list[float] = []
    for rule in relation.rules:
        if rule.rule_id == own_rule.rule_id:
            continue
        mass = math.fsum(
            relation.tuple_by_id(member).probability
            for member in rule
            if _beats(relation.tuple_by_id(member), row, positions, ties)
        )
        beat_params.append(mass)
    return poisson_binomial_pmf(beat_params)


def tuple_rank_distribution(
    relation: TupleLevelRelation,
    tid: str,
    *,
    ties: TieRule = "by_index",
) -> RankDistribution:
    """The exact rank distribution of one tuple (``O(M^2)``)."""
    _check_ties(ties)
    positions = {row.tid: index for index, row in enumerate(relation)}
    row = relation.tuple_by_id(tid)
    own_rule = relation.rule_of(tid)
    probability = row.probability

    components: list[tuple[float, np.ndarray]] = []
    if probability > 0.0:
        components.append(
            (
                probability,
                tuple_present_rank_pmf(relation, tid, ties=ties),
            )
        )
    if probability < 1.0:
        size_params: list[float] = []
        for rule in relation.rules:
            if rule.rule_id == own_rule.rule_id:
                remainder = math.fsum(
                    relation.tuple_by_id(member).probability
                    for member in rule
                    if member != tid
                )
                size_params.append(remainder / (1.0 - probability))
            else:
                size_params.append(
                    math.fsum(
                        relation.tuple_by_id(member).probability
                        for member in rule
                    )
                )
        components.append(
            (1.0 - probability, poisson_binomial_pmf(size_params))
        )
    mixed = mixture_pmf(components)
    return RankDistribution(mixed)


def tuple_rank_distributions_dp(
    relation: TupleLevelRelation,
    *,
    ties: TieRule = "by_index",
) -> dict[str, RankDistribution]:
    """Exact rank distributions of every tuple — T-MQRank's DP.

    ``O(N M^2)``, matching the paper's stated complexity.  Kept as the
    reference implementation the generating-function engine is
    verified against; production entry points dispatch to
    :func:`tuple_rank_distributions` instead.
    """
    return {
        row.tid: tuple_rank_distribution(relation, row.tid, ties=ties)
        for row in relation
    }


def tuple_rank_distributions(
    relation: TupleLevelRelation,
    *,
    ties: TieRule = "by_index",
) -> dict[str, RankDistribution]:
    """Exact rank distributions of every tuple.

    Runs the columnar generating-function sweep
    (:mod:`repro.core.columnar`, ``O(N M)``).  A sweep result that
    loses probability mass beyond the
    :data:`~repro.core.columnar.MASS_TOLERANCE` guard is discarded and
    recomputed with :func:`tuple_rank_distributions_dp`, the paper's
    ``O(N M^2)`` dynamic program (``kernel.gf_fallback`` counts how
    often).
    """
    matrix = tuple_rank_pmf_matrix(relation, ties=ties)
    deviation = mass_violation(matrix)
    if deviation is not None:
        _gf_distress("tuple_rank_distributions", deviation)
        return tuple_rank_distributions_dp(relation, ties=ties)
    return {
        tid: RankDistribution(matrix[position])
        for position, tid in enumerate(relation.tids())
    }


@profiled("t_mqrank")
def t_mqrank(
    relation: TupleLevelRelation,
    k: int,
    *,
    phi: float = 0.5,
    ties: TieRule = "by_index",
) -> TopKResult:
    """Exact top-k by the ``phi``-quantile of the rank distribution."""
    if k < 0:
        raise RankingError(f"k must be >= 0, got {k!r}")
    if not 0.0 < phi <= 1.0:
        raise RankingError(f"phi must be in (0, 1], got {phi!r}")
    count("t_mqrank.tuples_accessed", relation.size)
    matrix = tuple_rank_pmf_matrix(relation, ties=ties)
    deviation = mass_violation(matrix)
    if deviation is None:
        quantiles = rank_quantiles(matrix, phi)
        statistics = {
            tid: float(quantiles[position])
            for position, tid in enumerate(relation.tids())
        }
    else:
        _gf_distress("t_mqrank", deviation)
        distributions = tuple_rank_distributions_dp(
            relation, ties=ties
        )
        statistics = {
            tid: float(dist.quantile(phi))
            for tid, dist in distributions.items()
        }
    return top_k_result(
        _method_name(phi),
        k,
        statistics,
        relation.tids(),
        {
            "tuples_accessed": relation.size,
            "exact": True,
            "phi": phi,
            "ties": ties,
            "gf_fallback": deviation is not None,
        },
    )


def _seen_quantile_upper(
    row: TupleLevelTuple,
    present_pmf: np.ndarray,
    expected_world_size: float,
    phi: float,
    max_rank: int,
) -> int:
    """Upper bound on ``Q_phi(R(t_i))`` for a seen tuple.

    ``Pr[R >= a] <= p_i Pr[PB_present >= a] + (1 - p_i) min(1, E|W|/a)``
    — the present branch is exact (only seen tuples can beat a seen
    tuple), the absent branch is Markov on ``|W|``.
    """
    failure = 1.0 - phi
    present_tail = 1.0 - np.cumsum(present_pmf)
    for q in range(0, max_rank + 1):
        a = q + 1
        tail = present_tail[q] if q < present_tail.size else 0.0
        bound = row.probability * max(tail, 0.0) + (
            1.0 - row.probability
        ) * min(1.0, expected_world_size / a)
        if bound <= failure + 1e-12:
            return q
    return max_rank


@profiled("t_mqrank_prune")
def t_mqrank_prune(
    relation: TupleLevelRelation,
    k: int,
    *,
    phi: float = 0.5,
    ties: TieRule = "by_index",
    check_every: int = 16,
) -> TopKResult:
    """Early-stop quantile-rank top-k (reconstructed pruning).

    Scans by decreasing score; halting checks run every ``check_every``
    accesses and compare the ``k`` most promising seen tuples' quantile
    upper bounds against a Poisson-binomial lower bound on every
    unseen tuple.  The answer is the exact T-MQRank result of the
    curtailed relation (seen tuples with their rules restricted to
    seen members) — a surrogate, like the paper's curtailed A-ERank-
    Prune answer.
    """
    if k < 0:
        raise RankingError(f"k must be >= 0, got {k!r}")
    if not 0.0 < phi < 1.0:
        raise RankingError(
            f"phi must be in (0, 1) for the pruned variant, got {phi!r}"
        )
    _check_ties(ties)
    if check_every < 1:
        raise RankingError(f"check_every must be >= 1, got {check_every!r}")

    positions = {row.tid: index for index, row in enumerate(relation)}
    ordered = relation.order_by_score()
    expected_world_size = relation.expected_world_size()
    total = relation.size

    seen_rows: list[TupleLevelTuple] = []
    halted_early = False

    for scanned, row in enumerate(ordered, start=1):
        seen_rows.append(row)
        n = len(seen_rows)
        if n < max(k, 1) or n == total or scanned % check_every:
            continue
        if k == 0:
            halted_early = True
            break

        current_score = row.score
        # Per-rule mass of seen tuples with score strictly above the
        # current one — these beat every unseen tuple under either tie
        # rule.
        strict_mass: dict[str, float] = {}
        for candidate in seen_rows:
            if candidate.score > current_score:
                rule_id = relation.rule_of(candidate.tid).rule_id
                strict_mass[rule_id] = (
                    strict_mass.get(rule_id, 0.0) + candidate.probability
                )
        masses = sorted(strict_mass.values(), reverse=True)
        # An unseen tuple's own rule is unknown; drop the heaviest.
        unseen_pmf = poisson_binomial_pmf(masses[1:])
        lower = poisson_binomial_quantile(unseen_pmf, phi)

        # Candidate seen tuples: the k with the smallest exact
        # expected ranks among the seen prefix (a cheap heuristic —
        # correctness rests on the bounds, not the choice).
        curtailed = _curtail(relation, seen_rows)
        candidate_ranks = tuple_expected_ranks(curtailed, ties=ties)
        candidates = heapq.nsmallest(
            k, candidate_ranks.items(), key=lambda item: item[1]
        )
        uppers: list[int] = []
        for tid, _ in candidates:
            candidate_row = relation.tuple_by_id(tid)
            own_rule_id = relation.rule_of(tid).rule_id
            beat_mass: dict[str, float] = {}
            for other in seen_rows:
                other_rule_id = relation.rule_of(other.tid).rule_id
                if other_rule_id == own_rule_id:
                    continue
                if _beats(other, candidate_row, positions, ties):
                    beat_mass[other_rule_id] = (
                        beat_mass.get(other_rule_id, 0.0)
                        + other.probability
                    )
            present_pmf = poisson_binomial_pmf(beat_mass.values())
            uppers.append(
                _seen_quantile_upper(
                    candidate_row,
                    present_pmf,
                    expected_world_size,
                    phi,
                    total - 1,
                )
            )
        if uppers and max(uppers) < lower:
            halted_early = True
            break

    count("t_mqrank_prune.tuples_accessed", len(seen_rows))
    if halted_early:
        count("t_mqrank_prune.halted_early")
    curtailed = _curtail(relation, seen_rows)
    exact_on_seen = t_mqrank(curtailed, k, phi=phi, ties=ties)
    return TopKResult(
        method=f"{_method_name(phi)}_prune",
        k=k,
        items=exact_on_seen.items,
        statistics=exact_on_seen.statistics,
        metadata={
            "tuples_accessed": len(seen_rows),
            "halted_early": halted_early,
            "exact": len(seen_rows) == total,
            "phi": phi,
            "ties": ties,
        },
    )


def _curtail(
    relation: TupleLevelRelation,
    seen_rows: Sequence[TupleLevelTuple],
) -> TupleLevelRelation:
    """The curtailed relation: seen tuples, rules cut to seen members."""
    seen_tids = {row.tid for row in seen_rows}
    in_order = [row for row in relation if row.tid in seen_tids]
    rules: list[ExclusionRule] = []
    for rule in relation.rules:
        members = [tid for tid in rule if tid in seen_tids]
        if len(members) > 1:
            rules.append(ExclusionRule(rule.rule_id, members))
    return TupleLevelRelation(in_order, rules=rules)

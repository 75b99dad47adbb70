"""Median and quantile ranks, attribute-level model (paper Section 7.2).

The rank of ``t_i`` conditioned on ``X_i = v_{i,l}`` is a
Poisson-binomial variable: every other tuple independently beats that
value with probability ``Pr[X_j > v_{i,l}]`` (plus the tie mass for
earlier tuples under the Section 7 tie rule).  Mixing the conditional
pmfs with weights ``p_{i,l}`` yields the exact rank distribution
``rank(t_i)`` of Definition 7, from which the median rank (Definition 9)
and any ``phi``-quantile rank are read off the cdf.  The full pass over
all tuples is the paper's ``O(N^3)`` dynamic program (constant pdf
sizes).

The paper states a pruning variant exists but its description falls in
the truncated part of the text; :func:`a_mqrank_prune` is therefore this
reproduction's own design (documented in DESIGN.md), built from the same
toolbox the paper uses elsewhere:

* upper bounds on the quantile ranks of the ``k`` most promising seen
  tuples: conditioned on ``X_i = v``, the rank is dominated (in
  stochastic order) by ``PB_seen(v) + Binomial(N - n, m(v))`` where
  ``PB_seen(v)`` is the exact Poisson binomial of the seen beat
  probabilities and ``m(v) = min(1, E[X_n] / v)`` is the Markov bound
  on any unseen tuple beating value ``v`` — mixing the resulting cdf
  lower bounds over the tuple's pdf yields a certified quantile upper
  bound (a pure-Markov fallback ``Q_phi <= ceil(r+/(1-phi)) - 1`` caps
  it);
* a lower bound on every unseen tuple's quantile rank from the
  Poisson-binomial of the *seen* tuples evaluated at a Markov-bounded
  score threshold: for any ``v*``,
  ``Pr[R(t_u) <= r] <= min(1, E[X_n]/v*) + F_{PB(Pr[X_j >= v*])}(r)``,
  maximised over a grid of thresholds drawn from the seen expected
  scores.

The scan halts when the ``k`` candidate upper bounds fall strictly
below the unseen lower bound and answers from the curtailed database —
the same surrogate contract as A-ERank-Prune.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.core.attr_expected_rank import _SeenState
from repro.core.beats import value_beat_probability
from repro.core.columnar import (
    attribute_rank_pmf_matrix,
    mass_violation,
    rank_quantiles,
)
from repro.core.rank_distribution import RankDistribution
from repro.core.result import TopKResult, top_k_result
from repro.exceptions import PruningBoundError, RankingError
from repro.models.attribute import AttributeLevelRelation
from repro.models.pdf import DiscretePDF
from repro.models.possible_worlds import TieRule, _check_ties
from repro.obs import count, emit_event, profiled
from repro.stats.poisson_binomial import (
    binomial_pmf,
    mixture_pmf,
    poisson_binomial_pmf,
)

__all__ = [
    "attribute_rank_distribution",
    "attribute_rank_distributions",
    "attribute_rank_distributions_dp",
    "a_mqrank",
    "a_mqrank_prune",
]


def attribute_rank_distribution(
    relation: AttributeLevelRelation,
    tid: str,
    *,
    ties: TieRule = "by_index",
) -> RankDistribution:
    """The exact rank distribution of one tuple (``O(s N^2)``)."""
    _check_ties(ties)
    position = relation.position_of(tid)
    row = relation[position]
    components: list[tuple[float, np.ndarray]] = []
    for value, probability in row.score.items():
        params = [
            value_beat_probability(
                other.score,
                value,
                challenger_is_earlier=other_position < position,
                ties=ties,
            )
            for other_position, other in enumerate(relation)
            if other_position != position
        ]
        components.append((probability, poisson_binomial_pmf(params)))
    mixed = mixture_pmf(components, length=relation.size)
    return RankDistribution(mixed)


def attribute_rank_distributions_dp(
    relation: AttributeLevelRelation,
    *,
    ties: TieRule = "by_index",
) -> dict[str, RankDistribution]:
    """Exact rank distributions of every tuple — A-MQRank's DP.

    ``O(N^3)`` for constant pdf sizes, matching the paper's stated
    complexity.  Kept as the reference implementation the
    generating-function engine is verified against; production entry
    points dispatch to :func:`attribute_rank_distributions` instead.
    """
    return {
        row.tid: attribute_rank_distribution(relation, row.tid, ties=ties)
        for row in relation
    }


def _gf_distress(kernel: str, deviation: float) -> None:
    """Account for one GF → DP numerical-distress fallback."""
    count("kernel.gf_fallback")
    emit_event(
        "kernel.gf_fallback", kernel=kernel, deviation=deviation
    )


def attribute_rank_distributions(
    relation: AttributeLevelRelation,
    *,
    ties: TieRule = "by_index",
) -> dict[str, RankDistribution]:
    """Exact rank distributions of every tuple.

    Runs the columnar generating-function sweep
    (:mod:`repro.core.columnar`, ``O(N * S)``).  A sweep result that
    loses probability mass beyond the
    :data:`~repro.core.columnar.MASS_TOLERANCE` guard is discarded and
    recomputed with :func:`attribute_rank_distributions_dp`, the
    paper's cubic dynamic program (``kernel.gf_fallback`` counts how
    often).
    """
    matrix = attribute_rank_pmf_matrix(relation, ties=ties)
    deviation = mass_violation(matrix)
    if deviation is not None:
        _gf_distress("attribute_rank_distributions", deviation)
        return attribute_rank_distributions_dp(relation, ties=ties)
    return {
        tid: RankDistribution(matrix[position])
        for position, tid in enumerate(relation.tids())
    }


def _method_name(phi: float) -> str:
    # phi=0.5 is the caller's exact literal.  # repro: noqa RPR002
    return "median_rank" if phi == 0.5 else f"quantile_rank[{phi:g}]"


@profiled("a_mqrank")
def a_mqrank(
    relation: AttributeLevelRelation,
    k: int,
    *,
    phi: float = 0.5,
    ties: TieRule = "by_index",
) -> TopKResult:
    """Exact top-k by the ``phi``-quantile of the rank distribution.

    ``phi = 0.5`` (the default) is the median rank.  Ties on the
    quantile value are broken by insertion order.
    """
    if k < 0:
        raise RankingError(f"k must be >= 0, got {k!r}")
    if not 0.0 < phi <= 1.0:
        raise RankingError(f"phi must be in (0, 1], got {phi!r}")
    count("a_mqrank.tuples_accessed", relation.size)
    matrix = attribute_rank_pmf_matrix(relation, ties=ties)
    deviation = mass_violation(matrix)
    if deviation is None:
        quantiles = rank_quantiles(matrix, phi)
        statistics = {
            tid: float(quantiles[position])
            for position, tid in enumerate(relation.tids())
        }
    else:
        _gf_distress("a_mqrank", deviation)
        distributions = attribute_rank_distributions_dp(
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


def _markov_quantile_upper(expected_rank_upper: float, phi: float) -> int:
    """``Q_phi(R) <= ceil(E[R] / (1 - phi)) - 1`` for phi < 1."""
    if phi >= 1.0:
        raise PruningBoundError(
            "Markov quantile bound needs phi < 1 (use the exact "
            "algorithm for phi = 1)"
        )
    bound = expected_rank_upper / (1.0 - phi)
    return max(0, math.ceil(bound - 1e-12) - 1)


def _unseen_quantile_lower(
    seen_rows,
    expectation_bound: float,
    phi: float,
) -> int:
    """Best lower bound on any unseen tuple's phi-quantile rank.

    For each candidate threshold ``v*`` (a spread of percentiles of
    the seen expected scores), ``Pr[R(t_u) <= r] <= m* + F*(r)`` with
    ``m* = min(1, E[X_n] / v*)`` and ``F*`` the cdf of the
    Poisson-binomial with parameters ``Pr[X_j >= v*]`` over seen
    tuples.  The quantile is then at least the smallest ``r`` with
    ``m* + F*(r) >= phi``; the candidates' maximum is returned.
    """
    expected = sorted(
        {row.expected_score() for row in seen_rows}, reverse=True
    )
    if not expected:
        return 0
    # A percentile spread: small thresholds give large beat masses but
    # also large Markov slack; the sweet spot varies with the data.
    picks = {
        expected[min(len(expected) - 1, int(f * len(expected)))]
        for f in (0.0, 0.05, 0.1, 0.2, 0.35, 0.5, 0.7, 0.9)
    }
    best = 0
    for threshold in picks:
        if threshold <= 0.0:
            continue
        slack = min(1.0, expectation_bound / threshold)
        if slack >= phi:
            continue  # the Markov mass alone already reaches phi
        params = [
            row.score.pr_greater_equal(threshold) for row in seen_rows
        ]
        cdf = np.cumsum(poisson_binomial_pmf(params))
        reachable = np.nonzero(slack + cdf >= phi - 1e-12)[0]
        lower = int(reachable[0]) if reachable.size else len(params)
        best = max(best, lower)
    return best


def _seen_quantile_upper(
    score: DiscretePDF,
    seen_beats: Sequence[Sequence[float]],
    unseen_count: int,
    expectation_bound: float,
    phi: float,
    markov_cap: int,
) -> int:
    """Certified upper bound on one seen tuple's phi-quantile rank.

    Conditioned on ``X_i = v``, unseen tuples each beat ``v`` with
    probability at most ``m(v) = min(1, E[X_n] / v)``, so the rank is
    stochastically dominated by ``PB_seen(v) + Binomial(N - n, m(v))``
    and ``Pr[R <= q] >= sum_v p_v F_{PB_v * Bin_v}(q)``.
    ``seen_beats[l]`` holds the other seen tuples' beat probabilities
    against the ``l``-th support value (the ``PB_seen(v)``
    parameters).  The returned bound
    never exceeds ``markov_cap`` (the pure-Markov bound).
    """
    components: list[tuple[float, np.ndarray]] = []
    horizon = markov_cap + 1
    for (value, probability), params in zip(score.items(), seen_beats):
        seen_pmf = poisson_binomial_pmf(params)
        tail_probability = min(1.0, expectation_bound / value)
        unseen_pmf = binomial_pmf(unseen_count, tail_probability)
        combined = np.convolve(seen_pmf, unseen_pmf)[:horizon]
        components.append((probability, combined))
    size = max(len(pmf) for _, pmf in components)
    cdf_lower = np.zeros(size)
    for probability, pmf in components:
        cdf_lower[: len(pmf)] += probability * np.cumsum(pmf)
        # Truncated mass never helps the cdf; missing tail stays 0.
        if len(pmf) < size:
            cdf_lower[len(pmf):] += probability * float(
                np.cumsum(pmf)[-1]
            )
    reachable = np.nonzero(cdf_lower >= phi - 1e-12)[0]
    if reachable.size:
        return min(int(reachable[0]), markov_cap)
    return markov_cap


@profiled("a_mqrank_prune")
def a_mqrank_prune(
    relation: AttributeLevelRelation,
    k: int,
    *,
    phi: float = 0.5,
    ties: TieRule = "by_index",
    check_every: int = 16,
    tight_bounds: bool = True,
) -> TopKResult:
    """Early-termination quantile-rank top-k (reconstructed pruning).

    Scans by decreasing expected score, maintaining the A-ERank-Prune
    expected-rank upper bounds and converting them into quantile upper
    bounds by Markov's inequality; unseen tuples are lower-bounded via
    a Poisson-binomial tail over the seen prefix.  Halting checks run
    every ``check_every`` accesses (the checks cost ``O(n^2)``).

    Like A-ERank-Prune, the final answer is the exact quantile-rank
    top-k of the *curtailed* database — a surrogate whose quality the
    E11 experiment quantifies.  Requires strictly positive scores.

    ``tight_bounds=False`` downgrades the seen-tuple upper bounds to
    the pure Markov form (no conditional Poisson-binomial) — kept for
    the E15 ablation, which shows the tight bounds are what make this
    scan halt at all on flat data.
    """
    if k < 0:
        raise RankingError(f"k must be >= 0, got {k!r}")
    if not 0.0 < phi < 1.0:
        raise RankingError(
            f"phi must be in (0, 1) for the pruned variant, got {phi!r}"
        )
    _check_ties(ties)
    if check_every < 1:
        raise RankingError(
            f"check_every must be >= 1, got {check_every!r}"
        )
    for row in relation:
        if row.score.min_value <= 0.0:
            raise PruningBoundError(
                f"tuple {row.tid!r} has score {row.score.min_value!r}; "
                "the Markov bounds require strictly positive scores"
            )

    total = relation.size
    state = _SeenState(relation, ties)
    halted_early = False

    for row in state.rows:
        state.admit()
        n = state.count
        if n < max(k, 1) or n == total or n % check_every:
            continue
        expectation_bound = row.expected_score()
        unseen_count = total - n
        lower = _unseen_quantile_lower(
            state.rows[:n], expectation_bound, phi
        )
        if k == 0:
            halted_early = True
            break
        if lower == 0:
            continue  # no unseen bound yet; a tight upper cannot help
        # Rank every seen tuple by its cheap Markov quantile bound and
        # refine only the k most promising with the conditional
        # Poisson-binomial + Binomial construction.
        rank_uppers = state.seen_term[:n] + unseen_count * (
            state.markov_tails(expectation_bound)
        )
        candidates = sorted(
            (
                (_markov_quantile_upper(rank_upper, phi), index)
                for index, rank_upper in enumerate(rank_uppers.tolist())
            ),
            key=lambda pair: pair[0],
        )[:k]
        if tight_bounds:
            uppers = [
                _seen_quantile_upper(
                    state.rows[index].score,
                    [
                        state.value_beats(value, index)
                        for value in state.rows[index].score.values
                    ],
                    unseen_count,
                    expectation_bound,
                    phi,
                    markov_cap,
                )
                for markov_cap, index in candidates
            ]
        else:
            uppers = [markov_cap for markov_cap, _ in candidates]
        if max(uppers) < lower:
            halted_early = True
            break

    count("a_mqrank_prune.tuples_accessed", state.count)
    if halted_early:
        count("a_mqrank_prune.halted_early")
    curtailed = state.curtailed()
    exact_on_seen = a_mqrank(curtailed, k, phi=phi, ties=ties)
    return TopKResult(
        method=f"{_method_name(phi)}_prune",
        k=k,
        items=exact_on_seen.items,
        statistics=exact_on_seen.statistics,
        metadata={
            "tuples_accessed": state.count,
            "halted_early": halted_early,
            "exact": state.count == total,
            "phi": phi,
            "ties": ties,
        },
    )

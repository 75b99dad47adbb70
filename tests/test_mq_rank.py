"""Tests for the median/quantile rank DPs (Section 7) and their pruning."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import brute_force_rank_distributions
from repro.core import (
    a_mqrank,
    a_mqrank_prune,
    attribute_rank_distribution,
    attribute_rank_distributions,
    t_mqrank,
    t_mqrank_prune,
    tuple_present_rank_pmf,
    tuple_rank_distribution,
    tuple_rank_distributions,
)
from repro.datagen import (
    generate_attribute_relation,
    generate_tuple_relation,
)
from repro.exceptions import PruningBoundError, RankingError
from repro.models import (
    AttributeLevelRelation,
    AttributeTuple,
    DiscretePDF,
    TupleLevelRelation,
    TupleLevelTuple,
)
from tests.oracles.pruning import a_mqrank_prune_pairwise, prune_relations


class TestAttributeRankDistributions:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("ties", ["shared", "by_index"])
    def test_against_oracle(self, seed, ties):
        relation = generate_attribute_relation(5, pdf_size=3, seed=seed)
        fast = attribute_rank_distributions(relation, ties=ties)
        slow = brute_force_rank_distributions(relation, ties=ties)
        for tid in fast:
            assert fast[tid].allclose(slow[tid], atol=1e-9)

    def test_single_tuple_distribution(self):
        relation = AttributeLevelRelation(
            [AttributeTuple("only", DiscretePDF([1, 2], [0.5, 0.5]))]
        )
        dist = attribute_rank_distribution(relation, "only")
        assert dist.probability_of(0) == pytest.approx(1.0)

    def test_expectation_consistency(self, fig2):
        """E[rank] from the full distribution equals A-ERank's output
        (shared ties)."""
        from repro.core import attribute_expected_ranks

        dists = attribute_rank_distributions(fig2, ties="shared")
        ranks = attribute_expected_ranks(fig2, ties="shared")
        for tid in ranks:
            assert dists[tid].expectation() == pytest.approx(ranks[tid])

    def test_distributions_are_proper(self, fig2):
        for dist in attribute_rank_distributions(fig2).values():
            assert float(dist.pmf.sum()) == pytest.approx(1.0)
            assert dist.max_rank <= fig2.size - 1


class TestTupleRankDistributions:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("ties", ["shared", "by_index"])
    def test_against_oracle(self, seed, ties):
        relation = generate_tuple_relation(
            7, rule_fraction=0.6, seed=seed
        )
        fast = tuple_rank_distributions(relation, ties=ties)
        slow = brute_force_rank_distributions(relation, ties=ties)
        for tid in fast:
            assert fast[tid].allclose(slow[tid], atol=1e-9)

    def test_certain_tuple_point_mass(self, certain_tuple):
        dists = tuple_rank_distributions(certain_tuple)
        assert dists["a"].probability_of(0) == pytest.approx(1.0)
        assert dists["c"].probability_of(2) == pytest.approx(1.0)

    def test_zero_probability_tuple_rank_is_world_size(self):
        relation = TupleLevelRelation(
            [
                TupleLevelTuple("never", 10.0, 0.0),
                TupleLevelTuple("coin", 5.0, 0.5),
            ]
        )
        dist = tuple_rank_distribution(relation, "never")
        # Rank of the absent tuple is |W| in {0, 1} with equal odds.
        assert dist.probability_of(0) == pytest.approx(0.5)
        assert dist.probability_of(1) == pytest.approx(0.5)

    def test_present_pmf_conditioning(self, fig4):
        """p(t) * present-pmf equals Pr[appears and j tuples beat it]."""
        pmf = tuple_present_rank_pmf(fig4, "t2")
        # Given t2 appears, only t1 (score 100 > 92) can beat it: t3
        # scores below and t4 is excluded by the shared rule.
        assert pmf[0] == pytest.approx(0.6)
        assert pmf[1] == pytest.approx(0.4)

    def test_expectation_consistency(self, fig4):
        from repro.core import tuple_expected_ranks

        dists = tuple_rank_distributions(fig4, ties="shared")
        ranks = tuple_expected_ranks(fig4, ties="shared")
        for tid in ranks:
            assert dists[tid].expectation() == pytest.approx(ranks[tid])


class TestQuantileRanking:
    def test_median_is_half_quantile(self, fig4):
        median = t_mqrank(fig4, 4, phi=0.5)
        assert median.method == "median_rank"
        assert median.tids() == ("t2", "t3", "t1", "t4")

    def test_phi_extremes(self, fig2):
        optimistic = a_mqrank(fig2, 3, phi=0.05)
        pessimistic = a_mqrank(fig2, 3, phi=1.0)
        for tid in fig2.tids():
            assert optimistic.statistics[tid] <= pessimistic.statistics[
                tid
            ]

    def test_quantile_statistics_monotone_in_phi(self, fig4):
        previous = None
        for phi in (0.1, 0.3, 0.5, 0.7, 0.9):
            current = t_mqrank(fig4, 4, phi=phi).statistics
            if previous is not None:
                for tid in current:
                    assert current[tid] >= previous[tid]
            previous = current

    def test_invalid_phi_rejected(self, fig2):
        with pytest.raises(RankingError):
            a_mqrank(fig2, 1, phi=0.0)
        with pytest.raises(RankingError):
            t_mqrank(
                TupleLevelRelation([TupleLevelTuple("a", 1.0, 1.0)]),
                1,
                phi=1.2,
            )

    def test_negative_k_rejected(self, fig2):
        with pytest.raises(RankingError):
            a_mqrank(fig2, -2)

    def test_method_name_reflects_phi(self, fig2):
        assert a_mqrank(fig2, 1, phi=0.75).method == "quantile_rank[0.75]"


class TestAttributeMQPrune:
    @given(
        relation=prune_relations(),
        k=st.sampled_from([1, 3]),
        phi=st.sampled_from([0.5, 0.9]),
        ties=st.sampled_from(["shared", "by_index"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_columnar_matches_pairwise_oracle(self, relation, k, phi, ties):
        options = dict(phi=phi, ties=ties, check_every=2)
        columnar = a_mqrank_prune(relation, k, **options)
        oracle = a_mqrank_prune_pairwise(relation, k, **options)
        assert columnar.tids() == oracle.tids()
        assert columnar.statistics == oracle.statistics
        assert columnar.metadata == oracle.metadata

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_exact(self, seed):
        relation = generate_attribute_relation(
            60, pdf_size=3, score_distribution="zipf", seed=seed
        )
        exact = a_mqrank(relation, 5)
        pruned = a_mqrank_prune(relation, 5, check_every=8)
        assert pruned.tids() == exact.tids()

    def test_rejects_nonpositive_scores(self):
        relation = AttributeLevelRelation(
            [
                AttributeTuple("a", DiscretePDF([0.0, 5], [0.5, 0.5])),
                AttributeTuple("b", DiscretePDF.point(3)),
            ]
        )
        with pytest.raises(PruningBoundError):
            a_mqrank_prune(relation, 1)

    def test_rejects_boundary_phi(self, fig2):
        with pytest.raises(RankingError):
            a_mqrank_prune(fig2, 1, phi=1.0)

    def test_rejects_bad_check_every(self, fig2):
        with pytest.raises(RankingError):
            a_mqrank_prune(fig2, 1, check_every=0)

    def test_reports_access_metadata(self, fig2):
        result = a_mqrank_prune(fig2, 1, check_every=1)
        assert "tuples_accessed" in result.metadata
        assert result.metadata["tuples_accessed"] <= fig2.size

    def test_markov_only_bounds_still_sound(self):
        """tight_bounds=False (the E15 ablation arm) may access more
        but must return the same answer."""
        relation = generate_attribute_relation(
            80, pdf_size=3, score_distribution="zipf", seed=4
        )
        exact = a_mqrank(relation, 5)
        tight = a_mqrank_prune(relation, 5, check_every=8)
        loose = a_mqrank_prune(
            relation, 5, check_every=8, tight_bounds=False
        )
        assert tight.tids() == exact.tids()
        assert loose.tids() == exact.tids()
        assert (
            tight.metadata["tuples_accessed"]
            <= loose.metadata["tuples_accessed"]
        )


class TestTupleMQPrune:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_exact(self, seed):
        relation = generate_tuple_relation(
            300, rule_fraction=0.3, seed=seed
        )
        exact = t_mqrank(relation, 5)
        pruned = t_mqrank_prune(relation, 5, check_every=16)
        assert pruned.tids() == exact.tids()

    def test_halts_early_on_large_input(self):
        relation = generate_tuple_relation(800, seed=2)
        pruned = t_mqrank_prune(relation, 5, check_every=16)
        assert pruned.metadata["halted_early"]
        assert pruned.metadata["tuples_accessed"] < relation.size

    def test_quantile_variant(self):
        relation = generate_tuple_relation(300, seed=5)
        exact = t_mqrank(relation, 5, phi=0.75)
        pruned = t_mqrank_prune(relation, 5, phi=0.75, check_every=16)
        assert pruned.tids() == exact.tids()

    def test_unseen_bound_soundness(self):
        """No unseen tuple can have a quantile rank better than any
        reported one."""
        relation = generate_tuple_relation(400, seed=6)
        pruned = t_mqrank_prune(relation, 5, check_every=16)
        exact = t_mqrank(relation, relation.size)
        seen = set(pruned.statistics)
        worst_reported = max(item.statistic for item in pruned)
        for tid, value in exact.statistics.items():
            if tid not in seen:
                assert value >= worst_reported - 1e-9

"""Tests for A-ERank / T-ERank and their pruning variants (Sections 5-6)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import brute_force_expected_ranks
from repro.core import (
    a_erank,
    a_erank_prune,
    attribute_expected_ranks,
    attribute_expected_ranks_vectorized,
    t_erank,
    t_erank_prune,
    tuple_expected_ranks,
    tuple_expected_ranks_vectorized,
)
from repro.core.attr_expected_rank import _SeenState
from repro.core.beats import value_beat_probability
from repro.datagen import (
    generate_attribute_relation,
    generate_tuple_relation,
)
from repro.exceptions import PruningBoundError, RankingError
from repro.models import (
    AttributeLevelRelation,
    AttributeTuple,
    DiscretePDF,
    ExclusionRule,
    TupleLevelRelation,
    TupleLevelTuple,
)
from repro.obs import MetricsRegistry, set_registry
from tests.oracles.expected_rank import (
    attribute_expected_ranks_quadratic,
    tuple_expected_ranks_quadratic,
)
from tests.oracles.pruning import (
    a_erank_prune_pairwise,
    pairwise_arrivals,
    prune_relations,
)


class TestAttributeExactAgainstOracle:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("ties", ["shared", "by_index"])
    def test_random_instances(self, seed, ties):
        relation = generate_attribute_relation(5, pdf_size=3, seed=seed)
        fast = attribute_expected_ranks(relation, ties=ties)
        slow = brute_force_expected_ranks(relation, ties=ties)
        for tid in fast:
            assert fast[tid] == pytest.approx(slow[tid], abs=1e-9)

    def test_tied_scores_shared(self):
        relation = AttributeLevelRelation(
            [
                AttributeTuple("a", DiscretePDF.point(5)),
                AttributeTuple("b", DiscretePDF.point(5)),
            ]
        )
        ranks = attribute_expected_ranks(relation, ties="shared")
        assert ranks == {"a": 0.0, "b": 0.0}

    def test_tied_scores_by_index(self):
        relation = AttributeLevelRelation(
            [
                AttributeTuple("a", DiscretePDF.point(5)),
                AttributeTuple("b", DiscretePDF.point(5)),
            ]
        )
        ranks = attribute_expected_ranks(relation, ties="by_index")
        assert ranks == {"a": 0.0, "b": 1.0}

    def test_partial_tie_mixture(self):
        relation = AttributeLevelRelation(
            [
                AttributeTuple("a", DiscretePDF([5, 9], [0.5, 0.5])),
                AttributeTuple("b", DiscretePDF.point(5)),
            ]
        )
        shared = attribute_expected_ranks(relation, ties="shared")
        # b beaten only when a draws 9.
        assert shared["b"] == pytest.approx(0.5)
        assert shared["a"] == pytest.approx(0.0)
        by_index = attribute_expected_ranks(relation, ties="by_index")
        # Under index ties, a (earlier) also beats b at a tie at 5.
        assert by_index["b"] == pytest.approx(1.0)

    def test_single_tuple(self):
        relation = AttributeLevelRelation(
            [AttributeTuple("only", DiscretePDF.point(1))]
        )
        assert attribute_expected_ranks(relation) == {"only": 0.0}


class TestQuadraticBaselines:
    """The O(N^2) BFS baselines agree with the O(N log N) algorithms."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("ties", ["shared", "by_index"])
    def test_attribute_agreement(self, seed, ties):
        relation = generate_attribute_relation(30, pdf_size=3, seed=seed)
        fast = attribute_expected_ranks(relation, ties=ties)
        slow = attribute_expected_ranks_quadratic(relation, ties=ties)
        for tid in fast:
            assert fast[tid] == pytest.approx(slow[tid], abs=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("ties", ["shared", "by_index"])
    def test_tuple_agreement(self, seed, ties):
        relation = generate_tuple_relation(
            40, rule_fraction=0.5, seed=seed
        )
        fast = tuple_expected_ranks(relation, ties=ties)
        slow = tuple_expected_ranks_quadratic(relation, ties=ties)
        for tid in fast:
            assert fast[tid] == pytest.approx(slow[tid], abs=1e-9)


class TestVectorizedFastPath:
    """The np.add.at cross-check kernel agrees with A-ERank to 1e-9."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("ties", ["shared", "by_index"])
    def test_agreement_on_random_data(self, seed, ties):
        relation = generate_attribute_relation(40, pdf_size=4, seed=seed)
        reference = attribute_expected_ranks(relation, ties=ties)
        vectorized = attribute_expected_ranks_vectorized(
            relation, ties=ties
        )
        for tid in reference:
            assert vectorized[tid] == pytest.approx(
                reference[tid], abs=1e-9
            )

    @pytest.mark.parametrize("ties", ["shared", "by_index"])
    def test_agreement_with_heavy_ties(self, ties):
        """Integer-valued pdfs generate many cross-tuple ties."""
        relation = AttributeLevelRelation(
            AttributeTuple(
                f"t{i}",
                DiscretePDF(
                    [float(1 + (i % 3)), float(3 + (i % 2))],
                    [0.5, 0.5],
                ),
            )
            for i in range(12)
        )
        reference = attribute_expected_ranks(relation, ties=ties)
        vectorized = attribute_expected_ranks_vectorized(
            relation, ties=ties
        )
        for tid in reference:
            assert vectorized[tid] == pytest.approx(
                reference[tid], abs=1e-9
            )

    def test_single_tuple(self):
        relation = AttributeLevelRelation(
            [AttributeTuple("only", DiscretePDF([1, 2], [0.5, 0.5]))]
        )
        assert attribute_expected_ranks_vectorized(relation) == {
            "only": 0.0
        }

    def test_paper_example(self, fig2):
        vectorized = attribute_expected_ranks_vectorized(fig2)
        assert vectorized["t1"] == pytest.approx(1.2)
        assert vectorized["t2"] == pytest.approx(0.8)
        assert vectorized["t3"] == pytest.approx(1.0)


class TestAErankResult:
    def test_orders_by_rank(self, fig2):
        result = a_erank(fig2, 3)
        statistics = [item.statistic for item in result]
        assert statistics == sorted(statistics)

    def test_k_larger_than_n(self, fig2):
        assert len(a_erank(fig2, 10)) == 3

    def test_k_zero(self, fig2):
        assert len(a_erank(fig2, 0)) == 0

    def test_negative_k_rejected(self, fig2):
        with pytest.raises(RankingError):
            a_erank(fig2, -1)

    def test_statistics_cover_all_tuples(self, fig2):
        result = a_erank(fig2, 1)
        assert set(result.statistics) == set(fig2.tids())

    def test_deterministic_tie_break_by_insertion(self):
        relation = AttributeLevelRelation(
            [
                AttributeTuple("late", DiscretePDF.point(5)),
                AttributeTuple("early", DiscretePDF.point(5)),
            ]
        )
        # Equal expected ranks (shared ties): insertion order wins.
        assert a_erank(relation, 2).tids() == ("late", "early")


class TestAErankPrune:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_exact_topk(self, seed):
        relation = generate_attribute_relation(
            300, pdf_size=4, seed=seed
        )
        exact = a_erank(relation, 10)
        pruned = a_erank_prune(relation, 10)
        assert pruned.tids() == exact.tids()

    def test_accesses_fewer_tuples(self):
        relation = generate_attribute_relation(
            1000, pdf_size=4, score_distribution="zipf", seed=1
        )
        pruned = a_erank_prune(relation, 5)
        assert pruned.metadata["tuples_accessed"] < relation.size
        assert pruned.metadata["halted_early"]

    def test_rejects_nonpositive_scores(self):
        relation = AttributeLevelRelation(
            [
                AttributeTuple("a", DiscretePDF([-1, 5], [0.5, 0.5])),
                AttributeTuple("b", DiscretePDF.point(3)),
            ]
        )
        with pytest.raises(PruningBoundError):
            a_erank_prune(relation, 1)

    def test_k_zero_accesses_nothing(self, fig2):
        result = a_erank_prune(fig2, 0)
        assert len(result) == 0
        assert result.metadata["tuples_accessed"] == 0

    def test_exhaustive_scan_is_exact(self, fig2):
        """On a tiny relation the scan sees everything and must agree."""
        pruned = a_erank_prune(fig2, 2)
        assert pruned.tids() == a_erank(fig2, 2).tids()

    def test_upper_bounds_are_sound(self):
        """Every pruned statistic (computed on the curtailed db) must be
        dominated by the paper's r+ bound — indirectly validated by
        checking the reported top-k answers carry correct curtailed
        statistics against a full recomputation."""
        relation = generate_attribute_relation(200, pdf_size=3, seed=9)
        pruned = a_erank_prune(relation, 8)
        exact = attribute_expected_ranks(relation)
        # Curtailed ranks underestimate: fewer competitors can only
        # lower the count of better tuples.
        for item in pruned:
            assert item.statistic <= exact[item.tid] + 1e-9


def _trajectory_bits(result):
    return [
        (
            point["accessed"],
            point["kth_rank"].hex(),
            point["unseen_bound"].hex(),
        )
        for point in result.metadata["prune_trajectory"]
    ]


def _prune_both(relation, k, ties="shared"):
    """Columnar scan and pairwise oracle, with observability on."""
    previous = set_registry(MetricsRegistry(enabled=True))
    try:
        return (
            a_erank_prune(relation, k, ties=ties),
            a_erank_prune_pairwise(relation, k, ties=ties),
        )
    finally:
        set_registry(previous)


class TestAErankPruneParity:
    """The columnar seen-state against the pairwise scan it replaced:
    same prefix, same answer, bit-identical bound trajectory."""

    @given(
        relation=prune_relations(),
        k_choice=st.sampled_from(["1", "5", "N"]),
        ties=st.sampled_from(["shared", "by_index"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_columnar_matches_pairwise_oracle(
        self, relation, k_choice, ties
    ):
        k = relation.size if k_choice == "N" else int(k_choice)
        columnar, oracle = _prune_both(relation, k, ties)
        assert columnar.tids() == oracle.tids()
        assert columnar.statistics == oracle.statistics
        assert columnar.metadata == oracle.metadata
        assert _trajectory_bits(columnar) == _trajectory_bits(oracle)

    @given(
        relation=prune_relations(),
        ties=st.sampled_from(["shared", "by_index"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_seen_state_matches_pairwise_sums(self, relation, ties):
        """Every seen tuple's sum, Markov tail and value-beat vector,
        after every arrival — not only the k-th bound the trajectory
        shows."""
        state = _SeenState(relation, ties)
        arrivals = pairwise_arrivals(relation, ties)
        for row, seen in zip(state.rows, arrivals):
            state.admit()
            assert state.seen_term[: state.count].tolist() == [
                entry.seen_term for entry in seen
            ]
            bound = row.expected_score()
            assert state.markov_tails(bound).tolist() == [
                entry.markov_tail(bound) for entry in seen
            ]
            for index in {0, state.count - 1}:
                candidate = seen[index]
                for value in candidate.row.score.values:
                    assert state.value_beats(value, index) == [
                        value_beat_probability(
                            other.row.score,
                            value,
                            challenger_is_earlier=other.position
                            < candidate.position,
                            ties=ties,
                        )
                        for other in seen
                        if other is not candidate
                    ]

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_exact_topk(self, seed):
        relation = generate_attribute_relation(
            300, pdf_size=4, seed=seed
        )
        exact = a_erank(relation, 10)
        columnar, oracle = _prune_both(relation, 10)
        assert columnar.tids() == oracle.tids() == exact.tids()
        assert _trajectory_bits(columnar) == _trajectory_bits(oracle)

    def test_halts_at_oracle_prefix(self):
        relation = generate_attribute_relation(
            800, pdf_size=4, score_distribution="zipf", seed=1
        )
        for ties in ("shared", "by_index"):
            columnar, oracle = _prune_both(relation, 5, ties)
            assert columnar.metadata["halted_early"]
            assert columnar.metadata == oracle.metadata

    def test_rejects_nonpositive_scores(self):
        relation = AttributeLevelRelation(
            [
                AttributeTuple("a", DiscretePDF([0.0], [1.0])),
                AttributeTuple("b", DiscretePDF.point(3)),
            ]
        )
        for scan in (a_erank_prune, a_erank_prune_pairwise):
            with pytest.raises(PruningBoundError):
                scan(relation, 1)

    def test_parameter_validation(self, fig2):
        for scan in (a_erank_prune, a_erank_prune_pairwise):
            with pytest.raises(RankingError):
                scan(fig2, -1)
            with pytest.raises(ValueError):
                scan(fig2, 1, ties="nearest")

    def test_k_zero(self, fig2):
        columnar, oracle = _prune_both(fig2, 0)
        assert len(columnar) == 0
        assert columnar.metadata == oracle.metadata
        assert columnar.metadata["tuples_accessed"] == 0


class TestTupleExactAgainstOracle:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("ties", ["shared", "by_index"])
    def test_random_instances(self, seed, ties):
        relation = generate_tuple_relation(
            7, rule_fraction=0.6, rule_size=2, seed=seed
        )
        fast = tuple_expected_ranks(relation, ties=ties)
        slow = brute_force_expected_ranks(relation, ties=ties)
        for tid in fast:
            assert fast[tid] == pytest.approx(slow[tid], abs=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_three_member_rules(self, seed):
        relation = generate_tuple_relation(
            9, rule_fraction=1.0, rule_size=3, seed=seed
        )
        fast = tuple_expected_ranks(relation)
        slow = brute_force_expected_ranks(relation)
        for tid in fast:
            assert fast[tid] == pytest.approx(slow[tid], abs=1e-9)

    def test_tied_scores_against_oracle(self):
        relation = TupleLevelRelation(
            [
                TupleLevelTuple("a", 5.0, 0.6),
                TupleLevelTuple("b", 5.0, 0.7),
                TupleLevelTuple("c", 3.0, 0.5),
            ]
        )
        for ties in ("shared", "by_index"):
            fast = tuple_expected_ranks(relation, ties=ties)
            slow = brute_force_expected_ranks(relation, ties=ties)
            for tid in fast:
                assert fast[tid] == pytest.approx(slow[tid], abs=1e-9)

    def test_certain_relation_is_positional(self, certain_tuple):
        assert tuple_expected_ranks(certain_tuple) == {
            "a": 0.0,
            "b": 1.0,
            "c": 2.0,
        }

    def test_zero_probability_tuple(self):
        relation = TupleLevelRelation(
            [
                TupleLevelTuple("never", 10.0, 0.0),
                TupleLevelTuple("always", 5.0, 1.0),
            ]
        )
        ranks = tuple_expected_ranks(relation)
        # "never" is always absent: its rank is always |W| = 1.
        assert ranks["never"] == pytest.approx(1.0)
        assert ranks["always"] == pytest.approx(0.0)


class TestTupleVectorizedFastPath:
    """The np.add.at cross-check kernel agrees with T-ERank to 1e-9."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("ties", ["shared", "by_index"])
    def test_agreement_on_random_data(self, seed, ties):
        relation = generate_tuple_relation(
            60, rule_fraction=0.6, seed=seed
        )
        reference = tuple_expected_ranks(relation, ties=ties)
        vectorized = tuple_expected_ranks_vectorized(
            relation, ties=ties
        )
        for tid in reference:
            assert vectorized[tid] == pytest.approx(
                reference[tid], abs=1e-9
            )

    @pytest.mark.parametrize("ties", ["shared", "by_index"])
    def test_agreement_with_ties_and_rules(self, ties):
        relation = TupleLevelRelation(
            [
                TupleLevelTuple("a", 5.0, 0.6),
                TupleLevelTuple("b", 5.0, 0.7),
                TupleLevelTuple("c", 3.0, 0.2),
                TupleLevelTuple("d", 3.0, 0.8),
            ],
            rules=[ExclusionRule("r", ["c", "d"])],
        )
        reference = tuple_expected_ranks(relation, ties=ties)
        vectorized = tuple_expected_ranks_vectorized(
            relation, ties=ties
        )
        for tid in reference:
            assert vectorized[tid] == pytest.approx(reference[tid])

    def test_paper_example(self, fig4):
        vectorized = tuple_expected_ranks_vectorized(fig4)
        assert vectorized["t1"] == pytest.approx(1.2)
        assert vectorized["t2"] == pytest.approx(1.4)
        assert vectorized["t3"] == pytest.approx(0.9)
        assert vectorized["t4"] == pytest.approx(1.9)

    def test_empty_relation(self):
        assert tuple_expected_ranks_vectorized(
            TupleLevelRelation([])
        ) == {}


class TestTErankPrune:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_exact_topk(self, seed):
        relation = generate_tuple_relation(
            400, rule_fraction=0.4, seed=seed
        )
        exact = t_erank(relation, 10)
        pruned = t_erank_prune(relation, 10)
        assert pruned.tids() == exact.tids()
        for item in pruned:
            assert item.statistic == pytest.approx(
                exact.statistics[item.tid]
            )

    def test_prunes_aggressively(self):
        relation = generate_tuple_relation(2000, seed=3)
        pruned = t_erank_prune(relation, 10)
        assert pruned.metadata["tuples_accessed"] < relation.size // 2
        assert pruned.metadata["halted_early"]

    def test_seen_ranks_are_exact(self):
        relation = generate_tuple_relation(
            100, rule_fraction=0.5, seed=4
        )
        pruned = t_erank_prune(relation, 5)
        exact = tuple_expected_ranks(relation)
        for tid, value in pruned.statistics.items():
            assert value == pytest.approx(exact[tid])

    def test_unseen_bound_soundness(self):
        """Every unseen tuple's exact rank is >= every reported rank."""
        relation = generate_tuple_relation(500, seed=8)
        pruned = t_erank_prune(relation, 10)
        exact = tuple_expected_ranks(relation)
        seen = set(pruned.statistics)
        worst_reported = max(item.statistic for item in pruned)
        for tid, value in exact.items():
            if tid not in seen:
                assert value >= worst_reported - 1e-9

    def test_k_zero(self, fig4):
        assert len(t_erank_prune(fig4, 0)) == 0

    def test_paper_example(self, fig4):
        assert t_erank_prune(fig4, 2).tids() == t_erank(fig4, 2).tids()

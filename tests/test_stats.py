"""Tests for the statistics toolbox (Poisson binomial, bounds, metrics)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.stats import (
    PoissonBinomialBuilder,
    binomial_pmf,
    chernoff_lower_tail,
    hoeffding_lower_tail,
    jaccard_similarity,
    kendall_tau_coefficient,
    kendall_tau_distance,
    markov_upper_tail,
    mixture_pmf,
    poisson_binomial_cdf,
    poisson_binomial_pmf,
    poisson_binomial_quantile,
    spearman_footrule,
    topk_precision,
    topk_recall,
)


class TestPoissonBinomialPmf:
    def test_empty_is_point_mass_at_zero(self):
        assert poisson_binomial_pmf([]).tolist() == [1.0]

    def test_two_fair_coins(self):
        assert poisson_binomial_pmf([0.5, 0.5]).tolist() == pytest.approx(
            [0.25, 0.5, 0.25]
        )

    def test_heterogeneous_probabilities(self):
        pmf = poisson_binomial_pmf([0.1, 0.9])
        assert pmf[0] == pytest.approx(0.9 * 0.1)
        assert pmf[1] == pytest.approx(0.1 * 0.1 + 0.9 * 0.9)
        assert pmf[2] == pytest.approx(0.1 * 0.9)

    def test_matches_binomial(self):
        pmf = poisson_binomial_pmf([0.3] * 6)
        for j in range(7):
            expected = math.comb(6, j) * 0.3**j * 0.7 ** (6 - j)
            assert pmf[j] == pytest.approx(expected)

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        pmf = poisson_binomial_pmf(rng.uniform(size=40))
        assert pmf.sum() == pytest.approx(1.0)

    def test_degenerate_probabilities(self):
        pmf = poisson_binomial_pmf([0.0, 1.0, 1.0])
        assert pmf.tolist() == pytest.approx([0.0, 0.0, 1.0, 0.0])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            poisson_binomial_pmf([1.5])

    def test_cdf(self):
        cdf = poisson_binomial_cdf([0.5, 0.5])
        assert cdf.tolist() == pytest.approx([0.25, 0.75, 1.0])

    def test_quantile(self):
        pmf = poisson_binomial_pmf([0.5, 0.5])
        assert poisson_binomial_quantile(pmf, 0.25) == 0
        assert poisson_binomial_quantile(pmf, 0.5) == 1
        assert poisson_binomial_quantile(pmf, 0.9) == 2

    def test_quantile_rejects_bad_phi(self):
        with pytest.raises(ValueError):
            poisson_binomial_quantile([1.0], 0.0)


class TestBinomialPmf:
    def test_matches_poisson_binomial_dp(self):
        for count, probability in ((5, 0.3), (12, 0.71), (1, 0.5)):
            fast = binomial_pmf(count, probability)
            slow = poisson_binomial_pmf([probability] * count)
            assert fast == pytest.approx(slow, abs=1e-12)

    def test_degenerate_cases(self):
        assert binomial_pmf(0, 0.7).tolist() == [1.0]
        assert binomial_pmf(3, 0.0).tolist() == [1.0, 0.0, 0.0, 0.0]
        assert binomial_pmf(3, 1.0).tolist() == [0.0, 0.0, 0.0, 1.0]

    def test_large_count_stays_normalised(self):
        pmf = binomial_pmf(5000, 0.013)
        assert pmf.sum() == pytest.approx(1.0)
        assert pmf.argmax() in (64, 65, 66)  # mode near n*p = 65

    def test_bit_identical_to_per_entry_lgamma(self):
        """The memoized coefficients change no bit of the pmf, and a
        caller mutating its result cannot corrupt the next call."""
        for count in (1, 7, 80, 1500):
            js = np.arange(count + 1)
            coefficients = (
                math.lgamma(count + 1)
                - np.array([math.lgamma(j + 1) for j in js])
                - np.array([math.lgamma(count - j + 1) for j in js])
            )
            for probability in (1e-4, 0.3, 0.999):
                reference = np.exp(
                    coefficients
                    + js * math.log(probability)
                    + (count - js) * math.log1p(-probability)
                )
                reference = reference / reference.sum()
                pmf = binomial_pmf(count, probability)
                assert pmf.tobytes() == reference.tobytes()
                pmf[0] = -1.0
                assert binomial_pmf(count, probability)[0] >= 0.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            binomial_pmf(-1, 0.5)
        with pytest.raises(ValueError):
            binomial_pmf(3, 1.2)


class TestBuilder:
    def test_incremental_matches_batch(self):
        rng = np.random.default_rng(1)
        probabilities = rng.uniform(size=25)
        builder = PoissonBinomialBuilder()
        for probability in probabilities:
            builder.add(probability)
        assert builder.pmf() == pytest.approx(
            poisson_binomial_pmf(probabilities)
        )
        assert builder.count == 25

    def test_mean_tracks_sum(self):
        builder = PoissonBinomialBuilder([0.25, 0.5])
        assert builder.mean == pytest.approx(0.75)
        assert builder.expectation() == pytest.approx(0.75)

    def test_cdf_at(self):
        builder = PoissonBinomialBuilder([0.5, 0.5])
        assert builder.cdf_at(-1) == 0.0
        assert builder.cdf_at(0) == pytest.approx(0.25)
        assert builder.cdf_at(5) == pytest.approx(1.0)

    def test_quantile(self):
        builder = PoissonBinomialBuilder([0.5, 0.5])
        assert builder.quantile(0.5) == 1


class TestMixture:
    def test_weighted_mix(self):
        mixed = mixture_pmf([(0.5, [1.0]), (0.5, [0.0, 1.0])])
        assert mixed.tolist() == pytest.approx([0.5, 0.5])

    def test_padding_to_length(self):
        mixed = mixture_pmf([(1.0, [0.4, 0.6])], length=4)
        assert mixed.tolist() == pytest.approx([0.4, 0.6, 0.0, 0.0])

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            mixture_pmf([(0.7, [1.0])])
        with pytest.raises(ValueError):
            mixture_pmf([])


class TestBounds:
    def test_markov_basic(self):
        assert markov_upper_tail(2.0, 10.0) == pytest.approx(0.2)

    def test_markov_clamped(self):
        assert markov_upper_tail(50.0, 10.0) == 1.0

    def test_markov_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            markov_upper_tail(1.0, 0.0)
        with pytest.raises(ValueError):
            markov_upper_tail(-1.0, 1.0)

    def test_markov_is_sound_for_discrete_pdf(self):
        from repro.models import DiscretePDF

        pdf = DiscretePDF([1, 5, 20], [0.5, 0.3, 0.2])
        for threshold in (2, 5, 10, 25):
            assert pdf.pr_greater_equal(threshold) <= markov_upper_tail(
                pdf.expectation(), threshold
            ) + 1e-12

    def test_hoeffding_decreasing_in_deviation(self):
        small = hoeffding_lower_tail(10.0, 20, 1.0)
        large = hoeffding_lower_tail(10.0, 20, 5.0)
        assert large < small <= 1.0

    def test_hoeffding_no_deviation(self):
        assert hoeffding_lower_tail(10.0, 20, 0.0) == 1.0

    def test_hoeffding_rejects_bad_count(self):
        with pytest.raises(ValueError):
            hoeffding_lower_tail(1.0, 0, 1.0)

    def test_chernoff_above_mean_is_trivial(self):
        assert chernoff_lower_tail(5.0, 6.0) == 1.0

    def test_chernoff_sound_for_binomial(self):
        """Empirical check: bound dominates the true lower tail."""
        pmf = poisson_binomial_pmf([0.5] * 30)
        mean = 15.0
        for threshold in (5, 8, 11):
            true_tail = float(pmf[: threshold + 1].sum())
            assert true_tail <= chernoff_lower_tail(mean, threshold) + 1e-12


class TestTopKMetrics:
    def test_precision_recall(self):
        assert topk_precision(["a", "b"], ["b", "c"]) == pytest.approx(0.5)
        assert topk_recall(["a", "b"], ["b", "c", "d"]) == pytest.approx(
            1 / 3
        )

    def test_empty_answer_conventions(self):
        assert topk_precision([], ["a"]) == 1.0
        assert topk_recall(["a"], []) == 1.0

    def test_jaccard(self):
        assert jaccard_similarity(["a", "b"], ["b", "c"]) == pytest.approx(
            1 / 3
        )
        assert jaccard_similarity([], []) == 1.0

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            topk_precision(["a", "a"], ["a"])


class TestRankCorrelation:
    def test_identical_rankings(self):
        ranking = ["a", "b", "c", "d"]
        assert kendall_tau_distance(ranking, ranking) == 0
        assert kendall_tau_coefficient(ranking, ranking) == 1.0
        assert spearman_footrule(ranking, ranking) == 0

    def test_reversed_rankings(self):
        forward = ["a", "b", "c", "d"]
        backward = list(reversed(forward))
        assert kendall_tau_distance(forward, backward) == 6
        assert kendall_tau_coefficient(forward, backward) == -1.0

    def test_single_swap(self):
        assert kendall_tau_distance(["a", "b", "c"], ["b", "a", "c"]) == 1

    def test_footrule(self):
        assert spearman_footrule(["a", "b", "c"], ["c", "b", "a"]) == 4

    def test_mismatched_items_rejected(self):
        with pytest.raises(ValueError):
            kendall_tau_distance(["a", "b"], ["a", "c"])

    def test_trivial_rankings(self):
        assert kendall_tau_coefficient(["a"], ["a"]) == 1.0

    def test_distance_matches_naive_counting(self):
        import itertools
        import random

        rng = random.Random(3)
        items = list("abcdefgh")
        for _ in range(20):
            first = items[:]
            second = items[:]
            rng.shuffle(first)
            rng.shuffle(second)
            position = {item: i for i, item in enumerate(second)}
            naive = sum(
                1
                for x, y in itertools.combinations(first, 2)
                if position[x] > position[y]
            )
            assert kendall_tau_distance(first, second) == naive

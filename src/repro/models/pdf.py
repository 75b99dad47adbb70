"""Finite discrete probability distributions over score values.

The attribute-level uncertainty model (paper Section 3, Figure 1)
attaches to each tuple a random score ``X_i`` with a finite discrete pdf
``{(v_{i,1}, p_{i,1}), ..., (v_{i,s_i}, p_{i,s_i})}``.  This module
provides :class:`DiscretePDF`, the canonical representation of such a
pdf, together with the operations the ranking algorithms rely on:

* tail probabilities ``Pr[X > v]`` / ``Pr[X >= v]`` (equation 3 of the
  paper is a sum of pairwise tail probabilities),
* expectation (the sorted-access order of A-ERank-Prune),
* quantiles and medians (Section 7),
* the *stochastically greater or equal* order used by the stability
  property (Definition 4), and
* sampling (the Monte-Carlo world sampler).

Values are stored sorted in ascending order with duplicate values
merged, so tail lookups are binary searches over precomputed suffix
sums.
"""

from __future__ import annotations

import bisect
import math
from typing import Callable, Iterable, Iterator, Sequence

from repro.exceptions import InvalidDistributionError

__all__ = ["DiscretePDF", "PROBABILITY_TOLERANCE"]

#: Absolute tolerance used when checking that probabilities sum to one.
PROBABILITY_TOLERANCE = 1e-9


def _as_pairs(
    values: Iterable[float],
    probabilities: Iterable[float],
) -> list[tuple[float, float]]:
    """Pair up values and probabilities, validating lengths."""
    values = list(values)
    probabilities = list(probabilities)
    if len(values) != len(probabilities):
        raise InvalidDistributionError(
            f"{len(values)} values but {len(probabilities)} probabilities"
        )
    return list(zip(values, probabilities))


class DiscretePDF:
    """A finite discrete probability distribution over real score values.

    Instances are immutable.  The support is kept sorted in ascending
    value order and duplicate values are merged by summing their
    probabilities, so two pdfs constructed from differently-ordered
    descriptions of the same distribution compare equal.

    Parameters
    ----------
    values:
        The support of the distribution.
    probabilities:
        The probability of each value, aligned with ``values``.
    normalize:
        When true, probabilities are rescaled to sum to one (useful for
        turning raw histogram counts into a pdf).  When false (the
        default) the probabilities must already sum to one within
        :data:`PROBABILITY_TOLERANCE`.

    Examples
    --------
    >>> x = DiscretePDF([100, 70], [0.4, 0.6])
    >>> x.expectation()
    82.0
    >>> x.pr_greater(85)
    0.4
    """

    __slots__ = ("_values", "_probs", "_suffix", "_expectation")

    def __init__(
        self,
        values: Iterable[float],
        probabilities: Iterable[float],
        *,
        normalize: bool = False,
    ) -> None:
        pairs = _as_pairs(values, probabilities)
        if not pairs:
            raise InvalidDistributionError("a pdf needs at least one value")
        for value, prob in pairs:
            if not math.isfinite(value):
                raise InvalidDistributionError(f"non-finite value {value!r}")
            if not math.isfinite(prob) or prob < 0.0:
                raise InvalidDistributionError(
                    f"probability {prob!r} for value {value!r}"
                    " is not in [0, 1]"
                )
        total = math.fsum(prob for _, prob in pairs)
        if normalize:
            if total <= 0.0:
                raise InvalidDistributionError(
                    "cannot normalize a pdf whose probabilities sum to zero"
                )
            pairs = [(value, prob / total) for value, prob in pairs]
        elif abs(total - 1.0) > PROBABILITY_TOLERANCE:
            raise InvalidDistributionError(
                f"probabilities sum to {total!r}, expected 1.0"
            )

        merged: dict[float, float] = {}
        for value, prob in pairs:
            if prob > 0.0:
                merged[value] = merged.get(value, 0.0) + prob
        if not merged:
            raise InvalidDistributionError("all probabilities are zero")

        ordered = sorted(merged.items())
        self._values: tuple[float, ...] = tuple(value for value, _ in ordered)
        self._probs: tuple[float, ...] = tuple(prob for _, prob in ordered)
        # _suffix[i] = Pr[X >= values[i]]; _suffix[len] = 0.
        suffix = [0.0] * (len(ordered) + 1)
        for index in range(len(ordered) - 1, -1, -1):
            suffix[index] = suffix[index + 1] + self._probs[index]
        self._suffix: tuple[float, ...] = tuple(suffix)
        self._expectation: float = math.fsum(
            value * prob for value, prob in ordered
        )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def point(cls, value: float) -> "DiscretePDF":
        """A deterministic distribution concentrated on ``value``."""
        return cls([value], [1.0])

    @classmethod
    def uniform_over(cls, values: Sequence[float]) -> "DiscretePDF":
        """The uniform distribution over the given (non-empty) values."""
        if not values:
            raise InvalidDistributionError("uniform_over needs values")
        weight = 1.0 / len(values)
        return cls(values, [weight] * len(values))

    @classmethod
    def from_pairs(
        cls,
        pairs: Iterable[tuple[float, float]],
        *,
        normalize: bool = False,
    ) -> "DiscretePDF":
        """Build a pdf from ``(value, probability)`` pairs."""
        pairs = list(pairs)
        return cls(
            [value for value, _ in pairs],
            [prob for _, prob in pairs],
            normalize=normalize,
        )

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def values(self) -> tuple[float, ...]:
        """The support, sorted ascending."""
        return self._values

    @property
    def probabilities(self) -> tuple[float, ...]:
        """The probability of each support value, aligned with ``values``."""
        return self._probs

    @property
    def greater_probabilities(self) -> tuple[float, ...]:
        """``Pr[X > v]`` for each support value ``v``, aligned with
        ``values`` — the suffix sums :meth:`pr_greater` reads."""
        return self._suffix[1:]

    @property
    def support_size(self) -> int:
        """Number of distinct values with non-zero probability."""
        return len(self._values)

    @property
    def min_value(self) -> float:
        """Smallest support value."""
        return self._values[0]

    @property
    def max_value(self) -> float:
        """Largest support value."""
        return self._values[-1]

    def items(self) -> Iterator[tuple[float, float]]:
        """Iterate over ``(value, probability)`` pairs in value order."""
        return iter(zip(self._values, self._probs))

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[tuple[float, float]]:
        return self.items()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiscretePDF):
            return NotImplemented
        return self._values == other._values and self._probs == other._probs

    def __hash__(self) -> int:
        return hash((self._values, self._probs))

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"({value:g}, {prob:g})" for value, prob in self.items()
        )
        return f"DiscretePDF([{pairs}])"

    # ------------------------------------------------------------------
    # Moments and tails
    # ------------------------------------------------------------------
    def expectation(self) -> float:
        """``E[X]``, the mean score."""
        return self._expectation

    def variance(self) -> float:
        """``Var[X]``."""
        mean = self._expectation
        return math.fsum(
            prob * (value - mean) ** 2 for value, prob in self.items()
        )

    def pr_greater(self, threshold: float) -> float:
        """``Pr[X > threshold]``."""
        index = bisect.bisect_right(self._values, threshold)
        return self._suffix[index]

    def pr_greater_equal(self, threshold: float) -> float:
        """``Pr[X >= threshold]``."""
        index = bisect.bisect_left(self._values, threshold)
        return self._suffix[index]

    def pr_less(self, threshold: float) -> float:
        """``Pr[X < threshold]``."""
        return 1.0 - self.pr_greater_equal(threshold)

    def pr_less_equal(self, threshold: float) -> float:
        """``Pr[X <= threshold]`` (the cdf)."""
        return 1.0 - self.pr_greater(threshold)

    def pr_equal(self, value: float) -> float:
        """``Pr[X = value]``."""
        index = bisect.bisect_left(self._values, value)
        if index < len(self._values) and self._values[index] == value:
            return self._probs[index]
        return 0.0

    def cdf(self, threshold: float) -> float:
        """Alias for :meth:`pr_less_equal`."""
        return self.pr_less_equal(threshold)

    def quantile(self, phi: float) -> float:
        """The smallest support value ``v`` with ``Pr[X <= v] >= phi``.

        ``phi`` must lie in ``(0, 1]``; ``quantile(0.5)`` is the median.
        """
        if not 0.0 < phi <= 1.0:
            raise ValueError(f"phi must be in (0, 1], got {phi!r}")
        target = phi - PROBABILITY_TOLERANCE
        running = 0.0
        for value, prob in self.items():
            running += prob
            if running >= target:
                return value
        return self._values[-1]

    def median(self) -> float:
        """The 0.5-quantile of the distribution."""
        return self.quantile(0.5)

    # ------------------------------------------------------------------
    # Orders and transforms
    # ------------------------------------------------------------------
    def stochastically_dominates(self, other: "DiscretePDF") -> bool:
        """First-order stochastic dominance: ``self >= other``.

        Returns true when ``Pr[self >= x] >= Pr[other >= x]`` for every
        real ``x`` (Definition 4's notion of *stochastically greater or
        equal*, up to :data:`PROBABILITY_TOLERANCE`).
        """
        thresholds = set(self._values) | set(other._values)
        return all(
            self.pr_greater_equal(x) >= other.pr_greater_equal(x)
            - PROBABILITY_TOLERANCE
            for x in thresholds
        )

    def shift(self, delta: float) -> "DiscretePDF":
        """The distribution of ``X + delta``."""
        return DiscretePDF(
            [value + delta for value in self._values], self._probs
        )

    def scale(self, factor: float) -> "DiscretePDF":
        """The distribution of ``factor * X`` for ``factor > 0``."""
        if factor <= 0.0:
            raise ValueError("scale factor must be positive")
        return DiscretePDF(
            [value * factor for value in self._values], self._probs
        )

    def map_values(
        self, transform: Callable[[float], float]
    ) -> "DiscretePDF":
        """Apply ``transform`` to every support value.

        Used by the value-invariance tests (Definition 5), which remap
        scores through an arbitrary strictly increasing function.  The
        transform need not be monotone in general; equal images are
        merged.
        """
        return DiscretePDF(
            [transform(value) for value in self._values], self._probs
        )

    def sample(self, rng) -> float:
        """Draw one value using ``rng`` (a :class:`random.Random` or
        :class:`numpy.random.Generator`)."""
        point = rng.random()
        running = 0.0
        for value, prob in self.items():
            running += prob
            if point < running:
                return value
        return self._values[-1]

"""Poisson-binomial distributions (sums of independent Bernoullis).

The rank of a tuple, conditioned on its own score, is the number of
*other* tuples that beat it — a sum of independent indicator variables
with heterogeneous success probabilities, i.e. a Poisson-binomial
random variable.  This single fact powers most of the paper's dynamic
programs:

* A-MQRank conditions on ``X_i = v_{i,l}`` and convolves the Bernoulli
  indicators ``Pr[X_j beats v_{i,l}]`` over the other tuples (paper
  Section 7.2, ``O(N^2)`` per tuple);
* T-MQRank conditions on presence and convolves one Bernoulli per
  *rule* (Section 7.3, ``O(M^2)`` per tuple);
* the U-kRanks, PT-k and Global-Topk baselines all read probabilities
  off the same conditional pdfs.

The implementation is the standard ``O(m^2)`` convolution DP on a numpy
vector, plus an incremental builder that supports adding indicators one
at a time (the pruning scans grow their seen set incrementally).
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "binomial_pmf",
    "poisson_binomial_pmf",
    "poisson_binomial_cdf",
    "poisson_binomial_quantile",
    "PoissonBinomialBuilder",
]

_PROB_TOL = 1e-9


def _validate_probability(probability: float) -> float:
    if not -_PROB_TOL <= probability <= 1.0 + _PROB_TOL:
        raise ValueError(
            f"Bernoulli probability {probability!r} is not in [0, 1]"
        )
    return min(max(probability, 0.0), 1.0)


def poisson_binomial_pmf(probabilities: Iterable[float]) -> np.ndarray:
    """The pmf of ``sum_i Bernoulli(p_i)`` as a vector of length m+1.

    ``result[j] = Pr[exactly j successes]``.  The empty product is the
    point mass at zero.

    Examples
    --------
    >>> poisson_binomial_pmf([0.5, 0.5]).tolist()
    [0.25, 0.5, 0.25]
    """
    pmf = np.array([1.0])
    for probability in probabilities:
        probability = _validate_probability(probability)
        extended = np.empty(pmf.size + 1)
        extended[0] = pmf[0] * (1.0 - probability)
        extended[1:-1] = (
            pmf[1:] * (1.0 - probability) + pmf[:-1] * probability
        )
        extended[-1] = pmf[-1] * probability
        pmf = extended
    return pmf


@functools.lru_cache(maxsize=8)
def _log_binomial_coefficients(count: int) -> np.ndarray:
    """``log C(count, j)`` for ``j = 0..count`` (read-only, memoized).

    The pruning scans ask for one ``count`` (the unseen tuples) dozens
    of times per halting check; ``lgamma(count - j + 1)`` is the
    ``lgamma(j + 1)`` vector reversed, so one scalar pass serves both.
    """
    log_factorials = np.array(
        [math.lgamma(j + 1) for j in range(count + 1)]
    )
    coefficients = (
        math.lgamma(count + 1) - log_factorials - log_factorials[::-1]
    )
    coefficients.flags.writeable = False
    return coefficients


def binomial_pmf(count: int, probability: float) -> np.ndarray:
    """``Binomial(count, probability)`` pmf in ``O(count)`` time.

    The equal-probability special case of the Poisson binomial,
    computed by the stable successive-ratio recurrence in log space —
    used by the pruning bounds, where ``count`` can be large (the
    number of unseen tuples) and the quadratic DP would be wasteful.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count!r}")
    probability = _validate_probability(probability)
    if count == 0:
        return np.array([1.0])
    if probability == 0.0:
        pmf = np.zeros(count + 1)
        pmf[0] = 1.0
        return pmf
    if probability == 1.0:
        pmf = np.zeros(count + 1)
        pmf[count] = 1.0
        return pmf
    js = np.arange(count + 1)
    log_pmf = (
        _log_binomial_coefficients(count)
        + js * math.log(probability)
        + (count - js) * math.log1p(-probability)
    )
    pmf = np.exp(log_pmf)
    return pmf / pmf.sum()


def poisson_binomial_cdf(probabilities: Iterable[float]) -> np.ndarray:
    """The cdf vector: ``result[j] = Pr[at most j successes]``."""
    return np.cumsum(poisson_binomial_pmf(probabilities))


def poisson_binomial_quantile(
    pmf: Sequence[float], phi: float
) -> int:
    """The smallest ``j`` with ``Pr[S <= j] >= phi`` given a pmf vector."""
    if not 0.0 < phi <= 1.0:
        raise ValueError(f"phi must be in (0, 1], got {phi!r}")
    running = 0.0
    target = phi - _PROB_TOL
    for j, mass in enumerate(pmf):
        running += mass
        if running >= target:
            return j
    return len(pmf) - 1


class PoissonBinomialBuilder:
    """Incrementally build a Poisson-binomial pmf.

    Each :meth:`add` convolves one more Bernoulli indicator into the
    pmf in ``O(current size)`` time, so adding ``m`` indicators costs
    ``O(m^2)`` total — the same asymptotics as the batch DP but usable
    inside a streaming/pruning scan that sees tuples one at a time.

    Examples
    --------
    >>> builder = PoissonBinomialBuilder()
    >>> builder.add(0.5)
    >>> builder.add(0.5)
    >>> builder.pmf().tolist()
    [0.25, 0.5, 0.25]
    """

    __slots__ = ("_pmf", "_mean")

    def __init__(self, probabilities: Iterable[float] = ()) -> None:
        self._pmf = np.array([1.0])
        self._mean = 0.0
        for probability in probabilities:
            self.add(probability)

    @property
    def count(self) -> int:
        """How many indicators have been added."""
        return self._pmf.size - 1

    @property
    def mean(self) -> float:
        """``E[S] = sum p_i`` of the indicators added so far."""
        return self._mean

    def add(self, probability: float) -> None:
        """Convolve one Bernoulli(``probability``) into the sum."""
        probability = _validate_probability(probability)
        self._mean += probability
        pmf = self._pmf
        extended = np.empty(pmf.size + 1)
        extended[0] = pmf[0] * (1.0 - probability)
        extended[1:-1] = (
            pmf[1:] * (1.0 - probability) + pmf[:-1] * probability
        )
        extended[-1] = pmf[-1] * probability
        self._pmf = extended

    def pmf(self) -> np.ndarray:
        """A copy of the current pmf vector."""
        return self._pmf.copy()

    def cdf_at(self, j: int) -> float:
        """``Pr[S <= j]`` for the current sum."""
        if j < 0:
            return 0.0
        upper = min(j + 1, self._pmf.size)
        return float(self._pmf[:upper].sum())

    def quantile(self, phi: float) -> int:
        """The smallest ``j`` with ``Pr[S <= j] >= phi``."""
        return poisson_binomial_quantile(self._pmf, phi)

    def expectation(self) -> float:
        """``E[S]`` computed from the pmf (equals :attr:`mean`)."""
        return float(
            np.dot(np.arange(self._pmf.size), self._pmf)
        )


def mixture_pmf(
    components: Sequence[tuple[float, Sequence[float]]],
    length: int | None = None,
) -> np.ndarray:
    """Mix pmf vectors: ``sum_l w_l * pmf_l`` padded to a common length.

    A-MQRank's rank distribution is exactly such a mixture: one
    Poisson-binomial component per support value of the tuple's score
    pdf, weighted by that value's probability.
    """
    if not components:
        raise ValueError("mixture needs at least one component")
    size = length or max(len(pmf) for _, pmf in components)
    mixed = np.zeros(size)
    total_weight = 0.0
    for weight, pmf in components:
        if weight < -_PROB_TOL:
            raise ValueError(f"negative mixture weight {weight!r}")
        if len(pmf) > size:
            raise ValueError("component pmf longer than mixture length")
        mixed[: len(pmf)] += weight * np.asarray(pmf)
        total_weight += weight
    if abs(total_weight - 1.0) > 1e-6:
        raise ValueError(
            f"mixture weights sum to {total_weight!r}, expected 1.0"
        )
    return mixed

"""Columnar substrate and generating-function rank kernels.

The Section 7 dynamic programs recompute, for every tuple, a
Poisson-binomial pmf over every other tuple from scratch — ``O(N^3)``
in the attribute-level model and ``O(N M^2)`` in the tuple-level model.
Li, Saha and Deshpande's *Unified Approach* observes that all of these
pmfs are evaluations of one generating function

    F(x) = prod_j (1 - p_j + p_j x)

whose coefficient vector can be maintained *incrementally* while
sweeping the tuples in score order: moving from one tuple to the next
changes a single factor, so each step is one polynomial division and
one multiplication by a linear factor — ``O(N)`` instead of ``O(N^2)``.

This module provides that engine on a columnar representation of the
relations: scores, probabilities and pdf supports live in flat numpy
arrays (no per-tuple Python objects on the hot path).  Two details make
the incremental sweep numerically safe:

* **Direction-stable division.**  Removing the factor
  ``(1 - p) + p x`` is a first-order recurrence whose ratio is
  ``p / (1 - p)`` run forward and ``(1 - p) / p`` run backward; the
  recurrence is run in whichever direction keeps the ratio at most one,
  so rounding errors never amplify.
* **Periodic rebuilds.**  After a bounded number of divisions the full
  product polynomial is rebuilt from the current probability vector,
  resetting any accumulated drift without changing the asymptotics.

The public functions mirror the legacy DP entry points and agree with
them (and with the possible-worlds oracle) to within ``1e-9`` total
variation — the parity tests in ``tests/test_columnar_gf.py`` and the
speedup gates in ``benchmarks/bench_e09*/e10*`` pin both claims.
The recurrences run on :func:`scipy.signal.lfilter`, imported on the
first sweep so that ``import repro`` stays SciPy-free.
:class:`AttributeColumns` is also the substrate of the A-ERank kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import Union

import numpy as np

from repro.exceptions import RankingError
from repro.models.attribute import AttributeLevelRelation
from repro.models.possible_worlds import TieRule, _check_ties
from repro.models.tuple_level import TupleLevelRelation
from repro.obs import profiled

__all__ = [
    "AttributeColumns",
    "TupleColumns",
    "MASS_TOLERANCE",
    "convolve_bernoulli",
    "deconvolve_bernoulli",
    "equal_runs",
    "fold_runs",
    "mass_violation",
    "product_polynomial",
    "rank_quantiles",
    "attribute_rank_pmf_matrix",
    "tuple_present_rank_pmf_matrix",
    "tuple_rank_pmf_matrix",
    "rank_position_probability_matrix",
]

#: Probabilities within this distance of 0 or 1 are treated as exact —
#: dividing by ``p`` or ``1 - p`` closer than this is not meaningful.
_EDGE_TOL = 1e-12

#: Rank-cdf comparisons share ``RankDistribution.quantile``'s slack.
_QUANTILE_TOL = 1e-9

#: Each pmf row of a sweep result must carry unit mass to within this —
#: the same tolerance :class:`RankDistribution` enforces on construction.
MASS_TOLERANCE = 1e-6

#: Rebuild the product polynomial after this many divisions.  Division
#: noise compounds exponentially across chained divide/multiply steps —
#: fastest once the polynomial's support narrows to a high-offset
#: window, which both sweeps reach late in score order — so the product
#: is reset from scratch every 8 divisions (measured drift ~1e-13 at
#: N = 2000, vs 1e+5 at cadence 64).  Tree rebuilds keep the amortised
#: rebuild cost comparable to the divisions it replaces.
_REBUILD_EVERY = 8


# ----------------------------------------------------------------------
# Columnar views of the two relation models
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class AttributeColumns:
    """Flat-array image of an :class:`AttributeLevelRelation`.

    The per-tuple score pdfs are concatenated tuple-major: entry ``e``
    of ``values``/``probs``/``greater`` belongs to tuple ``owners[e]``
    and the entries of tuple ``i`` occupy ``offsets[i]:offsets[i + 1]``
    with values sorted ascending (the :class:`DiscretePDF` invariant).
    ``greater[e]`` is ``Pr[X_i > values[e]]``, copied from the pdf's
    own suffix sums.
    """

    values: np.ndarray
    probs: np.ndarray
    greater: np.ndarray
    offsets: np.ndarray
    owners: np.ndarray
    tids: tuple[str, ...]

    @property
    def size(self) -> int:
        """``N``, the number of tuples."""
        return len(self.tids)

    @classmethod
    def from_relation(
        cls, relation: AttributeLevelRelation
    ) -> "AttributeColumns":
        pdfs = [row.score for row in relation]
        sizes = np.fromiter(
            (pdf.support_size for pdf in pdfs),
            dtype=np.int64,
            count=len(pdfs),
        )
        offsets = np.zeros(len(pdfs) + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])

        def flat(column: str) -> np.ndarray:
            return np.fromiter(
                chain.from_iterable(map(attrgetter(column), pdfs)),
                dtype=float,
                count=int(offsets[-1]),
            )

        return cls(
            values=flat("values"),
            probs=flat("probabilities"),
            greater=flat("greater_probabilities"),
            offsets=offsets,
            owners=np.repeat(np.arange(len(pdfs), dtype=np.int64), sizes),
            tids=relation.tids(),
        )


@dataclass(frozen=True, eq=False)
class TupleColumns:
    """Flat-array image of a :class:`TupleLevelRelation`.

    ``rules[i]`` indexes into ``relation.rules`` (explicit rules first,
    implied singletons after); ``rule_masses[r]`` is the total
    membership probability of rule ``r``; ``order`` lists tuple
    positions sorted by decreasing score with insertion-order
    tie-breaks — the Section 7 access order, which doubles as the
    ``by_index`` beat order.
    """

    scores: np.ndarray
    probs: np.ndarray
    rules: np.ndarray
    rule_masses: np.ndarray
    order: np.ndarray
    tids: tuple[str, ...]

    @property
    def size(self) -> int:
        """``N``, the number of tuples."""
        return len(self.tids)

    @property
    def rule_count(self) -> int:
        """``M``, the number of rules (singletons included)."""
        return self.rule_masses.size

    @classmethod
    def from_relation(
        cls, relation: TupleLevelRelation
    ) -> "TupleColumns":
        n = relation.size
        scores = np.fromiter(
            (row.score for row in relation), dtype=float, count=n
        )
        probs = np.fromiter(
            (row.probability for row in relation), dtype=float, count=n
        )
        rule_index = {
            rule.rule_id: index
            for index, rule in enumerate(relation.rules)
        }
        rules = np.fromiter(
            (
                rule_index[relation.rule_of(row.tid).rule_id]
                for row in relation
            ),
            dtype=np.int64,
            count=n,
        )
        rule_masses = np.fromiter(
            (
                math.fsum(
                    relation.tuple_by_id(member).probability
                    for member in rule
                )
                for rule in relation.rules
            ),
            dtype=float,
            count=relation.rule_count,
        )
        order = np.lexsort((np.arange(n), -scores))
        return cls(
            scores=scores,
            probs=probs,
            rules=rules,
            rule_masses=rule_masses,
            order=order,
            tids=relation.tids(),
        )


# ----------------------------------------------------------------------
# Order-preserving group sums for the expected-rank kernels
# ----------------------------------------------------------------------
def equal_runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start index and length of every run of equal, sorted ``keys``.

    Examples
    --------
    >>> starts, sizes = equal_runs(np.array([1.0, 1.0, 2.0, 5.0, 5.0]))
    >>> starts.tolist(), sizes.tolist()
    ([0, 2, 3], [2, 1, 2])
    """
    starts = np.flatnonzero(
        np.concatenate(([True], np.not_equal(keys[1:], keys[:-1])))
    )
    return starts, np.diff(np.append(starts, keys.size))


def fold_runs(
    starts: np.ndarray,
    sizes: np.ndarray,
    masses: np.ndarray,
    totals: np.ndarray,
) -> np.ndarray:
    """Add each run of ``masses`` onto ``totals`` left to right.

    Run ``g`` is ``masses[starts[g] : starts[g] + sizes[g]]`` and is
    folded onto ``totals[g]`` in place, one element at a time, exactly
    as a Python ``+=`` loop would — so the sums are bit-identical to
    one.  Returns every element's running total just before it was
    added.  One vector step per position within a run: a single step
    when every run has one element.

    Examples
    --------
    >>> totals = np.array([0.0, 10.0])
    >>> fold_runs(np.array([0, 2]), np.array([2, 1]),
    ...           np.array([1.0, 2.0, 4.0]), totals).tolist()
    [0.0, 1.0, 10.0]
    >>> totals.tolist()
    [3.0, 14.0]
    """
    before = np.empty(masses.size)
    for offset in range(int(sizes.max(initial=0))):
        runs = np.flatnonzero(sizes > offset)
        entries = starts[runs] + offset
        before[entries] = totals[runs]
        totals[runs] += masses[entries]
    return before


# ----------------------------------------------------------------------
# Linear-factor polynomial arithmetic
# ----------------------------------------------------------------------
def _clamped(probability: float) -> float:
    if not -_QUANTILE_TOL <= probability <= 1.0 + _QUANTILE_TOL:
        raise RankingError(
            f"Bernoulli probability {probability!r} is not in [0, 1]"
        )
    return min(max(probability, 0.0), 1.0)


def convolve_bernoulli(poly: np.ndarray, probability: float) -> np.ndarray:
    """Multiply a pmf polynomial by the factor ``(1 - p) + p x``.

    Examples
    --------
    >>> convolve_bernoulli(np.array([1.0]), 0.25).tolist()
    [0.75, 0.25]
    """
    p = _clamped(probability)
    out = np.empty(poly.size + 1)
    out[0] = poly[0] * (1.0 - p)
    out[1:-1] = poly[1:] * (1.0 - p) + poly[:-1] * p
    out[-1] = poly[-1] * p
    return out


def _first_order(ratio: float, driving: np.ndarray) -> np.ndarray:
    """Solve ``y[k] = driving[k] + ratio * y[k - 1]`` with ``y[-1]=0``.

    :func:`scipy.signal.lfilter`, imported on first use so that
    ``import repro`` does not load SciPy.  Stable whenever
    ``abs(ratio) <= 1``.
    """
    from scipy.signal import lfilter

    return np.asarray(lfilter([1.0], [1.0, -ratio], driving))


def deconvolve_bernoulli(
    poly: np.ndarray, probability: float
) -> np.ndarray:
    """Divide a pmf polynomial by the factor ``(1 - p) + p x``.

    Exact inverse of :func:`convolve_bernoulli` up to rounding.  The
    synthetic division is run *bidirectionally*: the forward recurrence
    is relatively stable below the index where the (log-concave, hence
    monotone) coefficient ratio ``poly[k + 1] / poly[k]`` crosses
    ``p / (1 - p)``, the backward recurrence above it.  The two halves
    are spliced at the index whose defining equation has the smallest
    residual, which keeps errors component-wise relative — even when
    ``p`` is within a few ulps of 0 or 1 — and lets thousands of
    divide/multiply steps chain in the sweeps without the absolute tail
    noise of one step being amplified by the next.

    Examples
    --------
    >>> grown = convolve_bernoulli(np.array([0.5, 0.5]), 0.75)
    >>> deconvolve_bernoulli(grown, 0.75).round(12).tolist()
    [0.5, 0.5]
    """
    if poly.size < 2:
        raise RankingError("cannot deconvolve a degree-0 polynomial")
    p = _clamped(probability)
    if p <= _EDGE_TOL:
        return poly[:-1].copy()
    if p >= 1.0 - _EDGE_TOL:
        return poly[1:].copy()
    length = poly.size - 1
    # Run the synthetic division in both directions over the full
    # range.  Each direction is accurate on one side of the point where
    # the (log-concave) coefficient ratio crosses p / (1 - p) and may
    # overflow past it — the rounding-error recurrences amplify by
    # p / (1 - p) forward and its inverse backward.  Splicing
    # ``forward[:s]`` with ``backward[s:]`` satisfies every defining
    # equation of the quotient except the one at index ``s``, so the
    # split is chosen where that residual is smallest; overflow lanes
    # produce inf/nan residuals and are never selected.
    with np.errstate(over="ignore", invalid="ignore"):
        forward = _first_order(
            -p / (1.0 - p), poly[:length] / (1.0 - p)
        )
        backward = _first_order(
            -(1.0 - p) / p, poly[:0:-1] / p
        )[::-1]
        residual = np.abs(
            poly
            - p * np.concatenate(([0.0], forward))
            - (1.0 - p) * np.concatenate((backward, [0.0]))
        )
    residual[np.isnan(residual)] = np.inf
    # Exact ties (common when the pmf has runs of exact zeros) are
    # broken toward the contractive direction: for p < 1/2 the forward
    # recurrence damps its own rounding noise (|p / (1 - p)| < 1), so
    # the largest minimal-residual split keeps the most forward lanes;
    # for p >= 1/2 the backward recurrence is the damped one and the
    # smallest split wins.
    if p < 0.5:
        split = residual.size - 1 - int(np.argmin(residual[::-1]))
    else:
        split = int(np.argmin(residual))
    return np.concatenate((forward[:split], backward[split:]))


def product_polynomial(probabilities: np.ndarray) -> np.ndarray:
    """``prod_j ((1 - p_j) + p_j x)`` as a dense coefficient vector.

    Coefficient ``k`` is ``Pr[exactly k successes]`` — the
    Poisson-binomial pmf of the vector, length ``len(p) + 1``.
    Computed by a balanced product tree (multiplications only, so no
    cancellation): wide levels convolve all sibling pairs batched
    across rows, narrow levels fall back to per-pair ``np.convolve``.
    The sweeps call this for their periodic drift-resetting rebuilds,
    so it has to be cheap.
    """
    probs = np.asarray(probabilities, dtype=float)
    if probs.size == 0:
        return np.array([1.0])
    level = np.empty((probs.size, 2))
    level[:, 0] = 1.0 - probs
    level[:, 1] = probs
    while level.shape[0] > 1:
        count, width = level.shape
        half = count // 2
        first = level[0 : 2 * half : 2]
        second = level[1 : 2 * half : 2]
        merged = np.zeros((half + (count & 1), 2 * width - 1))
        if width <= half:
            for k in range(width):
                merged[:half, k : k + width] += (
                    first[:, k : k + 1] * second
                )
        else:
            for pair in range(half):
                merged[pair, : 2 * width - 1] = np.convolve(
                    first[pair], second[pair]
                )
        if count & 1:
            merged[half:, :width] = level[-1]
        level = merged
    return level[0][: probs.size + 1].copy()


def mass_violation(
    matrix: np.ndarray, *, tol: float = MASS_TOLERANCE
) -> float | None:
    """Worst per-row mass-conservation breach of a pmf matrix, if any.

    The generating-function sweeps promise every row of their output
    sums to one; chained polynomial divisions can break that promise on
    adversarial inputs despite the direction-stable recurrences and
    periodic rebuilds.  Returns the largest ``|sum(row) - 1|`` when it
    exceeds ``tol`` (numerical distress: the caller should fall back to
    the legacy DP), else ``None``.  :func:`rank_quantiles` silently
    renormalizes rows, so callers must run this check *before* reading
    quantiles off a sweep result.
    """
    if matrix.shape[0] == 0:
        return None
    deviation = float(np.abs(matrix.sum(axis=1) - 1.0).max())
    return deviation if deviation > tol else None


def rank_quantiles(matrix: np.ndarray, phi: float) -> np.ndarray:
    """Per-row ``phi``-quantile ranks of a pmf matrix, vectorized.

    Matches :meth:`RankDistribution.quantile`: rows are normalized and
    the smallest rank whose cumulative mass reaches ``phi - 1e-9`` is
    returned.
    """
    if not 0.0 < phi <= 1.0:
        raise RankingError(f"phi must be in (0, 1], got {phi!r}")
    if matrix.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    cdf = np.cumsum(matrix, axis=1)
    cdf /= cdf[:, -1:]
    return np.argmax(cdf >= phi - _QUANTILE_TOL, axis=1)


# ----------------------------------------------------------------------
# Attribute-level model: one descending sweep over the value universe
# ----------------------------------------------------------------------
@profiled("a_mqrank_gf")
def attribute_rank_pmf_matrix(
    relation: Union[AttributeLevelRelation, AttributeColumns],
    *,
    ties: TieRule = "by_index",
) -> np.ndarray:
    """Every tuple's exact rank pmf (Definition 7) as an ``(N, N)`` array.

    Sweeps the distinct support values in descending order while
    maintaining ``tails[j] = Pr[X_j > v]`` and the generating function
    ``poly = prod_j ((1 - tails[j]) + tails[j] x)``.  Conditioning on
    ``X_i = v`` removes tuple ``i``'s factor by one polynomial division
    and swaps tie-group factors according to the tie rule; the
    conditional pmfs are mixed with weights ``Pr[X_i = v]`` exactly as
    in the legacy DP.  ``O(N * S)`` coefficient operations for ``S``
    total support values, vs the DP's ``O(N^2 * S)``.
    """
    _check_ties(ties)
    columns = (
        relation
        if isinstance(relation, AttributeColumns)
        else AttributeColumns.from_relation(relation)
    )
    n = columns.size
    matrix = np.zeros((n, n))
    if n == 0:
        return matrix

    # Entries sorted by descending value; equal values keep ascending
    # owner position, which is the by_index seniority order.
    entry_order = np.lexsort((columns.owners, -columns.values))
    values = columns.values[entry_order]
    masses = columns.probs[entry_order]
    owners = columns.owners[entry_order]
    changed = np.not_equal(values[1:], values[:-1])
    starts = np.flatnonzero(np.concatenate(([True], changed)))
    ends = np.append(starts[1:], values.size)

    tails = np.zeros(n)
    poly = np.zeros(n + 1)
    poly[0] = 1.0
    divisions = 0

    for start, end in zip(starts, ends):
        group = owners[start:end]
        group_masses = masses[start:end]
        width = group.size
        # Remove every group member's ">"-factor: `base` is the product
        # over tuples whose support does not contain this value.  Wide
        # tie groups would chain too many divisions between rebuilds, so
        # they get an exact leave-group-out product instead.
        if width > _REBUILD_EVERY:
            keep = np.ones(n, dtype=bool)
            keep[group] = False
            base = product_polynomial(tails[keep])
            divisions = 0
        else:
            base = poly
            for member in group:
                base = deconvolve_bernoulli(base, tails[member])
            divisions += width
        # suffix[t] = product of ">"-factors of members after t.
        suffix: list[np.ndarray] = [np.array([1.0])] * width
        for position in range(width - 1, 0, -1):
            suffix[position - 1] = convolve_bernoulli(
                suffix[position], tails[group[position]]
            )
        current = base
        for position in range(width):
            member = int(group[position])
            tail_poly = suffix[position]
            if tail_poly.size == 1:
                conditional = current
            else:
                conditional = np.convolve(current, tail_poly)
            matrix[member, : conditional.size] += (
                group_masses[position] * conditional
            )
            if position < width - 1 or ties == "by_index":
                if ties == "by_index":
                    # Earlier members beat on ties: ">=" factor.
                    step = min(
                        1.0, tails[member] + group_masses[position]
                    )
                else:
                    step = tails[member]
                current = convolve_bernoulli(current, step)
        tails[group] = np.minimum(tails[group] + group_masses, 1.0)
        if ties == "by_index":
            # The prefix factors were already the updated ones.
            poly = current
        else:
            poly = base
            for member in group:
                poly = convolve_bernoulli(poly, tails[member])
        if divisions >= _REBUILD_EVERY:
            divisions = 0
            poly = product_polynomial(tails)

    np.clip(matrix, 0.0, None, out=matrix)
    return matrix


# ----------------------------------------------------------------------
# Tuple-level model: one descending sweep over the tuples
# ----------------------------------------------------------------------
@profiled("t_mqrank_gf")
def tuple_present_rank_pmf_matrix(
    relation: Union[TupleLevelRelation, TupleColumns],
    *,
    ties: TieRule = "by_index",
) -> np.ndarray:
    """``Pr[j tuples beat t | t appears]`` for every ``t`` — ``(N, M)``.

    Sweeps tuples in decreasing score order maintaining, per rule, the
    mass of already-seen members and the generating function over all
    ``M`` rule factors.  A tuple's conditional pmf is the polynomial
    divided by its own rule's factor; under ``by_index`` ties the sweep
    order *is* the beat order so the same division also serves the
    update, giving ``O(N M)`` total vs the DP's ``O(N M^2)``.
    """
    _check_ties(ties)
    columns = (
        relation
        if isinstance(relation, TupleColumns)
        else TupleColumns.from_relation(relation)
    )
    n = columns.size
    m = columns.rule_count
    present = np.zeros((n, max(m, 1)))
    if n == 0:
        return present

    beaten = np.zeros(m)
    poly = np.zeros(m + 1)
    poly[0] = 1.0
    divisions = 0
    order = columns.order
    sorted_scores = columns.scores[order]
    changed = np.not_equal(sorted_scores[1:], sorted_scores[:-1])
    starts = np.flatnonzero(np.concatenate(([True], changed)))
    ends = np.append(starts[1:], n)

    if ties == "by_index":
        for position in order:
            rule = int(columns.rules[position])
            conditional = deconvolve_bernoulli(poly, beaten[rule])
            divisions += 1
            present[position] = conditional
            beaten[rule] = min(
                1.0, beaten[rule] + columns.probs[position]
            )
            poly = convolve_bernoulli(conditional, beaten[rule])
            if divisions >= _REBUILD_EVERY:
                divisions = 0
                poly = product_polynomial(beaten)
        return present

    for start, end in zip(starts, ends):
        group = order[start:end]
        # Equal scores never beat under Definition 6, so every member
        # is queried against the pre-group state.
        for position in group:
            rule = int(columns.rules[position])
            present[position] = deconvolve_bernoulli(poly, beaten[rule])
        divisions += group.size
        for position in group:
            rule = int(columns.rules[position])
            stripped = deconvolve_bernoulli(poly, beaten[rule])
            divisions += 1
            beaten[rule] = min(
                1.0, beaten[rule] + columns.probs[position]
            )
            poly = convolve_bernoulli(stripped, beaten[rule])
        if divisions >= _REBUILD_EVERY:
            divisions = 0
            poly = product_polynomial(beaten)
    return present


def tuple_rank_pmf_matrix(
    relation: Union[TupleLevelRelation, TupleColumns],
    *,
    ties: TieRule = "by_index",
) -> np.ndarray:
    """Every tuple's unconditional rank pmf — an ``(N, M + 1)`` array.

    Mixes the present branch (``p(t)`` times the conditional pmf) with
    the absent branch, where the rank is ``|W|``: the world-size
    polynomial over all rule masses is built once and each tuple's own
    rule factor is swapped for the leftover mass renormalised by
    ``1 / (1 - p(t))`` — one division and one multiplication per tuple.
    """
    columns = (
        relation
        if isinstance(relation, TupleColumns)
        else TupleColumns.from_relation(relation)
    )
    n = columns.size
    m = columns.rule_count
    result = np.zeros((n, max(m, 1) + 1))
    if n == 0:
        return result
    present = tuple_present_rank_pmf_matrix(columns, ties=ties)
    world = product_polynomial(columns.rule_masses)
    for position in range(n):
        probability = float(columns.probs[position])
        if probability > 0.0:
            result[position, :m] += probability * present[position]
        if probability < 1.0:
            rule = int(columns.rules[position])
            remainder = max(
                0.0, float(columns.rule_masses[rule]) - probability
            )
            leftover = min(1.0, remainder / (1.0 - probability))
            absent = convolve_bernoulli(
                deconvolve_bernoulli(
                    world, float(columns.rule_masses[rule])
                ),
                leftover,
            )
            result[position] += (1.0 - probability) * absent
    np.clip(result, 0.0, None, out=result)
    return result


# ----------------------------------------------------------------------
# The shared positional table behind PRF and the prior-work baselines
# ----------------------------------------------------------------------
def rank_position_probability_matrix(
    relation: Union[AttributeLevelRelation, TupleLevelRelation],
) -> np.ndarray:
    """``table[i, j] = Pr[tuple i occupies position j]`` — ``(N, N)``.

    The positional table behind PRF, U-kRanks, PT-k and Global-Topk
    (index tie-break).  Attribute-level rows sum to one; tuple-level
    rows are ``p(t)`` times the present-branch pmf and sum to ``p(t)``.
    """
    if isinstance(relation, AttributeLevelRelation):
        return attribute_rank_pmf_matrix(relation, ties="by_index")
    columns = TupleColumns.from_relation(relation)
    present = tuple_present_rank_pmf_matrix(columns, ties="by_index")
    n = columns.size
    table = np.zeros((n, n))
    if n == 0:
        return table
    limit = min(n, present.shape[1])
    table[:, :limit] = present[:, :limit] * columns.probs[:, None]
    return table

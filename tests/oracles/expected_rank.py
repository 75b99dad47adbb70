"""Scalar and quadratic expected-rank kernels: the references for the
columnar A-ERank and T-ERank.

* :func:`attribute_expected_ranks_scalar` and
  :func:`tuple_expected_ranks_scalar` are the original per-object
  ``O(N log N)`` passes (equations 4 and 8).  The production kernels in
  :mod:`repro.core.attr_expected_rank` and
  :mod:`repro.core.tuple_expected_rank` fold the same sums in the same
  order over numpy columns, so the parity tests require *bit-identical*
  ranks (``float.hex``), not just close ones.
* :func:`attribute_expected_ranks_quadratic` and
  :func:`tuple_expected_ranks_quadratic` are the paper's brute-force
  (BFS) baselines, the direct ``O(N^2)`` evaluations of equations (3)
  and (7) that experiments E3 and E7 time against.
"""

from __future__ import annotations

import bisect
import math

from repro.core.beats import beat_probability
from repro.core.tuple_expected_rank import (
    _beats,
    _expected_rank,
    _rule_aggregates,
)
from repro.models.attribute import AttributeLevelRelation
from repro.models.possible_worlds import TieRule, _check_ties
from repro.models.tuple_level import TupleLevelRelation

__all__ = [
    "attribute_expected_ranks_quadratic",
    "attribute_expected_ranks_scalar",
    "tuple_expected_ranks_quadratic",
    "tuple_expected_ranks_scalar",
]


class _TailOracle:
    """``q(v) = sum_j Pr[X_j > v]`` over the whole relation.

    Built once in ``O(S log S)`` where ``S = sum_i s_i``; each query is
    a binary search.  Also answers the total mass *equal* to a value
    among tuples with insertion position below a given one, which the
    ``by_index`` tie rule needs.
    """

    def __init__(self, relation: AttributeLevelRelation) -> None:
        mass_at: dict[float, float] = {}
        positions_at: dict[float, list[tuple[int, float]]] = {}
        for position, row in enumerate(relation):
            for value, probability in row.score.items():
                mass_at[value] = mass_at.get(value, 0.0) + probability
                positions_at.setdefault(value, []).append(
                    (position, probability)
                )
        self._values: list[float] = sorted(mass_at)
        # _suffix[i] = total mass at values strictly greater than
        # _values[i - 1]; _suffix[len] = 0.
        suffix = [0.0] * (len(self._values) + 1)
        for index in range(len(self._values) - 1, -1, -1):
            suffix[index] = suffix[index + 1] + mass_at[self._values[index]]
        self._suffix = suffix
        self._prefix_by_value: dict[
            float, tuple[list[int], list[float]]
        ] = {}
        for value, entries in positions_at.items():
            entries.sort()
            cumulative: list[float] = []
            running = 0.0
            for _, probability in entries:
                running += probability
                cumulative.append(running)
            self._prefix_by_value[value] = (
                [position for position, _ in entries],
                cumulative,
            )

    def mass_greater(self, value: float) -> float:
        """``q(value)``: total probability mass strictly above."""
        index = bisect.bisect_right(self._values, value)
        return self._suffix[index]

    def equal_mass_before(self, value: float, position: int) -> float:
        """Mass exactly at ``value`` among tuples inserted earlier."""
        entry = self._prefix_by_value.get(value)
        if entry is None:
            return 0.0
        positions, cumulative = entry
        index = bisect.bisect_left(positions, position)
        if index == 0:
            return 0.0
        return cumulative[index - 1]


def attribute_expected_ranks_scalar(
    relation: AttributeLevelRelation,
    *,
    ties: TieRule = "shared",
) -> dict[str, float]:
    """A-ERank (equation 4) one tuple and one pdf entry at a time."""
    _check_ties(ties)
    oracle = _TailOracle(relation)
    ranks: dict[str, float] = {}
    for position, row in enumerate(relation):
        terms = []
        for value, probability in row.score.items():
            others_above = oracle.mass_greater(value) - row.score.pr_greater(
                value
            )
            if ties == "by_index":
                # Earlier tuples tied at this value also beat us.
                others_above += oracle.equal_mass_before(value, position)
            terms.append(probability * others_above)
        ranks[row.tid] = math.fsum(terms)
    return ranks


def attribute_expected_ranks_quadratic(
    relation: AttributeLevelRelation,
    *,
    ties: TieRule = "shared",
) -> dict[str, float]:
    """The paper's brute-force-search (BFS) baseline: direct evaluation
    of equation (3), ``r(t_i) = sum_{j != i} Pr[X_j > X_i]``.

    ``O(N^2)`` pairwise comparisons — the comparison point of the
    scalability experiment (E3), kept deliberately naive.
    """
    _check_ties(ties)
    ranks: dict[str, float] = {}
    for position, row in enumerate(relation):
        total = 0.0
        for other_position, other in enumerate(relation):
            if other_position == position:
                continue
            total += beat_probability(
                other.score,
                row.score,
                challenger_is_earlier=other_position < position,
                ties=ties,
            )
        ranks[row.tid] = total
    return ranks


def tuple_expected_ranks_scalar(
    relation: TupleLevelRelation,
    *,
    ties: TieRule = "shared",
) -> dict[str, float]:
    """T-ERank (equation 8) walking the score order tuple by tuple."""
    _check_ties(ties)
    positions = {row.tid: index for index, row in enumerate(relation)}
    ordered = relation.order_by_score()
    expected_world_size = relation.expected_world_size()

    # higher_mass per tuple: exclusive prefix sums over the sorted
    # order.  Under "shared" ties all members of a tie group share the
    # group-start prefix (only strictly greater scores count).
    higher_mass: dict[str, float] = {}
    running = 0.0
    index = 0
    while index < len(ordered):
        group_end = index
        score = ordered[index].score
        while group_end < len(ordered) and ordered[group_end].score == score:
            group_end += 1
        group_running = running
        for offset in range(index, group_end):
            row = ordered[offset]
            if ties == "shared":
                higher_mass[row.tid] = running
            else:
                higher_mass[row.tid] = group_running
                group_running += row.probability
        running += math.fsum(
            ordered[offset].probability
            for offset in range(index, group_end)
        )
        index = group_end

    ranks: dict[str, float] = {}
    for row in relation:
        same_rule_higher, same_rule_total = _rule_aggregates(
            relation, row, positions, ties
        )
        ranks[row.tid] = _expected_rank(
            row,
            higher_mass[row.tid],
            same_rule_higher,
            same_rule_total,
            expected_world_size,
        )
    return ranks


def tuple_expected_ranks_quadratic(
    relation: TupleLevelRelation,
    *,
    ties: TieRule = "shared",
) -> dict[str, float]:
    """Brute-force evaluation of equation (7), one pairwise pass per
    tuple — the ``O(N^2)`` comparison point of experiment E7."""
    _check_ties(ties)
    positions = {row.tid: index for index, row in enumerate(relation)}
    expected_world_size = relation.expected_world_size()
    ranks: dict[str, float] = {}
    for row in relation:
        higher_mass = 0.0
        for other in relation:
            if other.tid != row.tid and _beats(
                other, row, positions, ties
            ):
                higher_mass += other.probability
        same_rule_higher, same_rule_total = _rule_aggregates(
            relation, row, positions, ties
        )
        ranks[row.tid] = _expected_rank(
            row,
            higher_mass,
            same_rule_higher,
            same_rule_total,
            expected_world_size,
        )
    return ranks

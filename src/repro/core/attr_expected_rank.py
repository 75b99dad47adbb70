"""Expected ranks in the attribute-level model (paper Section 5).

Two algorithms:

* :func:`a_erank` — the exact ``O(N log N)`` algorithm (Section 5.1).
  By linearity of expectation (equation 3),
  ``r(t_i) = sum_{j != i} Pr[X_j > X_i]``, which equation (4) rewrites
  as ``sum_l p_{i,l} (q(v_{i,l}) - Pr[X_i > v_{i,l}])`` with
  ``q(v) = sum_j Pr[X_j > v]`` precomputed once for the whole value
  universe by a sort and a suffix sum.  One columnar pass over
  :class:`~repro.core.columnar.AttributeColumns`
  (:func:`attribute_expected_ranks`) is the only production kernel;
  the scalar pass and the ``O(N^2)`` BFS it is checked against live in
  ``tests/oracles/expected_rank.py``.

* :func:`a_erank_prune` — the early-termination scan (Section 5.2).
  Tuples arrive in decreasing expected-score order; Markov's
  inequality bounds the influence of unseen tuples (equations 5-6).
  The scan halts once ``k`` seen tuples have upper bounds below the
  lower bound of every unseen tuple, then answers from the curtailed
  database exactly as the paper prescribes.  The Markov step requires
  strictly positive scores.

  The seen set is one columnar state (:class:`_SeenState`): padded
  ``(N, s)`` value, probability and suffix arrays in access order.
  An arrival costs two numpy passes over the ``n`` seen rows
  (``O(n * s^2)`` element work, no Python loop over tuples) and a
  halting check one more, so a scan that stops after ``n`` tuples does
  ``O(n^2 s^2)`` element work in ``O(n)`` vector calls.  The sums fold
  in the order of the scalar pairwise scan, so every bound is
  bit-identical to it; a Fenwick tree or universe prefix sums would be
  asymptotically cheaper but reorder the sums, and a halting test at
  the boundary could flip.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.columnar import AttributeColumns, equal_runs, fold_runs
from repro.core.result import TopKResult, top_k_result
from repro.exceptions import PruningBoundError, RankingError
from repro.models.attribute import AttributeLevelRelation, AttributeTuple
from repro.models.possible_worlds import TieRule, _check_ties
from repro.obs import count, get_registry, profiled

__all__ = [
    "attribute_expected_ranks",
    "attribute_expected_ranks_vectorized",
    "a_erank",
    "a_erank_prune",
]


@profiled("a_erank")
def attribute_expected_ranks(
    relation: AttributeLevelRelation,
    *,
    ties: TieRule = "shared",
) -> dict[str, float]:
    """Exact expected rank of every tuple — the core of A-ERank.

    One stable sort of the flattened pdf entries by value gives
    ``q(v)``, the mass strictly above each distinct value, as a
    reversed cumulative sum over the per-value masses; each tuple's
    rank is then ``math.fsum`` over its own entries of
    ``p_{i,l} (q(v_{i,l}) - Pr[X_i > v_{i,l}])`` (equation 4).
    ``O(S log S)`` where ``S`` is the total pdf size; ``O(N log N)``
    for constant-size pdfs, matching the paper.

    Every sum folds in the order of the scalar reference
    (``tests/oracles/expected_rank.py``): per-value masses left to
    right in relation order, ``q`` from the top value down.  The ranks
    are therefore bit-identical to it, and so are the answer digests.
    """
    _check_ties(ties)
    count("a_erank.tuples_accessed", relation.size)
    if not relation.size:
        return {}
    columns = AttributeColumns.from_relation(relation)
    # Stable: the entries of one value stay in relation order.
    order = np.argsort(columns.values, kind="stable")
    values = columns.values[order]
    masses = columns.probs[order]
    starts, sizes = equal_runs(values)
    # ``before`` is the mass of earlier tuples at the same value: the
    # by_index tie extra.
    value_mass = np.zeros(starts.size)
    before = fold_runs(starts, sizes, masses, value_mass)
    mass_above = np.cumsum(value_mass[::-1])[::-1]
    q = np.repeat(np.append(mass_above[1:], 0.0), sizes)
    others_above = q - columns.greater[order]
    if ties == "by_index":
        # Earlier tuples tied at this value also beat us.
        others_above += before
    terms = np.empty(values.size)
    terms[order] = masses * others_above
    flat = terms.tolist()
    bounds = columns.offsets.tolist()
    return {
        tid: math.fsum(flat[bounds[index] : bounds[index + 1]])
        for index, tid in enumerate(columns.tids)
    }


@profiled("a_erank_vectorized")
def attribute_expected_ranks_vectorized(
    relation: AttributeLevelRelation,
    *,
    ties: TieRule = "shared",
) -> dict[str, float]:
    """A numpy batch evaluation of equation (4) — same asymptotics as
    :func:`attribute_expected_ranks`, much smaller constants.

    All ``S = sum_i s_i`` (value, probability) pairs are flattened into
    arrays; one argsort delivers ``q(v)`` (global mass strictly above
    each value) and the per-tuple own-mass correction, so the whole
    computation is a handful of vector operations.  Not on the
    production path: ``np.add.at`` sums in a different order, so its
    ranks can differ from :func:`attribute_expected_ranks` in the last
    bit.  Kept as an independent cross-check for the end-to-end
    benchmark and the large scalability runs.
    """
    _check_ties(ties)
    count("a_erank_vectorized.tuples_accessed", relation.size)

    sizes = [row.score.support_size for row in relation]
    total = sum(sizes)
    values = np.empty(total)
    masses = np.empty(total)
    owners = np.empty(total, dtype=np.int64)
    cursor = 0
    for index, row in enumerate(relation):
        size = sizes[index]
        values[cursor : cursor + size] = row.score.values
        masses[cursor : cursor + size] = row.score.probabilities
        owners[cursor : cursor + size] = index
        cursor += size

    order = np.argsort(values, kind="stable")
    sorted_values = values[order]
    sorted_masses = masses[order]
    # Suffix sums grouped by distinct value: q(v) = mass strictly above.
    suffix = np.concatenate(
        ([0.0], np.cumsum(sorted_masses[::-1]))
    )[::-1]
    # For each sorted entry, the first index of its tie group; all
    # entries of a group share mass-strictly-above = suffix[group_end].
    is_new_group = np.empty(total, dtype=bool)
    is_new_group[0] = True
    np.not_equal(
        sorted_values[1:], sorted_values[:-1], out=is_new_group[1:]
    )
    group_ids = np.cumsum(is_new_group) - 1
    group_starts = np.nonzero(is_new_group)[0]
    group_ends = np.append(group_starts[1:], total)
    q_sorted = suffix[group_ends][group_ids]

    # Own-tuple mass strictly above each value, from each pdf's suffix.
    own_above = np.empty(total)
    cursor = 0
    for index, row in enumerate(relation):
        size = sizes[index]
        # pdf suffix[l] = Pr[X >= values[l]]; strictly-above drops the
        # value's own mass.
        probabilities = np.asarray(row.score.probabilities)
        including = np.cumsum(probabilities[::-1])[::-1]
        own_above[cursor : cursor + size] = including - probabilities
        cursor += size
    # own_above now holds Pr[X_i > v_{i,l}] per flattened entry.

    q_by_entry = np.empty(total)
    q_by_entry[order] = q_sorted
    others_above = q_by_entry - own_above

    if ties == "by_index":
        # Within each equal-value group, add the mass of entries from
        # earlier-positioned tuples (a tuple never repeats a value).
        tie_order = np.lexsort((owners[order], group_ids))
        grouped_masses = sorted_masses[tie_order]
        prefix = np.cumsum(grouped_masses)
        group_of = group_ids[tie_order]
        first_of_group = np.empty(total, dtype=bool)
        first_of_group[0] = True
        np.not_equal(
            group_of[1:], group_of[:-1], out=first_of_group[1:]
        )
        group_base = np.maximum.accumulate(
            np.where(first_of_group, prefix - grouped_masses, -np.inf)
        )
        earlier_in_group = prefix - grouped_masses - group_base
        tie_extra_sorted = np.empty(total)
        tie_extra_sorted[tie_order] = earlier_in_group
        tie_extra = np.empty(total)
        tie_extra[order] = tie_extra_sorted
        others_above = others_above + tie_extra

    contributions = masses * others_above
    ranks = np.zeros(len(relation))
    np.add.at(ranks, owners, contributions)
    return {
        row.tid: float(ranks[index])
        for index, row in enumerate(relation)
    }


def a_erank(
    relation: AttributeLevelRelation,
    k: int,
    *,
    ties: TieRule = "shared",
) -> TopKResult:
    """Exact top-k by expected rank (algorithm A-ERank).

    Returns the ``min(k, N)`` tuples with the smallest expected ranks;
    ties on the statistic are broken by insertion order.
    """
    if k < 0:
        raise RankingError(f"k must be >= 0, got {k!r}")
    return top_k_result(
        "expected_rank",
        k,
        attribute_expected_ranks(relation, ties=ties),
        relation.tids(),
        {"tuples_accessed": relation.size, "exact": True, "ties": ties},
    )


class _SeenState:
    """Columnar incremental pruning state over one access order.

    Row ``i`` describes the ``i``-th tuple in access order as padded
    ``(N, s_max)`` columns: its pdf values (padded with ``inf``), their
    probabilities (padded with ``0``) and the suffix
    ``Pr[X >= v_l]`` (padded with ``0``, plus a trailing ``0`` column
    for ``Pr[X > v_max]``).  ``seen_term[i]`` is the first term of
    equation (5): ``sum`` over seen ``j != i`` of ``Pr[X_j beats X_i]``.

    Every sum folds in the order of the scalar pairwise scan — each
    pdf's entries left to right, seen tuples in arrival order — and
    padding adds exact zeros, so the bounds are bit-identical to it.
    Memory is ``O(N * s_max)``: one very wide pdf widens every row.
    """

    def __init__(
        self, relation: AttributeLevelRelation, ties: TieRule
    ) -> None:
        rows = relation.order_by_expected_score()
        size = len(rows)
        width = max((row.score.support_size for row in rows), default=1)
        self.rows: list[AttributeTuple] = rows
        self.by_index = ties == "by_index"
        self.positions = np.array(
            [relation.position_of(row.tid) for row in rows], dtype=np.int64
        )
        self.values = np.full((size, width), np.inf)
        self.probabilities = np.zeros((size, width))
        for index, row in enumerate(rows):
            support = row.score.support_size
            self.values[index, :support] = row.score.values
            self.probabilities[index, :support] = row.score.probabilities
        # Reversed sequential cumsum, as DiscretePDF builds its suffix.
        self.suffix = np.zeros((size, width + 1))
        self.suffix[:, :width] = np.cumsum(
            self.probabilities[:, ::-1], axis=1
        )[:, ::-1]
        self.seen_term = np.zeros(size)
        self.count = 0

    def _beats(
        self, rows: np.ndarray, values: np.ndarray, position: int
    ) -> np.ndarray:
        """``Pr[X_j beats v]`` for ``j`` in ``rows`` (axis 0) and ``v`` in
        ``values`` (axis 1), held by the tuple inserted at ``position``."""
        seen_values = self.values[rows][:, :, None]
        # Entries of X_j that do not beat v; their count indexes the
        # suffix, as bisect does in DiscretePDF.
        losing = seen_values <= values
        if self.by_index:
            earlier = self.positions[rows] < position
            losing[earlier] = seen_values[earlier] < values
        return self.suffix[rows[:, None], np.count_nonzero(losing, axis=1)]

    def value_beats(self, value: float, row: int) -> list[float]:
        """``Pr[X_j beats X_row = value]`` for every other seen ``j``,
        in arrival order."""
        others = np.delete(np.arange(self.count), row)
        beats = self._beats(others, np.array([value]), self.positions[row])
        return beats[:, 0].tolist()

    def admit(self) -> None:
        """Bring the next tuple of the access order into the seen set.

        Two vector passes: the arriving pdf's beat mass is added to
        every seen tuple's ``seen_term``, then the arriving tuple's own
        ``seen_term`` is folded over the seen pdfs in arrival order.
        """
        arriving = self.count
        self.count += 1
        if not arriving:
            return
        support = self.rows[arriving].score.support_size
        values = self.values[arriving, :support]
        suffix = self.suffix[arriving]
        position = self.positions[arriving]
        seen_values = self.values[:arriving]
        # Pass 1: Pr[arriving beats j] = sum_l p_{j,l} Pr[X_a > v_{j,l}].
        index = np.searchsorted(values, seen_values, side="right")
        if self.by_index:
            earlier = position < self.positions[:arriving]
            index[earlier] = np.searchsorted(
                values, seen_values[earlier], side="left"
            )
        beaten = self.probabilities[:arriving] * suffix[index]
        self.seen_term[:arriving] += np.cumsum(beaten, axis=1)[:, -1]
        # Pass 2: Pr[j beats arriving] for every seen j, then the fold.
        beating = self._beats(np.arange(arriving), values, position)
        beats = np.cumsum(
            self.probabilities[arriving, :support] * beating, axis=1
        )[:, -1]
        self.seen_term[arriving] = np.cumsum(beats)[-1]

    def markov_tails(self, expectation_bound: float) -> np.ndarray:
        """``sum_l p_{i,l} min(1, E / v_{i,l})`` for every seen tuple —
        the clamped Markov term of equations (5) and (6)."""
        seen = self.count
        ratio = np.minimum(1.0, expectation_bound / self.values[:seen])
        return np.cumsum(
            self.probabilities[:seen] * ratio, axis=1
        )[:, -1]

    def curtailed(self) -> AttributeLevelRelation:
        """The seen tuples as a relation, in insertion order."""
        order = np.argsort(self.positions[: self.count], kind="stable")
        return AttributeLevelRelation([self.rows[i] for i in order])


@profiled("a_erank_prune")
def a_erank_prune(
    relation: AttributeLevelRelation,
    k: int,
    *,
    ties: TieRule = "shared",
) -> TopKResult:
    """Early-termination top-k by expected rank (A-ERank-Prune).

    Scans tuples in decreasing expected-score order, maintaining the
    paper's upper bounds ``r+(t_i)`` on every seen tuple (equation 5)
    and the lower bound ``r-`` on all unseen tuples (equation 6).  The
    scan halts as soon as ``k`` seen upper bounds fall below ``r-``;
    the answer is the exact expected-rank top-k of the curtailed
    database of seen tuples.

    Raises :class:`PruningBoundError` when any score value is not
    strictly positive (Markov's inequality would be unsound).

    The returned metadata reports ``tuples_accessed`` — the experiment
    E5 measurement — and whether the scan halted early.
    """
    if k < 0:
        raise RankingError(f"k must be >= 0, got {k!r}")
    _check_ties(ties)
    if k == 0:
        return top_k_result(
            "expected_rank_prune",
            0,
            {},
            (),
            {
                "tuples_accessed": 0,
                "halted_early": True,
                "exact": False,
                "ties": ties,
            },
        )
    for row in relation:
        if row.score.min_value <= 0.0:
            raise PruningBoundError(
                f"tuple {row.tid!r} has score {row.score.min_value!r}; "
                "A-ERank-Prune requires strictly positive scores"
            )

    total = relation.size
    state = _SeenState(relation, ties)
    halted_early = False

    # Bound trajectory for EXPLAIN: recorded only while observability
    # is on, downsampled to a bounded number of points.
    trajectory: list[dict] | None = (
        [] if get_registry().enabled else None
    )
    stride = max(1, total // 64)

    for row in state.rows:
        state.admit()
        n = state.count
        if n < k or n == total:
            continue
        tails = state.markov_tails(row.expected_score())
        upper_bounds = state.seen_term[:n] + (total - n) * tails
        lower_bound = n - math.fsum(tails.tolist())
        kth_upper = float(np.partition(upper_bounds, k - 1)[k - 1])
        halting = kth_upper < lower_bound
        if trajectory is not None and (halting or n % stride == 0):
            trajectory.append(
                {
                    "accessed": n,
                    "kth_rank": kth_upper,
                    "unseen_bound": lower_bound,
                }
            )
        if halting:
            halted_early = True
            break

    count("a_erank_prune.tuples_accessed", state.count)
    if halted_early:
        count("a_erank_prune.halted_early")
    curtailed = state.curtailed()
    metadata: dict[str, object] = {
        "tuples_accessed": state.count,
        "halted_early": halted_early,
        "exact": state.count == total,
        "ties": ties,
    }
    if trajectory is not None:
        metadata["prune_trajectory"] = tuple(trajectory)
    return top_k_result(
        "expected_rank_prune",
        k,
        attribute_expected_ranks(curtailed, ties=ties),
        curtailed.tids(),
        metadata,
    )

"""The ``live-updates`` write stream and its reference model.

:class:`Mirror` is the benchmark's own model of what a
``MaintainedTupleStore`` holds: rows in snapshot order (insertion
order; a score update moves the row to the end, as the store re-keys
it) and rule members in insertion order.  It chooses the seeded writes,
so every write is valid for the current contents, and it rebuilds the
relation each read should rank without going through the store, which
gives the reference answers.
"""

from __future__ import annotations

import random

#: Keeps rule masses clear of the store's ``1 + 1e-9`` tolerance.
_MASS_MARGIN = 1e-6
_PROBABILITY_LOW = 0.02


class Mirror:
    """Plain-dict model of the store's contents."""

    def __init__(self, relation) -> None:
        self.rows: dict[str, list[float]] = {}
        self.rule_of: dict[str, str | None] = {}
        self.members: dict[str, list[str]] = {}
        self._tids: list[str] = []
        self._slot: dict[str, int] = {}
        for row in relation:
            rule = relation.rule_of(row.tid)
            self._add(
                row.tid,
                row.score,
                row.probability,
                None if rule.is_singleton else rule.rule_id,
            )
        self._fresh = 0

    def _add(self, tid: str, score: float, probability: float, rule) -> None:
        self.rows[tid] = [score, probability]
        self.rule_of[tid] = rule
        if rule is not None:
            self.members.setdefault(rule, []).append(tid)
        self._slot[tid] = len(self._tids)
        self._tids.append(tid)

    def _remove(self, tid: str) -> None:
        del self.rows[tid]
        rule = self.rule_of.pop(tid)
        if rule is not None:
            self.members[rule].remove(tid)
            if not self.members[rule]:
                del self.members[rule]
        slot = self._slot.pop(tid)
        last = self._tids.pop()
        if last != tid:
            self._tids[slot] = last
            self._slot[last] = slot

    def _headroom(self, tid: str) -> float:
        """Largest probability ``tid`` may take under its rule."""
        rule = self.rule_of[tid]
        if rule is None:
            return 1.0
        others = sum(
            self.rows[member][1] for member in self.members[rule]
            if member != tid
        )
        return 1.0 - others - _MASS_MARGIN

    def next_batch(self, rng: random.Random, batch: dict[str, int]) -> list:
        """Draw one step's writes and apply them to the mirror."""
        kinds = [kind for kind, count in batch.items() for _ in range(count)]
        rng.shuffle(kinds)
        writes = []
        for kind in kinds:
            if kind == "insert":
                tid = f"new{self._fresh}"
                self._fresh += 1
                score = rng.uniform(1.0, 1000.0)
                probability = rng.uniform(_PROBABILITY_LOW, 1.0)
                self._add(tid, score, probability, None)
                writes.append(("insert", tid, score, probability))
                continue
            tid = self._tids[rng.randrange(len(self._tids))]
            if kind == "delete":
                self._remove(tid)
                writes.append(("delete", tid))
            elif kind == "update_probability":
                ceiling = min(1.0, self._headroom(tid))
                if ceiling > _PROBABILITY_LOW:
                    probability = rng.uniform(_PROBABILITY_LOW, ceiling)
                else:
                    probability = self.rows[tid][1] / 2.0
                self.rows[tid][1] = probability
                writes.append(("update_probability", tid, probability))
            else:
                score = rng.uniform(1.0, 1000.0)
                entry = self.rows.pop(tid)
                entry[0] = score
                self.rows[tid] = entry
                writes.append(("update_score", tid, score))
        return writes

    def relation(self):
        """The relation a store snapshot should equal, built directly."""
        from repro.models.rules import ExclusionRule
        from repro.models.tuple_level import (
            TupleLevelRelation,
            TupleLevelTuple,
        )

        rows = [
            TupleLevelTuple(tid, score, probability)
            for tid, (score, probability) in self.rows.items()
        ]
        rules = [
            ExclusionRule(rule, list(members))
            for rule, members in self.members.items()
            if len(members) > 1
        ]
        return TupleLevelRelation(rows, rules=rules)


def apply(store, writes: list) -> None:
    """Apply one batch of writes to a ``MaintainedTupleStore``."""
    for write in writes:
        kind = write[0]
        if kind == "insert":
            store.insert(write[1], score=write[2], probability=write[3])
        elif kind == "delete":
            store.delete(write[1])
        elif kind == "update_probability":
            store.update_probability(write[1], write[2])
        else:
            store.update_score(write[1], write[2])

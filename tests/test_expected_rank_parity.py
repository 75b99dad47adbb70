"""Bit-for-bit parity of the columnar A-ERank / T-ERank kernels.

The production kernels fold every sum in the order of the scalar
references in :mod:`tests.oracles.expected_rank`, so every tuple's
expected rank must match to the last bit (``float.hex``), not merely
to a tolerance: answer digests and top-k ties depend on those bits.
The Hypothesis strategies aim at the order-sensitive cases — values
and scores shared across tuples, both tie rules, multi-member rules,
empty and single-tuple relations — and the deterministic cases cover
the relation shapes the end-to-end benchmark ranks, where the
``np.add.at`` formulation of ``*_vectorized`` differs in the last bit.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.workloads import attribute_workload, tuple_workload
from repro.core import attribute_expected_ranks, tuple_expected_ranks
from repro.models import (
    AttributeLevelRelation,
    AttributeTuple,
    DiscretePDF,
    ExclusionRule,
    TupleLevelRelation,
    TupleLevelTuple,
)
from tests.oracles.expected_rank import (
    attribute_expected_ranks_scalar,
    tuple_expected_ranks_scalar,
)

TIES = ("shared", "by_index")

#: A small pool so that values and scores repeat across tuples.
_SHARED = (0.5, 1.0, 2.0, 3.0, 7.25, 10.0)
_values = st.one_of(
    st.sampled_from(_SHARED),
    st.floats(0.01, 100.0, allow_nan=False, allow_infinity=False),
)


def assert_bit_identical(fast: dict, reference: dict) -> None:
    assert list(fast) == list(reference)
    mismatched = {
        tid: (fast[tid].hex(), reference[tid].hex())
        for tid in reference
        if fast[tid].hex() != reference[tid].hex()
    }
    assert not mismatched


@st.composite
def attribute_relations(draw):
    """0-25 tuples; pdfs of 1-5 entries with arbitrary-float masses,
    some tuples sharing one pdf (equal expected scores)."""
    pdfs = draw(
        st.lists(
            st.lists(
                st.tuples(_values, st.floats(0.01, 1.0)),
                min_size=1,
                max_size=5,
                unique_by=lambda pair: pair[0],
            ),
            min_size=1,
            max_size=10,
        )
    )
    picks = draw(
        st.lists(st.integers(0, len(pdfs) - 1), max_size=25)
    )
    return AttributeLevelRelation(
        AttributeTuple(
            f"t{index}",
            DiscretePDF.from_pairs(pdfs[pick], normalize=True),
        )
        for index, pick in enumerate(picks)
    )


@st.composite
def tuple_relations(draw):
    """0-30 tuples with repeated scores, grouped into rules of 1-4
    members whose masses stay below one."""
    sizes = draw(st.lists(st.integers(1, 4), max_size=12))
    rows: list[TupleLevelTuple] = []
    rules: list[ExclusionRule] = []
    for rule_index, size in enumerate(sizes):
        members = []
        for _ in range(size):
            tid = f"t{len(rows)}"
            rows.append(
                TupleLevelTuple(
                    tid,
                    draw(_values),
                    draw(st.floats(0.0, 1.0 / size)),
                )
            )
            members.append(tid)
        if size > 1:
            rules.append(ExclusionRule(f"r{rule_index}", members))
    # Shuffle insertion order so rule members are not contiguous.
    order = draw(st.permutations(range(len(rows))))
    return TupleLevelRelation([rows[i] for i in order], rules=rules)


class TestAttributeParity:
    @settings(max_examples=150, deadline=None)
    @given(relation=attribute_relations(), ties=st.sampled_from(TIES))
    def test_matches_scalar_oracle(self, relation, ties):
        assert_bit_identical(
            attribute_expected_ranks(relation, ties=ties),
            attribute_expected_ranks_scalar(relation, ties=ties),
        )

    @pytest.mark.parametrize("ties", TIES)
    def test_empty_and_single(self, ties):
        empty = AttributeLevelRelation([])
        assert attribute_expected_ranks(empty, ties=ties) == {}
        single = AttributeLevelRelation(
            [AttributeTuple("only", DiscretePDF([1.0, 2.0], [0.3, 0.7]))]
        )
        assert_bit_identical(
            attribute_expected_ranks(single, ties=ties),
            attribute_expected_ranks_scalar(single, ties=ties),
        )

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("ties", TIES)
    @pytest.mark.parametrize("code, size", [("uu", 1000), ("zipf", 2000)])
    def test_benchmark_shaped_relations(self, code, size, ties, seed):
        relation = attribute_workload(code, size, seed=seed)
        assert_bit_identical(
            attribute_expected_ranks(relation, ties=ties),
            attribute_expected_ranks_scalar(relation, ties=ties),
        )


class TestTupleParity:
    @settings(max_examples=150, deadline=None)
    @given(relation=tuple_relations(), ties=st.sampled_from(TIES))
    def test_matches_scalar_oracle(self, relation, ties):
        assert_bit_identical(
            tuple_expected_ranks(relation, ties=ties),
            tuple_expected_ranks_scalar(relation, ties=ties),
        )

    @pytest.mark.parametrize("ties", TIES)
    def test_empty_and_single(self, ties):
        empty = TupleLevelRelation([])
        assert tuple_expected_ranks(empty, ties=ties) == {}
        single = TupleLevelRelation([TupleLevelTuple("only", 3.0, 0.4)])
        assert_bit_identical(
            tuple_expected_ranks(single, ties=ties),
            tuple_expected_ranks_scalar(single, ties=ties),
        )

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("ties", TIES)
    def test_benchmark_shaped_relations(self, ties, seed):
        relation = tuple_workload("uu", 2000, seed=seed)
        assert_bit_identical(
            tuple_expected_ranks(relation, ties=ties),
            tuple_expected_ranks_scalar(relation, ties=ties),
        )

"""Property: bulk histogram ingestion is bit-identical to sequential record.

``observe_many`` promises sketch state *bit-identical* to N individual
``record`` calls — not merely equal counts: the ``_sum`` left fold, the
first-on-tie ``min``/``max`` (including the sign of ±0.0), and even the
bucket dict's insertion order must match, because checkpoint snapshots
and merged exports serialize all of them.  Hypothesis drives value mixes
spanning the zero bucket, ±0.0 ties, and both sides of the small-batch
cutoff (the inlined scalar sweep vs the vectorized path), plus random
chunkings so flush boundaries are proven unobservable.
"""

from __future__ import annotations

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.histogram import _SMALL_BATCH, LogLinearHistogram

SETTINGS = settings(max_examples=60, deadline=None)

# Mixes that stress every fold: sub-min_trackable values (zero bucket),
# exact zeros of both signs (min/max tie sign-keeping), and magnitudes
# spanning many tiers.
bulk_values = st.one_of(
    st.floats(min_value=0.0, max_value=1e-10, allow_nan=False),
    st.just(0.0),
    st.just(-0.0),
    st.floats(min_value=1e-9, max_value=1e9, allow_nan=False),
)

value_lists = st.lists(bulk_values, max_size=3 * _SMALL_BATCH)


def _bits(value: float) -> bytes:
    """IEEE-754 bit pattern — distinguishes -0.0 from 0.0."""
    return struct.pack("<d", value)


def assert_state_identical(a: LogLinearHistogram, b: LogLinearHistogram) -> None:
    assert a._count == b._count
    assert a._zero == b._zero
    assert _bits(a._sum) == _bits(b._sum)
    assert _bits(a._min) == _bits(b._min)
    assert _bits(a._max) == _bits(b._max)
    # Dict equality ignores order; serialized snapshots do not.
    assert list(a._buckets.items()) == list(b._buckets.items())


class TestObserveManyBitIdentity:
    @SETTINGS
    @given(values=value_lists)
    def test_one_batch_matches_sequential_record(self, values):
        sequential = LogLinearHistogram()
        for value in values:
            sequential.record(value)
        batched = LogLinearHistogram()
        batched.observe_many(values)
        assert_state_identical(batched, sequential)

    @SETTINGS
    @given(
        values=value_lists,
        cuts=st.lists(
            st.integers(min_value=0, max_value=3 * _SMALL_BATCH), max_size=6
        ),
    )
    def test_chunking_is_unobservable(self, values, cuts):
        # Any split into chunks — some short enough for the scalar sweep,
        # some long enough for the vectorized path — folds to the same
        # state as one record() per value, so flush boundaries in the
        # fast replay engine can never show through.
        sequential = LogLinearHistogram()
        for value in values:
            sequential.record(value)
        chunked = LogLinearHistogram()
        edges = sorted({0, len(values), *(c for c in cuts if c <= len(values))})
        for start, end in zip(edges, edges[1:]):
            chunked.observe_many(values[start:end])
        assert_state_identical(chunked, sequential)

    @SETTINGS
    @given(values=value_lists, subbuckets=st.sampled_from([4, 16, 64, 256]))
    def test_identity_holds_across_resolutions(self, values, subbuckets):
        sequential = LogLinearHistogram(subbuckets=subbuckets)
        for value in values:
            sequential.record(value)
        batched = LogLinearHistogram(subbuckets=subbuckets)
        batched.observe_many(values)
        assert_state_identical(batched, sequential)

    @SETTINGS
    @given(
        values=value_lists,
        bad=st.sampled_from([-1.0, -1e-300, math.inf, -math.inf, math.nan]),
        position=st.integers(min_value=0, max_value=3 * _SMALL_BATCH),
    )
    def test_bad_value_raises_before_any_state_change(
        self, values, bad, position
    ):
        # Unlike sequential record(), observe_many validates up front: a
        # rejected batch must leave the sketch untouched no matter where
        # the bad value sits.
        histogram = LogLinearHistogram()
        histogram.observe_many(values)
        before = histogram.to_dict()
        poisoned = list(values)
        poisoned.insert(min(position, len(values)), bad)
        with pytest.raises(ValueError, match="finite value >= 0"):
            histogram.observe_many(poisoned)
        assert histogram.to_dict() == before

    def test_negative_zero_tie_keeps_first_sign(self):
        # The scalar fold keeps the *first* zero's sign on a ±0.0 tie;
        # both bulk paths must reproduce that exactly.
        for ordering in ([-0.0, 0.0], [0.0, -0.0]):
            sequential = LogLinearHistogram()
            for value in ordering:
                sequential.record(value)
            for pad in (0, _SMALL_BATCH):  # scalar sweep and numpy path
                batched = LogLinearHistogram()
                batched.observe_many(ordering + [1.0] * pad)
                assert _bits(batched._min)[:8] == _bits(sequential._min)[:8]

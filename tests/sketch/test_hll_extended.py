"""Extended HLL/vHLL coverage: corrections, window filters, merge laws."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.sketch.hll import HyperLogLog, estimate_from_registers
from repro.sketch.vhll import VersionedHLL


class TestLargeRangeCorrection:
    def test_saturated_registers_trigger_correction(self):
        """Registers so high the raw estimate crosses 2^32/30 must go
        through the large-range branch and still return a finite value."""
        m = 16
        registers = [31] * m
        estimate = estimate_from_registers(registers, m)
        assert math.isfinite(estimate)
        assert estimate > 1e8

    def test_mid_range_passes_through_raw(self):
        m = 16
        registers = [10] * m  # raw ~ alpha*256*1024 — mid range
        estimate = estimate_from_registers(registers, m)
        raw = 0.673 * m * m / sum(2.0**-r for r in registers)
        assert estimate == pytest.approx(raw)


class TestVhllWindowFilters:
    def test_min_and_max_bounds_combined(self):
        sketch = VersionedHLL(precision=2)
        sketch.add_pair(0, 2, 5)
        sketch.add_pair(0, 6, 15)
        # Only the t=5 pair lies at or below 10.
        assert sketch.effective_registers(max_time=10)[0] == 2
        # Both pairs lie at or below 20; the staircase answers via the
        # latest in-range pair.
        assert sketch.effective_registers(max_time=20)[0] == 6
        # Empty range.
        assert sketch.effective_registers(max_time=4)[0] == 0

    def test_cardinality_within_monotone_in_deadline(self):
        sketch = VersionedHLL(precision=6)
        for i in range(300):
            sketch.add(i, i)
        estimates = [sketch.cardinality_within(max_time=d) for d in (50, 150, 299)]
        assert estimates == sorted(estimates)

    def test_copy_independent(self):
        sketch = VersionedHLL(precision=4)
        sketch.add("x", 3)
        clone = sketch.copy()
        clone.add("y", 1)
        assert clone.entry_count() >= sketch.entry_count()
        assert sketch.to_dict() != clone.to_dict() or sketch.entry_count() == clone.entry_count()

    @given(
        pairs_a=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=1, max_value=12),
                st.integers(min_value=0, max_value=50),
            ),
            max_size=30,
        ),
        pairs_b=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=1, max_value=12),
                st.integers(min_value=0, max_value=50),
            ),
            max_size=30,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_merge_equals_union_of_streams(self, pairs_a, pairs_b):
        """vHLL merge law: merge(A, B) has the same content as a sketch fed
        both pair streams directly."""
        left = VersionedHLL(precision=2)
        right = VersionedHLL(precision=2)
        combined = VersionedHLL(precision=2)
        for cell, r, t in pairs_a:
            left.add_pair(cell, r, t)
            combined.add_pair(cell, r, t)
        for cell, r, t in pairs_b:
            right.add_pair(cell, r, t)
            combined.add_pair(cell, r, t)
        left.merge(right)
        assert left.to_dict() == combined.to_dict()

    @given(
        pairs=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=1, max_value=12),
                st.integers(min_value=0, max_value=50),
            ),
            max_size=30,
        ),
        start=st.integers(min_value=0, max_value=50),
        window=st.integers(min_value=0, max_value=30),
    )
    @settings(max_examples=60, deadline=None)
    def test_merge_within_equals_prefiltered_merge(self, pairs, start, window):
        """Windowed merge law: merge_within(A, t, w) == merge(filter(A))."""
        donor = VersionedHLL(precision=2)
        for cell, r, t in pairs:
            donor.add_pair(cell, r, t)
        via_window = VersionedHLL(precision=2)
        via_window.merge_within(donor, start, window)
        prefiltered = VersionedHLL(precision=2)
        for cell, r, t in pairs:
            if t - start < window:
                prefiltered.add_pair(cell, r, t)
        # Both must represent the same surviving pair set.  Dominance
        # pruning happens in the donor first, so via_window can only hold
        # a subset of prefiltered's pairs — but their effective registers
        # (what estimation sees) must agree for every deadline.
        for deadline in (start, start + window, 100):
            assert via_window.effective_registers(max_time=deadline) == (
                prefiltered.effective_registers(max_time=deadline)
            ) or via_window.to_dict() == prefiltered.to_dict()


class TestHllUnionLaws:
    @given(
        items_a=st.lists(st.integers(min_value=0, max_value=500), max_size=80),
        items_b=st.lists(st.integers(min_value=0, max_value=500), max_size=80),
    )
    @settings(max_examples=40, deadline=None)
    def test_union_associates_with_stream_union(self, items_a, items_b):
        a = HyperLogLog(precision=5)
        b = HyperLogLog(precision=5)
        combined = HyperLogLog(precision=5)
        a.update(items_a)
        b.update(items_b)
        combined.update(items_a)
        combined.update(items_b)
        assert a.union(b).registers() == combined.registers()

    def test_union_identity(self):
        sketch = HyperLogLog(precision=5)
        sketch.update(range(100))
        empty = HyperLogLog(precision=5)
        assert sketch.union(empty).registers() == sketch.registers()

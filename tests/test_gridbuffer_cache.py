"""Unit + property tests for IntervalSet and BufferCache."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gridbuffer.cache import BufferCache, IntervalSet


class TestIntervalSet:
    def test_empty_covers_nothing(self):
        ivs = IntervalSet()
        assert not ivs.covers(0, 1)
        assert ivs.covers(5, 5)  # empty range trivially covered
        assert not ivs

    def test_single_interval(self):
        ivs = IntervalSet([(10, 20)])
        assert ivs.covers(10, 20)
        assert ivs.covers(12, 15)
        assert not ivs.covers(9, 11)
        assert not ivs.covers(19, 21)

    def test_adjacent_merge(self):
        ivs = IntervalSet()
        ivs.add(0, 10)
        ivs.add(10, 20)
        assert ivs.intervals() == [(0, 20)]

    def test_overlapping_merge(self):
        ivs = IntervalSet()
        ivs.add(0, 15)
        ivs.add(10, 30)
        ivs.add(25, 40)
        assert ivs.intervals() == [(0, 40)]

    def test_disjoint_kept_sorted(self):
        ivs = IntervalSet()
        ivs.add(30, 40)
        ivs.add(0, 10)
        assert ivs.intervals() == [(0, 10), (30, 40)]

    def test_bridge_merge(self):
        ivs = IntervalSet([(0, 10), (20, 30)])
        ivs.add(5, 25)
        assert ivs.intervals() == [(0, 30)]

    def test_first_gap(self):
        ivs = IntervalSet([(0, 10), (20, 30)])
        assert ivs.first_gap(0, 30) == (10, 20)
        assert ivs.first_gap(0, 10) is None
        assert ivs.first_gap(5, 15) == (10, 15)
        assert ivs.first_gap(40, 50) == (40, 50)

    def test_total(self):
        ivs = IntervalSet([(0, 10), (20, 25)])
        assert ivs.total() == 15

    def test_invalid_add_rejected(self):
        with pytest.raises(ValueError):
            IntervalSet().add(5, 4)

    def test_zero_length_add_is_noop(self):
        ivs = IntervalSet()
        ivs.add(5, 5)
        assert not ivs

    @given(
        st.lists(
            st.tuples(st.integers(0, 500), st.integers(1, 50)),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_reference_set_model(self, raw):
        """Property: IntervalSet behaves exactly like a set of integers."""
        ivs = IntervalSet()
        model = set()
        for start, length in raw:
            ivs.add(start, start + length)
            model.update(range(start, start + length))
        assert ivs.total() == len(model)
        # Coverage of random probe ranges must match the model.
        for start, length in raw:
            probe = range(max(0, start - 3), start + length + 3)
            expected = all(p in model for p in probe)
            assert ivs.covers(probe.start, probe.stop) == expected
        # Intervals must be disjoint, sorted, and non-adjacent.
        spans = ivs.intervals()
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert e1 < s2

    def test_remove_splits_trims_and_ignores_misses(self):
        ivs = IntervalSet([(0, 10), (20, 30)])
        ivs.remove(3, 6)      # split
        ivs.remove(25, 40)    # trim the tail
        ivs.remove(12, 18)    # nothing there
        ivs.remove(8, 8)      # empty range inside an interval: no split
        assert ivs.intervals() == [(0, 3), (6, 10), (20, 25)]

    @given(
        st.lists(
            st.tuples(st.booleans(), st.integers(0, 200), st.integers(0, 40)),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_remove_matches_reference_set_model(self, ops):
        """Property: interleaved add/remove behaves like a set of integers."""
        ivs = IntervalSet()
        model = set()
        for is_add, start, length in ops:
            if is_add:
                ivs.add(start, start + length)
                model.update(range(start, start + length))
            else:
                ivs.remove(start, start + length)
                model.difference_update(range(start, start + length))
            spans = ivs.intervals()
            assert {p for s, e in spans for p in range(s, e)} == model
            assert all(s < e for s, e in spans)
            assert all(e1 < s2 for (_, e1), (s2, _) in zip(spans, spans[1:]))

    @given(
        st.lists(st.tuples(st.integers(0, 200), st.integers(1, 40)), min_size=1, max_size=15),
        st.integers(0, 250),
        st.integers(1, 60),
    )
    @settings(max_examples=80, deadline=None)
    def test_first_gap_is_really_first(self, raw, probe_start, probe_len):
        ivs = IntervalSet()
        model = set()
        for start, length in raw:
            ivs.add(start, start + length)
            model.update(range(start, start + length))
        gap = ivs.first_gap(probe_start, probe_start + probe_len)
        missing = [p for p in range(probe_start, probe_start + probe_len) if p not in model]
        if not missing:
            assert gap is None
        else:
            assert gap is not None
            assert gap[0] == missing[0]
            assert gap[0] < gap[1]
            # Everything inside the reported gap really is missing.
            assert all(p not in model for p in range(gap[0], gap[1]))


class TestBufferCache:
    def test_store_and_load(self, tmp_path):
        cache = BufferCache(tmp_path / "c.cache")
        cache.store(0, b"hello")
        assert cache.load(0, 5) == b"hello"
        assert cache.has(1, 3)

    def test_load_gap_raises(self, tmp_path):
        cache = BufferCache(tmp_path / "c.cache")
        cache.store(0, b"ab")
        cache.store(10, b"cd")
        with pytest.raises(KeyError):
            cache.load(0, 12)

    def test_sparse_store(self, tmp_path):
        cache = BufferCache(tmp_path / "c.cache")
        cache.store(1000, b"tail")
        assert cache.load(1000, 4) == b"tail"
        assert not cache.has(0, 1)

    def test_out_of_order_store(self, tmp_path):
        cache = BufferCache(tmp_path / "c.cache")
        cache.store(5, b"world")
        cache.store(0, b"hello")
        assert cache.load(0, 10) == b"helloworld"

    def test_valid_upto(self, tmp_path):
        cache = BufferCache(tmp_path / "c.cache")
        cache.store(0, b"x" * 100)
        cache.store(200, b"y" * 10)
        assert cache.valid_upto(0) == 100
        assert cache.valid_upto(200) == 210

    def test_total_cached(self, tmp_path):
        cache = BufferCache(tmp_path / "c.cache")
        cache.store(0, b"12345")
        cache.store(3, b"678")  # overlap counted once
        assert cache.total_cached() == 6

    def test_empty_store_noop(self, tmp_path):
        cache = BufferCache(tmp_path / "c.cache")
        cache.store(0, b"")
        assert cache.total_cached() == 0

    def test_negative_offset_rejected(self, tmp_path):
        cache = BufferCache(tmp_path / "c.cache")
        with pytest.raises(ValueError):
            cache.store(-1, b"x")

    def test_close_delete(self, tmp_path):
        path = tmp_path / "c.cache"
        cache = BufferCache(path)
        cache.store(0, b"x")
        cache.close(delete=True)
        assert not path.exists()
        cache.close(delete=True)  # idempotent

    def test_fresh_cache_truncates_existing_file(self, tmp_path):
        path = tmp_path / "c.cache"
        path.write_bytes(b"stale data")
        cache = BufferCache(path)
        assert cache.total_cached() == 0
        assert path.stat().st_size == 0

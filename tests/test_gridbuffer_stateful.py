"""Model-based (stateful hypothesis) test of the Grid Buffer service.

The reference model is trivial: a growing byte string.  The real
service — hash table, delete-on-read, cache file, EOF bookkeeping —
must behave exactly like reading that byte string, under any
interleaving of sequential writes, in-order reads, backwards re-reads
and the close, and under write batches delivered in any order with
replays."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.gridbuffer.cache import BufferCache
from repro.gridbuffer.service import GridBufferService

from ._run import run


class GridBufferModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        import tempfile
        from pathlib import Path

        self.svc = GridBufferService(default_capacity=None)
        cache_path = Path(tempfile.mkdtemp(prefix="gb-stateful-")) / "s.cache"
        self.cache = BufferCache(cache_path)
        self.svc.create_stream("s", cache=self.cache)
        self.svc.register_reader("s", "r")
        self.model = bytearray()   # everything written so far
        self.read_pos = 0          # the sequential reader's position
        self.closed = False

    @rule(data=st.binary(min_size=1, max_size=257))
    @precondition(lambda self: not self.closed)
    def write_chunk(self, data):
        run(self.svc.write_async("s", len(self.model), data))
        self.model.extend(data)

    @rule(size=st.integers(min_value=1, max_value=300))
    def sequential_read(self, size):
        want = min(size, len(self.model) - self.read_pos)
        if want <= 0:
            return  # would block (or EOF) — checked in eof rule
        got = run(self.svc.read_async("s", "r", self.read_pos, size, timeout=1))
        assert 0 < len(got) <= size
        assert bytes(got) == bytes(self.model[self.read_pos : self.read_pos + len(got)])
        self.read_pos += len(got)

    @rule(back=st.integers(min_value=1, max_value=400), size=st.integers(min_value=1, max_value=100))
    @precondition(lambda self: self.read_pos > 0)
    def reread_behind(self, back, size):
        """Backwards seek: must be served (from cache or table)."""
        offset = max(0, self.read_pos - back)
        limit = min(self.read_pos, len(self.model))
        want = min(size, limit - offset)
        if want <= 0:
            return
        got = run(self.svc.read_async("s", "r", offset, want, timeout=1))
        assert bytes(got) == bytes(self.model[offset : offset + len(got)])

    @rule()
    @precondition(lambda self: not self.closed and len(self.model) > 0)
    def close_writer(self):
        total = self.svc.close_writer("s")
        assert total == len(self.model)
        self.closed = True

    @rule(size=st.integers(min_value=1, max_value=100))
    @precondition(lambda self: self.closed)
    def read_at_or_past_eof(self, size):
        got = run(self.svc.read_async("s", "r", len(self.model), size, timeout=1))
        assert got == b""

    @invariant()
    def memory_bounded_by_unconsumed(self):
        stats = self.svc.stats("s")
        # The hash table never holds more than what was written and
        # never reports negative occupancy.
        assert 0 <= stats.bytes_in_table <= len(self.model)

    @invariant()
    def written_counter_consistent(self):
        assert self.svc.stats("s").bytes_written == len(self.model)

    def teardown(self):
        self.svc.drop_stream("s")
        self.cache.close(delete=True)


TestGridBufferModel = GridBufferModel.TestCase
TestGridBufferModel = pytest.mark.slow(TestGridBufferModel)
TestGridBufferModel.settings = settings(max_examples=40, stateful_step_count=30, deadline=None)


@pytest.mark.slow
@settings(max_examples=60, deadline=None)
@given(sizes=st.lists(st.integers(min_value=1, max_value=64), min_size=1, max_size=12), data=st.data())
def test_shuffled_batches_with_replays_apply_exactly_once(sizes, data):
    """A pipelined writer's batches arrive in any order, and a retry
    resends any of them: the table must hold the payload, counted once."""
    payload = bytes(i % 251 for i in range(sum(sizes)))
    batches, offset = [], 0
    for seq, size in enumerate(sizes, start=1):
        cut = offset + size // 2  # a batch of two runs rides gb.write_multi
        runs = [(offset, payload[offset:cut]), (cut, payload[cut : offset + size])]
        batches.append((seq, [(o, b) for o, b in runs if b]))
        offset += size
    replays = data.draw(st.lists(st.sampled_from(batches), max_size=len(batches)))
    deliveries = data.draw(st.permutations(batches + replays))
    svc = GridBufferService(default_capacity=None)
    svc.create_stream("s")
    svc.register_reader("s", "r")
    for seq, runs in deliveries:
        run(svc.write_multi_async("s", runs, token="w", seq=seq))
    stats = svc.stats("s")
    assert stats.bytes_written == stats.bytes_in_table == len(payload)
    svc.close_writer("s")
    assert run(svc.read_async("s", "r", 0, len(payload), timeout=1)) == payload
    svc.drop_stream("s")

"""Tests for FM call tracing and transfer monitoring."""

import io
import math
import sys
import threading
from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.multiplexer import FileMultiplexer, GridContext
from repro.core.trace import FmTracer, TransferMonitor, TransferSample
from repro.gns.client import LocalGnsClient
from repro.gns.server import NameService


@pytest.fixture()
def fm(hosts):
    fm = FileMultiplexer(
        GridContext(machine="alpha", gns=LocalGnsClient(NameService()), hosts=hosts)
    )
    yield fm
    fm.close()


class TestFmTracer:
    def test_operations_recorded_in_order(self, fm):
        tracer = FmTracer(fm)
        f = tracer.open("/t.bin", "w")
        f.write(b"12345")
        f.close()
        f = tracer.open("/t.bin", "r")
        f.read(3)
        f.seek(0)
        f.read(2)
        f.close()
        ops = [e.op for e in tracer.events]
        assert ops == ["open", "write", "close", "open", "read", "seek", "read", "close"]

    def test_summary_aggregates(self, fm):
        tracer = FmTracer(fm)
        f = tracer.open("/s.bin", "w")
        f.write(b"x" * 100)
        f.write(b"y" * 50)
        f.close()
        f = tracer.open("/s.bin", "r")
        f.read(150)
        f.close()
        summary = tracer.summary()["/s.bin"]
        assert summary["opens"] == 2
        assert summary["writes"] == 2
        assert summary["bytes_written"] == 150
        assert summary["bytes_read"] == 150

    def test_mode_captured(self, fm):
        tracer = FmTracer(fm)
        tracer.open("/m.bin", "w").close()
        assert tracer.events[0].mode == "local"

    def test_echo_stream(self, fm):
        sink = io.StringIO()
        tracer = FmTracer(fm, echo=sink)
        tracer.open("/e.bin", "w").close()
        text = sink.getvalue()
        assert "open" in text and "/e.bin" in text

    def test_bounded_log(self, fm):
        tracer = FmTracer(fm, max_events=4)
        f = tracer.open("/b.bin", "w")
        for _ in range(10):
            f.write(b"z")
        f.close()
        assert len(tracer.events) == 4

    def test_clear(self, fm):
        tracer = FmTracer(fm)
        tracer.open("/c.bin", "w").close()
        tracer.clear()
        assert len(tracer.events) == 0

    def test_traced_handle_is_functional(self, fm, hosts):
        tracer = FmTracer(fm)
        with io.BufferedWriter(tracer.open("/fn.txt", "w")) as fh:
            fh.write(b"through the tracer\n")
        assert (
            hosts.host("alpha").resolve("/fn.txt").read_bytes()
            == b"through the tracer\n"
        )

    def test_summary_safe_under_concurrent_writes(self, fm):
        """Regression: summary() iterating while handle threads append.

        Before the tracer took a lock, a writer thread mutating the
        event deque mid-iteration could raise ``RuntimeError: deque
        mutated during iteration`` inside summary().
        """
        tracer = FmTracer(fm)
        stop = threading.Event()
        started = threading.Event()
        errors = []

        def writer():
            f = tracer.open("/hot.bin", "w")
            try:
                while not stop.is_set():
                    f.write(b"x" * 64)
                    started.set()
            finally:
                f.close()

        t = threading.Thread(target=writer, daemon=True)
        t.start()
        assert started.wait(timeout=5), "writer thread never wrote"
        try:
            for _ in range(300):
                try:
                    tracer.summary()
                    tracer.snapshot()
                except RuntimeError as exc:  # pragma: no cover - the regression
                    errors.append(exc)
                    break
        finally:
            stop.set()
            t.join(timeout=5)
        assert not errors, f"summary raced the writer thread: {errors[0]}"
        assert tracer.summary()["/hot.bin"]["writes"] > 0

    def test_transfer_summary_without_monitor(self, fm):
        tracer = FmTracer(fm)
        assert tracer.transfer_summary() == {}


class TestTransferMonitor:
    def test_latency_from_small_probes(self):
        mon = TransferMonitor()
        mon.record("peerA", "size", 16, 0.010)
        mon.record("peerA", "size", 16, 0.006)
        assert mon.latency("peerA") == pytest.approx(0.003)  # fastest / 2

    def test_bandwidth_from_bulk(self):
        mon = TransferMonitor()
        mon.record("peerA", "get_block", 1 << 20, 0.5)
        mon.record("peerA", "get_block", 1 << 20, 0.5)
        assert mon.bandwidth("peerA") == pytest.approx((2 << 20) / 1.0)

    def test_small_fetch_is_not_a_latency_probe(self):
        """A whole-file fetch of a tiny file is a bulk op, not a probe.

        Its duration includes per-block RPCs and disk IO; classifying it
        by payload size alone would report a wildly inflated latency.
        """
        mon = TransferMonitor()
        mon.record("peerA", "size", 16, 0.004)       # real probe: 2 ms one-way
        mon.record("peerA", "fetch", 100, 0.250)      # tiny file, slow whole-file copy
        mon.record("peerA", "store", 100, 0.300)
        assert mon.latency("peerA") == pytest.approx(0.002)
        # ...and the fetch/store still count toward bandwidth.
        bw = mon.bandwidth("peerA")
        assert bw == pytest.approx(200 / 0.55)

    def test_zero_duration_samples(self):
        """Instant bulk samples must not divide by zero."""
        mon = TransferMonitor()
        mon.record("peerA", "get_block", 1 << 20, 0.0)
        assert mon.bandwidth("peerA") is None
        mon.record("peerA", "size", 8, 0.0)
        assert mon.latency("peerA") == 0.0

    def test_max_samples_eviction(self):
        mon = TransferMonitor(max_samples=4)
        for i in range(10):
            mon.record("peerA", "size", 8, 0.001 * (i + 1))
        samples = mon.samples("peerA")
        assert len(samples) == 4
        # Oldest (fastest) samples were evicted: latency reflects the rest.
        assert mon.latency("peerA") == pytest.approx(0.007 / 2)

    def test_unknown_peer(self):
        mon = TransferMonitor()
        assert mon.latency("nowhere") is None
        assert mon.bandwidth("nowhere") is None
        assert mon.samples("nowhere") == []

    def test_negative_duration_clamped(self):
        mon = TransferMonitor()
        mon.record("peerA", "size", 8, -0.5)
        assert mon.samples("peerA")[0].seconds == 0.0

    def test_summary_rollup(self):
        mon = TransferMonitor()
        mon.record("peerA", "size", 16, 0.002)
        mon.record("peerA", "get_block", 1 << 16, 0.1)
        out = mon.summary()["peerA"]
        assert out["ops"] == 2
        assert out["bytes"] == 16 + (1 << 16)
        assert out["bandwidth_bps"] is not None
        assert out["latency_s"] == pytest.approx(0.001)

    def test_max_samples_must_be_positive(self):
        with pytest.raises(ValueError):
            TransferMonitor(max_samples=0)


class ScanMonitor:
    """Reference model: the list-scan estimator the running aggregates replace."""

    def __init__(self, max_samples):
        self.windows = {}
        self.max = max_samples

    def record(self, peer, op, nbytes, seconds):
        window = self.windows.setdefault(peer, deque(maxlen=self.max))
        window.append(TransferSample(peer, op, nbytes, max(0.0, seconds)))

    @staticmethod
    def is_bulk(s):
        return s.op in TransferMonitor.BULK_OPS or s.nbytes > TransferMonitor.SMALL_BYTES

    def latency(self, peer):
        probes = [s.seconds for s in self.windows.get(peer, ()) if not self.is_bulk(s)]
        if not probes:
            return None
        return min(probes) / 2.0

    def bandwidth(self, peer):
        bulk = [s for s in self.windows.get(peer, ()) if self.is_bulk(s)]
        if not bulk:
            return None
        total_bytes = sum(s.nbytes for s in bulk)
        total_secs = sum(s.seconds for s in bulk)
        if total_secs <= 0:
            return None
        return total_bytes / total_secs

    def row(self, peer):
        window = self.windows[peer]
        return {
            "ops": len(window),
            "bytes": sum(s.nbytes for s in window),
            "seconds": sum(s.seconds for s in window),
            "bandwidth_bps": self.bandwidth(peer),
            "latency_s": self.latency(peer),
        }


def assert_same_bandwidth(got, want):
    """Sums run in another order, so equal within a relative 1e-12."""
    assert (got is None) == (want is None), (got, want)
    if want is not None:
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0), (got, want)


def assert_row_matches(row, want):
    assert_same_bandwidth(row.pop("bandwidth_bps"), want.pop("bandwidth_bps"))
    assert row == want


_PEERS = ("a", "b", "c")
_SMALL = TransferMonitor.SMALL_BYTES
_RECORDS = st.lists(
    st.tuples(
        st.sampled_from(_PEERS),
        st.sampled_from(["fetch", "store", "get_block", "size", "gb.read_multi"]),
        st.integers(0, 2 * _SMALL) | st.sampled_from([0, _SMALL, _SMALL + 1]),
        # Wide magnitudes make a float running sum cancel catastrophically.
        st.floats(-1.0, 1e6, allow_nan=False, allow_infinity=False) | st.just(0.0),
    ),
    max_size=80,
)


class TestTransferMonitorMatchesScan:
    """The O(1) estimates equal what a scan of the same window returns."""

    @settings(max_examples=300, deadline=None)
    @given(max_samples=st.integers(1, 8), records=_RECORDS)
    # A slow bulk sample ages out and leaves a fast one, then none at all:
    # a float running sum keeps a residue here and answers wrongly twice.
    @example(
        max_samples=2,
        records=[
            ("a", "get_block", 1 << 20, 1e6),
            ("a", "get_block", 1 << 20, 1e-9),
            ("a", "size", 8, 0.5),
            ("a", "size", 8, 0.5),
        ],
    )
    def test_every_record(self, max_samples, records):
        mon = TransferMonitor(max_samples=max_samples)
        ref = ScanMonitor(max_samples)
        for peer, op, nbytes, seconds in records:
            mon.record(peer, op, nbytes, seconds)
            ref.record(peer, op, nbytes, seconds)
            for p in _PEERS:
                assert mon.samples(p) == list(ref.windows.get(p, ()))
                assert mon.latency(p) == ref.latency(p)
                assert_same_bandwidth(mon.bandwidth(p), ref.bandwidth(p))
        summary = mon.summary()
        assert set(summary) == set(ref.windows)
        for peer, row in summary.items():
            assert_row_matches(row, ref.row(peer))

    def test_summary_rows_are_not_torn(self):
        """Each row's counts and estimates describe the same samples.

        The recorder appends a known stream in which every sample moves
        the bandwidth or the latency, so a row whose estimates were read
        after a later record than its ``ops`` cannot match the reference
        built from the first ``ops`` samples.
        """
        def sample(i):
            if i % 3 == 2:
                return ("p", "size", 64, 0.01 / (i + 1))
            return ("p", "get_block", 8192 * (i + 1), 0.001 * (1 + i % 7))

        n = 1000
        mon = TransferMonitor(max_samples=n)
        done = threading.Event()

        def recorder():
            for i in range(n):
                mon.record(*sample(i))
            done.set()

        rows = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            t = threading.Thread(target=recorder, daemon=True)
            t.start()
            while not done.is_set():
                rows.extend(mon.summary().values())
            t.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not t.is_alive()
        rows.extend(mon.summary().values())
        ref = ScanMonitor(n)
        refs = {}
        for i in range(n):
            ref.record(*sample(i))
            refs[i + 1] = ref.row("p")
        for row in rows:
            assert_row_matches(dict(row), dict(refs[row["ops"]]))

    def test_peer_map_is_bounded(self):
        """Past MAX_PEERS, the least recently recorded peer is forgotten."""
        cap = TransferMonitor.MAX_PEERS
        mon = TransferMonitor()
        for i in range(cap):
            mon.record(f"peer{i}", "size", 8, 0.001 * (i + 1))
            mon.record(f"peer{i}", "get_block", 1 << 16, 0.01 * (i + 1))
        mon.record("peer0", "size", 8, 0.0005)  # peer1 is now least recent
        before = {p: (mon.latency(p), mon.bandwidth(p)) for p in mon.summary()}
        mon.record("newcomer", "size", 8, 0.002)
        assert mon.latency("peer1") is None
        assert mon.bandwidth("peer1") is None
        assert mon.samples("peer1") == []
        summary = mon.summary()
        assert len(summary) == cap and "peer1" not in summary
        del before["peer1"]
        assert {p: (mon.latency(p), mon.bandwidth(p)) for p in before} == before
        assert mon.latency("newcomer") == 0.001

"""Grid Buffer double-buffered read-ahead, write coalescing, and the
transfer monitor feeding the access policy."""

import threading

import pytest

from repro.core.multiplexer import FileMultiplexer, GridContext
from repro.core.policy import AccessPolicy, observed_estimate
from repro.core.trace import TransferMonitor
from repro.gns.records import GnsRecord, IOMode
from repro.gridbuffer.client import GridBufferClient

PAYLOAD = bytes(i % 256 for i in range(100_000))


@pytest.fixture()
def client(buffer_server):
    c = GridBufferClient(*buffer_server.address)
    yield c
    c.close()


class TestBufferReadAhead:
    def test_sequential_drain_with_readahead_is_identical(self, client):
        w = client.open_writer("ra-seq")
        for i in range(0, len(PAYLOAD), 4096):
            w.write(PAYLOAD[i : i + 4096])
        w.close()
        r = client.open_reader("ra-seq", read_ahead_bytes=8192)
        out = bytearray()
        while True:
            chunk = r.read(8192)
            if not chunk:
                break
            out += chunk
        r.close()
        assert bytes(out) == PAYLOAD
        assert r.readahead_hits > 0, "double buffering never engaged"

    def test_readahead_with_live_writer(self, client):
        def produce():
            w = client.open_writer("ra-live")
            for i in range(0, len(PAYLOAD), 2048):
                w.write(PAYLOAD[i : i + 2048])
            w.close()

        t = threading.Thread(target=produce)
        t.start()
        r = client.open_reader("ra-live", read_ahead_bytes=4096)
        out = bytearray()
        while True:
            chunk = r.read(4096)
            if not chunk:
                break
            out += chunk
        r.close()
        t.join()
        assert bytes(out) == PAYLOAD

    def test_readahead_seek_reread_on_cached_stream(self, client):
        w = client.open_writer("ra-cached", cache=True)
        w.write(PAYLOAD[:20_000])
        w.close()
        r = client.open_reader("ra-cached", read_ahead_bytes=4096)
        first = bytearray()
        while True:
            chunk = r.read(4096)
            if not chunk:
                break
            first += chunk
        assert bytes(first) == PAYLOAD[:20_000]
        # Backwards seek: the read-ahead pipeline must discard cleanly.
        r.seek(0)
        assert r.read(1000) == PAYLOAD[:1000]
        r.seek(10_000)
        assert r.read(500) == PAYLOAD[10_000:10_500]
        r.close()


class TestWriterCoalescing:
    def test_small_writes_batched_into_fewer_rpcs(self, client):
        w = client.open_writer("co-batch", cache=True, coalesce_bytes=8192)
        for i in range(0, 40_960, 256):  # 160 tiny writes
            w.write(PAYLOAD[i : i + 256])
        w.close()
        assert w.rpc_writes <= 6  # 40960/8192 = 5 full runs (+ remainder)
        r = client.open_reader("co-batch")
        out = bytearray()
        while True:
            chunk = r.read(8192)
            if not chunk:
                break
            out += chunk
        r.close()
        assert bytes(out) == PAYLOAD[:40_960]

    def test_flush_makes_pending_bytes_visible(self, client):
        w = client.open_writer("co-flush", coalesce_bytes=65536)
        w.write(b"early")
        w.flush()  # must push the run despite being far below the block size
        r = client.open_reader("co-flush")
        assert r.read(5) == b"early"
        w.write(b"-late")
        w.close()
        assert r.read(100) == b"-late"
        r.close()


class TestTransferMonitor:
    def test_empty_monitor_reports_none(self):
        m = TransferMonitor()
        assert m.latency("nowhere") is None
        assert m.bandwidth("nowhere") is None
        assert m.summary() == {}

    def test_latency_from_fastest_small_probe(self):
        m = TransferMonitor()
        m.record("beta", "size", 16, 0.020)
        m.record("beta", "size", 16, 0.010)  # fastest rtt -> one-way 5 ms
        m.record("beta", "get_block", 1 << 20, 0.5)  # bulk: not a probe
        assert m.latency("beta") == pytest.approx(0.005)

    def test_bandwidth_from_bulk_aggregate(self):
        m = TransferMonitor()
        m.record("beta", "get_block", 1 << 20, 0.5)
        m.record("beta", "put_block", 1 << 20, 1.5)
        m.record("beta", "size", 16, 0.010)  # small: excluded from bandwidth
        assert m.bandwidth("beta") == pytest.approx((2 << 20) / 2.0)

    def test_summary_rolls_up_per_peer(self):
        m = TransferMonitor()
        m.record("beta", "get_block", 1 << 20, 0.5)
        m.record("gamma", "size", 16, 0.002)
        s = m.summary()
        assert set(s) == {"beta", "gamma"}
        assert s["beta"]["ops"] == 1
        assert s["beta"]["bytes"] == 1 << 20
        assert s["beta"]["bandwidth_bps"] == pytest.approx((1 << 20) / 0.5)
        assert s["gamma"]["latency_s"] == pytest.approx(0.001)


class TestObservedPolicy:
    def test_estimate_falls_back_to_defaults(self):
        est = observed_estimate(None, "beta", 1_000_000)
        assert est.bandwidth == 10 * 1024 * 1024
        assert est.latency == pytest.approx(0.005)

    def test_estimate_uses_measured_numbers(self):
        m = TransferMonitor()
        m.record("beta", "size", 16, 0.100)  # one-way 50 ms
        m.record("beta", "get_block", 10 << 20, 1.0)  # 10 MiB/s
        est = observed_estimate(m, "beta", 1_000_000)
        assert est.latency == pytest.approx(0.050)
        assert est.bandwidth == pytest.approx((10 << 20) / 1.0)

    def test_decide_observed_flips_with_measured_latency(self):
        policy = AccessPolicy()
        slow = TransferMonitor()
        slow.record("wan", "size", 16, 0.200)  # 100 ms one-way
        slow.record("wan", "get_block", 10 << 20, 1.0)
        # Full sequential read of a multi-block file over a high-latency
        # link: per-block round trips dominate, so copying wins.
        d = policy.decide_observed(slow, "wan", 64 * 1024 * 100)
        assert d.mode == "copy"
        # Tiny touched fraction: proxy wins despite the latency.
        d = policy.decide_observed(slow, "wan", 64 * 1024 * 100, read_fraction=0.001)
        assert d.mode == "proxy"


class TestFmMonitorIntegration:
    def test_remote_reads_populate_fm_monitor(self, hosts, ftp_beta, gns, tmp_path):
        beta = hosts.host("beta")
        beta.resolve("/exports/m.bin").parent.mkdir(parents=True, exist_ok=True)
        beta.resolve("/exports/m.bin").write_bytes(PAYLOAD[:50_000])
        gns.add(
            GnsRecord(
                machine="alpha",
                path="/m/data.bin",
                mode=IOMode.REMOTE,
                remote_host="beta",
                remote_path="/exports/m.bin",
            )
        )
        fm = FileMultiplexer(
            GridContext(
                machine="alpha",
                gns=gns,
                hosts=hosts,
                gridftp={"beta": ftp_beta.address},
                scratch_dir=tmp_path / "scratch",
            )
        )
        f = fm.open("/m/data.bin", "r")
        assert f.read() == PAYLOAD[:50_000]
        f.close()
        summary = fm.monitor.summary()
        assert "beta" in summary and summary["beta"]["ops"] > 0
        est = fm.link_estimate("beta", 1_000_000)
        assert est.bandwidth > 0 and est.latency >= 0
        fm.close()

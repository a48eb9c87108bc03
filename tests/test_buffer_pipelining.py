"""Grid Buffer read-ahead, write coalescing, the writer's window of
batches in flight, and the transfer monitor feeding the access policy."""

import random
import threading
import time
from concurrent.futures import Future

import pytest

from repro import faults, obs
from repro.core.multiplexer import FileMultiplexer, GridContext
from repro.core.policy import AccessPolicy, observed_estimate
from repro.core.trace import TransferMonitor
from repro.faults import FaultRule
from repro.gns.client import LocalGnsClient
from repro.gns.records import BufferEndpoint, GnsRecord, IOMode
from repro.gns.server import NameService
from repro.gridbuffer.client import BufferWriter, GridBufferClient
from repro.gridbuffer.protocol import OP_WRITE, OP_WRITE_MULTI
from repro.gridbuffer.server import GridBufferServer
from repro.transport.inmem import HostRegistry

from ._seed import SEED

PAYLOAD = bytes(i % 256 for i in range(100_000))
KIB = 1024


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


@pytest.fixture()
def slow_server(tmp_path):
    """Builds Grid Buffer servers with injected one-way latency; stops them."""
    servers = []

    def make(latency):
        servers.append(
            GridBufferServer(cache_dir=tmp_path / f"gb-{len(servers)}", simulated_latency=latency)
        )
        return servers[-1].start()

    yield make
    for server in servers:
        server.stop()


def _count_writes_in_flight(server):
    """Track the server's concurrent write requests, from arrival through
    the simulated link delay to the reply (all on the one engine loop)."""
    rpc = server._rpc
    run_one = rpc._run_one
    count = {"now": 0, "peak": 0}

    async def counting(op, *args):
        if op not in (OP_WRITE, OP_WRITE_MULTI):
            return await run_one(op, *args)
        count["now"] += 1
        count["peak"] = max(count["peak"], count["now"])
        try:
            return await run_one(op, *args)
        finally:
            count["now"] -= 1

    rpc._run_one = counting
    return count


def _drain(reader):
    out = bytearray()
    while chunk := reader.read(64 * KIB):
        out += chunk
    return bytes(out)


class _ScriptedReplies:
    """Client and write channel stand-in: write batches resolve at once
    to scripted stall verdicts (clean after the script runs out)."""

    def __init__(self, verdicts):
        self.verdicts = list(verdicts)

    def _take_channel(self):
        return self

    def _give_channel(self, channel, drained=True):
        pass

    def send(self, name, runs, timeout=None):
        fut = Future()
        fut.set_result(self.verdicts.pop(0) if self.verdicts else None)
        return fut

    def close_writer(self, name):
        return 0


class TestWriterWindow:
    def test_depth_slow_starts_to_four_and_stalls_do_not_grow_it(self):
        replies = _ScriptedReplies([None, "slow_reader", None, None, "buffer_full", None])
        w = BufferWriter(replies, "s", coalesce_bytes=1, flush_after=0)
        depths = []
        for _ in range(9):
            w.write(b"x")  # one byte, one batch
            depths.append(w._depth)
        w.close()
        # Doubles after each window of clean replies, up to 4.  A stall
        # reply neither shrinks the depth nor counts toward a window, so
        # with batch 2 stalled the second doubling waits for batch 4.
        assert depths == [1, 2, 2, 2, 2, 4, 4, 4, 4]

    @pytest.mark.faults
    def test_a_batch_lost_past_the_retries_fails_the_writer_and_the_stream(self, buffer_server):
        client = GridBufferClient(*buffer_server.address)
        try:
            w = client.open_writer("lost", coalesce_bytes=4 * KIB, flush_after=0)
            # Batch 2 dies on its first attempt and on all three retries.
            with faults.injected(
                FaultRule(layer="rpc.client", op=OP_WRITE, action="close", nth=2, times=4),
                seed=SEED,
            ):
                w.write(PAYLOAD[: 4 * KIB])
                w.write(PAYLOAD[4 * KIB : 8 * KIB])
                with pytest.raises(OSError):
                    w.flush()
            with pytest.raises(OSError):
                w.write(PAYLOAD[8 * KIB : 12 * KIB])  # the failure sticks
            with pytest.raises(OSError):
                w.close()
            assert buffer_server.service._stream("lost").failed  # not ended with a hole
        finally:
            client.close()

    def test_batches_overlap_on_a_slow_link_and_flush_drains_them(self, slow_server):
        server = slow_server(0.05)
        writes = _count_writes_in_flight(server)
        client = GridBufferClient(*server.address)
        try:
            w = client.open_writer("win", coalesce_bytes=16 * KIB)
            for off in range(0, len(PAYLOAD), 16 * KIB):
                w.write(PAYLOAD[off : off + 16 * KIB])
            w.flush()
            assert client.high_water("win") == len(PAYLOAD)  # all landed, none in flight
            assert writes["peak"] >= 2
            w.close()
            r = client.open_reader("win")
            assert _drain(r) == PAYLOAD
            r.close()
        finally:
            client.close()

    def test_a_stream_parked_on_capacity_does_not_hold_another_streams_writes(
        self, buffer_server, client
    ):
        """Two capacity-bounded streams written through one client.  A's
        reader starts only after B's reader reaches EOF, so A's writer
        sits parked on ``buffer_full`` meanwhile.  B's replies must not
        queue behind that parked batch."""
        cap = 32 * KIB

        def produce(name):
            w = client.open_writer(name, capacity_bytes=cap, coalesce_bytes=8 * KIB)
            for off in range(0, len(PAYLOAD), 8 * KIB):
                w.write(PAYLOAD[off : off + 8 * KIB])
            w.close()

        a = threading.Thread(target=produce, args=("cap-a",), daemon=True)
        a.start()
        deadline = time.monotonic() + 5.0
        while not (
            buffer_server.service.exists("cap-a")
            and buffer_server.service._stream("cap-a").async_writers
        ):
            assert time.monotonic() < deadline, "stream A never filled"
            time.sleep(0.01)
        b = threading.Thread(target=produce, args=("cap-b",), daemon=True)
        b.start()
        rb = client.open_reader("cap-b", read_timeout=10.0)
        assert _drain(rb) == PAYLOAD
        rb.close()
        b.join(timeout=10.0)
        ra = client.open_reader("cap-a", read_timeout=10.0)
        assert _drain(ra) == PAYLOAD
        ra.close()
        a.join(timeout=10.0)
        assert not a.is_alive() and not b.is_alive()

    def test_only_a_drained_channel_serves_the_next_writer(self, buffer_server, client):
        first = client.open_writer("reuse-a")
        first.write(PAYLOAD)
        first.close()
        channel = first._channel
        w = client.open_writer("reuse-b", capacity_bytes=8 * KIB, coalesce_bytes=8 * KIB)
        assert w._channel is channel
        w.write(PAYLOAD[: 8 * KIB])
        w.write(PAYLOAD[8 * KIB : 16 * KIB])  # parks on buffer_full
        stream = buffer_server.service._stream("reuse-b")
        deadline = time.monotonic() + 5.0
        while not stream.async_writers:
            assert time.monotonic() < deadline, "the second batch never parked"
            time.sleep(0.01)
        w.abort()  # its parked batch would queue ahead of the next writer's replies
        nxt = client.open_writer("reuse-c")
        assert nxt._channel is not channel
        nxt.close()

    @pytest.mark.faults
    def test_connection_killed_under_three_batches_in_flight(self, slow_server):
        """The 7th ``gb.write_multi`` closes the connection while batches
        4-6 wait for replies (slow start: 1, 2, then 4 deep).  All four
        resend, in whatever order their backoffs give, and land once."""
        server = slow_server(0.03)
        writes = _count_writes_in_flight(server)
        client = GridBufferClient(*server.address)
        payload = random.Random(SEED).randbytes(16 * 16 * KIB)
        retries = obs.value("rpc_retries_total", {"op": OP_WRITE_MULTI}) or 0.0
        try:
            w = client.open_writer("killed", cache=True, coalesce_bytes=16 * KIB, flush_after=0)
            with faults.injected(
                FaultRule(layer="rpc.client", op=OP_WRITE_MULTI, action="close", nth=7),
                seed=SEED,
            ):
                for off in range(0, len(payload), 16 * KIB):
                    # Back half first: each batch is two runs, one gb.write_multi.
                    w.seek(off + 8 * KIB)
                    w.write(payload[off + 8 * KIB : off + 16 * KIB])
                    w.seek(off)
                    w.write(payload[off : off + 8 * KIB])
                w.close()
            assert writes["peak"] >= 3
            assert (obs.value("rpc_retries_total", {"op": OP_WRITE_MULTI}) or 0.0) >= retries + 4
            assert client.stats("killed")["bytes_written"] == len(payload)
            r = client.open_reader("killed")
            assert _drain(r) == payload
            r.close()
        finally:
            client.close()


class TestReaderDepth:
    def test_window_deepens_on_a_slow_link_with_a_probe_sample(self, slow_server):
        """Link estimates do not size the depth: on a 5 ms link each fetch
        measures about chunk / RTT, which as a bandwidth-delay product
        would hold the window at one fetch for good."""
        server = slow_server(0.005)
        host, port = server.address
        chunk = 16 * KIB
        monitor = TransferMonitor()
        monitor.record(host, "probe", 16, 0.010)  # 5 ms one way
        monitor.record(host, "read_multi", 1 << 20, 2.0)  # keeps the chunk tier at 16 KiB
        writer_client = GridBufferClient(host, port)
        reader_client = GridBufferClient(host, port, monitor=monitor, peer=host)
        w = writer_client.open_writer("deep", coalesce_bytes=chunk)
        r = None
        try:
            w.write(PAYLOAD[: 4 * chunk])
            w.flush()
            r = reader_client.open_reader("deep", read_ahead_bytes=chunk, read_ahead_depth=4)
            for i in range(4):
                assert r.read(chunk) == PAYLOAD[i * chunk : (i + 1) * chunk]
            stream = server.service._stream("deep")
            deadline = time.monotonic() + 5.0
            while len(stream.async_readers) < 4:  # parked ahead on unwritten bytes
                assert time.monotonic() < deadline, "the window stayed shallow"
                time.sleep(0.01)
        finally:
            w.close()
            if r is not None:
                r.close()
            reader_client.close()
            writer_client.close()


class TestLatencySensitivity:
    LATENCY = 0.005  # one way
    CALL = 64 * KIB

    def test_buffer_stream_through_two_fms_overlaps_its_round_trips(self, slow_server, tmp_path):
        """At 5 ms a 2 MiB BUFFER stream between two FMs keeps several
        write batches on the link at once, where a writer waiting for
        each batch's reply moves one 64 KiB batch per round trip.  The
        check counts batches at the server, not MiB/s, so a busy box
        cannot fail it; the goodput itself is the benchmark's."""
        server = slow_server(self.LATENCY)
        writes = _count_writes_in_flight(server)
        ns = NameService(locate_buffer_server=lambda _m: server.address)
        hosts = HostRegistry(tmp_path / "hosts")
        fms = []
        for machine in ("a", "b"):
            hosts.add_host(machine)
            fms.append(
                FileMultiplexer(
                    GridContext(
                        machine=machine,
                        gns=LocalGnsClient(ns),
                        hosts=hosts,
                        buffer_locator=lambda _m: server.address,
                        scratch_dir=tmp_path / "scratch" / machine,
                    )
                )
            )
        payload = random.Random(SEED).randbytes(2 << 20)
        path = "/job/stream.dat"
        ns.add(
            GnsRecord(
                machine="*", path=path, mode=IOMode.BUFFER, buffer=BufferEndpoint(stream="stream")
            )
        )
        try:
            writer = threading.Thread(target=self._write, args=(fms[0], path, payload))
            writer.start()
            r = fms[1].open(path, "r")
            got = _drain(r)
            r.close()
            writer.join(timeout=30)
        finally:
            for fm in fms:
                fm.close()
        assert got == payload
        assert writes["peak"] >= 2

    def _write(self, fm, path, payload):
        with fm.open(path, "w") as f:
            for off in range(0, len(payload), self.CALL):
                f.write(payload[off : off + self.CALL])


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

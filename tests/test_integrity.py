"""End-to-end integrity: per-frame CRC, bit-flip chaos, self-healing reads.

Covers the PR 9 machinery bottom-up:

- wire level: the ``FLAG_CRC`` preamble bit and 4-byte payload trailer
  (round-trip, mismatch -> ``IntegrityError``, unknown flag bits and
  un-checksummed frames refused — CRC is unconditional),
- transport healing: a corrupted *reply* is detected by the client and
  retried under the idempotency gate; a corrupted *request* is
  detected by the server, which drops the connection and the client
  redials,
- the fault injector itself: the ``corrupt`` action, loud parsing of
  malformed ``REPRO_FAULTS`` rules, and ``fire_async`` keeping delay
  rules off the shared event loop,
- copy-in self-heal: a post-wire corrupted fetch fails the whole-file
  checksum and is re-fetched,
- and the acceptance run: all six IO modes byte-identical under seeded
  corruption chaos, plus an 8-reader broadcast whose read replies are
  corrupted at random.

Every detection increments ``integrity_errors_total{layer,action}``.
"""

import asyncio
import random
import threading
import time

import pytest

from repro import faults, ioutil, obs
from repro.core.multiplexer import FileMultiplexer, GridContext
from repro.core.remote_client import CopyInOutFile
from repro.core.replica import ReplicaSelector
from repro.faults import FaultRule
from repro.gns.client import LocalGnsClient
from repro.gns.records import BufferEndpoint, GnsRecord, IOMode
from repro.gns.server import NameService
from repro.grid.replica_catalog import Replica, ReplicaCatalog
from repro.gridbuffer.client import GridBufferClient
from repro.gridbuffer.server import GridBufferServer
from repro.transport.aio import read_frame_async
from repro.transport.gridftp import GridFtpClient, GridFtpServer
from repro.transport.inmem import HostRegistry
from repro.transport.tcp import (
    FrameError,
    IntegrityError,
    RpcClient,
    RpcServer,
    WireVersionError,
)
from repro.transport.wire import CRC_TRAILER, FLAG_CRC, build_binary_frame

from ._seed import SEED

pytestmark = pytest.mark.corrupt


@pytest.fixture(autouse=True)
def _disarmed():
    faults.disarm()
    yield
    faults.disarm()


def _counter(name, labels=None):
    if labels is not None:
        return obs.value(name, labels) or 0.0
    family = obs.snapshot().get(name)
    if not family:
        return 0.0
    total = 0.0
    for series in family["series"]:
        value = series["value"]
        total += value["count"] if isinstance(value, dict) else value
    return total


def _integrity(layer, action):
    return _counter("integrity_errors_total", {"layer": layer, "action": action})


def _make_server():
    server = RpcServer("127.0.0.1", 0)
    server.register("echo", lambda header, payload: ({"echo": header.get("msg")}, payload))
    # Registered under an IDEMPOTENT_OPS name so the client may retry it.
    server.register("get_block", lambda header, payload: ({"ok": True}, payload))
    return server


# ---------------------------------------------------------------------------
# Wire level: trailer round-trip, mismatch, unknown flags
# ---------------------------------------------------------------------------
class TestWireCrcFrames:
    def _decode(self, raw: bytes):
        async def run():
            reader = asyncio.StreamReader()
            reader.feed_data(raw)
            reader.feed_eof()
            return await read_frame_async(reader)

        return asyncio.run(run())

    def _frame(self, payload: bytes, flags: int = FLAG_CRC, crc=None) -> bytes:
        scratch = bytearray()
        build_binary_frame(scratch, {"op": "echo", "k": 1}, len(payload))
        assert scratch[2] == FLAG_CRC  # the builder always promises a trailer
        scratch[2] = flags
        raw = bytes(scratch) + payload
        if flags & FLAG_CRC:
            raw += CRC_TRAILER.pack(ioutil.crc32(payload) if crc is None else crc)
        return raw

    def test_crc_frame_round_trips(self):
        payload = b"block-of-bytes" * 100
        header, got = self._decode(self._frame(payload))
        assert got == payload
        assert header["k"] == 1

    def test_plain_binary_frame_is_refused(self):
        with pytest.raises(WireVersionError, match="without a CRC trailer") as exc_info:
            self._decode(self._frame(b"data", flags=0))
        assert exc_info.value.reason == "no-crc"

    def test_flipped_payload_bit_raises_integrity_error(self):
        payload = bytearray(b"block-of-bytes" * 100)
        raw = bytearray(self._frame(bytes(payload)))
        raw[len(raw) - CRC_TRAILER.size - 10] ^= 0x04  # flip inside the payload
        with pytest.raises(IntegrityError):
            self._decode(bytes(raw))

    def test_wrong_trailer_raises_integrity_error(self):
        with pytest.raises(IntegrityError):
            self._decode(self._frame(b"payload", crc=0xDEADBEEF))

    def test_unknown_flag_bits_rejected(self):
        with pytest.raises(FrameError, match="unsupported wire flags"):
            self._decode(self._frame(b"payload", flags=0x80, crc=0))

    def test_crc_helper_is_masked_and_stable(self):
        assert ioutil.crc32(b"") == 0
        assert 0 <= ioutil.crc32(b"abc") <= 0xFFFFFFFF
        assert ioutil.crc32(b"abc") == ioutil.crc32(b"abc")


# ---------------------------------------------------------------------------
# Transport healing: corrupted frames are detected and retried
# ---------------------------------------------------------------------------
class TestTransportHealing:
    def test_corrupt_reply_detected_and_retried(self):
        payload = b"b" * 4096
        with _make_server() as server, RpcClient(*server.address) as client:
            client.call("echo", {"msg": "warm"})
            before = _integrity("rpc.client", "retry")
            rule = FaultRule(layer="rpc.server", op="get_block", action="corrupt", nth=1)
            with faults.injected(rule, seed=SEED):
                reply, data = client.call("get_block", {"n": 1}, payload=payload)
            assert data == payload  # healed: retry got the clean bytes
            assert reply["ok"] is True
            assert _integrity("rpc.client", "retry") > before

    def test_corrupt_reply_on_non_idempotent_op_surfaces(self):
        with _make_server() as server, RpcClient(*server.address) as client:
            client.call("echo", {"msg": "warm"})
            rule = FaultRule(layer="rpc.server", op="echo", action="corrupt", times=0)
            with faults.injected(rule, seed=SEED):
                with pytest.raises(IntegrityError):
                    client.call("echo", {"msg": "hi"}, payload=b"p" * 2048)

    def test_corrupt_request_detected_by_server_and_redialed(self):
        payload = b"q" * 4096
        with _make_server() as server, RpcClient(*server.address) as client:
            client.call("echo", {"msg": "warm"})
            before = _integrity("rpc.server", "close")
            rule = FaultRule(layer="rpc.client", op="get_block", action="corrupt", nth=1)
            with faults.injected(rule, seed=SEED):
                _, data = client.call("get_block", {"n": 2}, payload=payload)
            assert data == payload
            assert _integrity("rpc.server", "close") > before

    def test_async_client_retries_corrupt_reply(self):
        from repro.transport.aio import AsyncRpcClient

        payload = b"a" * 4096

        async def run(addr):
            client = AsyncRpcClient(*addr)
            try:
                await client.call("echo", {"msg": "warm"})
                rule = FaultRule(
                    layer="rpc.server", op="get_block", action="corrupt", nth=1
                )
                with faults.injected(rule, seed=SEED):
                    return await client.call("get_block", {"n": 3}, payload=payload)
            finally:
                await client.close()

        with _make_server() as server:
            before = _integrity("rpc.client", "retry")
            reply, data = asyncio.run(run(server.address))
            assert data == payload
            assert _integrity("rpc.client", "retry") > before


# ---------------------------------------------------------------------------
# Fault injector: corrupt action, loud parsing, async delay
# ---------------------------------------------------------------------------
class TestCorruptAction:
    def test_corrupt_bytes_flips_exactly_one_bit_deterministically(self):
        injector = faults.FaultInjector(seed=SEED)
        data = bytes(256)
        out = injector.corrupt_bytes(data)
        assert len(out) == len(data)
        diff = [i for i in range(len(data)) if out[i] != data[i]]
        assert len(diff) == 1
        assert bin(out[diff[0]]).count("1") == 1  # single bit
        # Seeded: a fresh injector with the same seed flips the same bit.
        again = faults.FaultInjector(seed=SEED).corrupt_bytes(data)
        assert again == out

    def test_corrupt_bytes_empty_payload_unchanged(self):
        injector = faults.FaultInjector(seed=SEED)
        assert injector.corrupt_bytes(b"") == b""

    def test_corrupt_verdict_returned_and_counted(self):
        rule = FaultRule(layer="gridftp", op="get_block", action="corrupt", nth=1)
        with faults.injected(rule, seed=SEED) as injector:
            assert injector.fire("gridftp", "get_block", "p") == "corrupt"
            assert injector.fire("gridftp", "get_block", "p") is None  # times=1
            assert ("gridftp", "get_block", "p", "corrupt") in injector.fired


class TestLoudRuleParsing:
    def test_blank_spec_is_no_rules(self):
        assert faults.parse_rules("") == []
        assert faults.parse_rules("  ;  ") == []

    def test_unknown_action_names_the_rule(self):
        with pytest.raises(ValueError, match="explode"):
            faults.parse_rules("layer=rpc.client,action=explode")

    def test_non_integer_nth_names_the_rule(self):
        with pytest.raises(ValueError, match="nth='x'"):
            faults.parse_rules("layer=rpc.client,action=close,nth=x")

    def test_non_numeric_probability_names_the_rule(self):
        with pytest.raises(ValueError, match="probability='often'"):
            faults.parse_rules("action=close,probability=often")

    def test_non_integer_times_names_the_rule(self):
        with pytest.raises(ValueError, match="times='1.5'"):
            faults.parse_rules("action=close,times=1.5")

    def test_empty_rule_within_spec_rejected(self):
        with pytest.raises(ValueError, match="empty fault rule"):
            faults.parse_rules("layer=rpc.client,action=close;;layer=gridftp,action=close")

    def test_unknown_layer_names_the_rule(self):
        with pytest.raises(ValueError, match="gb.cahce"):
            faults.parse_rules("layer=gb.cahce,action=corrupt")

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="lyer"):
            faults.parse_rules("lyer=rpc.client,action=close")

    def test_bare_word_rejected(self):
        with pytest.raises(ValueError, match="key=value"):
            faults.parse_rules("close")


class TestFireAsyncDelay:
    def test_delay_rule_does_not_starve_the_loop(self):
        """A delay rule awaited via fire_async lets other tasks run."""
        rule = FaultRule(layer="gb.service", op="read", action="delay", delay=0.25)
        injector = faults.FaultInjector([rule], seed=SEED)
        ticks = []

        async def ticker():
            for _ in range(5):
                await asyncio.sleep(0.01)
                ticks.append(time.monotonic())

        async def run():
            t0 = time.monotonic()
            await asyncio.gather(
                injector.fire_async("gb.service", "read", "s"), ticker()
            )
            return t0

        t0 = run_start = asyncio.run(run())
        del run_start
        # The ticker's last tick landed while the delay was still
        # pending: the loop kept scheduling work through the sleep.
        assert ticks[-1] - t0 < 0.2


# ---------------------------------------------------------------------------
# Copy-in self-heal: whole-file checksum catches post-wire corruption
# ---------------------------------------------------------------------------
class TestCopyInSelfHeal:
    @pytest.fixture()
    def export(self, tmp_path):
        root = tmp_path / "export"
        root.mkdir()
        payload = bytes(random.Random(SEED).randbytes(200_000))
        (root / "data.bin").write_bytes(payload)
        with GridFtpServer(root) as server:
            client = GridFtpClient(*server.address, block_size=32 * 1024)
            yield client, payload, tmp_path
            client.close()

    def test_transient_corruption_heals_by_refetch(self, export):
        client, payload, tmp_path = export
        before = _integrity("copyin", "refetch")
        # gridftp-layer corruption lands *after* the wire CRC was
        # verified — only the whole-file checksum can see it.
        rule = FaultRule(layer="gridftp", op="get_block", action="corrupt", nth=2, times=1)
        with faults.injected(rule, seed=SEED):
            f = CopyInOutFile(
                client, "data.bin", "rb", scratch_dir=tmp_path / "scratch", verify=True
            )
        try:
            assert f.read() == payload
        finally:
            f.close()
        assert _integrity("copyin", "refetch") > before

    def test_persistent_corruption_raises_after_refetches(self, export):
        client, payload, tmp_path = export
        rule = FaultRule(layer="gridftp", op="get_block", action="corrupt", times=0)
        with faults.injected(rule, seed=SEED):
            with pytest.raises(IOError, match="checksum"):
                CopyInOutFile(
                    client, "data.bin", "rb",
                    scratch_dir=tmp_path / "scratch", verify=True,
                )

    def test_clean_fetch_never_refetches(self, export):
        client, payload, tmp_path = export
        before = _integrity("copyin", "refetch")
        f = CopyInOutFile(
            client, "data.bin", "rb", scratch_dir=tmp_path / "scratch", verify=True
        )
        try:
            assert f.read() == payload
        finally:
            f.close()
        assert _integrity("copyin", "refetch") == before


# ---------------------------------------------------------------------------
# Acceptance: all six IO modes byte-identical under corruption chaos
# ---------------------------------------------------------------------------
@pytest.fixture()
def corrupt_world(tmp_path):
    hosts = HostRegistry(tmp_path / "hosts")
    for name in ("compute", "store1", "store2"):
        hosts.add_host(name)

    rng = random.Random(SEED)
    # The source stays under the 64 KiB transfer block so its copy-in
    # is single-stream: a parallel-stream clone's first frame is its
    # *probe* (JSON, unprotected), which a corrupt rule could flip
    # undetectably — the documented negotiation window, not a bug this
    # test is about.  The replica is multi-block so store1's
    # corrupt-forever rule fires mid-read and forces a failover.
    source = bytes(rng.randbytes(48 * 1024))
    replica_payload = bytes(rng.randbytes(640 * 1024))
    stream_payload = bytes(rng.randbytes(192 * 1024))

    src = hosts.host("store2").resolve("/in/source.dat")
    src.parent.mkdir(parents=True, exist_ok=True)
    src.write_bytes(source)
    for host in ("store1", "store2"):
        p = hosts.host(host).resolve("/replicas/big.dat")
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_bytes(replica_payload)

    servers = {
        name: GridFtpServer(hosts.host(name).root).start()
        for name in ("compute", "store1", "store2")
    }
    buffer_server = GridBufferServer(cache_dir=tmp_path / "cache").start()

    catalog = ReplicaCatalog()
    for host in ("store1", "store2"):
        catalog.register(
            "lfn://big", Replica(host, "/replicas/big.dat", size=len(replica_payload))
        )
    # Static costs prefer store1 — the host whose replies the chaos
    # rules corrupt persistently.
    selector = ReplicaSelector(
        catalog, static_cost=lambda s, d: 1.0 if s == "store1" else 2.0
    )

    ns = NameService(locate_buffer_server=lambda m: buffer_server.address)
    ns.add_all(
        [
            GnsRecord(
                machine="compute", path="/job/remote-in.dat", mode=IOMode.REMOTE,
                remote_host="store2", remote_path="/in/source.dat",
            ),
            GnsRecord(
                machine="compute", path="/job/copied-in.dat", mode=IOMode.COPY,
                remote_host="store2", remote_path="/in/source.dat",
            ),
            GnsRecord(
                machine="compute", path="/job/replica-remote.dat",
                mode=IOMode.REMOTE_REPLICA, logical_name="lfn://big",
            ),
            GnsRecord(
                machine="compute", path="/job/replica-local.dat",
                mode=IOMode.LOCAL_REPLICA, logical_name="lfn://big",
                local_path="/cache/big.dat",
            ),
            GnsRecord(
                machine="*", path="/job/stream.dat", mode=IOMode.BUFFER,
                buffer=BufferEndpoint(stream="corrupt-stream", cache=True),
            ),
        ]
    )
    gns = LocalGnsClient(ns)

    def ctx(machine):
        return GridContext(
            machine=machine,
            gns=gns,
            hosts=hosts,
            gridftp={name: s.address for name, s in servers.items()},
            buffer_locator=lambda m: buffer_server.address,
            selector=selector,
            scratch_dir=tmp_path / "scratch",
            io_timeout=30.0,
            prefetch=False,  # deterministic per-op fault counting
            verify_copies=True,  # copy-ins re-verify with the checksum op
        )

    fms = {name: FileMultiplexer(ctx(name)) for name in ("compute", "store2")}
    world = {
        "fms": fms,
        "servers": servers,
        "buffer_server": buffer_server,
        "payloads": {
            "source": source,
            "replica": replica_payload,
            "stream": stream_payload,
        },
    }
    yield world
    for fm in fms.values():
        fm.close()
    for s in servers.values():
        s.stop()
    buffer_server.stop()


class TestCorruptChaosSixModes:
    @pytest.mark.timeout(120)
    def test_all_modes_byte_identical_under_bit_flips(self, corrupt_world):
        fm = corrupt_world["fms"]["compute"]
        fm_store2 = corrupt_world["fms"]["store2"]
        payloads = corrupt_world["payloads"]
        store1_host, store1_port = corrupt_world["servers"]["store1"].address
        integrity_before = _counter("integrity_errors_total")
        retries_before = _integrity("rpc.client", "retry")

        # nth=2 everywhere keeps the corruption off each flow's very
        # first matching frame, which can be the unprotected JSON probe.
        rules = [
            # Replies from store1 corrupt *forever*: mode 4 must fail
            # over mid-read, mode 5's copy-in must exclude store1.
            FaultRule(
                layer="rpc.server", op="get_block",
                peer=f"{store1_host}:{store1_port}",
                action="corrupt", nth=2, times=0,
            ),
            # Transient reply corruption on every other file server.
            FaultRule(layer="rpc.server", op="get_block", action="corrupt", nth=3, times=2),
            # Grid Buffer reads: corrupted replies, healed by retry.
            FaultRule(layer="rpc.server", op="gb.read*", action="corrupt", nth=2, times=2),
            # Writer requests corrupted in flight: the server drops the
            # connection and the token-deduped retry lands once.  nth=1
            # is safe here: the writer's client pinned binary+crc on
            # gb.create, so its first write frame is already protected.
            FaultRule(layer="rpc.client", op="gb.write*", action="corrupt", nth=1, times=1),
        ]
        modes_used = []
        with faults.injected(*rules, seed=SEED) as injector:
            # 1. LOCAL
            f = fm.open("/job/local.dat", "w")
            modes_used.append(f.io_mode)
            f.write(payloads["source"][:1024])
            f.close()
            f = fm.open("/job/local.dat", "r")
            assert f.read() == payloads["source"][:1024]
            f.close()

            # 2. COPY through corrupted frames, re-verified end to end.
            f = fm.open("/job/copied-in.dat", "r")
            modes_used.append(f.io_mode)
            assert f.read() == payloads["source"]
            f.close()

            # 3. REMOTE proxy reads through corrupted replies.
            f = fm.open("/job/remote-in.dat", "r")
            modes_used.append(f.io_mode)
            assert f.read() == payloads["source"]
            f.close()

            # 4. REMOTE_REPLICA: store1 (preferred) corrupts every
            # reply; the handle must fail over to store2 and keep its
            # offset.
            f = fm.open("/job/replica-remote.dat", "r")
            modes_used.append(f.io_mode)
            got = b""
            while True:
                chunk = f.read(16 * 1024)
                if not chunk:
                    break
                got += chunk
            f.close()
            assert got == payloads["replica"]
            assert f.stats.failovers >= 1

            # 5. LOCAL_REPLICA: the copy-in must land from store2 (the
            # store1 attempt dies on integrity errors) byte-identical.
            f = fm.open("/job/replica-local.dat", "r")
            modes_used.append(f.io_mode)
            assert f.read() == payloads["replica"]
            f.close()

            # 6. BUFFER through corrupted reads and writes.
            stream = payloads["stream"]

            def produce():
                w = fm_store2.open("/job/stream.dat", "w")
                half = len(stream) // 2
                w.write(stream[:half])
                w.flush()  # force a wire write mid-stream
                w.write(stream[half:])
                w.close()

            t = threading.Thread(target=produce, daemon=True)
            t.start()
            r = fm.open("/job/stream.dat", "r")
            modes_used.append(r.io_mode)
            got = b""
            while len(got) < len(stream):
                chunk = r.read(32 * 1024)
                if not chunk:
                    break
                got += chunk
            r.close()
            t.join(timeout=15)
            assert not t.is_alive()
            assert got == stream

            fired_layers = {layer for layer, _, _, _ in injector.fired}
            assert {"rpc.server", "rpc.client"} <= fired_layers

        assert set(modes_used) == set(IOMode), "all six IO modes must run"
        # Detections happened and were healed invisibly.
        assert _counter("integrity_errors_total") > integrity_before
        assert _integrity("rpc.client", "retry") > retries_before


class TestPoisonedBroadcast:
    @pytest.mark.timeout(120)
    def test_eight_reader_broadcast_heals_corrupt_replies(self, tmp_path):
        """8 readers on separate clients; seeded read replies are corrupted.

        Every reader pulls the stream from its buffer server.  Each
        flipped reply fails its frame CRC and the read is retried (a
        cached stream serves it again), so all eight readers still see
        the stream byte-identically.
        """
        payload = bytes(random.Random(SEED).randbytes(512 * 1024))
        with GridBufferServer(cache_dir=tmp_path / "cache") as server:
            ctl = GridBufferClient(*server.address)
            w = ctl.open_writer("bcast", n_readers=8, cache=True)
            w.write(payload)
            w.close()

            before = _counter("integrity_errors_total")
            results = {}
            errors = []

            def read_one(i):
                client = GridBufferClient(*server.address)
                try:
                    reader = client.open_reader(
                        "bcast", reader_id=f"r{i}", read_ahead_bytes=16 * 1024
                    )
                    got = b""
                    while True:
                        chunk = reader.read(16 * 1024)
                        if not chunk:
                            break
                        got += chunk
                    reader.close()
                    results[i] = got
                except Exception as exc:  # pragma: no cover - fail loud
                    errors.append((i, exc))
                finally:
                    client.close()

            rule = FaultRule(layer="rpc.server", op="gb.read*", action="corrupt", probability=0.05)
            with faults.injected(rule, seed=SEED):
                threads = [
                    threading.Thread(target=read_one, args=(i,)) for i in range(8)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
            assert not errors, f"reader crashed: {errors!r}"
            assert len(results) == 8
            for i in range(8):
                assert results[i] == payload, f"reader {i} saw corrupted bytes"
            # At least one corrupt reply was actually caught.
            assert _counter("integrity_errors_total") > before
            ctl.close()

"""Cluster-wide cooperative block cache: holders, hints, peer fetch.

Covers the PR 8 protocol end to end:

- the shared block cache is keyed by stream *generation* (a re-created
  stream never serves stale bytes),
- the origin-side holder map lifecycle (advertise -> evict -> no stale
  hint; stale-generation advertisements discarded; holder gauges),
- the ``reader_lag_blocks`` gauge,
- hint gating — a request without the hint keys gets no
  ``cached_at``, and a reader whose origin never hints still reads
  correctly,
- the ``gb.peer_read`` endpoint itself (crc-verified hit, peer-miss),
- real cross-process peer fetch: a subprocess holder serves an inline
  follower byte-identically; killing the holder mid-read demotes it
  and falls back to the origin; injected ``gb.peer_read`` faults do
  the same under the chaos harness.

True peer traffic needs two OS processes (the shared cache and peer
endpoint are process singletons), hence the ``_peer_reader.py``
helper subprocess.
"""

import hashlib
import json
import os
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

from repro import faults, obs
from repro.faults import FaultRule
from repro.gridbuffer.client import (
    _SHARED_CACHES,
    _SHARED_CACHES_LOCK,
    GridBufferClient,
    _PeerCacheServer,
    _shared_cache_acquire,
    _shared_cache_release,
    _SharedStreamCache,
)
from repro.gridbuffer.protocol import OP_PEER_READ, OP_READ_MULTI
from repro.transport.tcp import RpcClient, RpcError

from ._run import run

REPO = Path(__file__).resolve().parents[1]
HELPER = Path(__file__).resolve().parent / "_peer_reader.py"

pytestmark = pytest.mark.peer


@pytest.fixture(autouse=True)
def _no_leftover_faults():
    yield
    faults.disarm()


@pytest.fixture()
def client(buffer_server):
    c = GridBufferClient(*buffer_server.address)
    yield c
    c.close()


def _payload(n: int, seed: int = 8) -> bytes:
    return bytes((i * 31 + seed) % 251 for i in range(n))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _demotions_total() -> float:
    fam = obs.snapshot().get("peer_demotions_total")
    if not fam:
        return 0.0
    return sum(s["value"] for s in fam["series"])


def _read_all(reader, chunk: int = 64 * 1024) -> bytes:
    out = []
    while True:
        data = reader.read(chunk)
        if not data:
            break
        out.append(data)
    return b"".join(out)


def _spawn(mode: str, addr, stream: str, reader_id: str, chunk: int):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    return subprocess.Popen(
        [
            sys.executable,
            str(HELPER),
            mode,
            addr[0],
            str(addr[1]),
            stream,
            reader_id,
            str(chunk),
        ],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )


def _result(child) -> dict:
    line = child.stdout.readline().strip()
    if not line.startswith("DONE "):
        child.kill()
        raise AssertionError(f"helper failed: {line!r}\n{child.stderr.read()}")
    return json.loads(line[5:])


class TestGenerationKeyedCache:
    """Satellite (a): the shared cache key includes the generation."""

    ADDR = ("127.0.0.1", 1)  # never dialled: registry-only tests

    def test_generations_get_distinct_caches(self):
        a = _shared_cache_acquire(self.ADDR, "gen-key", 0)
        b = _shared_cache_acquire(self.ADDR, "gen-key", 1)
        try:
            assert a is not b
            assert (a.gen, b.gen) == (0, 1)
            assert _shared_cache_acquire(self.ADDR, "gen-key", 1) is b
        finally:
            _shared_cache_release(self.ADDR, "gen-key", 0)
            _shared_cache_release(self.ADDR, "gen-key", 1)
            assert _shared_cache_release(self.ADDR, "gen-key", 1) is True

    def test_recreated_stream_never_serves_stale_bytes(self):
        """Bytes cached under generation N are invisible to N+1."""
        old = _shared_cache_acquire(self.ADDR, "gen-stale", 0)
        try:
            old.put(0, b"stale" * 100, advertise=False)
            fresh = _shared_cache_acquire(self.ADDR, "gen-stale", 1)
            try:
                assert fresh.peek_range(0, 500) is None
            finally:
                _shared_cache_release(self.ADDR, "gen-stale", 1)
        finally:
            _shared_cache_release(self.ADDR, "gen-stale", 0)


class TestHolderLifecycle:
    """Origin-side holder map: advertise, evict, discard stale gens."""

    def _stream(self, service, name):
        service.create_stream(name, n_readers=1)
        service.register_reader(name, "r")
        run(service.write_async(name, 0, b"h" * 8192))
        return service.stream_generation(name)

    def test_advertise_then_evict_leaves_no_stale_hint(self, buffer_server):
        service = buffer_server.service
        gen = self._stream(service, "hl")
        service.note_holder("hl", "10.0.0.1:1", holds=[(0, 4096)], gen=gen)
        assert service.holders_for("hl", 0, 8192) == ["10.0.0.1:1"]
        assert obs.value("buffer_holders", {"stream": "hl"}) == 1
        assert obs.value("buffer_holder_bytes", {"stream": "hl"}) == 4096
        service.note_holder("hl", "10.0.0.1:1", drops=[(0, 4096)], gen=gen)
        assert service.holders_for("hl", 0, 8192) == []
        assert obs.value("buffer_holders", {"stream": "hl"}) == 0

    def test_stale_generation_advertisement_discarded(self, buffer_server):
        service = buffer_server.service
        gen = self._stream(service, "hl-gen")
        service.note_holder("hl-gen", "10.0.0.2:1", holds=[(0, 4096)], gen=gen + 1)
        assert service.holders_for("hl-gen", 0, 8192) == []

    def test_drop_holder_forgets_every_range(self, buffer_server):
        service = buffer_server.service
        gen = self._stream(service, "hl-drop")
        service.note_holder(
            "hl-drop", "10.0.0.3:1", holds=[(0, 2048), (4096, 8192)], gen=gen
        )
        service.drop_holder("hl-drop", "10.0.0.3:1")
        assert service.holders_for("hl-drop", 0, 8192) == []
        assert obs.value("buffer_holders", {"stream": "hl-drop"}) == 0

    def test_covering_holder_ranks_before_overlap_only(self, buffer_server):
        """The peer holding the *next needed byte* must come first."""
        service = buffer_server.service
        gen = self._stream(service, "hl-rank")
        service.note_holder("hl-rank", "lag:1", holds=[(4096, 8192)], gen=gen)
        service.note_holder("hl-rank", "cov:1", holds=[(0, 8192)], gen=gen)
        for _ in range(4):  # rotation must never outrank coverage
            assert service.holders_for("hl-rank", 0, 8192)[0] == "cov:1"

    def test_requester_excluded_from_its_own_hints(self, buffer_server):
        service = buffer_server.service
        gen = self._stream(service, "hl-self")
        service.note_holder("hl-self", "me:1", holds=[(0, 8192)], gen=gen)
        assert service.holders_for("hl-self", 0, 8192, exclude="me:1") == []


class TestReaderLagBlocks:
    """Satellite (b): block-granular lag gauge per reader."""

    def test_gauge_tracks_consume_frontier(self, client):
        client.create_stream("lag", n_readers=1)
        client.register_reader("lag", "r")
        for i in range(3):
            client.write("lag", i * 4096, b"l" * 4096)
        labels = {"stream": "lag", "reader": "r"}
        client.consume_multi("lag", [("r", [(0, 4096)])])
        assert obs.value("buffer_reader_lag_blocks", labels) == 2
        client.consume_multi("lag", [("r", [(4096, 12288)])])
        assert obs.value("buffer_reader_lag_blocks", labels) == 0


class TestPeerReadEndpoint:
    """The in-process ``gb.peer_read`` server over the shared caches."""

    def _plant(self, key, data):
        cache = _SharedStreamCache(gen=key[3])
        cache.put(0, data, advertise=False)
        with _SHARED_CACHES_LOCK:
            _SHARED_CACHES[key] = cache

    def _unplant(self, key):
        with _SHARED_CACHES_LOCK:
            _SHARED_CACHES.pop(key, None)

    def test_hit_serves_crc_checked_bytes(self):
        key = ("127.0.0.1", 54321, "unit", 3)
        payload = _payload(4096)
        self._plant(key, payload)
        try:
            host, _, port = _PeerCacheServer.get().addr.rpartition(":")
            rpc = RpcClient(host, int(port))
            try:
                reply, data = rpc.call(
                    OP_PEER_READ,
                    {
                        "origin": "127.0.0.1:54321",
                        "name": "unit",
                        "gen": 3,
                        "offset": 0,
                        "length": len(payload),
                    },
                )
            finally:
                rpc.close()
            assert data == payload
            assert int(reply["crc"]) == (zlib.crc32(payload) & 0xFFFFFFFF)
        finally:
            self._unplant(key)

    def test_uncached_range_is_a_peer_miss(self):
        key = ("127.0.0.1", 54322, "unit-miss", 0)
        self._plant(key, _payload(1024))
        try:
            host, _, port = _PeerCacheServer.get().addr.rpartition(":")
            rpc = RpcClient(host, int(port))
            try:
                with pytest.raises(RpcError) as exc:
                    rpc.call(
                        OP_PEER_READ,
                        {
                            "origin": "127.0.0.1:54322",
                            "name": "unit-miss",
                            "gen": 0,
                            "offset": 1 << 20,  # cached run is [0, 1024)
                            "length": 4096,
                        },
                    )
            finally:
                rpc.close()
            assert exc.value.kind == "peer-miss"
        finally:
            self._unplant(key)

    def test_wrong_generation_is_a_peer_miss(self):
        """Satellite (a) on the serving side: gen is part of the key."""
        key = ("127.0.0.1", 54323, "unit-gen", 1)
        self._plant(key, _payload(1024))
        try:
            host, _, port = _PeerCacheServer.get().addr.rpartition(":")
            rpc = RpcClient(host, int(port))
            try:
                with pytest.raises(RpcError) as exc:
                    rpc.call(
                        OP_PEER_READ,
                        {
                            "origin": "127.0.0.1:54323",
                            "name": "unit-gen",
                            "gen": 2,  # holder caches generation 1
                            "offset": 0,
                            "length": 1024,
                        },
                    )
            finally:
                rpc.close()
            assert exc.value.kind == "peer-miss"
        finally:
            self._unplant(key)


class TestHintGating:
    """``cached_at`` is opt-in per request and optional per reply."""

    def _seed_stream(self, client, buffer_server, name, n_readers=1):
        service = buffer_server.service
        client.create_stream(name, n_readers=n_readers)
        client.register_reader(name, "r")
        client.write(name, 0, b"s" * 8192)
        gen = service.stream_generation(name)
        service.note_holder(name, "10.9.9.9:1", holds=[(0, 8192)], gen=gen)

    def test_request_without_hint_keys_gets_no_hint(self, client, buffer_server):
        """A request without the hint keys -> no cached_at.

        A reader outside the cooperative cache sends no ``peer_hints``
        key, so the server must not compute or emit a hint for it.
        """
        self._seed_stream(client, buffer_server, "skew-old")
        rpc = RpcClient(*buffer_server.address)
        try:
            reply, data = rpc.call(
                OP_READ_MULTI,
                {"name": "skew-old", "reader_id": "r", "offset": 0, "budget": 4096},
            )
            assert len(data) == 4096
            assert "cached_at" not in reply
            # The same request *with* the hint keys does get one — the
            # gating is on the request fields, not on the stream state.
            reply, _ = rpc.call(
                OP_READ_MULTI,
                {
                    "name": "skew-old",
                    "reader_id": "r",
                    "offset": 0,
                    "budget": 4096,
                    "peer": "127.0.0.1:2",
                    "peer_hints": 3,
                },
            )
            assert reply["cached_at"]["peers"] == ["10.9.9.9:1"]
        finally:
            rpc.close()

    def test_reader_works_when_origin_never_hints(
        self, client, buffer_server, monkeypatch
    ):
        """No reply ever carries ``cached_at``; reads must not care."""
        monkeypatch.setattr(buffer_server, "_peer_hints", lambda *a, **k: {})
        payload = _payload(256 * 1024)
        w = client.open_writer("skew-new", n_readers=1, cache=True)
        w.write(payload)
        w.close()
        r = client.open_reader("skew-new", reader_id="r", peer_cache=True)
        try:
            assert _read_all(r) == payload
            assert r.peer_hits == 0  # no hints ever arrived, origin served all
        finally:
            r.close()


class TestPeerFetchEndToEnd:
    """Cross-process: a holder subprocess serves an inline follower."""

    @pytest.mark.timeout(90)
    def test_follower_served_by_peer_byte_identical(self, client, buffer_server):
        payload = _payload(1024 * 1024)
        w = client.open_writer("e2e", n_readers=2, cache=True)
        w.write(payload)
        w.close()
        leader = _spawn("hold", buffer_server.address, "e2e", "leader", 64 * 1024)
        try:
            res = _result(leader)
            assert (res["bytes"], res["sha"]) == (len(payload), _sha(payload))
            hits0 = obs.value("peer_cache_hits_total", {"stream": "e2e"}) or 0
            bytes0 = obs.value("peer_fetch_bytes_total", {"stream": "e2e"}) or 0
            follower = client.open_reader(
                "e2e",
                reader_id="follower",
                peer_cache=True,
                read_ahead_bytes=64 * 1024,
                read_ahead_depth=2,
            )
            try:
                assert _read_all(follower) == payload
                assert follower.peer_hits > 0
            finally:
                follower.close()
            assert obs.value("peer_cache_hits_total", {"stream": "e2e"}) > hits0
            assert obs.value("peer_fetch_bytes_total", {"stream": "e2e"}) > bytes0
        finally:
            if leader.poll() is None:
                leader.stdin.write("\n")
                leader.stdin.flush()
            leader.wait(timeout=30)

    @pytest.mark.timeout(90)
    def test_holder_death_mid_read_demotes_and_falls_back(
        self, client, buffer_server
    ):
        """Kill the holder mid-broadcast; bytes still arrive, identical."""
        payload = _payload(2 * 1024 * 1024, seed=13)
        w = client.open_writer("death", n_readers=2, cache=True)
        w.write(payload)
        w.close()
        leader = _spawn("hold", buffer_server.address, "death", "leader", 64 * 1024)
        try:
            res = _result(leader)
            assert res["sha"] == _sha(payload)
            demoted0 = _demotions_total()
            follower = client.open_reader(
                "death",
                reader_id="follower",
                peer_cache=True,
                read_ahead_bytes=64 * 1024,
                read_ahead_depth=2,
            )
            try:
                head = follower.read(64 * 1024)
                assert head == payload[: len(head)]
                assert follower.peer_hits > 0  # the holder was really serving
                leader.kill()
                leader.wait(timeout=30)
                rest = _read_all(follower)
                assert head + rest == payload
            finally:
                follower.close()
            # Read-ahead can only have prefetched a small window before
            # the kill, so the tail *must* have demoted the dead peer
            # and re-requested from the origin.
            assert _demotions_total() > demoted0
        finally:
            if leader.poll() is None:
                leader.kill()
                leader.wait(timeout=30)


@pytest.mark.faults
class TestPeerFaultInjection:
    """Chaos rules targeting ``gb.peer_read``: peers never gate bytes."""

    @pytest.mark.timeout(90)
    @pytest.mark.parametrize("action", ["error", "close"])
    def test_injected_peer_failure_falls_back_byte_identical(
        self, client, buffer_server, action
    ):
        """Inline holder, subprocess follower, faulted peer endpoint.

        The fault rule arms in *this* process, where the holder's
        ``gb.peer_read`` endpoint lives; the follower subprocess sees
        every peer fetch fail, demotes the holder, and must still
        deliver the stream byte-identically from the origin.
        """
        name = f"chaos-{action}"
        payload = _payload(512 * 1024, seed=7)
        w = client.open_writer(name, n_readers=2, cache=True)
        w.write(payload)
        w.close()
        holder = client.open_reader(
            name,
            reader_id="holder",
            peer_cache=True,
            read_ahead_bytes=64 * 1024,
            read_ahead_depth=2,
        )
        try:
            assert _read_all(holder) == payload  # populate + advertise
            # times=0 fires forever: with read-ahead depth 2 a second
            # in-flight fetch could otherwise slip through before the
            # first failure demotes the holder.
            rule = FaultRule(
                layer="rpc.server", op=OP_PEER_READ, action=action, times=0
            )
            with faults.injected(rule, seed=20260808):
                follower = _spawn(
                    "read", buffer_server.address, name, "follower", 64 * 1024
                )
                res = _result(follower)
                follower.wait(timeout=30)
            assert res["sha"] == _sha(payload)
            assert res["bytes"] == len(payload)
            assert res["peer_hits"] == 0  # every peer fetch was faulted
            assert res["demotions"] >= 1  # ...and the holder was demoted
        finally:
            holder.close()

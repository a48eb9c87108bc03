"""Control-plane chaos suite: versioned GNS, watch, and live remap.

The data plane earned its ``-m "faults or peer or corrupt"`` suites;
this file does the same for the control plane.  It proves that

* the versioned store gives watchers an exactly-once view of the
  change log across compaction and **server death mid-watch** (clients
  resume from their last revision — nothing missed, nothing doubled);
* ``gns.txn`` is atomic and exactly-once under injected connection
  faults (the remove+add replace window is gone);
* per-namespace bearer tokens isolate tenants, while a client that
  names no namespace lands in the default one;
* a server lacking a control-plane op answers ``unknown-op`` and the
  client lets it propagate — there is no degraded mode;
* a running six-IO-mode workflow whose records are edited mid-run
  live-migrates every affected stream COPY↔BUFFER with byte-identical
  output, under GNS-server death and wire corruption.

Select with ``-m gns`` (wired into the CI chaos job).
"""

import random
import threading
import time

import pytest

from repro import faults, obs
from repro.core.multiplexer import FileMultiplexer, GridContext
from repro.core.replica import ReplicaSelector
from repro.faults import FaultRule
from repro.gns import (
    BufferEndpoint,
    GnsAuthError,
    GnsClient,
    GnsRecord,
    GnsServer,
    IOMode,
    LocalGnsClient,
    NameService,
    RecordStore,
)
from repro.grid.replica_catalog import Replica, ReplicaCatalog
from repro.gridbuffer.server import GridBufferServer
from repro.transport.gridftp import GridFtpServer
from repro.transport.inmem import HostRegistry
from repro.transport.tcp import IDEMPOTENT_OPS, RpcClient, RpcError

from ._seed import SEED

pytestmark = pytest.mark.gns


@pytest.fixture(autouse=True)
def _disarmed():
    """Every test starts and ends with no injector armed."""
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


def _rec(machine="m1", path="/a", tag=0):
    """A small distinguishable record; ``tag`` varies local_path."""
    return GnsRecord(
        machine=machine, path=path, mode=IOMode.LOCAL, local_path=f"/real/{tag}"
    )


# ---------------------------------------------------------------------------
# The versioned store
# ---------------------------------------------------------------------------
class TestVersionedStore:
    def test_revisions_are_monotonic_and_per_namespace(self):
        store = RecordStore()
        assert store.revision() == 0
        assert store.txn([("add", _rec(tag=1))]) == 1
        assert store.txn([("add", _rec(path="/b", tag=2))]) == 2
        assert store.txn([("add", _rec(tag=3))], ns="other") == 1
        assert store.revision() == 2
        assert store.revision("other") == 1

    def test_txn_is_atomic_replace(self):
        store = RecordStore()
        store.txn([("add", _rec(tag=1))])
        rev = store.txn([("remove", "m1", "/a"), ("add", _rec(tag=2))])
        assert rev == 3  # two operations, two revisions, one commit
        assert [r.local_path for r in store.records()] == ["/real/2"]

    def test_malformed_txn_rejected_whole(self):
        store = RecordStore()
        with pytest.raises(ValueError):
            store.txn([("add", _rec(tag=1)), ("bogus",)])
        assert store.records() == []
        assert store.revision() == 0

    def test_changes_since_replays_the_log(self):
        store = RecordStore()
        store.txn([("add", _rec(tag=1))])
        store.txn([("remove", "m1", "/a"), ("add", _rec(tag=2))])
        events, revision, reset = store.changes_since("default", 0)
        assert not reset
        assert revision == 3
        assert [e["revision"] for e in events] == [1, 2, 3]
        assert [e["action"] for e in events] == ["add", "remove", "add"]

    def test_compaction_resets_stale_watchers_only(self):
        store = RecordStore()
        store.txn([("add", _rec(tag=1))])
        store.txn([("add", _rec(path="/b", tag=2))])
        floor = store.compact()
        assert floor == 2
        # A stale watcher gets the full current set as a reset.
        events, revision, reset = store.changes_since("default", 0)
        assert reset and revision == 2
        assert [e["action"] for e in events] == ["add", "add"]
        # A current watcher replays nothing.
        events, revision, reset = store.changes_since("default", 2)
        assert not reset and events == []
        # Changes after the floor replay incrementally again.
        store.txn([("remove", "m1", "/a")])
        events, revision, reset = store.changes_since("default", 2)
        assert not reset and [e["action"] for e in events] == ["remove"]

    def test_txn_dedupe_token_returns_original_revision(self):
        store = RecordStore()
        rev1 = store.txn([("add", _rec(tag=1))], token="txn-1")
        rev2 = store.txn([("add", _rec(tag=1))], token="txn-1")  # replay
        assert rev1 == rev2 == 1
        assert len(store.records()) == 1

    def test_file_backed_store_survives_reopen(self, tmp_path):
        db = str(tmp_path / "gns.db")
        store = RecordStore(db)
        store.txn([("add", _rec(tag=1)), ("add", _rec(path="/b", tag=2))])
        store.compact()
        store.txn([("remove", "m1", "/a"), ("add", _rec(tag=3))], ns="default")
        store.set_token("tenant", "s3cret")
        before = [r.local_path for r in store.records()]
        revision = store.revision()
        store.close()

        reopened = RecordStore(db)
        assert [r.local_path for r in reopened.records()] == before
        assert reopened.revision() == revision
        with pytest.raises(GnsAuthError):
            reopened.check_token("tenant", "wrong")
        reopened.check_token("tenant", "s3cret")
        reopened.close()

    def test_empty_txn_is_a_noop(self):
        store = RecordStore()
        store.txn([("add", _rec(tag=1))])
        assert store.txn([]) == 1
        assert store.revision() == 1


# ---------------------------------------------------------------------------
# The remove/resolve race (regression)
# ---------------------------------------------------------------------------
class TestResolveRaceRegression:
    @pytest.mark.timeout(60)
    def test_atomic_replace_never_exposes_the_gap(self):
        """A txn that replaces a record must never resolve to neither.

        The legacy path (separate remove() then add()) had a window in
        which a concurrent resolve saw an empty candidate list and
        synthesized a LOCAL record.  With the replace expressed as one
        transaction, a resolver hammering the same (machine, path) must
        observe one of the two records at every instant.
        """
        svc = NameService()
        svc.add(_rec(tag=0))
        stop = threading.Event()
        errors = []

        def flipper():
            tag = 1
            while not stop.is_set():
                svc.txn([("remove", "m1", "/a"), ("add", _rec(tag=tag))])
                tag += 1

        def resolver():
            while not stop.is_set():
                record = svc.resolve("m1", "/a")
                if record.local_path is None:
                    errors.append("resolver saw the synthesized LOCAL gap record")
                    return

        threads = [threading.Thread(target=flipper, daemon=True)] + [
            threading.Thread(target=resolver, daemon=True) for _ in range(4)
        ]
        for t in threads:
            t.start()
        time.sleep(1.0)
        stop.set()
        for t in threads:
            t.join(timeout=5)
        assert errors == []


# ---------------------------------------------------------------------------
# Watch over TCP
# ---------------------------------------------------------------------------
@pytest.fixture()
def gns_server():
    service = NameService()
    with GnsServer(service) as server:
        yield server


class TestWatchOverTcp:
    def test_revision_probe(self, gns_server):
        with GnsClient(*gns_server.address) as client:
            assert client.revision() == 0
            client.txn([("add", _rec(tag=1))])
            assert client.revision() == 1

    @pytest.mark.timeout(30)
    def test_longpoll_wakes_on_commit(self, gns_server):
        with GnsClient(*gns_server.address) as client, GnsClient(
            *gns_server.address
        ) as writer:
            got = {}

            def watch():
                got["batch"] = client.watch(from_revision=0, timeout=10.0)

            t = threading.Thread(target=watch, daemon=True)
            t.start()
            time.sleep(0.2)
            t0 = time.monotonic()
            writer.txn([("add", _rec(tag=1))])
            t.join(timeout=5)
            assert not t.is_alive()
            # Push, not poll: the parked watch wakes well inside the
            # 10 s budget.
            assert time.monotonic() - t0 < 2.0
            batch = got["batch"]
            assert [e["revision"] for e in batch.events] == [1]
            assert batch.revision == 1 and not batch.reset

    def test_empty_budget_expiry_returns_current_revision(self, gns_server):
        with GnsClient(*gns_server.address) as client:
            batch = client.watch(from_revision=0, timeout=0.05)
            assert batch.events == [] and batch.revision == 0

    def test_stale_watcher_gets_reset_after_compaction(self, gns_server):
        with GnsClient(*gns_server.address) as client:
            client.txn([("add", _rec(tag=1)), ("add", _rec(path="/b", tag=2))])
            gns_server.service.compact()
            batch = client.watch(from_revision=0, timeout=1.0)
            assert batch.reset
            assert [e["action"] for e in batch.events] == ["add", "add"]
            assert batch.revision == 2

    def test_watch_is_in_the_idempotency_table(self):
        assert "gns.watch" in IDEMPOTENT_OPS
        assert "gns.txn" not in IDEMPOTENT_OPS  # retryable only via dedupe token


# ---------------------------------------------------------------------------
# Chaos over the watch/txn path
# ---------------------------------------------------------------------------
class _EventCollector:
    """Client-side watcher loop: applies batches, records revisions."""

    def __init__(self, client, stop_at):
        self.client = client
        self.stop_at = stop_at  # final revision to stop after
        self.revisions = []
        self.errors = []
        self.revision = 0

    def run(self):
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            try:
                batch = self.client.watch(from_revision=self.revision, timeout=1.0)
            except (OSError, RpcError):
                # Server dead / injected fault: resume from the same
                # revision after a beat.  The store replays anything
                # missed, so the revision stream must stay gapless.
                time.sleep(0.05)
                continue
            if batch.reset:
                self.errors.append("unexpected reset (no compaction ran)")
                return
            for event in batch.events:
                self.revisions.append(event["revision"])
            self.revision = batch.revision
            if self.revision >= self.stop_at:
                return
        self.errors.append(f"timed out at revision {self.revision}/{self.stop_at}")


class TestWatchChaos:
    @pytest.mark.timeout(90)
    def test_server_death_mid_watch_resumes_without_gaps_or_dups(self):
        """Kill the GNS mid-watch; the client's event stream stays exact."""
        service = NameService()
        server = GnsServer(service).start()
        try:
            client = GnsClient(*server.address)
            writer = GnsClient(*server.address)
            total = 30
            collector = _EventCollector(client, stop_at=total)
            t = threading.Thread(target=collector.run, daemon=True)
            t.start()
            for i in range(total):
                writer.txn([("add", _rec(path=f"/p{i}", tag=i))], token=f"t{i}")
                if i in (10, 20):
                    server.restart()  # crash + rebind with parked watchers
                time.sleep(0.01)
            t.join(timeout=30)
            assert not t.is_alive()
            assert collector.errors == []
            # Exactly-once: every revision seen once, in order.
            assert collector.revisions == list(range(1, total + 1))
            client.close()
            writer.close()
        finally:
            server.stop()

    @pytest.mark.timeout(90)
    def test_watch_survives_injected_error_close_delay_corrupt(self):
        service = NameService()
        server = GnsServer(service).start()
        try:
            client = GnsClient(*server.address)
            writer = GnsClient(*server.address)
            total = 12
            rules = [
                FaultRule(layer="rpc.server", op="gns.watch", action="error", nth=2, times=1),
                FaultRule(layer="rpc.client", op="gns.watch", action="close", nth=5, times=1),
                FaultRule(layer="rpc.server", op="gns.watch", action="delay", nth=7, delay=0.05),
                FaultRule(layer="rpc.server", op="gns.watch", action="corrupt", nth=9, times=1),
            ]
            with faults.injected(*rules, seed=SEED) as injector:
                collector = _EventCollector(client, stop_at=total)
                t = threading.Thread(target=collector.run, daemon=True)
                t.start()
                for i in range(total):
                    writer.txn([("add", _rec(path=f"/w{i}", tag=i))], token=f"w{i}")
                    time.sleep(0.05)
                t.join(timeout=30)
                assert not t.is_alive()
                assert collector.errors == []
                assert collector.revisions == list(range(1, total + 1))
                fired_actions = {action for _, op, _, action in injector.fired if op == "gns.watch"}
                assert {"error", "delay"} <= fired_actions
            client.close()
            writer.close()
        finally:
            server.stop()

    @pytest.mark.timeout(60)
    def test_txn_through_injected_close_lands_exactly_once(self):
        service = NameService()
        server = GnsServer(service).start()
        try:
            client = GnsClient(*server.address)
            with faults.injected(
                FaultRule(layer="rpc.client", op="gns.txn", action="close", nth=1, times=1),
                seed=SEED,
            ):
                revision = client.txn([("add", _rec(tag=1))])
            assert revision == 1
            # The retry replayed the same dedupe token: one record, one
            # revision — not two.
            assert service.revision() == 1
            assert len(service.records()) == 1
            client.close()
        finally:
            server.stop()


# ---------------------------------------------------------------------------
# Tenancy
# ---------------------------------------------------------------------------
class TestTenancy:
    def test_wrong_token_is_rejected_on_mutate_and_watch(self, gns_server):
        gns_server.service.set_token("tenant-a", "secret-a")
        bad = GnsClient(*gns_server.address, namespace="tenant-a", token="wrong")
        for call in (
            lambda: bad.txn([("add", _rec(tag=1))]),
            lambda: bad.watch(from_revision=0, timeout=0.1),
            lambda: bad.add(_rec(tag=1)),
            lambda: bad.remove("m1", "/a"),
            lambda: bad.list_records(),
        ):
            with pytest.raises(RpcError) as excinfo:
                call()
            assert excinfo.value.kind == "auth"
        bad.close()

    def test_tenants_never_see_each_other(self, gns_server):
        gns_server.service.set_token("tenant-a", "secret-a")
        gns_server.service.set_token("tenant-b", "secret-b")
        a = GnsClient(*gns_server.address, namespace="tenant-a", token="secret-a")
        b = GnsClient(*gns_server.address, namespace="tenant-b", token="secret-b")
        a.txn([("add", _rec(path="/a-only", tag=1))])
        b.txn([("add", _rec(path="/b-only", tag=2))])
        assert [r.path for r in a.list_records()] == ["/a-only"]
        assert [r.path for r in b.list_records()] == ["/b-only"]
        # Watch events are namespace-scoped: b commits must not wake a
        # with events.
        batch = a.watch(from_revision=1, timeout=0.2)
        assert batch.events == []
        b.txn([("add", _rec(path="/b-2", tag=3))])
        batch = a.watch(from_revision=1, timeout=0.2)
        assert batch.events == []
        # And a's resolve never leaks b's records.
        assert a.resolve("m1", "/b-only").mode is IOMode.LOCAL  # synthesized
        a.close()
        b.close()

    def test_local_client_honors_tokens_too(self):
        service = NameService()
        service.set_token("tenant", "s3cret")
        good = LocalGnsClient(service, namespace="tenant", token="s3cret")
        good.add(_rec(tag=1))
        with pytest.raises(GnsAuthError):
            LocalGnsClient(service, namespace="tenant", token="nope").list_records()
        assert len(good.list_records()) == 1


# ---------------------------------------------------------------------------
# One wire version: no control-plane degradation
# ---------------------------------------------------------------------------
class TestOneVersion:
    @pytest.mark.parametrize("op", ["gns.watch", "gns.txn"])
    def test_missing_control_plane_op_propagates_unknown_op(self, gns_server, op):
        del gns_server._rpc._handlers[op]
        client = GnsClient(*gns_server.address)
        try:
            with pytest.raises(RpcError) as exc_info:
                if op == "gns.watch":
                    client.watch(from_revision=0, timeout=0.1)
                else:
                    client.txn([("add", _rec(tag=2))])
            assert exc_info.value.kind == "unknown-op"
        finally:
            client.close()

    def test_frame_without_namespace_lands_in_default_namespace(self, gns_server):
        # A bare RpcClient never sends ns/auth, like a default GnsClient.
        bare = RpcClient(*gns_server.address)
        bare.call("gns.add", {"record": _rec(tag=7).to_dict()})
        reply, _ = bare.call("gns.resolve", {"machine": "m1", "path": "/a"})
        assert reply["record"]["local_path"] == "/real/7"
        assert [r.local_path for r in gns_server.service.records()] == ["/real/7"]
        bare.close()


# ---------------------------------------------------------------------------
# The six-mode live-migration run
# ---------------------------------------------------------------------------
@pytest.fixture()
def migration_world(tmp_path):
    """Six-IO-mode world whose GNS is a real TCP server (killable)."""
    hosts = HostRegistry(tmp_path / "hosts")
    for name in ("compute", "store"):
        hosts.add_host(name)
    rng = random.Random(SEED)
    payloads = {
        "local": bytes(rng.randbytes(32 * 1024)),
        "copy": bytes(rng.randbytes(96 * 1024)),
        "remote": bytes(rng.randbytes(64 * 1024)),
        "replica": bytes(rng.randbytes(64 * 1024)),
        "buffer": bytes(rng.randbytes(96 * 1024)),
    }
    # Every migratable path has byte-identical content in all of its
    # bindings: a file on the store host AND a cached GB stream.
    for name in ("copy", "remote", "buffer"):
        p = hosts.host("store").resolve(f"/src/{name}.bin")
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_bytes(payloads[name])
    local = hosts.host("compute").resolve("/job/local.dat")
    local.parent.mkdir(parents=True, exist_ok=True)
    local.write_bytes(payloads["local"])
    for host in ("compute", "store"):
        p = hosts.host(host).resolve("/replicas/big.dat")
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_bytes(payloads["replica"])

    ftp = {n: GridFtpServer(hosts.host(n).root).start() for n in ("compute", "store")}
    buffer_server = GridBufferServer(cache_dir=tmp_path / "cache").start()

    # Seed the streams the migrations land on (writers close first:
    # cached streams replay from offset 0 for late readers).
    from repro.core.buffer_client import GridBufferClientPool

    pool = GridBufferClientPool("store")
    for name in ("copy", "buffer"):
        endpoint = BufferEndpoint(stream=f"mig:{name}", n_readers=4, cache=True)
        w = pool.open_writer(endpoint, buffer_server.address)
        w.write(payloads[name])
        w.close()
    pool.close()

    catalog = ReplicaCatalog()
    for host in ("compute", "store"):
        catalog.register(
            "lfn://big", Replica(host, "/replicas/big.dat", size=len(payloads["replica"]))
        )
    selector = ReplicaSelector(catalog, static_cost=lambda s, d: 1.0)

    service = NameService(locate_buffer_server=lambda m: buffer_server.address)
    gns_server = GnsServer(service).start()

    def buffer_record(path, stream):
        return GnsRecord(
            machine="compute", path=path, mode=IOMode.BUFFER,
            buffer=BufferEndpoint(
                stream=stream, host=buffer_server.address[0],
                port=buffer_server.address[1], n_readers=4, cache=True,
            ),
        )

    service.txn(
        [
            ("add", GnsRecord(
                machine="compute", path="/job/copied.dat", mode=IOMode.COPY,
                remote_host="store", remote_path="/src/copy.bin",
            )),
            ("add", GnsRecord(
                machine="compute", path="/job/remote.dat", mode=IOMode.REMOTE,
                remote_host="store", remote_path="/src/remote.bin",
            )),
            ("add", GnsRecord(
                machine="compute", path="/job/replica-remote.dat",
                mode=IOMode.REMOTE_REPLICA, logical_name="lfn://big",
            )),
            ("add", GnsRecord(
                machine="compute", path="/job/replica-local.dat",
                mode=IOMode.LOCAL_REPLICA, logical_name="lfn://big",
                local_path="/cache/big.dat",
            )),
            ("add", buffer_record("/job/stream.dat", "mig:buffer")),
        ]
    )

    client = GnsClient(*gns_server.address)
    ctx = GridContext(
        machine="compute",
        gns=client,
        hosts=hosts,
        gridftp={n: s.address for n, s in ftp.items()},
        buffer_locator=lambda m: buffer_server.address,
        selector=selector,
        scratch_dir=tmp_path / "scratch",
        io_timeout=30.0,
        prefetch=False,
        live_remap=True,
        watch_budget=0.5,
    )
    fm = FileMultiplexer(ctx)
    world = {
        "fm": fm,
        "service": service,
        "gns_server": gns_server,
        "client": client,
        "payloads": payloads,
        "buffer_record": buffer_record,
        "buffer_server": buffer_server,
    }
    yield world
    fm.close()
    client.close()
    gns_server.stop()
    for s in ftp.values():
        s.stop()
    buffer_server.stop()


class TestSixModeLiveMigration:
    @pytest.mark.timeout(120)
    def test_live_migration_copy_buffer_both_ways_under_chaos(self, migration_world):
        """Edit GNS records mid-run: every affected stream migrates
        COPY↔BUFFER at a block boundary with byte-identical output —
        under GNS-server death and injected wire corruption."""
        fm = migration_world["fm"]
        service = migration_world["service"]
        payloads = migration_world["payloads"]
        live_before = _counter("fm_live_remaps_total")

        rules = [
            # Chaos on the control plane...
            FaultRule(layer="rpc.server", op="gns.watch", action="error", nth=3, times=1),
            FaultRule(layer="rpc.server", op="gns.watch", action="delay", nth=5, delay=0.05),
            # ...and bit flips on the data plane while streams migrate.
            FaultRule(layer="rpc.client", op="gb.read*", action="corrupt", nth=2, times=1),
            FaultRule(layer="rpc.client", op="get_block", action="corrupt", nth=3, times=1),
        ]
        with faults.injected(*rules, seed=SEED) as injector:
            handles = {
                "local": fm.open("/job/local.dat", "rb"),
                "copy": fm.open("/job/copied.dat", "rb"),
                "remote": fm.open("/job/remote.dat", "rb"),
                "replica-remote": fm.open("/job/replica-remote.dat", "rb"),
                "replica-local": fm.open("/job/replica-local.dat", "rb"),
                "buffer": fm.open("/job/stream.dat", "rb"),
            }
            modes_used = {h.io_mode for h in handles.values()}
            assert modes_used == set(IOMode), "all six IO modes must be open"

            got = {name: bytearray() for name in handles}
            expected = {
                "local": payloads["local"],
                "copy": payloads["copy"],
                "remote": payloads["remote"],
                "replica-remote": payloads["replica"],
                "replica-local": payloads["replica"],
                "buffer": payloads["buffer"],
            }
            # Read the first half of every stream.
            for name, handle in handles.items():
                half = len(expected[name]) // 2
                while len(got[name]) < half:
                    chunk = handle.read(8 * 1024)
                    if not chunk:
                        break
                    got[name] += chunk

            # Re-wire mid-run, one atomic txn: COPY→BUFFER and
            # BUFFER→COPY for every affected stream.
            service.txn(
                [
                    ("remove", "compute", "/job/copied.dat"),
                    ("add", migration_world["buffer_record"]("/job/copied.dat", "mig:copy")),
                    ("remove", "compute", "/job/stream.dat"),
                    ("add", GnsRecord(
                        machine="compute", path="/job/stream.dat", mode=IOMode.COPY,
                        remote_host="store", remote_path="/src/buffer.bin",
                    )),
                ]
            )
            # ... and kill the GNS while the watcher is parked on it.
            migration_world["gns_server"].restart()

            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline:
                pending = [
                    h for h in (handles["copy"], handles["buffer"])
                    if h._pending_record is None and h.stats.remaps == 0
                ]
                if not pending:
                    break
                time.sleep(0.1)

            # Drain everything; the migrations apply at read boundaries.
            for name, handle in handles.items():
                while True:
                    chunk = handle.read(8 * 1024)
                    if not chunk:
                        break
                    got[name] += chunk
                handle.close()

            for name in handles:
                assert bytes(got[name]) == expected[name], f"{name} bytes differ"

            # Both directions actually migrated.
            assert handles["copy"].record.mode is IOMode.BUFFER
            assert handles["buffer"].record.mode is IOMode.COPY
            fired_ops = {op for _, op, _, _ in injector.fired}
            assert "gns.watch" in fired_ops

        assert _counter("fm_live_remaps_total") >= live_before + 2
        assert (obs.value("fm_live_remaps_total", {"from": "copy", "to": "buffer"}) or 0) >= 1
        assert (obs.value("fm_live_remaps_total", {"from": "buffer", "to": "copy"}) or 0) >= 1

    @pytest.mark.timeout(60)
    def test_remap_span_lands_in_critical_path_category(self, migration_world):
        from repro.obs.report import _CATEGORY_PRIORITY, _categorise

        assert "remap" in _CATEGORY_PRIORITY
        assert _categorise({"name": "remap", "attrs": {}}) == "remap"
        # A real migration emits the span: flip one record and read.
        fm = migration_world["fm"]
        service = migration_world["service"]
        spans = []
        handle = fm.open("/job/copied.dat", "rb")
        handle.read(4096)
        service.txn(
            [
                ("remove", "compute", "/job/copied.dat"),
                ("add", migration_world["buffer_record"]("/job/copied.dat", "mig:copy")),
            ]
        )
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and handle.stats.remaps == 0:
            handle.read(4096)
            time.sleep(0.05)
        assert handle.stats.remaps >= 1
        handle.close()

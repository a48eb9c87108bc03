"""The FM's one way to (re)bind a file, under dead hosts.

A GNS record becomes a source in one table and an open handle changes
source through one swap, so OPEN, fallback, replica failover, the
periodic replica re-map and live migration survive the same failures:
a replacement that cannot be opened is excluded and the handle keeps
reading from a source that works.
"""

import random

import pytest

from repro import obs
from repro.core.multiplexer import FileMultiplexer, FMError, GridContext
from repro.core.replica import ReplicaSelector
from repro.gns.client import LocalGnsClient
from repro.gns.records import GnsRecord, IOMode
from repro.gns.server import NameService
from repro.grid.nws import Measurement, NetworkWeatherService
from repro.grid.replica_catalog import Replica, ReplicaCatalog
from repro.transport.gridftp import DEFAULT_BLOCK, GridFtpServer
from repro.transport.inmem import HostRegistry

from ._seed import SEED

pytestmark = pytest.mark.faults

CHUNK = 64 * 1024


class Grid:
    """``alpha`` consumes; every other host exports its root over GridFTP
    and holds a byte-identical replica of ``lfn://data``."""

    def __init__(self, tmp_path, stores, selector_for, **ctx):
        self.payload = bytes(random.Random(SEED).randbytes(10 * CHUNK))
        self.hosts = HostRegistry(tmp_path / "hosts")
        self.hosts.add_host("alpha")
        catalog = ReplicaCatalog()
        for name in stores:
            self.hosts.add_host(name)
            p = self.hosts.host(name).resolve("/replicas/data.bin")
            p.parent.mkdir(parents=True, exist_ok=True)
            p.write_bytes(self.payload)
            catalog.register(
                "lfn://data", Replica(name, "/replicas/data.bin", size=len(self.payload))
            )
        self.servers = {
            name: GridFtpServer(self.hosts.host(name).root).start() for name in stores
        }
        self.ns = NameService()
        self.ns.add(
            GnsRecord(
                machine="alpha", path="/job/in.dat",
                mode=IOMode.REMOTE_REPLICA, logical_name="lfn://data",
            )
        )
        self.fm = FileMultiplexer(
            GridContext(
                machine="alpha",
                gns=LocalGnsClient(self.ns),
                hosts=self.hosts,
                gridftp={name: s.address for name, s in self.servers.items()},
                selector=selector_for(catalog),
                scratch_dir=tmp_path / "scratch",
                prefetch=False,
                **ctx,
            )
        )

    def kill(self, name):
        self.servers[name].stop()
        self.servers[name].disconnect_all()

    def close(self):
        self.fm.close()
        for server in self.servers.values():
            server.stop()


@pytest.fixture()
def grid(tmp_path):
    made = []

    def build(stores, selector_for, **ctx):
        made.append(Grid(tmp_path, stores, selector_for, **ctx))
        return made[-1]

    yield build
    for g in made:
        g.close()


def _served(host):
    """Replica bytes ``host`` has served to this process so far."""
    return obs.value("gridftp_rpc_bytes_total", {"peer": host, "op": "get_block"}) or 0


def _read_all(f, first=b""):
    data = first
    while True:
        chunk = f.read(CHUNK)
        if not chunk:
            return data
        data += chunk


class TestReplicaRemap:
    @pytest.mark.timeout(60)
    def test_remap_to_an_unreachable_replica_stays_on_the_current_one(self, grid):
        """The NWS comes to favour gamma, whose server is down: the re-map
        cannot open it, so the read carries on from beta."""
        nws = NetworkWeatherService()
        for t in range(4):
            nws.record("beta", "alpha", Measurement(time=t, bandwidth=8e6, latency=0.01))
            nws.record("gamma", "alpha", Measurement(time=t, bandwidth=1e6, latency=0.2))
        g = grid(("beta", "gamma"), lambda catalog: ReplicaSelector(catalog, nws), remap_every=2)
        before = {host: _served(host) for host in ("beta", "gamma")}
        f = g.fm.open("/job/in.dat", "r")
        first = f.read(CHUNK)
        assert _served("beta") > before["beta"]
        g.kill("gamma")
        for t in range(10, 26):
            nws.record("beta", "alpha", Measurement(time=t, bandwidth=1e4, latency=0.9))
            nws.record("gamma", "alpha", Measurement(time=t, bandwidth=9e6, latency=0.005))
        assert g.fm.ctx.selector.best("lfn://data", "alpha").replica.host == "gamma"
        got = _read_all(f, first)
        f.close()
        assert got == g.payload
        assert _served("beta") - before["beta"] == len(g.payload)  # every byte from beta
        assert _served("gamma") == before["gamma"]
        assert f.stats.remaps == 0


    @pytest.mark.timeout(60)
    def test_a_remap_resumes_on_the_new_replica_at_the_checkpoint_block(self, grid):
        """The NWS comes to favour gamma mid-read: the handle re-maps once,
        and gamma serves from the block holding the checkpoint on, not
        block 0 as well."""
        nws = NetworkWeatherService()
        for t in range(4):
            nws.record("beta", "alpha", Measurement(time=t, bandwidth=8e6, latency=0.01))
            nws.record("gamma", "alpha", Measurement(time=t, bandwidth=1e6, latency=0.2))
        g = grid(("beta", "gamma"), lambda catalog: ReplicaSelector(catalog, nws), remap_every=2)
        before = _served("gamma")
        f = g.fm.open("/job/in.dat", "r")
        got = b"".join(f.read(CHUNK) for _ in range(5))
        for t in range(10, 26):
            nws.record("beta", "alpha", Measurement(time=t, bandwidth=1e4, latency=0.9))
            nws.record("gamma", "alpha", Measurement(time=t, bandwidth=9e6, latency=0.005))
        checkpoint = None
        while True:
            pos = f.tell()
            chunk = f.read(CHUNK)
            if checkpoint is None and f.stats.remaps:
                checkpoint = pos
            if not chunk:
                break
            got += chunk
        f.close()
        assert got == g.payload
        assert f.stats.remaps == 1 and checkpoint is not None and checkpoint > DEFAULT_BLOCK
        resumed_block = checkpoint // DEFAULT_BLOCK * DEFAULT_BLOCK
        assert _served("gamma") - before == len(g.payload) - resumed_block


class TestReplicaFailover:
    @pytest.mark.timeout(60)
    def test_failover_walks_past_a_dead_next_best(self, grid):
        """Beta dies mid-read, gamma (next best) is dead too: the handle
        excludes both and finishes from delta, one failover."""
        costs = {"beta": 1.0, "gamma": 2.0, "delta": 3.0}
        g = grid(
            ("beta", "gamma", "delta"),
            lambda catalog: ReplicaSelector(catalog, static_cost=lambda s, d: costs[s]),
        )
        g.kill("gamma")
        failovers_before = obs.value("replica_failovers_total", {"logical_name": "lfn://data"}) or 0
        before = {host: _served(host) for host in ("beta", "gamma", "delta")}
        f = g.fm.open("/job/in.dat", "r")
        first = f.read(CHUNK)
        assert _served("beta") > before["beta"]
        g.kill("beta")
        got = _read_all(f, first)
        f.close()
        assert got == g.payload
        assert _served("gamma") == before["gamma"]
        assert _served("delta") - before["delta"] == len(g.payload) - (
            _served("beta") - before["beta"]
        )  # delta served everything beta had not
        assert f.stats.failovers == 1
        # Both abandoned replicas are counted: beta mid-read, gamma at open.
        after = obs.value("replica_failovers_total", {"logical_name": "lfn://data"})
        assert after == failovers_before + 2

    @pytest.mark.timeout(60)
    def test_open_skips_a_dead_best_replica(self, grid):
        costs = {"beta": 1.0, "gamma": 2.0}
        g = grid(
            ("beta", "gamma"),
            lambda catalog: ReplicaSelector(catalog, static_cost=lambda s, d: costs[s]),
        )
        g.kill("beta")
        f = g.fm.open("/job/in.dat", "r")
        assert _read_all(f) == g.payload
        assert f._replicas.current.host == "gamma"
        f.close()

    @pytest.mark.timeout(60)
    def test_exhausted_failover_reraises_the_read_error(self, grid):
        g = grid(
            ("beta",),
            lambda catalog: ReplicaSelector(catalog, static_cost=lambda s, d: 1.0),
            remap_every=1,
        )
        f = g.fm.open("/job/in.dat", "r")
        f.read(CHUNK)
        g.kill("beta")
        for _ in range(2):  # a retry re-maps over an empty pool: still the read error
            with pytest.raises(OSError):
                _read_all(f)
        assert f.stats.failovers == 0
        f.close()

    @pytest.mark.timeout(60)
    def test_copy_in_walks_every_replica_and_raises_the_last_error(self, grid):
        g = grid(("beta", "gamma"), lambda catalog: ReplicaSelector(catalog, static_cost=lambda s, d: 1.0))
        g.ns.add(
            GnsRecord(
                machine="alpha", path="/job/copied.dat", mode=IOMode.LOCAL_REPLICA,
                logical_name="lfn://data", local_path="/cache/copied.dat",
            )
        )
        g.kill("beta")
        f = g.fm.open("/job/copied.dat", "r")
        assert _read_all(f) == g.payload
        assert f.stats.failovers == 1
        f.close()
        g.kill("gamma")
        with pytest.raises(OSError):
            g.fm.open("/job/copied.dat", "r")


class TestFallbackEveryMode:
    def _record(self, **primary):
        local = GnsRecord(
            machine="alpha", path="/job/in.dat", mode=IOMode.LOCAL, local_path="/local/in.dat"
        )
        return GnsRecord(machine="alpha", path="/job/in.dat", fallback=local, **primary)

    @pytest.mark.timeout(60)
    def test_remote_host_down_degrades_to_local(self, tmp_path):
        hosts = HostRegistry(tmp_path / "hosts")
        hosts.add_host("alpha")
        hosts.add_host("beta")
        local = hosts.host("alpha").resolve("/local/in.dat")
        local.parent.mkdir(parents=True)
        local.write_bytes(b"the local copy")
        dead = GridFtpServer(hosts.host("beta").root).start()
        dead.stop()
        ns = NameService()
        ns.add(self._record(mode=IOMode.REMOTE, remote_host="beta", remote_path="/in.dat"))
        labels = {"from_mode": "remote", "to_mode": "local"}
        before = obs.value("fm_mode_degraded_total", labels) or 0
        fm = FileMultiplexer(
            GridContext(
                machine="alpha", gns=LocalGnsClient(ns), hosts=hosts,
                gridftp={"beta": dead.address}, scratch_dir=tmp_path / "scratch",
            )
        )
        try:
            f = fm.open("/job/in.dat", "r")
            assert f.read() == b"the local copy"
            assert f.io_mode is IOMode.LOCAL
            assert (f.stats.io_mode, f.stats.remaps) == ("local", 1)
            f.close()
        finally:
            fm.close()
        assert obs.value("fm_mode_degraded_total", labels) == before + 1

    def test_missing_file_at_the_primary_degrades(self, hosts):
        local = hosts.host("alpha").resolve("/local/in.dat")
        local.parent.mkdir(parents=True)
        local.write_bytes(b"fallback bytes")
        ns = NameService()
        ns.add(self._record(mode=IOMode.LOCAL, local_path="/missing/in.dat"))
        fm = FileMultiplexer(GridContext(machine="alpha", gns=LocalGnsClient(ns), hosts=hosts))
        try:
            with fm.open("/job/in.dat", "r") as f:
                assert f.read() == b"fallback bytes"
        finally:
            fm.close()

    def test_configuration_errors_do_not_degrade(self, hosts):
        """A missing locator is the FM's configuration, not an unreachable
        host: it raises instead of hiding behind the fallback."""
        ns = NameService()
        ns.add(self._record(mode=IOMode.REMOTE, remote_host="beta", remote_path="/in.dat"))
        fm = FileMultiplexer(GridContext(machine="alpha", gns=LocalGnsClient(ns), hosts=hosts))
        try:
            with pytest.raises(FMError, match="GridFTP"):
                fm.open("/job/in.dat", "r")
        finally:
            fm.close()

    def test_exhausted_chain_raises_the_last_error(self, hosts):
        ns = NameService()
        ns.add(self._record(mode=IOMode.LOCAL, local_path="/missing/in.dat"))
        fm = FileMultiplexer(GridContext(machine="alpha", gns=LocalGnsClient(ns), hosts=hosts))
        try:
            with pytest.raises(FileNotFoundError, match="local/in.dat"):  # the fallback's
                fm.open("/job/in.dat", "r")
        finally:
            fm.close()

"""The RPC budget of an open, per IO mode.

Every round trip an open makes before its first byte is a fixed cost
that a slow link multiplies, and which mode wins depends on that cost
(PAPER.md §1).  This pins the count of ``rpc_client_calls_total{op}``
from ``FileMultiplexer.open`` to the first byte (readers) or to
``close`` (writers), on a plane with a TCP GNS and no injected
latency, so a saved round trip cannot silently come back and no mode's
budget can rise unnoticed.
"""

from collections import Counter

import pytest

from repro import obs
from repro.core.multiplexer import FileMultiplexer, GridContext
from repro.core.replica import ReplicaSelector
from repro.gns.client import GnsClient
from repro.gns.records import BufferEndpoint, GnsRecord, IOMode
from repro.gns.server import GnsServer, NameService
from repro.grid.nws import Measurement, NetworkWeatherService
from repro.grid.replica_catalog import Replica, ReplicaCatalog
from repro.gridbuffer.server import GridBufferServer
from repro.transport.gridftp import GridFtpServer
from repro.transport.inmem import HostRegistry

PAYLOAD = bytes(range(256)) * 16  # 4 KiB: one block, one fetch

#: (path, open mode) -> round trips by op.  Readers read the whole file
#: in one call, so the count stops at the first byte with nothing left
#: to prefetch; writers write it and close.
BUDGET = {
    ("/job/local.dat", "w"): {"gns.resolve": 1},
    ("/job/local.dat", "r"): {"gns.resolve": 1},
    ("/job/copy.dat", "w"): {"gns.resolve": 1, "put_block": 1},
    # The copy's head block is the existence check and carries the extent.
    ("/job/copy.dat", "r"): {"gns.resolve": 1, "get_block": 1},
    # The open's truncating put_block, then the data.
    ("/job/remote.dat", "w"): {"gns.resolve": 1, "put_block": 2},
    # The open's existence probe is block 0, which the read then finds.
    ("/job/remote.dat", "r"): {"gns.resolve": 1, "get_block": 1},
    ("/job/replica-remote.dat", "r"): {"gns.resolve": 1, "get_block": 1},
    ("/job/replica-local.dat", "r"): {"gns.resolve": 1, "get_block": 1},
    ("/job/stream.dat", "w"): {
        "gns.resolve": 1, "gb.create": 1, "gb.write": 1, "gb.close_writer": 1,
    },
    # One Grid Buffer round trip before the first gb.read_multi: the
    # register carries the create, and nothing polls gb.exists.
    ("/job/stream.dat", "r"): {"gns.resolve": 1, "gb.register_reader": 1, "gb.read_multi": 1},
}


@pytest.fixture()
def plane(tmp_path):
    hosts = HostRegistry(tmp_path / "hosts")
    for name in ("compute", "store1", "store2"):
        hosts.add_host(name)
    for store in ("store1", "store2"):
        for path in ("/in/source.dat", "/replicas/big.dat"):
            real = hosts.host(store).resolve(path)
            real.parent.mkdir(parents=True, exist_ok=True)
            real.write_bytes(PAYLOAD)
    ftp = {name: GridFtpServer(hosts.host(name).root).start() for name in ("store1", "store2")}
    buffer_server = GridBufferServer(cache_dir=tmp_path / "cache").start()
    ns = NameService(locate_buffer_server=lambda _m: buffer_server.address)
    gns_server = GnsServer(ns).start()
    buffer_host, buffer_port = buffer_server.address  # placed up front: no announce
    catalog = ReplicaCatalog()
    nws = NetworkWeatherService()
    for store, bandwidth in (("store1", 8e6), ("store2", 1e6)):
        catalog.register("lfn://big", Replica(store, "/replicas/big.dat", size=len(PAYLOAD)))
        for i in range(4):
            nws.record(store, "compute", Measurement(time=i, bandwidth=bandwidth, latency=0.01))
    ns.add_all(
        [
            GnsRecord(machine="compute", path="/job/local.dat", mode=IOMode.LOCAL),
            GnsRecord(
                machine="compute", path="/job/copy.dat", mode=IOMode.COPY,
                remote_host="store1", remote_path="/in/copy.dat",
            ),
            GnsRecord(
                machine="compute", path="/job/remote.dat", mode=IOMode.REMOTE,
                remote_host="store2", remote_path="/in/remote.dat",
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
                buffer=BufferEndpoint(
                    stream="budget", host=buffer_host, port=buffer_port, cache=True
                ),
            ),
        ]
    )
    gns = GnsClient(*gns_server.address)
    fm = FileMultiplexer(
        GridContext(
            machine="compute",
            gns=gns,
            hosts=hosts,
            gridftp={name: s.address for name, s in ftp.items()},
            buffer_locator=lambda _m: buffer_server.address,
            selector=ReplicaSelector(catalog, nws),
            scratch_dir=tmp_path / "scratch",
        )
    )
    yield fm
    fm.close()
    gns.close()
    for server in (buffer_server, gns_server, *ftp.values()):
        server.stop()


def _calls() -> Counter:
    family = obs.snapshot().get("rpc_client_calls_total") or {"series": []}
    return Counter({s["labels"]["op"]: s["value"] for s in family["series"]})


def _spent(fm, path, mode) -> dict:
    before = _calls()
    f = fm.open(path, mode)
    if mode == "w":
        f.write(PAYLOAD)
        f.close()
        after = _calls()
    else:
        assert f.read(len(PAYLOAD)) == PAYLOAD
        after = _calls()
        f.close()
    return {op: n - before[op] for op, n in after.items() if n > before[op]}


def test_every_open_stays_in_its_rpc_budget(plane):
    """Writers first, so every reader finds its bytes."""
    spent = {}
    for key in sorted(BUDGET, key=lambda k: k[1] != "w"):
        spent[key] = _spent(plane, *key)
    assert spent == BUDGET

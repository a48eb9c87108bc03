"""The real plane, in-process, over loopback TCP.

Built the way ``tests/test_integration_six_modes.py`` builds its world
rather than through ``GridDeployment``/``RealRunner``: the deployment
helper in ``repro.workflow.runner`` can neither inject latency into its
servers nor serve the GNS over TCP, and the workloads need both.
"""

from __future__ import annotations

import shutil
from pathlib import Path
from typing import Dict, List, Sequence

from repro.core.multiplexer import FileMultiplexer, GridContext
from repro.core.replica import ReplicaSelector
from repro.gns.client import GnsClient
from repro.gns.server import GnsServer, NameService
from repro.grid.nws import NetworkWeatherService
from repro.grid.replica_catalog import ReplicaCatalog
from repro.gridbuffer.client import GridBufferClient
from repro.gridbuffer.server import GridBufferServer
from repro.transport.gridftp import GridFtpClient, GridFtpServer
from repro.transport.inmem import HostRegistry

__all__ = ["Deployment"]


class Deployment:
    """Servers, virtual hosts, GNS and the FMs of one workload.

    ``machines`` run application code (each gets a virtual host and,
    on demand, a :class:`FileMultiplexer`); ``stores`` additionally
    export their host directory through a :class:`GridFtpServer`.
    ``buffer_latency`` / ``ftp_latency`` are one-way seconds injected
    per RPC by the servers themselves.
    """

    def __init__(
        self,
        root: Path,
        machines: Sequence[str],
        stores: Sequence[str] = (),
        buffer_latency: float = 0.0,
        ftp_latency: float = 0.0,
    ):
        self.root = Path(root)
        self.hosts = HostRegistry(self.root / "hosts")
        for name in (*machines, *stores):
            self.hosts.add_host(name)
        self.buffer_server = GridBufferServer(
            cache_dir=self.root / "buffer-cache", simulated_latency=buffer_latency
        ).start()
        self.ftp_servers: Dict[str, GridFtpServer] = {
            name: GridFtpServer(
                self.hosts.host(name).root, simulated_latency=ftp_latency
            ).start()
            for name in stores
        }
        self.ns = NameService(locate_buffer_server=lambda _m: self.buffer_server.address)
        self.gns_server = GnsServer(self.ns).start()
        self.catalog = ReplicaCatalog()
        self.nws = NetworkWeatherService()
        self.selector = ReplicaSelector(self.catalog, self.nws)
        # The harness's own clients: dropping finished streams and
        # asking a store for a file's checksum are not application IO.
        self.buffer_admin = GridBufferClient(*self.buffer_server.address)
        self.ftp_admin: Dict[str, GridFtpClient] = {
            name: GridFtpClient(*server.address) for name, server in self.ftp_servers.items()
        }
        self._fms: List[FileMultiplexer] = []
        self._gns_clients: List[GnsClient] = []

    def fm(self, machine: str, **overrides) -> FileMultiplexer:
        """A File Multiplexer for ``machine`` resolving through the TCP GNS."""
        gns = GnsClient(*self.gns_server.address)
        self._gns_clients.append(gns)
        ctx = GridContext(
            machine=machine,
            gns=gns,
            hosts=self.hosts,
            gridftp={name: s.address for name, s in self.ftp_servers.items()},
            buffer_locator=lambda _m: self.buffer_server.address,
            selector=self.selector,
            scratch_dir=self.root / "scratch" / machine,
            **overrides,
        )
        fm = FileMultiplexer(ctx)
        self._fms.append(fm)
        return fm

    def store_path(self, host: str, path: str) -> Path:
        """Where ``path`` of virtual host ``host`` lives on the real disk."""
        real = self.hosts.host(host).resolve(path)
        real.parent.mkdir(parents=True, exist_ok=True)
        return real

    def close(self) -> None:
        """Clients first (so server connections drain), then servers, then files."""
        for fm in self._fms:
            fm.close()
        for gns in self._gns_clients:
            gns.close()
        self.buffer_admin.close()
        for client in self.ftp_admin.values():
            client.close()
        for server in (self.buffer_server, self.gns_server, *self.ftp_servers.values()):
            server.stop()
        shutil.rmtree(self.root, ignore_errors=True)

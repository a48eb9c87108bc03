"""GridFTP block windows: as deep as the link needs, served on the loop.

The server runs ``get_block``, ``put_block``, ``size`` and ``exists``
inline on the engine loop, so a window of blocks costs no handler thread
and never stalls the loop.  Every window over one ``GridFtpClient``
reads one depth rule, ⌈2 × rate × min RTT / block⌉ within
[``WINDOW_BLOCKS``, ``MAX_WINDOW_BLOCKS``]: the floor on a link without
latency, deeper on a slow one, and the same for every handle on the
client.  Random reads over a REMOTE file whose blocks fit the block
cache keep that window busy with the file's uncached blocks; over a
larger file each miss is one demand ``get_block``.
"""

import hashlib
import random
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import pytest

import repro
from repro import obs
from repro.core.remote_client import RemoteFileClient
from repro.transport.gridftp import (
    MAX_WINDOW_BLOCKS,
    WINDOW_BLOCKS,
    GridFtpClient,
    GridFtpServer,
)

from ._seed import SEED

KIB = 1024
MIB = 1024 * KIB
BLOCK = 256 * KIB
LATENCY = 0.005


@pytest.fixture()
def serve(tmp_path):
    """Builds GridFTP servers over ``tmp_path/export`` and a client for
    each; closes and stops them all."""
    root = tmp_path / "export"
    root.mkdir()
    made = []

    def make(latency=0.0, block_size=BLOCK):
        server = GridFtpServer(root, simulated_latency=latency).start()
        client = GridFtpClient(*server.address, block_size=block_size)
        made.append((server, client))
        return server, client, root

    yield make
    for server, client in made:
        client.close()
        server.stop()


def _write_random(path: Path, nbytes: int, seed: int) -> str:
    """Fill ``path`` with seeded random bytes, one MiB at a time; returns their sha256."""
    digest = hashlib.sha256()
    rng = random.Random(seed)
    with open(path, "wb") as out:
        for start in range(0, nbytes, MIB):
            chunk = rng.randbytes(min(MIB, nbytes - start))
            out.write(chunk)
            digest.update(chunk)
    return digest.hexdigest()


def _read_through(f, call: int = 64 * KIB) -> str:
    digest = hashlib.sha256()
    while True:
        chunk = f.read(call)
        if not chunk:
            return digest.hexdigest()
        digest.update(chunk)


def _stalls() -> float:
    family = obs.snapshot().get("loop_stall_total") or {"series": []}
    return sum(series["value"] for series in family["series"])


def _count_get_blocks(server):
    served = []
    kind, handler = server._rpc._handlers["get_block"]

    def counting(header, payload):
        served.append(int(header["offset"]))
        return handler(header, payload)

    server._rpc._handlers["get_block"] = (kind, counting)
    return served


class TestBlockOpsOnTheLoop:
    def test_a_burst_of_block_ops_starts_no_handler_thread(self, tmp_path):
        """Pipelined gets and puts and a run of ``size``, ``exists`` and
        demand reads, in a fresh interpreter: the engine's handler pool
        never starts a thread."""
        script = textwrap.dedent(
            """
            import pathlib, sys, threading
            from repro.transport.aio import AsyncRpcClient, get_engine
            from repro.transport.gridftp import GridFtpClient, GridFtpServer

            root = pathlib.Path(sys.argv[1])
            (root / "in.bin").write_bytes(bytes(range(256)) * 256)
            with GridFtpServer(root) as server:
                client = GridFtpClient(*server.address, block_size=4096)
                client.write_block("/out.bin", 0, b"", truncate=True)
                conn = AsyncRpcClient(*server.address)
                engine = get_engine()
                gets = [
                    engine.submit(client.read_block_async(conn, "/in.bin", i * 4096, 4096))
                    for i in range(16)
                ]
                puts = [
                    engine.submit(client.write_block_async(conn, "/out.bin", i * 4096, b"x" * 4096))
                    for i in range(16)
                ]
                assert [f.result(10) for f in gets] == [bytes(range(256)) * 16] * 16
                assert [f.result(10) for f in puts] == [4096] * 16
                for i in range(16):
                    assert client.size("/in.bin") == 65536 and client.exists("/out.bin")
                    assert len(client.read_block("/in.bin", i * 4096, 4096)) == 4096
                engine.submit(conn.close()).result(10)
                client.close()
            print([t.name for t in threading.enumerate() if t.name.startswith("rpc-handler")])
            """
        )
        done = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            env={"PYTHONPATH": str(Path(repro.__file__).resolve().parents[1]), "PATH": ""},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"
        assert (tmp_path / "out.bin").read_bytes() == b"x" * 65536

    @pytest.mark.timeout(60)
    def test_a_windowed_read_from_a_slow_server_never_stalls_the_loop(self, serve):
        """64 MiB through a REMOTE proxy's read-ahead from a 5 ms server:
        every block is served on the loop, and its watchdog never fires."""
        server, client, root = serve(LATENCY)
        expected = _write_random(root / "big.bin", 64 * MIB, SEED)
        stalls = _stalls()
        f = RemoteFileClient(client).open_proxy("/big.bin", "r")
        try:
            assert _read_through(f, MIB) == expected
        finally:
            f.close()
        assert _stalls() == stalls
        assert f.prefetch_wasted == 0


class TestOneDepthRulePerLink:
    def test_the_rule_holds_the_floor_on_a_link_without_latency(self, serve):
        _server, client, root = serve()
        expected = _write_random(root / "f.bin", 8 * MIB, SEED)
        f = RemoteFileClient(client).open_proxy("/f.bin", "r")
        try:
            assert _read_through(f) == expected
        finally:
            f.close()
        assert client._link.rate > 0
        assert client.window_depth(BLOCK) == WINDOW_BLOCKS

    def test_the_rule_deepens_on_a_slow_link_and_every_handle_shares_it(self, serve):
        """After one handle's sequential read from a 5 ms server the rule
        is past the floor and within the cap, and a second handle on the
        same client opens its first window at that depth."""
        _server, client, root = serve(LATENCY)
        first = _write_random(root / "a.bin", 16 * MIB, SEED)
        _write_random(root / "b.bin", 16 * MIB, SEED + 1)
        remote = RemoteFileClient(client)
        f = remote.open_proxy("/a.bin", "r")
        try:
            assert _read_through(f) == first
        finally:
            f.close()
        depth = client.window_depth(BLOCK)
        assert WINDOW_BLOCKS < depth <= MAX_WINDOW_BLOCKS
        g = remote.open_proxy("/b.bin", "r")
        try:
            g.read(4 * KIB)  # block 0 came with the open: the window starts now
            assert len(g._prefetcher._inflight) > WINDOW_BLOCKS
        finally:
            g.close()

    def test_two_sequential_readers_on_one_client_waste_no_prefetch(self, serve):
        _server, client, root = serve(LATENCY)
        digests = {name: _write_random(root / name, 8 * MIB, SEED + i)
                   for i, name in enumerate(("a.bin", "b.bin"))}
        remote = RemoteFileClient(client)
        got, errors = {}, []

        def reader(name):
            try:
                f = remote.open_proxy(f"/{name}", "r")
                try:
                    got[name] = _read_through(f)
                finally:
                    f.close()
            except BaseException as exc:  # noqa: BLE001 - surface in main thread
                errors.append(exc)

        threads = [threading.Thread(target=reader, args=(name,)) for name in digests]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors, errors[0]
        assert got == digests
        assert remote.block_cache.prefetch_wasted == 0


class TestRandomReads:
    def _random_reads(self, f, payload, blocks, block_size, rounds):
        rng = random.Random(SEED)
        order = list(blocks) * rounds
        rng.shuffle(order)
        for block_no in order:
            offset = block_no * block_size + rng.randrange(0, block_size - 4 * KIB, 4 * KIB)
            f.seek(offset)
            assert f.read(4 * KIB) == payload[offset : offset + 4 * KIB]

    def test_a_file_that_fits_the_cache_fills_the_window(self, serve):
        """32 blocks, each read three times in shuffled order, 4 KiB at a
        time, from a 5 ms server: the window fetches most of them, so
        demand reads cover at most a quarter of the file."""
        block = 64 * KIB
        _server, client, root = serve(LATENCY, block_size=block)
        payload = random.Random(SEED).randbytes(32 * block)
        (root / "hot.bin").write_bytes(payload)
        remote = RemoteFileClient(client)
        f = remote.open_proxy("/hot.bin", "r", block_size=block)
        try:
            self._random_reads(f, payload, range(32), block, rounds=3)
            assert f.rpc_reads <= 32 // 4
            assert f.prefetch_hits > 0
        finally:
            f.close()

    def test_a_file_four_times_the_cache_fetches_each_miss_on_demand(self, serve):
        block = 16 * KIB
        server, client, root = serve(block_size=block)
        payload = random.Random(SEED).randbytes(32 * block)
        (root / "big.bin").write_bytes(payload)
        served = _count_get_blocks(server)
        remote = RemoteFileClient(client, cache_blocks=8)
        f = remote.open_proxy("/big.bin", "r", block_size=block)
        misses = random.Random(SEED).sample(range(2, 32), 12)
        try:
            self._random_reads(f, payload, misses, block, rounds=1)
        finally:
            f.close()
        assert f.rpc_reads == len(misses)
        assert len(served) == 1 + len(misses)  # the open's probe, then one per miss

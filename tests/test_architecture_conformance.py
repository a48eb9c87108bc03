"""Architecture-conformance checks for the paper's Figures 2-4.

These tests pin the *structural* claims of the paper's architecture
diagrams: which components exist, which talks to which, and which
choices are made where.  They guard against refactors quietly breaking
the reproduction's fidelity to the design.
"""

import inspect
import re

from repro.core.multiplexer import FileMultiplexer, GridContext
from repro.gns.records import IOMode


class TestFigure2FileMultiplexer:
    """Fig. 2: the FM intercepts read/write/seek/open/close and routes
    to local files, remote files, or a remote application process."""

    def test_fm_exposes_open(self):
        assert callable(getattr(FileMultiplexer, "open"))

    def test_fmfile_exposes_posix_surface(self):
        from repro.core.multiplexer import FMFile

        for op in ("read", "write", "seek", "tell", "close"):
            assert callable(getattr(FMFile, op)), f"FMFile lacks {op}"

    def test_fm_dispatches_every_mode(self):
        """Every IOMode becomes a source in one table, ``_open_source``."""
        source = inspect.getsource(FileMultiplexer._open_source)
        for mode in IOMode:
            assert f"IOMode.{mode.name}" in source, f"_open_source() does not map {mode}"

    def test_per_open_independent_choice(self, hosts, gns):
        """'Each OPEN operation makes an independent choice.'"""
        fm = FileMultiplexer(GridContext(machine="alpha", gns=gns, hosts=hosts))
        f1 = fm.open("/a.txt", "w")
        f2 = fm.open("/b.txt", "w")
        assert f1.record is not f2.record
        f1.close()
        f2.close()
        fm.close()


class TestFigure3DirectConnections:
    """Fig. 3: writer and reader both open a plain file name; a socket
    plus a reader-side cache connects them."""

    def test_cache_lives_with_buffer_service(self):
        from repro.gridbuffer.server import GridBufferServer

        sig = inspect.signature(GridBufferServer.__init__)
        assert "cache_dir" in sig.parameters

    def test_default_placement_is_reader_end(self):
        """Section 3.1: 'it is usually more efficient to place it at
        the reader end' — our default."""
        from repro.gns.records import BufferEndpoint

        assert BufferEndpoint(stream="s").placement == "reader"


class TestFigure4GriddlesArchitecture:
    """Fig. 4: the FM contains Local File Client, Remote File Client,
    Grid Buffer Client and GNS Client; GridFTP is the standard server,
    and the Grid Buffer stores blocks in a hash table."""

    def test_fm_owns_the_three_clients(self):
        # Structural: the FM module wires all three clients.
        module = inspect.getmodule(FileMultiplexer)
        text = inspect.getsource(module)
        assert "LocalFileClient" in text
        assert "RemoteFileClient" in text
        assert "GridBufferClientPool" in text

    def test_gns_consulted_on_open(self, hosts, gns):
        calls = []
        real_resolve = gns.resolve

        def spy(machine, path):
            calls.append((machine, path))
            return real_resolve(machine, path)

        gns.resolve = spy
        fm = FileMultiplexer(GridContext(machine="alpha", gns=gns, hosts=hosts))
        fm.open("/spy.txt", "w").close()
        fm.close()
        assert calls == [("alpha", "/spy.txt")]

    def test_fm_treats_gns_as_read_only(self):
        """The FM never mutates GNS records."""
        module = inspect.getmodule(FileMultiplexer)
        text = inspect.getsource(module)
        assert ".gns.add(" not in text
        assert ".gns.remove(" not in text

    def test_grid_buffer_uses_hash_table(self):
        """Section 4: 'data is stored in a hash table rather than a
        sequential buffer'."""
        from repro.gridbuffer.service import GridBufferService

        svc = GridBufferService()
        svc.create_stream("s")
        stream = svc._stream("s")
        assert isinstance(stream.blocks, dict)

    def test_gridftp_is_generic_not_buffer_specific(self):
        """'the GridFTP server is a standard part of the distribution,
        not a special component' — our transport has no dependency on
        the FM or the Grid Buffer."""
        import repro.transport.gridftp as gridftp

        text = inspect.getsource(gridftp)
        assert "gridbuffer" not in text
        assert "multiplexer" not in text


class TestSixModesEnumerated:
    """Section 2 lists exactly six IO mechanisms."""

    def test_mode_list(self):
        expected = {
            "local",
            "copy",
            "remote",
            "remote-replica",
            "local-replica",
            "buffer",
        }
        assert {m.value for m in IOMode} == expected


class TestOneWireVersion:
    """ROADMAP aim 2: one RPC engine, one capability set, fewer knobs."""

    #: Every environment variable ``src/`` reads.  Removing a knob means
    #: deleting its line here; adding one needs a reviewed edit.
    ENV_KNOBS = {
        "REPRO_FAULTS",
        "REPRO_FAULTS_SEED",
        "REPRO_LOOP_STALL_S",
        "REPRO_LOOP_WATCHDOG_S",
        "REPRO_OBS_PROC",
    }

    def test_env_knobs_match_allow_list(self):
        import re
        from pathlib import Path

        import repro

        found = set()
        for path in Path(repro.__file__).parent.rglob("*.py"):
            found |= set(re.findall(r"REPRO_[A-Z0-9_]+", path.read_text()))
        assert found == self.ENV_KNOBS

    def test_preamble_and_crc_are_checked_in_wire_only(self):
        """Both engines call ``wire.check_preamble``/``wire.verify_crc``;
        neither unpacks a preamble, compares a CRC or parses JSON itself."""
        from repro.transport import aio, tcp, wire

        for module in (tcp, aio):
            source = inspect.getsource(module)
            assert module.check_preamble is wire.check_preamble
            assert module.verify_crc is wire.verify_crc
            for private in ("PREAMBLE.unpack", "CRC_TRAILER.unpack", "import json", "WIRE_VERSION !="):
                assert private not in source, f"{module.__name__} re-implements {private}"
        assert "import json" not in inspect.getsource(wire)


class TestOneStreamPath:
    """ROADMAP aim 2: the reader and writer the FM opens are the only
    reader and writer — sizes are arguments, on/off switches are gone."""

    def test_signatures_are_sizes_only(self):
        """The full parameter lists, so a new switch needs a reviewed edit.
        No on/off flag, no poll cadence, no connection handed in; the
        pool decides nothing about *how* a stream moves (sizes come from
        the client's constants, block sharing from the GNS record)."""
        from repro.core.buffer_client import GridBufferClientPool
        from repro.gridbuffer.client import BufferReader, GridBufferClient

        sizing = {"read_ahead_bytes", "read_ahead_depth"}
        expected = {
            GridBufferClient.open_reader: {
                "name", "reader_id", "read_timeout", "n_readers", "capacity_bytes", "cache",
            }
            | sizing,
            GridBufferClient.open_writer: {
                "name", "n_readers", "capacity_bytes", "cache",
                "write_timeout", "coalesce_bytes", "flush_after",
            },
            BufferReader.__init__: {
                "client", "name", "reader_id", "read_timeout", "gen",
            }
            | sizing,
            GridBufferClientPool.open_reader: {"endpoint", "server", "reader_id", "read_timeout"},
            GridBufferClientPool.open_writer: {"endpoint", "server", "write_timeout"},
        }
        for fn, names in expected.items():
            assert set(inspect.signature(fn).parameters) - {"self"} == names, fn.__qualname__
        # The server takes no concurrency cap either: every reader pulls
        # from its buffer server, and nothing models a capped origin.
        from repro.gridbuffer.server import GridBufferServer

        server_params = set(inspect.signature(GridBufferServer.__init__).parameters)
        assert not server_params & {"max_inflight", "inflight_ops"}

    def test_grid_context_has_no_buffer_tuning_field(self):
        """The window rule measures what the old depth knob guessed."""
        import dataclasses

        tuning = [
            f.name
            for f in dataclasses.fields(GridContext)
            if f.name.startswith("buffer_") and f.name != "buffer_locator"
        ]
        assert tuning == []

    def test_gb_read_is_retired(self, buffer_server):
        """The op is gone from the server; its wire id slot is not reused."""
        from repro.gridbuffer import protocol
        from repro.transport import wire
        from repro.transport.tcp import IDEMPOTENT_OPS, RpcClient, RpcError

        assert "gb.read" not in {getattr(protocol, name) for name in protocol.__all__}
        assert "gb.read" in wire.OPS and "gb.read" not in IDEMPOTENT_OPS
        rpc = RpcClient(*buffer_server.address)
        try:
            try:
                rpc.call("gb.read", {"name": "s", "reader_id": "r", "offset": 0, "length": 1})
            except RpcError as exc:
                assert exc.kind == "unknown-op"
            else:
                raise AssertionError("gb.read was served")
        finally:
            rpc.close()

    def test_write_through_mode_is_an_error(self, buffer_server):
        import pytest

        from repro.gridbuffer.client import GridBufferClient

        client = GridBufferClient(*buffer_server.address)
        try:
            with pytest.raises(ValueError):
                client.open_writer("wt", coalesce_bytes=0)
            assert not buffer_server.service.exists("wt")  # refused before any RPC
        finally:
            client.close()

    def test_demand_read_rides_read_multi_and_learns_eof(self, buffer_server, monkeypatch):
        """A seek past the window forces a demand read: the window's head
        fetch, a ``gb.read_multi`` of exactly the caller's size on the
        window's own head connection, and the reply's ``total`` tells
        the reader where EOF is."""
        from repro import obs
        from repro.gridbuffer.client import GridBufferClient

        payload = bytes(range(256)) * 64  # 16 KiB
        client = GridBufferClient(*buffer_server.address)
        calls = []  # (rpc the call rode, offset, budget): every head fetch
        real = client.read_window_ex

        def spy(name, reader_id, offset, budget, **kwargs):
            calls.append((kwargs.get("rpc"), offset, budget))
            return real(name, reader_id, offset, budget, **kwargs)

        monkeypatch.setattr(client, "read_window_ex", spy)
        try:
            with client.open_writer("demand", cache=True) as w:
                w.write(payload)
            r = client.open_reader("demand", read_ahead_bytes=4096, read_ahead_depth=1)
            assert r.read(1024) == payload[:1024]
            tail = len(payload) - 512  # far past anything the window holds
            r.seek(tail)
            assert r.read(4096) == payload[tail:]
            assert calls and all(rpc is r._ra._head for rpc, _, _ in calls)
            heads = [(off, budget) for _, off, budget in calls if off in (0, tail)]
            assert heads == [(0, 1024), (tail, 4096)]
            served = obs.value("rpc_server_requests_total", {"op": "gb.read", "status": "ok"})
            assert not served
            # EOF came from the reply's ``total``: the next read needs no RPC.
            assert r._ra._eof_at == len(payload)
            n_calls = len(calls)
            assert r.read(4096) == b""
            assert len(calls) == n_calls
            r.close()
        finally:
            client.close()

    def test_reader_has_one_fetch_path_and_one_recovery(self):
        """Every byte a reader reads comes through one of the window's two
        fetch paths — ``_fetch`` on the engine, ``fetch_head`` inline —
        which share the request header, the claim and the landing, and
        every resume through ``BufferReader._recover``: no third
        connection, fetch routine or demand-only recovery to drift apart,
        and no thread."""
        from repro.gridbuffer import client as gbc

        source = inspect.getsource(gbc)
        window = gbc._ReadAheadWindow
        assert source.count("read_window_ex(") == 2  # the definition and one call
        assert "read_window_ex(" in inspect.getsource(window.fetch_head)
        assert source.count("OP_READ_MULTI, ") == 2  # read_window_ex and _fetch
        assert "OP_READ_MULTI, " in inspect.getsource(window._fetch)
        for path in (window._fetch, window.fetch_head):
            assert "_note_reply(" in inspect.getsource(path)
        # Only window fetches feed the window rule.
        assert "self._rule." not in inspect.getsource(window.fetch_head)
        assert source.count("_read_header(") == 3  # the definition and two calls
        sync_pools = re.findall(r"(?<!Async)RpcClient\(", source)
        assert len(sync_pools) == 2  # the client pool and the head connection
        assert "RpcClient(" in inspect.getsource(window.__init__)
        assert "Thread(" not in inspect.getsource(window)
        registering = [
            name
            for cls in (gbc.BufferReader, gbc._ReadAheadWindow)
            for name, fn in vars(cls).items()
            if inspect.isfunction(fn) and "register_reader(" in inspect.getsource(fn)
        ]
        assert registering == ["_recover"]
        for gone in ("_read_direct", "_origin_direct", "_recover_connection"):
            assert not hasattr(gbc.BufferReader, gone), gone
        for gone in ("next_boundary", "note_eof"):
            assert not hasattr(gbc._ReadAheadWindow, gone), gone

    def test_writes_have_one_send_site(self):
        """Every write batch leaves through ``_WriteChannel.send``, on the
        channel's one pipelined connection.  A writer holds a channel of
        its own and reaches it from one place: the batcher's flush, which
        fills the window."""
        from repro.gridbuffer import client as gbc

        def users(cls, needle):
            return [
                name
                for name, fn in vars(cls).items()
                if inspect.isfunction(fn) and needle in inspect.getsource(fn)
            ]

        assert users(gbc.GridBufferClient, "OP_WRITE") == []
        assert users(gbc._WriteChannel, "OP_WRITE") == ["send"]
        # One pipelined connection per write channel and per read window.
        assert inspect.getsource(gbc).count("AsyncRpcClient(") == 2
        assert "AsyncRpcClient(" in inspect.getsource(gbc._WriteChannel.__init__)
        assert "AsyncRpcClient(" in inspect.getsource(gbc._ReadAheadWindow._launch_locked)
        assert users(gbc.GridBufferClient, "_WriteChannel(") == ["_take_channel"]
        assert users(gbc.BufferWriter, "_take_channel(") == ["__init__"]
        assert users(gbc.BufferWriter, ".send(") == ["_push_runs"]
        assert users(gbc.BufferWriter, "self._client.") == ["abort", "_fail_stream", "close"]
        # One window rule sizes both directions.
        assert inspect.getsource(gbc).count("_WindowRule(") == 2
        assert "_WindowRule(" in inspect.getsource(gbc.BufferWriter.__init__)
        assert "_WindowRule(" in inspect.getsource(gbc._ReadAheadWindow.__init__)
        for gone in ("_target_depth", "_target_chunk", "note_hit", "CHUNK_TIERS"):
            assert not hasattr(gbc._ReadAheadWindow, gone), gone
        assert not hasattr(gbc, "_WRITE_WINDOW")
        assert not hasattr(gbc._RunBatcher, "adapt")

    def test_fm_opens_readers_through_one_helper(self):
        """``open`` and a live remap must not configure readers apart:
        both reach the one BUFFER branch of the FM's one table."""
        from repro.core import multiplexer

        source = inspect.getsource(multiplexer)
        assert source.count("_buffer_pool.open_reader(") == 1
        assert "_buffer_pool.open_reader(" in inspect.getsource(FileMultiplexer._open_source)
        assert "self._open_source(" in inspect.getsource(FileMultiplexer._maybe_register_live)

    def test_bench_trace_targets_resolve(self):
        """Every callable ``bench_e2e`` wraps is defined directly on its
        owner, so a rename fails tier-1 and not only the bench-smoke job."""
        import sys
        from pathlib import Path

        root = str(Path(__file__).resolve().parents[1])
        sys.path.insert(0, root)
        try:
            from bench_e2e.trace import targets
        finally:
            sys.path.remove(root)
        found = targets()
        assert len(found) >= 40
        for target in found:
            owner = target.owners[0]
            assert target.attr in vars(owner), f"{owner.__name__}.{target.attr} moved"
            assert callable(vars(owner)[target.attr]) or isinstance(
                vars(owner)[target.attr], (staticmethod, classmethod)
            )


class TestOneWayToRebind:
    """ROADMAP aim 2: a GNS record becomes a source in one place, an open
    handle changes source in one place, and a bulk copy moves through one
    loop — so open, fallback, failover, re-map and migration cannot drift."""

    def test_one_function_maps_io_modes(self):
        import re

        from repro.core import multiplexer

        mapping = [
            qualname
            for qualname, fn in _functions(multiplexer)
            if re.search(r"IOMode\.[A-Z]", inspect.getsource(fn))
        ]
        assert mapping == ["FileMultiplexer._open_source"]

    def test_one_source_swap(self):
        from repro.core import multiplexer

        swapping = [
            qualname
            for qualname, fn in _functions(multiplexer)
            if "self._inner =" in inspect.getsource(fn)
        ]
        assert swapping == ["FMFile.__init__", "FMFile._rebind"]
        callers = [
            qualname
            for qualname, fn in _functions(multiplexer)
            if "._rebind(" in inspect.getsource(fn)
        ]
        assert sorted(callers) == [
            "FMFile._maybe_migrate", "_ReplicaWalker.failover", "_ReplicaWalker.remap",
        ]

    def test_one_striped_copy_loop(self):
        from repro.transport import gridftp

        threaded = [
            qualname
            for qualname, fn in _functions(gridftp)
            if "threading.Thread(" in inspect.getsource(fn)
        ]
        assert threaded == []
        for name in ("fetch_file", "store_file"):
            assert "self._windowed(" in inspect.getsource(getattr(gridftp.GridFtpClient, name))

    def test_old_paths_are_gone(self):
        from repro.core.multiplexer import FMFile
        from repro.transport.gridftp import GridFtpClient

        for gone in (
            "_open_with", "_migration_inner", "_open_buffer_reader", "_degrade",
            "_open_local", "_open_copy", "_open_remote", "_open_remote_replica",
            "_open_local_replica", "_open_buffer", "_choose_replica",
        ):
            assert not hasattr(FileMultiplexer, gone), gone
        assert not hasattr(FMFile, "_maybe_remap")
        assert set(inspect.signature(FMFile.__init__).parameters) == {
            "self", "inner", "record", "stats",
        }
        for gone in ("_parallel_fetch", "_parallel_store", "_striped"):
            assert not hasattr(GridFtpClient, gone), gone
        assert "parallel_streams" not in inspect.signature(GridFtpClient).parameters


def _functions(module):
    """``(qualname, function)`` for every function written in ``module``'s
    source (generated dataclass methods have none)."""
    found = []
    for name, obj in vars(module).items():
        members = vars(obj).items() if inspect.isclass(obj) else [("", obj)]
        for attr, fn in members:
            if inspect.isfunction(fn) and fn.__code__.co_filename == module.__file__:
                found.append((f"{name}.{attr}" if attr else name, fn))
    return found


class TestOneServicePath:
    """ROADMAP aim 2: the coroutine data ops are the Grid Buffer's only
    data path, and waiting is a parked future — never a condition wait."""

    def test_no_sync_trio(self):
        from repro.gridbuffer.service import GridBufferService

        for name in ("write", "write_multi", "read"):
            assert not hasattr(GridBufferService, name), name

    def test_data_ops_are_coroutines_on_the_class(self):
        from repro.gridbuffer.service import GridBufferService

        for name in ("write_async", "write_multi_async", "read_async"):
            assert inspect.iscoroutinefunction(vars(GridBufferService)[name]), name

    def test_one_waiting_discipline(self):
        from repro.gridbuffer import service

        source = inspect.getsource(service)
        assert "threading.Condition" not in source
        assert ".wait(" not in source
        assert not hasattr(service._Stream("s", 1, None, None), "cond")


class TestLinkEstimatesAreConstantTime:
    """The read-ahead window asks for link estimates on every ``read()``:
    answering must never walk the peer's sample window."""

    def test_queries_never_touch_the_samples(self):
        from collections import deque

        from repro.core.trace import TransferMonitor

        class CountingDeque(deque):
            touches = 0

            def __iter__(self):
                CountingDeque.touches += 1
                return super().__iter__()

            def __getitem__(self, index):
                CountingDeque.touches += 1
                return super().__getitem__(index)

        mon = TransferMonitor()
        for i in range(1024):
            if i % 4:
                mon.record("p", "gb.read_multi", 65536, 0.001 + i * 1e-6)
            else:
                mon.record("p", "gb.consume_multi", 0, 0.0002 + i * 1e-7)
        link = mon._links["p"]
        link.samples = CountingDeque(link.samples, maxlen=link.samples.maxlen)
        CountingDeque.touches = 0
        for _ in range(1000):
            assert mon.latency("p") is not None
            assert mon.bandwidth("p") is not None
        assert CountingDeque.touches == 0


class TestEnvironmentIsNotConfiguration:
    """``scripts/check.py``'s third rule: configuration that changes how
    bytes move lives in the GNS record or a constructor argument."""

    @staticmethod
    def _check():
        import importlib.util
        from pathlib import Path

        path = Path(__file__).resolve().parents[1] / "scripts" / "check.py"
        spec = importlib.util.spec_from_file_location("repo_check", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_rule_flags_env_reads_outside_the_allow_list(self):
        import ast

        check = self._check()
        text = "import os\nfrom os import getenv\nA = os.environ.get('A')\nB = os.getenv('B')\n"
        tree = ast.parse(text)
        flagged = check.check_env_reads(check.REPO / "src/repro/core/x.py", text, tree)
        assert len(flagged) == 3
        for allowed in check.ENV_READERS:
            assert check.check_env_reads(check.REPO / allowed, text, tree) == []
        assert check.check_env_reads(check.REPO / "tests/x.py", text, tree) == []

    def test_src_reads_env_only_where_allowed(self):
        import ast

        check = self._check()
        readers = set()
        for path in sorted((check.REPO / "src").rglob("*.py")):
            text = path.read_text(encoding="utf-8")
            assert check.check_env_reads(path, text, ast.parse(text)) == []
            if "os.environ" in text or "os.getenv" in text:
                readers.add(str(path.relative_to(check.REPO)))
        assert readers == set(check.ENV_READERS)  # no stale allow-list entry



class TestNoThreadPerOpenFile:
    """``scripts/check.py``'s fourth rule: only the modules in
    ``THREAD_OWNERS`` start threads; per-file work runs on the engine."""

    _check = staticmethod(TestEnvironmentIsNotConfiguration._check)

    def test_rule_flags_threads_outside_the_allow_list(self):
        import ast

        check = self._check()
        text = "import threading\nt = threading.Thread(target=print)\n"
        tree = ast.parse(text)
        flagged = check.check_thread_owners(check.REPO / "src/repro/core/x.py", text, tree)
        assert len(flagged) == 1
        for allowed in check.THREAD_OWNERS:
            assert check.check_thread_owners(check.REPO / allowed, text, tree) == []
        assert check.check_thread_owners(check.REPO / "tests/x.py", text, tree) == []

    def test_src_starts_threads_only_where_allowed(self):
        import ast

        check = self._check()
        owners = set()
        for path in sorted((check.REPO / "src").rglob("*.py")):
            text = path.read_text(encoding="utf-8")
            assert check.check_thread_owners(path, text, ast.parse(text)) == []
            if "threading.Thread(" in text:
                owners.add(str(path.relative_to(check.REPO)))
        assert owners == set(check.THREAD_OWNERS)  # no stale allow-list entry


class TestFaultLayersHaveHooks:
    """A fault rule for a layer with no hook point could never fire, so
    ``FaultRule`` refuses it; the layers it knows are the hook sites."""

    def test_layers_are_the_literal_hook_layers(self):
        import ast
        from pathlib import Path

        from repro import faults

        hooked = set()
        src = Path(faults.__file__).resolve().parents[1]
        for path in sorted(src.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("fire", "fire_async")
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                ):
                    hooked.add(node.args[0].value)
        assert hooked == set(faults._LAYERS)

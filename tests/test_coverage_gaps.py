"""Secondary coverage: smaller behaviours not hit by the main suites."""

import asyncio
import struct

import pytest

from repro.sim.engine import Environment
from repro.transport.aio import read_frame_async
from repro.transport.tcp import FrameError
from repro.transport.wire import FLAG_CRC, MAGIC, PREAMBLE, WIRE_VERSION

from ._run import run


class TestTcpLimits:
    def test_oversized_header_rejected(self):
        """The async engine refuses a 64 MiB field-table claim unread."""

        async def run():
            reader = asyncio.StreamReader()
            reader.feed_data(PREAMBLE.pack(MAGIC, WIRE_VERSION, FLAG_CRC, 0, 64 * 1024 * 1024, 0))
            return await read_frame_async(reader)  # would park forever if it read on

        with pytest.raises(FrameError, match="exceeds maximum"):
            asyncio.run(asyncio.wait_for(run(), 5))


class TestBufferCacheLifecycle:
    def test_drop_stream_closes_cache(self, tmp_path):
        from repro.gridbuffer.cache import BufferCache
        from repro.gridbuffer.service import GridBufferService

        cache = BufferCache(tmp_path / "c.cache")
        svc = GridBufferService()
        svc.create_stream("s", cache=lambda: cache)
        svc.register_reader("s", "r")
        run(svc.write_async("s", 0, b"payload"))
        svc.drop_stream("s")
        # Cache file remains on disk (close without delete) but the
        # stream is gone.
        assert not svc.exists("s")
        assert (tmp_path / "c.cache").exists()


class TestPolicyKnobs:
    def test_setup_rtts_scales_copy_cost(self):
        from repro.core.policy import AccessEstimate, AccessPolicy

        est = AccessEstimate(file_size=1024, bandwidth=1e6, latency=0.1)
        cheap_setup = AccessPolicy(copy_setup_rtts=1.0).copy_cost(est)
        pricey_setup = AccessPolicy(copy_setup_rtts=5.0).copy_cost(est)
        assert pricey_setup > cheap_setup
        assert pricey_setup - cheap_setup == pytest.approx(4 * 0.2)


class TestForecasterInternals:
    def test_ewma_pathway_selectable(self):
        """A trending series should prefer a recency-weighted predictor
        (last or ewma) over the long-run mean."""
        from repro.grid.nws import Forecaster

        f = Forecaster()
        for v in [1, 2, 4, 8, 16, 32, 64, 128]:
            f.observe(float(v))
        value, method = f.forecast()
        assert method in ("last", "ewma")
        assert value > 32


class TestFmFileRemapContinuity:
    def test_remap_preserves_position(self, tmp_path):
        """After a source swap the handle continues at the same byte offset."""
        import io
        from dataclasses import replace

        from repro.core.multiplexer import FMFile, OpenStats
        from repro.gns.records import GnsRecord, IOMode

        record = GnsRecord(machine="m", path="/f", mode=IOMode.LOCAL)
        first = io.BytesIO(b"A" * 100)
        second = io.BytesIO(b"B" * 100)
        f = FMFile(first, record, OpenStats())
        f._migrate_opener = lambda _record: second
        out = f.read(10) + f.read(10)
        # The GNS moves the file; the swap happens at the next read, at
        # offset 20, and the replacement is seeked there.
        assert f.request_migration(replace(record, local_path="/g"))
        out += f.read(10) + f.read(10)
        assert out == b"A" * 20 + b"B" * 20
        assert second.tell() == 40  # continued from position 20, read 20 more
        assert first.closed
        assert f.stats.remaps == 1

    def test_unreachable_migration_keeps_the_current_binding(self):
        import io
        from dataclasses import replace

        from repro.core.multiplexer import FMFile, OpenStats
        from repro.gns.records import GnsRecord, IOMode

        record = GnsRecord(machine="m", path="/f", mode=IOMode.LOCAL)
        first = io.BytesIO(b"A" * 100)
        f = FMFile(first, record, OpenStats())

        def unreachable(_record):
            raise ConnectionRefusedError("new binding is down")

        f._migrate_opener = unreachable
        assert f.read(10) == b"A" * 10
        assert f.request_migration(replace(record, local_path="/g"))
        assert f.read(10) == b"A" * 10
        assert f.record is record and f.stats.remaps == 0

    def test_failed_swap_keeps_the_current_source(self):
        """The one swap opens and seeks the replacement before touching the
        handle: if either fails, the handle reads on from its old source."""
        import io

        from repro.core.multiplexer import FMFile, OpenStats
        from repro.gns.records import GnsRecord, IOMode

        record = GnsRecord(machine="m", path="/f", mode=IOMode.LOCAL)
        first = io.BytesIO(b"A" * 100)
        f = FMFile(first, record, OpenStats())
        assert f.read(10) == b"A" * 10

        def unreachable():
            raise ConnectionRefusedError("no route")

        class Unseekable(io.BytesIO):
            def seek(self, *args):
                raise OSError("cannot seek")

        half_open = Unseekable(b"B" * 100)
        assert not f._rebind(unreachable, 10)
        assert not f._rebind(lambda: half_open, 10)
        assert half_open.closed  # the replacement that failed its seek
        assert not first.closed
        assert f.read(10) == b"A" * 10


class TestStoreScale:
    def test_many_items_fifo(self):
        from repro.sim.resources import Store

        env = Environment()
        store = Store(env)
        got = []

        def producer(env):
            for i in range(500):
                yield store.put(i)

        def consumer(env):
            for _ in range(500):
                item = yield store.get()
                got.append(item)

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert got == list(range(500))


class TestWorkflowBuildFuncs:
    def test_build_wires_funcs(self):
        from repro.workflow.localio import run_workflow_in_memory
        from repro.workflow.spec import Workflow

        def write_it(io):
            with io.open("out", "w") as fh:
                fh.write("built")

        wf = Workflow.build("b", [{"name": "s", "writes": ["out"], "func": write_it}])
        files = run_workflow_in_memory(wf)
        assert files["out"] == b"built"


class TestTranslatingReaderEdge:
    def test_read_zero_bytes(self):
        import io as _io

        from repro.core.heterogeneity import FieldType, RecordSchema
        from repro.core.translating import TranslatingReader

        schema = RecordSchema([FieldType("x", "int32")])
        r = TranslatingReader(_io.BytesIO(struct.pack(">i", 5)), schema, "big")
        assert r.read(0) == b""
        assert r.read(4) == struct.pack("=i", 5)

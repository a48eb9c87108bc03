"""Fault-tolerance tests for the Grid Buffer (abort/resume/recovery)."""

import threading
import time

import pytest

from repro.gridbuffer.cache import BufferCache
from repro.gridbuffer.client import GridBufferClient
from repro.gridbuffer.service import (
    GridBufferService,
    StreamClosed,
    StreamFailed,
)

from ._run import run


@pytest.fixture()
def svc():
    return GridBufferService()


def setup_stream(svc, name="s", cache=None):
    svc.create_stream(name, cache=None if cache is None else (lambda: cache))
    svc.register_reader(name, "r")


class TestAbort:
    def test_waiting_reader_unblocked_with_error(self, svc):
        setup_stream(svc)
        result = {}

        def reader():
            try:
                run(svc.read_async("s", "r", 0, 10, timeout=5))
            except StreamFailed as exc:
                result["error"] = str(exc)

        t = threading.Thread(target=reader)
        t.start()
        time.sleep(0.05)
        svc.abort_writer("s", "producer crashed")
        t.join(timeout=5)
        assert "producer crashed" in result["error"]

    def test_write_after_abort_raises(self, svc):
        setup_stream(svc)
        svc.abort_writer("s")
        with pytest.raises(StreamFailed):
            run(svc.write_async("s", 0, b"x"))

    def test_read_after_abort_raises_even_with_data(self, svc):
        setup_stream(svc)
        run(svc.write_async("s", 0, b"partial"))
        svc.abort_writer("s")
        with pytest.raises(StreamFailed):
            run(svc.read_async("s", "r", 0, 100))


class TestResume:
    def test_resume_returns_high_water(self, svc):
        setup_stream(svc)
        run(svc.write_async("s", 0, b"x" * 100))
        run(svc.write_async("s", 100, b"y" * 50))
        svc.abort_writer("s", "transient")
        offset = svc.resume_writer("s")
        assert offset == 150

    def test_resume_of_completed_stream_rejected(self, svc):
        setup_stream(svc)
        run(svc.write_async("s", 0, b"done"))
        svc.close_writer("s")
        with pytest.raises(StreamClosed):
            svc.resume_writer("s")

    def test_writer_restart_end_to_end(self, svc, tmp_path):
        """A writer dies mid-stream and a replacement finishes the job;
        the reader sees one seamless byte sequence."""
        cache = BufferCache(tmp_path / "s.cache")
        setup_stream(svc, cache=cache)
        payload = bytes(i % 256 for i in range(10_000))

        # First writer delivers 4 KB then "crashes".
        run(svc.write_async("s", 0, payload[:4096]))
        svc.abort_writer("s", "oom-killed")

        # Replacement writer resumes exactly at the high-water mark.
        offset = svc.resume_writer("s")
        assert offset == 4096
        run(svc.write_async("s", offset, payload[offset:]))
        svc.close_writer("s")

        received = bytearray()
        pos = 0
        while True:
            chunk = run(svc.read_async("s", "r", pos, 1024, timeout=5))
            if not chunk:
                break
            received.extend(chunk)
            pos += len(chunk)
        assert bytes(received) == payload

    def test_high_water_with_gap_reports_contiguous_prefix(self, svc):
        setup_stream(svc)
        run(svc.write_async("s", 0, b"x" * 10))
        run(svc.write_async("s", 20, b"y" * 5))  # gap at [10, 20)
        assert svc.high_water("s") == 10


class TestFaultsOverTcp:
    def test_abort_resume_via_client(self, buffer_server):
        client = GridBufferClient(*buffer_server.address)
        client.create_stream("net", cache=True)
        client.register_reader("net", "r")
        client.write("net", 0, b"a" * 1000)
        client.abort_writer("net", "link flap")
        assert client.resume_writer("net") == 1000
        client.write("net", 1000, b"b" * 1000)
        client.close_writer("net")
        assert client.high_water("net") == 2000
        data, _ = client.read_window_ex("net", "r", 0, 2000, timeout=5)
        assert data == b"a" * 1000 + b"b" * 1000
        client.close()

    def test_remote_reader_sees_failure(self, buffer_server):
        client = GridBufferClient(*buffer_server.address)
        client.create_stream("doomed")
        client.register_reader("doomed", "r")
        result = {}

        def reader():
            try:
                client_r = GridBufferClient(*buffer_server.address)
                client_r.read_window_ex("doomed", "r", 0, 10, timeout=5)
                client_r.close()
            except Exception as exc:  # noqa: BLE001
                result["error"] = str(exc)

        t = threading.Thread(target=reader)
        t.start()
        time.sleep(0.05)
        client.abort_writer("doomed", "fatal")
        t.join(timeout=10)
        assert "fatal" in result.get("error", "")
        client.close()

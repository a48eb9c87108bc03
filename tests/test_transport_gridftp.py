"""Unit tests for the GridFTP-like transport."""

import hashlib

import pytest

from repro.transport.gridftp import GridFtpClient, GridFtpServer
from repro.transport.tcp import RpcError


@pytest.fixture()
def export(tmp_path):
    root = tmp_path / "export"
    root.mkdir()
    (root / "hello.txt").write_bytes(b"hello grid world")
    (root / "big.bin").write_bytes(bytes(i % 251 for i in range(300_000)))
    server = GridFtpServer(root)
    with server:
        yield server, root


class TestMetadata:
    def test_size(self, export):
        server, _ = export
        with GridFtpClient(*server.address) as client:
            assert client.size("/hello.txt") == 16

    def test_size_missing_raises(self, export):
        server, _ = export
        with GridFtpClient(*server.address) as client:
            with pytest.raises(RpcError, match="not-found"):
                client.size("/nope")

    def test_exists(self, export):
        server, _ = export
        with GridFtpClient(*server.address) as client:
            assert client.exists("/hello.txt")
            assert not client.exists("/nope")

    def test_checksum_matches_sha256(self, export):
        server, root = export
        with GridFtpClient(*server.address) as client:
            expected = hashlib.sha256((root / "big.bin").read_bytes()).hexdigest()
            assert client.checksum("/big.bin") == expected

    def test_delete(self, export):
        server, root = export
        with GridFtpClient(*server.address) as client:
            assert client.delete("/hello.txt") is True
            assert not (root / "hello.txt").exists()
            assert client.delete("/hello.txt") is False


class TestBlockAccess:
    def test_read_block(self, export):
        server, _ = export
        with GridFtpClient(*server.address) as client:
            assert client.read_block("/hello.txt", 6, 4) == b"grid"

    def test_read_past_eof_returns_short(self, export):
        server, _ = export
        with GridFtpClient(*server.address) as client:
            assert client.read_block("/hello.txt", 10, 100) == b" world"
            assert client.read_block("/hello.txt", 100, 10) == b""

    def test_write_block_at_offset(self, export):
        server, root = export
        with GridFtpClient(*server.address) as client:
            client.write_block("/hello.txt", 0, b"HELLO")
            assert (root / "hello.txt").read_bytes() == b"HELLO grid world"

    def test_write_block_truncate(self, export):
        server, root = export
        with GridFtpClient(*server.address) as client:
            client.write_block("/hello.txt", 0, b"xy", truncate=True)
            assert (root / "hello.txt").read_bytes() == b"xy"

    def test_negative_offset_rejected(self, export):
        server, _ = export
        with GridFtpClient(*server.address) as client:
            with pytest.raises(RpcError):
                client.read_block("/hello.txt", -1, 4)


class TestBulkCopy:
    def test_fetch_file(self, export, tmp_path):
        server, root = export
        dest = tmp_path / "local" / "big.bin"
        with GridFtpClient(*server.address, block_size=4096) as client:
            n = client.fetch_file("/big.bin", dest)
        assert n == 300_000
        assert dest.read_bytes() == (root / "big.bin").read_bytes()

    def test_fetch_with_parallel_streams(self, export, tmp_path):
        server, root = export
        dest = tmp_path / "par.bin"
        with GridFtpClient(*server.address, block_size=8192) as client:
            client.fetch_file("/big.bin", dest)
        assert dest.read_bytes() == (root / "big.bin").read_bytes()

    def test_fetch_empty_file(self, export, tmp_path):
        server, root = export
        (root / "empty").write_bytes(b"")
        dest = tmp_path / "empty.out"
        with GridFtpClient(*server.address) as client:
            assert client.fetch_file("/empty", dest) == 0
        assert dest.read_bytes() == b""

    def test_store_file(self, export, tmp_path):
        server, root = export
        src = tmp_path / "upload.bin"
        payload = bytes(i % 13 for i in range(100_000))
        src.write_bytes(payload)
        with GridFtpClient(*server.address, block_size=4096) as client:
            client.store_file(src, "/incoming/upload.bin")
        assert (root / "incoming" / "upload.bin").read_bytes() == payload

    def test_store_overwrites_shorter(self, export, tmp_path):
        server, root = export
        src = tmp_path / "short.bin"
        src.write_bytes(b"short")
        with GridFtpClient(*server.address) as client:
            client.store_file(src, "/big.bin")
        assert (root / "big.bin").read_bytes() == b"short"


class TestPathSafety:
    def test_escape_rejected(self, export, tmp_path):
        server, _ = export
        (tmp_path / "secret.txt").write_bytes(b"secret")
        with GridFtpClient(*server.address) as client:
            with pytest.raises(RpcError, match="forbidden"):
                client.size("/../secret.txt")

    def test_client_validation(self, export):
        server, _ = export
        with pytest.raises(ValueError):
            GridFtpClient(*server.address, block_size=0)

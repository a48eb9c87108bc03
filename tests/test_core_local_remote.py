"""Unit tests for the Local and Remote file clients."""

import io

import pytest

from repro import obs
from repro.core.local_client import LocalFileClient
from repro.core.remote_client import RemoteFileClient
from repro.transport.gridftp import GridFtpClient


@pytest.fixture()
def local(hosts):
    return LocalFileClient(hosts.host("alpha"))


@pytest.fixture()
def remote(hosts, ftp_beta, tmp_path):
    client = GridFtpClient(*ftp_beta.address, block_size=1024)
    beta = hosts.host("beta")
    beta.resolve("/data/input.bin").parent.mkdir(parents=True, exist_ok=True)
    beta.resolve("/data/input.bin").write_bytes(bytes(i % 256 for i in range(10_000)))
    yield RemoteFileClient(client, scratch_dir=tmp_path / "scratch")
    client.close()


class TestLocalFileClient:
    def test_write_read_roundtrip(self, local):
        with local.open("/out/file.txt", "w") as fh:
            fh.write(b"content")
        with local.open("/out/file.txt", "r") as fh:
            assert fh.read() == b"content"

    def test_text_mode_flag_normalised(self, local):
        with local.open("/f", "wt") as fh:
            fh.write(b"x")  # returned handle is binary regardless
        assert local.size("/f") == 1

    def test_append(self, local):
        with local.open("/log", "w") as fh:
            fh.write(b"a")
        with local.open("/log", "a") as fh:
            fh.write(b"b")
        with local.open("/log", "r") as fh:
            assert fh.read() == b"ab"

    def test_read_missing_raises(self, local):
        with pytest.raises(FileNotFoundError):
            local.open("/missing", "r")

    def test_bad_mode_rejected(self, local):
        with pytest.raises(ValueError):
            local.open("/f", "z")

    def test_sandbox_escape_rejected(self, local):
        with pytest.raises(PermissionError):
            local.open("/../escape", "w")

    def test_unsandboxed_client(self, tmp_path):
        client = LocalFileClient()
        target = tmp_path / "plain.bin"
        with client.open(str(target), "w") as fh:
            fh.write(b"direct")
        assert target.read_bytes() == b"direct"

    def test_exists_and_unlink(self, local):
        with local.open("/f", "w") as fh:
            fh.write(b"x")
        assert local.exists("/f")
        local.unlink("/f")
        assert not local.exists("/f")


class TestRemoteProxyFile:
    def test_sequential_read(self, remote):
        f = remote.open_proxy("/data/input.bin", "r")
        data = f.read(100)
        assert data == bytes(i % 256 for i in range(100))
        f.close()

    def test_read_all(self, remote):
        f = remote.open_proxy("/data/input.bin", "r")
        assert len(f.read()) == 10_000
        f.close()

    def test_seek_and_tell(self, remote):
        f = remote.open_proxy("/data/input.bin", "r")
        f.seek(5000)
        assert f.tell() == 5000
        assert f.read(4) == bytes((i % 256) for i in range(5000, 5004))
        f.seek(-4, io.SEEK_CUR)
        assert f.tell() == 5000
        f.seek(-10, io.SEEK_END)
        assert f.tell() == 9990
        f.close()

    def test_block_cache_reduces_rpcs(self, remote):
        """Block 0 comes with the open's probe; 16 reads inside it cost
        no further ``get_block`` (read-ahead off, so none goes ahead)."""
        before = obs.value("rpc_client_calls_total", {"op": "get_block"}) or 0
        f = remote.open_proxy("/data/input.bin", "r", block_size=1024, prefetch=False)
        for _ in range(16):
            f.read(64)  # all within the first block
        f.close()
        after = obs.value("rpc_client_calls_total", {"op": "get_block"}) or 0
        assert after - before == 1
        assert f.rpc_reads == 0

    def test_an_open_at_an_offset_probes_the_block_it_reads_first(self, remote):
        """A handle that resumes mid-file (a failover, a re-map, a live
        migration) fetches the block holding its offset at open, not
        block 0, and reads there at no further ``get_block``."""
        before = obs.value("rpc_client_calls_total", {"op": "get_block"}) or 0
        f = remote.open_proxy(
            "/data/input.bin", "r", block_size=1024, prefetch=False, offset=5000
        )
        assert f.tell() == 5000
        assert f.read(24) == bytes(i % 256 for i in range(5000, 5024))
        f.close()
        after = obs.value("rpc_client_calls_total", {"op": "get_block"}) or 0
        assert after - before == 1
        assert f.rpc_reads == 0

    def test_write_through(self, remote, hosts):
        f = remote.open_proxy("/data/input.bin", "r+")
        f.seek(0)
        f.write(b"WXYZ")
        f.close()
        assert hosts.host("beta").resolve("/data/input.bin").read_bytes()[:4] == b"WXYZ"

    def test_write_invalidates_cache(self, remote):
        f = remote.open_proxy("/data/input.bin", "r+", block_size=1024)
        assert f.read(4) == bytes(range(4))
        f.seek(0)
        f.write(b"\xff\xff\xff\xff")
        f.seek(0)
        assert f.read(4) == b"\xff\xff\xff\xff"
        f.close()

    def test_missing_file_raises(self, remote):
        with pytest.raises(FileNotFoundError):
            remote.open_proxy("/nope", "r")

    def test_w_mode_truncates(self, remote, hosts):
        f = remote.open_proxy("/data/input.bin", "w")
        f.write(b"new")
        f.close()
        assert hosts.host("beta").resolve("/data/input.bin").read_bytes() == b"new"

    def test_read_only_write_rejected(self, remote):
        f = remote.open_proxy("/data/input.bin", "r")
        with pytest.raises(io.UnsupportedOperation):
            f.write(b"x")
        f.close()


class TestCopyInOut:
    def test_read_copy(self, remote):
        f = remote.open_copy("/data/input.bin", "r")
        assert f.read(10) == bytes(range(10))
        f.close()

    def test_scratch_removed_on_close(self, remote):
        f = remote.open_copy("/data/input.bin", "r")
        local_path = f.local_path
        assert local_path.exists()
        f.close()
        assert not local_path.exists()

    def test_unmodified_file_not_copied_back(self, remote, hosts):
        before = hosts.host("beta").resolve("/data/input.bin").read_bytes()
        f = remote.open_copy("/data/input.bin", "r")
        f.read()
        f.close()
        assert hosts.host("beta").resolve("/data/input.bin").read_bytes() == before

    def test_modified_file_copied_back_on_close(self, remote, hosts):
        f = remote.open_copy("/data/input.bin", "r+")
        f.write(b"MODIFIED")
        f.close()
        assert hosts.host("beta").resolve("/data/input.bin").read_bytes()[:8] == b"MODIFIED"

    def test_new_remote_file_via_w(self, remote, hosts):
        f = remote.open_copy("/data/new.bin", "w")
        f.write(b"created")
        f.close()
        assert hosts.host("beta").resolve("/data/new.bin").read_bytes() == b"created"

    def test_append_mode(self, remote, hosts):
        f = remote.open_copy("/data/input.bin", "a")
        f.write(b"TAIL")
        f.close()
        data = hosts.host("beta").resolve("/data/input.bin").read_bytes()
        assert data[-4:] == b"TAIL"
        assert len(data) == 10_004

    def test_missing_read_raises(self, remote):
        with pytest.raises(FileNotFoundError):
            remote.open_copy("/missing.bin", "r")

    def test_seek_within_copy(self, remote):
        f = remote.open_copy("/data/input.bin", "r")
        f.seek(100)
        assert f.read(1) == bytes([100])
        f.close()


class TestCopyVerification:
    def test_verified_copy_succeeds(self, remote):
        f = remote.open_copy("/data/input.bin", "r", verify=True)
        assert len(f.read()) == 10_000
        f.close()

    def test_checksum_mismatch_detected(self, remote, monkeypatch):
        monkeypatch.setattr(
            remote.client, "checksum", lambda path: "0" * 64
        )
        with pytest.raises(IOError, match="checksum verification"):
            remote.open_copy("/data/input.bin", "r", verify=True)

    def test_fm_verify_copies_context_flag(self, hosts, ftp_beta, gns, tmp_path):
        from repro.core.multiplexer import FileMultiplexer, GridContext
        from repro.gns.records import GnsRecord, IOMode

        beta = hosts.host("beta")
        beta.resolve("/data/input.bin").parent.mkdir(parents=True, exist_ok=True)
        beta.resolve("/data/input.bin").write_bytes(bytes(i % 256 for i in range(10_000)))
        gns.add(
            GnsRecord(
                machine="alpha",
                path="/v/data.bin",
                mode=IOMode.COPY,
                remote_host="beta",
                remote_path="/data/input.bin",
            )
        )
        fm = FileMultiplexer(
            GridContext(
                machine="alpha",
                gns=gns,
                hosts=hosts,
                gridftp={"beta": ftp_beta.address},
                scratch_dir=tmp_path / "scratch",
                verify_copies=True,
            )
        )
        f = fm.open("/v/data.bin", "r")
        assert len(f.read()) == 10_000
        f.close()
        fm.close()

"""The built-in ops plane (``_obs.*``), the top CLI, and the loop
stall watchdog (ARCHITECTURE.md §12)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import obs
from repro.obs import top as obs_top
from repro.obs.ops import OPS
from repro.transport.tcp import RpcClient, RpcServer

SRC = str(Path(__file__).resolve().parents[1] / "src")


# One engine is left; the id stays so these tests keep their names.
@pytest.fixture(params=["async"])
def server(request):
    with RpcServer() as srv:
        srv.register("app.echo", lambda header, payload: ({"n": header.get("n")}, payload))
        yield srv


class TestOpsPlane:
    def test_ops_installed_on_every_server(self, server):
        for op in OPS:
            assert op in server._handlers

    def test_health(self, server):
        host, port = server.address
        client = RpcClient(host, port)
        try:
            health, _ = client.call("_obs.health")
        finally:
            client.close()
        assert health["status"] == "ok"
        assert health["pid"] == os.getpid()
        assert health["uptime_s"] >= 0
        assert health["proc"] == obs.get_tracer().proc
        assert "app.echo" in health["ops"]
        assert set(OPS) <= set(health["ops"])

    def test_health_includes_service_info_when_exposed(self, server):
        server.health_info = lambda: {"kind": "test-service", "streams": 3}
        host, port = server.address
        client = RpcClient(host, port)
        try:
            health, _ = client.call("_obs.health")
        finally:
            client.close()
        assert health["service"] == {"kind": "test-service", "streams": 3}

    def test_health_survives_broken_service_hook(self, server):
        def broken():
            raise RuntimeError("collector exploded")

        server.health_info = broken
        host, port = server.address
        client = RpcClient(host, port)
        try:
            health, _ = client.call("_obs.health")
        finally:
            client.close()
        assert health["status"] == "ok"
        assert "RuntimeError" in health["service"]["error"]

    def test_metrics_json_snapshot(self, server):
        host, port = server.address
        client = RpcClient(host, port)
        try:
            client.call("app.echo", {"n": 1})
            header, body = client.call("_obs.metrics")
        finally:
            client.close()
        assert header["format"] == "json"
        snapshot = json.loads(body)
        # The echo we just made is already in the served snapshot.
        requests = snapshot["rpc_server_requests_total"]["series"]
        assert any("app.echo" in str(s.get("labels")) for s in requests)

    def test_metrics_text_exposition(self, server):
        host, port = server.address
        client = RpcClient(host, port)
        try:
            header, body = client.call("_obs.metrics", {"format": "text"})
        finally:
            client.close()
        assert header["format"] == "text"
        assert b"rpc_server_requests_total" in body

    def test_spans_tail(self, server):
        sink = obs.MemorySink()
        prior = obs.configure(sink)
        try:
            with obs.span("tail-marker", probe=True):
                pass
            host, port = server.address
            client = RpcClient(host, port)
            try:
                header, body = client.call("_obs.spans_tail", {"limit": 50})
            finally:
                client.close()
        finally:
            obs.configure(prior)
        assert header["count"] >= 1
        names = [json.loads(line)["name"] for line in body.decode().splitlines()]
        assert "tail-marker" in names

    def test_obs_ops_are_idempotent(self):
        from repro.transport.tcp import IDEMPOTENT_OPS

        assert set(OPS) <= IDEMPOTENT_OPS


class TestTopCli:
    def test_poll_peer_live(self, server):
        host, port = server.address
        row = obs_top.poll_peer(f"{host}:{port}", timeout=5.0)
        assert row["status"] == "ok"
        assert row["pid"] == os.getpid()
        assert row["requests"] >= 0

    def test_poll_peer_down_is_a_row_not_a_crash(self):
        row = obs_top.poll_peer("127.0.0.1:1", timeout=0.5)
        assert row["status"] == "down"
        assert "error" in row

    def test_main_renders_table_and_exit_codes(self, server, capsys):
        host, port = server.address
        assert obs_top.main([f"{host}:{port}", "--once"]) == 0
        out = capsys.readouterr().out
        assert "PEER" in out and "1/1 peers up" in out
        # A dead peer flips the exit code but still renders.
        assert obs_top.main([f"{host}:{port}", "127.0.0.1:1",
                             "--once", "--timeout", "0.5"]) == 1
        out = capsys.readouterr().out
        assert "down" in out


class TestLoopWatchdog:
    """A blocking handler mis-registered inline must be named by
    ``loop_stall_total``.  Watchdog cadence is frozen at import, so the
    tight thresholds need a fresh interpreter."""

    SCRIPT = """
import json, time
from repro import obs
from repro.transport.tcp import RpcClient, RpcServer

def block(header, payload):
    time.sleep(0.3)  # blocks the event loop: exactly the bug to catch
    return {}, b""

with RpcServer() as srv:
    srv.register("bad.block", block, inline=True)
    host, port = srv.address
    client = RpcClient(host, port)
    client.call("bad.block")
    time.sleep(0.3)  # at least one watchdog tick lands after the stall
    client.close()

snap = obs.snapshot()
fam = snap.get("loop_stall_total") or {"series": []}
print(json.dumps({
    "stalls": [(s["labels"], s["value"]) for s in fam["series"]],
    "lag_present": "rpc_loop_lag_seconds" in snap,
}))
"""

    def test_blocking_inline_handler_increments_stall_counter(self):
        env = dict(
            os.environ,
            PYTHONPATH=SRC,
            REPRO_LOOP_WATCHDOG_S="0.05",
            REPRO_LOOP_STALL_S="0.1",
        )
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["lag_present"]
        stalls = {tuple(labels.values())[0]: value
                  for labels, value in result["stalls"]}
        assert stalls.get("bad.block", 0) >= 1, result

"""Cooperative block cache A/B: peer-to-peer fetch vs origin-only.

The broadcast regime the cooperative cache targets: one pre-written
stream, N reader processes, and an *origin under constraint* — the
Grid Buffer front end runs with ``simulated_latency=5ms`` and a
single-transfer data channel (``max_inflight=1`` over the read ops
only), modelling a WAN link that carries one bulk transfer at a time
while small control frames merely pay the latency.  A long-lived
**leader** process reads the stream once
(filling its shared block cache and advertising itself as a holder),
then N **follower** processes read it concurrently:

* arm *origin*: plain read-ahead readers — every byte re-crosses the
  constrained origin link, N times over.
* arm *peer*: ``peer_cache=True`` readers — the origin's ``cached_at``
  hints (delivered with registration, refreshed on consume acks)
  redirect every fetch to the leader's ``gb.peer_read`` endpoint; the
  origin only sees consume acks and holder advertisements.

Readers are separate OS processes on purpose: the shared block cache
is per-process, so in-process "peers" would short-circuit through it
and never exercise the wire.

Acceptance (full mode): aggregate follower throughput with peers is
>= 3x the origin-only arm at 8 readers, and the peer arm's origin read
ops stay near-constant as the reader count doubles (2 -> 4 -> 8).
``--smoke`` (the CI mode) runs 2 followers over a small file and only
asserts correctness plus that peer fetches actually happened.

Emits ``BENCH_peer_cache.json`` at the repo root.  Also runnable via
pytest (``pytest benchmarks/bench_peer_cache.py``).
"""

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

from repro import obs
from repro.gridbuffer.client import GridBufferClient
from repro.gridbuffer.protocol import OP_READ_MULTI
from repro.gridbuffer.server import GridBufferServer

LATENCY_S = 0.005          # one-way, injected per origin RPC
MAX_INFLIGHT = 1           # single-channel origin link: one transfer at a time
FULL_BYTES = 6 * 1024 * 1024
FULL_CHUNK = 128 * 1024
SMOKE_BYTES = 512 * 1024
SMOKE_CHUNK = 64 * 1024
FOLLOWER_COUNTS = (2, 4, 8)
MIN_SPEEDUP = 3.0
SEED = 20260808

_REPO_ROOT = Path(__file__).resolve().parents[1]


def _payload(n_bytes: int) -> bytes:
    return random.Random(SEED).randbytes(n_bytes)


def _origin_read_ops() -> float:
    """Origin-side gb.read_multi dispatches (any status)."""
    fam = obs.snapshot().get("rpc_server_requests_total", {})
    return sum(
        s["value"]
        for s in fam.get("series", [])
        if s["labels"].get("op") == OP_READ_MULTI
    )


def _peer_metric(snap: dict, family: str) -> float:
    return sum(s["value"] for s in snap.get(family, {}).get("series", []))


# ---------------------------------------------------------------------------
# Subprocess reader entry (--role leader|follower)
# ---------------------------------------------------------------------------


def _reader_main(args: argparse.Namespace) -> None:
    expect = args.sha
    client = GridBufferClient(args.host, args.port, timeout=60.0)
    try:
        if args.role == "follower":
            print("UP", flush=True)
            sys.stdin.readline()  # GO
        t0 = time.perf_counter()
        c0 = time.process_time()
        reader = client.open_reader(
            args.stream,
            read_ahead_bytes=args.chunk,
            read_ahead_depth=2,
            peer_cache=args.peer,
        )
        hasher = hashlib.sha256()
        got = 0
        while got < args.bytes:
            block = reader.read(min(args.chunk, args.bytes - got))
            if not block:
                break
            hasher.update(block)
            got += len(block)
        elapsed = time.perf_counter() - t0
        if args.role == "leader":
            # Stay alive serving gb.peer_read; make the final cached
            # ranges visible to peers before the followers register.
            reader.flush_advertisements()
            ok = got == args.bytes and hasher.hexdigest() == expect
            print(f"READY {json.dumps({'ok': ok})}", flush=True)
            sys.stdin.readline()  # EXIT
        else:
            snap = obs.snapshot()
            stats = {
                "ok": got == args.bytes and hasher.hexdigest() == expect,
                "bytes": got,
                "elapsed_s": round(elapsed, 5),
                "cpu_s": round(time.process_time() - c0, 5),
                "peer_hits": reader.peer_hits,
                "peer_bytes": _peer_metric(snap, "peer_fetch_bytes_total"),
            }
            print(f"RESULT {json.dumps(stats)}", flush=True)
        reader.close()
    finally:
        client.close()


def _spawn(role: str, addr, stream: str, n_bytes: int, chunk: int, sha: str, peer: bool):
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--role", role,
        "--host", addr[0],
        "--port", str(addr[1]),
        "--stream", stream,
        "--bytes", str(n_bytes),
        "--chunk", str(chunk),
        "--sha", sha,
    ]
    if peer:
        cmd.append("--peer")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        cmd,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=str(_REPO_ROOT),
    )


def _await_line(proc, prefix: str, what: str) -> dict:
    line = proc.stdout.readline()
    while line and not line.startswith(prefix):
        line = proc.stdout.readline()  # skip any stray output
    if not line:
        raise RuntimeError(f"{what} exited early: {proc.stderr.read()[-2000:]}")
    rest = line[len(prefix):].strip()
    return json.loads(rest) if rest else {}


# ---------------------------------------------------------------------------
# One arm: leader warms the cache, N followers read concurrently
# ---------------------------------------------------------------------------


def run_arm(server, peer: bool, n_followers: int, n_bytes: int, chunk: int) -> dict:
    stream = f"bc-{'peer' if peer else 'origin'}-{n_followers}"
    data = _payload(n_bytes)
    sha = hashlib.sha256(data).hexdigest()
    addr = server.address
    ctl = GridBufferClient(*addr, timeout=60.0)
    leader = followers = []
    try:
        writer = ctl.open_writer(
            stream,
            n_readers=1 + n_followers,
            capacity_bytes=2 * n_bytes,
            coalesce_bytes=256 * 1024,
        )
        writer.write(data)
        writer.close()

        leader = _spawn("leader", addr, stream, n_bytes, chunk, sha, peer)
        ready = _await_line(leader, "READY ", "leader")
        assert ready.get("ok"), "leader read back wrong bytes"

        followers = [
            _spawn("follower", addr, stream, n_bytes, chunk, sha, peer)
            for _ in range(n_followers)
        ]
        for proc in followers:
            _await_line(proc, "UP", "follower")
        ops_before = _origin_read_ops()
        t0 = time.perf_counter()
        for proc in followers:
            proc.stdin.write("GO\n")
            proc.stdin.flush()
        results = [_await_line(proc, "RESULT ", "follower") for proc in followers]
        wall = time.perf_counter() - t0
        origin_ops = _origin_read_ops() - ops_before

        leader.stdin.write("EXIT\n")
        leader.stdin.flush()
        leader.wait(timeout=30)
        for proc in followers:
            proc.wait(timeout=30)
        ctl.drop_stream(stream)
    finally:
        for proc in [leader, *followers] if leader else followers:
            if proc and proc.poll() is None:
                proc.kill()
        ctl.close()

    assert all(r["ok"] for r in results), f"follower byte mismatch: {results}"
    agg_mb_s = n_followers * n_bytes / wall / 1e6
    return {
        "arm": "peer" if peer else "origin",
        "followers": n_followers,
        "bytes_per_reader": n_bytes,
        "wall_s": round(wall, 4),
        "aggregate_mb_s": round(agg_mb_s, 2),
        "origin_read_ops": origin_ops,
        "peer_hits": sum(r["peer_hits"] for r in results),
        "peer_bytes": sum(r["peer_bytes"] for r in results),
    }


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def run(smoke: bool = False, write_json: bool = True) -> dict:
    n_bytes = SMOKE_BYTES if smoke else FULL_BYTES
    chunk = SMOKE_CHUNK if smoke else FULL_CHUNK
    counts = (2,) if smoke else FOLLOWER_COUNTS
    with GridBufferServer(
        simulated_latency=LATENCY_S,
        max_inflight=MAX_INFLIGHT,
        # The cap models the *data channel* — bulk reads queue for the
        # single transfer slot, while small control frames (acks,
        # holder advertisements, registration) only pay the latency.
        inflight_ops=(OP_READ_MULTI,),
    ) as server:
        # A broadcast origin hints the whole file span: the stream is
        # finite and pre-written, so there is no fresher range to save
        # the hint budget for.
        server.HINT_WINDOW = n_bytes
        arms = []
        if not smoke:
            arms.append(run_arm(server, False, max(counts), n_bytes, chunk))
        for n in counts:
            arms.append(run_arm(server, True, n, n_bytes, chunk))

    for arm in arms:
        print(
            f"{arm['arm']:>6} x{arm['followers']}: {arm['aggregate_mb_s']:8.2f} MB/s "
            f"aggregate, {arm['origin_read_ops']:5.0f} origin read ops, "
            f"{arm['peer_hits']:4d} peer hits"
        )

    def arm_of(name, n):
        return next(a for a in arms if a["arm"] == name and a["followers"] == n)

    out = {
        "bench": "peer_cache_broadcast",
        "smoke": smoke,
        "origin_latency_ms": LATENCY_S * 1e3,
        "origin_max_inflight": MAX_INFLIGHT,
        "chunk": chunk,
        "arms": arms,
    }

    if smoke:
        peer2 = arm_of("peer", 2)
        assert peer2["peer_hits"] > 0, "smoke run never fetched from a peer"
        assert peer2["peer_bytes"] > 0, "smoke run moved no bytes via peers"
    else:
        top = max(counts)
        origin_top = arm_of("origin", top)
        peer_top = arm_of("peer", top)
        peer_low = arm_of("peer", min(counts))
        speedup = peer_top["aggregate_mb_s"] / origin_top["aggregate_mb_s"]
        out["speedup_at_top"] = round(speedup, 2)
        out["min_speedup"] = MIN_SPEEDUP
        print(f"speedup at {top} readers: {speedup:.2f}x (floor {MIN_SPEEDUP}x)")
        assert speedup >= MIN_SPEEDUP, (
            f"peer arm only {speedup:.2f}x the origin-only arm at {top} readers "
            f"(need >= {MIN_SPEEDUP}x)"
        )
        # The scaling story: doubling readers must not double the load
        # on the constrained origin.  Small additive slack absorbs
        # stragglers (a window probe racing a hint refresh).
        assert peer_top["origin_read_ops"] <= peer_low["origin_read_ops"] + top, (
            f"peer-arm origin reads grew {peer_low['origin_read_ops']:.0f} -> "
            f"{peer_top['origin_read_ops']:.0f} from {min(counts)} to {top} readers"
        )
        assert peer_top["peer_hits"] > 0, "peer arm never fetched from a peer"

    if write_json:
        path = _REPO_ROOT / "BENCH_peer_cache.json"
        path.write_text(json.dumps(out, indent=2) + "\n")
        print(f"wrote {path}")
    return out


def test_peer_cache():
    run(smoke=False)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="CI mode: 2 followers, small file, correctness only")
    parser.add_argument("--no-json", action="store_true", help="skip writing BENCH_peer_cache.json")
    # Internal: subprocess reader entry.
    parser.add_argument("--role", choices=("leader", "follower"))
    parser.add_argument("--host")
    parser.add_argument("--port", type=int)
    parser.add_argument("--stream")
    parser.add_argument("--bytes", type=int)
    parser.add_argument("--chunk", type=int)
    parser.add_argument("--sha")
    parser.add_argument("--peer", action="store_true")
    args = parser.parse_args()
    if args.role:
        _reader_main(args)
        return
    run(smoke=args.smoke, write_json=not args.no_json)


if __name__ == "__main__":
    main()

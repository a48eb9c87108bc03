"""The benchmark's own arms: machine calibration, hardware ceiling, RPC echo.

None of these exercises a workload; they give a reviewer the context
to read one.  The calibration spin says whether a run sat inside a
noisy-neighbour burst, the ceiling says what the box can move at all,
and the echo probe isolates ``transport.aio`` + ``transport.tcp`` at
concurrency 1 from everything above them.
"""

from __future__ import annotations

import socket
import threading
import time
import zlib
from typing import Dict, List

from repro.transport.aio import AsyncRpcServer
from repro.transport.tcp import RpcClient

from .trace import percentile

__all__ = ["calibration_spin_ms", "ceiling", "echo_probe"]

MIB = 1 << 20
_CRC_BLOCK = bytes(8 * MIB)


def calibration_spin_ms() -> float:
    """A fixed single-thread job (pure-Python loop + crc32), timed.

    Its duration moves only when the machine does, so it rises with a
    noisy neighbour and stays put when the program changes.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc += i * i
    zlib.crc32(_CRC_BLOCK)
    return (time.perf_counter() - t0) * 1e3


def ceiling(payload: bytes, seconds: float) -> Dict[str, float]:
    """Raw loopback socket, memcpy and crc32 rates over the workload's bytes."""
    budget = seconds / 3.0
    view = memoryview(payload)[: 32 * MIB]
    dst = bytearray(len(view))

    def memcpy() -> None:
        dst[:] = view

    return {
        "socket_mib_s": _socket_mib_s(view, budget),
        "memcpy_mib_s": _rate_mib_s(memcpy, len(view), budget),
        "crc32_mib_s": _rate_mib_s(lambda: zlib.crc32(view), len(view), budget),
    }


def _rate_mib_s(fn, nbytes: int, budget: float) -> float:
    moved = 0
    t0 = time.perf_counter()
    while True:
        fn()
        moved += nbytes
        elapsed = time.perf_counter() - t0
        if elapsed >= budget:
            return moved / elapsed / MIB


def _socket_mib_s(view: memoryview, budget: float) -> float:
    """``sendall`` in 64 KiB calls to a thread that ``recv_into``s them."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    received = [0]

    def drain() -> None:
        conn, _ = listener.accept()
        with conn:
            buf = bytearray(256 * 1024)
            while True:
                n = conn.recv_into(buf)
                if not n:
                    return
                received[0] += n

    thread = threading.Thread(target=drain, name="ceiling-recv")
    thread.start()
    sent = 0
    with socket.create_connection(listener.getsockname()) as out:
        out.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < budget:
            for off in range(0, len(view), 64 * 1024):
                out.sendall(view[off : off + 64 * 1024])
            sent += len(view)
    thread.join(timeout=30)
    elapsed = time.perf_counter() - t0
    listener.close()
    if thread.is_alive() or received[0] != sent:
        raise RuntimeError(f"ceiling socket arm lost bytes: sent {sent}, got {received[0]}")
    return sent / elapsed / MIB


def echo_probe(seconds: float) -> Dict[str, float]:
    """One caller, inline echo handler: empty frames, then 64 KiB frames."""
    server = AsyncRpcServer()
    server.register("echo", lambda header, payload: ({}, payload), inline=True)
    server.start()
    client = RpcClient(*server.address)
    try:
        client.call("echo")  # dial + codec negotiation
        empty = _echo_loop(client, b"", seconds / 2)
        big_payload = bytes(64 * 1024)
        big = _echo_loop(client, big_payload, seconds / 2)
    finally:
        client.close_all()
        server.stop()
        server.disconnect_all()
    return {
        "echo_c1_p50_us": percentile(empty, 50) / 1e3,
        "echo_64k_p50_us": percentile(big, 50) / 1e3,
        "echo_c1_ops_per_s": len(empty) / (sum(empty) / 1e9),
    }


def _echo_loop(client: RpcClient, payload: bytes, budget: float) -> List[int]:
    samples: List[int] = []
    deadline = time.perf_counter() + budget
    while time.perf_counter() < deadline:
        t0 = time.perf_counter_ns()
        _, data = client.call("echo", payload=payload)
        samples.append(time.perf_counter_ns() - t0)
        if len(data) != len(payload):
            raise RuntimeError("echo probe: reply length differs from request")
    return samples

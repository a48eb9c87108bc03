"""The four workloads.

Each is a closed loop: a caller issues its next ``open/read/write/
seek/close`` only when the previous one returned.  At most two
load-generator threads run at once (a writer and a reader, or one
caller), because the reference box has two cores.  Every pass works on
fresh stream/file names on the same long-lived deployment and drops
them after verification, so passes are stationary.

Pass sizes are constants, chosen so one measured pass takes about
``NOMINAL_PASS_S`` seconds at the commit that added the benchmark on a
2-core box; ``--seconds`` selects how many passes run, never how big
they are, so ``makespan_s`` stays comparable between commits.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import random
import shutil
import threading
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.gns.records import BufferEndpoint, GnsRecord, IOMode
from repro.grid.nws import Measurement
from repro.grid.replica_catalog import Replica

from .deploy import Deployment

__all__ = ["WORKLOADS", "NOMINAL_PASS_S", "Meter", "PassResult", "Workload", "make_payload"]

KIB = 1 << 10
MIB = 1 << 20
#: Size of one application read/write call on the bulk workloads.
CALL = 64 * KIB
#: Injected one-way latency of the two WAN workloads (10 ms round trip).
WAN_LATENCY = 0.005
#: What one full-size pass takes at HEAD on the reference box.
NOMINAL_PASS_S = 2.5
#: A writer/reader pair that has not finished by then is a failed pass.
PASS_TIMEOUT_S = 150.0

_now = time.perf_counter_ns


def make_payload(seed: int, size: int) -> bytes:
    """``size`` seeded bytes in which every 4 KiB page is distinct.

    One random MiB tiled (generating 128 MiB from the PRNG costs half
    a second per set-up), with the page's offset stamped at its start
    so a block delivered at the wrong offset can never compare equal.
    """
    tile = random.Random(seed).randbytes(min(size, MIB))
    buf = bytearray(tile * (-(-size // len(tile))))
    del buf[size:]
    for off in range(0, size - 7, 4096):  # a slice past the end would grow buf
        buf[off : off + 8] = off.to_bytes(8, "little")
    return bytes(buf)


def _seed_weather(dep: Deployment, seed: int) -> None:
    """Seeded NWS history: which store the selector prefers for this run."""
    best = random.Random(f"{seed}:nws").choice(("store1", "store2"))
    for store in ("store1", "store2"):
        bandwidth = 8e6 if store == best else 2e6
        for i in range(4):
            dep.nws.record(
                store, "compute", Measurement(time=i, bandwidth=bandwidth, latency=0.01)
            )


class Meter:
    """Application-level accounting of one caller thread in one pass."""

    def __init__(self) -> None:
        self.ops = 0
        self.failed = 0
        self.payload_bytes = 0
        self.read_ns = array("q")
        self.first_byte_ns: List[int] = []
        self.modes: set = set()
        self.errors: List[str] = []

    def merge(self, other: "Meter") -> None:
        self.ops += other.ops
        self.failed += other.failed
        self.payload_bytes += other.payload_bytes
        self.read_ns.extend(other.read_ns)
        self.first_byte_ns.extend(other.first_byte_ns)
        self.modes |= other.modes
        self.errors.extend(other.errors)

    # -- the application's IO calls, counted and (reads) timed --------------
    def read(self, f, size: int) -> bytes:
        """One application ``read()``: counted, and its wall time sampled."""
        t0 = _now()
        data = f.read(size)
        self.read_ns.append(_now() - t0)
        self.ops += 1
        return data

    def read_run(
        self, f, expected: bytes, call: int, t_open: Optional[int] = None, to_eof: bool = False
    ) -> None:
        """``read(call)`` from the handle's position until ``expected`` is
        covered (``to_eof``: until the empty read after it), every byte
        compared.  A mismatch or a short total is one failed op.

        With ``t_open`` (when the caller issued ``open``) the first read
        that returns data yields a first-byte sample.
        """
        got = 0
        limit = len(expected) + (1 if to_eof else 0)
        while got < limit:
            data = self.read(f, min(call, limit - got))
            if not data:
                break
            if got == 0 and t_open is not None:
                self.first_byte_ns.append(_now() - t_open)
            if expected[got : got + len(data)] != data:
                self.failed += 1
                break
            got += len(data)
        if got != len(expected):
            self.failed += 1
        self.payload_bytes += min(got, len(expected))

    def read_verify(self, fm, path: str, expected: bytes, call: int, seek_to: int = 0) -> None:
        """``open`` → [``seek``] → :meth:`read_run` over ``expected`` → ``close``."""
        t_open = _now()
        f = fm.open(path, "r")
        self.ops += 1
        self.modes.add(f.io_mode)
        try:
            if seek_to:
                f.seek(seek_to)
                self.ops += 1
            self.read_run(f, expected, call, t_open)
        finally:
            f.close()
            self.ops += 1

    def write_all(self, fm, path: str, data: bytes, call: int) -> None:
        """``open`` → ``write(call)`` over ``data`` → ``close``."""
        f = fm.open(path, "w")
        self.ops += 1
        self.modes.add(f.io_mode)
        try:
            for off in range(0, len(data), call):
                f.write(data[off : off + call])
                self.ops += 1
        finally:
            f.close()
            self.ops += 1
        self.payload_bytes += len(data)

    def guarded(self, step: Callable[[], None]) -> None:
        """Run one step; an exception is a failed op, not a crashed run."""
        try:
            step()
        except Exception as exc:  # noqa: BLE001 - any failure of the program under test
            self.ops += 1
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")


@dataclass
class PassResult:
    wall_s: float
    cpu_s: float
    meter: Meter
    #: Machine-calibration spin (ms) right before and right after the pass.
    calib_ms: Tuple[float, float] = (0.0, 0.0)


@dataclass
class Workload:
    """Base: owns the deployment, the payload and the pass loop."""

    seed: int
    smoke: bool = False
    ctx_overrides: Dict[str, object] = field(default_factory=dict)

    name = ""
    #: One-way latency the workload's servers inject, for the
    #: ``transport.tcp.overhead_us_per_call`` subtraction.
    latency = 0.0
    #: Full-size passes run and discarded before measuring.
    warmup_passes = 1

    def __post_init__(self) -> None:
        self.dep: Optional[Deployment] = None
        #: Set by the harness for traced passes: spans are recorded for
        #: exactly the timed region, not the wiring around it.
        self.recorder = None
        self.payload = b""
        self.payload_sha256 = ""

    # -- life cycle ---------------------------------------------------------
    def generate(self) -> None:
        """Make the seeded payload (the only input besides :meth:`plan`)."""
        self.payload = make_payload(self.seed, self.payload_size())
        self.payload_sha256 = hashlib.sha256(self.payload).hexdigest()

    def setup(self, root: Path) -> None:
        """Deploy, seed remote files, open the FMs, run one small pass.

        The payload is generated here only if the caller has not done
        so already (the harness does, outside its timed set-ups).
        """
        if not self.payload:
            self.generate()
        self.deploy(Path(root))
        result = self.run_pass(-1)
        if result.meter.failed:
            raise RuntimeError(f"{self.name}: set-up pass failed: {result.meter.errors}")

    def teardown(self) -> None:
        if self.dep is not None:
            self.dep.close()
            self.dep = None

    def run_pass(self, k: int) -> PassResult:
        """Pass ``k`` (``-1`` is the small set-up pass): wire, run, verify, drop."""
        meter = Meter()
        self.wire(k)
        recording = self.recorder.window() if self.recorder else contextlib.nullcontext()
        try:
            with recording:
                cpu0 = time.process_time()
                t0 = time.perf_counter()
                meter.guarded(lambda: self.body(k, meter))
                wall = time.perf_counter() - t0
                cpu = time.process_time() - cpu0
        finally:
            self.unwire(k)
        return PassResult(wall, cpu, meter)

    def plan_digest(self, passes: int) -> str:
        """Hash of everything the seed decides (the determinism test)."""
        text = repr([self.plan(k) for k in range(-1, passes)])
        return hashlib.sha256((self.payload_sha256 + text).encode()).hexdigest()

    # -- per workload -------------------------------------------------------
    def payload_size(self) -> int:
        raise NotImplementedError

    def deploy(self, root: Path) -> None:
        raise NotImplementedError

    def wire(self, k: int) -> None:
        """Create pass ``k``'s names: GNS records, links, catalogue entries."""

    def unwire(self, k: int) -> None:
        """Drop what :meth:`wire` and the pass created."""

    def body(self, k: int, meter: Meter) -> None:
        raise NotImplementedError

    def plan(self, k: int) -> object:
        """The seeded decisions of pass ``k`` (order, offsets, sizes)."""
        return ()

    def latency_ceiling_mib_s(self) -> Optional[float]:
        """Window-bytes / RTT bound on goodput, or None when unbounded by latency."""
        return None


# ---------------------------------------------------------------------------
# stream_lan / stream_wan
# ---------------------------------------------------------------------------


class _StreamWorkload(Workload):
    """BUFFER mode through two FMs: writer on ``a``, reader on ``b``."""

    full_size = 0
    cache = False
    #: Fraction of the stream the reader re-reads after ``seek(0)``.
    reread_fraction = 0.0

    def size(self, k: int) -> int:
        if k < 0:
            return self.full_size // 32
        return self.full_size // 16 if self.smoke else self.full_size

    def payload_size(self) -> int:
        return self.size(0)

    def deploy(self, root: Path) -> None:
        self.dep = Deployment(root, machines=("a", "b"), buffer_latency=self.latency)
        self.fm_writer = self.dep.fm("a", **self.ctx_overrides)
        self.fm_reader = self.dep.fm("b", **self.ctx_overrides)

    def _names(self, k: int) -> Tuple[str, str]:
        tag = "setup" if k < 0 else str(k)
        return f"/job/stream-{tag}.dat", f"{self.name}-{tag}"

    def wire(self, k: int) -> None:
        path, stream = self._names(k)
        host, port = self.dep.buffer_server.address
        self.dep.ns.add(
            GnsRecord(
                machine="*", path=path, mode=IOMode.BUFFER,
                buffer=BufferEndpoint(stream=stream, host=host, port=port, cache=self.cache),
            )
        )

    def unwire(self, k: int) -> None:
        path, stream = self._names(k)
        self.dep.buffer_admin.drop_stream(stream)
        self.dep.ns.remove("*", path)

    def body(self, k: int, meter: Meter) -> None:
        size = self.size(k)
        data = self.payload if size == len(self.payload) else self.payload[:size]
        path, _stream = self._names(k)
        writer = Meter()
        thread = threading.Thread(
            target=writer.guarded,
            args=(lambda: writer.write_all(self.fm_writer, path, data, CALL),),
            name=f"{self.name}-writer",
        )
        thread.start()
        try:
            self._consume(meter, path, data)
        finally:
            thread.join(timeout=PASS_TIMEOUT_S)
            if thread.is_alive():
                writer.failed += 1
                writer.errors.append("writer still running at pass timeout")
        # The writer's bytes are the same bytes the reader verified:
        # count them once.
        writer.payload_bytes = 0
        meter.merge(writer)

    def _consume(self, meter: Meter, path: str, data: bytes) -> None:
        t_open = _now()
        f = self.fm_reader.open(path, "r")
        meter.ops += 1
        meter.modes.add(f.io_mode)
        try:
            meter.read_run(f, data, CALL, t_open, to_eof=True)
            reread = int(len(data) * self.reread_fraction)
            if reread:
                f.seek(0)
                meter.ops += 1
                meter.read_run(f, data[:reread], CALL)
        finally:
            f.close()
            meter.ops += 1


class StreamLan(_StreamWorkload):
    name = "stream_lan"
    #: 4x the Grid Buffer's DEFAULT_CAPACITY, so writer backpressure engages.
    full_size = 128 * MIB


class StreamWan(_StreamWorkload):
    name = "stream_wan"
    latency = WAN_LATENCY
    full_size = 11 * MIB
    cache = True
    #: DARLAM re-reads 30 of its 150 MB (paper section 5.3).
    reread_fraction = 0.2

    def latency_ceiling_mib_s(self) -> Optional[float]:
        # The writer's coalescer pushes one CALL-sized batch per round trip.
        return CALL / (2 * self.latency) / MIB


# ---------------------------------------------------------------------------
# files_wan
# ---------------------------------------------------------------------------

#: Remote block size of the proxy path (``transport.gridftp.DEFAULT_BLOCK``).
BLOCK = 256 * KIB


@dataclass(frozen=True)
class _FileSizes:
    big: int        # REMOTE sequential + random misses; 4x the 16 MiB BlockCache
    hot: int        # REMOTE random reads that fit the BlockCache
    copy_in: int    # COPY read
    replica: int    # REMOTE_REPLICA and LOCAL_REPLICA reads
    remote_out: int  # REMOTE write through the coalescer
    copy_out: int   # COPY write, copied out on close
    misses: int     # random 4 KiB reads over ``big``
    hot_rounds: int  # random 4 KiB reads over ``hot`` = hot_rounds x blocks


_FULL_FILES = _FileSizes(
    big=64 * MIB, hot=8 * MIB, copy_in=4 * MIB, replica=4 * MIB,
    remote_out=4 * MIB, copy_out=4 * MIB, misses=24, hot_rounds=3,
)
_SMALL_FILES = _FileSizes(
    big=4 * MIB, hot=1 * MIB, copy_in=512 * KIB, replica=512 * KIB,
    remote_out=512 * KIB, copy_out=512 * KIB, misses=4, hot_rounds=2,
)


class FilesWan(Workload):
    """The five file modes against two latency-injected GridFTP stores."""

    name = "files_wan"
    latency = WAN_LATENCY
    STEPS = (
        "copy_read", "remote_seq", "remote_miss", "remote_hot",
        "remote_write", "copy_write", "remote_replica", "local_replica",
    )

    def sizes(self, k: int) -> _FileSizes:
        return _SMALL_FILES if (k < 0 or self.smoke) else _FULL_FILES

    def payload_size(self) -> int:
        return self.sizes(0).big

    def deploy(self, root: Path) -> None:
        self.dep = Deployment(
            root, machines=("compute",), stores=("store1", "store2"), ftp_latency=self.latency
        )
        self.fm = self.dep.fm("compute", **self.ctx_overrides)
        _seed_weather(self.dep, self.seed)
        # One seeded file per size; passes hard-link it under fresh
        # names in both stores instead of copying 150 MiB each time.
        for sizes in {self.sizes(-1), self.sizes(0)}:
            for nbytes in set(self._files(sizes).values()):
                seed = root / "seed" / f"{nbytes}.dat"
                seed.parent.mkdir(exist_ok=True)
                seed.write_bytes(self.payload[:nbytes])

    @staticmethod
    def _files(sizes: _FileSizes) -> Dict[str, int]:
        """Remote input files of one pass: name -> size."""
        return {
            "big": sizes.big, "miss": sizes.big, "hot": sizes.hot,
            "copy": sizes.copy_in, "rep": sizes.replica,
        }

    @staticmethod
    def _tag(k: int) -> str:
        return "setup" if k < 0 else f"p{k}"

    def wire(self, k: int) -> None:
        tag, sizes = self._tag(k), self.sizes(k)
        for store in ("store1", "store2"):
            for kind, nbytes in self._files(sizes).items():
                os.link(
                    self.dep.root / "seed" / f"{nbytes}.dat",
                    self.dep.store_path(store, f"/{tag}/{kind}.dat"),
                )
        lfn = f"lfn://rep-{tag}"
        for store in ("store1", "store2"):
            self.dep.catalog.register(lfn, Replica(store, f"/{tag}/rep.dat", size=sizes.replica))

        def remote(kind: str, mode: IOMode, host: str, name: str) -> GnsRecord:
            return GnsRecord(
                machine="compute", path=f"/job/{tag}/{kind}.dat", mode=mode,
                remote_host=host, remote_path=f"/{tag}/{name}.dat",
            )

        self.dep.ns.add_all(
            [
                remote("copy_read", IOMode.COPY, "store1", "copy"),
                remote("remote_seq", IOMode.REMOTE, "store1", "big"),
                remote("remote_miss", IOMode.REMOTE, "store2", "miss"),
                remote("remote_hot", IOMode.REMOTE, "store2", "hot"),
                remote("remote_write", IOMode.REMOTE, "store1", "out-remote"),
                remote("copy_write", IOMode.COPY, "store2", "out-copy"),
                GnsRecord(
                    machine="compute", path=f"/job/{tag}/remote_replica.dat",
                    mode=IOMode.REMOTE_REPLICA, logical_name=lfn,
                ),
                GnsRecord(
                    machine="compute", path=f"/job/{tag}/local_replica.dat",
                    mode=IOMode.LOCAL_REPLICA, logical_name=lfn,
                    local_path=f"/cache/{tag}/rep.dat",
                ),
            ]
        )

    def unwire(self, k: int) -> None:
        tag = self._tag(k)
        for step in self.STEPS:
            self.dep.ns.remove("compute", f"/job/{tag}/{step}.dat")
        for store in ("store1", "store2"):
            self.dep.catalog.unregister(f"lfn://rep-{tag}", store, f"/{tag}/rep.dat")
            shutil.rmtree(self.dep.hosts.host(store).resolve(f"/{tag}"), ignore_errors=True)
        shutil.rmtree(self.dep.hosts.host("compute").resolve(f"/cache/{tag}"), ignore_errors=True)

    def plan(self, k: int) -> object:
        sizes = self.sizes(k)
        rng = random.Random(f"{self.seed}:{k}")
        order = list(self.STEPS)
        rng.shuffle(order)
        miss_blocks = rng.sample(range(sizes.big // BLOCK), sizes.misses)
        hot_blocks = list(range(sizes.hot // BLOCK)) * sizes.hot_rounds
        rng.shuffle(hot_blocks)
        within = [rng.randrange(0, BLOCK - 4 * KIB, 4 * KIB) for _ in range(len(hot_blocks))]
        return (
            order,
            [b * BLOCK + w for b, w in zip(miss_blocks, within)],
            [b * BLOCK + w for b, w in zip(hot_blocks, within)],
        )

    def body(self, k: int, meter: Meter) -> None:
        order, miss_offsets, hot_offsets = self.plan(k)
        tag, sizes = self._tag(k), self.sizes(k)
        job = f"/job/{tag}"
        steps: Dict[str, Callable[[], None]] = {
            "copy_read": lambda: meter.read_verify(
                self.fm, f"{job}/copy_read.dat", self.payload[: sizes.copy_in], CALL
            ),
            "remote_seq": lambda: meter.read_verify(
                self.fm, f"{job}/remote_seq.dat", self.payload[: sizes.big], CALL
            ),
            "remote_miss": lambda: self._random_reads(
                meter, f"{job}/remote_miss.dat", miss_offsets
            ),
            "remote_hot": lambda: self._random_reads(meter, f"{job}/remote_hot.dat", hot_offsets),
            "remote_write": lambda: self._write_checked(
                meter, f"{job}/remote_write.dat", "store1", f"/{tag}/out-remote.dat",
                sizes.remote_out, 4 * KIB,
            ),
            "copy_write": lambda: self._write_checked(
                meter, f"{job}/copy_write.dat", "store2", f"/{tag}/out-copy.dat",
                sizes.copy_out, CALL,
            ),
            "remote_replica": lambda: meter.read_verify(
                self.fm, f"{job}/remote_replica.dat", self.payload[: sizes.replica], CALL
            ),
            "local_replica": lambda: meter.read_verify(
                self.fm, f"{job}/local_replica.dat", self.payload[: sizes.replica], CALL
            ),
        }
        for step in order:
            meter.guarded(steps[step])

    def _random_reads(self, meter: Meter, path: str, offsets: List[int]) -> None:
        """One open, then ``seek`` + one 4 KiB ``read`` per offset."""
        t_open = _now()
        f = self.fm.open(path, "r")
        meter.ops += 1
        meter.modes.add(f.io_mode)
        try:
            for i, off in enumerate(offsets):
                f.seek(off)
                meter.ops += 1
                data = meter.read(f, 4 * KIB)
                if i == 0:
                    meter.first_byte_ns.append(_now() - t_open)
                if data != self.payload[off : off + 4 * KIB]:
                    meter.failed += 1
                meter.payload_bytes += len(data)
        finally:
            f.close()
            meter.ops += 1

    def _write_checked(
        self, meter: Meter, path: str, store: str, remote_path: str, nbytes: int, call: int
    ) -> None:
        """Write through the FM, then ask the store for the file's sha256."""
        data = self.payload[:nbytes]
        meter.write_all(self.fm, path, data, call)
        if self.dep.ftp_admin[store].checksum(remote_path) != hashlib.sha256(data).hexdigest():
            meter.failed += 1

    def latency_ceiling_mib_s(self) -> Optional[float]:
        # Four prefetch channels, one 256 KiB block each per round trip.
        return 4 * BLOCK / (2 * self.latency) / MIB


# ---------------------------------------------------------------------------
# six_mode_smallio
# ---------------------------------------------------------------------------

_SMALL_FILE = 128 * KIB
_N_FILES = 8
_N_OUT = 4
#: (calls per open, bytes per call): at most 32 calls of 1-4 KiB.
_SHAPES = [(n, c * KIB) for n in (1, 2, 4, 8, 16, 32) for c in (1, 2, 3, 4)]
_MODES = ("local", "copy", "remote", "remote-replica", "local-replica", "buffer")


class SixModeSmallIO(Workload):
    """All six IO modes round-robin, small calls, GNS over TCP."""

    name = "six_mode_smallio"
    #: Rounds (one op per mode) in a full pass.
    full_rounds = 120
    #: Each FM's TransferMonitor keeps the last 1024 samples per peer
    #: and re-scans them on every read-ahead decision, so small-IO ops
    #: slow down until those windows are full: about two passes.
    warmup_passes = 2

    def rounds(self, k: int) -> int:
        if k < 0:
            return 6
        return self.full_rounds // 6 if self.smoke else self.full_rounds

    def payload_size(self) -> int:
        return _N_FILES * _SMALL_FILE

    def _file(self, i: int) -> bytes:
        return self.payload[i * _SMALL_FILE : (i + 1) * _SMALL_FILE]

    def deploy(self, root: Path) -> None:
        dep = self.dep = Deployment(
            root, machines=("compute", "peer"), stores=("store1", "store2")
        )
        self.fm = dep.fm("compute", **self.ctx_overrides)
        self.fm_peer = dep.fm("peer", **self.ctx_overrides)
        records = []
        for i in range(_N_FILES):
            for store in ("store1", "store2"):
                dep.store_path(store, f"/small/f-{i}.dat").write_bytes(self._file(i))
                dep.catalog.register(
                    f"lfn://small-{i}", Replica(store, f"/small/f-{i}.dat", size=_SMALL_FILE)
                )
            records += [
                GnsRecord(
                    machine="compute", path=f"/remote/f-{i}.dat", mode=IOMode.REMOTE,
                    remote_host="store1", remote_path=f"/small/f-{i}.dat",
                ),
                GnsRecord(
                    machine="compute", path=f"/copy/f-{i}.dat", mode=IOMode.COPY,
                    remote_host="store2", remote_path=f"/small/f-{i}.dat",
                ),
                GnsRecord(
                    machine="compute", path=f"/rr/f-{i}.dat", mode=IOMode.REMOTE_REPLICA,
                    logical_name=f"lfn://small-{i}",
                ),
                GnsRecord(
                    machine="compute", path=f"/lr/f-{i}.dat", mode=IOMode.LOCAL_REPLICA,
                    logical_name=f"lfn://small-{i}", local_path=f"/cache/f-{i}.dat",
                ),
            ]
        for i in range(_N_OUT):
            records += [
                GnsRecord(
                    machine="compute", path=f"/remote/out-{i}.dat", mode=IOMode.REMOTE,
                    remote_host="store1", remote_path=f"/out/remote-{i}.dat",
                ),
                GnsRecord(
                    machine="compute", path=f"/copy/out-{i}.dat", mode=IOMode.COPY,
                    remote_host="store2", remote_path=f"/out/copy-{i}.dat",
                ),
            ]
        host, port = dep.buffer_server.address
        records.append(
            GnsRecord(
                machine="*", path="/job/pipe.dat", mode=IOMode.BUFFER,
                buffer=BufferEndpoint(stream="pipe", host=host, port=port, cache=False),
            )
        )
        dep.ns.add_all(records)
        _seed_weather(dep, self.seed)

    def plan(self, k: int) -> object:
        """Per mode, the same multiset of shapes for every seed; the
        seed decides their order, the file and the offset."""
        rounds = self.rounds(k)
        rng = random.Random(f"{self.seed}:plan")
        per_mode = {}
        for mode in _MODES:
            shapes = [_SHAPES[j % len(_SHAPES)] for j in range(rounds)]
            rng.shuffle(shapes)
            ops = []
            for calls, size in shapes:
                slack = _SMALL_FILE - calls * size
                ops.append(
                    (rng.randrange(_N_FILES), calls, size, rng.randrange(0, slack + 1, KIB))
                )
            per_mode[mode] = ops
        return per_mode

    def body(self, k: int, meter: Meter) -> None:
        per_mode = self.plan(k)
        for j in range(self.rounds(k)):
            for mode in _MODES:
                idx, calls, size, off = per_mode[mode][j]
                meter.guarded(lambda: self._op(meter, mode, j, idx, calls, size, off))

    def _op(self, meter: Meter, mode: str, j: int, idx: int, calls: int, size: int, off: int) -> None:
        data = self._file(idx)[off : off + calls * size]
        if mode == "local":
            # Write a scratch file on even rounds, read it back on odd ones.
            slot = (j // 2) % _N_OUT
            if j % 2 == 0:
                self._local_written = (slot, data)
                meter.write_all(self.fm, f"/scratch/l-{slot}.dat", data, size)
            else:
                slot, data = self._local_written
                meter.read_verify(self.fm, f"/scratch/l-{slot}.dat", data, size)
        elif mode in ("copy", "remote") and j % 4 == 3:
            slot = (j // 4) % _N_OUT
            store = "store1" if mode == "remote" else "store2"
            meter.write_all(self.fm, f"/{mode}/out-{slot}.dat", data, size)
            if self.dep.store_path(store, f"/out/{mode}-{slot}.dat").read_bytes() != data:
                meter.failed += 1
        elif mode == "buffer":
            self._pipe(meter, data, size)
        else:
            prefix = {"copy": "copy", "remote": "remote",
                      "remote-replica": "rr", "local-replica": "lr"}[mode]
            meter.read_verify(self.fm, f"/{prefix}/f-{idx}.dat", data, size, seek_to=off)

    def _pipe(self, meter: Meter, data: bytes, size: int) -> None:
        """One small stream: writer thread on ``peer``, reader here."""
        writer = Meter()
        thread = threading.Thread(
            target=writer.guarded,
            args=(lambda: writer.write_all(self.fm_peer, "/job/pipe.dat", data, size),),
            name="six-mode-writer",
        )
        thread.start()
        try:
            meter.read_verify(self.fm, "/job/pipe.dat", data, size)
        finally:
            thread.join(timeout=PASS_TIMEOUT_S)
            if thread.is_alive():
                writer.failed += 1
            self.dep.buffer_admin.drop_stream("pipe")
        writer.payload_bytes = 0
        meter.merge(writer)

    def run_pass(self, k: int) -> PassResult:
        result = super().run_pass(k)
        if result.meter.modes != set(IOMode):
            result.meter.failed += 1
            result.meter.errors.append(f"modes used: {sorted(m.value for m in result.meter.modes)}")
        return result


WORKLOADS = {
    cls.name: cls for cls in (StreamLan, StreamWan, FilesWan, SixModeSmallIO)
}

"""Golden frames: the wire contract, pinned as committed bytes.

One request and one reply per op family, hex-encoded in
``wire_golden.txt``.  Each must *encode* to exactly the committed bytes
and the committed bytes must *decode* back to the same header and
payload, so any change to the preamble, the field codec, or the
``OPS``/``KEYS`` id tables fails here first — the conformance suite
that stands in for keeping live old implementations around.

A failure means the wire changed.  If that is intended: bump
``WIRE_VERSION`` in ``repro/transport/wire.py`` when an already-deployed
peer could misread the new frames, then regenerate with

    PYTHONPATH=src python -m tests.test_wire_golden --regen
"""

import sys
from pathlib import Path

import pytest

from repro.transport.wire import (
    CRC_TRAILER_SIZE,
    PREAMBLE_SIZE,
    TRACE_KEY,
    check_preamble,
    decode_binary_header,
    verify_crc,
)

from ._frames import frame_bytes

GOLDEN = Path(__file__).with_name("wire_golden.txt")
HINT = "the wire changed: bump `WIRE_VERSION` and regenerate (see this module's docstring)"

#: name -> (header, payload).  Values cover every field-codec tag
#: (None/bool/int/float/str/list/dict, negative and multi-byte varints),
#: known and literal keys, and known (preamble id) and literal op names.
FRAMES = {
    "gb.write_multi.request": (
        {
            "op": "gb.write_multi", "name": "stream-1", "offsets": [0, 4096],
            "sizes": [4, 4], "timeout": None, "token": "a1b2c3d4e5f6", "seq": 7,
            TRACE_KEY: ["0f1e2d3c4b5a6978", "8796a5b4c3d2e1f0"],
        },
        b"aaaabbbb",
    ),
    "gb.write_multi.reply": ({"ok": True, "written": 8, "stall": "buffer_full"}, b""),
    "gb.read_multi.request": (
        {
            "op": "gb.read_multi", "name": "stream-1", "reader_id": "r0", "offset": 1 << 33,
            "budget": 65536, "min_bytes": 1, "timeout": 2.5, "peer": "10.0.0.7:4100",
            "peer_hints": 3,
        },
        b"",
    ),
    "gb.read_multi.reply": (
        {
            "ok": True, "eof": False, "total": None,
            "cached_at": {"peers": ["10.0.0.8:4100"], "start": 0, "end": 4194304},
        },
        bytes(range(256)),
    ),
    "gb.register_reader.request": (
        {
            "op": "gb.register_reader", "name": "stream-1", "reader_id": "compute:stream-1",
            "n_readers": 2, "capacity_bytes": None, "cache": True,
        },
        b"",
    ),
    "gns.resolve.request": (
        {"op": "gns.resolve", "machine": "m1", "path": "/job/in.dat", "ns": "tenant", "auth": "s3cret"},
        b"",
    ),
    "gns.resolve.reply": (
        {"ok": True, "record": {"machine": "m1", "path": "/job/in.dat", "mode": "local", "priority": -1}},
        b"",
    ),
    "gridftp.get_block.request": (
        {"op": "get_block", "path": "/data/f.bin", "offset": 65536, "length": 65536},
        b"",
    ),
    "gridftp.get_block.reply": ({"ok": True, "eof": True}, b"\x00\xff" * 32),
    # Every get_block reply carries the file's size: a proxy's open
    # probe is block 0 and learns the extent from the same frame.
    "gridftp.get_block.sized_reply": (
        {"ok": True, "offset": 0, "eof": False, "size": 300_000},
        bytes(range(256)),
    ),
    "_obs.health.request": ({"op": "_obs.health"}, b""),
    "_obs.health.reply": (
        {"ok": True, "status": "ok", "pid": 4242, "uptime_s": 1.5, "ops": ["_obs.health", "gb.read"]},
        b"",
    ),
    "error.reply": ({"ok": False, "error": "unknown-op", "message": "no handler for 'x'"}, b""),
}


def _load():
    return dict(line.split() for line in GOLDEN.read_text().splitlines() if line.strip())


@pytest.mark.parametrize("name", sorted(FRAMES))
def test_encodes_to_the_committed_bytes(name):
    header, payload = FRAMES[name]
    assert frame_bytes(header, payload).hex() == _load()[name], HINT


@pytest.mark.parametrize("name", sorted(FRAMES))
def test_committed_bytes_decode_to_the_same_frame(name):
    header, payload = FRAMES[name]
    raw = bytes.fromhex(_load()[name])
    opid, flen, plen = check_preamble(raw)
    fields_end = PREAMBLE_SIZE + flen
    assert len(raw) == fields_end + plen + CRC_TRAILER_SIZE, HINT
    got_payload = raw[fields_end : fields_end + plen]
    got = decode_binary_header(opid, raw[PREAMBLE_SIZE:fields_end], plen)
    verify_crc(got, got_payload, raw[fields_end + plen :])
    assert got == dict(header, payload_len=len(payload)), HINT
    assert got_payload == payload, HINT


def test_fixture_file_has_no_strays():
    assert sorted(_load()) == sorted(FRAMES), HINT


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit(__doc__)
    GOLDEN.write_text(
        "".join(f"{name} {frame_bytes(*FRAMES[name]).hex()}\n" for name in sorted(FRAMES))
    )
    print(f"wrote {len(FRAMES)} frames to {GOLDEN}")

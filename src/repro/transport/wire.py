"""Binary wire framing for the RPC layer: one version, refused loudly.

Every frame on every connection is::

    +-------+---------+-------+--------+------------+-------------+
    | magic | version | flags | op id  | fields_len | payload_len |
    |  0xB1 |  uint8  | uint8 | u16 BE |   u32 BE   |   u32 BE    |
    +-------+---------+-------+--------+------------+-------------+

(14 bytes, fixed) followed by ``fields_len`` bytes of a compact
varint-packed field table (the op arguments — the self-describing
envelope that stands in for the paper's SOAP message), ``payload_len``
bytes of raw payload, and a 4-byte big-endian crc32 of the payload.

There is no negotiation and no second framing.  The wire version *is*
the capability set: a peer either sends :data:`WIRE_VERSION` frames
with :data:`FLAG_CRC` set, or :func:`check_preamble` refuses its first
frame with a :class:`WireVersionError` — typed, counted by the
receiver, and never retried.  Preamble validation and CRC verification
live here, once, and both the sync client (:mod:`repro.transport.tcp`)
and the async engine (:mod:`repro.transport.aio`) call them.

Changing the wire
-----------------

1. Edit the layout, :data:`OPS` or :data:`KEYS` (both append-only: ids
   are part of the contract; retire a name by leaving its slot).
2. Bump :data:`WIRE_VERSION` if an old peer could misread the result.
3. Run ``PYTHONPATH=src python -m tests.test_wire_golden --regen`` and
   commit the new hex fixtures with the change.
4. Mixed-version fleets are not supported: deploy both ends together.

Field table
-----------

``varint count`` then per field: a key id (varint; well-known keys from
:data:`KEYS` encode as one byte, anything else as id 0 + literal
string) and a type-tagged value:

====  =======================================================
tag   encoding
====  =======================================================
0/1/2 None / True / False (no body)
3     int — zigzag varint
4     float — 8-byte IEEE big-endian
5     str — varint length + UTF-8
6     bytes — varint length + raw
7     list — varint count + values
8     dict — varint count + (str key, value) pairs
====  =======================================================

Known op names from :data:`OPS` ride in the preamble's op id; unknown
ops set id 0 and carry the name in the field table, so arbitrary
test/bench handlers work unchanged.

Scratch buffers
---------------

:func:`build_binary_frame` encodes into a caller-owned ``bytearray``
that is cleared and reused across frames, so the steady-state send path
performs no per-frame header allocations.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, Mapping, Tuple

from .. import ioutil

__all__ = [
    "MAGIC",
    "WIRE_VERSION",
    "PREAMBLE",
    "PREAMBLE_SIZE",
    "TRACE_KEY",
    "FLAG_CRC",
    "KNOWN_FLAGS",
    "CRC_TRAILER",
    "CRC_TRAILER_SIZE",
    "MAX_FIELDS",
    "OPS",
    "op_id",
    "op_name",
    "encode_fields",
    "decode_fields",
    "build_binary_frame",
    "crc_trailer",
    "check_preamble",
    "decode_binary_header",
    "verify_crc",
    "WireError",
    "FrameError",
    "WireVersionError",
    "IntegrityError",
]

#: First byte of every frame.
MAGIC = 0xB1

#: Bumped for any change an already-deployed peer could misread; a
#: frame of another version is refused, never degraded to.
WIRE_VERSION = 1

#: magic, version, flags, op id, fields_len, payload_len.
PREAMBLE = struct.Struct(">BBBHII")
PREAMBLE_SIZE = PREAMBLE.size

#: Header key carrying the caller's trace context (``[trace_id,
#: span_id]``), a one-byte known-key id in the field table.
TRACE_KEY = "_trace"

#: Preamble flag bit, set on every frame: the payload is followed by a
#: 4-byte big-endian crc32 trailer computed over the payload bytes
#: (masked to unsigned, :func:`repro.ioutil.crc32`).  The trailer
#: covers *only* the payload — the preamble and field table are
#: length-delimited and structurally validated, while the payload is
#: the part that flows through opaque bulk-copy paths where a flipped
#: bit survives parsing.  A frame without it is refused, so nothing on
#: the wire is ever silently unchecksummed.
FLAG_CRC = 0x01

#: Mask of flag bits this build understands.  A frame carrying any
#: other bit is refused (we cannot know how many trailer bytes it
#: implies, so reading on would desynchronise the stream).
KNOWN_FLAGS = FLAG_CRC

CRC_TRAILER = struct.Struct(">I")
CRC_TRAILER_SIZE = CRC_TRAILER.size

#: Largest field table a peer may claim.  ``fields_len`` is a u32 read
#: off the network before anything is allocated for it; real tables are
#: tens of bytes, so the cap only ever stops a hostile or garbled
#: preamble from forcing a multi-GiB buffer.
MAX_FIELDS = 16 * 1024 * 1024

_FLOAT = struct.Struct(">d")


class WireError(ValueError):
    """Malformed binary field table."""


class FrameError(ConnectionError):
    """Malformed frame or closed connection mid-frame."""


class WireVersionError(FrameError):
    """The peer does not speak this build's wire (see :func:`check_preamble`).

    Permanent for the peer, not a flaky link: clients raise it after
    exactly one attempt and servers count it and hang up.  ``reason``
    is the ``rpc_bad_frames_total`` label: ``magic``, ``version``,
    ``flags``, ``no-crc`` or ``fields-len``.
    """

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


class IntegrityError(OSError):
    """A frame or block failed checksum verification.

    Deliberately *not* a :class:`ConnectionError`: the connection is
    healthy, the data is wrong.  It still subclasses :class:`OSError`
    so every recovery path built in PRs 4–8 (idempotency-gated RPC
    retries, replica failover, copy-in resume, GNS degradation) treats
    a detected corruption exactly like any other transient IO failure:
    drop the tainted source, re-request from a clean one.
    """


# ---------------------------------------------------------------------------
# Op and key tables (append-only: ids are part of the wire contract)
# ---------------------------------------------------------------------------

OPS: Tuple[str, ...] = (
    # Grid Buffer
    "gb.create", "gb.register_reader", "gb.write", "gb.write_multi",
    "gb.read",  # retired; slot kept so ids never shift
    "gb.read_multi",
    "gb.consume",  # retired; slot kept so ids never shift
    "gb.consume_multi",
    "gb.close_writer", "gb.stats", "gb.drop",
    "gb.exists",  # retired; slot kept so ids never shift
    "gb.abort", "gb.resume", "gb.high_water",
    # GridFTP-like file server
    "size", "exists", "get_block", "put_block", "checksum",
    "mkdirs",  # retired; slot kept so ids never shift
    "delete", "pull_from",
    # GNS
    "gns.resolve", "gns.add", "gns.remove", "gns.list",
    "gns.announce", "gns.pin",
    "gb.peer_read",  # retired; slot kept so ids never shift
    # GNS control plane (PR 10): atomic multi-record transactions and
    # long-poll change subscriptions.
    "gns.txn", "gns.watch",
)

_OP_TO_ID: Dict[str, int] = {name: i + 1 for i, name in enumerate(OPS)}
_ID_TO_OP: Dict[int, str] = {i + 1: name for i, name in enumerate(OPS)}

KEYS: Tuple[str, ...] = (
    "op", "ok", "error", "message", "name", "reader_id", "offset",
    "length", "timeout", "budget", "min_bytes", "ranges", "token",
    "seq", "offsets", "sizes", "n_readers", "capacity_bytes", "cache",
    "eof", "total", "written", "stall", "stats", "exists", "path",
    "truncate", "src_host", "src_port", "src_path", "dst_path",
    "streams", "block_size", "entries", "reason", "deleted", "sha256",
    "size", "bytes", "machine", "record", "records", "payload_len",
    "_wire",  # retired (the old capability probe); slot kept so ids never shift
    TRACE_KEY,
    "gen",  # the stream generation a reader registered under
    "peer",  # retired; slot kept so ids never shift
    "holds",  # retired; slot kept so ids never shift
    "drops",  # retired; slot kept so ids never shift
    "peer_hints",  # retired; slot kept so ids never shift
    "cached_at",  # retired; slot kept so ids never shift
    "origin",  # retired; slot kept so ids never shift
    "crc",  # retired; slot kept so ids never shift
    "hint_from",  # retired; slot kept so ids never shift
    # GNS control plane (PR 10).  ``ns`` scopes an op to a namespace,
    # ``auth`` carries its bearer token, ``revision``/``from_revision``
    # frame the change log, ``events`` is a watch reply's change batch,
    # ``reset`` marks a compaction-forced snapshot, ``ops`` a txn's
    # operation list, ``removed`` the gns.remove reply count.
    "ns", "auth", "revision", "from_revision", "events", "reset",
    "ops", "removed",
)

_KEY_TO_ID: Dict[str, int] = {name: i + 1 for i, name in enumerate(KEYS)}
_ID_TO_KEY: Dict[int, str] = {i + 1: name for i, name in enumerate(KEYS)}


def op_id(op: str) -> int:
    """Wire id for a known op, or 0 (op name travels in the fields)."""
    return _OP_TO_ID.get(op, 0)


def op_name(opid: int) -> str:
    return _ID_TO_OP.get(opid, "")


# ---------------------------------------------------------------------------
# Varint field codec
# ---------------------------------------------------------------------------


def _put_uvarint(out: bytearray, n: int) -> None:
    while n > 0x7F:
        out.append((n & 0x7F) | 0x80)
        n >>= 7
    out.append(n)


def _put_value(out: bytearray, value: Any) -> None:
    if value is None:
        out.append(0)
    elif value is True:
        out.append(1)
    elif value is False:
        out.append(2)
    elif type(value) is int:
        out.append(3)
        _put_uvarint(out, (value << 1) ^ (value >> 63) if value >= 0 else ((-value) << 1) - 1)
    elif type(value) is float:
        out.append(4)
        out += _FLOAT.pack(value)
    elif type(value) is str:
        raw = value.encode("utf-8")
        out.append(5)
        _put_uvarint(out, len(raw))
        out += raw
    elif isinstance(value, (bytes, bytearray, memoryview)):
        out.append(6)
        _put_uvarint(out, len(value))
        out += value
    elif isinstance(value, (list, tuple)):
        out.append(7)
        _put_uvarint(out, len(value))
        for item in value:
            _put_value(out, item)
    elif isinstance(value, dict):
        out.append(8)
        _put_uvarint(out, len(value))
        for key, item in value.items():
            raw = str(key).encode("utf-8")
            _put_uvarint(out, len(raw))
            out += raw
            _put_value(out, item)
    elif isinstance(value, int):  # bool handled above; int subclasses
        out.append(3)
        _put_uvarint(out, (value << 1) if value >= 0 else ((-value) << 1) - 1)
    elif isinstance(value, float):
        out.append(4)
        out += _FLOAT.pack(value)
    else:
        raise WireError(f"unencodable header value type {type(value).__name__}")


def encode_fields(header: Mapping[str, Any], out: bytearray) -> None:
    """Append the varint field table for ``header`` to ``out``.

    ``payload_len`` is skipped — it lives in the preamble.
    """
    count_pos = len(out)
    count = 0
    out.append(0)  # patched below (field counts stay < 128 in practice)
    key_ids = _KEY_TO_ID
    for key, value in header.items():
        if key == "payload_len":
            continue
        kid = key_ids.get(key, 0)
        if kid:
            out.append(kid)
        else:
            out.append(0)
            raw = key.encode("utf-8")
            _put_uvarint(out, len(raw))
            out += raw
        _put_value(out, value)
        count += 1
    if count > 0x7F:
        raise WireError(f"too many header fields ({count})")
    out[count_pos] = count


def _get_uvarint(buf, pos: int) -> Tuple[int, int]:
    shift = 0
    result = 0
    while True:
        b = buf[pos]
        pos += 1
        result |= (b & 0x7F) << shift
        if not b & 0x80:
            return result, pos
        shift += 7
        if shift > 70:
            raise WireError("varint overflow")


def _get_value(buf, pos: int) -> Tuple[Any, int]:
    tag = buf[pos]
    pos += 1
    if tag == 0:
        return None, pos
    if tag == 1:
        return True, pos
    if tag == 2:
        return False, pos
    if tag == 3:
        raw, pos = _get_uvarint(buf, pos)
        return (raw >> 1) if not raw & 1 else -((raw + 1) >> 1), pos
    if tag == 4:
        return _FLOAT.unpack_from(buf, pos)[0], pos + 8
    if tag == 5:
        n, pos = _get_uvarint(buf, pos)
        return bytes(buf[pos : pos + n]).decode("utf-8"), pos + n
    if tag == 6:
        n, pos = _get_uvarint(buf, pos)
        return bytes(buf[pos : pos + n]), pos + n
    if tag == 7:
        n, pos = _get_uvarint(buf, pos)
        items = []
        for _ in range(n):
            item, pos = _get_value(buf, pos)
            items.append(item)
        return items, pos
    if tag == 8:
        n, pos = _get_uvarint(buf, pos)
        out: Dict[str, Any] = {}
        for _ in range(n):
            klen, pos = _get_uvarint(buf, pos)
            key = bytes(buf[pos : pos + klen]).decode("utf-8")
            pos += klen
            out[key], pos = _get_value(buf, pos)
        return out, pos
    raise WireError(f"unknown value tag {tag}")


def decode_fields(buf) -> Dict[str, Any]:
    """Decode a field table (bytes/memoryview) back into a dict."""
    try:
        count = buf[0]
        pos = 1
        out: Dict[str, Any] = {}
        keys = _ID_TO_KEY
        for _ in range(count):
            kid = buf[pos]
            pos += 1
            if kid:
                key = keys.get(kid)
                if key is None:
                    raise WireError(f"unknown key id {kid}")
            else:
                klen, pos = _get_uvarint(buf, pos)
                key = bytes(buf[pos : pos + klen]).decode("utf-8")
                pos += klen
            out[key], pos = _get_value(buf, pos)
        if pos != len(buf):
            raise WireError(f"{len(buf) - pos} trailing bytes after field table")
        return out
    except (IndexError, struct.error) as exc:
        raise WireError(f"truncated field table: {exc}") from exc


# ---------------------------------------------------------------------------
# Frame builders (scratch-buffer based: no per-frame header allocations)
# ---------------------------------------------------------------------------


def build_binary_frame(
    scratch: bytearray, header: Mapping[str, Any], payload_len: int
) -> None:
    """Encode preamble + field table into ``scratch`` (cleared first).

    The payload itself is *not* appended — the caller either appends it
    (small frames: one ``sendall``) or gathers it (``sendmsg`` /
    separate ``write``), so large payloads are never copied here — and
    then appends :func:`crc_trailer` of it.
    """
    del scratch[:]
    scratch += b"\x00" * PREAMBLE_SIZE
    opid = _OP_TO_ID.get(header.get("op", ""), 0)
    if opid:
        encode_fields({k: v for k, v in header.items() if k != "op"}, scratch)
    else:
        encode_fields(header, scratch)
    fields_len = len(scratch) - PREAMBLE_SIZE
    PREAMBLE.pack_into(scratch, 0, MAGIC, WIRE_VERSION, FLAG_CRC, opid, fields_len, payload_len)


def crc_trailer(payload) -> bytes:
    """The 4 bytes that follow ``payload`` on the wire."""
    return CRC_TRAILER.pack(ioutil.crc32(payload))


def check_preamble(raw) -> Tuple[int, int, int]:
    """Validate a received preamble; returns ``(op id, fields_len, payload_len)``.

    The one place a peer of another wire version is told apart from
    ours.  Anything but our magic, our version, exactly the flags we
    know with :data:`FLAG_CRC` among them, and a sane field-table
    length raises :class:`WireVersionError` before a byte more is read
    or allocated — reading on past an unknown flag or a missing trailer
    would desynchronise the stream.
    """
    magic, version, flags, opid, fields_len, payload_len = PREAMBLE.unpack_from(raw, 0)
    if magic != MAGIC:
        raise WireVersionError("magic", f"not a wire frame (first byte 0x{magic:02x})")
    if version != WIRE_VERSION:
        raise WireVersionError(
            "version", f"peer speaks wire version {version}, this build speaks {WIRE_VERSION}"
        )
    if flags & ~KNOWN_FLAGS:
        raise WireVersionError("flags", f"unsupported wire flags 0x{flags:02x}")
    if not flags & FLAG_CRC:
        raise WireVersionError("no-crc", "frame without a CRC trailer")
    if fields_len > MAX_FIELDS:
        raise WireVersionError(
            "fields-len", f"field table length {fields_len} exceeds maximum {MAX_FIELDS}"
        )
    return opid, fields_len, payload_len


def decode_binary_header(opid: int, fields, payload_len: int) -> Dict[str, Any]:
    """Field table + preamble -> the header dict handlers expect."""
    header = decode_fields(fields)
    if opid:
        name = _ID_TO_OP.get(opid)
        if name is None:
            raise WireError(f"unknown op id {opid}")
        header["op"] = name
    header["payload_len"] = payload_len
    return header


def verify_crc(header: Mapping[str, Any], payload, trailer) -> None:
    """Check a received payload against its trailer.

    Raises :class:`IntegrityError` *after* the caller has consumed the
    whole frame, so the failure is about the data, not the framing: the
    stream is still in sync.
    """
    want = CRC_TRAILER.unpack(trailer)[0]
    got = ioutil.crc32(payload)
    if got != want:
        raise IntegrityError(
            f"payload CRC mismatch on {header.get('op', '?')!r} frame: "
            f"got {got:#010x} want {want:#010x} ({len(payload)} bytes)"
        )

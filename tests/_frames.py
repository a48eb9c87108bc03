"""Raw-frame builders for tests that speak to the transport byte by byte."""

import json

from repro.transport.wire import build_binary_frame, crc_trailer


def frame_bytes(header, payload: bytes = b"") -> bytes:
    """One complete wire frame: preamble + field table + payload + CRC."""
    scratch = bytearray()
    build_binary_frame(scratch, header, len(payload))
    return bytes(scratch) + payload + crc_trailer(payload)


def legacy_json_frame(header, payload: bytes = b"") -> bytes:
    """A pre-binary peer's frame: u32 length + JSON header + payload."""
    raw = json.dumps(dict(header, payload_len=len(payload))).encode("utf-8")
    return len(raw).to_bytes(4, "big") + raw + payload

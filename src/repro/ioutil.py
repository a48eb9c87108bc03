"""Small IO helpers shared across FM clients.

CPython's ``io.RawIOBase`` implements ``read()`` in terms of
``readinto()`` — not the other way round — so raw classes that only
define ``read()`` break under ``io.BufferedReader``.
:class:`ReadIntoFromRead` supplies the missing direction.

This module also hosts the shared integrity primitives: the masked
crc32 behind the wire frames' checksum, a whole-file sha256 helper, and the
``integrity_errors_total{layer,action}`` counter every detection site
increments so one query answers "did corruption fire, and where was it
caught?".
"""

from __future__ import annotations

import hashlib
import zlib
from pathlib import Path
from typing import Union

from . import obs

__all__ = ["ReadIntoFromRead", "crc32", "sha256_file", "count_integrity_error"]

_INTEGRITY_ERRORS = obs.counter(
    "integrity_errors_total",
    "Corruption detections by layer and recovery action taken",
    labelnames=("layer", "action"),
)


def crc32(data: Union[bytes, bytearray, memoryview]) -> int:
    """zlib crc32 masked to an unsigned 32-bit value.

    The single definition behind every checksum in the tree: the binary
    wire trailer is computed and verified here.
    """
    return zlib.crc32(data) & 0xFFFFFFFF


def sha256_file(path: Union[str, Path], chunk_size: int = 1 << 20) -> str:
    """Streaming sha256 of a file — the whole-file transfer checksum."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(chunk_size)
            if not chunk:
                break
            digest.update(chunk)
    return digest.hexdigest()


def count_integrity_error(layer: str, action: str) -> None:
    """Record one detected corruption at ``layer``, healed via ``action``."""
    _INTEGRITY_ERRORS.labels(layer=layer, action=action).inc()


class ReadIntoFromRead:
    """Mixin providing ``readinto`` for classes that implement ``read``."""

    def readinto(self, buffer) -> int:  # type: ignore[override]
        data = self.read(len(buffer))  # type: ignore[attr-defined]
        n = len(data)
        buffer[:n] = data
        return n

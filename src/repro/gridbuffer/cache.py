"""Cache file behind a Grid Buffer stream.

The Grid Buffer's in-memory hash table deletes blocks as they are
consumed; the cache file is what lets a reader *re-read* earlier data
or seek backwards (Section 3.1: DARLAM re-reads input that has already
been deleted from the hash table "and it is read from the cache file
instead... transparently").

A cache is a sparse local file plus an interval set recording which
byte ranges are valid.  It can sit at either end of the connection
(writer-end or reader-end, Section 4).
"""

from __future__ import annotations

import os
import threading
from pathlib import Path
from typing import Iterable, List, Optional, Tuple

__all__ = ["IntervalSet", "BufferCache"]


class IntervalSet:
    """Sorted set of disjoint half-open integer intervals [start, end).

    Supports add (with merging), remove, containment and coverage queries.
    Used to track which byte ranges of a cache file hold valid data.
    """

    def __init__(self, intervals: Optional[Iterable[Tuple[int, int]]] = None):
        self._ivs: List[Tuple[int, int]] = []
        if intervals:
            for s, e in intervals:
                self.add(s, e)

    def add(self, start: int, end: int) -> None:
        """Insert [start, end), merging overlapping/adjacent intervals."""
        if end < start:
            raise ValueError(f"end ({end}) < start ({start})")
        if end == start:
            return
        out: List[Tuple[int, int]] = []
        placed = False
        for s, e in self._ivs:
            if e < start or s > end:  # disjoint, not even adjacent
                if s > end and not placed:
                    out.append((start, end))
                    placed = True
                out.append((s, e))
            else:  # overlaps or touches: merge
                start = min(start, s)
                end = max(end, e)
        if not placed:
            out.append((start, end))
        out.sort()
        self._ivs = out

    def remove(self, start: int, end: int) -> None:
        """Delete [start, end), splitting any interval that straddles it."""
        if end <= start:
            return  # an empty range must not split an interval into adjacent halves
        out: List[Tuple[int, int]] = []
        for s, e in self._ivs:
            if e <= start or s >= end:
                out.append((s, e))
                continue
            if s < start:
                out.append((s, start))
            if e > end:
                out.append((end, e))
        self._ivs = out

    def covers(self, start: int, end: int) -> bool:
        """True if every byte of [start, end) is present."""
        if end <= start:
            return True
        for s, e in self._ivs:
            if s <= start < e:
                if end <= e:
                    return True
                start = e  # continue from where this interval stops
            elif s > start:
                return False
        return False

    def first_gap(self, start: int, end: int) -> Optional[Tuple[int, int]]:
        """The first missing sub-range of [start, end), or None."""
        if end <= start:
            return None
        pos = start
        for s, e in self._ivs:
            if e <= pos:
                continue
            if s > pos:
                return (pos, min(s, end))
            pos = e
            if pos >= end:
                return None
        return (pos, end) if pos < end else None

    def intervals(self) -> List[Tuple[int, int]]:
        return list(self._ivs)

    def total(self) -> int:
        return sum(e - s for s, e in self._ivs)

    def __bool__(self) -> bool:
        return bool(self._ivs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntervalSet) and self._ivs == other._ivs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IntervalSet({self._ivs!r})"


class BufferCache:
    """Sparse file + validity map for one buffered stream."""

    def __init__(self, path: Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # Create/truncate: each stream owns a fresh cache file.
        with open(self.path, "wb"):
            pass
        self._valid = IntervalSet()
        self._lock = threading.Lock()

    def store(self, offset: int, data: bytes) -> None:
        """Record ``data`` at ``offset`` as valid cache contents."""
        if offset < 0:
            raise ValueError("offset must be >= 0")
        if not data:
            return
        with self._lock:
            with open(self.path, "r+b") as fh:
                fh.seek(0, os.SEEK_END)
                if fh.tell() < offset:
                    fh.truncate(offset)  # grow sparsely
                fh.seek(offset)
                fh.write(data)
            self._valid.add(offset, offset + len(data))

    def has(self, offset: int, length: int) -> bool:
        with self._lock:
            return self._valid.covers(offset, offset + length)

    def load(self, offset: int, length: int) -> bytes:
        """Read a fully valid range; raises KeyError on any gap."""
        with self._lock:
            if not self._valid.covers(offset, offset + length):
                gap = self._valid.first_gap(offset, offset + length)
                raise KeyError(f"cache miss at {gap}")
            with open(self.path, "rb") as fh:
                fh.seek(offset)
                return fh.read(length)

    def valid_upto(self, start: int = 0) -> int:
        """Largest ``n`` such that [start, n) is fully cached."""
        with self._lock:
            gap = self._valid.first_gap(start, 1 << 62)
            return (1 << 62) if gap is None else gap[0]

    def total_cached(self) -> int:
        with self._lock:
            return self._valid.total()

    def close(self, delete: bool = False) -> None:
        if delete:
            try:
                self.path.unlink()
            except FileNotFoundError:
                pass

"""Wire-protocol constants for the Grid Buffer service.

The paper's implementation used SOAP over Web Services; we keep the
role (self-describing messages on one firewall-friendly channel) on the
binary-framed RPC layer (:mod:`repro.transport.wire`).  The op set
below is part of the wire version: client and server always speak all
of it, so no op has a fallback.  Block size defaults to 4096 bytes —
the typical write size the paper reports for the climate models.
"""

from __future__ import annotations

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "DEFAULT_CAPACITY",
    "DEFAULT_READ_BUDGET",
    "OP_CREATE",
    "OP_REGISTER_READER",
    "OP_WRITE",
    "OP_WRITE_MULTI",
    "OP_READ_MULTI",
    "OP_CONSUME_MULTI",
    "OP_CLOSE_WRITER",
    "OP_STATS",
    "OP_DROP",
    "OP_ABORT",
    "OP_RESUME",
    "OP_HIGH_WATER",
]

#: Typical legacy-application write granularity (paper Section 5.3).
DEFAULT_BLOCK_SIZE = 4096

#: Default per-stream table capacity; bounded so backpressure exists.
DEFAULT_CAPACITY = 32 * 1024 * 1024

#: Default byte budget for a windowed (vectored) read.
DEFAULT_READ_BUDGET = DEFAULT_BLOCK_SIZE * 16

OP_CREATE = "gb.create"

#: Attach a reader.  Header: ``name``, ``reader_id``.  A reader's open
#: also carries the stream's config — ``n_readers``, ``capacity_bytes``
#: and ``cache``, the ``gb.create`` keys — and the server creates the
#: stream first if it is absent, so the open is one round trip.  A
#: register without ``n_readers`` (a recovering reader's) never
#: creates.  Reply: ``{"gen": int}``, the stream's generation.
OP_REGISTER_READER = "gb.register_reader"
OP_WRITE = "gb.write"
OP_CLOSE_WRITER = "gb.close_writer"
OP_STATS = "gb.stats"
OP_DROP = "gb.drop"
OP_ABORT = "gb.abort"
OP_RESUME = "gb.resume"
OP_HIGH_WATER = "gb.high_water"

# -- vectored ops -----------------------------------------------------------
# Same frames, more per round trip.  ``gb.write`` above stays on the
# hot path: a batch of one contiguous run rides it.  Every read — a
# window prefetch and a reader's inline head fetch alike — is
# ``gb.read_multi``; the single-block ``gb.read`` is retired (its id
# slot stays reserved in :data:`repro.transport.wire.OPS`).

#: Scatter several blocks in one frame.  Header: ``name``, ``offsets``
#: (list), ``sizes`` (list, same length); payload is the blocks
#: concatenated in order.  Reply: ``{"written": total}``.
OP_WRITE_MULTI = "gb.write_multi"

#: Windowed read: return as many contiguous bytes as are available at
#: ``offset`` up to ``budget`` in one reply (blocking only while
#: nothing is available).  Header additionally carries ``min_bytes``
#: (wait until at least this much is available or the window/EOF
#: bounds it).  Reply: ``{"eof": bool, "total": int
#: | null}`` — ``total`` is the stream length once the writer closed,
#: letting clients stop scheduling read-ahead past EOF.
OP_READ_MULTI = "gb.read_multi"

#: Mark byte ranges consumed for readers *without* transferring them.
#: Header: ``name``, ``entries`` — a list of ``[reader_id, ranges]``
#: pairs, ranges as lists of [start, end).  Every reader and its GC run
#: as if it had read the ranges, in one frame and one server-side GC
#: pass.  The stream readers never send it: each reads its own bytes.
OP_CONSUME_MULTI = "gb.consume_multi"

"""The wire protocol: JSON header lines, binary result bodies.

Every frame is one JSON object on one line; a frame that carries result
rows may be followed by a binary body (see *Result frames* below).

Requests::

    {"op": "execute", "sql": "...", "params": [...]}
    {"op": "batch", "statements": [{"sql": "...", "params": [...]}, ...]}
    {"op": "prepare", "sql": "..."}            # compile once, get a handle
    {"op": "execute_prepared", "handle": h, "params": [...]}
    {"op": "execute_prepared", "handle": h, "many": [[...], ...]}
    {"op": "deallocate", "handle": h}          # drop the handle
    {"op": "set_now", "now": "1999-09-01"}     # null clears the override
    {"op": "hello", "session": "label"}        # name the connection key
    {"op": "metrics"}                          # the METRICS frame
    {"op": "profile"}                          # the PROFILE frame
    {"op": "flight"}                           # the FLIGHT frame
    {"op": "credit", "n": k}                   # mid-stream backpressure grant
    {"op": "ping"}
    {"op": "close"}

Responses carry their rows column-major in ``cols`` (``n`` only when
the result has no columns; ``lens`` only when some column travels in
the binary body; see *Result frames* below)::

    {"ok": true, "cols": [["a", "b"], "q", "i"], "lens": [16, 8, 2, 16, 50],
     "columns": [...], "rowcount": n, "statement_now": "...",
     "body": 92, "crc": 3735928559}<newline><92 body bytes>
    {"ok": false, "error": "message", "kind": "OperationalError"}

**Pipelining.**  A ``BATCH`` frame carries many statements in one round
trip; the response carries one execute-shaped result per statement, in
order, and a failed statement never aborts the rest::

    {"ok": true, "results": [{"ok": true, "cols": [...], ...},
                             {"ok": false, "error": "...", "kind": "..."},
                             ...]}

**Streaming.**  An ``execute`` with ``"stream": true`` (optional
``"chunk"`` rows per frame, ``"window"`` initial credit in chunks)
answers with zero or more ``ROWS`` continuation frames followed by one
``DONE`` frame::

    {"ok": true, "cont": "rows", "cols": [...]}        # <= chunk rows
                                    # (+ "lens" and a body, as below)
    {"ok": true, "cont": "done", "columns": [...],
     "rowcount": n, "rows_streamed": n, "statement_now": "..."}

The server sends at most ``window`` chunks ahead of the client's
acknowledgements; the client grants more with ``{"op": "credit",
"n": k}`` frames as it consumes (one credit = one chunk), so a slow
consumer bounds the server's buffering instead of the other way
around.  A chunk whose frame (header and body) would exceed the frame
bound splits in half until it fits; a single row that still cannot
fit ends the stream with a typed mid-stream failure ``{"ok": false,
"cont": "done", "kind": "FrameTooLarge"}``.  Any non-credit frame sent mid-stream aborts the
stream with a typed ``ProtocolError`` DONE (the offending frame is
consumed, the session survives).

**Prepared statements.**  ``PREPARE`` compiles one statement (tSQL
modifiers included) through the server's compiled-statement cache
(:mod:`repro.tsql.compiled`) and answers with a session-scoped handle,
the translated SQL, the positional parameter count, and the registry
generation the plan was compiled under::

    {"ok": true, "handle": 1, "sql": "SELECT ...", "params": 2,
     "generation": 7}

``execute_prepared`` binds ``params`` to the handle's plan and answers
execute-shaped; with ``many`` (a list of parameter rows) the plan runs
under ``executemany`` on the writer — one NOW binding, one commit —
and the response carries the cumulative ``rowcount`` plus ``count``
(rows of parameters consumed).  ``deallocate`` drops the handle.
Handles are private to the session that prepared them and die with the
connection.  Typed errors, both ``retry_safe`` (the statement provably
did not run):

* ``UnknownStatement`` — the handle was never prepared on this
  session, or was deallocated (a reconnect loses all handles);
* ``StaleStatement`` — the temporal-table registry or schema changed
  (DDL, ``register()``) after the plan was compiled; re-prepare.

**HELLO.**  ``{"op": "hello", "session": "label"}`` names the
session's *connection key* — the identity under which the keyed fault
points (``pool.checkout``, ``wal.checkpoint``) book their per-connection
hit sequences.  Unlabelled sessions get a per-server ordinal key.

**Trace propagation.**  An ``execute`` request may carry a trace
context and ask for the statement's profile::

    {"op": "execute", "sql": "...",
     "trace": {"trace_id": "<hex128>", "span_id": "<hex64>"},
     "profile": true}

The server adopts ``trace_id`` and runs the statement as a child span
of ``span_id``, so the client-side and server-side spans of one
statement form a single trace.  When a profile was collected (the
server profiler is on, or ``"profile": true`` forced a one-shot), the
response gains::

    {"ok": true, ...,
     "profile": { ... QueryProfile.as_dict() ... },
     "trace": {"trace_id": "...", "span_id": "<server span>",
               "parent_span_id": "<client span>"}}

**The PROFILE frame** returns the server's recent per-statement
profiles (``{"op": "profile", "last": n, "slow": true}`` selects the
slow-query log instead)::

    {"ok": true, "enabled": true, "slow_threshold": 0.5,
     "profiles": [{"sql": ..., "wall_seconds": ...,
                   "routines": {...}, ...}, ...]}

**The FLIGHT frame** returns the server's flight-recorder ring — the
bounded timeline of structured events (statement begin/end, batch and
stream lifecycle, pool checkouts and writer waits, WAL checkpoints,
cache traffic, fired faults; see :mod:`repro.obs.flight`).  Optional
request fields filter: ``"last": n`` (newest *n* events),
``"session"`` (one connection key), ``"trace"`` (one trace id), and
``"kind"`` (exact kind or dotted prefix, e.g. ``"stmt"``)::

    {"ok": true, "enabled": true,
     "events": [{"seq": 1, "ts": 12.345, "kind": "stmt.begin",
                 "session": "s1", "data": {"sql": "SELECT ..."}}, ...]}

Error responses may carry ``"retry_safe": true`` when the server can
guarantee the request was **never executed** (it could not even be
parsed), so a hardened client may replay it without risking a double
apply.  Frames are bounded: a request line longer than the server's
``max_frame_bytes`` yields ``{"ok": false, "kind": "FrameTooLarge",
"retry_safe": false}`` after the server drains to the next newline, and
the session stays usable.  A partial frame followed by EOF (a peer that
died mid-send) closes the session cleanly — no response, no traceback.

The METRICS frame returns the observability state of the server
process and of the requesting session::

    {"ok": true,
     "session": {"id": 3, "frames": n, "execute": n, "errors": n,
                 "rows": n, "seconds": s},
     "metrics": {"enabled": true,
                 "counters": {"server.frame.execute.calls": n, ...},
                 "histograms": {"blade.routine.tunion.seconds":
                                {"count": n, "sum": s, "min": s,
                                 "max": s, "mean": s, "buckets": {...}},
                                ...}}}

``session`` is the requesting session's own ledger (frames counted
before this METRICS frame itself); ``metrics`` is the process-wide
:mod:`repro.obs` snapshot, including per-routine blade call counts and
latencies.  The response also carries ``"pool"`` — the dispatch
layer's obs-independent gauges (readers, checkouts, waits, max busy,
writes, checkpoints; see :meth:`repro.server.pool.ConnectionPool.stats`).  Optional request fields: ``"reset": true`` clears the
process-wide registry first; ``"trace_tail": n`` appends the last *n*
spans under ``metrics.trace`` — the ``span`` and ``stmt.profile``
events of the flight ring, as ``{"name", "seconds", "ok", "meta"}``.

Request parameters travel as JSON: TIP values as ``{"$tip": "<base64
of the binary encoding>"}``, byte strings as ``{"$bytes": ...}``,
everything else as plain JSON, one envelope per value
(:func:`dump_value` / :func:`load_value`; :func:`dump_row` is the same
encoding for a whole row).

**Result frames.**  Every frame that carries result rows — an execute
or prepared result, each BATCH sub-result, each ``ROWS`` chunk — is
written and read a result at a time (:func:`dump_result` /
:func:`load_result`) in one format.  ``cols`` has one entry per column,
all of one length.  A column travels either in the header, as a JSON
list, or in the frame's binary body, named by a code:

* ``"q"`` — int64, ``"d"`` — float64: a column of only ints that fit
  (never bools) or only floats, packed (``-0.0`` and ``inf`` exact);
* ``"i"`` — int32 slots into the result's value table, ``-1`` for
  NULL: a column whose non-NULL cells are all TIP values or byte
  strings.

Text, bool, mixed and NULL-only columns, and ints beyond int64, stay
in the header; TIP values and byte strings in a mixed column keep
their parameter envelopes in place.  The *value table* holds each
distinct object of the slot columns once (by identity; a kernel's
Element column is already distinct), as three body segments: one tag
byte per value (0 raw bytes, 1 a TIP value), the int64 sizes, and the
concatenated raw bytes or canonical TIP blobs — no base64.  ``lens``
lists the byte length of each body segment the result owns: one per
packed column in column order, then the table's three.  A frame
without columns to carry its length — a write, or an empty result
transposed from rows — sends ``"cols": []`` and its row count as
``n``.  Integers in the body are little-endian.

*The body.*  :func:`dump_frame` appends every result's segments, in
frame order (a BATCH's sub-results one after another), after the
header line and adds ``"body"`` (its length) and ``"crc"`` (its zlib
CRC-32) to the header; a frame without segments has neither and no
body.  The reader takes the header line, then exactly ``body`` bytes
(:func:`take_body` checks them and hands each result its segments; in
memory, before framing and after reading, ``lens`` holds the segments
themselves).  The client decodes the value table in one pass
(:func:`repro.codec.binary.decode_many`), shares each value among the
rows that refer to it, and rebuilds the rows with one ``zip``.  A
short body, a CRC mismatch, ``lens`` that do not sum to the body, an
unknown column code, an out-of-range slot, ragged columns and an ``n``
that disagrees with them are malformed and raise
:class:`ProtocolError`; the client treats one as a garbled (retryable)
frame.  ``MAX_FRAME_BYTES`` bounds header and body together (of a
request and of a ``ROWS`` chunk); a reader takes a body in pieces of
at most that size (:func:`read_body`), so a garbled ``body`` size
costs no more memory than the bytes that actually arrive.  A kernel
result is a :class:`~repro.columns.ColumnTable` whose int64 arrays
and Element columns pack without a Python object per row; any other
result is transposed once.
"""

from __future__ import annotations

import gc
import json
import struct
import zlib
from binascii import a2b_base64, b2a_base64
from itertools import accumulate
from typing import Any, List, Sequence

import numpy as np

from repro import codec
from repro.codec.binary import decode_many
from repro.columns import ColumnTable, ElementColumn
from repro.errors import TipError

__all__ = [
    "dump_value", "load_value", "dump_row", "dump_result", "load_result",
    "dump_frame", "load_frame", "body_size", "read_body", "take_body",
    "load_payload",
    "read_frame_line", "ProtocolError", "FrameTooLarge", "MAX_FRAME_BYTES",
]

_TIP_TYPES = tuple(codec.binary.TAG_BY_TYPE)

#: Default bound on one wire frame, header and body (requests and
#: responses alike).
MAX_FRAME_BYTES = 1 << 20


class ProtocolError(TipError):
    """A malformed frame arrived on the wire."""


class FrameTooLarge(ProtocolError):
    """A frame exceeded the configured size bound."""


def _b64encode(data: bytes) -> str:
    return b2a_base64(data, newline=False).decode("ascii")


def dump_value(value: Any) -> Any:
    """Encode one value for a JSON frame."""
    if isinstance(value, _TIP_TYPES):
        return {"$tip": _b64encode(codec.encode(value))}
    if isinstance(value, (bytes, bytearray, memoryview)):
        return {"$bytes": _b64encode(bytes(value))}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise ProtocolError(f"value of type {type(value).__name__} is not transportable")


def load_value(value: Any) -> Any:
    """Decode one value from a JSON frame."""
    if isinstance(value, dict):
        if "$tip" in value:
            return codec.decode(a2b_base64(value["$tip"]))
        if "$bytes" in value:
            return a2b_base64(value["$bytes"])
        raise ProtocolError(f"unknown value envelope: {sorted(value)}")
    return value


def dump_row(row: Sequence) -> List[Any]:
    # Most rows are all plain JSON scalars; one isinstance scan beats
    # the per-value type dispatch of dump_value on the batch hot path.
    for value in row:
        if value is not None and not isinstance(value, (str, int, float)):
            return [dump_value(value) for value in row]
    return list(row)


#: Types that travel as plain JSON in a header column.
_PLAIN = frozenset((type(None), bool, int, float, str))
#: Types a slot column refers to through the value table.
_SHARED = frozenset((bytes, bytearray, memoryview, *_TIP_TYPES))
_NONE = type(None)
_INTS, _FLOATS = frozenset((int,)), frozenset((float,))
#: Value-table tags.
_TAG_BYTES, _TAG_TIP = 0, 1


#: Body column codes (struct formats).
_CODES = frozenset("qdi")


def _packed(code: str, values: Sequence) -> bytes:
    """*values* as a little-endian body segment (struct.error when one
    does not fit the code)."""
    return struct.pack(f"<{len(values)}{code}", *values)


def _unpacked(code: str, segment) -> tuple:
    """A little-endian body segment's values (struct.error when its
    length is not a whole number of items)."""
    count = len(segment) // struct.calcsize("<" + code)
    return struct.unpack(f"<{count}{code}", segment)


class _Table:
    """One result's value table under construction."""

    __slots__ = ("tags", "sizes", "blobs", "slot_of")

    def __init__(self) -> None:
        self.tags = bytearray()
        self.sizes: List[int] = []
        self.blobs: List[bytes] = []
        self.slot_of = {id(None): -1}  # id(object) -> its slot

    def slots(self, column: Sequence) -> bytes:
        """The packed slots of a column of TIP values, bytes and NULLs,
        adding each distinct object to the table once."""
        slot_of = self.slot_of
        ids = list(map(id, column))
        for key, value in dict(zip(ids, column)).items():
            if key not in slot_of:
                slot_of[key] = len(self.tags)
                if isinstance(value, _TIP_TYPES):
                    self.tags.append(_TAG_TIP)
                    blob = codec.encode(value)
                else:
                    self.tags.append(_TAG_BYTES)
                    blob = bytes(value)
                self.sizes.append(len(blob))
                self.blobs.append(blob)
        return _packed("i", list(map(slot_of.__getitem__, ids)))

    def elements(self, column: ElementColumn) -> bytes:
        """The packed slots of a kernel's Element column; its distinct
        values join the table as one packed run."""
        sizes, data = column.pack()
        base = len(self.tags)
        self.tags += bytes((_TAG_TIP,)) * len(sizes)
        self.sizes += sizes.tolist()
        self.blobs.append(data)
        return (column.slots + base).astype("<i4").tobytes()

    def segments(self) -> List[bytes]:
        return [bytes(self.tags), _packed("q", self.sizes),
                b"".join(self.blobs)]


def dump_result(rows: "Sequence[Sequence] | ColumnTable") -> dict:
    """One result's ``cols`` and ``lens`` (the body segments themselves,
    which :func:`dump_frame` writes as their lengths).

    *rows* is a list of rows (transposed here, once) or a kernel's
    :class:`~repro.columns.ColumnTable` (framed as it is: its int64
    arrays pack directly, its Element columns join the value table as
    their packed distinct values).  A result without columns carries
    its row count as ``n``; a result without body columns has no
    ``lens``.
    """
    if isinstance(rows, ColumnTable):
        columns, count = rows.cols, rows.n
    else:
        columns, count = list(zip(*rows)), len(rows)
    if not columns:
        return {"cols": [], "n": count}
    cols: list = []
    lens: List[bytes] = []
    table = None
    for column in columns:
        if isinstance(column, np.ndarray):  # a kernel's int64 column
            cols.append("q")
            lens.append(column.astype("<i8", copy=False).tobytes())
            continue
        if isinstance(column, ElementColumn):
            table = table or _Table()
            cols.append("i")
            lens.append(table.elements(column))
            continue
        kinds = set(map(type, column))
        if kinds == _INTS:
            try:
                lens.append(_packed("q", column))
                cols.append("q")
                continue
            except struct.error:
                pass  # beyond int64: the header carries it
        elif kinds == _FLOATS:
            lens.append(_packed("d", column))
            cols.append("d")
            continue
        kinds.discard(_NONE)
        if kinds and _SHARED.issuperset(kinds):
            table = table or _Table()
            cols.append("i")
            lens.append(table.slots(column))
        elif _PLAIN.issuperset(kinds):
            cols.append(list(column))
        else:  # mixed: envelopes in place
            cols.append([value if type(value) in _PLAIN else dump_value(value)
                         for value in column])
    if table is not None:
        lens += table.segments()
    if not lens:
        return {"cols": cols}
    return {"cols": cols, "lens": lens}


def _load_table(tags, sizes, data) -> list:
    """The value table's values, then None: what slot -1 (NULL) picks."""
    tags = bytes(tags)
    sizes = _unpacked("Q", sizes)
    if len(sizes) != len(tags) or sum(sizes) != len(data):
        raise ProtocolError("value table sizes disagree with its data")
    data = bytes(data)
    values = [data[end - size:end]
              for size, end in zip(sizes, accumulate(sizes))]
    tip = tags.count(_TAG_TIP)
    if tip == len(tags):
        values = decode_many(values)
    elif tip:
        at = [k for k, tag in enumerate(tags) if tag == _TAG_TIP]
        for k, value in zip(at, decode_many([values[k] for k in at])):
            values[k] = value
    if tip + tags.count(_TAG_BYTES) != len(tags):
        raise ProtocolError("unknown value-table tag")
    values.append(None)
    return values


def load_result(result: dict) -> List[tuple]:
    """The rows of a result written by :func:`dump_result`.

    ``lens`` must hold the result's body segments (as
    :func:`take_body` leaves them).  Each table value is decoded once
    and every row referring to it shares it (TIP values are
    immutable); envelopes in a header column decode one by one.  The
    rows are rebuilt with one ``zip``.  A malformed result raises
    :class:`ProtocolError`.
    """
    columns = result.get("cols", [])
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()  # the new rows hold nothing cyclic
    try:
        if not columns:
            count = result.get("n", 0)
            if type(count) is not int or count < 0:
                raise ProtocolError(f"bad row count {count!r}")
            return [()] * count
        if type(columns) is not list:
            raise ProtocolError("result columns are not a list")
        segments = iter(result.get("lens") or ())
        out: list = []
        slotted = []
        for column in columns:
            if type(column) is list:
                if dict in set(map(type, column)):  # envelopes in place
                    column = [load_value(value) for value in column]
                out.append(column)
            elif column in _CODES:
                if column == "i":
                    slotted.append(len(out))
                out.append(_unpacked(column, next(segments)))
            else:
                raise ProtocolError(f"unknown column code {column!r}")
        if slotted:
            table = _load_table(next(segments), next(segments),
                                next(segments))
            for at in slotted:
                slots = out[at]
                if slots and (min(slots) < -1 or max(slots) >= len(table) - 1):
                    raise ProtocolError("value-table slot out of range")
                out[at] = list(map(table.__getitem__, slots))
        if next(segments, None) is not None:
            raise ProtocolError("more body segments than columns")
        lengths = set(map(len, out))
        if len(lengths) != 1 or result.get("n", len(out[0])) not in lengths:
            raise ProtocolError("result columns are not of one length")
        return list(zip(*out))
    except StopIteration:
        raise ProtocolError("fewer body segments than columns") from None
    except (TypeError, ValueError, struct.error) as exc:
        raise ProtocolError(f"malformed result columns: {exc!r}") from exc
    finally:
        if gc_was_enabled:
            gc.enable()


def dump_frame(frame: dict) -> bytes:
    """Serialize one frame to its wire form: the JSON header line, then
    the body its results' ``lens`` segments make (see *Result frames*).
    """
    segments: List[bytes] = []

    def segment(value):
        if type(value) is not bytes:
            raise TypeError(f"Object of type {type(value).__name__} "
                            "is not JSON serializable")
        segments.append(value)
        return len(value)

    header = json.dumps(frame, separators=(",", ":"), default=segment)
    if not segments:
        return (header + "\n").encode("utf-8")
    body = b"".join(segments)
    return (f'{header[:-1]},"body":{len(body)},"crc":{zlib.crc32(body)}}}\n'
            .encode("utf-8") + body)


def load_frame(line: bytes) -> dict:
    """Parse one wire header line into a frame."""
    try:
        frame = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed frame: {exc}") from exc
    if not isinstance(frame, dict):
        raise ProtocolError("frame must be a JSON object")
    return frame


def body_size(frame: dict) -> int:
    """How many body bytes follow the header of *frame*."""
    size = frame.get("body", 0)
    if type(size) is not int or size < 0:
        raise ProtocolError(f"bad body size {size!r}")
    return size


def read_body(rfile, frame: dict) -> bytes:
    """Read the body the header *frame* announces from *rfile*, in
    pieces of at most ``MAX_FRAME_BYTES``: memory follows the bytes that
    arrive, not the size a garbled header claims, and a stream that
    ends first is a short body (:class:`ProtocolError`)."""
    size = body_size(frame)
    pieces = []
    while size:
        piece = rfile.read(min(size, MAX_FRAME_BYTES))
        if not piece:
            raise ProtocolError(f"body ends {size} bytes short")
        pieces.append(piece)
        size -= len(piece)
    return b"".join(pieces)


def take_body(frame: dict, body: bytes) -> dict:
    """Check *body* against the header *frame* and hand each result
    (the frame itself, or each BATCH sub-result) its segments in place
    of their lengths in ``lens``; returns *frame*."""
    size = body_size(frame)
    if len(body) != size:
        raise ProtocolError(f"body is {len(body)} bytes, its header says {size}")
    if size and zlib.crc32(body) != frame.get("crc"):
        raise ProtocolError("body CRC mismatch")
    view = memoryview(body)
    at = 0
    results = frame.get("results")
    for result in [frame, *results] if type(results) is list else [frame]:
        lens = result.get("lens") if type(result) is dict else None
        if lens is None:
            continue
        if type(lens) is not list:
            raise ProtocolError(f"bad segment lengths {lens!r}")
        segments = []
        for length in lens:
            if type(length) is not int or length < 0:
                raise ProtocolError(f"bad segment length {length!r}")
            segments.append(view[at:at + length])
            at += length
        result["lens"] = segments
    if at != size:
        raise ProtocolError("segment lengths do not sum to the body")
    return frame


def load_payload(payload: bytes) -> dict:
    """One whole wire frame, header line and body, as :func:`take_body`
    leaves it."""
    line, newline, body = payload.partition(b"\n")
    if not newline:
        raise ProtocolError("frame header line is incomplete")
    return take_body(load_frame(line), body)


def read_frame_line(rfile, limit: int = MAX_FRAME_BYTES):
    """Read one bounded frame line; returns ``(status, payload)``.

    Statuses:

    * ``("frame", line)`` — a complete, in-bound line (newline included);
    * ``("eof", b"")`` — clean end of stream between frames;
    * ``("partial", data)`` — the peer disconnected mid-frame: bytes
      arrived but the stream ended before the newline;
    * ``("oversized", b"")`` — the line exceeded *limit* bytes.  The
      stream has been drained up to the next newline (or EOF), so the
      caller can answer with a typed error and keep the session.

    Blank lines are skipped here so every returned frame is substantive.
    """
    while True:
        line = rfile.readline(limit + 1)
        if not line:
            return "eof", b""
        if len(line) > limit:
            # Drain the rest of the oversized frame to resynchronize.
            while line and not line.endswith(b"\n"):
                line = rfile.readline(limit + 1)
            return "oversized", b""
        if not line.endswith(b"\n"):
            return "partial", line
        if line.strip():
            return "frame", line

"""The wire protocol: newline-delimited JSON frames.

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
the result has no columns; ``values`` and ``refs`` only when a column
needs them; see *Result frames* below)::

    {"ok": true, "cols": [[...], ...], "values": [...], "refs": [...],
     "columns": [...], "rowcount": n, "statement_now": "..."}
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
                                    # (+ "values", "refs" as below)
    {"ok": true, "cont": "done", "columns": [...],
     "rowcount": n, "rows_streamed": n, "statement_now": "..."}

The server sends at most ``window`` chunks ahead of the client's
acknowledgements; the client grants more with ``{"op": "credit",
"n": k}`` frames as it consumes (one credit = one chunk), so a slow
consumer bounds the server's buffering instead of the other way
around.  A chunk that would exceed the frame bound is split down to
single rows; a single row that still cannot fit ends the stream with a
typed mid-stream failure ``{"ok": false, "cont": "done", "kind":
"FrameTooLarge"}``.  Any non-credit frame sent mid-stream aborts the
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

TIP values (in params and in result rows) are framed as
``{"$tip": "<base64 of the binary encoding>"}``; byte strings as
``{"$bytes": ...}``; everything else is plain JSON.  Request params
carry one envelope per value (:func:`dump_value` / :func:`load_value`);
:func:`dump_row` is the same encoding for a whole row.

**Result frames.**  Every frame that carries result rows — an execute
or prepared result, each BATCH sub-result, each ``ROWS`` chunk — has
one format, written and read a frame at a time (:func:`dump_result` /
:func:`load_result`).  ``cols`` holds one JSON list per column, all of
the same length.  A frame without columns to carry its length — a
write, or an empty result transposed from rows — sends ``"cols": []``
and its row count as ``n``.  A kernel result is already a column
table and the server frames it as it is; any other result is
transposed once.

*Result value table.*  Plain columns pass through untouched.  A
column whose non-NULL cells are all TIP values or byte strings carries
integer indices into the frame's ``values`` list, which holds each
distinct object's envelope once, and the column's position is listed
in ``refs``::

    {"ok": true, "cols": [[1, 2, 3, 4], [0, 0, null, 1]],
     "values": [{"$tip": "VAEF..."}, {"$tip": "VAEF..."}], "refs": [1],
     "columns": ["k", "valid"], ...}

The client decodes each entry of ``values`` once (through
:func:`load_value` and its decode cache), shares the value among the
rows that refer to it, and rebuilds the row tuples with one ``zip``.
A column mixing plain and enveloped cells keeps its envelopes in
place, and a frame without reference columns has neither field.
Ragged columns, an ``n`` that disagrees with them and an out-of-range
slot are malformed: :func:`load_result` raises :class:`ProtocolError`.
"""

from __future__ import annotations

import json
from binascii import a2b_base64, b2a_base64
from typing import Any, List, Sequence

from repro import codec
from repro.errors import TipError
from repro.columns import ColumnTable

__all__ = [
    "dump_value", "load_value", "dump_row", "dump_result", "load_result",
    "dump_frame", "load_frame",
    "read_frame_line", "ProtocolError", "FrameTooLarge", "MAX_FRAME_BYTES",
]

_TIP_TYPES = tuple(codec.binary.TAG_BY_TYPE)

#: Default bound on one wire frame (requests and responses alike).
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


#: Types that travel as plain JSON: a column of only these is untouched.
_PLAIN = frozenset((type(None), bool, int, float, str))


def dump_result(rows: "Sequence[Sequence] | ColumnTable") -> dict:
    """One frame's result as its ``cols`` / ``values`` / ``refs`` fields.

    *rows* is a list of rows (transposed here, once) or a kernel's
    :class:`~repro.columns.ColumnTable` (framed as it is).  ``cols``
    holds one list per column; a result without columns carries its row
    count as ``n`` instead.  Plain columns are copied untouched, and a
    frame without reference columns carries only ``cols``.  ``values``
    holds the envelope of each distinct TIP or bytes object (by
    identity) once, as :func:`dump_value` writes it.  A column whose
    non-NULL cells are all such objects holds indices into ``values``
    and is listed in ``refs``; a column mixing plain and enveloped
    cells writes each envelope in place.
    """
    if isinstance(rows, ColumnTable):
        rows.stamp_blobs()  # its fresh Elements, in one numpy pass
        columns, count = rows.cols, rows.n
    else:
        columns, count = list(zip(*rows)), len(rows)
    if not columns:
        return {"cols": [], "n": count}
    out: list = []
    values: list = []
    slots: dict = {}  # id(object) -> index of its envelope in values
    refs = []
    for at, column in enumerate(columns):
        kinds = set(map(type, column))
        kinds.discard(type(None))
        if _PLAIN.issuperset(kinds):
            out.append(list(column))
            continue
        if _PLAIN.isdisjoint(kinds):
            ids = list(map(id, column))
            distinct = dict(zip(ids, column))  # first-seen order
            distinct.pop(id(None), None)
            for key, value in distinct.items():
                if key not in slots:
                    slots[key] = len(values)
                    values.append(dump_value(value))
            refs.append(at)
            out.append(list(map(slots.get, ids)))  # NULL -> None
            continue
        line = []
        for value in column:
            if type(value) not in _PLAIN:
                slot = slots.get(id(value))
                if slot is None:
                    slot = slots[id(value)] = len(values)
                    values.append(dump_value(value))
                value = values[slot]
            line.append(value)
        out.append(line)
    if not refs:
        return {"cols": out}
    return {"cols": out, "values": values, "refs": refs}


def load_result(frame: dict) -> List[tuple]:
    """The result rows of a frame written by :func:`dump_result`.

    Each entry of ``values`` goes through :func:`load_value` once and
    every row referring to it shares the decoded value (TIP values are
    immutable); envelopes written in place decode one by one.  The
    rows are rebuilt with one ``zip``.  A malformed frame raises
    :class:`ProtocolError`.
    """
    columns = frame.get("cols", [])
    refs = frame.get("refs") or ()
    try:
        if not columns:
            count = frame.get("n", 0)
            if type(count) is not int or count < 0:
                raise ProtocolError(f"bad row count {count!r}")
            return [()] * count
        lengths = set(map(len, columns))
        if len(lengths) != 1 or set(map(type, columns)) != {list} \
                or frame.get("n", len(columns[0])) not in lengths:
            raise ProtocolError("result columns are not lists of one length")
        columns = list(columns)
        if refs:
            table = list(map(load_value, frame["values"]))
            for at in refs:
                slots = columns[at]
                columns[at] = (
                    [None if slot is None else table[slot] for slot in slots]
                    if None in slots else list(map(table.__getitem__, slots)))
        for at, column in enumerate(columns):  # envelopes in place
            if at not in refs and dict in set(map(type, column)):
                columns[at] = [load_value(value) for value in column]
    except (KeyError, IndexError, TypeError) as exc:
        raise ProtocolError(f"malformed result columns: {exc!r}") from exc
    return list(zip(*columns))


def dump_frame(frame: dict) -> bytes:
    """Serialize one frame to its wire form (JSON + newline)."""
    return (json.dumps(frame, separators=(",", ":")) + "\n").encode("utf-8")


def load_frame(line: bytes) -> dict:
    """Parse one wire line into a frame."""
    try:
        frame = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed frame: {exc}") from exc
    if not isinstance(frame, dict):
        raise ProtocolError("frame must be a JSON object")
    return frame


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

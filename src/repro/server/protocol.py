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

Responses::

    {"ok": true, "rows": [...], "columns": [...], "rowcount": n,
     "statement_now": "..."}
    {"ok": false, "error": "message", "kind": "OperationalError"}

**Pipelining.**  A ``BATCH`` frame carries many statements in one round
trip; the response carries one execute-shaped result per statement, in
order, and a failed statement never aborts the rest::

    {"ok": true, "results": [{"ok": true, "rows": [...], ...},
                             {"ok": false, "error": "...", "kind": "..."},
                             ...]}

**Streaming.**  An ``execute`` with ``"stream": true`` (optional
``"chunk"`` rows per frame, ``"window"`` initial credit in chunks)
answers with zero or more ``ROWS`` continuation frames followed by one
``DONE`` frame::

    {"ok": true, "cont": "rows", "rows": [...]}        # <= chunk rows
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
trace spans under ``metrics.trace``.

TIP values (in params and in result rows) are framed as
``{"$tip": "<base64 of the binary encoding>"}``; byte strings as
``{"$bytes": ...}``; everything else is plain JSON.

**Per-frame value reuse.**  Result rows are marshalled a frame at a
time and column by column (:func:`dump_rows` / :func:`load_rows`).
Plain columns pass through untouched; within one frame each distinct
TIP object (server side, by identity) or ``$tip`` string (client side)
goes through :func:`dump_value` / :func:`load_value` once, and every
row holding it shares the result.  The wire format is unchanged: each
occurrence is still written out in full, so a frame is byte-identical
to one built row by row with :func:`dump_row`.
"""

from __future__ import annotations

import base64
import json
from itertools import chain
from typing import Any, List, Sequence

from repro import codec
from repro.errors import TipError

__all__ = [
    "dump_value", "load_value", "dump_row", "load_row", "dump_rows",
    "load_rows", "dump_frame", "load_frame",
    "read_frame_line", "ProtocolError", "FrameTooLarge", "MAX_FRAME_BYTES",
]

_TIP_TYPES = tuple(codec.binary.TAG_BY_TYPE)

#: Default bound on one wire frame (requests and responses alike).
MAX_FRAME_BYTES = 1 << 20


class ProtocolError(TipError):
    """A malformed frame arrived on the wire."""


class FrameTooLarge(ProtocolError):
    """A frame exceeded the configured size bound."""


def dump_value(value: Any) -> Any:
    """Encode one value for a JSON frame."""
    if isinstance(value, _TIP_TYPES):
        return {"$tip": base64.b64encode(codec.encode(value)).decode("ascii")}
    if isinstance(value, (bytes, bytearray, memoryview)):
        return {"$bytes": base64.b64encode(bytes(value)).decode("ascii")}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise ProtocolError(f"value of type {type(value).__name__} is not transportable")


def load_value(value: Any) -> Any:
    """Decode one value from a JSON frame."""
    if isinstance(value, dict):
        if "$tip" in value:
            return codec.decode(base64.b64decode(value["$tip"]))
        if "$bytes" in value:
            return base64.b64decode(value["$bytes"])
        raise ProtocolError(f"unknown value envelope: {sorted(value)}")
    return value


def dump_row(row: Sequence) -> List[Any]:
    # Most rows are all plain JSON scalars; one isinstance scan beats
    # the per-value type dispatch of dump_value on the batch hot path.
    for value in row:
        if value is not None and not isinstance(value, (str, int, float)):
            return [dump_value(value) for value in row]
    return list(row)


def load_row(row: Sequence) -> tuple:
    for value in row:
        if isinstance(value, dict):
            return tuple(load_value(value) for value in row)
    return tuple(row)


#: Types that travel as plain JSON: a column of only these is untouched.
_PLAIN = frozenset((type(None), bool, int, float, str))


def dump_rows(rows: Sequence[Sequence]) -> List[List[Any]]:
    """Encode one frame's result rows, column by column.

    Same output as :func:`dump_row` per row.  Plain columns are copied
    untouched; in the others each distinct object (by identity) goes
    through :func:`dump_value` once and its rows share the envelope.
    """
    out = list(map(list, rows))
    if _PLAIN.issuperset(map(type, chain.from_iterable(rows))):
        return out
    memo: dict = {}
    for at, column in enumerate(zip(*rows)):
        if _PLAIN.issuperset(map(type, column)):
            continue
        for line, value in zip(out, column):
            if type(value) not in _PLAIN:
                dumped = memo.get(id(value))
                if dumped is None:
                    dumped = memo[id(value)] = dump_value(value)
                line[at] = dumped
    return out


def load_rows(rows: Sequence[Sequence]) -> List[tuple]:
    """Decode one frame's result rows, column by column.

    Same output as :func:`load_row` per row.  Columns without envelopes
    pass through; each distinct ``$tip`` string goes through
    :func:`load_value` once and its rows share the decoded value (TIP
    values are immutable).
    """
    if dict not in set(map(type, chain.from_iterable(rows))):
        return list(map(tuple, rows))
    columns = list(zip(*rows))
    memo: dict = {}
    for at, column in enumerate(columns):
        if dict not in set(map(type, column)):
            continue
        loaded = []
        for value in column:
            if type(value) is dict:
                text = value.get("$tip")
                if type(text) is not str:
                    value = load_value(value)
                elif text in memo:
                    value = memo[text]
                else:
                    value = memo[text] = load_value(value)
            loaded.append(value)
        columns[at] = loaded
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

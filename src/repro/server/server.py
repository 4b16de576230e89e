"""The TIP database server.

A threading TCP server dispatching over a **WAL reader pool**
(:mod:`repro.server.pool`).  Each statement is classified read vs
write: reads check an idle reader connection out of the pool (the
session's ``NOW`` override applied per checkout), so concurrent
sessions' reads overlap on real cores; writes serialize on the single
dedicated writer connection, whose lock spans execute + commit — the
one total write order that makes writer history linearizable.
In-memory databases cannot share a WAL, so ``:memory:`` servers keep
the old single-connection serialized model with identical semantics.

The wire protocol is **pipelined** (:mod:`repro.server.protocol`):

* a ``BATCH`` frame carries many statements in one round trip and
  returns per-statement results, so throughput is no longer bounded by
  client round-trip latency;
* a streaming ``execute`` (``"stream": true``) returns large results
  as ``ROWS`` continuation chunks followed by a ``DONE`` frame, under
  a client-granted credit window — the server never buffers more than
  one chunk ahead of a slow client, and a chunk whose frame (header
  and body) would exceed the frame bound splits (down to one row)
  before failing typed (``FrameTooLarge``) mid-stream;
* ``PREPARE`` / ``EXECUTE`` (``execute_prepared``) / ``DEALLOCATE``
  frames carry prepared statements: PREPARE compiles once through the
  statement cache (:mod:`repro.tsql.compiled`) and returns a
  session-scoped integer handle, EXECUTE binds positional parameters
  (or a ``many`` list of parameter rows for bulk ingest) to the
  compiled plan, DEALLOCATE drops the handle.  Handles live in the
  session's private table — they are invisible to other sessions and
  die with the connection — and a handle compiled before a DDL or
  registry change answers with a typed ``StaleStatement`` error so the
  client re-prepares against the current schema.

Every execute-shaped statement (ad-hoc, batched, streamed, prepared)
is translated through the same compiled-statement cache, so tSQL
statement modifiers work over the wire and textually-identical hot
statements skip the preprocessor after their first compile.

Observability: the server times every frame and keeps two ledgers —

* **per-session counters** (frames, executes, errors, rows, seconds),
  owned by the single handler thread of that session, so attribution
  is exact by construction even though the engine connections
  underneath are pooled;
* **process-wide metrics** in :mod:`repro.obs` (``server.frame.<op>``
  call counts and latency histograms, session totals, and the pool
  gauges ``server.pool.*`` / ``server.wal.*``).

Both are readable over the wire via the ``METRICS`` frame.  Fault
injection at ``pool.checkout`` / ``wal.checkpoint`` is keyed by the
session's connection key (settable via the ``hello`` frame), so seeded
chaos plans fire deterministically per connection.
"""

from __future__ import annotations

import itertools
import socket
import socketserver
import threading
from contextlib import nullcontext
from time import perf_counter
from typing import List, Optional, Tuple

from repro import codec, obs
from repro.core.parser import parse_chronon
from repro.errors import TipError
from repro.faults import state as _FAULTS
from repro.obs import flight as _flight
from repro.obs import profile as _profile
from repro.obs.http import TelemetryServer
from repro.server import protocol
from repro.server.pool import ConnectionPool, classify
from repro.tsql import compiled as _compiled

__all__ = ["TipServer"]

_SESSION_IDS = itertools.count(1)

#: Dispatch sentinel: the frame was consumed but gets no response (a
#: surplus credit frame arriving after its stream already finished —
#: answering it would desynchronize the client's request/response
#: pairing).
_SWALLOW: dict = {}

#: Streaming defaults: rows per ROWS chunk, and the initial credit
#: window (in chunks) when the client does not size one.
DEFAULT_STREAM_CHUNK = 256
DEFAULT_STREAM_WINDOW = 4
#: How long :meth:`TipServer.stop` waits for open sessions to end.
STOP_JOIN_SECONDS = 5.0


class _SessionHandler(socketserver.StreamRequestHandler):
    """One connected client: a loop of frames until close/EOF.

    The loop never lets a peer problem escape as an exception: partial
    frames, oversized frames, undecodable bytes, and write failures all
    end in either a typed error frame or a clean close, so a misbehaving
    client cannot wedge its session, crash the handler thread, or leak a
    session from the ledger (``server.sessions.closed`` always catches
    up with ``server.sessions.opened``).
    """

    server: "_InnerServer"

    def handle(self) -> None:
        self.session_now: Optional[int] = None
        self.session_id = next(_SESSION_IDS)
        # Prepared statements are session-private: handle -> compiled
        # plan, numbered from 1 per session so handles are small,
        # deterministic, and meaningless to any other session.
        self.prepared: dict = {}
        self._handle_ids = itertools.count(1)
        # The fault key: stable per-server ordinal by default, or the
        # label a `hello` frame sets — chaos tests label their sessions
        # so keyed fault plans replay per connection across runs.
        ordinal = self.server.owner._next_session_ordinal()
        self.fault_key = f"s{ordinal}"
        self.session_counters = {
            "frames": 0, "execute": 0, "errors": 0, "rows": 0, "seconds": 0.0,
            "degraded": 0,
        }
        if obs.state.enabled:
            obs.counter("server.sessions.opened").inc()
        if _flight.state.enabled:
            # The per-server ordinal, not the process-global session id:
            # flight timelines must replay identically across seeded
            # runs, and the ordinal is a pure function of this server's
            # own accept sequence.
            _flight.record("session.open", session=self.fault_key,
                           id=ordinal)
        try:
            self._frame_loop()
        finally:
            if obs.state.enabled:
                obs.counter("server.sessions.closed").inc()
            if _flight.state.enabled:
                _flight.record("session.close", session=self.fault_key,
                               frames=self.session_counters["frames"],
                               errors=self.session_counters["errors"])

    def _frame_loop(self) -> None:
        limit = self.server.owner.max_frame_bytes
        while True:
            try:
                status, line = protocol.read_frame_line(self.rfile, limit)
            except OSError:
                return  # transport died mid-read: nothing to answer
            if status == "eof":
                return
            if status == "partial":
                # The peer vanished mid-frame; there is no one to answer.
                self._degrade("server.frame.partial")
                return
            if status == "oversized":
                self._degrade("server.frame.oversized")
                if not self._respond({
                    "ok": False,
                    "error": f"frame exceeds the {limit}-byte bound",
                    "kind": "FrameTooLarge",
                    "retry_safe": False,
                }):
                    return
                continue
            if _FAULTS.plan is not None:
                try:
                    line = _FAULTS.plan.apply("server.frame.read", line)
                except ConnectionError:
                    return  # injected peer failure on the read path
            started = perf_counter()
            op = "?"
            try:
                frame = protocol.load_frame(line)
                op = str(frame.get("op"))
                response, done = self._dispatch(frame)
            except protocol.ProtocolError as exc:
                # The frame never parsed, so it provably did not run:
                # safe for the client to replay.
                response, done = {
                    "ok": False, "error": str(exc), "kind": "ProtocolError",
                    "retry_safe": True,
                }, False
            except Exception as exc:  # never kill the session thread silently
                response, done = {"ok": False, "error": str(exc), "kind": type(exc).__name__}, False
                if _flight.state.enabled:
                    # An unhandled server error is exactly what the
                    # flight ring exists for: record it, then dump the
                    # whole timeline if a crash path is configured.
                    _flight.record("server.error", session=self.fault_key,
                                   op=op, error=type(exc).__name__)
                    _flight.crash_dump(
                        f"unhandled {type(exc).__name__} during {op} frame",
                        error=str(exc),
                    )
            if response is None:
                return  # a streaming op lost its peer mid-stream
            if response is _SWALLOW:
                continue  # consumed without a response (late credits)
            self._account(op, response, perf_counter() - started)
            if not self._respond(response) or done:
                return

    def _respond(self, response: dict) -> bool:
        """Write one response frame; False when the peer is unreachable."""
        payload = protocol.dump_frame(response)
        try:
            if _FAULTS.plan is not None:
                payload = _FAULTS.plan.apply("server.frame.write", payload)
            self.wfile.write(payload)
            self.wfile.flush()
        except OSError:
            return False  # peer gone (or injected to be): close cleanly
        return True

    def _degrade(self, counter_name: str) -> None:
        """Account one gracefully degraded frame in both ledgers."""
        self.session_counters["degraded"] += 1
        if obs.state.enabled:
            obs.counter(counter_name).inc()

    def _account(self, op: str, response: dict, seconds: float) -> None:
        """Update both metric ledgers for one completed frame."""
        counters = self.session_counters
        counters["frames"] += 1
        counters["seconds"] += seconds
        ok = bool(response.get("ok"))
        if not ok:
            counters["errors"] += 1
        # DDL reports rowcount -1; only count real row traffic.
        executes = op in ("execute", "execute_prepared")
        rows = max(0, response.get("rowcount") or 0) if executes and ok else 0
        if executes:
            counters["execute"] += 1
            counters["rows"] += rows
        elif op == "batch" and ok:
            # A batch is one frame but many statements: the ledger
            # counts each statement as an execute, with per-statement
            # errors and row traffic, so attribution stays exact.
            for sub in response.get("results", []):
                counters["execute"] += 1
                if sub.get("ok"):
                    sub_rows = max(0, sub.get("rowcount") or 0)
                    counters["rows"] += sub_rows
                    rows += sub_rows
                else:
                    counters["errors"] += 1
        if obs.state.enabled:
            registry = obs.get_registry()
            registry.counter(f"server.frame.{op}.calls").inc()
            registry.histogram(f"server.frame.{op}.seconds").observe(seconds)
            if not ok:
                registry.counter(f"server.frame.{op}.errors").inc()
            if rows:
                registry.counter("server.rows_returned").add(rows)
            if op == "batch" and ok:
                registry.counter("server.batch.statements").add(
                    len(response.get("results", []))
                )

    def _dispatch(self, frame: dict) -> Tuple[Optional[dict], bool]:
        op = frame.get("op")
        if op == "ping":
            return {"ok": True, "pong": True}, False
        if op == "close":
            return {"ok": True, "closed": True}, True
        if op == "hello":
            return self._hello(frame), False
        if op == "metrics":
            return self._metrics(frame), False
        if op == "profile":
            return self._profile_frame(frame), False
        if op == "flight":
            return self._flight_frame(frame), False
        if op == "set_now":
            raw = frame.get("now")
            if raw is None:
                self.session_now = None
                return {"ok": True, "now": None}, False
            try:
                seconds = parse_chronon(raw).seconds
            except TipError as exc:
                return {"ok": False, "error": str(exc), "kind": type(exc).__name__}, False
            self.session_now = seconds
            return {"ok": True, "now": raw}, False
        if op == "execute":
            if frame.get("stream"):
                return self._execute_stream(frame), False
            return self._execute(frame), False
        if op == "batch":
            return self._batch(frame), False
        if op == "prepare":
            return self._prepare(frame), False
        if op == "execute_prepared":
            return self._execute_prepared(frame), False
        if op == "deallocate":
            return self._deallocate(frame), False
        if op == "credit":
            # Credits are only read mid-stream; the surplus a client
            # granted near the end of a stream arrives here afterwards
            # and must be swallowed without a response.
            return _SWALLOW, False
        return (
            {"ok": False, "error": f"unknown op {op!r}", "kind": "ProtocolError"},
            False,
        )

    def _hello(self, frame: dict) -> dict:
        """The HELLO frame: names this session's fault/connection key."""
        label = frame.get("session")
        if label is not None:
            if not isinstance(label, str) or not label:
                return {"ok": False, "error": "hello needs a non-empty session string",
                        "kind": "ProtocolError"}
            self.fault_key = label
        return {"ok": True, "session": self.fault_key, "id": self.session_id}

    def _metrics(self, frame: dict) -> dict:
        """The METRICS frame: this session's ledger + the global snapshot."""
        snapshot = obs.snapshot(trace_tail=int(frame.get("trace_tail", 0) or 0))
        if frame.get("reset"):
            # Read-and-reset: the response carries the pre-reset state
            # (registry, trace-independent cache stats included).
            obs.get_registry().reset()
            codec.clear_caches(reset_stats=True)
            _compiled.clear_cache(reset_stats=True)
            _flight.clear()
        return {
            "ok": True,
            "session": {"id": self.session_id, **self.session_counters},
            "pool": self.server.owner.pool.stats(),
            "metrics": snapshot,
        }

    def _flight_frame(self, frame: dict) -> dict:
        """The FLIGHT frame: the event ring, filterable, in wire form."""
        return {
            "ok": True,
            "enabled": _flight.state.enabled,
            "events": _flight.snapshot(
                kind=frame.get("kind") or None,
                session=frame.get("session") or None,
                trace_id=frame.get("trace") or None,
                last=int(frame.get("last", 0) or 0) or None,
            ),
        }

    def _profile_frame(self, frame: dict) -> dict:
        """The PROFILE frame: recent (or slow) query profiles."""
        last = int(frame.get("last", 0) or 0) or None
        if frame.get("slow"):
            profiles = _profile.slow_log(last)
        else:
            profiles = _profile.recent_profiles(last)
        return {
            "ok": True,
            "enabled": _profile.state.enabled,
            "slow_threshold": _profile.state.slow_threshold,
            "profiles": [entry.as_dict() for entry in profiles],
        }

    # -- statement execution ------------------------------------------

    def _parse_execute(self, frame: dict):
        """Validate one execute-shaped frame; (sql, params) or error dict."""
        sql = frame.get("sql")
        if not isinstance(sql, str):
            return None, {"ok": False, "error": "execute needs a sql string",
                          "kind": "ProtocolError"}
        try:
            params = tuple(protocol.load_value(v) for v in frame.get("params", []))
        except protocol.ProtocolError as exc:
            return None, {"ok": False, "error": str(exc), "kind": "ProtocolError"}
        return (sql, params), None

    def _connection_ctx(self, sql: str):
        """The pooled connection context for *sql*: reader or writer."""
        owner = self.server.owner
        if classify(sql) == "read":
            return owner.pool.read(self.session_now, self.fault_key), False
        return owner.pool.write(self.session_now, self.fault_key), True

    def _compile(self, sql: str):
        """Compile *sql* through the statement cache; (plan, error dict)."""
        try:
            return self.server.owner.compiler.compile(sql), None
        except TipError as exc:
            return None, {"ok": False, "error": str(exc),
                          "kind": type(exc).__name__, "retry_safe": True}

    def _execute(self, frame: dict, reader=None, plan=None) -> dict:
        parsed, error = self._parse_execute(frame)
        if error is not None:
            return error
        sql, params = parsed
        # Every statement goes through the compiled-statement cache:
        # tSQL modifiers translate here (a hot statement is a cache
        # hit), plain SQL passes through unchanged.
        if plan is None:
            plan, error = self._compile(sql)
            if error is not None:
                return error
        sql = plan.sql
        # Trace context: the client's ids make the server-side span a
        # child of the client-side span — one trace across the wire.
        trace = frame.get("trace")
        trace_id = trace.get("trace_id") if isinstance(trace, dict) else None
        parent_span = trace.get("span_id") if isinstance(trace, dict) else None
        want_profile = bool(frame.get("profile"))
        if not _flight.state.enabled:
            return self._run_execute(sql, params, plan, trace_id, parent_span,
                                     want_profile, reader)
        _flight.record("stmt.begin", session=self.fault_key, trace_id=trace_id,
                       sql=sql[:120])
        try:
            response = self._run_execute(sql, params, plan, trace_id,
                                         parent_span, want_profile, reader)
        except Exception as exc:
            # The exception is about to travel up to the frame loop's
            # crash hook; a dangling stmt.begin would leave the timeline
            # ambiguous, so close the statement explicitly first.
            _flight.record("stmt.end", session=self.fault_key, trace_id=trace_id,
                           ok=False, error=type(exc).__name__)
            raise
        _flight.record("stmt.end", session=self.fault_key, trace_id=trace_id,
                       ok=bool(response.get("ok")),
                       rowcount=response.get("rowcount", -1))
        return response

    def _run_execute(self, sql, params, plan, trace_id, parent_span,
                     want_profile, reader) -> dict:
        owner = self.server.owner
        if reader is not None and classify(sql) == "read":
            # A batch read-run already holds this reader checked out;
            # reuse it rather than cycling the pool per statement.
            context, is_write = nullcontext(reader), False
        else:
            context, is_write = self._connection_ctx(sql)
        with context as connection:
            try:
                cursor = connection.cursor()
                if (trace_id is None and parent_span is None and not want_profile
                        and not _profile.state.enabled and not _profile.state.forced):
                    # No trace to adopt and nothing recording: skip the
                    # context plumbing entirely (it is generator-based
                    # and would cost a few microseconds per statement
                    # on the pipelined hot path for nothing).
                    rows, columns = self._fetch(cursor, sql, params, plan)
                else:
                    with _profile.activate_context(trace_id, parent_span, side="server"):
                        if want_profile and not _profile.state.enabled:
                            # One-shot profile on request; the checked-out
                            # connection is exclusively this statement's, so
                            # the brief forced window cannot catch another
                            # session's work on it.
                            with _profile.forced():
                                rows, columns = self._fetch(cursor, sql, params, plan)
                        else:
                            rows, columns = self._fetch(cursor, sql, params, plan)
                if rows is None:
                    connection.commit()
                    if is_write:
                        owner.pool.after_write_commit(self.fault_key)
                    if plan.ddl:
                        # Schema moved: orphan every compiled plan (and
                        # stale every prepared handle) process-wide.
                        _compiled.bump_generation()
                    return self._execute_response(
                        cursor, rows=[], columns=[], rowcount=cursor.rowcount
                    )
                return self._execute_response(
                    cursor,
                    rows=rows,
                    columns=columns
                    or [entry[0] for entry in cursor.description],
                    rowcount=len(rows),
                )
            except Exception as exc:  # surface engine errors to the client
                connection.rollback()
                return {"ok": False, "error": str(exc), "kind": type(exc).__name__}

    @staticmethod
    def _fetch(cursor, sql, params, plan):
        """``(rows, columns)`` of one statement; rows None for non-row ones.

        The temporal planner may take the whole statement (set-based
        kernel over the cursor's checked-out connection, shape matched
        at compile time), profiled or not, and its rows stay the
        kernel's column table all the way into the frame; otherwise the
        cursor runs it and the columns come from its description
        (``None`` here).
        """
        if not params and plan is not None and plan.shape is not None:
            result = cursor.execute_kernel(sql, plan.shape)
            if result is not None:
                return result.rows, result.columns
        return cursor.execute_fetchall(sql, params), None

    def _batch(self, frame: dict) -> dict:
        """The BATCH frame: many statements, one round trip.

        Statements run in order; each gets an execute-shaped result and
        a failure never aborts the rest (the per-statement results say
        what failed).  Reads and writes may mix — each statement is
        dispatched through the pool independently.
        """
        statements = frame.get("statements")
        if not isinstance(statements, list):
            return {"ok": False, "error": "batch needs a statements list",
                    "kind": "ProtocolError"}
        pool = self.server.owner.pool
        if _flight.state.enabled:
            _flight.record("batch.begin", session=self.fault_key,
                           count=len(statements))

        def is_read(entry) -> bool:
            return (isinstance(entry, dict)
                    and isinstance(entry.get("sql"), str)
                    and classify(entry["sql"]) == "read")

        results: List[dict] = []
        index = 0
        while index < len(statements):
            if pool.readers and is_read(statements[index]):
                # A run of consecutive reads shares one checked-out
                # reader: checkout, NOW re-bind, and check-in are paid
                # once per run instead of once per statement — the
                # pipelined path's throughput lives here.
                with pool.read(self.session_now, self.fault_key) as reader:
                    while index < len(statements) and is_read(statements[index]):
                        results.append(self._execute(statements[index],
                                                     reader=reader))
                        index += 1
                continue
            entry = statements[index]
            if not isinstance(entry, dict):
                results.append({"ok": False, "error": "batch entry must be an object",
                                "kind": "ProtocolError"})
            else:
                results.append(self._execute(entry))
            index += 1
        if _flight.state.enabled:
            _flight.record("batch.end", session=self.fault_key,
                           count=len(results),
                           errors=sum(1 for r in results if not r.get("ok")))
        return {"ok": True, "results": results}

    # -- prepared statements ------------------------------------------

    def _prepare(self, frame: dict) -> dict:
        """The PREPARE frame: compile once, hand back a session handle.

        The response carries the translated SQL, the positional
        parameter count, and the registry generation the plan was
        compiled under — enough for the client to introspect the plan
        and to understand a later ``StaleStatement`` answer.
        """
        sql = frame.get("sql")
        if not isinstance(sql, str) or not sql.strip():
            return {"ok": False, "error": "prepare needs a sql string",
                    "kind": "ProtocolError"}
        plan, error = self._compile(sql)
        if error is not None:
            return error
        handle = next(self._handle_ids)
        self.prepared[handle] = plan
        return {"ok": True, "handle": handle, "sql": plan.sql,
                "params": plan.params, "generation": plan.generation}

    def _resolve_handle(self, frame: dict):
        """The live compiled plan for a frame's handle; (plan, error dict).

        Unknown handles (never prepared, deallocated, or prepared on a
        previous connection) and stale handles (the registry generation
        moved under them) both answer typed and ``retry_safe`` — the
        statement provably did not run, so the client may re-prepare
        and re-execute.
        """
        handle = frame.get("handle")
        plan = self.prepared.get(handle)
        if plan is None:
            return None, {
                "ok": False,
                "error": f"unknown prepared-statement handle {handle!r}",
                "kind": "UnknownStatement", "retry_safe": True,
            }
        if plan.generation != _compiled.generation():
            return None, {
                "ok": False,
                "error": "prepared statement is stale "
                         "(schema or temporal registry changed); re-prepare",
                "kind": "StaleStatement", "retry_safe": True,
            }
        return plan, None

    def _execute_prepared(self, frame: dict) -> dict:
        """The EXECUTE frame: bind parameters to a prepared handle.

        ``params`` runs the plan once (the ordinary execute path, reader
        pool included); ``many`` runs it under ``executemany`` on the
        writer — one NOW binding, one commit — for bulk ingest.
        """
        plan, error = self._resolve_handle(frame)
        if error is not None:
            return error
        if frame.get("many") is not None:
            return self._execute_many(frame, plan)
        sub = {"sql": plan.sql, "params": frame.get("params", [])}
        for field in ("trace", "profile"):
            if field in frame:
                sub[field] = frame[field]
        return self._execute(sub, plan=plan)

    def _execute_many(self, frame: dict, plan) -> dict:
        many = frame.get("many")
        if not isinstance(many, list) or not all(
            isinstance(entry, list) for entry in many
        ):
            return {"ok": False,
                    "error": "executemany needs a list of parameter rows",
                    "kind": "ProtocolError"}
        try:
            rows = [tuple(protocol.load_value(v) for v in entry) for entry in many]
        except protocol.ProtocolError as exc:
            return {"ok": False, "error": str(exc), "kind": "ProtocolError"}
        if _flight.state.enabled:
            _flight.record("stmt.many", session=self.fault_key,
                           sql=plan.sql[:120], count=len(rows))
        owner = self.server.owner
        with owner.pool.write(self.session_now, self.fault_key) as connection:
            try:
                cursor = connection.cursor()
                cursor.executemany(plan.sql, rows)
                connection.commit()
                owner.pool.after_write_commit(self.fault_key)
                if plan.ddl:
                    _compiled.bump_generation()
                return {"ok": True, **protocol.dump_result([]), "columns": [],
                        "rowcount": cursor.rowcount, "count": len(rows),
                        "statement_now": cursor.statement_now_text}
            except Exception as exc:
                connection.rollback()
                return {"ok": False, "error": str(exc), "kind": type(exc).__name__}

    def _deallocate(self, frame: dict) -> dict:
        """The DEALLOCATE frame: drop a handle from the session table."""
        handle = frame.get("handle")
        if handle in self.prepared:
            del self.prepared[handle]
            return {"ok": True, "deallocated": handle}
        return {"ok": False,
                "error": f"unknown prepared-statement handle {handle!r}",
                "kind": "UnknownStatement", "retry_safe": True}

    # -- streaming ----------------------------------------------------

    def _execute_stream(self, frame: dict) -> Optional[dict]:
        """A streaming execute: ROWS chunks under a credit window, then DONE.

        Returns the final DONE frame for the ordinary respond/account
        path (its ``rowcount`` carries the streamed total), or None when
        the peer vanished mid-stream (the caller closes the session).
        """
        parsed, error = self._parse_execute(frame)
        if error is not None:
            return error
        sql, params = parsed
        plan, error = self._compile(sql)
        if error is not None:
            return error
        sql = plan.sql
        if not _flight.state.enabled:
            return self._run_stream(frame, sql, params, plan)
        _flight.record("stream.begin", session=self.fault_key, sql=sql[:120])
        response = self._run_stream(frame, sql, params, plan)
        if response is None:  # peer vanished mid-stream
            _flight.record("stream.end", session=self.fault_key,
                           ok=False, peer_lost=True)
        else:
            _flight.record("stream.end", session=self.fault_key,
                           ok=bool(response.get("ok")),
                           rows_streamed=response.get("rows_streamed", 0))
        return response

    def _run_stream(self, frame: dict, sql: str, params, plan) -> Optional[dict]:
        chunk = max(1, min(int(frame.get("chunk", 0) or DEFAULT_STREAM_CHUNK), 10_000))
        credit = max(1, min(int(frame.get("window", 0) or DEFAULT_STREAM_WINDOW), 1_000))
        context, is_write = self._connection_ctx(sql)
        owner = self.server.owner
        streamed = 0
        with context as connection:
            try:
                cursor = connection.execute(sql, params)
                if cursor.description is None:
                    connection.commit()
                    if is_write:
                        owner.pool.after_write_commit(self.fault_key)
                    if plan.ddl:
                        _compiled.bump_generation()
                    return {"ok": True, "cont": "done", "rows_streamed": 0,
                            "columns": [], "rowcount": cursor.rowcount,
                            "statement_now": cursor.statement_now_text}
                columns = [entry[0] for entry in cursor.description]
                while True:
                    rows = cursor.fetchmany(chunk)
                    if not rows:
                        break
                    pending = rows
                    while pending:
                        if credit <= 0:
                            credit = self._await_credit()
                            if credit is None:
                                return None  # peer gone mid-stream
                            if credit < 0:
                                return {"ok": False, "cont": "done",
                                        "rows_streamed": streamed,
                                        "error": "expected a credit frame during stream",
                                        "kind": "ProtocolError"}
                        sent, pending = self._send_chunk(pending)
                        if sent is None:
                            return None
                        if sent < 0:
                            return {"ok": False, "cont": "done",
                                    "rows_streamed": streamed,
                                    "error": "a single row exceeds the frame bound",
                                    "kind": "FrameTooLarge"}
                        streamed += sent
                        credit -= 1
                return {"ok": True, "cont": "done", "columns": columns,
                        "rowcount": streamed, "rows_streamed": streamed,
                        "statement_now": cursor.statement_now_text}
            except Exception as exc:
                connection.rollback()
                return {"ok": False, "cont": "done", "rows_streamed": streamed,
                        "error": str(exc), "kind": type(exc).__name__}

    def _send_chunk(self, rows: List[tuple]):
        """Send one ROWS frame within the bound; ``(sent, remaining)``.

        Each attempt marshals its rows with their own value table.
        Splits oversized chunks in half until the frame (header and
        body) fits; a single row that cannot fit reports ``(-1, rows)`` so the stream fails
        typed.  ``(None, rows)`` means the peer is unreachable.
        """
        limit = self.server.owner.max_frame_bytes
        take = len(rows)
        while take >= 1:
            payload = protocol.dump_frame(
                {"ok": True, "cont": "rows", **protocol.dump_result(rows[:take])}
            )
            if len(payload) <= limit:
                try:
                    if _FAULTS.plan is not None:
                        payload = _FAULTS.plan.apply("server.frame.write", payload)
                    self.wfile.write(payload)
                    self.wfile.flush()
                except OSError:
                    return None, rows
                return take, rows[take:]
            if take == 1:
                return -1, rows
            take = take // 2
        return 0, rows

    def _await_credit(self) -> Optional[int]:
        """Block for the client's next credit frame; its grant (chunks).

        None: the peer is gone.  -1: the client sent a non-credit frame
        mid-stream (a protocol violation surfaced as a typed DONE).
        """
        limit = self.server.owner.max_frame_bytes
        try:
            status, line = protocol.read_frame_line(self.rfile, limit)
        except OSError:
            return None
        if status in ("eof", "partial"):
            self._degrade("server.frame.partial")
            return None
        if status == "oversized":
            self._degrade("server.frame.oversized")
            return -1
        try:
            frame = protocol.load_frame(line)
        except protocol.ProtocolError:
            return -1
        if frame.get("op") != "credit":
            return -1
        try:
            grant = int(frame.get("n", 1))
        except (TypeError, ValueError):
            return -1
        return max(1, min(grant, 1_000))

    @staticmethod
    def _execute_response(cursor, *, rows, columns, rowcount) -> dict:
        response = {
            "ok": True,
            **protocol.dump_result(rows),
            "columns": columns,
            "rowcount": rowcount,
            "statement_now": cursor.statement_now_text,
        }
        if cursor.profile is not None:
            # Fetches above already charged their rows/time, so the
            # framed profile is the statement's complete server cost.
            response["profile"] = cursor.profile.as_dict()
            response["trace"] = {
                "trace_id": cursor.profile.trace_id,
                "span_id": cursor.profile.span_id,
                "parent_span_id": cursor.profile.parent_span_id,
            }
        return response


class _InnerServer(socketserver.ThreadingTCPServer):
    """The listener: one daemon handler thread per session, each
    registered with its socket so :meth:`close_sessions` can end them."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], owner: "TipServer") -> None:
        super().__init__(address, _SessionHandler)
        self.owner = owner
        self._sessions: dict = {}   # request socket -> handler thread
        self._sessions_lock = threading.Lock()

    def process_request(self, request, client_address) -> None:
        thread = threading.Thread(
            target=self.process_request_thread, args=(request, client_address),
            daemon=True,
        )
        with self._sessions_lock:
            self._sessions[request] = thread
        thread.start()

    def shutdown_request(self, request) -> None:
        with self._sessions_lock:
            self._sessions.pop(request, None)
        super().shutdown_request(request)

    def close_sessions(self, timeout: float) -> None:
        """Shut down every open session socket, then join the handler
        threads for at most *timeout* seconds in all.

        A handler blocked on a read sees end-of-file and leaves its
        frame loop, recording ``session.close`` on the way out.
        """
        with self._sessions_lock:
            sessions = list(self._sessions.items())
        for request, _ in sessions:
            try:
                request.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # the peer already closed it
        deadline = perf_counter() + timeout
        for _, thread in sessions:
            thread.join(max(0.0, deadline - perf_counter()))


class TipServer:
    """Serve one TIP-enabled database over TCP.

    >>> server = TipServer("tip.db", readers=4)  # port 0 = pick a free one
    >>> server.start()
    >>> host, port = server.address
    >>> ... RemoteTipConnection(host, port) ...
    >>> server.stop()

    *readers* sizes the WAL reader pool for file-backed databases
    (``:memory:`` always runs the single serialized writer, whatever
    *readers* says, because an in-memory database cannot share a WAL).
    Also usable as a context manager.
    """

    def __init__(
        self,
        database: str = ":memory:",
        host: str = "127.0.0.1",
        port: int = 0,
        observability: bool = True,
        max_frame_bytes: int = protocol.MAX_FRAME_BYTES,
        profiling: bool = False,
        slow_threshold: "float | None" = None,
        slow_sink: "str | None" = None,
        readers: int = 4,
        checkpoint_every: int = 32,
        telemetry_port: "int | None" = None,
        flight_recorder: "bool | None" = None,
        flight_dump: "str | None" = None,
    ) -> None:
        # The dispatch layer: reads fan out to pooled readers, writes
        # serialize on the writer.  Handler threads never share a
        # checked-out connection, so no statement-level lock remains.
        self.pool = ConnectionPool(
            database, readers=readers, checkpoint_every=checkpoint_every
        )
        # One schema-aware compile front for the whole server: every
        # execute-shaped frame (ad-hoc, batch, stream, prepared) is
        # translated through the process-wide statement cache, and the
        # validity-column registry rescans lazily when a DDL commit
        # bumps the cache generation.
        self.compiler = _compiled.StatementCompiler(self.pool.writer)
        self._session_ordinals = itertools.count(1)
        # Bound on one request line; larger frames get a typed
        # FrameTooLarge error instead of unbounded buffering.
        self.max_frame_bytes = max_frame_bytes
        self._inner = _InnerServer((host, port), self)
        self._thread: Optional[threading.Thread] = None
        # The server is the natural observability surface: it answers
        # METRICS frames, so by default it flips the process-wide
        # switch on.  Pass observability=False to leave it untouched.
        if observability:
            obs.enable()
        # The flight recorder rides the observability switch by default
        # (always-on diagnostics is the point); *flight_recorder*
        # overrides in either direction, and *flight_dump* arms the
        # crash hook: an unhandled error in a session thread dumps the
        # whole ring to that JSONL path.
        if flight_recorder if flight_recorder is not None else observability:
            _flight.enable()
        if flight_dump is not None:
            _flight.configure(crash_dump_path=flight_dump)
        # Per-statement profiling is opt-in (it snapshots the registry
        # around every statement); clients can still request one-shot
        # profiles per execute frame while it is off.
        if profiling:
            _profile.enable(slow_threshold=slow_threshold, sink=slow_sink)
        elif slow_threshold is not None or slow_sink is not None:
            _profile.configure(slow_threshold=slow_threshold, sink=slow_sink)
        # The telemetry endpoint (None = off): started/stopped with the
        # query listener, scraping the same process state over HTTP.
        self._telemetry_port = telemetry_port
        self._telemetry_host = host
        self.telemetry: Optional[TelemetryServer] = None

    @property
    def connection(self):
        """The writer connection (kept for embedding/test callers)."""
        return self.pool.writer

    def _next_session_ordinal(self) -> int:
        """Per-server session ordinal — the default fault-key suffix."""
        return next(self._session_ordinals)

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port)."""
        return self._inner.server_address[:2]

    def start(self) -> "TipServer":
        """Serve in a background thread; returns self."""
        if self._thread is not None:
            raise TipError("server already started")
        # A tight poll interval keeps stop() prompt (the default 0.5s
        # poll dominates short-lived servers, e.g. per-test instances).
        self._thread = threading.Thread(
            target=lambda: self._inner.serve_forever(poll_interval=0.05), daemon=True
        )
        self._thread.start()
        if self._telemetry_port is not None:
            self.telemetry = TelemetryServer(
                self._telemetry_host, self._telemetry_port,
                pool_stats=self.pool.stats,
            ).start()
        return self

    @property
    def telemetry_address(self) -> Optional[Tuple[str, int]]:
        """The telemetry endpoint's bound (host, port), when serving."""
        return self.telemetry.address if self.telemetry is not None else None

    def stop(self) -> None:
        """Shut down the listener, end every open session, then close
        the engine connections.

        Sessions end before the pool closes: their sockets are shut
        down and their handler threads joined (for at most
        :data:`STOP_JOIN_SECONDS`), so no handler runs a statement on
        a closed connection and a client gets a connection error.
        """
        if self.telemetry is not None:
            self.telemetry.stop()
            self.telemetry = None
        self._inner.shutdown()
        self._inner.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        self._inner.close_sessions(STOP_JOIN_SECONDS)
        self.pool.close()

    def __enter__(self) -> "TipServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

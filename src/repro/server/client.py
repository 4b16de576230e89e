"""The network client driver.

:class:`RemoteTipConnection` speaks the JSON-line protocol to a
:class:`~repro.server.server.TipServer` and exposes the familiar query
surface: ``execute`` / ``query`` / ``query_one`` returning TIP datatype
objects, plus a per-session ``set_now`` override.

The driver is hardened against an imperfect network:

* **per-request timeouts** — every round trip is bounded by
  *request_timeout* (a slow or wedged server surfaces as a timeout,
  never a hang);
* **bounded retries** — transport failures (reset, EOF, timeout, a
  response too garbled to parse, or a server-declared ``retry_safe``
  error) are retried up to :class:`RetryPolicy` ``max_attempts`` times
  with exponential backoff and jitter;
* **idempotent reconnect** — each retry opens a fresh connection and
  first *re-establishes the session's NOW override* (the server keeps
  NOW per session, so a new session would otherwise silently revert to
  the wall clock — exactly the inconsistency-across-retries the
  NOW-semantics literature warns about), then replays the failed frame.

Server-reported errors that are not marked ``retry_safe`` (engine
errors, semantic protocol errors) are raised as :class:`RemoteError`
immediately — the request reached the server, so replaying it could
double-apply a write.

Retries and reconnects are counted in :mod:`repro.obs`
(``client.retries`` / ``client.reconnects``) when observability is on,
and the socket paths carry the ``client.connect`` / ``client.send`` /
``client.recv`` fault-injection points (:mod:`repro.faults`).
"""

from __future__ import annotations

import random
import socket
import time
from typing import List, Optional, Sequence, Tuple

from repro import obs
from repro.core.chronon import Chronon
from repro.errors import TipError
from repro.faults import state as _FAULTS
from repro.obs.profile import QueryProfile, StatementRecorder
from repro.obs.profile import state as _PROFILE
from repro.server import protocol

__all__ = ["RemoteTipConnection", "RemoteError", "RetryPolicy", "PreparedStatement"]


class RemoteError(TipError):
    """The server reported a failure for the last request."""

    def __init__(self, message: str, kind: str) -> None:
        super().__init__(message)
        self.kind = kind


class RetryPolicy:
    """Bounded exponential backoff with jitter.

    Attempt *n* (counting from 0) sleeps
    ``min(max_delay, base_delay * 2**n)`` scaled by a jitter factor
    drawn uniformly from ``[1 - jitter, 1 + jitter]`` before retrying.
    ``max_attempts`` bounds the total tries, including the first.
    """

    __slots__ = ("max_attempts", "base_delay", "max_delay", "jitter")

    def __init__(
        self,
        max_attempts: int = 3,
        base_delay: float = 0.05,
        max_delay: float = 2.0,
        jitter: float = 0.5,
    ) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if not 0.0 <= jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        self.max_attempts = max_attempts
        self.base_delay = base_delay
        self.max_delay = max_delay
        self.jitter = jitter

    def backoff_delay(self, attempt: int, rng: random.Random) -> float:
        base = min(self.max_delay, self.base_delay * (2 ** attempt))
        if self.jitter:
            base *= 1.0 - self.jitter + 2.0 * self.jitter * rng.random()
        return base


class PreparedStatement:
    """A server-side compiled statement, executable by handle.

    Obtained from :meth:`RemoteTipConnection.prepare`.  The statement
    was compiled once on the server (through the compiled-statement
    cache); :meth:`execute` binds positional parameters to the plan and
    :meth:`executemany` ships parameter rows in batched ``many`` frames
    for bulk ingest.

    Handles are session state: a reconnect loses them, and a DDL or
    registry change on the server stales them.  Both surface as typed
    ``UnknownStatement`` / ``StaleStatement`` errors, on which this
    wrapper transparently **re-prepares** (once per call) and replays —
    so callers keep a long-lived PreparedStatement across server
    restarts of the schema registry without special-casing either.
    Usable as a context manager; exit deallocates the handle.
    """

    def __init__(self, connection: "RemoteTipConnection", sql: str) -> None:
        self._connection = connection
        self.sql = sql
        self.handle: Optional[int] = None
        self.translated_sql: Optional[str] = None
        self.param_count: Optional[int] = None
        self.generation: Optional[int] = None
        self.reprepares = 0
        self._closed = False
        self._prepare()

    def _prepare(self) -> None:
        response = self._connection._round_trip({"op": "prepare", "sql": self.sql})
        self.handle = response.get("handle")
        self.translated_sql = response.get("sql")
        self.param_count = response.get("params")
        self.generation = response.get("generation")

    def _round_trip(self, extra: dict) -> dict:
        if self._closed:
            raise TipError("prepared statement is deallocated")
        for attempt in (0, 1):
            frame = {"op": "execute_prepared", "handle": self.handle, **extra}
            try:
                return self._connection._round_trip(frame)
            except RemoteError as exc:
                if exc.kind in ("UnknownStatement", "StaleStatement") and attempt == 0:
                    # The handle died (reconnect) or went stale (schema
                    # or registry moved): compile against the current
                    # state and replay — the server guaranteed the
                    # failed execute never ran.
                    self._prepare()
                    self.reprepares += 1
                    continue
                raise
        raise AssertionError("unreachable")  # pragma: no cover

    def execute(self, params: Sequence = ()) -> RemoteResult:
        """Run the plan once with *params* bound positionally."""
        return RemoteResult(self._round_trip(
            {"params": [protocol.dump_value(value) for value in params]}
        ))

    def executemany(self, seq_of_params, *, chunk: int = 256) -> int:
        """Run the plan for every parameter row; total affected rows.

        Rows ship in ``many`` frames of at most *chunk* rows each —
        one PREPARE plus ``ceil(n / chunk)`` EXECUTE round trips
        instead of *n* — and each frame commits atomically on the
        server's writer with a single NOW binding.
        """
        if chunk < 1:
            raise ValueError("chunk must be at least 1")
        rows = [
            [protocol.dump_value(value) for value in entry]
            for entry in seq_of_params
        ]
        total = 0
        for start in range(0, len(rows), chunk):
            response = self._round_trip({"many": rows[start:start + chunk]})
            total += max(0, response.get("rowcount") or 0)
        return total

    def deallocate(self) -> None:
        """Drop the server-side handle (idempotent)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._connection._round_trip(
                {"op": "deallocate", "handle": self.handle}, retryable=False
            )
        except (TipError, OSError):
            pass  # the session (and with it the handle) is already gone

    close = deallocate

    def __enter__(self) -> "PreparedStatement":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.deallocate()


class RemoteResult:
    """One statement's outcome.

    When the profiler was active for the request, :attr:`profile`
    carries the server-side :class:`~repro.obs.profile.QueryProfile`,
    :attr:`client_profile` the client-side one, and :attr:`trace` the
    joined trace identity — the two profiles share one ``trace_id``.
    """

    def __init__(self, frame: dict) -> None:
        self.columns: List[str] = frame.get("columns", [])
        self.rows: List[Tuple] = protocol.load_result(frame)
        self.rowcount: int = frame.get("rowcount", -1)
        self.statement_now: Optional[str] = frame.get("statement_now")
        raw_profile = frame.get("profile")
        self.profile: Optional[QueryProfile] = (
            QueryProfile.from_dict(raw_profile) if isinstance(raw_profile, dict) else None
        )
        self.trace: Optional[dict] = frame.get("trace")
        self.client_profile: Optional[QueryProfile] = None


class RemoteTipConnection:
    """A TIP session over TCP, with retry, reconnect, and timeouts.

    *timeout* bounds connection establishment; *request_timeout* (same
    as *timeout* when omitted) bounds each round trip.  *retry* is the
    :class:`RetryPolicy`; *seed* fixes the jitter RNG for reproducible
    retry schedules (chaos tests pin it).
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 10.0,
        *,
        request_timeout: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        seed: Optional[int] = None,
        session_label: Optional[str] = None,
    ) -> None:
        self._host = host
        self._port = port
        self._connect_timeout = timeout
        self._request_timeout = timeout if request_timeout is None else request_timeout
        self._retry = retry if retry is not None else RetryPolicy()
        self._rng = random.Random(seed)
        self._session_now: Optional[str] = None
        # The connection key the server books keyed fault injections
        # under; chaos tests label sessions so plans replay per
        # connection.  Sent in a HELLO frame on connect and reconnect.
        self._session_label = session_label
        self._socket: Optional[socket.socket] = None
        self._reader = None
        self._closed = False
        self._last_attempts = 1
        self._connect_with_retry()
        if self._session_label is not None:
            self._hello()

    # -- plumbing ------------------------------------------------------

    def _connect(self) -> None:
        if _FAULTS.plan is not None:
            _FAULTS.plan.apply("client.connect")
        self._socket = socket.create_connection(
            (self._host, self._port), timeout=self._connect_timeout
        )
        self._socket.settimeout(self._request_timeout)
        self._reader = self._socket.makefile("rb")

    def _connect_with_retry(self) -> None:
        last_error: Optional[BaseException] = None
        for attempt in range(self._retry.max_attempts):
            if attempt:
                time.sleep(self._retry.backoff_delay(attempt - 1, self._rng))
                if obs.state.enabled:
                    obs.counter("client.retries").inc()
            try:
                self._connect()
                return
            except OSError as exc:
                last_error = exc
        raise TipError(
            f"could not connect to {self._host}:{self._port} after "
            f"{self._retry.max_attempts} attempt(s): {last_error}"
        )

    def _drop_socket(self) -> None:
        if self._reader is not None:
            try:
                self._reader.close()
            except OSError:
                pass
        if self._socket is not None:
            try:
                self._socket.close()
            except OSError:
                pass
        self._reader = None
        self._socket = None

    def _reconnect(self) -> None:
        """Fresh connection + session state replay (the NOW override).

        The server's NOW override lives in the session, so a plain
        reconnect would silently change what ``NOW`` means for every
        replayed and subsequent statement.  Re-establishing it *before*
        the failed frame is replayed keeps retries semantically
        idempotent.
        """
        self._drop_socket()
        self._connect()
        if obs.state.enabled:
            obs.counter("client.reconnects").inc()
        if self._session_label is not None:
            self._hello()
        if self._session_now is not None:
            self._send({"op": "set_now", "now": self._session_now})
            response = self._recv()
            if not response.get("ok"):
                raise TipError(
                    "could not re-establish NOW override after reconnect: "
                    f"{response.get('error', 'unknown error')}"
                )

    def _hello(self) -> None:
        """Re-establish this session's connection key on the server."""
        self._send({"op": "hello", "session": self._session_label})
        response = self._recv()
        if not response.get("ok"):
            raise TipError(
                "could not establish session label: "
                f"{response.get('error', 'unknown error')}"
            )

    def _send(self, frame: dict) -> None:
        if self._socket is None:
            # A reconnect failed earlier: retryable like any lost socket.
            raise ConnectionError("not connected")
        payload = protocol.dump_frame(frame)
        if _FAULTS.plan is not None:
            payload = _FAULTS.plan.apply("client.send", payload)
        self._socket.sendall(payload)

    def _recv(self) -> dict:
        line = self._reader.readline()
        if _FAULTS.plan is not None:
            line = _FAULTS.plan.apply("client.recv", line)
        if not line:
            raise ConnectionError("server closed the connection")
        try:
            return protocol.load_frame(line)
        except protocol.ProtocolError as exc:
            # An unparseable response is transport corruption, not a
            # server verdict: retryable.
            raise ConnectionError(f"garbled response frame: {exc}") from exc

    def _round_trip(self, frame: dict, *, retryable: bool = True) -> dict:
        if self._closed:
            raise TipError("connection is closed")
        attempts = self._retry.max_attempts if retryable else 1
        last_error: Optional[BaseException] = None
        for attempt in range(attempts):
            self._last_attempts = attempt + 1
            if attempt:
                delay = self._retry.backoff_delay(attempt - 1, self._rng)
                if delay:
                    time.sleep(delay)
                if obs.state.enabled:
                    obs.counter("client.retries").inc()
                try:
                    self._reconnect()
                except (OSError, TipError) as exc:
                    last_error = exc
                    continue
            try:
                self._send(frame)
                response = self._recv()
            except OSError as exc:
                last_error = exc
                continue
            if not response.get("ok"):
                error = RemoteError(
                    response.get("error", "unknown server error"),
                    response.get("kind", "Error"),
                )
                # retry_safe means the server never ran the request
                # (e.g. it arrived corrupted); replaying is harmless.
                if response.get("retry_safe") and attempt + 1 < attempts:
                    last_error = error
                    continue
                raise error
            return response
        raise TipError(f"request failed after {attempts} attempt(s): {last_error}")

    # -- the query surface -----------------------------------------------

    def execute(self, sql: str, params: Sequence = ()) -> RemoteResult:
        """Run one statement; TIP parameters travel in binary form.

        With the profiler on, the request carries this side's
        ``trace_id``/``span_id`` and asks the server for its profile,
        so the returned :class:`RemoteResult` holds both halves of one
        trace.  Profiler off: not a single extra Python-level call.
        """
        frame = {
            "op": "execute",
            "sql": sql,
            "params": [protocol.dump_value(value) for value in params],
        }
        if _PROFILE.enabled or _PROFILE.forced:
            return self._execute_profiled(frame, sql)
        return RemoteResult(self._round_trip(frame))

    def _execute_profiled(self, frame: dict, sql: str) -> RemoteResult:
        recorder = StatementRecorder(sql, engine="remote", side="client")
        frame["trace"] = {
            "trace_id": recorder.profile.trace_id,
            "span_id": recorder.profile.span_id,
        }
        frame["profile"] = True
        recorder.start()
        try:
            response = self._round_trip(frame)
        except Exception as exc:
            recorder.profile.retries = self._last_attempts - 1
            recorder.finish(ok=False, error=str(exc))
            raise
        recorder.profile.retries = self._last_attempts - 1
        result = RemoteResult(response)
        recorder.profile.rows = len(result.rows)
        result.client_profile = recorder.finish(
            rowcount=result.rowcount,
            statement_now=result.statement_now,
        )
        return result

    def execute_batch(self, statements) -> List["RemoteResult | RemoteError"]:
        """Run many statements in ONE round trip (the BATCH frame).

        *statements* is a sequence of ``sql`` strings or ``(sql,
        params)`` pairs.  Returns one entry per statement, in order: a
        :class:`RemoteResult` on success, a :class:`RemoteError`
        *instance* (not raised) on a per-statement failure — a failed
        statement never hides the results of the others.  The batch is
        observably equivalent to sending the same statements
        one-per-frame, just without paying a round trip each
        (property-tested in ``tests/test_protocol_pipeline.py``).
        """
        entries = []
        for statement in statements:
            if isinstance(statement, str):
                sql, params = statement, ()
            else:
                sql, params = statement
            entries.append({
                "sql": sql,
                "params": [protocol.dump_value(value) for value in params],
            })
        response = self._round_trip({"op": "batch", "statements": entries})
        results: List["RemoteResult | RemoteError"] = []
        for sub in response.get("results", []):
            if sub.get("ok"):
                results.append(RemoteResult(sub))
            else:
                results.append(RemoteError(
                    sub.get("error", "unknown server error"),
                    sub.get("kind", "Error"),
                ))
        return results

    def prepare(self, sql: str) -> PreparedStatement:
        """Compile *sql* once on the server; returns the statement handle.

        Later :meth:`PreparedStatement.execute` calls skip the tSQL
        preprocessor and layered translation entirely — the hot path is
        a handle lookup plus parameter binding.
        """
        return PreparedStatement(self, sql)

    def executemany(self, sql: str, seq_of_params, *, chunk: int = 256) -> int:
        """Bulk-ingest: one PREPARE + batched EXECUTE frames.

        Prepares *sql*, ships the parameter rows in ``many`` frames of
        *chunk* rows each, deallocates, and returns the total affected
        row count.  Equivalent to a loop of :meth:`execute` calls, just
        without a translation or a round trip per row.
        """
        statement = self.prepare(sql)
        try:
            return statement.executemany(seq_of_params, chunk=chunk)
        finally:
            statement.deallocate()

    def stream(self, sql: str, params: Sequence = (), *,
               chunk: int = 256, window: int = 4):
        """Iterate a statement's rows as they stream off the server.

        The server sends ``chunk`` rows per continuation frame and at
        most ``window`` unacknowledged chunks; this iterator grants one
        credit per consumed chunk, so a slowly consumed stream bounds
        the server's buffering (backpressure) instead of materializing
        the result set anywhere.  Streams are not retried: a transport
        failure mid-stream surfaces as the underlying error.  Closing
        the iterator early drains the remaining frames to keep the
        session usable.
        """
        frame = {
            "op": "execute",
            "sql": sql,
            "params": [protocol.dump_value(value) for value in params],
            "stream": True,
            "chunk": chunk,
            "window": window,
        }
        if self._closed:
            raise TipError("connection is closed")
        self._send(frame)
        return self._stream_frames()

    def _stream_frames(self):
        done = False
        try:
            while True:
                response = self._recv()
                if response.get("cont") == "rows":
                    # Grant the next chunk *before* yielding, so the
                    # server fills the pipe while rows are consumed.
                    self._send({"op": "credit", "n": 1})
                    yield from protocol.load_result(response)
                    continue
                done = True
                if response.get("cont") == "done" and response.get("ok"):
                    return
                raise RemoteError(
                    response.get("error", "unexpected frame during stream"),
                    response.get("kind", "ProtocolError"),
                )
        finally:
            if not done:
                # Early close: drain the stream so the next request on
                # this session reads its own response, not stale chunks.
                self._drain_stream()

    def _drain_stream(self) -> None:
        try:
            while True:
                self._send({"op": "credit", "n": 1000})
                response = self._recv()
                if response.get("cont") != "rows":
                    return
        except (OSError, TipError):
            self._drop_socket()

    def query(self, sql: str, params: Sequence = ()) -> List[Tuple]:
        return self.execute(sql, params).rows

    def query_one(self, sql: str, params: Sequence = ()) -> Optional[Tuple]:
        rows = self.query(sql, params)
        return rows[0] if rows else None

    def set_now(self, now: "Chronon | str | None") -> None:
        """Override NOW for this session only (replayed on reconnect)."""
        text = str(now) if isinstance(now, Chronon) else now
        self._round_trip({"op": "set_now", "now": text})
        self._session_now = text

    @property
    def session_now(self) -> Optional[str]:
        """The session NOW override text, or None when tracking the
        wall clock — what :meth:`set_now` last established.  The linq
        builder's ``with_now`` combinator saves and restores this
        around one execution."""
        return self._session_now

    def linq(self) -> "object":
        """A typed query-builder front bound to this remote session.

        Schema discovery runs over the wire (one sqlite_master query);
        builder queries execute via :meth:`execute` or become cached
        :class:`PreparedStatement` handles via ``Query.prepare``.  See
        :mod:`repro.linq`.
        """
        from repro.linq import Linq  # lazy: avoids a client<->linq cycle

        return Linq(self)

    def metrics(self, *, reset: bool = False, trace_tail: int = 0) -> dict:
        """The server's METRICS frame: session ledger + global snapshot.

        Returns ``{"session": {...}, "metrics": {...}}`` (see
        :mod:`repro.server.protocol`).  *reset* clears the server's
        process-wide registry after the snapshot is taken (the
        response carries the pre-reset state); *trace_tail* asks for
        the last *n* trace spans.
        """
        frame = {"op": "metrics"}
        if reset:
            frame["reset"] = True
        if trace_tail:
            frame["trace_tail"] = trace_tail
        response = self._round_trip(frame)
        return {key: value for key, value in response.items() if key != "ok"}

    def profiles(self, *, last: int = 0, slow: bool = False) -> dict:
        """The server's PROFILE frame: recent (or slow-log) profiles.

        Returns ``{"enabled": ..., "slow_threshold": ...,
        "profiles": [...]}`` with profiles in wire (dict) form.
        """
        frame: dict = {"op": "profile"}
        if last:
            frame["last"] = last
        if slow:
            frame["slow"] = True
        response = self._round_trip(frame)
        return {key: value for key, value in response.items() if key != "ok"}

    def flight(
        self,
        *,
        last: int = 0,
        session: Optional[str] = None,
        trace: Optional[str] = None,
        kind: Optional[str] = None,
    ) -> dict:
        """The server's FLIGHT frame: the event ring, filterable.

        Returns ``{"enabled": ..., "events": [...]}`` where each event
        is the wire form of a :class:`~repro.obs.flight.FlightEvent`
        (``seq`` / ``ts`` / ``kind`` / ``session`` / ``trace_id`` /
        ``data``).  Filters mirror the ``/debug/flight`` endpoint.
        """
        frame: dict = {"op": "flight"}
        if last:
            frame["last"] = last
        if session is not None:
            frame["session"] = session
        if trace is not None:
            frame["trace"] = trace
        if kind is not None:
            frame["kind"] = kind
        response = self._round_trip(frame)
        return {key: value for key, value in response.items() if key != "ok"}

    def ping(self) -> bool:
        return bool(self._round_trip({"op": "ping"}).get("pong"))

    def close(self) -> None:
        if self._closed:
            return
        try:
            self._round_trip({"op": "close"}, retryable=False)
        except (TipError, OSError):
            pass
        finally:
            self._closed = True
            self._drop_socket()

    def __enter__(self) -> "RemoteTipConnection":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

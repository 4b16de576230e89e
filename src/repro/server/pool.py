"""Read/write dispatch over a WAL reader pool.

The server used to funnel every statement of every session through one
shared engine connection behind a global lock, so concurrent clients
serialized completely.  This module replaces that lock with SQLite's
actual concurrency model:

* the database runs in **WAL mode**, where any number of readers
  proceed concurrently with one writer;
* a **pool of reader connections** (the TIP blade installed on each,
  ``PRAGMA query_only`` armed so a misrouted write fails loudly) serves
  read statements — the most recently returned idle reader is checked
  out per statement (last in, first out, so the kernels' table images,
  :mod:`repro.plan.images`, live only on the readers the sessions keep
  busy), the session's ``NOW`` override applied at checkout, and
  returned after the fetch;
* a **single writer connection** behind its own lock serves write
  statements, preserving the one total write order SQLite enforces
  anyway (writer linearizability comes for free);
* after each committed write the pool attempts a **passive WAL
  checkpoint** (every :attr:`ConnectionPool.checkpoint_every`-th write),
  so the log never grows without bound.

**Classification** (:func:`classify`) reads tokens and fails safe: a
statement is a *read* only when its first keyword (after comments) is
``SELECT``, ``VALUES``, or ``EXPLAIN`` — or ``WITH`` whose body has no
write-verb keyword (a literal or comment holds no keyword).  Everything
else, including ``PRAGMA`` and anything that does not tokenize or is
unrecognized, routes to the writer, which can execute reads
too; the only unsafe misclassification (a write sent to a reader) is
additionally caught by ``query_only``.

**In-memory databases** cannot share a WAL across connections, so
``:memory:`` pools degenerate to the writer alone — exactly the old
serialized model, same semantics, no surprises for tests.

**Observability** (inert when :mod:`repro.obs` is off):
``server.pool.checkout.calls`` / ``.waits`` /
``server.pool.checkout.wait_seconds`` /
``server.pool.readers.busy`` (a histogram of how many readers were
already busy at each checkout — its max is the measured concurrency),
``server.pool.reads`` / ``.writes``, ``server.wal.checkpoints`` /
``server.wal.checkpoint.errors``.  :meth:`ConnectionPool.stats` reports
the same numbers obs-independently for benchmarks.

**Fault injection**: ``pool.checkout`` fires before each reader
checkout and ``wal.checkpoint`` after each write commit, both keyed by
the session's connection key, so a seeded chaos plan fires
deterministically per connection no matter how the scheduler
interleaves sessions (:mod:`repro.faults.plan`).
"""

from __future__ import annotations

import threading
from collections import deque
from contextlib import contextmanager
from functools import lru_cache
from time import perf_counter
from typing import Iterator, Optional

import repro
from repro import obs
from repro.client.connection import TipConnection
from repro.errors import TranslationError
from repro.faults import InjectedFault
from repro.faults import state as _FAULTS
from repro.obs import flight as _flight
from repro.tsql import parser

__all__ = ["classify", "ConnectionPool"]

#: First-keyword verbs that start a read-only statement.  The TSQL2
#: statement modifiers are read verbs too: the preprocessor only
#: accepts ``SELECT`` after them (anything else fails typed before
#: execution), so a modified statement always translates to a read —
#: classifying on the raw text keeps prepared/batched temporal queries
#: on the reader pool.
_READ_VERBS = frozenset(
    {"SELECT", "VALUES", "EXPLAIN", "SNAPSHOT", "VALIDTIME", "NONSEQUENCED"}
)

#: Verbs that make a WITH statement a write when present in its body.
_WRITE_VERBS = frozenset(
    {"INSERT", "UPDATE", "DELETE", "REPLACE", "CREATE", "DROP", "ALTER"}
)


@lru_cache(maxsize=1024)
def classify(sql: str) -> str:
    """``"read"`` or ``"write"`` for one SQL statement, failing safe.

    Reads fan out to pool readers; everything classified ``"write"``
    serializes on the writer connection.  Misrouting a read to the
    writer merely loses parallelism, so every doubtful case (``WITH``
    bodies containing write verbs, ``PRAGMA``, unparseable text) is a
    write.  Pure in the statement text, so repeated statements (a
    pipelined batch, a prepared-style workload) pay the lexing once.
    """
    try:
        words = parser.words(sql)
        verb = next(words, "")
        if verb in _READ_VERBS or (verb == "WITH" and _WRITE_VERBS.isdisjoint(words)):
            return "read"
    except TranslationError:
        pass
    return "write"


class ConnectionPool:
    """A writer connection plus *readers* pooled reader connections.

    All connections open the same *database* with the blade installed
    (:func:`repro.connect`); cross-thread use is safe because a
    connection is only ever used by the thread that holds it checked
    out.  For non-WAL-able databases (``:memory:``) the pool holds the
    writer only and :meth:`read` falls through to :meth:`write`.
    """

    def __init__(
        self,
        database: str = ":memory:",
        readers: int = 4,
        *,
        checkpoint_every: int = 32,
        busy_timeout_ms: int = 5000,
    ) -> None:
        if readers < 0:
            raise ValueError("readers must be >= 0")
        self.database = database
        self.checkpoint_every = max(1, checkpoint_every)
        self.writer: TipConnection = repro.connect(database, check_same_thread=False)
        self.writer.raw.execute(f"PRAGMA busy_timeout={busy_timeout_ms}")
        (journal_mode,) = self.writer.raw.execute("PRAGMA journal_mode=WAL").fetchone()
        self.wal: bool = str(journal_mode).lower() == "wal"
        if self.wal:
            # NORMAL is WAL's intended durability point: fsync on
            # checkpoint, not on every commit.
            self.writer.raw.execute("PRAGMA synchronous=NORMAL")
        self.readers: int = readers if self.wal else 0
        self._writer_lock = threading.Lock()
        self._cond = threading.Condition(threading.Lock())
        self._idle: deque = deque()
        for _ in range(self.readers):
            reader = repro.connect(database, check_same_thread=False)
            reader.raw.execute(f"PRAGMA busy_timeout={busy_timeout_ms}")
            reader.raw.execute("PRAGMA query_only=ON")
            self._idle.append(reader)
        self._all_readers = list(self._idle)
        self._closed = False
        # Obs-independent gauges (the bench runs with obs off).
        self._checkouts = 0
        self._waits = 0
        self._max_busy = 0
        self._reads = 0
        self._writes = 0
        self._checkpoints = 0
        self._checkpoint_errors = 0

    # -- dispatch ------------------------------------------------------

    @contextmanager
    def read(
        self, session_now: Optional[int] = None, key: Optional[str] = None
    ) -> Iterator[TipConnection]:
        """Check a reader out for one statement (the session NOW applied).

        Waits when all readers are busy (the wait is counted and
        timed).  Without readers (``:memory:``), defers to the writer.
        """
        if not self.readers:
            with self.write(session_now, key) as connection:
                yield connection
            return
        if _FAULTS.plan is not None:
            _FAULTS.plan.apply("pool.checkout", key=key)
        connection = self._checkout(key)
        try:
            connection.set_now(session_now)  # seconds (or None) directly
            yield connection
        finally:
            try:
                # An abandoned cursor (e.g. a stream cut short) pins a
                # read snapshot; closing it here keeps every checkout
                # reading the latest committed state.
                connection.rollback()
            except Exception:
                pass
            with self._cond:
                self._idle.append(connection)
                self._cond.notify()

    @contextmanager
    def write(
        self, session_now: Optional[int] = None, key: Optional[str] = None
    ) -> Iterator[TipConnection]:
        """The writer connection, exclusively, for one statement.

        The lock spans execute *and* commit, so write statements of
        different sessions never interleave mid-transaction — the
        single total write order the linearizability test asserts.
        """
        # Writer-lock contention is invisible to counters but exactly
        # what a timeline wants: record the wait before blocking.
        if _flight.state.enabled and self._writer_lock.locked():
            _flight.record("pool.writer.wait", session=key)
        with self._writer_lock:
            with self._cond:
                self._writes += 1
            if obs.state.enabled:
                obs.counter("server.pool.writes").inc()
            self.writer.set_now(session_now)  # seconds (or None) directly
            yield self.writer

    def _checkout(self, key: Optional[str] = None) -> TipConnection:
        enabled = obs.state.enabled
        with self._cond:
            busy = self.readers - len(self._idle)
            waited = not self._idle
            self._checkouts += 1
            self._reads += 1
            if busy > self._max_busy:
                self._max_busy = busy
            if enabled:
                obs.counter("server.pool.checkout.calls").inc()
                obs.counter("server.pool.reads").inc()
                obs.histogram("server.pool.readers.busy").observe(float(busy))
            if not self._idle:
                self._waits += 1
                if enabled:
                    obs.counter("server.pool.checkout.waits").inc()
                waited_from = perf_counter()
                while not self._idle:
                    self._cond.wait(timeout=1.0)
                    if self._closed:
                        raise RuntimeError("pool closed while waiting for a reader")
                if enabled:
                    obs.histogram("server.pool.checkout.wait_seconds").observe(
                        perf_counter() - waited_from
                    )
            connection = self._idle.pop()
        if _flight.state.enabled:
            _flight.record("pool.checkout", session=key, busy=busy, waited=waited)
        return connection

    # -- WAL maintenance ----------------------------------------------

    def after_write_commit(self, key: Optional[str] = None) -> None:
        """Passive checkpoint cadence; call with the writer lock held.

        The ``wal.checkpoint`` fault point fires here on *every* write
        (keyed, so per-connection hit counts equal per-connection write
        counts — deterministic); the physical checkpoint runs every
        :attr:`checkpoint_every`-th write globally.  An injected
        failure only defers the checkpoint: the write itself is already
        committed and WAL recovers on the next cadence.
        """
        if not self.wal:
            return
        if _FAULTS.plan is not None:
            try:
                _FAULTS.plan.apply("wal.checkpoint", key=key)
            except InjectedFault:
                with self._cond:
                    self._checkpoint_errors += 1
                if obs.state.enabled:
                    obs.counter("server.wal.checkpoint.errors").inc()
                if _flight.state.enabled:
                    _flight.record("wal.checkpoint", session=key, status="injected")
                return
        with self._cond:
            due = self._writes % self.checkpoint_every == 0
        if not due:
            return
        self.writer.raw.execute("PRAGMA wal_checkpoint(PASSIVE)").fetchone()
        with self._cond:
            self._checkpoints += 1
        if obs.state.enabled:
            obs.counter("server.wal.checkpoints").inc()
        if _flight.state.enabled:
            _flight.record("wal.checkpoint", session=key, status="ran")

    # -- inspection and lifecycle --------------------------------------

    def stats(self) -> dict:
        """The pool gauges as plain data (obs-independent)."""
        with self._cond:
            return {
                "wal": self.wal,
                "readers": self.readers,
                "checkouts": self._checkouts,
                "waits": self._waits,
                "max_busy": self._max_busy,
                "reads": self._reads,
                "writes": self._writes,
                "checkpoints": self._checkpoints,
                "checkpoint_errors": self._checkpoint_errors,
            }

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        for reader in self._all_readers:
            reader.close()
        self.writer.close()

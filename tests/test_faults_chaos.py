"""Chaos matrix: every injection point × every failure mode.

Each cell arms a single-rule seeded plan against a live server/client
pair (or a local connection, for the local points), runs one operation,
and asserts the documented recovery behaviour:

* ``ok`` — the operation succeeds transparently (retry / reconnect /
  replay absorbed the fault);
* ``typed_error:<kind>`` — the server answered a typed error frame and
  the client raised :class:`RemoteError` with that kind;
* ``local_error:<type>`` — a local (non-networked) operation raised the
  typed exception to its caller.

After every cell the same session/connection must still answer a query
— a fault may fail one request, never the session.  Each cell runs
twice with the same seed and must produce the same outcome (the
replayability the seeded plans exist for).
"""

from __future__ import annotations

import pytest

import repro
from repro import codec, faults, obs, plan
from repro.core.element import Element
from repro.errors import CodecError, TipError
from repro.faults import InjectedFault
from repro.server import RemoteTipConnection, TipServer
from repro.server.client import RemoteError, RetryPolicy
from repro.tsql import TsqlSession
from tests.conftest import E

SEED = 1999
FAST_RETRY = dict(retry=RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0))

#: Cell operations: which request exercises the point.
_PLAIN = "SELECT 1"
_ROUTINE = "SELECT tip_text(tip_now())"

REMOTE_POINTS = (
    "server.frame.read", "server.frame.write",
    "client.connect", "client.send", "client.recv",
    "blade.routine", "codec.decode",
)
LOCAL_POINTS = ("conn.execute", "stmt.cache", "plan.kernel")
#: The statement the plan.kernel cell routes through a temporal kernel.
_KERNEL = ("VALIDTIME SELECT a.n, b.n FROM chaos_edges AS a, "
           "chaos_edges AS b WHERE a.n = b.n")
#: Points that only exist on the pooled (WAL, file-backed) server path.
POOLED_POINTS = ("pool.checkout", "wal.checkpoint")

#: (point, mode) -> set of acceptable outcomes.  Most corruption is
#: absorbed (retry / replay); engine-level faults surface as typed
#: errors; codec corruption may flip a payload byte into another valid
#: value, which decodes successfully — both outcomes are documented.
EXPECTED = {}
for _mode in faults.MODES:
    for _point in ("server.frame.read", "server.frame.write",
                   "client.connect", "client.send", "client.recv"):
        EXPECTED[(_point, _mode)] = {"ok"}
EXPECTED.update({
    # Reader checkout is an action point: raise (and the degraded
    # truncate/corrupt) fails that statement typed; the session lives.
    ("pool.checkout", "raise"): {"typed_error:InjectedFault"},
    ("pool.checkout", "delay"): {"ok"},
    ("pool.checkout", "truncate"): {"typed_error:InjectedFault"},
    ("pool.checkout", "corrupt"): {"typed_error:InjectedFault"},
    # A failed passive checkpoint is absorbed: the write already
    # committed, the WAL just stays longer — every mode is "ok".
    ("wal.checkpoint", "raise"): {"ok"},
    ("wal.checkpoint", "delay"): {"ok"},
    ("wal.checkpoint", "truncate"): {"ok"},
    ("wal.checkpoint", "corrupt"): {"ok"},
    ("blade.routine", "raise"): {"typed_error:OperationalError"},
    ("blade.routine", "delay"): {"ok"},
    ("blade.routine", "truncate"): {"typed_error:OperationalError"},
    ("blade.routine", "corrupt"): {"typed_error:OperationalError"},
    ("codec.decode", "raise"): {"typed_error:InjectedFault"},
    ("codec.decode", "delay"): {"ok"},
    ("codec.decode", "truncate"): {"typed_error:CodecError"},
    ("codec.decode", "corrupt"): {"typed_error:CodecError", "ok"},
    ("conn.execute", "raise"): {"local_error:InjectedFault"},
    ("conn.execute", "delay"): {"ok"},
    ("conn.execute", "truncate"): {"local_error:InjectedFault"},
    ("conn.execute", "corrupt"): {"local_error:InjectedFault"},
    # Statement compilation is an action point; armed plans bypass the
    # cache entirely, so both runs of a cell compile (and fire) alike.
    ("stmt.cache", "raise"): {"local_error:InjectedFault"},
    ("stmt.cache", "delay"): {"ok"},
    ("stmt.cache", "truncate"): {"local_error:InjectedFault"},
    ("stmt.cache", "corrupt"): {"local_error:InjectedFault"},
    # The kernel routing point is an action point: it fires after plan
    # selection and before the bulk fetch, so a raise aborts the
    # statement with nothing touched; the fallback (naive) path is not
    # in play because the armed plan targets the kernel explicitly.
    ("plan.kernel", "raise"): {"local_error:InjectedFault"},
    ("plan.kernel", "delay"): {"ok"},
    ("plan.kernel", "truncate"): {"local_error:InjectedFault"},
    ("plan.kernel", "corrupt"): {"local_error:InjectedFault"},
})


def _spec(point: str, mode: str) -> str:
    return f"{point}:{mode}" + (":delay=0.05" if mode == "delay" else "")


def _run_remote_cell(point: str, mode: str) -> str:
    with TipServer(":memory:", observability=False) as server:
        host, port = server.address
        with faults.inject(_spec(point, mode), seed=SEED):
            try:
                connection = RemoteTipConnection(
                    host, port, request_timeout=0.35, seed=SEED, **FAST_RETRY
                )
            except TipError as exc:
                return f"no_connect:{type(exc).__name__}"
            try:
                if point == "blade.routine":
                    connection.query_one(_ROUTINE)
                elif point == "codec.decode":
                    connection.execute(
                        "SELECT tip_text(?)", (E("{[1999-01-01, 1999-02-01]}"),)
                    )
                else:
                    connection.query_one(_PLAIN)
                outcome = "ok"
            except RemoteError as exc:
                outcome = f"typed_error:{exc.kind}"
            except TipError:
                outcome = "gave_up"
        # The session must survive whatever the cell did to it.
        assert connection.query_one(_PLAIN) == (1,)
        connection.close()
        return outcome


def _run_local_cell(point: str, mode: str) -> str:
    connection = repro.connect()
    min_rows_before = plan.state.min_rows
    try:
        # Built before arming: stmt.cache fires per compile, and the
        # session's construction-time rescan must not consume the hit.
        session = TsqlSession(connection) if point == "stmt.cache" else None
        statement = _PLAIN
        if point == "plan.kernel":
            connection.execute(
                "CREATE TABLE chaos_edges (n INTEGER, valid ELEMENT)"
            )
            connection.cursor().executemany(
                "INSERT INTO chaos_edges VALUES (?, ?)",
                [(n, E("{[1999-01-01, 1999-02-01]}")) for n in range(4)],
            )
            connection.commit()
            session = TsqlSession(connection)
            plan.configure(min_rows=0)  # 4 rows must still take the kernel
            statement = _KERNEL
        with faults.inject(_spec(point, mode), seed=SEED):
            try:
                if session is not None:
                    session.query(statement)
                else:
                    connection.execute(statement)
                outcome = "ok"
            except InjectedFault as exc:
                outcome = f"local_error:{type(exc).__name__}"
            except CodecError as exc:
                outcome = f"local_error:{type(exc).__name__}"
        if session is not None:
            assert session.query(_PLAIN) == [(1,)]
        assert connection.query_one(_PLAIN) == (1,)
        return outcome
    finally:
        plan.configure(min_rows=min_rows_before)
        connection.close()


def _run_pooled_cell(point: str, mode: str, db_path) -> str:
    """One cell against a pooled (file-backed, WAL) server.

    ``pool.checkout`` needs a read to fire; ``wal.checkpoint`` needs a
    committed write.  A fresh database per run keeps the two
    determinism runs byte-identical.
    """
    with TipServer(str(db_path), readers=2, observability=False) as server:
        host, port = server.address
        with faults.inject(_spec(point, mode), seed=SEED):
            try:
                connection = RemoteTipConnection(
                    host, port, request_timeout=1.0, seed=SEED,
                    session_label="cell", **FAST_RETRY,
                )
            except TipError as exc:
                return f"no_connect:{type(exc).__name__}"
            try:
                if point == "wal.checkpoint":
                    connection.execute("CREATE TABLE cell (n INTEGER)")
                    connection.execute("INSERT INTO cell VALUES (1)")
                else:
                    connection.query_one(_PLAIN)
                outcome = "ok"
            except RemoteError as exc:
                outcome = f"typed_error:{exc.kind}"
            except TipError:
                outcome = "gave_up"
        # The session must survive whatever the cell did to it.
        assert connection.query_one(_PLAIN) == (1,)
        connection.close()
        return outcome


@pytest.fixture(autouse=True)
def disarmed():
    faults.disarm()
    yield
    faults.disarm()


@pytest.mark.parametrize("mode", faults.MODES)
@pytest.mark.parametrize("point", REMOTE_POINTS + LOCAL_POINTS + POOLED_POINTS)
def test_chaos_cell(point, mode, tmp_path):
    def run(tag):
        if point in LOCAL_POINTS:
            return _run_local_cell(point, mode)
        if point in POOLED_POINTS:
            return _run_pooled_cell(point, mode, tmp_path / f"{tag}.db")
        return _run_remote_cell(point, mode)

    first = run("first")
    assert first in EXPECTED[(point, mode)], f"{point}:{mode} -> {first}"
    # Determinism: the same seeded plan replays to the same outcome.
    second = run("second")
    assert second == first, f"{point}:{mode} not replayable: {first} vs {second}"


def _typed(rows):
    """Rows by type and wire form: a wrong value never compares equal."""
    return [tuple((type(value).__name__,
                   codec.encode(value) if isinstance(value, Element)
                   else value) for value in row) for row in rows]


@pytest.mark.parametrize("mode", ("corrupt", "truncate"))
@pytest.mark.parametrize("point", ("server.frame.write", "client.recv"))
def test_frame_faults_on_a_tip_result_retry_to_its_rows(point, mode):
    """The frame cells above carry ``SELECT 1``; these carry a
    multi-row result with a packed int column and an Element value
    table in the binary body.  A flipped byte (in the header: invalid
    UTF-8; in the body: a CRC mismatch) or a cut frame is a garbled,
    retried response, so the rows that come back equal the unfaulted
    ones — for every byte the seeds pick, never a silently wrong value.
    (An armed plan keeps the statement off the kernel, fallback reason
    ``faults``: the frame carries the naive path's rows.)"""
    with TipServer(":memory:", observability=False) as server:
        host, port = server.address
        connection = RemoteTipConnection(host, port, request_timeout=0.35,
                                         seed=SEED, **FAST_RETRY)
        connection.set_now("1999-06-30")  # a retry must ground NOW alike
        connection.execute("CREATE TABLE chaos_edges (n INTEGER, valid ELEMENT)")
        for n in range(6):
            connection.execute("INSERT INTO chaos_edges VALUES (?, ?)", (
                n, E("{[1999-01-01, 1999-02-01]}") if n % 2
                else E("{[1999-03-01, 1999-04-01], [1999-05-01, NOW]}")))
        expected = _typed(connection.query(_KERNEL))
        assert len(expected) == 6
        for seed in range(8 if mode == "corrupt" else 1):
            with faults.inject(f"{point}:{mode}", seed=seed):
                assert _typed(connection.query(_KERNEL)) == expected
        connection.close()


def test_matrix_covers_the_whole_catalogue():
    """The matrix above enumerates every point the stack defines."""
    assert (
        set(REMOTE_POINTS) | set(LOCAL_POINTS) | set(POOLED_POINTS)
        == set(faults.CATALOGUE)
    )
    assert set(EXPECTED) == {
        (point, mode) for point in faults.CATALOGUE for mode in faults.MODES
    }


class TestRecoverySemantics:
    """The documented behaviours behind the matrix's 'ok' cells."""

    def test_now_override_survives_reconnect(self):
        """The core idempotent-reconnect guarantee: a replayed request
        evaluates under the same session NOW as the original."""
        with TipServer(":memory:", observability=False) as server:
            host, port = server.address
            with RemoteTipConnection(host, port, request_timeout=1.0,
                                     seed=SEED, **FAST_RETRY) as connection:
                connection.set_now("1999-09-01")
                with faults.inject("client.recv:raise", seed=SEED):
                    (now,) = connection.query_one("SELECT tip_text(tip_now())")
                assert now == "1999-09-01"

    def test_timeout_then_retry_succeeds(self):
        """A server slower than the request timeout looks like a dead
        peer; the client must reconnect and replay within its budget."""
        with TipServer(":memory:", observability=False) as server:
            host, port = server.address
            with RemoteTipConnection(host, port, request_timeout=0.25,
                                     seed=SEED, **FAST_RETRY) as connection:
                with faults.inject("server.frame.read:delay:delay=0.8", seed=SEED):
                    assert connection.query_one(_PLAIN) == (1,)

    def test_retries_exhaust_into_typed_failure(self):
        """A fault that outlives the retry budget surfaces as TipError,
        not a hang or a bare socket error."""
        with TipServer(":memory:", observability=False) as server:
            host, port = server.address
            with RemoteTipConnection(host, port, request_timeout=0.5,
                                     seed=SEED, **FAST_RETRY) as connection:
                with faults.inject("client.send:raise:times=inf", seed=SEED):
                    with pytest.raises(TipError, match="after 3 attempt"):
                        connection.query_one(_PLAIN)
                # Disarmed, the connection heals on the next request.
                assert connection.query_one(_PLAIN) == (1,)

    def test_mid_session_faults_are_visible_in_metrics(self):
        """Operators can see retries and degradations in METRICS."""
        with obs.capture(enabled=True) as registry:
            with TipServer(":memory:") as server:
                host, port = server.address
                with RemoteTipConnection(host, port, request_timeout=1.0,
                                         seed=SEED, **FAST_RETRY) as connection:
                    with faults.inject("client.recv:raise", seed=SEED):
                        connection.query_one(_PLAIN)
                    counters = connection.metrics()["metrics"]["counters"]
            assert counters["client.retries"] >= 1
            assert counters["client.reconnects"] >= 1
            assert counters["faults.injected.client.recv.raise"] == 1
            assert registry.counter_value("faults.injected.total") >= 1

    def test_chaos_under_sustained_probabilistic_faults(self):
        """A longer seeded chaos run: every request eventually succeeds
        and the data stays consistent despite a 30% recv fault rate."""
        with TipServer(":memory:", observability=False) as server:
            host, port = server.address
            retry = RetryPolicy(max_attempts=6, base_delay=0.0, jitter=0.0)
            with RemoteTipConnection(host, port, request_timeout=1.0,
                                     retry=retry, seed=SEED) as connection:
                connection.execute("CREATE TABLE t (n INTEGER)")
                with faults.inject("client.recv:raise:p=0.3,times=inf", seed=SEED):
                    for n in range(20):
                        connection.execute("INSERT INTO t VALUES (?)", (n,))
                    (count,) = connection.query_one("SELECT COUNT(*) FROM t")
                # At-least-once replay may duplicate a write whose
                # response was lost; it must never lose one.
                assert count >= 20

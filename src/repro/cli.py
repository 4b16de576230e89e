"""An interactive TIP shell: query and browse temporal data.

The terminal counterpart of the demo setup — a ``dbaccess``-style REPL
over a TIP-enabled database with the Browser built in::

    python -m repro [database]

Plain input is executed as SQL (TSQL2 statement modifiers included).
Dot-commands drive the session:

======================  ==================================================
``.help``               this text
``.demo [n]``           load the synthetic medical database (default 50)
``.tables``             list tables (temporal ones are marked)
``.schema <table>``     show a table's DDL
``.now [t | clear]``    show/override/clear the interpretation of NOW
``.blade``              describe the installed TIP DataBlade
``.metrics [...]``      engine metrics: ``on``/``off`` toggles
                        collection, ``json`` dumps JSON, ``prom``
                        emits Prometheus text exposition, ``reset``
                        clears, no argument prints the table
``.explain <sql>``      run the statement under both the blade and a
                        layered TimeDB-style mirror and print the
                        side-by-side cost report (``EXPLAIN TEMPORAL
                        <sql>`` as plain input does the same)
``.faults [...]``       fault injection: ``<spec> [seed=N]`` arms a
                        chaos plan, ``off`` disarms, ``points`` lists
                        the injection points, no argument shows the
                        armed plan
``.flight [...]``       flight recorder: ``on``/``off`` toggles the
                        ring, ``clear`` empties it, ``json`` dumps the
                        events as JSONL, ``last N`` shows the newest N,
                        ``kind <k>`` filters by kind prefix, no
                        argument prints a summary table
``.linq <expr>``        evaluate a query-builder expression
                        (:mod:`repro.linq`) and run it; the namespace
                        binds ``t(name[, alias])`` for tables plus
                        ``lit``/``param``/``call``/``allen``/``now`` —
                        e.g. ``.linq t('Prescription',
                        'p').snapshot(at='1999-09-01')``.  Prints the
                        compiled tSQL, then the rows
``.browse <sql>``       load a query into the Browser and render it
``.window <start> <days>``  set the Browser window
``.slide <n>``          move the Browser window by n window-widths
``.zoom <factor>``      scale the Browser window
``.quit``               leave
======================  ==================================================

There are also non-interactive subcommands: one fetches a METRICS
frame from a running :class:`~repro.server.server.TipServer`, one
fetches its FLIGHT frame (the flight-recorder ring, as JSONL), one
runs a TIP server in the foreground (with an optional telemetry HTTP
endpoint), one inspects and validates chaos plans, one runs the
blade-vs-layered ``EXPLAIN TEMPORAL`` comparison on a one-shot
database::

    python -m repro metrics HOST:PORT [--json|--prom] [--reset]
    python -m repro flight HOST:PORT [--last N] [--session S]
                           [--trace T] [--kind K]
    python -m repro serve [--db PATH] [--host H] [--port P]
                          [--readers N] [--telemetry-port P]
                          [--flight-dump PATH] [--duration SECONDS]
    python -m repro faults [SPEC] [--seed N] [--json]
    python -m repro explain [--db PATH] [--demo N] [--json] SQL

Everything returns text, so the shell is scriptable and testable
(:class:`TipShell` is the engine; ``main()`` is the stdin loop).
"""

from __future__ import annotations

import json
import os
import sqlite3
import sys
from typing import List, Optional, Sequence

import repro
from repro import codec, faults, obs
from repro.browser import TimeWindow, TipBrowser
from repro.core.chronon import Chronon
from repro.core.span import Span
from repro.errors import TipError
from repro.tsql import TsqlSession, compiled, strip_explain

__all__ = [
    "TipShell", "main", "metrics_main", "faults_main", "explain_main",
    "flight_main", "serve_main",
]

_MAX_ROWS = 40


def _format_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Fixed-width table rendering for result sets."""
    cells = [[str(value) for value in row] for row in rows]
    widths = [
        max([len(header)] + [len(row[index]) for row in cells])
        for index, header in enumerate(headers)
    ]
    lines = [
        " | ".join(header.ljust(width) for header, width in zip(headers, widths)),
        "-+-".join("-" * width for width in widths),
    ]
    for row in cells:
        lines.append(" | ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return "\n".join(lines)


class TipShell:
    """The shell engine: one line of input -> one block of output."""

    def __init__(self, database: str = ":memory:") -> None:
        self.connection = repro.connect(database)
        self.tsql = TsqlSession(self.connection)
        self.browser = TipBrowser(self.connection)
        self._browser_loaded = False
        self.done = False

    # -- dispatch -------------------------------------------------------

    def execute_line(self, line: str) -> str:
        """Process one input line; never raises (errors become text)."""
        line = line.strip()
        if not line:
            return ""
        try:
            if line.startswith("."):
                return self._command(line)
            return self._run_sql(line)
        except (TipError, sqlite3.Error, ValueError, ConnectionError) as exc:
            # ConnectionError covers InjectedFault: an armed .faults plan
            # must fail the statement, never the shell.
            return f"error: {exc}"

    def _command(self, line: str) -> str:
        parts = line.split(None, 1)
        name = parts[0].lower()
        argument = parts[1].strip() if len(parts) > 1 else ""
        handler = getattr(self, f"_cmd_{name[1:]}", None)
        if handler is None:
            return f"error: unknown command {name} (try .help)"
        return handler(argument)

    # -- SQL ----------------------------------------------------------------

    def _run_sql(self, sql: str) -> str:
        inner = strip_explain(sql)
        if inner is not None:
            return self._explain(inner)
        self.tsql.rescan()
        translated = self.tsql.translate(sql)
        cursor = self.connection.execute(translated)
        if cursor.description is None:
            self.connection.commit()
            affected = cursor.rowcount
            return f"ok ({affected} row{'s' if affected != 1 else ''} affected)" \
                if affected >= 0 else "ok"
        rows = cursor.fetchall()
        headers = [entry[0] for entry in cursor.description]
        shown = rows[:_MAX_ROWS]
        text = _format_table(headers, shown)
        if len(rows) > _MAX_ROWS:
            text += f"\n... ({len(rows) - _MAX_ROWS} more rows)"
        return text + f"\n({len(rows)} row{'s' if len(rows) != 1 else ''})"

    # -- commands ----------------------------------------------------------------

    def _cmd_help(self, _argument: str) -> str:
        return (__doc__ or "").strip()

    def _cmd_quit(self, _argument: str) -> str:
        self.done = True
        return "bye"

    _cmd_exit = _cmd_quit

    def _cmd_demo(self, argument: str) -> str:
        from repro.workload import MedicalConfig, generate_prescriptions, load_tip

        n = int(argument) if argument else 50
        rows = generate_prescriptions(MedicalConfig(n_prescriptions=n, seed=1999))
        load_tip(self.connection, rows, table="Prescription")
        self.tsql.rescan()
        return f"loaded {n} prescriptions into Prescription"

    def _cmd_tables(self, _argument: str) -> str:
        rows = self.connection.query(
            "SELECT name FROM sqlite_master WHERE type = 'table' ORDER BY name"
        )
        if not rows:
            return "(no tables)"
        self.tsql.rescan()
        temporal = self.tsql.temporal_tables
        lines = []
        for (name,) in rows:
            marker = f"  [temporal: {temporal[name.lower()]}]" if name.lower() in temporal else ""
            lines.append(name + marker)
        return "\n".join(lines)

    def _cmd_schema(self, argument: str) -> str:
        if not argument:
            return "usage: .schema <table>"
        row = self.connection.query_one(
            "SELECT sql FROM sqlite_master WHERE type = 'table' AND name = ?",
            (argument,),
        )
        return row[0] if row and row[0] else f"error: no table {argument!r}"

    def _cmd_now(self, argument: str) -> str:
        if not argument:
            override = self.connection.now_override
            if override is None:
                return f"NOW tracks the wall clock (currently {Chronon(self.connection.statement_now_seconds())})"
            return f"NOW = {override} (override)"
        if argument.lower() == "clear":
            self.connection.set_now(None)
            return "NOW override cleared"
        self.connection.set_now(argument)
        return f"NOW = {self.connection.now_override} (override)"

    def _cmd_blade(self, _argument: str) -> str:
        from repro.blade import build_tip_blade

        return build_tip_blade().describe()

    def _explain(self, statement: str) -> str:
        from repro.tsql.explain import explain_temporal

        return explain_temporal(
            self.connection, statement, session=self.tsql
        ).render()

    def _cmd_explain(self, argument: str) -> str:
        if not argument:
            return "usage: .explain <statement>  (or: EXPLAIN TEMPORAL <statement>)"
        return self._explain(argument)

    def _cmd_metrics(self, argument: str) -> str:
        argument = argument.lower()
        if argument == "on":
            obs.enable()
            return "metrics collection enabled"
        if argument == "off":
            obs.disable()
            return "metrics collection disabled"
        if argument == "reset":
            obs.get_registry().reset()
            codec.clear_caches(reset_stats=True)
            compiled.clear_cache(reset_stats=True)
            obs.flight.clear()
            return "metrics reset"
        snapshot = obs.snapshot(trace_tail=10)
        if argument == "json":
            return obs.render_json(snapshot)
        if argument == "prom":
            return obs.render_prometheus(snapshot)
        if argument:
            return "usage: .metrics [on|off|json|prom|reset]"
        state = "on" if snapshot.get("enabled") else "off (enable with .metrics on)"
        return f"collection: {state}\n\n{obs.render_text(snapshot)}"

    def _cmd_faults(self, argument: str) -> str:
        if not argument:
            plan = faults.active_plan()
            if plan is None:
                return "fault injection: off (arm with .faults <spec> [seed=N])"
            return (f"fault injection: armed (seed={plan.seed})\n"
                    f"  spec: {plan.spec()}\n"
                    + "\n".join(f"  {rule.as_dict()}" for rule in plan.rules))
        if argument.lower() == "off":
            return ("fault injection disarmed"
                    if faults.disarm() is not None else "fault injection already off")
        if argument.lower() == "points":
            return faults.describe()
        seed = 0
        parts = argument.rsplit(None, 1)
        if len(parts) == 2 and parts[1].startswith("seed="):
            argument = parts[0]
            seed = int(parts[1][len("seed="):])
        plan = faults.arm(argument, seed=seed)
        return f"fault injection armed (seed={seed}): {plan.spec()}"

    def _cmd_flight(self, argument: str) -> str:
        flight = obs.flight
        head, _, tail = argument.partition(" ")
        head = head.lower()
        tail = tail.strip()
        if head == "on":
            flight.enable()
            return "flight recorder enabled"
        if head == "off":
            flight.disable()
            return "flight recorder disabled (ring kept)"
        if head == "clear":
            flight.clear()
            return "flight ring cleared"
        filters = {}
        if head == "last":
            try:
                filters["last"] = int(tail or "10")
            except ValueError:
                return "usage: .flight last <n>"
        elif head == "kind":
            if not tail:
                return "usage: .flight kind <kind-or-prefix>"
            filters["kind"] = tail
        elif head == "json":
            return "\n".join(
                json.dumps(entry, sort_keys=True) for entry in flight.snapshot()
            ) or "(no events)"
        elif head:
            return "usage: .flight [on|off|clear|json|last <n>|kind <k>]"
        events = flight.events(**filters)
        state = "on" if flight.state.enabled else "off (enable with .flight on)"
        if not events:
            return f"flight recorder: {state}\n(no events)"
        rows = [
            (event.seq, f"{event.ts:.6f}", event.kind, event.session or "-",
             " ".join(f"{key}={value}" for key, value in sorted(event.data.items())))
            for event in events
        ]
        return (f"flight recorder: {state} "
                f"({len(flight.get_recorder())} events, "
                f"capacity {flight.get_recorder().capacity})\n"
                + _format_table(("seq", "ts", "kind", "session", "data"), rows))

    # -- browser commands -----------------------------------------------------------

    def _cmd_linq(self, argument: str) -> str:
        from repro import linq as _linq
        from repro.linq import compile_expr

        if not argument:
            return (
                "usage: .linq <expression> — e.g. "
                ".linq t('Prescription', 'p').where("
                "t('Prescription', 'p').drug == 'Tylenol').snapshot()"
            )
        front = self.connection.linq()
        # The helpers are the eval *globals* (not locals) so that names
        # inside a lambda body — which resolve against globals — see
        # them too: ``.linq (lambda p: p.select(call('count', ...`` .
        namespace = {
            "__builtins__": {},
            "q": front,
            "t": front.table,
            "lit": _linq.lit,
            "param": _linq.param,
            "call": _linq.call,
            "allen": _linq.allen,
            "now": _linq.now,
        }
        try:
            result = eval(argument, namespace)  # noqa: S307
        except TipError:
            raise
        except Exception as exc:  # eval: any Python error becomes text
            return f"error: {type(exc).__name__}: {exc}"
        if isinstance(result, _linq.Query):
            if result.params.arity:
                return (
                    f"tSQL: {result.sql()}\n"
                    f"error: query has parameters {result.params.names}; "
                    "inline literals to run it from the shell"
                )
            return f"tSQL: {result.sql()}\n" + self._run_sql(result.sql())
        if isinstance(result, _linq.Expr):
            sql, _ = compile_expr(result)
            return f"{sql}  [{result.type_name}]"
        return repr(result)

    def _cmd_browse(self, argument: str) -> str:
        if not argument:
            return "usage: .browse <select statement>"
        self.tsql.rescan()
        self.browser.load(self.tsql.translate(argument))
        self.browser.reset_window()
        self._browser_loaded = True
        return self.browser.render()

    def _require_browser(self) -> Optional[str]:
        if not self._browser_loaded:
            return "error: no query loaded (use .browse <sql>)"
        return None

    def _cmd_window(self, argument: str) -> str:
        problem = self._require_browser()
        if problem:
            return problem
        parts = argument.split()
        if len(parts) != 2:
            return "usage: .window <start chronon> <days>"
        window = TimeWindow(Chronon.parse(parts[0]), Span.of(days=int(parts[1])))
        self.browser.set_window(window)
        return self.browser.render()

    def _cmd_slide(self, argument: str) -> str:
        problem = self._require_browser()
        if problem:
            return problem
        self.browser.slide(int(argument or "1"))
        return self.browser.render()

    def _cmd_zoom(self, argument: str) -> str:
        problem = self._require_browser()
        if problem:
            return problem
        self.browser.zoom(float(argument or "2"))
        return self.browser.render()

    def close(self) -> None:
        self.connection.close()


def metrics_main(argv: Sequence[str]) -> int:
    """``python -m repro metrics HOST:PORT [--json|--prom] [--reset]``.

    Fetches one METRICS frame from a running TIP server and prints the
    snapshot as a table (default), JSON, or Prometheus text exposition
    (``--prom``, ready for a scrape-to-file bridge).
    """
    from repro.server.client import RemoteTipConnection

    as_json = "--json" in argv
    as_prom = "--prom" in argv
    reset = "--reset" in argv
    targets = [arg for arg in argv if not arg.startswith("--")]
    if len(targets) != 1 or ":" not in targets[0]:
        print("usage: python -m repro metrics HOST:PORT [--json|--prom] [--reset]",
              file=sys.stderr)
        return 2
    host, _, port_text = targets[0].rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        print(f"error: bad port {port_text!r}", file=sys.stderr)
        return 2
    try:
        with RemoteTipConnection(host, port) as connection:
            data = connection.metrics(reset=reset, trace_tail=10)
    except (OSError, TipError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if as_json:
        print(obs.render_json(data))
        return 0
    if as_prom:
        print(obs.render_prometheus(data.get("metrics", {})))
        return 0
    session = data.get("session", {})
    print(f"session #{session.get('id', '?')}: "
          f"{session.get('frames', 0)} frames, "
          f"{session.get('execute', 0)} executes, "
          f"{session.get('errors', 0)} errors")
    print()
    print(obs.render_text(data.get("metrics", {})))
    return 0


def flight_main(argv: Sequence[str]) -> int:
    """``python -m repro flight HOST:PORT [--last N] [--session S] [--trace T] [--kind K]``.

    Fetches one FLIGHT frame from a running TIP server and prints the
    flight-recorder events as JSONL — one event per line, ready for
    ``jq`` or a log shipper.  The filters mirror the wire frame:
    newest N, one connection key, one trace id, or a kind prefix.
    """
    from repro.server.client import RemoteTipConnection

    last = 0
    session = trace = kind = None
    targets: List[str] = []
    arguments = iter(argv)
    for arg in arguments:
        if arg in ("--last", "--session", "--trace", "--kind"):
            value = next(arguments, None)
            if value is None:
                print(f"error: {arg} needs a value", file=sys.stderr)
                return 2
            if arg == "--last":
                try:
                    last = int(value)
                except ValueError:
                    print("error: --last needs an integer", file=sys.stderr)
                    return 2
            elif arg == "--session":
                session = value
            elif arg == "--trace":
                trace = value
            else:
                kind = value
            continue
        if arg.startswith("--"):
            print(f"error: unknown option {arg!r}", file=sys.stderr)
            return 2
        targets.append(arg)
    if len(targets) != 1 or ":" not in targets[0]:
        print("usage: python -m repro flight HOST:PORT "
              "[--last N] [--session S] [--trace T] [--kind K]", file=sys.stderr)
        return 2
    host, _, port_text = targets[0].rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        print(f"error: bad port {port_text!r}", file=sys.stderr)
        return 2
    try:
        with RemoteTipConnection(host, port) as connection:
            data = connection.flight(
                last=last, session=session, trace=trace, kind=kind
            )
    except (OSError, TipError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not data.get("enabled") and not data.get("events"):
        print("flight recorder is disabled on the server", file=sys.stderr)
    for event in data.get("events", []):
        print(json.dumps(event, sort_keys=True))
    return 0


def serve_main(argv: Sequence[str]) -> int:
    """``python -m repro serve [--db PATH] [--host H] [--port P] ...``.

    Runs a :class:`~repro.server.server.TipServer` in the foreground.
    ``--telemetry-port P`` additionally serves the live telemetry HTTP
    endpoint (``/metrics``, ``/debug/flight``, ...; port 0 picks a free
    one); ``--flight-dump PATH`` configures the crash-dump target;
    ``--duration SECONDS`` exits after that long (for scripting and
    tests — the default serves until interrupted).
    """
    from repro.server.server import TipServer

    options = {
        "--db": ":memory:", "--host": "127.0.0.1", "--port": "0",
        "--readers": "4", "--telemetry-port": None, "--flight-dump": None,
        "--slow-threshold": None, "--duration": None,
    }
    profiling = False
    arguments = iter(argv)
    for arg in arguments:
        if arg == "--profiling":
            profiling = True
            continue
        if arg in options:
            value = next(arguments, None)
            if value is None:
                print(f"error: {arg} needs a value", file=sys.stderr)
                return 2
            options[arg] = value
            continue
        print(f"error: unknown option {arg!r}", file=sys.stderr)
        print("usage: python -m repro serve [--db PATH] [--host H] [--port P] "
              "[--readers N] [--telemetry-port P] [--flight-dump PATH] "
              "[--profiling] [--slow-threshold S] [--duration SECONDS]",
              file=sys.stderr)
        return 2
    try:
        port = int(options["--port"])
        readers = int(options["--readers"])
        telemetry_port = (
            None if options["--telemetry-port"] is None
            else int(options["--telemetry-port"])
        )
        slow_threshold = (
            None if options["--slow-threshold"] is None
            else float(options["--slow-threshold"])
        )
        duration = (
            None if options["--duration"] is None
            else float(options["--duration"])
        )
    except ValueError as exc:
        print(f"error: bad option value: {exc}", file=sys.stderr)
        return 2
    server = TipServer(
        options["--db"], host=options["--host"], port=port, readers=readers,
        profiling=profiling, slow_threshold=slow_threshold,
        telemetry_port=telemetry_port, flight_dump=options["--flight-dump"],
    )
    server.start()
    try:
        host, bound_port = server.address
        print(f"serving {options['--db']} on {host}:{bound_port}")
        if server.telemetry_address is not None:
            t_host, t_port = server.telemetry_address
            print(f"telemetry on http://{t_host}:{t_port}/metrics")
        sys.stdout.flush()
        import time as _time

        if duration is not None:
            _time.sleep(duration)
        else:  # pragma: no cover - interactive foreground loop
            while True:
                _time.sleep(3600)
    except KeyboardInterrupt:  # pragma: no cover - ^C is the exit path
        pass
    finally:
        server.stop()
    return 0


def faults_main(argv: Sequence[str]) -> int:
    """``python -m repro faults [SPEC] [--seed N] [--json]``.

    With no SPEC, prints the injection-point catalogue.  With a SPEC,
    validates it through :func:`repro.faults.parse_plan` and prints the
    parsed plan — the dry-run companion to arming the same spec with
    the ``.faults`` shell command or :func:`repro.faults.arm`.
    """
    as_json = "--json" in argv
    seed = 0
    positional: List[str] = []
    arguments = iter(argv)
    for arg in arguments:
        if arg == "--json":
            continue
        if arg == "--seed":
            try:
                seed = int(next(arguments))
            except (StopIteration, ValueError):
                print("error: --seed needs an integer", file=sys.stderr)
                return 2
            continue
        if arg.startswith("--"):
            print(f"error: unknown option {arg!r}", file=sys.stderr)
            return 2
        positional.append(arg)
    if not positional:
        print("injection points (point:mode[:knob=value,...]; modes: "
              + ", ".join(faults.MODES) + ")")
        print()
        print(faults.describe())
        return 0
    if len(positional) != 1:
        print("usage: python -m repro faults [SPEC] [--seed N] [--json]",
              file=sys.stderr)
        return 2
    try:
        plan = faults.parse_plan(positional[0], seed=seed)
    except faults.FaultPlanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if as_json:
        print(obs.render_json(plan.as_dict()))
    else:
        print(f"plan ok (seed={seed}): {plan.spec()}")
        for rule in plan.rules:
            print(f"  {rule.point}: {rule.mode} "
                  f"(p={rule.probability:g}, times={rule.times}, "
                  f"after={rule.after}, delay={rule.delay:g})")
    return 0


def explain_main(argv: Sequence[str]) -> int:
    """``python -m repro explain [--db PATH] [--demo N] [--json] SQL``.

    Runs one statement (TSQL2 modifiers and the ``EXPLAIN TEMPORAL``
    prefix both accepted) under the integrated blade engine and a
    layered TimeDB-style mirror, and prints the side-by-side cost
    report.  Without ``--db``, a synthetic medical database is
    generated in memory (``--demo N`` prescriptions, default 50) so
    ``Prescription`` is queryable out of the box.
    """
    from repro.tsql.explain import explain_temporal

    as_json = "--json" in argv
    database = ""
    demo = 50
    positional: List[str] = []
    arguments = iter(argv)
    for arg in arguments:
        if arg == "--json":
            continue
        if arg in ("--db", "--demo"):
            value = next(arguments, None)
            if value is None:
                print(f"error: {arg} needs a value", file=sys.stderr)
                return 2
            if arg == "--db":
                database = value
            else:
                try:
                    demo = int(value)
                except ValueError:
                    print("error: --demo needs an integer", file=sys.stderr)
                    return 2
            continue
        if arg.startswith("--"):
            print(f"error: unknown option {arg!r}", file=sys.stderr)
            return 2
        positional.append(arg)
    if len(positional) != 1:
        print("usage: python -m repro explain [--db PATH] [--demo N] [--json] SQL",
              file=sys.stderr)
        return 2
    connection = repro.connect(database or ":memory:")
    try:
        if not database:
            from repro.workload import MedicalConfig, generate_prescriptions, load_tip

            rows = generate_prescriptions(
                MedicalConfig(n_prescriptions=demo, seed=1999)
            )
            load_tip(connection, rows, table="Prescription")
        try:
            report = explain_temporal(connection, positional[0])
        except (TipError, sqlite3.Error, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(obs.render_json(report.as_dict()) if as_json else report.render())
    finally:
        connection.close()
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """The stdin REPL loop, or a one-shot subcommand.

    Subcommands: ``metrics``, ``flight``, ``serve``, ``faults``,
    ``explain``.
    """
    arguments = list(sys.argv[1:] if argv is None else argv)
    if arguments and arguments[0] == "faults":
        return faults_main(arguments[1:])
    if arguments and arguments[0] == "explain":
        return explain_main(arguments[1:])
    if arguments and arguments[0] == "serve":
        return serve_main(arguments[1:])
    if arguments and arguments[0] in ("metrics", "flight"):
        try:
            if arguments[0] == "flight":
                return flight_main(arguments[1:])
            return metrics_main(arguments[1:])
        except BrokenPipeError:
            # stdout went away (e.g. piped into `head`); not an error.
            # Point the fd at devnull so interpreter shutdown doesn't
            # trip over flushing the closed pipe.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 0
    database = arguments[0] if arguments else ":memory:"
    shell = TipShell(database)
    print(f"TIP shell — database: {database}.  .help for help, .quit to leave.")
    try:
        while not shell.done:
            try:
                line = input("tip> ")
            except EOFError:
                break
            output = shell.execute_line(line)
            if output:
                print(output)
    finally:
        shell.close()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())

"""The catalogue of named fault-injection points.

Each entry is a place in the stack where :mod:`repro.faults` can make
something go wrong on purpose.  The names are stable API: chaos plans
(:func:`repro.faults.parse_plan`), the ``.faults`` shell command, and
the ``repro faults`` CLI all validate against this catalogue, and the
chaos test matrix (``tests/test_faults_chaos.py``) enumerates it.

A point either carries a byte payload (the frame or blob flowing
through it — ``truncate`` and ``corrupt`` rewrite it) or is an *action*
point with no payload, where those modes degrade to ``raise``.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["CATALOGUE", "PAYLOAD_POINTS", "describe"]

#: point name -> human description of where it fires.
CATALOGUE: Dict[str, str] = {
    "server.frame.read": "server: an inbound frame line, after the socket "
                         "read and before parsing",
    "server.frame.write": "server: an outbound response frame, header "
                          "line and binary body, after serialization and "
                          "before the socket write",
    "client.connect": "remote client: establishing the TCP connection "
                      "(initial connect and every reconnect)",
    "client.send": "remote client: a serialized request frame, before "
                   "the socket write",
    "client.recv": "remote client: a response frame, its header line and "
                   "binary body, after the socket reads and before "
                   "parsing",
    "conn.execute": "local connection: statement execution in "
                    "TipCursor.execute, before the engine runs it",
    "blade.routine": "blade: every SQL routine invocation, before "
                     "argument coercion",
    "codec.decode": "codec: a binary blob entering decode()",
    "pool.checkout": "server pool: checking a reader connection out for "
                     "a read statement (fired per connection key)",
    "stmt.cache": "tsql: compiling a statement through the "
                  "compiled-statement cache (armed plans bypass the "
                  "cache, so every compile reaches this point)",
    "wal.checkpoint": "server pool: after each write commit, before the "
                      "passive WAL checkpoint (fired per connection key; "
                      "an injected failure defers the checkpoint, never "
                      "the write)",
    "plan.kernel": "planner: a statement routed to a set-based temporal "
                   "kernel, after plan selection and before the bulk "
                   "fetch (a raise aborts the kernel run with nothing "
                   "to roll back)",
}

#: Points whose payload is bytes (truncate/corrupt rewrite the data).
PAYLOAD_POINTS = frozenset(
    {"server.frame.read", "server.frame.write", "client.send", "client.recv",
     "codec.decode"}
)


def describe() -> str:
    """The catalogue as an aligned text table (CLI and shell output)."""
    width = max(len(name) for name in CATALOGUE)
    lines = []
    for name in sorted(CATALOGUE):
        flavor = "payload" if name in PAYLOAD_POINTS else "action "
        lines.append(f"{name.ljust(width)}  [{flavor}]  {CATALOGUE[name]}")
    return "\n".join(lines)

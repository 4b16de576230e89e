"""TIP: a temporal extension to an extensible relational DBMS.

Reproduction of Yang, Ying & Widom, *TIP: A Temporal Extension to
Informix* (SIGMOD 2000).  The public API:

* the five temporal datatypes and ``NOW`` — :mod:`repro.core`;
* the DataBlade framework and the TIP blade — :mod:`repro.blade`;
* the client library (``connect``) — :mod:`repro.client`;
* the TIP Browser — :mod:`repro.browser`;
* the layered-architecture baseline — :mod:`repro.layered`;
* temporal warehouse views — :mod:`repro.warehouse`;
* deterministic fault injection — :mod:`repro.faults`;
* workload generators — :mod:`repro.workload`;
* the temporal planner's set-based kernels — :mod:`repro.plan`;
* TSQL2 statement modifiers — :mod:`repro.tsql`.
"""

from repro.core import NOW, Chronon, Element, Instant, Period, Span, current_now, use_now
from repro.errors import TipError

__version__ = "1.0.0"

__all__ = [
    "Chronon",
    "Span",
    "Instant",
    "NOW",
    "Period",
    "Element",
    "current_now",
    "use_now",
    "TipError",
    "connect",
    "__version__",
]


def connect(database: str = ":memory:", **kwargs):
    """Open a TIP-enabled database connection.

    Convenience re-export of :func:`repro.client.connect`; imports the
    client lazily so pure-algebra users never touch sqlite3.
    """
    from repro.client import connect as _connect

    return _connect(database, **kwargs)

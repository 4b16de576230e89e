"""Network access to a TIP-enabled database (Figure 1's client path).

In the paper, "client applications can connect directly to a
TIP-enabled database through a standard API such as ODBC or JDBC".
This package is that path for the reproduction: :class:`TipServer`
serves a TIP-enabled database over TCP with a JSON-header protocol, and
:class:`RemoteTipConnection` is the client-side driver exposing the
same query surface as a local :class:`~repro.client.TipConnection` —
TIP values travel in their binary format and come out as datatype
objects, and each remote session carries its own ``NOW`` override.
"""

from repro.server.client import RemoteTipConnection
from repro.server.server import TipServer

__all__ = ["TipServer", "RemoteTipConnection"]

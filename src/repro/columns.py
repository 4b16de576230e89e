"""Column-major result tables.

The planner kernels (:mod:`repro.plan.kernels`) emit their results as a
:class:`ColumnTable` and the wire protocol
(:func:`repro.server.protocol.dump_result`) frames one as it is.  The
type lives here, apart from both, so the protocol recognizes a table
without importing the planner.
"""

from __future__ import annotations

import gc
from typing import Callable, List, Optional, Sequence, Tuple

__all__ = ["ColumnTable"]


class ColumnTable:
    """Result rows held column-major: ``cols[c][r]`` is column c of row r.

    ``n`` is the row count, so ``len()`` needs no tuples; the server
    frames the columns as they are
    (:func:`repro.server.protocol.dump_result`).  *stamp*, when given,
    packs the canonical blobs of the Elements the kernel built; the
    server runs it (:meth:`stamp_blobs`) right before it encodes them,
    so an embedded caller, who never encodes them, does not pay for it.
    """

    __slots__ = ("cols", "n", "_stamp")

    def __init__(self, cols: List[Sequence], n: int,
                 stamp: Optional[Callable[[], None]] = None) -> None:
        self.cols = cols
        self.n = n
        self._stamp = stamp

    def __len__(self) -> int:
        return self.n

    def stamp_blobs(self) -> None:
        """Stamp the kernel's fresh Elements with their blobs, once."""
        stamp, self._stamp = self._stamp, None
        if stamp is not None:
            stamp()

    def tuples(self) -> List[Tuple]:
        """The rows as tuples, built with one ``zip``.

        The collector is paused meanwhile, like around the kernels: the
        new tuples hold nothing cyclic, and generation scans would only
        re-walk the objects the kernel just built.
        """
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            return list(zip(*self.cols)) if self.cols else [()] * self.n
        finally:
            if gc_was_enabled:
                gc.enable()

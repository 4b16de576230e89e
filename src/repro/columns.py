"""Column-major result tables.

The planner kernels (:mod:`repro.plan.kernels`) emit their results as a
:class:`ColumnTable` and the wire protocol
(:func:`repro.server.protocol.dump_result`) frames one as it is.  The
type lives here, apart from both, so the protocol recognizes a table
without importing the planner.
"""

from __future__ import annotations

import gc
from typing import List, Sequence, Tuple

import numpy as np

from repro.codec.binary import pack_elements
from repro.core.element import Element

__all__ = ["ColumnTable", "ElementColumn"]


class ElementColumn:
    """A column of canonical, determinate Elements shared among rows.

    Row ``r`` holds distinct value ``slots[r]``, and distinct value
    ``k`` owns the next ``counts[k]`` of the flat ``(lo, hi)`` pair
    arrays.  The server packs the values' blobs straight from the pairs
    (:meth:`pack`) and never builds an Element; :meth:`tolist` builds
    each distinct Element once for an embedded caller.
    """

    __slots__ = ("slots", "counts", "lo", "hi")

    def __init__(self, slots: np.ndarray, counts: np.ndarray,
                 lo: np.ndarray, hi: np.ndarray) -> None:
        self.slots = slots
        self.counts = counts
        self.lo = lo
        self.hi = hi

    def pack(self) -> Tuple[np.ndarray, bytes]:
        """The distinct values' canonical blobs: ``(sizes, data)``."""
        return pack_elements(self.counts, self.lo, self.hi)

    def tolist(self) -> List[Element]:
        """The rows' values, one shared Element per distinct value."""
        bounds = np.zeros(len(self.counts) + 1, np.int64)
        np.cumsum(self.counts, out=bounds[1:])
        pairs = list(zip(self.lo.tolist(), self.hi.tolist()))
        bound_list = bounds.tolist()
        values = [Element._from_canonical_pairs(tuple(pairs[a:b]))
                  for a, b in zip(bound_list, bound_list[1:])]
        return list(map(values.__getitem__, self.slots.tolist()))


class ColumnTable:
    """Result rows held column-major: ``cols[c][r]`` is column c of row r.

    A column is a Python sequence, an int64 numpy array (a kernel's
    all-integer column, gathered by row index) or an
    :class:`ElementColumn`.  ``n`` is the row count, so ``len()`` needs
    no tuples; the server frames the columns as they are
    (:func:`repro.server.protocol.dump_result`), packing the arrays
    and the Element columns without a Python object per row.
    """

    __slots__ = ("cols", "n")

    def __init__(self, cols: List[Sequence], n: int) -> None:
        self.cols = cols
        self.n = n

    def __len__(self) -> int:
        return self.n

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
            if not self.cols:
                return [()] * self.n
            return list(zip(*[
                column if isinstance(column, (list, tuple))
                else column.tolist() for column in self.cols]))
        finally:
            if gc_was_enabled:
                gc.enable()

"""Table images: each kernel input fetched and parsed once per data version.

A :class:`TableImage` holds what the kernels read of one ``(table,
validity column)``: the ``rowid`` of every row in table order, each
column a kernel used as a :class:`Coded` column, and the validity
column's ungrounded parse (:class:`repro.codec.binary.ElementParse`),
which every statement grounds at its own ``NOW``.

:func:`snapshot` runs all of one kernel statement's reads in one read
transaction, and checks the key that keeps a connection's retained
images current: ``PRAGMA schema_version`` (of ``main`` and of
``temp``, where a table can be shadowed), ``PRAGMA data_version``, the
connection's ``total_changes`` and
:func:`repro.tsql.compiled.generation`.  :meth:`Snapshot.side` applies
the churn rule: a whole-table image once the key was seen unchanged
and within :data:`RETAINED_ROWS`, else a transient image of the rows
the side's filters select.  :mod:`repro.plan.kernels` documents both
rules.

``plan.image.hits`` / ``.misses`` count the images a statement's
tables were read from (a retained one, or one built for it), and
``plan.image.invalidations`` the retained images a key change dropped.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.codec.binary import ElementParse, parse_elements
from repro.faults import state as _FAULTS
from repro.obs.registry import get_registry as _obs_registry
from repro.obs.registry import state as _obs_state
from repro.tsql import compiled
from repro.tsql.parser import Column

__all__ = ["RETAINED_ROWS", "Coded", "TableImage", "Snapshot", "snapshot",
           "selection", "where_clause"]

#: Rows of retained images one connection may hold.  An image costs
#: about 110 bytes per row (measured on the benchmark's tables: the
#: rowid, two coded columns and ~2.5 parsed periods per row), so this
#: bounds a connection's images near 3.6 MB; past it, sides build
#: transient images as if nothing were retained.
RETAINED_ROWS = 1 << 15


class Coded:
    """One stored column, dictionary-encoded.

    ``codes[r]`` is row ``r``'s index into ``values``, the distinct
    stored values followed by one ``None``, so code −1 (NULL) reads
    ``None``; ``ints`` is ``values`` as an int64 array when every row
    holds an int that fits, so gathers stay in numpy.  ``blobs`` says
    whether any value is a blob (only those pass the type map), and
    ``ranks`` caches the coalesce kernel's group order.  A
    column whose values do not hash — a declared TIP column, which the
    converters decode, is only ever an output — keeps one code per row.
    """

    __slots__ = ("codes", "values", "ints", "blobs", "ranks")

    def __init__(self, values: Sequence) -> None:
        kinds = set(map(type, values))
        self.ints = self.ranks = None
        self.blobs = not kinds.isdisjoint((bytes, bytearray, memoryview))
        mixed = {int, float} <= kinds
        if kinds == {int}:
            try:
                stored = np.fromiter(values, np.int64, len(values))
            except OverflowError:
                pass
            else:
                self.ints, self.codes = np.unique(stored, return_inverse=True)
                self.values = self.ints.tolist() + [None]
                return
        keys = list(zip(map(type, values), values)) if mixed else values
        null = (type(None), None) if mixed else None
        try:
            distinct = dict.fromkeys(keys)
        except TypeError:  # decoded TIP values (output columns only)
            self.codes = np.arange(len(values))
            self.values = list(values) + [None]
            return
        distinct.pop(null, None)
        number = dict(zip(distinct, range(len(distinct))))
        number[null] = -1
        self.codes = np.fromiter(map(number.__getitem__, keys), np.int64,
                                 len(keys))
        self.values = ([value for _kind, value in distinct] if mixed
                       else list(distinct)) + [None]


def selection(filters) -> tuple:
    """What decides the rows *filters* select: their SQL and their
    bound parameters with the parameters' types (``1`` and ``1.0``
    can select different rows)."""
    where, params = where_clause(filters)
    return where, tuple(params), tuple(map(type, params))


def where_clause(filters) -> Tuple[str, List[object]]:
    """Pushed-down *filters* as SQL (``" WHERE …"`` or ``""``) with
    their literals as parameters, bound as SQLite reads them."""
    params: List[object] = []

    def sql(operand) -> str:
        if isinstance(operand, Column):
            return operand.name
        value = operand.value
        if isinstance(value, int) and not -2**63 <= value < 2**63:
            value = float(value)  # SQLite reads such a literal as REAL
        params.append(value)
        return "?"

    where = " AND ".join(f"{sql(c.left)} {c.op} {sql(c.right)}"
                         for c in filters)
    return (f" WHERE {where}" if where else ""), params


class TableImage:
    """The rows of *table* that *where* selects (all, when retained)."""

    __slots__ = ("table", "where", "params", "rowids", "columns", "elements",
                 "n")

    def __init__(self, connection, table: str, valid: str,
                 columns: Sequence[str], where: str,
                 params: Sequence) -> None:
        self.table, self.where, self.params = table, where, list(params)
        rowids, *fetched, stored = self._fetch(
            connection, ["rowid", *columns, "+" + valid])
        self.n = len(stored)
        self.rowids = np.fromiter(rowids, np.int64, self.n)
        self.columns: Dict[str, Coded] = {
            name: Coded(values) for name, values in zip(columns, fetched)}
        self.elements: ElementParse = parse_elements(stored)

    def _fetch(self, connection, expressions: List[str]) -> List[Sequence]:
        # NOT INDEXED keeps table order whatever indexes the filters
        # could use, so rows line up across fetches and statements.
        return connection.query_stored_columns(
            f"SELECT {', '.join(expressions)} FROM {self.table} NOT INDEXED"
            + self.where, self.params)

    def column(self, connection, name: str) -> Coded:
        """Column *name*, fetched on first use (inside a snapshot whose
        key equals the image's, so the rows are the same)."""
        coded = self.columns.get(name)
        if coded is None:
            (values,) = self._fetch(connection, [name])
            coded = self.columns[name] = Coded(values)
        return coded

    def select(self, connection, where: str, params: Sequence):
        """Positions of the rows *where* selects, ascending."""
        (text,) = connection.raw.execute(
            f"SELECT group_concat(rowid) FROM {self.table} NOT INDEXED"
            + where, params).fetchone()
        if text is None:
            return np.empty(0, np.int64)
        at = np.searchsorted(self.rowids,
                             np.fromstring(text, np.int64, sep=","))
        at.sort()
        return at


class _Images:
    """One connection's retained images and what its key last was."""

    __slots__ = ("key", "images", "seen", "rows", "active")

    def __init__(self) -> None:
        self.key: Optional[tuple] = None
        self.images: Dict[Tuple[str, str], TableImage] = {}
        self.seen: set = set()   # tables read once at this key
        self.rows = 0            # rows held by the retained images
        self.active: Optional[Snapshot] = None


def _count(name: str, amount: int = 1) -> None:
    if _obs_state.enabled and amount:
        _obs_registry().counter(name).add(amount)


class Snapshot:
    """One kernel statement's reads: its image decisions and counts."""

    def __init__(self, connection, images: _Images, retain: bool) -> None:
        self.connection = connection
        self._images = images
        self._retain = retain      # may use and keep retained images
        self._counts: Dict[str, int] = {}
        self._decided: Dict[Tuple[str, str], Optional[TableImage]] = {}
        self._states: List[str] = []
        self._transient: Dict[tuple, TableImage] = {}
        if retain:
            self._validate()

    @property
    def state(self) -> str:
        """``hit`` when every table came from a retained image,
        ``transient`` when some side built one for itself, ``miss``
        otherwise (``none`` when the statement read no table)."""
        for state in ("transient", "miss", "hit"):
            if state in self._states:
                return state
        return "none"

    def rows(self, table: str, valid: str) -> int:
        """*table*'s row count: its current image's, else ``COUNT(*)``."""
        image = self._images.images.get((table.lower(), valid)) \
            if self._retain else None
        if image is not None:
            return image.n
        count = self._counts.get(table.lower())
        if count is None:
            # On the raw connection: a planner probe, not a statement
            # of its own (a profiler would otherwise record it as one).
            row = self.connection.raw.execute(
                f"SELECT COUNT(*) FROM {table}").fetchone()
            count = self._counts[table.lower()] = int(row[0]) if row else 0
        return count

    def expect(self, table: str, valid: str) -> str:
        """What reading *table* would be now: hit, miss or transient."""
        ident = (table.lower(), valid)
        images = self._images
        if not self._retain:
            return "transient"
        if ident in images.images:
            return "hit"
        if ident in images.seen \
                and images.rows + self.rows(table, valid) <= RETAINED_ROWS:
            return "miss"
        return "transient"

    def side(self, table: str, valid: str, columns: Sequence[str],
             filters) -> Tuple[TableImage, Optional[np.ndarray]]:
        """The image a kernel side reads, and the positions of its rows
        there (None: every row)."""
        where, params = where_clause(filters)
        image = self._retained(table, valid, columns)
        if image is not None:
            return image, (image.select(self.connection, where, params)
                           if where else None)
        key = (table.lower(), valid, *selection(filters))
        image = self._transient.get(key)
        if image is None:
            image = self._transient[key] = TableImage(
                self.connection, table, valid, columns, where, params)
        return image, None

    def _retained(self, table: str, valid: str,
                  columns: Sequence[str]) -> Optional[TableImage]:
        ident = (table.lower(), valid)
        if ident in self._decided:
            return self._decided[ident]
        state = self.expect(table, valid)
        images = self._images
        image = images.images.get(ident) if state == "hit" else None
        if state == "miss":
            image = images.images[ident] = TableImage(
                self.connection, table, valid, columns, "", ())
            images.rows += image.n
        elif state == "transient" and self._retain:
            images.seen.add(ident)
        self._decided[ident] = image
        self._states.append(state)
        _count("plan.image.hits" if state == "hit" else "plan.image.misses")
        return image

    def _validate(self) -> None:
        """Drop the retained images if the key moved."""
        raw = self.connection.raw
        key = (raw.execute("PRAGMA schema_version").fetchone()[0],
               raw.execute("PRAGMA temp.schema_version").fetchone()[0],
               raw.execute("PRAGMA data_version").fetchone()[0],
               raw.total_changes, compiled.generation())
        images = self._images
        if key != images.key:
            _count("plan.image.invalidations", len(images.images))
            images.images.clear()
            images.seen.clear()
            images.rows = 0
            images.key = key


@contextmanager
def snapshot(connection) -> Iterator[Snapshot]:
    """One read snapshot for a kernel statement's reads (re-entrant:
    a nested call joins the open one)."""
    images = connection.table_images
    if images is None:
        # A connection serves one thread at a time: no lock needed.
        images = connection.table_images = _Images()
    if images.active is not None:
        yield images.active
        return
    raw = connection.raw
    began = not raw.in_transaction
    if began:
        raw.execute("BEGIN")
    try:
        images.active = Snapshot(connection, images,
                                 retain=began and _FAULTS.plan is None)
        yield images.active
    finally:
        images.active = None
        if began and raw.in_transaction:
            raw.execute("COMMIT")

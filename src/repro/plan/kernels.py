"""Set-based kernels for matched temporal shapes.

These are the paper's integrated temporal support made concrete:
instead of letting SQLite grind ``overlaps(a.valid, b.valid)`` over the
full cross product (one UDF call and two blob decodes per candidate
tuple), the planner bulk-fetches both sides once and joins them with
interval algorithms:

``hash``
    Cross-alias equality conjuncts become hash-join keys (the
    temporal-graph path query joins on ``e1.dst = e2.src``), numbered
    by one dict and bucketed by one stable sort; the overlap test runs
    only within each bucket.
``merge``
    No equalities: two periods overlap exactly when one starts inside
    the other, so two ``np.searchsorted`` passes over the sorted
    period starts of each side find every overlapping row pair.
``sweep``
    Coalesce: one segmented sort-and-sweep unions every group's
    periods at once (the coalesced element is built only when the
    query returns it).

A join is one pipeline whatever its strategy: the candidate step
yields parallel ``(i, j)`` row-index lists in (left, right) fetch
order, the cross-side residuals in ``JoinShape.cross`` drop candidates
through one :func:`sql_compare` mask, and one vectorized emit
intersects every surviving pair's periods and clips them to the
window.  The strategy depends on the shape and on the window grounded
at the statement ``NOW`` alone (:func:`join_plan`), so ``EXPLAIN
TEMPORAL`` names the plan that runs.

The bulk fetch reads only what a kernel uses, column by column.
Single-side filters (``p1.drug = 'X'``, a coalesce's ``WHERE``) go
into its SQL ``WHERE`` with the literals bound as parameters, so SQLite
applies its own NULL, storage-class, affinity and collation rules to
them.  ``NOT INDEXED`` keeps the fetch in table order whatever indexes
the filters could use, so the emit order never depends on the schema.
The validity column is selected as ``+valid``, which no converter
touches, and :func:`repro.codec.binary.element_arrays` turns it into
flat int64 ``(row, lo, hi)`` arrays grounded at the statement ``NOW``
in one vectorized pass, NOW-relative and non-canonical blobs included;
only values the per-blob decoder would reject (and non-blob values)
decode one at a time (counted as ``fallback_decodes``).

A kernel result is a :class:`repro.columns.ColumnTable`.  The emit
gathers each projected column by row index from its side's fetched
values — an all-integer column as an int64 array, straight from the
candidate index arrays — and builds the validity column as an
:class:`~repro.columns.ElementColumn`: the distinct intersections
(single-pair ones deduplicated in one vectorized pass, ``np.lexsort``
and run boundaries, the rest through a dict) and each row's slot among
them.  The server packs those columns for the wire with no Python
object per row and no Element at all; only an embedded caller builds
Elements and row tuples (:meth:`ColumnTable.tuples`).

Every kernel grounds elements at one statement ``NOW`` and produces
rows value-identical to the naive path — the differential suite
(``tests/test_plan_kernels.py``) holds them equal as multisets.  Keys,
residuals and group keys compare the values SQLite stored (the type
map runs only over the projected columns that hold blobs): hash keys
and group keys by dict hashing, the cross-side residuals in
``JoinShape.cross`` through :func:`sql_compare`, both with SQLite's
storage-class semantics (NULL never matches; numeric < text < blob
across classes; ``1 = 1.0``; blobs by bytes); the planner keeps a
statement off the kernels when SQLite would first convert between two
compared columns' affinities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, compress, repeat
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.codec.binary import element_arrays, merge_pairs
from repro.columns import ColumnTable, ElementColumn
from repro.core.span import Span
from repro.plan.shapes import CoalesceShape, Condition, JoinShape
from repro.tsql.parser import Column

__all__ = ["KernelResult", "execute_join", "execute_coalesce",
           "join_plan", "sql_compare"]

Pair = Tuple[int, int]


@dataclass
class KernelResult:
    """What a kernel hands back to the planner."""

    rows: ColumnTable
    columns: List[str]
    strategy: str                  # join_plan()'s strategy, or "sweep"
    now_seconds: int
    stats: Dict[str, int] = field(default_factory=dict)


# -- SQLite comparison semantics ---------------------------------------


def _storage_class(value: object) -> int:
    if isinstance(value, (int, float)):
        return 0
    if isinstance(value, str):
        return 1
    return 2  # blob


def sql_compare(left: object, op: str, right: object) -> bool:
    """``left <op> right`` with SQLite's comparison rules.

    NULL comparisons are not true (the WHERE filter drops them); values
    of different storage classes never compare equal and order as
    numeric < text < blob; within a class, ordinary ordering applies
    (so ``1 = 1.0``, just like SQLite's numeric affinity).
    """
    if left is None or right is None:
        return False
    left_class = _storage_class(left)
    right_class = _storage_class(right)
    if left_class != right_class:
        if op == "=":
            return False
        if op == "!=":
            return True
        ordered = left_class < right_class
        return ordered if op in ("<", "<=") else not ordered
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    return left >= right


# -- side preparation ---------------------------------------------------

_BYTES = frozenset((bytes, bytearray, memoryview))


def _map_output(connection, values: Sequence) -> Sequence:
    """*values* through the connection's type map, when any is a blob
    (the map transforms nothing else)."""
    if _BYTES.isdisjoint(map(type, values)):
        return values
    map_value = connection.type_map.map_value
    return [map_value(value) if type(value) in _BYTES else value
            for value in values]


def _int_array(values: Sequence) -> Sequence:
    """*values* as an int64 array when every one is an int that fits,
    so the emit gathers it by row index; otherwise as they are."""
    if set(map(type, values)) == {int}:
        try:
            return np.fromiter(values, np.int64, len(values))
        except OverflowError:
            pass
    return values


class _Side:
    """One fetched, grounded join input: its surviving rows' stored
    columns, and its validity pairs as flat int64 arrays, row-major
    (``row`` ascending, canonical per row)."""

    __slots__ = ("cols", "outs", "n", "row", "lo", "hi", "counts",
                 "offsets", "fetched", "fallbacks")

    def __init__(self, cols: Dict[str, Sequence], outs: Dict[str, Sequence],
                 n: int, row, lo, hi, fetched: int, fallbacks: int) -> None:
        self.cols = cols            # column name -> stored values
        self.outs = outs            # projected column -> type-mapped
                                    # values (int64 array if all ints)
        self.n = n                  # surviving rows, fetch order
        self.row, self.lo, self.hi = row, lo, hi  # one entry per pair
        self.counts = np.bincount(row, minlength=n)
        self.offsets = np.zeros(n + 1, np.int64)
        np.cumsum(self.counts, out=self.offsets[1:])
        self.fetched = fetched      # rows SQLite returned (post-pushdown)
        self.fallbacks = fallbacks  # blobs decoded one at a time


def _columns_for_side(shape: JoinShape, alias: str) -> List[str]:
    """Projected, key and cross-residual columns (filters stay in SQL)."""
    needed = set()
    for output in shape.outputs:
        if output.alias == alias:
            needed.add(output.column)
    for left_col, right_col in shape.equalities:
        needed.add(left_col if alias == shape.left_alias else right_col)
    for condition in shape.cross:
        for operand in (condition.left, condition.right):
            if isinstance(operand, Column) and operand.table == alias:
                needed.add(operand.name)
    return sorted(needed)


def _fetch(connection, table: str, columns: List[str], valid: str,
           filters: Sequence[Condition]) -> List[Sequence]:
    """The stored *columns* and *valid* values (last) of the rows of
    *table* that pass *filters*, column by column, in table order."""
    params: List[object] = []

    def sql(operand) -> str:
        if isinstance(operand, Column):
            return operand.name
        value = operand.value
        if isinstance(value, int) and not -2**63 <= value < 2**63:
            value = float(value)  # SQLite reads such a literal as REAL
        params.append(value)
        return "?"

    where = " AND ".join(
        f"{sql(c.left)} {c.op} {sql(c.right)}" for c in filters
    )
    return connection.query_stored_columns(
        f"SELECT {', '.join(columns + ['+' + valid])} "
        f"FROM {table} NOT INDEXED" + (f" WHERE {where}" if where else ""),
        params,
    )


def _prepare_side(connection, table: str, columns: List[str],
                  outputs: Sequence[str], valid: str,
                  filters: Sequence[Condition], now_seconds: int,
                  window_pair: Optional[Pair]) -> _Side:
    *fetched, stored = _fetch(connection, table, columns, valid, filters)
    row, lo, hi, fallbacks = element_arrays(
        stored, now_seconds, f"expected Element in {table}.{valid}")
    # NULL and empty elements overlap nothing; under a VALIDTIME PERIOD
    # a row joins only if some period meets the window (whole element
    # kept).
    hit = row if window_pair is None else \
        row[(lo <= window_pair[1]) & (hi >= window_pair[0])]
    keep = np.zeros(len(stored), bool)
    keep[hit] = True
    if not keep.all():
        kept = keep[row]
        row, lo, hi = (np.cumsum(keep) - 1)[row[kept]], lo[kept], hi[kept]
        keep_list = keep.tolist()
        fetched = [list(compress(values, keep_list)) for values in fetched]
    cols = dict(zip(columns, fetched))
    outs = {name: _int_array(_map_output(connection, cols[name]))
            for name in outputs}
    return _Side(cols, outs, int(np.count_nonzero(keep)), row, lo, hi,
                 len(stored), fallbacks)


# -- candidate generation ----------------------------------------------


def _hash_candidates(shape: JoinShape, left: _Side,
                     right: _Side) -> Tuple[np.ndarray, np.ndarray]:
    """Equality-bucketed candidates as parallel ``(i, j)`` index arrays.

    Keys are numbered by one dict (``None``, a NULL key, gets no
    number: ``NULL = anything`` is never true); Python's dict groups 1
    with 1.0 exactly as SQLite's `=` does, and text, blob, and numeric
    values never collide across classes (the planner vetoes key pairs
    SQLite would convert between).  A stable sort of the right rows by
    key number makes each bucket one run in fetch order, so every left
    row expands to its bucket's run and the pairs come out unique and
    in (i, j) order with no dedup.
    """
    right_keys = _keys([right.cols[col] for _, col in shape.equalities])
    left_keys = _keys([left.cols[col] for col, _ in shape.equalities])
    number = {key: at for at, key in enumerate(dict.fromkeys(right_keys))}
    number[None] = -1
    right_codes = np.fromiter(map(number.__getitem__, right_keys), np.int64,
                              right.n)
    left_codes = np.fromiter(map(number.get, left_keys, repeat(-1)),
                             np.int64, left.n)
    order = np.argsort(right_codes, kind="stable")
    bucket_size = np.bincount(right_codes + 1, minlength=len(number) + 1)
    bucket_at = np.cumsum(bucket_size) - bucket_size
    bucket_size[0] = 0  # NULL keys (first in order) match nothing
    counts = bucket_size[left_codes + 1]
    # Run k lists order[bucket_at[code] : bucket_at[code] + counts[k]].
    runs_at = np.cumsum(counts) - counts
    rights = order[np.arange(counts.sum())
                   + np.repeat(bucket_at[left_codes + 1] - runs_at, counts)]
    return np.repeat(np.arange(left.n), counts), rights


def _keys(columns: List[Sequence]) -> Sequence:
    """Per-row hash-join keys, None where a key column is NULL
    (``NULL = anything`` is never true)."""
    if len(columns) == 1:
        return columns[0]
    return [None if None in key else key for key in zip(*columns)]


def _overlap_candidates(left: _Side, right: _Side) -> Tuple[np.ndarray,
                                                           np.ndarray]:
    """Row pairs with some overlapping periods, as ``(i, j)`` arrays.

    Two periods overlap exactly when one starts inside the other: the
    right periods starting in ``[lo, hi]`` of a left period, plus the
    left periods starting in ``(lo, hi]`` of a right one (strict, so a
    shared start is found once).  Each half is two ``searchsorted``
    passes over one side's sorted starts; ``np.unique`` over the
    ``i * n + j`` keys leaves the pairs unique and in (i, j) order.
    """
    halves = []
    for probe, build, strict in ((left, right, False), (right, left, True)):
        order = np.argsort(build.lo)
        starts = build.lo[order]
        first = np.searchsorted(starts, probe.lo,
                                "right" if strict else "left")
        counts = np.searchsorted(starts, probe.hi, "right") - first
        # Output run k lists starts[first[k]:first[k] + counts[k]].
        runs_at = np.cumsum(counts) - counts
        found = order[np.arange(counts.sum())
                      + np.repeat(first - runs_at, counts)]
        halves.append((np.repeat(probe.row, counts), build.row[found]))
    n = right.n
    keys = np.unique(np.concatenate((halves[0][0] * n + halves[0][1],
                                     halves[1][1] * n + halves[1][0])))
    return keys // n, keys % n


# -- the emit -----------------------------------------------------------

#: Candidates per numpy batch; bounds peak array memory, not coverage.
_VECTOR_CHUNK = 1 << 18


class _Validities:
    """The validity column under construction: the distinct
    intersections (their canonical pair tuples, in slot order) and each
    row's slot among them."""

    def __init__(self) -> None:
        self.slot_of: Dict[Tuple[Pair, ...], int] = {}  # slot order
        self.slots: List[np.ndarray] = []

    def _intern(self, keys: List[Tuple[Pair, ...]]) -> List[int]:
        """Slots of the distinct pair tuples *keys*."""
        slots = list(map(self.slot_of.get, keys))
        if None in slots:
            fresh = [key for key, slot in zip(keys, slots) if slot is None]
            start = len(self.slot_of)
            self.slot_of.update(zip(fresh, range(start, start + len(fresh))))
            slots = list(map(self.slot_of.__getitem__, keys))
        return slots

    def add(self, slice_from: np.ndarray, slice_to: np.ndarray,
            lo: np.ndarray, hi: np.ndarray) -> None:
        """Slots for survivors whose pairs are ``lo/hi[from:to]``."""
        counts = slice_to - slice_from
        slots = np.empty(len(counts), np.int64)
        single = np.flatnonzero(counts == 1)
        if len(single):
            first = slice_from[single]
            pair_lo, pair_hi = lo[first], hi[first]
            order = np.lexsort((pair_hi, pair_lo))
            pair_lo, pair_hi = pair_lo[order], pair_hi[order]
            starts = np.ones(len(order), bool)
            starts[1:] = (pair_lo[1:] != pair_lo[:-1]) \
                | (pair_hi[1:] != pair_hi[:-1])
            distinct = self._intern(list(zip(zip(
                pair_lo[starts].tolist(), pair_hi[starts].tolist()))))
            slots[single[order]] = \
                np.asarray(distinct, np.int64)[np.cumsum(starts) - 1]
        empty = counts == 0  # the window clipped every pair away
        if empty.any():
            slots[empty] = self._intern([()])[0]
        several = np.flatnonzero(counts > 1)
        if len(several):
            pairs = list(zip(lo.tolist(), hi.tolist()))
            keys = list(map(tuple, map(pairs.__getitem__, map(
                slice, slice_from[several].tolist(),
                slice_to[several].tolist()))))
            distinct = list(dict.fromkeys(keys))
            slot_of = dict(zip(distinct, self._intern(distinct)))
            slots[several] = list(map(slot_of.__getitem__, keys))
        self.slots.append(slots)

    def column(self) -> ElementColumn:
        keys = list(self.slot_of)
        counts = np.fromiter(map(len, keys), np.int64, len(keys))
        flat = np.fromiter(chain.from_iterable(chain.from_iterable(keys)),
                           np.int64, 2 * int(counts.sum()))
        slots = np.concatenate(self.slots) if self.slots \
            else np.empty(0, np.int64)
        return ElementColumn(slots, counts, flat[0::2], flat[1::2])


def _vector_emit(left: _Side, right: _Side,
                 all_lefts: np.ndarray, all_rights: np.ndarray,
                 window_pair: Optional[Pair],
                 slots: Sequence[Tuple[int, str]]) -> ColumnTable:
    """The output columns for the candidate ``(i, j)`` row pairs, in
    candidate order.

    Every candidate row pair expands to its period×period combinations;
    one vectorized max/min pass intersects them all, and the surviving
    combinations — already grouped per candidate and in canonical
    order — become each output row's validity element.  Window
    clipping happens after the survival test, so a pair whose shared
    time misses the window still emits (with empty validity), exactly
    like ``restrict(tintersect(...), window)``.  *slots* name each
    output column as ``(side, column)``; side 2 is the validity.
    """
    validities = _Validities()
    survivor_lefts: List[np.ndarray] = []
    survivor_rights: List[np.ndarray] = []
    for chunk_at in range(0, len(all_lefts), _VECTOR_CHUNK):
        lefts = all_lefts[chunk_at:chunk_at + _VECTOR_CHUNK]
        rights = all_rights[chunk_at:chunk_at + _VECTOR_CHUNK]
        n_right = right.counts[rights]
        combos = left.counts[lefts] * n_right
        bounds = np.zeros(len(lefts) + 1, dtype=np.int64)
        np.cumsum(combos, out=bounds[1:])
        total = int(bounds[-1])
        # which[t] = chunk-local candidate of combination t; k = its
        # combination ordinal, split p-major/q-minor below.
        which = np.repeat(np.arange(len(lefts)), combos)
        k = np.arange(total, dtype=np.int64) - bounds[:-1][which]
        nj = n_right[which]
        p_at = left.offsets[lefts][which] + k // nj
        q_at = right.offsets[rights][which] + k % nj
        lo = np.maximum(left.lo[p_at], right.lo[q_at])
        hi = np.minimum(left.hi[p_at], right.hi[q_at])
        keep = lo <= hi
        which_kept = which[keep]
        if not len(which_kept):
            continue
        lo_kept = lo[keep]
        hi_kept = hi[keep]
        # Candidates that survive, in emit order (which_kept is sorted).
        change = np.empty(len(which_kept), dtype=bool)
        change[0] = True
        np.not_equal(which_kept[1:], which_kept[:-1], out=change[1:])
        survivors = which_kept[change]
        if window_pair is not None:
            lo_kept = np.maximum(lo_kept, window_pair[0])
            hi_kept = np.minimum(hi_kept, window_pair[1])
            inside = lo_kept <= hi_kept
            which_kept = which_kept[inside]
            lo_kept = lo_kept[inside]
            hi_kept = hi_kept[inside]
        validities.add(np.searchsorted(which_kept, survivors, "left"),
                       np.searchsorted(which_kept, survivors, "right"),
                       lo_kept, hi_kept)
        survivor_lefts.append(lefts[survivors])
        survivor_rights.append(rights[survivors])

    def rows_of(parts: List[np.ndarray]) -> np.ndarray:
        return np.concatenate(parts) if parts else np.empty(0, np.int64)

    at = {0: rows_of(survivor_lefts), 1: rows_of(survivor_rights)}
    columns: List[Sequence] = []
    for side, name in slots:
        if side == 2:
            columns.append(validities.column())
            continue
        values = (left if side == 0 else right).outs[name]
        if isinstance(values, np.ndarray):
            columns.append(values[at[side]])
        else:
            columns.append(list(map(values.__getitem__, at[side].tolist())))
    return ColumnTable(columns, len(at[0]))


# -- the kernels --------------------------------------------------------


def execute_join(connection, shape: JoinShape,
                 now_seconds: int) -> KernelResult:
    strategy, window_pair = join_plan(shape, now_seconds)
    names = _join_columns(shape)
    if strategy == "empty-window":
        return KernelResult(ColumnTable([[] for _ in names], 0), names,
                            strategy, now_seconds,
                            {"candidates": 0, "fallback_decodes": 0})

    def projected(alias: str) -> List[str]:
        return [output.column for output in shape.outputs
                if output.alias == alias]

    left_columns = _columns_for_side(shape, shape.left_alias)
    right_columns = _columns_for_side(shape, shape.right_alias)
    if (shape.left_table == shape.right_table
            and shape.left_valid == shape.right_valid
            and not shape.left_filters and not shape.right_filters):
        # Unfiltered self-join (the temporal-graph path query): fetch
        # and decode the table once, share it between both sides.
        left = right = _prepare_side(
            connection, shape.left_table,
            sorted(set(left_columns) | set(right_columns)),
            set(projected(shape.left_alias) + projected(shape.right_alias)),
            shape.left_valid, (), now_seconds, window_pair,
        )
    else:
        left = _prepare_side(
            connection, shape.left_table, left_columns,
            set(projected(shape.left_alias)), shape.left_valid,
            shape.left_filters, now_seconds, window_pair,
        )
        right = _prepare_side(
            connection, shape.right_table, right_columns,
            set(projected(shape.right_alias)), shape.right_valid,
            shape.right_filters, now_seconds, window_pair,
        )

    if shape.equalities:
        lefts, rights = _hash_candidates(shape, left, right)
    else:
        lefts, rights = _overlap_candidates(left, right)
    stats = {"candidates": len(lefts), "left_rows": left.fetched,
             "right_rows": right.fetched,
             "fallback_decodes": left.fallbacks
             + (right.fallbacks if right is not left else 0)}

    # match() normalized cross conditions left-operand-first.
    for condition in shape.cross:
        left_values = map(left.cols[condition.left.name].__getitem__,
                          lefts.tolist())
        right_values = map(right.cols[condition.right.name].__getitem__,
                           rights.tolist())
        keep = np.fromiter(map(sql_compare, left_values,
                               repeat(condition.op), right_values),
                           bool, len(lefts))
        lefts, rights = lefts[keep], rights[keep]

    slots = [(0 if output.alias == shape.left_alias else 1, output.column)
             for output in shape.outputs]
    slots.insert(shape.valid_at, (2, ""))
    return KernelResult(
        _vector_emit(left, right, lefts, rights, window_pair, slots),
        names, strategy, now_seconds, stats)


def join_plan(shape: JoinShape,
              now_seconds: int) -> Tuple[str, Optional[Pair]]:
    """The strategy a join runs at *now_seconds*, and its grounded window.

    ``"empty-window"`` when the ``VALIDTIME PERIOD`` window grounds
    empty at the statement ``NOW`` (nothing can overlap it); otherwise
    the candidate step — ``"hash"`` on equality keys, ``"merge"``
    without — with the window as a ``(lo, hi)`` pair, or None when the
    statement has no window.
    """
    window_pair = None
    if shape.window is not None:
        from repro.core.parser import parse_period

        window_pair = parse_period(f"[{shape.window}]").ground_pair(
            now_seconds
        )
        if window_pair is None:
            return "empty-window", None
    return ("hash" if shape.equalities else "merge"), window_pair


def _join_columns(shape: JoinShape) -> List[str]:
    names = [output.name for output in shape.outputs]
    names.insert(shape.valid_at, shape.valid_name)
    return names


def _order_key(value: object):
    """A total order over stored values for deterministic output."""
    if value is None:
        return (0, "")
    if isinstance(value, (int, float)):
        return (1, float(value))
    if isinstance(value, str):
        return (2, value)
    return (3, value)  # blob


def execute_coalesce(connection, shape: CoalesceShape,
                     now_seconds: int) -> KernelResult:
    # The fetched columns are exactly the GROUP BY columns, in key
    # order, so each fetched row is its own group key.
    columns = list(dict.fromkeys(shape.group_by))
    positions = {name: at for at, name in enumerate(columns)}
    *fetched, stored = _fetch(connection, shape.table, columns,
                              shape.agg_column, shape.filters)

    # A group's key hashes 1 and 1.0 together (dict semantics == SQLite
    # GROUP BY) and keeps NULLs in one group, also like SQLite; the
    # first row of a group stays its key and supplies its outputs.
    # NULL validities add no periods, but their group still exists.
    group_keys = list(zip(*fetched))
    keys = sorted(dict.fromkeys(group_keys),
                  key=lambda k: tuple(map(_order_key, k)))
    rank = {key: at for at, key in enumerate(keys)}
    group_of = np.fromiter(map(rank.__getitem__, group_keys), np.int64,
                           len(group_keys))
    row, lo, hi, fallbacks = element_arrays(
        stored, now_seconds, "group_union expects Elements")
    group, lo, hi = merge_pairs(group_of[row], lo, hi)

    if shape.agg_wrapper in ("length", "length_seconds"):
        totals = np.zeros(len(keys), np.int64)
        np.add.at(totals, group, hi - lo + 1)
        aggregates: Sequence = [Span(n) for n in totals.tolist()]
        if shape.agg_wrapper == "length_seconds":
            aggregates = [span.seconds for span in aggregates]
    else:  # the coalesced element itself, one per group
        aggregates = ElementColumn(
            np.arange(len(keys)), np.bincount(group, minlength=len(keys)),
            lo, hi)

    key_columns = list(zip(*keys)) if keys else [()] * len(columns)
    out: List[Sequence] = [
        _map_output(connection, key_columns[positions[output.column]])
        for output in shape.outputs]
    out.insert(shape.agg_at, aggregates)
    names = [output.name for output in shape.outputs]
    names.insert(shape.agg_at, shape.agg_name)
    return KernelResult(
        ColumnTable(out, len(keys)), names, "sweep", now_seconds,
        {"groups": len(keys), "input_rows": len(stored),
         "fallback_decodes": fallbacks},
    )

"""Set-based evaluation kernels for matched temporal shapes.

These are the paper's "integrated evaluation" made concrete: instead of
letting SQLite grind ``overlaps(a.valid, b.valid)`` over the full cross
product (one UDF call and two blob decodes per candidate tuple), the
planner bulk-fetches both sides once and joins them with interval
algorithms:

``hash``
    Cross-alias equality conjuncts become hash-join keys (the
    temporal-graph path query joins on ``e1.dst = e2.src``); the
    overlap test runs only within each hash bucket.
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

The bulk fetch reads only what a kernel uses.  Single-side filters
(``p1.drug = 'X'``, a coalesce's ``WHERE``) go into its SQL ``WHERE``
with the literals bound as parameters, so SQLite applies its own NULL,
storage-class, affinity and collation rules to them.  ``NOT INDEXED``
keeps the fetch in table order whatever indexes the filters could use,
so the emit order never depends on the schema.  The validity column is
selected as ``+valid``, which no converter or type map touches, and
:func:`repro.codec.binary.element_arrays` turns it into flat int64
``(row, lo, hi)`` arrays grounded at the statement ``NOW`` in one
vectorized pass, NOW-relative and non-canonical blobs included; only
values the per-blob decoder would reject (and non-blob values) decode
one at a time (counted as ``fallback_decodes``).  The emit shares one
Element per distinct intersection, so equal validities encode once.

Every kernel grounds elements at one statement ``NOW`` and produces
rows value-identical to the naive path — the differential suite
(``tests/test_plan_kernels.py``) holds them equal as multisets.  Hash
keys (dict hashing) and the cross-side residuals in ``JoinShape.cross``
(:func:`sql_compare`) are compared in Python with SQLite's
storage-class semantics (NULL never matches; numeric < text < blob
across classes; ``1 = 1.0``); the planner keeps a statement off the
kernels when SQLite would first convert between two compared columns'
affinities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress, repeat
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.codec.binary import element_arrays, merge_pairs
from repro.core.element import Element
from repro.core.span import Span
from repro.plan.shapes import CoalesceShape, Condition, JoinShape

__all__ = ["KernelResult", "execute_join", "execute_coalesce",
           "join_plan", "sql_compare"]

Pair = Tuple[int, int]


@dataclass
class KernelResult:
    """What a kernel hands back to the planner."""

    rows: List[Tuple]
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


class _Side:
    """One fetched, grounded join input: its validity pairs as flat
    int64 arrays, row-major (``row`` ascending, canonical per row)."""

    __slots__ = ("rows", "row", "lo", "hi", "counts", "offsets",
                 "positions", "fetched", "fallbacks")

    def __init__(self, rows: List[Tuple], row, lo, hi,
                 positions: Dict[str, int], fetched: int,
                 fallbacks: int) -> None:
        self.rows = rows            # surviving rows, fetch order
        self.row, self.lo, self.hi = row, lo, hi  # one entry per pair
        self.counts = np.bincount(row, minlength=len(rows))
        self.offsets = np.zeros(len(rows) + 1, np.int64)
        np.cumsum(self.counts, out=self.offsets[1:])
        self.positions = positions  # column name -> tuple position
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
            if operand.kind == "col" and operand.alias == alias:
                needed.add(operand.column)
    return sorted(needed)


def _fetch(connection, table: str, columns: List[str], valid: str,
           filters: Sequence[Condition]) -> Tuple[List[Tuple], List]:
    """*columns* (type-mapped) and the stored *valid* values of the rows
    of *table* that pass *filters*, in table order."""
    params: List[object] = []

    def sql(operand) -> str:
        if operand.kind == "col":
            return operand.column
        value = operand.value
        if isinstance(value, int) and not -2**63 <= value < 2**63:
            value = float(value)  # SQLite reads such a literal as REAL
        params.append(value)
        return "?"

    where = " AND ".join(
        f"{sql(c.left)} {c.op} {sql(c.right)}" for c in filters
    )
    return connection.query_stored_last(
        f"SELECT {', '.join(columns + ['+' + valid])} "
        f"FROM {table} NOT INDEXED" + (f" WHERE {where}" if where else ""),
        params,
    )


def _prepare_side(connection, table: str, columns: List[str], valid: str,
                  filters: Sequence[Condition], now_seconds: int,
                  window_pair: Optional[Pair]) -> _Side:
    fetched, stored = _fetch(connection, table, columns, valid, filters)
    row, lo, hi, fallbacks = element_arrays(
        stored, now_seconds, f"expected Element in {table}.{valid}")
    # NULL and empty elements overlap nothing; under a VALIDTIME PERIOD
    # a row joins only if some period meets the window (whole element
    # kept).
    hit = row if window_pair is None else \
        row[(lo <= window_pair[1]) & (hi >= window_pair[0])]
    keep = np.zeros(len(fetched), bool)
    keep[hit] = True
    kept = keep[row]
    renumber = np.cumsum(keep) - 1
    positions = {name: at for at, name in enumerate(columns)}
    return _Side(list(compress(fetched, keep.tolist())),
                 renumber[row[kept]], lo[kept], hi[kept],
                 positions, len(fetched), fallbacks)


# -- candidate generation ----------------------------------------------


def _hash_candidates(shape: JoinShape, left: _Side,
                     right: _Side) -> Tuple[List[int], List[int]]:
    """Equality-bucketed candidates as parallel ``(i, j)`` index lists.

    Each left row hits exactly one bucket and buckets hold ``j`` in
    fetch order, so the pairs come out unique and in (i, j) order with
    no dedup or sort — and the two flat lists feed numpy directly.
    """
    left_key = _key_getter([left.positions[col]
                            for col, _ in shape.equalities])
    right_key = _key_getter([right.positions[col]
                             for _, col in shape.equalities])
    buckets: Dict[object, List[int]] = {}
    for j, key in enumerate(map(right_key, right.rows)):
        # Python's dict groups 1 with 1.0 exactly as SQLite's `=` does;
        # text, blob, and numeric values never collide across classes
        # (the planner vetoes key pairs SQLite would convert between).
        if key is not None:
            buckets.setdefault(key, []).append(j)
    i_list: List[int] = []
    j_list: List[int] = []
    for i, key in enumerate(map(left_key, left.rows)):
        bucket = buckets.get(key)  # a NULL key (None) is in no bucket
        if bucket:
            j_list.extend(bucket)
            i_list.extend(repeat(i, len(bucket)))
    return i_list, j_list


def _key_getter(positions: List[int]) -> Callable:
    """Row -> hash-join key, or None when a key column is NULL
    (``NULL = anything`` is never true)."""
    get = itemgetter(*positions)
    if len(positions) == 1:
        return get
    return lambda row: None if None in (key := get(row)) else key


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
    n = len(right.rows)
    keys = np.unique(np.concatenate((halves[0][0] * n + halves[0][1],
                                     halves[1][1] * n + halves[1][0])))
    return keys // n, keys % n


# -- the emit -----------------------------------------------------------

#: Candidates per numpy batch; bounds peak array memory, not coverage.
_VECTOR_CHUNK = 1 << 18


def _row_builder(slots: Sequence[Tuple[int, int]]) -> Callable:
    """Compile ``(left_row, right_row, element) -> output tuple`` once.

    *slots* only contains trusted integers from the shape matcher, and
    a dedicated lambda beats a generic per-slot loop run per row.
    """
    parts = []
    for side, position in slots:
        if side == 2:
            parts.append("e")
        else:
            parts.append(f"{'l' if side == 0 else 'r'}[{position}]")
    spec = ", ".join(parts) + ("," if len(parts) == 1 else "")
    return eval(f"lambda l, r, e: ({spec})")  # noqa: S307


def _vector_emit(left: _Side, right: _Side,
                 all_lefts: np.ndarray, all_rights: np.ndarray,
                 window_pair: Optional[Pair],
                 build_row: Callable) -> List[Tuple]:
    """Rows for the candidate ``(i, j)`` row pairs, in candidate order.

    Every candidate row pair expands to its period×period combinations;
    one vectorized max/min pass intersects them all, and the surviving
    combinations — already grouped per candidate and in canonical
    order — become each output row's validity element.  Window
    clipping happens after the survival test, so a pair whose shared
    time misses the window still emits (with empty validity), exactly
    like ``restrict(tintersect(...), window)``.
    """
    rows: List[Tuple] = []
    left_rows, right_rows = left.rows, right.rows
    # One Element per distinct intersection, so identical validities
    # encode once downstream.
    elements: Dict[Tuple[Pair, ...], Element] = {
        (): Element._from_canonical_pairs(())}
    from_canonical = Element._from_canonical_pairs
    append = rows.append
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
        slice_from = np.searchsorted(which_kept, survivors, "left").tolist()
        slice_to = np.searchsorted(which_kept, survivors, "right").tolist()
        lo_list = lo_kept.tolist()
        hi_list = hi_kept.tolist()
        survivor_rows = zip(lefts[survivors].tolist(),
                            rights[survivors].tolist(),
                            slice_from, slice_to)
        for i, j, s, e in survivor_rows:
            if e - s == 1:  # by far the common case
                pairs: Tuple[Pair, ...] = ((lo_list[s], hi_list[s]),)
            else:  # several pairs, or none once the window clipped them
                pairs = tuple(zip(lo_list[s:e], hi_list[s:e]))
            element = elements.get(pairs)
            if element is None:
                element = elements[pairs] = from_canonical(pairs)
            append(build_row(left_rows[i], right_rows[j], element))
    return rows


# -- the kernels --------------------------------------------------------


def execute_join(connection, shape: JoinShape,
                 now_seconds: int) -> KernelResult:
    strategy, window_pair = join_plan(shape, now_seconds)
    if strategy == "empty-window":
        return KernelResult([], _join_columns(shape), strategy, now_seconds,
                            {"candidates": 0, "fallback_decodes": 0})
    left_columns = _columns_for_side(shape, shape.left_alias)
    right_columns = _columns_for_side(shape, shape.right_alias)
    if (shape.left_table == shape.right_table
            and shape.left_valid == shape.right_valid
            and not shape.left_filters and not shape.right_filters):
        # Unfiltered self-join (the temporal-graph path query): fetch
        # and decode the table once, share it between both sides.
        shared_columns = sorted(set(left_columns) | set(right_columns))
        left = right = _prepare_side(
            connection, shape.left_table, shared_columns,
            shape.left_valid, (), now_seconds, window_pair,
        )
    else:
        left = _prepare_side(
            connection, shape.left_table, left_columns,
            shape.left_valid, shape.left_filters, now_seconds, window_pair,
        )
        right = _prepare_side(
            connection, shape.right_table, right_columns,
            shape.right_valid, shape.right_filters, now_seconds,
            window_pair,
        )

    if shape.equalities:
        i_list, j_list = _hash_candidates(shape, left, right)
        lefts = np.asarray(i_list, np.int64)
        rights = np.asarray(j_list, np.int64)
    else:
        lefts, rights = _overlap_candidates(left, right)
    stats = {"candidates": len(lefts), "left_rows": left.fetched,
             "right_rows": right.fetched,
             "fallback_decodes": left.fallbacks
             + (right.fallbacks if right is not left else 0)}

    # match() normalized cross conditions left-operand-first.
    for condition in shape.cross:
        left_values = map(itemgetter(left.positions[condition.left.column]),
                          map(left.rows.__getitem__, lefts.tolist()))
        right_values = map(
            itemgetter(right.positions[condition.right.column]),
            map(right.rows.__getitem__, rights.tolist()))
        keep = np.fromiter(map(sql_compare, left_values,
                               repeat(condition.op), right_values),
                           bool, len(lefts))
        lefts, rights = lefts[keep], rights[keep]

    # slots: (side, position) per output slot; side 2 is the validity.
    slots: List[Tuple[int, int]] = []
    cursor = 0
    for at in range(len(shape.outputs) + 1):
        if at == shape.valid_at:
            slots.append((2, 0))
            continue
        output = shape.outputs[cursor]
        cursor += 1
        side = 0 if output.alias == shape.left_alias else 1
        positions = left.positions if side == 0 else right.positions
        slots.append((side, positions[output.column]))

    rows = _vector_emit(left, right, lefts, rights, window_pair,
                        _row_builder(slots))
    return KernelResult(rows, _join_columns(shape), strategy, now_seconds,
                        stats)


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
    """A total order over mixed-type values for deterministic output."""
    if value is None:
        return (0, "")
    if isinstance(value, bool):
        return (1, float(value))
    if isinstance(value, (int, float)):
        return (1, float(value))
    if isinstance(value, str):
        return (2, value)
    if isinstance(value, bytes):
        return (3, value)
    return (4, repr(value))


def execute_coalesce(connection, shape: CoalesceShape,
                     now_seconds: int) -> KernelResult:
    # The fetched rows hold exactly the GROUP BY columns, in key order,
    # so each row is its own group key.
    columns = list(dict.fromkeys(shape.group_by))
    positions = {name: at for at, name in enumerate(columns)}
    fetched, stored = _fetch(connection, shape.table, columns,
                             shape.agg_column, shape.filters)

    # A group's key hashes 1 and 1.0 together (dict semantics == SQLite
    # GROUP BY) and keeps NULLs in one group, also like SQLite; the
    # first row of a group stays its key and supplies its outputs.
    # NULL validities add no periods, but their group still exists.
    keys = sorted(dict.fromkeys(fetched),
                  key=lambda k: tuple(_order_key(v) for v in k))
    rank = {key: at for at, key in enumerate(keys)}
    group_of = np.fromiter(map(rank.__getitem__, fetched), np.int64,
                           len(fetched))
    row, lo, hi, fallbacks = element_arrays(
        stored, now_seconds, "group_union expects Elements")
    group, lo, hi = merge_pairs(group_of[row], lo, hi)

    if shape.agg_wrapper in ("length", "length_seconds"):
        totals = np.zeros(len(keys), np.int64)
        np.add.at(totals, group, hi - lo + 1)
        aggregates: List[object] = [Span(n) for n in totals.tolist()]
        if shape.agg_wrapper == "length_seconds":
            aggregates = [span.seconds for span in aggregates]
    else:  # the coalesced element itself
        bounds = np.searchsorted(group, np.arange(len(keys) + 1)).tolist()
        lo_list, hi_list = lo.tolist(), hi.tolist()
        aggregates = [
            Element._from_canonical_pairs(tuple(zip(lo_list[a:b],
                                                    hi_list[a:b])))
            for a, b in zip(bounds, bounds[1:])]

    slots = [positions[output.column] for output in shape.outputs]
    rows: List[Tuple] = []
    for key, aggregate in zip(keys, aggregates):
        out: List[object] = [key[at] for at in slots]
        out.insert(shape.agg_at, aggregate)
        rows.append(tuple(out))
    columns_out = [output.name for output in shape.outputs]
    columns_out.insert(shape.agg_at, shape.agg_name)
    return KernelResult(
        rows, columns_out, "sweep", now_seconds,
        {"groups": len(keys), "input_rows": len(fetched),
         "fallback_decodes": fallbacks},
    )

"""Tagged, versioned binary encoding of the five TIP datatypes.

This is the on-disk / on-wire representation the blade stores in table
columns, the analog of the DataBlade's internal binary format.  Layout
(big-endian throughout):

====  =======================================================
byte  meaning
====  =======================================================
0     magic ``0x54`` (``'T'``)
1     format version (currently 1)
2     type tag (see below)
3..   type-specific payload
====  =======================================================

Payloads:

* ``Chronon`` — 64-bit *biased* unsigned seconds (value − calendar
  minimum).
* ``Span`` — 64-bit biased unsigned seconds (value − span minimum).
* ``Instant`` — 1 flavor byte (0 determinate / 1 NOW-relative) +
  64-bit biased seconds (absolute or offset).
* ``Period`` — two instant payloads (start, end).
* ``Element`` — unsigned 32-bit period count + period payloads.

The format is self-describing, so result values flowing out of engine
expressions (whose column type SQLite does not declare) can still be
recognized and decoded by the client's type map.  It is also
**order-preserving**: within one type, raw byte comparison of blobs
equals value comparison (biased payloads, big-endian, constant header),
so SQLite's native ``ORDER BY``, ``MIN``/``MAX``, and B-tree indexes
work directly on stored TIP columns.
"""

from __future__ import annotations

import struct
from functools import partial
from itertools import chain
from typing import Sequence, Type, Union

import numpy as np

from repro.codec.cache import CountedLRU
from repro.core import granularity
from repro.core.chronon import Chronon
from repro.core.element import Element
from repro.core.instant import Instant
from repro.core.period import Period
from repro.core.span import Span
from repro.errors import CodecError, TipTypeError
from repro.faults import state as _FAULTS

__all__ = [
    "MAGIC",
    "VERSION",
    "encode",
    "decode",
    "DECODE",
    "DECODE_SIZE",
    "element_pairs",
    "element_arrays",
    "merge_pairs",
    "decode_many",
    "pack_elements",
    "is_tip_blob",
    "tip_type_of",
    "TAG_BY_TYPE",
    "TYPE_BY_TAG",
]

MAGIC = 0x54
VERSION = 1

_TAG_CHRONON = 0x01
_TAG_SPAN = 0x02
_TAG_INSTANT = 0x03
_TAG_PERIOD = 0x04
_TAG_ELEMENT = 0x05

TAG_BY_TYPE = {
    Chronon: _TAG_CHRONON,
    Span: _TAG_SPAN,
    Instant: _TAG_INSTANT,
    Period: _TAG_PERIOD,
    Element: _TAG_ELEMENT,
}
TYPE_BY_TAG = {tag: tip_type for tip_type, tag in TAG_BY_TYPE.items()}
_ELEMENT_HEADER = bytes((MAGIC, VERSION, _TAG_ELEMENT))

TipValue = Union[Chronon, Span, Instant, Period, Element]

_U64 = struct.Struct(">Q")
_U32 = struct.Struct(">I")
_INSTANT = struct.Struct(">BQ")

# Payload integers are stored *biased* (value - minimum, as unsigned
# big-endian), so raw byte order equals value order.  Within one type
# the 3-byte header is constant, hence plain blob comparison — SQLite's
# ORDER BY, MIN(), MAX(), B-tree indexes — sorts TIP columns
# chronologically with no collation support needed.
_BIAS_SECONDS = -granularity.MIN_SECONDS
_BIAS_SPAN = -granularity.MIN_SPAN_SECONDS


def _encode_instant_body(value: Instant) -> bytes:
    if value.is_determinate:
        return _INSTANT.pack(0, value.ground_seconds(0) + _BIAS_SECONDS)
    return _INSTANT.pack(1, value.offset.seconds + _BIAS_SPAN)  # type: ignore[union-attr]


def _decode_instant_body(data: bytes, offset: int) -> tuple[Instant, int]:
    try:
        flavor, biased = _INSTANT.unpack_from(data, offset)
    except struct.error as exc:
        raise CodecError(f"truncated instant payload at byte {offset}") from exc
    if flavor not in (0, 1):
        raise CodecError(f"unknown instant flavor {flavor}")
    try:
        if flavor == 0:
            instant = Instant(abs_seconds=biased - _BIAS_SECONDS)
        else:
            instant = Instant(offset_seconds=biased - _BIAS_SPAN)
    except Exception as exc:  # out-of-range payload in a corrupted blob
        raise CodecError(f"blob encodes an invalid Instant: {exc}") from exc
    return instant, offset + _INSTANT.size


def encode(value: TipValue) -> bytes:
    """Serialize a TIP value to its binary blob.

    Encoding is pure (``NOW``-relative instants serialize as offsets),
    so the canonical bytes are stamped onto the value's ``_tip_blob``
    slot on first encode: re-encoding the same immutable value — and
    ``encode(decode(b))`` through the decode cache, which hands back
    the same object — is a single attribute read.
    """
    tag = TAG_BY_TYPE.get(type(value))
    if tag is None:
        raise CodecError(f"not a TIP value: {type(value).__name__}")
    try:
        cached = value._tip_blob
    except AttributeError:
        cached = None
    if cached is not None:
        return cached
    header = bytes((MAGIC, VERSION, tag))
    if isinstance(value, (Chronon,)):
        blob = header + _U64.pack(value.seconds + _BIAS_SECONDS)
    elif isinstance(value, Span):
        blob = header + _U64.pack(value.seconds + _BIAS_SPAN)
    elif isinstance(value, Instant):
        blob = header + _encode_instant_body(value)
    elif isinstance(value, Period):
        blob = header + _encode_instant_body(value.start) + _encode_instant_body(value.end)
    else:  # Element
        pairs = value._pairs
        if pairs is not None:
            # Canonical element: pack straight from the grounded pairs
            # without materializing Period objects (identical bytes —
            # every pair is a determinate [lo, hi]).
            parts = [header, _U32.pack(len(pairs))]
            for lo, hi in pairs:
                parts.append(_INSTANT.pack(0, lo + _BIAS_SECONDS))
                parts.append(_INSTANT.pack(0, hi + _BIAS_SECONDS))
        else:
            parts = [header, _U32.pack(len(value.periods))]
            for period in value.periods:
                parts.append(_encode_instant_body(period.start))
                parts.append(_encode_instant_body(period.end))
        blob = b"".join(parts)
    value._tip_blob = blob
    return blob


def is_tip_blob(data: object) -> bool:
    """True when *data* looks like an encoded TIP value."""
    return (
        isinstance(data, (bytes, bytearray, memoryview))
        and len(data) >= 3
        and data[0] == MAGIC
        and data[1] == VERSION
        and data[2] in TYPE_BY_TAG
    )


def tip_type_of(data: bytes) -> Type[TipValue]:
    """The TIP type encoded in *data* (header inspection only)."""
    if not is_tip_blob(data):
        raise CodecError("not a TIP blob")
    return TYPE_BY_TAG[data[2]]


def decode(data: bytes) -> TipValue:
    """Deserialize a binary blob back into a TIP value.

    Decoding is pure — ``NOW``-relative payloads decode to offset-based
    instants, never to a grounded time — so repeated decodes of the
    same blob are served from :data:`DECODE` (all TIP values are
    immutable and therefore safe to share).  While a fault plan is
    armed the cache is bypassed entirely, so every injected corruption
    hits a real decode and chaos runs stay deterministic.
    """
    if type(data) is not bytes:
        if isinstance(data, (bytearray, memoryview)):
            data = bytes(data)
        else:
            raise CodecError(f"expected bytes, got {type(data).__name__}")
    if _FAULTS.plan is not None:
        # Chaos hook: a corrupted/truncated blob must fail as a typed
        # CodecError below, never crash the decoder.  A value shorter
        # than a header has nothing to corrupt and fails typed as is.
        if len(data) >= 3:
            data = _FAULTS.plan.apply("codec.decode", data)
        return _decode_bytes(data, stamp=False)
    return DECODE.lookup(data)


def _decode_bytes(data: bytes, *, stamp: bool) -> TipValue:
    """The actual decoder over exact ``bytes``.

    With *stamp* true, the input blob is recorded as the value's
    canonical encoding for every type whose codec is bijective —
    Chronon, Span, Instant, Period.  Element blobs are *not* stamped:
    the Element constructor normalizes (sorts/coalesces) its periods,
    so a hand-crafted non-canonical blob decodes to a value whose
    canonical encoding differs from the input.
    """
    if len(data) < 3:
        raise CodecError("blob too short for a TIP header")
    if data[0] != MAGIC:
        raise CodecError(f"bad magic byte 0x{data[0]:02x}")
    if data[1] != VERSION:
        raise CodecError(f"unsupported format version {data[1]}")
    tag = data[2]
    body = 3
    if tag == _TAG_CHRONON:
        value = _build(Chronon, _unpack_u64(data, body, expected_end=True) - _BIAS_SECONDS)
    elif tag == _TAG_SPAN:
        value = _build(Span, _unpack_u64(data, body, expected_end=True) - _BIAS_SPAN)
    elif tag == _TAG_INSTANT:
        value, end = _decode_instant_body(data, body)
        _check_consumed(data, end)
    elif tag == _TAG_PERIOD:
        start, offset = _decode_instant_body(data, body)
        end_instant, offset = _decode_instant_body(data, offset)
        _check_consumed(data, offset)
        value = _build_period(start, end_instant)
    elif tag == _TAG_ELEMENT:
        try:
            (count,) = _U32.unpack_from(data, body)
        except struct.error as exc:
            raise CodecError("truncated element count") from exc
        offset = body + _U32.size
        pairs = _canonical_pairs(data, offset, count)
        if pairs is not None:
            element = Element._from_canonical_pairs(pairs)
            if stamp:
                element._tip_blob = data
            return element
        periods = []
        for _ in range(count):
            start, offset = _decode_instant_body(data, offset)
            end_instant, offset = _decode_instant_body(data, offset)
            periods.append(_build_period(start, end_instant))
        _check_consumed(data, offset)
        return Element(periods)  # normalized, so never blob-stamped here
    else:
        raise CodecError(f"unknown type tag 0x{tag:02x}")
    if stamp:
        value._tip_blob = data
    return value


DECODE_SIZE = 4096

#: Blob bytes -> decoded TIP value, shared process-wide (see
#: :mod:`repro.codec.cache`).
DECODE = CountedLRU("decode", DECODE_SIZE, partial(_decode_bytes, stamp=True))


def _canonical_pairs(data: bytes, offset: int, count: int):
    """The pairs of a canonical all-determinate element payload, or None.

    Unpacks every instant body in a single struct call and validates
    the pairs inline.  Returns None for anything else — NOW-relative
    flavors, out-of-calendar bounds, inverted or non-canonical pair
    lists, short payloads — which the per-period object path then
    handles (normalizing or raising) exactly as before.  Pairs taken
    here are *verified* canonical, so encoding their element
    reproduces the blob byte-for-byte and stamping is safe (unlike the
    general path).
    """
    if count * 2 * _INSTANT.size > len(data) - offset:
        return None  # short payload: let the slow path pinpoint it
    try:
        fields = struct.unpack_from(">" + "BQ" * (2 * count), data, offset)
    except struct.error:  # pragma: no cover - length checked above
        return None
    if len(data) != offset + count * 2 * _INSTANT.size:
        return None  # trailing bytes: slow path raises
    lo_bound, hi_bound = granularity.MIN_SECONDS, granularity.MAX_SECONDS
    pairs = []
    prev_hi = None
    for at in range(0, 4 * count, 4):
        if fields[at] or fields[at + 2]:
            return None  # NOW-relative or unknown flavor
        lo = fields[at + 1] - _BIAS_SECONDS
        hi = fields[at + 3] - _BIAS_SECONDS
        if lo > hi or lo < lo_bound or hi > hi_bound:
            return None
        if prev_hi is not None and lo <= prev_hi + 1:
            return None  # out of order, overlapping, or adjacent
        prev_hi = hi
        pairs.append((lo, hi))
    return pairs


def element_pairs(data: object, now_seconds: int, mismatch: str):
    """The grounded ``(lo, hi)`` pairs of a stored Element at *now_seconds*.

    The one-blob form of :func:`element_arrays` (which the kernels use
    on whole columns) and the reference it is tested against: a
    canonical all-determinate blob unpacks straight to its pairs — no
    Element object, no decode cache get/put.  Everything else takes
    ``decode(data)``: NOW-relative or non-canonical blobs, non-blob
    values, and every value while a fault plan is armed (so injected
    corruption surfaces exactly as on the converter path).  A value
    decoding to another TIP type raises
    ``TipTypeError("<mismatch>, got <type>")``.
    """
    if (_FAULTS.plan is None and type(data) is bytes
            and data[:3] == _ELEMENT_HEADER and len(data) >= 7):
        pairs = _canonical_pairs(data, 7, _U32.unpack_from(data, 3)[0])
        if pairs is not None:
            return pairs
    return _decoded_pairs(data, now_seconds, mismatch)


def _decoded_pairs(data: object, now_seconds: int, mismatch: str):
    """:func:`element_pairs` through ``decode(data)``: the per-blob path."""
    value = decode(data)  # type: ignore[arg-type]
    if not isinstance(value, Element):
        raise TipTypeError(f"{mismatch}, got {type(value).__name__}")
    return value.ground_pairs(now_seconds)


#: One stored period of an Element payload: two determinate-or-NOW
#: instant bodies, unaligned (numpy packs structured dtypes).
_PERIOD = np.dtype([("lo_flavor", "u1"), ("lo", ">u8"),
                    ("hi_flavor", "u1"), ("hi", ">u8")])
_HEADER_LEN = len(_ELEMENT_HEADER) + _U32.size
_HEADER_ARRAY = np.frombuffer(_ELEMENT_HEADER, np.uint8)
_MAX_SPAN = granularity.MAX_SPAN_SECONDS


def _ground(flavor, biased, now_seconds: int):
    """Grounded bounds of stored instant bodies, and which are invalid.

    A determinate body (flavor 0) holds ``seconds - MIN_SECONDS``, valid
    up to ``MAX_SPAN``; a NOW-relative one (flavor 1) holds ``offset +
    MAX_SPAN``, valid up to ``2 * MAX_SPAN``, and grounds to ``now +
    offset`` clamped to the calendar like ``Instant.ground_seconds``.
    Payloads are clipped first, so every sum stays within int64.
    """
    biased = np.minimum(biased, 2 * _MAX_SPAN + 1).astype(np.int64)
    invalid = (flavor > 1) | (biased > _MAX_SPAN * (1 + flavor.astype(np.int64)))
    seconds = biased + np.where(flavor == 0, granularity.MIN_SECONDS,
                                now_seconds - _MAX_SPAN)
    return np.clip(seconds, granularity.MIN_SECONDS,
                   granularity.MAX_SECONDS), invalid


def merge_pairs(owner, lo, hi):
    """Each owner's pairs coalesced: ``(owner, lo, hi)`` arrays of the
    merged periods, in (owner, lo) order.

    One sort-and-sweep over start/end events; a period opens where the
    running depth leaves 0 and closes where it returns (after every
    owner, so one cumsum needs no segmenting).  Starts sort before ends
    at a tie, merging adjacent periods as :func:`ia.normalize` does.
    Times sort by dense rank (< 2n): the key cannot overflow int64.
    """
    at = np.concatenate((lo, hi + 1))
    is_end = np.repeat(np.array([0, 1], np.int64), len(lo))
    ranks, rank = np.unique(at * 2 + is_end, return_inverse=True)
    owners = np.concatenate((owner, owner))
    order = np.argsort(owners * len(ranks) + rank)
    at, owners, is_end = at[order], owners[order], is_end[order]
    depth = np.cumsum(1 - 2 * is_end)
    closes = depth == 0
    return owners[closes], at[(depth == 1) & (is_end == 0)], at[closes] - 1


def _element_payloads(blobs: Sequence[bytes]):
    """The header and period parse of Element blobs, all in one pass.

    Returns ``(ok, blob_of, periods)``: which blobs carry a well-formed
    Element header and exactly the payload length their count says,
    the ``_PERIOD`` records of those blobs back to back, and the index
    of each record's blob.  Nothing is grounded or validated beyond
    the header and the length.
    """
    sizes = np.fromiter(map(len, blobs), np.int64, len(blobs))
    starts = np.cumsum(sizes) - sizes
    # Padded so every header gather stays in bounds; short blobs fail
    # the length test below whatever bytes they pick up.
    data = np.frombuffer(b"".join(blobs) + bytes(_HEADER_LEN), np.uint8)
    header = data[starts[:, None] + np.arange(_HEADER_LEN)]
    count = np.ascontiguousarray(header[:, 3:]).view(">u4")[:, 0] \
        .astype(np.int64)
    ok = (header[:, :3] == _HEADER_ARRAY).all(axis=1) & (
        sizes == _HEADER_LEN + count * _PERIOD.itemsize)
    # The payloads of the well-formed blobs, back to back.
    keep = np.repeat(ok, sizes)
    keep[(starts[ok][:, None] + np.arange(_HEADER_LEN)).ravel()] = False
    periods = data[:-_HEADER_LEN][keep].view(_PERIOD)
    return ok, np.repeat(np.flatnonzero(ok), count[ok]), periods


def element_arrays(values: Sequence, now_seconds: int, mismatch: str):
    """A fetched Element column grounded at *now_seconds*, as flat arrays.

    Returns ``(row, lo, hi, fallbacks)``: int64 arrays with one entry
    per grounded pair (the index of its value in *values* and its
    bounds), ordered by row and canonically within a row, plus the
    number of values decoded one at a time.  NULLs add no pairs.  Every
    well-formed Element blob, NOW-relative ones included, is unpacked
    and grounded in one vectorized pass: NOW-relative bounds clamp to
    the calendar, periods empty at *now_seconds* drop out, and blobs
    whose grounded pairs are not sorted, disjoint and non-adjacent are
    normalized by one segmented :func:`merge_pairs`.  What the per-blob
    ``decode()`` would reject — a bad header, length or flavor, an
    out-of-range payload, an inverted determinate period — and
    non-bytes values, other TIP types and every value while a fault
    plan is armed take :func:`element_pairs`'s ``decode()`` path one
    value at a time, in row order, so errors are exactly the per-blob
    ones.
    """
    armed = _FAULTS.plan is not None
    if not armed and set(map(type, values)) <= {bytes}:
        at, slow = range(len(values)), []  # the common all-blob column
    else:
        at = [] if armed else [
            i for i, value in enumerate(values) if type(value) is bytes
        ]
        slow = [i for i, value in enumerate(values)
                if value is not None and (armed or type(value) is not bytes)]
    row = lo = hi = np.empty(0, np.int64)
    if at:
        ok, blob_of, periods = _element_payloads(
            list(map(values.__getitem__, at)))
        lo_flavor, hi_flavor = periods["lo_flavor"], periods["hi_flavor"]
        lo, lo_invalid = _ground(lo_flavor, periods["lo"], now_seconds)
        hi, hi_invalid = _ground(hi_flavor, periods["hi"], now_seconds)
        ok[blob_of[lo_invalid | hi_invalid
                   | ((lo_flavor == 0) & (hi_flavor == 0) & (lo > hi))]] = False
        fine = ok[blob_of] & (lo <= hi)  # empty at NOW: no chronons
        blob_of, lo, hi = blob_of[fine], lo[fine], hi[fine]
        if ((blob_of[1:] == blob_of[:-1]) & (lo[1:] <= hi[:-1] + 1)).any():
            blob_of, lo, hi = merge_pairs(blob_of, lo, hi)
        row = np.asarray(at, np.int64)[blob_of]
        slow = sorted(slow + [at[b] for b in np.flatnonzero(~ok).tolist()])
    if slow:
        grounded = [_decoded_pairs(values[i], now_seconds, mismatch)
                    for i in slow]
        counts = np.fromiter(map(len, grounded), np.int64, len(slow))
        flat = np.fromiter(chain.from_iterable(chain.from_iterable(grounded)),
                           np.int64, 2 * int(counts.sum()))
        row = np.concatenate((row, np.repeat(np.asarray(slow, np.int64),
                                             counts)))
        order = np.argsort(row, kind="stable")
        row = row[order]
        lo = np.concatenate((lo, flat[0::2]))[order]
        hi = np.concatenate((hi, flat[1::2]))[order]
    return row, lo, hi, len(slow)


#: Below this many blobs :func:`decode_many` decodes one at a time: the
#: vectorized pass costs ~60 us whatever its size, a per-blob decode
#: ~2 us (a decode-cache hit far less), so the two meet near 64.
_VECTOR_MIN = 64


def decode_many(blobs: Sequence[bytes]) -> list:
    """``[decode(blob) for blob in blobs]``, canonical Elements in bulk.

    The canonical all-determinate Element blobs among *blobs* (what the
    kernels and the blade write) are parsed by :func:`element_arrays`'
    header and period pass and become Elements with no per-blob decode;
    each is stamped with its blob, which it provably re-encodes to.
    Every other blob — other TIP types, NOW-relative or non-canonical
    Elements, malformed ones — and every blob while a fault plan is
    armed goes through :func:`decode`, so its value or its error is the
    per-blob one.
    """
    if _FAULTS.plan is not None or len(blobs) < _VECTOR_MIN:
        return list(map(decode, blobs))
    ok, blob_of, periods = _element_payloads(blobs)
    lo_flavor, hi_flavor = periods["lo_flavor"], periods["hi_flavor"]
    lo, lo_invalid = _ground(lo_flavor, periods["lo"], 0)
    hi, hi_invalid = _ground(hi_flavor, periods["hi"], 0)
    # Canonical: determinate, in the calendar, each period non-empty
    # and strictly after its predecessor's end plus one.
    bad = (lo_flavor != 0) | (hi_flavor != 0) | lo_invalid | hi_invalid \
        | (lo > hi)
    bad[1:] |= (blob_of[1:] == blob_of[:-1]) & (lo[1:] <= hi[:-1] + 1)
    ok[blob_of[bad]] = False
    bounds = np.zeros(len(blobs) + 1, np.int64)
    np.cumsum(np.bincount(blob_of, minlength=len(blobs)), out=bounds[1:])
    pairs = list(zip(lo.tolist(), hi.tolist()))
    out = []
    for blob, fine, start, end in zip(blobs, ok.tolist(), bounds.tolist(),
                                      bounds[1:].tolist()):
        if fine:
            value = Element._from_canonical_pairs(pairs[start:end])
            value._tip_blob = blob
        else:
            value = decode(blob)
        out.append(value)
    return out


def pack_elements(counts, lo, hi):
    """The canonical blobs of determinate Elements, back to back.

    Element ``k`` owns the next ``counts[k]`` of the flat canonical
    ``(lo, hi)`` pair arrays.  Every period is determinate, so a blob
    is the header, the count and one ``_PERIOD`` record per pair; all
    of them are packed in one numpy pass.  Returns ``(sizes, data)``:
    each blob's int64 length and the concatenated bytes — exactly what
    :func:`encode` writes for each Element.
    """
    counts = np.asarray(counts, np.int64)
    periods = np.zeros(len(lo), _PERIOD)
    periods["lo"] = np.asarray(lo, np.int64) + _BIAS_SECONDS
    periods["hi"] = np.asarray(hi, np.int64) + _BIAS_SECONDS
    sizes = _HEADER_LEN + counts * _PERIOD.itemsize
    if not len(counts):
        return sizes, b""
    starts = np.cumsum(sizes) - sizes
    header = np.empty((len(counts), _HEADER_LEN), np.uint8)
    header[:, :3] = _HEADER_ARRAY
    header[:, 3:] = counts.astype(">u4").view(np.uint8).reshape(-1, 4)
    data = np.empty(int(starts[-1] + sizes[-1]), np.uint8)
    in_header = np.zeros(len(data), bool)
    at = (starts[:, None] + np.arange(_HEADER_LEN)).ravel()
    data[at] = header.ravel()
    in_header[at] = True
    data[~in_header] = periods.view(np.uint8)
    return sizes, data.tobytes()


def _build(tip_type: Type[TipValue], seconds: int) -> TipValue:
    try:
        return tip_type(seconds)
    except Exception as exc:  # out-of-range payload in a corrupted blob
        raise CodecError(f"blob encodes an invalid {tip_type.__name__}: {exc}") from exc


def _build_period(start: Instant, end: Instant) -> Period:
    try:
        return Period(start, end)
    except Exception as exc:  # inverted determinate endpoints
        raise CodecError(f"blob encodes an invalid period: {exc}") from exc


def _unpack_u64(data: bytes, offset: int, *, expected_end: bool = False) -> int:
    try:
        (value,) = _U64.unpack_from(data, offset)
    except struct.error as exc:
        raise CodecError(f"truncated payload at byte {offset}") from exc
    if expected_end:
        _check_consumed(data, offset + _U64.size)
    return value


def _check_consumed(data: bytes, end: int) -> None:
    if len(data) != end:
        raise CodecError(f"trailing garbage: blob is {len(data)} bytes, value ends at {end}")

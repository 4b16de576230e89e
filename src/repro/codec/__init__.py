"""Binary storage format for TIP values (paper: "TIP internally stores
Chronons (and other datatypes) in an efficient binary format").

The marshalling fast path — a bounded blob->value decode cache
(:data:`repro.codec.binary.DECODE`), a string-literal parse cache
(:mod:`repro.codec.cache`), and the per-value canonical-encoding stamp —
keeps hot statements from re-marshalling the same bytes row after row.
"""

from repro.codec import cache
from repro.codec.binary import decode, encode, is_tip_blob, tip_type_of
from repro.codec.cache import clear_caches

__all__ = ["encode", "decode", "is_tip_blob", "tip_type_of", "cache", "clear_caches"]

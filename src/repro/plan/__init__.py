"""Temporal query planning: set-based kernels behind a shape matcher.

The paper's argument for *integrated* temporal support is that the
engine can pick set-oriented algorithms for temporal operators instead
of evaluating predicates tuple-at-a-time.  This package is that
argument in code: :mod:`repro.plan.shapes` recognizes translated
sequenced-join and coalesce statements, :mod:`repro.plan.kernels`
evaluates them with hash or searchsorted overlap joins and a
single-pass sweep coalesce, and :mod:`repro.plan.planner` decides —
per statement, observably — which path runs.  Anything the matcher
does not fully understand keeps the naive UDF path, which remains the
semantics oracle (``tests/test_plan_kernels.py`` holds the two paths
differentially equal).
"""

from repro.plan.kernels import KernelResult, execute_coalesce, execute_join
from repro.plan.planner import (
    clear_caches,
    configure,
    describe,
    is_candidate,
    maybe_execute_kernel,
    state,
)
from repro.plan.shapes import CoalesceShape, JoinShape, match

__all__ = [
    "KernelResult", "execute_join", "execute_coalesce",
    "configure", "describe", "is_candidate", "maybe_execute_kernel",
    "clear_caches", "state",
    "JoinShape", "CoalesceShape", "match",
]

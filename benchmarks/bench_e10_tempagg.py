"""E10 (extension) — incremental temporal aggregation.

The authors' companion work (Yang & Widom, ICDE 2001) maintains
temporal aggregates incrementally in a warehouse.  This experiment
measures the three evaluation strategies over growing workloads:

* one-shot boundary **sweep** (recompute the whole step function);
* **aggregate tree** maintenance (one O(log n) insert per new interval)
  plus O(log n) instant probes;
* naive instant probes by **stabbing** the intervals: two binary
  searches over the sorted starts and ends count the intervals that
  hold each instant.  The sorted arrays are rebuilt, not maintained,
  when an interval arrives; the aggregate tree absorbs each change in
  O(log n).
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.element import Element
from repro.tempagg import AggregateTree, temporal_count

SIZES = [500, 2000, 8000]


def make_intervals(n: int, seed: int = 0):
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        start = rng.randrange(0, 5_000_000)
        end = start + rng.randrange(1000, 400_000)  # deep overlap on purpose
        out.append((start, end))
    return out


def make_elements(n: int, seed: int = 0):
    return [Element.from_pairs([pair]) for pair in make_intervals(n, seed)]


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.benchmark(group="e10-sweep-recompute")
def test_sweep_recompute(benchmark, n):
    elements = make_elements(n)
    result = benchmark(temporal_count, elements, 0)
    assert result.max_value() >= 1


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.benchmark(group="e10-aggtree-insert")
def test_aggtree_incremental_inserts(benchmark, n):
    """Cost of maintaining the aggregate under 100 new intervals."""
    intervals = make_intervals(n)
    fresh = make_intervals(100, seed=99)

    def build_and_update():
        tree = AggregateTree()
        for start, end in intervals:
            tree.insert(start, end)
        return tree

    tree = build_and_update()

    def apply_delta():
        for start, end in fresh:
            tree.insert(start, end)
        for start, end in fresh:
            tree.retract(start, end)

    benchmark(apply_delta)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.benchmark(group="e10-aggtree-probe")
def test_aggtree_instant_probe(benchmark, n):
    tree = AggregateTree()
    for start, end in make_intervals(n):
        tree.insert(start, end)

    def probe():
        return [tree.value_at(t) for t in range(0, 5_400_000, 540_000)]

    values = benchmark(probe)
    assert max(values) > 0


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.benchmark(group="e10-stab-probe")
def test_interval_stab_probe(benchmark, n):
    """The naive alternative: count the closed intervals holding each
    instant by binary search over the sorted starts and ends."""
    intervals = make_intervals(n)
    starts = np.sort([start for start, _end in intervals])
    ends = np.sort([end for _start, end in intervals])
    instants = np.arange(0, 5_400_000, 540_000)

    def probe():
        return (np.searchsorted(starts, instants, side="right")
                - np.searchsorted(ends, instants, side="left")).tolist()

    counts = benchmark(probe)
    assert max(counts) > 0
    tree = AggregateTree()
    for start, end in intervals:
        tree.insert(start, end)
    assert counts == [tree.value_at(t) for t in instants.tolist()]

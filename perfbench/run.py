"""The repository benchmark: one workload, one seed, one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve_mixed --seed 1 --seconds 40 --trace 0

Drives a real ``python -m repro serve`` process through the public
``RemoteTipConnection`` client (see ``perfbench/README.md``).  With
``--trace 0`` the run sets the workload up three times (``setup_s`` is
the median), measures one closed-loop window of ``--seconds`` and
prints every end-to-end metric.  With ``--trace 1`` it measures an
untraced window, replays the same op sequence against the traced
launcher, checks both ran the same plans, and prints every per-layer
metric.  Output checks run outside the timed windows; a failed check
prints ``"correct": false`` and exits 1.  The last stdout line is the
JSON result; the lines above it are a human-readable report.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 3


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _measure(workload, seed, workdir, *, traced, seconds=None, ops=None, setups=1):
    """Set up (*setups* times, keeping the last), run one window, check."""
    durations = []
    for repeat in range(setups):
        started = perf_counter()
        session = workload.setup(seed, workdir, traced)
        durations.append(perf_counter() - started)
        if repeat + 1 < setups:
            session.close()
    try:
        window = workload.run(session, seconds=seconds, ops=ops)
        failures = workload.check(session, window)
    finally:
        session.close()
    if window.armed:
        failures.append("a fault plan or the profiler was on during the window")
    return window, failures, durations


def main(argv=None) -> int:
    args = _parse(argv)
    root = os.getcwd()
    if not os.path.isdir(os.path.join(root, "src", "repro")):
        print("error: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2
    sys.path[:0] = [BENCH_DIR, os.path.join(root, "src")]
    import metrics
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = os.path.join(root, ".perfbench_work", f"{workload.name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.trace:
            # Untraced window first, then the traced launcher replays
            # exactly the same per-client op counts.
            base, failures, _ = _measure(workload, args.seed, workdir, traced=False,
                                         seconds=args.seconds / 2)
            traced, traced_failures, _ = _measure(workload, args.seed, workdir,
                                                  traced=True, ops=base.ops)
            failures += traced_failures
            plans = metrics.plan_signature(base.counters)
            if plans != metrics.plan_signature(traced.counters):
                failures.append(f"same-plan guard: untraced {plans} != traced "
                                f"{metrics.plan_signature(traced.counters)}")
            result_metrics = metrics.per_layer(base, traced)
            windows = (base, traced)
        else:
            base, failures, setups = _measure(workload, args.seed, workdir, traced=False,
                                              seconds=args.seconds, setups=SETUP_REPEATS)
            result_metrics = metrics.end_to_end(workload.name, base, setups)
            windows = (base,)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    attempted = sum(sum(window.ops) for window in windows)
    failed = sum(window.failed for window in windows)
    lines = [f"workload {workload.name} seed {args.seed} trace {args.trace}: "
             f"{sum(base.ops)} ops in {base.elapsed:.2f} s, {base.units} {workload.unit}"]
    lines += [f"  {name} = {value:.4f} ms"
              for name, value in metrics.class_latencies(workload.name, base).items()]
    lines.append(f"  failed_frac = {failed / max(1, attempted):.6f}")
    lines.append(f"  loadgen_cpu_ms_per_op = {base.loadgen_cpu * 1e3 / base.units:.4f}")
    lines += [f"  {name} = {entry['value']:.6g} {entry['unit']}"
              for name, entry in result_metrics.items()]
    lines += [f"  CHECK FAILED: {failure}" for failure in failures[:20]]
    if len(failures) > 20:
        lines.append(f"  ... {len(failures) - 20} more failed checks")
    print("\n".join(lines))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": result_metrics,
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    raise SystemExit(main())

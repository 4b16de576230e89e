"""Process, /proc, statistics and METRICS-frame helpers for the benchmark."""

from __future__ import annotations

import ctypes
import math
import os
import signal
import subprocess
import sys
from typing import Dict, List, Sequence

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CLOCK_TICK = os.sysconf("SC_CLK_TCK")

#: A server outlives a crashed harness by at most this long.
SERVER_LIFETIME_S = 600


def _child_setup() -> None:
    """Child-side, before exec: SIGINT must reach the server's clean
    shutdown path even when this harness was started with SIGINT
    ignored (as a background job is), and the server gets SIGTERM
    when the harness dies."""
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    try:
        ctypes.CDLL(None).prctl(1, signal.SIGTERM)  # PR_SET_PDEATHSIG
    except (OSError, AttributeError):
        pass


class ServerProcess:
    """One TIP server subprocess on a file-backed database.

    Untraced servers are ``python -m repro serve`` with its shipped
    defaults (observability and flight recorder on); traced servers run
    the benchmark's launcher, which wraps the layers and then starts the
    same server.
    """

    def __init__(self, database: str, workdir: str, *, traced: bool = False) -> None:
        if traced:
            program = [sys.executable, os.path.join(BENCH_DIR, "traced_server.py")]
        else:
            program = [sys.executable, "-m", "repro", "serve"]
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        for knob in ("TIP_KERNEL", "TIP_KERNEL_MIN_ROWS", "TIP_STATEMENT_CACHE",
                     "TIP_MARSHAL_CACHE", "TIP_DECODE_CACHE_SIZE",
                     "TIP_PARSE_CACHE_SIZE", "TIP_STATEMENT_CACHE_SIZE"):
            env.pop(knob, None)  # shipped defaults only
        self.log_path = os.path.join(workdir, f"server-{os.path.basename(database)}.log")
        self._log = open(self.log_path, "wb")
        self.process = subprocess.Popen(
            program + ["--db", database, "--port", "0",
                       "--duration", str(SERVER_LIFETIME_S)],
            stdout=subprocess.PIPE, stderr=self._log, env=env, cwd=ROOT,
            preexec_fn=_child_setup,
        )
        self.pid = self.process.pid
        line = self.process.stdout.readline().decode("utf-8", "replace")
        if " on " not in line:
            self.stop()
            with open(self.log_path, "rb") as log:
                tail = log.read()[-2000:].decode("utf-8", "replace")
            raise RuntimeError(f"server did not start: {line!r}\n{tail}")
        host, port = line.rsplit(" on ", 1)[1].strip().rsplit(":", 1)
        self.host, self.port = host, int(port)

    def cpu_seconds(self) -> float:
        with open(f"/proc/{self.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / CLOCK_TICK

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """Interrupt (the server's clean shutdown path) and reap."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=15)
        if self.process.stdout is not None:
            self.process.stdout.close()
        self._log.close()


def loadgen_cpu_seconds() -> float:
    times = os.times()
    return times.user + times.system


def remove_database(path: str) -> None:
    for suffix in ("", "-wal", "-shm"):
        try:
            os.remove(path + suffix)
        except FileNotFoundError:
            pass


def database_bytes(path: str) -> int:
    return sum(
        os.path.getsize(path + suffix)
        for suffix in ("", "-wal") if os.path.exists(path + suffix)
    )


# -- statistics ---------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


# -- METRICS-frame deltas -----------------------------------------------


def harvest(connection) -> Dict:
    """One METRICS frame, flattened: counters, histogram count/sum,
    cache stats, pool gauges, plus the fault-plan and profiler switches
    (the latter from one PROFILE frame).

    Never ``reset=True``: a reset clears the decode and statement
    caches and would perturb the run being measured.
    """
    frame = connection.metrics()
    metrics = frame["metrics"]
    flat: Dict[str, float] = dict(metrics.get("counters", {}))
    for name, hist in metrics.get("histograms", {}).items():
        flat[name + ".count"] = hist["count"]
        flat[name + ".sum"] = hist["sum"]
    caches = metrics.get("caches", {})
    for cache in ("decode", "parse", "statement"):
        for key in ("hits", "misses"):
            flat[f"cache.{cache}.{key}"] = caches.get(cache, {}).get(key, 0)
    for key, value in frame.get("pool", {}).items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            flat["pool." + key] = value
    flat["faults.armed"] = 1 if metrics.get("faults", {}).get("armed") else 0
    flat["profile.enabled"] = 1 if connection.profiles(last=1)["enabled"] else 0
    return flat


def sum_matching(counters: Dict[str, float], prefix: str, suffix: str) -> float:
    return sum(value for key, value in counters.items()
               if key.startswith(prefix) and key.endswith(suffix))


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def canonical_rows(rows) -> List[tuple]:
    """Order-insensitive comparable form of a result set."""
    return sorted(tuple(repr(value) if isinstance(value, float) else str(value)
                        for value in row) for row in rows)

"""Closed-loop, single-client runner, latency statistics and provenance.

One caller runs the operations of a pass back to back and waits for each
result before starting the next.  Passes repeat until the time budget is
spent; the clock is only read between passes, so every run measures whole
passes and every operation kind keeps its share of the sample.  Each
operation's wall time and process CPU time are measured around ``Op.run``;
its correctness check runs after the clock stops.

Throughput and CPU per operation come from a typical pass, built from each
operation's median over the measured passes; latency percentiles come from
every sample.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

#: The end-to-end metrics and their units, in report order.
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "cpu_per_op_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Samples that must lie beyond the reported tail latency.
TAIL_SAMPLES = 10


@dataclass
class OpRecord:
    index: int
    kind: str
    wall_s: float
    cpu_s: float
    ok: bool
    error: str | None = None


@dataclass
class LoopResult:
    records: list[OpRecord] = field(default_factory=list)
    passes: int = 0

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def failed(self) -> int:
        return sum(not r.ok for r in self.records)


def run_op(op, index: int, pass_no: int = 0, around=None) -> OpRecord:
    """Run one operation of pass ``pass_no``, time it, then check its result.

    ``around`` is an optional context-manager factory entered around the timed
    call (the tracer uses it to open the operation's root span).
    """
    error = None
    result = None
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        if around is None:
            result = op.run(pass_no)
        else:
            with around(index, op.kind):
                result = op.run(pass_no)
    except (Exception, SystemExit):
        error = "run: " + traceback.format_exc(limit=3)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    if error is None:
        try:
            op.check(result)
        except Exception:
            error = "check: " + traceback.format_exc(limit=3)
    return OpRecord(index, op.kind, wall, cpu, error is None, error)


def run_passes(ops, seconds: float | None = None, passes: int | None = None, around=None) -> LoopResult:
    """Repeat whole passes over ``ops`` for ``seconds`` of wall time or a fixed count."""
    if (seconds is None) == (passes is None):
        raise ValueError("give exactly one of seconds and passes")
    out = LoopResult()
    start = time.perf_counter()
    while True:
        for i, op in enumerate(ops):
            out.records.append(run_op(op, i, out.passes, around))
        out.passes += 1
        if passes is not None and out.passes >= passes:
            return out
        if seconds is not None and time.perf_counter() - start >= seconds:
            return out


def percentile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolation percentile (q in [0, 100]) of an ascending list."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_latency(sorted_values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_SAMPLES samples beyond it.

    Returns (value, percentile).  With fewer than TAIL_SAMPLES + 1 samples
    there is no such percentile and the median stands in.
    """
    n = len(sorted_values)
    if n <= TAIL_SAMPLES:
        return percentile(sorted_values, 50.0), 50.0
    k = n - 1 - TAIL_SAMPLES
    return sorted_values[k], 100.0 * (k + 1) / n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def typical_pass(loop: LoopResult) -> tuple[float, float]:
    """(wall, CPU) seconds of a typical pass: the sum over the pass's positions
    of each operation's median time across the measured passes.

    Taking the median per operation keeps a burst of interference on a
    shared machine from moving the throughput figures.
    """
    walls: dict[int, list[float]] = {}
    cpus: dict[int, list[float]] = {}
    for r in loop.records:
        walls.setdefault(r.index, []).append(r.wall_s)
        cpus.setdefault(r.index, []).append(r.cpu_s)
    return (
        sum(statistics.median(v) for v in walls.values()),
        sum(statistics.median(v) for v in cpus.values()),
    )


def end_to_end(loop: LoopResult, setup_s: float) -> tuple[dict, dict]:
    """(metrics, extras): the end-to-end metrics and the context they need."""
    walls = sorted(r.wall_s for r in loop.records)
    per_pass = loop.attempted / loop.passes
    pass_wall, pass_cpu = typical_pass(loop)
    tail, tail_q = tail_latency(walls)
    values = {
        "setup_s": setup_s,
        "ops_per_s": (1.0 - loop.failed / loop.attempted) * per_pass / pass_wall,
        "op_p50_ms": 1e3 * percentile(walls, 50.0),
        "op_tail_ms": 1e3 * tail,
        "cpu_per_op_ms": 1e3 * pass_cpu / per_pass,
        "peak_rss_mb": peak_rss_mb(),
    }
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END_UNITS.items()}
    extras = {
        "samples": len(walls),
        "passes": loop.passes,
        "op_tail_percentile": tail_q,
        "failed_ratio": loop.failed / loop.attempted,
        "busy_s": sum(walls),
        "typical_pass_s": pass_wall,
        "per_kind_p50_ms": per_kind_p50(loop),
    }
    return metrics, extras


def per_kind_p50(loop: LoopResult) -> dict:
    kinds: dict[str, list[float]] = {}
    for r in loop.records:
        kinds.setdefault(r.kind, []).append(r.wall_s)
    return {k: 1e3 * percentile(sorted(v), 50.0) for k, v in sorted(kinds.items())}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_info() -> dict:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {k: config.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError, AttributeError):
        return {"name": "unknown"}


def git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown"


def provenance(root: Path, seed: int, thread_env: dict) -> dict:
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_info(),
        "blas_threads": thread_env["run"].get("OPENBLAS_NUM_THREADS"),
        "git_commit": git_commit(root),
        "seed": seed,
        "thread_env": thread_env,
    }


def thread_environment() -> dict:
    keys = sorted(k for k in os.environ if k.endswith("_NUM_THREADS"))
    env = {k: os.environ[k] for k in keys}
    env["FAIRSAMP_THREADS"] = os.environ.get("FAIRSAMP_THREADS")
    return env

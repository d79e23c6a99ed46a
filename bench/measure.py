"""Clocks, /proc readers and the slice arithmetic shared by every workload.

A run is a sequence of *slices* (one second of closed-loop traffic, one whole
episode of ``infer_200j``, one iteration of ``train_10j``).  Every number is
raw: wall-clock milliseconds and user+sys CPU seconds as the operating system
counts them.  Run-to-run variance is left to ``bench/compare.py`` (its
``unresolved`` verdict) and to the ``noisy`` flag of the result.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from . import ROOT

__all__ = [
    "Slice",
    "environment_stamp",
    "latencies",
    "percentile",
    "process_cpu_seconds",
    "process_peak_rss_mb",
    "result_record",
    "self_peak_rss_mb",
    "summarise",
]

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


@dataclass
class Slice:
    """Raw measurements of one slice of a measured window."""

    start: float  # perf_counter at release; with ``end`` it places spans in the slice
    end: float
    wall_s: float  # time the clients were active (their mean on the fleet workloads)
    cpu_s: float  # user+sys of the system under test
    latencies_ms: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    block: int = 0  # slices whose decisions are alike share a block (see summarise)
    phase: str = "main"

    @property
    def completed(self) -> int:
        return self.attempted - self.failed


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def latencies(slices: Iterable[Slice]) -> list:
    return [value for one in slices for value in one.latencies_ms]


def summarise(slices: Sequence[Slice]) -> dict:
    """End-to-end numbers of a measured window: the median over its blocks.

    A block is a stretch of the run whose decisions are statistically alike:
    two seconds of steady traffic on a socket workload, one iteration of
    ``train_10j``, one whole episode of ``infer_200j`` (whose graph shrinks, so
    anything shorter is not alike).  Each metric is computed per block and the
    median over blocks is reported.  A burst of host noise lands in one or two
    blocks and the median ignores it; pooled over the window it would own the
    99th percentile and drag the rates (p99 spread across ten runs: 8-18%
    pooled, 5-10% by blocks).
    """
    grouped: dict = {}
    for one in slices:
        grouped.setdefault(one.block, []).append(one)
    blocks = [members for members in grouped.values() if any(m.completed for m in members)]
    if not blocks:
        raise RuntimeError("no decision completed inside the measured window")

    def over_blocks(metric) -> float:
        return statistics.median(metric(members) for members in blocks)

    attempted = sum(s.attempted for s in slices)
    failed = sum(s.failed for s in slices)
    return {
        "decide_p50_ms": over_blocks(lambda ms: percentile(latencies(ms), 50)),
        "decide_p99_ms": over_blocks(lambda ms: percentile(latencies(ms), 99)),
        "decisions_per_s": over_blocks(
            lambda ms: sum(m.completed for m in ms) / sum(m.wall_s for m in ms)
        ),
        "cpu_ms_per_decision": over_blocks(
            lambda ms: sum(m.cpu_s for m in ms) * 1000.0 / sum(m.completed for m in ms)
        ),
        "samples": sum(len(s.latencies_ms) for s in slices),
        "blocks": len(blocks),
        "window_s": sum(s.wall_s for s in slices),
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted if attempted else 0.0,
    }


def result_record(name: str, trace: bool, method: dict, slices: Sequence[Slice],
                  peak_rss_mb: float, setup_samples: Sequence[float], gate_failures: list,
                  warnings: Sequence[str], identity: Optional[dict] = None) -> dict:
    """The record every workload returns for one run (see ``bench.run``)."""
    summary = summarise(slices)
    record = {
        "workload": name,
        "trace": bool(trace),
        "method": method,
        "end_to_end": {
            "decide_p50_ms": summary["decide_p50_ms"],
            "decide_p99_ms": summary["decide_p99_ms"],
            "decisions_per_s": summary["decisions_per_s"],
            "cpu_ms_per_decision": summary["cpu_ms_per_decision"],
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup_samples),
        },
        "failed_share": summary["failed_share"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "samples": summary["samples"],
        "blocks": summary["blocks"],
        "window_s": summary["window_s"],
        "setup_samples": list(setup_samples),
        "gate_failures": list(gate_failures),
        "warnings": sorted(set(warnings)),
    }
    if identity is not None:
        record["identity"] = identity
    record["correct"] = not record["gate_failures"]
    return record


# --------------------------------------------------------------- /proc readers
def process_cpu_seconds(pids: Iterable[int]) -> float:
    """user+sys CPU of the given processes (``/proc/<pid>/stat``); dead ones count 0."""
    total = 0.0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat", "rb") as handle:
                fields = handle.read().rsplit(b")", 1)[1].split()
        except (OSError, IndexError):
            continue
        total += (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS
    return total


def process_peak_rss_mb(pids: Iterable[int]) -> float:
    """Summed ``VmHWM`` of the given processes, in MB; dead ones count 0."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ------------------------------------------------------------------ provenance
def _commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else "unknown"


def environment_stamp(seed: int, client_threads: int) -> dict:
    """What a reader needs to judge a number: where, on what, under what load."""
    cpus = os.cpu_count() or 1
    if client_threads > cpus:
        raise ValueError(
            f"{client_threads} client threads on {cpus} cpus: the generator would "
            "queue behind itself; refuse rather than report its own contention"
        )
    load1 = os.getloadavg()[0]
    return {
        "commit": _commit(),
        "cpus": cpus,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": int(seed),
        "load_avg_1m": load1,
        "noisy": load1 > cpus / 2.0,
    }

"""Synthetic load generator for the policy server.

Spawns N concurrent *cluster sessions*, each a thread running its own seeded
simulator episode loop through :func:`repro.service.client.drive_episode`.
Sessions keep starting fresh episodes until the fleet has collectively made
the requested number of decisions, so the server sees sustained concurrent
traffic (and its broker real cross-session batches) rather than one burst.
Each episode first reserves its share of the remaining decision budget, is
cut off when that share is spent and hands back what it left unused, so the
fleet makes exactly the requested number.

The returned summary is JSON-ready: fleet decisions/sec, the decision-source
breakdown (policy vs SLO fallback), and two p50/p95/p99 histograms
(:func:`repro.simulator.metrics.latency_histogram`): ``latency_ms``, the model
time the server reports, and ``round_trip_ms``, what the client waited for
each decision.

Session ids are ``loadgen-{seed}-{index}``, so load generators started with
different seeds can drive one server at once (one process is bound by one
GIL; a second process is how to offer more load).
"""

from __future__ import annotations

import threading
import time
from typing import Optional

import numpy as np

from ..simulator.environment import SchedulingEnvironment, SimulatorConfig
from ..simulator.metrics import latency_histogram
from ..workloads.arrivals import batched_arrivals
from ..workloads.tpch import sample_tpch_jobs
from .client import PolicyClient, drive_episode

__all__ = ["run_load"]


def run_load(
    host: str,
    port: int,
    num_sessions: int = 4,
    num_jobs: int = 6,
    num_executors: int = 10,
    min_total_decisions: int = 200,
    seed: int = 0,
    fallback: Optional[str] = None,
    max_episodes_per_session: int = 50,
    trace_every: Optional[int] = None,
) -> dict:
    """Drive ``num_sessions`` concurrent sessions until the fleet has made
    ``min_total_decisions`` decisions; returns the traffic summary.  Fewer
    are made only when sessions run out of ``max_episodes_per_session``.

    ``trace_every=N`` end-to-end traces every Nth decision of each episode;
    the minted trace ids land in the summary under ``"trace_ids"`` for
    control-plane reconstruction (extra round-trip per traced decision).
    """
    if num_sessions < 1:
        raise ValueError("need at least one session")
    # Decisions not yet reserved by an episode; an episode reserves at most
    # one session's share of the whole budget, so sessions run concurrently.
    budget = {"unreserved": min_total_decisions}
    share = -(-min_total_decisions // num_sessions)
    total_lock = threading.Lock()
    per_session: list[Optional[dict]] = [None] * num_sessions
    errors: list[str] = []

    def session_main(index: int) -> None:
        rng = np.random.default_rng([seed, index])
        summary = {
            "decisions": 0,
            "episodes": 0,
            "sources": {},
            "latencies_ms": [],
            "round_trips_ms": [],
            "trace_ids": [],
        }
        try:
            with PolicyClient(host, port) as client:
                client.hello(
                    session_id=f"loadgen-{seed}-{index}",
                    num_executors=num_executors,
                    seed=seed + index,
                    fallback=fallback,
                )
                for _ in range(max_episodes_per_session):
                    with total_lock:
                        reserved = min(share, budget["unreserved"])
                        budget["unreserved"] -= reserved
                    if reserved <= 0:
                        break
                    jobs = batched_arrivals(
                        sample_tpch_jobs(num_jobs, rng, sizes=(2.0, 5.0))
                    )
                    environment = SchedulingEnvironment(
                        SimulatorConfig(num_executors=num_executors, seed=seed + index)
                    )
                    episode = drive_episode(
                        client, environment, jobs, seed=seed + index,
                        max_decisions=reserved, trace_every=trace_every,
                    )
                    summary["episodes"] += 1
                    summary["decisions"] += episode["decisions"]
                    summary["latencies_ms"].extend(episode["latencies_ms"])
                    summary["round_trips_ms"].extend(episode["round_trips_ms"])
                    summary["trace_ids"].extend(episode.get("trace_ids", []))
                    for source, count in episode["sources"].items():
                        summary["sources"][source] = (
                            summary["sources"].get(source, 0) + count
                        )
                    with total_lock:
                        budget["unreserved"] += reserved - episode["decisions"]
        except Exception as error:  # noqa: BLE001 - surfaced to the caller
            errors.append(f"session {index}: {error!r}")
        per_session[index] = summary

    start = time.perf_counter()
    threads = [
        threading.Thread(target=session_main, args=(index,), daemon=True)
        for index in range(num_sessions)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start

    if errors:
        raise RuntimeError("load generation failed: " + "; ".join(errors))
    summaries = [summary for summary in per_session if summary is not None]

    def pooled(key: str) -> list:
        return [value for summary in summaries for value in summary[key]]

    sources: dict[str, int] = {}
    for summary in summaries:
        for source, count in summary["sources"].items():
            sources[source] = sources.get(source, 0) + count
    decisions = sum(summary["decisions"] for summary in summaries)
    trace_ids = pooled("trace_ids")
    return {
        **({"trace_ids": trace_ids} if trace_ids else {}),
        "num_sessions": num_sessions,
        "num_jobs_per_episode": num_jobs,
        "num_executors": num_executors,
        "decisions": decisions,
        "episodes": sum(summary["episodes"] for summary in summaries),
        "elapsed_seconds": elapsed,
        "decisions_per_sec": decisions / elapsed if elapsed > 0 else float("inf"),
        "sources": sources,
        "latency_ms": latency_histogram(pooled("latencies_ms")),
        "round_trip_ms": latency_histogram(pooled("round_trips_ms")),
        "per_session": [
            {
                "decisions": summary["decisions"],
                "episodes": summary["episodes"],
                "sources": summary["sources"],
            }
            for summary in summaries
        ],
    }

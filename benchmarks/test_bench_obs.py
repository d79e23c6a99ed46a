"""Benchmark: the telemetry layer must stay off the decision path.

Issue 9 threads a metrics registry, per-decision tracing and a flight
recorder through the serving stack with one hard promise: an *untraced*
decision does the same work it did before telemetry existed, and even a
*traced* decision (span minting, the stage clock's wall-timestamp, four
child spans filed per ``act()``) adds tens of microseconds to it.  This
benchmark measures ``act()`` over identical seeded episodes with tracing off
and on and records both in ``BENCH_obs.json``.

The budget is what tracing *adds to one decision*, in microseconds
(``MAX_TRACED_OVERHEAD_US``), not a percentage of ``act()``: a percentage
tightens by itself every time ``act()`` gets faster, and failed for that
reason alone although the tracing cost had not moved.  The two modes run in
alternating repetitions and the score is the median of the per-repetition
differences, so a slow spell of the host lands on both sides of a pair.
``BENCH_obs.json`` keeps the percentage as information.
"""

import json
import os
import statistics
import time
from pathlib import Path

import numpy as np

from conftest import run_once

from repro.core import DecimaAgent, DecimaConfig
from repro.obs import Span, SpanStore
from repro.simulator import SchedulingEnvironment, SimulatorConfig
from repro.workloads import batched_arrivals, sample_tpch_jobs

NUM_JOBS = 50
NUM_EXECUTORS = 20
STEPS = 60
REPETITIONS = 7
# Span minting, the stage clock's wall timestamp and four child spans cost
# 40-50 us per decision on the reference box; the bar leaves room for a slow
# host, not for a second span tree.
MAX_TRACED_OVERHEAD_US = 120.0


def _measure(traced: bool) -> dict:
    """Steps/sec of ``act()`` over one seeded greedy episode prefix."""
    rng = np.random.default_rng(0)
    jobs = batched_arrivals(sample_tpch_jobs(NUM_JOBS, rng, sizes=(2.0, 5.0)))
    environment = SchedulingEnvironment(
        SimulatorConfig(num_executors=NUM_EXECUTORS, seed=0)
    )
    agent = DecimaAgent(total_executors=NUM_EXECUTORS, config=DecimaConfig(seed=0))
    agent.reset()
    observation = environment.reset(jobs, seed=0)
    act_rng = np.random.default_rng(1)
    store = SpanStore(max_traces=STEPS + 1)

    act_seconds = 0.0
    actions = 0
    done = False
    while not done and actions < STEPS:
        span = None
        if traced:
            span = Span("broker.decide", service="bench", store=store)
        start = time.perf_counter()
        action, _ = agent.act(observation, rng=act_rng, greedy=True, span=span)
        act_seconds += time.perf_counter() - start
        if span is not None:
            span.finish()
        observation, _, done = environment.step(action)
        actions += 1
    if traced:
        # Sanity: tracing actually happened (per decision: the parent span
        # plus 4 stage children).
        assert store.num_spans == actions * 5
    return {
        "traced": traced,
        "actions": actions,
        "act_seconds": act_seconds,
        "steps_per_sec": actions / act_seconds if act_seconds else float("inf"),
    }


def _us_per_decision(row: dict) -> float:
    return row["act_seconds"] / row["actions"] * 1e6


def _compare_modes() -> dict:
    runs = {False: [], True: []}
    for _ in range(REPETITIONS):
        for traced in (False, True):
            runs[traced].append(_measure(traced))
    overhead_us = statistics.median(
        _us_per_decision(on) - _us_per_decision(off)
        for off, on in zip(runs[False], runs[True])
    )
    median = {
        traced: sorted(rows, key=_us_per_decision)[len(rows) // 2]
        for traced, rows in runs.items()
    }
    return {
        "num_jobs": NUM_JOBS,
        "steps_per_mode": STEPS,
        "repetitions": REPETITIONS,
        "telemetry_off": median[False],
        "telemetry_on": median[True],
        "traced_overhead_us": overhead_us,
        "traced_overhead_pct": overhead_us / _us_per_decision(median[False]) * 100.0,
    }


def test_bench_obs_overhead(benchmark):
    result = run_once(benchmark, _compare_modes)
    off = result["telemetry_off"]["steps_per_sec"]
    on = result["telemetry_on"]["steps_per_sec"]
    print()
    print("act() telemetry overhead (stage clock + per-decision spans)")
    print(f"  untraced: {off:>8.1f} steps/s")
    print(f"  traced:   {on:>8.1f} steps/s")
    print(f"  overhead: {result['traced_overhead_us']:>7.1f} us per decision "
          f"({result['traced_overhead_pct']:.2f} % of act())")
    benchmark.extra_info["traced_overhead_us"] = round(result["traced_overhead_us"], 1)

    output_dir = Path(os.environ.get("DECIMA_BENCH_OUTPUT_DIR", "."))
    artifact = output_dir / "BENCH_obs.json"
    artifact.write_text(json.dumps(result, indent=2) + "\n")
    print(f"  wrote {artifact}")

    assert result["traced_overhead_us"] <= MAX_TRACED_OVERHEAD_US, (
        f"tracing adds {result['traced_overhead_us']:.1f} us to a decision; "
        f"the telemetry budget is {MAX_TRACED_OVERHEAD_US:.0f} us"
    )

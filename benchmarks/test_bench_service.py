"""Benchmark: batched policy serving vs serial dispatch, and shard scaling.

Part 1 (``test_bench_service``): eight concurrent cluster sessions stream
``decide`` requests at the request broker (through the real wire encoding and
shadow-DAG reconciliation); the batched broker answers each round with ONE
GNN forward over the merged mega-graph, the serial reference answers session
by session.  Decisions are identical either way (see ``tests/test_service.py``)
— this measures the throughput axis: fleet decisions/sec, as the median ratio
over interleaved batched/serial pairs of runs.

Part 2 (``test_bench_shard_scaling``): 64 concurrent sessions partitioned
across 1 / 2 / 4 shard *processes* (each shard a fork with its own agent +
batched broker, exactly the fleet's dispatch layout), measuring whole-fleet
decisions/sec wall-clock.  Decisions are bit-identical at any shard count
(differential pair ``sharded_vs_serial_service``) — sharding buys throughput
only, and this sweep writes the scaling curve.  Like the parallel-rollout
benchmark, the scaling *assertion* only applies on machines with at least as
many CPUs as shards; the curve is written regardless.

Both parts merge their rows into ``BENCH_service.json``.

``DECIMA_BENCH_SERVICE_MIN_SPEEDUP`` (default 2.0) sets the required batched
speedup at 8 concurrent sessions; ``DECIMA_BENCH_SHARD_MIN_SCALING``
(default 1.6) sets the required 4-shard vs 1-shard scaling at 64 sessions.
CI loosens both for noisy shared runners.
"""

import json
import multiprocessing as mp
import os
import statistics
import time
from pathlib import Path

import numpy as np

from conftest import run_once

from repro.core import DecimaAgent, DecimaConfig
from repro.service import DecisionRequest, RequestBroker, SessionState, encode_observation
from repro.service.client import decode_action
from repro.service.router import shard_for_session
from repro.simulator import SchedulingEnvironment, SimulatorConfig
from repro.workloads import batched_arrivals, sample_tpch_jobs

# (concurrent sessions, timed decision rounds); jobs per session chosen so a
# session's episode comfortably outlasts the timed rounds.
SCENARIOS = ((2, 40), (8, 40))
# Interleaved batched/serial pairs per scenario; the speedup is their median ratio.
PAIRS = 7
NUM_EXECUTORS = 10
JOBS_PER_SESSION = 5

# Shard sweep: 64 sessions, hashed across 1/2/4 shard processes.
FLEET_SESSIONS = 64
FLEET_ROUNDS = 8
SHARD_COUNTS = (1, 2, 4)


def _measure(num_sessions: int, rounds: int, batched: bool) -> dict:
    agent = DecimaAgent(total_executors=NUM_EXECUTORS, config=DecimaConfig(seed=0))
    broker = RequestBroker(agent, batched=batched, greedy=True)
    environments, observations, sessions = [], [], []
    for index in range(num_sessions):
        rng = np.random.default_rng(index)
        jobs = batched_arrivals(
            sample_tpch_jobs(JOBS_PER_SESSION, rng, sizes=(2.0, 5.0))
        )
        environment = SchedulingEnvironment(
            SimulatorConfig(num_executors=NUM_EXECUTORS, seed=index)
        )
        environments.append(environment)
        observations.append(environment.reset(jobs, seed=index))
        sessions.append(SessionState(f"bench-{index}", NUM_EXECUTORS, seed=index))

    decisions = 0
    decide_seconds = 0.0
    for _ in range(rounds):
        pending = [
            index for index, observation in enumerate(observations)
            if observation is not None
        ]
        if not pending:
            break
        requests = [
            DecisionRequest(
                session=sessions[index],
                observation=sessions[index].observation_from_snapshot(
                    encode_observation(observations[index])
                ),
            )
            for index in pending
        ]
        start = time.perf_counter()
        results = broker.decide(requests)
        decide_seconds += time.perf_counter() - start
        decisions += len(results)
        for index, request, result in zip(pending, requests, results):
            encoded = request.session.encode_action(result.action)
            action = decode_action(encoded, observations[index])
            observation, _, done = environments[index].step(action)
            observations[index] = None if done else observation
    return {
        "num_sessions": num_sessions,
        "decisions": decisions,
        "decide_seconds": decide_seconds,
        "decisions_per_sec": decisions / decide_seconds if decide_seconds else float("inf"),
    }


def _compare_modes():
    rows = []
    for num_sessions, rounds in SCENARIOS:
        # One pair is a batched and a serial run back to back, the order
        # alternating: a slow spell of a shared host then lands on both sides
        # of a ratio instead of on one mode, and the median over the pairs
        # shrugs off the odd pair it splits (single-pair ratios on one host:
        # 2.44, 2.30, 2.70, 1.65, 3.36, 2.28).
        throughput = {True: [], False: []}
        decisions = set()
        for pair in range(PAIRS):
            for batched in (True, False) if pair % 2 == 0 else (False, True):
                run = _measure(num_sessions, rounds, batched=batched)
                throughput[batched].append(run["decisions_per_sec"])
                decisions.add(run["decisions"])
        assert len(decisions) == 1
        speedups = [b / s for b, s in zip(throughput[True], throughput[False])]
        rows.append(
            {
                "num_sessions": num_sessions,
                "decisions": decisions.pop(),
                "serial_decisions_per_sec": statistics.median(throughput[False]),
                "batched_decisions_per_sec": statistics.median(throughput[True]),
                "pair_speedups": speedups,
                "speedup": statistics.median(speedups),
            }
        )
    return rows


def _write_bench_artifact(update: dict) -> Path:
    """Merge ``update`` into BENCH_service.json (both tests share the file)."""
    output_dir = Path(os.environ.get("DECIMA_BENCH_OUTPUT_DIR", "."))
    artifact = output_dir / "BENCH_service.json"
    payload = {}
    if artifact.exists():
        try:
            payload = json.loads(artifact.read_text())
        except (ValueError, OSError):
            payload = {}
    payload.update(update)
    artifact.write_text(json.dumps(payload, indent=2) + "\n")
    return artifact


# ----------------------------------------------------------- shard scaling
def _fleet_shard_worker(start_event, results, shard_index, session_indices,
                        rounds):
    """One shard process: its own agent + batched broker, its session subset.

    Setup (agent build, environment resets) happens before the start barrier
    so the timed region covers only decision serving — the same accounting a
    router-fronted fleet gets from its long-lived shard servers.
    """
    agent = DecimaAgent(total_executors=NUM_EXECUTORS, config=DecimaConfig(seed=0))
    broker = RequestBroker(agent, batched=True, greedy=True)
    environments, observations, sessions = [], [], []
    for index in session_indices:
        rng = np.random.default_rng(index)
        jobs = batched_arrivals(
            sample_tpch_jobs(JOBS_PER_SESSION, rng, sizes=(2.0, 5.0))
        )
        environment = SchedulingEnvironment(
            SimulatorConfig(num_executors=NUM_EXECUTORS, seed=index)
        )
        environments.append(environment)
        observations.append(environment.reset(jobs, seed=index))
        sessions.append(SessionState(f"bench-{index}", NUM_EXECUTORS, seed=index))
    start_event.wait()
    decisions = 0
    for _ in range(rounds):
        pending = [
            position for position, observation in enumerate(observations)
            if observation is not None
        ]
        if not pending:
            break
        requests = [
            DecisionRequest(
                session=sessions[position],
                observation=sessions[position].observation_from_snapshot(
                    encode_observation(observations[position])
                ),
            )
            for position in pending
        ]
        answers = broker.decide(requests)
        decisions += len(answers)
        for position, request, result in zip(pending, requests, answers):
            encoded = request.session.encode_action(result.action)
            action = decode_action(encoded, observations[position])
            observation, _, done = environments[position].step(action)
            observations[position] = None if done else observation
    results.put((shard_index, decisions))


def _measure_fleet(num_shards: int, rounds: int = FLEET_ROUNDS) -> dict:
    """Whole-fleet decisions/sec: 64 sessions over ``num_shards`` processes."""
    context = mp.get_context("fork" if "fork" in mp.get_all_start_methods()
                             else "spawn")
    start_event = context.Event()
    results = context.Queue()
    placement = [
        [index for index in range(FLEET_SESSIONS)
         if shard_for_session(f"bench-{index}", num_shards) == shard]
        for shard in range(num_shards)
    ]
    workers = [
        context.Process(
            target=_fleet_shard_worker,
            args=(start_event, results, shard, session_indices, rounds),
            daemon=True,
        )
        for shard, session_indices in enumerate(placement)
    ]
    for worker in workers:
        worker.start()
    # Give every shard time to finish its (untimed) setup before the clock
    # starts; the event releases them all at once.
    time.sleep(0.5)
    start = time.perf_counter()
    start_event.set()
    per_shard = dict(results.get() for _ in workers)
    elapsed = time.perf_counter() - start
    for worker in workers:
        worker.join(timeout=30.0)
    decisions = sum(per_shard.values())
    return {
        "num_shards": num_shards,
        "num_sessions": FLEET_SESSIONS,
        "decisions": decisions,
        "elapsed_seconds": elapsed,
        "decisions_per_sec": decisions / elapsed if elapsed else float("inf"),
        "per_shard_decisions": [per_shard[shard] for shard in range(num_shards)],
    }


def _sweep_shards():
    rows = []
    for num_shards in SHARD_COUNTS:
        runs = [_measure_fleet(num_shards) for _ in range(2)]
        rows.append(max(runs, key=lambda run: run["decisions_per_sec"]))
    baseline = rows[0]["decisions_per_sec"]
    for row in rows:
        row["scaling_vs_1_shard"] = row["decisions_per_sec"] / baseline
    return rows


def test_bench_service(benchmark):
    rows = run_once(benchmark, _compare_modes)
    print()
    print("policy serving: cross-session batched broker vs serial dispatch")
    print(f"  {'sessions':>8} {'decisions':>9} {'serial dec/s':>13} "
          f"{'batched dec/s':>14} {'speedup':>8}   (medians of {PAIRS} interleaved pairs)")
    for row in rows:
        print(
            f"  {row['num_sessions']:>8} {row['decisions']:>9} "
            f"{row['serial_decisions_per_sec']:>13.1f} "
            f"{row['batched_decisions_per_sec']:>14.1f} {row['speedup']:>7.2f}x"
        )
        benchmark.extra_info[f"speedup_{row['num_sessions']}_sessions"] = round(
            row["speedup"], 3
        )

    artifact = _write_bench_artifact({"scenarios": rows})
    print(f"  wrote {artifact}")

    by_sessions = {row["num_sessions"]: row for row in rows}
    # DECIMA_BENCH_SERVICE_MIN_SPEEDUP loosens the bar on noisy shared runners.
    required = float(os.environ.get("DECIMA_BENCH_SERVICE_MIN_SPEEDUP", "2.0"))
    assert by_sessions[8]["speedup"] >= required, (
        f"expected >={required}x decisions/sec from the batched broker at 8 "
        f"concurrent sessions, got {by_sessions[8]['speedup']:.2f}x"
    )
    # Batching should never hurt even tiny fleets; the bar scales with the
    # same env override so noisy shared runners get the same relief.
    assert by_sessions[2]["speedup"] >= required / 2.0


def test_bench_shard_scaling(benchmark):
    rows = run_once(benchmark, _sweep_shards)
    print()
    print(f"shard scaling: {FLEET_SESSIONS} sessions across shard processes")
    print(f"  {'shards':>6} {'decisions':>9} {'elapsed s':>10} "
          f"{'fleet dec/s':>12} {'scaling':>8}")
    for row in rows:
        print(
            f"  {row['num_shards']:>6} {row['decisions']:>9} "
            f"{row['elapsed_seconds']:>10.2f} "
            f"{row['decisions_per_sec']:>12.1f} "
            f"{row['scaling_vs_1_shard']:>7.2f}x"
        )
        benchmark.extra_info[f"scaling_{row['num_shards']}_shards"] = round(
            row["scaling_vs_1_shard"], 3
        )

    cpus = os.cpu_count() or 1
    artifact = _write_bench_artifact(
        {"shard_scaling": {"num_sessions": FLEET_SESSIONS, "cpus": cpus,
                           "rows": rows}}
    )
    print(f"  wrote {artifact}")
    benchmark.extra_info["cpus"] = cpus

    by_shards = {row["num_shards"]: row for row in rows}
    # Every shard count serves the same total decision stream.
    assert len({row["decisions"] for row in rows}) == 1
    # Like the parallel-rollout benchmark, the scaling bar only applies where
    # the shards actually get cores; on fewer CPUs the curve is still written
    # (and honestly flat) but the wall-clock assertion would measure the
    # scheduler's time slicing, not the fleet.
    if cpus >= max(SHARD_COUNTS):
        # DECIMA_BENCH_SHARD_MIN_SCALING loosens the bar on noisy runners.
        required = float(os.environ.get("DECIMA_BENCH_SHARD_MIN_SCALING", "1.6"))
        assert by_shards[4]["scaling_vs_1_shard"] >= required, (
            f"expected >={required}x fleet decisions/sec at 4 shards vs 1 "
            f"shard ({FLEET_SESSIONS} sessions), got "
            f"{by_shards[4]['scaling_vs_1_shard']:.2f}x"
        )
        # 2 shards must already help (same relief valve, halved).
        assert by_shards[2]["scaling_vs_1_shard"] >= max(1.0, required / 2.0)
    else:
        print(f"  ({cpus} CPU(s) < {max(SHARD_COUNTS)} shards: scaling bar "
              f"not applied on this machine)")
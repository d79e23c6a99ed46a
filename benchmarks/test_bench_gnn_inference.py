"""Benchmark: sparse frontier message passing + GraphCache vs the dense hot path.

Every scheduling decision calls ``DecimaAgent.act``; the dense oracle rebuilds
all GNN inputs from scratch (per-node Python loops, an O(N²) adjacency) and
runs message passing as full-width O(N²·D) matmuls, while the sparse path
reuses cached graph structure, serves features from the delta path and runs
the GNN on arena buffers, touching only each height frontier (§5.1, Fig. 5a).
This benchmark measures ``act()`` steps/sec at 10/50/200 concurrent jobs for
both paths on identical seeded episodes — plus a sparse-only 500-job scale
point (~6,000 nodes, beyond the dense oracle's O(N²) reach) — and writes the
results to ``BENCH_gnn_inference.json`` so CI can track the perf trajectory.

``DECIMA_BENCH_GNN_MIN_SPEEDUP`` (default 2.0) sets the required speedup at 50
concurrent jobs; CI loosens it for noisy shared runners.
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from conftest import run_once

from repro.core import DecimaAgent, DecimaConfig
from repro.verify.oracles import ReferenceAgent
from repro.simulator import SchedulingEnvironment, SimulatorConfig
from repro.workloads import batched_arrivals, sample_tpch_jobs

# (concurrent jobs, timed act() steps): fewer steps at larger sizes keeps the
# dense oracle affordable — 200 jobs is ~2,500 nodes, i.e. a 2,500² adjacency
# rebuild per step on the dense path.
SCENARIOS = ((10, 120), (50, 60), (200, 20))
# Sparse-only scale point: ~6,000 nodes is out of reach for the dense oracle
# (a 6,000² float adjacency per step), so no speedup is recorded there — the
# row tracks the absolute steps/sec of the delta+arena hot path at scale.
SPARSE_ONLY_SCENARIOS = ((500, 10),)
NUM_EXECUTORS = 20


def _measure(num_jobs: int, steps: int, sparse: bool) -> dict:
    """Steps/sec of ``act()`` over one seeded greedy episode prefix."""
    rng = np.random.default_rng(0)
    jobs = batched_arrivals(sample_tpch_jobs(num_jobs, rng, sizes=(2.0, 5.0)))
    environment = SchedulingEnvironment(
        SimulatorConfig(num_executors=NUM_EXECUTORS, seed=0)
    )
    agent_class = DecimaAgent if sparse else ReferenceAgent
    agent = agent_class(total_executors=NUM_EXECUTORS, config=DecimaConfig(seed=0))
    agent.reset()
    observation = environment.reset(jobs, seed=0)
    act_rng = np.random.default_rng(1)
    num_nodes = sum(job.num_nodes for job in observation.job_dags)

    act_seconds = 0.0
    actions = 0
    done = False
    while not done and actions < steps:
        start = time.perf_counter()
        action, _ = agent.act(observation, rng=act_rng, greedy=True)
        act_seconds += time.perf_counter() - start
        observation, _, done = environment.step(action)
        actions += 1
    return {
        "num_jobs": num_jobs,
        "num_nodes": num_nodes,
        "actions": actions,
        "act_seconds": act_seconds,
        "steps_per_sec": actions / act_seconds if act_seconds else float("inf"),
    }


def _compare_paths():
    results = []
    for num_jobs, steps in SCENARIOS:
        sparse = _measure(num_jobs, steps, sparse=True)
        dense = _measure(num_jobs, steps, sparse=False)
        results.append(
            {
                "num_jobs": num_jobs,
                "num_nodes": sparse["num_nodes"],
                "actions": sparse["actions"],
                "sparse_steps_per_sec": sparse["steps_per_sec"],
                "dense_steps_per_sec": dense["steps_per_sec"],
                "speedup": sparse["steps_per_sec"] / dense["steps_per_sec"],
            }
        )
    for num_jobs, steps in SPARSE_ONLY_SCENARIOS:
        sparse = _measure(num_jobs, steps, sparse=True)
        results.append(
            {
                "num_jobs": num_jobs,
                "num_nodes": sparse["num_nodes"],
                "actions": sparse["actions"],
                "sparse_steps_per_sec": sparse["steps_per_sec"],
                "dense_steps_per_sec": None,
                "speedup": None,
            }
        )
    return results


def test_bench_gnn_inference(benchmark):
    rows = run_once(benchmark, _compare_paths)
    print()
    print("act() inference: sparse frontier + GraphCache vs dense oracle")
    print(f"  {'jobs':>5} {'nodes':>6} {'dense steps/s':>14} {'sparse steps/s':>15} {'speedup':>8}")
    for row in rows:
        if row["speedup"] is None:
            print(
                f"  {row['num_jobs']:>5} {row['num_nodes']:>6} "
                f"{'(skipped)':>14} {row['sparse_steps_per_sec']:>15.1f} "
                f"{'—':>8}"
            )
            continue
        print(
            f"  {row['num_jobs']:>5} {row['num_nodes']:>6} "
            f"{row['dense_steps_per_sec']:>14.1f} {row['sparse_steps_per_sec']:>15.1f} "
            f"{row['speedup']:>7.2f}x"
        )
        benchmark.extra_info[f"speedup_{row['num_jobs']}_jobs"] = round(row["speedup"], 3)

    output_dir = Path(os.environ.get("DECIMA_BENCH_OUTPUT_DIR", "."))
    artifact = output_dir / "BENCH_gnn_inference.json"
    artifact.write_text(json.dumps({"scenarios": rows}, indent=2) + "\n")
    print(f"  wrote {artifact}")

    by_jobs = {row["num_jobs"]: row for row in rows}
    # DECIMA_BENCH_GNN_MIN_SPEEDUP loosens the bar on noisy shared runners (CI).
    required = float(os.environ.get("DECIMA_BENCH_GNN_MIN_SPEEDUP", "2.0"))
    assert by_jobs[50]["speedup"] >= required, (
        f"expected >={required}x act() speedup at 50 concurrent jobs, "
        f"got {by_jobs[50]['speedup']:.2f}x"
    )
    # The win must grow with scale (the dense path is O(N²) per step); the
    # 0.8 factor absorbs timing noise in the short 200-job run on shared
    # runners, where only 20 actions are timed.
    assert by_jobs[200]["speedup"] > 0.8 * by_jobs[50]["speedup"]
    assert by_jobs[200]["speedup"] >= required

#!/usr/bin/env python3
"""Train Decima on continuous TPC-H job arrivals and compare to tuned heuristics.

This is a scaled-down version of the §7.2 continuous-arrival experiment
(Figure 9b): jobs arrive as a Poisson process, Decima trains with curriculum
learning and input-dependent baselines, and the learned policy is compared to
the optimally tuned weighted-fair heuristic.  The trained model is saved as the
next version of a :class:`~repro.core.checkpoints.CheckpointStore`
(``--store-dir``), which ``run_policy_server.py --store-dir`` serves.

Run:  python examples/train_decima_tpch.py [--iterations N] [--store-dir DIR]
"""

import argparse

import numpy as np

from repro.core import CheckpointStore, TrainingConfig
from repro.experiments import (
    format_scalar_table,
    run_scheduler_on_jobs,
    tpch_poisson_factory,
    train_decima_agent,
    tune_weighted_fair,
)
from repro.schedulers import FairScheduler
from repro.simulator import SimulatorConfig
from repro.workloads import poisson_arrivals, sample_tpch_jobs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--iterations", type=int, default=15, help="training iterations")
    parser.add_argument("--num-jobs", type=int, default=12, help="jobs per arrival sequence")
    parser.add_argument("--executors", type=int, default=25, help="cluster size")
    parser.add_argument("--interarrival", type=float, default=45.0, help="mean interarrival (s)")
    parser.add_argument("--store-dir", default="runs/tpch",
                        help="CheckpointStore directory the trained model is "
                             "saved into as the next version (servable with "
                             "run_policy_server.py --store-dir)")
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="rollout worker processes, >= 1 (1 = serial; the paper uses 16)",
    )
    return parser


def main() -> None:
    args = build_parser().parse_args()

    config = SimulatorConfig(num_executors=args.executors, seed=0)
    factory = tpch_poisson_factory(args.num_jobs, args.interarrival)

    print(f"Training Decima for {args.iterations} iterations "
          f"({args.num_jobs} jobs/sequence, {args.executors} executors, "
          f"{args.workers} rollout worker{'s' if args.workers != 1 else ''})...")
    agent, history = train_decima_agent(
        config,
        factory,
        num_iterations=args.iterations,
        episodes_per_iteration=3,
        training_config=TrainingConfig(seed=0, initial_episode_time=2000.0),
        seed=0,
        num_workers=args.workers,
    )
    rewards = history.rewards()
    print(f"Mean episode reward: first iteration {rewards[0]:.3f}, last {rewards[-1]:.3f}")

    info = CheckpointStore(args.store_dir).save(agent)
    print(f"Saved trained model as version {info.version} of the store: {info.path} "
          f"({agent.num_parameters()} parameters)")

    # Evaluate on an unseen arrival sequence.
    rng = np.random.default_rng(1234)
    test_jobs = poisson_arrivals(
        sample_tpch_jobs(args.num_jobs, rng), args.interarrival, rng
    )
    tuned, tuned_jct, _ = tune_weighted_fair(
        test_jobs, config=config, alphas=np.arange(-2.0, 2.01, 0.5)
    )
    results = {
        "fair": run_scheduler_on_jobs(FairScheduler(), test_jobs, config=config).average_jct,
        "opt_weighted_fair": tuned_jct,
        "decima": run_scheduler_on_jobs(agent, test_jobs, config=config).average_jct,
    }
    print()
    print(format_scalar_table("Average JCT on an unseen arrival sequence (Figure 9b)", results))


if __name__ == "__main__":
    main()

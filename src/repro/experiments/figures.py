"""Reproduction functions for the figures in the paper's main body (§2, §7).

Every function regenerates the data behind one figure and returns plain Python
data structures (dicts of series / rows) that the benchmark harness prints.
Training budgets default to small values so the whole harness runs on a
laptop; the paper's qualitative shapes (who wins, by roughly what factor) are
what these functions reproduce, not the absolute testbed numbers.
"""

from __future__ import annotations

import copy
from dataclasses import replace
from typing import Callable, Optional, Sequence

import numpy as np

from ..core.agent import DecimaAgent, DecimaConfig
from ..core.features import FeatureConfig
from ..core.reinforce import TrainingConfig
from ..schedulers import (
    FairScheduler,
    FIFOScheduler,
    GrapheneScheduler,
    NaiveWeightedFairScheduler,
    SJFCPScheduler,
    TetrisScheduler,
    WeightedFairScheduler,
)
from ..schedulers.base import Scheduler
from ..simulator.duration import DurationModelConfig
from ..simulator.environment import SimulatorConfig
from ..simulator.jobdag import JobDAG
from ..simulator.metrics import SimulationResult
from ..simulator.multi_resource import assign_memory_requests, multi_resource_config
from ..workloads.alibaba import sample_alibaba_jobs
from ..workloads.arrivals import batched_arrivals, poisson_arrivals
from ..workloads.scaling import runtime_vs_parallelism
from ..workloads.tpch import make_tpch_job, sample_tpch_jobs, tpch_query_template
from .runner import run_scheduler_on_jobs, tune_weighted_fair
from .training import tpch_batch_factory, tpch_poisson_factory, train_decima_agent

__all__ = [
    "compare_schedulers",
    "concurrency_series",
    "figure2_parallelism_curves",
    "figure3_illustrative_example",
    "figure7_arrival_variance",
    "figure9a_batched_arrivals",
    "figure9b_continuous_arrivals",
    "figure10_time_series",
    "figure11_multi_resource",
    "figure12_executor_profile",
    "figure13_objectives",
    "figure14_ablations",
    "figure15a_learning_curves",
    "figure15b_scheduling_delay",
]


# --------------------------------------------------------------------- helpers
def compare_schedulers(
    schedulers: dict[str, Scheduler],
    jobs: Sequence[JobDAG],
    config: SimulatorConfig,
    seed: int = 0,
) -> dict[str, SimulationResult]:
    """Run every scheduler on identical copies of ``jobs`` and return the results."""
    results = {}
    for name, scheduler in schedulers.items():
        results[name] = run_scheduler_on_jobs(scheduler, jobs, config=config, seed=seed)
    return results


def concurrency_series(result: SimulationResult, step: float = 1.0) -> list[tuple[float, int]]:
    """Number of jobs in the system over time (Fig. 10a / Fig. 20)."""
    jobs = result.finished_jobs + result.unfinished_jobs
    if not jobs:
        return []
    events: list[tuple[float, int]] = []
    for job in jobs:
        events.append((job.arrival_time, +1))
        end = job.completion_time if job.completion_time >= 0 else result.wall_time
        events.append((end, -1))
    events.sort()
    horizon = max(time for time, _ in events)
    series = []
    count = 0
    index = 0
    for time in np.arange(0.0, horizon + step, step):
        while index < len(events) and events[index][0] <= time:
            count += events[index][1]
            index += 1
        series.append((float(time), count))
    return series


def _standard_baselines() -> dict[str, Scheduler]:
    return {
        "fifo": FIFOScheduler(),
        "sjf_cp": SJFCPScheduler(),
        "fair": FairScheduler(),
        "naive_weighted_fair": NaiveWeightedFairScheduler(),
    }


# ----------------------------------------------------------------------- Fig 2
def figure2_parallelism_curves(
    configurations: Sequence[tuple[int, float]] = ((9, 100.0), (9, 2.0), (2, 100.0)),
    max_parallelism: int = 100,
) -> dict[str, list[tuple[int, float]]]:
    """Job runtime vs. degree of parallelism for selected (query, input size) pairs."""
    curves = {}
    for query_id, size_gb in configurations:
        template = tpch_query_template(query_id)
        profile = template.scaling.scaled(size_gb)
        total_work = template.total_work(size_gb)
        curves[f"Q{query_id}, {size_gb:g} GB"] = runtime_vs_parallelism(
            total_work, profile, max_parallelism
        )
    return curves


# ----------------------------------------------------------------------- Fig 3
def figure3_illustrative_example(
    num_jobs: int = 10,
    num_executors: int = 50,
    seed: int = 0,
    decima_agent: Optional[DecimaAgent] = None,
    train_iterations: int = 10,
) -> dict[str, dict]:
    """FIFO vs SJF vs fair vs Decima on a random 10-job TPC-H batch (§2.3)."""
    rng = np.random.default_rng(seed)
    jobs = batched_arrivals(sample_tpch_jobs(num_jobs, rng))
    config = SimulatorConfig(num_executors=num_executors, seed=seed)
    if decima_agent is None:
        decima_agent, _ = train_decima_agent(
            config,
            tpch_batch_factory(num_jobs),
            num_iterations=train_iterations,
            seed=seed,
        )
    schedulers: dict[str, Scheduler] = {
        "fifo": FIFOScheduler(),
        "sjf": SJFCPScheduler(),
        "fair": FairScheduler(),
        "decima": decima_agent,
    }
    results = compare_schedulers(schedulers, jobs, config, seed=seed)
    return {
        name: {
            "average_jct": result.average_jct,
            "makespan": result.makespan,
            "timeline": result.timeline,
        }
        for name, result in results.items()
    }


# ----------------------------------------------------------------------- Fig 7
def figure7_arrival_variance(
    num_sequences: int = 2,
    num_jobs: int = 40,
    mean_interarrival: float = 10.0,
    num_executors: int = 50,
    seed: int = 0,
    step: float = 10.0,
) -> dict[str, list[tuple[float, float]]]:
    """Penalty (jobs in system) over time for different job-arrival sequences.

    The same scheduler experiences vastly different penalties purely because of
    arrival randomness — the variance the input-dependent baseline removes.
    """
    series = {}
    for sequence_index in range(num_sequences):
        rng = np.random.default_rng(seed + sequence_index)
        jobs = poisson_arrivals(sample_tpch_jobs(num_jobs, rng), mean_interarrival, rng)
        config = SimulatorConfig(num_executors=num_executors, seed=seed)
        result = run_scheduler_on_jobs(FairScheduler(), jobs, config=config, seed=seed)
        penalty = [(time, float(count)) for time, count in concurrency_series(result, step=step)]
        series[f"job sequence {sequence_index + 1}"] = penalty
    return series


# ----------------------------------------------------------------------- Fig 9
def figure9a_batched_arrivals(
    num_experiments: int = 3,
    num_jobs: int = 20,
    num_executors: int = 50,
    seed: int = 0,
    decima_agent: Optional[DecimaAgent] = None,
    train_iterations: int = 10,
    include_multi_resource_baselines: bool = True,
) -> dict[str, list[float]]:
    """Average JCT of every baseline and Decima over repeated random batches.

    Returns one list of average JCTs per scheduler (the CDF material of
    Fig. 9a).  The tuned weighted-fair heuristic is re-tuned per experiment,
    exactly as in §7.1.
    """
    config = SimulatorConfig(num_executors=num_executors, seed=seed)
    if decima_agent is None:
        decima_agent, _ = train_decima_agent(
            config, tpch_batch_factory(num_jobs), num_iterations=train_iterations, seed=seed
        )
    jcts: dict[str, list[float]] = {}
    for experiment in range(num_experiments):
        rng = np.random.default_rng(seed + 1000 + experiment)
        jobs = batched_arrivals(sample_tpch_jobs(num_jobs, rng))
        schedulers: dict[str, Scheduler] = dict(_standard_baselines())
        tuned, _, _ = tune_weighted_fair(
            jobs, config=config, alphas=np.arange(-2.0, 2.01, 0.5), seed=seed + experiment
        )
        schedulers["opt_weighted_fair"] = tuned
        if include_multi_resource_baselines:
            schedulers["tetris"] = TetrisScheduler()
            schedulers["graphene"] = GrapheneScheduler()
        schedulers["decima"] = decima_agent
        results = compare_schedulers(schedulers, jobs, config, seed=seed + experiment)
        for name, result in results.items():
            jcts.setdefault(name, []).append(result.average_jct)
    return jcts


def figure9b_continuous_arrivals(
    num_jobs: int = 50,
    mean_interarrival: float = 45.0,
    num_executors: int = 50,
    seed: int = 0,
    decima_agent: Optional[DecimaAgent] = None,
    train_iterations: int = 10,
    max_time: float = float("inf"),
) -> dict[str, float]:
    """Continuous Poisson arrivals: Decima vs the strongest heuristic (Fig. 9b)."""
    rng = np.random.default_rng(seed)
    jobs = poisson_arrivals(sample_tpch_jobs(num_jobs, rng), mean_interarrival, rng)
    config = SimulatorConfig(num_executors=num_executors, seed=seed, max_time=max_time)
    if decima_agent is None:
        decima_agent, _ = train_decima_agent(
            config,
            tpch_poisson_factory(num_jobs, mean_interarrival),
            num_iterations=train_iterations,
            seed=seed,
        )
    tuned, _, _ = tune_weighted_fair(
        jobs, config=config, alphas=np.arange(-2.0, 2.01, 0.5), seed=seed
    )
    schedulers: dict[str, Scheduler] = {
        "opt_weighted_fair": tuned,
        "fair": FairScheduler(),
        "decima": decima_agent,
    }
    results = compare_schedulers(schedulers, jobs, config, seed=seed)
    return {name: result.average_jct for name, result in results.items()}


# ---------------------------------------------------------------------- Fig 10
def figure10_time_series(
    num_jobs: int = 50,
    mean_interarrival: float = 45.0,
    num_executors: int = 50,
    seed: int = 0,
    decima_agent: Optional[DecimaAgent] = None,
    train_iterations: int = 10,
    step: float = 30.0,
) -> dict[str, dict]:
    """Time-series analysis of continuous arrivals (Fig. 10a-e).

    For Decima and the tuned weighted-fair heuristic, returns: the number of
    concurrent jobs over time, per-job (total work, JCT) pairs, per-job
    executed work (work-inflation comparison), and per-job peak executor share.
    """
    rng = np.random.default_rng(seed)
    jobs = poisson_arrivals(sample_tpch_jobs(num_jobs, rng), mean_interarrival, rng)
    config = SimulatorConfig(num_executors=num_executors, seed=seed)
    if decima_agent is None:
        decima_agent, _ = train_decima_agent(
            config,
            tpch_poisson_factory(num_jobs, mean_interarrival),
            num_iterations=train_iterations,
            seed=seed,
        )
    tuned, _, _ = tune_weighted_fair(
        jobs, config=config, alphas=np.arange(-2.0, 2.01, 0.5), seed=seed
    )
    schedulers: dict[str, Scheduler] = {"opt_weighted_fair": tuned, "decima": decima_agent}
    results = compare_schedulers(schedulers, jobs, config, seed=seed)

    analysis: dict[str, dict] = {}
    for name, result in results.items():
        jct_vs_work = [
            (job.total_work, job.completion_duration()) for job in result.finished_jobs
        ]
        executed_work = result.per_job_work()
        per_job_executors = {}
        for record in result.timeline:
            per_job_executors.setdefault(record.job_name, set()).add(record.executor_id)
        analysis[name] = {
            "average_jct": result.average_jct if result.finished_jobs else float("nan"),
            "concurrency": concurrency_series(result, step=step),
            "jct_vs_work": jct_vs_work,
            "executed_work": executed_work,
            "executors_per_job": {k: len(v) for k, v in per_job_executors.items()},
        }
    return analysis


# ---------------------------------------------------------------------- Fig 11
def figure11_multi_resource(
    workload: str = "tpch",
    num_jobs: int = 20,
    total_executors: int = 40,
    mean_interarrival: float = 60.0,
    seed: int = 0,
    decima_agent: Optional[DecimaAgent] = None,
    train_iterations: int = 10,
    max_time: float = float("inf"),
) -> dict[str, dict]:
    """Multi-resource packing: Decima vs weighted fair, Tetris and Graphene* (§7.3)."""
    if workload not in ("tpch", "alibaba"):
        raise ValueError("workload must be 'tpch' or 'alibaba'")
    rng = np.random.default_rng(seed)
    if workload == "tpch":
        jobs = poisson_arrivals(sample_tpch_jobs(num_jobs, rng), mean_interarrival, rng)
        assign_memory_requests(jobs, seed=seed)
    else:
        jobs = sample_alibaba_jobs(num_jobs, rng, mean_interarrival=mean_interarrival)
    config = multi_resource_config(total_executors=total_executors, seed=seed, max_time=max_time)
    if decima_agent is None:
        agent_config = DecimaConfig(multi_resource=True, seed=seed)
        factory = (
            tpch_poisson_factory(num_jobs, mean_interarrival, with_memory=True)
            if workload == "tpch"
            else (lambda r: sample_alibaba_jobs(num_jobs, r, mean_interarrival=mean_interarrival))
        )
        decima_agent, _ = train_decima_agent(
            config,
            factory,
            num_iterations=train_iterations,
            agent_config=agent_config,
            seed=seed,
        )
    tuned, _, _ = tune_weighted_fair(
        jobs, config=config, alphas=np.arange(-2.0, 2.01, 0.5), seed=seed
    )
    schedulers: dict[str, Scheduler] = {
        "opt_weighted_fair": tuned,
        "tetris": TetrisScheduler(),
        "graphene": GrapheneScheduler(),
        "decima": decima_agent,
    }
    results = compare_schedulers(schedulers, jobs, config, seed=seed)
    return {
        name: {
            "average_jct": result.average_jct if result.finished_jobs else float("nan"),
            "result": result,
        }
        for name, result in results.items()
    }


# ---------------------------------------------------------------------- Fig 12
def figure12_executor_profile(
    multi_resource_results: Optional[dict[str, dict]] = None,
    num_bins: int = 4,
    small_fraction: float = 0.2,
    **figure11_kwargs,
) -> dict[str, object]:
    """Decima vs Graphene*: per-job-size JCT ratio and large-executor usage (Fig. 12).

    Either pass the output of :func:`figure11_multi_resource` or let this
    function run it with ``figure11_kwargs``.
    """
    if multi_resource_results is None:
        multi_resource_results = figure11_multi_resource(**figure11_kwargs)
    decima = multi_resource_results["decima"]["result"]
    graphene = multi_resource_results["graphene"]["result"]

    def jct_by_name(result: SimulationResult) -> dict[str, tuple[float, float]]:
        return {
            job.name: (job.total_work, job.completion_duration())
            for job in result.finished_jobs
        }

    decima_jcts = jct_by_name(decima)
    graphene_jcts = jct_by_name(graphene)
    common = sorted(set(decima_jcts) & set(graphene_jcts))
    if not common:
        return {"jct_ratio_by_work_bin": {}, "large_executor_usage_ratio": float("nan")}
    works = np.array([decima_jcts[name][0] for name in common])
    ratios = np.array(
        [decima_jcts[name][1] / max(graphene_jcts[name][1], 1e-9) for name in common]
    )
    bin_edges = np.quantile(works, np.linspace(0, 1, num_bins + 1))
    jct_ratio_by_bin = {}
    for bin_index in range(num_bins):
        low, high = bin_edges[bin_index], bin_edges[bin_index + 1]
        mask = (works >= low) & (works <= high if bin_index == num_bins - 1 else works < high)
        if mask.any():
            jct_ratio_by_bin[f"work<= {high:.0f}"] = float(ratios[mask].mean())

    # Usage of the largest executor class on the smallest jobs, Decima / Graphene*.
    small_names = {
        name for name, _ in sorted(
            ((name, decima_jcts[name][0]) for name in common), key=lambda item: item[1]
        )[: max(1, int(len(common) * small_fraction))]
    }

    def large_class_usage(result: SimulationResult) -> float:
        # Executors with the highest ids belong to the largest class (the config
        # builds classes in ascending memory order).
        large_threshold = 0.75 * max(
            (record.executor_id for record in result.timeline), default=0
        )
        usage = sum(
            1
            for record in result.timeline
            if record.job_name in small_names and record.executor_id >= large_threshold
        )
        return float(usage)

    decima_usage = large_class_usage(decima)
    graphene_usage = large_class_usage(graphene)
    if graphene_usage > 0:
        usage_ratio = decima_usage / graphene_usage
    else:
        usage_ratio = float("inf") if decima_usage > 0 else 1.0
    return {
        "jct_ratio_by_work_bin": jct_ratio_by_bin,
        "large_executor_usage_ratio": usage_ratio,
        "decima_large_executor_tasks": decima_usage,
        "graphene_large_executor_tasks": graphene_usage,
    }


# ---------------------------------------------------------------------- Fig 13
def figure13_objectives(
    num_jobs: int = 10,
    num_executors: int = 20,
    seed: int = 0,
    train_iterations: int = 10,
) -> dict[str, dict]:
    """Learned policies under different objectives and environments (Fig. 13).

    Three settings: (a) average JCT with costly executor movement, (b) average
    JCT with free executor movement, (c) makespan objective.
    """
    rng = np.random.default_rng(seed)
    jobs = batched_arrivals(sample_tpch_jobs(num_jobs, rng))
    settings = {
        "avg_jct": SimulatorConfig(num_executors=num_executors, seed=seed),
        "avg_jct_free_motion": SimulatorConfig(
            num_executors=num_executors,
            seed=seed,
            duration=DurationModelConfig(enable_moving_delay=False, moving_delay=0.0),
        ),
        "makespan": SimulatorConfig(
            num_executors=num_executors, seed=seed, reward_mode="makespan"
        ),
    }
    outputs = {}
    for name, config in settings.items():
        agent, _ = train_decima_agent(
            config,
            tpch_batch_factory(num_jobs),
            num_iterations=train_iterations,
            seed=seed,
        )
        result = run_scheduler_on_jobs(agent, jobs, config=config, seed=seed)
        outputs[name] = {
            "average_jct": result.average_jct,
            "makespan": result.makespan,
            "timeline": result.timeline,
        }
    return outputs


# ---------------------------------------------------------------------- Fig 14
def figure14_ablations(
    mean_interarrivals: Sequence[float] = (90.0, 45.0),
    num_jobs: int = 30,
    num_executors: int = 50,
    seed: int = 0,
    train_iterations: int = 8,
    max_time: float = float("inf"),
) -> dict[str, dict[float, float]]:
    """Contribution of each key idea (Fig. 14).

    Variants: full Decima, w/o graph embedding, w/o parallelism control,
    trained on batched arrivals, w/o input-dependent variance reduction — all
    compared against the tuned weighted-fair heuristic at several loads
    (parameterised here by the mean interarrival time; smaller = higher load).
    """
    variants: dict[str, Callable[[], tuple[DecimaConfig, TrainingConfig, bool]]] = {
        "decima": lambda: (DecimaConfig(seed=seed), TrainingConfig(seed=seed), False),
        "no_graph_embedding": lambda: (
            DecimaConfig(seed=seed, use_graph_embedding=False),
            TrainingConfig(seed=seed),
            False,
        ),
        "no_parallelism_control": lambda: (
            DecimaConfig(seed=seed, use_parallelism_control=False),
            TrainingConfig(seed=seed),
            False,
        ),
        "no_variance_reduction": lambda: (
            DecimaConfig(seed=seed),
            TrainingConfig(seed=seed, use_input_dependent_baseline=False),
            False,
        ),
        "trained_on_batched": lambda: (DecimaConfig(seed=seed), TrainingConfig(seed=seed), True),
    }
    output: dict[str, dict[float, float]] = {name: {} for name in variants}
    output["opt_weighted_fair"] = {}

    for interarrival in mean_interarrivals:
        rng = np.random.default_rng(seed + 17)
        test_jobs = poisson_arrivals(sample_tpch_jobs(num_jobs, rng), interarrival, rng)
        config = SimulatorConfig(num_executors=num_executors, seed=seed, max_time=max_time)
        tuned, tuned_jct, _ = tune_weighted_fair(
            test_jobs, config=config, alphas=np.arange(-2.0, 2.01, 0.5), seed=seed
        )
        output["opt_weighted_fair"][interarrival] = tuned_jct
        for name, make in variants.items():
            agent_config, training_config, batched_training = make()
            factory = (
                tpch_batch_factory(num_jobs)
                if batched_training
                else tpch_poisson_factory(num_jobs, interarrival)
            )
            agent, _ = train_decima_agent(
                config,
                factory,
                num_iterations=train_iterations,
                agent_config=agent_config,
                training_config=training_config,
                seed=seed,
            )
            result = run_scheduler_on_jobs(agent, test_jobs, config=config, seed=seed)
            jct = result.average_jct if result.finished_jobs else float("inf")
            output[name][interarrival] = jct
    return output


# ---------------------------------------------------------------------- Fig 15
def figure15a_learning_curves(
    num_iterations: int = 15,
    num_jobs: int = 8,
    num_executors: int = 20,
    seed: int = 0,
) -> dict[str, list[float]]:
    """Training reward curves for the three parallelism-control encodings (Fig. 15a)."""
    config = SimulatorConfig(num_executors=num_executors, seed=seed)
    factory = tpch_batch_factory(num_jobs)
    variants = {
        "decima": DecimaConfig(seed=seed),
        "limit_one_hot": DecimaConfig(seed=seed, limit_value_input=False),
        "no_parallelism_control": DecimaConfig(seed=seed, use_parallelism_control=False),
    }
    curves = {}
    for name, agent_config in variants.items():
        _, history = train_decima_agent(
            config,
            factory,
            num_iterations=num_iterations,
            agent_config=agent_config,
            seed=seed,
        )
        curves[name] = [float(stats.mean_total_reward) for stats in history.iterations]
    return curves


def figure15b_scheduling_delay(
    num_jobs: int = 20,
    mean_interarrival: float = 45.0,
    num_executors: int = 50,
    seed: int = 0,
    decima_agent: Optional[DecimaAgent] = None,
    train_iterations: int = 5,
) -> dict[str, list[float]]:
    """Scheduling-decision latency vs. time between scheduling events (Fig. 15b)."""
    rng = np.random.default_rng(seed)
    jobs = poisson_arrivals(sample_tpch_jobs(num_jobs, rng), mean_interarrival, rng)
    config = SimulatorConfig(num_executors=num_executors, seed=seed)
    if decima_agent is None:
        decima_agent, _ = train_decima_agent(
            config,
            tpch_poisson_factory(num_jobs, mean_interarrival),
            num_iterations=train_iterations,
            seed=seed,
        )
    result = run_scheduler_on_jobs(decima_agent, jobs, config=config, seed=seed)
    event_times = sorted({record.finish_time for record in result.timeline})
    intervals = list(np.diff(event_times)) if len(event_times) > 1 else []
    return {
        "scheduling_delays": [float(delay) for delay in result.scheduling_delays],
        "event_intervals": [float(interval) for interval in intervals],
    }

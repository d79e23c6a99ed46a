"""Unit tests for metrics containers and multi-resource helpers."""

import numpy as np
import pytest

from repro.simulator import (
    SimulatorConfig,
    TaskRecord,
    average_jct,
    executor_utilization,
    makespan,
    multi_resource_config,
)
from repro.simulator.multi_resource import assign_memory_requests, memory_fragmentation
from repro.schedulers import FairScheduler
from repro.workloads import batched_arrivals, chain_job, sample_tpch_jobs
from repro.experiments.runner import run_scheduler_on_jobs


def finished_job(name, arrival, completion):
    job = chain_job(1, name=name)
    job.arrival_time = arrival
    job.completion_time = completion
    return job


class TestMetrics:
    def test_average_jct(self):
        jobs = [finished_job("a", 0.0, 10.0), finished_job("b", 5.0, 10.0)]
        assert average_jct(jobs) == pytest.approx(7.5)

    def test_average_jct_requires_jobs(self):
        with pytest.raises(ValueError):
            average_jct([])

    def test_makespan(self):
        jobs = [finished_job("a", 2.0, 10.0), finished_job("b", 5.0, 30.0)]
        assert makespan(jobs) == pytest.approx(28.0)
        with pytest.raises(ValueError):
            makespan([])

    def test_executor_utilization(self):
        records = [
            TaskRecord(0, 0, "a", 0, 0.0, 5.0),
            TaskRecord(1, 0, "a", 0, 0.0, 10.0),
        ]
        assert executor_utilization(records, num_executors=2, horizon=10.0) == pytest.approx(0.75)
        assert executor_utilization([], num_executors=2) == 0.0

    def test_simulation_result_summary_and_work(self):
        rng = np.random.default_rng(0)
        jobs = batched_arrivals(sample_tpch_jobs(2, rng, sizes=(2.0,)))
        result = run_scheduler_on_jobs(
            FairScheduler(), jobs, config=SimulatorConfig(num_executors=4, seed=0), seed=0
        )
        summary = result.summary()
        assert summary["finished_jobs"] == 2
        assert summary["average_jct"] == pytest.approx(result.average_jct)
        work = result.per_job_work()
        assert set(work) == {job.name for job in result.finished_jobs}
        assert all(value > 0 for value in work.values())

    def test_job_completion_times_mapping(self):
        rng = np.random.default_rng(1)
        jobs = batched_arrivals(sample_tpch_jobs(2, rng, sizes=(2.0,)))
        result = run_scheduler_on_jobs(
            FairScheduler(), jobs, config=SimulatorConfig(num_executors=4, seed=0), seed=0
        )
        jcts = result.job_completion_times()
        assert len(jcts) == 2
        assert all(value > 0 for value in jcts.values())


class TestMultiResourceHelpers:
    def test_multi_resource_config_counts(self):
        config = multi_resource_config(total_executors=10)
        counts = [count for _, count in config.executor_classes]
        assert sum(counts) == 10
        # Four classes at 25% each, remainder on the largest class.
        assert counts == [2, 2, 2, 4]

    def test_assign_memory_requests_in_bounds(self):
        rng = np.random.default_rng(0)
        jobs = sample_tpch_jobs(3, rng, sizes=(2.0,))
        assign_memory_requests(jobs, seed=1, low=0.2, high=0.8)
        for job in jobs:
            for node in job.nodes:
                assert 0.2 <= node.mem_request <= 0.8

    def test_memory_fragmentation_bounds(self):
        config = multi_resource_config(total_executors=8, seed=0)
        rng = np.random.default_rng(2)
        jobs = batched_arrivals(sample_tpch_jobs(2, rng, sizes=(2.0,)))
        assign_memory_requests(jobs, seed=3)
        from repro.simulator import SchedulingEnvironment, run_episode
        from repro.experiments.runner import clone_jobs

        env = SchedulingEnvironment(config)
        result = run_episode(env, FairScheduler(), clone_jobs(jobs), seed=0)
        fragmentation = memory_fragmentation(result.timeline, env.executors)
        assert 0.0 <= fragmentation <= 1.0

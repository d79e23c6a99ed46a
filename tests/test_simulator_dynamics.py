"""Cluster-dynamics tests: executor churn events and straggler inflation.

Churn (timed ``executor_removed``/``executor_added`` events) and straggler
inflation flow through the same event heap / duration model every scheduler
uses, so these tests exercise them through full FIFO episodes as well as at
the unit level.
"""

import copy

import numpy as np
import pytest

from repro.schedulers import FIFOScheduler
from repro.simulator import (
    run_episode,
    DurationModelConfig,
    ExecutorChurnEvent,
    SchedulingEnvironment,
    SimulatorConfig,
    TaskDurationModel,
)
from repro.workloads import batched_arrivals, poisson_arrivals, sample_tpch_jobs


def _jobs(num_jobs=5, seed=0, sizes=(2.0, 5.0)):
    return batched_arrivals(sample_tpch_jobs(num_jobs, np.random.default_rng(seed), sizes=sizes))


class TestChurnEventValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            ExecutorChurnEvent(time=1.0, kind="executor_exploded")

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="time"):
            ExecutorChurnEvent(time=-1.0, kind="executor_removed")

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError, match="count"):
            ExecutorChurnEvent(time=1.0, kind="executor_added", count=0)


class TestExecutorChurn:
    def test_removal_shrinks_active_fleet_and_jobs_still_finish(self):
        config = SimulatorConfig(
            num_executors=10,
            churn_events=(ExecutorChurnEvent(time=20.0, kind="executor_removed", count=4),),
        )
        env = SchedulingEnvironment(config)
        result = run_episode(env, FIFOScheduler(), _jobs(), seed=1)
        assert result.all_finished
        assert env.num_active_executors == 6
        # Removed executors hold no tasks and are not in the free pool.
        removed = [e for e in env.executors if e.removed]
        assert len(removed) == 4
        assert all(e.idle for e in removed)
        assert all(e.executor_id not in env.free_executor_ids for e in removed)

    def test_removal_is_graceful_no_task_is_interrupted(self):
        config = SimulatorConfig(
            num_executors=8,
            churn_events=(ExecutorChurnEvent(time=10.0, kind="executor_removed", count=7),),
        )
        env = SchedulingEnvironment(config)
        result = run_episode(env, FIFOScheduler(), _jobs(), seed=1)
        assert result.all_finished
        # Every recorded task ran to completion (positive duration), including
        # those in flight on decommissioned executors at t=10.
        assert all(record.finish_time > record.start_time for record in result.timeline)
        # Graceful drain: a removed executor may finish the one task it was
        # running when the event fired, but never picks up another — so at
        # most one of its tasks ends after the event.
        removed_ids = {e.executor_id for e in env.executors if e.removed}
        assert removed_ids
        for executor_id in removed_ids:
            post_event = [
                r
                for r in result.timeline
                if r.executor_id == executor_id and r.finish_time > 10.0
            ]
            assert len(post_event) <= 1

    def test_removal_clamps_to_keep_one_executor(self):
        config = SimulatorConfig(
            num_executors=4,
            churn_events=(ExecutorChurnEvent(time=1.0, kind="executor_removed", count=99),),
        )
        env = SchedulingEnvironment(config)
        result = run_episode(env, FIFOScheduler(), _jobs(num_jobs=3), seed=1)
        assert result.all_finished
        assert env.num_active_executors == 1

    def test_addition_grows_fleet_and_observation_reports_it(self):
        config = SimulatorConfig(
            num_executors=4,
            churn_events=(ExecutorChurnEvent(time=5.0, kind="executor_added", count=6),),
        )
        env = SchedulingEnvironment(config)
        result = run_episode(env, FIFOScheduler(), _jobs(), seed=1)
        assert result.all_finished
        assert env.num_active_executors == 10
        assert len(env.executors) == 10
        assert {e.executor_id for e in env.executors} == set(range(10))

    def test_added_executors_are_used_when_cluster_is_starved(self):
        # One executor cannot drain the batch quickly; the t=5 add event
        # brings nine more online and tasks must land on them.
        config = SimulatorConfig(
            num_executors=1,
            churn_events=(ExecutorChurnEvent(time=5.0, kind="executor_added", count=9),),
        )
        env = SchedulingEnvironment(config)
        result = run_episode(env, FIFOScheduler(), _jobs(), seed=1)
        assert result.all_finished
        used_executors = {record.executor_id for record in result.timeline}
        assert len(used_executors) > 1

    def test_fleet_restored_on_reset(self):
        config = SimulatorConfig(
            num_executors=6,
            churn_events=(ExecutorChurnEvent(time=10.0, kind="executor_removed", count=3),),
        )
        env = SchedulingEnvironment(config)
        run_episode(env, FIFOScheduler(), _jobs(), seed=1)
        assert env.num_active_executors == 3
        env.reset(_jobs(seed=2), seed=2)
        assert env.num_active_executors == 6
        assert all(not e.removed for e in env.executors)

    def test_churn_episode_is_deterministic(self):
        config = SimulatorConfig(
            num_executors=8,
            churn_events=(
                ExecutorChurnEvent(time=15.0, kind="executor_removed", count=3),
                ExecutorChurnEvent(time=60.0, kind="executor_added", count=3),
            ),
        )
        jobs = _jobs()
        first = run_episode(SchedulingEnvironment(config), FIFOScheduler(), copy.deepcopy(jobs), seed=3)
        second = run_episode(SchedulingEnvironment(config), FIFOScheduler(), copy.deepcopy(jobs), seed=3)
        assert first.job_completion_times() == second.job_completion_times()

    def test_pending_churn_events_do_not_stretch_the_episode(self):
        # The add-back at t=10_000 fires long after the last job completes;
        # the episode must end at the last completion, not the last event.
        config = SimulatorConfig(
            num_executors=10,
            churn_events=(ExecutorChurnEvent(time=10_000.0, kind="executor_added", count=5),),
        )
        baseline = SimulatorConfig(num_executors=10)
        jobs = _jobs()
        with_churn = run_episode(
            SchedulingEnvironment(config), FIFOScheduler(), copy.deepcopy(jobs), seed=1
        )
        without = run_episode(
            SchedulingEnvironment(baseline), FIFOScheduler(), copy.deepcopy(jobs), seed=1
        )
        assert with_churn.wall_time == without.wall_time

    def test_churn_under_continuous_arrivals(self):
        jobs = sample_tpch_jobs(6, np.random.default_rng(4), sizes=(2.0,))
        poisson_arrivals(jobs, 20.0, np.random.default_rng(5))
        config = SimulatorConfig(
            num_executors=6,
            churn_events=(
                ExecutorChurnEvent(time=30.0, kind="executor_removed", count=2),
                ExecutorChurnEvent(time=90.0, kind="executor_added", count=2),
            ),
        )
        result = run_episode(SchedulingEnvironment(config), FIFOScheduler(), jobs, seed=6)
        assert result.all_finished


class TestStragglerInflation:
    def test_disabled_stragglers_change_nothing(self):
        jobs = _jobs()
        base = run_episode(
            SchedulingEnvironment(SimulatorConfig(num_executors=8)),
            FIFOScheduler(),
            copy.deepcopy(jobs),
            seed=1,
        )
        explicit = run_episode(
            SchedulingEnvironment(
                SimulatorConfig(
                    num_executors=8,
                    duration=DurationModelConfig(straggler_probability=0.0),
                )
            ),
            FIFOScheduler(),
            copy.deepcopy(jobs),
            seed=1,
        )
        assert base.job_completion_times() == explicit.job_completion_times()

    def test_certain_stragglers_scale_every_duration(self):
        config = DurationModelConfig(
            enable_first_wave=False,
            enable_work_inflation=False,
            enable_noise=False,
            enable_moving_delay=False,
            straggler_probability=1.0,
            straggler_slowdown=3.0,
        )
        model = TaskDurationModel(config, seed=0)
        from repro.simulator import Node

        node = Node(0, num_tasks=4, task_duration=2.0)
        duration = model.sample_duration(node, first_wave=False, job_parallelism=1)
        assert duration == pytest.approx(6.0)

    def test_straggler_factor_bernoulli(self):
        config = DurationModelConfig(straggler_probability=0.5, straggler_slowdown=4.0)
        model = TaskDurationModel(config, seed=0)
        factors = {model.straggler_factor() for _ in range(200)}
        assert factors == {1.0, 4.0}

    def test_straggler_slowdown_below_one_is_clamped(self):
        config = DurationModelConfig(straggler_probability=1.0, straggler_slowdown=0.25)
        model = TaskDurationModel(config, seed=0)
        assert model.straggler_factor() == 1.0

    def test_custom_inflation_hook_takes_priority(self):
        config = DurationModelConfig(
            straggler_probability=1.0,
            straggler_slowdown=10.0,
            straggler_inflation=_constant_inflation,
        )
        model = TaskDurationModel(config, seed=0)
        assert model.straggler_factor() == 2.5

    def test_straggler_prone_cluster_has_larger_jct(self):
        jobs = _jobs(num_jobs=6)
        base = run_episode(
            SchedulingEnvironment(SimulatorConfig(num_executors=8)),
            FIFOScheduler(),
            copy.deepcopy(jobs),
            seed=1,
        )
        prone = run_episode(
            SchedulingEnvironment(
                SimulatorConfig(
                    num_executors=8,
                    duration=DurationModelConfig(
                        straggler_probability=0.15, straggler_slowdown=6.0
                    ),
                )
            ),
            FIFOScheduler(),
            copy.deepcopy(jobs),
            seed=1,
        )
        assert prone.average_jct > base.average_jct


def _constant_inflation(rng):
    return 2.5

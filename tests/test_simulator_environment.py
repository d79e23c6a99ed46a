"""Integration-level tests of the event-driven scheduling environment."""

import numpy as np
import pytest

from repro.schedulers import FairScheduler, FIFOScheduler, SJFCPScheduler
from repro.simulator import (
    Action,
    DurationModelConfig,
    SchedulingEnvironment,
    SimulatorConfig,
    default_executor_class,
    multi_resource_classes,
)
from repro.simulator.jobdag import JobDAG, Node
from repro.workloads import batched_arrivals, chain_job, fork_join_job, sample_tpch_jobs
from repro.experiments.runner import run_scheduler_on_jobs
from repro.simulator import run_episode


def simple_config(num_executors=4, **kwargs):
    return SimulatorConfig(
        num_executors=num_executors,
        duration=DurationModelConfig().simplified(),
        **kwargs,
    )


def greedy_first_node_policy(observation):
    """Always schedule the first schedulable node with maximum parallelism."""
    if not observation.schedulable_nodes:
        return None
    node = observation.schedulable_nodes[0]
    return Action(node=node, parallelism_limit=observation.total_executors)


def run_to_completion(environment, jobs, policy=greedy_first_node_policy, seed=0):
    observation = environment.reset(jobs, seed=seed)
    done = False
    while not done:
        action = policy(observation)
        observation, _, done = environment.step(action)
    return environment.result()


class TestBasicExecution:
    def test_single_chain_job_completes(self):
        env = SchedulingEnvironment(simple_config(num_executors=2))
        job = chain_job(3, num_tasks=2, task_duration=1.0)
        result = run_to_completion(env, [job])
        assert result.all_finished
        # 3 stages of 2 tasks on 2 executors, 1s each: 3 seconds end to end.
        assert result.makespan == pytest.approx(3.0)

    def test_task_conservation(self):
        env = SchedulingEnvironment(simple_config(num_executors=3))
        job = fork_join_job(3, tasks_per_branch=4)
        total_tasks = sum(node.num_tasks for node in job.nodes)
        result = run_to_completion(env, [job])
        assert len(result.timeline) == total_tasks

    def test_reset_requires_jobs(self):
        env = SchedulingEnvironment(simple_config())
        with pytest.raises(ValueError):
            env.reset([])

    def test_step_after_done_raises(self):
        env = SchedulingEnvironment(simple_config())
        run_to_completion(env, [chain_job(1)])
        with pytest.raises(RuntimeError):
            env.step(None)

    def test_invalid_reward_mode(self):
        with pytest.raises(ValueError):
            SchedulingEnvironment(SimulatorConfig(reward_mode="bogus"))

    def test_timeline_has_no_executor_overlap(self):
        env = SchedulingEnvironment(simple_config(num_executors=2))
        jobs = batched_arrivals(sample_tpch_jobs(3, np.random.default_rng(0), sizes=(2.0, 5.0)))
        result = run_to_completion(env, jobs)
        by_executor = {}
        for record in result.timeline:
            by_executor.setdefault(record.executor_id, []).append(record)
        for records in by_executor.values():
            records.sort(key=lambda r: r.start_time)
            for earlier, later in zip(records, records[1:]):
                assert later.start_time >= earlier.finish_time - 1e-9

    def test_dependencies_respected_in_timeline(self):
        env = SchedulingEnvironment(simple_config(num_executors=4))
        job = chain_job(3, num_tasks=2, task_duration=1.0)
        result = run_to_completion(env, [job])
        stage_start = {}
        stage_finish = {}
        for record in result.timeline:
            stage_start.setdefault(record.node_id, record.start_time)
            stage_start[record.node_id] = min(stage_start[record.node_id], record.start_time)
            stage_finish[record.node_id] = max(
                stage_finish.get(record.node_id, 0.0), record.finish_time
            )
        assert stage_start[1] >= stage_finish[0] - 1e-9
        assert stage_start[2] >= stage_finish[1] - 1e-9


class TestRewardsAndObjectives:
    def test_rewards_are_non_positive_for_jct(self):
        env = SchedulingEnvironment(simple_config(num_executors=2, reward_scale=1.0))
        job = chain_job(2, num_tasks=2, task_duration=1.0)
        observation = env.reset([job])
        rewards = []
        done = False
        while not done:
            observation, reward, done = env.step(greedy_first_node_policy(observation))
            rewards.append(reward)
        assert all(r <= 0 for r in rewards)
        # Total penalty equals the time-integral of jobs in system = JCT of the single job.
        assert sum(rewards) == pytest.approx(-env.result().finished_jobs[0].completion_duration())

    def test_makespan_reward_integrates_to_makespan(self):
        config = simple_config(num_executors=2, reward_scale=1.0, reward_mode="makespan")
        env = SchedulingEnvironment(config)
        jobs = [chain_job(2, num_tasks=2, task_duration=1.0), chain_job(1, num_tasks=2)]
        jobs = batched_arrivals(jobs)
        result = run_to_completion(env, jobs)
        assert -result.total_reward == pytest.approx(result.makespan)

    def test_reward_scale(self):
        config = simple_config(num_executors=2, reward_scale=0.001)
        env = SchedulingEnvironment(config)
        job = chain_job(1, num_tasks=1, task_duration=10.0)
        result = run_to_completion(env, [job])
        assert result.total_reward == pytest.approx(-0.01)


class TestSchedulingSemantics:
    def test_parallelism_limit_caps_assignment(self):
        env = SchedulingEnvironment(simple_config(num_executors=4))
        job = chain_job(1, num_tasks=8, task_duration=1.0)
        observation = env.reset([job])
        node = observation.schedulable_nodes[0]
        env.step(Action(node=node, parallelism_limit=2))
        assert job.num_executors == 2

    def test_limit_below_current_assigns_nothing_and_advances(self):
        env = SchedulingEnvironment(simple_config(num_executors=4))
        job = chain_job(1, num_tasks=8, task_duration=1.0)
        observation = env.reset([job])
        node = observation.schedulable_nodes[0]
        env.step(Action(node=node, parallelism_limit=2))
        before = env.wall_time
        env.step(Action(node=node, parallelism_limit=1))
        assert env.wall_time > before

    def test_executor_sticks_to_stage_until_exhausted(self):
        env = SchedulingEnvironment(simple_config(num_executors=1))
        job = chain_job(1, num_tasks=5, task_duration=1.0)
        result = run_to_completion(env, [job])
        # A single executor runs all 5 tasks back to back without agent help.
        assert result.num_actions < 5
        assert result.makespan == pytest.approx(5.0)

    def test_moving_delay_applied_across_jobs(self):
        config = SimulatorConfig(
            num_executors=1,
            duration=DurationModelConfig(
                enable_noise=False,
                enable_first_wave=False,
                enable_work_inflation=False,
                moving_delay=2.0,
            ),
        )
        env = SchedulingEnvironment(config)
        jobs = batched_arrivals([chain_job(1, num_tasks=1, task_duration=1.0, name="a"),
                                 chain_job(1, num_tasks=1, task_duration=1.0, name="b")])
        result = run_to_completion(env, jobs)
        # First job: 2s JVM start + 1s task; second job: another 2s move + 1s task.
        assert result.makespan == pytest.approx(6.0)

    def test_source_job_reported_for_locality(self):
        env = SchedulingEnvironment(simple_config(num_executors=1))
        job = fork_join_job(2, tasks_per_branch=1, task_duration=1.0)
        observation = env.reset([job])
        node = observation.schedulable_nodes[0]
        observation, _, _ = env.step(Action(node=node, parallelism_limit=1))
        assert observation.source_job is job

    def test_max_time_truncates_episode(self):
        config = simple_config(num_executors=1, max_time=2.5)
        env = SchedulingEnvironment(config)
        job = chain_job(1, num_tasks=10, task_duration=1.0)
        result = run_to_completion(env, [job])
        assert not result.all_finished
        assert env.wall_time == pytest.approx(2.5)

    def test_job_arrival_midway(self):
        config = simple_config(num_executors=2)
        env = SchedulingEnvironment(config)
        early = chain_job(1, num_tasks=4, task_duration=1.0, name="early")
        late = chain_job(1, num_tasks=2, task_duration=1.0, name="late")
        late.arrival_time = 1.5
        result = run_to_completion(env, [early, late])
        assert result.all_finished
        late_job = [j for j in result.finished_jobs if j.name == "late"][0]
        assert late_job.completion_time > 1.5

    def test_decline_with_pending_events_is_allowed(self):
        env = SchedulingEnvironment(simple_config(num_executors=2))
        job = chain_job(2, num_tasks=2, task_duration=1.0)
        observation = env.reset([job])
        node = observation.schedulable_nodes[0]
        observation, _, _ = env.step(Action(node=node, parallelism_limit=1))
        # Decline to schedule the second executor; time must advance, not deadlock.
        before = env.wall_time
        observation, _, done = env.step(None)
        assert done or env.wall_time >= before

    def test_forced_assignment_guarantees_liveness(self):
        env = SchedulingEnvironment(simple_config(num_executors=2))
        job = chain_job(1, num_tasks=2, task_duration=1.0)
        env.reset([job])
        # Decline forever: the environment force-assigns instead of deadlocking.
        done = False
        steps = 0
        while not done and steps < 50:
            _, _, done = env.step(None)
            steps += 1
        assert done
        assert env.forced_assignments > 0


class TestMultiResourceEnvironment:
    def multi_config(self):
        classes = multi_resource_classes()
        return SimulatorConfig(
            num_executors=4,
            executor_classes=[(cls, 1) for cls in classes],
            duration=DurationModelConfig().simplified(),
        )

    def test_tasks_only_run_on_fitting_executors(self):
        env = SchedulingEnvironment(self.multi_config())
        node = Node(0, num_tasks=4, task_duration=1.0, mem_request=0.8)
        job = JobDAG(nodes=[node], edges=[], name="memory-hungry")
        result = run_to_completion(env, [job])
        memories = {e.executor_id: e.executor_class.memory for e in env.executors}
        assert result.all_finished
        for record in result.timeline:
            assert memories[record.executor_id] >= 0.8

    def test_pinned_executor_class_respected(self):
        env = SchedulingEnvironment(self.multi_config())
        node = Node(0, num_tasks=1, task_duration=1.0, mem_request=0.2)
        job = JobDAG(nodes=[node], edges=[], name="pin")
        observation = env.reset([job])
        largest = max(observation.executor_classes, key=lambda c: c.memory)
        env.step(Action(node=node, parallelism_limit=1, executor_class=largest))
        # Run to completion and check which executor actually ran the task.
        while not env.done:
            env.step(None)
        memories = {e.executor_id: e.executor_class for e in env.executors}
        result = env.result()
        assert len(result.timeline) == 1
        assert memories[result.timeline[0].executor_id] == largest

    def test_unschedulable_node_deadlock_detected(self):
        env = SchedulingEnvironment(self.multi_config())
        node = Node(0, num_tasks=1, task_duration=1.0, mem_request=5.0)
        job = JobDAG(nodes=[node], edges=[], name="impossible")
        with pytest.raises(RuntimeError):
            run_to_completion(env, [job])


class TestWithHeuristics:
    @pytest.mark.parametrize("scheduler_cls", [FIFOScheduler, SJFCPScheduler, FairScheduler])
    def test_heuristics_complete_tpch_batch(self, scheduler_cls):
        jobs = batched_arrivals(sample_tpch_jobs(4, np.random.default_rng(1), sizes=(2.0, 5.0)))
        result = run_scheduler_on_jobs(
            scheduler_cls(), jobs, config=SimulatorConfig(num_executors=8, seed=0), seed=0
        )
        assert result.all_finished
        assert result.average_jct > 0

    def test_run_episode_records_delays(self):
        jobs = batched_arrivals(sample_tpch_jobs(2, np.random.default_rng(2), sizes=(2.0,)))
        env = SchedulingEnvironment(SimulatorConfig(num_executors=4, seed=0))
        result = run_episode(env, FIFOScheduler(), jobs)
        assert len(result.scheduling_delays) == result.num_actions

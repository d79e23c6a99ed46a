"""The environment's runnable frontier is a cache of ``JobDAG.runnable_nodes``.

``SchedulingEnvironment`` no longer scans every stage of every live job to
find the schedulable ones: its event handlers maintain, per live job, the
runnable stages, an unfinished-parent count per stage and an unfinished-stage
count.  ``Node.runnable`` / ``JobDAG.runnable_nodes`` stay the definition, and
the scan the environment used to run is kept here as the oracle: after every
``reset`` and ``step`` of randomly driven episodes over the whole scenario
registry the maintained state must equal it.  A counting test pins the point
of the change without a wall clock: the number of ``Node.runnable``
evaluations per decision does not grow with the number of jobs.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.scenarios import get_scenario, scenario_names, scenario_workload_rng
from repro.schedulers import FIFOScheduler
from repro.simulator import SchedulingEnvironment, SimulatorConfig
from repro.simulator.environment import Action
from repro.simulator.jobdag import Node
from repro.workloads import batched_arrivals, sample_tpch_jobs

MAX_STEPS = 400


def scan_schedulable_nodes(env):
    """The scan ``SchedulingEnvironment._schedulable_nodes`` ran before the frontier."""
    free_classes = {env.executors[i].executor_class for i in env.free_executor_ids}
    nodes = []
    for job in env.active_jobs:
        for node in job.runnable_nodes:
            if any(cls.fits(node) for cls in free_classes):
                nodes.append(node)
    return nodes


def assert_frontier_is_definition(env):
    assert list(env._frontier) == env.active_jobs
    for job, live in env._frontier.items():
        assert live.runnable == job.runnable_nodes
        assert live.unfinished_stages == sum(not node.completed for node in job.nodes)
        assert live.unfinished_parents == {
            node: sum(not parent.completed for parent in node.parents) for node in job.nodes
        }
    assert env._schedulable_nodes() == scan_schedulable_nodes(env)
    assert env._scheduling_point() == bool(env.free_executor_ids and scan_schedulable_nodes(env))


def choose_action(observation, choice, heuristic):
    """One of: decline, the heuristic's action, a stage that is not runnable, a random one."""
    kind = choice % 6
    if kind == 0 or not observation.schedulable_nodes:
        return None
    if kind == 1:
        return heuristic.schedule(observation)
    if kind == 2:
        job = observation.job_dags[choice % len(observation.job_dags)]
        return Action(node=job.nodes[choice % job.num_nodes], parallelism_limit=1 + choice % 5)
    node = observation.schedulable_nodes[choice % len(observation.schedulable_nodes)]
    return Action(node=node, parallelism_limit=1 + choice % 9)


def drive_checking(env, jobs, seed, choices):
    """Run one episode by ``choices`` (cycled), checking the frontier at every state."""
    heuristic = FIFOScheduler()
    observation = env.reset(jobs, seed=seed)
    assert_frontier_is_definition(env)
    done = False
    steps = 0
    while not done and steps < MAX_STEPS:
        action = choose_action(observation, choices[steps % len(choices)], heuristic)
        observation, _, done = env.step(action)
        assert_frontier_is_definition(env)
        steps += 1
    return steps


@pytest.mark.parametrize("scenario", scenario_names())
@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 1_000),
    choices=st.lists(st.integers(0, 10_000), min_size=3, max_size=30),
    max_time=st.one_of(st.none(), st.floats(20.0, 400.0)),
)
def test_frontier_equals_definition_on_every_scenario(scenario, seed, choices, max_time):
    spec = get_scenario(scenario, num_jobs=4, num_executors=6)
    config = spec.build_config(seed)
    if max_time is not None:
        config = dataclasses.replace(config, max_time=max_time)
    env = SchedulingEnvironment(config)
    jobs = spec.build_jobs(scenario_workload_rng(scenario, seed))
    drive_checking(env, jobs, seed, choices)
    if max_time is None and env.done:
        assert not env._frontier and not env.active_jobs


def test_declined_actions_reach_force_assign_and_forced_events():
    """The property above is only worth its name if the liveness paths fire in it."""
    spec = get_scenario("tpch_batched", num_jobs=3, num_executors=4)
    env = SchedulingEnvironment(spec.build_config(0))
    steps = drive_checking(env, spec.build_jobs(scenario_workload_rng("tpch_batched", 0)), 0, [0])
    assert env.done and steps < MAX_STEPS
    assert env.forced_assignments > 0


def test_no_frontier_state_leaks_through_reset():
    """One environment, two episodes, the first cut off at ``max_time`` with live jobs."""
    spec = get_scenario("tpch_poisson", num_jobs=5, num_executors=4)
    env = SchedulingEnvironment(dataclasses.replace(spec.build_config(0), max_time=60.0))
    first = spec.build_jobs(scenario_workload_rng("tpch_poisson", 0))
    drive_checking(env, first, 0, [3, 1, 9])
    assert env.done and env.active_jobs and env._frontier
    second = spec.build_jobs(scenario_workload_rng("tpch_poisson", 1))
    drive_checking(env, second, 1, [1])
    assert set(env._frontier) <= set(second)
    # The same job objects again: reset() zeroes their counters, the frontier follows.
    drive_checking(env, first, 2, [1, 4])
    assert set(env._frontier) <= set(first)


def test_runnable_evaluations_per_decision_do_not_grow_with_job_count(monkeypatch):
    """Deterministic stand-in for ``simulator.step_ms``: the step is scale-free.

    Before the frontier every decision re-derived ``Node.runnable`` for every
    stage of every live job (about 4x more evaluations per decision at 160
    jobs than at 40; 2,610 per decision at 200 jobs).
    """
    evaluations = [0]
    definition = Node.runnable.fget

    def counted(node):
        evaluations[0] += 1
        return definition(node)

    monkeypatch.setattr(Node, "runnable", property(counted))

    def evaluations_per_decision(num_jobs):
        jobs = batched_arrivals(
            sample_tpch_jobs(num_jobs, np.random.default_rng(0), sizes=(2.0, 5.0))
        )
        env = SchedulingEnvironment(SimulatorConfig(num_executors=10, seed=0))
        heuristic = FIFOScheduler()
        evaluations[0] = 0
        observation = env.reset(jobs, seed=0)
        decisions = 0
        done = False
        while not done:
            observation, _, done = env.step(heuristic.schedule(observation))
            decisions += 1
        assert len(env.finished_jobs) == num_jobs
        return evaluations[0] / decisions

    small, large = evaluations_per_decision(40), evaluations_per_decision(160)
    assert large / small < 1.5, (small, large)

"""One episode loop: ``repro.simulator.run_episode`` is what steps the simulator.

Evaluation, training rollouts, remote sessions and trace replay each used to
carry their own copy of the episode loop.  They are now schedulers driven by
the one loop, and the two copies every other one was modelled on — the
scheduler loop of the experiment runner and the rollout loop of
``collect_rollout`` — are kept here as oracles, as
``tests/test_simulator_frontier.py`` keeps the old frontier scan.  Over the
whole scenario registry, with ``max_decisions`` unset, cutting the episode
short, hit exactly and beyond the episode's length, the one loop must produce
the same events, rewards, action count and transitions, one scheduling delay
per decision and exactly one ``act`` call per decision.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DecimaAgent, DecimaConfig
from repro.core.rollout import Trajectory, Transition, collect_rollout
from repro.experiments.scenarios import get_scenario, scenario_names, scenario_workload_rng
from repro.schedulers import make_scheduler
from repro.simulator import SchedulingEnvironment, run_episode
from repro.workloads import batched_arrivals, sample_tpch_jobs

SCENARIOS = scenario_names()


# ------------------------------------------------------------------ the oracles
def parent_run_episode(environment, scheduler, jobs, seed=None, max_steps=None, decision_hook=None):
    """The experiment runner's loop before it moved into the simulator."""
    scheduler.reset()
    observation = environment.reset(jobs, seed=seed)
    steps = 0
    done = False
    while not done:
        action = scheduler.schedule(observation)
        finish_hook = (
            decision_hook(steps, observation, action) if decision_hook is not None else None
        )
        observation, reward, done = environment.step(action)
        if callable(finish_hook):
            finish_hook(reward)
        steps += 1
        if max_steps is not None and steps >= max_steps:
            break
    return environment.result()


def parent_collect_rollout(environment, agent, jobs, rng, seed=None, max_actions=None):
    """``collect_rollout``'s own loop before it drove the one loop."""
    trajectory = Trajectory()
    agent.reset_graph_cache()
    observation = environment.reset(jobs, seed=seed)
    done = False
    while not done:
        action, record = agent.act(observation, rng=rng, greedy=False, record=True)
        wall_time = environment.wall_time
        observation, reward, done = environment.step(action)
        if record is not None:
            trajectory.transitions.append(Transition(record, reward, wall_time))
        if max_actions is not None and trajectory.num_actions >= max_actions:
            break
    trajectory.result = environment.result()
    return trajectory


# ------------------------------------------------------------------- harness
def scenario_episode(name, seed):
    spec = get_scenario(name, num_jobs=4, num_executors=6)
    config = spec.build_config(seed=seed)
    jobs = spec.build_jobs(scenario_workload_rng(name, seed))
    return config, jobs


def build_agent(config):
    multi = len({cls for cls, _ in config.executor_classes or []}) > 1
    return DecimaAgent(config.num_executors, DecimaConfig(seed=0, multi_resource=multi))


def listening(config):
    environment = SchedulingEnvironment(config)
    events = []
    environment.event_listeners.append(lambda kind, time, detail: events.append((kind, time, detail)))
    return environment, events


class CountingAgent:
    """The agent, with its ``act`` calls counted (the benchmark's proxy shape)."""

    def __init__(self, agent):
        self._agent = agent
        self.acts = 0

    def __getattr__(self, name):
        return getattr(self._agent, name)

    def act(self, *args, **kwargs):
        self.acts += 1
        return self._agent.act(*args, **kwargs)


def bound(mode, length, data):
    """``max_decisions`` for ``mode`` against an episode of ``length`` decisions."""
    if mode == "unset":
        return None
    if mode == "exact":
        return length
    if mode == "beyond":
        return length + data.draw(st.integers(1, 5), label="beyond by")
    return data.draw(st.integers(1, max(1, length - 1)), label="cut at")


MODES = st.sampled_from(["unset", "cut", "exact", "beyond"])


# --------------------------------------------------------------------- tests
class TestSchedulerLoop:
    @settings(max_examples=40, deadline=None)
    @given(
        scenario=st.sampled_from(SCENARIOS),
        scheduler=st.sampled_from(["fifo", "weighted_fair", "decima"]),
        seed=st.integers(0, 5),
        mode=MODES,
        data=st.data(),
    )
    def test_matches_the_parent_loop(self, scenario, scheduler, seed, mode, data):
        config, jobs = scenario_episode(scenario, seed)
        full = parent_run_episode(
            SchedulingEnvironment(config), make_scheduler(scheduler, config), jobs, seed=seed
        )
        limit = bound(mode, full.num_actions, data)
        runs = []
        for loop, limit_name in ((parent_run_episode, "max_steps"), (run_episode, "max_decisions")):
            environment, events = listening(config)
            rewards = []
            result = loop(
                environment,
                make_scheduler(scheduler, config),
                jobs,
                seed=seed,
                decision_hook=lambda step, observation, action: rewards.append,
                **{limit_name: limit},
            )
            runs.append((result, events, rewards))
        (expected, expected_events, expected_rewards), (result, events, rewards) = runs
        assert events == expected_events
        assert rewards == expected_rewards
        assert result.num_actions == expected.num_actions == len(rewards)
        assert result.total_reward == expected.total_reward
        assert result.wall_time == expected.wall_time
        assert len(result.scheduling_delays) == result.num_actions
        assert all(delay >= 0.0 for delay in result.scheduling_delays)

    def test_zero_decisions_decides_nothing(self):
        config, jobs = scenario_episode("tpch_batched", 0)
        scheduler = make_scheduler("fifo", config)
        result = run_episode(SchedulingEnvironment(config), scheduler, jobs, max_decisions=0)
        assert result.num_actions == 0 and result.scheduling_delays == []


class TestRolloutLoop:
    @settings(max_examples=30, deadline=None)
    @given(
        scenario=st.sampled_from(SCENARIOS),
        seed=st.integers(0, 5),
        mode=MODES,
        data=st.data(),
    )
    def test_matches_the_parent_loop(self, scenario, seed, mode, data):
        config, jobs = scenario_episode(scenario, seed)
        full = parent_collect_rollout(
            SchedulingEnvironment(config), build_agent(config), jobs,
            rng=np.random.default_rng(seed), seed=seed,
        )
        limit = bound(mode, full.num_actions, data)

        environment, expected_events = listening(config)
        expected = parent_collect_rollout(
            environment, build_agent(config), jobs,
            rng=np.random.default_rng(seed), seed=seed, max_actions=limit,
        )
        environment, events = listening(config)
        agent = CountingAgent(build_agent(config))
        trajectory = collect_rollout(
            environment, agent, jobs, rng=np.random.default_rng(seed), seed=seed,
            max_actions=limit,
        )

        assert events == expected_events
        assert trajectory.num_actions == expected.num_actions
        assert trajectory.result.num_actions == expected.result.num_actions
        assert trajectory.result.total_reward == expected.result.total_reward
        assert agent.acts == trajectory.num_actions == trajectory.result.num_actions
        assert len(trajectory.result.scheduling_delays) == agent.acts
        for ours, theirs in zip(trajectory.transitions, expected.transitions):
            assert ours.reward == theirs.reward
            assert ours.wall_time == theirs.wall_time
            assert ours.record.node_row == theirs.record.node_row
            assert ours.record.limit_row == theirs.record.limit_row
            np.testing.assert_array_equal(ours.record.limits, theirs.record.limits)
            assert ours.record.classes == theirs.record.classes
            assert ours.record.class_row == theirs.record.class_row
            np.testing.assert_array_equal(
                ours.record.graph.node_features, theirs.record.graph.node_features
            )

    def test_one_act_per_decision_on_the_object_given(self):
        config, _ = scenario_episode("tpch_batched", 0)
        jobs = batched_arrivals(sample_tpch_jobs(3, np.random.default_rng(4), sizes=(2.0,)))
        agent = CountingAgent(build_agent(config))
        trajectory = collect_rollout(
            SchedulingEnvironment(config), agent, jobs, rng=np.random.default_rng(0), seed=0
        )
        assert trajectory.result.all_finished
        assert agent.acts == trajectory.num_actions > 0

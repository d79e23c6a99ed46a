"""Ablations are network shapes: an agent owns and runs only what its
configuration reads.

Fig. 14 and Appendix E take out one idea at a time.  Each ablation is a
smaller network, not the full one with zeroed inputs:

* ``two_level_aggregation=False`` owns no ``node_g`` / ``job_g`` /
  ``global_g``, and ``use_parallelism_control=False`` no limit head; every
  weight it keeps is the default agent's, bit for bit;
* ``use_graph_embedding=False`` owns no GNN at all (a spy: no
  :class:`GraphNeuralNetwork` method runs, deciding, replaying or serving)
  and its heads read the raw features and their own inputs only;
* every parameter an agent owns learns: a short replay gives each one a
  gradient (the gradient-coverage property);
* an ablated agent crosses a process boundary and a checkpoint store intact,
  and a state dict of another shape is refused by its count.
"""

import numpy as np
import pytest

from repro.core import DecimaAgent, DecimaConfig
from repro.core.checkpoints import (
    CheckpointStore,
    agent_spec,
    build_agent,
    parameter_fingerprint,
)
from repro.core.features import GraphCache
from repro.core.gnn import GraphNeuralNetwork
from repro.core.parallel import accumulate_episode_gradients
from repro.core.rollout import REPLAY_CHUNK, collect_rollout
from repro.experiments.scenarios import get_scenario, scenario_workload_rng
from repro.service import PolicyClient
from repro.simulator import SchedulingEnvironment

SETTINGS = {
    "default": {},
    "no_graph_embedding": dict(use_graph_embedding=False),
    "one_level_aggregation": dict(two_level_aggregation=False),
    "no_parallelism_control": dict(use_parallelism_control=False),
}
# Scenarios of the coverage property; the second has the executor-class head.
SCENARIOS = ("tpch_batched", "multi_resource_packing")


def episode(scenario: str, **settings):
    """``(environment, agent, jobs)`` of one small seeded scenario episode."""
    spec = get_scenario(scenario, num_jobs=6, num_executors=8)
    config = spec.build_config(0)
    jobs = spec.build_jobs(scenario_workload_rng(scenario, 0))
    multi = len({cls for cls, _ in config.executor_classes or []}) > 1
    agent = DecimaAgent(
        config.num_executors, DecimaConfig(seed=0, multi_resource=multi, **settings)
    )
    return SchedulingEnvironment(config), agent, jobs


def rollout(scenario: str, length: int, **settings):
    environment, agent, jobs = episode(scenario, **settings)
    trajectory = collect_rollout(
        environment, agent, jobs, rng=np.random.default_rng(1), seed=0,
        max_actions=length,
    )
    return agent, trajectory


class TestShapes:
    # (tensors, weights) each setting owns.
    OWNED = {
        "default": (54, 9_354),
        "no_graph_embedding": (12, 1_346),
        "one_level_aggregation": (36, 6_498),
        "no_parallelism_control": (48, 8_233),
    }

    @pytest.mark.parametrize("setting", sorted(SETTINGS))
    def test_owned_parameters(self, setting):
        agent = DecimaAgent(8, DecimaConfig(seed=0, **SETTINGS[setting]))
        assert (len(agent.parameters()), agent.num_parameters()) == self.OWNED[setting]

    def test_without_graph_embedding_the_heads_read_no_embedding(self):
        agent = DecimaAgent(8, DecimaConfig(seed=0, use_graph_embedding=False))
        assert agent.gnn is None
        assert agent.policy.config.embedding_dim == 0
        num_features = agent.config.feature.num_features
        assert agent.policy.node_score.layers[0].in_features == num_features
        assert agent.policy.limit_score.layers[0].in_features == 1

    @pytest.mark.parametrize(
        "setting, dropped",
        [
            ("one_level_aggregation", lambda agent: (agent.gnn.node_g, agent.gnn.job_g,
                                                     agent.gnn.global_g)),
            ("no_parallelism_control", lambda agent: (agent.policy.limit_score,)),
        ],
    )
    def test_kept_weights_are_the_defaults(self, setting, dropped):
        default = DecimaAgent(8, DecimaConfig(seed=0, multi_resource=True))
        ablated = DecimaAgent(
            8, DecimaConfig(seed=0, multi_resource=True, **SETTINGS[setting])
        )
        gone = {id(parameter) for module in dropped(default)
                for parameter in module.parameters()}
        kept = [p.data for p in default.parameters() if id(p) not in gone]
        assert gone and len(kept) == len(ablated.parameters())
        for theirs, ours in zip(kept, ablated.parameters()):
            assert np.array_equal(ours.data, theirs)


class TestGradientCoverage:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize("setting", sorted(SETTINGS))
    def test_every_owned_parameter_learns(self, scenario, setting):
        agent, trajectory = rollout(scenario, REPLAY_CHUNK + 1, **SETTINGS[setting])
        count = trajectory.num_actions
        assert count == REPLAY_CHUNK + 1
        gradients = accumulate_episode_gradients(
            agent, [trajectory], [np.random.default_rng(7).normal(size=count)], 0.01
        )
        parameters = agent.parameters()
        assert len(gradients) == len(parameters)
        assert all(gradient is not None for gradient in gradients)
        scale = max(np.abs(gradient).max() for gradient in gradients)
        # A softmax is unchanged by a constant added to every logit, so a
        # head's output bias gets a zero gradient in exact arithmetic: at
        # most a rounding error here.
        policy = agent.policy
        biases = {
            id(head.layers[-1].bias)
            for head in (policy.node_score, policy.limit_score, policy.class_score)
            if head is not None
        }
        if scenario == "multi_resource_packing":
            assert agent.policy.class_score is not None
        for parameter, gradient in zip(parameters, gradients):
            if id(parameter) in biases:
                assert np.abs(gradient).max() <= 1e-12 * scale
            else:
                assert np.abs(gradient).max() > 0


class TestNoGraphNetworkRuns:
    """Under ``use_graph_embedding=False`` no GNN method runs: not to build
    the agent, decide, replay or serve."""

    @pytest.fixture
    def calls(self, monkeypatch):
        called = []
        for name, value in list(vars(GraphNeuralNetwork).items()):
            if callable(value):
                def spy(*args, _name=name, _method=value, **kwargs):
                    called.append(_name)
                    return _method(*args, **kwargs)

                monkeypatch.setattr(GraphNeuralNetwork, name, spy)
        return called

    def test_the_spy_sees_a_network(self, calls):
        environment, agent, jobs = episode("tpch_batched")
        agent.act(environment.reset(jobs, seed=0))
        assert {"__init__", "forward_data"} <= set(calls)

    def test_decide_and_replay(self, calls):
        environment, agent, jobs = episode(
            "multi_resource_packing", use_graph_embedding=False
        )
        first = environment.reset(jobs, seed=0)
        decided = agent.act_batch(
            [first, first], rngs=[np.random.default_rng(s) for s in (0, 1)],
            graph_caches=[GraphCache(), GraphCache()],
        )
        assert all(action is not None for action, _ in decided)
        trajectory = collect_rollout(
            environment, agent, jobs, rng=np.random.default_rng(1), seed=0,
            max_actions=REPLAY_CHUNK + 1,
        )
        records = [transition.record for transition in trajectory.transitions]
        assert any(record.classes for record in records)
        info = agent.score_actions(records)
        assert info.log_prob.shape == (len(records),)
        assert calls == []

    def test_serve_one_decision(self, calls, server_factory):
        environment, agent, jobs = episode("tpch_batched", use_graph_embedding=False)
        server = server_factory(agent)
        with PolicyClient(*server.address) as client:
            client.hello(num_executors=8, seed=0)
            reply = client.decide(environment.reset(jobs, seed=0))
            assert reply["source"] == "policy"
            stats = client.stats()
        assert stats["broker"]["embedding_reuse"] is None
        assert calls == []


class TestRoundTrip:
    @pytest.mark.parametrize("setting", sorted(SETTINGS))
    def test_spec_and_store_reproduce_the_agent(self, setting, tmp_path):
        agent = DecimaAgent(8, DecimaConfig(seed=3, multi_resource=True, **SETTINGS[setting]))
        fingerprint = parameter_fingerprint(agent)
        rebuilt = build_agent(agent_spec(agent), agent.state_dict())
        assert parameter_fingerprint(rebuilt) == fingerprint
        store = CheckpointStore(tmp_path)
        store.save(agent)
        assert parameter_fingerprint(store.load()) == fingerprint

    @pytest.mark.parametrize("setting", sorted(set(SETTINGS) - {"default"}))
    def test_a_full_network_state_does_not_load(self, setting):
        """What an ablation checkpoint written with every module held."""
        full = DecimaAgent(8, DecimaConfig(seed=0)).state_dict()
        ablated = DecimaAgent(8, DecimaConfig(seed=0, **SETTINGS[setting]))
        owned = len(ablated.parameters())
        with pytest.raises(
            ValueError, match=f"state dict has 54 entries, model has {owned} parameters"
        ):
            ablated.load_state_dict(full)

"""Inference decides on plain arrays: no autograd tape, one selection routine.

Pinned here:

* ``act(greedy=True)``, ``act(record=True)`` and a three-observation
  ``act_batch`` construct no :class:`Tensor` with parents — the node, limit
  and class heads all run on the data path;
* the data twins of the limit and class heads equal the tensor heads bit for
  bit, for one observation and for a merged batch of three;
* every observation of an ``act_batch`` gets the action, and leaves its
  generator in the state, that :func:`repro.verify.oracles.scored_act` —
  the autograd forward with its own selection code — gives it alone
  (hypothesis);
* ``act_batch`` refuses to let one :class:`GraphCache` serve two
  observations, whose feature buffers would overwrite each other;
* :func:`repro.core.agent.sample_row` draws exactly what
  ``Generator.choice(n, p=p)`` draws from the tensor log-softmax's
  probabilities, leaves the generator in the same state, arg-maxes the valid
  entries when greedy and raises on NaN probabilities when sampling.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.autograd import Tensor, masked_log_softmax
from repro.core import (
    DecimaAgent,
    DecimaConfig,
    GraphBatch,
    GraphCache,
    GraphEmbeddings,
    Workspace,
)
from repro.core.agent import sample_row
from repro.experiments.scenarios import get_scenario, scenario_workload_rng
from repro.simulator import SchedulingEnvironment, multi_resource_classes
from repro.verify.oracles import scored_act

SCENARIOS = ("tpch_poisson", "multi_resource_packing")


def scenario_agent(scenario: str, **config) -> DecimaAgent:
    """An agent for the scenario's cluster, multi-resource when it has classes."""
    cluster = get_scenario(scenario, num_jobs=6, num_executors=8).build_config(0)
    multi = len({cls for cls, _ in cluster.executor_classes or []}) > 1
    return DecimaAgent(
        cluster.num_executors, DecimaConfig(seed=0, multi_resource=multi, **config)
    )


def observations(scenario: str, count: int):
    """``count`` first observations of the scenario, one seed each, and an agent."""
    spec = get_scenario(scenario, num_jobs=6, num_executors=8)
    found = [
        SchedulingEnvironment(spec.build_config(seed)).reset(
            spec.build_jobs(scenario_workload_rng(scenario, seed)), seed=seed
        )
        for seed in range(count)
    ]
    return scenario_agent(scenario), found


@pytest.fixture
def taped(monkeypatch):
    """A list that collects every ``Tensor`` constructed with parents."""
    recorded = []
    original = Tensor.__init__

    def counting(self, data, requires_grad=False, _parents=(), _backward=None):
        if _parents:
            recorded.append(self)
        original(self, data, requires_grad, _parents, _backward)

    monkeypatch.setattr(Tensor, "__init__", counting)
    return recorded


class TestNoTape:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_inference_decisions_record_nothing(self, scenario, taped):
        agent, found = observations(scenario, 3)
        actions = [agent.act(found[0], greedy=True)[0]]
        action, record = agent.act(found[0], rng=np.random.default_rng(1), record=True)
        actions.append(action)
        assert record is not None and record.limits is not None
        actions += [
            decided
            for decided, _ in agent.act_batch(
                found,
                rngs=[np.random.default_rng(seed) for seed in range(3)],
                graph_caches=[GraphCache() for _ in found],
            )
        ]
        assert all(action is not None for action in actions)
        if agent.config.multi_resource:  # not vacuous: the class head fired
            assert any(action.executor_class is not None for action in actions)
        assert taped == []

    def test_act_on_graph_refuses_training(self):
        agent, found = observations("tpch_poisson", 1)
        graph = agent.build_features(found[0], graph_cache=GraphCache())
        embeddings = agent.gnn(graph)
        logits = agent.policy.node_logits(graph, embeddings)
        action, _ = agent.act_on_graph(
            graph, embeddings, logits, found[0], greedy=True, training=False
        )
        assert action.node in found[0].schedulable_nodes
        with pytest.raises(ValueError, match="data path only"):
            agent.act_on_graph(graph, embeddings, logits, found[0], training=True)

    def test_the_oracle_still_records(self, taped):
        agent, found = observations("tpch_poisson", 1)
        _, info = scored_act(agent, found[0], np.random.default_rng(1))
        assert info.log_prob._parents and taped


# ------------------------------------------------------- selection vs the oracle
def advanced(scenario: str, seed: int, steps: int, agent: DecimaAgent):
    """The scenario's observation after ``steps`` greedy decisions (fewer if
    the episode ends first), in an environment of its own."""
    spec = get_scenario(scenario, num_jobs=6, num_executors=8)
    environment = SchedulingEnvironment(spec.build_config(seed))
    observation = environment.reset(
        spec.build_jobs(scenario_workload_rng(scenario, seed)), seed=seed
    )
    for _ in range(steps):
        action, _ = agent.act(observation, greedy=True, graph_cache=GraphCache())
        following, _, done = environment.step(action)
        if done or not following.schedulable_nodes:
            break
        observation = following
    return observation


class TestSelectionOracle:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize("limit_value_input", (True, False), ids=("scalar", "one_hot"))
    @settings(max_examples=12, deadline=None)
    @given(
        members=st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 6)), min_size=1, max_size=4
        ),
        greedy=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_act_batch_decides_what_scored_act_decides_alone(
        self, scenario, limit_value_input, members, greedy, seed
    ):
        agent = scenario_agent(scenario, limit_value_input=limit_value_input)
        found = [advanced(scenario, s, steps, agent) for s, steps in members]
        streams = [np.random.default_rng([seed, k]) for k in range(len(found))]
        oracle_streams = copy.deepcopy(streams)
        decisions = agent.act_batch(
            found, rngs=streams, greedy=greedy,
            graph_caches=[GraphCache() for _ in found],
        )
        for observation, (action, _), stream, oracle_stream in zip(
            found, decisions, streams, oracle_streams
        ):
            expected, info = scored_act(agent, observation, oracle_stream, greedy)
            assert info is not None
            assert action.node is expected.node
            assert action.parallelism_limit == expected.parallelism_limit
            assert action.executor_class is expected.executor_class
            if agent.config.multi_resource:  # the class head fired
                assert expected.executor_class is not None
            assert stream.bit_generator.state == oracle_stream.bit_generator.state


# --------------------------------------------------------- one cache per member
class TestGraphCachePerObservation:
    def two_states(self):
        """Two environments on copies of the same jobs, the second three
        greedy decisions further on; both graphs have 49 nodes."""
        spec = get_scenario("tpch_batched", num_jobs=4, num_executors=6)
        jobs = spec.build_jobs(scenario_workload_rng("tpch_batched", 0))
        agent = DecimaAgent(6, DecimaConfig(seed=0))
        first, second = (SchedulingEnvironment(spec.build_config(0)) for _ in range(2))
        a = first.reset(copy.deepcopy(jobs), seed=0)
        b = second.reset(copy.deepcopy(jobs), seed=0)
        for _ in range(3):
            action, _ = agent.act(b, greedy=True, graph_cache=GraphCache())
            b, _, _ = second.step(action)
        sizes = [sum(len(job.nodes) for job in o.job_dags) for o in (a, b)]
        assert sizes == [49, 49]
        return agent, a, b

    def test_a_shared_cache_is_refused(self):
        agent, a, b = self.two_states()
        shared = GraphCache()
        for caches in (None, [None, None], [shared, shared], [None, agent.graph_cache]):
            with pytest.raises(ValueError, match="one graph cache per observation"):
                agent.act_batch([a, b], greedy=True, graph_caches=caches)

    def test_own_caches_decide_what_each_decides_alone(self):
        agent, a, b = self.two_states()
        alone = [
            agent.act(o, greedy=True, graph_cache=GraphCache())[0] for o in (a, b)
        ]
        # One observation may use the agent's own cache.
        for caches in ([GraphCache(), GraphCache()], [None, GraphCache()]):
            decided = agent.act_batch([a, b], greedy=True, graph_caches=caches)
            for (action, _), expected in zip(decided, alone):
                assert action.node is expected.node
                assert action.parallelism_limit == expected.parallelism_limit


class TestDataHeads:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize("batch", (1, 3))
    @pytest.mark.parametrize(
        "variant",
        ({}, {"use_graph_embedding": False}, {"limit_value_input": False}),
        ids=("paper", "no_graph_embedding", "one_hot_limits"),
    )
    def test_data_heads_equal_tensor_heads(self, scenario, batch, variant):
        _, found = observations(scenario, batch)
        agent = DecimaAgent(8, DecimaConfig(seed=0, multi_resource=True, **variant))
        graph = GraphBatch.merge(
            [agent.build_features(obs, graph_cache=GraphCache()) for obs in found]
        ).features
        if agent.gnn is None:
            # Without graph embeddings the heads read zero-width embeddings.
            embeddings = GraphEmbeddings.zero_width(graph)
            assert agent.policy.class_score.layers[0].in_features == 2
        else:
            embeddings = GraphEmbeddings(
                *(Tensor(array.copy()) for array in agent.gnn.forward_data(graph))
            )
        candidates = [agent.candidate_limits(job) for job in graph.jobs]
        limit_rows = np.repeat(np.arange(graph.num_jobs), [len(c) for c in candidates])
        limit_inputs = np.vstack([agent._limit_inputs(c) for c in candidates])
        classes = multi_resource_classes()
        class_rows = np.repeat(np.arange(graph.num_jobs), len(classes))
        class_list = classes * graph.num_jobs
        policy = agent.policy

        limit_tensor = policy.limit_logits_rows(graph, embeddings, limit_rows, limit_inputs)
        limit_data = policy.limit_logits_rows(
            graph, embeddings, limit_rows, limit_inputs, Workspace()
        )
        assert isinstance(limit_data, np.ndarray)
        assert np.array_equal(limit_data, limit_tensor.data)
        class_tensor = policy.class_logits(graph, embeddings, class_rows, class_list)
        class_data = policy.class_logits(
            graph, embeddings, class_rows, class_list, Workspace()
        )
        assert isinstance(class_data, np.ndarray)
        assert np.array_equal(class_data, class_tensor.data)


# ------------------------------------------------------------------ the sampler
def choice_oracle(logits, mask, rng):
    """The draw as the agent made it before: tensor log-softmax, then ``rng.choice``."""
    log_probs = masked_log_softmax(Tensor(logits), mask).data
    masked = np.where(mask, log_probs, -np.inf)
    probs = np.exp(masked - masked.max())
    probs[~mask] = 0.0
    probs = probs / probs.sum()
    return int(rng.choice(len(probs), p=probs))


@st.composite
def masked_logits(draw):
    size = draw(st.integers(1, 64))
    logits = np.array(
        draw(st.lists(st.floats(-1e3, 1e3), min_size=size, max_size=size))
    )
    if draw(st.booleans()):
        mask = np.zeros(size, dtype=bool)
        mask[draw(st.integers(0, size - 1))] = True
    else:
        mask = np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size)))
        mask[draw(st.integers(0, size - 1))] = True
    return logits, mask


class TestSampler:
    @settings(max_examples=300, deadline=None)
    @given(case=masked_logits(), seed=st.integers(0, 2**32 - 1), masked=st.booleans())
    def test_draws_what_choice_draws(self, case, seed, masked):
        logits, mask = case
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = choice_oracle(logits, mask if masked else np.ones_like(mask), theirs)
        assert sample_row(logits, mask if masked else None, ours, greedy=False) == expected
        assert ours.bit_generator.state == theirs.bit_generator.state

    @settings(max_examples=100, deadline=None)
    @given(case=masked_logits())
    def test_greedy_is_argmax_over_valid_entries(self, case):
        # The arg-max is taken over the log-probabilities, as it always was:
        # a valid logit under half an ulp of the normaliser below the maximum
        # ties with it there, and the first of the tied rows wins.
        logits, mask = case
        row = sample_row(logits, mask, None, greedy=True)
        assert mask[row]
        assert logits[mask].max() - logits[row] <= 1e-15

    @pytest.mark.parametrize("mask", (None, np.array([True, True, False])))
    def test_nan_logits_raise_when_sampled(self, mask):
        logits = np.array([0.5, np.nan, 1.0])
        with pytest.raises(ValueError, match="NaN"):
            sample_row(logits, mask, np.random.default_rng(0), greedy=False)

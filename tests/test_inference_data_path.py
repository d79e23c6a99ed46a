"""Inference decides on plain arrays: no autograd tape unless ``training=True``.

Pinned here:

* ``act(greedy=True)``, ``act(record=True)`` and a three-observation
  ``act_batch`` construct no :class:`Tensor` with parents — the node, limit
  and class heads all run on the data path;
* the data twins of the limit and class heads equal the tensor heads bit for
  bit, for one observation and for a merged batch of three;
* :func:`repro.core.agent.sample_row` draws exactly what
  ``Generator.choice(n, p=p)`` draws from the tensor log-softmax's
  probabilities, leaves the generator in the same state, arg-maxes the valid
  entries when greedy and raises on NaN probabilities when sampling.
"""

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

SCENARIOS = ("tpch_poisson", "multi_resource_packing")


def observations(scenario: str, count: int):
    """``count`` first observations of the scenario, one seed each, and an agent."""
    spec = get_scenario(scenario, num_jobs=6, num_executors=8)
    found = [
        SchedulingEnvironment(spec.build_config(seed)).reset(
            spec.build_jobs(scenario_workload_rng(scenario, seed)), seed=seed
        )
        for seed in range(count)
    ]
    config = spec.build_config(0)
    multi = len({cls for cls, _ in config.executor_classes or []}) > 1
    agent = DecimaAgent(config.num_executors, DecimaConfig(seed=0, multi_resource=multi))
    return agent, found


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
                found, rngs=[np.random.default_rng(seed) for seed in range(3)]
            )
        ]
        assert all(action is not None for action in actions)
        if agent.config.multi_resource:  # not vacuous: the class head fired
            assert any(action.executor_class is not None for action in actions)
        assert taped == []

    def test_training_still_records(self, taped):
        agent, found = observations("tpch_poisson", 1)
        _, info = agent.act(found[0], rng=np.random.default_rng(1), training=True)
        assert info.log_prob._parents and taped


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

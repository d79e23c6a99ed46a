"""Differential-runner tests: one harness for every fast/oracle pair.

This module is where the repo's equivalence guarantees live: every fast path
against its oracle in :mod:`repro.verify.oracles`, and a check per oracle that
it really computes another way.
"""

import pytest

from repro.experiments.scenarios import scenario_names
from repro.schedulers import scheduler_names
from repro.verify import (
    IMPLEMENTATION_PAIRS,
    DifferentialTask,
    register_variant,
    resolve_variant,
    run_differential,
    run_pair,
    variant_names,
)

SMALL = dict(num_jobs=3, num_executors=8, max_decisions=40)


class TestRegistry:
    def test_builtin_variants_registered(self):
        names = variant_names()
        for name in ("decima:default", "decima:dense_gnn",
                     "decima:tensor_forward", "decima:full_gnn", "rollout:serial",
                     "rollout:parallel", "service:batched", "service:serial",
                     "service:online"):
            assert name in names
        # Every registered scheduler is reachable as a variant.
        for scheduler in scheduler_names():
            assert f"scheduler:{scheduler}" in names

    def test_at_least_four_pairs_covered(self):
        """Acceptance: the runner covers >= 4 implementation pairs."""
        assert len(IMPLEMENTATION_PAIRS) >= 4

    def test_unknown_variant_rejected(self):
        with pytest.raises(KeyError, match="unknown variant"):
            resolve_variant("nope")
        with pytest.raises(KeyError, match="unknown variant"):
            resolve_variant("scheduler:not_registered")

    def test_unknown_pair_rejected(self):
        with pytest.raises(KeyError, match="unknown implementation pair"):
            run_pair("nope", DifferentialTask(scenario="tpch_batched"))

    def test_register_duplicate_variant_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_variant("decima:default", lambda task: None)


class TestImplementationPairs:
    """The four load-bearing fast/oracle equivalences, through one harness."""

    @pytest.mark.parametrize("pair", sorted(IMPLEMENTATION_PAIRS))
    def test_pair_is_equivalent_on_batched_tpch(self, pair):
        report = run_pair(pair, DifferentialTask(scenario="tpch_batched", seed=0, **SMALL))
        assert report.ok, report.describe()
        assert min(report.num_decisions) > 5

    @pytest.mark.parametrize("pair", ["sparse_vs_dense_gnn", "cached_vs_scratch_features"])
    def test_gnn_pairs_hold_under_continuous_arrivals(self, pair):
        """Ported from test_sparse_gnn_equivalence: arrivals/completions churn
        the GraphCache mid-episode and the streams must stay identical."""
        report = run_pair(pair, DifferentialTask(scenario="tpch_poisson", seed=3, **SMALL))
        assert report.ok, report.describe()

    def test_gnn_pair_holds_on_multi_resource_cluster(self):
        report = run_pair(
            "sparse_vs_dense_gnn",
            DifferentialTask(scenario="hetero_executors", seed=1, **SMALL),
        )
        assert report.ok, report.describe()
        classes = [d.executor_class for d in report.traces[0].decisions
                   if d.executor_class is not None]
        assert classes  # the class head actually ran

    def test_service_pair_with_more_sessions(self):
        """Ported from test_service: batch composition must not change any
        session's stream."""
        task = DifferentialTask(scenario="tpch_poisson", seed=0, num_sessions=5, **SMALL)
        report = run_pair("batched_vs_serial_service", task)
        assert report.ok, report.describe()
        sessions = {d.session for d in report.traces[0].decisions}
        assert len(sessions) == 5

    @pytest.mark.parametrize("scenario", sorted(scenario_names()))
    def test_sharded_dispatch_matches_serial_on_every_scenario(self, scenario):
        """Acceptance (issue 6): router→shard dispatch is bit-identical to
        single-server serial dispatch on all registry scenarios at fixed
        seeds — sharding only partitions *which broker* answers a session,
        never the answers themselves."""
        task = DifferentialTask(scenario=scenario, seed=11, num_sessions=5, **SMALL)
        report = run_pair("sharded_vs_serial_service", task)
        assert report.ok, report.describe()
        assert min(report.num_decisions) > 5

    @pytest.mark.parametrize("scenario", sorted(scenario_names()))
    def test_data_path_matches_training_forward_on_every_scenario(self, scenario):
        """The arena-buffered inference data path produces the exact same
        decision stream as the forward REINFORCE trains on
        (``repro.verify.oracles.scored_act``: autograd ops, fresh arrays, its
        own selection) on all registry scenarios — the data path may only
        change speed, never behaviour."""
        task = DifferentialTask(scenario=scenario, seed=7, **SMALL)
        report = run_pair("inference_kernels_vs_tensor", task)
        assert report.ok, report.describe()
        assert min(report.num_decisions) > 5

    def test_dense_oracles_never_run_frontier_propagation(self, monkeypatch):
        """``decima:dense_gnn`` and ``decima:reference`` propagate through
        the dense network only; ``decima:default`` never does."""
        from repro.core.gnn import GraphNeuralNetwork
        from repro.verify.oracles import DenseGraphNeuralNetwork

        def forbidden(self, graph):
            raise AssertionError("frontier propagation entered")

        dense_calls = []
        dense = DenseGraphNeuralNetwork.node_embeddings

        def counted(self, graph):
            dense_calls.append(graph.num_nodes)
            return dense(self, graph)

        monkeypatch.setattr(GraphNeuralNetwork, "node_embeddings", forbidden)
        monkeypatch.setattr(GraphNeuralNetwork, "forward_data", forbidden)
        monkeypatch.setattr(DenseGraphNeuralNetwork, "node_embeddings", counted)
        task = DifferentialTask(scenario="tpch_batched", seed=7, **SMALL)
        for oracle in ("decima:dense_gnn", "decima:reference"):
            del dense_calls[:]
            decisions = len(resolve_variant(oracle)(task).decisions)
            assert decisions > 5
            assert len(dense_calls) == decisions
        with pytest.raises(AssertionError, match="frontier propagation entered"):
            resolve_variant("decima:default")(task)

    def test_scratch_oracles_never_ask_a_graph_cache(self, monkeypatch):
        from repro.core.features import GraphCache

        def forbidden(self, *args, **kwargs):
            raise AssertionError("graph cache asked")

        monkeypatch.setattr(GraphCache, "features", forbidden)
        task = DifferentialTask(scenario="tpch_poisson", seed=3, **SMALL)
        for oracle in ("decima:scratch_features", "decima:reference"):
            assert len(resolve_variant(oracle)(task).decisions) > 5
        with pytest.raises(AssertionError, match="graph cache asked"):
            resolve_variant("decima:default")(task)

    def test_serial_service_oracle_decides_one_session_per_forward(self, monkeypatch):
        """``service:serial`` never merges sessions; ``service:batched``
        does, so the pair is not one dispatch compared with itself."""
        from repro.core.agent import DecimaAgent

        batch_sizes = []
        act_batch = DecimaAgent.act_batch

        def counted(self, observations, *args, **kwargs):
            batch_sizes.append(len(observations))
            return act_batch(self, observations, *args, **kwargs)

        monkeypatch.setattr(DecimaAgent, "act_batch", counted)
        task = DifferentialTask(scenario="tpch_batched", seed=0, num_sessions=3, **SMALL)
        resolve_variant("service:serial")(task)
        assert batch_sizes and set(batch_sizes) == {1}
        del batch_sizes[:]
        resolve_variant("service:batched")(task)
        assert max(batch_sizes) == 3

    @pytest.mark.parametrize(
        "product", ("repro.core.gnn.GraphNeuralNetwork.forward_data",
                    "repro.core.agent.DecimaAgent._select"),
        ids=("forward", "selection"),
    )
    def test_the_pair_compares_two_different_implementations(self, monkeypatch, product):
        """``decima:tensor_forward`` never enters the data-path forward nor
        the product's stage/limit/class selection, and ``decima:default``
        always does — the pair is not one implementation compared with
        itself."""

        def forbidden(*args, **kwargs):
            raise AssertionError("product path entered")

        monkeypatch.setattr(product, forbidden)
        task = DifferentialTask(scenario="multi_resource_packing", seed=7, **SMALL)
        assert len(resolve_variant("decima:tensor_forward")(task).decisions) > 5
        with pytest.raises(AssertionError, match="product path entered"):
            resolve_variant("decima:default")(task)

    @pytest.mark.parametrize("scenario", sorted(scenario_names()))
    def test_embedding_reuse_matches_full_forward_on_every_scenario(
        self, scenario, level_cuts
    ):
        """Issue 21: ``forward_data`` re-embedding only the jobs whose feature
        rows changed decides what the same path decides when it forgets
        everything before each decision.  Differential tasks are small, so
        the node-count constant is patched to 0 (at the shipped value — the
        all-pairs test above — they never leave the all-stale path), and the
        task has enough jobs on few enough executors for one job to be under
        half the rows and the free-executor count to hold still."""
        task = DifferentialTask(
            scenario=scenario, seed=7, num_jobs=8, num_executors=3, max_decisions=150
        )
        report = run_pair("incremental_vs_full_gnn", task)
        assert report.ok, report.describe()
        assert min(report.num_decisions) > 5
        assert level_cuts  # the partly stale path ran

    def test_the_reuse_pair_compares_two_different_forwards(self, level_cuts):
        """``decima:full_gnn`` never runs a partly stale forward; on the same
        task ``decima:default`` does."""
        task = DifferentialTask(
            scenario="tpch_batched", seed=7, num_jobs=8, num_executors=3, max_decisions=60
        )
        assert len(resolve_variant("decima:full_gnn")(task).decisions) > 5
        assert not level_cuts
        resolve_variant("decima:default")(task)
        assert level_cuts

    @pytest.mark.parametrize("scenario", sorted(scenario_names()))
    def test_online_lr0_matches_frozen_on_every_scenario(self, scenario):
        """Acceptance (issue 8): serving with the full online-learning loop
        running at lr=0 — experience collection, background REINFORCE
        updates, checkpoint saves and broker hot-swaps all live — produces
        the exact same decision stream as frozen serving on all registry
        scenarios.  The learning machinery may only change weights through
        a nonzero learning rate, never through its own plumbing."""
        task = DifferentialTask(scenario=scenario, seed=11, num_sessions=5, **SMALL)
        report = run_pair("frozen_vs_online", task)
        assert report.ok, report.describe()
        assert min(report.num_decisions) > 5
        # The pair only proves something if the online side actually
        # trained and hot-swapped mid-stream.
        assert report.traces[1].summary["num_updates_applied"] >= 1
        assert report.traces[1].summary["policy_version"] > 1

    def test_sharded_variant_actually_spreads_sessions(self):
        """With 5 sessions over 2 shards, both shards must answer traffic
        (otherwise the sharded variant degenerates into the batched one)."""
        from repro.service import shard_for_session

        shards = {shard_for_session(f"s{i}", 2) for i in range(5)}
        assert shards == {0, 1}

    def test_rollout_pair_reward_streams_match(self):
        report = run_pair(
            "serial_vs_parallel_rollout",
            DifferentialTask(scenario="tpch_batched", seed=2, **SMALL),
        )
        assert report.ok, report.describe()
        rewards = [d.reward for d in report.traces[0].decisions]
        assert any(r != 0.0 for r in rewards)


class TestSchedulerDeterminism:
    @pytest.mark.parametrize("scheduler", ["fifo", "sjf_cp", "weighted_fair", "decima"])
    def test_any_registered_scheduler_is_self_consistent(self, scheduler):
        """Any registered scheduler run twice on the same task produces the
        same stream (the record/replay determinism contract)."""
        task = DifferentialTask(scenario="tpch_batched", seed=0, **SMALL)
        variant = f"scheduler:{scheduler}"
        report = run_differential(variant, variant, task)
        assert report.ok, report.describe()
        assert report.traces[0].digest == report.traces[1].digest


class TestInjectedMismatch:
    def test_divergent_schedulers_report_first_divergence_with_context(self):
        """Acceptance: an injected mismatch reports step index and
        observation fingerprint."""
        task = DifferentialTask(scenario="tpch_batched", seed=0, **SMALL)
        report = run_differential("scheduler:fifo", "scheduler:sjf_cp", task)
        assert not report.ok
        divergence = report.divergence
        assert divergence.kind == "decision"
        assert divergence.step >= 0
        assert divergence.expected_fingerprint and divergence.actual_fingerprint
        assert divergence.expected is not None and divergence.actual is not None
        text = report.describe()
        assert "DIVERGED" in text and "fingerprint" in text

    def test_ablated_agent_diverges_from_default(self):
        """A *real* behaviour change (no parallelism control) is caught, not
        just scheduler swaps."""
        from repro.verify.differential import _build_decima, _record

        def ablated(task):
            spec = task.resolve_spec()
            config = spec.build_config(seed=task.seed)
            agent = _build_decima(config)
            agent.config.use_parallelism_control = False
            return _record(task, agent, "decima:ablated")

        task = DifferentialTask(scenario="tpch_batched", seed=0, **SMALL)
        report = run_differential("decima:default", ablated, task)
        assert not report.ok
        assert report.divergence.field in ("limit", "job", "node", "wall_time",
                                           "reward", "obs_fingerprint")

"""Integration tests for telemetry threaded through the serving stack.

What the observability layer guarantees *in situ* (issue 9):

* **metrics scrape** — one data-plane ``metrics`` request returns every core
  series (decision counts, policy version, feature-refresh mix, per-stage
  timings, the decision-latency histogram) as JSON and as Prometheus text,
  on the data plane, and the fleet control plane merges router + per-shard
  registries with ``shard="N"`` labels;
* **trace propagation** — a single traced decision reconstructs end-to-end
  from one trace id: ``client.decide → server.decide → broker.decide →
  stage.*`` against a single server, plus the ``router.forward`` hop (with
  correct parentage across three processes) against a 2-shard fleet;
* **flight recorder** — an injected shard kill auto-dumps the router's ring
  (reason ``shard_death``) and an SLO-guard rollback auto-dumps the server's
  (reason ``slo_guard_rollback``), both as JSON artifacts on disk;
* **schema unification** — the session stats carry one latency histogram,
  ``latency_ms``, in the unit every other layer reports.
"""

import json

import pytest

from test_online_learning import make_clusters, run_rounds

from repro.core import CheckpointStore, DecimaAgent, DecimaConfig, FeatureConfig
from repro.learning import OnlineLearningConfig, OnlineLearningManager
from repro.obs import sample_value
from repro.service import (
    ControlClient,
    PolicyClient,
    PolicyServer,
    ServingConfig,
    ServingFleet,
    drive_episode,
)
from repro.simulator import SchedulingEnvironment, SimulatorConfig
from repro.workloads import batched_arrivals, sample_tpch_jobs

import numpy as np


def tiny_agent(seed=0):
    return DecimaAgent(
        total_executors=6,
        config=DecimaConfig(
            seed=seed, hidden_sizes=(16, 8), embedding_dim=4,
            feature=FeatureConfig(),
        ),
    )


def tiny_jobs(seed: int):
    rng = np.random.default_rng(seed)
    return batched_arrivals(sample_tpch_jobs(2, rng, sizes=(2.0,)))


def serve_episode(address, seed=0, trace_every=None, max_decisions=None):
    env = SchedulingEnvironment(SimulatorConfig(num_executors=6, seed=seed))
    with PolicyClient(*address) as client:
        client.hello(num_executors=6, seed=seed)
        summary = drive_episode(
            client, env, tiny_jobs(seed), seed=seed,
            max_decisions=max_decisions, trace_every=trace_every,
        )
    return summary


# ------------------------------------------------------------ metrics scrape
class TestMetricsEndpoint:
    def test_json_scrape_carries_core_series(self, server_factory):
        server = server_factory(tiny_agent())
        summary = serve_episode(server.address, seed=0)
        with PolicyClient(*server.address) as client:
            client.hello(num_executors=6)
            reply = client.metrics()
        assert reply["format"] == "json"
        snapshot = reply["metrics"]
        assert sample_value(snapshot, "decisions_total") == summary["decisions"]
        assert sample_value(snapshot, "policy_version") == 1
        assert sample_value(snapshot, "fallback_decisions_total") == 0
        # Feature-refresh mix and stage timings made it out of the hot path.
        assert sample_value(snapshot, "graph_delta_refreshes_total") > 0
        # The embedding-reuse pair: these graphs are far under
        # REUSE_MIN_NODES, so every row seen was recomputed.
        rows_seen = sample_value(snapshot, "gnn_rows_seen_total")
        assert rows_seen > 0
        assert sample_value(snapshot, "gnn_rows_recomputed_total") == rows_seen
        for stage in ("features", "propagation", "policy", "sampling"):
            assert sample_value(
                snapshot, "stage_mean_ms", {"stage": stage}
            ) is not None
        # The latency histogram observed every decision.
        (latency,) = snapshot["decision_latency_ms"]["samples"]
        assert latency["count"] == summary["decisions"]

    def test_prometheus_scrape_is_text_exposition(self, server_factory):
        server = server_factory(tiny_agent())
        serve_episode(server.address, seed=0, max_decisions=5)
        with PolicyClient(*server.address) as client:
            client.hello(num_executors=6)
            reply = client.metrics(format="prometheus")
        body = reply["body"]
        assert "# TYPE decima_decisions_total counter" in body
        assert "decima_decisions_total 5.0" in body
        assert 'decima_stage_mean_ms{stage="features"}' in body
        assert 'decima_decision_latency_ms_bucket{le="+Inf"} 5' in body

    def test_scrape_does_not_change_decisions(self, server_factory):
        """Telemetry is read-only: scraping mid-session leaves the decision
        stream identical to an unscraped run (the golden-trace guarantee,
        socket edition)."""
        baseline_server = server_factory(tiny_agent())
        baseline = serve_episode(baseline_server.address, seed=3)
        server = server_factory(tiny_agent())
        env = SchedulingEnvironment(SimulatorConfig(num_executors=6, seed=3))
        with PolicyClient(*server.address) as client:
            client.hello(num_executors=6, seed=3)
            client.metrics()
            client.metrics(format="prometheus")
            summary = drive_episode(client, env, tiny_jobs(3), seed=3)
            client.metrics()
        assert summary["decisions"] == baseline["decisions"]
        assert summary["sources"] == baseline["sources"]

    def test_session_stats_carry_canonical_latency_ms(self, server_factory):
        server = server_factory(tiny_agent())
        with PolicyClient(*server.address) as client:
            client.hello(num_executors=6, seed=0)
            env = SchedulingEnvironment(SimulatorConfig(num_executors=6, seed=0))
            drive_episode(client, env, tiny_jobs(0), seed=0, max_decisions=4)
            stats = client.stats()
        session = stats["session"]
        assert session["latency_ms"]["count"] == 4
        assert session["latency_ms"]["p50"] > 0.0
        assert "latency" not in session  # one key, one unit: milliseconds


# ---------------------------------------------------------- trace propagation
class TestTracePropagation:
    def test_single_server_chain(self, server_factory):
        server = server_factory(tiny_agent())
        env = SchedulingEnvironment(SimulatorConfig(num_executors=6, seed=0))
        with PolicyClient(*server.address) as client:
            client.hello(num_executors=6, seed=0)
            observation = env.reset(tiny_jobs(0), seed=0)
            reply = client.decide(observation, trace=True)
            assert "trace_id" in reply
            trace = client.trace(reply["trace_id"])
        spans = {span["name"]: span for span in trace["spans"]}
        assert set(spans) == {
            "client.decide", "server.decide", "broker.decide",
            "stage.features", "stage.propagation", "stage.policy",
            "stage.sampling",
        }
        # Parentage: client -> server -> broker -> stages.
        assert spans["client.decide"]["parent_id"] is None
        assert spans["server.decide"]["parent_id"] == spans["client.decide"]["span_id"]
        assert spans["broker.decide"]["parent_id"] == spans["server.decide"]["span_id"]
        for stage in ("features", "propagation", "policy", "sampling"):
            assert spans[f"stage.{stage}"]["parent_id"] == spans["broker.decide"]["span_id"]
        # Every span finished with a measured duration and the right service.
        for span in trace["spans"]:
            assert span["duration_ms"] >= 0.0
        assert spans["client.decide"]["service"] == "client"
        assert spans["broker.decide"]["tags"]["source"] == "policy"

    def test_untraced_decides_store_nothing(self, server_factory):
        server = server_factory(tiny_agent())
        serve_episode(server.address, seed=0, max_decisions=3)
        with PolicyClient(*server.address) as client:
            client.hello(num_executors=6)
            snapshot = client.metrics()["metrics"]
        assert sample_value(snapshot, "trace_spans_total") == 0

    def test_two_shard_fleet_chain(self, tmp_path):
        """The acceptance criterion: one loadgen decision against a 2-shard
        fleet reconstructs end-to-end (client → router → shard → broker →
        stages) from a single control-plane query of its trace id."""
        with ServingFleet(tiny_agent(), ServingConfig(num_shards=2)) as fleet:
            summary = serve_episode(
                fleet.address, seed=0, trace_every=2, max_decisions=4
            )
            assert len(summary["trace_ids"]) == 2
            with ControlClient(*fleet.control_address) as control:
                trace = control.trace(summary["trace_ids"][0])
        spans = {span["name"]: span for span in trace["spans"]}
        assert set(spans) == {
            "client.decide", "router.forward", "server.decide",
            "broker.decide", "stage.features", "stage.propagation",
            "stage.policy", "stage.sampling",
        }
        # The chain crosses three processes; parent ids must still line up.
        assert spans["client.decide"]["parent_id"] is None
        assert spans["router.forward"]["parent_id"] == spans["client.decide"]["span_id"]
        assert spans["server.decide"]["parent_id"] == spans["router.forward"]["span_id"]
        assert spans["broker.decide"]["parent_id"] == spans["server.decide"]["span_id"]
        assert spans["stage.policy"]["parent_id"] == spans["broker.decide"]["span_id"]
        assert spans["router.forward"]["service"] == "router"
        assert spans["server.decide"]["service"].startswith("shard-")
        # Spans come back merged and sorted by start time.
        starts = [span["start_time"] for span in trace["spans"]]
        assert starts == sorted(starts)

    def test_fleet_control_plane_metrics_merge_shards(self):
        with ServingFleet(tiny_agent(), ServingConfig(num_shards=2)) as fleet:
            serve_episode(fleet.address, seed=1, max_decisions=4)
            with ControlClient(*fleet.control_address) as control:
                merged = control.metrics()
                prometheus = control.metrics(format="prometheus")
        assert {shard["index"] for shard in merged["shards"]} == {0, 1}
        total = sum(
            sample_value(shard["metrics"], "decisions_total")
            for shard in merged["shards"]
        )
        assert total == 4
        assert sample_value(merged["router"], "router_healthy_shards") == 2
        body = prometheus["body"]
        assert 'decima_decisions_total{shard="0"}' in body
        assert 'decima_decisions_total{shard="1"}' in body
        assert 'decima_router_healthy_shards{service="router"} 2.0' in body


# -------------------------------------------------------------- flight dumps
class TestFlightRecorderDumps:
    def test_shard_kill_dumps_router_ring(self, tmp_path):
        flight_dir = tmp_path / "flight"
        with ServingFleet(
            tiny_agent(), ServingConfig(num_shards=2, flight_dir=str(flight_dir))
        ) as fleet:
            env = SchedulingEnvironment(SimulatorConfig(num_executors=6, seed=0))
            with PolicyClient(*fleet.address) as client:
                client.hello(num_executors=6, seed=0)
                observation = env.reset(tiny_jobs(0), seed=0)
                client.decide(observation)
                victim_shard = None
                with ControlClient(*fleet.control_address) as control:
                    for shard in control.health()["shards"]:
                        if shard["active_sessions"]:
                            victim_shard = shard["index"]
                fleet.kill_shard(victim_shard)
                # The next decide detects the death and must auto-dump.
                with pytest.raises(Exception):
                    client.decide(observation)
            dumps = sorted(flight_dir.glob("flight-router-*.json"))
            assert dumps, "shard death did not dump the router flight ring"
            payload = json.loads(dumps[0].read_text())
            assert payload["reason"] == "shard_death"
            kinds = [event["kind"] for event in payload["events"]]
            assert "shard_failed" in kinds
            # The on-demand control-plane dump still works afterwards.
            with ControlClient(*fleet.control_address) as control:
                on_demand = control.flight(reason="post_mortem")
            assert on_demand["router"]["reason"] == "post_mortem"
            live = [s for s in on_demand["shards"] if s["recorder"] is not None]
            assert len(live) == 1  # the surviving shard answered

    def test_slo_guard_rollback_dumps_server_ring(self, tmp_path):
        flight_dir = tmp_path / "flight"
        server = PolicyServer(
            tiny_agent(seed=0),
            ServingConfig(slo_ms=10_000.0, flight_dir=str(flight_dir)),
        )
        manager = OnlineLearningManager(
            server,
            CheckpointStore(tmp_path / "store"),
            OnlineLearningConfig(
                episodes_per_update=4,
                segment_steps=4,
                guard_min_decisions=4,
                trainer_process=False,
                learning_rate=0.05,
            ),
        )
        clusters = make_clusters(3)
        with manager:
            run_rounds(server.broker, clusters, max_rounds=10)
            status = manager.maybe_update()
            assert status["action"] == "update"
            # The fresh version "regresses": a breaker open during probation.
            run_rounds(server.broker, clusters, max_rounds=1)
            server.broker.breaker.num_opens += 1
            run_rounds(server.broker, clusters, max_rounds=2)
            status = manager.maybe_update()
            assert status["action"] == "rollback"
        dumps = sorted(flight_dir.glob("flight-server-*.json"))
        assert dumps, "rollback did not dump the server flight ring"
        payload = json.loads(dumps[-1].read_text())
        assert payload["reason"] == "slo_guard_rollback"
        kinds = [event["kind"] for event in payload["events"]]
        assert "policy_rollback" in kinds
        assert "checkpoint_installed" in kinds
        # The learning collector surfaced the rollback on the server registry.
        snapshot = server.metrics.snapshot()
        assert sample_value(snapshot, "learning_rollbacks_total") == 1
        assert sample_value(snapshot, "learning_updates_total") == 1

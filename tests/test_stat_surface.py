"""One stat surface: the ``STATS`` tables, their two renderings and the docs.

* **catalog** — the series docs/OBSERVABILITY.md's "Metric catalog" names
  (server/shard, router and learning tables) are exactly the series, with the
  same types, that a ``PolicyServer`` with an SLO, a ``ShardRouter`` and a
  server with an ``OnlineLearningManager`` attached expose;
* **stats frame** — every key the tree reads out of a ``stats`` reply
  (``bench/fleet.py``, the learning manager's guard, the CI smoke, the
  examples) is there and means what it says, and the shard pipe, the data
  plane and the router's relay hand out one payload;
* **hot path** — decisions bump plain attributes; no registry read runs until
  a snapshot or a ``stats`` request asks;
* **session churn** — the broker's graph-cache totals are the sum of every
  served session's own counters, and the broker keeps nothing per session.
"""

import gc
import re
import weakref
from collections import deque
from pathlib import Path

import pytest

from _helpers import make_tpch_env
from test_online_learning import make_clusters, run_rounds, tiny_agent

from repro.core import CheckpointStore
from repro.learning import OnlineLearningConfig, OnlineLearningManager
from repro.obs import registry as registry_module
from repro.service import (
    ControlClient,
    DecisionRequest,
    PolicyClient,
    PolicyServer,
    ServingConfig,
    SessionState,
    ShardRouter,
    encode_observation,
    run_load,
)
from repro.service.batcher import RequestBroker

CATALOG = Path(__file__).resolve().parent.parent / "docs" / "OBSERVABILITY.md"


# ------------------------------------------------------------------- catalog
def documented_series(text):
    """The catalog's tables, in order, as ``{series: type}`` dicts.

    A row is ``| `a` / `b{label=}` | counter / gauge | meaning |``: names are
    the backticked words of the first cell, and one type stands for every
    name of its row.
    """
    section = text.split("### Metric catalog", 1)[1].split("\n## ", 1)[0]
    tables, current = [], None
    for line in section.splitlines():
        if not line.startswith("|"):
            current = None
            continue
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        names = [name.split("{")[0] for name in re.findall(r"`([^`]+)`", cells[0])]
        if not names:
            continue  # header and separator rows
        if current is None:
            current = {}
            tables.append(current)
        kinds = [kind.strip() for kind in cells[1].split("/")]
        if len(kinds) == 1:
            kinds *= len(names)
        assert len(kinds) == len(names), line
        current.update(zip(names, kinds))
    return tables


def live_series(registry):
    return {name: family["type"] for name, family in registry.snapshot().items()}


def catalog_mismatches(documented, live):
    return sorted(
        [f"documented, not exposed: {name}" for name in documented.keys() - live.keys()]
        + [f"exposed, not documented: {name}" for name in live.keys() - documented.keys()]
        + [
            f"{name}: documented {documented[name]}, exposed {live[name]}"
            for name in documented.keys() & live.keys()
            if documented[name] != live[name]
        ]
    )


@pytest.fixture
def learning_server(tmp_path):
    server = PolicyServer(tiny_agent())
    manager = OnlineLearningManager(
        server,
        CheckpointStore(str(tmp_path / "store")),
        OnlineLearningConfig(trainer_process=False),
    )
    yield server
    manager.stop()


class TestCatalog:
    def test_docs_and_registries_name_the_same_series(self, learning_server):
        server_table, router_table, learning_table = documented_series(
            CATALOG.read_text()
        )
        server = PolicyServer(tiny_agent(), ServingConfig(slo_ms=25.0))
        assert catalog_mismatches(server_table, live_series(server.metrics)) == []
        router = ShardRouter([("127.0.0.1", 1)])
        assert catalog_mismatches(router_table, live_series(router.metrics)) == []
        # Without an SLO there is no breaker, with a manager there is learning.
        expected = {
            name: kind
            for name, kind in {**server_table, **learning_table}.items()
            if not name.startswith("breaker_")
        }
        assert catalog_mismatches(expected, live_series(learning_server.metrics)) == []

    def test_a_dropped_or_mistyped_row_is_caught(self):
        text = CATALOG.read_text()
        live, _, _ = documented_series(text)
        row = "| `merged_structure_rebuilds_total` | counter | mega-graph merge-cache rebuilds |\n"
        assert row in text
        dropped, _, _ = documented_series(text.replace(row, ""))
        assert catalog_mismatches(dropped, live) == [
            "exposed, not documented: merged_structure_rebuilds_total"
        ]
        assert catalog_mismatches(live, dropped) == [
            "documented, not exposed: merged_structure_rebuilds_total"
        ]
        mistyped, _, _ = documented_series(
            text.replace(row, row.replace("| counter |", "| gauge |"))
        )
        assert catalog_mismatches(mistyped, live) == [
            "merged_structure_rebuilds_total: documented gauge, exposed counter"
        ]
        # The parser sees the label form and the mixed-type rows.
        assert live["stage_mean_ms"] == "gauge" and live["stage_steps_total"] == "counter"
        assert live["decision_latency_ms"] == "histogram"


# --------------------------------------------------------------- stats frame
LEARNING_KEYS = {
    "policy_version", "current_checkpoint_version", "previous_checkpoint_version",
    "last_good_checkpoint_version", "num_updates_applied", "num_rollbacks",
    "guard_armed", "num_update_failures", "buffer",
}
BUFFER_KEYS = {
    "num_episodes", "num_pending_steps", "num_steps_added", "num_episodes_cut",
    "segment_steps", "max_episodes",
}


class TestStatsFrame:
    def test_every_key_the_tree_reads_is_there_and_means_what_it_says(
        self, server_factory, tmp_path
    ):
        fleet = server_factory(
            tiny_agent(), num_shards=2, slo_ms=60_000.0, max_sessions=4,
        )
        manager = OnlineLearningManager(
            fleet,
            CheckpointStore(str(tmp_path / "store")),
            OnlineLearningConfig(trainer_process=False, episodes_per_update=10_000),
        )
        with manager, ControlClient(*fleet.control_address) as control:
            summary = run_load(
                *fleet.address, num_sessions=4, num_jobs=2, num_executors=6,
                min_total_decisions=40, seed=0,
            )
            manager.maybe_update()  # pumps the shards' experience
            with PolicyClient(*fleet.address) as parked:
                parked.hello(num_executors=6)
                stats = control.stats()
                own = parked.stats()
            piped = fleet.shard_stats()

        router = stats["router"]
        assert router["routed_sessions"] >= 5
        assert router["rejected_sessions"] == 0
        assert router["forwarded_frames"] >= summary["decisions"]
        assert router["active_sessions"] == 1  # only ``parked`` is connected
        assert router["max_sessions"] == 4

        shards = stats["shards"]
        assert [shard["ok"] for shard in shards] == [True, True]
        assert sum(shard["num_sessions"] for shard in shards) == 1
        brokers = [shard["broker"] for shard in shards]
        assert sum(b["num_decisions"] for b in brokers) == summary["decisions"]
        assert sum(b["num_batches"] for b in brokers) > 0
        for shard, broker in zip(shards, brokers):
            # A batch answers at least one request, noop answers included.
            assert (broker["num_batches"] > 0) == (broker["num_decisions"] > 0)
            assert broker["num_slo_breaches"] == 0
            assert (broker["policy_version"], broker["num_policy_swaps"]) == (1, 0)
            assert broker["latency_ms"]["count"] == broker["num_decisions"]
            assert broker["breaker"]["num_opens"] == 0
            window = shard["batch_window"]
            assert window["min_ms"] <= window["window_ms"] <= window["max_ms"]

        learning = stats["learning"]
        assert set(learning) == LEARNING_KEYS
        assert set(learning["buffer"]) == BUFFER_KEYS
        assert learning["policy_version"] == 1 and learning["num_updates_applied"] == 0
        # The router relays what the manager last published (at start-up and
        # at every install); the manager's own rendering is live.
        live = manager.learning_info()
        assert set(live) == LEARNING_KEYS and set(live["buffer"]) == BUFFER_KEYS
        assert live["buffer"]["num_steps_added"] == summary["decisions"]
        assert {**live, "buffer": None} == {**learning, "buffer": None}

        # One reply shape per shard: the pipe, the data plane and the relay.
        for entry, shard in zip(piped, shards):
            assert set(entry) == {"type", "broker", "batch_window", "num_sessions"}
            assert set(own) == set(entry) | {"session"}
            assert set(entry["broker"]) == set(shard["broker"]) == set(own["broker"])
            assert entry["broker"]["num_decisions"] == shard["broker"]["num_decisions"]

    def test_sections_are_keyed_by_the_attributes_they_read(self):
        server = PolicyServer(tiny_agent(), ServingConfig(slo_ms=25.0))
        broker = server.broker
        run_rounds(broker, make_clusters(2), max_rounds=3)
        section = server.stats_payload(None)["broker"]
        for key in (
            "num_decisions", "num_batches", "max_batch_size", "num_policy_swaps",
            "graph_delta_refreshes", "graph_full_refreshes", "graph_rebuilds",
        ):
            assert section[key] == getattr(broker, key)
        assert section["num_decisions"] > 0
        assert section["stage_timing"]["num_steps"] == server.agent.stage_timings.num_steps
        assert set(section["stage_timing"]["mean_ms"]) == set(
            server.agent.stage_timings.STAGES
        )
        assert section["embedding_reuse"] == {
            "rows_seen": server.agent.gnn.rows_seen,
            "rows_recomputed": server.agent.gnn.rows_recomputed,
        }
        assert section["merge_cache"] == {"num_rebuilds": broker.merge_cache.num_rebuilds}
        assert section["breaker"]["state"] == "closed"
        assert section["breaker"]["is_open"] is False
        assert PolicyServer(tiny_agent()).stats_payload(None)["broker"]["breaker"] is None


# ------------------------------------------------------------------ hot path
class TestHotPathReadsNothing:
    def test_no_series_is_read_until_someone_asks(self, monkeypatch):
        reads = []
        read_stat = registry_module._read_stat

        def counting(owner, attribute):
            reads.append(attribute)
            return read_stat(owner, attribute)

        # ``expose`` binds the reader when a series is registered.
        monkeypatch.setattr(registry_module, "_read_stat", counting)
        server = PolicyServer(tiny_agent(), ServingConfig(slo_ms=60_000.0))
        broker, window, breaker = server.broker, server.adaptive_window, server.broker.breaker
        run_rounds(broker, make_clusters(3), max_rounds=4)
        window.observe(3)
        breaker.record_policy(0.001)
        breaker.record_fallback()
        server.agent.stage_timings.add(0.1, 0.2, 0.3, 0.4)
        assert reads == []
        for owner, attribute in (
            (broker, "num_decisions"), (broker, "num_batches"),
            (broker, "graph_delta_refreshes"), (breaker, "num_opens"),
            (server.agent.stage_timings, "num_steps"),
        ):
            assert type(getattr(owner, attribute)) is int
        assert broker.num_decisions > 0

        server.metrics.snapshot()
        scraped = len(reads)
        assert {"num_decisions", "window_ms", "is_open", "mean_ms", "rows_seen"} <= set(reads)
        server.metrics.prometheus()
        assert len(reads) == 2 * scraped
        server.stats_payload(None)
        assert len(reads) > 2 * scraped


# ------------------------------------------------------------- session churn
class TestGraphCacheTotalsUnderSessionChurn:
    def test_totals_match_the_sessions_and_nothing_is_kept_per_session(self):
        """Short-lived sessions: a dead session's recycled ``id()`` must not
        swallow the next one's first counts."""
        broker = RequestBroker(tiny_agent())
        _, observation = make_tpch_env(num_jobs=2, num_executors=6, seed=0)
        snapshot = encode_observation(observation)

        def container_sizes():
            return {
                name: len(value)
                for name, value in vars(broker).items()
                if isinstance(value, (dict, list, set)) or (
                    isinstance(value, deque) and value.maxlen is None
                )
            }

        expected = [0, 0, 0]
        graves = []
        sizes_after_first = None
        for index in range(200):
            session = SessionState(f"short-{index}", num_executors=6, seed=index)
            request = DecisionRequest(
                session=session, observation=session.observation_from_snapshot(snapshot)
            )
            (result,) = broker.decide([request])
            assert result.source == "policy"
            cache = session.graph_cache
            expected[0] += cache.num_delta_refreshes
            expected[1] += cache.num_full_refreshes
            expected[2] += cache.num_rebuilds
            graves.append(weakref.ref(session))
            if sizes_after_first is None:
                sizes_after_first = container_sizes()
            del session, request, result, cache
        assert expected[1] == expected[2] == 200
        assert [
            broker.graph_delta_refreshes,
            broker.graph_full_refreshes,
            broker.graph_rebuilds,
        ] == expected
        assert container_sizes() == sizes_after_first
        broker.merge_cache.reset()  # what the server does when a session leaves
        gc.collect()
        assert not any(ref() is not None for ref in graves)

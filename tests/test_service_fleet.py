"""Fault-injection and control-plane tests for the sharded serving fleet.

The fleet's load-bearing guarantees, beyond what the differential runner
already pins (``sharded_vs_serial_service`` = decisions are bit-identical to
a single server):

* **admission control**: above ``max_sessions`` a new ``hello`` is refused
  with a clean ``admission_rejected`` error frame, never an unbounded queue;
* **fault isolation**: killing a shard mid-session yields a per-session
  ``shard_failed`` error (not a hang), the control plane marks the shard
  unhealthy, surviving shards keep serving, and new sessions that hash to
  the dead shard are reassigned to a live one;
* **live operability**: the control plane reports health/per-shard stats and
  reconfigures the admission limit and shard drain state without restarts.

Every test binds ``port=0`` and reads the bound address back, so nothing
here can race on ports.  The fleet fixtures always stop their processes in
teardown, even when a test body fails.
"""

import time

import pytest

from repro.core import DecimaAgent, DecimaConfig, FeatureConfig
from repro.service import (
    AdaptiveBatchWindow,
    ControlClient,
    PolicyClient,
    ProtocolError,
    ServingFleet,
    drive_episode,
    run_load,
    shard_for_session,
)
from repro.simulator import SchedulingEnvironment, SimulatorConfig
from repro.workloads import batched_arrivals, sample_tpch_jobs

import numpy as np


def tiny_agent():
    """A small fixed-seed agent — shards rebuild it from spec + state, so a
    tiny network keeps fleet start-up cheap."""
    return DecimaAgent(
        total_executors=6,
        config=DecimaConfig(
            seed=0, hidden_sizes=(16, 8), embedding_dim=4,
            feature=FeatureConfig(),
        ),
    )


def session_id_on_shard(shard: int, num_shards: int, prefix: str = "pin") -> str:
    """A session id whose hash prefers ``shard`` (for placement-exact tests)."""
    for attempt in range(10_000):
        candidate = f"{prefix}-{attempt}"
        if shard_for_session(candidate, num_shards) == shard:
            return candidate
    raise AssertionError("crc32 could not find a pinned id (impossible)")


def tiny_jobs(seed: int):
    rng = np.random.default_rng(seed)
    return batched_arrivals(sample_tpch_jobs(2, rng, sizes=(2.0,)))


# ------------------------------------------------------------------ pure units
class TestShardHashing:
    def test_stable_and_in_range(self):
        for num_shards in (1, 2, 4, 7):
            for index in range(32):
                shard = shard_for_session(f"s{index}", num_shards)
                assert 0 <= shard < num_shards
                assert shard == shard_for_session(f"s{index}", num_shards)

    def test_spreads_sessions(self):
        shards = {shard_for_session(f"s{i}", 4) for i in range(64)}
        assert shards == {0, 1, 2, 3}

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError, match="at least one shard"):
            shard_for_session("s0", 0)


class TestAdaptiveBatchWindow:
    def test_idle_uses_min_window(self):
        window = AdaptiveBatchWindow(min_ms=0.2, max_ms=8.0, saturate_at=16)
        for _ in range(50):
            window.observe(1)
        assert window.seconds() == pytest.approx(0.2e-3, rel=1e-6)

    def test_saturated_uses_max_window(self):
        window = AdaptiveBatchWindow(min_ms=0.2, max_ms=8.0, saturate_at=16)
        for _ in range(200):
            window.observe(64)
        assert window.seconds() == pytest.approx(8.0e-3, rel=1e-3)

    def test_window_grows_with_offered_load(self):
        window = AdaptiveBatchWindow(min_ms=0.5, max_ms=6.0, saturate_at=8)
        readings = []
        for batch_size in (1, 2, 4, 8):
            for _ in range(100):
                window.observe(batch_size)
            readings.append(window.seconds())
        assert readings == sorted(readings)
        assert readings[0] < readings[-1]

    def test_ema_adapts_back_down(self):
        window = AdaptiveBatchWindow(min_ms=0.2, max_ms=8.0, saturate_at=16)
        for _ in range(100):
            window.observe(32)
        saturated = window.seconds()
        for _ in range(100):
            window.observe(1)
        assert window.seconds() < saturated


# ------------------------------------------------------------ fleet behaviour
@pytest.fixture(scope="module")
def fleet():
    """One shared 2-shard fleet for the non-destructive control-plane tests."""
    with ServingFleet(tiny_agent(), num_shards=2, max_sessions=8) as running:
        yield running


class TestFleetServing:
    def test_full_episode_through_router(self, fleet):
        env = SchedulingEnvironment(SimulatorConfig(num_executors=6, seed=0))
        with PolicyClient(*fleet.address) as client:
            client.hello(num_executors=6, seed=0)
            summary = drive_episode(client, env, tiny_jobs(0), seed=0)
        assert summary["decisions"] > 0
        assert summary["unfinished_jobs"] == 0
        assert set(summary["sources"]) == {"policy"}

    def test_router_assigns_session_ids_when_absent(self, fleet):
        with PolicyClient(*fleet.address) as client:
            welcome = client.hello(num_executors=6)
            assert welcome["session_id"].startswith("router-")

    def test_health_reports_both_shards_alive(self, fleet):
        with ControlClient(*fleet.control_address) as control:
            health = control.health()
        assert health["num_healthy"] == 2
        assert [s["probe_ok"] for s in health["shards"]] == [True, True]
        assert health["max_sessions"] == 8

    def test_sessions_land_on_their_hashed_shards(self, fleet):
        pinned = [session_id_on_shard(shard, 2) for shard in (0, 1)]
        clients = [PolicyClient(*fleet.address) for _ in pinned]
        try:
            for client, session_id in zip(clients, pinned):
                client.hello(session_id=session_id, num_executors=6)
            with ControlClient(*fleet.control_address) as control:
                health = control.health()
            per_shard = [s["active_sessions"] for s in health["shards"]]
            assert per_shard == [1, 1]
            assert health["active_sessions"] == 2
        finally:
            for client in clients:
                client.bye()
                client.close()

    def test_stats_aggregate_per_shard_broker_accounting(self, fleet):
        # Serve one short episode on each shard so both brokers have counts.
        for shard in (0, 1):
            env = SchedulingEnvironment(SimulatorConfig(num_executors=6, seed=shard))
            with PolicyClient(*fleet.address) as client:
                client.hello(session_id=session_id_on_shard(shard, 2, "stats"),
                             num_executors=6, seed=shard)
                drive_episode(client, env, tiny_jobs(shard), seed=shard,
                              max_decisions=5)
        with ControlClient(*fleet.control_address) as control:
            stats = control.stats()
        assert stats["router"]["routed_sessions"] >= 2
        assert stats["router"]["forwarded_frames"] > 0
        for entry in stats["shards"]:
            assert entry["ok"]
            assert entry["broker"]["num_decisions"] >= 5
            assert entry["broker"]["latency_ms"]["count"] >= 5
            assert entry["batch_window"]["window_ms"] > 0

    def test_admission_control_rejects_over_limit(self, fleet):
        with ControlClient(*fleet.control_address) as control:
            control.reconfigure(max_sessions=1)
            try:
                with PolicyClient(*fleet.address) as first:
                    first.hello(num_executors=6)
                    with PolicyClient(*fleet.address) as second:
                        with pytest.raises(ProtocolError) as excinfo:
                            second.hello(num_executors=6)
                assert excinfo.value.code == "admission_rejected"
                assert "admission limit" in str(excinfo.value)
            finally:
                control.reconfigure(max_sessions=8)
            assert control.stats()["router"]["rejected_sessions"] >= 1

    def test_draining_shard_stops_taking_new_sessions(self, fleet):
        pinned = session_id_on_shard(0, 2, "drain")
        with ControlClient(*fleet.control_address) as control:
            reply = control.reconfigure(shard=0, draining=True)
            assert reply["changed"] == {"shard": 0, "draining": True}
            try:
                with PolicyClient(*fleet.address) as client:
                    # Hashes to shard 0, but shard 0 is draining: the router
                    # must walk forward and place it on shard 1.
                    client.hello(session_id=pinned, num_executors=6)
                    health = control.health()
                    assert health["shards"][0]["active_sessions"] == 0
                    assert health["shards"][1]["active_sessions"] == 1
            finally:
                control.reconfigure(shard=0, draining=False)

    def test_reconfigure_rejects_nonsense(self, fleet):
        with ControlClient(*fleet.control_address) as control:
            with pytest.raises(ProtocolError, match="changes nothing"):
                control.reconfigure()
            with pytest.raises(ProtocolError, match="unknown shard"):
                control.reconfigure(shard=99, draining=True)


# ------------------------------------------------------------- fault injection
class TestFaultInjection:
    """Destructive tests: each gets its own throwaway fleet."""

    def test_shard_death_is_clean_and_survivors_keep_serving(self):
        with ServingFleet(tiny_agent(), num_shards=2) as fleet:
            doomed = session_id_on_shard(0, 2, "doomed")
            survivor = session_id_on_shard(1, 2, "survivor")
            env_doomed = SchedulingEnvironment(SimulatorConfig(num_executors=6, seed=0))
            env_survivor = SchedulingEnvironment(SimulatorConfig(num_executors=6, seed=1))
            with PolicyClient(*fleet.address) as victim, \
                 PolicyClient(*fleet.address) as bystander:
                victim.hello(session_id=doomed, num_executors=6, seed=0)
                bystander.hello(session_id=survivor, num_executors=6, seed=1)
                obs_doomed = env_doomed.reset(tiny_jobs(0), seed=0)
                obs_survivor = env_survivor.reset(tiny_jobs(1), seed=1)
                assert victim.decide(obs_doomed)["type"] == "action"
                assert bystander.decide(obs_survivor)["type"] == "action"

                fleet.kill_shard(0)

                # The victim gets a machine-readable per-session error...
                with pytest.raises(ProtocolError) as excinfo:
                    victim.decide(obs_doomed)
                assert excinfo.value.code == "shard_failed"
                # ...the bystander (on the surviving shard) keeps deciding...
                assert bystander.decide(obs_survivor)["type"] == "action"
                # ...the control plane marks the dead shard unhealthy...
                with ControlClient(*fleet.control_address) as control:
                    health = control.health()
                assert health["num_healthy"] == 1
                assert health["shards"][0]["healthy"] is False
                assert health["shards"][1]["healthy"] is True
                # ...and a NEW session whose hash prefers the dead shard is
                # reassigned to the survivor instead of failing.
                with PolicyClient(*fleet.address) as reassigned:
                    welcome = reassigned.hello(
                        session_id=session_id_on_shard(0, 2, "reborn"),
                        num_executors=6,
                    )
                    assert welcome["type"] == "welcome"

    def test_command_channel_works_around_a_dead_shard(self):
        """What ``ServingFleet``'s docstrings promise of a lost shard: every
        learning-target call answers for the survivor, without raising and
        without waiting out the 30 s reply timeout."""
        with ServingFleet(tiny_agent(), num_shards=2) as fleet:
            fleet.record_experience()
            env = SchedulingEnvironment(SimulatorConfig(num_executors=6, seed=1))
            observation = env.reset(tiny_jobs(1), seed=1)
            with PolicyClient(*fleet.address) as client:
                client.hello(session_id=session_id_on_shard(1, 2), num_executors=6)
                for _ in range(3):
                    assert client.decide(observation)["type"] == "action"
                fleet.kill_shard(0)
                started = time.monotonic()
                assert fleet.install_policy(tiny_agent().state_dict(), 2) == 1
                dead, alive = fleet.shard_stats()
                assert dead is None
                assert alive["type"] == "stats"
                assert alive["broker"]["num_decisions"] == 3
                assert alive["broker"]["pending_policy_version"] == 2
                assert [b["num_decisions"] for b in fleet.broker_stats()] == [3]
                steps = fleet.drain_experience()
                assert [step.session_id for step in steps] == [client.session_id] * 3
                assert fleet.drain_experience() == []
                assert time.monotonic() - started < 10.0

    def test_all_shards_dead_rejects_new_sessions(self):
        with ServingFleet(tiny_agent(), num_shards=1) as fleet:
            fleet.kill_shard(0)
            with PolicyClient(*fleet.address) as client:
                with pytest.raises(ProtocolError) as excinfo:
                    client.hello(num_executors=6)
            assert excinfo.value.code in ("no_healthy_shards", "shard_failed")


# --------------------------------------------------------- sustained-load tier
@pytest.mark.slow
class TestFleetUnderLoad:
    """Heavier integration coverage for the merge-gating (slow) tier."""

    def test_four_shard_fleet_sustains_multi_session_load(self):
        with ServingFleet(tiny_agent(), num_shards=4) as fleet:
            host, port = fleet.address
            summary = run_load(host, port, num_sessions=8, num_jobs=2,
                               num_executors=6, min_total_decisions=200)
            with ControlClient(*fleet.control_address) as control:
                health = control.health()
                stats = control.stats()
        assert summary["decisions"] >= 200
        assert summary["sources"].get("policy", 0) == summary["decisions"]
        assert health["num_healthy"] == 4
        # Load spreads: every shard served some decisions.
        served = [entry["broker"]["num_decisions"] for entry in stats["shards"]]
        assert all(count > 0 for count in served)

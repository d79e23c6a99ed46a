"""Error-path coverage for checkpoint loading, plus executor-churn edge cases
at episode boundaries."""

import json
import shutil

import numpy as np
import pytest

from _helpers import make_decima_agent
from repro.core import CheckpointStore, parameter_fingerprint
from repro.simulator import SchedulingEnvironment, SimulatorConfig
from repro.simulator.environment import Action, ExecutorChurnEvent
from repro.workloads import batched_arrivals, sample_tpch_jobs


# ------------------------------------------------------------ checkpoint errors
class TestCheckpointErrorPaths:
    """Every malformed pointer or archive a store can be handed is rejected
    with a named error — these are checks on outside input."""

    def agent(self):
        return make_decima_agent(total_executors=4, seed=1, embedding_dim=4,
                                 hidden_sizes=(8,))

    def test_load_latest_missing_pointer(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="latest.json"):
            CheckpointStore(tmp_path).load()

    def test_load_latest_corrupt_pointer_json(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(self.agent())
        (tmp_path / "latest.json").write_text("{not json")
        with pytest.raises(ValueError, match="corrupt"):
            store.load()

    def test_load_latest_pointer_missing_version_entry(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(self.agent())
        (tmp_path / "latest.json").write_text(json.dumps({"something": "else"}))
        with pytest.raises(ValueError, match="missing the 'version' entry"):
            store.load()

    def test_load_latest_pointer_to_missing_file(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(self.agent())
        pointer = json.loads((tmp_path / "latest.json").read_text())
        pointer["version"] = 99
        (tmp_path / "latest.json").write_text(json.dumps(pointer))
        with pytest.raises(FileNotFoundError, match="version 99 not found"):
            store.load()

    def test_load_latest_fingerprint_mismatch(self, tmp_path):
        """A checkpoint swapped behind the pointer's back fails loudly."""
        store = CheckpointStore(tmp_path / "served")
        info = store.save(self.agent())
        other = self.agent()
        for parameter in other.parameters():
            parameter.data += 1.0
        # Overwrite the checkpoint with a self-consistent archive of other
        # weights without refreshing the pointer.
        shutil.copy(CheckpointStore(tmp_path / "other").save(other).path, info.path)
        with pytest.raises(ValueError, match="latest.json fingerprint"):
            store.load()

    def test_load_latest_without_fingerprint_entry_still_loads(self, tmp_path):
        """Old pointers (no fingerprint) keep working — the check is opt-in
        by data, not a format break."""
        agent = self.agent()
        store = CheckpointStore(tmp_path)
        store.save(agent)
        pointer = json.loads((tmp_path / "latest.json").read_text())
        del pointer["fingerprint"]
        (tmp_path / "latest.json").write_text(json.dumps(pointer))
        assert parameter_fingerprint(store.load()) == parameter_fingerprint(agent)

    def test_load_rejects_weights_changed_under_recorded_fingerprint(self, tmp_path):
        """The archive vouches for itself too: weights edited in place under
        the metadata written at save time are refused, pointer or no pointer."""
        store = CheckpointStore(tmp_path)
        info = store.save(self.agent())
        with np.load(info.path, allow_pickle=False) as archive:
            entries = {key: archive[key] for key in archive.files}
        name = next(key for key in entries if key != "__meta__")
        entries[name] = entries[name] + 1.0
        np.savez(info.path, **entries)
        with pytest.raises(ValueError, match="recorded fingerprint"):
            store.load(1)

    def test_load_agent_rejects_archive_without_meta(self, tmp_path):
        store = CheckpointStore(tmp_path)
        np.savez(store.path_for(1), weights=np.zeros(3))
        with pytest.raises(ValueError, match="__meta__"):
            store.load(1)
        with pytest.raises(ValueError, match="__meta__"):
            store.load_state(1)

    def test_load_agent_rejects_corrupt_meta_json(self, tmp_path):
        store = CheckpointStore(tmp_path)
        np.savez(store.path_for(1), __meta__="{definitely not json", weights=np.zeros(3))
        with pytest.raises(ValueError, match="metadata is corrupt"):
            store.load(1)

    def test_load_agent_rejects_meta_without_total_executors(self, tmp_path):
        store = CheckpointStore(tmp_path)
        np.savez(
            store.path_for(1), __meta__=json.dumps({"config": {}}), weights=np.zeros(3)
        )
        with pytest.raises(ValueError, match="total_executors"):
            store.info(1)


# ------------------------------------------------------------ churn edge cases
def tpch_jobs(num_jobs=2, seed=0, sizes=(2.0,)):
    return batched_arrivals(
        sample_tpch_jobs(num_jobs, np.random.default_rng(seed), sizes=sizes)
    )


def run_fifo_episode(env, jobs, seed=None):
    from repro.schedulers import FIFOScheduler

    scheduler = FIFOScheduler()
    observation = env.reset(jobs, seed=seed)
    done = False
    while not done:
        observation, _, done = env.step(scheduler.schedule(observation))
    return env.result()


class TestChurnAtEpisodeBoundaries:
    def test_removal_at_time_zero_applies_before_first_decision(self):
        """A t=0 removal is visible in the very first observation."""
        config = SimulatorConfig(
            num_executors=4,
            seed=0,
            churn_events=(
                ExecutorChurnEvent(time=0.0, kind="executor_removed", count=2),
            ),
        )
        env = SchedulingEnvironment(config)
        observation = env.reset(tpch_jobs())
        assert observation.total_executors == 2
        assert observation.num_free_executors == 2

    def test_removal_at_time_zero_clamps_to_one_executor(self):
        config = SimulatorConfig(
            num_executors=3,
            seed=0,
            churn_events=(
                ExecutorChurnEvent(time=0.0, kind="executor_removed", count=99),
            ),
        )
        env = SchedulingEnvironment(config)
        observation = env.reset(tpch_jobs())
        assert observation.total_executors == 1
        result = run_fifo_episode(env, tpch_jobs())
        assert not result.unfinished_jobs

    def test_churn_after_last_completion_never_stretches_wall_time(self):
        """Events far past the workload are dropped at the episode boundary."""
        late = (
            ExecutorChurnEvent(time=1e7, kind="executor_added", count=5),
            ExecutorChurnEvent(time=2e7, kind="executor_removed", count=1),
        )
        base = SimulatorConfig(num_executors=4, seed=0)
        env_plain = SchedulingEnvironment(base)
        plain = run_fifo_episode(env_plain, tpch_jobs())
        churned = SchedulingEnvironment(
            SimulatorConfig(num_executors=4, seed=0, churn_events=late)
        )
        with_churn = run_fifo_episode(churned, tpch_jobs())
        assert with_churn.wall_time == plain.wall_time
        assert len(with_churn.finished_jobs) == len(plain.finished_jobs)

    def test_churn_exactly_at_max_time_is_not_processed(self):
        config = SimulatorConfig(
            num_executors=2,
            seed=0,
            max_time=50.0,
            churn_events=(
                ExecutorChurnEvent(time=50.0, kind="executor_added", count=3),
            ),
        )
        env = SchedulingEnvironment(config)
        run_fifo_episode(env, tpch_jobs(num_jobs=3, sizes=(10.0,)))
        assert env.wall_time == 50.0
        assert env.num_active_executors == 2  # the add never fired

    def test_second_episode_replays_churn_identically(self):
        """reset() rebuilds the fleet AND re-queues churn: two consecutive
        episodes on one environment match a fresh environment bit-for-bit."""
        config = SimulatorConfig(
            num_executors=4,
            seed=0,
            churn_events=(
                ExecutorChurnEvent(time=5.0, kind="executor_removed", count=2),
                ExecutorChurnEvent(time=30.0, kind="executor_added", count=1),
            ),
        )
        reused = SchedulingEnvironment(config)
        run_fifo_episode(reused, tpch_jobs(), seed=7)
        second = run_fifo_episode(reused, tpch_jobs(), seed=7)
        fresh = run_fifo_episode(SchedulingEnvironment(config), tpch_jobs(), seed=7)
        assert second.wall_time == fresh.wall_time
        assert second.total_reward == fresh.total_reward
        assert [r.finish_time for r in second.timeline] == [
            r.finish_time for r in fresh.timeline
        ]

    def test_drained_executor_leaves_at_episode_end_without_rejoining(self):
        """An executor removed while busy drains its task and never returns,
        even when the episode ends right after."""
        config = SimulatorConfig(
            num_executors=2,
            seed=0,
            churn_events=(
                ExecutorChurnEvent(time=1.0, kind="executor_removed", count=1),
            ),
        )
        env = SchedulingEnvironment(config)
        observation = env.reset(tpch_jobs(num_jobs=1))
        node = observation.schedulable_nodes[0]
        # Saturate both executors before the removal fires.
        observation, _, done = env.step(Action(node=node, parallelism_limit=2))
        while not done:
            action = (
                Action(node=observation.schedulable_nodes[0], parallelism_limit=2)
                if observation.schedulable_nodes
                else None
            )
            observation, _, done = env.step(action)
        assert env.num_active_executors == 1
        removed = [e for e in env.executors if e.removed]
        assert removed and all(e.idle for e in removed)
        result = env.result()
        assert not result.unfinished_jobs

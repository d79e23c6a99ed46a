"""Tests for the trace format, the recorder and the replay engine.

Covers the format contract (canonical encoding, versioning, digest
validation), recording through the simulator/runner/agent instrumentation
seams, both replay modes, and first-divergence reporting on injected drift.
"""

import dataclasses
import json

import numpy as np
import pytest

from _helpers import make_decima_agent, make_tpch_env
from repro.verify import (
    TRACE_VERSION,
    DecisionRecord,
    DivergenceReport,
    EpisodeTrace,
    ReplayEngine,
    TraceHeader,
    TraceRecorder,
    first_divergence,
    logits_digest,
    observation_fingerprint,
    read_trace,
    record_scenario_trace,
    rng_state_digest,
    write_trace,
)
from repro.verify.trace import trace_from_lines

SMALL = dict(num_jobs=3, num_executors=8)


def small_trace(scenario="tpch_batched", scheduler="fifo", seed=0, **kwargs):
    return record_scenario_trace(scenario, scheduler=scheduler, seed=seed,
                                 **{**SMALL, **kwargs})


# ------------------------------------------------------------------ fingerprints
class TestFingerprints:
    def test_observation_fingerprint_is_stable_across_runs(self):
        fingerprints = []
        for _ in range(2):
            _, observation = make_tpch_env(num_jobs=2, seed=3)
            fingerprints.append(observation_fingerprint(observation))
        assert fingerprints[0] == fingerprints[1]

    def test_observation_fingerprint_sees_task_progress(self):
        from repro.simulator.environment import Action

        env, observation = make_tpch_env(num_jobs=2, seed=3)
        before = observation_fingerprint(observation)
        node = observation.schedulable_nodes[0]
        env.step(Action(node=node, parallelism_limit=2))
        assert observation_fingerprint(env.observe()) != before

    def test_logits_digest_absorbs_float_noise_and_negative_zero(self):
        logits = np.array([0.123456781, -0.0, 2.5])
        wiggled = np.array([0.123456779, 0.0, 2.5])
        assert logits_digest(logits) == logits_digest(wiggled)
        assert logits_digest(logits) != logits_digest(logits + 1e-3)

    def test_rng_state_digest_tracks_consumption(self):
        rng = np.random.default_rng(0)
        first = rng_state_digest(rng)
        assert rng_state_digest(np.random.default_rng(0)) == first
        rng.random()
        assert rng_state_digest(rng) != first


# ---------------------------------------------------------------- trace format
class TestTraceFormat:
    def test_round_trip_is_lossless(self, tmp_path):
        trace = small_trace()
        path = write_trace(trace, tmp_path / "episode.trace.jsonl")
        back = read_trace(path)
        assert back.header == trace.header
        assert back.decisions == trace.decisions
        assert back.events == trace.events
        assert back.rng_checkpoints == trace.rng_checkpoints
        assert back.digest == trace.digest

    def test_two_independent_recordings_are_byte_identical(self):
        first, second = small_trace(), small_trace()
        assert first.to_lines() == second.to_lines()
        assert first.digest == second.digest

    def test_tampered_file_fails_digest_validation(self, tmp_path):
        path = write_trace(small_trace(), tmp_path / "t.jsonl")
        lines = path.read_text().splitlines()
        victim = json.loads(lines[1])
        if "time" in victim:
            victim["time"] = victim["time"] + 1.0
        lines[1] = json.dumps(victim, sort_keys=True, separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="digest mismatch"):
            read_trace(path)
        # Validation is opt-out for forensic inspection of broken traces.
        assert read_trace(path, verify_digest=False).num_decisions > 0

    def test_truncated_file_rejected(self, tmp_path):
        path = write_trace(small_trace(), tmp_path / "t.jsonl")
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError, match="no end record"):
            read_trace(path)

    def test_unsupported_version_rejected(self):
        header = json.dumps(
            {"kind": "header", "version": TRACE_VERSION + 1, "scenario": "x",
             "scheduler": "fifo", "seed": 0}
        )
        with pytest.raises(ValueError, match="version"):
            trace_from_lines([header, json.dumps({"kind": "end", "digest": "x"})])

    def test_header_must_come_first(self):
        with pytest.raises(ValueError, match="must start with a header"):
            trace_from_lines([json.dumps({"kind": "end", "digest": "x"})])

    def test_non_json_line_rejected(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            trace_from_lines(["this is not json"])


# ------------------------------------------------------------------- recording
class TestRecorder:
    def test_trace_contains_events_decisions_and_checkpoints(self):
        trace = small_trace(scenario="tpch_poisson")
        assert trace.num_decisions > 10
        kinds = {event.event for event in trace.events}
        assert "job_arrival" in kinds and "task_finish" in kinds
        assert trace.rng_checkpoints  # at least the episode-end checkpoint
        assert trace.summary["num_decisions"] == trace.num_decisions
        assert trace.summary["num_finished"] >= 1

    def test_churn_events_are_recorded(self):
        from repro.schedulers import make_scheduler
        from repro.simulator import SchedulingEnvironment, SimulatorConfig
        from repro.simulator.environment import ExecutorChurnEvent
        from repro.workloads import batched_arrivals, sample_tpch_jobs

        config = SimulatorConfig(
            num_executors=4,
            seed=0,
            churn_events=(
                ExecutorChurnEvent(time=5.0, kind="executor_removed", count=1),
                ExecutorChurnEvent(time=10.0, kind="executor_added", count=2),
            ),
        )
        jobs = batched_arrivals(
            sample_tpch_jobs(2, np.random.default_rng(0), sizes=(2.0, 5.0))
        )
        header = TraceHeader(scenario="adhoc_churn", scheduler="fifo", seed=0)
        trace = TraceRecorder(header).record(
            SchedulingEnvironment(config), make_scheduler("fifo", config), jobs, seed=0
        )
        kinds = [event.event for event in trace.events]
        assert "executor_removed" in kinds and "executor_added" in kinds
        counts = {e.event: e.count for e in trace.events if e.count is not None}
        assert counts == {"executor_removed": 1, "executor_added": 2}

    def test_decima_traces_carry_logits_digests(self):
        trace = small_trace(scheduler="decima")
        assert all(d.logits is not None for d in trace.decisions)

    def test_heuristic_traces_have_no_logits(self):
        trace = small_trace(scheduler="fifo")
        assert all(d.logits is None for d in trace.decisions)

    def test_recording_does_not_leak_instrumentation(self):
        from repro.workloads import batched_arrivals, sample_tpch_jobs

        env, _ = make_tpch_env(num_jobs=2, seed=0)
        agent = make_decima_agent()
        header = TraceHeader(scenario="adhoc", scheduler="decima", seed=0)
        rng = np.random.default_rng(0)
        job_list = batched_arrivals(sample_tpch_jobs(2, rng, sizes=(2.0,)))
        TraceRecorder(header).record(env, agent, job_list, seed=0, max_decisions=10)
        assert env.event_listeners == []
        assert agent.logits_tap is None

    def test_unknown_scenario_rejected(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            record_scenario_trace("not_a_scenario")

    def test_size_overrides_rejected_for_adhoc_specs(self):
        from repro.experiments.scenarios import get_scenario

        spec = get_scenario("tpch_batched", num_jobs=2, num_executors=4)
        with pytest.raises(ValueError, match="registry scenario names"):
            record_scenario_trace(spec, num_jobs=5)

    def test_max_decisions_truncates(self):
        trace = small_trace(max_decisions=7)
        assert trace.num_decisions == 7

    def test_no_duplicate_rng_checkpoint_at_interval_boundary(self):
        # 25 decisions == the default checkpoint interval: the episode-end
        # checkpoint must not duplicate the in-loop one at step 24.
        trace = small_trace(max_decisions=25)
        steps = [checkpoint.step for checkpoint in trace.rng_checkpoints]
        assert steps == sorted(set(steps))
        assert steps[-1] == 24


# --------------------------------------------------------------------- replay
class TestReplayEngine:
    @pytest.mark.parametrize("mode", ["rerun", "apply"])
    def test_faithful_replay_reports_ok(self, mode):
        trace = small_trace(scenario="tpch_poisson")
        report = ReplayEngine(mode).replay(trace)
        assert report.ok, report.describe()
        assert report.num_decisions == trace.num_decisions

    @pytest.mark.parametrize("mode", ["rerun", "apply"])
    def test_decima_replay_round_trips(self, mode):
        trace = small_trace(scheduler="decima", max_decisions=25)
        report = ReplayEngine(mode).replay(trace)
        assert report.ok, report.describe()

    def test_injected_decision_drift_is_located(self):
        trace = small_trace()
        victim = trace.decisions[5]
        trace.decisions[5] = dataclasses.replace(victim, limit=(victim.limit or 0) + 1)
        report = ReplayEngine("rerun").replay(trace)
        assert not report.ok
        assert report.divergence.kind == "decision"
        assert report.divergence.step == 5
        assert report.divergence.field == "limit"
        # Full triage context: both records and the observation fingerprint.
        assert report.divergence.expected_fingerprint
        assert "divergence at decision #5" in report.describe()

    def test_injected_fingerprint_drift_caught_by_apply_mode(self):
        trace = small_trace()
        victim = trace.decisions[3]
        trace.decisions[3] = dataclasses.replace(victim, obs_fingerprint="bogus")
        report = ReplayEngine("apply").replay(trace)
        assert not report.ok
        assert report.divergence.kind == "fingerprint"
        assert report.divergence.step == 3
        assert report.divergence.actual_fingerprint != "bogus"

    def test_apply_mode_rejects_unknown_job(self):
        trace = small_trace()
        victim = trace.decisions[0]
        trace.decisions[0] = dataclasses.replace(victim, job="no-such-job")
        report = ReplayEngine("apply").replay(trace)
        assert not report.ok
        assert "does not exist" in report.divergence.message

    def test_apply_mode_reports_reward_drift(self):
        trace = small_trace()
        victim = trace.decisions[4]
        trace.decisions[4] = dataclasses.replace(victim, reward=victim.reward - 1.0)
        report = ReplayEngine("apply").replay(trace)
        assert (report.divergence.kind, report.divergence.step) == ("decision", 4)
        assert report.divergence.field == "reward"
        assert report.divergence.actual == {"reward": victim.reward}

    def test_apply_mode_rejects_unknown_executor_class(self):
        trace = small_trace(scenario="hetero_executors")
        step = next(d.step for d in trace.decisions if d.executor_class is not None)
        trace.decisions[step] = dataclasses.replace(
            trace.decisions[step], executor_class="no-such-class"
        )
        report = ReplayEngine("apply").replay(trace)
        assert (report.divergence.step, report.divergence.field) == (step, "executor_class")

    def test_apply_mode_reports_a_stream_longer_than_the_episode(self):
        trace = small_trace()
        last = trace.decisions[-1]
        trace.decisions.append(dataclasses.replace(last, step=last.step + 1))
        report = ReplayEngine("apply").replay(trace)
        assert (report.divergence.kind, report.divergence.step) == ("length", last.step + 1)
        assert "finished before the recorded stream" in report.divergence.message

    def test_truncated_stream_reports_length_divergence(self):
        trace = small_trace()
        del trace.decisions[-3:]
        report = ReplayEngine("rerun").replay(trace)
        assert not report.ok
        assert report.divergence.kind in ("length", "event", "rng")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown replay mode"):
            ReplayEngine("backwards")


class TestFirstDivergence:
    def records(self, n=4):
        return [
            DecisionRecord(step=i, wall_time=float(i), obs_fingerprint=f"fp{i}",
                           job="j", node=i, limit=2, reward=-0.5)
            for i in range(n)
        ]

    def trace_of(self, decisions):
        return EpisodeTrace(
            header=TraceHeader(scenario="x", scheduler="fifo", seed=0),
            decisions=decisions,
        )

    def test_identical_traces_have_no_divergence(self):
        assert first_divergence(self.trace_of(self.records()),
                                self.trace_of(self.records())) is None

    def test_field_mismatch_reported_with_step_and_field(self):
        lhs, rhs = self.records(), self.records()
        rhs[2] = dataclasses.replace(rhs[2], node=99)
        report = first_divergence(self.trace_of(lhs), self.trace_of(rhs))
        assert isinstance(report, DivergenceReport)
        assert (report.kind, report.step, report.field) == ("decision", 2, "node")

    def test_length_mismatch_reported_after_common_prefix(self):
        lhs, rhs = self.records(4), self.records(3)
        report = first_divergence(self.trace_of(lhs), self.trace_of(rhs))
        assert (report.kind, report.step) == ("length", 3)
        # The surplus record belongs to the expected (longer) stream.
        assert report.expected is not None and report.actual is None

    def test_length_mismatch_attributes_surplus_to_actual_stream(self):
        lhs, rhs = self.records(3), self.records(4)
        report = first_divergence(self.trace_of(lhs), self.trace_of(rhs))
        assert (report.kind, report.step) == ("length", 3)
        assert report.actual is not None and report.expected is None

    def test_rng_checkpoint_drift_reported(self):
        from repro.verify import RngCheckpoint

        lhs, rhs = self.trace_of(self.records()), self.trace_of(self.records())
        lhs.rng_checkpoints = [RngCheckpoint(step=3, digest="aaa")]
        rhs.rng_checkpoints = [RngCheckpoint(step=3, digest="bbb")]
        report = first_divergence(lhs, rhs)
        assert report.kind == "rng"
        assert "random numbers" in report.message

"""The socket workloads: closed-loop clients against router + shards in a child process.

Two client threads, two connections, one decision in flight per session: the
protocol is synchronous per session, so the loop is *closed* (a slow server is
offered less load) and the numbers say so.  The window is cut into slices; at
each slice boundary both clients pause and the server processes' CPU is read
(see :mod:`bench.measure`).

The traced run keeps, in each client thread, a mirror ``SessionState`` and a
local agent with the server's weights, and times the layer calls the server
makes around every ``decide`` (see :class:`LayerProbe`).  Its second phase
sends the same traffic straight to the shards, bypassing the router.
"""

from __future__ import annotations

import gc
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from repro.core import DecimaAgent, DecimaConfig
from repro.service.client import ControlClient, PolicyClient, decode_action
from repro.service.protocol import ProtocolError
from repro.service.router import shard_for_session
from repro.simulator import SchedulingEnvironment, SimulatorConfig

from . import FLEET_EXECUTORS as NUM_EXECUTORS
from . import FLEET_SHARDS as NUM_SHARDS
from . import ROOT, SRC
from .jobs import JobDeck
from .layers import StagedAgent, layer_means, mean_of, public
from .measure import (
    Slice,
    latencies,
    percentile,
    process_cpu_seconds,
    process_peak_rss_mb,
    result_record,
)
from .spans import SpanRecorder, stamp

__all__ = ["FleetProcess", "FleetSizing", "run_fleet"]

NUM_CLIENTS = 2
JOB_SIZES_GB = (2.0, 5.0)
DECIDE_TIMEOUT_S = 30.0
SLICE_S = 1.0
SLICES_PER_BLOCK = 2  # percentiles are taken per 2 s of traffic (bench.measure.summarise)
# The local oracle does the server's model work; its mean busy time per
# decision must be within this factor of the mean ``latency_ms`` the server
# reports, or the probe is not timing what the server runs.
ORACLE_TOLERANCE = 1.5
_clock = time.perf_counter


@dataclass(frozen=True)
class FleetSizing:
    num_jobs: int
    placement: str  # "shared": both sessions on shard 0; "spread": one on each
    warmup_decisions: int = 200
    setups: int = 5


# ------------------------------------------------------------- system under test
class FleetProcess:
    """The fleet child process: spawn, learn its addresses and pids, shut down."""

    def __init__(self, log_path: Path) -> None:
        self._log_path = log_path
        self._process: Optional[subprocess.Popen] = None
        self._log = None
        self.info: dict = {}

    @property
    def pids(self) -> list:
        return [self.info["pid"], *self.info["shard_pids"]]

    def start(self) -> dict:
        self._log_path.parent.mkdir(parents=True, exist_ok=True)
        self._log = open(self._log_path, "ab")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT), str(SRC), *filter(None, [env.get("PYTHONPATH")])]
        )
        self._process = subprocess.Popen(
            [sys.executable, "-m", "bench.fleet_child"], cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self._log,
        )
        ready, _, _ = select.select([self._process.stdout], [], [], 120.0)
        line = self._process.stdout.readline() if ready else b""
        if not line:
            self.stop()
            raise RuntimeError(f"fleet child did not come up; see {self._log_path}")
        self.info = json.loads(line)
        return self.info

    def stop(self) -> None:
        process, self._process = self._process, None
        if process is not None:
            try:
                process.stdin.close()  # the child's shutdown signal
                process.wait(timeout=30.0)
            except (OSError, subprocess.TimeoutExpired):
                process.kill()
                process.wait(timeout=10.0)
            finally:
                process.stdout.close()
        # Shards exit when the child's pipe closes; make sure none outlives us.
        deadline = time.monotonic() + 10.0
        for pid in self.info.get("shard_pids", []):
            while Path(f"/proc/{pid}").exists() and time.monotonic() < deadline:
                time.sleep(0.02)
            if Path(f"/proc/{pid}").exists():
                _kill(pid)
        if self._log is not None:
            self._log.close()
            self._log = None


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


# ------------------------------------------------------------------ layer probe
class LayerProbe:
    """Times, in the client thread, the layer calls the server makes per decide.

    For every observation: encode it into a ``decide`` frame, decode the frame,
    reconcile a mirror ``SessionState``, run the local oracle agent on the
    mirrored observation, and push its action through the reply codec.  The
    oracle's action is what the server must answer.

    Two client threads share one interpreter lock.  A probe that runs beside
    the other thread's probe hands the lock over at every numpy call (wall time
    x2.5, CPU time x2 at 20 jobs), so the probes take turns (``turn``, one lock
    for the run) and each step is clocked by the thread's CPU time (``busy_s``
    of its span), which leaves out the other thread's non-probe turns.
    """

    def __init__(self, session_id: str, seed: int, recorder: SpanRecorder, warnings: list,
                 turn: threading.Lock):
        self.recorder = recorder
        self.turn = turn
        self.session_id = session_id
        self.seed = seed
        self.encode_observation = public("repro.service.protocol:encode_observation", warnings)
        self.encode_message = public("repro.service.protocol:encode_message", warnings)
        self.decode_frame = public("repro.service.protocol:decode_frame", warnings)
        self._session_class = public("repro.service.session:SessionState", warnings)
        self.agent = StagedAgent(
            DecimaAgent(total_executors=NUM_EXECUTORS, config=DecimaConfig(seed=0)), warnings
        )
        self.complete = None not in (
            self.encode_observation, self.encode_message, self.decode_frame, self._session_class
        ) and all(
            hasattr(self._session_class, name)
            for name in ("observation_from_snapshot", "encode_action")
        )
        if not self.complete:
            warnings.append("absent: service layer probe disabled, oracle check skipped")
        self.request_bytes: list = []
        self.nodes: list = []
        self.reset()

    def reset(self) -> None:
        """A fresh mirror for a fresh server-side session."""
        if self.complete:
            self.mirror = self._session_class(self.session_id, NUM_EXECUTORS, seed=self.seed)

    def expect(self, observation, request_id: int, decision: str):
        """The action the server must choose, or ``None`` when the probe is off.

        Its spans hang under the root span of ``decision``.
        """
        if not self.complete:
            return None
        add = self.recorder.add_busy
        t0 = stamp()
        frame = self.encode_message(
            {"type": "decide", "session_id": self.session_id, "request_id": request_id,
             "observation": self.encode_observation(observation)}
        )
        t1 = stamp()
        message = self.decode_frame(frame)
        t2 = stamp()
        shadow = self.mirror.observation_from_snapshot(message["observation"])
        t3 = stamp()
        action, nodes = self.agent.act(shadow, self.mirror.graph_cache, self.recorder, decision)
        t4 = stamp()
        reply = {"type": "action", "request_id": request_id, "source": "policy",
                 "latency_ms": 0.0, "policy_version": 0, **self.mirror.encode_action(action)}
        expected = decode_action(self.decode_frame(self.encode_message(reply)), observation)
        t5 = stamp()
        add("service.protocol.encode", t0, t1, decision, decision)
        add("service.protocol.decode", t1, t2, decision, decision)
        add("service.session.reconcile", t2, t3, decision, decision)
        add("service.protocol.reply_codec", t4, t5, decision, decision)
        self.request_bytes.append(len(frame))
        self.nodes.append(nodes)
        return expected

    def forget(self) -> None:
        """Drop what was recorded so far (the warm-up); the mirror stays."""
        self.recorder.spans.clear()
        self.request_bytes.clear()
        self.nodes.clear()

    def cache_counters(self) -> tuple:
        cache = self.mirror.graph_cache if self.complete else None
        if cache is None:
            return (0, 0)
        return (cache.num_delta_refreshes, cache.num_full_refreshes)


# ---------------------------------------------------------------- client session
class GateFailure(Exception):
    """A reply that decoded but is wrong: counts as failed and fails the run."""


@dataclass
class Tally:
    """What one client thread did in one slice."""

    latencies_ms: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    active_s: float = 0.0
    decide_s: float = 0.0
    probe_s: float = 0.0
    not_policy: int = 0


class ClientSession:
    """One closed-loop cluster session: a simulator, a connection, endless episodes."""

    def __init__(self, index: int, session_id: str, seed: int, num_jobs: int,
                 probe: Optional[LayerProbe] = None):
        self.index = index
        self.session_id = session_id
        self.seed = seed
        self.num_jobs = num_jobs
        self.probe = probe
        self.address: Optional[tuple] = None
        self.client: Optional[PolicyClient] = None
        self.environment = SchedulingEnvironment(
            SimulatorConfig(num_executors=NUM_EXECUTORS, seed=seed + index)
        )
        self.gate_failures: list = []
        self.episodes_finished = 0
        self.decisions = 0
        self.restart()

    def restart(self) -> None:
        """Rewind to the first episode: each phase of a run sees the same traffic."""
        self.deck = JobDeck(np.random.default_rng([self.seed, self.index]), JOB_SIZES_GB)
        self.episode = 0
        self._begin_episode()

    def _begin_episode(self) -> None:
        jobs = self.deck.deal(self.num_jobs)
        start = stamp()
        self.observation = self.environment.reset(jobs, seed=self.seed + self.episode)
        if self.probe is not None:
            self.probe.recorder.add_busy("simulator.reset", start, stamp())
        self.episode += 1

    def connect(self, address: tuple) -> None:
        self.close()
        self.address = tuple(address)
        self.client = PolicyClient(*self.address, timeout=DECIDE_TIMEOUT_S)
        self.client.hello(
            session_id=self.session_id, num_executors=NUM_EXECUTORS,
            seed=self.seed + self.index,
        )
        if self.probe is not None:
            self.probe.reset()

    def close(self, polite: bool = False) -> None:
        if self.client is not None:
            if polite:
                self.client.bye()
            self.client.close()
            self.client = None

    def _check(self, reply: dict, observation, expected):
        action = decode_action(reply, observation)
        if action is None or not any(action.node is node for node in observation.schedulable_nodes):
            raise GateFailure("reply names a node that is not schedulable")
        if reply.get("source") != "policy":
            raise GateFailure(f"decision source is {reply.get('source')!r}, not 'policy'")
        if expected is not None and (
            action.node is not expected.node
            or action.parallelism_limit != expected.parallelism_limit
        ):
            raise GateFailure(
                f"server chose ({action.node.job.job_id}, {action.node.node_id}, "
                f"{action.parallelism_limit}), the local oracle "
                f"({expected.node.job.job_id}, {expected.node.node_id}, "
                f"{expected.parallelism_limit})"
            )
        return action

    def decide_once(self, tally: Tally) -> None:
        """One closed-loop turn: decide, check, step the simulator."""
        observation = self.observation
        tally.attempted += 1
        self.decisions += 1
        probe = self.probe
        decision = f"s{self.index}-{self.decisions}"
        expected = None
        turn_start = _clock()
        try:
            if self.client is None:
                self.connect(self.address)
            if probe is not None:
                with probe.turn:
                    expected = probe.expect(observation, self.decisions, decision)
                tally.probe_s += _clock() - turn_start
            sent = _clock()
            reply = self.client.decide(observation, request_id=self.decisions)
            answered = _clock()
            tally.not_policy += reply.get("source") != "policy"
            action = self._check(reply, observation, expected)
        except (GateFailure, ProtocolError, OSError, KeyError, TypeError, ValueError) as error:
            tally.failed += 1
            if isinstance(error, GateFailure):
                self.gate_failures.append(
                    f"session {self.index} decision {self.decisions}: {error}"
                )
            if probe is not None:
                probe.recorder.add("decision", turn_start, _clock(), None, decision,
                                   span_id=decision)
            # The session re-hellos on its next turn and carries on; the pause
            # keeps a dead server from turning the loop into a spin.
            self.close()
            time.sleep(0.02)
            return
        tally.latencies_ms.append((answered - sent) * 1000.0)
        tally.decide_s += answered - sent
        if probe is not None:
            model_ms = float(reply["latency_ms"])
            round_trip = probe.recorder.add(
                "client.decide", sent, answered, decision, decision
            )
            # Reported by the server, not clocked here: centred in the round trip.
            slack = max(answered - sent - model_ms / 1000.0, 0.0) / 2.0
            probe.recorder.add(
                "service.batcher.model", sent + slack,
                min(sent + slack + model_ms / 1000.0, answered), round_trip, decision,
            )
        stepped = stamp()
        self.observation, _, done = self.environment.step(action)
        if probe is not None:
            now = stamp()
            probe.recorder.add_busy("simulator.step", stepped, now, decision, decision)
            probe.recorder.add("decision", turn_start, now[0], None, decision, span_id=decision)
        if done:
            result = self.environment.result()
            if len(result.finished_jobs) != self.num_jobs:
                self.gate_failures.append(
                    f"session {self.index} episode {self.episode}: "
                    f"{len(result.finished_jobs)} of {self.num_jobs} jobs finished"
                )
            self.episodes_finished += 1
            self._begin_episode()


# ------------------------------------------------------------------- closed loop
class ClosedLoop:
    """Runs the client threads slice by slice, pausing them at every boundary."""

    def __init__(self, sessions: list, server_pids: list):
        self.sessions = sessions
        self.server_pids = server_pids
        self._barrier = threading.Barrier(len(sessions) + 1)
        self._spec: Optional[tuple] = None
        self._tallies: list = []
        self._errors: list = []
        self._threads = [
            threading.Thread(target=self._client_main, args=(i,), daemon=True,
                             name=f"bench-client-{i}")
            for i in range(len(sessions))
        ]
        for thread in self._threads:
            thread.start()

    def _client_main(self, index: int) -> None:
        session = self.sessions[index]
        try:
            while True:
                self._barrier.wait()
                if self._spec is None:
                    return
                seconds, decisions = self._spec
                tally = self._tallies[index]
                start = _clock()
                if decisions is not None:
                    for _ in range(decisions):
                        session.decide_once(tally)
                else:
                    deadline = start + seconds
                    while _clock() < deadline:
                        session.decide_once(tally)
                tally.active_s = _clock() - start
                self._barrier.wait()
        except threading.BrokenBarrierError:
            return
        except BaseException as error:  # noqa: BLE001 - reported by the coordinator
            self._errors.append(error)
            self._barrier.abort()

    def _wait(self) -> None:
        try:
            self._barrier.wait(timeout=DECIDE_TIMEOUT_S * 4)
        except threading.BrokenBarrierError:
            if self._errors:
                raise self._errors[0]
            raise RuntimeError("a client thread stopped answering") from None

    def run_slice(self, seconds: Optional[float] = None, decisions: Optional[int] = None,
                  phase: str = "main") -> tuple:
        """One slice of ``seconds`` or of ``decisions`` per client; returns it with its tallies."""
        self._spec = (seconds, decisions)
        self._tallies = [Tally() for _ in self.sessions]
        # The generator's own collector must not pause a client mid-decision
        # and be billed to the server: collect between slices instead.
        gc.collect()
        gc.disable()
        try:
            cpu_before = process_cpu_seconds(self.server_pids)
            start = _clock()
            self._wait()  # release
            self._wait()  # all clients are back
            end = _clock()
            cpu = process_cpu_seconds(self.server_pids) - cpu_before
        finally:
            gc.enable()
        tallies = self._tallies
        return Slice(
            start=start, end=end,
            wall_s=statistics.fmean(t.active_s for t in tallies),
            cpu_s=cpu,
            latencies_ms=[v for t in tallies for v in t.latencies_ms],
            attempted=sum(t.attempted for t in tallies),
            failed=sum(t.failed for t in tallies),
            phase=phase,
        ), tallies

    def close(self) -> None:
        self._spec = None
        try:
            self._barrier.wait(timeout=10.0)
        except threading.BrokenBarrierError:
            pass
        for thread in self._threads:
            thread.join(timeout=10.0)


# ------------------------------------------------------------------ the workload
def _session_ids(placement: str) -> tuple:
    """Session ids whose hash puts them where ``placement`` wants them."""
    wanted = (0, 0) if placement == "shared" else (0, 1)
    ids = []
    candidate = 0
    for shard in wanted:
        while True:
            name = f"bench-{candidate}"
            candidate += 1
            if shard_for_session(name, NUM_SHARDS) == shard:
                ids.append(name)
                break
    return tuple(ids), wanted


def _first_decision(session: ClientSession, address: tuple) -> None:
    session.connect(address)
    tally = Tally()
    session.decide_once(tally)
    if tally.failed:
        raise RuntimeError(f"first decision failed: {session.gate_failures or 'no reply'}")


def _measure_setups(sizing: FleetSizing, seed: int, log_path: Path, sessions: list) -> tuple:
    """Set the fleet up ``sizing.setups`` times; keep the last one running.

    Returns the running fleet, every ``setup_s`` and every ``start_s``.

    Timed from spawning the child to the first answered decision of session 0;
    the session's jobs and simulator exist before the clock starts.
    """
    ids, _ = _session_ids(sizing.placement)
    setup_s, start_s = [], []
    fleet = None
    for attempt in range(sizing.setups):
        last = attempt == sizing.setups - 1
        session = sessions[0] if last else ClientSession(0, ids[0], seed, sizing.num_jobs)
        begun = _clock()
        fleet = FleetProcess(log_path)
        try:
            info = fleet.start()
            _first_decision(session, info["address"])
        except BaseException:
            fleet.stop()
            raise
        setup_s.append(_clock() - begun)
        start_s.append(info["start_s"])
        if not last:
            session.close(polite=True)
            fleet.stop()
    return fleet, setup_s, start_s


def _control_stats(address: tuple) -> dict:
    with ControlClient(*address, timeout=10.0) as control:
        return control.stats()


def run_fleet(name: str, sizing: FleetSizing, seed: int, seconds: float, trace: bool,
              out_dir: Path, fault=None) -> dict:
    """Run one socket workload; returns its result record (see bench.run).

    ``fault(fleet_info)`` is the test hook: called once, half-way through the
    window, with the child's addresses and pids.
    """
    warnings: list = []
    ids, wanted = _session_ids(sizing.placement)
    recorders = [SpanRecorder(prefix=f"c{i}.") for i in range(NUM_CLIENTS)]
    probe_turn = threading.Lock()
    sessions = [
        ClientSession(
            i, ids[i], seed, sizing.num_jobs,
            probe=LayerProbe(ids[i], seed + i, recorders[i], warnings, probe_turn)
            if trace else None,
        )
        for i in range(NUM_CLIENTS)
    ]
    fleet, setup_samples, start_samples = _measure_setups(
        sizing, seed, out_dir / f"{name}.server.log", sessions
    )
    loop = None
    try:
        info = fleet.info
        pids = fleet.pids
        loop = ClosedLoop(sessions, pids)
        routes = {"router": [tuple(info["address"])] * NUM_CLIENTS}
        if trace:
            routes["direct"] = [tuple(info["shard_addresses"][s]) for s in wanted]
        num_slices = max(1, round(seconds / SLICE_S / len(routes)))
        slices: list = []
        tallies: list = []
        stats_before = stats_after = None
        for phase, addresses in routes.items():
            for session, address in zip(sessions, addresses):
                session.close(polite=True)
                session.restart()
                session.connect(address)
            loop.run_slice(decisions=sizing.warmup_decisions, phase="warmup")
            for session in sessions:
                if session.probe is not None:
                    session.probe.forget()  # warm-up leaves no spans
            if trace and stats_before is None:
                stats_before = _control_stats(tuple(info["control_address"]))
            for index in range(num_slices):
                if fault is not None and phase == "router" and index == num_slices // 2:
                    fault(info)
                one, its_tallies = loop.run_slice(seconds=SLICE_S, phase=phase)
                one.block = len(slices) // SLICES_PER_BLOCK
                slices.append(one)
                tallies.append(its_tallies)
        if trace:
            stats_after = _control_stats(tuple(info["control_address"]))
        peak_rss = process_peak_rss_mb(pids)
    finally:
        if loop is not None:
            loop.close()
        for session in sessions:
            session.close(polite=True)
        fleet.stop()

    gate_failures = [failure for session in sessions for failure in session.gate_failures]
    layer = None
    if trace:
        layer, problems = _layer_metrics(
            slices, tallies, sessions, recorders, stats_before, stats_after,
            statistics.median(start_samples),
        )
        gate_failures += problems
    # End-to-end numbers describe the routed path; the direct phase exists
    # only to split the round trip.
    routed = [s for s in slices if s.phase == "router"]
    result = result_record(
        name, trace,
        {
            "loop": "closed", "clients": NUM_CLIENTS, "connections": NUM_CLIENTS,
            "placement": sizing.placement, "shards": NUM_SHARDS,
            "jobs_per_episode": sizing.num_jobs, "executors": NUM_EXECUTORS,
            "warmup_decisions_per_session": sizing.warmup_decisions,
            "slices": len(routed), "slice_s": SLICE_S,
            "episodes": sum(session.episodes_finished for session in sessions),
            "server": "child process tree (router + shards)",
        },
        routed, peak_rss, setup_samples, gate_failures, warnings,
    )
    if trace:
        result["per_layer"] = layer
        result["spans"] = recorders
    return result


def _shard_batching(before: dict, after: dict) -> tuple:
    """Mean batch size and current window over the shards that served decisions."""
    decisions = batches = 0
    windows = []
    for old, new in zip(before["shards"], after["shards"]):
        if not (old.get("broker") and new.get("broker")):
            continue
        served = new["broker"]["num_decisions"] - old["broker"]["num_decisions"]
        if served <= 0:
            continue
        decisions += served
        batches += new["broker"]["num_batches"] - old["broker"]["num_batches"]
        if new.get("batch_window"):
            windows.append(new["batch_window"]["window_ms"])
    if not batches:
        return None, None
    return decisions / batches, (statistics.fmean(windows) if windows else None)


def _layer_metrics(slices, tallies, sessions, recorders, stats_before, stats_after,
                   start_s) -> tuple:
    """Per-layer numbers of a traced run and the budget-closure problems found."""
    spans = [span for recorder in recorders for span in recorder.spans]
    direct = [s for s in slices if s.phase == "direct"]
    routed = [s for s in slices if s.phase == "router"]
    # The service parts come from the direct phase alone, so that they add up
    # to its round trip; the rest is taken over both phases.
    means = layer_means(spans, direct)
    everywhere = layer_means(spans, slices)
    layer: dict = {
        "service.protocol.encode_ms": mean_of(means, "service.protocol.encode"),
        "service.protocol.decode_ms": mean_of(means, "service.protocol.decode"),
        "service.protocol.reply_codec_ms": mean_of(means, "service.protocol.reply_codec"),
        "service.session.reconcile_ms": mean_of(means, "service.session.reconcile"),
        "service.batcher.model_ms": mean_of(means, "service.batcher.model"),
        "service.fleet.start_s": start_s,
        "core.features.ms": mean_of(everywhere, "core.features"),
        "core.gnn.ms": mean_of(everywhere, "core.gnn"),
        "core.policy.ms": mean_of(everywhere, "core.policy"),
        "core.agent.select_ms": mean_of(everywhere, "core.agent.select"),
        "simulator.step_ms": mean_of(everywhere, "simulator.step"),
        "simulator.reset_ms": mean_of(everywhere, "simulator.reset"),
    }
    probes = [session.probe for session in sessions]
    sizes = [size for probe in probes for size in probe.request_bytes]
    nodes = [count for probe in probes for count in probe.nodes if count]
    layer["service.protocol.request_bytes"] = statistics.fmean(sizes) if sizes else None
    layer["service.protocol.request_bytes_max"] = float(max(sizes)) if sizes else None
    layer["core.features.nodes_mean"] = statistics.fmean(nodes) if nodes else None
    delta, full = (sum(column) for column in zip(*(probe.cache_counters() for probe in probes)))
    layer["core.features.delta_refresh_share"] = delta / (delta + full) if delta + full else None

    batch_mean, window_ms = _shard_batching(stats_before, stats_after)
    layer["service.batcher.batch_size_mean"] = batch_mean
    layer["service.batcher.window_ms"] = window_ms
    flat = [tally for group in tallies for tally in group]
    attempted = sum(t.attempted for t in flat)
    layer["service.batcher.fallback_share"] = (
        sum(t.not_policy for t in flat) / attempted if attempted else None
    )
    active = sum(t.active_s - t.probe_s for t in flat)
    layer["bench.generator_share"] = (
        1.0 - sum(t.decide_s for t in flat) / active if active > 0 else None
    )

    problems: list = []
    direct_latencies = latencies(direct)
    routed_latencies = latencies(routed)
    if direct_latencies and routed_latencies:
        routed_p50 = percentile(routed_latencies, 50)
        hop = routed_p50 - percentile(direct_latencies, 50)
        layer["service.router.hop_ms"] = hop
        if not 0.0 <= hop <= routed_p50:
            problems.append(f"budget: router hop {hop:.3f} ms outside [0, {routed_p50:.3f}]")
    else:
        layer["service.router.hop_ms"] = None
    oracle_ms, model_ms = mean_of(means, "core.agent.act"), layer["service.batcher.model_ms"]
    if oracle_ms and model_ms:
        layer["bench.oracle_model_ratio"] = oracle_ms / model_ms
        if not 1.0 / ORACLE_TOLERANCE <= oracle_ms / model_ms <= ORACLE_TOLERANCE:
            problems.append(
                f"probe: the local oracle's act() takes {oracle_ms:.3f} ms, the server "
                f"reports {model_ms:.3f} ms for the same work (tolerance x{ORACLE_TOLERANCE:g})"
            )
    parts = ["service.protocol.encode_ms", "service.protocol.decode_ms",
             "service.session.reconcile_ms", "service.batcher.model_ms",
             "service.protocol.reply_codec_ms"]
    if direct_latencies and all(layer[name] is not None for name in parts):
        round_trip = statistics.fmean(direct_latencies)
        wait_io = round_trip - sum(layer[name] for name in parts)
        layer["service.aioserver.wait_io_ms"] = wait_io
        layer["bench.direct_round_trip_ms"] = round_trip
        for name in parts + ["service.aioserver.wait_io_ms"]:
            if not 0.0 <= layer[name] <= round_trip:
                problems.append(
                    f"budget: {name} = {layer[name]:.3f} ms outside the direct round "
                    f"trip [0, {round_trip:.3f}]"
                )
    else:
        layer["service.aioserver.wait_io_ms"] = None
    return layer, problems

"""The in-process workloads: offline inference (``infer_200j``) and training (``train_10j``).

No ``service`` code runs here, so a protocol or router change predicts *no
change* on these two.  Both do fixed work, not fixed time: ``--seconds`` is
turned into a work amount at a nominal rate fixed below (never calibrated at
run time), so the decision digest and the parameter fingerprint depend on
``(seed, seconds)`` alone and can be compared across runs and commits.
"""

from __future__ import annotations

import gc
import hashlib
import math
import statistics
import time
from dataclasses import dataclass

import numpy as np

from repro.core import DecimaAgent, DecimaConfig
from repro.core.checkpoints import parameter_fingerprint
from repro.core.parallel import RolloutBackend, SerialRolloutBackend
from repro.core.reinforce import ReinforceTrainer, TrainingConfig
from repro.simulator import SchedulingEnvironment, SimulatorConfig
from repro.workloads import batched_arrivals
from repro.workloads.tpch import make_tpch_job

from .jobs import JobDeck
from .layers import StagedAgent, layer_means, mean_of
from .measure import Slice, result_record, self_peak_rss_mb
from .spans import SpanRecorder, stamp

__all__ = ["InferSizing", "TrainSizing", "run_infer", "run_train"]

_clock = time.perf_counter

# An infer_200j episode takes ~15 s on the baseline box, but one is too few:
# the top percentile of act() all comes from an episode's first seconds (the
# 2,400-node graph), and ten one-episode runs spread the p99 by up to 25%.
# Two episodes put that tail at two separate moments (spread 3-8%).
INFER_SECONDS_PER_EPISODE = 10.0
TRAIN_EXECUTORS = 10
# Deliberately under the ~2.4 s a 4-episode, 10-job iteration takes on the
# baseline box: 8 iterations at the default 15 s.  Six spread the 99th
# percentile by 22% over ten seeds, ten by 10-15%, and ten do not fit the
# driver's time cap when the host is slow.
TRAIN_NOMINAL_ITERATION_S = 1.8


# ------------------------------------------------------------------- infer_200j
@dataclass(frozen=True)
class InferSizing:
    num_jobs: int = 200
    num_executors: int = 50
    warmup_decisions: int = 300
    setups: int = 5


def _tpch_jobs(num_jobs: int, seed: int, stream: int) -> list:
    return JobDeck(np.random.default_rng([seed, stream])).deal(num_jobs)


def _new_agent(num_executors: int) -> DecimaAgent:
    return DecimaAgent(total_executors=num_executors, config=DecimaConfig(seed=0))


def _infer_setup(sizing: InferSizing, seed: int) -> list:
    """Agent and simulator construction up to the first answered decision."""
    samples = []
    for attempt in range(sizing.setups):
        jobs = _tpch_jobs(sizing.num_jobs, seed, 1000 + attempt)
        begun = _clock()
        agent = _new_agent(sizing.num_executors)
        environment = SchedulingEnvironment(
            SimulatorConfig(num_executors=sizing.num_executors, seed=seed)
        )
        agent.act(environment.reset(jobs, seed=seed), greedy=True)
        samples.append(_clock() - begun)
    return samples


def run_infer(name: str, sizing: InferSizing, seed: int, seconds: float, trace: bool) -> dict:
    """Drive whole batched TPC-H episodes with ``DecimaAgent.act(greedy=True)``."""
    warnings: list = []
    recorder = SpanRecorder(prefix="i.")
    setup_samples = _infer_setup(sizing, seed)
    agent = _new_agent(sizing.num_executors)
    staged = StagedAgent(agent, warnings) if trace else None
    environment = SchedulingEnvironment(
        SimulatorConfig(num_executors=sizing.num_executors, seed=seed)
    )
    episodes = max(1, math.ceil(seconds / INFER_SECONDS_PER_EPISODE))

    # Warm-up on a throwaway episode; nothing of it is kept.
    observation = environment.reset(_tpch_jobs(sizing.num_jobs, seed, 999), seed=seed)
    for _ in range(sizing.warmup_decisions):
        action, _ = agent.act(observation, greedy=True)
        observation, _, done = environment.step(action)
        if done:
            break

    digest = hashlib.sha256()
    gate_failures: list = []
    slices: list = []
    nodes: list = []
    decisions = 0
    for episode in range(episodes):
        jobs = _tpch_jobs(sizing.num_jobs, seed, episode)
        # JobDAG.job_id is a process-wide counter; the position in the episode's
        # job list names the same job in every process.
        job_index = {id(job): index for index, job in enumerate(jobs)}
        agent.reset_graph_cache()
        latencies: list = []
        episode_start = stamp()
        cpu_start = time.process_time()
        observation = environment.reset(jobs, seed=seed + episode)
        if trace:
            recorder.add_busy("simulator.reset", episode_start, stamp())
        done = False
        while not done:
            decisions += 1
            decision = f"d{decisions}"
            before = _clock()
            if staged is None:
                action, _ = agent.act(observation, greedy=True)
                after = _clock()
            else:
                action, count = staged.act(observation, None, recorder, decision)
                after = _clock()
                nodes.append(count)
            latencies.append((after - before) * 1000.0)
            node = action.node
            if not any(node is candidate for candidate in observation.schedulable_nodes):
                gate_failures.append(f"decision {decisions}: node is not schedulable")
            digest.update(
                f"{job_index[id(node.job)]},{node.node_id},{action.parallelism_limit};".encode()
            )
            stepped = stamp()
            observation, _, done = environment.step(action)
            if trace:
                now = stamp()
                recorder.add_busy("simulator.step", stepped, now, decision, decision)
                recorder.add("decision", before, now[0], None, decision, span_id=decision)
        episode_end = _clock()
        slices.append(
            Slice(
                start=episode_start[0], end=episode_end, wall_s=episode_end - episode_start[0],
                cpu_s=time.process_time() - cpu_start, latencies_ms=latencies,
                attempted=len(latencies), block=episode,
            )
        )
        finished = len(environment.result().finished_jobs)
        if finished != sizing.num_jobs:
            gate_failures.append(f"episode {episode}: {finished} of {sizing.num_jobs} jobs finished")

    result = result_record(
        name, trace,
        {
            "loop": "in-process, fixed work", "episodes": episodes,
            "jobs_per_episode": sizing.num_jobs, "executors": sizing.num_executors,
            "warmup_decisions": sizing.warmup_decisions,
        },
        slices, self_peak_rss_mb(), setup_samples, gate_failures, warnings,
        identity={"decisions": decisions, "action_sha256": digest.hexdigest()},
    )
    if trace:
        means = layer_means(recorder.spans, slices)
        cache = agent.graph_cache
        refreshes = cache.num_delta_refreshes + cache.num_full_refreshes
        act_s = sum(sum(s.latencies_ms) for s in slices) / 1000.0
        result["per_layer"] = {
            "core.features.ms": mean_of(means, "core.features"),
            "core.gnn.ms": mean_of(means, "core.gnn"),
            "core.policy.ms": mean_of(means, "core.policy"),
            "core.agent.select_ms": mean_of(means, "core.agent.select"),
            "core.features.nodes_mean": statistics.fmean(nodes) if any(nodes) else None,
            "core.features.delta_refresh_share": (
                cache.num_delta_refreshes / refreshes if refreshes else None
            ),
            "simulator.step_ms": mean_of(means, "simulator.step"),
            "simulator.reset_ms": mean_of(means, "simulator.reset"),
            "bench.generator_share": 1.0 - act_s / sum(s.wall_s for s in slices),
        }
        result["spans"] = [recorder]
    return result


# -------------------------------------------------------------------- train_10j
@dataclass(frozen=True)
class TrainSizing:
    num_jobs: int = 10
    episodes_per_iteration: int = 4
    warmup_iterations: int = 2
    setups: int = 9  # 0.13 s each and the noisiest number here: ten runs of 5 spread it by 28%


class GcClock:
    """Clocks the cyclic garbage collector through ``gc.callbacks``.

    With an iteration's autograd graphs alive, a full collection walks every
    retained node: single pauses of 50-250 ms, about one decision in 120.
    That puts the 99th percentile of ``act`` right on the edge between
    ordinary decisions and collector pauses, where it flips from run to run;
    so ``act`` is reported net of the pauses and the pauses are a layer metric
    of their own.  Throughput and CPU per decision still pay for them.
    """

    def __init__(self) -> None:
        self.seconds = 0.0
        self.pauses: list = []
        self._started = 0.0

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = _clock()
        else:
            now = _clock()
            self.seconds += now - self._started
            self.pauses.append((self._started, now))

    def __enter__(self) -> "GcClock":
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc_info) -> None:
        gc.callbacks.remove(self._on_gc)


class _TimedActs:
    """The agent as the rollout sees it, with every ``act`` clocked net of GC."""

    def __init__(self, agent: DecimaAgent, latencies_ms: list, gc_clock: GcClock) -> None:
        self._agent = agent
        self._latencies_ms = latencies_ms
        self._gc_clock = gc_clock

    def __getattr__(self, name: str):
        return getattr(self._agent, name)

    def act(self, *args, **kwargs):
        paused = self._gc_clock.seconds
        before = _clock()
        result = self._agent.act(*args, **kwargs)
        elapsed = _clock() - before - (self._gc_clock.seconds - paused)
        self._latencies_ms.append(elapsed * 1000.0)
        return result


class TimingBackend(RolloutBackend):
    """A serial rollout backend that clocks collection and the backward passes."""

    def __init__(self, gc_clock: GcClock) -> None:
        self._inner = SerialRolloutBackend()
        self._gc_clock = gc_clock
        self.latencies_ms: list = []
        self.collect_spans: list = []
        self.backward_spans: list = []

    def collect(self, agent, simulator_config, plan, rng):
        start = _clock()
        episodes = self._inner.collect(
            _TimedActs(agent, self.latencies_ms, self._gc_clock), simulator_config, plan, rng
        )
        self.collect_spans.append((start, _clock()))
        return episodes

    def compute_gradients(self, agent, advantages, entropy_weight):
        start = _clock()
        gradients = self._inner.compute_gradients(agent, advantages, entropy_weight)
        self.backward_spans.append((start, _clock()))
        return gradients


def _new_trainer(sizing: TrainSizing, seed: int, gc_clock: GcClock, jobs=None,
                 episodes=None) -> tuple:
    agent = _new_agent(TRAIN_EXECUTORS)
    backend = TimingBackend(gc_clock)
    # Episodes run to completion: with the default curriculum an iteration's
    # work is an exponential draw (0.2 s to 5 s here) and peak memory is the
    # largest draw of the run, so neither would repeat from seed to seed.
    config = TrainingConfig(
        seed=seed, episodes_per_iteration=episodes or sizing.episodes_per_iteration,
        initial_episode_time=1e9, max_episode_time=1e9,
    )
    trainer = ReinforceTrainer(
        agent, SimulatorConfig(num_executors=TRAIN_EXECUTORS, seed=seed),
        jobs or (lambda rng: _training_hand(sizing.num_jobs, rng)), config, backend=backend,
    )
    return agent, trainer, backend


def _training_hand(num_jobs: int, rng: np.random.Generator) -> list:
    """The same TPC-H queries every iteration (odd ids, sizes alternating), order shuffled.

    Peak memory is set by the largest iteration of a run and a new high-water
    mark is slow to reach (every page is touched for the first time: whole
    runs of 10-20 ms decisions).  Hands of equal work put the high-water mark
    in the untimed pass; hands drawn per iteration spread peak RSS by 20% and
    the 99th percentile by 100% across seeds.
    """
    cards = [(2 * index + 1, (2.0, 5.0)[index % 2]) for index in range(num_jobs)]
    return batched_arrivals(
        [make_tpch_job(*cards[index]) for index in rng.permutation(num_jobs)]
    )


def _train_setup(sizing: TrainSizing, seed: int, gc_clock: GcClock) -> list:
    """Agent and trainer construction up to the first finished iteration.

    The iteration is the smallest there is (one episode of two fixed small
    jobs), so the number follows what construction and a first pass through
    rollout, backward and optimiser cost, not the seed's job draw.
    """
    samples = []
    for _ in range(sizing.setups):
        begun = _clock()
        _, trainer, _ = _new_trainer(
            sizing, seed, gc_clock, episodes=1,
            jobs=lambda rng: [make_tpch_job(1, 2.0), make_tpch_job(6, 2.0)],
        )
        trainer.train_iteration(0)
        samples.append(_clock() - begun)
    return samples


def run_train(name: str, sizing: TrainSizing, seed: int, seconds: float, trace: bool) -> dict:
    """REINFORCE iterations through the autograd path, backward passes included."""
    with GcClock() as gc_clock:
        return _run_train(name, sizing, seed, seconds, trace, gc_clock)


def _run_train(name, sizing, seed, seconds, trace, gc_clock) -> dict:
    iterations = max(sizing.warmup_iterations, int(seconds // TRAIN_NOMINAL_ITERATION_S))
    setup_samples = _train_setup(sizing, seed, gc_clock)

    # One identical untimed pass first: the first iterations of a process run
    # slower while the heap grows to hold an iteration's autograd graphs.  Its
    # fingerprints are the reference the timed pass must reproduce.
    agent, trainer, backend = _new_trainer(sizing, seed, gc_clock)
    warm_fingerprints = []
    for iteration in range(sizing.warmup_iterations):
        trainer.train_iteration(iteration)
        warm_fingerprints.append(parameter_fingerprint(agent))

    agent, trainer, backend = _new_trainer(sizing, seed, gc_clock)
    recorder = SpanRecorder(prefix="t.")
    gate_failures: list = []
    slices: list = []
    fingerprints: list = []
    finished_jobs = 0.0
    for iteration in range(iterations):
        taken = len(backend.latencies_ms)
        pauses = len(gc_clock.pauses)
        start = _clock()
        cpu_start = time.process_time()
        stats = trainer.train_iteration(iteration)
        end = _clock()
        cpu = time.process_time() - cpu_start
        latencies = backend.latencies_ms[taken:]
        slices.append(
            Slice(start=start, end=end, wall_s=end - start, cpu_s=cpu, latencies_ms=latencies,
                  attempted=len(latencies), block=iteration)
        )
        fingerprints.append(parameter_fingerprint(agent))
        finished_jobs += stats.mean_finished_jobs
        if trace:
            root = recorder.add("core.reinforce.train_iteration", start, end)
            stages = [
                (recorder.add("core.parallel.collect", *backend.collect_spans[-1], parent=root),
                 backend.collect_spans[-1]),
                (recorder.add("autograd.backward", *backend.backward_spans[-1], parent=root),
                 backend.backward_spans[-1]),
            ]
            for pause_start, pause_end in gc_clock.pauses[pauses:]:
                inside = [sid for sid, (a, b) in stages if a <= pause_start and pause_end <= b]
                recorder.add("autograd.gc", pause_start, pause_end, parent=(inside or [root])[0])
    if fingerprints[: len(warm_fingerprints)] != warm_fingerprints:
        gate_failures.append("the timed pass did not reproduce the untimed pass's parameters")
    if finished_jobs != iterations * sizing.num_jobs:
        gate_failures.append(
            f"episodes finished {finished_jobs / iterations:.2f} of {sizing.num_jobs} jobs on average"
        )

    result = result_record(
        name, trace,
        {
            "loop": "in-process, fixed work", "iterations": iterations,
            "episodes_per_iteration": sizing.episodes_per_iteration,
            "jobs_per_episode": sizing.num_jobs, "executors": TRAIN_EXECUTORS,
            "backend": "serial", "untimed_iterations_first": sizing.warmup_iterations,
        },
        slices, self_peak_rss_mb(), setup_samples, gate_failures, [],
        identity={
            "decisions": len(backend.latencies_ms),
            "parameter_fingerprint": fingerprints[-1],
        },
    )
    if trace:
        means = layer_means(recorder.spans, slices)
        iteration_s = means["core.reinforce.train_iteration"][0] / 1000.0
        collect_s = means["core.parallel.collect"][0] / 1000.0
        backward_s = means["autograd.backward"][0] / 1000.0
        gc_s = means["autograd.gc"][0] * means["autograd.gc"][1] / 1000.0 / iterations
        result["per_layer"] = {
            "core.parallel.collect_s": collect_s,
            "autograd.backward_s": backward_s,
            "autograd.gc_s": gc_s,
            "core.reinforce.update_rest_s": iteration_s - collect_s - backward_s,
            "core.reinforce.iter_s_mean": iteration_s,
        }
        result["spans"] = [recorder]
    return result

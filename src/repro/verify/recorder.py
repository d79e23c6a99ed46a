"""Trace recording: event-source one seeded episode into an :class:`EpisodeTrace`.

The recorder drives an episode through the simulator's one episode loop,
:func:`repro.simulator.run_episode`, and listens on the instrumentation seams
the rest of the codebase exposes:

* the simulator's ``event_listeners`` hook streams every processed event
  (arrivals, completions, churn) into the trace;
* the loop's ``decision_hook`` streams every scheduling decision, stamped
  with an observation fingerprint;
* :class:`~repro.core.agent.DecimaAgent`'s ``logits_tap`` contributes a
  rounded digest of the node logits behind each learned decision;
* the simulator's duration-model generator is checkpointed every
  :data:`RNG_CHECKPOINT_INTERVAL` decisions, catching drift in random-number
  consumption that identical decision streams would hide.

:func:`record_scenario_trace` is the sweep-compatible entry point: a *pure
function* of ``(scenario, scheduler, seed)`` plus size overrides, deriving
its workload from the shared
:func:`repro.experiments.scenarios.scenario_workload_rng` — the same
generator :func:`repro.experiments.sweep.run_cell` uses — so traces recorded
in worker processes are byte-identical to in-process ones, no matter how
cells are spread over workers.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from ..experiments.scenarios import (
    ScenarioSpec,
    get_scenario,
    scenario_workload_rng,
)
from ..schedulers import make_scheduler
from ..simulator.environment import SchedulingEnvironment, run_episode
from .trace import (
    DecisionRecord,
    EpisodeTrace,
    RngCheckpoint,
    TraceEvent,
    TraceHeader,
    logits_digest,
    observation_fingerprint,
    rng_state_digest,
)

# Re-exported: the shared (scenario, seed) -> workload generator derivation
# lives in repro.experiments.scenarios so the sweep engine and this recorder
# cannot drift apart.
__all__ = [
    "TraceRecorder",
    "record_scenario_trace",
    "scenario_workload_rng",
]


# Decisions between two checkpoints of the duration model's generator.
RNG_CHECKPOINT_INTERVAL = 25


class TraceRecorder:
    """Record one episode of ``scheduler`` on ``environment`` into a trace:
    every event, every decision and, for a learned scheduler, its logits."""

    def __init__(self, header: TraceHeader):
        self.header = header

    def record(
        self,
        environment: SchedulingEnvironment,
        scheduler,
        jobs,
        seed: Optional[int] = None,
        max_decisions: Optional[int] = None,
    ) -> EpisodeTrace:
        """Drive one episode and return its trace.

        The environment's listener list and the agent's logits tap are
        restored afterwards, so recording never leaks instrumentation into
        subsequent (unrecorded) episodes.
        """
        trace = EpisodeTrace(header=self.header)
        last_logits = {"digest": None}

        def on_event(kind: str, time: float, detail: dict) -> None:
            trace.events.append(TraceEvent(time=time, event=kind, **detail))

        def logits_tap(logits: np.ndarray) -> None:
            last_logits["digest"] = logits_digest(logits)

        def decision_hook(step, observation, action):
            # Pre-step phase: fingerprint the observation exactly as the
            # scheduler saw it (stepping mutates the live job DAGs in place).
            fingerprint = observation_fingerprint(observation)
            wall_time = observation.wall_time
            if action is not None and action.node is not None:
                job = action.node.job
                fields = dict(
                    job=job.name if job is not None else None,
                    node=action.node.node_id,
                    limit=int(action.parallelism_limit),
                    executor_class=(
                        action.executor_class.name
                        if action.executor_class is not None
                        else None
                    ),
                )
            else:
                fields = {}
            logits = last_logits["digest"]
            last_logits["digest"] = None
            # Hot-swapping schedulers (the online serving loop) expose the
            # version that answered; everything offline records None, which
            # the canonical encoding strips from the line.
            policy_version = getattr(scheduler, "policy_version", None)

            def finish(reward) -> None:
                trace.decisions.append(
                    DecisionRecord(
                        step=step,
                        wall_time=wall_time,
                        obs_fingerprint=fingerprint,
                        reward=float(reward),
                        logits=logits,
                        policy_version=(
                            int(policy_version) if policy_version is not None else None
                        ),
                        **fields,
                    )
                )
                if (step + 1) % RNG_CHECKPOINT_INTERVAL == 0:
                    trace.rng_checkpoints.append(
                        RngCheckpoint(
                            step=step,
                            digest=rng_state_digest(environment.duration_model.rng),
                        )
                    )

            return finish

        taps_agent = hasattr(scheduler, "logits_tap")
        environment.event_listeners.append(on_event)
        if taps_agent:
            previous_tap = scheduler.logits_tap
            scheduler.logits_tap = logits_tap
        try:
            result = run_episode(
                environment,
                scheduler,
                jobs,
                seed=seed,
                max_decisions=max_decisions,
                decision_hook=decision_hook,
            )
        finally:
            environment.event_listeners.remove(on_event)
            if taps_agent:
                scheduler.logits_tap = previous_tap
        # Episode-end checkpoint — skipped when the last in-loop checkpoint
        # already covered the final decision (no duplicate records in the
        # digest) and on zero-decision episodes (no step to anchor it to).
        if trace.decisions and len(trace.decisions) % RNG_CHECKPOINT_INTERVAL != 0:
            trace.rng_checkpoints.append(
                RngCheckpoint(
                    step=len(trace.decisions) - 1,
                    digest=rng_state_digest(environment.duration_model.rng),
                )
            )
        trace.summary = {
            "num_decisions": len(trace.decisions),
            "num_events": len(trace.events),
            "wall_time": float(result.wall_time),
            "total_reward": float(result.total_reward),
            "num_finished": len(result.finished_jobs),
            "num_unfinished": len(result.unfinished_jobs),
        }
        return trace


def record_scenario_trace(
    scenario: Union[str, ScenarioSpec],
    scheduler: str = "fifo",
    seed: int = 0,
    num_jobs: Optional[int] = None,
    num_executors: Optional[int] = None,
    max_decisions: Optional[int] = None,
) -> EpisodeTrace:
    """Record one (scenario, scheduler, seed) episode — sweep-cell compatible.

    ``scenario`` is a registry name or an ad-hoc :class:`ScenarioSpec` (the
    fuzz tests build throwaway specs); everything about the episode is a
    deterministic function of the arguments, so two calls anywhere always
    produce byte-identical traces.
    """
    if isinstance(scenario, ScenarioSpec):
        if num_jobs is not None or num_executors is not None:
            # Silently ignoring the overrides would stamp sizes into the
            # header that the episode was not recorded at, and a later
            # header-driven rerun would resolve a different-sized scenario.
            raise ValueError(
                "num_jobs/num_executors overrides only apply to registry "
                "scenario names; size an ad-hoc ScenarioSpec itself instead"
            )
        spec = scenario
    else:
        spec = get_scenario(scenario, num_jobs=num_jobs, num_executors=num_executors)
    jobs = spec.build_jobs(scenario_workload_rng(spec.name, seed))
    simulator_config = spec.build_config(seed=seed)
    environment = SchedulingEnvironment(simulator_config)
    scheduler_instance = make_scheduler(scheduler, simulator_config)
    header = TraceHeader(
        scenario=spec.name,
        scheduler=scheduler,
        seed=int(seed),
        num_jobs=num_jobs,
        num_executors=num_executors,
        max_decisions=max_decisions,
    )
    return TraceRecorder(header).record(
        environment, scheduler_instance, jobs, seed=seed, max_decisions=max_decisions
    )

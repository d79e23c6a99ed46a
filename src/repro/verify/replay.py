"""Replay: re-drive a recorded episode and report the first divergence.

Two replay modes cover the two directions drift can come from:

* ``rerun`` re-executes the recorded ``(scenario, scheduler, seed)`` cell from
  scratch — same workload derivation, same scheduler factory — and diffs the
  freshly produced trace against the recorded one.  This is the golden-trace
  CI check: any change to the simulator, the workload generators, a scheduler
  or the agent that shifts even one decision fails with full context.
* ``apply`` feeds the *recorded* decisions back into a fresh environment,
  checking at every step that the observation fingerprint still matches and
  that the event stream and rewards come out identical.  This isolates the
  simulator: it must reproduce the episode exactly even with the scheduler
  taken out of the loop.

Divergences are reported, never asserted: :class:`DivergenceReport` carries
the step index, the observation fingerprints on both sides, the mismatching
field and both records, so a failing CI run pinpoints the first drifting
decision without re-running anything locally.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional, Sequence

from ..experiments.scenarios import ScenarioSpec
from ..simulator.environment import Action, SchedulingEnvironment, run_episode
from .recorder import record_scenario_trace, scenario_workload_rng
from .trace import (
    DecisionRecord,
    EpisodeTrace,
    TraceEvent,
    observation_fingerprint,
)

__all__ = [
    "DEFAULT_COMPARE_FIELDS",
    "DivergenceReport",
    "ReplayReport",
    "first_divergence",
    "ReplayEngine",
]

# The decision fields that define behavioural equality.  ``logits`` digests
# are compared only when both sides recorded one (heuristic schedulers have
# none), and their comparison is advisory context rather than part of the
# default contract — see ``first_divergence``.
DEFAULT_COMPARE_FIELDS = (
    "job",
    "node",
    "limit",
    "executor_class",
    "wall_time",
    "reward",
    "obs_fingerprint",
)


@dataclass(frozen=True)
class DivergenceReport:
    """First point where two decision streams disagree, with full context."""

    kind: str  # "decision" | "event" | "rng" | "length" | "summary" | "fingerprint"
    step: int
    field: Optional[str] = None
    expected: Optional[dict] = None
    actual: Optional[dict] = None
    expected_fingerprint: Optional[str] = None
    actual_fingerprint: Optional[str] = None
    message: str = ""

    def describe(self) -> str:
        lines = [
            f"first divergence at {self.kind} #{self.step}"
            + (f" (field {self.field!r})" if self.field else "")
        ]
        if self.message:
            lines.append(f"  {self.message}")
        if self.expected_fingerprint or self.actual_fingerprint:
            lines.append(
                f"  observation fingerprint: expected {self.expected_fingerprint} "
                f"actual {self.actual_fingerprint}"
            )
        if self.expected is not None:
            lines.append(f"  expected: {self.expected}")
        if self.actual is not None:
            lines.append(f"  actual:   {self.actual}")
        return "\n".join(lines)


def first_divergence(
    expected: EpisodeTrace,
    actual: EpisodeTrace,
    fields: Sequence[str] = DEFAULT_COMPARE_FIELDS,
    compare_events: bool = True,
    compare_rng: bool = True,
    compare_logits: bool = False,
) -> Optional[DivergenceReport]:
    """Diff two traces; return the first divergence (or ``None`` if identical).

    Decisions are compared field-by-field (``fields``), then the event
    streams, then the RNG checkpoints.  ``compare_logits`` additionally
    requires matching (rounded) logit digests where both sides recorded one —
    on by the replay engine, off for cross-implementation differentials whose
    logits legitimately differ in the last float bits.
    """
    for index, (lhs, rhs) in enumerate(zip(expected.decisions, actual.decisions)):
        active = list(fields)
        if compare_logits and lhs.logits is not None and rhs.logits is not None:
            active.append("logits")
        for field_name in active:
            if getattr(lhs, field_name) != getattr(rhs, field_name):
                return DivergenceReport(
                    kind="decision",
                    step=index,
                    field=field_name,
                    expected=asdict(lhs),
                    actual=asdict(rhs),
                    expected_fingerprint=lhs.obs_fingerprint,
                    actual_fingerprint=rhs.obs_fingerprint,
                )
    if len(expected.decisions) != len(actual.decisions):
        step = min(len(expected.decisions), len(actual.decisions))
        # Attribute the first surplus record to the stream it came from, so
        # triage reads the right implementation's decision.
        expected_surplus = (
            asdict(expected.decisions[step])
            if len(expected.decisions) > len(actual.decisions)
            else None
        )
        actual_surplus = (
            asdict(actual.decisions[step])
            if len(actual.decisions) > len(expected.decisions)
            else None
        )
        return DivergenceReport(
            kind="length",
            step=step,
            message=(
                f"decision streams have different lengths: expected "
                f"{len(expected.decisions)}, actual {len(actual.decisions)}"
            ),
            expected=expected_surplus,
            actual=actual_surplus,
        )
    if compare_events:
        for index, (lhs, rhs) in enumerate(zip(expected.events, actual.events)):
            if lhs != rhs:
                return DivergenceReport(
                    kind="event",
                    step=index,
                    expected=asdict(lhs),
                    actual=asdict(rhs),
                )
        if len(expected.events) != len(actual.events):
            return DivergenceReport(
                kind="event",
                step=min(len(expected.events), len(actual.events)),
                message=(
                    f"event streams have different lengths: expected "
                    f"{len(expected.events)}, actual {len(actual.events)}"
                ),
            )
    if compare_rng:
        for index, (lhs, rhs) in enumerate(
            zip(expected.rng_checkpoints, actual.rng_checkpoints)
        ):
            if lhs != rhs:
                return DivergenceReport(
                    kind="rng",
                    step=lhs.step,
                    expected=asdict(lhs),
                    actual=asdict(rhs),
                    message=(
                        "decision streams agree but the simulator consumed "
                        "random numbers differently"
                    ),
                )
        if len(expected.rng_checkpoints) != len(actual.rng_checkpoints):
            return DivergenceReport(
                kind="rng",
                step=min(len(expected.rng_checkpoints), len(actual.rng_checkpoints)),
                message="different numbers of RNG checkpoints",
            )
    return None


@dataclass
class ReplayReport:
    """Outcome of replaying one trace."""

    scenario: str
    scheduler: str
    seed: int
    mode: str
    num_decisions: int
    divergence: Optional[DivergenceReport] = None
    digest: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.divergence is None

    def describe(self) -> str:
        status = "OK" if self.ok else "DIVERGED"
        head = (
            f"[{status}] {self.scenario} / {self.scheduler} / seed {self.seed} "
            f"({self.mode}, {self.num_decisions} decisions)"
        )
        if self.divergence is None:
            return head
        return head + "\n" + self.divergence.describe()


class ReplayEngine:
    """Re-drive recorded episodes and diff them against their traces."""

    def __init__(self, mode: str = "rerun"):
        if mode not in ("rerun", "apply"):
            raise ValueError(f"unknown replay mode {mode!r} (use 'rerun' or 'apply')")
        self.mode = mode

    def replay(
        self,
        trace: EpisodeTrace,
        spec: Optional[ScenarioSpec] = None,
    ) -> ReplayReport:
        """Replay ``trace``; ``spec`` overrides the registry lookup for ad-hoc
        scenarios that are not registered under the header's name."""
        if self.mode == "rerun":
            return self._replay_rerun(trace, spec)
        return self._replay_apply(trace, spec)

    # ------------------------------------------------------------------ modes
    def _report(self, trace: EpisodeTrace, divergence) -> ReplayReport:
        return ReplayReport(
            scenario=trace.header.scenario,
            scheduler=trace.header.scheduler,
            seed=trace.header.seed,
            mode=self.mode,
            num_decisions=trace.num_decisions,
            divergence=divergence,
            digest=trace.digest,
        )

    def _replay_rerun(
        self, trace: EpisodeTrace, spec: Optional[ScenarioSpec]
    ) -> ReplayReport:
        header = trace.header
        fresh = record_scenario_trace(
            spec if spec is not None else header.scenario,
            scheduler=header.scheduler,
            seed=header.seed,
            num_jobs=header.num_jobs,
            num_executors=header.num_executors,
            max_decisions=header.max_decisions,
        )
        divergence = first_divergence(trace, fresh, compare_logits=True)
        if divergence is None and trace.digest != fresh.digest:
            divergence = DivergenceReport(
                kind="summary",
                step=trace.num_decisions,
                message=(
                    f"records match but content digests differ (recorded "
                    f"{trace.digest}, replayed {fresh.digest}) — summary drift?"
                ),
                expected=trace.summary,
                actual=fresh.summary,
            )
        return self._report(trace, divergence)

    def _replay_apply(
        self, trace: EpisodeTrace, spec: Optional[ScenarioSpec]
    ) -> ReplayReport:
        header = trace.header
        if spec is None:
            from ..experiments.scenarios import get_scenario

            spec = get_scenario(
                header.scenario,
                num_jobs=header.num_jobs,
                num_executors=header.num_executors,
            )
        jobs = spec.build_jobs(scenario_workload_rng(spec.name, header.seed))
        environment = SchedulingEnvironment(spec.build_config(seed=header.seed))
        events: list[TraceEvent] = []
        environment.event_listeners.append(
            lambda kind, time, detail: events.append(
                TraceEvent(time=time, event=kind, **detail)
            )
        )
        playback = _Playback(trace.decisions)
        divergence = None
        try:
            run_episode(
                environment,
                playback,
                jobs,
                seed=header.seed,
                max_decisions=len(trace.decisions),
                decision_hook=playback.check_reward,
            )
        except _Diverged as diverged:
            divergence = diverged.report
        if divergence is None and playback.played < len(trace.decisions):
            record = trace.decisions[playback.played]
            divergence = DivergenceReport(
                kind="length",
                step=record.step,
                message="episode finished before the recorded stream did",
                expected=asdict(record),
            )
        if divergence is None:
            # Decisions were applied verbatim, so only the *event* stream can
            # still diverge; reuse the recorded decisions to satisfy the diff.
            replayed = EpisodeTrace(
                header=header, events=events, decisions=list(trace.decisions)
            )
            divergence = first_divergence(
                trace, replayed, compare_events=True, compare_rng=False
            )
        return self._report(trace, divergence)


class _Diverged(Exception):
    """Ends an apply-mode replay at its first divergence."""

    def __init__(self, **report):
        self.report = DivergenceReport(**report)
        super().__init__(self.report.describe())


class _Playback:
    """The scheduler of an apply-mode replay: the recorded decisions, in order.

    Before each decision it checks the live observation's fingerprint
    against the recording, and its :meth:`check_reward` hook checks each
    step's reward; the first mismatch raises :class:`_Diverged`.
    """

    def __init__(self, decisions: Sequence[DecisionRecord]):
        self.decisions = decisions
        self.played = 0

    def reset(self) -> None:
        self.played = 0

    def check_reward(self, step: int, observation, action):
        record = self.decisions[step]
        if record.reward is None:
            return None

        def finish(reward) -> None:
            if float(reward) != record.reward:
                raise _Diverged(
                    kind="decision",
                    step=record.step,
                    field="reward",
                    expected=asdict(record),
                    actual={"reward": float(reward)},
                    expected_fingerprint=record.obs_fingerprint,
                    actual_fingerprint=record.obs_fingerprint,
                )

        return finish

    def schedule(self, observation) -> Optional[Action]:
        """The next recorded decision, resolved against the live observation."""
        record = self.decisions[self.played]
        self.played += 1
        fingerprint = observation_fingerprint(observation)
        if fingerprint != record.obs_fingerprint:
            raise _Diverged(
                kind="fingerprint",
                step=record.step,
                expected=asdict(record),
                expected_fingerprint=record.obs_fingerprint,
                actual_fingerprint=fingerprint,
                message="simulator state diverged from the recording",
            )
        if record.job is None:
            return None
        node = next(
            (
                node
                for job in observation.job_dags if job.name == record.job
                for node in job.nodes if node.node_id == record.node
            ),
            None,
        )
        if node is None:
            raise _Diverged(
                kind="decision",
                step=record.step,
                field="job",
                expected=asdict(record),
                message=(
                    f"recorded decision names job {record.job!r} node {record.node!r}, "
                    "which does not exist in the replayed observation"
                ),
            )
        executor_class = None
        if record.executor_class is not None:
            executor_class = next(
                (c for c in observation.executor_classes if c.name == record.executor_class),
                None,
            )
            if executor_class is None:
                # Don't silently apply on the wrong class — that would surface
                # as an unrelated reward or fingerprint mismatch steps later.
                raise _Diverged(
                    kind="decision",
                    step=record.step,
                    field="executor_class",
                    expected=asdict(record),
                    message=(
                        f"recorded executor class {record.executor_class!r} "
                        "does not exist in the replayed observation"
                    ),
                )
        return Action(node, parallelism_limit=record.limit or 1, executor_class=executor_class)

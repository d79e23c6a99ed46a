"""Experience collection from the serving path + the bounded replay buffer.

The serving broker already exposes a per-decision observer seam
(``decision_tap``); :class:`ExperienceCollector` plugs into it and records
each answered request as a picklable :class:`ExperienceStep` — the encoded
observation snapshot, the chosen action in the snapshot's own id space, the
decision source and the policy version that answered it.  Snapshots are
re-encoded from the session's *shadow* observation, so a step is
self-contained: replaying its snapshots through a fresh
:class:`~repro.service.session.SessionState` reconstructs observations whose
``(job_id, node_id)`` ids match the recorded action.

:class:`ReplayBuffer` turns the interleaved multi-session step stream into
REINFORCE-ready episodes: steps are grouped per session in arrival order and
cut into fixed-length segments (serving sessions are long-lived, so segments
stand in for episodes; the reward at each step only needs the next step's
timestamp, which a segment carries).  Both the per-session pending queues and
the finished-episode deque are bounded, so a fleet under sustained load holds
a fixed memory footprint.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..service.protocol import encode_observation

__all__ = [
    "EpisodeRecord",
    "ExperienceCollector",
    "ExperienceStep",
    "ReplayBuffer",
]


@dataclass
class ExperienceStep:
    """One served decision, recorded for background learning (picklable)."""

    session_id: str
    wall_time: float
    num_jobs_in_system: int
    snapshot: dict  # encode_observation() payload, shadow id space
    action: Optional[dict]  # {"job_id", "node_id", "limit"} or None (noop)
    source: str  # "policy" | "fallback" | "noop"
    policy_version: int


@dataclass
class EpisodeRecord:
    """A contiguous per-session segment of steps, treated as one episode."""

    session_id: str
    steps: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.steps)


class ExperienceCollector:
    """A ``decision_tap`` that records every answered request.

    Thread-safe: the server's loop thread appends while the learning manager
    drains.  The deque is bounded so a manager that stops
    draining cannot grow the serving process without bound (oldest steps are
    dropped first).
    """

    def __init__(self, max_steps: int = 50_000):
        if max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        self._steps: deque = deque(maxlen=int(max_steps))
        self._lock = threading.Lock()
        self.num_recorded = 0

    def __call__(self, request, result) -> None:
        action = result.action
        encoded_action = None
        if action is not None and action.node is not None:
            encoded_action = {
                "job_id": int(action.node.job.job_id),
                "node_id": int(action.node.node_id),
                "limit": int(action.parallelism_limit),
            }
        step = ExperienceStep(
            session_id=request.session.session_id,
            wall_time=float(request.observation.wall_time),
            num_jobs_in_system=int(request.observation.num_jobs_in_system),
            snapshot=encode_observation(request.observation),
            action=encoded_action,
            source=result.source,
            policy_version=int(result.policy_version),
        )
        with self._lock:
            self._steps.append(step)
            self.num_recorded += 1

    def drain(self) -> list:
        """Return and clear everything recorded since the last drain."""
        with self._lock:
            steps = list(self._steps)
            self._steps.clear()
        return steps

    def __len__(self) -> int:
        with self._lock:
            return len(self._steps)


class ReplayBuffer:
    """Bounded episode buffer over the interleaved serving step stream."""

    STATS = (
        ("num_episodes", "learning_buffer_episodes", "gauge",
         "Complete episodes in the replay buffer."),
        ("num_pending_steps", "learning_buffer_pending_steps", "gauge",
         "Steps awaiting episode cut in the replay buffer."),
        ("num_steps_added", "learning_buffer_steps_added_total", "counter",
         "Experience steps pumped into the replay buffer."),
        ("num_episodes_cut",),
        ("segment_steps",),
        ("max_episodes",),
    )

    def __init__(
        self,
        segment_steps: int = 8,
        max_episodes: int = 256,
        max_pending_per_session: int = 1024,
    ):
        if segment_steps < 2:
            # A one-step segment has no next-step timestamp: every reward
            # would be zero and the update content-free.
            raise ValueError("segment_steps must be >= 2")
        if max_episodes < 1 or max_pending_per_session < segment_steps:
            raise ValueError(
                "max_episodes must be >= 1 and max_pending_per_session "
                ">= segment_steps"
            )
        self.segment_steps = int(segment_steps)
        self.max_episodes = int(max_episodes)
        self.max_pending_per_session = int(max_pending_per_session)
        self._pending: dict[str, list] = {}
        self._episodes: deque = deque(maxlen=self.max_episodes)
        self.num_steps_added = 0
        self.num_episodes_cut = 0

    def add_steps(self, steps) -> int:
        """Feed drained steps; returns how many new episodes were cut."""
        cut_before = self.num_episodes_cut
        for step in steps:
            pending = self._pending.setdefault(step.session_id, [])
            pending.append(step)
            self.num_steps_added += 1
            if len(pending) > self.max_pending_per_session:
                del pending[0]
        for session_id, pending in self._pending.items():
            while len(pending) >= self.segment_steps:
                segment = pending[: self.segment_steps]
                del pending[: self.segment_steps]
                self._episodes.append(
                    EpisodeRecord(session_id=session_id, steps=segment)
                )
                self.num_episodes_cut += 1
        return self.num_episodes_cut - cut_before

    def __len__(self) -> int:
        return len(self._episodes)

    @property
    def num_episodes(self) -> int:
        return len(self._episodes)

    def num_pending_steps(self) -> int:
        # Copied first: the manager's thread adds sessions while a stats or
        # metrics reader asks, and a dict may not grow under iteration.
        return sum(len(pending) for pending in tuple(self._pending.values()))

    def sample(self, num_episodes: int, rng: np.random.Generator) -> list:
        """Deterministic sample (fixed seed + same contents → same pick).

        Episodes are sampled without replacement, newest-inclusive, and
        returned in buffer order so the update's gradient accumulation order
        is reproducible too.
        """
        if num_episodes < 1 or not self._episodes:
            return []
        count = min(int(num_episodes), len(self._episodes))
        indices = sorted(
            int(i)
            for i in rng.choice(len(self._episodes), size=count, replace=False)
        )
        return [self._episodes[index] for index in indices]

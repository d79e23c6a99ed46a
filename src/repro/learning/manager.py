"""The online-learning control loop: buffer → trainer → store → hot-swap.

:class:`OnlineLearningManager` closes Decima's loop around a live serving
target.  One ``maybe_update()`` tick:

1. **pump** — drain newly recorded experience out of the target
   (``drain_experience()``) into the bounded :class:`ReplayBuffer`;
2. **guard** — if a freshly installed version is still on probation, check
   the SLO counters: not enough decisions yet → wait; circuit-breaker opens
   regressed → **roll back** to the last good checkpoint (republished under a
   *new* monotonic policy version, so per-session version sequences never go
   backwards); clean record → promote it to last-good;
3. **update** — when enough episodes are buffered, run one background
   REINFORCE step (:mod:`.trainer`), persist the result as the next version
   in the :class:`~repro.core.checkpoints.CheckpointStore`, and hot-swap it
   into the target (brokers apply the swap atomically between decision
   rounds, so no session is ever dropped).

The manager never touches the serving agent directly: it owns a shadow agent
for checkpointing, ships plain ``state_dict`` payloads, and the serving side
applies them at its own safe point.  ``start()`` runs the tick on a
background thread; tests and the differential harness call
``maybe_update()`` inline for determinism.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..core.checkpoints import CheckpointStore, build_agent
from ..obs import get_logger, log_event, stat_values
from .buffer import ReplayBuffer
from .trainer import OnlineReinforceTrainer, OnlineTrainerConfig, OnlineTrainerPool

__all__ = ["OnlineLearningConfig", "OnlineLearningManager", "RolloutGuard"]

_logger = get_logger("learning.manager")


class RolloutGuard:
    """SLO gate for freshly installed policy versions.

    Armed with a counter snapshot at install time; the verdict compares the
    current counters against it.  Decision-counted (like the breaker itself)
    so tests are deterministic: ``min_decisions`` served on the new version
    with at most ``max_new_breaker_opens`` fresh breaker opens is a pass.
    """

    def __init__(self, min_decisions: int = 20, max_new_breaker_opens: int = 0):
        if min_decisions < 1:
            raise ValueError("min_decisions must be >= 1")
        if max_new_breaker_opens < 0:
            raise ValueError("max_new_breaker_opens must be >= 0")
        self.min_decisions = int(min_decisions)
        self.max_new_breaker_opens = int(max_new_breaker_opens)
        self._armed: Optional[dict] = None

    @property
    def armed(self) -> bool:
        return self._armed is not None

    def arm(self, snapshot: dict) -> None:
        self._armed = dict(snapshot)

    def disarm(self) -> None:
        self._armed = None

    def verdict(self, snapshot: dict) -> str:
        """``"pending"`` | ``"pass"`` | ``"fail"`` for the armed version."""
        if self._armed is None:
            return "pass"
        decided = snapshot["num_decisions"] - self._armed["num_decisions"]
        if decided < self.min_decisions:
            return "pending"
        new_opens = snapshot["num_breaker_opens"] - self._armed["num_breaker_opens"]
        if new_opens > self.max_new_breaker_opens:
            return "fail"
        return "pass"


@dataclass
class OnlineLearningConfig:
    """Knobs of the manager's control loop."""

    episodes_per_update: int = 4
    segment_steps: int = 8
    max_episodes: int = 256
    seed: int = 0
    # Guard: decisions a new version must serve cleanly before promotion.
    guard_min_decisions: int = 20
    guard_max_new_breaker_opens: int = 0
    # Run the REINFORCE update in a separate process (the serving deployment
    # default) or inline (deterministic harnesses/tests).
    trainer_process: bool = True
    interval_seconds: float = 2.0
    trainer: OnlineTrainerConfig = field(default_factory=OnlineTrainerConfig)


class OnlineLearningManager:
    """Drive background learning + checkpoint rollout for one serving target.

    ``target`` is anything with the learning-target surface
    :class:`~repro.service.batcher.RequestBroker` defines — ``served_policy``,
    ``record_experience``, ``drain_experience``, ``install_policy``,
    ``broker_stats``, ``report_learning`` and the nearest ``metrics`` /
    ``flight`` (either may be ``None``): a bare broker (the differential
    harness), a :class:`~repro.service.server.PolicyServer`, or a started
    :class:`~repro.service.fleet.ServingFleet`.  Attaching the manager is
    what switches experience collection on.
    """

    STATS = (
        ("policy_version",),
        ("current_checkpoint_version", "learning_checkpoint_version", "gauge",
         "Checkpoint version currently published."),
        ("previous_checkpoint_version",),
        ("last_good_checkpoint_version",),
        ("num_updates_applied", "learning_updates_total", "counter",
         "Background REINFORCE updates applied."),
        ("num_rollbacks", "learning_rollbacks_total", "counter",
         "Guard-triggered policy rollbacks."),
        ("guard_armed", "learning_guard_armed", "gauge",
         "1 while a fresh version is on probation."),
        ("num_update_failures", "learning_update_failures_total", "counter",
         "Background ticks that raised (trainer died, checkpoint write failed)."),
    )

    def __init__(
        self,
        target,
        store: CheckpointStore,
        config: Optional[OnlineLearningConfig] = None,
    ):
        self.target = target
        self.store = store
        self.config = config if config is not None else OnlineLearningConfig()
        target.record_experience()
        spec, state, self._serving_version = target.served_policy()
        # Shadow agent: holds whatever weights the manager last published;
        # used for checkpoint saves (the store fingerprints real agents).
        self._shadow = build_agent(spec, state)
        self._current_state = self._shadow.state_dict()
        # The serving weights are the baseline: persist them so there is
        # always a checkpoint to roll back to.
        info = self.store.save(self._shadow)
        self.current_checkpoint_version = info.version
        self.previous_checkpoint_version: Optional[int] = None
        self._last_good_state = self._current_state
        self.last_good_checkpoint_version = info.version
        self.buffer = ReplayBuffer(
            segment_steps=self.config.segment_steps,
            max_episodes=self.config.max_episodes,
        )
        self.guard = RolloutGuard(
            min_decisions=self.config.guard_min_decisions,
            max_new_breaker_opens=self.config.guard_max_new_breaker_opens,
        )
        if self.config.trainer_process:
            self.trainer = OnlineTrainerPool(spec, self.config.trainer)
        else:
            self.trainer = OnlineReinforceTrainer(spec, self.config.trainer)
        self._rng = np.random.default_rng(self.config.seed)
        self.num_updates_applied = 0
        self.num_rollbacks = 0
        self.num_update_failures = 0
        self.last_update_stats: Optional[dict] = None
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        if target.metrics is not None:
            target.metrics.expose(self)
            target.metrics.expose(self.buffer)
        target.report_learning(self.learning_info)

    def _slo_snapshot(self) -> dict:
        """Decision/breaker counters summed over the target's ``broker``
        stats sections (one per live serving process)."""
        brokers = self.target.broker_stats()
        return {
            "num_decisions": sum(b["num_decisions"] for b in brokers),
            "num_slo_breaches": sum(b["num_slo_breaches"] for b in brokers),
            "num_breaker_opens": sum(
                b["breaker"]["num_opens"] for b in brokers if b["breaker"]
            ),
        }

    def _record(self, event: str, level: int = logging.INFO, **fields) -> None:
        """One structured log line, and a flight event where there is a recorder."""
        log_event(_logger, event, level=level, **fields)
        if self.target.flight is not None:
            self.target.flight.record(event, **fields)

    # ------------------------------------------------------------- the loop
    def pump(self) -> int:
        """Drain target experience into the buffer; returns episodes cut."""
        return self.buffer.add_steps(self.target.drain_experience())

    def maybe_update(self) -> dict:
        """One control-loop tick; returns what happened (for observability)."""
        episodes_cut = self.pump()
        status: dict = {
            "episodes_cut": episodes_cut,
            "buffer_episodes": len(self.buffer),
            "policy_version": self._serving_version,
            "action": "idle",
        }
        if self.guard.armed:
            verdict = self.guard.verdict(self._slo_snapshot())
            if verdict == "pending":
                status["action"] = "guard-pending"
                return status
            if verdict == "fail":
                log_event(
                    _logger,
                    "probation_verdict",
                    verdict="fail",
                    policy_version=self._serving_version,
                )
                self.rollback()
                status["action"] = "rollback"
                status["policy_version"] = self._serving_version
                return status
            # Clean probation: the running version becomes the rollback
            # anchor for the next one.
            log_event(
                _logger,
                "probation_verdict",
                verdict="pass",
                policy_version=self._serving_version,
            )
            self.guard.disarm()
            self._last_good_state = self._current_state
            self.last_good_checkpoint_version = self.current_checkpoint_version
        if len(self.buffer) < self.config.episodes_per_update:
            return status
        episodes = self.buffer.sample(self.config.episodes_per_update, self._rng)
        new_state, stats = self.trainer.update(self._current_state, episodes)
        self.last_update_stats = stats
        self._shadow.load_state_dict(new_state)
        info = self.store.save(self._shadow)
        self.previous_checkpoint_version = self.current_checkpoint_version
        self.current_checkpoint_version = info.version
        self._current_state = new_state
        snapshot = self._slo_snapshot()
        self.target.install_policy(new_state, self._serving_version + 1)
        self._serving_version += 1
        self.guard.arm(snapshot)
        self.num_updates_applied += 1
        self._record(
            "checkpoint_installed",
            policy_version=self._serving_version,
            checkpoint_version=info.version,
        )
        status["action"] = "update"
        status["policy_version"] = self._serving_version
        status["checkpoint_version"] = info.version
        status["update_stats"] = stats
        return status

    def rollback(self) -> int:
        """Republish the last good weights under a fresh policy version."""
        self.guard.disarm()
        rolled_back_from = self._serving_version
        self._current_state = self._last_good_state
        self.previous_checkpoint_version = self.current_checkpoint_version
        self.current_checkpoint_version = self.last_good_checkpoint_version
        self.target.install_policy(self._last_good_state, self._serving_version + 1)
        self._serving_version += 1
        self.num_rollbacks += 1
        self._record(
            "policy_rollback",
            level=logging.WARNING,
            from_version=rolled_back_from,
            to_version=self._serving_version,
            checkpoint_version=self.last_good_checkpoint_version,
        )
        if self.target.flight is not None:
            self.target.flight.dump("slo_guard_rollback")
        return self._serving_version

    # ------------------------------------------------------------ lifecycle
    def start(self, interval_seconds: Optional[float] = None) -> None:
        """Run :meth:`maybe_update` on a background thread until :meth:`stop`."""
        if self._thread is not None:
            raise RuntimeError("manager already started")
        interval = (
            self.config.interval_seconds
            if interval_seconds is None
            else float(interval_seconds)
        )
        self._stop.clear()

        def loop() -> None:
            while not self._stop.wait(timeout=interval):
                try:
                    self.maybe_update()
                except Exception as error:  # noqa: BLE001 - learning must not kill serving
                    self.num_update_failures += 1
                    self._record("update_failed", level=logging.WARNING, error=repr(error))

        self._thread = threading.Thread(
            target=loop, name="online-learning-manager", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self.trainer.close()

    def __enter__(self) -> "OnlineLearningManager":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------- reporting
    @property
    def policy_version(self) -> int:
        return self._serving_version

    @property
    def guard_armed(self) -> bool:
        return self.guard.armed

    def learning_info(self) -> dict:
        """Control-plane payload: versions, rollbacks, buffer occupancy."""
        return {**stat_values(self), "buffer": stat_values(self.buffer)}

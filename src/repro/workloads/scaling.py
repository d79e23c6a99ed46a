"""Parallelism scaling models: speed-up curves and work inflation.

Figure 2 of the paper shows that TPC-H queries have very different parallelism
"sweet spots": Q9 on 100 GB keeps speeding up until ~40 parallel tasks, Q2
stops gaining at ~20, and Q9 on 2 GB needs only ~5.  We model each job with an
Amdahl-style speed-up curve plus a *work-inflation* term that kicks in beyond
the sweet spot (wider shuffles slow individual tasks down, §6.2 item 3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ScalingProfile", "estimated_runtime", "runtime_vs_parallelism"]


@dataclass(frozen=True)
class ScalingProfile:
    """Parallelism behaviour of one job.

    Parameters
    ----------
    sweet_spot:
        Degree of parallelism beyond which extra executors add only
        diminishing (and eventually negative) returns.
    parallel_fraction:
        Fraction of the job's work that can be parallelised (Amdahl's law).
    inflation_rate:
        How quickly per-task work inflates beyond the sweet spot: the
        multiplier is ``1 + inflation_rate * (p - sweet_spot) / sweet_spot``.
    """

    sweet_spot: float = 30.0
    parallel_fraction: float = 0.95
    inflation_rate: float = 0.35

    def work_inflation(self, parallelism: int) -> float:
        """Task-duration multiplier at the given job parallelism (>= 1)."""
        excess = max(0.0, parallelism - self.sweet_spot)
        return 1.0 + self.inflation_rate * excess / max(self.sweet_spot, 1.0)

    def scaled(self, size_gb: float, reference_gb: float = 100.0) -> "ScalingProfile":
        """Sweet spot shrinks with input size (Q9 needs 40 tasks at 100 GB but 5 at 2 GB)."""
        if size_gb <= 0:
            raise ValueError("input size must be positive")
        factor = (size_gb / reference_gb) ** 0.55
        return ScalingProfile(
            sweet_spot=max(2.0, self.sweet_spot * factor),
            parallel_fraction=self.parallel_fraction,
            inflation_rate=self.inflation_rate,
        )


def estimated_runtime(total_work: float, profile: ScalingProfile, parallelism: int) -> float:
    """Analytic estimate of job runtime at a fixed degree of parallelism.

    ``runtime(p) = serial + parallel_work * inflation(p) / p`` where ``serial``
    is the non-parallelisable fraction of the work.  This is the model used to
    regenerate Figure 2.
    """
    if parallelism < 1:
        raise ValueError("parallelism must be at least 1")
    serial = total_work * (1.0 - profile.parallel_fraction)
    parallel = total_work * profile.parallel_fraction
    return serial + parallel * profile.work_inflation(parallelism) / parallelism


def runtime_vs_parallelism(
    total_work: float, profile: ScalingProfile, max_parallelism: int = 100
) -> list[tuple[int, float]]:
    """The (parallelism, runtime) series for one job, for Figure 2."""
    return [
        (p, estimated_runtime(total_work, profile, p))
        for p in range(1, max_parallelism + 1)
    ]

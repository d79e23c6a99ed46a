"""Parallel sweep engine over the (scenario x scheduler x seed) matrix.

The engine fans the evaluation cells of a scenario matrix out across a
persistent :class:`~repro.core.parallel.PipeWorkerPool` of worker processes,
then folds the per-cell results into per-scenario
JSON artifacts (``SWEEP_<scenario>.json``) with mean/p95 JCT and bootstrap
confidence intervals.

Determinism is a design constraint, not an afterthought:

* a cell is a pure function of its ``(scenario, scheduler, seed)`` coordinates
  — workers rebuild the scenario registry locally and derive the workload
  generator from a stable hash of the coordinates (``zlib.crc32``, never the
  salted builtin ``hash``);
* the master reassembles worker replies into the original cell order, and all
  aggregation (including the bootstrap resampling) is seeded from the cell
  coordinates alone — so the emitted artifacts are byte-identical no matter
  how many workers the sweep ran on.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from ..core.parallel import PipeWorkerPool
from ..schedulers import make_scheduler, scheduler_names
from ..simulator.environment import SchedulingEnvironment, SimulatorConfig, run_episode
from ..simulator.metrics import latency_histogram
from .scenarios import scenario_registry, scenario_workload_rng

__all__ = [
    "SweepCell",
    "CellResult",
    "make_scheduler",
    "run_cell",
    "SweepWorkerPool",
    "run_sweep",
    "write_sweep_artifacts",
]

_BOOTSTRAP_SAMPLES = 1000


# ------------------------------------------------------------------- the cell
@dataclass(frozen=True)
class SweepCell:
    """Coordinates of one evaluation: scenario x scheduler x seed."""

    scenario: str
    scheduler: str
    seed: int


@dataclass(frozen=True)
class CellResult:
    """Plain-data outcome of one cell (picklable, no job DAGs)."""

    scenario: str
    scheduler: str
    seed: int
    num_finished: int
    num_unfinished: int
    jcts: tuple[float, ...]
    makespan: Optional[float]
    wall_time: float
    total_reward: float
    num_actions: int

    @property
    def average_jct(self) -> Optional[float]:
        if not self.jcts:
            return None
        return float(np.mean(self.jcts))


def _cell_rng(cell: SweepCell) -> np.random.Generator:
    """Workload generator for a cell: a stable function of its coordinates.

    Delegates to :func:`repro.experiments.scenarios.scenario_workload_rng`,
    the shared derivation the verification recorder also uses — keeping
    recorded traces workload-identical to sweep cells by construction.
    """
    return scenario_workload_rng(cell.scenario, cell.seed)


def run_cell(
    cell: SweepCell,
    num_jobs: Optional[int] = None,
    num_executors: Optional[int] = None,
) -> CellResult:
    """Run one (scenario, scheduler, seed) evaluation and summarize it.

    The same seed drives the workload of every scheduler in a scenario row,
    so comparisons are on identical job sequences.
    """
    registry = scenario_registry(num_jobs=num_jobs, num_executors=num_executors)
    spec = registry[cell.scenario]
    jobs = spec.build_jobs(_cell_rng(cell))
    config = spec.build_config(seed=cell.seed)
    scheduler = make_scheduler(cell.scheduler, config)
    environment = SchedulingEnvironment(config)
    result = run_episode(environment, scheduler, jobs, seed=cell.seed)
    jcts = tuple(float(job.completion_duration()) for job in result.finished_jobs)
    return CellResult(
        scenario=cell.scenario,
        scheduler=cell.scheduler,
        seed=cell.seed,
        num_finished=len(result.finished_jobs),
        num_unfinished=len(result.unfinished_jobs),
        jcts=jcts,
        makespan=float(result.makespan) if result.finished_jobs else None,
        wall_time=float(result.wall_time),
        total_reward=float(result.total_reward),
        num_actions=int(result.num_actions),
    )


# ----------------------------------------------------------------- worker pool
def _sweep_worker(num_jobs: Optional[int], num_executors: Optional[int]) -> dict:
    """A sweep worker: ``run`` and ``trace`` each take a list of
    :class:`SweepCell` and return one answer per cell."""

    def run(cells):
        return [
            run_cell(cell, num_jobs=num_jobs, num_executors=num_executors)
            for cell in cells
        ]

    def trace(cells):
        # Record each cell's episode trace and return its content digest (the
        # full trace stays in the worker: digests are all the
        # worker-count-invariance check needs, and they're cheap to ship).
        # Imported lazily — repro.verify imports this module's scenario
        # registry at import time.
        from ..verify.recorder import record_scenario_trace

        return [
            record_scenario_trace(
                cell.scenario,
                scheduler=cell.scheduler,
                seed=cell.seed,
                num_jobs=num_jobs,
                num_executors=num_executors,
            ).digest
            for cell in cells
        ]

    return {"run": run, "trace": trace}


class SweepWorkerPool(PipeWorkerPool):
    """A persistent pool of sweep worker processes (:func:`_sweep_worker`).

    Cells are dealt to the workers and the answers re-interleaved by
    :meth:`~repro.core.parallel.PipeWorkerPool.map`, so results come back in
    cell order whatever the worker count.
    """

    def __init__(
        self,
        num_workers: int,
        num_jobs: Optional[int] = None,
        num_executors: Optional[int] = None,
    ) -> None:
        super().__init__(
            num_workers,
            _sweep_worker,
            lambda index: (num_jobs, num_executors),
            description="sweep worker",
        )

    def run_cells(self, cells: Sequence[SweepCell]) -> list[CellResult]:
        """Fan ``cells`` out over the workers; results come back in cell order."""
        return self.map("run", cells)

    def record_trace_digests(self, cells: Sequence[SweepCell]) -> list[str]:
        """Record each cell's episode trace in a worker; returns the digests.

        Traces are pure functions of the cell coordinates
        (:func:`repro.verify.record_scenario_trace`), so the returned digests
        are identical for any worker count — which is exactly what the
        golden-replay invariance test asserts.
        """
        return self.map("trace", cells)


# ----------------------------------------------------------------- aggregation
def _bootstrap_ci(
    values: Sequence[float], rng: np.random.Generator, num_samples: int = _BOOTSTRAP_SAMPLES
) -> Optional[list[float]]:
    """Percentile-bootstrap 95% CI of the mean of ``values``."""
    values = [float(v) for v in values]
    if not values:
        return None
    if len(values) == 1:
        return [values[0], values[0]]
    array = np.asarray(values)
    indices = rng.integers(0, len(array), size=(num_samples, len(array)))
    means = array[indices].mean(axis=1)
    low, high = np.percentile(means, [2.5, 97.5])
    return [float(low), float(high)]


def _aggregate_scheduler(
    scenario: str, scheduler: str, results: Sequence[CellResult]
) -> dict:
    """Fold one scenario row's per-seed results into summary statistics."""
    per_seed = []
    seed_jcts = []
    pooled_jcts: list[float] = []
    makespans = []
    for result in results:
        average = result.average_jct
        per_seed.append(
            {
                "seed": result.seed,
                "average_jct": average,
                "p95_jct": float(np.percentile(result.jcts, 95)) if result.jcts else None,
                "makespan": result.makespan,
                "num_finished": result.num_finished,
                "num_unfinished": result.num_unfinished,
                "wall_time": result.wall_time,
                "total_reward": result.total_reward,
                "num_actions": result.num_actions,
            }
        )
        if average is not None:
            seed_jcts.append(average)
        pooled_jcts.extend(result.jcts)
        if result.makespan is not None:
            makespans.append(result.makespan)
    # The bootstrap stream is keyed on the cell coordinates so aggregation is
    # independent of worker count and of the other schedulers in the sweep.
    ci_rng = np.random.default_rng(zlib.crc32(f"{scenario}:{scheduler}".encode("utf-8")))
    return {
        "num_seeds": len(results),
        "mean_jct": float(np.mean(seed_jcts)) if seed_jcts else None,
        "jct_ci95": _bootstrap_ci(seed_jcts, ci_rng),
        "p95_jct": float(np.percentile(pooled_jcts, 95)) if pooled_jcts else None,
        # Same p50/p95/p99 summary the serving layer reports for its
        # per-request latencies (simulator.metrics.latency_histogram).
        "jct_histogram": latency_histogram(pooled_jcts),
        "mean_makespan": float(np.mean(makespans)) if makespans else None,
        "total_finished": int(sum(r.num_finished for r in results)),
        "total_unfinished": int(sum(r.num_unfinished for r in results)),
        "per_seed": per_seed,
    }


def aggregate_results(
    results: Sequence[CellResult],
    scenarios: Sequence[str],
    schedulers: Sequence[str],
    num_jobs: Optional[int] = None,
    num_executors: Optional[int] = None,
) -> dict[str, dict]:
    """Group cell results into one summary dict per scenario."""
    registry = scenario_registry(num_jobs=num_jobs, num_executors=num_executors)
    by_key: dict[tuple[str, str], list[CellResult]] = {}
    for result in results:
        by_key.setdefault((result.scenario, result.scheduler), []).append(result)
    aggregates: dict[str, dict] = {}
    for scenario in scenarios:
        spec = registry[scenario]
        seeds = sorted({r.seed for r in results if r.scenario == scenario})
        aggregates[scenario] = {
            "scenario": scenario,
            "description": spec.description,
            "tags": list(spec.tags),
            "num_jobs": spec.num_jobs,
            "num_executors": spec.simulator.num_executors,
            "seeds": seeds,
            "schedulers": {
                scheduler: _aggregate_scheduler(
                    scenario, scheduler, by_key.get((scenario, scheduler), [])
                )
                for scheduler in schedulers
            },
        }
    return aggregates


def write_sweep_artifacts(aggregates: dict[str, dict], out_dir) -> list[Path]:
    """Write one ``SWEEP_<scenario>.json`` per scenario; returns the paths.

    ``sort_keys`` plus a fixed indent make the artifacts byte-stable: two
    sweeps over the same matrix produce identical files regardless of worker
    count.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for scenario, aggregate in aggregates.items():
        path = out / f"SWEEP_{scenario}.json"
        path.write_text(json.dumps(aggregate, indent=2, sort_keys=True) + "\n")
        paths.append(path)
    return paths


# ------------------------------------------------------------------ the sweep
def run_sweep(
    scenarios: Sequence[str],
    schedulers: Sequence[str],
    seeds: Sequence[int],
    num_workers: int = 1,
    out_dir=None,
    num_jobs: Optional[int] = None,
    num_executors: Optional[int] = None,
) -> dict[str, dict]:
    """Evaluate the (scenario x scheduler x seed) matrix and aggregate it.

    Cells run serially when ``num_workers <= 1`` and on a persistent
    :class:`SweepWorkerPool` otherwise; either way the aggregates (and the
    ``SWEEP_<scenario>.json`` artifacts, when ``out_dir`` is given) are
    identical.
    """
    registry = scenario_registry(num_jobs=num_jobs, num_executors=num_executors)
    if not scenarios:
        raise ValueError("need at least one scenario")
    if not schedulers:
        raise ValueError("need at least one scheduler")
    if not seeds:
        raise ValueError("need at least one seed")
    for scenario in scenarios:
        if scenario not in registry:
            known = ", ".join(sorted(registry))
            raise KeyError(f"unknown scenario {scenario!r}; registered scenarios: {known}")
    for scheduler in schedulers:
        if scheduler not in scheduler_names():
            known = ", ".join(scheduler_names())
            raise KeyError(f"unknown scheduler {scheduler!r}; known schedulers: {known}")
    cells = [
        SweepCell(scenario=scenario, scheduler=scheduler, seed=int(seed))
        for scenario in scenarios
        for scheduler in schedulers
        for seed in seeds
    ]
    if num_workers <= 1:
        results = [
            run_cell(cell, num_jobs=num_jobs, num_executors=num_executors)
            for cell in cells
        ]
    else:
        with SweepWorkerPool(
            num_workers=min(num_workers, len(cells)),
            num_jobs=num_jobs,
            num_executors=num_executors,
        ) as pool:
            results = pool.run_cells(cells)
    aggregates = aggregate_results(
        results, scenarios, schedulers, num_jobs=num_jobs, num_executors=num_executors
    )
    if out_dir is not None:
        write_sweep_artifacts(aggregates, out_dir)
    return aggregates

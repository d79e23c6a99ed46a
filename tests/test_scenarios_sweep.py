"""Tests for the scenario registry and the parallel sweep engine.

The two load-bearing properties are determinism (a cell is a pure function of
its coordinates) and worker-count invariance (the aggregates — and the JSON
artifacts written from them — are byte-identical whether the sweep ran
in-process or on a worker pool).
"""

import json
import pickle

import numpy as np
import pytest

from repro.core.agent import DecimaAgent
from repro.experiments import (
    SweepCell,
    SweepWorkerPool,
    aggregate_results,
    get_scenario,
    make_scheduler,
    run_cell,
    run_sweep,
    scenario_names,
    scenario_registry,
    write_sweep_artifacts,
)
from repro.experiments.sweep import _bootstrap_ci
from repro.schedulers import scheduler_names
from repro.schedulers.base import Scheduler

TINY = dict(num_jobs=2, num_executors=6)


class TestScenarioRegistry:
    def test_registry_has_at_least_eight_scenarios(self):
        registry = scenario_registry()
        assert len(registry) >= 8
        # The matrix the paper's evaluation needs, by name.
        for required in (
            "tpch_batched",
            "tpch_poisson",
            "tpch_bursty",
            "tpch_pareto",
            "hetero_executors",
            "multi_resource_packing",
            "executor_churn",
            "straggler_cluster",
        ):
            assert required in registry

    def test_every_scenario_builds_a_deterministic_workload(self):
        for name, spec in scenario_registry(**TINY).items():
            first = spec.build_jobs(np.random.default_rng(7))
            second = spec.build_jobs(np.random.default_rng(7))
            assert [j.name for j in first] == [j.name for j in second], name
            assert [j.arrival_time for j in first] == [j.arrival_time for j in second], name
            assert len(first) == spec.num_jobs

    def test_size_overrides_flow_through(self):
        registry = scenario_registry(num_jobs=3, num_executors=9)
        for name, spec in registry.items():
            assert spec.num_jobs == 3, name
            # multi_resource_config distributes executors over classes but the
            # total must match the override.
            assert spec.simulator.num_executors == 9, name
            assert len(spec.build_jobs(np.random.default_rng(0))) == 3

    def test_build_config_reseeds_without_mutating_the_spec(self):
        spec = get_scenario("tpch_batched", **TINY)
        config = spec.build_config(seed=42)
        assert config.seed == 42
        assert spec.simulator.seed != 42 or spec.build_config(seed=1).seed == 1

    def test_churn_scenario_carries_events_stragglers_carry_inflation(self):
        churn = get_scenario("executor_churn", **TINY)
        assert churn.simulator.churn_events
        kinds = {event.kind for event in churn.simulator.churn_events}
        assert kinds == {"executor_added", "executor_removed"}
        straggler = get_scenario("straggler_cluster", **TINY)
        assert straggler.simulator.duration.straggler_probability > 0

    def test_specs_are_picklable(self):
        for name, spec in scenario_registry(**TINY).items():
            clone = pickle.loads(pickle.dumps(spec))
            assert clone.name == name

    def test_unknown_scenario_raises_with_known_names(self):
        with pytest.raises(KeyError, match="tpch_batched"):
            get_scenario("nope")

    def test_scenario_names_order_is_stable(self):
        assert scenario_names() == tuple(scenario_registry().keys())


class TestSchedulerFactory:
    def test_all_names_build_schedulers(self):
        config = get_scenario("tpch_batched", **TINY).build_config(seed=0)
        for name in scheduler_names():
            assert isinstance(make_scheduler(name, config), Scheduler)

    def test_decima_enables_class_head_on_multi_class_clusters(self):
        hetero = get_scenario("hetero_executors", **TINY).build_config(seed=0)
        agent = make_scheduler("decima", hetero)
        assert isinstance(agent, DecimaAgent)
        assert agent.config.multi_resource
        standalone = get_scenario("tpch_batched", **TINY).build_config(seed=0)
        assert not make_scheduler("decima", standalone).config.multi_resource

    def test_unknown_scheduler_raises(self):
        config = get_scenario("tpch_batched", **TINY).build_config(seed=0)
        with pytest.raises(KeyError, match="fifo"):
            make_scheduler("nope", config)


class TestRunCell:
    def test_cell_is_deterministic(self):
        cell = SweepCell(scenario="tpch_poisson", scheduler="fifo", seed=1)
        first = run_cell(cell, **TINY)
        second = run_cell(cell, **TINY)
        assert first == second
        assert first.num_finished + first.num_unfinished >= TINY["num_jobs"]

    def test_same_seed_gives_same_workload_to_every_scheduler(self):
        fifo = run_cell(SweepCell("tpch_batched", "fifo", 0), **TINY)
        fair = run_cell(SweepCell("tpch_batched", "fair", 0), **TINY)
        # Same jobs, different schedules: job counts match even though the
        # completion times differ.
        assert fifo.num_finished + fifo.num_unfinished == fair.num_finished + fair.num_unfinished

    def test_average_jct_none_without_finished_jobs(self):
        from repro.experiments.sweep import CellResult

        empty = CellResult(
            scenario="s",
            scheduler="x",
            seed=0,
            num_finished=0,
            num_unfinished=2,
            jcts=(),
            makespan=None,
            wall_time=1.0,
            total_reward=0.0,
            num_actions=3,
        )
        assert empty.average_jct is None


class TestSweepEngine:
    SCENARIOS = ["tpch_batched", "executor_churn"]
    SCHEDULERS = ["fifo", "fair"]
    SEEDS = [0, 1]

    def test_serial_and_pooled_sweeps_agree_and_artifacts_are_byte_identical(
        self, tmp_path
    ):
        serial_dir = tmp_path / "serial"
        pooled_dir = tmp_path / "pooled"
        serial = run_sweep(
            self.SCENARIOS, self.SCHEDULERS, self.SEEDS,
            num_workers=1, out_dir=serial_dir, **TINY,
        )
        pooled = run_sweep(
            self.SCENARIOS, self.SCHEDULERS, self.SEEDS,
            num_workers=2, out_dir=pooled_dir, **TINY,
        )
        assert serial == pooled
        for scenario in self.SCENARIOS:
            name = f"SWEEP_{scenario}.json"
            assert (serial_dir / name).read_bytes() == (pooled_dir / name).read_bytes()

    def test_artifact_contents(self, tmp_path):
        aggregates = run_sweep(
            ["straggler_cluster"], ["fifo"], [0, 1], num_workers=1,
            out_dir=tmp_path, **TINY,
        )
        payload = json.loads((tmp_path / "SWEEP_straggler_cluster.json").read_text())
        assert payload == aggregates["straggler_cluster"]
        stats = payload["schedulers"]["fifo"]
        assert stats["num_seeds"] == 2
        assert stats["mean_jct"] is not None and stats["mean_jct"] > 0
        low, high = stats["jct_ci95"]
        assert low <= stats["mean_jct"] <= high or low == high
        assert stats["p95_jct"] >= 0
        assert len(stats["per_seed"]) == 2
        assert payload["seeds"] == [0, 1]

    def test_worker_pool_reassembles_cell_order(self):
        cells = [
            SweepCell("tpch_batched", "fifo", seed) for seed in range(3)
        ] + [SweepCell("tpch_batched", "fair", seed) for seed in range(3)]
        with SweepWorkerPool(num_workers=3, **TINY) as pool:
            results = pool.run_cells(cells)
        assert [(r.scenario, r.scheduler, r.seed) for r in results] == [
            (c.scenario, c.scheduler, c.seed) for c in cells
        ]

    def test_validation_errors(self):
        with pytest.raises(KeyError):
            run_sweep(["nope"], ["fifo"], [0], **TINY)
        with pytest.raises(KeyError):
            run_sweep(["tpch_batched"], ["nope"], [0], **TINY)
        with pytest.raises(ValueError):
            run_sweep(["tpch_batched"], ["fifo"], [], **TINY)
        with pytest.raises(ValueError, match="scenario"):
            run_sweep([], ["fifo"], [0], **TINY)
        with pytest.raises(ValueError, match="scheduler"):
            run_sweep(["tpch_batched"], [], [0], **TINY)

    def test_bootstrap_ci_is_deterministic_and_ordered(self):
        values = [10.0, 12.0, 9.0, 14.0, 11.0]
        first = _bootstrap_ci(values, np.random.default_rng(0))
        second = _bootstrap_ci(values, np.random.default_rng(0))
        assert first == second
        assert first[0] <= first[1]
        assert _bootstrap_ci([], np.random.default_rng(0)) is None
        assert _bootstrap_ci([5.0], np.random.default_rng(0)) == [5.0, 5.0]

    def test_aggregate_handles_missing_rows(self):
        aggregates = aggregate_results(
            [], ["tpch_batched"], ["fifo"], **TINY
        )
        stats = aggregates["tpch_batched"]["schedulers"]["fifo"]
        assert stats["num_seeds"] == 0
        assert stats["mean_jct"] is None
        assert stats["jct_ci95"] is None

    def test_write_sweep_artifacts_names(self, tmp_path):
        aggregates = {"alpha": {"scenario": "alpha"}, "beta": {"scenario": "beta"}}
        paths = write_sweep_artifacts(aggregates, tmp_path)
        assert sorted(p.name for p in paths) == ["SWEEP_alpha.json", "SWEEP_beta.json"]

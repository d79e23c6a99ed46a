"""Tests for the experiment harness (runners, reporting, cheap figure functions)."""

import numpy as np
import pytest

from repro.core import (
    CriticalPathDataset,
    CriticalPathRegressor,
    DecimaAgent,
    train_critical_path_regressor,
)
from repro.core.supervised import graph_features_from_job
from repro.experiments import (
    compare_schedulers,
    concurrency_series,
    figure2_parallelism_curves,
    figure7_arrival_variance,
    figure9b_continuous_arrivals,
    figure14_ablations,
    figure16_appendix_example,
    format_cdf_summary,
    format_scalar_table,
    format_series,
    improvement_over,
    run_scheduler_on_jobs,
    toy_join_dag,
    tune_weighted_fair,
)
from repro.schedulers import FairScheduler, FIFOScheduler, WeightedFairScheduler
from repro.simulator import SimulatorConfig
from repro.workloads import batched_arrivals, make_tpch_job, poisson_arrivals, sample_tpch_jobs


class TestRunnerHelpers:
    def test_compare_schedulers_runs_on_identical_jobs(self):
        rng = np.random.default_rng(0)
        jobs = batched_arrivals(sample_tpch_jobs(3, rng, sizes=(2.0,)))
        config = SimulatorConfig(num_executors=6, seed=0)
        results = compare_schedulers(
            {"fifo": FIFOScheduler(), "fair": FairScheduler()}, jobs, config, seed=0
        )
        assert set(results) == {"fifo", "fair"}
        for result in results.values():
            assert result.all_finished
        # The original jobs must not be mutated by either run.
        assert all(job.completion_time == -1.0 for job in jobs)

    def test_tune_weighted_fair_requires_a_feasible_alpha(self):
        rng = np.random.default_rng(1)
        jobs = batched_arrivals(sample_tpch_jobs(3, rng, sizes=(2.0,)))
        scheduler, jct, table = tune_weighted_fair(
            jobs, config=SimulatorConfig(num_executors=6, seed=0), alphas=(0.0, -1.0)
        )
        assert scheduler.alpha in table
        assert jct == pytest.approx(min(table.values()))

    # At 4 jobs, 6 executors and seed 1 the exponent that is best under
    # duration-noise seed 0 is not the best at seed 1, so tuning at the wrong
    # seed shows in both columns.
    @pytest.mark.parametrize("figure", ["9b", "14"])
    def test_opt_weighted_fair_is_tuned_at_the_comparison_seed(self, figure):
        num_jobs, num_executors, interarrival, seed = 4, 6, 20.0, 1
        if figure == "9b":
            column = figure9b_continuous_arrivals(
                num_jobs=num_jobs,
                mean_interarrival=interarrival,
                num_executors=num_executors,
                seed=seed,
                decima_agent=DecimaAgent(total_executors=num_executors),
            )["opt_weighted_fair"]
            rng = np.random.default_rng(seed)
        else:
            column = figure14_ablations(
                mean_interarrivals=(interarrival,),
                num_jobs=num_jobs,
                num_executors=num_executors,
                seed=seed,
                train_iterations=0,
            )["opt_weighted_fair"][interarrival]
            rng = np.random.default_rng(seed + 17)
        jobs = poisson_arrivals(sample_tpch_jobs(num_jobs, rng), interarrival, rng)
        config = SimulatorConfig(num_executors=num_executors, seed=seed)
        grid = [
            run_scheduler_on_jobs(
                WeightedFairScheduler(alpha=alpha), jobs, config=config, seed=seed
            ).average_jct
            for alpha in np.arange(-2.0, 2.01, 0.5)
        ]
        assert column == min(grid)

    def test_concurrency_series_counts_jobs_in_system(self):
        rng = np.random.default_rng(2)
        jobs = batched_arrivals(sample_tpch_jobs(3, rng, sizes=(2.0,)))
        result = run_scheduler_on_jobs(
            FairScheduler(), jobs, config=SimulatorConfig(num_executors=6, seed=0)
        )
        series = concurrency_series(result, step=1.0)
        counts = [count for _, count in series]
        assert max(counts) == 3
        assert counts[-1] == 0


class TestCheapFigures:
    def test_figure2_curves_have_expected_shapes(self):
        curves = figure2_parallelism_curves(max_parallelism=50)
        assert len(curves) == 3
        for series in curves.values():
            runtimes = [runtime for _, runtime in series]
            assert runtimes[0] > runtimes[-1]  # parallelism helps overall
            assert len(series) == 50

    def test_figure2_small_input_needs_less_parallelism(self):
        curves = figure2_parallelism_curves(
            configurations=((9, 100.0), (9, 2.0)), max_parallelism=80
        )
        def near_optimal_parallelism(series):
            best = min(runtime for _, runtime in series)
            return next(p for p, runtime in series if runtime <= 1.05 * best)

        large = near_optimal_parallelism(curves["Q9, 100 GB"])
        small = near_optimal_parallelism(curves["Q9, 2 GB"])
        assert small < large

    def test_figure7_sequences_differ(self):
        series = figure7_arrival_variance(num_jobs=10, num_executors=20, seed=3)
        assert len(series) == 2
        first, second = series.values()
        assert first != second

    def test_figure16_matches_appendix_numbers(self):
        outputs = figure16_appendix_example(epsilon=0.05)
        assert outputs["critical_path"] == pytest.approx(
            outputs["theoretical_critical_path"], rel=0.05
        )
        assert outputs["optimal_plan"] == pytest.approx(
            outputs["theoretical_optimal"], rel=0.05
        )
        assert outputs["optimal_plan"] < outputs["critical_path"]

    def test_toy_join_dag_structure(self):
        job = toy_join_dag()
        join = job.nodes[-1]
        assert len(join.parents) == 2
        assert job.num_nodes == 6


class TestSupervisedStudy:
    def test_dataset_generation(self):
        dataset = CriticalPathDataset.generate(5, np.random.default_rng(0))
        assert len(dataset) == 5
        for graph, target in zip(dataset.graphs, dataset.targets):
            assert len(target) == graph.num_nodes
            assert np.all(target > 0)

    def test_graph_features_from_job(self):
        job = make_tpch_job(3, 10.0)
        graph = graph_features_from_job(job)
        assert graph.num_nodes == job.num_nodes
        assert graph.num_jobs == 1

    def test_regressor_trains_and_reports_accuracy(self):
        rng = np.random.default_rng(0)
        train_set = CriticalPathDataset.generate(6, rng, min_nodes=4, max_nodes=6)
        test_set = CriticalPathDataset.generate(4, rng, min_nodes=4, max_nodes=6)
        model = CriticalPathRegressor(two_level_aggregation=True, seed=0)
        result = train_critical_path_regressor(
            model, train_set, test_set, num_iterations=10, eval_every=5
        )
        assert 0.0 <= result.final_accuracy <= 1.0
        assert len(result.losses) == 10


class TestReporting:
    def test_format_scalar_table(self):
        text = format_scalar_table("JCT", {"fifo": 100.0, "decima": 60.0})
        assert "fifo" in text and "decima" in text and "60.00" in text

    def test_format_series(self):
        text = format_series("curves", {"a": [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)], "b": []})
        assert "3 points" in text and "(empty)" in text

    def test_format_cdf_summary(self):
        text = format_cdf_summary("cdf", {"fifo": [1.0, 2.0, 3.0], "empty": []})
        assert "p95" in text and "(no samples)" in text

    def test_improvement_over(self):
        results = {"decima": 60.0, "fair": 80.0}
        assert improvement_over(results, "decima", "fair") == pytest.approx(0.25)
        with pytest.raises(KeyError):
            improvement_over(results, "decima", "missing")

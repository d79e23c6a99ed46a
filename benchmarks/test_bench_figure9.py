"""Benchmark: Figure 9 — batched and continuous TPC-H arrivals, Decima vs all baselines."""

from conftest import run_once

from repro.experiments import (
    figure9a_batched_arrivals,
    figure9b_continuous_arrivals,
    format_cdf_summary,
    format_scalar_table,
)


def test_bench_figure9a_batched_arrivals(benchmark):
    jcts = run_once(
        benchmark,
        figure9a_batched_arrivals,
        num_experiments=2,
        num_jobs=8,
        num_executors=20,
        train_iterations=12,
        seed=0,
    )
    print()
    print(format_cdf_summary(
        "Figure 9a: average JCT over random 8-job batches "
        "(paper: Decima >= 21% better than the best heuristic)", jcts))
    means = {name: sum(values) / len(values) for name, values in jcts.items()}
    for name, value in means.items():
        benchmark.extra_info[name] = round(value, 1)

    # Shape checks from §7.2: fair beats FIFO and naive weighted fair.  With
    # the shipped (tiny) training budget Decima is only required to beat the
    # weakest baseline; whether longer training closes the gap to the tuned
    # heuristic is ROADMAP.md item 4's trained reference policy.
    assert means["fair"] < means["fifo"]
    assert means["fair"] < means["naive_weighted_fair"]
    assert means["decima"] < means["naive_weighted_fair"]


def test_bench_figure9b_continuous_arrivals(benchmark):
    jcts = run_once(
        benchmark,
        figure9b_continuous_arrivals,
        num_jobs=15,
        mean_interarrival=35.0,
        num_executors=20,
        train_iterations=5,
        seed=0,
    )
    print()
    print(format_scalar_table(
        "Figure 9b: average JCT with continuous (Poisson) arrivals "
        "(paper: Decima 29% below opt. weighted fair)", jcts))
    for name, value in jcts.items():
        benchmark.extra_info[name] = round(value, 1)
    assert jcts["decima"] > 0

"""Shared configuration for the benchmark harness.

Every benchmark regenerates one figure or table of the paper on a scaled-down
workload (small job counts, few training iterations) so the whole harness runs
on a laptop in minutes.  The printed rows/series follow the paper's figures; a
table of the measured values next to the paper's is planned (ROADMAP.md,
item 4), not yet in the tree.
"""

import pathlib
import sys

import pytest

_BENCH_DIR = pathlib.Path(__file__).parent.resolve()


def pytest_configure(config):
    # Benchmarks print the reproduced rows/series; make sure they are visible
    # even when pytest capture is on by flushing stdout at the end of each run.
    sys.stdout.flush()


def pytest_collection_modifyitems(items):
    # Everything under benchmarks/ is a performance benchmark: tag it with the
    # registered ``bench`` marker so ``-m "not bench"`` deselects the lot.
    # A non-root conftest hook still sees the whole session's items, so scope
    # the marker to this directory.
    for item in items:
        if _BENCH_DIR in pathlib.Path(str(item.fspath)).resolve().parents:
            item.add_marker(pytest.mark.bench)


def run_once(benchmark, function, *args, **kwargs):
    """Run ``function`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)

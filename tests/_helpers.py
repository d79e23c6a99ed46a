"""Shared fixed-seed factories (and the finite-difference gradient) for the test suite.

Consolidates the environment/agent/training factories that used to be
duplicated across ``test_sparse_gnn_equivalence.py``,
``test_parallel_rollout.py`` and ``test_service.py``.  They live in this
uniquely named module (not ``conftest.py`` itself — ``benchmarks/`` has its
own conftest and both directories share ``sys.path``) and are imported with
``from _helpers import ...``; ``tests/conftest.py`` additionally exposes
them as factory fixtures for tests that prefer injection.
"""

import importlib.util
from pathlib import Path

import numpy as np

from repro.core import DecimaAgent, DecimaConfig
from repro.experiments.training import tpch_batch_factory
from repro.simulator import SchedulingEnvironment, SimulatorConfig
from repro.workloads import batched_arrivals, poisson_arrivals, sample_tpch_jobs


def make_tpch_env(
    num_jobs=3, num_executors=8, seed=0, staggered=False, sizes=(2.0, 5.0)
):
    """A seeded TPC-H episode, already reset: returns ``(env, observation)``.

    ``staggered`` switches from batched (all at t=0) to Poisson arrivals so
    the live-job set changes mid-episode.
    """
    rng = np.random.default_rng(seed)
    jobs = sample_tpch_jobs(num_jobs, rng, sizes=sizes)
    if staggered:
        jobs = poisson_arrivals(jobs, 60.0, rng)
    else:
        jobs = batched_arrivals(jobs)
    env = SchedulingEnvironment(SimulatorConfig(num_executors=num_executors, seed=seed))
    return env, env.reset(jobs)


def make_decima_agent(
    total_executors=8, seed=0, sparse=True, use_graph_cache=None, **overrides
):
    """A fixed-seed Decima agent; ``use_graph_cache`` follows ``sparse`` by
    default (the fast path pairs both switches, the oracle disables both)."""
    if use_graph_cache is None:
        use_graph_cache = sparse
    return DecimaAgent(
        total_executors=total_executors,
        config=DecimaConfig(
            seed=seed,
            sparse_message_passing=sparse,
            use_graph_cache=use_graph_cache,
            **overrides,
        ),
    )


def make_training_setup(seed=0, num_executors=5, num_jobs=2, sizes=(2.0,)):
    """The tiny fixed-seed training triple ``(config, agent, job_factory)``."""
    config = SimulatorConfig(num_executors=num_executors, seed=0)
    agent = make_decima_agent(total_executors=num_executors, seed=seed)
    factory = tpch_batch_factory(num_jobs, sizes=sizes)
    return config, agent, factory


def numerical_gradient(fn, x, eps=1e-6):
    """Central-difference gradient of a scalar function of a numpy array."""
    grad = np.zeros_like(x, dtype=float)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        plus = fn(x)
        x[idx] = orig - eps
        minus = fn(x)
        x[idx] = orig
        grad[idx] = (plus - minus) / (2 * eps)
        it.iternext()
    return grad


def load_example(name):
    """Import ``examples/<name>.py`` as a module (``examples`` is no package)."""
    path = Path(__file__).resolve().parent.parent / "examples" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"examples_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module

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
import json
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


def make_decima_agent(total_executors=8, seed=0, agent_class=DecimaAgent, **overrides):
    """A fixed-seed Decima agent; ``agent_class`` may be one of the
    :mod:`repro.verify.oracles` agents, which share its weights."""
    return agent_class(
        total_executors=total_executors,
        config=DecimaConfig(seed=seed, **overrides),
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


LEARNER_PINS = Path(__file__).resolve().parent / "golden" / "learner_pins.json"


def parameter_moments(arrays):
    """Each array's ``[sum, sum of squares]``.

    The learner pins compare these at rtol 1e-9 rather than a digest of the
    parameters: another BLAS may flip an ulp, which a digest cannot forgive.
    """
    return [[float(np.sum(a)), float(np.sum(np.square(a)))] for a in arrays]


# Set by ``--repin-learners`` (tests/conftest.py): the pin assertions then
# write the moments they observe into ``LEARNER_PINS`` instead of comparing.
REPIN_LEARNERS = False


def assert_matches_learner_pin(section, name, arrays):
    """``arrays``' moments equal the pin ``LEARNER_PINS[section][name]``."""
    observed = parameter_moments(arrays)
    pins = json.loads(LEARNER_PINS.read_text())
    if REPIN_LEARNERS:
        pins[section][name] = observed
        LEARNER_PINS.write_text(_format_learner_pins(pins))
        return
    np.testing.assert_allclose(
        np.array(observed), np.array(pins[section][name]), rtol=1e-9, atol=0
    )


def _format_learner_pins(pins):
    """``pins`` as the pin file's JSON: one ``[sum, sum of squares]`` per line."""
    sections = []
    for section, entries in pins.items():
        blocks = []
        for name, moments in entries.items():
            rows = ",\n".join(f"   {json.dumps(pair)}" for pair in moments)
            blocks.append(f"  {json.dumps(name)}: [\n{rows}\n  ]")
        sections.append(f" {json.dumps(section)}: {{\n" + ",\n".join(blocks) + "\n }")
    return "{\n" + ",\n".join(sections) + "\n}\n"


def load_example(name):
    """Import ``examples/<name>.py`` as a module (``examples`` is no package)."""
    path = Path(__file__).resolve().parent.parent / "examples" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"examples_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module

"""Shared fixtures for the test suite.

The fixed-seed factories themselves live in ``tests/_helpers.py`` (module-
level test helpers import them directly with ``from _helpers import ...``);
this conftest exposes them as factory fixtures for tests that prefer
injection, plus the serving-layer lifecycle fixtures (``free_port``,
``server_factory``) that replace ad-hoc port binding and guarantee servers
are stopped even when a test fails mid-body.  ``--repin-learners`` rewrites
``tests/golden/learner_pins.json`` from the run instead of comparing against
it (docs/TESTING.md).
"""

import socket

import pytest

import _helpers
from _helpers import make_decima_agent, make_tpch_env, make_training_setup


def pytest_addoption(parser):
    parser.addoption(
        "--repin-learners",
        action="store_true",
        help="write tests/golden/learner_pins.json from the moments this run "
        "observes instead of comparing against it",
    )


def pytest_configure(config):
    _helpers.REPIN_LEARNERS = config.getoption("--repin-learners")


@pytest.fixture
def tpch_env_factory():
    return make_tpch_env


@pytest.fixture
def decima_agent_factory():
    return make_decima_agent


@pytest.fixture
def training_setup_factory():
    return make_training_setup


# ------------------------------------------------------ embedding-reuse fixtures
@pytest.fixture
def reuse_everywhere(monkeypatch):
    """``forward_data`` keeps its embeddings on graphs of any size: test graphs
    sit far under ``REUSE_MIN_NODES`` and would otherwise never reuse a row."""
    import repro.core.gnn as gnn_module

    monkeypatch.setattr(gnn_module, "REUSE_MIN_NODES", 0)


@pytest.fixture
def level_cuts(reuse_everywhere, monkeypatch):
    """The list that grows by one entry — the number of stale rows — each time
    ``forward_data`` runs partly stale, its frontier levels cut down to the
    stale jobs.  Counted where the GNN decides it (``_recall``), not in
    ``FrontierLevel.restricted_to``, which a departure's edit also calls."""
    import numpy as np

    from repro.core.gnn import GraphNeuralNetwork

    cuts = []
    original = GraphNeuralNetwork._recall

    def counted(gnn, graph):
        state, stale_rows = original(gnn, graph)
        if stale_rows is not None:
            cuts.append(int(np.count_nonzero(stale_rows)))
        return state, stale_rows

    monkeypatch.setattr(GraphNeuralNetwork, "_recall", counted)
    return cuts


# ------------------------------------------------------- serving-layer fixtures
@pytest.fixture
def free_port():
    """A loopback TCP port the OS just handed out.

    For tests that must name an explicit port up front (everything else
    should bind ``port=0`` and read the server's ``address`` back, which can
    never race).
    """
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


@pytest.fixture
def server_factory():
    """Start a policy server (or fleet); always stopped at teardown.

    The factory binds ``port=0`` (the OS picks a free port; read
    ``server.address``) and registers the server for teardown even if the
    test body raises.

    Servers are built through the declarative :class:`ServingConfig` /
    :func:`build_server` path — the same construction story the examples and
    CI smoke scripts use — so kwargs are config fields, not raw server
    kwargs (``num_shards=2`` yields a fleet).
    """
    from repro.service import ServingConfig, build_server

    started = []

    def factory(agent, **kwargs):
        server = build_server(ServingConfig(**kwargs), agent=agent)
        server.start()
        started.append(server)
        return server

    yield factory
    for server in reversed(started):
        server.stop()

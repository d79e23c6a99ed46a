"""Deterministic verification subsystem: trace record/replay + differentials.

The regression backstop every perf PR runs against:

* :mod:`repro.verify.trace` — the versioned JSONL episode-trace format
  (events, decisions, RNG checkpoints, content digest);
* :mod:`repro.verify.recorder` — event-source a seeded episode into a trace
  through the simulator/runner/agent instrumentation seams;
* :mod:`repro.verify.replay` — re-drive a trace (rerun or apply mode) and
  report the first divergence with full context;
* :mod:`repro.verify.differential` — one harness running the same seeded
  scenario through implementation variants (sparse/dense GNN, cached/scratch
  features, serial/parallel rollout, batched/serial serving, any registered
  scheduler) and asserting identical decision streams;
* :mod:`repro.verify.oracles` — the reference side of each pair (dense GNN,
  from-scratch features, per-request dispatch, ...), which no product
  setting selects.

Golden traces for every registry scenario live in ``tests/golden/`` and are
regenerated with ``examples/record_golden_traces.py``; see ``docs/TESTING.md``.
"""

from .differential import (
    IMPLEMENTATION_PAIRS,
    DifferentialReport,
    DifferentialTask,
    register_variant,
    resolve_variant,
    run_differential,
    run_pair,
    variant_names,
)
from .recorder import (
    TraceRecorder,
    record_scenario_trace,
    scenario_workload_rng,
)
from .replay import (
    DEFAULT_COMPARE_FIELDS,
    DivergenceReport,
    ReplayEngine,
    ReplayReport,
    first_divergence,
)
from .trace import (
    TRACE_VERSION,
    DecisionRecord,
    EpisodeTrace,
    RngCheckpoint,
    TraceEvent,
    TraceHeader,
    logits_digest,
    observation_fingerprint,
    read_trace,
    rng_state_digest,
    write_trace,
)

__all__ = [
    "TRACE_VERSION",
    "TraceHeader",
    "TraceEvent",
    "DecisionRecord",
    "RngCheckpoint",
    "EpisodeTrace",
    "observation_fingerprint",
    "logits_digest",
    "rng_state_digest",
    "read_trace",
    "write_trace",
    "TraceRecorder",
    "record_scenario_trace",
    "scenario_workload_rng",
    "DEFAULT_COMPARE_FIELDS",
    "DivergenceReport",
    "ReplayEngine",
    "ReplayReport",
    "first_divergence",
    "DifferentialTask",
    "DifferentialReport",
    "IMPLEMENTATION_PAIRS",
    "register_variant",
    "resolve_variant",
    "run_differential",
    "run_pair",
    "variant_names",
]

"""The benchmark's catalogue: workloads, metrics, units, directions and bounds.

``BENCHMARK.json`` at the repo root is this catalogue in the driver's format;
``bench/test_harness.py`` fails when the two disagree.
"""

from __future__ import annotations

from .fleet import FleetSizing
from .offline import InferSizing, TrainSizing

RUN_SECONDS = 15

# name -> (kind, full sizing, quick sizing, why)
WORKLOADS = {
    "fleet_5j_shared": (
        "fleet",
        FleetSizing(num_jobs=5, placement="shared"),
        FleetSizing(num_jobs=5, placement="shared", warmup_decisions=20, setups=1),
        "small frames, both sessions on one shard: the broker coalesces and the batch "
        "window waits, so router hop, socket and window do most of the round trip",
    ),
    "fleet_20j_spread": (
        "fleet",
        FleetSizing(num_jobs=20, placement="spread"),
        FleetSizing(num_jobs=8, placement="spread", warmup_decisions=20, setups=1),
        "23-42 KB frames, one session per shard: codec and reconcile are up to a third of "
        "the round trip and the batcher is bypassed (batch of 1, no wait)",
    ),
    "infer_200j": (
        "infer",
        InferSizing(),
        InferSizing(num_jobs=20, num_executors=10, warmup_decisions=30, setups=1),
        "in-process act() over a 200-job episode, no service code: GNN propagation and "
        "the simulator dominate, a protocol or router change must not move it",
    ),
    "train_10j": (
        "train",
        TrainSizing(),
        TrainSizing(num_jobs=4, episodes_per_iteration=2, warmup_iterations=1, setups=1),
        "REINFORCE iterations through the autograd path with backward passes: a gain "
        "bought for inference at training's expense, or retained-graph memory, shows here",
    ),
}

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = (
    ("decide_p50_ms", "ms", "lower", 0.25),
    ("decide_p99_ms", "ms", "lower", 0.25),
    ("decisions_per_s", "1/s", "higher", 0.25),
    ("cpu_ms_per_decision", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
)

_SERVICE = (
    ("service.protocol.encode_ms", "ms", "lower"),
    ("service.protocol.decode_ms", "ms", "lower"),
    ("service.protocol.reply_codec_ms", "ms", "lower"),
    ("service.protocol.request_bytes", "bytes", "lower"),
    ("service.protocol.request_bytes_max", "bytes", "lower"),
    ("service.session.reconcile_ms", "ms", "lower"),
    ("service.batcher.model_ms", "ms", "lower"),
    ("service.batcher.batch_size_mean", "count", "higher"),
    ("service.batcher.window_ms", "ms", "lower"),
    ("service.batcher.fallback_share", "ratio", "lower"),
    ("service.router.hop_ms", "ms", "lower"),
    ("service.aioserver.wait_io_ms", "ms", "lower"),
    ("service.fleet.start_s", "s", "lower"),
    ("bench.direct_round_trip_ms", "ms", "lower"),
)
_CORE = (
    ("core.features.ms", "ms", "lower"),
    ("core.features.delta_refresh_share", "ratio", "higher"),
    ("core.features.nodes_mean", "count", "lower"),
    ("core.gnn.ms", "ms", "lower"),
    ("core.policy.ms", "ms", "lower"),
    ("core.agent.select_ms", "ms", "lower"),
    ("simulator.step_ms", "ms", "lower"),
    ("simulator.reset_ms", "ms", "lower"),
    ("bench.generator_share", "ratio", "lower"),
)
_TRAIN = (
    ("core.parallel.collect_s", "s", "lower"),
    ("autograd.backward_s", "s", "lower"),
    ("autograd.gc_s", "s", "lower"),
    ("core.reinforce.update_rest_s", "s", "lower"),
    ("core.reinforce.iter_s_mean", "s", "lower"),
)
PER_LAYER = _SERVICE + _CORE + _TRAIN

# The per-layer metrics each kind of workload promises; the rest are "not run".
LAYERS_OF_KIND = {
    "fleet": tuple(name for name, _, _ in _SERVICE + _CORE),
    "infer": tuple(name for name, _, _ in _CORE),
    "train": tuple(name for name, _, _ in _TRAIN),
}


def benchmark_json() -> dict:
    """The catalogue in the shape of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, (_, _, _, why) in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better} for name, unit, better in PER_LAYER
        ],
    }

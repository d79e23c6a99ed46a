#!/usr/bin/env python3
"""Serve a (trained) Decima policy to many concurrent cluster sessions.

Starts the long-lived policy server of :mod:`repro.service`: clients open
sessions over a newline-delimited-JSON TCP protocol and stream observation
snapshots; the server answers each with a scheduling action, batching the GNN
inference across whatever sessions have a request pending.  A per-request SLO
(``--slo-ms``) guards the policy path — when it breaches, a circuit-breaker
temporarily routes decisions to the per-session fallback heuristic.

The whole deployment is described by one declarative
:class:`~repro.service.ServingConfig` and constructed by
:func:`~repro.service.build_server`: with ``--shards N`` (N > 1) that is a
**sharded fleet** (N shard processes behind a session-hashing router with an
admission limit and a control plane on a second port), otherwise a single
server — the same class every shard runs.

The policy comes from a :class:`~repro.core.checkpoints.CheckpointStore`
(``--store-dir``, the directory ``train_decima_tpch.py --store-dir`` saves
into): the server loads the version the store's pointer names as latest.  An
empty or absent store serves an untrained network.

With ``--online`` the server keeps *learning while it serves*: every decision
is recorded into a replay buffer, a background trainer runs REINFORCE updates
over replayed experience, each result is persisted as the next version in the
same store and hot-swapped into the serving processes under a monotonic policy
version — with an SLO guard that automatically rolls back to the last good
checkpoint if a freshly installed version regresses.

Run:  python examples/run_policy_server.py --store-dir runs/tpch   # latest version
      python examples/run_policy_server.py --executors 20          # untrained net
      python examples/run_policy_server.py --shards 4 --max-sessions 64  # fleet
      python examples/run_policy_server.py --online --store-dir runs/tpch

Then drive traffic at it with examples/run_policy_loadgen.py.
"""

import argparse
import tempfile
import time

from repro.core import CheckpointStore, DecimaAgent, DecimaConfig
from repro.learning import OnlineLearningConfig, OnlineLearningManager, OnlineTrainerConfig
from repro.obs import configure_logging, sample_value, summarize_snapshot
from repro.schedulers import scheduler_names
from repro.service import ControlClient, ServingConfig, build_server


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--executors", type=int, default=10,
                        help="cluster size for an untrained agent (default 10)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="TCP port (0 = pick a free one and print it)")
    parser.add_argument("--fallback", default="fifo", choices=scheduler_names(),
                        help="default SLO-fallback heuristic for new sessions")
    parser.add_argument("--slo-ms", type=float, default=None,
                        help="per-decision latency SLO; unset disables the breaker")
    parser.add_argument("--serial", action="store_true",
                        help="disable cross-session batching (serial reference path)")
    parser.add_argument("--sample", action="store_true",
                        help="sample actions instead of greedy arg-max")
    parser.add_argument("--shards", type=int, default=1,
                        help="shard processes; >1 serves a router-fronted fleet")
    parser.add_argument("--control-port", type=int, default=0,
                        help="control-plane port for the fleet (0 = pick one)")
    parser.add_argument("--max-sessions", type=int, default=None,
                        help="fleet admission limit (concurrent sessions)")
    parser.add_argument("--online", action="store_true",
                        help="learn online: background REINFORCE over served "
                             "decisions, checkpointed + hot-swapped with "
                             "automatic SLO rollback")
    parser.add_argument("--store-dir", default=None,
                        help="CheckpointStore directory: its latest version is "
                             "what gets served, and --online appends versions "
                             "to it (default: an untrained agent; --online "
                             "then learns into a temporary directory)")
    parser.add_argument("--learning-rate", type=float, default=1e-3,
                        help="online REINFORCE learning rate (--online)")
    parser.add_argument("--update-interval", type=float, default=2.0,
                        help="seconds between online update ticks (--online)")
    parser.add_argument("--stats-interval", type=float, default=30.0,
                        help="seconds between live ops lines (one metrics-"
                             "registry snapshot per server/shard: policy "
                             "version, decisions, delta/full feature "
                             "refreshes, per-stage timings, decision "
                             "latency); 0 disables")
    parser.add_argument("--log-level", default="info",
                        help="structured JSON log level on stderr "
                             "(debug/info/warning/error; default info)")
    return parser


def build_policy_server(args):
    """The deployment the flags describe, constructed but not started."""
    agent = None
    store = CheckpointStore(args.store_dir) if args.store_dir else None
    if store is not None and store.latest_version() is not None:
        info = store.info()
        print(f"Loaded version {info.version} from the store {args.store_dir} "
              f"(fingerprint {info.fingerprint[:12]})")
    else:
        print(f"No stored checkpoint — serving an untrained policy "
              f"({args.executors} executors)")
        agent = DecimaAgent(total_executors=args.executors, config=DecimaConfig(seed=0))
    config = ServingConfig(
        num_shards=args.shards,
        host=args.host,
        port=args.port,
        control_port=args.control_port,
        max_sessions=args.max_sessions,
        fallback=args.fallback,
        slo_ms=args.slo_ms,
        batched=not args.serial,
        greedy=not args.sample,
        checkpoint_dir=args.store_dir if agent is None else None,
    )
    return build_server(config, agent=agent)


def attach_online_learning(server, args) -> OnlineLearningManager:
    """The ``--online`` loop around ``server``, appending to ``--store-dir``."""
    return OnlineLearningManager(
        server,
        CheckpointStore(args.store_dir),
        OnlineLearningConfig(
            trainer=OnlineTrainerConfig(learning_rate=args.learning_rate),
        ),
    )


def main() -> None:
    args = build_parser().parse_args()
    configure_logging(level=args.log_level.upper())

    store_tmp = None
    if args.online and args.store_dir is None:
        store_tmp = tempfile.TemporaryDirectory(prefix="decima-online-")
        args.store_dir = store_tmp.name
    server = build_policy_server(args)
    host, port = server.start()
    mode = "serial" if args.serial else "batched"
    slo = f"{args.slo_ms:.0f} ms SLO -> {args.fallback}" if args.slo_ms else "no SLO"
    if args.shards > 1:
        control_host, control_port = server.control_address
        limit = args.max_sessions if args.max_sessions is not None else "unlimited"
        print(f"Serving fleet: {args.shards} shards behind {host}:{port} "
              f"({mode} inference, {slo}, admission limit {limit})")
        print(f"Control plane (health/stats/reconfigure) on "
              f"{control_host}:{control_port}")
    else:
        print(f"Policy server listening on {host}:{port} "
              f"({mode} inference, {slo})")

    manager = None
    if args.online:
        manager = attach_online_learning(server, args)
        manager.start(interval_seconds=args.update_interval)
        print(f"Online learning on (lr={args.learning_rate:g}, "
              f"checkpoint store: {args.store_dir})")
    print("Press Ctrl-C to stop.")

    def print_stats() -> None:
        """Live ops lines straight from the metrics registries."""
        if args.shards > 1:
            with ControlClient(*server.control_address) as control:
                metrics = control.metrics()
                stats = control.stats()
            router = metrics.get("router", {})
            sessions = sample_value(router, "router_active_sessions")
            healthy = sample_value(router, "router_healthy_shards")
            rejected = sample_value(router, "router_sessions_rejected_total")
            print(f"[router] sessions={sessions:.0f} healthy_shards={healthy:.0f} "
                  f"rejected={rejected:.0f}"
                  if sessions is not None else "[router] no metrics")
            for shard in metrics.get("shards", []):
                print(f"[shard {shard['index']}] "
                      f"{summarize_snapshot(shard['metrics'])}")
            learning = stats.get("learning")
            if learning:
                print(f"[learning] v{learning['policy_version']} "
                      f"updates={learning['num_updates_applied']} "
                      f"rollbacks={learning['num_rollbacks']}")
        else:
            print(f"[stats] {summarize_snapshot(server.metrics.snapshot())}")
            if manager is not None:
                info = manager.learning_info()
                print(f"[learning] v{info['policy_version']} "
                      f"updates={info['num_updates_applied']} "
                      f"rollbacks={info['num_rollbacks']}")

    try:
        next_stats = time.monotonic() + args.stats_interval
        while True:
            time.sleep(1.0)
            if args.stats_interval > 0 and time.monotonic() >= next_stats:
                print_stats()
                next_stats = time.monotonic() + args.stats_interval
    except KeyboardInterrupt:
        print("\nStopping...")
        if args.stats_interval > 0:
            print_stats()
    finally:
        if manager is not None:
            manager.stop()
        server.stop()
        if store_tmp is not None:
            store_tmp.cleanup()


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Drive synthetic multi-session load at a policy server and report throughput.

Each session is a simulated cluster running full scheduling episodes with
every decision served remotely; sessions run concurrently until the fleet has
made the requested number of decisions.  The summary (decisions/sec, decision
sources, p50/p95/p99 latency) prints to stdout and can be written as a JSON
artifact with ``--out``.

Run against a server you started yourself:

    python examples/run_policy_server.py --port 5555 &
    python examples/run_policy_loadgen.py --connect 127.0.0.1:5555

or let the load generator self-host one (the CI smoke path):

    python examples/run_policy_loadgen.py --serve --sessions 4 --decisions 200

With ``--shards N`` the self-hosted target is a full sharded fleet (N shard
processes behind the session-hashing router); the summary then also carries a
control-plane snapshot (per-shard health and broker/SLO stats).  Against an
externally-started fleet, pass its control address via ``--control`` to get
the same snapshot.

With ``--online`` (self-host only) the target learns while serving: an
:class:`~repro.learning.OnlineLearningManager` drains per-decision experience,
runs background REINFORCE updates and hot-swaps each checkpointed result into
the serving processes.  The summary then carries a ``learning`` section
(policy version, updates applied, rollbacks, buffer occupancy) — the CI
online smoke asserts at least one update landed with zero dropped sessions.
"""

import argparse
import json
import sys
import tempfile
import time

from repro.core import CheckpointStore, DecimaAgent, DecimaConfig
from repro.learning import (
    OnlineLearningConfig,
    OnlineLearningManager,
    OnlineTrainerConfig,
)
from repro.obs import configure_logging, summarize_snapshot
from repro.service import (
    ControlClient,
    PolicyClient,
    ServingConfig,
    build_server,
    run_load,
)


def parse_address(text: str, flag: str, parser) -> tuple:
    host, _, port = text.partition(":")
    if not port:
        parser.error(f"{flag} needs HOST:PORT")
    return host, int(port)


def watch_fleet(address: tuple, interval: float) -> None:
    """Live ops surface: scrape a running fleet's control plane forever.

    One line per shard per tick, straight from the shard metric registries
    (policy version, decision/fallback counts, feature-refresh mix, stage
    timings, decision latency) plus the online-learning status when a
    manager publishes it.  Ctrl-C stops.
    """
    print(f"Watching fleet control plane at {address[0]}:{address[1]} "
          f"every {interval:g}s (Ctrl-C to stop)")
    with ControlClient(*address) as control:
        while True:
            reply = control.metrics()
            for shard in reply.get("shards", []):
                print(f"[shard {shard['index']}] "
                      f"{summarize_snapshot(shard['metrics'])}")
            learning = control.stats().get("learning")
            if learning:
                print(f"[learning] v{learning['policy_version']} "
                      f"updates={learning['num_updates_applied']} "
                      f"rollbacks={learning['num_rollbacks']}")
            time.sleep(interval)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__)
    target = parser.add_mutually_exclusive_group()
    target.add_argument("--connect", metavar="HOST:PORT",
                        help="address of a running policy server")
    target.add_argument("--serve", action="store_true",
                        help="self-host a server in-process for the duration")
    target.add_argument("--watch", metavar="HOST:PORT",
                        help="drive no load; live-print a running fleet's "
                             "per-shard metrics from its control plane")
    parser.add_argument("--watch-interval", type=float, default=2.0,
                        help="seconds between --watch scrapes (default 2)")
    parser.add_argument("--trace-every", type=int, default=None,
                        help="end-to-end trace every Nth decision per episode "
                             "(trace ids land in the summary; against a fleet "
                             "the first one is reconstructed and printed)")
    parser.add_argument("--sessions", type=int, default=4,
                        help="concurrent cluster sessions (default 4)")
    parser.add_argument("--decisions", type=int, default=200,
                        help="minimum fleet-wide decisions to drive (default 200)")
    parser.add_argument("--jobs", type=int, default=4, help="jobs per episode")
    parser.add_argument("--executors", type=int, default=10,
                        help="executors per session cluster")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--slo-ms", type=float, default=None,
                        help="SLO for the self-hosted server (--serve only)")
    parser.add_argument("--serial", action="store_true",
                        help="self-hosted server answers serially (--serve only)")
    parser.add_argument("--shards", type=int, default=1,
                        help="self-host a fleet with this many shard processes")
    parser.add_argument("--max-sessions", type=int, default=None,
                        help="admission limit for the self-hosted fleet")
    parser.add_argument("--online", action="store_true",
                        help="self-hosted target learns online while serving "
                             "(background REINFORCE + checkpoint hot-swap)")
    parser.add_argument("--learning-rate", type=float, default=1e-3,
                        help="online learning rate (--online)")
    parser.add_argument("--update-interval", type=float, default=0.5,
                        help="seconds between online update ticks (--online)")
    parser.add_argument("--control", metavar="HOST:PORT", default=None,
                        help="control-plane address of an external fleet "
                             "(snapshot health/stats into the summary)")
    parser.add_argument("--out", help="write the summary JSON to this path")
    return parser


def main() -> None:
    parser = build_parser()
    args = parser.parse_args()

    configure_logging()
    if args.watch:
        try:
            watch_fleet(parse_address(args.watch, "--watch", parser),
                        args.watch_interval)
        except KeyboardInterrupt:
            pass
        return
    if not args.connect and not args.serve:
        args.serve = True  # sensible default: a self-contained run
    if args.online and not args.serve:
        parser.error("--online requires the self-hosted target (--serve)")

    server = None
    manager = None
    store_tmp = None
    control_address = None
    if args.control:
        control_address = parse_address(args.control, "--control", parser)
    if args.serve:
        agent = DecimaAgent(
            total_executors=args.executors, config=DecimaConfig(seed=args.seed)
        )
        config = ServingConfig(
            num_shards=args.shards,
            max_sessions=args.max_sessions,
            slo_ms=args.slo_ms,
            batched=not args.serial,
        )
        server = build_server(config, agent=agent)
        host, port = server.start()
        if args.shards > 1:
            control_address = server.control_address
            print(f"Self-hosted serving fleet ({args.shards} shards) on "
                  f"{host}:{port}; control plane on "
                  f"{control_address[0]}:{control_address[1]}")
        else:
            print(f"Self-hosted policy server on {host}:{port}")
        if args.online:
            store_tmp = tempfile.TemporaryDirectory(prefix="decima-online-")
            manager = OnlineLearningManager(
                server,
                CheckpointStore(store_tmp.name),
                OnlineLearningConfig(
                    trainer=OnlineTrainerConfig(learning_rate=args.learning_rate),
                ),
            )
            manager.start(interval_seconds=args.update_interval)
            print(f"Online learning on (lr={args.learning_rate:g})")
    else:
        host, port = parse_address(args.connect, "--connect", parser)

    try:
        summary = run_load(
            host,
            port,
            num_sessions=args.sessions,
            num_jobs=args.jobs,
            num_executors=args.executors,
            min_total_decisions=args.decisions,
            seed=args.seed,
            trace_every=args.trace_every,
        )
        if manager is not None:
            # One final synchronous tick so short runs still get an update in
            # before the snapshot, then stop the background thread.
            manager.maybe_update()
            manager.stop()
            summary["learning"] = manager.learning_info()
        if control_address is not None:
            # Snapshot the fleet's control plane while the shards are still
            # up: per-shard liveness, placement, broker/SLO accounting and
            # every registry (router + shards) in one scrape.
            with ControlClient(*control_address) as control:
                summary["control"] = {
                    "health": control.health(),
                    "stats": control.stats(),
                }
                summary["metrics"] = control.metrics()
                trace_ids = summary.get("trace_ids", [])
                if trace_ids:
                    # The acceptance demo: one traced decision, rebuilt
                    # end-to-end (client -> router -> shard -> stages) from
                    # a single control-plane query.
                    summary["trace"] = control.trace(trace_ids[0])
        else:
            # Single-server target: scrape its registry over the data plane.
            try:
                with PolicyClient(host, port) as scrape:
                    summary["metrics"] = scrape.metrics()
                    trace_ids = summary.get("trace_ids", [])
                    if trace_ids:
                        summary["trace"] = scrape.trace(trace_ids[0])
            except Exception:  # noqa: BLE001 - a pre-v3 server has no scrape
                pass
    finally:
        if manager is not None:
            manager.stop()
        if server is not None:
            server.stop()
        if store_tmp is not None:
            store_tmp.cleanup()

    latency = summary["latency_ms"]
    print(f"\n{summary['decisions']} decisions across {summary['num_sessions']} "
          f"sessions in {summary['elapsed_seconds']:.2f}s "
          f"= {summary['decisions_per_sec']:.1f} decisions/sec")
    print(f"sources: {summary['sources']}")
    print(f"latency ms: p50={latency['p50']:.2f} p95={latency['p95']:.2f} "
          f"p99={latency['p99']:.2f} (n={latency['count']})")
    if "learning" in summary:
        learning = summary["learning"]
        print(f"learning: policy v{learning['policy_version']}, "
              f"{learning['num_updates_applied']} updates applied, "
              f"{learning['num_rollbacks']} rollbacks, "
              f"buffer {learning['buffer']['num_episodes']} episodes")
    if "control" in summary:
        health = summary["control"]["health"]
        print(f"fleet health: {health['num_healthy']}/{len(health['shards'])} "
              f"shards healthy; per-shard decisions: "
              f"{[s.get('broker', {}).get('num_decisions') for s in summary['control']['stats']['shards']]}")
    metrics = summary.get("metrics")
    if metrics is not None:
        if "shards" in metrics:
            for shard in metrics["shards"]:
                print(f"[shard {shard['index']}] "
                      f"{summarize_snapshot(shard['metrics'])}")
        elif "metrics" in metrics:
            print(f"[metrics] {summarize_snapshot(metrics['metrics'])}")
    trace = summary.get("trace")
    if trace is not None and trace.get("spans"):
        chain = " -> ".join(
            f"{span.get('name')}({span.get('service', '?')}, "
            f"{span.get('duration_ms', 0.0):.2f}ms)"
            for span in trace["spans"]
        )
        print(f"trace {trace['trace_id']}: {chain}")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out}")
    if summary["decisions"] < args.decisions:
        print("ERROR: fleet made fewer decisions than requested", file=sys.stderr)
        sys.exit(1)
    if args.online and summary["learning"]["num_updates_applied"] < 1:
        print("ERROR: online learning applied no updates", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()

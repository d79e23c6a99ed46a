"""The system under test of the socket workloads, in a process tree of its own.

Started by :class:`bench.fleet.FleetProcess` as ``python -m bench.fleet_child``.
Builds the agent and a :class:`~repro.service.fleet.ServingFleet` (router in
this process, one shard process each), prints one JSON line with the addresses
and pids, then serves until its stdin closes.  The load generator never shares
an interpreter with the router, so its JSON encoding does not queue behind the
router's on one GIL.
"""

from __future__ import annotations

import json
import os
import sys
import time

from . import FLEET_EXECUTORS, FLEET_SHARDS  # also puts src/ on the path

from repro.core import DecimaAgent, DecimaConfig
from repro.service import ServingConfig, build_server


def main() -> int:
    built = time.perf_counter()
    agent = DecimaAgent(total_executors=FLEET_EXECUTORS, config=DecimaConfig(seed=0))
    fleet = build_server(ServingConfig(num_shards=FLEET_SHARDS, greedy=True), agent)
    before_start = time.perf_counter()
    fleet.start()
    started = time.perf_counter()
    try:
        print(
            json.dumps(
                {
                    "address": list(fleet.address),
                    "control_address": list(fleet.control_address),
                    "shard_addresses": [list(a) for a in fleet.shard_addresses],
                    "pid": os.getpid(),
                    "shard_pids": [process.pid for process in fleet.processes],
                    "build_s": before_start - built,
                    "start_s": started - before_start,
                }
            ),
            flush=True,
        )
        sys.stdin.read()  # the parent closes stdin to ask for shutdown
    finally:
        fleet.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())

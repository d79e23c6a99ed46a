"""Server-side cluster sessions: shadow job DAGs + per-session policy state.

A *session* is one served cluster.  The server never touches the client's
simulator (or real cluster); instead each session keeps **shadow**
:class:`~repro.simulator.jobdag.JobDAG` objects reconstructed from the
client's ``decide`` snapshots.  Reconciliation is incremental and
identity-preserving:

* a job id seen for the first time builds a fresh shadow DAG from the
  snapshot's static structure (nodes, edges, durations);
* a known job id only refreshes the runtime counters *in place* on the
  existing shadow objects;
* job ids absent from a snapshot are dropped (the job finished client-side).

Because unchanged jobs keep their object identity across requests, the
session's own :class:`~repro.core.features.GraphCache` gets structure hits on
every request between job arrivals/completions — the serving hot path reuses
exactly the incremental machinery the training hot path runs on.  Each
session also owns its action rng stream (seeded by the client), which is what
makes a session's decision sequence reproducible — and independent of which
other sessions happened to share its inference batches.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Optional

import numpy as np

from ..core.features import GraphCache
from ..schedulers.base import Scheduler
from ..simulator.environment import Action, Observation
from ..simulator.executor import default_executor_class
from ..simulator.jobdag import JobDAG, Node
from ..simulator.metrics import latency_histogram
from .protocol import ProtocolError

__all__ = ["SessionState"]

# Per-session latency samples kept for the stats report; decisions beyond
# this window age out (the counters never do).
_LATENCY_WINDOW = 10_000


class SessionState:
    """Everything the server holds for one cluster session."""

    def __init__(
        self,
        session_id: str,
        num_executors: int,
        seed: int = 0,
        fallback: Optional[Scheduler] = None,
    ):
        if num_executors <= 0:
            raise ValueError("a session needs a positive executor count")
        self.session_id = session_id
        self.num_executors = int(num_executors)
        self.seed = int(seed)
        self.rng = np.random.default_rng(self.seed)
        self.graph_cache = GraphCache()
        # The graph cache's (delta, full, rebuild) counters as of the last
        # round the broker added them to its totals.
        self.cache_mark = (0, 0, 0)
        self.fallback = fallback
        # job id (client-side) -> shadow JobDAG, plus the reverse mapping used
        # to translate chosen shadow nodes back into wire ids.  The per-job
        # node_id -> Node maps are built once at shadow construction: the
        # shadow objects are identity-stable, and per-decide rebuilds would
        # sit on the serving hot path.
        self._shadow_jobs: dict[int, JobDAG] = {}
        self._shadow_nodes: dict[int, dict[int, Node]] = {}
        self._client_job_id: dict[int, int] = {}
        # Accounting.
        self.num_decisions = 0
        self.num_policy_decisions = 0
        self.num_fallback_decisions = 0
        self.latencies: deque = deque(maxlen=_LATENCY_WINDOW)
        # Newest policy version that answered this session (stamped by the
        # broker); versions are globally monotonic, so per-session they can
        # only ever increase across a hot-swap or rollback.
        self.last_policy_version: Optional[int] = None

    # ------------------------------------------------------------ reconciling
    def _build_shadow_job(self, payload: dict) -> JobDAG:
        nodes = [
            Node(
                node_id=int(spec["node_id"]),
                num_tasks=int(spec["num_tasks"]),
                task_duration=float(spec["task_duration"]),
            )
            for spec in payload["nodes"]
        ]
        return JobDAG(
            nodes,
            edges=[(int(src), int(dst)) for src, dst in payload["edges"]],
            name=str(payload.get("name", "")),
            arrival_time=float(payload.get("arrival_time", 0.0)),
        )

    @staticmethod
    def _static_matches(job: JobDAG, by_id: dict, payload: dict) -> bool:
        """True when a snapshot's static structure equals the shadow job's.

        A client may recycle a job id across episodes; trusting the id alone
        would schedule against a stale DAG.  Node count, per-node task counts
        and durations, and the edge set must all agree — anything else means
        the id now names a different job and the shadow must be rebuilt.
        """
        if len(payload["nodes"]) != len(job.nodes):
            return False
        for spec in payload["nodes"]:
            node = by_id.get(int(spec["node_id"]))
            if (
                node is None
                or node.num_tasks != int(spec["num_tasks"])
                or node.task_duration != float(spec["task_duration"])
            ):
                return False
        edges = {(int(src), int(dst)) for src, dst in payload["edges"]}
        return edges == {(src, dst) for src, dst in job.edges}

    @staticmethod
    def _refresh_counters(by_id: dict, payload: dict) -> None:
        for spec in payload["nodes"]:
            node = by_id[int(spec["node_id"])]
            finished = int(spec["num_finished_tasks"])
            running = int(spec["num_running_tasks"])
            # Log a feature touch only when a counter the feature matrix
            # reads actually changed, so the session's GraphCache delta path
            # refreshes exactly the rows this snapshot moved.
            # (next_task_index feeds no feature column.)
            if (
                finished != node.num_finished_tasks
                or running != node.num_running_tasks
            ) and node.job is not None:
                node.job.log_feature_touch(node)
            node.num_finished_tasks = finished
            node.num_running_tasks = running
            node.next_task_index = int(spec["next_task_index"])

    def observation_from_snapshot(self, payload: dict) -> Observation:
        """Reconcile the shadow state with a ``decide`` snapshot.

        Returns an :class:`Observation` over the shadow DAGs, in the
        snapshot's job order, suitable for ``DecimaAgent.act`` /
        ``act_batch`` and for the fallback heuristics alike.
        """
        job_dags: list[JobDAG] = []
        seen: set[int] = set()
        for job_payload in payload["jobs"]:
            client_id = int(job_payload["job_id"])
            if client_id in seen:
                raise ProtocolError(f"job {client_id} appears twice in one snapshot")
            seen.add(client_id)
            shadow = self._shadow_jobs.get(client_id)
            if shadow is not None and not self._static_matches(
                shadow, self._shadow_nodes[client_id], job_payload
            ):
                # The client recycled this job id for a structurally
                # different job: discard the stale shadow and rebuild.
                self._client_job_id.pop(id(shadow), None)
                shadow = None
            if shadow is None:
                shadow = self._build_shadow_job(job_payload)
                self._shadow_jobs[client_id] = shadow
                self._shadow_nodes[client_id] = {
                    node.node_id: node for node in shadow.nodes
                }
                self._client_job_id[id(shadow)] = client_id
            self._refresh_counters(self._shadow_nodes[client_id], job_payload)
            job_dags.append(shadow)
        for stale_id in [cid for cid in self._shadow_jobs if cid not in seen]:
            shadow = self._shadow_jobs.pop(stale_id)
            self._shadow_nodes.pop(stale_id, None)
            self._client_job_id.pop(id(shadow), None)

        shadow_by_id = self._shadow_jobs
        schedulable: list[Node] = []
        for job_id, node_id in payload.get("schedulable", []):
            nodes_by_id = self._shadow_nodes.get(int(job_id))
            if nodes_by_id is None:
                raise ProtocolError(f"schedulable entry names unknown job {job_id}")
            node = nodes_by_id.get(int(node_id))
            if node is None:
                raise ProtocolError(
                    f"schedulable entry names unknown node {node_id} of job {job_id}"
                )
            schedulable.append(node)

        num_free = int(payload["num_free_executors"])
        source_id = payload.get("source_job")
        cls = default_executor_class()
        return Observation(
            wall_time=float(payload.get("wall_time", 0.0)),
            job_dags=job_dags,
            schedulable_nodes=schedulable,
            num_free_executors=num_free,
            free_executors_by_class=Counter({cls: num_free} if num_free else {}),
            source_job=shadow_by_id.get(int(source_id)) if source_id is not None else None,
            total_executors=int(payload.get("total_executors", self.num_executors)),
            # The serving protocol models homogeneous clusters: no executor
            # classes on the wire, so the agent's multi-resource head (and the
            # action's executor_class) stay disabled end to end.
            executor_classes=[],
            num_jobs_in_system=int(payload.get("num_jobs_in_system", len(job_dags))),
        )

    # -------------------------------------------------------------- encoding
    def encode_action(self, action: Optional[Action]) -> dict:
        """Translate a chosen shadow action back into wire job/node ids."""
        if action is None or action.node is None:
            return {"noop": True}
        node = action.node
        job = node.job
        client_id = self._client_job_id.get(id(job))
        if client_id is None:
            raise ProtocolError("action refers to a job this session does not track")
        return {
            "noop": False,
            "job_id": int(client_id),
            "node_id": int(node.node_id),
            "parallelism_limit": int(action.parallelism_limit),
        }

    def resolve_node(self, job_id: int, node_id: int) -> Node:
        """Shadow node for a wire ``(job_id, node_id)`` pair.

        The online-learning trainer replays recorded snapshots through a
        fresh session and uses this to turn each logged action's wire ids
        back into the replayed shadow objects the agent scores against.
        """
        nodes_by_id = self._shadow_nodes.get(int(job_id))
        if nodes_by_id is None:
            raise KeyError(f"session does not track job {job_id}")
        node = nodes_by_id.get(int(node_id))
        if node is None:
            raise KeyError(f"job {job_id} has no node {node_id}")
        return node

    # ------------------------------------------------------------ accounting
    def record_decision(self, source: str, latency_seconds: float) -> None:
        self.num_decisions += 1
        if source == "fallback":
            self.num_fallback_decisions += 1
        else:
            self.num_policy_decisions += 1
        self.latencies.append(float(latency_seconds))

    @property
    def num_jobs(self) -> int:
        return len(self._shadow_jobs)

    def stats(self) -> dict:
        return {
            "session_id": self.session_id,
            "num_executors": self.num_executors,
            "num_jobs": self.num_jobs,
            "num_decisions": self.num_decisions,
            "num_policy_decisions": self.num_policy_decisions,
            "num_fallback_decisions": self.num_fallback_decisions,
            "last_policy_version": self.last_policy_version,
            "graph_rebuilds": self.graph_cache.num_rebuilds,
            "graph_delta_refreshes": self.graph_cache.num_delta_refreshes,
            "graph_full_refreshes": self.graph_cache.num_full_refreshes,
            # Milliseconds under "latency_ms": the same key and unit the
            # broker and loadgen report, so every layer of the stack reads one
            # schema (the metrics registry's decision_latency_ms series is the
            # aggregated form).
            "latency_ms": latency_histogram(
                [seconds * 1000.0 for seconds in self.latencies]
            ),
        }

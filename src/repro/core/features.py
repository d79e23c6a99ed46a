"""Feature extraction: turn an :class:`Observation` into graph-neural-network inputs.

Per §6.1, the raw feature vector of a stage contains: (i) the number of tasks
remaining in the stage, (ii) the average task duration, (iii) the number of
executors currently working on the stage's job, (iv) the number of free
executors, and (v) whether the free executors are local to the job.  An
optional sixth feature carries the workload's mean interarrival time (the
"hint" of Table 2).

The graph inputs split into two parts with very different lifetimes:

* **Static structure** (:class:`GraphStructure`) — node ordering, CSR-style
  edge arrays, node heights, per-height frontier index arrays, job
  segmentation and the per-node constants (task counts, task durations).
  These only change when a job arrives or completes.
* **Dynamic state** — the ``(N, F)`` feature matrix and the schedulable mask,
  which change on every scheduling decision.

:func:`build_graph_features` assembles both from scratch (the stateless
oracle path); :class:`GraphCache` reuses the structure across consecutive
steps and only refreshes the dynamic arrays, which is what makes the per-step
inference hot path cheap (§5.1, Fig. 5a).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..simulator.environment import Observation
from ..simulator.jobdag import JobDAG, Node

__all__ = [
    "FeatureConfig",
    "FrontierLevel",
    "GraphStructure",
    "GraphFeatures",
    "GraphCache",
    "GraphBatch",
    "MergedStructureCache",
    "build_graph_features",
    "compute_node_heights",
    "merge_structures",
]


# The one feature column every row shares: the free-executor count is written
# into all of them each step, so row 0 tells whether any row kept its value.
FREE_EXECUTORS_COLUMN = 3


@dataclass
class FeatureConfig:
    """Normalisation scales and optional extra features."""

    task_scale: float = 200.0
    duration_scale: float = 100.0
    executor_scale: float = 50.0
    include_interarrival_hint: bool = False
    interarrival_scale: float = 100.0
    # Appendix J: when task-duration estimates are unavailable for unseen jobs,
    # the duration feature is zeroed out and Decima must rely on the graph
    # structure and task counts alone.
    include_task_duration: bool = True

    @property
    def num_features(self) -> int:
        return 6 if self.include_interarrival_hint else 5


@dataclass
class FrontierLevel:
    """Index arrays for one height level of bottom-up message passing.

    The nodes at height ``h`` (``target_rows``) aggregate messages from their
    children, all of which sit at heights ``< h`` and therefore already hold
    their final embedding (Fig. 5a).  ``child_rows`` lists the *unique* child
    rows feeding the level (``node_f`` runs once per unique child); each edge
    into the level is then described by ``message_rows[k]`` (an index into
    ``child_rows``) and ``target_segments[k]`` (an index into ``target_rows``).
    """

    height: int
    target_rows: np.ndarray      # (F_h,) rows updated at this height
    child_rows: np.ndarray       # (U_h,) unique rows whose messages feed the level
    message_rows: np.ndarray     # (E_h,) per-edge index into child_rows
    target_segments: np.ndarray  # (E_h,) per-edge index into target_rows

    @property
    def num_targets(self) -> int:
        return int(len(self.target_rows))

    def restricted_to(self, keep_rows: np.ndarray) -> "FrontierLevel":
        """This level over the node rows the boolean mask ``keep_rows`` selects.

        The mask must select whole jobs (edges never cross jobs, so an edge
        survives exactly when its child does).  ``target_rows`` and
        ``child_rows`` keep their row numbers in the full graph; the per-edge
        indices into them are re-numbered through a cumulative sum of the
        keep masks — the :func:`_drop_jobs` idiom, array ops only.
        """
        keep_targets = keep_rows[self.target_rows]
        keep_children = keep_rows[self.child_rows]
        keep_edges = keep_children[self.message_rows]
        new_children = np.cumsum(keep_children, dtype=np.intp) - 1
        new_targets = np.cumsum(keep_targets, dtype=np.intp) - 1
        return FrontierLevel(
            height=self.height,
            target_rows=self.target_rows[keep_targets],
            child_rows=self.child_rows[keep_children],
            message_rows=new_children[self.message_rows[keep_edges]],
            target_segments=new_targets[self.target_segments[keep_edges]],
        )


def compute_node_heights(
    num_nodes: int, edge_parent_rows: np.ndarray, edge_child_rows: np.ndarray
) -> np.ndarray:
    """Longest distance from each node to a leaf (0 for leaves), vectorized.

    Peels the DAG level by level with numpy index arithmetic instead of the
    historical per-node Python double loop: round ``r`` assigns height ``r``
    to every node whose children were all peeled in earlier rounds, which is
    exactly ``1 + max(child heights)``.
    """
    heights = np.zeros(num_nodes, dtype=np.int64)
    if num_nodes == 0 or edge_parent_rows.size == 0:
        return heights
    # CSR over the *child* endpoint: edges sorted by child row so the edges
    # incident to any frontier of children are a union of contiguous slices.
    order = np.argsort(edge_child_rows, kind="stable")
    sorted_parents = edge_parent_rows[order]
    sorted_children = edge_child_rows[order]
    offsets = np.searchsorted(sorted_children, np.arange(num_nodes + 1))
    unresolved_children = np.bincount(edge_parent_rows, minlength=num_nodes)
    frontier = np.flatnonzero(unresolved_children == 0)
    height = 0
    while frontier.size:
        heights[frontier] = height
        starts = offsets[frontier]
        lengths = offsets[frontier + 1] - starts
        total = int(lengths.sum())
        if total == 0:
            break
        exclusive = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        edge_index = np.repeat(starts - exclusive, lengths) + np.arange(total)
        parents = sorted_parents[edge_index]
        np.subtract.at(unresolved_children, parents, 1)
        candidates = np.unique(parents)
        frontier = candidates[unresolved_children[candidates] == 0]
        height += 1
    return heights


def _build_frontier_levels(
    heights: np.ndarray, edge_parent_rows: np.ndarray, edge_child_rows: np.ndarray
) -> list[FrontierLevel]:
    """Group edges by the height of their parent endpoint (one level per height)."""
    levels: list[FrontierLevel] = []
    if edge_parent_rows.size == 0:
        return levels
    parent_heights = heights[edge_parent_rows]
    max_height = int(heights.max())
    for height in range(1, max_height + 1):
        selected = parent_heights == height
        level_parents = edge_parent_rows[selected]
        level_children = edge_child_rows[selected]
        target_rows = np.flatnonzero(heights == height)
        target_segments = np.searchsorted(target_rows, level_parents).astype(np.intp)
        child_rows, message_rows = np.unique(level_children, return_inverse=True)
        levels.append(
            FrontierLevel(
                height=height,
                target_rows=target_rows.astype(np.intp),
                child_rows=child_rows.astype(np.intp),
                message_rows=message_rows.astype(np.intp),
                target_segments=target_segments,
            )
        )
    return levels


class GraphStructure:
    """Everything about a set of live job DAGs that is static between steps.

    Node rows are ordered job-by-job in the order of ``jobs``; ``node_index``
    maps a :class:`Node` object back to its row.  The instance holds strong
    references to the jobs, so caching it keyed on job identity is safe (the
    ``id()`` values cannot be recycled while the structure is alive).
    """

    def __init__(self, jobs: list[JobDAG]):
        nodes = [node for job in jobs for node in job.nodes]
        node_index = {id(node): row for row, node in enumerate(nodes)}
        num_nodes = len(nodes)
        parent_rows: list[int] = []
        child_rows: list[int] = []
        for parent_row, node in enumerate(nodes):
            for child in node.children:
                parent_rows.append(parent_row)
                child_rows.append(node_index[id(child)])
        parents = np.asarray(parent_rows, dtype=np.intp)
        children = np.asarray(child_rows, dtype=np.intp)
        if parents.size:
            # Deduplicate repeated edges so the sparse aggregation matches the
            # dense 0/1 adjacency semantics (an edge contributes one message).
            keys = np.unique(parents * num_nodes + children)
            parents = (keys // num_nodes).astype(np.intp)
            children = (keys % num_nodes).astype(np.intp)
        self._assemble(
            jobs,
            edge_parent_rows=parents,
            edge_child_rows=children,
            # Static per-node feature constants.
            num_tasks=np.fromiter(
                (node.num_tasks for node in nodes), dtype=np.float64, count=num_nodes
            ),
            task_durations=np.fromiter(
                (node.task_duration for node in nodes), dtype=np.float64, count=num_nodes
            ),
            node_heights=compute_node_heights(num_nodes, parents, children),
            # A structure built from one observation is a single graph.
            job_graph_ids=np.zeros(len(jobs), dtype=np.intp),
        )

    @classmethod
    def from_arrays(cls, jobs: list[JobDAG], **arrays) -> "GraphStructure":
        """A structure over ``jobs`` whose per-node and per-edge arrays are
        already known (see :meth:`_assemble`) — derived, not re-walked."""
        structure = cls.__new__(cls)
        structure._assemble(jobs, **arrays)
        return structure

    def _assemble(
        self,
        jobs: list[JobDAG],
        *,
        edge_parent_rows: np.ndarray,
        edge_child_rows: np.ndarray,
        num_tasks: np.ndarray,
        task_durations: np.ndarray,
        node_heights: np.ndarray,
        job_graph_ids: np.ndarray,
        num_graphs: int = 1,
    ) -> None:
        """The one place a structure's attributes are filled in.

        The arrays must describe ``jobs`` in row order (job by job, each
        job's nodes in ``job.nodes`` order) with edges sorted by (parent,
        child) row; everything else — the row maps and the frontier levels —
        is derived here.
        """
        self.jobs = list(jobs)
        self.nodes = [node for job in self.jobs for node in job.nodes]
        self.node_index = {id(node): row for row, node in enumerate(self.nodes)}
        self.job_position = {id(job): pos for pos, job in enumerate(self.jobs)}
        # Row range of job k is job_node_offsets[k]:job_node_offsets[k + 1]
        # (rows are ordered job-by-job), which lets per-job columns like the
        # source-job one-hot be written as a slice instead of a comparison.
        self.job_node_offsets = np.concatenate(
            ([0], np.cumsum([job.num_nodes for job in self.jobs]))
        ).astype(np.intp)
        self.job_ids = np.repeat(
            np.arange(len(self.jobs), dtype=np.intp), np.diff(self.job_node_offsets)
        )
        self.edge_parent_rows = edge_parent_rows
        self.edge_child_rows = edge_child_rows
        self.num_tasks = num_tasks
        self.task_durations = task_durations
        self.node_heights = node_heights
        self.frontier_levels = _build_frontier_levels(
            node_heights, edge_parent_rows, edge_child_rows
        )
        self._adjacency: Optional[np.ndarray] = None
        self._scaled_durations: dict[float, np.ndarray] = {}
        # Graph segmentation: merged structures (cross-session batching,
        # :func:`merge_structures`) assign every job the index of the
        # component graph it came from, so the GNN can keep one *per-graph*
        # global embedding instead of mixing sessions.
        self.job_graph_ids = job_graph_ids
        self.num_graphs = num_graphs

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_jobs(self) -> int:
        return len(self.jobs)

    @property
    def adjacency(self) -> np.ndarray:
        """Dense ``(N, N)`` matrix with A[parent, child] = 1, built on demand.

        Only the dense-oracle message-passing path reads this; the sparse
        path works entirely from the edge and frontier index arrays.
        """
        if self._adjacency is None:
            matrix = np.zeros((self.num_nodes, self.num_nodes))
            matrix[self.edge_parent_rows, self.edge_child_rows] = 1.0
            self._adjacency = matrix
        return self._adjacency

    def scaled_task_durations(self, config: "FeatureConfig") -> np.ndarray:
        """``task_durations / duration_scale``, cached — it is fully static.

        The division is the one per-node scaling product whose operands never
        change between steps, so it is the only one that can be cached without
        perturbing bits (pre-dividing ``num_tasks`` would turn the dynamic
        ``(num_tasks - finished) / scale`` into a different rounding).
        """
        cached = self._scaled_durations.get(config.duration_scale)
        if cached is None:
            cached = self.task_durations / config.duration_scale
            self._scaled_durations[config.duration_scale] = cached
        return cached

    def matches(self, jobs: list[JobDAG]) -> bool:
        """True when ``jobs`` is the identical (same objects, same order) job set."""
        return len(jobs) == len(self.jobs) and all(
            cached is live for cached, live in zip(self.jobs, jobs)
        )


def _surviving_jobs(cached: list[JobDAG], jobs: list[JobDAG]) -> Optional[np.ndarray]:
    """Mask over ``cached`` selecting ``jobs``, or ``None``.

    ``None`` unless ``jobs`` is ``cached`` with some jobs removed: the same
    objects in the same order (one ordered-subsequence walk, O(jobs)).
    """
    keep = np.zeros(len(cached), dtype=bool)
    remaining = iter(enumerate(cached))
    for job in jobs:
        for position, candidate in remaining:
            if candidate is job:
                keep[position] = True
                break
        else:
            return None
    return keep


def _drop_jobs(
    structure: GraphStructure, keep_jobs: np.ndarray
) -> tuple[GraphStructure, np.ndarray]:
    """``GraphStructure`` of the jobs ``keep_jobs`` selects, and the node rows kept.

    Derived from ``structure`` by dropping the other jobs' row ranges, not
    rebuilt: edges never cross jobs and heights are component-local, so the
    per-node arrays just lose rows and the surviving edges are re-indexed
    through a cumulative sum of the row mask (monotone, so they stay in the
    sorted order a fresh build gives them).  The result equals
    ``GraphStructure(kept jobs)`` array for array.
    """
    keep_nodes = keep_jobs[structure.job_ids]
    new_rows = np.cumsum(keep_nodes, dtype=np.intp) - 1
    keep_edges = keep_nodes[structure.edge_parent_rows]
    kept_jobs = list(itertools.compress(structure.jobs, keep_jobs))
    edited = GraphStructure.from_arrays(
        kept_jobs,
        edge_parent_rows=new_rows[structure.edge_parent_rows[keep_edges]],
        edge_child_rows=new_rows[structure.edge_child_rows[keep_edges]],
        num_tasks=structure.num_tasks[keep_nodes],
        task_durations=structure.task_durations[keep_nodes],
        node_heights=structure.node_heights[keep_nodes],
        job_graph_ids=np.zeros(len(kept_jobs), dtype=np.intp),
    )
    return edited, keep_nodes


class GraphFeatures:
    """Vectorised view of all job DAGs in one observation.

    Combines the step-invariant :class:`GraphStructure` with the per-step
    dynamic arrays (feature matrix and schedulable mask).  By default fresh
    dynamic arrays are handed out every step — a rollout's
    :class:`~repro.core.agent.ActionRecord` holds this object until the update
    re-scores the decision (and the retained-graph reference path's autograd
    graph references ``node_features``), so whatever outlives the step must
    never see them mutated in place.  The plain inference hot path opts into
    buffer reuse (``GraphCache.features(..., reuse_buffers=True)``), in which
    case the arrays are arena-owned and only valid until the next step.
    """

    __slots__ = ("structure", "node_features", "schedulable_mask")

    def __init__(
        self,
        structure: GraphStructure,
        node_features: np.ndarray,
        schedulable_mask: np.ndarray,
    ):
        self.structure = structure
        self.node_features = node_features
        self.schedulable_mask = schedulable_mask

    # ------------------------------------------------- structure delegation
    @property
    def jobs(self) -> list[JobDAG]:
        return self.structure.jobs

    @property
    def nodes(self) -> list[Node]:
        return self.structure.nodes

    @property
    def node_index(self) -> dict[int, int]:
        return self.structure.node_index

    @property
    def job_ids(self) -> np.ndarray:
        return self.structure.job_ids

    @property
    def node_heights(self) -> np.ndarray:
        return self.structure.node_heights

    @property
    def adjacency(self) -> np.ndarray:
        return self.structure.adjacency

    @property
    def frontier_levels(self) -> list[FrontierLevel]:
        return self.structure.frontier_levels

    @property
    def num_nodes(self) -> int:
        return self.structure.num_nodes

    @property
    def num_jobs(self) -> int:
        return self.structure.num_jobs

    @property
    def num_graphs(self) -> int:
        return self.structure.num_graphs

    @property
    def job_graph_ids(self) -> np.ndarray:
        return self.structure.job_graph_ids

    def row_of(self, node: Node) -> int:
        return self.structure.node_index[id(node)]


def _refresh_dynamic_features(
    structure: GraphStructure,
    observation: Observation,
    config: FeatureConfig,
    interarrival_hint: Optional[float],
    out: np.ndarray,
    rows: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Write the ``(N, F)`` feature matrix for the current step into ``out``.

    With ``rows=None`` every per-node column is recomputed (the full-refresh
    path, identical in ops — and therefore in bits — to the historical
    ``np.fromiter`` build).  With ``rows`` (the delta path) only those rows'
    task-counter columns (0 and 2) are recomputed; the static duration column
    is left untouched and must already be populated.  The columns that depend
    on whole-observation scalars (free executors, source-job one-hot,
    interarrival hint) are cheap vectorized writes and refresh every step on
    both paths.
    """
    nodes = structure.nodes
    if rows is None:
        num_nodes = structure.num_nodes
        finished = np.fromiter(
            (node.num_finished_tasks for node in nodes),
            dtype=np.float64,
            count=num_nodes,
        )
        running = np.fromiter(
            (node.num_running_tasks for node in nodes),
            dtype=np.float64,
            count=num_nodes,
        )
        np.subtract(structure.num_tasks, finished, out=out[:, 0])
        out[:, 0] /= config.task_scale
        if config.include_task_duration:
            out[:, 1] = structure.scaled_task_durations(config)
        else:
            out[:, 1] = 0.0
        np.divide(running, config.executor_scale, out=out[:, 2])
    elif rows.size:
        finished = np.fromiter(
            (nodes[row].num_finished_tasks for row in rows),
            dtype=np.float64,
            count=rows.size,
        )
        running = np.fromiter(
            (nodes[row].num_running_tasks for row in rows),
            dtype=np.float64,
            count=rows.size,
        )
        out[rows, 0] = (structure.num_tasks[rows] - finished) / config.task_scale
        out[rows, 2] = running / config.executor_scale
    out[:, FREE_EXECUTORS_COLUMN] = observation.num_free_executors / config.executor_scale
    out[:, 4] = 0.0
    source = observation.source_job
    if source is not None:
        source_pos = structure.job_position.get(id(source))
        if source_pos is not None:
            start, stop = structure.job_node_offsets[source_pos: source_pos + 2]
            out[start:stop, 4] = 1.0
    if config.include_interarrival_hint:
        hint = interarrival_hint if interarrival_hint is not None else 0.0
        out[:, 5] = hint / config.interarrival_scale
    return out


def _dynamic_node_features(
    structure: GraphStructure,
    observation: Observation,
    config: FeatureConfig,
    interarrival_hint: Optional[float],
) -> np.ndarray:
    """Fresh ``(N, F)`` feature matrix for the current step, fully vectorized."""
    features = np.zeros((structure.num_nodes, config.num_features))
    return _refresh_dynamic_features(
        structure, observation, config, interarrival_hint, features
    )


def _refresh_schedulable_mask(
    structure: GraphStructure, observation: Observation, out: np.ndarray
) -> np.ndarray:
    """Write the schedulable mask into ``out`` with one vectorized scatter."""
    out[:] = False
    schedulable = observation.schedulable_nodes
    if schedulable:
        node_index = structure.node_index
        rows = np.fromiter(
            (node_index[id(node)] for node in schedulable),
            dtype=np.intp,
            count=len(schedulable),
        )
        out[rows] = True
    return out


def _schedulable_mask(structure: GraphStructure, observation: Observation) -> np.ndarray:
    mask = np.zeros(structure.num_nodes, dtype=bool)
    return _refresh_schedulable_mask(structure, observation, mask)


def build_graph_features(
    observation: Observation,
    config: Optional[FeatureConfig] = None,
    interarrival_hint: Optional[float] = None,
) -> GraphFeatures:
    """Assemble the node-feature matrix, structure and masks for the GNN.

    Stateless: rebuilds the full :class:`GraphStructure` every call.  The
    per-step hot path should go through :class:`GraphCache` instead, which
    only does this work when the set of live jobs changes.
    """
    config = config or FeatureConfig()
    structure = GraphStructure(list(observation.job_dags))
    return GraphFeatures(
        structure=structure,
        node_features=_dynamic_node_features(
            structure, observation, config, interarrival_hint
        ),
        schedulable_mask=_schedulable_mask(structure, observation),
    )


class GraphCache:
    """Incremental graph-feature builder for consecutive ``act()`` steps.

    Keys the cached :class:`GraphStructure` on the identity sequence of live
    :class:`JobDAG` objects: consecutive observations over the same jobs reuse
    the edge/frontier/height arrays and only refresh the dynamic feature
    matrix.  When jobs leave (the observed list is the cached one with some
    jobs removed) the structure is *edited* — their row ranges are dropped
    with array ops, see :func:`_drop_jobs` — while an arrival, a reorder or a
    new episode (whose jobs are fresh deep copies) transparently triggers a
    build from scratch, ``GraphStructure(jobs)``, which is also the reference
    the edit is tested against.  ``num_rebuilds`` counts both.

    The cache holds no network outputs, so weight updates between training
    iterations never invalidate it; call :meth:`reset` at episode boundaries
    to release the references it keeps to the previous episode's jobs.

    On top of structure reuse the cache keeps the ``(N, F)`` feature matrix
    itself alive between steps and replays only the *delta*: each
    :class:`JobDAG` logs the nodes whose task counters changed
    (``log_feature_touch``), and :meth:`features` recomputes exactly those
    rows plus the cheap whole-column scalars.  A departure drops the same
    rows from the matrix and the survivors keep their touch-log marks, so it
    stays on the delta path.  Any event that invalidates per-row history — a
    structure built from scratch, feature-config change, a job's
    ``feature_epoch`` advancing (episode reset, log compaction) — falls back
    to one full refresh.  The two paths are bit-identical by construction
    (same scalar ops per row) and pinned to each other by a hypothesis
    property test.  ``num_delta_refreshes`` / ``num_full_refreshes`` count
    which path served each step, for serving telemetry.
    """

    def __init__(self) -> None:
        self._structure: Optional[GraphStructure] = None
        self.num_rebuilds = 0
        self.num_delta_refreshes = 0
        self.num_full_refreshes = 0
        self._features_buf: Optional[np.ndarray] = None
        self._mask_buf: Optional[np.ndarray] = None
        self._config_key: Optional[tuple] = None
        # id(job) -> (feature_epoch, touch-log position) at the last refresh.
        # Jobs are pinned by the cached structure, so the id() keys are
        # collision-safe; structure_for drops the entries of departed jobs.
        self._job_marks: dict[int, tuple[int, int]] = {}

    def reset(self) -> None:
        """Drop the cached structure (and the job references that pin it)."""
        self._structure = None
        self._features_buf = None
        self._mask_buf = None
        self._config_key = None
        self._job_marks = {}

    def structure_for(self, jobs: list[JobDAG]) -> GraphStructure:
        """Return a structure for ``jobs``, changing it only if the job list did.

        When ``jobs`` is the cached list with some jobs removed, the cached
        structure and feature buffer lose those jobs' rows and the survivors
        keep their touch-log marks, so the next refresh is still a delta.
        Anything else (an arrival, a reorder, a new episode) is a full build.
        """
        cached = self._structure
        if cached is not None and cached.matches(jobs):
            return cached
        keep_jobs = None if cached is None else _surviving_jobs(cached.jobs, jobs)
        if keep_jobs is None:
            self._structure = GraphStructure(list(jobs))
            self._features_buf = None
            self._job_marks = {}
        else:
            self._structure, keep_nodes = _drop_jobs(cached, keep_jobs)
            if self._features_buf is not None:
                self._features_buf = self._features_buf[keep_nodes]
            # Departed jobs are no longer pinned, so their id() keys must go.
            for job in itertools.compress(cached.jobs, ~keep_jobs):
                self._job_marks.pop(id(job), None)
        self.num_rebuilds += 1
        return self._structure

    def _mark_jobs(self, structure: GraphStructure) -> None:
        """Snapshot every job's epoch + log position after a full refresh."""
        self._job_marks = {
            id(job): (job.feature_epoch, job.drain_feature_touches(0)[0])
            for job in structure.jobs
        }

    def _touched_rows(self, structure: GraphStructure) -> Optional[np.ndarray]:
        """Rows touched since the last refresh, or ``None`` to force a full one."""
        marks = self._job_marks
        rows: list[int] = []
        updates: list[tuple[int, int, int]] = []
        node_index = structure.node_index
        for job in structure.jobs:
            mark = marks.get(id(job))
            if mark is None or mark[0] != job.feature_epoch:
                return None
            position, touched = job.drain_feature_touches(mark[1])
            updates.append((id(job), job.feature_epoch, position))
            for node in touched:
                rows.append(node_index[id(node)])
        for key, epoch, position in updates:
            marks[key] = (epoch, position)
        if not rows:
            return np.empty(0, dtype=np.intp)
        return np.unique(np.asarray(rows, dtype=np.intp))

    def features(
        self,
        observation: Observation,
        config: Optional[FeatureConfig] = None,
        interarrival_hint: Optional[float] = None,
        reuse_buffers: bool = False,
    ) -> GraphFeatures:
        """Graph inputs for ``observation``, reusing cached static structure.

        With ``reuse_buffers=True`` (decisions nothing is kept of!) the
        returned arrays are the cache's own persistent buffers — valid until
        the next call, never safe to record for a later update or to hand to
        autograd.  The default copies them out; those copies are what a
        rollout's records wait for their advantages with.
        """
        config = config or FeatureConfig()
        structure = self.structure_for(observation.job_dags)
        num_nodes = structure.num_nodes
        config_key = (
            config.task_scale,
            config.duration_scale,
            config.executor_scale,
            config.include_interarrival_hint,
            config.interarrival_scale,
            config.include_task_duration,
        )
        buf = self._features_buf
        rows: Optional[np.ndarray] = None
        if buf is not None and buf.shape == (num_nodes, config.num_features) \
                and self._config_key == config_key:
            rows = self._touched_rows(structure)
        if rows is None:
            if buf is None or buf.shape != (num_nodes, config.num_features):
                buf = np.zeros((num_nodes, config.num_features))
                self._features_buf = buf
            self._config_key = config_key
            _refresh_dynamic_features(
                structure, observation, config, interarrival_hint, buf
            )
            self._mark_jobs(structure)
            self.num_full_refreshes += 1
        else:
            _refresh_dynamic_features(
                structure, observation, config, interarrival_hint, buf, rows=rows
            )
            self.num_delta_refreshes += 1
        mask = self._mask_buf
        if mask is None or mask.shape[0] != num_nodes:
            mask = np.zeros(num_nodes, dtype=bool)
            self._mask_buf = mask
        _refresh_schedulable_mask(structure, observation, mask)
        if not reuse_buffers:
            buf = buf.copy()
            mask = mask.copy()
        return GraphFeatures(
            structure=structure, node_features=buf, schedulable_mask=mask
        )


# --------------------------------------------------------- cross-graph merging
def merge_structures(structures: Sequence[GraphStructure]) -> GraphStructure:
    """Concatenate several :class:`GraphStructure`\\ s into one disconnected graph.

    Node rows (and job positions) of component ``k`` are offset by the totals
    of components ``0..k-1``; no per-node recomputation happens — heights are
    component-local already, so the per-node arrays are concatenated and the
    edge rows offset.  The result is exactly the structure that
    ``GraphStructure(jobs_0 + jobs_1 + ...)`` would build, except that
    ``job_graph_ids`` records which component each job came from (so the GNN
    keeps one global embedding per component instead of one overall).
    """
    if not structures:
        raise ValueError("merge_structures needs at least one structure")
    node_offsets = np.cumsum([0] + [s.num_nodes for s in structures])
    return GraphStructure.from_arrays(
        [job for structure in structures for job in structure.jobs],
        edge_parent_rows=np.concatenate(
            [s.edge_parent_rows + node_offsets[k] for k, s in enumerate(structures)]
        ).astype(np.intp),
        edge_child_rows=np.concatenate(
            [s.edge_child_rows + node_offsets[k] for k, s in enumerate(structures)]
        ).astype(np.intp),
        num_tasks=np.concatenate([s.num_tasks for s in structures]),
        task_durations=np.concatenate([s.task_durations for s in structures]),
        node_heights=np.concatenate([s.node_heights for s in structures]),
        job_graph_ids=np.repeat(
            np.arange(len(structures), dtype=np.intp), [s.num_jobs for s in structures]
        ),
        num_graphs=len(structures),
    )


class MergedStructureCache:
    """Reuse a merged :class:`GraphStructure` while its components are stable.

    The request broker merges the per-session structures on every batched
    decision; between decisions the sessions' own :class:`GraphCache`\\ s keep
    their structures alive and unchanged, so the merged structure (keyed on
    the identity *sequence* of component structures) is almost always a hit.
    Strong references to the components make the ``id()`` key collision-safe.
    """

    STATS = (
        ("num_rebuilds", "merged_structure_rebuilds_total", "counter",
         "Mega-graph merged-structure rebuilds"),
    )

    def __init__(self) -> None:
        self._components: Optional[tuple[GraphStructure, ...]] = None
        self._merged: Optional[GraphStructure] = None
        self.num_rebuilds = 0
        self._features_buf: Optional[np.ndarray] = None
        self._mask_buf: Optional[np.ndarray] = None

    def reset(self) -> None:
        self._components = None
        self._merged = None
        self._features_buf = None
        self._mask_buf = None

    def merged_structure(self, structures: Sequence[GraphStructure]) -> GraphStructure:
        components = tuple(structures)
        if self._merged is None or self._components != components:
            self._merged = merge_structures(components)
            self._components = components
            self.num_rebuilds += 1
        return self._merged

    def feature_buffers(self, shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
        """Persistent merged feature/mask arenas of exactly ``shape``."""
        if self._features_buf is None or self._features_buf.shape != shape:
            self._features_buf = np.empty(shape)
            self._mask_buf = np.empty(shape[0], dtype=bool)
        return self._features_buf, self._mask_buf


class GraphBatch:
    """Several sessions' :class:`GraphFeatures` fused into one mega-graph.

    ``features`` is a regular :class:`GraphFeatures` over the disconnected
    union (so the GNN and the node-scoring head run on it unchanged, in one
    pass); ``node_slices`` / ``job_slices`` map each component back to its row
    ranges for splitting per-session decisions out of the batched forward.
    """

    __slots__ = ("features", "components", "node_slices", "job_slices")

    def __init__(
        self,
        features: GraphFeatures,
        components: Sequence[GraphFeatures],
        node_slices: list[slice],
        job_slices: list[slice],
    ):
        self.features = features
        self.components = list(components)
        self.node_slices = node_slices
        self.job_slices = job_slices

    @property
    def num_components(self) -> int:
        return len(self.components)

    @classmethod
    def merge(
        cls,
        components: Sequence[GraphFeatures],
        structure_cache: Optional[MergedStructureCache] = None,
        reuse_buffers: bool = False,
    ) -> "GraphBatch":
        """Fuse per-session features into one batch (single components pass through).

        ``reuse_buffers=True`` (inference only, needs a ``structure_cache``)
        concatenates into the cache's persistent arenas instead of allocating
        — the merged arrays are then valid only until the next merge.
        """
        if not components:
            raise ValueError("GraphBatch.merge needs at least one component")
        node_slices = []
        job_slices = []
        node_cursor = job_cursor = 0
        for component in components:
            node_slices.append(slice(node_cursor, node_cursor + component.num_nodes))
            job_slices.append(slice(job_cursor, job_cursor + component.num_jobs))
            node_cursor += component.num_nodes
            job_cursor += component.num_jobs
        if len(components) == 1:
            return cls(components[0], components, node_slices, job_slices)
        widths = {component.node_features.shape[1] for component in components}
        if len(widths) > 1:
            raise ValueError(
                f"cannot merge graphs with different feature widths: {sorted(widths)}"
            )
        structures = [component.structure for component in components]
        if structure_cache is not None:
            structure = structure_cache.merged_structure(structures)
        else:
            structure = merge_structures(structures)
        feature_blocks = [c.node_features for c in components]
        mask_blocks = [c.schedulable_mask for c in components]
        if reuse_buffers and structure_cache is not None:
            width = feature_blocks[0].shape[1]
            node_features, schedulable_mask = structure_cache.feature_buffers(
                (structure.num_nodes, width)
            )
            np.concatenate(feature_blocks, axis=0, out=node_features)
            np.concatenate(mask_blocks, out=schedulable_mask)
        else:
            node_features = np.vstack(feature_blocks)
            schedulable_mask = np.concatenate(mask_blocks)
        features = GraphFeatures(
            structure=structure,
            node_features=node_features,
            schedulable_mask=schedulable_mask,
        )
        return cls(features, components, node_slices, job_slices)

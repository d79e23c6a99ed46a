"""Outside-in probes: the harness calls each layer's public function and times it.

Nothing under ``src/`` is instrumented.  A public function that a later change
removes or renames is reported as *absent* (a warning and no number), never as
zero and never by crashing the end-to-end run.
"""

from __future__ import annotations

import bisect
import importlib
from typing import Optional, Sequence

import numpy as np

from .measure import Slice
from .spans import SpanRecorder, stamp

__all__ = ["StagedAgent", "layer_means", "mean_of", "public"]


def public(path: str, warnings: list) -> Optional[object]:
    """Resolve ``package.module:attr.attr`` or record that the layer lacks it."""
    module_name, _, attrs = path.partition(":")
    try:
        target = importlib.import_module(module_name)
        for attr in attrs.split("."):
            target = getattr(target, attr)
    except (ImportError, AttributeError):
        warnings.append(f"absent: {path} (its layer metrics are not reported)")
        return None
    return target


class StagedAgent:
    """``DecimaAgent.act(greedy=True)`` run as its four public stages, each a span.

    The stage sequence is the inference data path of ``act``: features ->
    ``gnn.forward_data`` -> ``policy.node_logits_data`` -> ``act_on_graph``.
    That the staged run decides exactly what ``act`` decides is checked by the
    digests (traced against untraced) and, on the fleet workloads, against the
    server.  If a stage function is gone the agent falls back to one ``act``
    span and the stage metrics are absent.
    """

    STAGES = ("build_features", "gnn.forward_data", "policy.node_logits_data", "act_on_graph")

    def __init__(self, agent, warnings: list) -> None:
        self.agent = agent
        self.staged = True
        for path in self.STAGES:
            target = agent
            for attr in path.split("."):
                target = getattr(target, attr, None)
            if target is None:
                self.staged = False
                warnings.append(f"absent: DecimaAgent.{path} (core stage metrics are not reported)")
        if self.staged:
            from repro.autograd import Tensor
            from repro.core.gnn import GraphEmbeddings

            self._tensor = Tensor
            self._embeddings = GraphEmbeddings

    def act(self, observation, graph_cache, recorder: SpanRecorder, decision: str):
        """The greedy action and the graph's node count; spans hang under ``decision``."""
        agent = self.agent
        start = stamp()
        if not self.staged:
            action, _ = agent.act(observation, greedy=True, graph_cache=graph_cache)
            recorder.add_busy("core.agent.act", start, stamp(), decision, decision)
            return action, 0
        act_id = f"{decision}/act"
        graph = agent.build_features(observation, graph_cache=graph_cache, reuse_buffers=True)
        t1 = stamp()
        node_emb, job_emb, global_emb = agent.gnn.forward_data(graph)
        t2 = stamp()
        rows = np.flatnonzero(graph.schedulable_mask)
        logits = agent.policy.node_logits_data(
            graph, node_emb, job_emb, global_emb, agent.gnn.workspace, rows=rows
        )
        t3 = stamp()
        tensor = self._tensor
        embeddings = self._embeddings(
            node_embeddings=tensor(node_emb),
            job_embeddings=tensor(job_emb),
            global_embedding=tensor(global_emb),
        )
        action, _ = agent.act_on_graph(
            graph, embeddings, tensor(logits), observation, greedy=True, training=False
        )
        t4 = stamp()
        recorder.add_busy("core.features", start, t1, act_id, decision)
        recorder.add_busy("core.gnn", t1, t2, act_id, decision)
        recorder.add_busy("core.policy", t2, t3, act_id, decision)
        recorder.add_busy("core.agent.select", t3, t4, act_id, decision)
        recorder.add_busy("core.agent.act", start, t4, decision, decision, span_id=act_id)
        return action, graph.num_nodes


def layer_means(spans: Sequence[dict], slices: Sequence[Slice]) -> dict:
    """``name -> (mean ms per span, span count)`` over the given slices.

    A span belongs to the slice its start falls in; spans outside every slice
    (warm-up, another phase) are ignored.  A span of pure computation counts
    its ``busy_s`` (thread CPU time), any other its wall-clock duration.
    """
    ordered = sorted(slices, key=lambda s: s.start)
    starts = [s.start for s in ordered]
    totals: dict = {}
    for span in spans:
        index = bisect.bisect_right(starts, span["start"]) - 1
        if index < 0 or span["start"] > ordered[index].end:
            continue
        total, count = totals.get(span["name"], (0.0, 0))
        seconds = span["busy_s"] if span["busy_s"] is not None else span["end"] - span["start"]
        totals[span["name"]] = (total + seconds * 1000.0, count + 1)
    return {name: (total / count, count) for name, (total, count) in totals.items()}


def mean_of(means: dict, name: str) -> Optional[float]:
    """One layer's mean from :func:`layer_means`, or ``None`` when it left no span."""
    return means[name][0] if name in means else None

"""Inference arena buffers and array kernels for the per-decision hot path.

The training path runs on :mod:`repro.autograd` tensors, which allocate a
fresh array per op and record a backward closure.  At inference none of that
is needed, and on the graphs Decima sees per decision (hundreds to thousands
of nodes, feature widths of 5-30, embedding dim 8) the allocator + autograd
bookkeeping costs more than the arithmetic.  This module provides the
inference data path:

* :class:`Workspace` — a named arena of reusable scratch buffers, so the
  steady-state ``act()`` does zero large allocations (buffers are keyed by
  name, handed out as leading-row views and reallocated only to grow);
* :func:`mlp_forward` — an MLP forward over plain arrays writing into arena
  buffers, **bit-identical** to the autograd MLP (same ``x @ W + b`` and
  ``x * where(x > 0, 1, slope)`` operations, in the same order, only with
  preallocated outputs);
* :func:`gather_segment_sum` — the sparse GNN's per-level frontier
  aggregation (gather per-edge messages, segment-sum into the frontier) on
  arena buffers;
* :class:`SegmentPlan` / :func:`ordered_segment_sum` — the same segment sums
  without ``np.add.at``, on a plan built once per structure: each segment's
  terms are added in order onto zero, so the result is bit-equal to it.

The differential pair ``inference_kernels_vs_tensor`` pins this path to the
training forward on every registry scenario.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Workspace",
    "mlp_forward",
    "leaky_relu_inplace",
    "gather_segment_sum",
    "SegmentPlan",
    "ordered_segment_sum",
]


class Workspace:
    """A named arena of reusable scratch arrays.

    ``get(name, shape)`` returns a float64 array of exactly ``shape``: the
    leading rows of the buffer kept under ``name``, which only grows (a
    high-water mark).  The row count of most buffers changes from one
    decision to the next — the schedulable set, the stale rows of
    :meth:`~repro.core.gnn.GraphNeuralNetwork.forward_data`, the live nodes
    after a job leaves — and none of that allocates once the largest graph
    has been seen.  The leading rows of a C-contiguous buffer are themselves
    C-contiguous, so ``np.matmul(..., out=)`` and ``np.take(..., out=)``
    write into them directly.  Contents are whatever the last user left —
    callers must fully overwrite — and a returned array is valid until the
    next ``get`` of the same name.
    """

    __slots__ = ("_buffers", "_layer_names")

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}
        self._layer_names: dict[str, tuple[tuple[str, str], ...]] = {}

    def layer_names(self, tag: str, num_layers: int) -> tuple[tuple[str, str], ...]:
        """Buffer names of each layer's output and leaky-ReLU scratch under
        ``tag``, formatted once per tag rather than on every forward."""
        names = self._layer_names.get(tag)
        if names is None or len(names) < num_layers:
            names = self._layer_names[tag] = tuple(
                (f"{tag}:{index}", f"{tag}:{index}:scaled") for index in range(num_layers)
            )
        return names

    def get(self, name: str, shape: tuple) -> np.ndarray:
        buffer = self._buffers.get(name)
        if buffer is not None:
            # The steady state first: the array handed out last time fits.
            if buffer.shape == shape:
                return buffer
            whole = buffer if buffer.base is None else buffer.base
            rows = shape[0]
            if whole.shape[0] >= rows and whole.shape[1:] == shape[1:]:
                buffer = whole if whole.shape[0] == rows else whole[:rows]
                self._buffers[name] = buffer
                return buffer
        buffer = self._buffers[name] = np.empty(shape)
        return buffer

    def clear(self) -> None:
        self._buffers.clear()

    @property
    def num_buffers(self) -> int:
        return len(self._buffers)

    @property
    def nbytes(self) -> int:
        return sum(
            (buffer if buffer.base is None else buffer.base).nbytes
            for buffer in self._buffers.values()
        )


def leaky_relu_inplace(
    values: np.ndarray, negative_slope: float, workspace: Workspace, scratch: str
) -> None:
    """In-place leaky ReLU, bit-identical to ``Tensor.leaky_relu``.

    The tensor op computes ``x * where(x > 0, 1.0, slope)``.  For a slope in
    (0, 1) that equals ``max(x, x * slope)`` exactly: positive ``x`` beats its
    scaled-down copy and is returned unchanged (``x * 1.0``), non-positive
    ``x`` loses to it, and the surviving product is the identical multiply.
    Two array passes instead of the four a literal mask build would take;
    ``scratch`` names the workspace buffer that holds the scaled copy.
    """
    if not 0.0 < negative_slope < 1.0:  # pragma: no cover - paper uses 0.2
        mask = np.where(values > 0, 1.0, negative_slope)
        values *= mask
        return
    scaled = workspace.get(scratch, values.shape)
    np.multiply(values, negative_slope, out=scaled)
    np.maximum(values, scaled, out=values)


def mlp_forward(
    mlp,
    inputs: np.ndarray,
    workspace: Workspace,
    tag: str,
    out: "np.ndarray | None" = None,
) -> np.ndarray:
    """Run an autograd :class:`~repro.core.nn.MLP` on plain arrays via arenas.

    Returns an arena-owned ``(rows, out_features)`` buffer (valid until the
    next ``mlp_forward`` with the same ``tag``), or ``out`` when given — the
    last layer then writes straight into the caller's array instead of the
    arena.  Bit-identical to ``mlp(Tensor(inputs)).data``: each layer is the
    same ``np.matmul(x, W) + b`` (gemm then broadcast add) and the same
    leaky-ReLU multiplier, only written into preallocated buffers.
    """
    if mlp.output_activation is not None:  # pragma: no cover - not used at inference
        raise ValueError("mlp_forward supports linear-output MLPs only")
    values = inputs
    last = len(mlp.layers) - 1
    names = workspace.layer_names(tag, last + 1)
    for index, layer in enumerate(mlp.layers):
        weight = layer.weight.data
        name, scratch = names[index]
        if index == last and out is not None:
            buffer = out
        else:
            buffer = workspace.get(name, (values.shape[0], weight.shape[1]))
        np.matmul(values, weight, out=buffer)
        buffer += layer.bias.data
        if index < last:
            leaky_relu_inplace(buffer, mlp.negative_slope, workspace, scratch)
        values = buffer
    return values


def gather_segment_sum(
    messages: np.ndarray,
    message_rows: np.ndarray,
    target_segments: np.ndarray,
    out: np.ndarray,
    scratch: np.ndarray,
) -> np.ndarray:
    """Per-level message aggregation ``out[segments[k]] += messages[rows[k]]``.

    ``out`` is zeroed first; ``scratch`` is a ``(len(message_rows), width)``
    buffer for the gathered per-edge messages.  ``np.add.at`` accumulates in
    ascending edge order, exactly like the autograd ``segment_sum``.  The
    levels of small graphs and those cut down to a few stale jobs are summed
    here, where a :class:`SegmentPlan` would cost more than it saves; a
    whole level of a larger graph is summed by :func:`ordered_segment_sum`
    on the level's cached plan.
    """
    out[:] = 0.0
    np.take(messages, message_rows, axis=0, out=scratch)
    np.add.at(out, target_segments, scratch)
    return out


class SegmentPlan:
    """The order in which :func:`ordered_segment_sum` adds up segments.

    ``np.add.at(out, segments, values[rows])`` onto a zero ``out`` adds each
    segment's terms one at a time, in term order.  The plan makes the same
    additions round by round: round ``r`` adds every segment's ``r``-th term.
    Segments are ranked by descending term count (ties in segment order), so
    the segments still adding in round ``r`` are a leading block of that
    ranking and a round is one contiguous vectorised add.  The attribute
    ``rows`` lists the terms' value rows round by round, ``rounds`` holds each round's (ranked
    segments, listed terms) slices, and ``rank`` maps a segment to its place
    in the ranking.

    Every sum is the sequence of additions ``np.add.at`` performs, so the
    result is bit-equal to it.  ``np.add.reduceat`` is not: it differs in
    the last bits.  Built once per structure and cached with it
    (:attr:`~repro.core.features.FrontierLevel.sum_plan`,
    :attr:`~repro.core.features.GraphStructure.job_sum_plan`).
    """

    __slots__ = ("rows", "rounds", "rank")

    def __init__(self, segments: np.ndarray, num_segments: int, rows: np.ndarray):
        segments = np.asarray(segments, dtype=np.intp)
        terms = np.asarray(rows, dtype=np.intp)
        if np.any(segments[1:] < segments[:-1]):
            grouped = np.argsort(segments, kind="stable")
            segments, terms = segments[grouped], terms[grouped]
        counts = np.bincount(segments, minlength=num_segments)
        by_count = np.argsort(-counts, kind="stable")
        self.rank = np.empty(num_segments, dtype=np.intp)
        self.rank[by_count] = np.arange(num_segments, dtype=np.intp)
        # Round r adds the segments with more than r terms.
        round_sizes = num_segments - np.cumsum(np.bincount(counts))[:-1]
        round_starts = np.cumsum(round_sizes) - round_sizes
        self.rounds = [
            (slice(0, size), slice(start, start + size))
            for size, start in zip(round_sizes.tolist(), round_starts.tolist())
        ]
        # Term k of the listing is term ``round`` of the ``place``-th segment.
        place = np.arange(segments.size, dtype=np.intp) - np.repeat(round_starts, round_sizes)
        round_of = np.repeat(np.arange(round_sizes.size, dtype=np.intp), round_sizes)
        first_term = (np.cumsum(counts) - counts)[by_count]
        self.rows = terms[first_term[place] + round_of]


def ordered_segment_sum(
    values: np.ndarray,
    plan: SegmentPlan,
    out: np.ndarray,
    terms: np.ndarray,
    ranked: np.ndarray,
) -> np.ndarray:
    """Each segment's terms summed in order onto zero, into ``out``.

    Bit-equal to zeroing ``out`` and ``np.add.at(out, segments,
    values[rows])`` for the ``segments`` and ``rows`` the plan was built
    from, without ``np.add.at``'s per-element cost.  ``terms`` is a
    ``(len(plan.rows), width)`` buffer and ``ranked`` one shaped like
    ``out``; the contents of all three are overwritten.
    """
    np.take(values, plan.rows, axis=0, out=terms)
    ranked[:] = 0.0
    for segments, listed in plan.rounds:
        ranked[segments] += terms[listed]
    np.take(ranked, plan.rank, axis=0, out=out)
    return out

"""Composite differentiable functions built from :mod:`repro.autograd.tensor` ops.

These helpers implement the softmax machinery Decima's policy network needs,
including *masked* softmaxes over variable-size action sets (Eq. 2 of the
paper restricts the softmax to the set of schedulable nodes).
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, as_tensor

__all__ = [
    "softmax",
    "log_softmax",
    "masked_softmax",
    "masked_log_softmax",
    "segment_log_softmax",
    "entropy_from_log_probs",
]

_NEG_INF = -1.0e9


def softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    logits = as_tensor(logits)
    shifted = logits - Tensor(logits.data.max(axis=axis, keepdims=True))
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    logits = as_tensor(logits)
    shifted = logits - Tensor(logits.data.max(axis=axis, keepdims=True))
    log_norm = shifted.exp().sum(axis=axis, keepdims=True).log()
    return shifted - log_norm


def segment_log_softmax(logits: Tensor, lengths, mask=None) -> Tensor:
    """Log-softmax of each consecutive segment of the 1-D ``logits``, as ONE op.

    Segment ``k`` is the next ``lengths[k]`` entries.  Per segment the values
    are those of :func:`masked_log_softmax` (entries where ``mask`` is False
    get the same -1e9 offset; no ``mask`` means every entry is valid), but a
    whole chunk of decisions costs a handful of array calls and one tape
    node.  The backward is ``grad - p * repeat(segment_sum(grad))`` with
    ``p = exp(output)``.
    """
    logits = as_tensor(logits)
    lengths = np.asarray(lengths, dtype=np.intp)
    if logits.ndim != 1 or lengths.sum() != logits.shape[0]:
        raise ValueError(
            f"segment lengths sum to {lengths.sum()}, logits have shape {logits.shape}"
        )
    if (lengths < 1).any():
        raise ValueError("masked softmax requires at least one valid entry")
    starts = np.cumsum(lengths) - lengths
    shifted = logits.data
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != logits.shape:
            raise ValueError(f"mask shape {mask.shape} != logits shape {logits.shape}")
        if not np.logical_or.reduceat(mask, starts).all():
            raise ValueError("masked softmax requires at least one valid entry")
        shifted = shifted + np.where(mask, 0.0, _NEG_INF)
    shifted = shifted - np.repeat(np.maximum.reduceat(shifted, starts), lengths)
    log_norm = np.log(np.add.reduceat(np.exp(shifted), starts))
    out_data = shifted - np.repeat(log_norm, lengths)

    def backward(grad):
        grad = np.asarray(grad)
        totals = np.repeat(np.add.reduceat(grad, starts), lengths)
        return (grad - np.exp(out_data) * totals,)

    if Tensor._needs_graph(logits):
        return Tensor(out_data, _parents=(logits,), _backward=backward)
    return Tensor(out_data)


def _masked_logits(logits: Tensor, mask) -> tuple[Tensor, np.ndarray]:
    logits = as_tensor(logits)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != logits.shape:
        raise ValueError(f"mask shape {mask.shape} != logits shape {logits.shape}")
    if not mask.any():
        raise ValueError("masked softmax requires at least one valid entry")
    offset = np.where(mask, 0.0, _NEG_INF)
    return logits + Tensor(offset), mask


def masked_softmax(logits: Tensor, mask, axis: int = -1) -> Tensor:
    """Softmax restricted to entries where ``mask`` is True.

    Masked-out entries receive probability (numerically) zero, mirroring the
    restriction of Eq. 2 to the schedulable-node set ``A_t``.
    """
    shifted, _ = _masked_logits(logits, mask)
    return softmax(shifted, axis=axis)


def masked_log_softmax(logits: Tensor, mask, axis: int = -1) -> Tensor:
    """Log of :func:`masked_softmax` (stable; masked entries are ~-1e9)."""
    shifted, _ = _masked_logits(logits, mask)
    return log_softmax(shifted, axis=axis)


def entropy_from_log_probs(log_probs: Tensor, mask=None) -> Tensor:
    """Entropy of a categorical distribution given its log-probabilities.

    Used as an exploration bonus during REINFORCE training.  ``mask`` (if
    given) limits the sum to valid entries so the -1e9 padding of masked
    softmaxes does not contribute.
    """
    log_probs = as_tensor(log_probs)
    probs = log_probs.exp()
    contrib = probs * log_probs
    if mask is not None:
        contrib = contrib * Tensor(np.asarray(mask, dtype=np.float64))
    return -contrib.sum()

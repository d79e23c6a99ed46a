"""Reverse-mode automatic differentiation substrate (replaces TensorFlow)."""

from .tensor import (
    Tensor,
    as_tensor,
    concat,
    gather_rows,
    scatter_add_rows,
    segment_sum,
    stack,
)
from .functional import (
    entropy_from_log_probs,
    log_softmax,
    masked_log_softmax,
    masked_softmax,
    segment_log_softmax,
    softmax,
)

__all__ = [
    "Tensor",
    "as_tensor",
    "concat",
    "stack",
    "gather_rows",
    "scatter_add_rows",
    "segment_sum",
    "softmax",
    "log_softmax",
    "masked_softmax",
    "masked_log_softmax",
    "segment_log_softmax",
    "entropy_from_log_probs",
]

"""Unit tests for softmax helpers used by the policy network."""

import numpy as np
import pytest

from repro.autograd import (
    Tensor,
    entropy_from_log_probs,
    log_softmax,
    masked_log_softmax,
    masked_softmax,
    segment_log_softmax,
    softmax,
)

from _helpers import numerical_gradient


class TestSoftmax:
    def test_sums_to_one(self):
        logits = Tensor([1.0, 2.0, 3.0])
        probs = softmax(logits)
        assert probs.data.sum() == pytest.approx(1.0)

    def test_matches_reference(self):
        logits = np.array([0.5, -1.0, 2.0])
        expected = np.exp(logits) / np.exp(logits).sum()
        assert np.allclose(softmax(Tensor(logits)).data, expected)

    def test_large_logits_are_stable(self):
        probs = softmax(Tensor([1000.0, 1001.0]))
        assert np.all(np.isfinite(probs.data))
        assert probs.data.sum() == pytest.approx(1.0)

    def test_log_softmax_consistency(self):
        logits = Tensor(np.array([0.3, -0.7, 1.9]))
        assert np.allclose(log_softmax(logits).data, np.log(softmax(logits).data))

    def test_gradient_of_selected_log_prob(self):
        logits = Tensor(np.array([0.1, 0.2, 0.3]), requires_grad=True)
        log_probs = log_softmax(logits)
        log_probs[1].backward()
        probs = softmax(Tensor([0.1, 0.2, 0.3])).data
        expected = -probs
        expected[1] += 1.0
        assert np.allclose(logits.grad, expected, atol=1e-8)

    def test_2d_softmax_axis(self):
        logits = Tensor(np.array([[1.0, 2.0], [3.0, 0.0]]))
        probs = softmax(logits, axis=1)
        assert np.allclose(probs.data.sum(axis=1), [1.0, 1.0])


class TestMaskedSoftmax:
    def test_masked_entries_near_zero(self):
        logits = Tensor([5.0, 1.0, 1.0])
        mask = np.array([False, True, True])
        probs = masked_softmax(logits, mask)
        assert probs.data[0] == pytest.approx(0.0, abs=1e-12)
        assert probs.data[1:].sum() == pytest.approx(1.0)

    def test_single_valid_entry(self):
        probs = masked_softmax(Tensor([1.0, 2.0, 3.0]), np.array([False, False, True]))
        assert probs.data[2] == pytest.approx(1.0)

    def test_all_masked_raises(self):
        with pytest.raises(ValueError):
            masked_softmax(Tensor([1.0, 2.0]), np.array([False, False]))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            masked_softmax(Tensor([1.0, 2.0]), np.array([True]))

    def test_masked_log_softmax_matches_restricted_softmax(self):
        logits = np.array([0.4, 1.2, -0.3, 2.0])
        mask = np.array([True, False, True, True])
        log_probs = masked_log_softmax(Tensor(logits), mask)
        restricted = logits[mask]
        expected = restricted - np.log(np.exp(restricted - restricted.max()).sum()) - restricted.max()
        assert np.allclose(log_probs.data[mask], expected, atol=1e-6)


class TestEntropy:
    def test_uniform_distribution_entropy(self):
        log_probs = log_softmax(Tensor(np.zeros(4)))
        entropy = entropy_from_log_probs(log_probs)
        assert entropy.item() == pytest.approx(np.log(4), abs=1e-6)

    def test_deterministic_distribution_entropy_is_zero(self):
        log_probs = masked_log_softmax(Tensor([10.0, 0.0]), np.array([True, False]))
        entropy = entropy_from_log_probs(log_probs, np.array([True, False]))
        assert entropy.item() == pytest.approx(0.0, abs=1e-3)

    def test_entropy_is_differentiable(self):
        logits = Tensor(np.array([0.5, -0.5]), requires_grad=True)
        entropy_from_log_probs(log_softmax(logits)).backward()
        assert logits.grad is not None
        assert np.all(np.isfinite(logits.grad))


# Segments of one entry, of one valid entry among masked ones, of ±1e3 logits.
SEGMENT_CASES = {
    "mixed": (
        np.array([0.4, 1.2, -0.3, 2.0, 0.7, -1.1, 0.0, 3.3, 0.5]),
        [4, 1, 3, 1],
        np.array([True, False, True, True, True, True, False, True, True]),
    ),
    "one_entry_segments": (np.array([0.3, -2.0, 5.0]), [1, 1, 1], None),
    "masked_to_one": (
        np.array([1.5, -0.2, 0.8, 0.1, 2.2]),
        [3, 2],
        np.array([False, True, False, True, True]),
    ),
    "large_logits": (
        np.array([1000.0, -1000.0, 999.5, -999.0, 1000.2, 3.0]),
        [3, 3],
        np.array([True, True, True, True, False, True]),
    ),
    "unmasked": (np.random.default_rng(3).normal(size=12) * 4, [5, 7], None),
}


def per_segment_reference(logits, lengths, mask):
    """:func:`masked_log_softmax` of each segment, concatenated."""
    mask = np.ones(len(logits), dtype=bool) if mask is None else mask
    bounds = np.cumsum([0] + list(lengths))
    return np.concatenate([
        masked_log_softmax(Tensor(logits[a:b]), mask[a:b]).data
        for a, b in zip(bounds, bounds[1:])
    ])


class TestSegmentLogSoftmax:
    @pytest.mark.parametrize("case", sorted(SEGMENT_CASES))
    def test_values_equal_per_segment_masked_log_softmax(self, case):
        logits, lengths, mask = SEGMENT_CASES[case]
        ours = segment_log_softmax(Tensor(logits), lengths, mask).data
        np.testing.assert_allclose(
            ours, per_segment_reference(logits, lengths, mask), rtol=1e-12, atol=1e-12
        )

    @pytest.mark.parametrize("case", sorted(SEGMENT_CASES))
    def test_backward_matches_finite_differences(self, case):
        logits, lengths, mask = SEGMENT_CASES[case]
        # Weight only valid entries, as the policy does (the chosen row and
        # the masked entropy): a -1e9 entry would drown the difference.
        valid = np.ones(len(logits), dtype=bool) if mask is None else mask
        weights = np.random.default_rng(5).normal(size=len(logits)) * valid
        x = Tensor(logits.copy(), requires_grad=True)
        (segment_log_softmax(x, lengths, mask) * Tensor(weights)).sum().backward()

        def loss(values):
            return float((segment_log_softmax(Tensor(values), lengths, mask).data * weights).sum())

        np.testing.assert_allclose(
            x.grad, numerical_gradient(loss, logits.copy()), rtol=1e-6, atol=1e-6
        )

    def test_backward_equals_the_per_segment_ops(self):
        logits, lengths, mask = SEGMENT_CASES["mixed"]
        weights = np.random.default_rng(6).normal(size=len(logits)) * mask
        ours = Tensor(logits.copy(), requires_grad=True)
        (segment_log_softmax(ours, lengths, mask) * Tensor(weights)).sum().backward()
        bounds = np.cumsum([0] + lengths)
        theirs = Tensor(logits.copy(), requires_grad=True)
        total = None
        for a, b in zip(bounds, bounds[1:]):
            term = (masked_log_softmax(theirs[a:b], mask[a:b]) * Tensor(weights[a:b])).sum()
            total = term if total is None else total + term
        total.backward()
        np.testing.assert_allclose(ours.grad, theirs.grad, rtol=1e-12, atol=1e-12)

    def test_a_segment_with_no_valid_entry_raises(self):
        logits = Tensor([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="at least one valid entry"):
            segment_log_softmax(logits, [1, 2], np.array([True, False, False]))
        with pytest.raises(ValueError, match="at least one valid entry"):
            segment_log_softmax(logits, [3, 0])

    def test_shape_mismatches_raise(self):
        with pytest.raises(ValueError, match="sum to 2"):
            segment_log_softmax(Tensor([1.0, 2.0, 3.0]), [1, 1])
        with pytest.raises(ValueError, match="mask shape"):
            segment_log_softmax(Tensor([1.0, 2.0]), [2], np.array([True]))

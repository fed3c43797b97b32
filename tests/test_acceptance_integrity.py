"""Tests for typical acceptance (eq. 1) and fragment-integrity truncation."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.acceptance import TypicalAcceptance
from repro.core.integrity import ends_at_fragment_boundary, truncate_to_complete_fragment
from repro.nn.functional import softmax

FRAG = 4
EOS = 3


class TestTypicalAcceptance:
    def test_threshold_capped_by_epsilon(self):
        acceptance = TypicalAcceptance(epsilon=0.09, delta=0.3)
        uniform = np.full(100, 0.01)
        assert acceptance.threshold(uniform) <= 0.09

    def test_threshold_scales_with_entropy(self):
        acceptance = TypicalAcceptance(epsilon=0.5, delta=0.5)
        sharp = np.zeros(10)
        sharp[0] = 1.0
        flat = np.full(10, 0.1)
        assert acceptance.threshold(sharp) > acceptance.threshold(flat)

    def test_accepts_high_probability_token(self):
        acceptance = TypicalAcceptance()
        probs = np.array([0.9, 0.05, 0.05])
        assert acceptance.accepts(probs, 0)

    def test_rejects_low_probability_token_sharp_distribution(self):
        acceptance = TypicalAcceptance()
        probs = np.array([0.98, 0.01, 0.01])
        assert not acceptance.accepts(probs, 2)

    def test_accepted_prefix_stops_at_first_rejection(self):
        acceptance = TypicalAcceptance()
        good = np.log(np.array([0.9, 0.05, 0.05]))
        bad = np.log(np.array([0.98, 0.01, 0.01]))
        logits = [good, bad, good]
        candidates = [0, 2, 0]
        assert acceptance.accepted_prefix_length(logits, candidates) == 1

    def test_accepted_prefix_full_run(self):
        acceptance = TypicalAcceptance()
        good = np.log(np.array([0.9, 0.05, 0.05]))
        assert acceptance.accepted_prefix_length([good, good, good], [0, 0, 0]) == 3

    def test_accepted_prefix_empty_candidates(self):
        acceptance = TypicalAcceptance()
        assert acceptance.accepted_prefix_length([], []) == 0

    def test_score_rows_is_the_per_row_rule_bitwise(self):
        """One softmax over a whole tree's rows: the probabilities and thresholds eq. 1 uses row by row."""
        acceptance = TypicalAcceptance()
        rng = np.random.default_rng(24)
        for rows in range(1, 31):
            for scale in (0.1, 0.5, 1.0, 2.0, 4.0, 8.0):
                logits = (rng.normal(size=(rows, 700)) * scale).astype(np.float32)
                probabilities, thresholds = acceptance.score_rows(logits)
                assert probabilities.dtype == thresholds.dtype == np.float64
                for row in range(rows):
                    expected = softmax(np.asarray(logits[row], dtype=np.float64))
                    assert np.array_equal(probabilities[row], expected)
                    assert thresholds[row] == acceptance.threshold(expected)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=2, max_value=50), st.integers(0, 10_000))
    def test_argmax_token_always_accepted(self, vocab, seed):
        """Property: the most probable token always satisfies the criterion."""
        rng = np.random.default_rng(seed)
        probs = rng.dirichlet(np.ones(vocab))
        acceptance = TypicalAcceptance()
        assert acceptance.accepts(probs, int(np.argmax(probs)))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000))
    def test_acceptance_monotone_in_probability(self, seed):
        """Property: if a token is accepted, any higher-probability token is too."""
        rng = np.random.default_rng(seed)
        probs = rng.dirichlet(np.ones(12))
        acceptance = TypicalAcceptance()
        order = np.argsort(probs)
        accepted = [acceptance.accepts(probs, int(i)) for i in order]
        # Once accepted along the sorted order, all later (higher-prob) tokens accepted.
        if any(accepted):
            first = accepted.index(True)
            assert all(accepted[first:])


class TestIntegrityTruncation:
    def test_truncates_to_last_frag(self):
        tokens = [10, FRAG, 11, 12]
        assert truncate_to_complete_fragment(tokens, FRAG) == [10, FRAG]

    def test_keeps_full_run_when_last_is_frag(self):
        tokens = [10, 11, FRAG]
        assert truncate_to_complete_fragment(tokens, FRAG) == tokens

    def test_multiple_boundaries_keeps_last(self):
        tokens = [FRAG, 10, FRAG, 11]
        assert truncate_to_complete_fragment(tokens, FRAG) == [FRAG, 10, FRAG]

    def test_no_boundary_keeps_minimum(self):
        tokens = [10, 11, 12]
        assert truncate_to_complete_fragment(tokens, FRAG) == [10]

    def test_empty_input(self):
        assert truncate_to_complete_fragment([], FRAG) == []

    def test_eos_counts_as_boundary(self):
        tokens = [10, EOS, 11]
        assert truncate_to_complete_fragment(tokens, FRAG, eos_id=EOS) == [10, EOS]

    def test_ends_at_fragment_boundary(self):
        assert ends_at_fragment_boundary([], FRAG)
        assert ends_at_fragment_boundary([10, FRAG], FRAG)
        assert ends_at_fragment_boundary([10, EOS], FRAG, eos_id=EOS)
        assert not ends_at_fragment_boundary([10, 11], FRAG)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from([FRAG, 10, 11, 12, EOS]), max_size=20))
    def test_truncation_result_always_ends_at_boundary_or_is_minimal(self, tokens):
        """Property: the truncated run ends at a boundary, or no boundary existed."""
        result = truncate_to_complete_fragment(tokens, FRAG, eos_id=EOS)
        if any(t in (FRAG, EOS) for t in tokens):
            assert ends_at_fragment_boundary(result, FRAG, eos_id=EOS)
        else:
            assert len(result) <= 1

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from([FRAG, 10, 11]), max_size=20))
    def test_truncation_is_prefix(self, tokens):
        """Property: the truncated run is always a prefix of the input."""
        result = truncate_to_complete_fragment(tokens, FRAG)
        assert result == tokens[: len(result)]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from([FRAG, 10, 11]), max_size=20))
    def test_truncation_idempotent(self, tokens):
        """Property: truncating twice gives the same result as truncating once."""
        once = truncate_to_complete_fragment(tokens, FRAG)
        twice = truncate_to_complete_fragment(once, FRAG)
        assert once == twice

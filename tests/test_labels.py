"""Tests for syntax-enriched label construction (paper Fig. 4)."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.core.labels import (
    apply_syntax_enrichment,
    apply_syntax_enrichment_reference,
    build_shifted_labels,
    build_syntax_enriched_labels,
    ignore_fraction_per_head,
)

FRAG = 4
PAD = 0
IGNORE = 5


class TestShiftedLabels:
    def test_row_zero_is_base_label(self):
        base = [10, 11, 12, 13]
        labels = build_shifted_labels(base, num_heads=2, pad_id=PAD)
        np.testing.assert_array_equal(labels[0], base)

    def test_row_i_is_left_shift(self):
        base = [10, 11, 12, 13]
        labels = build_shifted_labels(base, num_heads=3, pad_id=PAD)
        np.testing.assert_array_equal(labels[1], [11, 12, 13, PAD])
        np.testing.assert_array_equal(labels[2], [12, 13, PAD, PAD])
        np.testing.assert_array_equal(labels[3], [13, PAD, PAD, PAD])

    def test_shape(self):
        labels = build_shifted_labels(list(range(7)), num_heads=10, pad_id=PAD)
        assert labels.shape == (11, 7)

    def test_more_heads_than_sequence(self):
        labels = build_shifted_labels([1, 2], num_heads=5, pad_id=PAD)
        np.testing.assert_array_equal(labels[4], [PAD, PAD])

    def test_empty_heads(self):
        labels = build_shifted_labels([1, 2, 3], num_heads=0, pad_id=PAD)
        assert labels.shape == (1, 3)


class TestSyntaxEnrichment:
    def test_masks_after_last_frag(self):
        # Column layout: base, then heads.  Head labels: [FRAG, a, b] ->
        # nothing after FRAG at head 1?  Construct explicit matrix.
        labels = np.array(
            [
                [10, 11],
                [FRAG, 12],
                [13, FRAG],
                [14, 15],
            ]
        )
        out = apply_syntax_enrichment(labels, frag_id=FRAG, ignore_id=IGNORE)
        # Column 0: last FRAG among heads is row 1 -> rows 2,3 ignored.
        assert out[2, 0] == IGNORE and out[3, 0] == IGNORE
        assert out[1, 0] == FRAG
        # Column 1: last FRAG among heads is row 2 -> row 3 ignored.
        assert out[3, 1] == IGNORE
        assert out[2, 1] == FRAG

    def test_column_without_frag_untouched(self):
        labels = np.array([[10], [11], [12]])
        out = apply_syntax_enrichment(labels, frag_id=FRAG, ignore_id=IGNORE)
        np.testing.assert_array_equal(out, labels)

    def test_base_row_never_modified(self):
        labels = np.array([[FRAG, 10], [11, 12], [FRAG, FRAG]])
        out = apply_syntax_enrichment(labels, frag_id=FRAG, ignore_id=IGNORE)
        np.testing.assert_array_equal(out[0], labels[0])

    def test_input_not_mutated(self):
        labels = np.array([[1, 2], [FRAG, 3], [4, 5]])
        original = labels.copy()
        apply_syntax_enrichment(labels, frag_id=FRAG, ignore_id=IGNORE)
        np.testing.assert_array_equal(labels, original)

    def test_single_row_noop(self):
        labels = np.array([[1, 2, 3]])
        out = apply_syntax_enrichment(labels, frag_id=FRAG, ignore_id=IGNORE)
        np.testing.assert_array_equal(out, labels)

    def test_matches_paper_example_shape(self):
        # Mirrors the Fig. 4 example: at a position where heads 1-3 end with a
        # FRAG and heads 4+ continue into the next fragment, heads 4+ must be
        # ignored.
        base = [100, FRAG, FRAG, 101, 102, 103, 104, FRAG]
        labels = build_shifted_labels(base, num_heads=6, pad_id=PAD)
        out = apply_syntax_enrichment(labels, frag_id=FRAG, ignore_id=IGNORE)
        column = 0
        frag_rows = [r for r in range(1, 7) if labels[r, column] == FRAG]
        last_frag = max(frag_rows)
        for row in range(last_frag + 1, 7):
            assert out[row, column] == IGNORE


class TestReferenceEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.sampled_from([FRAG, 10, 11, 12, 13, 14]), min_size=1, max_size=40),
        st.integers(min_value=1, max_value=12),
    )
    def test_parallel_algorithm_matches_reference(self, base, num_heads):
        """Property: the vectorised parallel algorithm equals the per-column oracle."""
        labels = build_shifted_labels(base, num_heads=num_heads, pad_id=PAD)
        fast = apply_syntax_enrichment(labels, frag_id=FRAG, ignore_id=IGNORE)
        slow = apply_syntax_enrichment_reference(labels, frag_id=FRAG, ignore_id=IGNORE)
        np.testing.assert_array_equal(fast, slow)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.sampled_from([FRAG, 20, 21, 22]), min_size=2, max_size=40),
        st.integers(min_value=1, max_value=10),
    )
    def test_supervised_prefix_ends_at_boundary(self, base, num_heads):
        """Property: in every column the supervised head labels, read downward,
        stop at (or before) a [FRAG] — never straddle a fragment boundary."""
        labels = build_shifted_labels(base, num_heads=num_heads, pad_id=PAD)
        out = apply_syntax_enrichment(labels, frag_id=FRAG, ignore_id=IGNORE)
        for column in range(out.shape[1]):
            head_column = out[1:, column]
            has_frag = FRAG in labels[1:, column]
            if not has_frag:
                continue
            supervised = [int(v) for v in head_column if v != IGNORE]
            # The last supervised head label must be the FRAG boundary itself
            # (or a PAD that was already beyond the sequence).
            non_pad = [v for v in supervised if v != PAD]
            if non_pad:
                assert non_pad[-1] == FRAG

    @settings(max_examples=60, deadline=None)
    @given(
        arrays(
            np.int64,
            array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=30),
            elements=st.sampled_from([PAD, IGNORE, 10, 11, 12]),
        ),
        st.lists(st.sampled_from([FRAG, 10]), min_size=30, max_size=30),
    )
    def test_frag_free_head_rows_are_returned_unchanged(self, labels, base_row):
        """Property: enrichment is the identity on a label matrix whose head
        rows hold no [FRAG], whatever the base row holds. This is why Medusa
        (no markers) and NTP (no heads) share Ours' label construction."""
        labels[0] = base_row[: labels.shape[1]]
        out = apply_syntax_enrichment(labels, frag_id=FRAG, ignore_id=IGNORE)
        np.testing.assert_array_equal(out, labels)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from([FRAG, 30, 31]), min_size=2, max_size=30))
    def test_ignore_fraction_monotone_in_head_index(self, base):
        """Property (paper claim): later heads have at least as many ignored positions."""
        labels = build_syntax_enriched_labels(base, num_heads=8, frag_id=FRAG, pad_id=PAD, ignore_id=IGNORE)
        fractions = ignore_fraction_per_head(labels, IGNORE)
        head_fractions = fractions[1:]
        assert all(b >= a - 1e-9 for a, b in zip(head_fractions, head_fractions[1:]))


class TestFullConstruction:
    def test_pad_becomes_ignore(self):
        labels = build_syntax_enriched_labels([1, 2, 3], num_heads=4, frag_id=FRAG, pad_id=PAD, ignore_id=IGNORE)
        assert PAD not in labels

    def test_prompt_mask_applies_to_all_rows(self):
        base = [1, 2, FRAG, 3]
        mask = [True, True, False, False]
        labels = build_syntax_enriched_labels(
            base, num_heads=2, frag_id=FRAG, pad_id=PAD, ignore_id=IGNORE, ignore_prompt_mask=mask
        )
        assert np.all(labels[:, :2] == IGNORE)

    def test_base_row_preserved_outside_prompt(self):
        base = [1, FRAG, 3]
        labels = build_syntax_enriched_labels(base, num_heads=2, frag_id=FRAG, pad_id=PAD, ignore_id=IGNORE)
        np.testing.assert_array_equal(labels[0], base)

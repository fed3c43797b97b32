"""Property-based equivalence suite for token-tree speculative verification.

Two layers of guarantees, each checked over seeded random cases via the
dependency-free :mod:`proptest` runner:

* **structure** — :class:`~repro.core.token_tree.TokenTree` exactly
  round-trips its candidate set, deduplicates shared prefixes (never more
  nodes than tokens, strictly fewer whenever two candidates share a prefix),
  and keeps parents before children;
* **logits** — a tree-masked cached forward produces the same base-model
  logits at every candidate position as a plain causal forward over the
  prefix followed by that candidate, on random candidate sets including
  adversarial shared prefixes and exact duplicates, and path compaction
  leaves the cache as if only the committed tokens had ever been seen.

End-to-end decoding equivalence (the step kernel against the full-recompute
oracle) lives in ``test_step_kernel.py``; the serving-engine counterpart in
``test_serving.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from proptest import Cases, for_all, num_cases

from repro.core.decoding import dedupe_candidates, propose_candidates
from repro.core.token_tree import TokenTree, tree_bias_cached, tree_position_offsets, tree_size
from repro.models.generation import GenerationConfig
from repro.models.medusa import MedusaLM
from repro.nn.kv_cache import KVCache
from repro.nn.transformer import DecoderOnlyTransformer

VOCAB = 59


@pytest.fixture(scope="module")
def untrained_model() -> MedusaLM:
    """A small untrained decoder-only MedusaLM (logits equivalence needs no training)."""
    backbone = DecoderOnlyTransformer(vocab_size=VOCAB, dim=32, num_layers=2, num_heads=4, max_seq_len=96)
    return MedusaLM(backbone, vocab_size=VOCAB, num_medusa_heads=3, seed=7)


def random_candidates(cases: Cases) -> list:
    """A random candidate set skewed toward the adversarial shapes."""
    return cases.candidate_set(
        count=cases.integer(1, 5),
        max_length=cases.integer(1, 6),
        vocab_size=VOCAB,
        shared_prefix=cases.boolean(0.6),
        with_duplicates=cases.boolean(0.4),
    )


class TestTokenTreeStructure:
    def test_round_trips_candidates_and_dedups_prefixes(self):
        def prop(cases: Cases) -> None:
            candidates = random_candidates(cases)
            tree = TokenTree.from_candidates(candidates)
            total_tokens = sum(len(candidate) for candidate in candidates)
            assert 1 <= tree.size <= total_tokens
            for candidate, nodes in zip(candidates, tree.candidate_nodes):
                assert [tree.tokens[node] for node in nodes] == list(candidate)
                assert [tree.depths[node] for node in nodes] == list(range(len(candidate)))
                # Consecutive candidate tokens are parent/child in the tree.
                for parent_node, child_node in zip(nodes, nodes[1:]):
                    assert tree.parents[child_node] == parent_node
            for node, parent in enumerate(tree.parents):
                assert parent < node  # parents precede children (path compaction relies on this)

        for_all(num_cases(25, 400), prop, seed=11)

    def test_shared_prefix_strictly_shrinks_the_tree(self):
        def prop(cases: Cases) -> None:
            prefix = cases.token_list(cases.integer(1, 4), VOCAB)
            tails = [cases.token_list(cases.integer(1, 3), VOCAB) for _ in range(cases.integer(2, 4))]
            candidates = [prefix + tail for tail in tails]
            tree = TokenTree.from_candidates(candidates)
            assert tree.size < sum(len(candidate) for candidate in candidates)
            # All candidates route through the same prefix nodes.
            first = tree.candidate_nodes[0][: len(prefix)]
            for nodes in tree.candidate_nodes:
                assert nodes[: len(prefix)] == first

        for_all(num_cases(25, 400), prop, seed=12)

    def test_duplicate_candidates_collapse_to_one_path(self):
        candidates = [[3, 4, 5], [3, 4, 5], [3, 9]]
        tree = TokenTree.from_candidates(candidates)
        assert tree.candidate_nodes[0] == tree.candidate_nodes[1]
        assert tree.size == 4  # 3,4,5 shared + the 9 branch

    def test_tree_size_counts_distinct_prefixes_without_building(self):
        """``tree_size`` (the unpruned count of a constrained step) equals the built tree's size."""

        def prop(cases: Cases) -> None:
            candidates = random_candidates(cases)
            assert tree_size(candidates) == TokenTree.from_candidates(candidates).size

        for_all(num_cases(25, 400), prop, seed=13)
        assert tree_size([[3, 4, 5], [3, 4, 5], [3, 9]]) == 4

    def test_rejects_empty_candidates(self):
        with pytest.raises(ValueError):
            TokenTree.from_candidates([])
        with pytest.raises(ValueError):
            TokenTree.from_candidates([[1], []])

    def test_ancestor_mask_is_path_closure(self):
        tree = TokenTree.from_candidates([[1, 2, 3], [1, 4]])
        mask = tree.ancestor_mask()
        # Node ids: 0:1, 1:2, 2:3, 3:4.
        assert mask[2].tolist() == [True, True, True, False]
        assert mask[3].tolist() == [True, False, False, True]
        assert np.array_equal(np.diag(mask), np.ones(tree.size, dtype=bool))

    def test_ancestor_mask_equals_the_per_node_walk(self):
        """Built from parent rows, the mask is bitwise the walk up each node's ancestor chain."""

        def walk_oracle(tree: TokenTree) -> np.ndarray:
            mask = np.zeros((tree.size, tree.size), dtype=bool)
            for node in range(tree.size):
                ancestor = node
                while ancestor >= 0:
                    mask[node, ancestor] = True
                    ancestor = tree.parents[ancestor]
            return mask

        def prop(cases: Cases) -> None:
            tree = TokenTree.from_candidates(random_candidates(cases))
            mask = tree.ancestor_mask()
            assert mask.dtype == bool and mask.shape == (tree.size, tree.size) and mask.flags.writeable
            assert np.array_equal(mask, walk_oracle(tree))

        for_all(num_cases(40, 600), prop, seed=17)


class TestTreeLogitsEquivalence:
    """Tree-masked forwards must reproduce plain causal logits exactly where read."""

    def test_cached_tree_matches_causal_rows(self, untrained_model):
        def prop(cases: Cases) -> None:
            prefix = cases.token_list(cases.integer(1, 8), VOCAB)
            candidates = dedupe_candidates(random_candidates(cases))
            tree = TokenTree.from_candidates(candidates)
            prefix_len = len(prefix)

            # Tree verification over a single cached row.
            tree_cache = untrained_model.new_cache(capacity=prefix_len + tree.size)
            untrained_model.forward_hidden(np.asarray([prefix], dtype=np.int64), cache=tree_cache)
            bias = tree_bias_cached([tree], [prefix_len], window=tree.size, view=prefix_len + tree.size)
            offsets = tree_position_offsets([tree], tree.size)
            tree_base, _ = untrained_model.forward_hidden(
                np.asarray([tree.tokens], dtype=np.int64),
                cache=tree_cache,
                attn_bias=bias,
                position_offsets=offsets,
            )
            for row, nodes in enumerate(tree.candidate_nodes):
                # The reference: one uncached causal forward over prefix + candidate.
                row_base, _ = untrained_model.forward_hidden(np.asarray([prefix + candidates[row]], dtype=np.int64))
                for position, node in enumerate(nodes):
                    np.testing.assert_allclose(
                        tree_base[0, node],
                        row_base[0, prefix_len + position],
                        atol=1e-4,
                        err_msg=f"candidate {row} position {position} (node {node})",
                    )

        for_all(num_cases(8, 80), prop, seed=22)

    def test_keep_path_matches_sequential_prefix_cache(self, untrained_model):
        """After accept-path compaction the cache continues exactly like a
        cache that only ever saw the committed tokens."""

        def prop(cases: Cases) -> None:
            prefix = cases.token_list(cases.integer(1, 8), VOCAB)
            candidates = dedupe_candidates(random_candidates(cases))
            tree = TokenTree.from_candidates(candidates)
            prefix_len = len(prefix)
            winner = cases.integer(0, len(candidates) - 1)
            committed = cases.integer(1, len(candidates[winner]))

            tree_cache = untrained_model.new_cache(capacity=96 + tree.size)
            untrained_model.forward_hidden(np.asarray([prefix], dtype=np.int64), cache=tree_cache)
            bias = tree_bias_cached([tree], [prefix_len], window=tree.size, view=prefix_len + tree.size)
            offsets = tree_position_offsets([tree], tree.size)
            untrained_model.forward_hidden(
                np.asarray([tree.tokens], dtype=np.int64),
                cache=tree_cache,
                attn_bias=bias,
                position_offsets=offsets,
            )
            tree_cache.keep_path(prefix_len, tree.path(winner, committed))

            straight_cache = untrained_model.new_cache()
            committed_tokens = candidates[winner][:committed]
            untrained_model.forward_hidden(np.asarray([prefix + committed_tokens], dtype=np.int64), cache=straight_cache)

            assert tree_cache.length == straight_cache.length == prefix_len + committed
            next_token = cases.token(VOCAB)
            from_tree, _ = untrained_model.forward_hidden(np.asarray([[next_token]], dtype=np.int64), cache=tree_cache)
            from_straight, _ = untrained_model.forward_hidden(
                np.asarray([[next_token]], dtype=np.int64), cache=straight_cache
            )
            np.testing.assert_allclose(from_tree[0, -1], from_straight[0, -1], atol=1e-4)

        for_all(num_cases(8, 80), prop, seed=23)

    def test_compact_paths_matches_keep_path_per_row(self, untrained_model):
        def prop(cases: Cases) -> None:
            batch = cases.integer(1, 3)
            prefixes = [cases.integer(1, 6) for _ in range(batch)]
            trees, caches = [], []
            for prefix_len in prefixes:
                prefix = cases.token_list(prefix_len, VOCAB)
                tree = TokenTree.from_candidates(dedupe_candidates(random_candidates(cases)))
                cache = untrained_model.new_cache(capacity=prefix_len + tree.size)
                untrained_model.forward_hidden(np.asarray([prefix], dtype=np.int64), cache=cache)
                bias = tree_bias_cached([tree], [prefix_len], window=tree.size, view=prefix_len + tree.size)
                untrained_model.forward_hidden(
                    np.asarray([tree.tokens], dtype=np.int64),
                    cache=cache,
                    attn_bias=bias,
                    position_offsets=tree_position_offsets([tree], tree.size),
                )
                trees.append(tree)
                caches.append(cache)
            merged = KVCache.concat(caches)
            paths = []
            for tree in trees:
                winner = cases.integer(0, tree.num_candidates - 1)
                committed = cases.integer(1, len(tree.candidate_nodes[winner]))
                paths.append(tree.path(winner, committed))
            merged.compact_paths(prefixes, paths)
            for row, (cache, prefix_len, path) in enumerate(zip(caches, prefixes, paths)):
                cache.keep_path(prefix_len, path)
                assert merged.lengths[row] == cache.length
                view = cache.length
                for layer_index in range(cache.num_layers):
                    np.testing.assert_array_equal(
                        merged.layers[layer_index].k[row, :, :view],
                        cache.layers[layer_index].k[0, :, :view],
                    )

        for_all(num_cases(6, 60), prop, seed=24)


class TestCandidateDedup:
    """Regression: identical candidates must not occupy verification rows."""

    def test_budget_clip_duplicates_are_removed(self):
        # With one remaining token every candidate collapses to [first_token]:
        # the exact waste dedupe_candidates exists to remove.
        clipped = [candidate[:1] for candidate in [[7, 3, 4], [9, 3, 4], [7, 5, 4]]]
        assert dedupe_candidates(clipped) == [[7], [9]]

    def test_first_occurrence_order_is_preserved(self):
        candidates = [[1, 2], [3], [1, 2], [3], [4]]
        assert dedupe_candidates(candidates) == [[1, 2], [3], [4]]

    def test_propose_candidates_never_returns_duplicates(self):
        def prop(cases: Cases) -> None:
            vocab = cases.integer(2, VOCAB)
            rng = np.random.default_rng(cases.case_index)
            base_logits = np.asarray(rng.normal(size=vocab), dtype=np.float32)
            heads = [np.asarray(rng.normal(size=vocab), dtype=np.float32) for _ in range(cases.integer(0, 4))]
            config = (
                GenerationConfig.greedy_config(8)
                if cases.boolean()
                else GenerationConfig.sampling_config(0.8, 8, seed=cases.case_index)
            )
            candidates = propose_candidates(
                base_logits,
                heads,
                config,
                np.random.default_rng(config.seed),
                num_candidates=cases.integer(1, 4),
                max_heads=len(heads),
            )
            assert candidates, "at least one candidate"
            keys = [tuple(candidate) for candidate in candidates]
            assert len(set(keys)) == len(keys), f"duplicate candidates {candidates}"

        for_all(num_cases(30, 500), prop, seed=31)

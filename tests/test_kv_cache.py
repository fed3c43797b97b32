"""Tests for the per-layer KV cache and incremental-forward equivalence."""

import numpy as np
import pytest

from repro.models.medusa import MedusaLM
from repro.nn.kv_cache import KVCache
from repro.nn.transformer import DecoderOnlyTransformer, EncoderDecoderTransformer

ATOL = 1e-5


@pytest.fixture(scope="module")
def decoder_lm() -> MedusaLM:
    backbone = DecoderOnlyTransformer(vocab_size=64, dim=32, num_layers=2, num_heads=4, max_seq_len=96, seed=3)
    return MedusaLM(backbone, vocab_size=64, num_medusa_heads=3, seed=3)


@pytest.fixture(scope="module")
def encdec_lm() -> MedusaLM:
    backbone = EncoderDecoderTransformer(
        vocab_size=64, dim=32, num_encoder_layers=2, num_decoder_layers=2, num_heads=4, max_seq_len=96, seed=4
    )
    return MedusaLM(backbone, vocab_size=64, num_medusa_heads=2, seed=4)


class TestKVCacheOps:
    def _cache(self, batch=1) -> KVCache:
        return KVCache(num_layers=2, num_heads=4, head_dim=8, capacity=16, batch=batch)

    def test_append_grows_length(self):
        cache = self._cache()
        k = np.ones((1, 4, 3, 8), dtype=np.float32)
        full_k, full_v = cache.layers[0].append(k, 2 * k)
        assert cache.layers[0].length == 3
        assert full_k.shape == (1, 4, 3, 8)
        assert np.all(full_v == 2.0)

    def test_append_overflow_raises(self):
        cache = self._cache()
        k = np.zeros((1, 4, 17, 8), dtype=np.float32)
        with pytest.raises(ValueError, match="overflow"):
            cache.layers[0].append(k, k)

    def test_append_batch_mismatch_raises(self):
        cache = self._cache()
        k = np.zeros((2, 4, 1, 8), dtype=np.float32)
        with pytest.raises(ValueError, match="batch"):
            cache.layers[0].append(k, k)

    def test_truncate_rolls_back_every_layer(self):
        cache = self._cache()
        k = np.zeros((1, 4, 5, 8), dtype=np.float32)
        for layer in cache.layers:
            layer.append(k, k)
        cache.truncate(2)
        assert all(layer.length == 2 for layer in cache.layers)
        cache.truncate(10)  # beyond current length: no-op
        assert cache.length == 2
        with pytest.raises(ValueError):
            cache.truncate(-1)

    def test_expand_batch_tiles_rows(self):
        cache = self._cache()
        k = np.arange(1 * 4 * 2 * 8, dtype=np.float32).reshape(1, 4, 2, 8)
        cache.layers[0].append(k, k)
        cache.layers[1].append(k, k)
        cache.expand_batch(3)
        assert cache.batch == 3
        # Every row holds the filled prefix; the capacity tails are zero (finite), never garbage.
        assert np.array_equal(cache.layers[0].k[0, :, :2], k[0])
        assert np.array_equal(cache.layers[0].k[2, :, :2], k[0])
        assert np.all(cache.layers[0].k[:, :, 2:] == 0.0)
        with pytest.raises(ValueError, match="batch-1"):
            cache.expand_batch(5)

    def test_keep_row_collapses_batch(self):
        cache = self._cache()
        k = np.zeros((1, 4, 1, 8), dtype=np.float32)
        for layer in cache.layers:
            layer.append(k, k)
        cache.expand_batch(3)
        marker = np.full((3, 4, 2, 8), 7.0, dtype=np.float32)
        marker[1] = 9.0
        for layer in cache.layers:
            layer.append(marker, marker)
        cache.keep_row(1)
        assert cache.batch == 1
        assert np.all(cache.layers[0].k[0, :, 1:3] == 9.0)
        with pytest.raises(IndexError):
            cache.keep_row(4)

    # -- edge cases not exercised by the decoding loops ----------------------

    def test_truncate_to_zero_then_reuse(self):
        cache = self._cache()
        k = np.ones((1, 4, 5, 8), dtype=np.float32)
        for layer in cache.layers:
            layer.append(k, k)
        cache.truncate(0)
        assert cache.length == 0
        assert cache.lengths.tolist() == [0]
        # The cache is reusable after a full rollback.
        fresh = np.full((1, 4, 2, 8), 3.0, dtype=np.float32)
        full_k, _ = cache.layers[0].append(fresh, fresh)
        assert full_k.shape[2] == 2
        assert np.all(full_k == 3.0)

    def test_expand_batch_after_truncate(self):
        cache = self._cache()
        k = np.arange(1 * 4 * 6 * 8, dtype=np.float32).reshape(1, 4, 6, 8)
        for layer in cache.layers:
            layer.append(k, k)
        cache.truncate(3)
        cache.expand_batch(4)
        assert cache.batch == 4
        assert cache.lengths.tolist() == [3, 3, 3, 3]
        for row in range(4):
            np.testing.assert_array_equal(cache.layers[0].k[row, :, :3], k[0, :, :3])

    def test_keep_row_on_batch_one_is_identity(self):
        cache = self._cache()
        k = np.full((1, 4, 3, 8), 5.0, dtype=np.float32)
        for layer in cache.layers:
            layer.append(k, k)
        cache.keep_row(0)
        assert cache.batch == 1
        assert cache.length == 3
        assert np.all(cache.layers[0].k[0, :, :3] == 5.0)

    def test_expand_batch_noop_when_already_that_batch(self):
        cache = self._cache()
        cache.expand_batch(1)
        assert cache.batch == 1


class TestRaggedServingOps:
    """Multi-request (ragged) cache operations used by the serving engine."""

    def _cache(self, batch=1, capacity=16) -> KVCache:
        return KVCache(num_layers=2, num_heads=4, head_dim=8, capacity=capacity, batch=batch)

    def _filled(self, fill: float, positions: int, batch=1) -> KVCache:
        cache = self._cache(batch=batch)
        block = np.full((batch, 4, positions, 8), fill, dtype=np.float32)
        for layer in cache.layers:
            layer.append(block, block)
        return cache

    def test_concat_preserves_per_row_lengths(self):
        a = self._filled(1.0, positions=2)
        b = self._filled(2.0, positions=5)
        merged = KVCache.concat([a, b])
        assert merged.batch == 2
        assert merged.lengths.tolist() == [2, 5]
        assert np.all(merged.layers[0].k[0, :, :2] == 1.0)
        assert np.all(merged.layers[1].k[1, :, :5] == 2.0)
        # Region past a short row's own length is zero (finite), never garbage.
        assert np.all(merged.layers[0].k[0, :, 2:5] == 0.0)

    def test_concat_rejects_mismatched_geometry(self):
        a = self._cache()
        other = KVCache(num_layers=2, num_heads=2, head_dim=8, capacity=16)
        with pytest.raises(ValueError, match="geometry"):
            KVCache.concat([a, other])
        with pytest.raises(ValueError, match="at least one"):
            KVCache.concat([])

    def test_concat_rejects_mixed_cross_attention(self):
        with_cross = self._cache()
        cross = np.ones((1, 4, 3, 8), dtype=np.float32)
        for layer in with_cross.layers:
            layer.set_cross(cross, cross)
        without_cross = self._cache()
        with pytest.raises(ValueError, match="cross-attention"):
            KVCache.concat([with_cross, without_cross])

    def test_ragged_append_lands_at_per_row_offsets(self):
        merged = KVCache.concat([self._filled(1.0, 2), self._filled(2.0, 4)])
        step = np.full((2, 4, 1, 8), 9.0, dtype=np.float32)
        full_k, _ = merged.layers[0].append(step, step)
        assert merged.layers[0].lengths.tolist() == [3, 5]
        assert np.all(merged.layers[0].k[0, :, 2] == 9.0)
        assert np.all(merged.layers[0].k[1, :, 4] == 9.0)
        # The returned view spans the longest row.
        assert full_k.shape[2] == 5

    def test_append_widths_keep_padding_out(self):
        merged = KVCache.concat([self._filled(1.0, 2), self._filled(2.0, 4)])
        window = np.full((2, 4, 3, 8), 9.0, dtype=np.float32)
        merged.set_append_widths([1, 3])
        try:
            merged.layers[0].append(window, window)
        finally:
            merged.set_append_widths(None)
        assert merged.layers[0].lengths.tolist() == [3, 7]
        assert np.all(merged.layers[0].k[0, :, 2] == 9.0)
        # Row 0's padded window positions were not stored.
        assert np.all(merged.layers[0].k[0, :, 3:5] == 0.0)

    def test_repeat_rows_interleaves_per_row_counts(self):
        merged = KVCache.concat([self._filled(1.0, 2), self._filled(2.0, 4)])
        tiled = merged.repeat_rows([2, 3])
        assert tiled.batch == 5
        assert tiled.lengths.tolist() == [2, 2, 4, 4, 4]
        assert np.all(tiled.layers[0].k[1, :, :2] == 1.0)
        assert np.all(tiled.layers[0].k[2, :, :4] == 2.0)
        # Source is untouched.
        assert merged.batch == 2

    def test_select_rows_gathers_and_drops(self):
        merged = KVCache.concat([self._filled(1.0, 2), self._filled(2.0, 3), self._filled(3.0, 4)])
        merged.select_rows([2, 0])
        assert merged.batch == 2
        assert merged.lengths.tolist() == [4, 2]
        assert np.all(merged.layers[0].k[0, :, :4] == 3.0)
        assert np.all(merged.layers[0].k[1, :, :2] == 1.0)
        with pytest.raises(IndexError):
            merged.select_rows([5])

    def test_select_rows_to_empty(self):
        merged = KVCache.concat([self._filled(1.0, 2)])
        merged.select_rows([])
        assert merged.batch == 0
        assert merged.length == 0

    def test_truncate_rows_per_row(self):
        merged = KVCache.concat([self._filled(1.0, 4), self._filled(2.0, 6)])
        merged.truncate_rows([2, 5])
        assert merged.lengths.tolist() == [2, 5]
        merged.truncate_rows([10, 1])  # beyond current length: per-row no-op
        assert merged.lengths.tolist() == [2, 1]
        with pytest.raises(ValueError):
            merged.truncate_rows([1])  # wrong shape
        with pytest.raises(ValueError):
            merged.truncate_rows([-1, 0])

    def test_compact_rows_fuses_gather_and_truncate(self):
        merged = KVCache.concat([self._filled(1.0, 3), self._filled(2.0, 5)])
        tiled = merged.repeat_rows(2)  # rows: [0,0,1,1]
        compacted = tiled.compact_rows([1, 3], [2, 4])
        assert compacted.batch == 2
        assert compacted.lengths.tolist() == [2, 4]
        assert np.all(compacted.layers[0].k[0, :, :2] == 1.0)
        assert np.all(compacted.layers[0].k[1, :, :4] == 2.0)
        with pytest.raises(IndexError):
            tiled.compact_rows([9], [1])

    def _tree_step(self, batch=3):
        """A cache holding per-row prefixes plus an appended tree window, and the paths to keep."""
        rng = np.random.default_rng(5)
        cache = self._cache(batch=batch, capacity=24)
        for width, widths in ((6, [6, 4, 5]), (5, [5, 3, 4])):  # committed prefixes, then tree windows
            cache.set_append_widths(widths)
            for layer in cache.layers:
                layer.append(*(rng.normal(size=(batch, 4, width, 8)).astype(np.float32) for _ in range(2)))
            cache.set_append_widths(None)
        return cache, [6, 4, 5], [[0, 2, 4], [], [1, 3]]

    @staticmethod
    def _expected_paths(cache, rows, prefixes, paths):
        """Per-row reference: prefix followed by the path's window positions, layer 0 and 1."""
        return [
            [np.concatenate([layer.k[row, :, :prefix], layer.k[row][:, [prefix + p for p in path]]], axis=1).copy()
             for row, prefix, path in zip(rows, prefixes, paths)]
            for layer in cache.layers
        ]

    def test_compact_paths_in_order_slides_paths_down_in_place(self):
        cache, prefixes, paths = self._tree_step()
        expected = self._expected_paths(cache, range(3), prefixes, paths)
        buffers = [(layer.k, layer.v) for layer in cache.layers]
        assert cache.compact_paths(prefixes, paths) is None
        # Same buffers: no allocation, O(path) writes.
        assert all(layer.k is k and layer.v is v for layer, (k, v) in zip(cache.layers, buffers))
        assert cache.lengths.tolist() == [9, 4, 7]
        for layer, rows in zip(cache.layers, expected):
            for row, kept in enumerate(rows):
                assert np.array_equal(layer.k[row, :, : kept.shape[1]], kept)

    def test_compact_paths_rejects_a_row_subset(self):
        cache, prefixes, paths = self._tree_step()
        before = [(layer.k.copy(), layer.lengths.copy()) for layer in cache.layers]
        with pytest.raises(ValueError, match="compacts every row"):
            cache.compact_paths([prefixes[2], prefixes[0]], [paths[2], paths[0]])
        for layer, (k, lengths) in zip(cache.layers, before):
            assert np.array_equal(layer.k, k) and np.array_equal(layer.lengths, lengths)

    def test_overflow_respects_per_row_lengths(self):
        merged = KVCache.concat([self._filled(1.0, 2), self._filled(2.0, 15)])
        step = np.full((2, 4, 2, 8), 9.0, dtype=np.float32)
        with pytest.raises(ValueError, match="overflow"):
            merged.layers[0].append(step, step)  # row 1 would exceed capacity 16


def _ragged(batch: int) -> KVCache:
    """Rows holding 6, 5, ... random positions: every buffer position finite."""
    rng = np.random.default_rng(11)
    cache = KVCache(num_layers=2, num_heads=2, head_dim=4, capacity=12, batch=batch)
    cache.set_append_widths([6 - row for row in range(batch)])
    for layer in cache.layers:
        layer.append(*(rng.normal(size=(batch, 2, 6, 4)).astype(np.float32) for _ in range(2)))
    cache.set_append_widths(None)
    return cache


#: Every row-cache operation: the batch of the cache it runs on, and the call.
ROW_OPS = {
    "truncate": (1, lambda cache: cache.truncate(3)),
    "truncate_rows": (2, lambda cache: cache.truncate_rows([3, 2])),
    "expand_batch": (1, lambda cache: cache.expand_batch(3)),
    "keep_row": (2, lambda cache: cache.keep_row(1)),
    "keep_path": (1, lambda cache: cache.keep_path(2, [0, 2])),
    "repeat_rows": (2, lambda cache: cache.repeat_rows([2, 1])),
    "compact_rows": (2, lambda cache: cache.compact_rows([1, 0, 1], [4, 3, 2])),
    "select_rows": (2, lambda cache: cache.select_rows([1, 1, 0])),
    "compact_paths": (2, lambda cache: cache.compact_paths([2, 3], [[0, 2], [1]])),
    "concat": (2, lambda cache: KVCache.concat([cache, cache])),
}


@pytest.mark.parametrize("op", list(ROW_OPS))
def test_every_row_op_leaves_every_buffer_position_finite(op, monkeypatch):
    """The finite-buffer invariant (docs/decoding.md) even if ``np.empty`` hands out NaN."""
    batch, run = ROW_OPS[op]
    cache = _ragged(batch)
    empty = np.empty

    def nan_empty(*args, **kwargs):
        out = empty(*args, **kwargs)
        if np.issubdtype(out.dtype, np.floating):
            out.fill(np.nan)
        return out

    monkeypatch.setattr(np, "empty", nan_empty)
    result = run(cache)
    for touched in [cache] if result is None else [cache, result]:
        for layer in touched.layers:
            assert np.isfinite(layer.k).all() and np.isfinite(layer.v).all()


class TestIncrementalEquivalence:
    """Cached incremental logits must equal full-recompute logits."""

    def test_decoder_only_prefill_then_steps(self, decoder_lm):
        ids = np.arange(1, 25) % 64
        full_base, full_heads = decoder_lm.forward(ids)
        cache = decoder_lm.new_cache()
        part_base, _ = decoder_lm.forward(ids[:10], cache=cache)
        np.testing.assert_allclose(part_base, full_base[:, :10], atol=ATOL)
        # Feed the rest one token at a time.
        for t in range(10, len(ids)):
            step_base, step_heads = decoder_lm.forward(ids[t : t + 1], cache=cache)
            np.testing.assert_allclose(step_base[0, 0], full_base[0, t], atol=ATOL)
            for head_full, head_step in zip(full_heads, step_heads):
                np.testing.assert_allclose(head_step[0, 0], head_full[0, t], atol=ATOL)
        assert cache.length == len(ids)

    def test_encoder_decoder_prefill_then_steps(self, encdec_lm):
        enc_ids = np.arange(2, 14) % 64
        dec_ids = np.arange(5, 23) % 64
        full_base, full_heads = encdec_lm.forward(dec_ids, enc_ids)
        encdec_lm.encode_prompt(enc_ids)
        cache = encdec_lm.new_cache()
        part_base, _ = encdec_lm.forward(dec_ids[:6], cache=cache)
        np.testing.assert_allclose(part_base, full_base[:, :6], atol=ATOL)
        for t in range(6, len(dec_ids)):
            step_base, step_heads = encdec_lm.forward(dec_ids[t : t + 1], cache=cache)
            np.testing.assert_allclose(step_base[0, 0], full_base[0, t], atol=ATOL)
            for head_full, head_step in zip(full_heads, step_heads):
                np.testing.assert_allclose(head_step[0, 0], head_full[0, t], atol=ATOL)

    def test_rollback_after_rejected_tokens(self, decoder_lm):
        """Junk appended then truncated away must not perturb later logits."""
        ids = np.arange(3, 33) % 64
        full_base, _ = decoder_lm.forward(ids)
        cache = decoder_lm.new_cache()
        decoder_lm.forward(ids[:12], cache=cache)
        # Speculate six wrong tokens, then roll back.
        junk = (ids[12:18] + 17) % 64
        decoder_lm.forward(junk, cache=cache)
        cache.truncate(12)
        resumed_base, _ = decoder_lm.forward(ids[12:], cache=cache)
        np.testing.assert_allclose(resumed_base, full_base[:, 12:], atol=ATOL)

    def test_batched_verification_roundtrip(self, decoder_lm):
        """expand_batch -> batched verify -> keep_row -> truncate matches full recompute."""
        ids = np.arange(7, 27) % 64
        full_base, _ = decoder_lm.forward(ids)
        cache = decoder_lm.new_cache()
        decoder_lm.forward(ids[:14], cache=cache)
        # Three candidate continuations; row 1 is the "accepted" true one.
        true_tail = ids[14:18]
        rows = np.stack([(true_tail + 5) % 64, true_tail, (true_tail + 9) % 64])
        cache.expand_batch(3)
        batch_base, _ = decoder_lm.forward(rows, cache=cache)
        np.testing.assert_allclose(batch_base[1], full_base[0, 14:18], atol=ATOL)
        # Accept only the first two tokens of row 1.
        cache.keep_row(1)
        cache.truncate(16)
        resumed, _ = decoder_lm.forward(ids[16:], cache=cache)
        np.testing.assert_allclose(resumed, full_base[:, 16:], atol=ATOL)

    def test_cross_attention_cached_once(self, encdec_lm):
        """After prefill the cross K/V is cached and memory is not re-projected."""
        enc_ids = np.arange(1, 9) % 64
        encdec_lm.encode_prompt(enc_ids)
        cache = encdec_lm.new_cache()
        encdec_lm.forward(np.asarray([1]), cache=cache)
        assert all(layer.has_cross for layer in cache.layers)
        # Wipe the transformer's memory: cached cross K/V must be sufficient.
        encdec_lm.backbone._cached_memory = None
        base, _ = encdec_lm.forward(np.asarray([2]), cache=cache)
        assert base.shape[1] == 1

    def test_max_seq_len_still_enforced(self, decoder_lm):
        cache = decoder_lm.new_cache()
        max_len = decoder_lm.backbone.max_seq_len
        decoder_lm.forward(np.zeros(max_len, dtype=np.int64), cache=cache)
        with pytest.raises(ValueError, match="exceeds max_seq_len"):
            decoder_lm.forward(np.zeros(1, dtype=np.int64), cache=cache)

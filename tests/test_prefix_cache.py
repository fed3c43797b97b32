"""Unit tests for the cross-request prefix cache (trie, LRU, segments).

Engine-level reuse (token identity, hit accounting through serving) is
covered in ``tests/test_serving.py``; this file exercises the
:class:`~repro.serving.prefix_cache.PrefixCache` data structure and the
:class:`~repro.nn.kv_cache.KVSegment` gather/splice operations in isolation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.kv_cache import KVCache, KVSegment
from repro.nn.kv_pool import KVBlockPool, PagedKVCache
from repro.serving.prefix_cache import PrefixCache

LAYERS, HEADS, HEAD_DIM = 2, 2, 4
BYTES_PER_TOKEN = 2 * LAYERS * HEADS * HEAD_DIM * 4  # K and V, float32
BLOCK = 4
BLOCK_NBYTES = BLOCK * BYTES_PER_TOKEN  # one pool block: K and V, all layers


def make_segment(length: int, seed: int = 0) -> KVSegment:
    rng = np.random.default_rng(seed)
    shape = (HEADS, length, HEAD_DIM)
    return KVSegment(
        [rng.normal(size=shape).astype(np.float32) for _ in range(LAYERS)],
        [rng.normal(size=shape).astype(np.float32) for _ in range(LAYERS)],
    )


class TestKVSegment:
    def test_geometry_and_nbytes(self):
        segment = make_segment(5)
        assert segment.num_layers == LAYERS
        assert segment.num_heads == HEADS
        assert segment.head_dim == HEAD_DIM
        assert segment.length == 5
        assert segment.nbytes == 5 * BYTES_PER_TOKEN

    def test_head_is_a_view_of_the_prefix(self):
        segment = make_segment(6)
        head = segment.head(4)
        assert head.length == 4
        np.testing.assert_array_equal(head.k_layers[0], segment.k_layers[0][:, :4])
        assert head.k_layers[0].base is not None  # no copy

    def test_head_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            make_segment(3).head(4)

    def test_mismatched_layers_rejected(self):
        good = make_segment(3)
        with pytest.raises(ValueError, match="matching"):
            KVSegment(good.k_layers, good.v_layers[:1])


class TestGatherSplice:
    def _filled_cache(self, lengths, capacity=10, batch=None, seed=0) -> KVCache:
        rng = np.random.default_rng(seed)
        cache = KVCache(LAYERS, HEADS, HEAD_DIM, capacity=capacity, batch=batch or len(lengths))
        for layer in cache.layers:
            layer.k[...] = rng.normal(size=layer.k.shape).astype(np.float32)
            layer.v[...] = rng.normal(size=layer.v.shape).astype(np.float32)
            layer.lengths = np.asarray(lengths, dtype=np.int64)
        return cache

    def test_gather_then_splice_round_trips(self):
        source = self._filled_cache([7, 4])
        segment = source.gather_prefix(0, 5)
        assert segment.length == 5

        fresh = KVCache(LAYERS, HEADS, HEAD_DIM, capacity=10, batch=2)
        fresh.splice_prefix(1, segment)
        assert fresh.lengths.tolist() == [0, 5]
        for layer, src_layer in zip(fresh.layers, source.layers):
            np.testing.assert_array_equal(layer.k[1, :, :5], src_layer.k[0, :, :5])
            np.testing.assert_array_equal(layer.v[1, :, :5], src_layer.v[0, :, :5])

    def test_gather_is_a_detached_copy(self):
        source = self._filled_cache([6])
        segment = source.gather_prefix(0, 6)
        before = segment.k_layers[0].copy()
        source.layers[0].k[...] = 0.0
        np.testing.assert_array_equal(segment.k_layers[0], before)

    def test_splice_then_append_continues_at_segment_length(self):
        source = self._filled_cache([5])
        fresh = KVCache(LAYERS, HEADS, HEAD_DIM, capacity=10, batch=1)
        fresh.splice_prefix(0, source.gather_prefix(0, 5))
        rng = np.random.default_rng(1)
        k_new = rng.normal(size=(1, HEADS, 2, HEAD_DIM)).astype(np.float32)
        v_new = rng.normal(size=(1, HEADS, 2, HEAD_DIM)).astype(np.float32)
        fresh.layers[0].append(k_new, v_new)
        assert fresh.layers[0].lengths.tolist() == [7]
        np.testing.assert_array_equal(fresh.layers[0].k[0, :, 5:7], k_new[0])

    def test_gather_validates_row_and_length(self):
        cache = self._filled_cache([4])
        with pytest.raises(IndexError, match="out of range"):
            cache.gather_prefix(1, 2)
        with pytest.raises(ValueError, match="out of range"):
            cache.gather_prefix(0, 5)  # beyond the row's cached length
        with pytest.raises(ValueError, match="out of range"):
            cache.gather_prefix(0, -1)

    def test_splice_requires_fresh_row(self):
        source = self._filled_cache([5])
        occupied = self._filled_cache([3], seed=2)
        with pytest.raises(ValueError, match="fresh row"):
            occupied.splice_prefix(0, source.gather_prefix(0, 2))

    def test_splice_validates_geometry_and_capacity(self):
        source = self._filled_cache([5])
        segment = source.gather_prefix(0, 5)
        wrong_layers = KVCache(LAYERS + 1, HEADS, HEAD_DIM, capacity=10, batch=1)
        with pytest.raises(ValueError, match="layers"):
            wrong_layers.splice_prefix(0, segment)
        wrong_heads = KVCache(LAYERS, HEADS + 1, HEAD_DIM, capacity=10, batch=1)
        with pytest.raises(ValueError, match="geometry"):
            wrong_heads.splice_prefix(0, segment)
        tiny = KVCache(LAYERS, HEADS, HEAD_DIM, capacity=3, batch=1)
        with pytest.raises(ValueError, match="capacity"):
            tiny.splice_prefix(0, segment)


class TestPrefixCacheLookup:
    def test_exact_hit(self):
        cache = PrefixCache(max_tokens=100)
        assert cache.insert([1, 2, 3], make_segment(3))
        matched, segment = cache.lookup([1, 2, 3])
        assert matched == 3
        assert segment.length == 3
        assert cache.stats.hits == 1
        assert cache.stats.tokens_reused == 3

    def test_partial_hit_through_shared_preamble(self):
        """A retained prompt answers lookups for prompts sharing only a prefix."""
        cache = PrefixCache(max_tokens=100)
        cache.insert([1, 2, 3, 4, 5], make_segment(5))
        matched, segment = cache.lookup([1, 2, 3, 9, 9, 9])
        assert matched == 3
        assert segment.length == 3
        np.testing.assert_array_equal(
            segment.k_layers[0], make_segment(5).k_layers[0][:, :3]
        )

    def test_miss_counts(self):
        cache = PrefixCache(max_tokens=100)
        cache.insert([1, 2, 3], make_segment(3))
        matched, segment = cache.lookup([7, 8])
        assert matched == 0 and segment is None
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.0
        cache.lookup([1, 2])
        assert cache.stats.hits == 1
        assert cache.stats.hit_rate == 0.5

    def test_limit_caps_the_match(self):
        """The engine passes limit=len(prompt)-1 so a full-prompt hit still
        leaves one token to prefill (the forward that yields last logits)."""
        cache = PrefixCache(max_tokens=100)
        cache.insert([1, 2, 3, 4], make_segment(4))
        matched, segment = cache.lookup([1, 2, 3, 4], limit=3)
        assert matched == 3
        assert segment.length == 3

    def test_longest_of_several_entries_wins(self):
        cache = PrefixCache(max_tokens=100)
        cache.insert([1, 2], make_segment(2, seed=1))
        cache.insert([1, 2, 3, 4], make_segment(4, seed=2))
        matched, _ = cache.lookup([1, 2, 3, 4, 5])
        assert matched == 4

    def test_empty_cache_lookup(self):
        cache = PrefixCache(max_tokens=10)
        assert cache.lookup([1, 2, 3]) == (0, None)


class TestPrefixCacheRetention:
    def test_lru_eviction_under_token_budget(self):
        cache = PrefixCache(max_tokens=6)
        cache.insert([1, 2, 3], make_segment(3))
        cache.insert([4, 5, 6], make_segment(3))
        assert cache.num_tokens == 6
        cache.insert([7, 8, 9], make_segment(3))  # evicts [1,2,3] (LRU)
        assert cache.num_tokens == 6
        assert cache.stats.evictions == 1
        assert cache.lookup([1, 2, 3])[0] == 0
        assert cache.lookup([4, 5, 6])[0] == 3
        assert cache.lookup([7, 8, 9])[0] == 3

    def test_lookup_refreshes_lru_order(self):
        cache = PrefixCache(max_tokens=6)
        cache.insert([1, 2, 3], make_segment(3))
        cache.insert([4, 5, 6], make_segment(3))
        cache.lookup([1, 2, 3])  # touch: [4,5,6] becomes LRU
        cache.insert([7, 8, 9], make_segment(3))
        assert cache.lookup([4, 5, 6])[0] == 0
        assert cache.lookup([1, 2, 3])[0] == 3

    def test_reinsert_refreshes_without_duplicating(self):
        cache = PrefixCache(max_tokens=6)
        cache.insert([1, 2, 3], make_segment(3))
        assert not cache.insert([1, 2, 3], make_segment(3))  # refresh only
        assert len(cache) == 1 and cache.num_tokens == 3
        assert cache.stats.insertions == 1

    def test_eviction_keeps_shared_trie_nodes_alive(self):
        """Evicting one entry must not break partial matches served by a
        surviving entry that shares its preamble."""
        cache = PrefixCache(max_tokens=10)
        cache.insert([1, 2, 3, 4], make_segment(4))
        cache.insert([1, 2, 9, 9, 9], make_segment(5))
        cache.insert([6, 7, 8, 6, 7], make_segment(5))  # evicts [1,2,3,4]
        assert cache.stats.evictions == 1
        matched, _ = cache.lookup([1, 2, 3, 4])
        assert matched == 2  # shared [1,2] preamble survives via the second entry
        assert cache.lookup([6, 7, 8])[0] == 3

    def test_insert_builds_a_trie_node_only_where_the_path_is_new(self, monkeypatch):
        import repro.serving.prefix_cache as prefix_cache_module

        built = []

        class CountingNode(prefix_cache_module._TrieNode):
            __slots__ = ()

            def __init__(self) -> None:
                built.append(self)
                super().__init__()

        monkeypatch.setattr(prefix_cache_module, "_TrieNode", CountingNode)
        cache = PrefixCache(max_tokens=64)
        built.clear()  # the root
        preamble = list(range(20))
        cache.insert(preamble + [100, 101], make_segment(22))
        assert len(built) == 22
        cache.insert(preamble + [200], make_segment(21))  # 20 shared tokens, one new
        assert len(built) == 23
        assert cache.lookup(preamble + [200, 5])[0] == 21

    def test_oversized_prompt_not_retained(self):
        cache = PrefixCache(max_tokens=4)
        assert not cache.insert([1, 2, 3, 4, 5], make_segment(5))
        assert len(cache) == 0

    def test_byte_budget(self):
        cache = PrefixCache(max_tokens=1000, max_bytes=3 * BYTES_PER_TOKEN)
        cache.insert([1, 2], make_segment(2))
        cache.insert([3], make_segment(1))
        assert cache.num_bytes == 3 * BYTES_PER_TOKEN
        cache.insert([4], make_segment(1))  # over byte budget: evict LRU [1,2]
        assert cache.num_bytes == 2 * BYTES_PER_TOKEN
        assert cache.lookup([1, 2])[0] == 0
        assert not cache.insert([5, 6, 7, 8], make_segment(4))  # alone over byte budget

    def test_clear(self):
        cache = PrefixCache(max_tokens=100)
        cache.insert([1, 2, 3], make_segment(3))
        cache.insert([4, 5], make_segment(2))
        cache.clear()
        assert len(cache) == 0
        assert cache.num_tokens == 0 and cache.num_bytes == 0
        assert cache.lookup([1, 2, 3]) == (0, None)

    def test_validation(self):
        with pytest.raises(ValueError, match="max_tokens"):
            PrefixCache(max_tokens=0)
        with pytest.raises(ValueError, match="max_bytes"):
            PrefixCache(max_tokens=10, max_bytes=0)
        cache = PrefixCache(max_tokens=10)
        with pytest.raises(ValueError, match="positions"):
            cache.insert([1, 2, 3], make_segment(2))
        assert not cache.insert([], make_segment(0))

    def test_would_retain_precheck(self):
        """would_retain mirrors insert's decision (minus the byte budget) and
        refreshes LRU on exact duplicates, so the engine can skip gathering."""
        cache = PrefixCache(max_tokens=6)
        assert cache.would_retain([1, 2, 3])
        cache.insert([1, 2, 3], make_segment(3))
        assert not cache.would_retain([1, 2, 3])  # duplicate
        assert not cache.would_retain([1, 2, 3, 4, 5, 6, 7])  # alone over budget
        assert not cache.would_retain([])
        cache.insert([4, 5, 6], make_segment(3))
        # The duplicate pre-check above touched [1,2,3]... order check: insert
        # a third entry and confirm the LRU victim is [4,5,6] after touching
        # [1,2,3] again via would_retain.
        assert not cache.would_retain([1, 2, 3])
        cache.insert([7, 8, 9], make_segment(3))
        assert cache.lookup([4, 5, 6])[0] == 0  # evicted
        assert cache.lookup([1, 2, 3])[0] == 3  # survived the touch

    def test_bind_rejects_second_owner(self):
        cache = PrefixCache(max_tokens=10)
        owner_a, owner_b = object(), object()
        cache.bind(owner_a)
        cache.bind(owner_a)  # idempotent for the same model
        with pytest.raises(ValueError, match="different model"):
            cache.bind(owner_b)

    def test_contains(self):
        cache = PrefixCache(max_tokens=10)
        cache.insert([1, 2], make_segment(2))
        assert [1, 2] in cache
        assert [1, 2, 3] not in cache

    def test_stats_to_dict(self):
        cache = PrefixCache(max_tokens=10)
        cache.insert([1, 2], make_segment(2))
        cache.lookup([1, 2, 3])
        data = cache.stats.to_dict()
        assert data["hits"] == 1 and data["misses"] == 0
        assert data["hit_rate"] == 1.0
        assert data["tokens_reused"] == 2
        assert data["insertions"] == 1


def make_paged_pool(num_blocks: int = 32) -> KVBlockPool:
    return KVBlockPool(LAYERS, HEADS, HEAD_DIM, block_size=BLOCK, num_blocks=num_blocks)


def paged_row(pool: KVBlockPool, length: int, seed: int = 0) -> PagedKVCache:
    """A batch-1 paged cache holding ``length`` random cached positions."""
    cache = PagedKVCache(pool, batch=1)
    rng = np.random.default_rng(seed)
    shape = (1, HEADS, length, HEAD_DIM)
    for layer in cache.layers:
        layer.append(
            rng.normal(size=shape).astype(np.float32),
            rng.normal(size=shape).astype(np.float32),
        )
    return cache


class TestPagedSharedBlockAccounting:
    """Regression: the byte budget counts each shared physical block once.

    Paged retention pins pool blocks by reference instead of copying; two
    entries sharing a prompt preamble pin the *same* blocks.  Charging each
    entry its full ``nbytes`` would double-count the shared blocks, shrink
    the effective byte budget, and evict entries the pool actually has room
    for — so the cache keeps per-block retention refcounts and charges a
    block only on its first pin."""

    def test_shared_blocks_charged_once(self):
        pool = make_paged_pool()
        row = paged_row(pool, 8)  # blocks [b0, b1] at block_size 4
        cache = PrefixCache(max_tokens=1000)
        assert cache.insert([1, 2, 3, 4, 5, 6, 7, 8], row.snapshot_prefix(0, 8))
        assert cache.num_bytes == 2 * BLOCK_NBYTES
        # The shorter entry pins only b0, which the first entry already pinned.
        assert cache.insert([1, 2, 3, 4], row.snapshot_prefix(0, 4))
        assert cache.num_bytes == 2 * BLOCK_NBYTES  # not 3: b0 counted once
        row.release()
        assert pool.blocks_in_use == 2  # retention alone keeps b0 and b1 alive
        cache.clear()
        assert cache.num_bytes == 0
        assert pool.blocks_in_use == 0
        assert np.all(pool.refcounts == 0)

    def test_eviction_credits_only_the_last_pin(self):
        pool = make_paged_pool()
        row = paged_row(pool, 8)
        cache = PrefixCache(max_tokens=1000)
        cache.insert([1, 2, 3, 4, 5, 6, 7, 8], row.snapshot_prefix(0, 8))
        cache.insert([1, 2, 3, 4], row.snapshot_prefix(0, 4))
        row.release()
        # LRU is the 8-token entry: evicting it frees b1 (sole pin) but b0
        # stays charged and alive through the surviving 4-token entry.
        assert cache.evict_lru()
        assert cache.num_bytes == 1 * BLOCK_NBYTES
        assert pool.blocks_in_use == 1
        assert cache.lookup([1, 2, 3, 4], limit=3)[0] == 3  # survivor still serves
        assert cache.evict_lru()
        assert cache.num_bytes == 0
        assert pool.blocks_in_use == 0
        assert not cache.evict_lru()  # empty cache: nothing to reclaim

    def test_byte_budget_sized_by_physical_blocks(self):
        """A budget of exactly two blocks admits a sharing entry for free and
        only evicts when genuinely new blocks are pinned."""
        pool = make_paged_pool()
        row = paged_row(pool, 8)
        other = paged_row(pool, 4, seed=1)
        cache = PrefixCache(max_tokens=1000, max_bytes=2 * BLOCK_NBYTES)
        assert cache.insert([1, 2, 3, 4, 5, 6, 7, 8], row.snapshot_prefix(0, 8))
        # Shares both pinned blocks: charges nothing, evicts nothing.
        assert cache.insert([1, 2, 3, 4], row.snapshot_prefix(0, 4))
        assert len(cache) == 2 and cache.stats.evictions == 0
        # A disjoint entry pins a genuinely new block: now over budget, the
        # LRU 8-token entry goes; its shared b0 stays charged via the
        # 4-token survivor, so exactly one block's bytes are credited back.
        assert cache.insert([9, 9, 9, 9], other.snapshot_prefix(0, 4))
        assert cache.stats.evictions == 1
        assert cache.num_bytes == 2 * BLOCK_NBYTES
        assert cache.lookup([1, 2, 3, 4], limit=3)[0] == 3
        row.release()
        other.release()
        cache.clear()
        assert pool.blocks_in_use == 0

    def test_rejected_insert_releases_block_pins(self):
        """insert takes segment ownership: a rejected paged segment must not
        leave its blocks pinned forever."""
        pool = make_paged_pool()
        row = paged_row(pool, 8)
        cache = PrefixCache(max_tokens=4)  # an 8-token prompt can never fit
        prefix = row.snapshot_prefix(0, 8)
        assert np.all(pool.refcounts[list(prefix.block_ids)] == 2)
        assert not cache.insert([1, 2, 3, 4, 5, 6, 7, 8], prefix)
        assert np.all(pool.refcounts[list(prefix.block_ids)] == 1)  # unpinned
        assert cache.num_bytes == 0
        row.release()
        assert pool.blocks_in_use == 0

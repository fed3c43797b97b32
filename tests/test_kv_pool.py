"""Unit tests for the paged K/V block pool (refcounts, COW, table ops).

Engine-level behaviour — token identity with sequential ``generate`` across
decode modes, zero-copy prefix hits, page-gated admission — lives in
``tests/test_serving.py``.  This file pins down the storage layer itself:
:class:`~repro.nn.kv_pool.KVBlockPool` allocation and refcounting,
:class:`~repro.nn.kv_pool.PagedKVCache` table operations against the row
cache as a content oracle, copy-on-write sharing, zero-copy prefix
snapshot/splice, pressure/exhaustion, and leak-freedom (every op sequence
ends with all refcounts at zero once the caches are released).
"""

from __future__ import annotations

import numpy as np
import pytest

from proptest import Cases, for_all, num_cases

from repro.nn.kv_cache import KVCache
from repro.nn.kv_pool import (
    KVBlockPool,
    KVPoolExhausted,
    PagedKVCache,
    PagedPrefix,
    _read_blocks,
    blocks_for,
)

LAYERS, HEADS, HEAD_DIM = 2, 2, 4
BLOCK = 4


def make_pool(num_blocks: int = 64, block_size: int = BLOCK) -> KVBlockPool:
    return KVBlockPool(LAYERS, HEADS, HEAD_DIM, block_size=block_size, num_blocks=num_blocks)


def random_kv(rng, batch: int, width: int):
    shape = (batch, HEADS, width, HEAD_DIM)
    return (
        rng.normal(size=shape).astype(np.float32),
        rng.normal(size=shape).astype(np.float32),
    )


def append_both(row_cache: KVCache, paged: PagedKVCache, rng, width: int, widths=None):
    """Append identical projections to both caches, layer by layer."""
    batch = paged.batch
    if widths is not None:
        row_cache.set_append_widths(widths)
        paged.set_append_widths(widths)
    try:
        for row_layer, paged_layer in zip(row_cache.layers, paged.layers):
            k_new, v_new = random_kv(rng, batch, width)
            row_layer.append(k_new, v_new)
            paged_layer.append(k_new, v_new)
    finally:
        row_cache.set_append_widths(None)
        paged.set_append_widths(None)


def row_with_prefix(source: KVCache, row: int, take: int, capacity: int) -> KVCache:
    """A fresh batch-1 row cache holding ``source`` row ``row``'s first ``take`` positions.

    The row-cache side of a paged prefix splice: appending the positions is
    what a fresh row that had spliced them would hold.
    """
    fresh = KVCache(LAYERS, HEADS, HEAD_DIM, capacity=capacity, batch=1)
    for layer, source_layer in zip(fresh.layers, source.layers):
        layer.append(source_layer.k[row : row + 1, :, :take], source_layer.v[row : row + 1, :, :take])
    return fresh


def read_layer(paged: PagedKVCache, layer: int, view: int):
    """Dense ``(batch, heads, view, head_dim)`` K/V of one layer, read the way ``append`` reads."""
    tables = paged._padded_tables(view)
    return _read_blocks(paged.pool.k[layer], tables, view), _read_blocks(paged.pool.v[layer], tables, view)


def assert_same_content(row_cache: KVCache, paged: PagedKVCache):
    """Row-by-row bitwise comparison of the cached (non-stale) positions."""
    assert row_cache.lengths.tolist() == paged.lengths.tolist()
    view = int(paged.length)
    for layer_index, row_layer in enumerate(row_cache.layers):
        k_paged, v_paged = read_layer(paged, layer_index, view)
        for row, length in enumerate(row_cache.lengths):
            length = int(length)
            np.testing.assert_array_equal(k_paged[row, :, :length], row_layer.k[row, :, :length])
            np.testing.assert_array_equal(v_paged[row, :, :length], row_layer.v[row, :, :length])


def assert_tables_fit_lengths(paged: PagedKVCache):
    """Every row holds exactly the blocks its length needs: none leaked past it, none missing."""
    block_size = paged.pool.block_size
    assert [len(table) for table in paged._tables] == [blocks_for(int(n), block_size) for n in paged.lengths]


class TestBlocksFor:
    def test_rounding(self):
        assert blocks_for(0, 4) == 0
        assert blocks_for(1, 4) == 1
        assert blocks_for(4, 4) == 1
        assert blocks_for(5, 4) == 2


class TestKVBlockPool:
    def test_alloc_free_roundtrip(self):
        pool = make_pool(num_blocks=4)
        blocks = [pool.alloc() for _ in range(4)]
        assert pool.num_free == 0
        assert pool.blocks_in_use == 4
        assert pool.peak_blocks_in_use == 4
        for block in blocks:
            assert pool.refcounts[block] == 1
            pool.decref(block)
        assert pool.num_free == 4
        assert np.all(pool.refcounts == 0)
        # Peak is a lifetime high-water mark, not a current gauge.
        assert pool.peak_blocks_in_use == 4

    def test_incref_decref_sharing(self):
        pool = make_pool()
        block = pool.alloc()
        pool.incref(block)
        assert pool.refcounts[block] == 2
        assert pool.num_shared == 1
        pool.decref(block)
        assert pool.num_free == pool.num_blocks - 1  # still held once
        pool.decref(block)
        assert pool.num_free == pool.num_blocks

    def test_double_free_and_free_incref_rejected(self):
        pool = make_pool()
        block = pool.alloc()
        pool.decref(block)
        with pytest.raises(ValueError, match="double free"):
            pool.decref(block)
        with pytest.raises(ValueError, match="free block"):
            pool.incref(block)

    def test_exhaustion_raises_without_pressure_callback(self):
        pool = make_pool(num_blocks=2)
        pool.alloc()
        pool.alloc()
        with pytest.raises(KVPoolExhausted, match="exhausted"):
            pool.alloc()

    def test_pressure_callback_relieves_exhaustion(self):
        pool = make_pool(num_blocks=2)
        held = [pool.alloc(), pool.alloc()]

        def shed_one() -> bool:
            if held:
                pool.decref(held.pop())
                return True
            return False

        pool.on_pressure = shed_one
        block = pool.alloc()  # relieved by one eviction, no raise
        assert pool.refcounts[block] == 1
        pool.alloc()  # drains the second held block too
        with pytest.raises(KVPoolExhausted):
            pool.alloc()  # nothing left to shed

    def test_copy_block_copies_all_layers_and_counts(self):
        pool = make_pool()
        rng = np.random.default_rng(0)
        source = pool.alloc()
        for layer in range(LAYERS):
            pool.k[layer][source] = rng.normal(size=pool.k[layer][source].shape)
            pool.v[layer][source] = rng.normal(size=pool.v[layer][source].shape)
        target = pool.copy_block(source)
        assert target != source
        assert pool.cow_events == 1
        for layer in range(LAYERS):
            np.testing.assert_array_equal(pool.k[layer][target], pool.k[layer][source])
            np.testing.assert_array_equal(pool.v[layer][target], pool.v[layer][source])

    def test_stats_shape(self):
        pool = make_pool(num_blocks=8)
        pool.alloc()
        stats = pool.stats()
        assert stats["blocks_in_use"] == 1
        assert stats["blocks_free"] == 7
        assert stats["occupancy"] == 1 / 8
        assert stats["kv_bytes_in_use"] == pool.block_nbytes
        assert stats["peak_kv_bytes"] == pool.block_nbytes
        assert stats["shared_blocks"] == 0 and stats["cow_events"] == 0

    def test_validation(self):
        with pytest.raises(ValueError, match="block_size"):
            KVBlockPool(1, 1, 1, block_size=0)
        with pytest.raises(ValueError, match="num_blocks"):
            KVBlockPool(1, 1, 1, num_blocks=0)
        with pytest.raises(ValueError, match="num_layers"):
            KVBlockPool(0, 1, 1)


class TestPagedPrefix:
    def _cache_with_row(self, pool, length: int, seed: int = 0) -> PagedKVCache:
        cache = PagedKVCache(pool, batch=1)
        rng = np.random.default_rng(seed)
        for layer in cache.layers:
            layer.append(*random_kv(rng, 1, length))
        return cache

    def test_snapshot_pins_blocks(self):
        pool = make_pool()
        cache = self._cache_with_row(pool, 6)
        prefix = cache.snapshot_prefix(0, 6)
        assert prefix.length == 6
        assert len(prefix.block_ids) == blocks_for(6, BLOCK)
        assert all(pool.refcounts[b] == 2 for b in prefix.block_ids)
        cache.release()
        # The snapshot keeps the blocks alive after the row is gone.
        assert all(pool.refcounts[b] == 1 for b in prefix.block_ids)
        prefix.release()
        assert np.all(pool.refcounts == 0)

    def test_release_idempotent(self):
        pool = make_pool()
        cache = self._cache_with_row(pool, 5)
        prefix = cache.snapshot_prefix(0, 5)
        prefix.release()
        prefix.release()  # no double decref
        cache.release()
        assert np.all(pool.refcounts == 0)

    def test_head_view_is_non_owning(self):
        pool = make_pool()
        cache = self._cache_with_row(pool, 8)
        prefix = cache.snapshot_prefix(0, 8)
        before = pool.refcounts.copy()
        head = prefix.head(3)
        assert head.length == 3
        assert len(head.block_ids) == blocks_for(3, BLOCK)
        np.testing.assert_array_equal(pool.refcounts, before)  # no incref
        head.release()  # no-op for views
        np.testing.assert_array_equal(pool.refcounts, before)
        prefix.release()
        cache.release()

    def test_geometry(self):
        pool = make_pool()
        cache = self._cache_with_row(pool, 5)
        prefix = cache.snapshot_prefix(0, 5)
        assert prefix.num_layers == LAYERS
        assert prefix.num_heads == HEADS
        assert prefix.head_dim == HEAD_DIM
        assert len(prefix.block_ids) == blocks_for(5, BLOCK)
        prefix.release()
        cache.release()

    def test_validation(self):
        pool = make_pool()
        with pytest.raises(ValueError, match="cannot hold"):
            PagedPrefix(pool, [0], 9)  # 9 positions need 3 blocks at size 4
        with pytest.raises(ValueError, match="negative"):
            PagedPrefix(pool, [], -1)
        cache = self._cache_with_row(pool, 5)
        prefix = cache.snapshot_prefix(0, 5)
        with pytest.raises(ValueError, match="out of range"):
            prefix.head(6)
        prefix.release()
        cache.release()


class TestPagedVsRowContent:
    """The paged cache must hold bitwise the row cache's contents under every op."""

    def _pair(self, batch: int, capacity: int = 64, pool_blocks: int = 128):
        pool = make_pool(num_blocks=pool_blocks)
        row_cache = KVCache(LAYERS, HEADS, HEAD_DIM, capacity=capacity, batch=batch)
        paged = PagedKVCache(pool, batch=batch)
        return pool, row_cache, paged

    def test_plain_appends(self):
        pool, row_cache, paged = self._pair(batch=3)
        rng = np.random.default_rng(0)
        for width in (1, BLOCK, BLOCK + 1, 2):
            append_both(row_cache, paged, rng, width)
        assert_same_content(row_cache, paged)
        paged.release()
        assert np.all(pool.refcounts == 0)

    def test_ragged_append_widths(self):
        pool, row_cache, paged = self._pair(batch=3)
        rng = np.random.default_rng(1)
        append_both(row_cache, paged, rng, 5)
        append_both(row_cache, paged, rng, 4, widths=[4, 0, 2])
        append_both(row_cache, paged, rng, 3, widths=[1, 3, 0])
        assert row_cache.lengths.tolist() == [10, 8, 7]
        assert_same_content(row_cache, paged)
        paged.release()
        assert np.all(pool.refcounts == 0)

    def test_repeat_rows_then_compact_rows(self):
        pool, row_cache, paged = self._pair(batch=2)
        rng = np.random.default_rng(2)
        append_both(row_cache, paged, rng, 6)
        row_step = row_cache.repeat_rows([2, 3])
        paged_step = paged.repeat_rows([2, 3])
        # Tiling is pure aliasing: zero copies until a write diverges.
        assert pool.cow_events == 0
        append_both(row_step, paged_step, rng, 3, widths=[3, 2, 1, 3, 2])
        assert_same_content(row_step, paged_step)
        assert pool.cow_events > 0  # the shared tail blocks diverged
        # Sources are untouched by the tiles' divergent writes.
        assert_same_content(row_cache, paged)
        row_new = row_step.compact_rows([1, 3], [8, 7])
        paged_new = paged_step.compact_rows([1, 3], [8, 7])
        paged_step.release()
        paged.release()
        assert_same_content(row_new, paged_new)
        paged_new.release()
        assert np.all(pool.refcounts == 0)

    def test_select_rows_subset_and_reorder(self):
        pool, row_cache, paged = self._pair(batch=4)
        rng = np.random.default_rng(3)
        append_both(row_cache, paged, rng, 7, widths=[7, 3, 5, 6])
        row_cache.select_rows([3, 1])
        paged.select_rows([3, 1])
        assert paged.lengths.tolist() == [6, 3]
        assert_same_content(row_cache, paged)
        paged.release()
        assert np.all(pool.refcounts == 0)

    def test_truncate_rows_frees_vacated_blocks(self):
        pool, row_cache, paged = self._pair(batch=2)
        rng = np.random.default_rng(4)
        append_both(row_cache, paged, rng, 10)
        held_before = pool.blocks_in_use
        row_cache.truncate_rows([3, 10])
        paged.truncate_rows([3, 10])
        assert pool.blocks_in_use < held_before  # row 0's tail blocks returned
        assert_same_content(row_cache, paged)
        paged.release()
        assert np.all(pool.refcounts == 0)

    def test_compact_paths_matches_row_cache(self):
        pool, row_cache, paged = self._pair(batch=2)
        rng = np.random.default_rng(5)
        append_both(row_cache, paged, rng, 6, widths=[6, 5])  # committed prefixes
        append_both(row_cache, paged, rng, 5, widths=[5, 4])  # tree window
        prefixes = [6, 5]
        paths = [[0, 2, 4], [1, 3]]
        cow_before = pool.cow_events
        assert row_cache.compact_paths(prefixes, paths) is None
        assert paged.compact_paths(prefixes, paths) is None
        assert row_cache.lengths.tolist() == [9, 7]
        assert_same_content(row_cache, paged)
        # In place: no block copied, and no row holds a block past its new length.
        assert pool.cow_events == cow_before
        assert_tables_fit_lengths(paged)
        paged.release()
        assert np.all(pool.refcounts == 0)

    def test_compact_paths_frees_the_rejected_branches(self):
        """Only the committed blocks stay held; the tree window's tail returns to the pool."""
        pool, row_cache, paged = self._pair(batch=2)
        rng = np.random.default_rng(12)
        append_both(row_cache, paged, rng, 5)  # prefixes: 5 positions, two blocks each
        append_both(row_cache, paged, rng, 9)  # tree windows up to position 14: four blocks each
        assert pool.blocks_in_use == 8
        paged.compact_paths([5, 5], [[0], []])
        assert paged.lengths.tolist() == [6, 5]
        assert pool.blocks_in_use == 4
        paged.release()
        assert np.all(pool.refcounts == 0)

    def test_concat_consumes_sources(self):
        pool = make_pool()
        rng = np.random.default_rng(6)
        rows = []
        pages = []
        for seed in range(3):
            row_cache = KVCache(LAYERS, HEADS, HEAD_DIM, capacity=32, batch=1)
            paged = PagedKVCache(pool, batch=1)
            append_both(row_cache, paged, rng, 4 + seed)
            rows.append(row_cache)
            pages.append(paged)
        row_merged = KVCache.concat(rows)
        paged_merged = PagedKVCache.concat(pages)
        assert paged_merged.lengths.tolist() == [4, 5, 6]
        assert_same_content(row_merged, paged_merged)
        # Sources were consumed (tables moved, no refcount churn)...
        with pytest.raises(ValueError, match="released"):
            PagedKVCache.concat([pages[0], paged_merged])
        # ... so one release of the merged cache frees everything.
        paged_merged.release()
        assert np.all(pool.refcounts == 0)

    def test_concat_rejects_mixed_pools(self):
        pool_a, pool_b = make_pool(), make_pool()
        with pytest.raises(ValueError, match="one KVBlockPool"):
            PagedKVCache.concat([PagedKVCache(pool_a, batch=1), PagedKVCache(pool_b, batch=1)])


class TestZeroCopySplice:
    def test_splice_aliases_blocks_without_copying(self):
        pool = make_pool()
        source = PagedKVCache(pool, batch=1)
        rng = np.random.default_rng(7)
        for layer in source.layers:
            layer.append(*random_kv(rng, 1, 9))
        prefix = source.snapshot_prefix(0, 9)
        held_before = pool.blocks_in_use
        cow_before = pool.cow_events

        fresh = PagedKVCache(pool, batch=1)
        fresh.splice_prefix(0, prefix.head(6))
        # Zero copies, zero fresh blocks: the splice is pure table aliasing.
        assert pool.blocks_in_use == held_before
        assert pool.cow_events == cow_before
        assert fresh.lengths.tolist() == [6]
        assert fresh._tables[0] == list(prefix.block_ids[: blocks_for(6, BLOCK)])

        # First divergent append copy-on-writes only the shared partial block.
        for layer in fresh.layers:
            layer.append(*random_kv(rng, 1, 2))
        assert pool.cow_events == cow_before + 1
        # The source row still reads its own original content.
        k_source, _ = read_layer(source, 0, 9)
        k_prefix_block = pool.k[0][prefix.block_ids[1]]
        np.testing.assert_array_equal(k_source[0, :, BLOCK : 2 * BLOCK], k_prefix_block[:, :, :])

        fresh.release()
        prefix.release()
        source.release()
        assert np.all(pool.refcounts == 0)

    def test_splice_requires_fresh_row_and_same_pool(self):
        pool = make_pool()
        cache = PagedKVCache(pool, batch=1)
        rng = np.random.default_rng(8)
        for layer in cache.layers:
            layer.append(*random_kv(rng, 1, 5))
        prefix = cache.snapshot_prefix(0, 5)
        with pytest.raises(ValueError, match="fresh row"):
            cache.splice_prefix(0, prefix)
        other_pool_cache = PagedKVCache(make_pool(), batch=1)
        with pytest.raises(ValueError, match="different KVBlockPool"):
            other_pool_cache.splice_prefix(0, prefix)
        prefix.release()
        cache.release()


class TestPagedOpsFuzz:
    """Random op sequences: paged content tracks the row oracle; no leaks."""

    def _run_trace(self, cases: Cases) -> None:
        rng = np.random.default_rng(cases.integer(0, 2**31))
        batch = cases.integer(1, 3)
        pool = make_pool(num_blocks=512, block_size=cases.integer(2, 6))
        row_cache = KVCache(LAYERS, HEADS, HEAD_DIM, capacity=128, batch=batch)
        paged = PagedKVCache(pool, batch=batch)
        for _ in range(cases.integer(1, 8)):
            action = cases.integer(0, 4)
            batch_now = paged.batch
            if action == 0 and batch_now > 0:  # ragged append
                width = cases.integer(1, 7)
                widths = [cases.integer(0, width) for _ in range(batch_now)]
                append_both(row_cache, paged, rng, width, widths=widths)
            elif action == 1 and batch_now > 0:  # tile + diverge + compact
                counts = [cases.integer(1, 2) for _ in range(batch_now)]
                row_step = row_cache.repeat_rows(counts)
                paged_step = paged.repeat_rows(counts)
                append_both(row_step, paged_step, rng, 2)
                keep = [cases.integer(0, sum(counts) - 1) for _ in range(batch_now)]
                lengths = [int(row_step.lengths[k]) - cases.integer(0, 1) for k in keep]
                row_new = row_step.compact_rows(keep, lengths)
                paged_new = paged_step.compact_rows(keep, lengths)
                paged_step.release()
                paged.release()
                row_cache, paged = row_new, paged_new
            elif action == 2 and batch_now > 1:  # drop a row
                victim = cases.integer(0, batch_now - 1)
                keep_rows = [r for r in range(batch_now) if r != victim]
                row_cache.select_rows(keep_rows)
                paged.select_rows(keep_rows)
            elif action == 4 and batch_now > 0:  # tree window, then keep one path per row in place
                prefixes = [int(length) for length in paged.lengths]
                sizes = [cases.integer(1, 5) for _ in range(batch_now)]
                append_both(row_cache, paged, rng, max(sizes), widths=sizes)
                paths = [sorted(cases.subset(range(size), cases.integer(0, size))) for size in sizes]
                row_cache.compact_paths(prefixes, paths)
                paged.compact_paths(prefixes, paths)
            elif batch_now > 0:  # snapshot + splice into a fresh row
                source_row = cases.integer(0, batch_now - 1)
                length = int(paged.lengths[source_row])
                if length > 0:
                    take = cases.integer(1, length)
                    prefix = paged.snapshot_prefix(source_row, take)
                    fresh_row = row_with_prefix(row_cache, source_row, take, capacity=128)
                    fresh_paged = PagedKVCache(pool, batch=1)
                    fresh_paged.splice_prefix(0, prefix)
                    prefix.release()
                    row_cache = KVCache.concat([row_cache, fresh_row])
                    paged = PagedKVCache.concat([paged, fresh_paged])
            assert_same_content(row_cache, paged)
            assert_tables_fit_lengths(paged)
        paged.release()
        assert np.all(pool.refcounts == 0), "leaked block references"
        assert pool.num_free == pool.num_blocks

    def test_random_op_traces(self):
        for_all(num_cases(40, 40), self._run_trace, seed=43)


def assert_same_views(row_views, paged_views, lengths):
    """What ``append`` handed to attention: equal on every row's own prefix, same layout class."""
    for row_view, paged_view in zip(row_views, paged_views):
        assert row_view.shape == paged_view.shape
        # Row-major (position, head_dim) matrices either way: the layout np.matmul keys its kernel on.
        # A zero-size view (a zero-width append on empty rows) has no layout to compare.
        if row_view.size:
            assert row_view.strides[-2:] == paged_view.strides[-2:]
        for row, length in enumerate(lengths):
            assert np.array_equal(row_view[row, :, : int(length)], paged_view[row, :, : int(length)])


def append_and_compare(row_cache: KVCache, paged: PagedKVCache, rng, width: int, widths=None):
    """One forward's appends on both caches, comparing every layer's returned K/V."""
    batch = paged.batch
    row_cache.set_append_widths(widths)
    paged.set_append_widths(widths)
    try:
        for row_layer, paged_layer in zip(row_cache.layers, paged.layers):
            k_new, v_new = random_kv(rng, batch, width)
            # Attention hands over head-split transposed views, not contiguous arrays.
            k_new = np.ascontiguousarray(k_new.transpose(0, 2, 1, 3)).transpose(0, 2, 1, 3)
            row_views = row_layer.append(k_new, v_new)
            paged_views = paged_layer.append(k_new, v_new)
            assert_same_views(row_views, paged_views, row_layer.lengths)
    finally:
        row_cache.set_append_widths(None)
        paged.set_append_widths(None)
    assert paged._write_plan is None


class TestAppendReturnsTheRowOraclesViews:
    """Ragged appends between table surgery: every ``append`` returns the row cache's K/V."""

    def _run_trace(self, cases: Cases) -> None:
        rng = np.random.default_rng(cases.integer(0, 2**31))
        block_size = cases.choice([1, 4, 16])
        pool = make_pool(num_blocks=2048, block_size=block_size)
        batch = cases.integer(1, 4)
        row_cache = KVCache(LAYERS, HEADS, HEAD_DIM, capacity=160, batch=batch)
        paged = PagedKVCache(pool, batch=batch)
        retained = []
        for _ in range(cases.integer(3, 9)):
            batch_now = paged.batch
            action = cases.integer(0, 5) if batch_now else 4
            if action <= 1:  # ragged append, widths including 0; sometimes block-aligned views
                width = block_size * cases.integer(1, 2) if cases.boolean(0.3) else cases.integer(1, 9)
                widths = None if cases.boolean(0.3) else [cases.integer(0, width) for _ in range(batch_now)]
                append_and_compare(row_cache, paged, rng, width, widths)
            elif action == 2:  # a decode step: append a tree window, keep one path per row
                prefixes = [int(length) for length in paged.lengths]
                sizes = [cases.integer(1, 6) for _ in range(batch_now)]
                append_and_compare(row_cache, paged, rng, max(sizes), sizes)
                paths = [sorted(cases.subset(range(size), cases.integer(1, size))) for size in sizes]
                cow_before = pool.cow_events
                row_cache.compact_paths(prefixes, paths)
                paged.compact_paths(prefixes, paths)
                assert pool.cow_events == cow_before  # the tree append already made the window exclusive
            elif action == 3 and batch_now > 1:  # drop / reorder rows
                keep = cases.subset(range(batch_now), cases.integer(1, batch_now))
                row_cache.select_rows(keep)
                paged.select_rows(keep)
            elif action >= 4 or batch_now == 0:  # admit a row, spliced from a shared prefix when one exists
                fresh_row = KVCache(LAYERS, HEADS, HEAD_DIM, capacity=160, batch=1)
                fresh_paged = PagedKVCache(pool, batch=1)
                if retained and cases.boolean(0.7):
                    retained_row, prefix = cases.choice(retained)
                    take = cases.integer(1, prefix.length)
                    fresh_row = row_with_prefix(retained_row, 0, take, capacity=160)
                    fresh_paged.splice_prefix(0, prefix.head(take))
                # The divergent suffix copy-on-writes the spliced trailing block.
                append_and_compare(fresh_row, fresh_paged, rng, cases.integer(1, 7))
                length = fresh_paged.length
                retained.append((row_with_prefix(fresh_row, 0, length, capacity=160), fresh_paged.snapshot_prefix(0, length)))
                row_cache = KVCache.concat([row_cache, fresh_row]) if batch_now else fresh_row
                paged = PagedKVCache.concat([paged, fresh_paged]) if batch_now else fresh_paged
            assert_same_content(row_cache, paged)
            assert_tables_fit_lengths(paged)
        paged.release()
        for _, prefix in retained:
            prefix.release()
        assert np.all(pool.refcounts == 0), "leaked block references"

    def test_random_forward_traces(self):
        for_all(num_cases(60, 400), self._run_trace, seed=47)

    def test_zero_width_append_on_empty_rows(self):
        """Regression (slow-tier case 68): nothing appended to nothing is an equal, empty view."""
        pool = make_pool(num_blocks=16, block_size=4)
        row_cache = KVCache(LAYERS, HEADS, HEAD_DIM, capacity=16, batch=2)
        paged = PagedKVCache(pool, batch=2)
        append_and_compare(row_cache, paged, np.random.default_rng(0), 3, widths=[0, 0])
        assert list(paged.lengths) == [0, 0]
        paged.release()
        assert np.all(pool.refcounts == 0)


class TestOncePerForwardWritePlan:
    """Counts, not clocks: the rows are walked once per forward, not once per layer."""

    def _cache(self, batch=4, prefix=6):
        pool = make_pool(num_blocks=256)
        cache = PagedKVCache(pool, batch=batch)
        rng = np.random.default_rng(10)
        for layer in cache.layers:
            layer.append(*random_kv(rng, batch, prefix))
        return pool, cache, rng

    def test_one_forward_walks_the_rows_once(self, monkeypatch):
        pool, cache, rng = self._cache()
        calls = {"ensure": 0, "tables": 0, "plans": 0}
        for name, method in (("ensure", "_ensure_writable"), ("tables", "_padded_tables"), ("plans", "_plan_writes")):
            original = getattr(cache, method)

            def counting(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(cache, method, counting)
        cache.set_append_widths([3, 1, 2, 3])
        plans_seen = []
        for layer in cache.layers:
            layer.append(*random_kv(rng, 4, 3))
            plans_seen.append(cache._write_plan)
        # 4 rows, LAYERS (2) layers: four row visits and one table array, all in the first layer's call.
        assert calls == {"ensure": 4, "tables": 1, "plans": 1}
        assert plans_seen[0] is not None and plans_seen[-1] is None
        cache.release()
        assert np.all(pool.refcounts == 0)

    @pytest.mark.parametrize(
        "op",
        ["select_rows", "set_append_widths", "truncate_rows", "splice_prefix", "release",
         "snapshot_prefix", "repeat_rows", "compact_rows", "compact_paths"],
    )
    def test_a_plan_cannot_outlive_its_forward(self, op):
        pool, cache, rng = self._cache(batch=2)
        prefix = cache.snapshot_prefix(0, 4)
        cache.truncate_rows([6, 0])  # row 1 fresh again, so a splice into it is legal
        # Half a forward: only the first layer has appended, so the plan is still up.
        cache.set_append_widths([2, 0])
        cache.layers[0].append(*random_kv(rng, 2, 2))
        assert cache._write_plan is not None
        shares = {
            "select_rows": lambda: cache.select_rows([1, 0]),
            "set_append_widths": lambda: cache.set_append_widths(None),
            "truncate_rows": lambda: cache.truncate_rows([6, 0]),
            "splice_prefix": lambda: cache.splice_prefix(1, prefix),
            "release": cache.release,
            # These start sharing the cache's blocks: a surviving plan would write them without copy-on-write.
            "snapshot_prefix": lambda: cache.snapshot_prefix(0, 6),
            "repeat_rows": lambda: cache.repeat_rows(2),
            "compact_rows": lambda: cache.compact_rows([0, 1], [6, 0]),
            "compact_paths": lambda: cache.compact_paths([8, 0], [[], []]),
        }[op]()
        assert cache._write_plan is None
        if shares is not None:
            # The interrupted forward's next layer re-plans and copies the now-shared tail block.
            cow_before = pool.cow_events
            cache.layers[1].append(*random_kv(rng, 2, 2))
            assert pool.cow_events == cow_before + 1
            shares.release()
        prefix.release()
        cache.release()
        assert np.all(pool.refcounts == 0)

    def test_a_stale_plan_is_not_reused_by_a_later_layer(self):
        """Layer 1 appended out of step with layer 0 builds its own plan from its own lengths."""
        pool, cache, rng = self._cache(batch=2)
        row_cache = KVCache(LAYERS, HEADS, HEAD_DIM, capacity=64, batch=2)
        for layer_index in range(LAYERS):
            row_cache.layers[layer_index].k[:, :, :6] = read_layer(cache, layer_index, 6)[0]
            row_cache.layers[layer_index].lengths = np.full(2, 6)
        k_a, v_a = random_kv(rng, 2, 3)
        k_b, v_b = random_kv(rng, 2, 3)
        for layers in (cache.layers, row_cache.layers):
            layers[0].append(k_a, v_a)
            layers[0].append(k_b, v_b)  # layer 0 is now 12 long, layer 1 still 6
        k_paged, _ = cache.layers[1].append(k_a, v_a)
        k_row, _ = row_cache.layers[1].append(k_a, v_a)
        assert cache.layers[1].lengths.tolist() == [9, 9]
        assert np.array_equal(k_paged[:, :, 6:9], k_row[:, :, 6:9])
        cache.release()


class CountingArray(np.ndarray):
    """Counts indexed (fancy) reads and writes; basic slicing is not counted."""

    reads = 0
    writes = 0

    @staticmethod
    def _indexed(key) -> bool:
        return isinstance(key, tuple) and any(isinstance(part, (list, np.ndarray)) for part in key)

    def __getitem__(self, key):
        if self._indexed(key):
            CountingArray.reads += 1
        return super().__getitem__(key)

    def __setitem__(self, key, value):
        if self._indexed(key):
            CountingArray.writes += 1
        super().__setitem__(key, value)


class TestPagedCompactPathsCounts:
    def test_three_rows_one_indexed_read_and_write_per_pool_array(self):
        pool = make_pool(num_blocks=256)
        row_cache = KVCache(LAYERS, HEADS, HEAD_DIM, capacity=64, batch=3)
        paged = PagedKVCache(pool, batch=3)
        rng = np.random.default_rng(11)
        append_both(row_cache, paged, rng, 7, widths=[7, 5, 6])
        append_both(row_cache, paged, rng, 5, widths=[5, 3, 4])
        prefixes, paths = [7, 5, 6], [[0, 2, 4], [], [1, 3]]
        pool.k = [array.view(CountingArray) for array in pool.k]
        pool.v = [array.view(CountingArray) for array in pool.v]
        CountingArray.reads = CountingArray.writes = 0
        paged.compact_paths(prefixes, paths)
        # K and V of each layer: one indexed read, one indexed write, whatever the row count.
        assert (CountingArray.reads, CountingArray.writes) == (2 * LAYERS, 2 * LAYERS)
        pool.k = [array.view(np.ndarray) for array in pool.k]
        pool.v = [array.view(np.ndarray) for array in pool.v]
        row_cache.compact_paths(prefixes, paths)
        assert_same_content(row_cache, paged)
        paged.release()
        assert np.all(pool.refcounts == 0)


class TestModelPoolFactories:
    def test_transformer_make_block_pool_geometry(self, tiny_pipeline):
        model = tiny_pipeline.models["ours"]
        pool = model.new_block_pool(block_size=8, num_blocks=32)
        backbone_attn = model.backbone.blocks[0].attn
        assert pool.num_layers == len(model.backbone.blocks)
        assert pool.num_heads == backbone_attn.num_heads
        assert pool.head_dim == backbone_attn.head_dim
        assert pool.block_size == 8 and pool.num_blocks == 32

    def test_encoder_decoder_rejected(self):
        from repro.models.medusa import MedusaLM
        from repro.nn.transformer import EncoderDecoderTransformer

        backbone = EncoderDecoderTransformer(
            vocab_size=64, dim=32, num_encoder_layers=1, num_decoder_layers=1, num_heads=2, max_seq_len=64
        )
        model = MedusaLM(backbone, vocab_size=64, num_medusa_heads=2)
        with pytest.raises(ValueError, match="decoder-only"):
            model.new_block_pool()

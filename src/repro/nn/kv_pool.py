"""Paged attention K/V memory: a refcounted block pool with copy-on-write.

:class:`~repro.nn.kv_cache.KVCache` gives every request one contiguous row
sized for the full context window.  That layout is simple but pays for it
three ways at serving time:

* **reservation fragmentation** — a row's buffer is allocated for
  ``capacity`` positions however short the request actually runs, so peak
  memory scales with ``rows x context window`` instead of with the tokens
  actually cached;
* **copying prefix reuse** — a prefix-cache hit must *copy* the retained
  K/V into the new row (:meth:`KVCache.splice_prefix`), and retention must
  copy it back *out* (:meth:`KVCache.gather_prefix`);
* **copying reclamation** — cancelling or finishing a request compacts the
  whole shared cache around the vacated row.

This module is the vLLM-style answer, scaled to the numpy substrate.  K/V
storage is cut into fixed-size **blocks** of ``block_size`` token positions,
owned by one shared :class:`KVBlockPool`.  A sequence no longer owns storage;
it owns a **block table** — the ordered list of block ids holding its prefix
— so position ``p`` of a row lives at offset ``p % block_size`` of block
``table[p // block_size]``.  One block id addresses the same token span in
*every* layer (per-layer physical arrays, one logical id), so tables stay
per-sequence, not per-layer.

Blocks are **refcounted**.  Sharing a prefix between two sequences is
aliasing the same block ids and bumping refcounts — zero K/V copies — and
three operations that are O(tokens) copies for row caches become O(table)
pointer updates here:

* prefix-cache hits (:meth:`PagedKVCache.splice_prefix` aliases the retained
  blocks into the fresh row);
* speculative tiling (:meth:`PagedKVCache.repeat_rows` aliases each request
  row once per candidate);
* per-step compaction and cancellation (:meth:`PagedKVCache.compact_rows` /
  :meth:`PagedKVCache.select_rows` re-alias survivors and decref the rest —
  freeing a cancelled request is dropping its table).

Writes preserve sharing through **copy-on-write**: before a forward appends
into a block whose refcount exceeds one, the block is copied into a fresh
exclusive block and the writer's table entry is repointed
(:meth:`PagedKVCache._ensure_writable`).  Divergence therefore costs at most
one partially-filled block per writer; everything up to the divergence point
stays physically shared.  The pool counts these (``cow_events``) along with
its high-water mark (``peak_blocks_in_use``), which is what the shared-prefix
memory test compares against the row path's allocated bytes.

The attention read path is a **gather**: each layer view
(:class:`PagedLayerKV`) resolves block tables into contiguous
``(batch, heads, view, head_dim)`` arrays for
:class:`~repro.nn.layers.CausalSelfAttention`, which therefore runs unchanged
over paged or row storage.  Positions past a row's own length may surface
stale-but-finite block contents, exactly like the row cache's stale tail
slots; the causal mask (or the caller's ``attn_bias``) pins their scores to
``-1e9``, whose softmax weight underflows to exactly ``0.0``, so stale
storage can never leak into an output — the engine's paged/row
token-identity tests pin this down.

Exhaustion is explicit: :meth:`KVBlockPool.alloc` first invokes the
``on_pressure`` callback (the serving engine evicts prefix-cache retention,
the one reclaimable tenant) and raises :class:`KVPoolExhausted` only when
nothing more can be freed.  Admission-side deferral — not admitting work the
pool cannot hold — lives in :meth:`repro.serving.scheduler.Scheduler.admit`.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np


class KVPoolExhausted(RuntimeError):
    """Raised when a block allocation finds no free block and pressure relief freed nothing.

    Reaching this means the pool was sized below the working set the
    scheduler admitted (see ``ServingEngine``'s ``kv_pool_blocks`` sizing and
    the page-gated admission in ``Scheduler.admit``); it is a configuration
    error, not a recoverable serving state.
    """


def blocks_for(length: int, block_size: int) -> int:
    """Number of blocks needed to hold ``length`` token positions."""
    return -(-length // block_size)


class KVBlockPool:
    """Shared physical K/V storage: fixed-size token blocks with refcounts.

    Per layer, keys and values live in one preallocated array of shape
    ``(num_blocks, num_heads, block_size, head_dim)``; block id ``b`` is the
    same logical token span across all layers.  The pool hands out exclusive
    blocks (:meth:`alloc`, refcount 1), lets holders share them
    (:meth:`incref`) and returns them to the free list when the last
    reference drops (:meth:`decref`).  It is a dumb allocator on purpose:
    *which* blocks a sequence holds is the block table's business
    (:class:`PagedKVCache`), and *who* may be evicted under pressure is the
    ``on_pressure`` callback's.

    Args:
        num_layers: Transformer layers sharing the pool.
        num_heads: Attention heads per layer.
        head_dim: Per-head projection width.
        block_size: Token positions per block.  Small blocks track ragged
            lengths tightly (less padding waste, at most ``block_size - 1``
            wasted positions per sequence) but make tables longer and gathers
            more scattered; 16 is a good default at this scale.
        num_blocks: Pool capacity.  The serving engine sizes this from its
            admission budgets; see ``ServingEngine``.
    """

    def __init__(
        self,
        num_layers: int,
        num_heads: int,
        head_dim: int,
        block_size: int = 16,
        num_blocks: int = 256,
    ) -> None:
        if num_layers < 1:
            raise ValueError(f"num_layers must be positive, got {num_layers}")
        if block_size < 1:
            raise ValueError(f"block_size must be positive, got {block_size}")
        if num_blocks < 1:
            raise ValueError(f"num_blocks must be positive, got {num_blocks}")
        self.num_layers = num_layers
        self.num_heads = num_heads
        self.head_dim = head_dim
        self.block_size = block_size
        self.num_blocks = num_blocks
        self.k: List[np.ndarray] = [
            np.zeros((num_blocks, num_heads, block_size, head_dim), dtype=np.float32)
            for _ in range(num_layers)
        ]
        self.v: List[np.ndarray] = [
            np.zeros((num_blocks, num_heads, block_size, head_dim), dtype=np.float32)
            for _ in range(num_layers)
        ]
        #: Holders per block; 0 = free.  A "holder" is one block-table entry
        #: or one retained prefix reference, never a transient view.
        self.refcounts = np.zeros(num_blocks, dtype=np.int64)
        self._free: List[int] = list(range(num_blocks - 1, -1, -1))
        #: Copy-on-write copies performed (one per diverging block).
        self.cow_events = 0
        #: High-water mark of :attr:`blocks_in_use` over the pool's lifetime.
        self.peak_blocks_in_use = 0
        #: Called (repeatedly) when :meth:`alloc` finds the free list empty.
        #: Must free at least one holder somewhere and return True, or return
        #: False to signal nothing more can be reclaimed.
        self.on_pressure: Optional[Callable[[], bool]] = None

    # -- inspection ----------------------------------------------------------

    @property
    def num_free(self) -> int:
        """Blocks currently on the free list."""
        return len(self._free)

    @property
    def blocks_in_use(self) -> int:
        """Blocks held by at least one block table or prefix reference."""
        return self.num_blocks - len(self._free)

    @property
    def num_shared(self) -> int:
        """Blocks held by more than one holder (physically shared storage)."""
        return int(np.count_nonzero(self.refcounts > 1))

    @property
    def block_nbytes(self) -> int:
        """Physical storage of one block: K and V across all layers."""
        return 2 * self.num_layers * self.num_heads * self.block_size * self.head_dim * 4

    def stats(self) -> dict:
        """Occupancy/sharing/copy counters as one plain dict."""
        in_use = self.blocks_in_use
        shared = self.num_shared
        return {
            "block_size": self.block_size,
            "num_blocks": self.num_blocks,
            "blocks_in_use": in_use,
            "blocks_free": self.num_free,
            "occupancy": in_use / self.num_blocks,
            "shared_blocks": shared,
            "shared_block_ratio": shared / in_use if in_use else 0.0,
            "cow_events": self.cow_events,
            "kv_bytes_in_use": in_use * self.block_nbytes,
            "peak_kv_bytes": self.peak_blocks_in_use * self.block_nbytes,
        }

    # -- allocation ----------------------------------------------------------

    def alloc(self) -> int:
        """Hand out a free block with refcount 1, relieving pressure if needed.

        An empty free list invokes ``on_pressure`` until a block frees up or
        the callback reports nothing left to reclaim — each call must shed at
        least one holder (the engine evicts one LRU prefix-cache entry), so
        the loop terminates.
        """
        while not self._free:
            if self.on_pressure is None or not self.on_pressure():
                raise KVPoolExhausted(
                    f"KV block pool exhausted: all {self.num_blocks} blocks "
                    f"(block_size={self.block_size}) are held and nothing can be "
                    f"reclaimed; size kv_pool_blocks for the admitted working set"
                )
        block = self._free.pop()
        self.refcounts[block] = 1
        in_use = self.blocks_in_use
        if in_use > self.peak_blocks_in_use:
            self.peak_blocks_in_use = in_use
        return block

    def incref(self, block: int) -> None:
        """Add a holder to an in-use block (sharing, not allocation)."""
        if self.refcounts[block] <= 0:
            raise ValueError(f"cannot incref free block {block}")
        self.refcounts[block] += 1

    def decref(self, block: int) -> None:
        """Drop one holder; the block returns to the free list at zero."""
        if self.refcounts[block] <= 0:
            raise ValueError(f"cannot decref free block {block} (double free)")
        self.refcounts[block] -= 1
        if self.refcounts[block] == 0:
            self._free.append(block)

    def copy_block(self, source: int) -> int:
        """Copy-on-write: clone ``source``'s contents (all layers) into a fresh block.

        The returned block has refcount 1; the caller repoints its table
        entry and drops its reference to ``source``.
        """
        target = self.alloc()
        for layer in range(self.num_layers):
            self.k[layer][target] = self.k[layer][source]
            self.v[layer][target] = self.v[layer][source]
        self.cow_events += 1
        return target


class PagedPrefix:
    """Refcounted reference to the blocks holding one prompt prefix's K/V.

    The paged analogue of :class:`~repro.nn.kv_cache.KVSegment` — the unit
    the prefix cache retains — except that it holds *references to shared
    blocks* instead of a detached copy: retaining a prefix is
    ``blocks_for(length)`` increfs, and serving a hit
    (:meth:`PagedKVCache.splice_prefix`) aliases the same blocks into the new
    row.  Zero token copies either way.

    ``owns=True`` references (what :meth:`PagedKVCache.snapshot_prefix`
    returns and the prefix cache stores) pin their blocks until
    :meth:`release`.  :meth:`head` views — how the prefix cache serves
    partial matches — are non-owning: they stay valid exactly as long as the
    owning entry they were cut from, which holds for the admission-time
    lookup-then-splice sequence they exist for.
    """

    def __init__(self, pool: KVBlockPool, block_ids: Sequence[int], length: int, owns: bool = True) -> None:
        block_ids = tuple(int(b) for b in block_ids)
        if length < 0:
            raise ValueError(f"negative prefix length {length}")
        if len(block_ids) != blocks_for(length, pool.block_size):
            raise ValueError(
                f"{len(block_ids)} blocks cannot hold exactly {length} positions "
                f"at block_size={pool.block_size}"
            )
        self.pool = pool
        self.block_ids = block_ids
        self._length = length
        self._owns = owns
        if owns:
            for block in block_ids:
                pool.incref(block)

    @property
    def num_layers(self) -> int:
        return self.pool.num_layers

    @property
    def num_heads(self) -> int:
        return self.pool.num_heads

    @property
    def head_dim(self) -> int:
        return self.pool.head_dim

    @property
    def length(self) -> int:
        """Number of cached prefix positions the reference covers."""
        return self._length

    @property
    def block_nbytes(self) -> int:
        """Physical storage of one referenced block (K and V, all layers)."""
        return self.pool.block_nbytes

    @property
    def nbytes(self) -> int:
        """Physical storage of the referenced blocks — *not* exclusive ownership.

        Blocks may be shared with live rows or sibling prefixes; budget
        accounting that must not double-charge shared blocks uses
        :attr:`block_ids` (see ``PrefixCache``).
        """
        return len(self.block_ids) * self.pool.block_nbytes

    def head(self, length: int) -> "PagedPrefix":
        """A non-owning reference to the first ``length`` positions (no copy, no incref)."""
        if not 0 <= length <= self._length:
            raise ValueError(f"head length {length} out of range [0, {self._length}]")
        return PagedPrefix(
            self.pool,
            self.block_ids[: blocks_for(length, self.pool.block_size)],
            length,
            owns=False,
        )

    def release(self) -> None:
        """Drop an owning reference's block holds (idempotent; no-op for views)."""
        if not self._owns:
            return
        self._owns = False
        for block in self.block_ids:
            self.pool.decref(block)

    def __del__(self) -> None:  # pragma: no cover - backstop, not the contract
        try:
            self.release()
        except Exception:
            pass


class PagedLayerKV:
    """One layer's view of a :class:`PagedKVCache` — the attention-facing surface.

    Quacks like :class:`~repro.nn.kv_cache.LayerKVCache` for everything
    :class:`~repro.nn.layers.CausalSelfAttention` and the transformer's
    position bookkeeping touch: per-row ``lengths``, ``append_widths``, and
    :meth:`append` returning contiguous full-prefix K/V arrays.  Appends
    scatter the new projections into pool blocks (allocating and
    copy-on-writing through the cache's block tables); reads gather the
    tables back into dense arrays.  No cross-attention — paged serving is
    decoder-only, like the engine.
    """

    cross_k = None
    cross_v = None
    has_cross = False

    def __init__(self, cache: "PagedKVCache", index: int) -> None:
        self._cache = cache
        self.index = index

    @property
    def batch(self) -> int:
        return len(self._cache._tables)

    @property
    def lengths(self) -> np.ndarray:
        """Per-row cached prefix lengths of this layer (callers must not mutate)."""
        return self._cache._layer_lengths[self.index]

    @property
    def length(self) -> int:
        """Longest cached prefix across rows."""
        return int(self._cache._layer_lengths[self.index].max(initial=0))

    @property
    def append_widths(self) -> Optional[np.ndarray]:
        return self._cache._append_widths

    def append(self, k_new: np.ndarray, v_new: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Scatter ``(batch, heads, t, head_dim)`` projections into pool blocks.

        Semantics match :meth:`LayerKVCache.append`: row ``r``'s new K/V
        lands at its own offset ``lengths[r]``, ``append_widths`` trims
        right-padding, and the return value is the gathered
        ``0 .. max(lengths)`` prefix view with stale-but-finite storage past
        each row's own length (masked by the caller).  The first layer's
        append of a forward performs the block allocation and copy-on-write
        for the written ranges; later layers find the tables already
        exclusive and just write.
        """
        cache = self._cache
        batch = len(cache._tables)
        t = k_new.shape[2]
        if k_new.shape[0] != batch:
            raise ValueError(f"batch mismatch: cache has {batch} rows, got {k_new.shape[0]}")
        if cache._append_widths is None:
            widths = np.full(batch, t, dtype=np.int64)
        else:
            widths = np.asarray(cache._append_widths, dtype=np.int64)
            if widths.shape != (batch,):
                raise ValueError(f"append_widths shape {widths.shape} != (batch,) = ({batch},)")
            if np.any(widths < 0) or np.any(widths > t):
                raise ValueError(f"append widths must lie in [0, {t}], got {widths}")
        starts = cache._layer_lengths[self.index]
        new_lengths = starts + widths
        pool = cache.pool
        block_size = pool.block_size
        k_pool = pool.k[self.index]
        v_pool = pool.v[self.index]
        for row in range(batch):
            width = int(widths[row])
            if width == 0:
                continue
            start = int(starts[row])
            cache._ensure_writable(row, start, start + width)
            positions = np.arange(start, start + width)
            table = np.asarray(cache._tables[row], dtype=np.int64)
            block_ids = table[positions // block_size]
            offsets = positions % block_size
            k_pool[block_ids, :, offsets, :] = k_new[row, :, :width].transpose(1, 0, 2)
            v_pool[block_ids, :, offsets, :] = v_new[row, :, :width].transpose(1, 0, 2)
        cache._layer_lengths[self.index] = new_lengths
        return cache._gather(self.index, int(new_lengths.max(initial=0)))


class PagedKVCache:
    """A batch of sequences over one :class:`KVBlockPool`: block tables + lengths.

    The paged drop-in for the serving engine's use of
    :class:`~repro.nn.kv_cache.KVCache`: the same batched/ragged surface
    (``lengths``, ``append_widths``, ``layers`` for the forward, and the
    multi-row serving operations), but rows are block tables into shared pool
    storage, so the operations that copy tokens in the row cache become table
    aliasing here — see the module docstring for the mapping.

    Every row's table entries hold one pool reference each.  The cache must
    be :meth:`release`\\ d (or consumed by :meth:`concat`) when discarded;
    the serving engine does so explicitly at each step's compaction, which is
    what the fuzz suite's leak checks (refcounts return to zero) pin down.
    """

    def __init__(self, pool: KVBlockPool, batch: int = 0) -> None:
        self.pool = pool
        self._tables: List[List[int]] = [[] for _ in range(batch)]
        self._layer_lengths: List[np.ndarray] = [
            np.zeros(batch, dtype=np.int64) for _ in range(pool.num_layers)
        ]
        self._append_widths: Optional[np.ndarray] = None
        self.layers: List[PagedLayerKV] = [PagedLayerKV(self, i) for i in range(pool.num_layers)]
        self._released = False

    # -- inspection ----------------------------------------------------------

    @property
    def num_layers(self) -> int:
        return self.pool.num_layers

    @property
    def num_heads(self) -> int:
        return self.pool.num_heads

    @property
    def head_dim(self) -> int:
        return self.pool.head_dim

    @property
    def batch(self) -> int:
        return len(self._tables)

    @property
    def length(self) -> int:
        """Longest cached prefix across rows."""
        return int(self._layer_lengths[0].max(initial=0))

    @property
    def lengths(self) -> np.ndarray:
        """Per-row cached prefix lengths, shape ``(batch,)`` (copy)."""
        return self._layer_lengths[0].copy()

    @property
    def append_widths(self) -> Optional[np.ndarray]:
        """Per-row real-token widths declared for the next forward (or None)."""
        return self._append_widths

    @property
    def nbytes(self) -> int:
        """Physical storage referenced by this cache's tables (shared blocks counted per table entry)."""
        return sum(len(table) for table in self._tables) * self.pool.block_nbytes

    def blocks_held(self, row: int) -> int:
        """Pool blocks ``row``'s table currently references (shared or exclusive).

        The serving engine's free-page admission gate uses this to compute
        each in-flight request's *outstanding* page claim — the part of its
        admitted footprint its row has not yet grown into.
        """
        return len(self._tables[row])

    def set_append_widths(self, widths: Optional[Sequence[int]]) -> None:
        """Declare per-row real-token widths for the next incremental forward.

        Same contract as :meth:`KVCache.set_append_widths`: the setting
        persists until cleared with ``None``, so callers wrap the forward in
        ``try/finally``.
        """
        self._append_widths = None if widths is None else np.asarray(widths, dtype=np.int64)

    # -- block-table maintenance ---------------------------------------------

    def _ensure_writable(self, row: int, start: int, new_length: int) -> None:
        """Make positions ``start .. new_length`` of ``row`` exclusively writable.

        Extends the row's table with fresh blocks to cover ``new_length`` and
        copy-on-writes any *existing* table entry overlapping the written
        range whose block is shared (refcount > 1) — typically just the
        row's last, partially-filled block after a prefix splice or a
        ``repeat_rows`` tiling.  Blocks wholly before ``start`` are only ever
        read and stay shared.  Idempotent: once a block is exclusive, later
        layers' identical calls find refcount 1 and do nothing.
        """
        pool = self.pool
        table = self._tables[row]
        block_size = pool.block_size
        needed = blocks_for(new_length, block_size)
        first_written = start // block_size
        for i in range(first_written, min(len(table), needed)):
            block = table[i]
            if pool.refcounts[block] > 1:
                replacement = pool.copy_block(block)
                pool.decref(block)
                table[i] = replacement
        while len(table) < needed:
            table.append(pool.alloc())

    def _gather(self, layer: int, view: int) -> Tuple[np.ndarray, np.ndarray]:
        """Dense ``(batch, heads, view, head_dim)`` K/V arrays for one layer.

        Rows shorter than ``view`` read whatever their (padded) table entries
        hold — stale but finite, exactly the row cache's stale-tail contract,
        masked to weight zero by causal/bias masking downstream.
        """
        pool = self.pool
        batch = len(self._tables)
        if batch == 0 or view == 0:
            shape = (batch, pool.num_heads, view, pool.head_dim)
            return np.zeros(shape, dtype=np.float32), np.zeros(shape, dtype=np.float32)
        block_size = pool.block_size
        num_view_blocks = blocks_for(view, block_size)
        # Rows with shorter tables pad with block 0: garbage reads, masked.
        table_arr = np.zeros((batch, num_view_blocks), dtype=np.int64)
        for row, table in enumerate(self._tables):
            m = min(len(table), num_view_blocks)
            if m:
                table_arr[row, :m] = table[:m]
        positions = np.arange(view)
        block_ids = table_arr[:, positions // block_size]  # (batch, view)
        offsets = np.broadcast_to(positions % block_size, (batch, view))
        k = pool.k[layer][block_ids, :, offsets, :]  # (batch, view, heads, head_dim)
        v = pool.v[layer][block_ids, :, offsets, :]
        # Contiguous copies, not transposed views: np.matmul picks its kernel
        # (and therefore its float32 summation order) by memory layout, and
        # the paged engine's outputs must be bitwise those of the row cache.
        return (
            np.ascontiguousarray(k.transpose(0, 2, 1, 3)),
            np.ascontiguousarray(v.transpose(0, 2, 1, 3)),
        )

    # -- lifetime ------------------------------------------------------------

    def release(self) -> None:
        """Drop every table's block references (idempotent).

        The engine calls this the moment a cache generation is superseded
        (step-cache compaction, cancellation); ``__del__`` only backstops
        forgotten handles.
        """
        if self._released:
            return
        self._released = True
        for table in self._tables:
            for block in table:
                self.pool.decref(block)
        self._tables = []
        self._layer_lengths = [np.zeros(0, dtype=np.int64) for _ in range(self.pool.num_layers)]

    def __del__(self) -> None:  # pragma: no cover - backstop, not the contract
        try:
            self.release()
        except Exception:
            pass

    # -- multi-request serving operations -------------------------------------

    def select_rows(self, rows: Sequence[int]) -> None:
        """Re-alias the cache to an arbitrary subset/ordering of rows, in place.

        The paged :meth:`KVCache.select_rows`: survivors' tables are aliased
        (incref), dropped rows' references released — reclaiming a finished
        or cancelled request frees its pages instead of copying every other
        row around it.
        """
        rows = list(rows)
        for row in rows:
            if not 0 <= row < self.batch:
                raise IndexError(f"row {row} out of range for batch {self.batch}")
        pool = self.pool
        new_tables: List[List[int]] = []
        for row in rows:
            table = list(self._tables[row])
            for block in table:
                pool.incref(block)
            new_tables.append(table)
        old_tables = self._tables
        self._tables = new_tables
        for table in old_tables:
            for block in table:
                pool.decref(block)
        index = np.asarray(rows, dtype=np.int64)
        self._layer_lengths = [lengths[index].copy() for lengths in self._layer_lengths]

    def truncate_rows(self, lengths: Sequence[int]) -> None:
        """Roll each row back to its own committed prefix, freeing vacated blocks."""
        target = np.asarray(lengths, dtype=np.int64)
        if target.shape != (self.batch,):
            raise ValueError(f"lengths shape {target.shape} != (batch,) = ({self.batch},)")
        if np.any(target < 0):
            raise ValueError(f"cannot truncate to negative lengths {target}")
        for i, layer_lengths in enumerate(self._layer_lengths):
            self._layer_lengths[i] = np.minimum(layer_lengths, target)
        pool = self.pool
        for row, table in enumerate(self._tables):
            new_length = int(max(lengths[row] for lengths in self._layer_lengths))
            keep = blocks_for(new_length, pool.block_size)
            while len(table) > keep:
                pool.decref(table.pop())

    def repeat_rows(self, repeats: Union[int, Sequence[int]], capacity: Optional[int] = None) -> "PagedKVCache":
        """Tile row ``r`` ``repeats[r]`` times into a new cache — by aliasing, no copy.

        The speculative verification step's row tiling: every tile shares the
        source row's blocks until its first divergent append copy-on-writes
        the written block.  ``capacity`` is accepted for row-cache signature
        compatibility and ignored — paged storage has no per-row capacity.
        """
        if isinstance(repeats, (int, np.integer)):
            counts = np.full(self.batch, int(repeats), dtype=np.int64)
        else:
            counts = np.asarray(repeats, dtype=np.int64)
            if counts.shape != (self.batch,):
                raise ValueError(f"repeats shape {counts.shape} != (batch,) = ({self.batch},)")
        if np.any(counts < 0):
            raise ValueError(f"repeat counts must be non-negative, got {counts}")
        pool = self.pool
        out = PagedKVCache(pool, batch=0)
        for row, count in enumerate(counts):
            for _ in range(int(count)):
                table = list(self._tables[row])
                for block in table:
                    pool.incref(block)
                out._tables.append(table)
        out._layer_lengths = [np.repeat(lengths, counts) for lengths in self._layer_lengths]
        return out

    def compact_rows(
        self, rows: Sequence[int], lengths: Sequence[int], capacity: Optional[int] = None
    ) -> "PagedKVCache":
        """Gather ``rows`` truncated to per-row ``lengths`` into a new cache — by aliasing.

        The per-step compaction: new row ``i`` aliases source row
        ``rows[i]``'s first ``blocks_for(lengths[i])`` blocks.  The caller
        releases the source caches afterwards, which frees every rejected
        candidate's copy-on-write blocks.  ``capacity`` is ignored (see
        :meth:`repeat_rows`).
        """
        rows = list(rows)
        for row in rows:
            if not 0 <= row < self.batch:
                raise IndexError(f"row {row} out of range for batch {self.batch}")
        target = np.asarray(lengths, dtype=np.int64)
        if target.shape != (len(rows),):
            raise ValueError(f"lengths shape {target.shape} != ({len(rows)},)")
        if np.any(target < 0):
            raise ValueError(f"cannot compact to negative lengths {target}")
        index = np.asarray(rows, dtype=np.int64)
        kept_lengths = np.minimum(self._layer_lengths[0][index], target) if rows else target
        pool = self.pool
        out = PagedKVCache(pool, batch=0)
        for i, row in enumerate(rows):
            keep = blocks_for(int(kept_lengths[i]), pool.block_size)
            table = list(self._tables[row][:keep])
            for block in table:
                pool.incref(block)
            out._tables.append(table)
        out._layer_lengths = [kept_lengths.copy() for _ in range(pool.num_layers)]
        return out

    def compact_paths(
        self,
        rows: Sequence[int],
        prefixes: Sequence[int],
        paths: Sequence[Sequence[int]],
        capacity: Optional[int] = None,
    ) -> "PagedKVCache":
        """Gather per-row accepted tree paths into a new cache.

        Same contract as :meth:`KVCache.compact_paths`: new row ``i`` is
        source row ``rows[i]``'s committed prefix (``prefixes[i]`` positions,
        aliased) followed by the K/V of the accepted path's tree nodes
        (window positions ``paths[i]``, in root-to-leaf order).  The prefix
        is shared; only the accepted path's handful of positions is copied —
        O(path), not O(prefix) — landing after a copy-on-write of the
        prefix's trailing partial block.  ``capacity`` is ignored.
        """
        rows = list(rows)
        for row in rows:
            if not 0 <= row < self.batch:
                raise IndexError(f"row {row} out of range for batch {self.batch}")
        if not (len(prefixes) == len(paths) == len(rows)):
            raise ValueError(
                f"rows/prefixes/paths length mismatch: {len(rows)}/{len(prefixes)}/{len(paths)}"
            )
        pool = self.pool
        block_size = pool.block_size
        source_lengths = self._layer_lengths[0]
        indices: List[np.ndarray] = []
        for row, prefix, path in zip(rows, prefixes, paths):
            index = np.asarray(list(path), dtype=np.int64)
            if prefix < 0:
                raise ValueError(f"negative prefix length {prefix}")
            limit = int(source_lengths[row])
            if index.size and (int(index.min()) < 0 or prefix + int(index.max()) >= limit):
                raise IndexError(
                    f"row {row}: path positions {index} out of range for window [0, {limit - prefix})"
                )
            indices.append(index)
        # Read the accepted paths' K/V out of the source tables before any
        # table surgery (the sources stay untouched either way — writes only
        # land in blocks the new cache owns exclusively after copy-on-write).
        gathered: List[List[Tuple[np.ndarray, np.ndarray]]] = []
        for row, prefix, index in zip(rows, prefixes, indices):
            per_layer: List[Tuple[np.ndarray, np.ndarray]] = []
            if index.size:
                positions = prefix + index
                table = np.asarray(self._tables[row], dtype=np.int64)
                block_ids = table[positions // block_size]
                offsets = positions % block_size
                for layer in range(pool.num_layers):
                    # (path, heads, head_dim) — already copies (fancy indexing).
                    per_layer.append(
                        (pool.k[layer][block_ids, :, offsets, :], pool.v[layer][block_ids, :, offsets, :])
                    )
            gathered.append(per_layer)
        out = PagedKVCache(pool, batch=0)
        new_lengths = np.zeros(len(rows), dtype=np.int64)
        for i, (row, prefix, index) in enumerate(zip(rows, prefixes, indices)):
            table = list(self._tables[row][: blocks_for(prefix, block_size)])
            for block in table:
                pool.incref(block)
            out._tables.append(table)
            new_lengths[i] = prefix
        out._layer_lengths = [new_lengths.copy() for _ in range(pool.num_layers)]
        for i, (prefix, index) in enumerate(zip(prefixes, indices)):
            if not index.size:
                continue
            out._ensure_writable(i, prefix, prefix + index.size)
            positions = np.arange(prefix, prefix + index.size)
            table = np.asarray(out._tables[i], dtype=np.int64)
            block_ids = table[positions // block_size]
            offsets = positions % block_size
            for layer in range(pool.num_layers):
                k_path, v_path = gathered[i][layer]
                pool.k[layer][block_ids, :, offsets, :] = k_path
                pool.v[layer][block_ids, :, offsets, :] = v_path
            for lengths in out._layer_lengths:
                lengths[i] = prefix + index.size
        return out

    @classmethod
    def concat(cls, caches: Sequence["PagedKVCache"]) -> "PagedKVCache":
        """Merge several caches' rows into one, *consuming* the sources.

        Tables move (no refcount traffic, no copies); the source caches are
        left released.  All caches must share one pool.
        """
        caches = list(caches)
        if not caches:
            raise ValueError("concat needs at least one cache")
        pool = caches[0].pool
        for cache in caches:
            if cache.pool is not pool:
                raise ValueError("concat requires caches sharing one KVBlockPool")
            if cache._released:
                raise ValueError("concat cannot consume an already-released cache")
        out = cls(pool, batch=0)
        out._tables = [table for cache in caches for table in cache._tables]
        out._layer_lengths = [
            np.concatenate([cache._layer_lengths[i] for cache in caches])
            for i in range(pool.num_layers)
        ]
        for cache in caches:
            cache._tables = []
            cache._layer_lengths = [np.zeros(0, dtype=np.int64) for _ in range(pool.num_layers)]
            cache._released = True
        return out

    # -- prefix-reuse operations ----------------------------------------------

    def snapshot_prefix(self, row: int, length: int) -> PagedPrefix:
        """An owning :class:`PagedPrefix` over ``row``'s first ``length`` positions.

        The paged :meth:`KVCache.gather_prefix`: instead of copying the K/V
        out, the reference increfs the covering blocks, pinning them however
        the row is later compacted, truncated or released.  The prefix cache
        stores exactly this.
        """
        if not 0 <= row < self.batch:
            raise IndexError(f"row {row} out of range for batch {self.batch}")
        row_length = int(self._layer_lengths[0][row])
        if length < 0 or length > row_length:
            raise ValueError(f"prefix length {length} out of range [0, {row_length}] for row {row}")
        blocks = self._tables[row][: blocks_for(length, self.pool.block_size)]
        return PagedPrefix(self.pool, blocks, length, owns=True)

    def splice_prefix(self, row: int, prefix: PagedPrefix) -> None:
        """Alias a retained prefix's blocks into fresh ``row`` — zero K/V copies.

        After the splice the row behaves exactly as if its first
        ``prefix.length`` tokens had just been prefilled; its first divergent
        append copy-on-writes the trailing shared block.  The row must be
        empty, like :meth:`KVCache.splice_prefix`.
        """
        if not isinstance(prefix, PagedPrefix):
            raise TypeError(
                f"paged caches splice PagedPrefix references, got {type(prefix).__name__}; "
                f"a PrefixCache mixes paged and row segments only if it is shared between "
                f"engines with different kv_memory modes — give each mode its own cache"
            )
        if prefix.pool is not self.pool:
            raise ValueError("prefix and cache belong to different KVBlockPools")
        if not 0 <= row < self.batch:
            raise IndexError(f"row {row} out of range for batch {self.batch}")
        if int(self._layer_lengths[0][row]) != 0:
            raise ValueError(
                f"splice_prefix requires a fresh row, but row {row} already holds "
                f"{int(self._layer_lengths[0][row])} positions"
            )
        pool = self.pool
        for block in prefix.block_ids:
            pool.incref(block)
        self._tables[row] = list(prefix.block_ids)
        for lengths in self._layer_lengths:
            lengths[row] = prefix.length


__all__ = ["KVBlockPool", "KVPoolExhausted", "PagedKVCache", "PagedLayerKV", "PagedPrefix", "blocks_for"]

"""Paged attention K/V memory: a refcounted block pool with copy-on-write.

:class:`~repro.nn.kv_cache.KVCache` gives every row one contiguous buffer
sized for the full context window.  Serving many requests from such rows
would pay three ways: **reservation fragmentation** (peak memory scales with
``rows x context window`` instead of with the tokens actually cached),
**copying prefix reuse** (a prefix-cache hit copies the retained K/V into the
new row, and retention copies it back out) and **copying reclamation**
(finishing or cancelling a request compacts the whole shared cache around
the vacated row).

This module is the vLLM-style answer, scaled to the numpy substrate, and the
serving engine's only K/V storage.  K/V storage is cut into fixed-size
**blocks** of ``block_size`` token positions, owned by one shared
:class:`KVBlockPool`.  A sequence owns no storage; it owns a **block
table** — the ordered list of block ids holding its prefix — so position
``p`` of a row lives at offset ``p % block_size`` of block
``table[p // block_size]``.  One block id addresses the same token span in
*every* layer (per-layer physical arrays, one logical id), so tables stay
per-sequence, not per-layer.

Blocks are **refcounted**.  Sharing a prefix between two sequences is
aliasing the same block ids and bumping refcounts — zero K/V copies — and
two operations that would be O(tokens) copies over contiguous rows are
O(table) pointer updates here:

* prefix-cache hits (:meth:`PagedKVCache.splice_prefix` aliases the retained
  blocks into the fresh row);
* reclamation (:meth:`PagedKVCache.select_rows` re-aliases survivors and
  decrefs the rest — freeing a finished or cancelled request is dropping its
  table).

Writes preserve sharing through **copy-on-write**: before a forward appends
into a block whose refcount exceeds one, the block is copied into a fresh
exclusive block and the writer's table entry is repointed
(:meth:`PagedKVCache._ensure_writable`).  A block is copied only when a writer
shares it — typically a row's trailing prefix block after a prefix splice —
so divergence costs at most one partially-filled block per writer and
everything up to the divergence point stays physically shared.  The pool
counts these copies (``cow_events``) along with its high-water mark
(``peak_blocks_in_use``).

The per-step compaction (:meth:`PagedKVCache.compact_paths`) works in place
exactly like the row cache's: the accepted tree path slides down onto the
committed prefix inside the row's own blocks, which the tree append already
made exclusive, and the blocks past the new length are released.

The attention read path is a **block-granular gather**: each layer view
(:class:`PagedLayerKV`) copies whole blocks into a dense
``(batch, heads, blocks * block_size, head_dim)`` buffer and hands
:class:`~repro.nn.layers.CausalSelfAttention` its leading ``view`` positions,
so attention runs unchanged over paged or row storage.  The write path walks
the rows once per *forward*: the first layer's append allocates,
copy-on-writes and flattens every new position into one write plan, and every
layer scatters and reads off it.  Positions past a row's own length may surface
stale-but-finite block contents, exactly like the row cache's stale tail
slots; the causal mask (or the caller's ``attn_bias``) pins their scores to
``-1e9``, whose softmax weight underflows to exactly ``0.0``, so stale
storage can never leak into an output — ``tests/test_kv_pool.py`` checks
every ``append`` against the row cache bitwise.

Exhaustion is explicit: :meth:`KVBlockPool.alloc` first invokes the
``on_pressure`` callback (the serving engine evicts prefix-cache retention,
the one reclaimable tenant) and raises :class:`KVPoolExhausted` only when
nothing more can be freed.  Admission-side deferral — not admitting work the
pool cannot hold — lives in :meth:`repro.serving.scheduler.Scheduler.admit`.
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.nn.kv_cache import _flatten_paths, _repeat_index, _truncation_targets


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

    The unit the prefix cache retains.  It holds *references to shared
    blocks*, not a detached copy: retaining a prefix is
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


class _WritePlan(NamedTuple):
    """Where one forward's new positions land, worked out once for all layers."""

    shape: Tuple[int, ...]  # of the k_new / v_new it was built for
    starts: np.ndarray  # per-row lengths before the append
    lengths: np.ndarray  # ... and after
    blocks: np.ndarray  # flat: pool block id of each written position
    offsets: np.ndarray  # flat: its offset inside that block
    rows: np.ndarray  # flat: its source row in k_new
    columns: np.ndarray  # flat: its source window column in k_new
    tables: np.ndarray  # (batch, blocks_for(view)) padded block tables for the read
    view: int  # longest row after the append


def _read_blocks(pool_array: np.ndarray, tables: np.ndarray, view: int) -> np.ndarray:
    """Dense ``(batch, heads, view, head_dim)`` read of whole blocks for one pool array.

    One indexed copy moves ``(block_size, head_dim)`` tiles — not single
    positions — into a ``(batch, heads, blocks * block_size, head_dim)``
    buffer, of which the leading ``view`` positions are returned: a slice of
    a block-rounded buffer, the layout class :meth:`LayerKVCache.append`
    returns (row-major ``(position, head_dim)`` matrices), so ``np.matmul``
    picks the same kernel and float32 summation order as over the row cache.
    """
    _, heads, block_size, head_dim = pool_array.shape
    batch, num_blocks = tables.shape
    if tables.size == 0:
        return np.zeros((batch, heads, view, head_dim), dtype=pool_array.dtype)
    tiles = pool_array[tables[:, None, :], np.arange(heads)[None, :, None]]  # (batch, heads, blocks, block_size, head_dim)
    return tiles.reshape(batch, heads, num_blocks * block_size, head_dim)[:, :, :view]


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
        append of a forward walks the rows once — block allocation,
        copy-on-write and the flat write plan (:meth:`PagedKVCache._plan_writes`);
        every layer then does one vectorised scatter and one block-granular
        read off that plan, and the last layer drops it.
        """
        cache = self._cache
        starts = cache._layer_lengths[self.index]
        plan = cache._write_plan
        if self.index == 0 or plan is None or plan.shape != k_new.shape or not np.array_equal(plan.starts, starts):
            plan = cache._plan_writes(k_new.shape, starts)
        if self.index == cache.pool.num_layers - 1:
            cache._write_plan = None
        k_pool = cache.pool.k[self.index]
        v_pool = cache.pool.v[self.index]
        k_pool[plan.blocks, :, plan.offsets, :] = k_new[plan.rows, :, plan.columns, :]
        v_pool[plan.blocks, :, plan.offsets, :] = v_new[plan.rows, :, plan.columns, :]
        cache._layer_lengths[self.index] = plan.lengths.copy()
        return _read_blocks(k_pool, plan.tables, plan.view), _read_blocks(v_pool, plan.tables, plan.view)


class PagedKVCache:
    """A batch of sequences over one :class:`KVBlockPool`: block tables + lengths.

    The serving engine's shared cache.  It has the batched/ragged surface of
    :class:`~repro.nn.kv_cache.KVCache` (``lengths``, ``append_widths``,
    ``layers`` for the forward, and the multi-row operations), so the model
    forward and the step kernel run over either, but rows are block tables
    into shared pool storage, so the operations that copy tokens in the row
    cache are table aliasing here — see the module docstring for the mapping.

    Every row's table entries hold one pool reference each.  The cache must
    be :meth:`release`\\ d (or consumed by :meth:`concat`) when discarded;
    the operations that shrink rows in place (:meth:`select_rows`,
    :meth:`truncate_rows`, :meth:`compact_paths`) drop the references they
    vacate at once, which is what the fuzz suite's leak checks (refcounts
    return to zero) pin down.
    """

    def __init__(self, pool: KVBlockPool, batch: int = 0) -> None:
        self.pool = pool
        self._tables: List[List[int]] = [[] for _ in range(batch)]
        self._layer_lengths: List[np.ndarray] = [
            np.zeros(batch, dtype=np.int64) for _ in range(pool.num_layers)
        ]
        self._append_widths: Optional[np.ndarray] = None
        #: Set by the first layer's append of a forward, dropped by the last
        #: and by anything that changes tables, lengths or widths or starts
        #: sharing this cache's blocks (a plan never writes a shared block).
        self._write_plan: Optional[_WritePlan] = None
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
        self._write_plan = None

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

    def _plan_writes(self, shape: Tuple[int, ...], starts: np.ndarray) -> _WritePlan:
        """Walk the rows once for a forward appending ``shape``-d K/V at ``starts``.

        Allocates and copy-on-writes the written ranges, then flattens every
        (row, window column) that is real under ``append_widths`` into block
        ids and offsets, and builds the padded table array the reads share.
        """
        batch = len(self._tables)
        t = shape[2]
        if shape[0] != batch:
            raise ValueError(f"batch mismatch: cache has {batch} rows, got {shape[0]}")
        if self._append_widths is None:
            widths = [t] * batch
        else:
            if self._append_widths.shape != (batch,):
                raise ValueError(f"append_widths shape {self._append_widths.shape} != (batch,) = ({batch},)")
            widths = self._append_widths.tolist()
            if widths and (min(widths) < 0 or max(widths) > t):
                raise ValueError(f"append widths must lie in [0, {t}], got {self._append_widths}")
        for row, (start, width) in enumerate(zip(starts.tolist(), widths)):
            if width:
                self._ensure_writable(row, start, start + width)
        widths = np.asarray(widths, dtype=np.int64)
        lengths = starts + widths
        view = int(lengths.max(initial=0))
        tables = self._padded_tables(view)
        # Row-major (row, window column) of every real position.
        rows, columns = np.nonzero(np.arange(t) < widths[:, None])
        blocks, offsets = np.divmod(starts[rows] + columns, self.pool.block_size)
        self._write_plan = _WritePlan(shape, starts, lengths, tables[rows, blocks], offsets, rows, columns, tables, view)
        return self._write_plan

    def _padded_tables(self, view: int) -> np.ndarray:
        """Block tables as one ``(batch, blocks_for(view))`` array.

        Rows with shorter tables pad with block 0: garbage reads, masked.
        """
        num_view_blocks = blocks_for(view, self.pool.block_size)
        tables = np.zeros((len(self._tables), num_view_blocks), dtype=np.int64)
        for row, table in enumerate(self._tables):
            m = min(len(table), num_view_blocks)
            if m:
                tables[row, :m] = table[:m]
        return tables

    # -- lifetime ------------------------------------------------------------

    def release(self) -> None:
        """Drop every table's block references (idempotent).

        Owners call this the moment they discard a cache (the engine, for a
        cancelled request's prefill row); ``__del__`` only backstops
        forgotten handles.
        """
        if self._released:
            return
        self._released = True
        self._write_plan = None
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

    def _alias_rows(self, rows: Sequence[int], lengths: Optional[np.ndarray] = None) -> List[List[int]]:
        """New block tables aliasing ``rows`` (cut to ``lengths[i]`` positions when given).

        Every entry of the returned tables holds one new pool reference
        (one incref per entry); the caller adopts them into a cache.  The
        aliased blocks become shared, so the pending write plan is dropped.
        """
        for row in rows:
            if not 0 <= row < self.batch:
                raise IndexError(f"row {row} out of range for batch {self.batch}")
        self._write_plan = None
        pool = self.pool
        tables: List[List[int]] = []
        for i, row in enumerate(rows):
            table = self._tables[row]
            if lengths is not None:
                table = table[: blocks_for(int(lengths[i]), pool.block_size)]
            for block in table:
                pool.incref(block)
            tables.append(list(table))
        return tables

    def select_rows(self, rows: Sequence[int]) -> None:
        """Re-alias the cache to an arbitrary subset/ordering of rows, in place.

        The paged :meth:`KVCache.select_rows`: survivors' tables are aliased
        (incref), dropped rows' references released — reclaiming a finished
        or cancelled request frees its pages instead of copying every other
        row around it.
        """
        rows = list(rows)
        old_tables, self._tables = self._tables, self._alias_rows(rows)
        for table in old_tables:
            for block in table:
                self.pool.decref(block)
        index = np.asarray(rows, dtype=np.int64)
        self._layer_lengths = [lengths[index].copy() for lengths in self._layer_lengths]

    def truncate_rows(self, lengths: Sequence[int]) -> None:
        """Roll each row back to its own committed prefix, freeing vacated blocks.

        :meth:`compact_paths` with empty paths.
        """
        target = _truncation_targets(lengths, self.batch)
        self.compact_paths(np.minimum(self._layer_lengths[0], target).tolist(), [[]] * self.batch)

    def repeat_rows(self, repeats: Union[int, Sequence[int]]) -> "PagedKVCache":
        """Tile row ``r`` ``repeats[r]`` times into a new cache — by aliasing, no copy.

        Every tile shares the source row's blocks until its first divergent
        append copy-on-writes the written block.
        """
        index = _repeat_index(repeats, self.batch)
        out = PagedKVCache(self.pool)
        out._tables = self._alias_rows(index.tolist())
        out._layer_lengths = [lengths[index] for lengths in self._layer_lengths]
        return out

    def compact_rows(self, rows: Sequence[int], lengths: Sequence[int]) -> "PagedKVCache":
        """Gather ``rows`` truncated to per-row ``lengths`` into a new cache — by aliasing.

        New row ``i`` aliases source row ``rows[i]``'s first
        ``blocks_for(lengths[i])`` blocks; releasing the source afterwards
        frees every block no new row kept.
        """
        rows = list(rows)
        target = _truncation_targets(lengths, len(rows))
        out = PagedKVCache(self.pool)
        out._tables = self._alias_rows(rows, target)
        kept_lengths = np.minimum(self._layer_lengths[0][np.asarray(rows, dtype=np.int64)], target)
        out._layer_lengths = [kept_lengths.copy() for _ in range(self.pool.num_layers)]
        return out

    def compact_paths(self, prefixes: Sequence[int], paths: Sequence[Sequence[int]]) -> None:
        """Compact every row to its committed prefix plus its accepted tree path, in place.

        The paged :meth:`KVCache.compact_paths`: row ``i`` keeps its
        committed prefix (``prefixes[i]`` positions) followed by the K/V of
        the accepted path's tree nodes (window positions ``paths[i]``, in
        root-to-leaf order), slid down onto the prefix inside the row's own
        blocks — one indexed read and one indexed write per pool array move
        every row's path, O(path) — and the blocks past each row's new
        length are released, which frees the rejected branches.  The tree
        append already copy-on-wrote every block it wrote into, so the slide
        finds them exclusive and copies no block.
        """
        self._write_plan = None
        new_lengths, flat_rows, source, target = _flatten_paths(self._layer_lengths[0], prefixes, paths)
        pool = self.pool
        block_size = pool.block_size
        tables = self._tables
        for row, (prefix, length) in enumerate(zip(prefixes, new_lengths)):
            # A no-op after the tree append; never writes through a shared block.
            if length > prefix:
                self._ensure_writable(row, prefix, length)
        if source != target:
            source_blocks = [tables[row][p // block_size] for row, p in zip(flat_rows, source)]
            target_blocks = [tables[row][p // block_size] for row, p in zip(flat_rows, target)]
            source_blocks, target_blocks, source, target = (
                np.asarray(index, dtype=np.int64) for index in (source_blocks, target_blocks, source, target)
            )
            source_offsets, target_offsets = source % block_size, target % block_size
            # The fancy-indexed read copies, so overlapping moves are safe.
            for array in pool.k + pool.v:
                array[target_blocks, :, target_offsets, :] = array[source_blocks, :, source_offsets, :]
        for table, length in zip(tables, new_lengths):
            keep = blocks_for(length, block_size)
            while len(table) > keep:
                pool.decref(table.pop())
        lengths = np.asarray(new_lengths, dtype=np.int64)
        self._layer_lengths = [lengths.copy() for _ in range(pool.num_layers)]

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
            cache._write_plan = None
        return out

    # -- prefix-reuse operations ----------------------------------------------

    def snapshot_prefix(self, row: int, length: int) -> PagedPrefix:
        """An owning :class:`PagedPrefix` over ``row``'s first ``length`` positions.

        Instead of copying the K/V out, the reference increfs the covering
        blocks, pinning them however the row is later compacted, truncated or
        released.  The prefix cache stores exactly this.
        """
        if not 0 <= row < self.batch:
            raise IndexError(f"row {row} out of range for batch {self.batch}")
        row_length = int(self._layer_lengths[0][row])
        if length < 0 or length > row_length:
            raise ValueError(f"prefix length {length} out of range [0, {row_length}] for row {row}")
        blocks = self._tables[row][: blocks_for(length, self.pool.block_size)]
        self._write_plan = None
        return PagedPrefix(self.pool, blocks, length, owns=True)

    def splice_prefix(self, row: int, prefix: PagedPrefix) -> None:
        """Alias a retained prefix's blocks into fresh ``row`` — zero K/V copies.

        After the splice the row behaves exactly as if its first
        ``prefix.length`` tokens had just been prefilled; its first divergent
        append copy-on-writes the trailing shared block.  The row must be
        empty: splicing is an admission-time operation, not an overwrite.
        """
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
        self._write_plan = None
        for lengths in self._layer_lengths:
            lengths[row] = prefix.length


__all__ = ["KVBlockPool", "KVPoolExhausted", "PagedKVCache", "PagedLayerKV", "PagedPrefix", "blocks_for"]

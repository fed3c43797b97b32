"""Per-layer attention key/value cache for incremental decoding.

Re-running the full transformer forward over the entire prefix at every
decoding step costs O(T^2) work per generated token.  The standard serving
trick — and the enabling refactor for the paper's wall-clock speed claims —
is to cache each attention layer's key/value projections for the committed
prefix, so each step only projects the *new* tokens and attends over the
cached keys.

:class:`KVCache` owns one :class:`LayerKVCache` per transformer layer.  Two
workloads are built on top of it:

**Single-stream speculative decoding** (:mod:`repro.core.decoding`) uses three
operations beyond plain appending:

* ``truncate(length)`` — roll the cache back to a committed prefix after
  typical-acceptance and fragment-integrity truncation, so rejected
  speculative tokens never pollute subsequent steps;
* ``expand_batch(n)`` — tile a batch-1 cache to ``n`` rows so all candidate
  continuations are verified in one batched cached forward;
* ``keep_row(row)`` — collapse back to the accepted candidate's row.

**Multi-request serving** (:mod:`repro.serving`) keeps one cache row per
in-flight request.  Requests sit at *different* prefix lengths, so the cache
is *ragged*: every row carries its own length (``lengths``), appends land at
per-row offsets, and attention masks each row against its own past.  The
serving engine drives this through the multi-row generalisations:

* ``repeat_rows(repeats)`` — tile each request row once per speculative
  candidate (per-row repeat counts, so requests may propose different
  candidate counts);
* ``select_rows(rows)`` — gather an arbitrary subset/ordering of rows, used
  both to keep each request's accepted candidate and to reclaim the rows of
  completed requests (the multi-row ``keep_row``);
* ``truncate_rows(lengths)`` — per-row rollback to each request's committed
  prefix;
* ``concat(caches)`` — merge freshly prefilled batch-1 caches into the shared
  cache when the scheduler admits new requests;
* ``set_append_widths(widths)`` — declare, for the next forward, how many of
  the incoming window positions are real per row (the rest are right-padding
  that must not be stored).

**Cross-request prefix reuse** (:mod:`repro.serving.prefix_cache`) retains the
K/V of recently served prompt prefixes and splices them into the rows of new
requests, so shared prompt preambles are prefilled once instead of once per
request.  Two segment operations support it:

* ``gather_prefix(row, length)`` — detach the first ``length`` positions of a
  row into a standalone :class:`KVSegment` (the unit the prefix cache
  retains);
* ``splice_prefix(row, segment)`` — copy a retained segment into a fresh row,
  so the subsequent prefill forward only covers the prompt suffix.

Cross-attention K/V (encoder-decoder models) is position-independent on the
decoder side, so each layer slot can additionally hold the projected encoder
memory, computed once at prefill and reused for every decode step.

**Row vs. paged storage.**  This module stores each row as one contiguous
buffer sized for the full context window — simple, and the reference
implementation the rest of the stack is validated against.  The serving
engine defaults to the *paged* storage in :mod:`repro.nn.kv_pool` instead
(fixed-size refcounted blocks, copy-on-write prefix sharing), which turns
this module's copying operations (``splice_prefix``, ``repeat_rows``,
``compact_rows``, ``select_rows``) into block-table aliasing.  The two are
token-identical by construction and by test (``tests/test_kv_pool.py``,
``tests/test_serving.py``); row caches remain the storage of single-stream
decoding and the token-identity oracle for the paged path.  See
``docs/kv-memory.md`` for the memory-model comparison.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np


def _flatten_paths(
    source_lengths: np.ndarray, rows: Sequence[int], prefixes: Sequence[int], paths: Sequence[Sequence[int]]
) -> Tuple[List[int], List[int], List[int], List[int], List[int]]:
    """Validate a ``compact_paths`` request and flatten it for one indexed copy.

    Returns ``(rows, new_lengths, flat_rows, source, target)``: path node
    ``j`` of new row ``i = flat_rows[n]`` moves from position ``source[n]``
    of source row ``rows[i]`` to position ``target[n] = prefixes[i] + j``.
    Plain lists: a step's paths are a handful of positions per row.
    """
    rows = list(rows)
    for row in rows:
        if not 0 <= row < len(source_lengths):
            raise IndexError(f"row {row} out of range for batch {len(source_lengths)}")
    if not (len(prefixes) == len(paths) == len(rows)):
        raise ValueError(f"rows/prefixes/paths length mismatch: {len(rows)}/{len(prefixes)}/{len(paths)}")
    new_lengths: List[int] = []
    flat_rows: List[int] = []
    source: List[int] = []
    target: List[int] = []
    for i, (row, prefix, path) in enumerate(zip(rows, prefixes, paths)):
        path = [int(node) for node in path]
        if prefix < 0:
            raise ValueError(f"negative prefix length {prefix}")
        limit = int(source_lengths[row])
        if path and (min(path) < 0 or prefix + max(path) >= limit):
            raise IndexError(f"row {row}: path positions {path} out of range for window [0, {limit - prefix})")
        new_lengths.append(prefix + len(path))
        flat_rows += [i] * len(path)
        source += [prefix + node for node in path]
        target += range(prefix, prefix + len(path))
    return rows, new_lengths, flat_rows, source, target


class LayerKVCache:
    """K/V storage for one attention layer.

    Self-attention keys/values are stored pre-split by head with shape
    ``(batch, num_heads, capacity, head_dim)``.  Each batch row ``r`` is
    filled in place up to ``lengths[r]`` — rows may hold prefixes of
    different lengths (ragged batching, used by the serving engine).
    Cross-attention keys/values (optional) are stored whole, since the
    encoder memory never grows.
    """

    def __init__(self, batch: int, num_heads: int, capacity: int, head_dim: int) -> None:
        self.capacity = capacity
        self.lengths = np.zeros(batch, dtype=np.int64)
        self.k = np.zeros((batch, num_heads, capacity, head_dim), dtype=np.float32)
        self.v = np.zeros((batch, num_heads, capacity, head_dim), dtype=np.float32)
        self.cross_k: Optional[np.ndarray] = None
        self.cross_v: Optional[np.ndarray] = None
        #: Per-row append widths for the next :meth:`append` (ragged serving
        #: steps); ``None`` means every incoming position is real.
        self.append_widths: Optional[np.ndarray] = None

    @property
    def batch(self) -> int:
        return self.k.shape[0]

    @property
    def length(self) -> int:
        """Longest cached prefix across rows (== every row for uniform caches)."""
        return int(self.lengths.max(initial=0))

    def append(self, k_new: np.ndarray, v_new: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Store ``(batch, heads, t, head_dim)`` projections; return the full prefix views.

        Row ``r``'s new keys/values land at offset ``lengths[r]``.  When
        :attr:`append_widths` is set, only the first ``append_widths[r]``
        window positions of row ``r`` are stored (the remainder is
        right-padding from cross-request window alignment).  The returned
        views cover positions ``0 .. max(lengths)`` after the append; entries
        past a row's own length are stale and must be masked by the caller.
        """
        t = k_new.shape[2]
        if k_new.shape[0] != self.batch:
            raise ValueError(f"batch mismatch: cache has {self.batch} rows, got {k_new.shape[0]}")
        if self.append_widths is None:
            widths = np.full(self.batch, t, dtype=np.int64)
        else:
            widths = np.asarray(self.append_widths, dtype=np.int64)
            if widths.shape != (self.batch,):
                raise ValueError(f"append_widths shape {widths.shape} != (batch,) = ({self.batch},)")
            if np.any(widths < 0) or np.any(widths > t):
                raise ValueError(f"append widths must lie in [0, {t}], got {widths}")
        if int((self.lengths + widths).max(initial=0)) > self.capacity:
            raise ValueError(
                f"KV cache overflow: {self.lengths} + {widths} > capacity {self.capacity}"
            )
        if self.append_widths is None and self.batch > 0 and np.all(self.lengths == self.lengths[0]):
            # Uniform fast path: one contiguous block assignment.
            start = int(self.lengths[0])
            self.k[:, :, start : start + t] = k_new
            self.v[:, :, start : start + t] = v_new
        else:
            for row in range(self.batch):
                start = int(self.lengths[row])
                width = int(widths[row])
                self.k[row, :, start : start + width] = k_new[row, :, :width]
                self.v[row, :, start : start + width] = v_new[row, :, :width]
        self.lengths = self.lengths + widths
        view = self.length
        return self.k[:, :, :view], self.v[:, :, :view]

    def set_cross(self, k: np.ndarray, v: np.ndarray) -> None:
        self.cross_k = k
        self.cross_v = v

    @property
    def has_cross(self) -> bool:
        return self.cross_k is not None


class KVSegment:
    """Detached per-layer K/V copy of one cache row's prefix.

    The unit of storage of the cross-request prefix cache
    (:mod:`repro.serving.prefix_cache`): the keys/values a row computed for a
    prompt prefix, gathered out of the live cache with
    :meth:`KVCache.gather_prefix` and spliced into a fresh row with
    :meth:`KVCache.splice_prefix`.  Because causal attention makes position
    ``i``'s K/V depend only on tokens ``0..i``, a segment gathered for one
    prompt is byte-for-byte what any other prompt sharing that prefix would
    compute — reuse is a pure compute-layout change.

    Each layer holds arrays of shape ``(num_heads, length, head_dim)``.
    """

    def __init__(self, k_layers: List[np.ndarray], v_layers: List[np.ndarray]) -> None:
        if len(k_layers) != len(v_layers) or not k_layers:
            raise ValueError("KVSegment needs matching, non-empty per-layer K and V lists")
        first = k_layers[0]
        for arr in list(k_layers) + list(v_layers):
            if arr.shape != first.shape:
                raise ValueError("all KVSegment layers must share one (heads, length, head_dim) shape")
        self.k_layers = list(k_layers)
        self.v_layers = list(v_layers)

    @property
    def num_layers(self) -> int:
        return len(self.k_layers)

    @property
    def num_heads(self) -> int:
        return self.k_layers[0].shape[0]

    @property
    def length(self) -> int:
        """Number of cached prefix positions the segment covers."""
        return self.k_layers[0].shape[1]

    @property
    def head_dim(self) -> int:
        return self.k_layers[0].shape[2]

    @property
    def nbytes(self) -> int:
        """Total storage of the segment (K and V, all layers)."""
        return sum(arr.nbytes for arr in self.k_layers) + sum(arr.nbytes for arr in self.v_layers)

    def head(self, length: int) -> "KVSegment":
        """A view of the segment's first ``length`` positions (no copy).

        The prefix cache serves partial matches with this: an entry retained
        for prompt ``A`` answers a lookup for prompt ``B`` sharing only the
        first ``length`` tokens.  Views are safe because consumers only ever
        read a segment (:meth:`KVCache.splice_prefix` copies).
        """
        if not 0 <= length <= self.length:
            raise ValueError(f"head length {length} out of range [0, {self.length}]")
        return KVSegment(
            [k[:, :length] for k in self.k_layers],
            [v[:, :length] for v in self.v_layers],
        )


class KVCache:
    """Per-layer K/V cache threaded through a transformer's attention blocks."""

    def __init__(self, num_layers: int, num_heads: int, head_dim: int, capacity: int, batch: int = 1) -> None:
        self.num_heads = num_heads
        self.head_dim = head_dim
        self.capacity = capacity
        self.layers: List[LayerKVCache] = [
            LayerKVCache(batch, num_heads, capacity, head_dim) for _ in range(num_layers)
        ]

    # -- inspection ----------------------------------------------------------

    @property
    def length(self) -> int:
        """Longest cached prefix across rows (identical across layers).

        For the uniform caches used by single-stream decoding every row has
        this length; ragged serving caches expose per-row lengths via
        :attr:`lengths`.
        """
        return self.layers[0].length

    @property
    def lengths(self) -> np.ndarray:
        """Per-row cached prefix lengths, shape ``(batch,)`` (copy)."""
        return self.layers[0].lengths.copy()

    @property
    def batch(self) -> int:
        return self.layers[0].batch

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def append_widths(self) -> Optional[np.ndarray]:
        """Per-row real-token widths declared for the next forward (or None)."""
        return self.layers[0].append_widths

    @property
    def nbytes(self) -> int:
        """Allocated K/V buffer storage (all layers, full capacity, plus cross K/V).

        This is *reserved* memory — ``batch x capacity`` positions per layer
        whatever the rows actually hold — which is exactly the number the
        paged pool's ``peak_kv_bytes`` is compared against in the
        shared-prefix memory test.
        """
        total = sum(layer.k.nbytes + layer.v.nbytes for layer in self.layers)
        for layer in self.layers:
            if layer.has_cross:
                total += layer.cross_k.nbytes + layer.cross_v.nbytes
        return total

    def release(self) -> None:
        """No-op, for call-site symmetry with :meth:`PagedKVCache.release`.

        Row caches free their storage through garbage collection; paged
        caches must drop pool block references explicitly.  The serving
        engine releases every superseded cache generation unconditionally so
        its step logic is identical across both memory modes.
        """

    def set_append_widths(self, widths: Optional[Sequence[int]]) -> None:
        """Declare per-row real-token widths for the next incremental forward.

        The serving engine right-pads every request's candidate window to a
        common width so one batched forward covers all requests; ``widths``
        tells each layer's :meth:`LayerKVCache.append` how many of those
        window positions actually belong to each row.  Pass ``None`` to clear
        (every position real again).  The setting persists until cleared, so
        callers should wrap the forward in ``try/finally``.
        """
        arr = None if widths is None else np.asarray(widths, dtype=np.int64)
        for layer in self.layers:
            layer.append_widths = arr

    # -- speculative-decoding operations -------------------------------------

    def truncate(self, length: int) -> None:
        """Roll every layer (every row) back to at most ``length`` cached positions.

        Used after candidate verification to discard the K/V of speculated
        tokens that typical acceptance or the fragment-integrity check
        rejected.  Truncating beyond the current length is a no-op.
        """
        if length < 0:
            raise ValueError(f"cannot truncate to negative length {length}")
        for layer in self.layers:
            layer.lengths = np.minimum(layer.lengths, length)

    @staticmethod
    def _retile(source: np.ndarray, rows: int, length: int) -> np.ndarray:
        """Fresh ``rows``-batch capacity buffer holding ``source``'s first ``length`` positions.

        Copying only the filled prefix keeps per-step cache management O(prefix)
        rather than O(capacity).
        """
        out = np.empty((rows,) + source.shape[1:], dtype=source.dtype)
        out[:, :, :length] = source[:, :, :length]
        return out

    def expand_batch(self, n: int) -> None:
        """Tile a batch-1 cache to ``n`` identical rows (for batched verification)."""
        if n == self.batch:
            return
        if self.batch != 1:
            raise ValueError(f"expand_batch requires a batch-1 cache, got batch {self.batch}")
        for layer in self.layers:
            layer.k = self._retile(layer.k, n, layer.length)
            layer.v = self._retile(layer.v, n, layer.length)
            layer.lengths = np.repeat(layer.lengths, n)
            if layer.has_cross:
                layer.cross_k = np.repeat(layer.cross_k, n, axis=0)
                layer.cross_v = np.repeat(layer.cross_v, n, axis=0)

    def keep_row(self, row: int) -> None:
        """Collapse an expanded cache back to a single batch row.

        The copy detaches the kept row from the expanded arrays so the
        discarded candidates' storage can be freed.
        """
        if not 0 <= row < self.batch:
            raise IndexError(f"row {row} out of range for batch {self.batch}")
        self.select_rows([row])

    def keep_path(self, prefix_len: int, node_positions: Sequence[int]) -> None:
        """Compact an appended token-tree window down to one accepted path, in place.

        Token-tree verification appends the *whole* deduplicated candidate
        tree after the committed prefix; once acceptance picks a root-to-leaf
        path, only that path's K/V belongs in the cache.  This gathers the
        window positions ``node_positions`` (tree-node indices, in root-to-
        leaf order) to sit contiguously right after ``prefix_len`` and rolls
        the length back to ``prefix_len + len(node_positions)`` — the tree
        analogue of ``keep_row`` + ``truncate`` for row-batched verification.
        Requires a batch-1 cache (single-stream decoding); the serving engine
        uses :meth:`compact_paths` instead.
        """
        if self.batch != 1:
            raise ValueError(f"keep_path requires a batch-1 cache, got batch {self.batch}")
        if prefix_len < 0:
            raise ValueError(f"negative prefix length {prefix_len}")
        index = np.asarray(list(node_positions), dtype=np.int64)
        length = self.length
        if index.size and (int(index.min()) < 0 or prefix_len + int(index.max()) >= length):
            raise IndexError(
                f"path positions {index} out of range for window [{0}, {length - prefix_len})"
            )
        new_length = prefix_len + index.size
        for layer in self.layers:
            if index.size:
                # Fancy indexing copies, so the in-place write is safe even
                # though source and destination ranges overlap.
                layer.k[0, :, prefix_len:new_length] = layer.k[0][:, prefix_len + index]
                layer.v[0, :, prefix_len:new_length] = layer.v[0][:, prefix_len + index]
            layer.lengths = np.full_like(layer.lengths, new_length)

    # -- prefix-reuse segment operations ---------------------------------------

    def gather_prefix(self, row: int, length: int) -> KVSegment:
        """Detach the first ``length`` cached positions of ``row`` into a segment.

        The serving engine gathers a request's prompt-prefix K/V out of its
        freshly prefilled row so the prefix cache can retain it after the row
        itself is merged, compacted and eventually reclaimed.  The segment is
        a copy — it stays valid however the source cache is reshaped later.
        """
        if not 0 <= row < self.batch:
            raise IndexError(f"row {row} out of range for batch {self.batch}")
        if length < 0 or length > int(self.layers[0].lengths[row]):
            raise ValueError(
                f"prefix length {length} out of range [0, {int(self.layers[0].lengths[row])}] for row {row}"
            )
        if any(layer.has_cross for layer in self.layers):
            raise ValueError("gather_prefix does not support cross-attention caches")
        return KVSegment(
            [layer.k[row, :, :length].copy() for layer in self.layers],
            [layer.v[row, :, :length].copy() for layer in self.layers],
        )

    def snapshot_prefix(self, row: int, length: int) -> KVSegment:
        """The retention-unit snapshot of a row prefix — a copy, for row caches.

        Mode-neutral alias the serving engine calls when retaining a prompt's
        K/V: row caches copy the positions out (:meth:`gather_prefix`), paged
        caches return a refcounted block reference
        (:meth:`PagedKVCache.snapshot_prefix`) without copying anything.
        """
        return self.gather_prefix(row, length)

    def splice_prefix(self, row: int, segment: KVSegment) -> None:
        """Copy a retained segment into fresh ``row``, making it the row's prefix.

        After the splice the row behaves exactly as if its first
        ``segment.length`` tokens had just been prefilled: appends continue at
        ``segment.length`` and attention sees the spliced K/V as cached past.
        The row must be empty (length 0) — splicing is an admission-time
        operation, not a general overwrite.
        """
        if not isinstance(segment, KVSegment):
            raise TypeError(
                f"row caches splice KVSegment copies, got {type(segment).__name__}; "
                f"a PrefixCache mixes paged and row segments only if it is shared between "
                f"engines with different kv_memory modes — give each mode its own cache"
            )
        if not 0 <= row < self.batch:
            raise IndexError(f"row {row} out of range for batch {self.batch}")
        if int(self.layers[0].lengths[row]) != 0:
            raise ValueError(
                f"splice_prefix requires a fresh row, but row {row} already holds "
                f"{int(self.layers[0].lengths[row])} positions"
            )
        if segment.num_layers != self.num_layers:
            raise ValueError(f"segment has {segment.num_layers} layers, cache has {self.num_layers}")
        if segment.num_heads != self.num_heads or segment.head_dim != self.head_dim:
            raise ValueError(
                f"segment geometry ({segment.num_heads} heads x {segment.head_dim}) does not match "
                f"cache ({self.num_heads} heads x {self.head_dim})"
            )
        if segment.length > self.capacity:
            raise ValueError(f"segment length {segment.length} exceeds cache capacity {self.capacity}")
        for layer, k_seg, v_seg in zip(self.layers, segment.k_layers, segment.v_layers):
            layer.k[row, :, : segment.length] = k_seg
            layer.v[row, :, : segment.length] = v_seg
            layer.lengths[row] = segment.length

    # -- multi-request serving operations -------------------------------------

    def select_rows(self, rows: Sequence[int]) -> None:
        """Gather an arbitrary subset/ordering of rows, in place.

        The multi-row generalisation of :meth:`keep_row`: the serving engine
        uses it to keep each request's accepted candidate row out of the
        expanded verification batch and to reclaim the rows of completed or
        evicted requests.  Rows may be repeated or dropped; each surviving
        row keeps its own length.  The copy detaches the survivors so the
        dropped rows' storage can be freed.
        """
        rows = list(rows)
        for row in rows:
            if not 0 <= row < self.batch:
                raise IndexError(f"row {row} out of range for batch {self.batch}")
        index = np.asarray(rows, dtype=np.int64)
        for layer in self.layers:
            view = layer.length
            # Zero-filled allocation keeps the ragged-buffer invariant: every
            # position outside a row's own prefix is finite, so masked
            # attention weights (exactly 0 after softmax) cannot meet inf/NaN
            # garbage and produce 0 * inf = NaN.
            new_k = np.zeros((len(rows),) + layer.k.shape[1:], dtype=layer.k.dtype)
            new_v = np.zeros((len(rows),) + layer.v.shape[1:], dtype=layer.v.dtype)
            new_k[:, :, :view] = layer.k[index, :, :view]
            new_v[:, :, :view] = layer.v[index, :, :view]
            layer.k = new_k
            layer.v = new_v
            layer.lengths = layer.lengths[index].copy()
            if layer.has_cross:
                layer.cross_k = layer.cross_k[index].copy()
                layer.cross_v = layer.cross_v[index].copy()

    def truncate_rows(self, lengths: Sequence[int]) -> None:
        """Roll each row back to its own committed prefix length.

        The per-row generalisation of :meth:`truncate`, used after a batched
        serving step to discard every request's rejected speculative tokens
        at once.  Entries longer than a row's current length are no-ops.
        """
        target = np.asarray(lengths, dtype=np.int64)
        if target.shape != (self.batch,):
            raise ValueError(f"lengths shape {target.shape} != (batch,) = ({self.batch},)")
        if np.any(target < 0):
            raise ValueError(f"cannot truncate to negative lengths {target}")
        for layer in self.layers:
            layer.lengths = np.minimum(layer.lengths, target)

    def repeat_rows(self, repeats: Union[int, Sequence[int]], capacity: Optional[int] = None) -> "KVCache":
        """Return a new cache with row ``r`` tiled ``repeats[r]`` times (in order).

        Serving uses this to expand the one-row-per-request cache into one
        row per speculative candidate before the shared verification forward;
        per-row counts let requests propose different numbers of candidates.
        The source cache is left untouched.

        Args:
            repeats: per-row tile counts (or one count for every row).
            capacity: capacity of the returned cache; defaults to the source
                capacity.  Step caches that only live for one verification
                forward pass pass ``max(lengths) + window`` here, avoiding a
                full-capacity allocation per step.
        """
        if isinstance(repeats, (int, np.integer)):
            counts = np.full(self.batch, int(repeats), dtype=np.int64)
        else:
            counts = np.asarray(repeats, dtype=np.int64)
            if counts.shape != (self.batch,):
                raise ValueError(f"repeats shape {counts.shape} != (batch,) = ({self.batch},)")
        if np.any(counts < 0):
            raise ValueError(f"repeat counts must be non-negative, got {counts}")
        new_capacity = self.capacity if capacity is None else capacity
        if new_capacity < self.length:
            raise ValueError(f"capacity {new_capacity} below cached length {self.length}")
        out = KVCache(self.num_layers, self.num_heads, self.head_dim, new_capacity, batch=0)
        for layer, out_layer in zip(self.layers, out.layers):
            view = layer.length
            rows = int(counts.sum())
            # Zero-filled for the ragged-buffer invariant (see select_rows).
            new_k = np.zeros((rows, self.num_heads, new_capacity, self.head_dim), dtype=layer.k.dtype)
            new_v = np.zeros_like(new_k)
            index = np.repeat(np.arange(self.batch), counts)
            new_k[:, :, :view] = layer.k[index, :, :view]
            new_v[:, :, :view] = layer.v[index, :, :view]
            out_layer.k = new_k
            out_layer.v = new_v
            out_layer.lengths = np.repeat(layer.lengths, counts)
            if layer.has_cross:
                out_layer.cross_k = np.repeat(layer.cross_k, counts, axis=0)
                out_layer.cross_v = np.repeat(layer.cross_v, counts, axis=0)
        return out

    def compact_rows(self, rows: Sequence[int], lengths: Sequence[int], capacity: Optional[int] = None) -> "KVCache":
        """Gather ``rows`` truncated to per-row ``lengths`` into a new cache.

        Fuses :meth:`select_rows` + :meth:`truncate_rows` into one copy that
        moves only each row's committed prefix — the per-step compaction of
        the serving engine (keep each request's accepted candidate row, drop
        its rejected speculative tail).  ``capacity`` restores a full-size
        cache when compacting out of a trimmed step cache.
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
        new_capacity = self.capacity if capacity is None else capacity
        index = np.asarray(rows, dtype=np.int64)
        kept_lengths = np.minimum(self.layers[0].lengths[index], target)
        if int(kept_lengths.max(initial=0)) > new_capacity:
            raise ValueError(f"capacity {new_capacity} below kept length {int(kept_lengths.max(initial=0))}")
        out = KVCache(self.num_layers, self.num_heads, self.head_dim, new_capacity, batch=0)
        view = int(kept_lengths.max(initial=0))
        for layer, out_layer in zip(self.layers, out.layers):
            new_k = np.zeros((len(rows), self.num_heads, new_capacity, self.head_dim), dtype=layer.k.dtype)
            new_v = np.zeros_like(new_k)
            new_k[:, :, :view] = layer.k[index, :, :view]
            new_v[:, :, :view] = layer.v[index, :, :view]
            out_layer.k = new_k
            out_layer.v = new_v
            out_layer.lengths = kept_lengths.copy()
            if layer.has_cross:
                out_layer.cross_k = layer.cross_k[index].copy()
                out_layer.cross_v = layer.cross_v[index].copy()
        return out

    def compact_paths(
        self, rows: Sequence[int], prefixes: Sequence[int], paths: Sequence[Sequence[int]]
    ) -> "KVCache":
        """Compact every row to its committed prefix plus its accepted tree path, in place.

        The multi-request generalisation of :meth:`keep_path`: after the
        decode step verifies one token tree per row inside the shared
        forward, row ``i`` keeps its committed prefix (``prefixes[i]``
        positions) followed by the K/V of the accepted path's tree nodes
        (window positions ``paths[i]``, in root-to-leaf order), slid down
        onto the prefix — O(path), no allocation.  ``rows`` must be
        ``range(batch)`` (rows are dropped with :meth:`select_rows`); returns
        ``self``, the signature :meth:`PagedKVCache.compact_paths` shares.
        """
        if list(rows) != list(range(self.batch)):
            raise ValueError(f"compact_paths compacts every row in order, got rows {list(rows)}")
        _, new_lengths, flat_rows, source, target = _flatten_paths(self.layers[0].lengths, rows, prefixes, paths)
        new_lengths = np.asarray(new_lengths, dtype=np.int64)
        moves = source != target  # false when every path already sits right after its prefix
        flat_rows, source, target = (np.asarray(index, dtype=np.int64) for index in (flat_rows, source, target))
        # The fancy-indexed read copies, so overlapping moves are safe; rejected
        # nodes become stale tail storage, masked like any other.
        for layer in self.layers:
            if moves:
                layer.k[flat_rows, :, target] = layer.k[flat_rows, :, source]
                layer.v[flat_rows, :, target] = layer.v[flat_rows, :, source]
            layer.lengths = new_lengths.copy()
        return self

    @classmethod
    def concat(cls, caches: Sequence["KVCache"]) -> "KVCache":
        """Stack the rows of several same-geometry caches into one batched cache.

        The serving engine prefills each newly admitted request into its own
        batch-1 cache and then merges it into the shared per-request cache
        with ``concat``.  All caches must agree on layer count, head geometry
        and capacity; rows keep their own lengths (the result is ragged).
        """
        if not caches:
            raise ValueError("concat needs at least one cache")
        first = caches[0]
        for other in caches[1:]:
            same = (
                other.num_layers == first.num_layers
                and other.num_heads == first.num_heads
                and other.head_dim == first.head_dim
            )
            if not same:
                raise ValueError("concat requires caches with identical layer/head geometry")
        # Capacities may differ (the serving engine keeps its persistent cache
        # trimmed between steps); the merged cache takes the largest.
        capacity = max(cache.capacity for cache in caches)
        total = sum(cache.batch for cache in caches)
        out = cls(first.num_layers, first.num_heads, first.head_dim, capacity, batch=0)
        for layer_index, out_layer in enumerate(out.layers):
            sources = [cache.layers[layer_index] for cache in caches]
            new_k = np.zeros((total, first.num_heads, capacity, first.head_dim), dtype=np.float32)
            new_v = np.zeros_like(new_k)
            offset = 0
            for source in sources:
                view = source.length
                new_k[offset : offset + source.batch, :, :view] = source.k[:, :, :view]
                new_v[offset : offset + source.batch, :, :view] = source.v[:, :, :view]
                offset += source.batch
            out_layer.k = new_k
            out_layer.v = new_v
            out_layer.lengths = np.concatenate([source.lengths for source in sources])
            if all(source.has_cross for source in sources):
                out_layer.cross_k = np.concatenate([source.cross_k for source in sources], axis=0)
                out_layer.cross_v = np.concatenate([source.cross_v for source in sources], axis=0)
            elif any(source.has_cross for source in sources):
                # Silently dropping some rows' cross K/V would surface much
                # later as a confusing "encode() must be called" error.
                raise ValueError("concat requires all caches or none to hold cross-attention K/V")
        return out

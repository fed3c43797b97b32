"""Contiguous per-row attention key/value cache: the sequential decoder's storage.

Re-running the full transformer forward over the entire prefix at every
decoding step costs O(T^2) work per generated token.  The standard trick —
and the enabling refactor for the paper's wall-clock speed claims — is to
cache each attention layer's key/value projections for the committed prefix,
so each step only projects the *new* tokens and attends over the cached keys.

:class:`KVCache` owns one :class:`LayerKVCache` per transformer layer; each
row is one contiguous buffer sized for the full context window plus the
candidate tree a speculative step appends.  It has two users:

* **Sequential decoding** — :meth:`SpeculativeDecoder.generate_many
  <repro.core.decoding.SpeculativeDecoder.generate_many>` drives the step
  kernel of :mod:`repro.core.decoding` over one or more lanes of one prompt
  in a row cache, on both backbones; for the encoder-decoder one the layer
  slots also hold the projected encoder memory (cross-attention K/V,
  computed once at prefill).  The kernel touches ``layers`` / ``lengths``
  (through the model forward and :meth:`LayerKVCache.append`),
  ``set_append_widths``, ``compact_paths`` (keep the accepted token-tree
  path after verification) and ``select_rows`` (tile the prefilled prompt
  row to every lane, cross-attention K/V included, and drop finished
  lanes).  Both run in place here and on the paged cache alike, so the
  kernel keeps one cache object for its whole run on either storage.
* **The tests' oracle** — the serving engine stores K/V only in the paged
  pool of :mod:`repro.nn.kv_pool` (``docs/kv-memory.md``), and
  ``tests/test_kv_pool.py`` checks every paged operation bitwise against the
  same operation here; the sequential decoder over this cache is the
  engine's token-identity oracle in ``tests/test_serving.py``.

Rows may sit at different prefix lengths (the cache is *ragged*): every row
carries its own length (``lengths``), appends land at per-row offsets, and
``set_append_widths`` declares how many of the incoming window positions are
real per row (the rest is right-padding that must not be stored).

Only :meth:`LayerKVCache.append`, :meth:`KVCache.select_rows`,
:meth:`KVCache.compact_paths` and :meth:`KVCache.concat` write K/V buffers,
and each leaves every buffer position finite (``docs/decoding.md``,
"Finite-buffer invariant").  Seven more operations have no caller in the
package and stay only because the repository benchmark
(``benchmarks/perf/layers.py``) wraps them by name.  Each is a composition of
those three: ``truncate`` / ``truncate_rows`` are ``compact_paths`` with empty
paths, ``expand_batch`` / ``keep_row`` are ``select_rows``, ``keep_path`` is
``compact_paths`` on one row, and ``repeat_rows`` / ``compact_rows`` are
``concat`` of the one cache followed by ``select_rows``.  New code should not
call them.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np


def _flatten_paths(
    lengths: np.ndarray, prefixes: Sequence[int], paths: Sequence[Sequence[int]]
) -> Tuple[List[int], List[int], List[int], List[int]]:
    """Validate a ``compact_paths`` request and flatten it for one indexed copy.

    Returns ``(new_lengths, flat_rows, source, target)``: path node ``j`` of
    row ``flat_rows[n]`` moves from position ``source[n]`` to position
    ``target[n] = prefixes[row] + j``.  Plain lists: a step's paths are a
    handful of positions per row.
    """
    if not len(prefixes) == len(paths) == len(lengths):
        raise ValueError(
            f"compact_paths compacts every row: {len(lengths)} rows, got {len(prefixes)} prefixes / {len(paths)} paths"
        )
    new_lengths: List[int] = []
    flat_rows: List[int] = []
    source: List[int] = []
    target: List[int] = []
    for row, (prefix, path) in enumerate(zip(prefixes, paths)):
        path = [int(node) for node in path]
        limit = int(lengths[row])
        if not 0 <= prefix <= limit:
            raise ValueError(f"row {row}: prefix length {prefix} out of range [0, {limit}]")
        if path and (min(path) < 0 or prefix + max(path) >= limit):
            raise IndexError(f"row {row}: path positions {path} out of range for window [0, {limit - prefix})")
        new_lengths.append(prefix + len(path))
        flat_rows += [row] * len(path)
        source += [prefix + node for node in path]
        target += range(prefix, prefix + len(path))
    return new_lengths, flat_rows, source, target


def _truncation_targets(lengths: Sequence[int], batch: int) -> np.ndarray:
    """Validate a ``truncate_rows`` request: one non-negative length per row."""
    target = np.asarray(lengths, dtype=np.int64)
    if target.shape != (batch,):
        raise ValueError(f"lengths shape {target.shape} != (batch,) = ({batch},)")
    if np.any(target < 0):
        raise ValueError(f"cannot truncate to negative lengths {target}")
    return target


def _repeat_index(repeats: Union[int, Sequence[int]], batch: int) -> np.ndarray:
    """Validate a ``repeat_rows`` request: the row index listing row ``r`` ``repeats[r]`` times, in order."""
    if isinstance(repeats, (int, np.integer)):
        counts = np.full(batch, int(repeats), dtype=np.int64)
    else:
        counts = np.asarray(repeats, dtype=np.int64)
        if counts.shape != (batch,):
            raise ValueError(f"repeats shape {counts.shape} != (batch,) = ({batch},)")
    if np.any(counts < 0):
        raise ValueError(f"repeat counts must be non-negative, got {counts}")
    return np.repeat(np.arange(batch), counts)


class LayerKVCache:
    """K/V storage for one attention layer.

    Self-attention keys/values are stored pre-split by head with shape
    ``(batch, num_heads, capacity, head_dim)``.  Each batch row ``r`` is
    filled in place up to ``lengths[r]`` — rows may hold prefixes of
    different lengths (ragged batching, used by the step kernel).
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
        #: Per-row append widths for the next :meth:`append` (ragged step
        #: windows); ``None`` means every incoming position is real.
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

        Ragged caches expose per-row lengths via :attr:`lengths`.
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

    def set_append_widths(self, widths: Optional[Sequence[int]]) -> None:
        """Declare per-row real-token widths for the next incremental forward.

        The step kernel right-pads every lane's candidate window to a
        common width so one batched forward covers all lanes; ``widths``
        tells each layer's :meth:`LayerKVCache.append` how many of those
        window positions actually belong to each row.  Pass ``None`` to clear
        (every position real again).  The setting persists until cleared, so
        callers should wrap the forward in ``try/finally``.
        """
        arr = None if widths is None else np.asarray(widths, dtype=np.int64)
        for layer in self.layers:
            layer.append_widths = arr

    # -- batch-1 operations (no package caller; see the module docstring) ----

    def truncate(self, length: int) -> None:
        """Roll every row back to at most ``length`` cached positions (longer: no-op)."""
        self.truncate_rows([length] * self.batch)

    def expand_batch(self, n: int) -> None:
        """Tile a batch-1 cache to ``n`` identical rows."""
        if n == self.batch:
            return
        if self.batch != 1:
            raise ValueError(f"expand_batch requires a batch-1 cache, got batch {self.batch}")
        self.select_rows([0] * n)

    def keep_row(self, row: int) -> None:
        """Collapse the cache to its one batch row ``row``."""
        self.select_rows([row])

    def keep_path(self, prefix_len: int, node_positions: Sequence[int]) -> None:
        """Keep a batch-1 cache's first ``prefix_len`` positions plus one accepted tree path.

        ``node_positions`` are the path's window positions after
        ``prefix_len`` (tree-node indices, in root-to-leaf order).
        """
        if self.batch != 1:
            raise ValueError(f"keep_path requires a batch-1 cache, got batch {self.batch}")
        self.compact_paths([prefix_len], [node_positions])

    # -- multi-row operations -------------------------------------------------

    def select_rows(self, rows: Sequence[int]) -> None:
        """Gather an arbitrary subset/ordering of rows, in place.

        The step kernel drops finished lanes with it, and ``generate_many``
        tiles the one prefilled prompt row to its lanes.  Rows may be
        repeated or dropped; each surviving row keeps its own length.  The
        copy detaches the survivors so the dropped rows' storage can be
        freed.
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
        """Roll each row back to its own length; entries past a row's length are no-ops."""
        target = _truncation_targets(lengths, self.batch)
        self.compact_paths(np.minimum(self.lengths, target).tolist(), [[]] * self.batch)

    def repeat_rows(self, repeats: Union[int, Sequence[int]]) -> "KVCache":
        """A new cache with row ``r`` tiled ``repeats[r]`` times (in order); the source is untouched."""
        index = _repeat_index(repeats, self.batch)
        out = KVCache.concat([self])
        out.select_rows(index)
        return out

    def compact_rows(self, rows: Sequence[int], lengths: Sequence[int]) -> "KVCache":
        """A new cache of ``rows``, each truncated to its entry of ``lengths``; the source is untouched."""
        out = KVCache.concat([self])
        out.select_rows(rows)
        out.truncate_rows(lengths)
        return out

    def compact_paths(self, prefixes: Sequence[int], paths: Sequence[Sequence[int]]) -> None:
        """Compact every row to its committed prefix plus its accepted tree path, in place.

        After the decode step verifies one token tree per row inside the
        shared forward, row ``i`` keeps its committed prefix (``prefixes[i]``
        positions) followed by the K/V of the accepted path's tree nodes
        (window positions ``paths[i]``, in root-to-leaf order), slid down
        onto the prefix — O(path), no allocation.  Empty paths make it a
        rollback.  Every row is compacted (rows are dropped with
        :meth:`select_rows`), exactly like :meth:`PagedKVCache.compact_paths`.
        """
        new_lengths, flat_rows, source, target = _flatten_paths(self.layers[0].lengths, prefixes, paths)
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

    @classmethod
    def concat(cls, caches: Sequence["KVCache"]) -> "KVCache":
        """Stack the rows of several same-geometry caches into one batched cache.

        Merges freshly prefilled batch-1 caches into one shared cache.  All
        caches must agree on layer count and head geometry; rows keep their
        own lengths (the result is ragged).
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
        # Capacities may differ; the merged cache takes the largest.
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

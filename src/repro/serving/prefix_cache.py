"""Cross-request prompt-prefix reuse: a trie of retained KV blocks.

Real serving workloads re-send the same prompt preamble over and over — the
eval benches in :mod:`repro.evalbench.rtllm` / :mod:`repro.evalbench.vgen`
are exactly this shape: many problems sharing one long task instruction.
Without reuse, every admission prefills that preamble from scratch; with a
batch of ``N`` requests over ``K`` distinct preambles, ``N - K`` prefills are
redundant compute.

:class:`PrefixCache` removes them.  It keeps recently served prompts in a
trie with one node per KV block: a node's key is the tuple of the
``block_size`` tokens that block of the engine's
:class:`~repro.nn.kv_pool.KVBlockPool` holds, and a prompt's last, partial
block is one node keyed by its shorter tuple.  Each retained prompt owns a
:class:`~repro.nn.kv_pool.PagedPrefix` — a refcounted pin on the pool blocks
its prefill wrote, so retention copies no K/V.  On admission the engine asks
for the longest retained prefix of the new prompt:

* the trie walk follows the new prompt block by block as far as any
  retained prompt's path reaches, then compares the remaining tokens with
  the children of the node it stopped at — the match is *token*-granular
  and may be *partial* (two prompts sharing only their first ``m`` tokens
  still reuse those ``m`` positions), because causal attention makes
  position ``i``'s K/V depend only on tokens ``0..i``;
* the matched prefix's blocks are aliased into the request's fresh cache
  row (:meth:`PagedKVCache.splice_prefix
  <repro.nn.kv_pool.PagedKVCache.splice_prefix>`, copy-on-write protects them
  from divergent appends) and only the prompt *suffix* is prefilled.

Retention is bounded: entries are LRU-evicted once the summed retained
tokens exceed the configured budget.  Eviction removes the entry's trie
path; nodes shared with surviving entries stay, so partial matches through
shared preambles keep working.  Prompts sharing a trie path share the
underlying blocks; the pool's refcounts are the one record of who holds a
block, and the engine's pool-pressure hook (:meth:`PrefixCache.evict_lru`)
bounds retention by real pool occupancy (``docs/kv-memory.md``).

Reuse is a pure compute-layout change — the aliased K/V is byte-for-byte
what prefilling the prefix would recompute — so engine outputs stay
token-identical with the cache enabled (asserted in ``tests/test_serving.py``
and the golden fixtures).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.nn.kv_pool import KVBlockPool, PagedPrefix

TokenKey = Tuple[int, ...]


@dataclass
class PrefixCacheStats:
    """Lookup/retention counters of one :class:`PrefixCache`.

    Attributes:
        hits: Lookups that matched at least one retained token.
        misses: Lookups that matched nothing.
        tokens_reused: Prompt positions served from retained K/V instead of
            being prefilled (summed over hits).
        insertions: Entries retained (re-inserting a known prompt only
            refreshes its LRU position and does not count).
        evictions: Entries dropped to keep retention under budget.
    """

    hits: int = 0
    misses: int = 0
    tokens_reused: int = 0
    insertions: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that reused at least one token (0.0 when idle)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "tokens_reused": self.tokens_reused,
            "insertions": self.insertions,
            "evictions": self.evictions,
        }


def _as_key(tokens: Sequence[int]) -> TokenKey:
    """``tokens`` as a trie key; a tuple is taken to be one already."""
    return tokens if isinstance(tokens, tuple) else tuple(map(int, tokens))


class _TrieNode:
    """One KV block of a retained prompt path.

    ``key`` is the block's tokens: ``block_size`` of them, or fewer for the
    last block of a prompt whose length is not a multiple of the block size
    (such a node is always a leaf).  ``children`` maps each child's key to the
    child, and ``keys`` holds the same keys in token order, so a lookup that
    ends inside a block finds the children that match it furthest by
    bisection.

    ``entries`` maps the serial of every retained prompt whose path passes
    through this node to that prompt's entry, oldest first; the node exists
    exactly while it is non-empty, so reaching a node during lookup
    guarantees a usable entry.  All entries through a node share the tokens
    on the path to it — and therefore (causal attention) the K/V of those
    positions — so any of them can serve a match ending there.
    """

    __slots__ = ("key", "children", "keys", "entries")

    def __init__(self, key: TokenKey = ()) -> None:
        self.key = key
        self.children: Dict[TokenKey, _TrieNode] = {}
        self.keys: List[TokenKey] = []
        self.entries: Dict[int, _Entry] = {}


def _common_length(first: TokenKey, second: TokenKey) -> int:
    """Length of the longest common prefix of two keys."""
    length = 0
    for mine, theirs in zip(first, second):
        if mine != theirs:
            break
        length += 1
    return length


@dataclass
class _Entry:
    tokens: TokenKey
    prefix: PagedPrefix
    #: Retention order: a later insert has a larger serial.
    serial: int
    #: The entry's trie path below the root, one node per block.
    nodes: List[_TrieNode] = field(default_factory=list)


@dataclass
class PrefixCache:
    """LRU block trie of retained prompt prefixes and their pinned pool blocks.

    The trie's block size is that of the :class:`~repro.nn.kv_pool.KVBlockPool`
    the retained blocks live in: the pool the cache is bound to
    (:meth:`bind`), or else the pool of the first prefix it stores.

    Args:
        max_tokens: Retention budget as summed retained prompt tokens.  A
            prompt longer than the whole budget is simply not retained.
    """

    max_tokens: int = 4096
    stats: PrefixCacheStats = field(default_factory=PrefixCacheStats)

    def __post_init__(self) -> None:
        if self.max_tokens < 1:
            raise ValueError(f"max_tokens must be positive, got {self.max_tokens}")
        #: Retained entries by serial, least-recently-used first.
        self._entries: "OrderedDict[int, _Entry]" = OrderedDict()
        #: The same entries by prompt.
        self._by_tokens: Dict[TokenKey, _Entry] = {}
        self._root = _TrieNode()
        self._num_tokens = 0
        self._serial = 0
        self._pool: Optional[KVBlockPool] = None

    def bind(self, pool: KVBlockPool) -> None:
        """Tie the cache to one engine's block pool; re-binding to another raises.

        Retained entries are blocks of one pool, and a hit can be spliced
        only into a cache over that pool.  A pool belongs to one model, which
        also keeps out K/V from other weights: two different models with the
        same layer/head shape would otherwise accept each other's prefixes
        and corrupt outputs.  The serving engine calls this at construction
        with the pool it builds, so each engine needs its own cache.
        """
        if self._pool is None:
            self._pool = pool
        elif self._pool is not pool:
            raise ValueError(
                "PrefixCache is already bound to a different model or engine: retained K/V "
                "lives in one engine's KVBlockPool, so each engine needs its own cache"
            )

    # -- inspection ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def num_tokens(self) -> int:
        """Summed token count of all retained entries."""
        return self._num_tokens

    def __contains__(self, tokens: Sequence[int]) -> bool:
        return _as_key(tokens) in self._by_tokens

    # -- lookup --------------------------------------------------------------

    def lookup(self, tokens: Sequence[int], limit: Optional[int] = None) -> Tuple[int, Optional[PagedPrefix]]:
        """Longest retained prefix of ``tokens``, as ``(matched_len, prefix_view)``.

        Matches at most ``limit`` tokens, and exactly as many as the longest
        common prefix of ``tokens`` with any retained prompt.  The hit goes
        through the trie node the match ends in — where it ends inside a
        block, the first in token order of the blocks that match that far —
        and the most recently retained entry through that node serves it: the
        result is a non-owning view of that entry's first ``matched_len``
        positions (:meth:`PagedPrefix.head
        <repro.nn.kv_pool.PagedPrefix.head>`), and the hit refreshes the
        entry's LRU position.  ``(0, None)`` on a miss; a ``limit`` of 0 or
        less is always a miss.

        The serving engine passes ``limit=len(prompt) - 1`` so at least one
        prompt token is always prefilled — the forward over the suffix is
        what produces the last-position logits that seed decoding.
        """
        bound = len(tokens) if limit is None else max(0, min(limit, len(tokens)))
        depth = 0
        node = self._root
        if bound and self._entries:
            key = _as_key(tokens)
            block = self._pool.block_size
            # Whole blocks first: one dict lookup each.
            while depth + block <= bound:
                rest = key[depth : depth + block]
                child = node.children.get(rest)
                if child is None:
                    break
                node = child
                depth += block
            else:
                rest = key[depth:bound]
            # Then the longest common prefix of the rest with a child of the
            # node reached: of the keys in token order, one next to where the
            # rest would sort shares the most with it.
            keys = node.keys
            if rest and keys:
                at = bisect_left(keys, rest)
                after = _common_length(keys[at], rest) if at < len(keys) else 0
                before = _common_length(keys[at - 1], rest) if at else 0
                if after > before:
                    node = node.children[keys[at]]
                    depth += after
                elif before:
                    # Keys before ``at - 1`` may share as many tokens; the
                    # match goes through the first of them.
                    node = node.children[keys[bisect_left(keys, rest[:before], 0, at - 1)]]
                    depth += before
        if depth == 0:
            self.stats.misses += 1
            return 0, None
        entry = next(reversed(node.entries.values()))
        self._entries.move_to_end(entry.serial)
        self.stats.hits += 1
        self.stats.tokens_reused += depth
        return depth, entry.prefix.head(depth)

    # -- retention -----------------------------------------------------------

    def would_retain(self, tokens: Sequence[int]) -> bool:
        """Cheap pre-check: would :meth:`insert` store a new entry for ``tokens``?

        Lets the engine skip pinning a prompt's blocks when the insert would
        be discarded anyway.  An exact duplicate refreshes its LRU position
        here, preserving :meth:`insert`'s touch-on-reinsert semantics.  A
        tuple ``tokens`` is used as the key as it is, so a caller that builds
        one tuple per prompt pays for the conversion once.
        """
        key = _as_key(tokens)
        if not key or len(key) > self.max_tokens:
            return False
        entry = self._by_tokens.get(key)
        if entry is not None:
            self._entries.move_to_end(entry.serial)
            return False
        return True

    def insert(self, tokens: Sequence[int], prefix: PagedPrefix) -> bool:
        """Retain ``prefix`` as the K/V of prompt ``tokens``; returns True if stored.

        The prefix must cover exactly ``len(tokens)`` positions and live in
        the cache's pool (a cache not yet bound adopts the pool of the first
        prefix it stores).  Re-inserting a retained prompt refreshes its LRU
        position without pinning.  Prompts that alone exceed the budget are
        not retained (retaining then instantly evicting everything else would
        just thrash).  After a successful insert, least-recently-used entries
        are evicted until the budget holds again.

        The cache takes ownership of the prefix: a rejected one is released
        immediately (unpinning its blocks), a retained one when it is later
        evicted.
        """
        key = _as_key(tokens)
        if prefix.length != len(key):
            raise ValueError(f"prefix covers {prefix.length} positions for a {len(key)}-token prompt")
        if self._pool is None:
            self._pool = prefix.pool
        elif prefix.pool is not self._pool:
            raise ValueError("prefix belongs to a different KVBlockPool than the cache's")
        if not self.would_retain(key):
            prefix.release()
            return False
        self._serial += 1
        entry = _Entry(tokens=key, prefix=prefix, serial=self._serial)
        self._entries[entry.serial] = self._by_tokens[key] = entry
        block = self._pool.block_size
        node = self._root
        for start in range(0, len(key), block):
            chunk = key[start : start + block]
            child = node.children.get(chunk)
            if child is None:
                child = node.children[chunk] = _TrieNode(chunk)
                insort(node.keys, chunk)
            child.entries[entry.serial] = entry
            entry.nodes.append(child)
            node = child
        self._num_tokens += len(key)
        self.stats.insertions += 1
        # The new entry sits at the MRU tail and fits alone, so eviction stops
        # before reaching it.
        while self._num_tokens > self.max_tokens:
            self.evict_lru()
        return True

    def evict_lru(self) -> bool:
        """Drop the least-recently-used entry; ``False`` when nothing is retained.

        The engine's pool-pressure hook: eviction releases the entry's
        block references, so any block no other entry (or live request) still
        shares returns to the pool's free list immediately.
        """
        if not self._entries:
            return False
        _, entry = self._entries.popitem(last=False)
        del self._by_tokens[entry.tokens]
        self._num_tokens -= len(entry.tokens)
        entry.prefix.release()
        self.stats.evictions += 1
        for node in entry.nodes:
            del node.entries[entry.serial]
        # Prune the nodes no surviving entry passes through, leaf to root: a
        # node with entries left keeps every ancestor alive too.
        parents = [self._root] + entry.nodes[:-1]
        for node, parent in zip(reversed(entry.nodes), reversed(parents)):
            if node.entries:
                break
            del parent.children[node.key]
            del parent.keys[bisect_left(parent.keys, node.key)]
        return True

    def clear(self) -> None:
        """Drop every retained entry (counts as evictions in the stats)."""
        while self.evict_lru():
            pass


__all__ = ["PrefixCache", "PrefixCacheStats"]

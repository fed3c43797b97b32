"""Cross-request prompt-prefix reuse: a token trie over retained pool blocks.

Real serving workloads re-send the same prompt preamble over and over — the
eval benches in :mod:`repro.evalbench.rtllm` / :mod:`repro.evalbench.vgen`
are exactly this shape: many problems sharing one long task instruction.
Without reuse, every admission prefills that preamble from scratch; with a
batch of ``N`` requests over ``K`` distinct preambles, ``N - K`` prefills are
redundant compute.

:class:`PrefixCache` removes them.  It keeps recently served prompts in a
token trie; each retained prompt owns a :class:`~repro.nn.kv_pool.PagedPrefix`
— a refcounted pin on the engine's :class:`~repro.nn.kv_pool.KVBlockPool`
blocks its prefill wrote, so retention copies no K/V.  On admission the
engine asks for the longest retained prefix of the new prompt:

* the trie walk follows the new prompt's tokens as far as any retained
  prompt's path reaches — the match may be *partial* (two prompts sharing
  only their first ``m`` tokens still reuse those ``m`` positions), because
  causal attention makes position ``i``'s K/V depend only on tokens
  ``0..i``;
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

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Set, Tuple

from repro.nn.kv_pool import PagedPrefix

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


class _TrieNode:
    """One token of a retained prompt path.

    ``entries`` holds the keys of every retained prompt whose path passes
    through this node; the node exists exactly while that set is non-empty,
    so reaching a node during lookup guarantees a usable entry.  All entries
    passing through a depth-``m`` node share their first ``m`` tokens — and
    therefore (causal attention) the K/V of those ``m`` positions — so any
    of them can serve a partial match ending here.
    """

    __slots__ = ("children", "entries")

    def __init__(self) -> None:
        self.children: Dict[int, _TrieNode] = {}
        self.entries: Set[TokenKey] = set()


@dataclass
class _Entry:
    tokens: TokenKey
    prefix: PagedPrefix


@dataclass
class PrefixCache:
    """LRU token-trie of retained prompt prefixes and their pinned pool blocks.

    Args:
        max_tokens: Retention budget as summed retained prompt tokens.  A
            prompt longer than the whole budget is simply not retained.
    """

    max_tokens: int = 4096
    stats: PrefixCacheStats = field(default_factory=PrefixCacheStats)

    def __post_init__(self) -> None:
        if self.max_tokens < 1:
            raise ValueError(f"max_tokens must be positive, got {self.max_tokens}")
        #: Retained entries, least-recently-used first.
        self._entries: "OrderedDict[TokenKey, _Entry]" = OrderedDict()
        self._root = _TrieNode()
        self._num_tokens = 0
        self._owner: Optional[object] = None

    def bind(self, owner: object) -> None:
        """Tie the cache to one model; re-binding to a different model raises.

        Retained K/V carries no record of which weights produced it — two
        different models with the same layer/head shape would silently accept
        each other's prefixes and corrupt outputs.  The serving engine calls
        this at construction, so sharing one cache between engines is allowed
        exactly when they wrap the same model object.
        """
        if self._owner is None:
            self._owner = owner
        elif self._owner is not owner:
            raise ValueError(
                "PrefixCache is already bound to a different model; retained K/V is "
                "model-specific, so each model needs its own cache"
            )

    # -- inspection ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def num_tokens(self) -> int:
        """Summed token count of all retained entries."""
        return self._num_tokens

    def __contains__(self, tokens: Sequence[int]) -> bool:
        return tuple(tokens) in self._entries

    # -- lookup --------------------------------------------------------------

    def lookup(self, tokens: Sequence[int], limit: Optional[int] = None) -> Tuple[int, Optional[PagedPrefix]]:
        """Longest retained prefix of ``tokens``, as ``(matched_len, prefix_view)``.

        Walks the trie along ``tokens`` (at most ``limit`` of them) as deep as
        any retained path reaches and returns a non-owning view of a matching
        entry's first ``matched_len`` positions (:meth:`PagedPrefix.head
        <repro.nn.kv_pool.PagedPrefix.head>`), refreshing that entry's LRU
        position.  ``(0, None)`` on a miss; a ``limit`` of 0 or less is
        always a miss.

        The serving engine passes ``limit=len(prompt) - 1`` so at least one
        prompt token is always prefilled — the forward over the suffix is
        what produces the last-position logits that seed decoding.
        """
        depth = 0
        node = self._root
        bound = len(tokens) if limit is None else max(0, min(limit, len(tokens)))
        for token in tokens[:bound]:
            child = node.children.get(int(token))
            if child is None:
                break
            node = child
            depth += 1
        if depth == 0:
            self.stats.misses += 1
            return 0, None
        # Every entry through this node shares (and its prefix covers) the
        # first ``depth`` tokens, so any member serves the match; an O(1)
        # arbitrary pick keeps the hot admission path independent of how many
        # entries share the preamble.  The touch refreshes that entry's LRU
        # slot — which equally-valid member gets refreshed is immaterial.
        key = next(iter(node.entries))
        entry = self._entries[key]
        self._entries.move_to_end(key)
        self.stats.hits += 1
        self.stats.tokens_reused += depth
        return depth, entry.prefix.head(depth)

    # -- retention -----------------------------------------------------------

    def would_retain(self, tokens: Sequence[int]) -> bool:
        """Cheap pre-check: would :meth:`insert` store a new entry for ``tokens``?

        Lets the engine skip pinning a prompt's blocks when the insert would
        be discarded anyway.  An exact duplicate refreshes its LRU position
        here, preserving :meth:`insert`'s touch-on-reinsert semantics.
        """
        key = tuple(int(token) for token in tokens)
        if not key or len(key) > self.max_tokens:
            return False
        if key in self._entries:
            self._entries.move_to_end(key)
            return False
        return True

    def insert(self, tokens: Sequence[int], prefix: PagedPrefix) -> bool:
        """Retain ``prefix`` as the K/V of prompt ``tokens``; returns True if stored.

        The prefix must cover exactly ``len(tokens)`` positions.  Re-inserting
        a retained prompt refreshes its LRU position without pinning.  Prompts
        that alone exceed the budget are not retained (retaining then
        instantly evicting everything else would just thrash).  After a
        successful insert, least-recently-used entries are evicted until the
        budget holds again.

        The cache takes ownership of the prefix: a rejected one is released
        immediately (unpinning its blocks), a retained one when it is later
        evicted.
        """
        key = tuple(int(token) for token in tokens)
        if prefix.length != len(key):
            raise ValueError(f"prefix covers {prefix.length} positions for a {len(key)}-token prompt")
        if not self.would_retain(key):
            prefix.release()
            return False
        entry = _Entry(tokens=key, prefix=prefix)
        self._entries[key] = entry
        node = self._root
        for token in key:
            child = node.children.get(token)
            if child is None:
                child = node.children[token] = _TrieNode()
            node = child
            node.entries.add(key)
        self._num_tokens += len(key)
        self.stats.insertions += 1
        # The new entry sits at the MRU tail and fits alone, so eviction stops
        # before reaching it.
        while self._num_tokens > self.max_tokens:
            self._remove(next(iter(self._entries)))
        return True

    def evict_lru(self) -> bool:
        """Drop the least-recently-used entry; ``False`` when nothing is retained.

        The engine's pool-pressure hook: eviction releases the entry's
        block references, so any block no other entry (or live request) still
        shares returns to the pool's free list immediately.
        """
        if not self._entries:
            return False
        self._remove(next(iter(self._entries)))
        return True

    def _remove(self, key: TokenKey) -> None:
        entry = self._entries.pop(key)
        self._num_tokens -= len(key)
        entry.prefix.release()
        self.stats.evictions += 1
        # Unlink the entry from its trie path, pruning nodes no surviving
        # entry passes through (leaf-to-root, so parents see updated children).
        path = [self._root]
        node = self._root
        for token in key:
            node = node.children[token]
            path.append(node)
        for node in path[1:]:
            node.entries.discard(key)
        for depth in range(len(key), 0, -1):
            node = path[depth]
            if node.entries or node.children:
                break
            del path[depth - 1].children[key[depth - 1]]

    def clear(self) -> None:
        """Drop every retained entry (counts as evictions in the stats)."""
        for key in list(self._entries):
            self._remove(key)


__all__ = ["PrefixCache", "PrefixCacheStats"]

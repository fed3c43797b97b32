"""Prefix-deduplicated token trees for speculative candidate verification.

Verifying one padded forward row per candidate would re-compute every token
the candidates share: with the default Medusa candidate set, candidates 1 and
3 differ only after the committed base token.  SpecInfer/Medusa tree attention
instead merges the candidate set into one *token tree* — every shared prefix
becomes a single node — and verifies the whole tree in one forward over one
row:

* each node's token is embedded once, at position ``prefix + depth`` (siblings
  share a position, exactly as if each root-to-leaf path were its own row);
* an additive attention mask lets each node attend the cached committed
  prefix plus its own ancestor chain and nothing else, so the logits at node
  ``n`` equal the logits a plain causal forward over the prefix followed by
  any candidate passing through ``n`` produces at that token.

:class:`TokenTree` is the builder (a tiny trie keyed on ``(parent, token)``);
the module-level helpers construct the additive mask, position offsets and
padded token rows of the batched verification forward
(:func:`repro.core.decoding.speculative_step`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Additive mask value for "may not attend"; matches the causal-mask constant
#: in :mod:`repro.nn.layers` (large enough that float32 softmax underflows the
#: masked weights to exactly 0.0, small enough to stay finite).
MASK_VALUE = -1e9


@dataclass
class TokenTree:
    """A candidate set merged into a prefix-deduplicated tree.

    Nodes are stored flat in insertion order, which guarantees every parent
    precedes its children (so node ids along any root-to-leaf path are
    strictly increasing — the property :meth:`~repro.nn.kv_cache.KVCache
    .compact_paths` compaction relies on).

    Attributes:
        tokens: token id per node.
        parents: parent node id per node (``-1`` for depth-0 roots, which
            hang directly off the committed prefix).
        depths: 0-based depth per node; node ``n`` sits at sequence position
            ``prefix_len + depths[n]``.
        candidate_nodes: for each input candidate, the node ids spelling it
            out — the map from verification logits back to candidates.
    """

    tokens: List[int] = field(default_factory=list)
    parents: List[int] = field(default_factory=list)
    depths: List[int] = field(default_factory=list)
    candidate_nodes: List[List[int]] = field(default_factory=list)

    @property
    def size(self) -> int:
        """Number of nodes (== tokens the verification forward computes)."""
        return len(self.tokens)

    @property
    def num_candidates(self) -> int:
        return len(self.candidate_nodes)

    @classmethod
    def from_candidates(cls, candidates: Sequence[Sequence[int]]) -> "TokenTree":
        """Merge candidate token lists into a tree by shared-prefix insertion.

        Args:
            candidates: non-empty candidate token lists (as produced by
                :func:`repro.core.decoding.propose_candidates`).

        Returns:
            The merged tree; ``tree.size <= sum(len(c) for c in candidates)``
            with equality iff no two candidates share a prefix.
        """
        if not candidates or any(len(candidate) == 0 for candidate in candidates):
            raise ValueError("candidates must be non-empty token lists")
        tree = cls()
        children: Dict[Tuple[int, int], int] = {}
        for candidate in candidates:
            parent = -1
            nodes: List[int] = []
            for token in candidate:
                key = (parent, int(token))
                node = children.get(key)
                if node is None:
                    node = len(tree.tokens)
                    children[key] = node
                    tree.tokens.append(int(token))
                    tree.parents.append(parent)
                    tree.depths.append(0 if parent < 0 else tree.depths[parent] + 1)
                nodes.append(node)
                parent = node
            tree.candidate_nodes.append(nodes)
        return tree

    def ancestor_mask(self) -> np.ndarray:
        """Boolean ``(size, size)`` matrix: ``[i, j]`` iff ``j`` is ``i`` or an ancestor of ``i``."""
        size = self.size
        # Parents precede children, so row ``n`` is row ``parents[n]``, built
        # already and set only in columns up to the parent, plus ``n``.  The
        # rows are one byte buffer until the end: one NumPy call.
        flat = bytearray(size * size)
        for node, parent in enumerate(self.parents):
            row = node * size
            if parent >= 0:
                flat[row : row + parent + 1] = flat[parent * size : parent * size + parent + 1]
            flat[row + node] = 1
        return np.frombuffer(flat, dtype=bool).reshape(size, size)

    def path(self, candidate_index: int, length: Optional[int] = None) -> List[int]:
        """Node ids of the first ``length`` tokens of a candidate (its accepted path)."""
        nodes = self.candidate_nodes[candidate_index]
        return list(nodes if length is None else nodes[:length])


def tree_size(candidates: Sequence[Sequence[int]]) -> int:
    """``TokenTree.from_candidates(candidates).size`` without building the tree.

    Every node of the merged tree is one distinct non-empty candidate prefix.
    """
    return len({tuple(candidate[:end]) for candidate in candidates for end in range(1, len(candidate) + 1)})


def prefilter_candidates(candidates: List[List[int]], mask) -> List[List[int]]:
    """Truncate speculative candidates at their first grammar violation.

    The grammar pre-filter of constrained decoding
    (:mod:`repro.constrained`): runs *before* tree construction and
    verification, so grammar-dead branches never cost a verification
    position — the tree built from the filtered set is a pruned subtree of
    the unconstrained one, which is exactly why the verified-position count
    strictly drops whenever the mask rejects anything.

    ``mask`` is any object with the :class:`~repro.constrained.mask
    .SyntaxMaskState` protocol (``allows`` / ``advance`` / ``snapshot`` /
    ``restore``); ``None`` is the inert fast path and returns the input
    unchanged.  Each candidate is walked from the current committed state,
    with snapshot/restore keeping branches independent, and cut at the first
    disallowed token.  Candidates truncated to nothing are dropped;
    candidate 0's first token was committed under the mask by the proposal
    itself, so the result is never empty in practice (a defensive fallback
    keeps its first token if every candidate dies).
    """
    if mask is None:
        return candidates
    snapshot = mask.snapshot()
    filtered: List[List[int]] = []
    try:
        for candidate in candidates:
            mask.restore(snapshot)
            kept = 0
            for token_id in candidate:
                if not mask.allows(token_id):
                    break
                mask.advance(token_id)
                kept += 1
            if kept:
                filtered.append(candidate[:kept])
    finally:
        mask.restore(snapshot)
    if not filtered:
        return [list(candidates[0][:1])]
    return filtered


def tree_bias_cached(
    trees: Sequence[TokenTree],
    past_lengths: Sequence[int],
    window: int,
    view: int,
) -> np.ndarray:
    """Additive attention bias for the tree-verification forward.

    Row ``r`` of the forward appends ``trees[r]``'s nodes (right-padded to
    ``window``) after its cached prefix of ``past_lengths[r]`` positions, so
    the key buffer covers ``view`` positions.  Query node ``i`` of row ``r``
    may attend:

    * the row's whole committed prefix (key positions ``< past_lengths[r]``);
    * its ancestor chain including itself (key ``past_lengths[r] + j`` with
      ``j`` an ancestor-or-self node id).

    Everything else — sibling branches, the row's padded window slots, stale
    key storage belonging to longer rows — is masked.  Padded *query* slots
    attend the prefix only (their softmax stays well-defined; their outputs
    are garbage by construction and never read).

    Returns:
        ``(len(trees), window, view)`` float32 bias (``0.0`` attend /
        :data:`MASK_VALUE` masked) for
        :meth:`~repro.nn.layers.CausalSelfAttention.forward`.
    """
    batch = len(trees)
    if len(past_lengths) != batch:
        raise ValueError(f"past_lengths length {len(past_lengths)} != number of trees {batch}")
    bias = np.full((batch, window, view), MASK_VALUE, dtype=np.float32)
    for row, tree in enumerate(trees):
        past = int(past_lengths[row])
        size = tree.size
        if size > window or past + size > view:
            raise ValueError(
                f"row {row}: tree of {size} nodes exceeds window {window} / view {view} at prefix {past}"
            )
        bias[row, :, :past] = 0.0
        block = bias[row, :size, past : past + size]
        block[tree.ancestor_mask()] = 0.0
    return bias


def tree_position_offsets(trees: Sequence[TokenTree], window: int) -> np.ndarray:
    """Per-row position offsets (``depth`` per node) for the tree-verification forward.

    Padded window slots get offset 0; they are excluded from the sequence-
    length check via the cache's per-row append widths and their outputs are
    never read.

    Returns:
        ``(len(trees), window)`` int64 offsets for ``position_offsets=``.
    """
    offsets = np.zeros((len(trees), window), dtype=np.int64)
    for row, tree in enumerate(trees):
        offsets[row, : tree.size] = tree.depths
    return offsets


def pad_tree_tokens(trees: Sequence[TokenTree], window: int) -> np.ndarray:
    """Right-pad each tree's node tokens to ``window`` for the batched forward.

    The padding repeats the last node's token (any valid id works — padded
    slots are fully masked and kept out of the cache by per-row append
    widths).
    """
    rows = np.zeros((len(trees), window), dtype=np.int64)
    for row, tree in enumerate(trees):
        rows[row, : tree.size] = tree.tokens
        if tree.size < window:
            rows[row, tree.size :] = tree.tokens[-1]
    return rows

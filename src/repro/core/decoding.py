"""Speculative decoding (paper Sec. III-B): one step kernel, two drivers.

The three decoding regimes the paper compares:

* ``NTP`` — conventional next-token prediction with the base head only;
* ``MEDUSA`` — multi-head speculative decoding with typical acceptance;
* ``OURS`` — Medusa-style speculation plus the fragment-integrity check that
  truncates every accepted run back to a syntactically complete fragment.

One decoding step is written once, general over a batch of *lanes* (one
:class:`~repro.serving.request.RequestState` per sequence being decoded, one
row of a shared KV cache each):

* :func:`ntp_step` samples one token per lane from its held base logits and
  runs one shared one-token forward;
* :func:`speculative_step` proposes candidates from the held base + Medusa-head
  logits, clips them to the budget and context window, prunes them under the
  grammar mask, merges each lane's candidates into a prefix-deduplicated
  :class:`~repro.core.token_tree.TokenTree`, verifies every tree in one shared
  forward over the lanes' own cache rows (tree attention bias, per-node
  position offsets), scores each whole tree once with exact-match (greedy)
  or typical acceptance (eq. 1),
  truncates to the last fragment boundary (``OURS``), commits, and compacts
  each cache row in place to its accepted root-to-leaf path so rejected
  speculative tokens never pollute later steps.

Both update the cache they are given in place — on the row cache and on the
paged cache alike — and return ``(continuing, finished)``.

:class:`SpeculativeDecoder` is the one owner of the decoding policy (model,
tokenizer, strategy, acceptance rule, candidate count, head cap) and of the
three operations that apply it to lanes: :meth:`~SpeculativeDecoder.prefill`,
:meth:`~SpeculativeDecoder.step` (the one dispatch to the two kernel
functions) and :meth:`~SpeculativeDecoder.finish`.  Its
:meth:`~SpeculativeDecoder.generate_many` runs them over a row
:class:`~repro.nn.kv_cache.KVCache` for one prompt decoded under several
configs — one prefill, one lane per config, both backbones — and
:meth:`~SpeculativeDecoder.generate` is that with one lane;
:class:`~repro.serving.ServingEngine` serves a decoder and runs them for
every running request at once over paged rows.  So sequential, batched and
served generation commit identical tokens by construction.
``tests/reference_decoder.py`` keeps an independent cache-free, tree-free
loop as the oracle the kernel is tested against.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.constrained.mask import SyntaxMaskState, closure_token_ids, grammar_mask, masked_sample
from repro.core.acceptance import TypicalAcceptance
from repro.core.integrity import ends_at_fragment_boundary, truncate_to_complete_fragment
from repro.core.token_tree import (
    TokenTree,
    pad_tree_tokens,
    prefilter_candidates,
    tree_bias_cached,
    tree_position_offsets,
    tree_size,
)
from repro.models.generation import GenerationConfig, top_k_token_ids
from repro.models.medusa import MedusaLM
from repro.tokenizer.bpe import BPETokenizer

if TYPE_CHECKING:  # serving imports this module, so the lane type is annotation-only here
    from repro.serving.request import RequestState


class DecodingStrategy(enum.Enum):
    """The decoding regimes compared in the paper."""

    NTP = "ntp"
    MEDUSA = "medusa"
    OURS = "ours"


def propose_candidates(
    base_logits: np.ndarray,
    head_logits: Sequence[np.ndarray],
    config: GenerationConfig,
    rng: np.random.Generator,
    num_candidates: int,
    max_heads: int,
    mask: Optional[SyntaxMaskState] = None,
) -> List[List[int]]:
    """Build candidate continuations from base + Medusa-head predictions.

    Args:
        base_logits: ``(V,)`` base-head logits at the last committed position.
        head_logits: per-head ``(V,)`` logits at the same position.
        config: sampling configuration (greedy vs. temperature sampling for
            the first token; the speculated tail is always head argmax).
        rng: per-request random generator (consumed only under sampling).
        num_candidates: maximum number of candidates to return.
        max_heads: number of Medusa heads to speculate with.
        mask: optional grammar mask (:mod:`repro.constrained`).  Constrains
            only the committed first token; the speculated tails and the
            alternative base token stay unconstrained here and are truncated
            at their first violation by :func:`repro.core.token_tree
            .prefilter_candidates` before verification.

    Returns:
        Candidate token lists; candidate 0 always starts with the token the
        base model itself commits this step.
    """
    first_token = masked_sample(base_logits, config, rng, mask)
    heads = list(head_logits[:max_heads])
    # One stacked argmax instead of one call per head: identical results,
    # and proposal runs once per request per step in the serving engine, so
    # its constant factors are on the throughput-critical path.
    head_top1 = [int(t) for t in np.argmax(np.stack(heads), axis=-1)] if heads else []
    base_top = top_k_token_ids(base_logits, num_candidates)

    candidates: List[List[int]] = []
    # Candidate 1: committed base token + every head's top-1.
    candidates.append([first_token] + head_top1)
    # Candidate 2: alternative base token + heads' top-1.
    if len(base_top) > 1 and int(base_top[1]) != first_token:
        candidates.append([int(base_top[1])] + head_top1)
    elif len(base_top) > 0 and int(base_top[0]) != first_token:
        candidates.append([int(base_top[0])] + head_top1)
    # Candidate 3: committed base token + head-1's runner-up then top-1s
    # (only head 0's runner-up is ever needed).
    if max_heads >= 1:
        head0 = heads[0]
        head0_top2 = int(top_k_token_ids(head0, 2)[1]) if head0.shape[-1] > 1 else int(np.argmax(head0))
        alt = [first_token, head0_top2] + head_top1[1:]
        candidates.append(alt)
    return dedupe_candidates(candidates)[: max(num_candidates, 1)]


def dedupe_candidates(candidates: List[List[int]]) -> List[List[int]]:
    """Drop duplicate candidates, keeping first occurrences (order preserved).

    Identical candidates verify identical positions and can never beat their
    first occurrence in :func:`select_best_candidate`, so each duplicate is a
    wasted verification row (or tree branch).  Duplicates mainly arise when
    the context/budget clip truncates candidates that differ only in their
    tails down to the same prefix — with a budget of one remaining token,
    every candidate collapses to ``[first_token]``.

    Candidate 0 (the one starting with the token the base model itself
    commits) is always a first occurrence, so its special role is preserved.
    """
    seen = set()
    unique: List[List[int]] = []
    for candidate in candidates:
        key = tuple(candidate)
        if key not in seen:
            seen.add(key)
            unique.append(candidate)
    return unique


def score_tree(
    tree: TokenTree, node_logits: np.ndarray, acceptance: TypicalAcceptance, node_argmax: Optional[np.ndarray]
) -> List[int]:
    """Score a verified tree once: per candidate, how many tokens after its first are accepted.

    A node is accepted iff the base logits at its parent — the position that
    predicts it — accept its token: exact match against ``node_argmax`` (greedy
    decoding) or, when that is ``None``, typical acceptance (eq. 1) over one
    :meth:`~repro.core.acceptance.TypicalAcceptance.score_rows` of all nodes.
    A candidate's tail runs until its first rejected node.  Roots are the base
    model's own commits and never scored (their parent index ``-1`` reads a
    row nothing looks at).

    Args:
        tree: the verified token tree.
        node_logits: ``(tree.size, V)`` base logits at the tree's nodes.
        acceptance: the typical-acceptance rule.
        node_argmax: the argmax of every node's logits (at least
            ``tree.size`` entries), or ``None`` to sample-verify.
    """
    parents, tokens = tree.parents, tree.tokens
    if node_argmax is not None:
        node_accepted = node_argmax[parents] == tokens
    else:
        probabilities, thresholds = acceptance.score_rows(node_logits)
        node_accepted = probabilities[parents, tokens] > thresholds[parents]
    accepted = node_accepted.tolist()
    tails = []
    for nodes in tree.candidate_nodes:
        tail = 0
        while tail + 1 < len(nodes) and accepted[nodes[tail + 1]]:
            tail += 1
        tails.append(tail)
    return tails


def select_best_candidate(
    candidates: List[List[int]],
    accepted_tails: Sequence[int],
    strategy: DecodingStrategy,
    frag_id: int,
    eos_id: int,
) -> Tuple[List[int], int, int]:
    """Pick the scored candidate with the longest committed run.

    The first token of each candidate comes from the base model itself and is
    always committed; ``accepted_tails[row]`` says how many of the speculated
    tokens after it verification accepted (exact match against the base
    model's argmax under greedy decoding — lossless, as in Medusa's greedy
    mode — and the typical-acceptance rule, eq. 1, under sampling).

    Args:
        candidates: candidate token lists (unpadded, each non-empty; every
            run keeps at least its first token, so the winner is never empty).
        accepted_tails: per candidate, the length of its accepted prefix after
            the first token.
        strategy: :attr:`DecodingStrategy.OURS` additionally truncates the
            accepted run back to the last complete fragment boundary.
        frag_id: token id of the ``[FRAG]`` boundary marker.
        eos_id: end-of-sequence token id (ends the run wherever it appears).

    Returns:
        ``(tokens, accepted, row)`` — the committed tokens, the accepted
        length before fragment truncation, and the winning candidate index.
    """
    best_tokens: List[int] = []
    best_accepted = 0
    best_row = 0
    for row, (candidate, accepted_tail) in enumerate(zip(candidates, accepted_tails)):
        accepted = 1 + accepted_tail
        tokens = candidate[:accepted]
        if strategy is DecodingStrategy.OURS:
            tokens = truncate_to_complete_fragment(tokens, frag_id, eos_id=eos_id)
        # EOS anywhere in the run ends the output there.
        if eos_id in tokens:
            tokens = tokens[: tokens.index(eos_id) + 1]
        if len(tokens) > len(best_tokens):
            best_tokens = tokens
            best_accepted = accepted
            best_row = row
    return best_tokens, best_accepted, best_row


def decoder_budget_exceeded(prompt_len: int, output_len: int, extra: int, max_seq_len: int) -> bool:
    """True when adding ``extra`` tokens would exceed a decoder-only context window."""
    return prompt_len + output_len + extra >= max_seq_len - 1


def max_step_extra(prompt_len: int, output_len: int, remaining: int, max_seq_len: int) -> int:
    """Largest candidate length a decoder-only request may speculate this step.

    Starts from the request's remaining new-token budget and shrinks until
    the candidate window fits the context window (never below 1; callers
    check :func:`decoder_budget_exceeded` with ``extra=1`` before stepping).
    """
    max_extra = remaining
    while decoder_budget_exceeded(prompt_len, output_len, max_extra, max_seq_len) and max_extra > 1:
        max_extra -= 1
    return max_extra


@dataclass
class StepRecord:
    """Bookkeeping for one decoding step (used by the Fig. 5 bench).

    ``verified`` counts the positions the verification forward computed for
    this lane this step: the node count of its candidate tree, or 1 for plain
    next-token prediction.
    """

    proposed: int
    accepted: int
    committed: int
    ends_at_boundary: bool
    verified: int = 1
    #: Positions the verification forward *would* have computed this step had
    #: the grammar pre-filter not pruned the candidate set (``None`` for
    #: unconstrained steps, where it equals ``verified``).  The constrained
    #: bench's verified-token-savings claim compares the two within one run —
    #: comparing totals across separate runs would be confounded by the runs
    #: taking different numbers of steps.
    verified_unpruned: Optional[int] = None


@dataclass
class DecodeResult:
    """Outcome of one generation run.

    A lane of :meth:`SpeculativeDecoder.generate_many` reports the batch's
    wall time as its ``wall_time_seconds`` and the one prefill its lanes
    share as its ``prefill_seconds``.
    """

    token_ids: List[int]
    text: str
    code: str
    steps: int
    tokens_generated: int
    #: Start to finish of the run; for a lane of a batch, of the whole batch.
    wall_time_seconds: float
    step_records: List[StepRecord] = field(default_factory=list)
    stopped_by_eos: bool = False
    #: Time spent on the one-off prompt prefill (shared by a batch's lanes).
    prefill_seconds: float = 0.0
    #: Prompt positions served from the serving engine's cross-request prefix
    #: cache instead of being prefilled; always 0 for sequential decoding.
    prompt_tokens_reused: int = 0
    #: True when the serving engine cancelled the run (explicit cancel or an
    #: expired deadline); ``token_ids`` then holds the partial output
    #: committed before cancellation.  Always False for sequential decoding.
    cancelled: bool = False
    #: Trailing tokens appended by the grammar closure when a constrained run
    #: exhausted its budget mid-module (0 for unconstrained runs and for
    #: constrained runs that completed on their own).  They are part of
    #: ``token_ids``/``code`` but were never proposed or verified.
    closure_tokens: int = 0

    @property
    def tokens_decoded(self) -> int:
        """Tokens the decoding steps committed: the numerator of both rates.

        Excludes :attr:`closure_tokens`, which no step proposed or verified
        (``steps`` does not count them either).
        """
        return self.tokens_generated - self.closure_tokens

    @property
    def decode_seconds(self) -> float:
        """Wall time of the decode loop, excluding the one-off prompt prefill."""
        return max(self.wall_time_seconds - self.prefill_seconds, 0.0)

    @property
    def tokens_per_second(self) -> float:
        """Raw generation speed (eq. 3 numerator / denominator for one output).

        Measured with ``time.perf_counter`` over the decode loop only:
        tokenization happens outside the timed region and the one-off prompt
        prefill is excluded, so prompts of different lengths compare
        apples-to-apples on the per-token rate.
        """
        denominator = self.decode_seconds if self.decode_seconds > 0 else self.wall_time_seconds
        if denominator <= 0:
            return 0.0
        return self.tokens_decoded / denominator

    @property
    def code_chars(self) -> int:
        """Length of :attr:`code`: the one output unit every method shares
        (Ours' ``[FRAG]`` markers are tokens but no code)."""
        return len(self.code)

    @property
    def tokens_per_step(self) -> float:
        """Mean number of tokens committed per decoding step."""
        if self.steps == 0:
            return 0.0
        return self.tokens_decoded / self.steps

    @property
    def tokens_verified(self) -> int:
        """Total positions run through candidate verification (see :class:`StepRecord`)."""
        return sum(record.verified for record in self.step_records)

    @property
    def tokens_verified_unpruned(self) -> int:
        """What :attr:`tokens_verified` would have been without grammar pruning.

        Per step this is :attr:`StepRecord.verified_unpruned` when the grammar
        pre-filter ran and :attr:`StepRecord.verified` otherwise, so for
        unconstrained runs the two totals coincide and the difference is
        exactly the verified-position savings of constrained decoding.
        """
        return sum(
            record.verified if record.verified_unpruned is None else record.verified_unpruned
            for record in self.step_records
        )


def speculates(strategy: DecodingStrategy, max_heads: int) -> bool:
    """True when decoding runs :func:`speculative_step`; False selects :func:`ntp_step`.

    Prefill reads this too: the Medusa heads are evaluated only for lanes
    whose next step will propose from them.
    """
    return strategy is not DecodingStrategy.NTP and max_heads > 0


def tree_headroom(num_candidates: int, max_heads: int) -> int:
    """Most cache positions a lane's appended candidate tree can occupy.

    :func:`speculative_step` appends the whole tree — every branch — to the
    lane's cache row before compacting to the accepted path, so a row cache
    serving it needs this much capacity beyond the context window.
    """
    return num_candidates * (max_heads + 1)


def lane_done(lane: "RequestState", max_seq_len: int) -> bool:
    """The decode loop's exit conditions: EOS, token budget spent, or context window full."""
    return (
        lane.stopped_by_eos
        or lane.remaining_tokens <= 0
        or decoder_budget_exceeded(lane.prompt_len, len(lane.output_ids), 1, max_seq_len)
    )


def commit_grammar_closure(lane: "RequestState", tokenizer: BPETokenizer, timestamp: float) -> None:
    """Commit the grammar closure of a constrained lane whose budget ran out mid-module.

    Keeps the constrained contract (the emitted code parses) for truncated
    runs.  The closure goes through ``record_commit`` so streaming consumers
    observe exactly the tokens the result reports; unconstrained lanes and
    lanes that completed on their own commit nothing.
    """
    if lane.grammar_mask is None:
        return
    closure = closure_token_ids(lane.grammar_mask, tokenizer)
    if closure:
        lane.record_commit(closure, timestamp)
        lane.closure_tokens = len(closure)


def _commit(lane: "RequestState", tokens: List[int], eos_id: int, timestamp: float) -> None:
    if lane.grammar_mask is not None:
        for token_id in tokens:
            lane.grammar_mask.advance(token_id)
    lane.record_commit(tokens, timestamp)
    if eos_id in tokens:
        lane.stopped_by_eos = True


def _retire(cache, lanes: Sequence["RequestState"], max_seq_len: int):
    """Split lanes into (continuing, finished) and reclaim the finished lanes' cache rows."""
    done = [lane_done(lane, max_seq_len) for lane in lanes]
    if any(done):
        # Also when nothing continues, so stale rows never meet the next concat.
        cache.select_rows([row for row, lane_is_done in enumerate(done) if not lane_is_done])
    continuing = [lane for lane, lane_is_done in zip(lanes, done) if not lane_is_done]
    finished = [lane for lane, lane_is_done in zip(lanes, done) if lane_is_done]
    return continuing, finished


def ntp_step(
    model: MedusaLM,
    cache,
    lanes: Sequence["RequestState"],
    *,
    eos_id: int,
    max_seq_len: int,
    clock: Callable[[], float],
):
    """One next-token-prediction step for every lane: sample, commit, one shared forward.

    Args:
        model: the model being decoded.
        cache: ragged ``KVCache`` / ``PagedKVCache`` holding one row per lane
            (same order), each at its lane's committed prefix.
        lanes: running lanes; each holds the base logits at its last
            committed position in ``last_base``.
        eos_id: end-of-sequence token id.
        max_seq_len: the model's context window.
        clock: time source stamped on every commit.

    Returns:
        ``(continuing, finished)`` — ``cache`` now holds one row per
        continuing lane, whose ``last_base`` is refreshed.
    """
    commit_time = clock()
    for lane in lanes:
        token = masked_sample(lane.last_base, lane.request.config, lane.rng, lane.grammar_mask)
        _commit(lane, [token], eos_id, commit_time)
        lane.step_records.append(StepRecord(proposed=1, accepted=1, committed=1, ends_at_boundary=True))
    continuing, finished = _retire(cache, lanes, max_seq_len)
    if continuing:
        tokens = np.asarray([lane.output_ids[-1] for lane in continuing], dtype=np.int64)[:, None]
        base_logits, _ = model.forward_hidden(tokens, cache=cache)
        for row, lane in enumerate(continuing):
            lane.last_base = base_logits[row, -1]
    return continuing, finished


def speculative_step(
    model: MedusaLM,
    cache,
    lanes: Sequence["RequestState"],
    *,
    strategy: DecodingStrategy,
    acceptance: TypicalAcceptance,
    num_candidates: int,
    max_heads: int,
    frag_id: int,
    eos_id: int,
    max_seq_len: int,
    clock: Callable[[], float],
):
    """One speculative step for every lane: propose, verify all trees in one forward, commit.

    Args:
        model, cache, lanes, eos_id, max_seq_len, clock: as for :func:`ntp_step`;
            each lane also holds the Medusa-head logits at its last committed
            position in ``last_heads``, and a row cache needs
            :func:`tree_headroom` positions of capacity beyond ``max_seq_len``.
        strategy: ``OURS`` truncates accepted runs to a fragment boundary.
        acceptance: typical-acceptance rule used by sampling lanes.
        num_candidates: candidates proposed per lane.
        max_heads: Medusa heads speculated with.
        frag_id: token id of the ``[FRAG]`` boundary marker.

    Returns:
        ``(continuing, finished)`` — ``cache`` now holds one row per
        continuing lane, compacted in place to its committed tokens.
        Continuing lanes hold refreshed ``last_base`` / ``last_heads``.
    """
    prefixes = [int(length) for length in cache.lengths]
    all_candidates: List[List[List[int]]] = []
    unpruned_counts: List[Optional[int]] = []
    trees: List[TokenTree] = []
    for lane in lanes:
        candidates = propose_candidates(
            lane.last_base,
            lane.last_heads,
            lane.request.config,
            lane.rng,
            num_candidates=num_candidates,
            max_heads=max_heads,
            mask=lane.grammar_mask,
        )
        extra = max_step_extra(lane.prompt_len, len(lane.output_ids), lane.remaining_tokens, max_seq_len)
        candidates = dedupe_candidates([candidate[:extra] for candidate in candidates])
        unpruned = None
        if lane.grammar_mask is not None:
            # Like-for-like savings baseline: the tree this step would have
            # verified without the pre-filter, on the same proposal state.
            # Truncation can collapse candidates that differed only past
            # their first violation, hence the second dedupe.
            unpruned = tree_size(candidates)
            candidates = dedupe_candidates(prefilter_candidates(candidates, lane.grammar_mask))
        all_candidates.append(candidates)
        unpruned_counts.append(unpruned)
        trees.append(TokenTree.from_candidates(candidates))

    # One row per lane: its whole tree is appended after the row's committed
    # prefix (which may carry the row past the context window: tree nodes sit
    # at position prefix + depth, not prefix + node index).  Per-row append
    # widths keep the window padding of smaller trees out of the cache.
    sizes = [tree.size for tree in trees]
    window = max(sizes)
    view = max(prefix + size for prefix, size in zip(prefixes, sizes))
    cache.set_append_widths(sizes)
    try:
        base_v, hidden_v = model.forward_hidden(
            pad_tree_tokens(trees, window),
            cache=cache,
            attn_bias=tree_bias_cached(trees, prefixes, window, view),
            position_offsets=tree_position_offsets(trees, window),
        )
    finally:
        cache.set_append_widths(None)

    greedy = [lane.request.config.greedy for lane in lanes]
    # One vectorised argmax serves the greedy verification of every lane.
    argmax_v = np.argmax(base_v, axis=-1) if any(greedy) else None
    paths: List[List[int]] = []
    for index, lane in enumerate(lanes):
        tree = trees[index]
        candidates = all_candidates[index]
        tails = score_tree(tree, base_v[index, : tree.size], acceptance, argmax_v[index] if greedy[index] else None)
        best_tokens, best_accepted, best_row = select_best_candidate(
            candidates, tails, strategy=strategy, frag_id=frag_id, eos_id=eos_id
        )
        _commit(lane, best_tokens, eos_id, clock())
        lane.step_records.append(
            StepRecord(
                proposed=len(candidates[0]),
                accepted=best_accepted,
                committed=len(best_tokens),
                ends_at_boundary=ends_at_fragment_boundary(best_tokens, frag_id, eos_id),
                verified=tree.size,
                verified_unpruned=unpruned_counts[index],
            )
        )
        path = tree.path(best_row, len(best_tokens))
        paths.append(path)
        # The verification forward already produced the logits at the last
        # committed node — they seed the next step's proposal.
        lane.last_base = base_v[index, path[-1]]

    # One batched Medusa-head evaluation at each lane's last committed node
    # (the only place head logits are ever read).
    head_logits = model.head_logits_at(hidden_v[np.arange(len(lanes)), [path[-1] for path in paths]])
    for index, lane in enumerate(lanes):
        lane.last_heads = [h[index] for h in head_logits]

    # Compact every row in place to its committed prefix + accepted path; the
    # rejected branches become stale tail storage (row cache) or freed blocks
    # (paged cache).
    cache.compact_paths(prefixes, paths)
    return _retire(cache, lanes, max_seq_len)


def final_chunk_rows(length: int) -> int:
    """How many trailing rows a final prefill chunk of ``length`` tokens computes in its last block.

    The fewest rows, and at least two, that are congruent to ``length``
    modulo 8 (all of them for a short chunk).  BLAS computes a float32
    product's rows in fixed-width groups counted from its first row, and a
    row's last bits can depend on the width of its group: OpenBLAS groups
    rows by four, so the last two rows of a four-row product differ in the
    last bits from a two-row product of the same rows whenever the other
    dimension is not a multiple of four (a base head over a 97-token
    vocabulary), and NumPy sends a one-row product to gemv, which differs
    too.  A count congruent modulo 8 keeps every kept row in the group it
    has in the full chunk for group widths of 1, 2, 4 and 8, so the logits
    are bitwise the full forward's.  A one-token chunk is the full chunk.
    """
    rows = length % 8
    return min(length, rows if rows >= 2 else rows + 8)


class SpeculativeDecoder:
    """The decoding policy: one of the three strategies with its settings.

    :meth:`generate` decodes one sequence and :meth:`generate_many` one
    prompt under several configs at once; a
    :class:`~repro.serving.ServingEngine` serves the same decoder to many
    requests through :meth:`prefill`, :meth:`step` and :meth:`finish`.

    Args:
        model: A trained :class:`~repro.models.medusa.MedusaLM` (decoder-only
            or encoder-decoder backbone).
        tokenizer: The tokenizer the model was trained with.
        strategy: ``NTP`` (one token per step), ``MEDUSA`` (speculative) or
            ``OURS`` (speculative + fragment-integrity truncation).
        acceptance: Typical-acceptance rule for sampling runs (defaults to
            the paper's eq. 1 parameters).
        num_candidates: Candidate continuations verified per step.
        max_speculative_heads: Cap on the Medusa heads used for speculation
            (defaults to all heads the model has; clamped to
            ``[0, num_medusa_heads]``).
    """

    def __init__(
        self,
        model: MedusaLM,
        tokenizer: BPETokenizer,
        strategy: DecodingStrategy = DecodingStrategy.OURS,
        acceptance: Optional[TypicalAcceptance] = None,
        num_candidates: int = 3,
        max_speculative_heads: Optional[int] = None,
    ) -> None:
        self.model = model
        self.tokenizer = tokenizer
        self.strategy = strategy
        self.acceptance = acceptance or TypicalAcceptance()
        self.num_candidates = max(1, num_candidates)
        self.max_speculative_heads = (
            model.num_medusa_heads
            if max_speculative_heads is None
            else max(0, min(max_speculative_heads, model.num_medusa_heads))
        )
        vocab = tokenizer.vocab
        self.frag_id = vocab.frag_id
        self.eos_id = vocab.eos_id
        self.bos_id = vocab.bos_id

    def prefill(
        self,
        lane: "RequestState",
        cache,
        tokens: Sequence[int],
        *,
        final: bool,
        clock: Callable[[], float],
    ) -> None:
        """Forward one chunk of ``lane``'s context into its batch-1 ``cache`` row.

        ``final`` marks the chunk that ends the context: its last position
        seeds decoding, so ``last_base`` is set from it, and ``last_heads``
        too when the step kernel will speculate.  A chunk computes only what
        the next step reads: a non-final chunk stops at the last layer's K/V
        write (``last=0``), and the final one runs the last block, the final
        norm and the base head on its last :func:`final_chunk_rows` rows
        only.  K/V and logits are bitwise those of the full forward
        (``tests/test_prefill_last.py``).  Only the forward and the head
        evaluation are timed into ``lane.prefill_seconds``.
        """
        chunk = np.asarray([tokens], dtype=np.int64)
        start = clock()
        if final:
            base_logits, hidden = self.model.forward_hidden(chunk, cache=cache, last=final_chunk_rows(len(tokens)))
            lane.last_base = base_logits[0, -1]
            if speculates(self.strategy, self.max_speculative_heads):
                lane.last_heads = [h[0] for h in self.model.head_logits_at(hidden[:, -1])]
        else:
            self.model.forward_hidden(chunk, cache=cache, last=0)
        lane.prefill_seconds += clock() - start

    def step(self, cache, lanes: Sequence["RequestState"], clock: Callable[[], float]):
        """One kernel step over every lane: :func:`speculative_step` or :func:`ntp_step`.

        ``cache`` is updated in place; returns ``(continuing, finished)`` as
        the kernel functions do.
        """
        max_seq_len = self.model.backbone.max_seq_len
        if speculates(self.strategy, self.max_speculative_heads):
            return speculative_step(
                self.model,
                cache,
                lanes,
                strategy=self.strategy,
                acceptance=self.acceptance,
                num_candidates=self.num_candidates,
                max_heads=self.max_speculative_heads,
                frag_id=self.frag_id,
                eos_id=self.eos_id,
                max_seq_len=max_seq_len,
                clock=clock,
            )
        return ntp_step(self.model, cache, lanes, eos_id=self.eos_id, max_seq_len=max_seq_len, clock=clock)

    def finish(self, lane: "RequestState", clock: Callable[[], float]) -> DecodeResult:
        """Freeze ``lane`` into its :class:`DecodeResult`.

        Commits the grammar closure unless the lane was cancelled (a
        cancelled lane keeps its partial output untouched), stamps
        ``finished_at``, decodes the text, and drops the held logits so a
        retained lane does not pin vocab-width arrays.
        """
        from repro.serving.request import RequestStatus  # serving imports this module

        if lane.status is not RequestStatus.CANCELLED:
            commit_grammar_closure(lane, self.tokenizer, clock())
        lane.finished_at = clock()
        text = self.tokenizer.decode(lane.output_ids, keep_frag=True)
        code = self.tokenizer.decode(lane.output_ids, keep_frag=False)
        lane.last_base = None
        lane.last_heads = []
        return lane.to_result(text, code)

    def generate(self, prompt_ids: Sequence[int], config: Optional[GenerationConfig] = None) -> DecodeResult:
        """Generate a completion for ``prompt_ids``: :meth:`generate_many` with one lane.

        Args:
            prompt_ids: Tokenized prompt (BOS included).
            config: Decoding configuration; defaults to greedy with the
                standard token budget.

        Returns:
            A :class:`DecodeResult` with the committed tokens, decoded text,
            per-step records and timing (prefill separated from decode).
        """
        return self.generate_many(prompt_ids, [config or GenerationConfig.greedy_config()])[0]

    def generate_many(self, prompt_ids: Sequence[int], configs: Sequence[GenerationConfig]) -> List[DecodeResult]:
        """Decode one prompt under several configs as one batch of lanes over one row cache.

        Each config gets its own lane with its own seeded generator and
        grammar mask, so lane ``i`` commits exactly what :meth:`generate`
        commits for ``configs[i]`` alone.  The prompt is prefilled once (the
        encoder, for encoder-decoder backbones, runs once too); its cache row
        is tiled to every lane that still has work, and each step verifies
        every running lane in one forward until all retire.

        Returns:
            One :class:`DecodeResult` per config, in order (``[]`` for no
            configs).  Every lane reports the one shared prefill as its
            ``prefill_seconds`` and the batch's wall time as its own.
        """
        from repro.serving.request import GenerationRequest, RequestState  # serving imports this module

        clock = time.perf_counter
        max_seq_len = self.model.backbone.max_seq_len
        # A lane's context is what occupies decoder positions: the prompt,
        # or BOS alone when an encoder holds the prompt.
        context = [self.bos_id] if self.model.is_encoder_decoder else list(prompt_ids)
        started = clock()
        lanes = [
            RequestState(
                GenerationRequest("sequential", context, config),
                started_at=started,
                rng=np.random.default_rng(config.seed),
                grammar_mask=grammar_mask(config.grammar, self.tokenizer),
            )
            for config in configs
        ]
        # A prompt that already fills the context window (or a zero budget)
        # yields an empty output without a prefill.
        running = [lane for lane in lanes if not lane_done(lane, max_seq_len)]
        if running:
            first = running[0]
            headroom = tree_headroom(self.num_candidates, self.max_speculative_heads)
            cache = self.model.new_cache(capacity=max_seq_len + headroom)
            if self.model.is_encoder_decoder:
                encode_start = clock()
                self.model.encode_prompt(np.asarray(prompt_ids, dtype=np.int64))
                first.prefill_seconds += clock() - encode_start
            self.prefill(first, cache, context, final=True, clock=clock)
            # The prefill's logits are read-only from here on, so every lane
            # can hold the same arrays.
            for lane in running[1:]:
                lane.last_base = first.last_base
                lane.last_heads = first.last_heads
                lane.prefill_seconds = first.prefill_seconds
            if len(running) > 1:
                cache.select_rows([0] * len(running))  # also tiles the cross-attention K/V
            while running:
                running, _ = self.step(cache, running, clock)
        return [self.finish(lane, clock) for lane in lanes]

    def generate_from_text(self, prompt: str, config: Optional[GenerationConfig] = None) -> DecodeResult:
        """Tokenize ``prompt`` (:meth:`BPETokenizer.encode_prompt`) and generate a completion."""
        return self.generate(self.tokenizer.encode_prompt(prompt), config)

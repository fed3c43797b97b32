"""Incremental grammar mask over BPE token ids (``GenerationConfig(grammar=...)``).

:class:`SyntaxMaskState` is the per-request decoding state of grammar
constrained generation: it accumulates the *code text* of the committed
tokens (exactly the ``keep_frag=False`` view the graders see) and answers,
for any candidate token id, whether appending that token keeps the text a
viable Verilog prefix (:mod:`repro.constrained.viability`).

Design points that keep it cheap and identity-preserving:

* **token pieces** — the mask reads the tokenizer's own code piece table
  (:meth:`~repro.tokenizer.bpe.BPETokenizer.piece_table` with
  ``keep_frag=False``, built once per vocabulary): each id's contribution to
  ``decode(ids, keep_frag=False)``, so the text the mask constrains is by
  construction the text the graders see.  Empty-piece structural tokens
  can never change the text, so ``[FRAG]`` is always allowed —
  fragment-integrity truncation keeps working under the grammar unchanged —
  while pad/bos/ignore/unk are never sensible mid-decode and are masked out;
* **EOS gating** — ``[EOS]`` is allowed exactly when the accumulated text is
  already a complete source (>= 1 module), so a finished design can stop but
  an open module cannot;
* **snapshot / restore** — the state is an append-only stack of cumulative
  texts, so speculative tree branches cost one integer snapshot and one list
  truncation to roll back (no re-lexing);
* **laziness** — callers probe ``allows(token_id)`` in model-preference order
  (argmax first); when the mask is inert the first probe hits and the decode
  path is byte-identical to unconstrained generation.  ``allowed_token_ids``
  materialises the full mask only where a caller really needs it.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.constrained.viability import (
    PrefixVerdict,
    classify_prefix,
    completion_suffix,
)
from repro.models.generation import GenerationConfig, sample_from_logits, sampling_probabilities

#: Grammars :func:`grammar_mask` knows how to build.  The only entry today is
#: the in-repo Verilog grammar; the registry exists so ``GenerationConfig``
#: can carry a plain string and reject typos at mask-construction time.
SUPPORTED_GRAMMARS = ("verilog",)

class SyntaxMaskState:
    """Incremental syntax mask: committed text plus per-token viability tests.

    Args:
        pieces: per-id code text contribution (the tokenizer's
            ``piece_table(keep_frag=False)``).
        eos_id: end-of-sequence id; allowed only on a complete source.
        blocked_ids: ids never allowed under the grammar (pad/bos/unk/ignore —
            they decode to nothing useful mid-generation).
        text: initial committed text (defaults to empty: generated code is
            graded standalone, independent of the prompt).
    """

    def __init__(
        self,
        pieces: Sequence[str],
        eos_id: int,
        blocked_ids: Sequence[int] = (),
        text: str = "",
    ) -> None:
        self._pieces = pieces
        self._eos_id = int(eos_id)
        self._blocked = frozenset(int(i) for i in blocked_ids)
        #: Cumulative text after each committed token; ``_stack[-1]`` is the
        #: current text.  Append-only, so a snapshot is just a length.
        self._stack: List[str] = [text]

    # -- committed text ---------------------------------------------------- #

    @property
    def text(self) -> str:
        """The committed code text the mask is constraining."""
        return self._stack[-1]

    @property
    def eos_id(self) -> int:
        return self._eos_id

    def is_complete(self) -> bool:
        """True when the committed text already parses with >= 1 module."""
        return classify_prefix(self.text) is PrefixVerdict.COMPLETE

    # -- per-token tests --------------------------------------------------- #

    def piece(self, token_id: int) -> str:
        return self._pieces[int(token_id)]

    def allows(self, token_id: int) -> bool:
        """True when committing ``token_id`` keeps the text a viable prefix."""
        token_id = int(token_id)
        if token_id == self._eos_id:
            return self.is_complete()
        if token_id in self._blocked:
            return False
        piece = self._pieces[token_id]
        if not piece:
            # Structural tokens ([FRAG]) contribute no text and cannot hurt.
            return True
        return classify_prefix(self.text + piece) is not PrefixVerdict.INVALID

    def allowed_token_ids(self, candidate_ids: Optional[Sequence[int]] = None) -> List[int]:
        """All allowed token ids (or the allowed subset of ``candidate_ids``).

        The full-vocabulary form exists for inspection and tests; the decode
        paths probe :meth:`allows` lazily in model-preference order instead.
        """
        universe = range(len(self._pieces)) if candidate_ids is None else candidate_ids
        return [int(t) for t in universe if self.allows(t)]

    # -- state transitions ------------------------------------------------- #

    def advance(self, token_id: int) -> None:
        """Commit ``token_id``: append its piece to the constrained text."""
        self._stack.append(self.text + self._pieces[int(token_id)])

    def snapshot(self) -> int:
        """Cheap marker of the current state (pass to :meth:`restore`)."""
        return len(self._stack)

    def restore(self, snapshot: int) -> None:
        """Roll the state back to a :meth:`snapshot` (tree-branch rollback)."""
        del self._stack[snapshot:]

    # -- budget-exhaustion closure ----------------------------------------- #

    def completion_text(self) -> Optional[str]:
        """Suffix closing every open construct (None when already complete
        or — pathologically — no closure was found)."""
        if self.is_complete():
            return None
        return completion_suffix(self.text)


def grammar_mask(grammar: Optional[str], tokenizer) -> Optional[SyntaxMaskState]:
    """Build the per-request mask for ``GenerationConfig.grammar``.

    ``None`` (the default) means unconstrained decoding and returns ``None``
    — every call site treats an absent mask as a strict no-op, which is what
    keeps token identity trivially intact for existing configs.
    """
    if grammar is None:
        return None
    if grammar not in SUPPORTED_GRAMMARS:
        raise ValueError(f"unknown grammar {grammar!r} (supported: {SUPPORTED_GRAMMARS})")
    vocab = tokenizer.vocab
    blocked = [vocab.pad_id, vocab.bos_id, vocab.unk_id, vocab.ignore_id]
    return SyntaxMaskState(tokenizer.piece_table(keep_frag=False), eos_id=vocab.eos_id, blocked_ids=blocked)


def masked_argmax(logits: np.ndarray, mask: Optional[SyntaxMaskState]) -> int:
    """Argmax constrained to allowed tokens (identity when the mask is inert).

    Probes tokens in descending logit order, so when the model's own argmax
    is grammar-legal the unconstrained choice is returned after one check.
    """
    first = int(np.argmax(logits))
    if mask is None or mask.allows(first):
        return first
    for token_id in np.argsort(logits)[::-1]:
        token_id = int(token_id)
        if token_id != first and mask.allows(token_id):
            return token_id
    return first


def masked_choice(
    probabilities: np.ndarray,
    generator: np.random.Generator,
    mask: Optional[SyntaxMaskState],
) -> int:
    """Sample from ``probabilities`` restricted to allowed tokens.

    Rejection sampling with removal: draw, and if the token is disallowed,
    zero it out, renormalise and redraw.  This samples exactly the
    conditional distribution over allowed tokens, and — crucially — the
    *first* draw consumes the same generator state as unconstrained
    sampling, so an inert mask changes neither the token nor the rng stream.
    """
    token_id = int(generator.choice(len(probabilities), p=probabilities))
    if mask is None or mask.allows(token_id):
        return token_id
    remaining = probabilities.astype(np.float64, copy=True)
    while True:
        remaining[token_id] = 0.0
        total = remaining.sum()
        if total <= 0.0:
            # Nothing sampleable is allowed; fall back to the best allowed
            # token outright (the zero-probability tail).
            return masked_argmax(probabilities, mask)
        remaining = remaining / total
        token_id = int(generator.choice(len(remaining), p=remaining))
        if mask.allows(token_id):
            return token_id


def masked_sample(
    logits: np.ndarray,
    config: GenerationConfig,
    rng: np.random.Generator,
    mask: Optional[SyntaxMaskState],
) -> int:
    """Drop-in grammar-aware replacement for ``sample_from_logits``.

    With ``mask=None`` this *is* ``sample_from_logits`` (same call, same rng
    consumption).  With a mask, greedy picks :func:`masked_argmax` and
    sampling draws :func:`masked_choice` from the exact distribution
    unconstrained sampling would use — so whenever the mask does not
    intervene, the chosen token and the generator state both match the
    unconstrained decode step for step.
    """
    if mask is None:
        return sample_from_logits(logits, config, rng)
    if config.greedy:
        return masked_argmax(logits, mask)
    return masked_choice(sampling_probabilities(logits, config), rng, mask)


def closure_token_ids(mask: Optional[SyntaxMaskState], tokenizer) -> List[int]:
    """Token ids that complete an unfinished constrained design.

    Invoked when generation stops (budget/context) before the text parses:
    the closure suffix is computed grammar-first (:func:`completion_suffix`),
    re-encoded with the request's tokenizer, and kept only if the decoded
    result really completes the source — BPE round-trips can normalise
    whitespace, so the guarantee is re-checked on the decoded text rather
    than assumed.
    """
    if mask is None:
        return []
    suffix = mask.completion_text()
    if not suffix:
        return []
    ids = tokenizer.encode(suffix, add_bos=False)
    decoded = tokenizer.decode(ids, keep_frag=False)
    if classify_prefix(mask.text + decoded) is not PrefixVerdict.COMPLETE:
        return []
    for token_id in ids:
        mask.advance(token_id)
    return ids


#: Type of the ``allows`` probe call sites may pass around.
AllowsFn = Callable[[int], bool]

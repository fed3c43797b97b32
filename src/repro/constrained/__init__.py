"""Grammar-constrained decoding fused with speculative verification.

The package turns the repo's Verilog front end (:mod:`repro.verilog`) into an
*online* constraint: an incremental :class:`SyntaxMaskState` tracks the code
text committed so far and answers, per BPE token id, whether committing it
keeps the text a viable prefix of some syntactically valid design.  The mask
plugs into both decode paths —

* :mod:`repro.core.decoding` samples proposal tokens through
  :func:`masked_argmax` / :func:`masked_choice`, so every committed token
  preserves viability;
* :func:`repro.core.token_tree.prefilter_candidates` truncates speculative
  candidates at their first violation *before* tree construction, so
  grammar-dead branches never reach the verification forward;

— and is inert by construction when ``GenerationConfig.grammar`` is ``None``
or the model's own choice is already legal (token-identity guarantee).
"""

from repro.constrained.mask import (
    SUPPORTED_GRAMMARS,
    SyntaxMaskState,
    closure_token_ids,
    grammar_mask,
    masked_argmax,
    masked_choice,
    masked_sample,
)
from repro.constrained.viability import (
    PrefixVerdict,
    classify_prefix,
    clear_viability_caches,
    completion_suffix,
    is_complete_source,
    is_viable_prefix,
)
from repro.core.token_tree import prefilter_candidates

__all__ = [
    "PrefixVerdict",
    "SUPPORTED_GRAMMARS",
    "SyntaxMaskState",
    "classify_prefix",
    "clear_viability_caches",
    "closure_token_ids",
    "completion_suffix",
    "grammar_mask",
    "is_complete_source",
    "is_viable_prefix",
    "masked_argmax",
    "masked_choice",
    "masked_sample",
    "prefilter_candidates",
]

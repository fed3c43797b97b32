"""Fragment-integrity check for accepted speculative tokens (paper Sec. III-B).

After the typical-acceptance rule has accepted a run of candidate tokens, the
paper re-evaluates the run and *discards any trailing tokens that break the
integrity of the current code fragment*: if the tokens up to position ``v``
already form a complete fragment (they end at a ``[FRAG]`` boundary), the
outputs of the remaining heads are dropped.

This module is the one definition of that boundary rule.  With ``[FRAG]``
being a single vocabulary token, a run is complete exactly when its last
token is the ``[FRAG]`` marker or EOS (:func:`ends_at_fragment_boundary`).
The integrity check truncates the accepted run back to the last such
boundary — unless the run contains *no* boundary at all, in which case the
first token is kept so that decoding always makes progress (this mirrors the
base model's guaranteed one-token advance in Medusa).
"""

from __future__ import annotations

from typing import List, Optional, Sequence


def truncate_to_complete_fragment(
    accepted_tokens: Sequence[int],
    frag_id: int,
    eos_id: Optional[int] = None,
) -> List[int]:
    """Drop trailing tokens that would leave an incomplete fragment.

    Args:
        accepted_tokens: token ids accepted by the typical-acceptance rule, in
            order (the token at ``t+1`` first).
        frag_id: id of the ``[FRAG]`` fragment-boundary token.
        eos_id: optional end-of-sequence id; an EOS also closes a fragment.

    Returns:
        The (possibly shorter) list of tokens that ends at a fragment boundary,
        or the first token alone when the run contains none, so a non-empty
        run always keeps at least one token.
    """
    tokens = list(accepted_tokens)
    end = len(tokens)
    while end > 1 and not ends_at_fragment_boundary(tokens[:end], frag_id, eos_id):
        end -= 1
    return tokens[:end]


def ends_at_fragment_boundary(tokens: Sequence[int], frag_id: int, eos_id: Optional[int] = None) -> bool:
    """True when the token run is empty or ends with ``[FRAG]`` (or EOS)."""
    if not tokens:
        return True
    last = tokens[-1]
    return last == frag_id or (eos_id is not None and last == eos_id)

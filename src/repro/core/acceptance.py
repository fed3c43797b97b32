"""Typical-acceptance criterion for speculative token verification (eq. 1).

A candidate token proposed by a Medusa head is accepted when its probability
under the *base* model exceeds an entropy-adaptive threshold::

    p_base(x) > min(epsilon, delta * exp(-H(p_base(.))))

where ``H`` is the entropy of the base model's full next-token distribution at
that position.  A token is only accepted if the criterion holds for it *and*
every preceding candidate token (the accepted prefix property).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.nn.functional import entropy, softmax


@dataclass
class TypicalAcceptance:
    """Callable implementation of the typical-acceptance rule.

    Attributes:
        epsilon: the hard probability threshold cap.
        delta: the entropy-scaled threshold coefficient.
    """

    epsilon: float = 0.09
    delta: float = 0.3

    def threshold(self, probabilities: np.ndarray) -> float:
        """The acceptance threshold for one next-token distribution."""
        h = float(entropy(probabilities))
        return min(self.epsilon, self.delta * np.exp(-h))

    def accepts(self, probabilities: np.ndarray, token_id: int) -> bool:
        """Whether ``token_id`` is acceptable under ``probabilities``."""
        return float(probabilities[token_id]) > self.threshold(probabilities)

    def accepted_prefix_length(
        self, logits_per_position: Sequence[np.ndarray], candidate_tokens: Sequence[int]
    ) -> int:
        """Length of the longest accepted prefix of ``candidate_tokens``.

        Args:
            logits_per_position: base-model logits for each candidate position,
                i.e. ``logits_per_position[i]`` is the distribution over the
                token at position ``t+i+1`` given the prefix plus candidates
                ``0..i-1``.
            candidate_tokens: the proposed token ids.

        Returns:
            The number of leading candidates that satisfy the criterion.  The
            prefix property is enforced: the count stops at the first rejection.
        """
        accepted = 0
        for logits, token_id in zip(logits_per_position, candidate_tokens):
            probabilities = softmax(np.asarray(logits, dtype=np.float64))
            if not self.accepts(probabilities, int(token_id)):
                break
            accepted += 1
        return accepted

    def score_rows(self, logits: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Probabilities and acceptance thresholds of every row of ``logits`` at once.

        One float64 softmax and one entropy over a ``(rows, V)`` array — a
        whole token tree's node logits — instead of one per position: token
        ``x`` is acceptable after row ``r`` iff
        ``probabilities[r, x] > thresholds[r]``, the same comparison, on the
        same values, that :meth:`accepts` makes row by row.

        Returns:
            ``(probabilities, thresholds)`` with shapes ``(rows, V)`` and ``(rows,)``.
        """
        probabilities = softmax(np.asarray(logits, dtype=np.float64), axis=-1)
        thresholds = np.minimum(self.epsilon, self.delta * np.exp(-entropy(probabilities, axis=-1)))
        return probabilities, thresholds

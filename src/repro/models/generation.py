"""Sampling utilities shared by the NTP baseline and speculative decoding.

The paper evaluates two decoding regimes per prompt: greedy decoding and
sampling at a fixed temperature.  Both reduce to picking a token from a logits
vector; :func:`sample_from_logits` implements that choice deterministically for
greedy decoding and via the lane's seeded generator for temperature sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.nn.functional import softmax


@dataclass
class GenerationConfig:
    """Configuration of a single generation run.

    Whether a run is greedy or samples is decided by ``temperature`` alone:
    a temperature of zero or below is greedy (:attr:`greedy`), and every
    decode path (the sampler, the grammar mask, tree verification) reads that
    one property.

    ``grammar`` selects grammar-constrained decoding
    (:mod:`repro.constrained`): ``"verilog"`` masks every sampled token so
    the generated code stays a viable Verilog prefix and prunes speculative
    candidates at their first violation before verification.  ``None`` (the
    default) is strictly unconstrained — the decode paths treat an absent
    mask as a no-op, so existing configs keep byte-identical outputs.
    """

    max_new_tokens: int = 192
    temperature: float = 0.0
    #: Sampling seed of the lane's generator.  ``None`` asks the serving
    #: engine to derive a seed from the request id
    #: (:func:`repro.serving.request.derive_request_rng`) so concurrent
    #: requests draw independent streams yet resubmission — e.g. a router
    #: requeue after a worker crash — replays identical tokens.
    seed: Optional[int] = 0
    grammar: Optional[str] = None

    @property
    def greedy(self) -> bool:
        """True when the run takes the argmax instead of sampling."""
        return self.temperature <= 0.0

    @classmethod
    def greedy_config(cls, max_new_tokens: int = 192, grammar: Optional[str] = None) -> "GenerationConfig":
        return cls(max_new_tokens=max_new_tokens, temperature=0.0, grammar=grammar)

    @classmethod
    def sampling_config(
        cls,
        temperature: float = 0.8,
        max_new_tokens: int = 192,
        seed: int = 0,
        grammar: Optional[str] = None,
    ) -> "GenerationConfig":
        return cls(max_new_tokens=max_new_tokens, temperature=temperature, seed=seed, grammar=grammar)


def sample_from_logits(logits: np.ndarray, config: GenerationConfig, rng: np.random.Generator) -> int:
    """Pick a token id from a ``(V,)`` logits vector.

    Greedy configurations return the argmax.  Sampling configurations divide
    the logits by the temperature and draw from the resulting distribution.

    Args:
        logits: ``(V,)`` unnormalised scores.
        config: decoding configuration.
        rng: the lane's generator (``RequestState.rng``), consumed only when
            sampling; its state advances across calls, so successive
            positions draw from one stream.

    Returns:
        The chosen token id.
    """
    if config.greedy:
        return int(np.argmax(logits))
    probabilities = sampling_probabilities(logits, config)
    return int(rng.choice(len(probabilities), p=probabilities))


def sampling_probabilities(logits: np.ndarray, config: GenerationConfig) -> np.ndarray:
    """The temperature sampling distribution of :func:`sample_from_logits`.

    Exposed so grammar-constrained sampling (:func:`repro.constrained.mask
    .masked_choice`) can draw from exactly the distribution unconstrained
    sampling uses — the identity guarantee when the mask never intervenes.
    """
    return softmax(logits / max(config.temperature, 1e-6))


def top_k_token_ids(logits: np.ndarray, k: int) -> np.ndarray:
    """Return the ``k`` most probable token ids, most probable first (none for ``k <= 0``)."""
    k = min(k, logits.shape[-1])
    if k <= 0:
        # argpartition(logits, -k)[-k:] would keep every id at k = 0 ([-0:]) and all but one at k = -1.
        return np.zeros(0, dtype=np.intp)
    indices = np.argpartition(logits, -k)[-k:]
    return indices[np.argsort(logits[indices])[::-1]]

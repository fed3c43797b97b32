"""Sampling utilities shared by the NTP baseline and speculative decoding.

The paper evaluates two decoding regimes per prompt: greedy decoding and
sampling at a fixed temperature.  Both reduce to picking a token from a logits
vector; :func:`sample_from_logits` implements that choice deterministically for
greedy decoding and via a seeded random generator for temperature sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.nn.functional import softmax


@dataclass
class GenerationConfig:
    """Configuration of a single generation run.

    ``grammar`` selects grammar-constrained decoding
    (:mod:`repro.constrained`): ``"verilog"`` masks every sampled token so
    the generated code stays a viable Verilog prefix and prunes speculative
    candidates at their first violation before verification.  ``None`` (the
    default) is strictly unconstrained — the decode paths treat an absent
    mask as a no-op, so existing configs keep byte-identical outputs.
    """

    max_new_tokens: int = 192
    temperature: float = 0.0
    top_k: int = 0
    greedy: bool = True
    #: Sampling seed.  ``None`` asks the serving engine to derive a seed from
    #: the request id (:func:`repro.serving.request.derive_request_rng`) so
    #: concurrent requests draw independent streams yet resubmission — e.g.
    #: a router requeue after a worker crash — replays identical tokens.
    #: Direct ``sample_from_logits`` callers passing ``seed=None`` fall back
    #: to a fresh OS-entropy stream (non-reproducible, like numpy itself).
    seed: Optional[int] = 0
    grammar: Optional[str] = None

    @classmethod
    def greedy_config(cls, max_new_tokens: int = 192, grammar: Optional[str] = None) -> "GenerationConfig":
        return cls(max_new_tokens=max_new_tokens, temperature=0.0, greedy=True, grammar=grammar)

    @classmethod
    def sampling_config(
        cls,
        temperature: float = 0.8,
        max_new_tokens: int = 192,
        seed: int = 0,
        grammar: Optional[str] = None,
    ) -> "GenerationConfig":
        return cls(
            max_new_tokens=max_new_tokens,
            temperature=temperature,
            greedy=False,
            seed=seed,
            grammar=grammar,
        )


#: Fallback generators for ``sample_from_logits(rng=None)``, one per seed
#: (``None`` keys a single shared OS-entropy generator).
#: A fresh ``default_rng(seed)`` per call would hand every position the same
#: generator state, collapsing "temperature sampling" into a deterministic
#: per-logits map; keeping the generator alive across calls restores an
#: actual random stream while staying reproducible per seed.
_FALLBACK_RNGS: Dict[Optional[int], np.random.Generator] = {}


def reset_fallback_rngs() -> None:
    """Drop the per-seed fallback generators (tests use this for isolation)."""
    _FALLBACK_RNGS.clear()


def _fallback_rng(seed: Optional[int]) -> np.random.Generator:
    generator = _FALLBACK_RNGS.get(seed)
    if generator is None:
        generator = _FALLBACK_RNGS[seed] = np.random.default_rng(seed)
    return generator


def sample_from_logits(
    logits: np.ndarray,
    config: GenerationConfig,
    rng: Optional[np.random.Generator] = None,
) -> int:
    """Pick a token id from a ``(V,)`` logits vector.

    Greedy configurations return the argmax.  Sampling configurations divide
    the logits by the temperature, optionally truncate to the top-k most
    probable tokens, and draw from the resulting distribution.

    Args:
        logits: ``(V,)`` unnormalised scores.
        config: decoding configuration; ``top_k`` larger than the vocabulary
            is clamped to ``V`` (i.e. no truncation), matching
            :func:`top_k_token_ids`.
        rng: seeded generator for sampling; defaults to a persistent
            per-``config.seed`` generator whose state advances across calls
            (a fresh generator per call would make every position draw from
            identical state — the decode loops thread their own generator,
            but the fallback must not silently de-randomise direct callers).

    Returns:
        The chosen token id.
    """
    if config.greedy or config.temperature <= 0.0:
        return int(np.argmax(logits))
    probabilities = sampling_probabilities(logits, config)
    generator = rng if rng is not None else _fallback_rng(config.seed)
    return int(generator.choice(len(probabilities), p=probabilities))


def sampling_probabilities(logits: np.ndarray, config: GenerationConfig) -> np.ndarray:
    """The temperature/top-k sampling distribution of :func:`sample_from_logits`.

    Exposed so grammar-constrained sampling (:func:`repro.constrained.mask
    .masked_choice`) can draw from exactly the distribution unconstrained
    sampling uses — the identity guarantee when the mask never intervenes.
    """
    scaled = logits / max(config.temperature, 1e-6)
    if config.top_k and config.top_k > 0:
        top_k = min(config.top_k, scaled.shape[-1])
        if top_k < scaled.shape[-1]:
            top_indices = np.argpartition(scaled, -top_k)[-top_k:]
            mask = np.full_like(scaled, -np.inf)
            mask[top_indices] = scaled[top_indices]
            scaled = mask
    return softmax(scaled)


def top_k_token_ids(logits: np.ndarray, k: int) -> np.ndarray:
    """Return the ``k`` most probable token ids, most probable first (none for ``k <= 0``)."""
    k = min(k, logits.shape[-1])
    if k <= 0:
        # argpartition(logits, -k)[-k:] would keep every id at k = 0 ([-0:]) and all but one at k = -1.
        return np.zeros(0, dtype=np.intp)
    indices = np.argpartition(logits, -k)[-k:]
    return indices[np.argsort(logits[indices])[::-1]]

"""Model layer: the Medusa wrapper over a transformer backbone, and sampling.

:class:`MedusaLM` holds a :class:`~repro.nn.transformer.DecoderOnlyTransformer`
(the CodeLlama substitute) or an
:class:`~repro.nn.transformer.EncoderDecoderTransformer` (the CodeT5p
substitute) as its backbone and attaches the base LM head and the Medusa
heads to its last hidden states.
"""

from repro.models.medusa import MedusaHead, MedusaLM
from repro.models.generation import GenerationConfig, sample_from_logits

__all__ = [
    "MedusaHead",
    "MedusaLM",
    "GenerationConfig",
    "sample_from_logits",
]

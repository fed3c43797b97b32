"""Minimal numpy neural-network substrate.

The paper fine-tunes CodeLlama-7b and CodeT5p-220m on GPUs.  This subpackage
provides the reproduction's scale-reduced substitute: transformer models
implemented directly on numpy with hand-written backpropagation, an AdamW
optimizer and the loss functions the paper's training objective needs
(cross-entropy with an ignore index, entropy for the typical-acceptance rule).

Decoding-time K/V memory: :mod:`repro.nn.kv_pool` (paged, refcounted block
storage with copy-on-write sharing) is the serving engine's one backend;
:mod:`repro.nn.kv_cache` (contiguous per-row buffers) is the sequential
decoder's storage and the tests' bitwise oracle for the pool.  See
``docs/kv-memory.md``.
"""

from repro.nn.functional import (
    softmax,
    log_softmax,
    cross_entropy,
    cross_entropy_grad,
    entropy,
    gelu,
    gelu_grad,
)
from repro.nn.kv_cache import KVCache, LayerKVCache
from repro.nn.kv_pool import KVBlockPool, KVPoolExhausted, PagedKVCache, PagedLayerKV, PagedPrefix
from repro.nn.layers import Parameter, Module, Linear, Embedding, LayerNorm, CausalSelfAttention, FeedForward
from repro.nn.transformer import TransformerBlock, DecoderOnlyTransformer, EncoderDecoderTransformer
from repro.nn.optim import AdamW, WarmupCosineSchedule

__all__ = [
    "softmax",
    "log_softmax",
    "cross_entropy",
    "cross_entropy_grad",
    "entropy",
    "gelu",
    "gelu_grad",
    "Parameter",
    "Module",
    "Linear",
    "Embedding",
    "LayerNorm",
    "CausalSelfAttention",
    "FeedForward",
    "KVBlockPool",
    "KVCache",
    "KVPoolExhausted",
    "LayerKVCache",
    "PagedKVCache",
    "PagedLayerKV",
    "PagedPrefix",
    "TransformerBlock",
    "DecoderOnlyTransformer",
    "EncoderDecoderTransformer",
    "AdamW",
    "WarmupCosineSchedule",
]

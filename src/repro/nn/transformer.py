"""Transformer backbones: decoder-only and encoder-decoder.

These are the scale-reduced substitutes for CodeLlama (decoder-only) and
CodeT5p (encoder-decoder), and each is the backbone a
:class:`~repro.models.medusa.MedusaLM` holds.  Both expose the same interface:

* ``forward(token_ids, cache, attn_bias, position_offsets, last)`` returns the
  final hidden states ``(batch, time, dim)`` (encoder-decoder: after
  ``encode``), or only the trailing ``last`` rows of them;
* ``backward(grad_hidden)`` backpropagates a gradient arriving at those hidden
  states through the whole backbone.

The language-model head(s) live outside the backbone (see
:mod:`repro.models.medusa`) so that the Medusa construction — extra heads
attached to the *last hidden states* — is the same for both architectures,
exactly as in the paper's Fig. 2.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.nn.kv_cache import KVCache
from repro.nn.layers import (
    CausalSelfAttention,
    CrossAttention,
    Embedding,
    FeedForward,
    LayerNorm,
    Module,
)


def _decode_positions(
    cache: Optional[KVCache],
    batch: int,
    time: int,
    max_seq_len: int,
    position_offsets: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Absolute positions ``(batch, time)`` for a (possibly cached) forward.

    Without a cache every row starts at position 0.  With a cache each row
    continues from its own cached prefix length — rows may differ (ragged
    serving batches).  When the cache declares per-row append widths, only
    the first ``widths[r]`` window positions of row ``r`` are real; the
    sequence-length check uses those real extents, and the positions of the
    padded tail slots are clamped into the embedding table's range (their
    outputs are garbage by construction and ignored by the caller).

    ``position_offsets`` overrides the default consecutive layout with
    per-token offsets from each row's start (its cached prefix length, or 0
    without a cache).  Token-tree verification uses this to place every tree
    node at ``prefix + depth`` — siblings share a position, exactly as if
    each root-to-leaf path were its own contiguous row.
    """
    if position_offsets is not None:
        offsets = np.asarray(position_offsets, dtype=np.int64)
        if offsets.shape != (batch, time):
            raise ValueError(f"position_offsets shape {offsets.shape} != (batch, time) = ({batch}, {time})")
        past = cache.lengths[:, None] if cache is not None else np.zeros((batch, 1), dtype=np.int64)
        positions = past + offsets
        widths = cache.append_widths if cache is not None else None
        if widths is None:
            longest = int(positions.max(initial=-1)) + 1
        else:
            longest = max(
                (int(positions[row, : int(width)].max(initial=-1)) + 1 for row, width in enumerate(widths)),
                default=0,
            )
        if longest > max_seq_len:
            raise ValueError(f"sequence length {longest} exceeds max_seq_len {max_seq_len}")
        return np.minimum(positions, max_seq_len - 1)
    if cache is None:
        if time > max_seq_len:
            raise ValueError(f"sequence length {time} exceeds max_seq_len {max_seq_len}")
        return np.broadcast_to(np.arange(time), (batch, time))
    past = cache.lengths
    widths = cache.append_widths
    extents = past + (np.full(batch, time, dtype=np.int64) if widths is None else widths)
    longest = int(extents.max(initial=0))
    if longest > max_seq_len:
        raise ValueError(f"sequence length {longest} exceeds max_seq_len {max_seq_len}")
    positions = past[:, None] + np.arange(time)[None, :]
    return np.minimum(positions, max_seq_len - 1)


def _check_last(last: Optional[int], time: int) -> None:
    """A forward's ``last`` is ``None`` or a row count in ``[0, time]``."""
    if last is not None and not 0 <= last <= time:
        raise ValueError(f"last={last} outside [0, {time}] for a {time}-position forward")


class TransformerBlock(Module):
    """Pre-norm transformer block (self-attention + MLP with residuals)."""

    def __init__(self, dim: int, num_heads: int, rng: np.random.Generator, causal: bool = True, name: str = "block") -> None:
        self.ln1 = LayerNorm(dim, name=f"{name}.ln1")
        self.attn = CausalSelfAttention(dim, num_heads, rng, causal=causal, name=f"{name}.attn")
        self.ln2 = LayerNorm(dim, name=f"{name}.ln2")
        self.mlp = FeedForward(dim, 4 * dim, rng, name=f"{name}.mlp")

    def forward(
        self, x: np.ndarray, layer_cache=None, attn_bias: Optional[np.ndarray] = None, last: Optional[int] = None
    ) -> np.ndarray:
        """``x + attn(ln1(x))``, then ``h + mlp(ln2(h))``.

        Each sublayer returns a fresh array, so the residual is added into it
        (``h += x`` is bitwise ``x + h``); the sublayer inputs the norms stash
        are never written.  ``last`` runs attention's queries, the residuals
        and the MLP on the trailing ``last`` rows only (see
        :meth:`~repro.nn.layers.CausalSelfAttention.forward`); ``last=0``
        stops after the K/V write.
        """
        h = self.attn.forward(self.ln1.forward(x), layer_cache=layer_cache, attn_bias=attn_bias, last=last)
        if last is not None:
            if not last:
                return h
            x = x[:, x.shape[1] - last :]
        h += x
        out = self.mlp.forward(self.ln2.forward(h))
        out += h
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_mlp = self.ln2.backward(self.mlp.backward(grad_output))
        grad_after_attn = grad_output + grad_mlp
        grad_attn = self.ln1.backward(self.attn.backward(grad_after_attn))
        return grad_after_attn + grad_attn


class CrossTransformerBlock(Module):
    """Decoder block with self-attention, cross-attention and MLP."""

    def __init__(self, dim: int, num_heads: int, rng: np.random.Generator, name: str = "xblock") -> None:
        self.ln1 = LayerNorm(dim, name=f"{name}.ln1")
        self.self_attn = CausalSelfAttention(dim, num_heads, rng, causal=True, name=f"{name}.self")
        self.ln2 = LayerNorm(dim, name=f"{name}.ln2")
        self.cross_attn = CrossAttention(dim, num_heads, rng, name=f"{name}.cross")
        self.ln3 = LayerNorm(dim, name=f"{name}.ln3")
        self.mlp = FeedForward(dim, 4 * dim, rng, name=f"{name}.mlp")
        self._memory_grad: Optional[np.ndarray] = None

    def forward(
        self,
        x: np.ndarray,
        memory: Optional[np.ndarray],
        layer_cache=None,
        attn_bias: Optional[np.ndarray] = None,
        last: Optional[int] = None,
    ) -> np.ndarray:
        """Self-attention, cross-attention and MLP, each with a residual added into its fresh output.

        ``last`` slices as in :meth:`TransformerBlock.forward`: cross-attention
        and the MLP see the trailing ``last`` rows only.
        """
        h = self.self_attn.forward(self.ln1.forward(x), layer_cache=layer_cache, attn_bias=attn_bias, last=last)
        if last is not None:
            if not last:
                return h
            x = x[:, x.shape[1] - last :]
        h += x
        g = self.cross_attn.forward(self.ln2.forward(h), memory, layer_cache=layer_cache)
        g += h
        out = self.mlp.forward(self.ln3.forward(g))
        out += g
        return out

    def backward(self, grad_output: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        grad_mlp = self.ln3.backward(self.mlp.backward(grad_output))
        grad_after_cross = grad_output + grad_mlp
        grad_cross_x, grad_memory = self.cross_attn.backward(grad_after_cross)
        grad_cross = self.ln2.backward(grad_cross_x)
        grad_after_self = grad_after_cross + grad_cross
        grad_self = self.ln1.backward(self.self_attn.backward(grad_after_self))
        return grad_after_self + grad_self, grad_memory


class DecoderOnlyTransformer(Module):
    """A GPT-style causal transformer producing last hidden states."""

    def __init__(
        self,
        vocab_size: int,
        dim: int = 64,
        num_layers: int = 2,
        num_heads: int = 4,
        max_seq_len: int = 512,
        seed: int = 0,
    ) -> None:
        rng = np.random.default_rng(seed)
        self.vocab_size = vocab_size
        self.dim = dim
        self.max_seq_len = max_seq_len
        self.token_embedding = Embedding(vocab_size, dim, rng, name="tok_emb")
        self.position_embedding = Embedding(max_seq_len, dim, rng, name="pos_emb")
        self.blocks: List[TransformerBlock] = [
            TransformerBlock(dim, num_heads, rng, causal=True, name=f"block{i}") for i in range(num_layers)
        ]
        self.final_norm = LayerNorm(dim, name="final_ln")

    def forward(
        self,
        token_ids: np.ndarray,
        cache: Optional[KVCache] = None,
        attn_bias: Optional[np.ndarray] = None,
        position_offsets: Optional[np.ndarray] = None,
        last: Optional[int] = None,
    ) -> np.ndarray:
        """Return hidden states of shape ``(batch, time, dim)``, or ``(batch, last, dim)``.

        With ``cache``, ``token_ids`` are treated as the continuation of the
        cached prefix: positions are offset by ``cache.length`` and attention
        runs over cached keys/values plus the new tokens (incremental
        decoding).  ``attn_bias`` replaces the causal mask with an arbitrary
        additive attention mask (see
        :meth:`~repro.nn.layers.CausalSelfAttention.forward`) and
        ``position_offsets`` overrides the consecutive position layout (see
        :func:`_decode_positions`); together they let a token tree be
        verified in one forward.

        ``last`` is the number of trailing positions whose hidden states the
        caller reads (``None``: all).  Every block before the last runs in
        full, since its output feeds the next layer's K/V; the last block
        writes K/V for every position and runs the rest of itself, and the
        final norm, on the trailing ``last`` rows only: the full forward's
        values there, bit for bit when ``last`` keeps BLAS's row grouping
        (:func:`~repro.core.decoding.final_chunk_rows`).  ``last=0`` stops
        after the last layer's K/V write and returns ``(batch, 0, dim)``.
        Inference only: :meth:`backward` follows a full forward.
        """
        if token_ids.ndim == 1:
            token_ids = token_ids[None, :]
        batch, time = token_ids.shape
        _check_last(last, time)
        positions = _decode_positions(cache, batch, time, self.max_seq_len, position_offsets)
        x = self.token_embedding.forward(token_ids) + self.position_embedding.forward(positions)
        layer_caches = cache.layers if cache is not None else [None] * len(self.blocks)
        final = len(self.blocks) - 1
        for index, (block, layer_cache) in enumerate(zip(self.blocks, layer_caches)):
            x = block.forward(x, layer_cache=layer_cache, attn_bias=attn_bias, last=last if index == final else None)
        return x if last == 0 else self.final_norm.forward(x)

    def make_cache(self, batch: int = 1, capacity: Optional[int] = None) -> KVCache:
        """Create an empty KV cache sized for this transformer."""
        attn = self.blocks[0].attn
        return KVCache(
            num_layers=len(self.blocks),
            num_heads=attn.num_heads,
            head_dim=attn.head_dim,
            capacity=capacity or self.max_seq_len,
            batch=batch,
        )

    def make_block_pool(self, block_size: int = 16, num_blocks: int = 256) -> "KVBlockPool":
        """Create a paged K/V block pool matching this transformer's geometry.

        The pool is shared storage only; sequences over it are
        :class:`~repro.nn.kv_pool.PagedKVCache` instances, which this model's
        :meth:`forward` accepts anywhere it accepts a :class:`KVCache` (the
        per-layer views implement the same append/gather contract).  See
        :mod:`repro.nn.kv_pool` and ``docs/kv-memory.md`` for sizing.
        """
        from repro.nn.kv_pool import KVBlockPool

        attn = self.blocks[0].attn
        return KVBlockPool(
            num_layers=len(self.blocks),
            num_heads=attn.num_heads,
            head_dim=attn.head_dim,
            block_size=block_size,
            num_blocks=num_blocks,
        )

    def backward(self, grad_hidden: np.ndarray) -> None:
        grad = self.final_norm.backward(grad_hidden)
        for block in reversed(self.blocks):
            grad = block.backward(grad)
        self.token_embedding.backward(grad)
        self.position_embedding.backward(grad)


class EncoderDecoderTransformer(Module):
    """A T5-style encoder-decoder transformer producing decoder hidden states."""

    def __init__(
        self,
        vocab_size: int,
        dim: int = 64,
        num_encoder_layers: int = 2,
        num_decoder_layers: int = 2,
        num_heads: int = 4,
        max_seq_len: int = 512,
        seed: int = 0,
    ) -> None:
        rng = np.random.default_rng(seed)
        self.vocab_size = vocab_size
        self.dim = dim
        self.max_seq_len = max_seq_len
        self.token_embedding = Embedding(vocab_size, dim, rng, name="tok_emb")
        self.position_embedding = Embedding(max_seq_len, dim, rng, name="pos_emb")
        self.encoder_blocks: List[TransformerBlock] = [
            TransformerBlock(dim, num_heads, rng, causal=False, name=f"enc{i}") for i in range(num_encoder_layers)
        ]
        self.encoder_norm = LayerNorm(dim, name="enc_ln")
        self.decoder_blocks: List[CrossTransformerBlock] = [
            CrossTransformerBlock(dim, num_heads, rng, name=f"dec{i}") for i in range(num_decoder_layers)
        ]
        self.final_norm = LayerNorm(dim, name="dec_ln")
        self._cached_memory: Optional[np.ndarray] = None
        self._encoder_ids: Optional[np.ndarray] = None

    # -- encoder -------------------------------------------------------------

    def encode(self, encoder_ids: np.ndarray) -> np.ndarray:
        """Run the encoder and cache its output for subsequent decode calls."""
        if encoder_ids.ndim == 1:
            encoder_ids = encoder_ids[None, :]
        batch, time = encoder_ids.shape
        positions = np.broadcast_to(np.arange(time), (batch, time))
        x = self.token_embedding.forward(encoder_ids) + self.position_embedding.forward(positions)
        for block in self.encoder_blocks:
            x = block.forward(x)
        memory = self.encoder_norm.forward(x)
        self._cached_memory = memory
        self._encoder_ids = encoder_ids
        return memory

    # -- decoder -------------------------------------------------------------

    def forward(
        self,
        token_ids: np.ndarray,
        cache: Optional[KVCache] = None,
        attn_bias: Optional[np.ndarray] = None,
        position_offsets: Optional[np.ndarray] = None,
        last: Optional[int] = None,
    ) -> np.ndarray:
        """Return decoder hidden states ``(batch, time, dim)``, or ``(batch, last, dim)``.

        Cross-attention reads the encoder memory cached by the most recent
        :meth:`encode` call (the generation loop encodes once and decodes
        incrementally).  With ``cache``, decoder self-attention K/V and the
        per-layer cross-attention projections of the encoder memory are
        cached, and ``token_ids`` are the continuation of the cached prefix.
        ``attn_bias`` / ``position_offsets`` generalise decoder self-attention
        masking and positions exactly as in
        :meth:`DecoderOnlyTransformer.forward` (cross-attention always sees
        the whole encoder memory and is unaffected).  ``last`` slices the
        last decoder block and the final norm as in
        :meth:`DecoderOnlyTransformer.forward`.
        """
        if token_ids.ndim == 1:
            token_ids = token_ids[None, :]
        batch, time = token_ids.shape
        _check_last(last, time)
        memory = self._cached_memory
        cross_ready = cache is not None and all(layer.has_cross for layer in cache.layers)
        if memory is None and not cross_ready:
            raise RuntimeError("encode() must be called before forward()")
        positions = _decode_positions(cache, batch, time, self.max_seq_len, position_offsets)
        x = self.token_embedding.forward(token_ids) + self.position_embedding.forward(positions)
        # The decoder embeddings overwrite the encoder's cached activations in
        # the shared embedding layers, so the backward pass re-encodes; we keep
        # the decoder cache here for the standard joint backward.
        self._decoder_ids = token_ids
        layer_caches = cache.layers if cache is not None else [None] * len(self.decoder_blocks)
        final = len(self.decoder_blocks) - 1
        for index, (block, layer_cache) in enumerate(zip(self.decoder_blocks, layer_caches)):
            x = block.forward(
                x, memory, layer_cache=layer_cache, attn_bias=attn_bias, last=last if index == final else None
            )
        return x if last == 0 else self.final_norm.forward(x)

    def make_cache(self, batch: int = 1, capacity: Optional[int] = None) -> KVCache:
        """Create an empty KV cache sized for this transformer's decoder stack."""
        attn = self.decoder_blocks[0].self_attn
        return KVCache(
            num_layers=len(self.decoder_blocks),
            num_heads=attn.num_heads,
            head_dim=attn.head_dim,
            capacity=capacity or self.max_seq_len,
            batch=batch,
        )

    def backward(self, grad_hidden: np.ndarray) -> None:
        grad = self.final_norm.backward(grad_hidden)
        grad_memory_total = np.zeros_like(self._cached_memory)
        for block in reversed(self.decoder_blocks):
            grad, grad_memory = block.backward(grad)
            grad_memory_total += grad_memory
        # Decoder-side embeddings.
        self.token_embedding._ids = self._decoder_ids
        self.token_embedding.backward(grad)
        batch, time = self._decoder_ids.shape
        self.position_embedding._ids = np.broadcast_to(np.arange(time), (batch, time))
        self.position_embedding.backward(grad)
        # Encoder-side gradient path.
        grad_enc = self.encoder_norm.backward(grad_memory_total)
        for block in reversed(self.encoder_blocks):
            grad_enc = block.backward(grad_enc)
        self.token_embedding._ids = self._encoder_ids
        self.token_embedding.backward(grad_enc)
        enc_batch, enc_time = self._encoder_ids.shape
        self.position_embedding._ids = np.broadcast_to(np.arange(enc_time), (enc_batch, enc_time))
        self.position_embedding.backward(grad_enc)

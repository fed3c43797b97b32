"""Medusa wrapper: a base LM head plus additional decoding heads.

Following MEDUSA (and the paper's Fig. 2), ``MedusaLM`` attaches ``n``
additional decoding heads to the backbone's last hidden states.  At decoding
position ``t`` the base head predicts the token at ``t+1`` while head ``i``
predicts the token at ``t+i+1``.  Each Medusa head is a residual block
(linear + GELU + skip connection) followed by its own vocabulary projection,
matching the original Medusa head construction.

The same wrapper serves three training/decoding regimes:

* **NTP** — ``num_medusa_heads=0``: a plain next-token-prediction model;
* **Medusa** — heads trained with plain shifted labels (Medusa-2 style joint
  fine-tuning);
* **Ours** — heads trained with the syntax-enriched labels from
  :mod:`repro.core.labels`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.nn.kv_cache import KVCache
from repro.nn.layers import Linear, Module
from repro.nn.functional import gelu, gelu_grad
from repro.nn.transformer import DecoderOnlyTransformer, EncoderDecoderTransformer


class MedusaHead(Module):
    """One Medusa decoding head: residual block + vocabulary projection."""

    def __init__(self, dim: int, vocab_size: int, rng: np.random.Generator, index: int) -> None:
        self.res_linear = Linear(dim, dim, rng, name=f"medusa{index}.res")
        self.lm_head = Linear(dim, vocab_size, rng, name=f"medusa{index}.lm")
        self.index = index
        self._pre_activation: Optional[np.ndarray] = None
        self._input: Optional[np.ndarray] = None

    def forward(self, hidden: np.ndarray) -> np.ndarray:
        """Map hidden states ``(B, T, D)`` to logits ``(B, T, V)``."""
        self._input = hidden
        pre = self.res_linear.forward(hidden)
        self._pre_activation = pre
        residual = gelu(pre)
        residual += hidden
        return self.lm_head.forward(residual)

    def backward(self, grad_logits: np.ndarray) -> np.ndarray:
        """Return the gradient with respect to the incoming hidden states."""
        grad_residual = self.lm_head.backward(grad_logits)
        grad_pre = grad_residual * gelu_grad(self._pre_activation)
        grad_hidden = self.res_linear.backward(grad_pre)
        return grad_residual + grad_hidden


class MedusaLM(Module):
    """Transformer backbone + base LM head + ``n`` Medusa heads.

    :meth:`parameters` walks the attributes in assignment order (backbone, base head, heads); the
    optimizer keeps its state in that order.
    """

    def __init__(
        self,
        backbone: Union[DecoderOnlyTransformer, EncoderDecoderTransformer],
        vocab_size: int,
        num_medusa_heads: int = 10,
        seed: int = 0,
        head_lr_scale: float = 4.0,
    ) -> None:
        rng = np.random.default_rng(seed + 1)
        self.backbone = backbone
        self.vocab_size = vocab_size
        self.num_medusa_heads = num_medusa_heads
        self.base_head = Linear(backbone.dim, vocab_size, rng, name="base_head")
        self.medusa_heads: List[MedusaHead] = [
            MedusaHead(backbone.dim, vocab_size, rng, index=i) for i in range(num_medusa_heads)
        ]
        # The paper trains the decoding heads at 4x the base learning rate.
        for head in self.medusa_heads:
            head.set_lr_scale(head_lr_scale)
        self._stack_heads()

    def _stack_heads(self) -> None:
        """Make every head's weights slices of four stacked arrays.

        ``_head_stack`` holds the heads' ``res_linear`` / ``lm_head`` weights
        and biases as ``(H, D, D)``, ``(H, D)``, ``(H, D, V)`` and ``(H, V)``
        arrays, and each head's ``Parameter.data`` becomes a view into them:
        training updates a head in place (the optimizer's ``param.data -=``)
        and :meth:`head_logits_at` reads the update through the stack, so
        there is nothing to invalidate.  Replacing a head's ``data`` array
        instead of writing into it would detach it from the stack.
        """
        per_head = [(h.res_linear.weight, h.res_linear.bias, h.lm_head.weight, h.lm_head.bias) for h in self.medusa_heads]
        self._head_stack = []
        for params in zip(*per_head):
            stacked = np.stack([param.data for param in params])
            for index, param in enumerate(params):
                param.data = stacked[index]
            self._head_stack.append(stacked)

    def __getstate__(self) -> dict:
        # The heads' own parameters carry the weights: pickling the stack as
        # well would store every head twice.
        state = self.__dict__.copy()
        del state["_head_stack"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._stack_heads()

    # -- forward -------------------------------------------------------------

    @property
    def is_encoder_decoder(self) -> bool:
        return isinstance(self.backbone, EncoderDecoderTransformer)

    def _hidden_states(self, input_ids, encoder_ids, cache, attn_bias=None, position_offsets=None, last=None) -> np.ndarray:
        """Backbone hidden states; ``encoder_ids`` runs the encoder first (a decoder-only backbone has none)."""
        if encoder_ids is not None:
            if not self.is_encoder_decoder:
                raise ValueError("encoder_ids given to a decoder-only backbone, which has no encoder")
            self.encode_prompt(encoder_ids)
        return self.backbone.forward(np.asarray(input_ids, dtype=np.int64), cache, attn_bias, position_offsets, last)

    def forward(
        self,
        input_ids: np.ndarray,
        encoder_ids: Optional[np.ndarray] = None,
        cache: Optional[KVCache] = None,
    ) -> Tuple[np.ndarray, List[np.ndarray]]:
        """Compute base-head and Medusa-head logits.

        Args:
            input_ids: ``(T,)`` or ``(B, T)`` decoder-side token ids (for
                decoder-only backbones this is prompt+output concatenated).
            encoder_ids: prompt ids for encoder-decoder backbones (the
                encoder runs first); decoder-only backbones reject them.
            cache: per-layer KV cache; when given, ``input_ids`` extend the
                cached prefix and logits cover only the new positions.

        Returns:
            ``(base_logits, head_logits)`` where ``base_logits`` has shape
            ``(B, T, V)`` and ``head_logits`` is a list of the same shape, one
            per Medusa head.
        """
        hidden = self._hidden_states(input_ids, encoder_ids, cache)
        base_logits = self.base_head.forward(hidden)
        head_logits = [head.forward(hidden) for head in self.medusa_heads]
        return base_logits, head_logits

    def forward_hidden(
        self,
        input_ids: np.ndarray,
        encoder_ids: Optional[np.ndarray] = None,
        cache: Optional[KVCache] = None,
        attn_bias: Optional[np.ndarray] = None,
        position_offsets: Optional[np.ndarray] = None,
        last: Optional[int] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Compute base-head logits and return the hidden states alongside.

        The decoding hot loops need base logits at *every* position (for
        candidate verification) but Medusa-head logits at only *one* position
        per sequence — the last committed token, which is not known until
        after verification.  This entry point skips the head projections
        entirely; callers evaluate :meth:`head_logits_at` on the handful of
        hidden vectors they actually need, which removes the dominant
        per-step cost of running every head over every window position.

        Args:
            input_ids: as for :meth:`forward`.
            encoder_ids: as for :meth:`forward`.
            cache: as for :meth:`forward`.
            attn_bias: optional additive attention mask replacing the causal
                mask (token-tree verification; see
                :meth:`~repro.nn.layers.CausalSelfAttention.forward`).
            position_offsets: optional per-token position offsets from each
                row's start (tree nodes sit at ``prefix + depth``).
            last: how many trailing positions the caller reads (``None``:
                all).  The backbone's last block, its final norm and the
                base head then run on those rows only, and ``last=0`` stops
                after the last layer's K/V write (see
                :meth:`~repro.nn.transformer.DecoderOnlyTransformer.forward`);
                prefill uses it.

        Returns:
            ``(base_logits, hidden)`` with shapes ``(B, T, V)`` and
            ``(B, T, D)`` (``T = last`` when ``last`` is given).
        """
        hidden = self._hidden_states(input_ids, encoder_ids, cache, attn_bias, position_offsets, last)
        return self.base_head.forward(hidden), hidden

    def head_logits_at(self, hidden: np.ndarray) -> List[np.ndarray]:
        """Medusa-head logits for a batch of single hidden vectors.

        Args:
            hidden: ``(N, D)`` hidden states (one per sequence, typically the
                last committed position of each).

        All heads are evaluated as one stacked product: ``(1, N, 1, D) @
        (H, 1, D, D)`` makes every (head, row) pair the same ``(1, D) @ (D, D)``
        product :meth:`MedusaHead.forward` computes on ``hidden[:, None]``, so
        the logits are bitwise those of the per-head forward.  The residual
        is added into the fresh ``gelu`` output, as in that forward.

        Returns:
            One ``(N, V)`` logits array per Medusa head.
        """
        if not self._head_stack:
            return []
        res_weight, res_bias, lm_weight, lm_bias = self._head_stack
        expanded = hidden[None, :, None, :]
        pre = expanded @ res_weight[:, None]
        pre += res_bias[:, None, None]
        residual = gelu(pre)
        residual += expanded
        logits = residual @ lm_weight[:, None]
        logits += lm_bias[:, None, None]
        return list(logits[:, :, 0])

    def new_cache(self, batch: int = 1, capacity: Optional[int] = None) -> KVCache:
        """Create an empty KV cache for incremental decoding with this model.

        ``capacity`` overrides the default (the backbone's context window);
        token-tree verification asks for headroom beyond it because the whole
        candidate tree — all branches — is appended before compaction.
        """
        return self.backbone.make_cache(batch=batch, capacity=capacity)

    def new_block_pool(self, block_size: int = 16, num_blocks: int = 256):
        """Create a paged K/V block pool for serving this model (decoder-only).

        Returns a :class:`~repro.nn.kv_pool.KVBlockPool` matching the
        backbone's layer/head geometry; the serving engine builds
        :class:`~repro.nn.kv_pool.PagedKVCache` sequences over it.  Paged
        serving needs per-block cross-attention memory management that does
        not exist, so encoder-decoder backbones are rejected — the same
        restriction the engine itself enforces.
        """
        if self.is_encoder_decoder:
            raise ValueError(
                "paged KV pools support decoder-only backbones; encoder-decoder "
                "models would need paged cross-attention memories (not implemented)"
            )
        return self.backbone.make_block_pool(block_size=block_size, num_blocks=num_blocks)

    def backward(self, grad_base: np.ndarray, grad_heads: Sequence[np.ndarray]) -> None:
        """Backpropagate per-head logit gradients into the backbone."""
        grad_hidden = self.base_head.backward(grad_base)
        for head, grad in zip(self.medusa_heads, grad_heads):
            grad_hidden = grad_hidden + head.backward(grad)
        self.backbone.backward(grad_hidden)

    # -- convenience ----------------------------------------------------------

    def encode_prompt(self, prompt_ids: np.ndarray) -> None:
        """For encoder-decoder backbones: run and cache the encoder."""
        if self.is_encoder_decoder:
            self.backbone.encode(np.asarray(prompt_ids, dtype=np.int64))

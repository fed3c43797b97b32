"""Core neural-network layers with explicit forward/backward passes.

Every layer follows the same contract:

* ``forward(x)`` computes the output and stashes whatever the backward pass
  needs on the instance;
* ``backward(grad_output)`` returns the gradient with respect to the input and
  accumulates parameter gradients into ``Parameter.grad``;
* ``parameters()`` yields all trainable :class:`Parameter` objects.

Shapes follow the convention ``(batch, time, dim)`` for activations and
``(batch, time)`` for token ids.

Forwards call ufuncs and their ``.reduce`` directly (not NumPy's Python
reduction wrappers) and finish in place the buffers they allocated, in the
out-of-place formulas' operation order: values and backward stashes are
bitwise those formulas'.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from repro.nn.functional import gelu, gelu_grad, softmax_in_place


class Parameter:
    """A trainable tensor with an accumulated gradient."""

    def __init__(self, data: np.ndarray, name: str = "", lr_scale: float = 1.0) -> None:
        self.data = data.astype(np.float32)
        self.grad = np.zeros_like(self.data)
        self.name = name
        #: Per-parameter learning-rate multiplier; the paper trains the Medusa
        #: heads at 4x the base model's learning rate.
        self.lr_scale = lr_scale

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter({self.name}, shape={self.data.shape})"


class Module:
    """Base class providing parameter discovery and training-mode flags."""

    def parameters(self) -> Iterator[Parameter]:
        """Yield every trainable parameter reachable from this module."""
        seen = set()
        for value in self.__dict__.values():
            if isinstance(value, Parameter) and id(value) not in seen:
                seen.add(id(value))
                yield value
            elif isinstance(value, Module):
                for param in value.parameters():
                    if id(param) not in seen:
                        seen.add(id(param))
                        yield param
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        for param in item.parameters():
                            if id(param) not in seen:
                                seen.add(id(param))
                                yield param
                    elif isinstance(item, Parameter) and id(item) not in seen:
                        seen.add(id(item))
                        yield item

    def zero_grad(self) -> None:
        """Clear gradients on every parameter."""
        for param in self.parameters():
            param.zero_grad()

    def num_parameters(self) -> int:
        """Total number of scalar weights."""
        return sum(int(np.prod(p.shape)) for p in self.parameters())

    def set_lr_scale(self, scale: float) -> None:
        """Set the per-parameter learning-rate multiplier on every parameter."""
        for param in self.parameters():
            param.lr_scale = scale


def _init_weight(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    scale = np.sqrt(2.0 / (fan_in + fan_out))
    return rng.normal(0.0, scale, size=(fan_in, fan_out)).astype(np.float32)


class Linear(Module):
    """Affine transformation ``y = x W + b``."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator, bias: bool = True, name: str = "linear") -> None:
        self.weight = Parameter(_init_weight(rng, in_features, out_features), name=f"{name}.weight")
        self.bias = Parameter(np.zeros(out_features, dtype=np.float32), name=f"{name}.bias") if bias else None
        self._input: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._input = x
        out = x @ self.weight.data
        if self.bias is not None:
            out += self.bias.data
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        x = self._input
        flat_x = x.reshape(-1, x.shape[-1])
        flat_grad = grad_output.reshape(-1, grad_output.shape[-1])
        self.weight.grad += flat_x.T @ flat_grad
        if self.bias is not None:
            self.bias.grad += flat_grad.sum(axis=0)
        return grad_output @ self.weight.data.T


class Embedding(Module):
    """Token-id to vector lookup table."""

    def __init__(self, num_embeddings: int, dim: int, rng: np.random.Generator, name: str = "embedding") -> None:
        self.weight = Parameter(rng.normal(0.0, 0.02, size=(num_embeddings, dim)).astype(np.float32), name=f"{name}.weight")
        self._ids: Optional[np.ndarray] = None

    def forward(self, ids: np.ndarray) -> np.ndarray:
        self._ids = ids
        return self.weight.data[ids]

    def backward(self, grad_output: np.ndarray) -> None:
        flat_ids = self._ids.reshape(-1)
        flat_grad = grad_output.reshape(-1, grad_output.shape[-1])
        np.add.at(self.weight.grad, flat_ids, flat_grad)


class LayerNorm(Module):
    """Layer normalisation over the last dimension."""

    def __init__(self, dim: int, name: str = "ln", eps: float = 1e-5) -> None:
        self.gamma = Parameter(np.ones(dim, dtype=np.float32), name=f"{name}.gamma")
        self.beta = Parameter(np.zeros(dim, dtype=np.float32), name=f"{name}.beta")
        self.eps = eps
        self._cache: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Normalise ``x`` over its last axis, then scale by gamma and shift by beta.

        The means are ``ndarray.mean``'s ufunc sequence (``np.add.reduce``,
        then an in-place divide by the count) without its wrapper, and the
        variance is ``np.var``'s minus its second mean.  The centred copy is
        this call's own buffer, so it is normalised in place; it and
        ``inv_std`` are stashed for the backward.
        """
        dim = x.shape[-1]
        mean = np.add.reduce(x, axis=-1, keepdims=True)
        mean /= dim
        normalized = x - mean
        var = np.add.reduce(normalized * normalized, axis=-1, keepdims=True)
        var /= dim
        var += self.eps
        inv_std = np.sqrt(var, out=var)
        np.divide(1.0, inv_std, out=inv_std)
        normalized *= inv_std
        self._cache = (normalized, inv_std, x)
        out = normalized * self.gamma.data
        out += self.beta.data
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        normalized, inv_std, _x = self._cache
        dim = grad_output.shape[-1]
        flat_norm = normalized.reshape(-1, dim)
        flat_grad = grad_output.reshape(-1, dim)
        self.gamma.grad += np.sum(flat_grad * flat_norm, axis=0)
        self.beta.grad += np.sum(flat_grad, axis=0)
        dnorm = grad_output * self.gamma.data
        mean_dnorm = dnorm.mean(axis=-1, keepdims=True)
        mean_dnorm_norm = (dnorm * normalized).mean(axis=-1, keepdims=True)
        return (dnorm - mean_dnorm - normalized * mean_dnorm_norm) * inv_std


def _attention_weights(
    scores: np.ndarray, scale: float, attn_bias: Optional[np.ndarray] = None, mask: Optional[np.ndarray] = None
) -> np.ndarray:
    """Attention weights from raw ``(batch, heads, query, key)`` scores, computed over ``scores``.

    ``scores`` is the array the caller's ``q @ k^T`` just returned, so the one
    score pipeline — divide by ``scale``, add ``attn_bias`` (``(batch, query,
    key)``, broadcast over heads) or write ``-1e9`` where ``mask`` is set,
    then max-subtract / ``exp`` / sum-divide — runs in place on it and no
    second score-sized array is allocated.  The returned weights are that
    buffer.
    """
    scores /= scale
    if attn_bias is not None:
        scores += attn_bias[:, None, :, :]
    elif mask is not None:
        np.copyto(scores, -1e9, where=mask)
    return softmax_in_place(scores, axis=-1)


class CausalSelfAttention(Module):
    """Multi-head scaled dot-product attention with an optional causal mask."""

    def __init__(self, dim: int, num_heads: int, rng: np.random.Generator, causal: bool = True, name: str = "attn") -> None:
        if dim % num_heads != 0:
            raise ValueError("dim must be divisible by num_heads")
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.causal = causal
        # Python-float scale: keeps float32 scores float32 under NumPy 2's
        # promotion rules (an np.float64 scalar would promote the whole
        # attention computation, and everything downstream, to float64).
        self.scale = float(np.sqrt(self.head_dim))
        self.qkv = Linear(dim, 3 * dim, rng, name=f"{name}.qkv")
        self.proj = Linear(dim, dim, rng, name=f"{name}.proj")
        self._cache = None

    def forward(self, x: np.ndarray, layer_cache=None, attn_bias: Optional[np.ndarray] = None) -> np.ndarray:
        """Attend over ``x``; with ``layer_cache`` (a :class:`~repro.nn.kv_cache.LayerKVCache`),
        append the new keys/values and attend over the full cached prefix
        (incremental decoding — no backward pass is recorded in this mode).

        ``attn_bias`` replaces the built-in causal mask with an arbitrary
        additive mask of shape ``(batch, query, key)`` (``0.0`` = may attend,
        ``-1e9`` = masked), broadcast over heads.  The key axis covers the
        full key buffer — cached prefix plus appended window when a cache is
        present, the whole sequence otherwise — so the caller is responsible
        for masking stale/padded key slots too.  This is the hook token-tree
        verification uses to let each tree node attend exactly its ancestor
        chain plus the cached prefix.  The bias is added in place, in the
        scores' dtype (a float64 bias does not upcast the step).

        The causal mask is built only when it masks a key: with a cache,
        when the shortest row's first query (at position ``min(past)``)
        precedes the last key, so a single query over rows of equal length
        (every next-token step) skips it.
        """
        batch, time, dim = x.shape
        qkv = self.qkv.forward(x)
        q, k, v = qkv[..., :dim], qkv[..., dim : 2 * dim], qkv[..., 2 * dim :]

        def split_heads(tensor: np.ndarray) -> np.ndarray:
            return tensor.reshape(batch, time, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

        qh, kh, vh = split_heads(q), split_heads(k), split_heads(v)
        mask = None
        if layer_cache is not None:
            # Per-row pasts: serving batches requests whose cached prefixes
            # have different lengths (ragged rows), so each row masks against
            # its own past.  Both storages rebind ``lengths`` on append, so
            # ``past`` keeps the pre-append values without a copy.
            past = layer_cache.lengths
            kh, vh = layer_cache.append(kh, vh)
            keys = kh.shape[2]
            if attn_bias is None and self.causal and int(np.minimum.reduce(past, initial=keys)) + 1 < keys:
                # Row r's query i sits at absolute position past_r + i and may
                # attend to keys 0..past_r+i.  Keys past a row's own length are
                # stale storage from longer rows; they sit at positions
                # > past_r + i for every valid query, so the same comparison
                # masks them too.
                query_positions = past[:, None] + np.arange(time)[None, :]
                mask = (np.arange(keys)[None, None, :] > query_positions[:, :, None])[:, None, :, :]
        else:
            keys = time
            if attn_bias is None and self.causal:
                # Query i may attend to keys 0..i.
                key_positions = np.arange(time)
                mask = key_positions[None, :] > key_positions[:, None]
        if attn_bias is not None and attn_bias.shape != (batch, time, keys):
            raise ValueError(
                f"attn_bias shape {attn_bias.shape} != (batch, query, key) = ({batch}, {time}, {keys})"
            )
        weights = _attention_weights(qh @ kh.transpose(0, 1, 3, 2), self.scale, attn_bias, mask)
        context = weights @ vh
        merged = context.transpose(0, 2, 1, 3).reshape(batch, time, dim)
        out = self.proj.forward(merged)
        if layer_cache is None:
            self._cache = (qh, kh, vh, weights, batch, time)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        qh, kh, vh, weights, batch, time = self._cache
        grad_merged = self.proj.backward(grad_output)
        grad_context = grad_merged.reshape(batch, time, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

        grad_weights = grad_context @ vh.transpose(0, 1, 3, 2)
        grad_vh = weights.transpose(0, 1, 3, 2) @ grad_context

        # Softmax backward.
        dot = np.sum(grad_weights * weights, axis=-1, keepdims=True)
        grad_scores = weights * (grad_weights - dot)
        grad_scores /= self.scale

        grad_qh = grad_scores @ kh
        grad_kh = grad_scores.transpose(0, 1, 3, 2) @ qh

        def merge_heads(tensor: np.ndarray) -> np.ndarray:
            return tensor.transpose(0, 2, 1, 3).reshape(batch, time, self.dim)

        grad_qkv = np.concatenate([merge_heads(grad_qh), merge_heads(grad_kh), merge_heads(grad_vh)], axis=-1)
        return self.qkv.backward(grad_qkv)


class CrossAttention(Module):
    """Encoder-decoder attention: queries from the decoder, keys/values from the encoder."""

    def __init__(self, dim: int, num_heads: int, rng: np.random.Generator, name: str = "xattn") -> None:
        if dim % num_heads != 0:
            raise ValueError("dim must be divisible by num_heads")
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.scale = float(np.sqrt(self.head_dim))
        self.q_proj = Linear(dim, dim, rng, name=f"{name}.q")
        self.kv_proj = Linear(dim, 2 * dim, rng, name=f"{name}.kv")
        self.out_proj = Linear(dim, dim, rng, name=f"{name}.out")
        self._cache = None

    def forward(self, x: np.ndarray, memory: Optional[np.ndarray], layer_cache=None) -> np.ndarray:
        """Cross-attend ``x`` over ``memory``.

        With ``layer_cache``, the projected encoder keys/values are computed
        once and reused for every subsequent decode step (``memory`` may be
        ``None`` once the cross K/V is cached; no backward pass is recorded in
        this mode).
        """
        batch, time, dim = x.shape
        q = self.q_proj.forward(x)

        def split_heads(tensor: np.ndarray, length: int) -> np.ndarray:
            return tensor.reshape(tensor.shape[0], length, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

        qh = split_heads(q, time)
        if layer_cache is not None and layer_cache.has_cross:
            kh, vh = layer_cache.cross_k, layer_cache.cross_v
            mem_time = kh.shape[2]
        else:
            if memory is None:
                raise ValueError("cross-attention needs `memory` until the cross K/V is cached")
            mem_time = memory.shape[1]
            kv = self.kv_proj.forward(memory)
            k, v = kv[..., :dim], kv[..., dim:]
            kh = split_heads(k, mem_time)
            vh = split_heads(v, mem_time)
            if layer_cache is not None:
                if kh.shape[0] != batch:
                    kh = kh.repeat(batch // kh.shape[0], axis=0)
                    vh = vh.repeat(batch // vh.shape[0], axis=0)
                layer_cache.set_cross(kh, vh)
        weights = _attention_weights(qh @ kh.transpose(0, 1, 3, 2), self.scale)
        context = weights @ vh
        merged = context.transpose(0, 2, 1, 3).reshape(batch, time, dim)
        out = self.out_proj.forward(merged)
        if layer_cache is None:
            self._cache = (qh, kh, vh, weights, batch, time, mem_time)
        return out

    def backward(self, grad_output: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        qh, kh, vh, weights, batch, time, mem_time = self._cache
        grad_merged = self.out_proj.backward(grad_output)
        grad_context = grad_merged.reshape(batch, time, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)
        grad_weights = grad_context @ vh.transpose(0, 1, 3, 2)
        grad_vh = weights.transpose(0, 1, 3, 2) @ grad_context
        dot = np.sum(grad_weights * weights, axis=-1, keepdims=True)
        grad_scores = weights * (grad_weights - dot) / self.scale
        grad_qh = grad_scores @ kh
        grad_kh = grad_scores.transpose(0, 1, 3, 2) @ qh

        def merge(tensor: np.ndarray, length: int) -> np.ndarray:
            return tensor.transpose(0, 2, 1, 3).reshape(batch, length, self.dim)

        grad_x = self.q_proj.backward(merge(grad_qh, time))
        grad_kv = np.concatenate([merge(grad_kh, mem_time), merge(grad_vh, mem_time)], axis=-1)
        grad_memory = self.kv_proj.backward(grad_kv)
        return grad_x, grad_memory


class FeedForward(Module):
    """Position-wise MLP with GELU activation."""

    def __init__(self, dim: int, hidden_dim: int, rng: np.random.Generator, name: str = "mlp") -> None:
        self.fc1 = Linear(dim, hidden_dim, rng, name=f"{name}.fc1")
        self.fc2 = Linear(hidden_dim, dim, rng, name=f"{name}.fc2")
        self._pre_activation: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        hidden = self.fc1.forward(x)
        self._pre_activation = hidden
        return self.fc2.forward(gelu(hidden))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_hidden = self.fc2.backward(grad_output)
        grad_pre = grad_hidden * gelu_grad(self._pre_activation)
        return self.fc1.backward(grad_pre)

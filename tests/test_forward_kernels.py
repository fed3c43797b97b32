"""The cached forward's cheaper kernels are bitwise the formulas they replaced.

``LayerNorm.forward`` no longer asks ``np.var`` to recompute the mean,
``CausalSelfAttention.forward`` slices q/k/v instead of ``np.split`` and runs
its score scaling, bias add and softmax in place, and ``Linear.forward`` adds
its bias in place.  None of that may move a float: this file keeps a literal
copy of the replaced out-of-place formulas and compares with
``np.array_equal`` — the golden tokens and the benchmark's ``outputs_sha256``
rest on it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.functional import softmax
from repro.nn.kv_cache import LayerKVCache
from repro.nn.layers import CausalSelfAttention, LayerNorm, Linear


def reference_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - np.max(x, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def reference_linear(layer: Linear, x: np.ndarray) -> np.ndarray:
    return x @ layer.weight.data + layer.bias.data


def reference_cached_attention(attn: CausalSelfAttention, x, layer_cache, attn_bias=None) -> np.ndarray:
    """The cached branch of ``CausalSelfAttention.forward`` as it read before the in-place rewrite."""
    batch, time, dim = x.shape
    q, k, v = np.split(reference_linear(attn.qkv, x), 3, axis=-1)

    def split_heads(tensor):
        return tensor.reshape(batch, time, attn.num_heads, attn.head_dim).transpose(0, 2, 1, 3)

    qh, kh, vh = split_heads(q), split_heads(k), split_heads(v)
    past_rows = layer_cache.lengths.copy()
    kh, vh = layer_cache.append(kh, vh)
    scores = qh @ kh.transpose(0, 1, 3, 2) / attn.scale
    if attn_bias is not None:
        scores = scores + attn_bias[:, None, :, :]
    else:
        key_positions = np.arange(kh.shape[2])
        query_positions = past_rows[:, None] + np.arange(time)[None, :]
        mask = key_positions[None, None, :] > query_positions[:, :, None]
        np.copyto(scores, -1e9, where=mask[:, None, :, :])
    context = reference_softmax(scores, axis=-1) @ vh
    return reference_linear(attn.proj, context.transpose(0, 2, 1, 3).reshape(batch, time, dim))


@pytest.mark.parametrize("shape", [(1, 1, 48), (3, 27, 48), (8, 64, 48), (2, 5, 32)])
def test_layernorm_equals_the_mean_var_formula(shape):
    rng = np.random.default_rng(sum(shape))
    x = (rng.normal(size=shape) * rng.uniform(0.1, 30.0)).astype(np.float32)
    norm = LayerNorm(shape[-1])
    norm.gamma.data = rng.normal(size=shape[-1]).astype(np.float32)
    norm.beta.data = rng.normal(size=shape[-1]).astype(np.float32)
    expected = (x - x.mean(-1, keepdims=True)) * (1.0 / np.sqrt(x.var(-1, keepdims=True) + norm.eps))
    expected = expected * norm.gamma.data + norm.beta.data
    out = norm.forward(x)
    assert out.dtype == np.float32
    assert np.array_equal(out, expected)


@pytest.mark.parametrize("shape", [(1, 1, 7), (4, 4, 9, 33), (2, 3, 1)])
def test_softmax_equals_the_out_of_place_formula_and_leaves_its_input_alone(shape):
    x = (np.random.default_rng(len(shape)).normal(size=shape) * 8.0).astype(np.float32)
    x[..., 0] = -1e9  # a masked score
    before = x.copy()
    assert np.array_equal(softmax(x, axis=-1), reference_softmax(x, axis=-1))
    assert np.array_equal(x, before)


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int64, np.float16, np.float64])
def test_softmax_keeps_the_dtype_the_out_of_place_formula_gave(dtype):
    x = (np.arange(24).reshape(2, 3, 4) % 5).astype(dtype)
    got, want = softmax(x, axis=-1), reference_softmax(x, axis=-1)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_linear_adds_its_bias_in_place_without_moving_a_float():
    rng = np.random.default_rng(0)
    layer = Linear(48, 144, rng)
    layer.bias.data = rng.normal(size=144).astype(np.float32)
    x = rng.normal(size=(3, 5, 48)).astype(np.float32)
    assert np.array_equal(layer.forward(x), reference_linear(layer, x))


def test_sliced_qkv_are_the_views_np_split_returns():
    rng = np.random.default_rng(1)
    attn = CausalSelfAttention(48, 4, rng)
    x = rng.normal(size=(2, 6, 48)).astype(np.float32)
    qkv = attn.qkv.forward(x)
    dim = attn.dim
    for ours, theirs in zip((qkv[..., :dim], qkv[..., dim : 2 * dim], qkv[..., 2 * dim :]), np.split(qkv, 3, axis=-1)):
        assert ours.shape == theirs.shape and ours.strides == theirs.strides
        assert np.shares_memory(ours, theirs) and np.array_equal(ours, theirs)


@pytest.mark.parametrize("use_bias", [False, True], ids=["causal", "attn_bias"])
def test_cached_attention_equals_the_out_of_place_formulas(use_bias):
    """Three ragged incremental forwards over two identical row caches: ours vs the literal copy."""
    rng = np.random.default_rng(2)
    dim, heads, batch = 48, 4, 3
    attn = CausalSelfAttention(dim, heads, rng)
    attn.qkv.bias.data = rng.normal(size=3 * dim).astype(np.float32)
    attn.proj.bias.data = rng.normal(size=dim).astype(np.float32)
    ours_cache = LayerKVCache(batch, heads, 64, dim // heads)
    reference_cache = LayerKVCache(batch, heads, 64, dim // heads)
    for time, widths in ((9, None), (5, [5, 2, 0]), (1, None)):
        x = rng.normal(size=(batch, time, dim)).astype(np.float32)
        ours_cache.append_widths = reference_cache.append_widths = None if widths is None else np.asarray(widths)
        real = np.full(batch, time) if widths is None else np.asarray(widths)
        bias = None
        if use_bias:
            # Key axis = longest row after the append; mask each row's stale tail and a random third of the rest.
            keys = int((ours_cache.lengths + real).max())
            bias = np.where(rng.random((batch, time, keys)) < 0.3, -1e9, 0.0).astype(np.float32)
            stale = np.arange(keys)[None, None, :] >= (ours_cache.lengths + real)[:, None, None]
            bias[np.broadcast_to(stale, bias.shape)] = -1e9
            bias[:, :, 0] = 0.0  # every query keeps one key
        out = attn.forward(x, layer_cache=ours_cache, attn_bias=bias)
        expected = reference_cached_attention(attn, x, reference_cache, attn_bias=bias)
        assert out.dtype == np.float32
        assert np.array_equal(out, expected)
        assert np.array_equal(ours_cache.lengths, reference_cache.lengths)

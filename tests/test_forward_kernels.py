"""The forward's cheaper kernels are bitwise the formulas they replaced.

``LayerNorm.forward`` runs ``ndarray.mean``'s ufunc sequence without its
wrapper and normalises its own centred copy in place; attention slices q/k/v
instead of ``np.split``, runs its score scaling, bias add or causal mask and
softmax in place on the score buffer its matmul returned, and skips the
causal mask when it masks nothing; ``gelu`` and ``entropy`` build their terms
in one temporary; ``Linear.forward`` and the blocks' residuals add in place
into fresh outputs.  None of that may move a float: this file keeps a literal
copy of the replaced out-of-place formulas and compares with
``np.array_equal`` — the golden tokens and the benchmark's ``outputs_sha256``
rest on it.  The hot-path guard at the end keeps NumPy's Python reduction
wrappers out of those kernels, and bounds the cached attention's peak memory.
"""

from __future__ import annotations

import copy
import re
import sys
import tracemalloc

import numpy as np
import pytest

from repro.core.acceptance import TypicalAcceptance
from repro.core.decoding import score_tree
from repro.core.token_tree import TokenTree, tree_bias_cached, tree_position_offsets
from repro.models.medusa import MedusaLM
from repro.nn.functional import entropy, gelu, softmax
from repro.nn.kv_cache import KVCache, LayerKVCache
from repro.nn.kv_pool import KVBlockPool, PagedKVCache
from repro.nn.layers import CausalSelfAttention, CrossAttention, LayerNorm, Linear
from repro.nn.transformer import (
    CrossTransformerBlock,
    DecoderOnlyTransformer,
    EncoderDecoderTransformer,
    TransformerBlock,
)

DIM, HEADS = 48, 4


# -- literal out-of-place references ---------------------------------------------


def reference_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - np.max(x, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def reference_gelu(x: np.ndarray) -> np.ndarray:
    cube = x * x * x
    return 0.5 * x * (1.0 + np.tanh(0.7978845608028654 * (x + 0.044715 * cube)))


def reference_entropy(probabilities: np.ndarray, axis: int = -1, eps: float = 1e-12) -> np.ndarray:
    clipped = np.clip(probabilities, eps, 1.0)
    return -np.sum(probabilities * np.log(clipped), axis=axis)


def reference_linear(layer: Linear, x: np.ndarray) -> np.ndarray:
    return x @ layer.weight.data + layer.bias.data


def reference_layernorm(norm: LayerNorm, x: np.ndarray):
    """``(out, normalized, inv_std)``: the output and the two arrays the backward reads."""
    centered = x - x.mean(axis=-1, keepdims=True)
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + norm.eps)
    normalized = centered * inv_std
    return normalized * norm.gamma.data + norm.beta.data, normalized, inv_std


def reference_mlp(mlp, x: np.ndarray) -> np.ndarray:
    return reference_linear(mlp.fc2, reference_gelu(reference_linear(mlp.fc1, x)))


def _split_heads(tensor: np.ndarray, heads: int) -> np.ndarray:
    batch, time, dim = tensor.shape
    return tensor.reshape(batch, time, heads, dim // heads).transpose(0, 2, 1, 3)


def _merge_heads(tensor: np.ndarray) -> np.ndarray:
    batch, heads, time, head_dim = tensor.shape
    return tensor.transpose(0, 2, 1, 3).reshape(batch, time, heads * head_dim)


def reference_attention(attn: CausalSelfAttention, x, attn_bias=None):
    """The uncached (training) branch as it read before the in-place rewrite: ``(out, stash, merged)``."""
    batch, time, _ = x.shape
    q, k, v = np.split(reference_linear(attn.qkv, x), 3, axis=-1)
    qh, kh, vh = (_split_heads(t, attn.num_heads) for t in (q, k, v))
    scores = qh @ kh.transpose(0, 1, 3, 2) / attn.scale
    if attn_bias is not None:
        scores = scores + attn_bias[:, None, :, :]
    elif attn.causal:
        key_positions = np.arange(time)
        mask = key_positions[None, :] > key_positions[:, None]
        np.copyto(scores, -1e9, where=np.broadcast_to(mask, scores.shape))
    weights = reference_softmax(scores, axis=-1)
    merged = _merge_heads(weights @ vh)
    return reference_linear(attn.proj, merged), (qh, kh, vh, weights, batch, time), merged


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


def reference_cross_attention(xattn: CrossAttention, x, memory=None, cross=None):
    """Cross-attention out of place: over ``memory``, or over cached ``cross = (kh, vh)``.

    Returns ``(out, (kh, vh))``; ``kh``/``vh`` are repeated to ``x``'s batch as the cache stores them.
    """
    q = reference_linear(xattn.q_proj, x)
    qh = _split_heads(q, xattn.num_heads)
    if cross is None:
        k, v = np.split(reference_linear(xattn.kv_proj, memory), 2, axis=-1)
        kh, vh = _split_heads(k, xattn.num_heads), _split_heads(v, xattn.num_heads)
        if kh.shape[0] != x.shape[0]:
            kh = np.repeat(kh, x.shape[0] // kh.shape[0], axis=0)
            vh = np.repeat(vh, x.shape[0] // vh.shape[0], axis=0)
    else:
        kh, vh = cross
    scores = qh @ kh.transpose(0, 1, 3, 2) / xattn.scale
    weights = reference_softmax(scores, axis=-1)
    return reference_linear(xattn.out_proj, _merge_heads(weights @ vh)), (kh, vh)


def _randomise(module, rng) -> None:
    """Non-trivial biases / norm affines, so an in-place add into the wrong buffer shows."""
    for param in module.parameters():
        if param.name.endswith((".bias", ".beta", ".gamma")):
            param.data[...] = rng.normal(size=param.data.shape).astype(np.float32)


# -- kernels ----------------------------------------------------------------------


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
    # The backward's stash holds the values of the out-of-place formula.
    _, normalized, inv_std = reference_layernorm(norm, x)
    assert np.array_equal(norm._cache[0], normalized) and np.array_equal(norm._cache[1], inv_std)
    assert norm._cache[2] is x


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


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_equals_the_out_of_place_formula_and_leaves_its_input_alone(dtype):
    x = (np.random.default_rng(3).normal(size=(3, 7, 192)) * 4.0).astype(dtype)
    x[0, 0, :4] = [0.0, -0.0, 60.0, -60.0]
    before = x.copy()
    got = gelu(x)
    assert got.dtype == dtype
    assert np.array_equal(got, reference_gelu(x))
    assert np.array_equal(x, before)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(11,), (5, 450), (2, 3, 17)])
def test_entropy_equals_the_out_of_place_formula_and_leaves_its_input_alone(shape, dtype):
    rng = np.random.default_rng(len(shape))
    probabilities = softmax((rng.normal(size=shape) * 6.0).astype(dtype), axis=-1)
    probabilities[..., 0] = 0.0  # below eps: the lower clip bound
    probabilities[..., -1] = 1.0  # the upper bound
    before = probabilities.copy()
    for axis in (-1, 0):
        got, want = entropy(probabilities, axis=axis), reference_entropy(probabilities, axis=axis)
        assert np.asarray(got).dtype == np.asarray(want).dtype
        assert np.array_equal(got, want)
    assert np.array_equal(probabilities, before)


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


# -- attention --------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["causal", "attn_bias", "bidirectional"])
def test_uncached_attention_forward_backward_and_stash_equal_the_out_of_place_formulas(kind):
    """Training mode: the output, the backward's stash (weights included) and every gradient."""
    rng = np.random.default_rng(4)
    batch, time = 3, 11
    ours = CausalSelfAttention(DIM, HEADS, rng, causal=kind != "bidirectional")
    _randomise(ours, rng)
    theirs = copy.deepcopy(ours)
    x = rng.normal(size=(batch, time, DIM)).astype(np.float32)
    bias = None
    if kind == "attn_bias":
        bias = np.where(rng.random((batch, time, time)) < 0.4, -1e9, 0.0).astype(np.float32)
        bias[:, :, 0] = 0.0
    out = ours.forward(x, attn_bias=bias)
    expected, stash, merged = reference_attention(theirs, x, attn_bias=bias)
    assert out.dtype == np.float32 and np.array_equal(out, expected)
    for got, want in zip(ours._cache, stash):
        assert np.array_equal(got, want)

    theirs._cache = stash
    theirs.qkv._input, theirs.proj._input = x, merged
    grad = rng.normal(size=out.shape).astype(np.float32)
    assert np.array_equal(ours.backward(grad), theirs.backward(grad))
    for got, want in zip(ours.parameters(), theirs.parameters()):
        assert np.array_equal(got.grad, want.grad), got.name


def _cache(storage: str, batch: int):
    if storage == "row":
        return KVCache(num_layers=1, num_heads=HEADS, head_dim=DIM // HEADS, capacity=64, batch=batch)
    return PagedKVCache(KVBlockPool(1, HEADS, DIM // HEADS, block_size=4, num_blocks=64), batch=batch)


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


# (time, append widths) per forward.  "one_query_ragged" leaves stale keys of the
# shorter rows in the view of a single query: the edge of the mask skip, which must
# still mask them.  "one_query_equal" is every next-token step: no key is masked and
# the mask is skipped.
_SCHEDULES = {
    "one_query_ragged": ((9, [9, 4, 1]), (1, None), (1, None)),
    "one_query_equal": ((6, None), (1, None), (1, None)),
    "window_then_query": ((7, [7, 3, 5]), (4, [4, 0, 2]), (1, None)),
}


@pytest.mark.parametrize("schedule", sorted(_SCHEDULES))
@pytest.mark.parametrize("storage", ["row", "paged"])
def test_cached_attention_over_both_storages_equals_the_out_of_place_formulas(storage, schedule):
    rng = np.random.default_rng(5)
    batch = 3
    attn = CausalSelfAttention(DIM, HEADS, rng)
    _randomise(attn, rng)
    ours_cache, reference_cache = _cache(storage, batch), _cache(storage, batch)
    for time, widths in _SCHEDULES[schedule]:
        x = rng.normal(size=(batch, time, DIM)).astype(np.float32)
        for cache in (ours_cache, reference_cache):
            cache.set_append_widths(widths)
        out = attn.forward(x, layer_cache=ours_cache.layers[0])
        expected = reference_cached_attention(attn, x, reference_cache.layers[0])
        assert out.dtype == np.float32
        assert np.array_equal(out, expected)
        assert np.array_equal(ours_cache.lengths, reference_cache.lengths)


@pytest.mark.parametrize("storage", ["row", "paged"])
def test_append_rebinds_lengths_so_the_forward_reads_the_past_without_a_copy(storage):
    """Attention reads ``lengths`` before the append and uses it after: the append must not write into it."""
    cache = _cache(storage, 2)
    layer = cache.layers[0]
    k = np.ones((2, HEADS, 3, DIM // HEADS), dtype=np.float32)
    layer.append(k, k)
    past = layer.lengths
    snapshot = past.copy()
    layer.append(k[:, :, :1], k[:, :, :1])
    assert layer.lengths is not past
    assert np.array_equal(past, snapshot)
    assert np.array_equal(layer.lengths, snapshot + 1)


@pytest.mark.parametrize("memory_batch", [3, 1])
def test_cached_cross_attention_equals_the_out_of_place_formulas(memory_batch):
    """The first cached call projects (and tiles) the encoder memory; later calls read the cached K/V."""
    rng = np.random.default_rng(6)
    batch = 3
    xattn = CrossAttention(DIM, HEADS, rng)
    _randomise(xattn, rng)
    memory = rng.normal(size=(memory_batch, 8, DIM)).astype(np.float32)
    layer_cache = LayerKVCache(batch, HEADS, 16, DIM // HEADS)
    cross = None
    for step, time in enumerate((5, 1, 1)):
        x = rng.normal(size=(batch, time, DIM)).astype(np.float32)
        out = xattn.forward(x, memory if step == 0 else None, layer_cache=layer_cache)
        expected, cross = reference_cross_attention(xattn, x, memory=memory, cross=cross)
        assert out.dtype == np.float32 and np.array_equal(out, expected)
        assert np.array_equal(layer_cache.cross_k, cross[0]) and np.array_equal(layer_cache.cross_v, cross[1])


# -- blocks -----------------------------------------------------------------------


def reference_block(block: TransformerBlock, x, layer_cache=None):
    ln1, _, _ = reference_layernorm(block.ln1, x)
    if layer_cache is None:
        attended, _, _ = reference_attention(block.attn, ln1)
    else:
        attended = reference_cached_attention(block.attn, ln1, layer_cache)
    x = x + attended
    ln2, _, _ = reference_layernorm(block.ln2, x)
    return x + reference_mlp(block.mlp, ln2)


def reference_cross_block(block: CrossTransformerBlock, x, memory, layer_cache=None, cross=None):
    """``(out, cross)``: out of place, with the cross K/V the cache holds afterwards."""
    ln1, _, _ = reference_layernorm(block.ln1, x)
    if layer_cache is None:
        attended, _, _ = reference_attention(block.self_attn, ln1)
    else:
        attended = reference_cached_attention(block.self_attn, ln1, layer_cache)
    x = x + attended
    ln2, _, _ = reference_layernorm(block.ln2, x)
    crossed, cross = reference_cross_attention(block.cross_attn, ln2, memory=memory, cross=cross)
    x = x + crossed
    ln3, _, _ = reference_layernorm(block.ln3, x)
    return x + reference_mlp(block.mlp, ln3), cross


@pytest.mark.parametrize("causal", [True, False], ids=["decoder", "encoder"])
def test_transformer_block_equals_the_out_of_place_formulas(causal):
    rng = np.random.default_rng(7)
    block = TransformerBlock(DIM, HEADS, rng, causal=causal)
    _randomise(block, rng)
    x = rng.normal(size=(2, 9, DIM)).astype(np.float32)
    before = x.copy()
    out = block.forward(x)
    assert np.array_equal(out, reference_block(block, x))
    assert np.array_equal(x, before)
    assert block.ln1._cache[2] is x  # the norms' stashed inputs are never written
    if causal:
        ours_cache, reference_cache = _cache("row", 2), _cache("row", 2)
        for time in (6, 1, 1):
            x = rng.normal(size=(2, time, DIM)).astype(np.float32)
            out = block.forward(x, layer_cache=ours_cache.layers[0])
            assert np.array_equal(out, reference_block(block, x, layer_cache=reference_cache.layers[0]))


def test_cross_transformer_block_equals_the_out_of_place_formulas():
    rng = np.random.default_rng(8)
    block = CrossTransformerBlock(DIM, HEADS, rng)
    _randomise(block, rng)
    memory = rng.normal(size=(2, 7, DIM)).astype(np.float32)
    x = rng.normal(size=(2, 9, DIM)).astype(np.float32)
    before = x.copy()
    expected, _ = reference_cross_block(block, x, memory)
    assert np.array_equal(block.forward(x, memory), expected)
    assert np.array_equal(x, before)
    ours_cache, reference_cache = _cache("row", 2), _cache("row", 2)
    cross = None
    for step, time in enumerate((6, 1, 1)):
        x = rng.normal(size=(2, time, DIM)).astype(np.float32)
        out = block.forward(x, memory if step == 0 else None, layer_cache=ours_cache.layers[0])
        expected, cross = reference_cross_block(block, x, memory, layer_cache=reference_cache.layers[0], cross=cross)
        assert np.array_equal(out, expected)


# -- hot-path guard ---------------------------------------------------------------

# NumPy's Python-level wrappers around ufunc reductions (``ndarray.mean`` ->
# ``_methods._mean``, ``np.max`` / ``np.sum`` / ``np.clip`` / ``np.repeat`` ->
# ``fromnumeric``), under numpy >= 2 (``numpy/_core``) and 1.x (``numpy/core``).
_NUMPY_WRAPPERS = re.compile(r"numpy[\\/]_?core[\\/](_methods|fromnumeric)\.py$")
_KERNEL_FILES = ("repro/nn/layers.py", "repro/nn/functional.py", "repro/models/medusa.py")


def wrapper_calls(run, callers=_KERNEL_FILES):
    """Every NumPy wrapper frame entered directly from one of ``callers`` while ``run()`` runs."""
    entered = []

    def profile(frame, event, arg):
        if event == "call" and _NUMPY_WRAPPERS.search(frame.f_code.co_filename):
            caller = frame.f_back
            if caller is not None and caller.f_code.co_filename.replace("\\", "/").endswith(callers):
                entered.append(f"{caller.f_code.co_filename}:{caller.f_lineno} -> {frame.f_code.co_name}")

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return entered


def test_the_wrapper_detector_sees_a_wrapper_call():
    x = np.ones((2, 3), dtype=np.float32)
    here = __file__.replace("\\", "/")
    assert wrapper_calls(lambda: x.mean(axis=-1), callers=(here,))
    assert wrapper_calls(lambda: np.max(x, axis=-1), callers=(here,))
    assert not wrapper_calls(lambda: np.maximum.reduce(x, axis=-1), callers=(here,))


def _model(architecture: str) -> MedusaLM:
    if architecture == "decoder-only":
        backbone = DecoderOnlyTransformer(vocab_size=60, dim=DIM, num_layers=2, num_heads=HEADS, max_seq_len=96)
    else:
        backbone = EncoderDecoderTransformer(
            vocab_size=60, dim=DIM, num_encoder_layers=1, num_decoder_layers=2, num_heads=HEADS, max_seq_len=96
        )
    return MedusaLM(backbone, 60, num_medusa_heads=3, seed=0)


@pytest.mark.parametrize("architecture", ["decoder-only", "encoder-decoder"])
def test_the_cached_decode_step_enters_no_numpy_reduction_wrapper(architecture):
    """A tree window with ``attn_bias``, one next-token query, the head evaluation and tree scoring."""
    model = _model(architecture)
    rng = np.random.default_rng(9)
    prompt = rng.integers(0, 60, size=(1, 12))
    tree = TokenTree.from_candidates([[1, 2, 3], [1, 4], [5, 6, 7]])
    cache = model.new_cache(capacity=64)
    model.encode_prompt(prompt[0])
    model.forward_hidden(prompt, cache=cache)
    bias = tree_bias_cached([tree], [12], window=tree.size, view=12 + tree.size)
    offsets = tree_position_offsets([tree], tree.size)
    acceptance = TypicalAcceptance()

    def step():
        node_logits, hidden = model.forward_hidden(
            np.asarray([tree.tokens]), cache=cache, attn_bias=bias, position_offsets=offsets
        )
        score_tree(tree, node_logits[0].astype(np.float64), acceptance, None)
        cache.compact_paths([12], [tree.path(0, 2)])
        _, hidden = model.forward_hidden(np.asarray([[8]]), cache=cache)
        model.head_logits_at(hidden[:, -1])

    assert wrapper_calls(step) == []


@pytest.mark.parametrize("attn_bias", [False, True], ids=["causal", "tree_bias"])
def test_cached_attention_peak_memory_is_one_score_buffer(attn_bias):
    """The score softmax runs in place: no second score-sized array at any point of the call."""
    rng = np.random.default_rng(10)
    batch, past, time = 1, 200, 128
    attn = CausalSelfAttention(DIM, HEADS, rng)
    cache = KVCache(num_layers=1, num_heads=HEADS, head_dim=DIM // HEADS, capacity=past + time, batch=batch)
    attn.forward(rng.normal(size=(batch, past, DIM)).astype(np.float32), layer_cache=cache.layers[0])
    keys = past + time
    bias = None
    if attn_bias:
        bias = np.where(np.arange(keys)[None, None, :] > past + np.arange(time)[None, :, None], -1e9, 0.0)
        bias = bias.astype(np.float32)
    x = rng.normal(size=(batch, time, DIM)).astype(np.float32)
    score_bytes = batch * HEADS * time * keys * np.dtype(np.float32).itemsize
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        attn.forward(x, layer_cache=cache.layers[0], attn_bias=bias)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert score_bytes <= peak < 1.5 * score_bytes, (peak, score_bytes)

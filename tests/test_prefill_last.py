"""Prefill computes only what the next step reads, bit for bit.

``SpeculativeDecoder.prefill`` forwards a non-final chunk with ``last=0``
(the last layer writes its K/V and stops) and the final chunk with
``last=final_chunk_rows(len(chunk))`` (the last block, the final norm and the
base head run on those rows only).  These tests pin that the result is exactly that of
forwarding the same chunks in full (``last=None``, the reference path): the
seeded ``last_base`` / ``last_heads`` and every layer's K/V, on both
backbones and both K/V storages; that a non-final chunk reads K/V for all but
the last layer and runs the base head on no rows; and that
``write`` + ``append`` leave the caches ``append`` + ``append`` would.
"""

from __future__ import annotations

import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.decoding import DecodingStrategy, SpeculativeDecoder, final_chunk_rows
from repro.models.generation import GenerationConfig
from repro.models.medusa import MedusaLM
from repro.nn.kv_cache import KVCache, LayerKVCache
from repro.nn.kv_pool import KVBlockPool, PagedKVCache, PagedLayerKV, _read_blocks
from repro.nn.transformer import DecoderOnlyTransformer, EncoderDecoderTransformer
from repro.serving.request import GenerationRequest, RequestState

VOCAB, DIM, LAYERS, HEADS, MAX_LEN = 97, 32, 2, 2, 160
CHUNK_SIZES = (1, 2, 5, 17, 64, None)  # None: the whole prompt in one chunk
PROMPT_LENGTHS = (1, 2, 3, 38, 67, 131)


def _model(architecture: str) -> MedusaLM:
    if architecture == "decoder-only":
        backbone = DecoderOnlyTransformer(VOCAB, dim=DIM, num_layers=LAYERS, num_heads=HEADS, max_seq_len=MAX_LEN, seed=3)
    else:
        backbone = EncoderDecoderTransformer(
            VOCAB, dim=DIM, num_encoder_layers=LAYERS, num_decoder_layers=LAYERS, num_heads=HEADS, max_seq_len=MAX_LEN,
            seed=3,
        )
    return MedusaLM(backbone, VOCAB, num_medusa_heads=3, seed=3)


def _decoder(model: MedusaLM) -> SpeculativeDecoder:
    # prefill reads only the special ids from the tokenizer.
    tokenizer = SimpleNamespace(vocab=SimpleNamespace(frag_id=1, eos_id=2, bos_id=0))
    return SpeculativeDecoder(model, tokenizer, DecodingStrategy.OURS)


def _cache(model: MedusaLM, storage: str):
    if storage == "row":
        return model.new_cache(capacity=MAX_LEN)
    return PagedKVCache(model.new_block_pool(block_size=4, num_blocks=2 * MAX_LEN), batch=1)


def _layer_kv(cache):
    """Every layer's ``(keys, values)`` over the cached prefix."""
    if isinstance(cache, KVCache):
        return [(layer.k[:, :, : layer.length], layer.v[:, :, : layer.length]) for layer in cache.layers]
    tables = cache._padded_tables(cache.length)
    return [
        (_read_blocks(cache.pool.k[i], tables, cache.length), _read_blocks(cache.pool.v[i], tables, cache.length))
        for i in range(cache.num_layers)
    ]


def _chunks(prompt, size):
    size = size or len(prompt)
    return [prompt[i : i + size] for i in range(0, len(prompt), size)]


def _prompt(length: int, seed: int = 0):
    return np.random.default_rng(seed + length).integers(3, VOCAB, size=length).tolist()


def _reference(model: MedusaLM, cache, chunks):
    """The same chunking forwarded in full (``last=None``): the seeded logits at the last position."""
    for chunk in chunks:
        base_logits, hidden = model.forward_hidden(np.asarray([chunk], dtype=np.int64), cache=cache, last=None)
    return base_logits[0, -1], [h[0] for h in model.head_logits_at(hidden[:, -1])]


def _prefill(decoder: SpeculativeDecoder, cache, chunks) -> RequestState:
    prompt = [token for chunk in chunks for token in chunk]
    lane = RequestState(GenerationRequest("r", prompt, GenerationConfig.greedy_config(4)))
    for index, chunk in enumerate(chunks):
        decoder.prefill(lane, cache, chunk, final=index == len(chunks) - 1, clock=time.perf_counter)
    return lane


CASES = [("decoder-only", "row"), ("decoder-only", "paged"), ("encoder-decoder", "row")]


@pytest.mark.parametrize("architecture,storage", CASES)
@pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
def test_prefill_matches_the_full_forward_bitwise(architecture, storage, chunk_size):
    model = _model(architecture)
    decoder = _decoder(model)
    for length in PROMPT_LENGTHS:
        prompt = _prompt(length)
        chunks = _chunks(prompt, chunk_size)
        if model.is_encoder_decoder:
            model.encode_prompt(np.asarray(_prompt(9, seed=1), dtype=np.int64))
        reference_cache = _cache(model, storage)
        base, heads = _reference(model, reference_cache, chunks)
        cache = _cache(model, storage)
        lane = _prefill(decoder, cache, chunks)
        assert np.array_equal(lane.last_base, base), (length, chunk_size)
        assert len(lane.last_heads) == len(heads) == model.num_medusa_heads
        for got, want in zip(lane.last_heads, heads):
            assert np.array_equal(got, want), (length, chunk_size)
        assert np.array_equal(cache.lengths, reference_cache.lengths)
        assert int(cache.lengths[0]) == length
        for (k, v), (ref_k, ref_v) in zip(_layer_kv(cache), _layer_kv(reference_cache)):
            assert np.array_equal(k, ref_k) and np.array_equal(v, ref_v), (length, chunk_size)
        if model.is_encoder_decoder:
            for layer, ref_layer in zip(cache.layers, reference_cache.layers):
                assert np.array_equal(layer.cross_k, ref_layer.cross_k)
                assert np.array_equal(layer.cross_v, ref_layer.cross_v)


@pytest.mark.parametrize("architecture", ["decoder-only", "encoder-decoder"])
def test_last_rows_are_the_full_forwards_rows(architecture):
    """The backbone's ``last`` rows equal the full forward's trailing rows, with and without a cache."""
    model = _model(architecture)
    if model.is_encoder_decoder:
        model.encode_prompt(np.asarray(_prompt(9, seed=1), dtype=np.int64))
    ids = np.asarray([_prompt(23)], dtype=np.int64)
    full = model.backbone.forward(ids)
    for last in (2, 5, 23):
        assert np.array_equal(model.backbone.forward(ids, last=last), full[:, -last:])
    assert model.backbone.forward(ids, last=0).shape == (1, 0, DIM)
    with pytest.raises(ValueError, match="last=24"):
        model.backbone.forward(ids, last=24)


@pytest.mark.parametrize("storage", ["row", "paged"])
def test_a_non_final_chunk_reads_one_layer_and_runs_the_head_on_no_rows(storage, monkeypatch):
    model = _model("decoder-only")
    decoder = _decoder(model)
    appends = []
    for cls in (LayerKVCache, PagedLayerKV):
        original = cls.append

        def spy(self, k_new, v_new, _original=original):
            appends.append(self.index if isinstance(self, PagedLayerKV) else cache.layers.index(self))
            return _original(self, k_new, v_new)

        monkeypatch.setattr(cls, "append", spy)
    head_rows = []
    head_forward = model.base_head.forward

    def head_spy(hidden):
        head_rows.append(hidden.shape[1])
        return head_forward(hidden)

    monkeypatch.setattr(model.base_head, "forward", head_spy)
    prompt = _prompt(22)
    cache = _cache(model, storage)
    lane = RequestState(GenerationRequest("r", prompt, GenerationConfig.greedy_config(4)))
    decoder.prefill(lane, cache, prompt[:12], final=False, clock=time.perf_counter)
    assert appends == [0]  # the last layer writes its K/V and gathers nothing
    assert [layer.lengths.tolist() for layer in cache.layers] == [[12], [12]]
    assert head_rows == [0]
    assert lane.last_base is None
    decoder.prefill(lane, cache, prompt[12:], final=True, clock=time.perf_counter)
    assert appends == [0, 0, 1]
    assert head_rows == [0, final_chunk_rows(10)] == [0, 2]
    assert int(cache.lengths[0]) == 22


def test_final_chunk_rows_keep_the_row_count_modulo_eight():
    assert [final_chunk_rows(n) for n in range(1, 20)] == [1, 2, 3, 4, 5, 6, 7, 8, 9, 2, 3, 4, 5, 6, 7, 8, 9, 2, 3]
    assert final_chunk_rows(64) == 8 and final_chunk_rows(65) == 9 and final_chunk_rows(66) == 2


def test_write_then_append_matches_append_then_append_on_both_storages():
    rng = np.random.default_rng(0)
    heads, head_dim = 2, 4
    shape = (1, heads, 7, head_dim)
    first = [rng.normal(size=shape).astype(np.float32) for _ in range(2)]
    second = [rng.normal(size=(1, heads, 3, head_dim)).astype(np.float32) for _ in range(2)]

    def run(layer, write_first):
        if write_first:
            assert layer.write(*first) is None
        else:
            layer.append(*first)
        return layer.append(*second)

    results = []
    for write_first in (True, False):
        row = KVCache(1, heads, head_dim, capacity=16).layers[0]
        paged_cache = PagedKVCache(KVBlockPool(1, heads, head_dim, block_size=4, num_blocks=8), batch=1)
        for layer in (row, paged_cache.layers[0]):
            keys, values = run(layer, write_first)
            assert layer.lengths.tolist() == [10]
            results.append((keys, values))
    reference_keys, reference_values = results[0]
    assert reference_keys.shape == (1, heads, 10, head_dim)
    assert np.array_equal(reference_keys[:, :, :7], first[0]) and np.array_equal(reference_keys[:, :, 7:], second[0])
    for keys, values in results[1:]:
        assert np.array_equal(keys, reference_keys) and np.array_equal(values, reference_values)

"""Tests for the model zoo: backbones, Medusa wrapper, generation utilities."""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

import repro.models.medusa as medusa_module
from repro.models.generation import GenerationConfig, sample_from_logits, top_k_token_ids
from repro.models.medusa import MedusaHead, MedusaLM
from repro.nn.layers import Linear
from repro.nn.optim import AdamW
from repro.nn.transformer import DecoderOnlyTransformer, EncoderDecoderTransformer


VOCAB = 60


@pytest.fixture(scope="module")
def decoder_backbone():
    return DecoderOnlyTransformer(vocab_size=VOCAB, dim=16, num_layers=1, num_heads=2, max_seq_len=64)


@pytest.fixture(scope="module")
def encdec_backbone():
    return EncoderDecoderTransformer(
        vocab_size=VOCAB, dim=16, num_encoder_layers=1, num_decoder_layers=1, num_heads=2, max_seq_len=64
    )


class TestBackbones:
    def test_decoder_hidden_shape(self, decoder_backbone):
        hidden = decoder_backbone.forward(np.array([[1, 2, 3]]))
        assert hidden.shape == (1, 3, 16)

    def test_encdec_hidden_shape(self, encdec_backbone):
        encdec_backbone.encode(np.array([[3, 4, 5]]))
        hidden = encdec_backbone.forward(np.array([[1, 2]]))
        assert hidden.shape == (1, 2, 16)

    def test_encdec_encode_caching(self, encdec_backbone):
        """``forward`` reads the memory of the last ``encode``, until the next one replaces it."""
        encdec_backbone.encode(np.array([[3, 4, 5]]))
        first = encdec_backbone.forward(np.array([[1, 2]]))
        assert np.array_equal(encdec_backbone.forward(np.array([[1, 2]])), first)
        encdec_backbone.encode(np.array([[6, 7, 8]]))
        assert not np.array_equal(encdec_backbone.forward(np.array([[1, 2]])), first)

    def test_parameter_counts(self, decoder_backbone, encdec_backbone):
        assert decoder_backbone.num_parameters() > 0
        assert encdec_backbone.num_parameters() > decoder_backbone.num_parameters()


class TestMedusaHead:
    def test_head_output_shape(self):
        rng = np.random.default_rng(0)
        head = MedusaHead(16, VOCAB, rng, index=0)
        hidden = rng.normal(size=(1, 5, 16)).astype(np.float32)
        assert head.forward(hidden).shape == (1, 5, VOCAB)

    def test_head_backward_shape(self):
        rng = np.random.default_rng(1)
        head = MedusaHead(16, VOCAB, rng, index=0)
        hidden = rng.normal(size=(1, 5, 16)).astype(np.float32)
        head.forward(hidden)
        grad = head.backward(np.ones((1, 5, VOCAB), dtype=np.float32))
        assert grad.shape == hidden.shape

    def test_residual_path_present(self):
        # With zero residual-block weights the head reduces to a plain linear
        # projection of the hidden state (the skip connection).
        rng = np.random.default_rng(2)
        head = MedusaHead(8, 10, rng, index=0)
        head.res_linear.weight.data[:] = 0.0
        head.res_linear.bias.data[:] = 0.0
        hidden = rng.normal(size=(1, 2, 8)).astype(np.float32)
        expected = hidden @ head.lm_head.weight.data + head.lm_head.bias.data
        np.testing.assert_allclose(head.forward(hidden), expected, atol=1e-5)


class TestMedusaLM:
    def test_forward_shapes_decoder(self, decoder_backbone):
        model = MedusaLM(decoder_backbone, vocab_size=VOCAB, num_medusa_heads=3)
        base, heads = model.forward(np.array([[1, 2, 3, 4]]))
        assert base.shape == (1, 4, VOCAB)
        assert len(heads) == 3
        assert all(h.shape == (1, 4, VOCAB) for h in heads)

    def test_forward_shapes_encdec(self, encdec_backbone):
        model = MedusaLM(encdec_backbone, vocab_size=VOCAB, num_medusa_heads=2)
        base, heads = model.forward(np.array([[1, 2]]), np.array([[3, 4, 5]]))
        assert base.shape == (1, 2, VOCAB)
        assert len(heads) == 2

    def test_zero_heads_is_ntp_model(self, decoder_backbone):
        model = MedusaLM(decoder_backbone, vocab_size=VOCAB, num_medusa_heads=0)
        base, heads = model.forward(np.array([[1, 2]]))
        assert heads == []

    def test_head_lr_scale_set(self, decoder_backbone):
        model = MedusaLM(decoder_backbone, vocab_size=VOCAB, num_medusa_heads=2, head_lr_scale=4.0)
        head_params = [p for head in model.medusa_heads for p in head.parameters()]
        assert all(p.lr_scale == 4.0 for p in head_params)
        assert all(p.lr_scale == 1.0 for p in model.base_head.parameters())

    def test_backward_reaches_backbone(self):
        backbone = DecoderOnlyTransformer(vocab_size=VOCAB, dim=16, num_layers=1, num_heads=2, max_seq_len=32)
        model = MedusaLM(backbone, vocab_size=VOCAB, num_medusa_heads=2)
        base, heads = model.forward(np.array([[1, 2, 3]]))
        model.zero_grad()
        model.backward(np.ones_like(base), [np.ones_like(h) for h in heads])
        backbone_grads = sum(float(np.abs(p.grad).sum()) for p in backbone.parameters())
        assert backbone_grads > 0

    @pytest.mark.parametrize("backbone_name", ["decoder_backbone", "encdec_backbone"])
    def test_parameter_order(self, backbone_name, request):
        """Backbone first, then the base head, then each Medusa head in order: the optimizer's order."""
        backbone = request.getfixturevalue(backbone_name)
        model = MedusaLM(backbone, vocab_size=VOCAB, num_medusa_heads=3)
        heads = [f"medusa{i}.{layer}.{kind}" for i in range(3) for layer in ("res", "lm") for kind in ("weight", "bias")]
        expected = [p.name for p in backbone.parameters()] + ["base_head.weight", "base_head.bias"] + heads
        assert [p.name for p in model.parameters()] == expected
        assert model.num_parameters() == sum(p.data.size for p in model.parameters())

    def test_encoder_ids_rejected_on_decoder_only(self, decoder_backbone):
        model = MedusaLM(decoder_backbone, vocab_size=VOCAB, num_medusa_heads=2)
        assert not model.is_encoder_decoder
        with pytest.raises(ValueError, match="decoder-only"):
            model.forward(np.array([[1, 2, 3]]), encoder_ids=np.array([[4, 5]]))
        with pytest.raises(ValueError, match="decoder-only"):
            model.forward_hidden(np.array([[1, 2, 3]]), encoder_ids=np.array([[4, 5]]))

    def test_parameters_include_all_heads(self, decoder_backbone):
        model = MedusaLM(decoder_backbone, vocab_size=VOCAB, num_medusa_heads=3)
        names = {p.name for p in model.parameters()}
        assert any("medusa0" in n for n in names)
        assert any("medusa2" in n for n in names)
        assert any("base_head" in n for n in names)

    def test_num_parameters_grows_with_heads(self, decoder_backbone):
        small = MedusaLM(decoder_backbone, vocab_size=VOCAB, num_medusa_heads=1)
        large = MedusaLM(decoder_backbone, vocab_size=VOCAB, num_medusa_heads=4)
        assert large.num_parameters() > small.num_parameters()


def per_head_logits(model, hidden):
    """What each head's own forward computes on ``hidden[:, None]``: the stacked product's reference."""
    return [head.forward(hidden[:, None])[:, 0] for head in model.medusa_heads]


def assert_heads_bitwise(model, rng):
    for rows in range(1, 10):
        hidden = rng.normal(size=(rows, model.backbone.dim)).astype(np.float32)
        stacked = model.head_logits_at(hidden)
        assert isinstance(stacked, list)  # the benchmark tests ``if result:``
        expected = per_head_logits(model, hidden)
        assert len(stacked) == len(expected) == model.num_medusa_heads
        for got, want in zip(stacked, expected):
            assert got.dtype == want.dtype == np.float32
            assert np.array_equal(got, want)


def _adamw_step(model, rng):
    """One real training step on every head (backbone included), in place like the trainer's."""
    ids = rng.integers(0, model.vocab_size, size=(2, 5))
    base, heads = model.forward(ids, ids if model.is_encoder_decoder else None)
    model.zero_grad()
    model.backward(np.ones_like(base), [rng.normal(size=h.shape).astype(np.float32) for h in heads])
    AdamW(list(model.parameters()), lr=1e-2).step()


class TestStackedHeads:
    """``head_logits_at`` evaluates every head as one stacked product, bitwise the per-head forward."""

    @pytest.fixture(params=["decoder", "encdec", "decoder-d48-v700"])
    def model(self, request):
        # Fresh backbones: these tests train, and the module-scoped ones are shared.
        if request.param == "decoder-d48-v700":  # the benchmark's head geometry
            backbone = DecoderOnlyTransformer(vocab_size=700, dim=48, num_layers=1, num_heads=2, max_seq_len=32)
            return MedusaLM(backbone, vocab_size=700, num_medusa_heads=8, seed=5)
        if request.param == "decoder":
            backbone = DecoderOnlyTransformer(vocab_size=VOCAB, dim=16, num_layers=1, num_heads=2, max_seq_len=64)
        else:
            backbone = EncoderDecoderTransformer(
                vocab_size=VOCAB, dim=16, num_encoder_layers=1, num_decoder_layers=1, num_heads=2, max_seq_len=64
            )
        return MedusaLM(backbone, vocab_size=VOCAB, num_medusa_heads=3, seed=5)

    def test_matches_per_head_forward(self, model):
        assert_heads_bitwise(model, np.random.default_rng(0))

    def test_after_an_adamw_step(self, model):
        rng = np.random.default_rng(1)
        before = [p.data.copy() for head in model.medusa_heads for p in head.parameters()]
        _adamw_step(model, rng)
        after = [p.data for head in model.medusa_heads for p in head.parameters()]
        assert all(not np.array_equal(b, a) for b, a in zip(before, after))
        assert_heads_bitwise(model, rng)

    @pytest.mark.parametrize("clone", ["pickle", "deepcopy"])
    def test_after_a_copy(self, model, clone):
        twin = pickle.loads(pickle.dumps(model)) if clone == "pickle" else copy.deepcopy(model)
        rng = np.random.default_rng(2)
        hidden = rng.normal(size=(4, model.backbone.dim)).astype(np.float32)
        for got, want in zip(twin.head_logits_at(hidden), model.head_logits_at(hidden)):
            assert np.array_equal(got, want)
        assert_heads_bitwise(twin, rng)
        # The copy's heads are its own stack's views: training it moves neither the original nor a stale stack.
        original = model.head_logits_at(hidden)
        _adamw_step(twin, rng)
        assert_heads_bitwise(twin, rng)
        for got, want in zip(model.head_logits_at(hidden), original):
            assert np.array_equal(got, want)

    def test_zero_heads_return_an_empty_list(self, decoder_backbone):
        model = MedusaLM(decoder_backbone, vocab_size=VOCAB, num_medusa_heads=0)
        assert model.head_logits_at(np.zeros((3, 16), dtype=np.float32)) == []
        assert pickle.loads(pickle.dumps(model)).head_logits_at(np.zeros((1, 16), dtype=np.float32)) == []


class TestStackedHeadCounts:
    """Counts, not clocks."""

    def _model(self):
        backbone = DecoderOnlyTransformer(vocab_size=700, dim=48, num_layers=1, num_heads=2, max_seq_len=32)
        return MedusaLM(backbone, vocab_size=700, num_medusa_heads=8, seed=5)

    def test_one_product_no_per_head_linear(self, monkeypatch):
        model = self._model()
        calls = {"linear": 0, "gelu": 0}
        linear_forward, gelu = Linear.forward, medusa_module.gelu

        def counting_linear(self, x):
            calls["linear"] += 1
            return linear_forward(self, x)

        def counting_gelu(x):
            calls["gelu"] += 1
            return gelu(x)

        monkeypatch.setattr(Linear, "forward", counting_linear)
        monkeypatch.setattr(medusa_module, "gelu", counting_gelu)
        logits = model.head_logits_at(np.ones((5, 48), dtype=np.float32))
        assert len(logits) == 8
        assert calls == {"linear": 0, "gelu": 1}

    def test_pickle_stores_the_head_weights_once(self):
        model = self._model()
        head_bytes = sum(p.data.nbytes for head in model.medusa_heads for p in head.parameters())
        parameter_bytes = sum(p.data.nbytes + p.grad.nbytes for p in model.parameters())
        overhead = len(pickle.dumps(model)) - parameter_bytes
        assert overhead < head_bytes / 2


class TestGeneration:
    def test_greedy_picks_argmax(self):
        logits = np.array([0.1, 5.0, -2.0])
        rng = np.random.default_rng(0)
        assert sample_from_logits(logits, GenerationConfig.greedy_config(), rng) == 1
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state  # greedy draws nothing

    def test_sampling_deterministic_with_seed(self):
        logits = np.random.default_rng(0).normal(size=20)
        config = GenerationConfig.sampling_config(temperature=0.8, seed=7)
        rng_a = np.random.default_rng(7)
        rng_b = np.random.default_rng(7)
        assert sample_from_logits(logits, config, rng_a) == sample_from_logits(logits, config, rng_b)

    def test_low_temperature_concentrates(self):
        logits = np.array([2.0, 1.0, 0.0])
        config = GenerationConfig(max_new_tokens=1, temperature=0.05, seed=0)
        rng = np.random.default_rng(0)
        samples = [sample_from_logits(logits, config, rng) for _ in range(25)]
        assert samples.count(0) >= 24

    def test_top_k_token_ids_sorted(self):
        logits = np.array([0.5, 3.0, 2.0, -1.0])
        np.testing.assert_array_equal(top_k_token_ids(logits, 3), [1, 2, 0])

    def test_top_k_larger_than_vocab(self):
        logits = np.array([1.0, 0.0])
        assert len(top_k_token_ids(logits, 10)) == 2

    @pytest.mark.parametrize("k", [0, -1, -5])
    def test_top_k_non_positive_is_empty(self, k):
        ids = top_k_token_ids(np.array([0.5, 3.0, 2.0, -1.0]), k)
        assert ids.shape == (0,) and ids.dtype.kind == "i"

    def test_config_factories(self):
        greedy = GenerationConfig.greedy_config(50)
        sampled = GenerationConfig.sampling_config(0.6, 70, seed=3)
        assert greedy.greedy and greedy.max_new_tokens == 50
        assert not sampled.greedy and sampled.temperature == 0.6 and sampled.seed == 3

    def test_greedy_is_read_from_the_temperature(self):
        """``greedy`` is a property of the temperature, not a field a config can contradict."""
        assert [field.name for field in dataclasses.fields(GenerationConfig)] == [
            "max_new_tokens",
            "temperature",
            "seed",
            "grammar",
        ]
        assert GenerationConfig(temperature=0.0).greedy and GenerationConfig(temperature=-1.0).greedy
        assert not GenerationConfig(temperature=1e-3).greedy
        with pytest.raises(TypeError):
            GenerationConfig(greedy=True)  # type: ignore[call-arg]

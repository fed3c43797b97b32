"""Tests for the numpy NN substrate: functional ops, layers, gradients, optimizer."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.nn.functional import (
    cross_entropy,
    cross_entropy_grad,
    entropy,
    gelu,
    gelu_grad,
    log_softmax,
    softmax,
)
from repro.nn.layers import CausalSelfAttention, Embedding, FeedForward, LayerNorm, Linear, Parameter
from repro.nn.optim import AdamW, WarmupCosineSchedule
from repro.nn.transformer import DecoderOnlyTransformer, EncoderDecoderTransformer


RNG = np.random.default_rng(0)


class TestFunctional:
    def test_softmax_sums_to_one(self):
        probs = softmax(np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, rtol=1e-6)

    def test_softmax_stable_for_large_logits(self):
        probs = softmax(np.array([1000.0, 1001.0, 999.0]))
        assert np.all(np.isfinite(probs))

    def test_log_softmax_matches_log_of_softmax(self):
        x = np.array([0.5, -1.2, 3.3])
        np.testing.assert_allclose(log_softmax(x), np.log(softmax(x)), rtol=1e-6)

    def test_entropy_uniform_is_log_n(self):
        probs = np.full(8, 1 / 8)
        assert entropy(probs) == pytest.approx(np.log(8), rel=1e-6)

    def test_entropy_delta_is_zero(self):
        probs = np.zeros(8)
        probs[2] = 1.0
        assert entropy(probs) == pytest.approx(0.0, abs=1e-9)

    def test_cross_entropy_perfect_prediction(self):
        logits = np.array([[100.0, 0.0, 0.0]])
        loss, _, count = cross_entropy(logits, np.array([0]))
        assert loss == pytest.approx(0.0, abs=1e-6)
        assert count == 1

    def test_cross_entropy_ignore_index(self):
        logits = np.zeros((3, 4))
        targets = np.array([1, 9, 9])
        loss, _, count = cross_entropy(logits, targets, ignore_index=9)
        assert count == 1
        assert loss == pytest.approx(np.log(4), rel=1e-6)

    def test_cross_entropy_all_ignored(self):
        logits = np.zeros((2, 4))
        loss, _, count = cross_entropy(logits, np.array([9, 9]), ignore_index=9)
        assert loss == 0.0 and count == 0

    def test_cross_entropy_grad_zero_at_ignored_positions(self):
        logits = np.random.default_rng(0).normal(size=(3, 5))
        targets = np.array([1, 9, 2])
        _, probs, _ = cross_entropy(logits, targets, ignore_index=9)
        grad = cross_entropy_grad(probs, targets, ignore_index=9)
        assert np.allclose(grad[1], 0.0)
        assert not np.allclose(grad[0], 0.0)

    def test_cross_entropy_grad_numerical(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(2, 4))
        targets = np.array([1, 3])
        _, probs, _ = cross_entropy(logits, targets)
        grad = cross_entropy_grad(probs, targets)
        eps = 1e-5
        for i in range(2):
            for j in range(4):
                plus = logits.copy()
                plus[i, j] += eps
                minus = logits.copy()
                minus[i, j] -= eps
                numeric = (cross_entropy(plus, targets)[0] - cross_entropy(minus, targets)[0]) / (2 * eps)
                assert grad[i, j] == pytest.approx(numeric, abs=1e-4)

    def test_gelu_grad_numerical(self):
        x = np.linspace(-3, 3, 13)
        eps = 1e-5
        numeric = (gelu(x + eps) - gelu(x - eps)) / (2 * eps)
        np.testing.assert_allclose(gelu_grad(x), numeric, atol=1e-4)


def _numeric_gradient(function, array, epsilon=1e-3):
    grad = np.zeros_like(array)
    flat = array.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + epsilon
        plus = function()
        flat[i] = original - epsilon
        minus = function()
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * epsilon)
    return grad


class TestLayerGradients:
    def test_linear_gradients(self):
        rng = np.random.default_rng(2)
        layer = Linear(4, 3, rng)
        x = rng.normal(size=(2, 5, 4)).astype(np.float32)
        target_grad = rng.normal(size=(2, 5, 3)).astype(np.float32)

        def loss():
            return float(np.sum(layer.forward(x) * target_grad))

        layer.zero_grad()
        layer.forward(x)
        dx = layer.backward(target_grad)

        numeric_w = _numeric_gradient(loss, layer.weight.data)
        np.testing.assert_allclose(layer.weight.grad, numeric_w, rtol=5e-2, atol=5e-2)
        numeric_x = _numeric_gradient(loss, x)
        np.testing.assert_allclose(dx, numeric_x, rtol=5e-2, atol=5e-2)

    def test_layernorm_gradients(self):
        rng = np.random.default_rng(3)
        layer = LayerNorm(6)
        x = rng.normal(size=(2, 3, 6)).astype(np.float32)
        target_grad = rng.normal(size=(2, 3, 6)).astype(np.float32)

        def loss():
            return float(np.sum(layer.forward(x) * target_grad))

        layer.zero_grad()
        layer.forward(x)
        dx = layer.backward(target_grad)
        numeric_x = _numeric_gradient(loss, x)
        np.testing.assert_allclose(dx, numeric_x, rtol=5e-2, atol=5e-2)

    def test_attention_gradients(self):
        rng = np.random.default_rng(4)
        layer = CausalSelfAttention(8, 2, rng)
        x = rng.normal(size=(1, 4, 8)).astype(np.float32)
        target_grad = rng.normal(size=(1, 4, 8)).astype(np.float32)

        def loss():
            return float(np.sum(layer.forward(x) * target_grad))

        layer.zero_grad()
        layer.forward(x)
        dx = layer.backward(target_grad)
        numeric_x = _numeric_gradient(loss, x)
        np.testing.assert_allclose(dx, numeric_x, rtol=5e-2, atol=5e-2)

    def test_feedforward_gradients(self):
        rng = np.random.default_rng(5)
        layer = FeedForward(6, 12, rng)
        x = rng.normal(size=(1, 3, 6)).astype(np.float32)
        target_grad = rng.normal(size=(1, 3, 6)).astype(np.float32)

        def loss():
            return float(np.sum(layer.forward(x) * target_grad))

        layer.zero_grad()
        layer.forward(x)
        dx = layer.backward(target_grad)
        numeric_x = _numeric_gradient(loss, x)
        np.testing.assert_allclose(dx, numeric_x, rtol=5e-2, atol=5e-2)

    def test_embedding_accumulates_gradient(self):
        rng = np.random.default_rng(6)
        layer = Embedding(10, 4, rng)
        ids = np.array([[1, 1, 2]])
        layer.forward(ids)
        layer.backward(np.ones((1, 3, 4), dtype=np.float32))
        assert np.allclose(layer.weight.grad[1], 2.0)
        assert np.allclose(layer.weight.grad[2], 1.0)
        assert np.allclose(layer.weight.grad[3], 0.0)


class TestAttentionProperties:
    def test_causal_mask_blocks_future(self):
        rng = np.random.default_rng(7)
        layer = CausalSelfAttention(8, 2, rng, causal=True)
        x = rng.normal(size=(1, 5, 8)).astype(np.float32)
        out_full = layer.forward(x)
        # Changing the last position must not change earlier outputs.
        x_modified = x.copy()
        x_modified[0, -1] += 10.0
        out_modified = layer.forward(x_modified)
        np.testing.assert_allclose(out_full[0, :-1], out_modified[0, :-1], atol=1e-5)

    def test_non_causal_attention_sees_future(self):
        rng = np.random.default_rng(8)
        layer = CausalSelfAttention(8, 2, rng, causal=False)
        x = rng.normal(size=(1, 5, 8)).astype(np.float32)
        out_full = layer.forward(x)
        x_modified = x.copy()
        x_modified[0, -1] += 10.0
        out_modified = layer.forward(x_modified)
        assert not np.allclose(out_full[0, 0], out_modified[0, 0], atol=1e-5)

    def test_dim_must_divide_heads(self):
        with pytest.raises(ValueError):
            CausalSelfAttention(7, 2, np.random.default_rng(0))


class TestTransformers:
    def test_decoder_only_shapes(self):
        model = DecoderOnlyTransformer(vocab_size=50, dim=16, num_layers=2, num_heads=2, max_seq_len=32)
        hidden = model.forward(np.array([[1, 2, 3, 4]]))
        assert hidden.shape == (1, 4, 16)

    def test_decoder_only_accepts_1d_input(self):
        model = DecoderOnlyTransformer(vocab_size=50, dim=16, num_layers=1, num_heads=2, max_seq_len=32)
        assert model.forward(np.array([1, 2, 3])).shape == (1, 3, 16)

    def test_decoder_only_rejects_long_sequences(self):
        model = DecoderOnlyTransformer(vocab_size=10, dim=8, num_layers=1, num_heads=2, max_seq_len=4)
        with pytest.raises(ValueError):
            model.forward(np.arange(8)[None, :])

    def test_decoder_causality_end_to_end(self):
        model = DecoderOnlyTransformer(vocab_size=20, dim=16, num_layers=2, num_heads=2, max_seq_len=16, seed=1)
        ids = np.array([[1, 2, 3, 4, 5]])
        hidden_full = model.forward(ids)
        ids_changed = ids.copy()
        ids_changed[0, -1] = 9
        hidden_changed = model.forward(ids_changed)
        np.testing.assert_allclose(hidden_full[0, :-1], hidden_changed[0, :-1], atol=1e-5)

    def test_decoder_backward_populates_gradients(self):
        model = DecoderOnlyTransformer(vocab_size=30, dim=16, num_layers=1, num_heads=2, max_seq_len=16)
        hidden = model.forward(np.array([[1, 2, 3]]))
        model.zero_grad()
        model.backward(np.ones_like(hidden))
        grads = [np.abs(p.grad).sum() for p in model.parameters()]
        assert sum(g > 0 for g in grads) > len(grads) // 2

    def test_encoder_decoder_shapes(self):
        model = EncoderDecoderTransformer(vocab_size=40, dim=16, num_encoder_layers=1, num_decoder_layers=1, num_heads=2, max_seq_len=32)
        model.encode(np.array([[5, 6, 7, 8]]))
        hidden = model.forward(np.array([[1, 2, 3]]))
        assert hidden.shape == (1, 3, 16)

    def test_encoder_decoder_requires_encode_first(self):
        model = EncoderDecoderTransformer(vocab_size=40, dim=16, max_seq_len=32)
        with pytest.raises(RuntimeError):
            model.forward(np.array([[1, 2]]))

    def test_encoder_decoder_cached_memory_reuse(self):
        model = EncoderDecoderTransformer(vocab_size=40, dim=16, max_seq_len=32, seed=3)
        model.encode(np.array([[1, 2, 3]]))
        first = model.forward(np.array([[4, 5]]))
        second = model.forward(np.array([[4, 5]]))
        np.testing.assert_allclose(first, second, atol=1e-6)

    def test_encoder_output_depends_on_prompt(self):
        model = EncoderDecoderTransformer(vocab_size=40, dim=16, max_seq_len=32, seed=4)
        model.encode(np.array([[1, 2, 3]]))
        out_a = model.forward(np.array([[4, 5]]))
        model.encode(np.array([[7, 8, 9]]))
        out_b = model.forward(np.array([[4, 5]]))
        assert not np.allclose(out_a, out_b, atol=1e-5)

    def test_encoder_decoder_backward_runs(self):
        model = EncoderDecoderTransformer(vocab_size=30, dim=16, max_seq_len=16)
        model.encode(np.array([[4, 5]]))
        hidden = model.forward(np.array([[1, 2, 3]]))
        model.zero_grad()
        model.backward(np.ones_like(hidden))
        assert any(np.abs(p.grad).sum() > 0 for p in model.parameters())

    def test_num_parameters_positive(self):
        model = DecoderOnlyTransformer(vocab_size=30, dim=16, num_layers=1, num_heads=2)
        assert model.num_parameters() > 30 * 16


class TestOptim:
    def test_schedule_warmup_then_decay(self):
        schedule = WarmupCosineSchedule(base_lr=1.0, warmup_steps=10, total_steps=100)
        assert schedule.lr_at(0) == pytest.approx(0.1)
        assert schedule.lr_at(9) == pytest.approx(1.0)
        assert schedule.lr_at(99) < schedule.lr_at(10)
        assert schedule.lr_at(99) >= 0.1 * 1.0 - 1e-6

    def test_schedule_rejects_bad_total(self):
        with pytest.raises(ValueError):
            WarmupCosineSchedule(1.0, 0, 0)

    def test_adamw_reduces_quadratic_loss(self):
        param = Parameter(np.array([5.0, -3.0], dtype=np.float32))
        optimizer = AdamW([param], lr=0.1, weight_decay=0.0)
        for _ in range(200):
            param.zero_grad()
            param.grad += 2 * param.data
            optimizer.step()
        assert np.all(np.abs(param.data) < 0.1)

    def test_adamw_lr_scale_applies(self):
        fast = Parameter(np.array([1.0], dtype=np.float32), lr_scale=4.0)
        slow = Parameter(np.array([1.0], dtype=np.float32), lr_scale=1.0)
        optimizer = AdamW([fast, slow], lr=0.01, weight_decay=0.0)
        fast.grad += 1.0
        slow.grad += 1.0
        optimizer.step()
        assert abs(1.0 - fast.data[0]) > abs(1.0 - slow.data[0])

    def test_gradient_clipping(self):
        param = Parameter(np.zeros(4, dtype=np.float32))
        optimizer = AdamW([param], max_grad_norm=1.0)
        param.grad += 100.0
        norm = optimizer.clip_gradients()
        assert norm > 1.0
        assert np.linalg.norm(param.grad) == pytest.approx(1.0, rel=1e-5)

    def test_zero_grad(self):
        param = Parameter(np.zeros(3, dtype=np.float32))
        optimizer = AdamW([param])
        param.grad += 5.0
        optimizer.zero_grad()
        assert np.all(param.grad == 0)


@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=20))
def test_softmax_probabilities_property(logits):
    """Property: softmax output is a probability vector for any finite logits."""
    probs = softmax(np.array(logits))
    assert np.all(probs >= 0)
    assert probs.sum() == pytest.approx(1.0, rel=1e-5)


@given(st.integers(min_value=2, max_value=64))
def test_entropy_bounded_by_log_n(n):
    """Property: entropy of any distribution over n outcomes is <= log(n)."""
    rng = np.random.default_rng(n)
    probs = rng.dirichlet(np.ones(n))
    assert entropy(probs) <= np.log(n) + 1e-6

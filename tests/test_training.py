"""Tests for the Medusa training objective (eq. 2) and the fine-tuning loop."""

import numpy as np
import pytest

from repro.core.training import MedusaLoss, MedusaTrainer, TrainerConfig, TrainingSample
from repro.models.medusa import MedusaLM
from repro.nn.transformer import DecoderOnlyTransformer, EncoderDecoderTransformer
from repro.tokenizer.bpe import BPETokenizer


@pytest.fixture(scope="module")
def small_tokenizer():
    tokenizer = BPETokenizer()
    tokenizer.train(
        [
            "module m (input clk, input [3:0] d, output reg [3:0] q);",
            "always @(posedge clk) q <= d; endmodule",
            "[FRAG]module[FRAG] m [FRAG]([FRAG]input[FRAG] clk[FRAG]",
            "Write a Verilog module named m.",
        ],
        vocab_size=260,
    )
    return tokenizer


def _tiny_model(tokenizer, num_heads=3, architecture="decoder-only"):
    vocab = tokenizer.vocab_size
    if architecture == "encoder-decoder":
        backbone = EncoderDecoderTransformer(
            vocab_size=vocab, dim=16, num_encoder_layers=1, num_decoder_layers=1, num_heads=2, max_seq_len=128
        )
    else:
        backbone = DecoderOnlyTransformer(vocab_size=vocab, dim=16, num_layers=1, num_heads=2, max_seq_len=128)
    return MedusaLM(backbone, vocab_size=vocab, num_medusa_heads=num_heads)


class TestMedusaLoss:
    def test_lambda_schedule_endpoints(self):
        loss = MedusaLoss(ignore_id=5, lambda_max=0.2)
        assert loss.lambda_at(0.0) == pytest.approx(0.0)
        assert loss.lambda_at(1.0) == pytest.approx(0.2)

    def test_lambda_schedule_monotone(self):
        loss = MedusaLoss(ignore_id=5, lambda_max=0.2)
        values = [loss.lambda_at(p) for p in np.linspace(0, 1, 11)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_lambda_clamped_outside_range(self):
        loss = MedusaLoss(ignore_id=5, lambda_max=0.2)
        assert loss.lambda_at(-1.0) == 0.0
        assert loss.lambda_at(2.0) == pytest.approx(0.2)

    def test_total_loss_is_weighted_sum(self):
        rng = np.random.default_rng(0)
        vocab, seq = 12, 6
        base_logits = rng.normal(size=(1, seq, vocab))
        head_logits = [rng.normal(size=(1, seq, vocab)) for _ in range(2)]
        labels = np.vstack([rng.integers(0, vocab, size=(1, seq)) for _ in range(3)])
        loss = MedusaLoss(ignore_id=99, lambda_max=0.2, gamma=0.8)
        total, parts, _, _ = loss.compute(base_logits, head_logits, labels, progress=1.0)
        expected = parts["base"] + 0.2 * (0.8 * parts["head1"] + 0.8**2 * parts["head2"])
        assert total == pytest.approx(expected, rel=1e-6)

    def test_gamma_decay_weights_heads(self):
        rng = np.random.default_rng(1)
        vocab, seq = 10, 4
        base_logits = rng.normal(size=(1, seq, vocab))
        head_logits = [rng.normal(size=(1, seq, vocab)) for _ in range(2)]
        labels = np.vstack([rng.integers(0, vocab, size=(1, seq)) for _ in range(3)])
        loss = MedusaLoss(ignore_id=99, lambda_max=0.2, gamma=0.8)
        _, _, _, grad_heads = loss.compute(base_logits, head_logits, labels, progress=1.0)
        # Head 2's gradient is scaled by an extra factor of gamma relative to head 1.
        ratio = np.abs(grad_heads[1]).sum() / max(np.abs(grad_heads[0]).sum(), 1e-12)
        assert ratio < 1.0

    def test_zero_progress_disables_head_gradients(self):
        rng = np.random.default_rng(2)
        vocab, seq = 10, 4
        base_logits = rng.normal(size=(1, seq, vocab))
        head_logits = [rng.normal(size=(1, seq, vocab))]
        labels = np.vstack([rng.integers(0, vocab, size=(1, seq)) for _ in range(2)])
        loss = MedusaLoss(ignore_id=99)
        _, _, _, grad_heads = loss.compute(base_logits, head_logits, labels, progress=0.0)
        assert np.allclose(grad_heads[0], 0.0)

    def test_ignored_labels_produce_zero_grad_rows(self):
        rng = np.random.default_rng(3)
        vocab, seq = 8, 5
        base_logits = rng.normal(size=(1, seq, vocab))
        labels = np.array([[1, 2, 7, 7, 3]])
        loss = MedusaLoss(ignore_id=7)
        _, _, grad_base, _ = loss.compute(base_logits, [], labels, progress=1.0)
        assert np.allclose(grad_base[0, 2], 0.0)
        assert np.allclose(grad_base[0, 3], 0.0)
        assert not np.allclose(grad_base[0, 0], 0.0)


class TestPrepareInputs:
    def test_decoder_only_shapes(self, small_tokenizer):
        model = _tiny_model(small_tokenizer)
        trainer = MedusaTrainer(model, small_tokenizer, TrainerConfig(method="ours", max_seq_len=64))
        prompt = small_tokenizer.encode("Write a Verilog module named m.", add_bos=True)
        target = small_tokenizer.encode("[FRAG]module[FRAG] m;", add_eos=True)
        sample = TrainingSample(prompt_ids=prompt, target_ids=target)
        input_ids, encoder_ids, labels = trainer.prepare_inputs(sample)
        assert encoder_ids is None
        assert labels.shape == (model.num_medusa_heads + 1, input_ids.shape[0])

    def test_decoder_only_prompt_masked(self, small_tokenizer):
        model = _tiny_model(small_tokenizer)
        trainer = MedusaTrainer(model, small_tokenizer, TrainerConfig(method="ours", max_seq_len=64))
        prompt = small_tokenizer.encode("Write a Verilog module named m.", add_bos=True)
        target = small_tokenizer.encode("[FRAG]module[FRAG] m;", add_eos=True)
        _, _, labels = trainer.prepare_inputs(TrainingSample(prompt_ids=prompt, target_ids=target))
        ignore = small_tokenizer.vocab.ignore_id
        prompt_region = labels[0, : len(prompt) - 1]
        assert np.all(prompt_region == ignore)

    def test_encoder_decoder_shapes(self, small_tokenizer):
        model = _tiny_model(small_tokenizer, architecture="encoder-decoder")
        trainer = MedusaTrainer(model, small_tokenizer, TrainerConfig(method="ours", max_seq_len=64))
        prompt = small_tokenizer.encode("Write a Verilog module named m.", add_bos=True)
        target = small_tokenizer.encode("[FRAG]module[FRAG] m;", add_eos=True)
        input_ids, encoder_ids, labels = trainer.prepare_inputs(TrainingSample(prompt_ids=prompt, target_ids=target))
        assert encoder_ids is not None
        assert labels.shape[1] == input_ids.shape[0]

    def test_medusa_method_keeps_frag_free_labels_unmasked(self, small_tokenizer):
        model = _tiny_model(small_tokenizer)
        trainer = MedusaTrainer(model, small_tokenizer, TrainerConfig(method="medusa", max_seq_len=64))
        prompt = small_tokenizer.encode("Write a module.", add_bos=True)
        target = small_tokenizer.encode("module m; endmodule", add_eos=True)
        _, _, labels = trainer.prepare_inputs(TrainingSample(prompt_ids=prompt, target_ids=target))
        ignore = small_tokenizer.vocab.ignore_id
        # Without syntax enrichment the only ignores come from prompt masking
        # and pad back-fill, so the head rows retain ordinary supervision in
        # the code region.
        code_region = labels[1, len(prompt) :]
        assert np.any(code_region != ignore)

    def test_truncation_to_max_seq_len(self, small_tokenizer):
        model = _tiny_model(small_tokenizer)
        trainer = MedusaTrainer(model, small_tokenizer, TrainerConfig(method="ours", max_seq_len=16))
        prompt = small_tokenizer.encode("Write a Verilog module named m. " * 5, add_bos=True)
        target = small_tokenizer.encode("module m; endmodule " * 5, add_eos=True)
        input_ids, _, _ = trainer.prepare_inputs(TrainingSample(prompt_ids=prompt, target_ids=target))
        assert input_ids.shape[0] <= 16


class TestTrainingLoop:
    def _samples(self, tokenizer, method="ours", count=4):
        samples = []
        for i in range(count):
            prompt = tokenizer.encode(f"Write a Verilog module named m{i}.", add_bos=True)
            if method == "ours":
                code = f"[FRAG]module[FRAG] m{i}[FRAG]([FRAG]input[FRAG] clk[FRAG])[FRAG];[FRAG]endmodule[FRAG]"
            else:
                code = f"module m{i}(input clk); endmodule"
            samples.append(TrainingSample(prompt_ids=prompt, target_ids=tokenizer.encode(code, add_eos=True)))
        return samples

    def test_loss_decreases(self, small_tokenizer):
        # The *base* loss must fall; the total loss is not monotone because the
        # head-loss weight lambda grows from 0 to 0.2 during training (eq. 2).
        model = _tiny_model(small_tokenizer, num_heads=2)
        trainer = MedusaTrainer(model, small_tokenizer, TrainerConfig(epochs=8, method="ours", warmup_steps=2, max_seq_len=64))
        history = trainer.train(self._samples(small_tokenizer))
        first = np.mean(history.base_loss[:4])
        last = np.mean(history.base_loss[-4:])
        assert last < first

    def test_history_lengths_match(self, small_tokenizer):
        model = _tiny_model(small_tokenizer, num_heads=1)
        trainer = MedusaTrainer(model, small_tokenizer, TrainerConfig(epochs=2, method="medusa", max_seq_len=64))
        samples = self._samples(small_tokenizer, method="medusa")
        history = trainer.train(samples)
        assert len(history.steps) == len(history.total_loss) == len(history.base_loss)
        assert len(history.steps) == 2 * len(samples)

    def test_ntp_training_with_zero_heads(self, small_tokenizer):
        model = _tiny_model(small_tokenizer, num_heads=0)
        trainer = MedusaTrainer(model, small_tokenizer, TrainerConfig(epochs=2, method="ntp", max_seq_len=64))
        history = trainer.train(self._samples(small_tokenizer, method="ntp"))
        assert history.final_loss() > 0

    def test_empty_sample_list_raises(self, small_tokenizer):
        model = _tiny_model(small_tokenizer)
        trainer = MedusaTrainer(model, small_tokenizer, TrainerConfig())
        with pytest.raises(ValueError):
            trainer.train([])

    def test_training_modifies_parameters(self, small_tokenizer):
        model = _tiny_model(small_tokenizer, num_heads=1)
        before = [p.data.copy() for p in model.parameters()]
        trainer = MedusaTrainer(model, small_tokenizer, TrainerConfig(epochs=1, method="ours", max_seq_len=64))
        trainer.train(self._samples(small_tokenizer, count=2))
        after = list(model.parameters())
        changed = sum(not np.allclose(b, a.data) for b, a in zip(before, after))
        assert changed > len(after) // 2

    def test_encoder_decoder_training_runs(self, small_tokenizer):
        model = _tiny_model(small_tokenizer, num_heads=2, architecture="encoder-decoder")
        trainer = MedusaTrainer(model, small_tokenizer, TrainerConfig(epochs=1, method="ours", max_seq_len=64))
        history = trainer.train(self._samples(small_tokenizer, count=2))
        assert len(history.total_loss) == 2

"""Training objective and fine-tuning loop (paper Sec. IV-A.2, eq. 2).

The overall loss is::

    Loss = Loss_base + lambda * sum_i (Loss_head_i * gamma^i)

where ``lambda`` follows a sine growth schedule from 0 to ``lambda_max`` over
training and ``gamma`` is a per-head decay coefficient (0.8 in the paper).
Head parameters are trained at 4x the base learning rate (handled through
``Parameter.lr_scale`` set by :class:`repro.models.medusa.MedusaLM`).

:class:`MedusaTrainer` runs one loop for all three method variants, and a
variant is nothing but its targets and its head count: every sample's labels
are built by :func:`repro.core.labels.build_syntax_enriched_labels`.

* ``ours`` — ``[FRAG]``-annotated targets, so the head labels are
  syntax-enriched;
* ``medusa`` — the same targets without markers: enrichment finds no
  ``[FRAG]`` and leaves the shifted head labels as they are (original
  MEDUSA-2 joint training);
* ``ntp`` — no Medusa heads, base cross-entropy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.labels import build_syntax_enriched_labels
from repro.models.medusa import MedusaLM
from repro.nn.functional import cross_entropy, cross_entropy_grad
from repro.nn.optim import AdamW, WarmupCosineSchedule
from repro.tokenizer.bpe import BPETokenizer


@dataclass
class TrainingSample:
    """One instruction-tuning example.

    Attributes:
        prompt_ids: tokenized natural-language instruction (Alpaca input).
        target_ids: tokenized Verilog output, ending with EOS.  For the
            ``ours`` variant the code text contains ``[FRAG]`` markers.
        name: optional identifier (used in logs and tests).
    """

    prompt_ids: List[int]
    target_ids: List[int]
    name: str = ""


@dataclass
class MedusaLoss:
    """Computes the combined loss (eq. 2) and the per-head logit gradients."""

    ignore_id: int
    lambda_max: float = 0.2
    gamma: float = 0.8

    def lambda_at(self, progress: float) -> float:
        """Sine-growth schedule for the head-loss weight.

        ``progress`` runs from 0 to 1 over training; the weight rises as
        ``sin(pi/2 * progress)`` towards ``lambda_max``.
        """
        progress = min(max(progress, 0.0), 1.0)
        return self.lambda_max * math.sin(0.5 * math.pi * progress)

    def compute(
        self,
        base_logits: np.ndarray,
        head_logits: Sequence[np.ndarray],
        labels: np.ndarray,
        progress: float,
    ) -> Tuple[float, Dict[str, float], np.ndarray, List[np.ndarray]]:
        """Compute the loss and gradients with respect to all logits.

        Args:
            base_logits: ``(1, T, V)`` base-head logits.
            head_logits: list of ``(1, T, V)`` Medusa-head logits.
            labels: ``(num_heads + 1, T)`` label matrix (row 0 = base).
            progress: training progress in [0, 1] for the lambda schedule.

        Returns:
            ``(total_loss, parts, grad_base, grad_heads)`` where ``parts`` maps
            loss component names to values and the gradients have the same
            shapes as their logits.
        """
        _, seq_len, vocab = base_logits.shape
        lam = self.lambda_at(progress)
        parts: Dict[str, float] = {}

        flat_base = base_logits.reshape(seq_len, vocab)
        base_loss, base_probs, _ = cross_entropy(flat_base, labels[0], ignore_index=self.ignore_id)
        grad_base = cross_entropy_grad(base_probs, labels[0], ignore_index=self.ignore_id).reshape(base_logits.shape)
        parts["base"] = base_loss
        total = base_loss

        grad_heads: List[np.ndarray] = []
        for index, logits in enumerate(head_logits):
            weight = lam * (self.gamma ** (index + 1))
            flat = logits.reshape(seq_len, vocab)
            head_loss, head_probs, count = cross_entropy(flat, labels[index + 1], ignore_index=self.ignore_id)
            parts[f"head{index + 1}"] = head_loss
            total += weight * head_loss
            if count == 0 or weight == 0.0:
                grad_heads.append(np.zeros_like(logits))
                continue
            grad = cross_entropy_grad(head_probs, labels[index + 1], ignore_index=self.ignore_id) * weight
            grad_heads.append(grad.reshape(logits.shape))
        parts["lambda"] = lam
        return total, parts, grad_base, grad_heads


@dataclass
class TrainerConfig:
    """Hyper-parameters of the fine-tuning loop."""

    epochs: int = 2
    learning_rate: float = 5e-4
    warmup_steps: int = 40
    weight_decay: float = 0.01
    lambda_max: float = 0.2
    gamma: float = 0.8
    max_seq_len: int = 256
    shuffle_seed: int = 0
    log_every: int = 0


@dataclass
class TrainingHistory:
    """Loss curve recorded during training."""

    steps: List[int] = field(default_factory=list)
    total_loss: List[float] = field(default_factory=list)
    base_loss: List[float] = field(default_factory=list)

    def final_loss(self) -> float:
        return self.total_loss[-1] if self.total_loss else float("nan")


class MedusaTrainer:
    """Fine-tunes a :class:`MedusaLM` on instruction samples."""

    def __init__(self, model: MedusaLM, tokenizer: BPETokenizer, config: Optional[TrainerConfig] = None) -> None:
        self.model = model
        self.tokenizer = tokenizer
        self.config = config or TrainerConfig()
        vocab = tokenizer.vocab
        self.ignore_id = vocab.ignore_id
        self.pad_id = vocab.pad_id
        self.frag_id = vocab.frag_id
        self.bos_id = vocab.bos_id
        self.loss = MedusaLoss(ignore_id=self.ignore_id, lambda_max=self.config.lambda_max, gamma=self.config.gamma)

    # -- sample preparation ---------------------------------------------------

    def prepare_inputs(self, sample: TrainingSample) -> Tuple[np.ndarray, Optional[np.ndarray], np.ndarray]:
        """Build (decoder input ids, encoder ids, label matrix) for a sample.

        The label matrix is :func:`~repro.core.labels.build_syntax_enriched_labels`
        of the sample's base labels, with the prompt positions ignored; for a
        target without ``[FRAG]`` that is the plain shifted matrix.
        """
        max_len = min(self.config.max_seq_len, self.model.backbone.max_seq_len)
        if self.model.is_encoder_decoder:
            encoder_ids = np.asarray(sample.prompt_ids[: max_len], dtype=np.int64)
            target = sample.target_ids[: max_len - 1]
            input_ids = np.asarray([self.bos_id] + target[:-1] if len(target) > 1 else [self.bos_id], dtype=np.int64)
            base_label = np.asarray(target, dtype=np.int64)
            # Align label length with input length.
            if base_label.shape[0] != input_ids.shape[0]:
                base_label = base_label[: input_ids.shape[0]]
            prompt_mask = None
        else:
            full = list(sample.prompt_ids) + list(sample.target_ids)
            full = full[:max_len]
            input_ids = np.asarray(full[:-1], dtype=np.int64)
            base_label = np.asarray(full[1:], dtype=np.int64)
            encoder_ids = None
            prompt_len = max(len(sample.prompt_ids) - 1, 0)
            prompt_mask = np.zeros(base_label.shape[0], dtype=bool)
            prompt_mask[: min(prompt_len, base_label.shape[0])] = True

        labels = build_syntax_enriched_labels(
            base_label,
            self.model.num_medusa_heads,
            frag_id=self.frag_id,
            pad_id=self.pad_id,
            ignore_id=self.ignore_id,
            ignore_prompt_mask=prompt_mask,
        )
        return input_ids, encoder_ids, labels

    # -- training loop --------------------------------------------------------

    def train(self, samples: Sequence[TrainingSample]) -> TrainingHistory:
        """Run the fine-tuning loop over ``samples`` and return the loss curve."""
        if not samples:
            raise ValueError("no training samples provided")
        config = self.config
        total_steps = max(1, config.epochs * len(samples))
        schedule = WarmupCosineSchedule(config.learning_rate, config.warmup_steps, total_steps)
        optimizer = AdamW(self.model.parameters(), lr=config.learning_rate, weight_decay=config.weight_decay)
        history = TrainingHistory()
        rng = np.random.default_rng(config.shuffle_seed)

        step = 0
        for _epoch in range(config.epochs):
            order = rng.permutation(len(samples))
            for index in order:
                sample = samples[index]
                input_ids, encoder_ids, labels = self.prepare_inputs(sample)
                if input_ids.shape[0] < 2:
                    continue
                progress = step / total_steps
                base_logits, head_logits = self.model.forward(input_ids, encoder_ids)
                total, parts, grad_base, grad_heads = self.loss.compute(base_logits, head_logits, labels, progress)
                self.model.zero_grad()
                self.model.backward(grad_base, grad_heads)
                optimizer.step(lr=schedule.lr_at(step))
                optimizer.zero_grad()
                history.steps.append(step)
                history.total_loss.append(float(total))
                history.base_loss.append(float(parts["base"]))
                if config.log_every and step % config.log_every == 0:
                    print(f"step {step}: loss={total:.4f} base={parts['base']:.4f} lambda={parts['lambda']:.3f}")
                step += 1
        return history

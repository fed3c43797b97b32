"""End-to-end pipeline: corpus -> refinement -> tokenizer -> training -> decoding.

:class:`VerilogSpecPipeline` wires the whole reproduction together so that the
examples and the benchmark harness can, in a few lines, reproduce the paper's
experimental conditions: fine-tune the same backbone with the three training
methods (Ours / Medusa / NTP), on a chosen fraction of the corpus, and obtain a
decoder per method for quality and speed evaluation.

A method name is a :class:`~repro.core.decoding.DecodingStrategy` value, and
the strategy decides everything that differs between methods: whether the
model has Medusa heads, whether the targets carry ``[FRAG]`` markers, and how
the decoder speculates. Training itself is one path for all three.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.decoding import DecodingStrategy, SpeculativeDecoder
from repro.core.training import MedusaTrainer, TrainerConfig, TrainingSample
from repro.data.alpaca import AlpacaExample, subset_fractions
from repro.data.corpus import CorpusConfig, SyntheticVerilogCorpus
from repro.data.refinement import refine_corpus
from repro.models.medusa import MedusaLM
from repro.nn.transformer import DecoderOnlyTransformer, EncoderDecoderTransformer
from repro.tokenizer.bpe import BPETokenizer


@dataclass
class PipelineConfig:
    """Configuration of the end-to-end pipeline.

    The defaults are sized for test/bench runs that finish in seconds; the
    examples use larger values.
    """

    # Corpus.
    corpus_items: int = 120
    corpus_seed: int = 0
    # Tokenizer.
    vocab_size: int = 800
    # Model.
    architecture: str = "decoder-only"  # or "encoder-decoder"
    model_dim: int = 64
    num_layers: int = 2
    num_attention_heads: int = 4
    num_medusa_heads: int = 10
    max_seq_len: int = 320
    model_seed: int = 0
    # Training.
    epochs: int = 2
    learning_rate: float = 5e-4
    warmup_steps: int = 40
    max_train_seq_len: int = 256
    # Data fraction used for training (1.0 = full corpus).
    data_fraction: float = 1.0

    def __post_init__(self) -> None:
        if self.architecture not in ("decoder-only", "encoder-decoder"):
            raise ValueError(f"architecture must be 'decoder-only' or 'encoder-decoder', got {self.architecture!r}")


@dataclass
class PipelineArtifacts:
    """Everything produced by :meth:`VerilogSpecPipeline.prepare`."""

    examples: List[AlpacaExample] = field(default_factory=list)
    tokenizer: Optional[BPETokenizer] = None


class VerilogSpecPipeline:
    """Builds and trains the three model variants the paper compares."""

    def __init__(self, config: Optional[PipelineConfig] = None) -> None:
        self.config = config or PipelineConfig()
        self.tokenizer: Optional[BPETokenizer] = None
        self.examples: List[AlpacaExample] = []
        self.models: Dict[str, MedusaLM] = {}
        self.histories: Dict[str, object] = {}

    # ------------------------------------------------------------------ #
    # Data and tokenizer
    # ------------------------------------------------------------------ #

    def prepare(self) -> PipelineArtifacts:
        """Generate the corpus, refine it and train the tokenizer."""
        corpus = SyntheticVerilogCorpus(
            CorpusConfig(num_items=self.config.corpus_items, seed=self.config.corpus_seed)
        )
        examples = refine_corpus(corpus.generate()).examples
        if self.config.data_fraction < 1.0:
            subsets = subset_fractions(examples, fractions=(self.config.data_fraction,), seed=self.config.corpus_seed)
            examples = subsets[self.config.data_fraction]
        self.examples = examples

        tokenizer = BPETokenizer()
        corpus_texts: List[str] = []
        for example in examples:
            corpus_texts.append(example.prompt_text())
            corpus_texts.append(example.output_with_frag)
        tokenizer.train(corpus_texts, vocab_size=self.config.vocab_size)
        self.tokenizer = tokenizer
        return PipelineArtifacts(examples=examples, tokenizer=tokenizer)

    # ------------------------------------------------------------------ #
    # Models
    # ------------------------------------------------------------------ #

    def build_model(self, method: str) -> MedusaLM:
        """Instantiate a fresh model for ``method`` ("ours"/"medusa"/"ntp").

        NTP's model has no Medusa heads; the other two have
        ``num_medusa_heads``. An unknown name raises ``ValueError``.
        """
        if self.tokenizer is None:
            raise RuntimeError("call prepare() before build_model()")
        strategy = DecodingStrategy(method)
        vocab_size = self.tokenizer.vocab_size
        config = self.config
        if config.architecture == "encoder-decoder":
            backbone = EncoderDecoderTransformer(
                vocab_size=vocab_size,
                dim=config.model_dim,
                num_encoder_layers=config.num_layers,
                num_decoder_layers=config.num_layers,
                num_heads=config.num_attention_heads,
                max_seq_len=config.max_seq_len,
                seed=config.model_seed,
            )
        else:
            backbone = DecoderOnlyTransformer(
                vocab_size=vocab_size,
                dim=config.model_dim,
                num_layers=config.num_layers,
                num_heads=config.num_attention_heads,
                max_seq_len=config.max_seq_len,
                seed=config.model_seed,
            )
        num_heads = 0 if strategy is DecodingStrategy.NTP else config.num_medusa_heads
        return MedusaLM(backbone, vocab_size=vocab_size, num_medusa_heads=num_heads, seed=config.model_seed)

    def training_samples(self, method: str) -> List[TrainingSample]:
        """Tokenize the Alpaca examples for ``method``.

        The ``ours`` variant trains on ``[FRAG]``-annotated code; the baselines
        train on the identical data without the markers (paper Sec. IV-A.1).
        These targets are the only training difference between Ours and
        Medusa.
        """
        if self.tokenizer is None:
            raise RuntimeError("call prepare() before training_samples()")
        with_frag = DecodingStrategy(method) is DecodingStrategy.OURS
        samples: List[TrainingSample] = []
        for example in self.examples:
            target_text = example.output_with_frag if with_frag else example.output
            prompt_ids = self.tokenizer.encode_prompt(example.prompt_text())
            target_ids = self.tokenizer.encode(target_text, add_eos=True)
            samples.append(TrainingSample(prompt_ids=prompt_ids, target_ids=target_ids, name=example.name))
        return samples

    def train_method(self, method: str, trainer_config: Optional[TrainerConfig] = None) -> MedusaLM:
        """Build and fine-tune the model for one method; caches the result.

        ``method`` fixes the model's heads (:meth:`build_model`) and the
        targets (:meth:`training_samples`); the trainer is the same for all
        three. An unknown name raises ``ValueError``.
        """
        model = self.build_model(method)
        config = trainer_config or TrainerConfig(
            epochs=self.config.epochs,
            learning_rate=self.config.learning_rate,
            warmup_steps=self.config.warmup_steps,
            max_seq_len=self.config.max_train_seq_len,
        )
        trainer = MedusaTrainer(model, self.tokenizer, config)
        history = trainer.train(self.training_samples(method))
        self.models[method] = model
        self.histories[method] = history
        return model

    def train_all(self, methods: Sequence[str] = ("ours", "medusa", "ntp")) -> Dict[str, MedusaLM]:
        """Train every method variant and return the model dictionary."""
        for method in methods:
            self.train_method(method)
        return self.models

    # ------------------------------------------------------------------ #
    # Decoding
    # ------------------------------------------------------------------ #

    def decoder_for(self, method: str, num_candidates: int = 3) -> SpeculativeDecoder:
        """Return a :class:`SpeculativeDecoder` for a trained method.

        Args:
            method: ``"ours"``, ``"medusa"`` or ``"ntp"`` (must be trained).
            num_candidates: Speculative candidates verified per step.

        Returns:
            A decoder wrapping the trained model for ``method``.
        """
        if method not in self.models:
            raise KeyError(f"method {method!r} has not been trained yet")
        return SpeculativeDecoder(
            self.models[method],
            self.tokenizer,
            strategy=DecodingStrategy(method),
            num_candidates=num_candidates,
        )

    def engine_for(
        self,
        method: str,
        num_candidates: int = 3,
        scheduler_config=None,
        prefix_cache=None,
        kv_memory: str = "paged",
        kv_block_size: int = 16,
        kv_pool_blocks=None,
        clock=None,
    ):
        """Return a continuous-batching :class:`~repro.serving.ServingEngine`.

        The engine serves many concurrent requests through one shared batched
        forward per step and commits token sequences identical to
        :meth:`decoder_for`'s sequential ``generate``.

        Args:
            method: ``"ours"``, ``"medusa"`` or ``"ntp"`` (must be trained).
            num_candidates: Speculative candidates verified per step.
            scheduler_config: Optional
                :class:`~repro.serving.SchedulerConfig` with admission knobs.
            prefix_cache: Optional :class:`~repro.serving.PrefixCache`
                enabling cross-request prompt-prefix reuse (outputs stay
                token-identical; only prefill work changes).
            kv_memory: Must be ``"paged"``, the engine's only K/V storage
                (see ``docs/kv-memory.md``); anything else raises
                ``ValueError``.
            kv_block_size: Tokens per physical block of the K/V pool.
            kv_pool_blocks: K/V pool capacity in blocks (``None`` sizes it
                from the scheduler budgets).
            clock: Optional time source for engine timestamps (the traffic
                harness passes a :class:`~repro.traffic.clock.SimulatedClock`
                for deterministic trace replay; ``None`` = wall clock).

        Returns:
            A fresh engine serving ``decoder_for(method, num_candidates)``.
        """
        from repro.serving import ServingEngine

        # The keyword survives only because benchmarks/perf/workloads.py:385
        # passes kv_memory="paged"; the engine has no other K/V storage.
        if kv_memory != "paged":
            raise ValueError(f"kv_memory must be 'paged' (the engine's only K/V storage), got {kv_memory!r}")
        return ServingEngine(
            self.decoder_for(method, num_candidates),
            scheduler_config=scheduler_config,
            prefix_cache=prefix_cache,
            kv_block_size=kv_block_size,
            kv_pool_blocks=kv_pool_blocks,
            clock=clock,
        )

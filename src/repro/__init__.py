"""Reproduction of speculative Verilog decoding with fragment-integrity truncation.

A scale-reduced, numpy-only reproduction of the paper's stack: synthetic
corpus construction, BPE tokenization, Medusa-style multi-head fine-tuning,
KV-cached speculative decoding with typical acceptance and fragment-integrity
truncation, a continuous-batching multi-request serving engine
(:mod:`repro.serving`), and the paper's quality/speed evaluation benches.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]

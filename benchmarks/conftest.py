"""Shared fixtures for the benchmark harness.

All Table/Figure benches share one trained pipeline (the CodeLlama-style
decoder-only backbone fine-tuned with the three methods) so the expensive
training cost is paid once per benchmark session.

Three sizes are supported via environment variables:

* default — finishes in a few minutes, the configuration the acceptance
  numbers are quoted at;
* ``REPRO_BENCH_FULL=1`` — larger configuration (longer training, more
  benchmark problems, more samples per prompt) closer to the paper's protocol;
* ``REPRO_BENCH_SMOKE=1`` — tiny corpus and few steps, for CI smoke jobs that
  must finish in minutes; shape assertions that need a well-trained model are
  relaxed in this mode.

Every bench emits a machine-readable JSON summary via :func:`emit_bench_json`
(default directory ``benchmarks/results/``, override with
``REPRO_BENCH_JSON_DIR``) so CI can upload the numbers as artifacts and future
PRs can track regressions.
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path

import pytest

from repro.core.pipeline import PipelineConfig, VerilogSpecPipeline
from repro.evalbench.problems import ProblemSuite
from repro.evalbench.rtllm import rtllm_suite
from repro.evalbench.vgen import vgen_suite

FULL = os.environ.get("REPRO_BENCH_FULL", "0") == "1"
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "0") == "1" and not FULL

#: Number of benchmark problems per suite and samples per prompt used by the
#: quality benches (Table I, Fig. 1, Fig. 6).
if SMOKE:
    PROBLEMS_PER_SUITE = 2
    SAMPLES_PER_PROMPT = 1
    MAX_NEW_TOKENS = 48
    SPEED_PROMPTS = 2
elif FULL:
    PROBLEMS_PER_SUITE = 10
    SAMPLES_PER_PROMPT = 10
    MAX_NEW_TOKENS = 160
    SPEED_PROMPTS = 20
else:
    PROBLEMS_PER_SUITE = 5
    SAMPLES_PER_PROMPT = 3
    MAX_NEW_TOKENS = 110
    SPEED_PROMPTS = 6


def pass_k_values(wanted, samples: int) -> tuple:
    """The ``k`` of ``wanted`` that ``samples`` samples per prompt can estimate.

    pass@k is undefined for ``k > n`` (``repro.evalbench.passk`` raises), so a
    quality bench requests, and emits, only these columns.
    """
    return tuple(k for k in wanted if k <= samples)


def default_pipeline_config(**overrides) -> PipelineConfig:
    """The decoder-only (CodeLlama-style) configuration used by most benches."""
    if SMOKE:
        config = PipelineConfig(
            corpus_items=60,
            vocab_size=500,
            architecture="decoder-only",
            model_dim=32,
            num_layers=2,
            num_attention_heads=4,
            num_medusa_heads=4,
            max_seq_len=384,
            epochs=1,
            max_train_seq_len=160,
        )
    else:
        config = PipelineConfig(
            corpus_items=240 if FULL else 160,
            vocab_size=800 if FULL else 700,
            architecture="decoder-only",
            model_dim=64 if FULL else 48,
            num_layers=2,
            num_attention_heads=4,
            num_medusa_heads=8,
            max_seq_len=384,
            epochs=8 if FULL else 3,
            max_train_seq_len=256,
        )
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


def emit_bench_json(name: str, payload: dict) -> Path:
    """Write one bench's results as JSON for artifact upload / regression tracking."""
    out_dir = Path(os.environ.get("REPRO_BENCH_JSON_DIR", Path(__file__).parent / "results"))
    out_dir.mkdir(parents=True, exist_ok=True)
    mode = "smoke" if SMOKE else ("full" if FULL else "default")
    document = {
        "bench": name,
        "mode": mode,
        "python": platform.python_version(),
        "results": payload,
    }
    path = out_dir / f"{name}.json"
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path


@pytest.fixture(scope="session")
def trained_pipeline() -> VerilogSpecPipeline:
    """Decoder-only pipeline with all three methods trained (shared)."""
    pipeline = VerilogSpecPipeline(default_pipeline_config())
    pipeline.prepare()
    pipeline.train_all()
    return pipeline


@pytest.fixture(scope="session")
def rtllm_subset() -> ProblemSuite:
    suite = rtllm_suite()
    return ProblemSuite(name=suite.name, problems=list(suite)[:PROBLEMS_PER_SUITE])


@pytest.fixture(scope="session")
def vgen_subset() -> ProblemSuite:
    suite = vgen_suite()
    return ProblemSuite(name=suite.name, problems=list(suite)[:PROBLEMS_PER_SUITE])

"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import pytest

from repro.core.pipeline import PipelineConfig, VerilogSpecPipeline


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--runslow",
        action="store_true",
        default=False,
        help="run slow tests (full-size property sweeps; CI's coverage job passes this)",
    )


def pytest_collection_modifyitems(config: pytest.Config, items) -> None:
    """Deselect ``slow``-marked tests unless explicitly requested.

    The property suites run abbreviated case counts by default so the local
    feedback loop stays fast; CI's coverage job runs them full-size with
    ``--runslow`` (or ``REPRO_RUN_SLOW=1``, which also scales the case
    counts — see ``tests/proptest.py``).
    """
    if config.getoption("--runslow") or os.environ.get("REPRO_RUN_SLOW", "") == "1":
        return
    skip_slow = pytest.mark.skip(reason="slow test: pass --runslow (or REPRO_RUN_SLOW=1) to run")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)


def tiny_pipeline_config() -> PipelineConfig:
    """The canonical tiny pipeline configuration shared by the test fixture,
    the golden-token fixtures and ``scripts/regen_golden.py`` — the goldens
    are only meaningful if all three build the identical pipeline."""
    return PipelineConfig(
        corpus_items=36,
        vocab_size=400,
        model_dim=32,
        num_layers=1,
        num_attention_heads=2,
        num_medusa_heads=4,
        max_seq_len=288,
        epochs=1,
        max_train_seq_len=160,
    )


SAMPLE_DESIGN = """module data_register (
    input clk,
    input [3:0] data_in,
    output reg [3:0] data_out
);
    always @(posedge clk) begin
        data_out <= data_in;
    end
endmodule
"""

SAMPLE_COUNTER = """module counter #(parameter WIDTH = 8) (
    input clk,
    input rst,
    input en,
    output reg [WIDTH-1:0] count
);
    always @(posedge clk or posedge rst) begin
        if (rst) count <= 0;
        else if (en) count <= count + 1'b1;
    end
endmodule
"""


@pytest.fixture(scope="session")
def sample_design() -> str:
    """The paper's running data_register example."""
    return SAMPLE_DESIGN


@pytest.fixture(scope="session")
def sample_counter() -> str:
    """A parameterised counter used across parser/simulator tests."""
    return SAMPLE_COUNTER


@pytest.fixture(scope="session")
def tiny_pipeline() -> VerilogSpecPipeline:
    """A very small end-to-end pipeline with all three methods trained.

    Session-scoped because training, although tiny, takes a few seconds; the
    integration tests share a single instance and must not mutate it.
    """
    pipeline = VerilogSpecPipeline(tiny_pipeline_config())
    pipeline.prepare()
    pipeline.train_all()
    return pipeline


@pytest.fixture(scope="session")
def encdec_pipeline() -> VerilogSpecPipeline:
    """The tiny pipeline's encoder-decoder (CodeT5p-style) twin, all three methods trained."""
    config = PipelineConfig(
        corpus_items=30,
        vocab_size=400,
        architecture="encoder-decoder",
        model_dim=32,
        num_layers=1,
        num_attention_heads=2,
        num_medusa_heads=4,
        max_seq_len=288,
        epochs=1,
        max_train_seq_len=160,
    )
    pipeline = VerilogSpecPipeline(config)
    pipeline.prepare()
    pipeline.train_all()
    return pipeline

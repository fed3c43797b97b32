"""Shared fixtures for the paper benches.

Every Table/Figure bench reads one model family: the memorisation-scale
quality oracle (:class:`repro.evalbench.oracle.QualityOracle`). It trains a
48-dim decoder-only model per method on six RTLLM problems' own prompts and
references, once per session (about 7 s for the three methods at 40 epochs).
That is the regime in which every method writes correct designs, so the
tables tell the methods apart instead of printing zeros.

Every bench emits a machine-readable JSON summary via :func:`emit_bench_json`
(default directory ``benchmarks/results/``, override with
``REPRO_BENCH_JSON_DIR``) so CI can upload the numbers as artifacts.
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path

import pytest

from repro.evalbench.oracle import QualityOracle

METHODS = ("ntp", "medusa", "ours")

#: Per-output generation budget: the oracle's own grading budget, which every
#: method's longest design fits.
MAX_NEW_TOKENS = 400


def emit_bench_json(name: str, payload: dict) -> Path:
    """Write one bench's results as JSON for artifact upload / regression tracking."""
    out_dir = Path(os.environ.get("REPRO_BENCH_JSON_DIR", Path(__file__).parent / "results"))
    out_dir.mkdir(parents=True, exist_ok=True)
    document = {"bench": name, "python": platform.python_version(), "results": payload}
    path = out_dir / f"{name}.json"
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path


@pytest.fixture(scope="session")
def oracle() -> QualityOracle:
    """The quality oracle, shared by every bench of the session."""
    return QualityOracle()

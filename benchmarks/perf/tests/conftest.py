"""Tests of the benchmark harness itself.  Run explicitly:

    python -m pytest -q benchmarks/perf/tests

Tier-1's ``testpaths`` does not include this directory.
"""

import sys
from pathlib import Path

import pytest

PERF_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(PERF_DIR))
sys.path.insert(0, str(PERF_DIR.parents[1] / "src"))


@pytest.fixture(scope="session")
def out_dir(tmp_path_factory):
    """One output directory per session, so the --quick model is trained once."""
    return tmp_path_factory.mktemp("perf-out")


@pytest.fixture(scope="session")
def quick_pipeline_path(out_dir):
    import run

    path, _ = run.ensure_trained_pipeline(out_dir, quick=True)
    return path

"""--quick smoke of every workload, untraced and traced, through the command line."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import config

RUN = Path(__file__).resolve().parents[1] / "run.py"


def _run(workload, trace, out_dir):
    command = [sys.executable, str(RUN), "--workload", workload, "--seed", "1", "--seconds", "1"]
    command += ["--trace", str(trace), "--quick", "--out", str(out_dir)]
    return subprocess.run(command, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(config.WORKLOADS))
def test_quick_run_meets_the_output_contract(workload, trace, out_dir, quick_pipeline_path):
    completed = _run(workload, trace, out_dir)
    assert completed.returncode == 0, completed.stdout[-2000:] + completed.stderr[-2000:]
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = config.PER_LAYER if trace else config.END_TO_END
    assert list(result["metrics"]) == [metric.name for metric in expected]
    assert all(result["metrics"][m.name]["unit"] == m.unit for m in expected)
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
    assert "NOT comparable" in completed.stdout
    document = json.loads((out_dir / f"{workload}-seed1-trace{trace}.json").read_text())
    assert document["comparable"] is False and document["passes"]["count"] >= 1
    if trace:
        assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
        assert (out_dir / f"{workload}-seed1.trace.json").exists()


def test_traced_runs_show_that_the_workloads_discriminate(out_dir, quick_pipeline_path):
    def layers(workload):
        completed = _run(workload, 1, out_dir)
        assert completed.returncode == 0, completed.stderr[-2000:]
        return {k: v["value"] for k, v in json.loads(completed.stdout.strip().splitlines()[-1])["metrics"].items()}

    decode, passk, grade = layers("table2_decode"), layers("passk_constrained"), layers("grade_sweep")
    assert decode["sim.self_share"] == 0 and decode["verilog.parse_calls"] == 0
    assert decode["constrained.mask_calls"] == 0 and passk["constrained.mask_calls"] > 0
    assert decode["models.head_eval_calls"] > 0 and decode["models.head_eval_calls.ntp"] == 0
    assert grade["nn.forward_calls"] == 0 and grade["sim.self_share"] > 0.3


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark, the command fails and prints no result."""
    repo = RUN.parents[2]
    shutil.copy(repo / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        RUN.parent, tmp_path / "benchmarks" / "perf", ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache")
    )
    command = [sys.executable, "benchmarks/perf/run.py", "--workload", "grade_sweep", "--seed", "0", "--seconds", "1", "--trace", "0"]
    completed = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert completed.returncode != 0
    assert "{" not in completed.stdout

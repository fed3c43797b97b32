"""``scripts/ab_bench.py``'s pair summary over two synthetic result directories."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "ab_bench.py"
METRICS = [("rate_per_s", "higher"), ("op_p75_ms", "lower")]


@pytest.fixture(scope="module")
def ab_bench():
    spec = importlib.util.spec_from_file_location("ab_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_results(directory: Path, workload: str, values: dict) -> None:
    """One ``run.py``-style untraced result file per seed; ``values`` maps metric -> per-seed list."""
    directory.mkdir(exist_ok=True)
    seeds = len(next(iter(values.values())))
    for seed in range(seeds):
        document = {"workload": workload, "seed": seed, "end_to_end": {m: v[seed] for m, v in values.items()}}
        (directory / f"{workload}-seed{seed}-trace0.json").write_text(json.dumps(document))
    # Traced runs of the same seeds are not part of the comparison.
    (directory / f"{workload}-seed0-trace1.json").write_text(json.dumps({"workload": workload, "seed": 0}))


def summary(ab_bench, tmp_path, base: dict, change: dict, workload="table2_decode"):
    write_results(tmp_path / "base", workload, base)
    write_results(tmp_path / "change", workload, change)
    lines = ab_bench.pair_summary(tmp_path / "base", tmp_path / "change", METRICS)
    return {line.split()[1]: line for line in lines}


def test_gain_needs_nine_in_ten_wins_and_a_gap_beyond_the_base_iqr(ab_bench, tmp_path):
    base = {"rate_per_s": [100 + s for s in range(10)], "op_p75_ms": [20.0] * 10}
    # rate: change ahead on every seed by 20, base IQR 5.5; latency: 9 pairs lower by 2, one tie.
    change = {"rate_per_s": [120 + s for s in range(10)], "op_p75_ms": [18.0] * 9 + [20.0]}
    lines = summary(ab_bench, tmp_path, base, change)
    assert lines["rate_per_s"].endswith("  gain")
    assert "change wins 10/10" in lines["rate_per_s"]
    assert "base 104.5 [101.75, 107.25]" in lines["rate_per_s"]
    assert "change 124.5 [121.75, 127.25]" in lines["rate_per_s"]
    # Lower is better, ties count for neither side: 9/10 wins and a gap of 2 over an IQR of 0.
    assert "change wins 9/10" in lines["op_p75_ms"]
    assert lines["op_p75_ms"].endswith("  gain")


def test_no_gain_below_nine_in_ten_or_within_the_base_iqr(ab_bench, tmp_path):
    base = {"rate_per_s": [100.0, 200.0] * 5, "op_p75_ms": [20.0] * 10}
    # rate: wins 10/10 by 10, but the base's runs spread 100 wide; latency: 8/10 wins only.
    change = {"rate_per_s": [110.0, 210.0] * 5, "op_p75_ms": [10.0] * 8 + [30.0] * 2}
    lines = summary(ab_bench, tmp_path, base, change)
    assert "change wins 10/10" in lines["rate_per_s"]
    assert not lines["rate_per_s"].endswith("gain")
    assert "change wins 8/10" in lines["op_p75_ms"]
    assert not lines["op_p75_ms"].endswith("gain")


def test_a_worse_change_wins_nothing(ab_bench, tmp_path):
    base = {"rate_per_s": [100.0] * 4, "op_p75_ms": [20.0] * 4}
    change = {"rate_per_s": [90.0] * 4, "op_p75_ms": [25.0] * 4}
    lines = summary(ab_bench, tmp_path, base, change)
    assert all("change wins 0/4" in line and not line.endswith("gain") for line in lines.values())


def test_only_workloads_and_seeds_run_on_both_sides(ab_bench, tmp_path):
    write_results(tmp_path / "base", "table2_decode", {"rate_per_s": [1.0, 2.0, 3.0], "op_p75_ms": [1.0] * 3})
    write_results(tmp_path / "change", "table2_decode", {"rate_per_s": [2.0, 3.0], "op_p75_ms": [1.0] * 2})
    write_results(tmp_path / "change", "grade_sweep", {"rate_per_s": [1.0], "op_p75_ms": [1.0]})
    lines = ab_bench.pair_summary(tmp_path / "base", tmp_path / "change", METRICS)
    assert [line.split()[:2] for line in lines] == [["table2_decode", "rate_per_s"], ["table2_decode", "op_p75_ms"]]
    assert "change wins 2/2" in lines[0]

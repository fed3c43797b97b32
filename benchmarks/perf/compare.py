"""``run.py compare A B`` and ``run.py check``.

``compare`` takes two directories of result files (each written by a series of
``run.py --workload ... --out DIR`` runs, typically ten seeds per workload)
and prints, for every end-to-end metric and every workload headline number,
both medians with their quartiles, how much worse B is than A, the bound, and
a verdict: ``ok``, ``regressed`` (worse by more than the bound) or
``unresolved`` (the run-to-run spread is wider than the bound, so the
comparison cannot tell; not applied to ``config.SPREAD_NOT_TESTED``, whose
spread the driver does not test either).  Exact counts must be equal seed by
seed.

``check`` validates ``BENCHMARK.json`` against the driver's limits and against
``config.py``, which it is rendered from.
"""

from __future__ import annotations

import json
import re
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import config
from timing import spread

REPO_ROOT = Path(__file__).resolve().parents[2]
BENCHMARK_JSON = REPO_ROOT / "BENCHMARK.json"

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# --------------------------------------------------------------------------- #
# compare
# --------------------------------------------------------------------------- #


def load_result_set(directory: Path) -> Dict[str, Dict[int, Dict[str, Any]]]:
    """``{workload: {seed: result document}}`` of the untraced runs under ``directory``."""
    results: Dict[str, Dict[int, Dict[str, Any]]] = {}
    for path in sorted(directory.glob("*-trace0.json")):
        document = json.loads(path.read_text())
        results.setdefault(document["workload"], {})[document["seed"]] = document
    return results


def gated_metrics(workload: str) -> List[Tuple[str, str, str, float]]:
    """``(section, name, better, bound)`` of everything ``compare`` judges on ``workload``."""
    gated = [("end_to_end", m.name, m.better, float(m.bound)) for m in config.END_TO_END]
    better = {m.name: m.better for m in config.PER_LAYER}
    for name, (workloads, bound) in config.DETAIL_BOUNDS.items():
        if workload in workloads:
            gated.append(("detail", name, better[name], bound))
    return gated


def worsening(first: float, second: float, better: str) -> float:
    """Share of ``first`` by which ``second`` is worse (negative when it is better)."""
    if first == 0:
        return 0.0
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def judge(
    first: Sequence[float], second: Sequence[float], better: str, bound: float, paired_equal: Optional[bool] = None
) -> Tuple[str, float, float]:
    """Verdict, worsening of the median, and the wider of the two spreads.

    ``bound == 0`` marks an exact count: the verdict is ``ok`` only when the
    two sets agree seed by seed (``paired_equal``).
    """
    worse = worsening(statistics.median(first), statistics.median(second), better)
    widest = max(spread(first), spread(second))
    if bound == 0.0:
        return ("ok" if paired_equal else "regressed"), worse, widest
    if widest > bound:
        return "unresolved", worse, widest
    return ("regressed" if worse > bound else "ok"), worse, widest


def _quartiles(values: Sequence[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.5g}"
    low, middle, high = statistics.quantiles(values, n=4)
    return f"{middle:.5g} [{low:.5g}, {high:.5g}]"


def compare(dir_a: Path, dir_b: Path) -> int:
    set_a, set_b = load_result_set(dir_a), load_result_set(dir_b)
    bad = 0
    print(f"{'workload':<18} {'metric':<28} {'A median [q1, q3]':<32} {'B median [q1, q3]':<32} {'worse':>8} {'bound':>6}  verdict")
    for workload in config.WORKLOADS:
        runs_a, runs_b = set_a.get(workload), set_b.get(workload)
        if not runs_a or not runs_b:
            print(f"{workload:<18} (missing from {'A' if not runs_a else 'B'})")
            bad += 1
            continue
        if any(not d["comparable"] for d in list(runs_a.values()) + list(runs_b.values())):
            print(f"{workload:<18} (--quick results are not comparable)")
            bad += 1
            continue
        shared = sorted(set(runs_a) & set(runs_b))
        for section, name, better, bound in gated_metrics(workload):
            first = [runs_a[seed][section][name] for seed in sorted(runs_a)]
            second = [runs_b[seed][section][name] for seed in sorted(runs_b)]
            equal = bool(shared) and all(runs_a[seed][section][name] == runs_b[seed][section][name] for seed in shared)
            verdict, worse, _ = judge(first, second, better, bound, equal)
            if verdict == "unresolved" and name in config.SPREAD_NOT_TESTED:
                verdict = "regressed" if worse > bound else "ok"
            bad += verdict != "ok"
            shown = "exact" if bound == 0.0 else f"{bound:.2f}"
            print(
                f"{workload:<18} {name:<28} {_quartiles(first):<32} {_quartiles(second):<32} "
                f"{100 * worse:>7.1f}% {shown:>6}  {verdict}"
            )
        same_outputs = all(runs_a[seed]["outputs_sha256"] == runs_b[seed]["outputs_sha256"] for seed in shared)
        failed = sum(d["ops_failed"] for d in list(runs_a.values()) + list(runs_b.values()))
        print(f"{workload:<18} outputs_sha256 {'identical' if same_outputs else 'DIFFER'} on {len(shared)} shared seeds; ops_failed {failed}")
        bad += (not same_outputs) + (failed > 0)
    return 1 if bad else 0


# --------------------------------------------------------------------------- #
# check
# --------------------------------------------------------------------------- #


def benchmark_document() -> Dict[str, Any]:
    """``BENCHMARK.json`` as ``config.py`` defines it."""
    return {
        "command": ["python3", "benchmarks/perf/run.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": config.RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in config.WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound} for m in config.END_TO_END
        ],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better} for m in config.PER_LAYER],
    }


def problems_of(document: Dict[str, Any]) -> List[str]:
    """Everything about a BENCHMARK.json document that the driver would refuse."""
    problems: List[str] = []
    expected_keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(document) != expected_keys:
        problems.append(f"top-level keys are {sorted(document)}, expected {sorted(expected_keys)}")
        return problems
    if not 2 <= len(document["workloads"]) <= 8:
        problems.append("there must be 2 to 8 workloads")
    if not 1 <= len(document["end_to_end"]) <= 16:
        problems.append("there must be 1 to 16 end-to-end metrics")
    if not 1 <= len(document["per_layer"]) <= 128:
        problems.append("there must be 1 to 128 per-layer metrics")
    if not (isinstance(document["run_seconds"], int) and 1 <= document["run_seconds"] <= 60):
        problems.append("run_seconds must be a whole number from 1 to 60")
    names: List[str] = []
    for workload in document["workloads"]:
        if set(workload) != {"name", "why"}:
            problems.append(f"workload {workload.get('name')!r} must have exactly a name and a why")
            continue
        names.append(workload["name"])
        why = workload["why"]
        if not why or len(why) > 200 or "\n" in why:
            problems.append(f"workload {workload['name']!r}: why must be one line of at most 200 characters")
    for section, keys in (("end_to_end", {"name", "unit", "better", "bound"}), ("per_layer", {"name", "unit", "better"})):
        for metric in document[section]:
            if set(metric) != keys:
                problems.append(f"{section} metric {metric.get('name')!r} must have exactly the keys {sorted(keys)}")
                continue
            names.append(metric["name"])
            if not _UNIT.match(metric["unit"]):
                problems.append(f"{metric['name']}: unit {metric['unit']!r} is not allowed")
            if metric["better"] not in ("lower", "higher"):
                problems.append(f"{metric['name']}: better must be 'lower' or 'higher'")
            if section == "end_to_end" and not (
                isinstance(metric["bound"], (int, float)) and 0 < metric["bound"] <= 0.25
            ):
                problems.append(f"{metric['name']}: bound must be in (0, 0.25]")
    for name in names:
        if not _NAME.match(name):
            problems.append(f"name {name!r} must match [A-Za-z0-9][A-Za-z0-9_.-]* and be at most 64 characters")
    duplicates = sorted({name for name in names if names.count(name) > 1})
    if duplicates:
        problems.append(f"names used more than once: {duplicates}")
    setup = [m for m in document["end_to_end"] if m.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" or setup[0].get("better") != "lower":
        problems.append("end_to_end must hold setup_s with unit s and better lower")
    if len(json.dumps(document)) > 64 * 1024:
        problems.append("the file is larger than 64 KiB")
    return problems


def check() -> int:
    problems: List[str] = []
    if not BENCHMARK_JSON.exists():
        problems.append(f"{BENCHMARK_JSON} does not exist")
    else:
        document = json.loads(BENCHMARK_JSON.read_text())
        problems += problems_of(document)
        if document != benchmark_document():
            problems.append("BENCHMARK.json differs from config.py (regenerate: run.py check --write)")
    for name, (workloads, _) in config.DETAIL_BOUNDS.items():
        if name not in {m.name for m in config.PER_LAYER} or not set(workloads) <= set(config.WORKLOADS):
            problems.append(f"DETAIL_BOUNDS entry {name!r} names an unknown metric or workload")
    if set(config.WORKLOAD_SEMANTICS) != set(config.WORKLOADS):
        problems.append("WORKLOAD_SEMANTICS must describe every workload")
    for problem in problems:
        print(f"check: {problem}")
    if not problems:
        counts = (len(config.WORKLOADS), len(config.END_TO_END), len(config.PER_LAYER))
        print("check: BENCHMARK.json ok (%d workloads, %d end-to-end, %d per-layer metrics)" % counts)
    return 1 if problems else 0


def main(argv: Sequence[str]) -> int:
    if argv[0] == "check":
        if argv[1:] == ["--write"]:
            BENCHMARK_JSON.write_text(json.dumps(benchmark_document(), indent=2) + "\n")
        elif argv[1:]:
            print("usage: run.py check [--write]", file=sys.stderr)
            return 2
        return check()
    if len(argv) != 3:
        print("usage: run.py compare DIR_A DIR_B", file=sys.stderr)
        return 2
    return compare(Path(argv[1]), Path(argv[2]))

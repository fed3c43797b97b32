#!/usr/bin/env python
"""A/B the working tree against a git ref on the repo benchmark, alternated seed pairs.

    python scripts/ab_bench.py --base HEAD~1 --workload serve_unique --pairs 10
    python scripts/ab_bench.py --base main --workload serve_shared --workload table2_decode --pairs 5

Exports ``--base`` into a temporary directory (``git archive``; the repository
and its ``.git`` are not touched), then for seeds ``0 .. pairs-1`` and every
``--workload`` runs

    python3 benchmarks/perf/run.py --workload W --seed S --trace 0 --out DIR

(the harness's own run length) once in the export and once in the working
tree, alternating which side goes first (even seeds base first, odd seeds the
working tree), each side into its own result directory.  It then prints, per
workload and end-to-end metric, how many seed pairs the working tree won
(ties count for neither side) and each side's median [q1, q3], marked
``gain`` when the working tree won at least 90 % of the pairs and its median
is better than the base's by more than the base's interquartile range.  Last
it prints ``run.py compare BASE_DIR CHANGE_DIR`` and exits with its status
(``compare`` counts a workload that was not run as a failure, so 0 means all
six were run and every row is ``ok``).  Every number comes from the frozen
harness's result files.  Result directories (and each side's trained-model
cache, about 30 s to build on first use) are kept under the printed temporary
directory; set ``TMPDIR`` to choose where.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

REPO = Path(__file__).resolve().parent.parent
RUN = Path("benchmarks") / "perf" / "run.py"
#: A claimed gain must win this share of the seed pairs.
WIN_SHARE = 0.9


def export_ref(ref: str, target: Path) -> None:
    """Unpack the committed tree of ``ref`` into ``target``."""
    target.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", ref], check=True, capture_output=True)
    subprocess.run(["tar", "-x", "-C", str(target)], input=archive.stdout, check=True)


def run_once(checkout: Path, workload: str, seed: int, out: Path) -> str:
    """One untraced benchmark run in ``checkout``; returns a one-line summary of its end-to-end metrics."""
    command = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed), "--trace", "0", "--out", str(out)]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{' '.join(command)} (in {checkout}) exited with {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    metrics = "  ".join(f"{name} {entry['value']:.4g}" for name, entry in result["metrics"].items())
    return f"{metrics}  failed {result['failed']}/{result['attempted']}"


def _end_to_end(directory: Path) -> Dict[str, Dict[int, Dict[str, float]]]:
    """``{workload: {seed: end-to-end metrics}}`` of the untraced result files under ``directory``."""
    results: Dict[str, Dict[int, Dict[str, float]]] = {}
    for path in sorted(directory.glob("*-trace0.json")):
        document = json.loads(path.read_text())
        results.setdefault(document["workload"], {})[document["seed"]] = document["end_to_end"]
    return results


def _quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` the way ``run.py compare`` computes them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def pair_summary(base_dir: Path, change_dir: Path, metrics: Sequence[Tuple[str, str]]) -> List[str]:
    """One line per workload run on both sides and per ``(metric, better)``: pairs won, both quartile sets, ``gain``."""
    base, change = _end_to_end(base_dir), _end_to_end(change_dir)
    lines = []
    for workload in sorted(set(base) & set(change)):
        seeds = sorted(set(base[workload]) & set(change[workload]))
        if not seeds:
            continue
        for name, better in metrics:
            sign = 1.0 if better == "higher" else -1.0
            first = [base[workload][seed][name] for seed in seeds]
            second = [change[workload][seed][name] for seed in seeds]
            wins = sum(sign * (b - a) > 0 for a, b in zip(first, second))
            (q1, median, q3), (c1, c_median, c3) = _quartiles(first), _quartiles(second)
            gain = wins >= WIN_SHARE * len(seeds) and sign * (c_median - median) > q3 - q1
            lines.append(
                f"{workload:<18} {name:<12} change wins {wins}/{len(seeds)}  "
                f"base {median:.5g} [{q1:.5g}, {q3:.5g}]  change {c_median:.5g} [{c1:.5g}, {c3:.5g}]"
                + ("  gain" if gain else "")
            )
    return lines


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", required=True, help="git ref the working tree is compared against")
    parser.add_argument("--workload", action="append", required=True, help="benchmark workload (repeatable)")
    parser.add_argument("--pairs", type=int, required=True, help="seed pairs per workload (seeds 0 .. pairs-1)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    root = Path(tempfile.mkdtemp(prefix="ab_bench-"))
    base_tree = root / "base-tree"
    sides = {"base": (base_tree, root / "base"), "change": (REPO, root / "change")}
    print(f"results under {root}")
    try:
        export_ref(args.base, base_tree)
        for seed in range(args.pairs):
            order = ("base", "change") if seed % 2 == 0 else ("change", "base")
            for workload in args.workload:
                for side in order:
                    checkout, out = sides[side]
                    summary = run_once(checkout, workload, seed, out)
                    print(f"{workload} seed {seed} {side:6s} {summary}", flush=True)
    finally:
        shutil.rmtree(base_tree, ignore_errors=True)
    declared = json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]
    for line in pair_summary(sides["base"][1], sides["change"][1], [(m["name"], m["better"]) for m in declared]):
        print(line)
    compare = [sys.executable, str(RUN), "compare", str(sides["base"][1]), str(sides["change"][1])]
    return subprocess.run(compare, cwd=REPO).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

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
working tree), each side into its own result directory.  It then prints ``run.py compare BASE_DIR CHANGE_DIR``
and exits with its status (``compare`` counts a workload that was not run as a
failure, so 0 means all six were run and every row is ``ok``).  It only
invokes the frozen harness; every number and every verdict is the harness's
own.  Result directories (and each side's trained-model cache, about 30 s to
build on first use) are kept under the printed temporary directory; set
``TMPDIR`` to choose where.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Sequence

REPO = Path(__file__).resolve().parent.parent
RUN = Path("benchmarks") / "perf" / "run.py"


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
    compare = [sys.executable, str(RUN), "compare", str(sides["base"][1]), str(sides["change"][1])]
    return subprocess.run(compare, cwd=REPO).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

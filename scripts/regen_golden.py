#!/usr/bin/env python
"""Regenerate the golden regression fixtures under ``tests/golden/``.

Two fixture families are maintained here:

* **Token goldens** (``ours/medusa/ntp.json``) pin exact prompt -> output
  token sequences for all three decoding methods under greedy decoding and
  seeded sampling, so a decoding refactor that silently changes committed
  tokens fails loudly in ``tests/test_golden.py`` instead of drifting.
* **Simulation goldens** (``sim_reference_designs.json``) freeze the
  interpreter's observable outcome (result fields, ``$display`` lines, final
  signal state) for every reference design + testbench; both simulation
  backends must reproduce them in ``tests/test_sim_golden.py``.

The pipeline is built from the same canonical configuration the test fixture
uses (``tests/conftest.py::tiny_pipeline_config``); run this script — and
commit the diff — only when an intentional behaviour change invalidates the
fixtures:

    PYTHONPATH=src python scripts/regen_golden.py            # everything
    PYTHONPATH=src python scripts/regen_golden.py --only sim # simulation only
    PYTHONPATH=src python scripts/regen_golden.py --check    # exit 1 if a file would change

``--check`` regenerates into memory and compares with the committed files
without writing: a behaviour change that moves a fixture, or a fixture edited
by hand, fails it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "tests"))

from conftest import tiny_pipeline_config  # noqa: E402 (tests/ on path)
from test_sim_golden import capture_sim_case, golden_problems  # noqa: E402

from repro.core.pipeline import VerilogSpecPipeline  # noqa: E402
from repro.models.generation import GenerationConfig  # noqa: E402

GOLDEN_DIR = REPO / "tests" / "golden"
NUM_PROMPTS = 2
METHODS = ("ours", "medusa", "ntp")


def golden_configs() -> list:
    """The decoding configurations pinned by the fixtures."""
    return [
        GenerationConfig.greedy_config(24),
        GenerationConfig.sampling_config(0.8, 20, seed=1),
    ]


def config_to_dict(config: GenerationConfig) -> dict:
    # ``top_k`` is always 0 (there is no top-k truncation) and ``greedy`` is
    # implied by the temperature; both keys stay so the files regenerate
    # byte for byte (tests/test_golden.py::config_from_dict checks them).
    return {
        "max_new_tokens": config.max_new_tokens,
        "temperature": config.temperature,
        "top_k": 0,
        "greedy": config.greedy,
        "seed": config.seed,
    }


def sim_goldens() -> dict:
    """Interpreter runs of every reference design + testbench, by fixture path."""
    cases = [
        capture_sim_case(name, problem.reference, problem.testbench, backend="interpreter")
        for name, problem in golden_problems()
    ]
    fixture = {
        "description": (
            "Interpreter-backend simulation outcomes for every reference design; "
            "both backends must reproduce these (tests/test_sim_golden.py)."
        ),
        "cases": cases,
    }
    return {GOLDEN_DIR / "sim_reference_designs.json": json.dumps(fixture, indent=2) + "\n"}


def token_goldens() -> dict:
    """Prompt -> output token fixtures of every method, by fixture path."""
    pipeline = VerilogSpecPipeline(tiny_pipeline_config())
    pipeline.prepare()
    pipeline.train_all()
    prompts = [example.prompt_text() for example in pipeline.examples][:NUM_PROMPTS]

    files = {}
    for method in METHODS:
        decoder = pipeline.decoder_for(method)
        cases = []
        for config in golden_configs():
            outputs = [decoder.generate_from_text(prompt, config).token_ids for prompt in prompts]
            cases.append({"config": config_to_dict(config), "outputs": outputs})
        fixture = {
            "method": method,
            "pipeline": "tests/conftest.py::tiny_pipeline_config",
            "prompts": prompts,
            "cases": cases,
        }
        files[GOLDEN_DIR / f"{method}.json"] = json.dumps(fixture, indent=2) + "\n"
    return files


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--only",
        choices=("tokens", "sim", "all"),
        default="all",
        help="which fixture family to regenerate (default: all)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="write nothing; exit 1 if a regenerated fixture differs from the committed file",
    )
    args = parser.parse_args()
    files = {}
    if args.only in ("tokens", "all"):
        files.update(token_goldens())
    if args.only in ("sim", "all"):
        files.update(sim_goldens())
    stale = []
    for path, text in files.items():
        name = path.relative_to(REPO)
        if args.check:
            if not path.is_file() or path.read_text() != text:
                stale.append(name)
            continue
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(text)
        print(f"wrote {name}")
    if stale:
        print("golden fixtures differ from a regeneration: " + ", ".join(map(str, stale)), file=sys.stderr)
        return 1
    if args.check:
        print(f"{len(files)} golden fixtures regenerate byte for byte")
    return 0


if __name__ == "__main__":
    sys.exit(main())

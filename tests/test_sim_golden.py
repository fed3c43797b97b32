"""Golden simulation fixtures for every reference design + testbench.

``tests/golden/sim_reference_designs.json`` freezes, for each problem in the
RTLLM-style and VGen-style suites, the interpreter's observable simulation
outcome: result fields, every ``$display`` line, and the final value of every
signal.  Both backends — the interpreter oracle and the compiled fast path —
must reproduce the frozen record exactly, so a semantics regression in either
one (or an unintentional change to the reference designs/testbenches) fails
loudly here instead of drifting.

Regenerate after an *intentional* change with::

    PYTHONPATH=src python scripts/regen_golden.py --only sim
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict

import pytest

from repro.evalbench.rtllm import rtllm_suite
from repro.evalbench.vgen import vgen_suite
from repro.sim.compiled import CompiledSimulator
from repro.sim.rng import VerilogRng
from repro.sim.simulator import Simulator
from repro.verilog.ast_nodes import SourceFile
from repro.verilog.syntax import check_syntax

from test_sim_differential import operator_mutants

GOLDEN_PATH = Path(__file__).parent / "golden" / "sim_reference_designs.json"

#: Seed pinned into the fixtures; both backends must draw the same stream.
GOLDEN_SEED = VerilogRng.DEFAULT_SEED

BACKEND_CLASSES = {"interpreter": Simulator, "compiled": CompiledSimulator}


def golden_problems():
    """Every reference design + testbench frozen by the fixture, by name."""
    problems = []
    for suite in (rtllm_suite(), vgen_suite()):
        for problem in suite:
            problems.append((f"{suite.name}/{problem.name}", problem))
    return problems


def capture_sim_case(name: str, design: str, testbench: str, backend: str = "interpreter") -> Dict:
    """Run one reference design and serialise its observable outcome."""
    combined = design.rstrip() + "\n\n" + testbench
    simulator = BACKEND_CLASSES[backend](
        combined, max_time=200_000, max_events=200_000, rng=VerilogRng(GOLDEN_SEED)
    )
    return _observed(name, simulator)


def _observed(name: str, simulator: Simulator) -> Dict:
    result = simulator.run()
    return {
        "name": name,
        "finished": result.finished,
        "time": result.time,
        "cycles": result.cycles,
        "error": result.error,
        "display_lines": result.display_lines,
        "final_state": simulator.final_state(),
    }


@pytest.fixture(scope="module")
def golden_cases() -> Dict[str, Dict]:
    assert GOLDEN_PATH.exists(), (
        "missing golden fixture; run: PYTHONPATH=src python scripts/regen_golden.py --only sim"
    )
    fixture = json.loads(GOLDEN_PATH.read_text())
    return {case["name"]: case for case in fixture["cases"]}


def test_fixture_covers_every_reference_problem(golden_cases) -> None:
    expected = {name for name, _problem in golden_problems()}
    assert set(golden_cases) == expected


@pytest.mark.parametrize("backend", sorted(BACKEND_CLASSES))
def test_backends_reproduce_golden_simulations(backend: str, golden_cases) -> None:
    mismatches = []
    for name, problem in golden_problems():
        frozen = golden_cases.get(name)
        if frozen is None:
            mismatches.append(f"{name}: missing from fixture")
            continue
        live = capture_sim_case(name, problem.reference, problem.testbench, backend=backend)
        for key in ("finished", "time", "cycles", "error", "display_lines", "final_state"):
            if live[key] != frozen[key]:
                mismatches.append(f"{name} [{backend}]: {key} diverged")
    assert not mismatches, "\n".join(mismatches)


def test_rebound_simulator_reproduces_golden_simulations(golden_cases) -> None:
    """Each reference, bound into a compiled simulator that has just run a mutant on the same testbench."""
    mismatches = []
    for name, problem in golden_problems():
        testbench = check_syntax(problem.testbench).ast
        mutant = operator_mutants(problem.reference, 1)[0]
        simulator = CompiledSimulator(
            SourceFile(modules=check_syntax(mutant).ast.modules + testbench.modules),
            max_time=200_000,
            max_events=200_000,
            rng=VerilogRng(GOLDEN_SEED),
        )
        simulator.run()
        simulator.bind(SourceFile(modules=check_syntax(problem.reference).ast.modules + testbench.modules))
        live = _observed(name, simulator)
        for key in ("finished", "time", "cycles", "error", "display_lines", "final_state"):
            if live[key] != golden_cases[name][key]:
                mismatches.append(f"{name} [rebound]: {key} diverged")
    assert not mismatches, "\n".join(mismatches)


def test_golden_simulations_all_pass() -> None:
    """Every frozen reference run must actually PASS its own testbench —
    a reference that fails its testbench would make functional pass@k
    grading meaningless."""
    fixture = json.loads(GOLDEN_PATH.read_text())
    failing = [
        case["name"]
        for case in fixture["cases"]
        if not case["finished"] or "TEST PASSED" not in "\n".join(case["display_lines"])
    ]
    assert not failing, f"reference designs failing their own testbench: {failing}"

"""Testbench execution helper.

The paper grades generated designs by compiling them together with a
benchmark-provided testbench under iverilog and checking the simulation
output.  :func:`run_testbench` reproduces that flow on top of
:class:`repro.sim.simulator.Simulator`: the design's and the testbench's
modules form one compile unit, elaborated with the testbench as the top
module and simulated, and the ``$display`` output is scanned for pass/fail
markers and mismatch counters.  Each text is parsed once
(:func:`repro.verilog.syntax.check_syntax` memoises) and the simulator is
handed the parsed modules, never a concatenated string.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.verilog.ast_nodes import SourceFile
from repro.verilog.syntax import SyntaxCheckResult, check_syntax
from repro.sim.compiled import CompiledSimulator, simulate_batch
from repro.sim.rng import VerilogRng
from repro.sim.simulator import SimulationError, SimulationResult, Simulator

#: Selectable simulation backends.  The interpreter is the semantics oracle;
#: the compiled backend is the fast path, asserted cycle-identical to it by
#: ``tests/test_sim_differential.py`` and ``tests/test_sim_golden.py``.
BACKENDS = {"interpreter": Simulator, "compiled": CompiledSimulator}

#: Backend used when callers do not pick one explicitly.  Compiled, because
#: the differential/golden harness gates every release of this default.
DEFAULT_BACKEND = "compiled"

#: Markers our benchmark testbenches emit.  Generated designs never emit these
#: themselves, so their presence/absence in the captured output is a reliable
#: pass/fail signal (the same convention RTLLM/VerilogEval testbenches use).
PASS_PATTERNS = (re.compile(r"TEST\s+PASSED", re.IGNORECASE), re.compile(r"all\s+tests\s+passed", re.IGNORECASE))
FAIL_PATTERNS = (
    re.compile(r"TEST\s+FAILED", re.IGNORECASE),
    re.compile(r"MISMATCH", re.IGNORECASE),
    re.compile(r"\bERROR\b", re.IGNORECASE),
)

#: What building a simulator raises for a compile unit iverilog would not compile.
_ELABORATION_ERRORS = (SimulationError, RecursionError, ValueError)


@dataclass
class TestbenchResult:
    """Outcome of running a design against a testbench."""

    compiled: bool
    simulated: bool
    passed: bool
    output: str = ""
    errors: List[str] = field(default_factory=list)
    simulation_time: int = 0


def run_testbench(
    design_source: str,
    testbench_source: str,
    max_time: int = 200_000,
    max_events: int = 200_000,
    backend: str = DEFAULT_BACKEND,
    random_seed: int = VerilogRng.DEFAULT_SEED,
) -> TestbenchResult:
    """Simulate ``design_source`` together with ``testbench_source``.

    Args:
        design_source: the (possibly model-generated) design under test.
        testbench_source: the benchmark testbench that instantiates the design;
            its last module is the top module.
        max_time: simulation time limit.
        max_events: event-count limit (guards against runaway generated code).
        backend: ``"interpreter"`` or ``"compiled"`` (see :data:`BACKENDS`).
        random_seed: seed of the ``$random`` stream; the same seed produces
            the same draw sequence on every backend.

    Returns:
        A :class:`TestbenchResult`.  ``compiled`` mirrors iverilog's compile
        step (both sources must parse and elaborate); ``passed`` is True only
        if the simulation ran and the output contains a pass marker and no
        fail marker.
    """
    simulator_cls = simulator_class(backend)
    tb_check = check_syntax(testbench_source)
    return _simulate_each([None], [design_source], tb_check, simulator_cls, max_time, max_events, random_seed)[0]


def run_testbench_batch(
    design_sources: Sequence[str],
    testbench_source: str,
    max_time: int = 200_000,
    max_events: int = 200_000,
    backend: str = DEFAULT_BACKEND,
    random_seed: int = VerilogRng.DEFAULT_SEED,
) -> List[TestbenchResult]:
    """Grade many candidate designs against one shared testbench.

    With the compiled backend, candidates that fit the vectorizable subset
    (purely combinational, vector-style testbench) are simulated as one NumPy
    sweep over the candidate axis (:func:`repro.sim.compiled.simulate_batch`).
    Every other candidate goes through the loop :func:`run_testbench` runs:
    one simulator for the whole call, whose testbench is elaborated once,
    with each candidate bound in by :meth:`~repro.sim.simulator.Simulator.bind`.
    Every path returns what :func:`run_testbench` returns for that candidate,
    error text included, so callers never need to know which path ran.
    """
    simulator_cls = simulator_class(backend)
    if not design_sources:
        return []
    results: List[Optional[TestbenchResult]] = [None] * len(design_sources)
    tb_check = check_syntax(testbench_source)
    if simulator_cls is CompiledSimulator and tb_check.ok:
        eligible = [index for index, source in enumerate(design_sources) if check_syntax(source).ok]
        batch = simulate_batch(
            [design_sources[index] for index in eligible], testbench_source, max_time=max_time, max_events=max_events
        )
        for index, sim_result in zip(eligible, batch or ()):
            if sim_result is not None:
                results[index] = _result_from_simulation(sim_result)
    return _simulate_each(results, design_sources, tb_check, simulator_cls, max_time, max_events, random_seed)


def _simulate_each(
    results: List[Optional[TestbenchResult]],
    design_sources: Sequence[str],
    tb_check: SyntaxCheckResult,
    simulator_cls: type,
    max_time: int,
    max_events: int,
    random_seed: int,
) -> List[TestbenchResult]:
    """Fill each missing result by simulating its design on one ``simulator_cls``, and return ``results``.

    The simulator is built by the first candidate that elaborates, and each
    later candidate is bound into it.  A candidate that fails before then
    gets the error construction raised, and the next one tries construction
    again.
    """
    simulator: Optional[Simulator] = None
    for index, source in enumerate(design_sources):
        if results[index] is not None:
            continue
        options = dict(max_time=max_time, max_events=max_events, rng=VerilogRng(random_seed))
        simulator, errors = elaborate_with_testbench(check_syntax(source), tb_check, simulator, simulator_cls, **options)
        results[index] = _not_compiled(errors) if errors else _result_from_simulation(simulator.run())
    return results  # type: ignore[return-value]


def elaborate_with_testbench(
    design_check: SyntaxCheckResult,
    tb_check: SyntaxCheckResult,
    simulator: Optional[Simulator] = None,
    simulator_cls: type = Simulator,
    **options,
) -> Tuple[Optional[Simulator], List[str]]:
    """Decide whether a design and its testbench compile together, as iverilog's compile step would.

    Both sources must parse, and their modules must elaborate as one compile
    unit whose top module is the testbench's last module.  The design is
    bound into ``simulator`` when one is given
    (:meth:`~repro.sim.simulator.Simulator.bind`); otherwise a
    ``simulator_cls`` is built with ``options``.  Returns the simulator and no
    errors, or ``simulator`` as given and the parse or elaboration errors.
    """
    for check in (design_check, tb_check):
        if not check.ok:
            return simulator, check.errors
    compile_unit = SourceFile(modules=design_check.ast.modules + tb_check.ast.modules)
    try:
        if simulator is None:
            return simulator_cls(compile_unit, top=tb_check.module_names[-1], **options), []
        simulator.bind(compile_unit)
        return simulator, []
    except _ELABORATION_ERRORS as exc:
        return simulator, [str(exc)]


def simulator_class(backend: str) -> type:
    """The simulator class of a :data:`BACKENDS` name; an unknown name raises ``ValueError``."""
    try:
        return BACKENDS[backend]
    except KeyError:
        raise ValueError(f"unknown simulation backend {backend!r} (choose from {sorted(BACKENDS)})") from None


def _not_compiled(errors: List[str]) -> TestbenchResult:
    return TestbenchResult(compiled=False, simulated=False, passed=False, errors=errors)


def _result_from_simulation(result: SimulationResult) -> TestbenchResult:
    if result.error is not None:
        return TestbenchResult(
            compiled=True,
            simulated=False,
            passed=False,
            output=result.output,
            errors=[result.error],
            simulation_time=result.time,
        )
    return TestbenchResult(
        compiled=True,
        simulated=True,
        passed=_judge_output(result.output),
        output=result.output,
        simulation_time=result.time,
    )


def _judge_output(output: str) -> bool:
    """Decide pass/fail from the captured ``$display`` output."""
    has_pass = any(pattern.search(output) for pattern in PASS_PATTERNS)
    has_fail = any(pattern.search(output) for pattern in FAIL_PATTERNS)
    return has_pass and not has_fail

"""Functional-correctness grading.

A design is functionally correct when its outputs match the expected results
for all testbench-provided stimuli (paper Sec. IV-B.2).  The self-checking
testbenches in :mod:`repro.evalbench.designs` encode the expected values and
print ``TEST PASSED`` only when every check succeeds, so functional grading
reduces to running the simulation and inspecting its output.  The same run
gives the syntax verdict: :attr:`~repro.sim.testbench.TestbenchResult.compiled`
says whether the design and the testbench compiled together.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.evalbench.problems import Problem
from repro.sim.testbench import DEFAULT_BACKEND, TestbenchResult, run_testbench, run_testbench_batch


def check_design_functional(
    design: str, problem: Problem, max_time: int = 100_000, backend: str = DEFAULT_BACKEND
) -> TestbenchResult:
    """Simulate ``design`` against ``problem``'s testbench and grade the output."""
    return run_testbench(design, problem.testbench, max_time=max_time, backend=backend)


def check_designs_functional(
    designs: Sequence[str], problem: Problem, max_time: int = 100_000, backend: str = DEFAULT_BACKEND
) -> List[TestbenchResult]:
    """Grade many candidate designs against one problem's testbench.

    The compiled backend (:func:`repro.sim.testbench.run_testbench_batch`)
    batches eligible candidates into a single vectorized sweep and binds every
    other candidate into one simulator whose testbench is compiled once;
    these are the levers for grading large sample sets quickly.  Results are
    identical to per-design :func:`check_design_functional` calls.
    """
    return run_testbench_batch(list(designs), problem.testbench, max_time=max_time, backend=backend)

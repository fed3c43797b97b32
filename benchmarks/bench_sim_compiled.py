"""Simulation backends — interpreter vs compiled vs batched-compiled.

The compiled backend (`repro.sim.compiled`) exists so functional grading can
keep up with decode at eval scale: the tree-walking interpreter steps the AST
once per testbench event, while the compiled backend executes per-process
closures over slotted state and skips continuous assigns whose dirty bitset
did not change.  This bench pins the contract from three angles:

* **verdict identity** — every reference design graded by both backends (and
  by the batched sweep) must produce the same pass/fail verdict;
* **scalar throughput** — on an event-loop-bound kernel (clocked counter
  feeding a two-level continuous-assign network, the shape where dirty-set
  scheduling matters) the compiled backend must deliver >= 5x the
  interpreter's events/sec;
* **batched throughput** — sweeping many candidates over one testbench as a
  vectorized NumPy program must beat scalar compiled grading per design;
* **shared testbench** — on a sequential testbench, which the sweep does not
  take, the batch binds every candidate into one compiled simulator; its
  verdicts must equal per-design grading (its designs/sec is reported, not
  asserted).

Results land in ``sim_compiled.json`` via :func:`emit_bench_json` for the CI
artifact job.
"""

from __future__ import annotations

import time

import pytest

from repro.evalbench.functional import check_design_functional, check_designs_functional
from repro.evalbench.rtllm import rtllm_suite
from repro.evalbench.vgen import vgen_suite
from repro.sim.compiled import CompiledSimulator
from repro.sim.rng import VerilogRng
from repro.sim.simulator import Simulator
from repro.verilog.syntax import check_syntax

from conftest import emit_bench_json

#: Required scalar advantage on the events/sec kernel (acceptance criterion).
MIN_SPEEDUP = 5.0

KERNEL_WIRES = 24
KERNEL_RUN_TIME = 10_000
BATCH_CANDIDATES = 24


def kernel_source(nwires: int, run_time: int) -> str:
    """Clocked counter feeding a two-level continuous-assign network.

    Only the counter registers change per edge, so the interpreter re-evaluates
    all ``nwires`` assigns in every settle iteration while the compiled backend
    touches just the level whose dependency mask went dirty — the workload the
    dirty-set scheduler is built for.
    """
    half = nwires // 2
    decls = "\n".join(f"  wire [15:0] d{i};" for i in range(nwires))
    level1 = "\n".join(
        f"  assign d{i} = (count >> {i % 12}) ^ (acc + 16'd{i});" for i in range(half)
    )
    level2 = "\n".join(
        f"  assign d{i} = d{i - half} + (d{(i - half + 1) % half} >> 1);"
        for i in range(half, nwires)
    )
    return f"""
module counter(input clk, input rst, output reg [15:0] count, output reg [15:0] acc, output [15:0] status);
{decls}
{level1}
{level2}
  assign status = d0 ^ d{nwires - 1};
  always @(posedge clk) begin
    if (rst) begin count <= 16'd0; acc <= 16'd0; end
    else begin count <= count + 16'd1; acc <= acc + (count ^ (count >> 2)) + 16'd3; end
  end
endmodule
module tb;
  reg clk; reg rst;
  wire [15:0] count; wire [15:0] acc; wire [15:0] status;
  counter dut(.clk(clk), .rst(rst), .count(count), .acc(acc), .status(status));
  initial begin clk = 0; rst = 1; #12 rst = 0; #{run_time}; $display("count=%d status=%d", count, status); $finish; end
  always #5 clk = ~clk;
endmodule
"""


def _timed_run(simulator_cls, source: str):
    start = time.perf_counter()
    simulator = simulator_cls(
        source, max_time=2_000_000, max_events=2_000_000, rng=VerilogRng(VerilogRng.DEFAULT_SEED)
    )
    result = simulator.run()
    elapsed = time.perf_counter() - start
    assert result.finished and result.error is None, result.error
    return elapsed, result


def _reference_problems():
    return [
        (f"{suite.name}/{problem.name}", problem)
        for suite in (rtllm_suite(), vgen_suite())
        for problem in suite
    ]


def _mutate(design: str, index: int) -> str:
    """Deterministic single-operator mutations for not-all-passing candidates."""
    mutations = [("+", "-"), ("&", "|"), ("^", "&"), ("~", " ")]
    old, new = mutations[index % len(mutations)]
    return design.replace(old, new, 1)


@pytest.mark.benchmark(group="sim-compiled")
def test_sim_compiled_speed_and_verdicts(benchmark):
    """Events/sec kernel, reference-suite verdict identity and the batched sweep."""
    source = kernel_source(KERNEL_WIRES, KERNEL_RUN_TIME)
    # Warm parser/import caches outside the timed region.
    _timed_run(CompiledSimulator, source)

    interp_time, interp_result = _timed_run(Simulator, source)
    compiled_time, compiled_result = _timed_run(CompiledSimulator, source)
    assert compiled_result.display_lines == interp_result.display_lines
    assert compiled_result.cycles == interp_result.cycles

    interp_eps = interp_result.cycles / interp_time
    compiled_eps = compiled_result.cycles / compiled_time
    speedup = compiled_eps / interp_eps

    # Verdict identity across every reference design.
    problems = _reference_problems()
    verdicts = {}
    mismatched = []
    for name, problem in problems:
        by_backend = {
            backend: check_design_functional(problem.reference, problem, backend=backend).passed
            for backend in ("interpreter", "compiled")
        }
        verdicts[name] = by_backend["compiled"]
        if by_backend["interpreter"] != by_backend["compiled"]:
            mismatched.append(name)
    assert not mismatched, f"backends disagree on: {mismatched}"
    assert all(verdicts.values()), "reference designs must pass their own testbenches"

    # Batched sweep: many candidates, one testbench, identical verdicts.
    batch_problem = next(problem for name, problem in problems if name.endswith("adder_8bit"))
    candidates = [
        batch_problem.reference if i % 3 == 0 else _mutate(batch_problem.reference, i)
        for i in range(BATCH_CANDIDATES)
    ]
    start = time.perf_counter()
    scalar_results = [
        check_design_functional(candidate, batch_problem, backend="compiled")
        for candidate in candidates
    ]
    scalar_time = time.perf_counter() - start
    start = time.perf_counter()
    batch_results = check_designs_functional(candidates, batch_problem, backend="compiled")
    batch_time = time.perf_counter() - start
    assert [r.passed for r in batch_results] == [r.passed for r in scalar_results]
    batch_speedup = scalar_time / batch_time if batch_time > 0 else float("inf")

    # Shared testbench: one simulator, the testbench compiled once, each design bound in.
    shared_problem = next(problem for name, problem in problems if name.endswith("up_counter_4"))
    shared_candidates = [
        shared_problem.reference if i % 3 == 0 else _mutate(shared_problem.reference, i)
        for i in range(BATCH_CANDIDATES)
    ]
    # Parse every text first (check_syntax memoises), so both timings are simulation only.
    assert all(check_syntax(text).ok for text in shared_candidates + [shared_problem.testbench])
    start = time.perf_counter()
    per_design_results = [
        check_design_functional(candidate, shared_problem, backend="compiled")
        for candidate in shared_candidates
    ]
    per_design_time = time.perf_counter() - start
    start = time.perf_counter()
    shared_results = check_designs_functional(shared_candidates, shared_problem, backend="compiled")
    shared_time = time.perf_counter() - start
    assert [r.passed for r in shared_results] == [r.passed for r in per_design_results]

    print("\n=== Simulation backends (counter + wire-network kernel) ===")
    print(f"interpreter: {interp_eps:>10,.0f} events/sec  ({interp_time:.3f}s)")
    print(f"compiled:    {compiled_eps:>10,.0f} events/sec  ({compiled_time:.3f}s)  {speedup:.2f}x")
    print(
        f"batched:     {len(candidates) / batch_time:>10,.1f} designs/sec  "
        f"(scalar {len(candidates) / scalar_time:,.1f}/sec)  {batch_speedup:.2f}x"
    )
    print(
        f"shared tb:   {len(shared_candidates) / shared_time:>10,.1f} designs/sec  "
        f"(per design {len(shared_candidates) / per_design_time:,.1f}/sec)  {per_design_time / shared_time:.2f}x"
    )

    emit_bench_json(
        "sim_compiled",
        {
            "kernel": {"wires": KERNEL_WIRES, "run_time": KERNEL_RUN_TIME},
            "interpreter_events_per_sec": interp_eps,
            "compiled_events_per_sec": compiled_eps,
            "compiled_speedup": speedup,
            "batch_candidates": len(candidates),
            "batch_designs_per_sec": len(candidates) / batch_time,
            "scalar_designs_per_sec": len(candidates) / scalar_time,
            "batch_speedup": batch_speedup,
            "shared_testbench": {
                "problem": shared_problem.name,
                "candidates": len(shared_candidates),
                "per_design_designs_per_sec": len(shared_candidates) / per_design_time,
                "shared_designs_per_sec": len(shared_candidates) / shared_time,
                "speedup": per_design_time / shared_time,
            },
            "reference_problems": len(problems),
            "verdict_mismatches": len(mismatched),
        },
    )

    benchmark.pedantic(lambda: _timed_run(CompiledSimulator, source), rounds=1, iterations=1)

    assert speedup >= MIN_SPEEDUP, (
        f"compiled backend is only {speedup:.2f}x the interpreter's events/sec "
        f"(required >= {MIN_SPEEDUP}x)"
    )

"""Differential fuzzing: compiled simulation backend vs the interpreter oracle.

The compiled backend (:mod:`repro.sim.compiled`) is only allowed to be the
evalbench default because it is *proven* cycle-identical to the interpreter.
This suite generates seeded random designs + testbenches across the trace
shapes that exercise every scheduler region — combinational settle,
clocked/NBA batches, memory arrays, ``$finish`` vs timeout endings, shared
``$random`` stimulus — and asserts both backends produce identical
:class:`~repro.sim.simulator.SimulationResult` fields, identical ``$display``
bytes, and identical final signal state.  The vectorized batch path is held to
the same standard whenever a generated case falls inside its subset.

Abbreviated case counts run on every CI matrix job; the full-size sweep runs
under the ``slow`` marker (``--runslow`` / ``REPRO_RUN_SLOW=1``).
"""

from __future__ import annotations

import dataclasses
import re
from typing import List, Optional, Tuple

import pytest

from repro.evalbench.designs import combinational_testbench
from repro.evalbench.rtllm import rtllm_suite
from repro.evalbench.vgen import vgen_suite
from repro.sim.compiled import CompiledSimulator, simulate_batch
from repro.sim.rng import VerilogRng
from repro.sim.simulator import SimulationError, Simulator, _ScopedExpression
from repro.sim.testbench import BACKENDS, run_testbench, run_testbench_batch
from repro.verilog.ast_nodes import SourceFile
from repro.verilog.syntax import check_syntax

from proptest import Cases, for_all, num_cases

SEED = 2024


def _run_backend(cls, design: str, testbench: str, max_time: int = 100_000):
    combined = design.rstrip() + "\n\n" + testbench
    top = testbench.split("module ", 1)[1].split(";")[0].split("(")[0].strip()
    simulator = cls(combined, top=top, max_time=max_time, rng=VerilogRng(99))
    result = simulator.run()
    return result, simulator.final_state()


def assert_backends_identical(design: str, testbench: str, max_time: int = 100_000) -> None:
    """The core oracle property: every observable field must match."""
    oracle, oracle_state = _run_backend(Simulator, design, testbench, max_time)
    compiled, compiled_state = _run_backend(CompiledSimulator, design, testbench, max_time)
    assert compiled.finished == oracle.finished, f"finished: {compiled.finished} != {oracle.finished}"
    assert compiled.time == oracle.time, f"time: {compiled.time} != {oracle.time}"
    assert compiled.cycles == oracle.cycles, f"cycles: {compiled.cycles} != {oracle.cycles}"
    assert compiled.error == oracle.error, f"error: {compiled.error!r} != {oracle.error!r}"
    assert compiled.display_lines == oracle.display_lines
    assert compiled.output == oracle.output
    assert compiled_state == oracle_state


def assert_batch_matches_oracle(design: str, testbench: str) -> None:
    """When the vector subset applies, it must reproduce the oracle exactly."""
    batch = simulate_batch([design], testbench)
    if batch is None or batch[0] is None:
        return  # outside the vectorizable subset: scalar fallback covers it
    oracle, _state = _run_backend(Simulator, design, testbench, max_time=200_000)
    vector = batch[0]
    assert vector.finished == oracle.finished
    assert vector.time == oracle.time
    assert vector.cycles == oracle.cycles
    assert vector.display_lines == oracle.display_lines
    assert vector.output == oracle.output


# --------------------------------------------------------------------------- #
# Random program generators
# --------------------------------------------------------------------------- #

_BINARY_OPS = ["+", "-", "*", "&", "|", "^", "<<", ">>", "==", "!=", "<", "<=", ">", ">=", "&&", "||"]
_UNARY_OPS = ["~", "!", "&", "|", "^"]


def _random_expr(cases: Cases, names, depth: int) -> str:
    if depth <= 0 or cases.boolean(0.3):
        if cases.boolean(0.3):
            width = cases.integer(1, 8)
            return f"{width}'d{cases.integer(0, (1 << width) - 1)}"
        return cases.choice(names)
    kind = cases.integer(0, 3)
    if kind == 0:
        return f"({_random_expr(cases, names, depth - 1)} {cases.choice(_BINARY_OPS)} {_random_expr(cases, names, depth - 1)})"
    if kind == 1:
        return f"({cases.choice(_UNARY_OPS)}{_random_expr(cases, names, depth - 1)})"
    if kind == 2:
        cond = _random_expr(cases, names, depth - 1)
        return f"({cond} ? {_random_expr(cases, names, depth - 1)} : {_random_expr(cases, names, depth - 1)})"
    return f"{{{_random_expr(cases, names, depth - 1)}, {_random_expr(cases, names, depth - 1)}}}"


def _combinational_case(cases: Cases) -> Tuple[str, str]:
    """A random assign-network design plus a vector testbench for it.

    Expected values are random, so roughly half the checks fire — both the
    PASSED and the MISMATCH/FAILED display paths stay covered.
    """
    num_inputs = cases.integer(1, 3)
    inputs = [(f"i{n}", cases.integer(1, 12)) for n in range(num_inputs)]
    num_outputs = cases.integer(1, 3)
    outputs = [(f"o{n}", cases.integer(1, 12)) for n in range(num_outputs)]
    input_names = [name for name, _ in inputs]
    body = []
    for index, (name, _width) in enumerate(outputs):
        # Later outputs may read earlier ones: exercises cascaded settle.
        visible = input_names + [o for o, _w in outputs[:index]]
        body.append(f"    assign {name} = {_random_expr(cases, visible, cases.integer(1, 3))};")
    ports = [f"    input [{w - 1}:0] {n}" if w > 1 else f"    input {n}" for n, w in inputs]
    ports += [f"    output [{w - 1}:0] {n}" if w > 1 else f"    output {n}" for n, w in outputs]
    design = "module fuzz_comb (\n" + ",\n".join(ports) + "\n);\n" + "\n".join(body) + "\nendmodule\n"
    vectors = []
    for _ in range(cases.integer(1, 5)):
        driven = {name: cases.integer(0, (1 << width) - 1) for name, width in inputs}
        expected = {name: cases.integer(0, (1 << width) - 1) for name, width in outputs}
        vectors.append((driven, expected))
    testbench = combinational_testbench("fuzz_comb", inputs, outputs, vectors)
    return design, testbench


def _clocked_case(cases: Cases) -> Tuple[str, str]:
    """A random clocked design with NBA-heavy always blocks."""
    width = cases.integer(2, 10)
    const_a = cases.integer(1, (1 << width) - 1)
    const_b = cases.integer(0, (1 << width) - 1)
    use_reset = cases.boolean()
    mix_blocking = cases.boolean(0.3)
    stage2 = "q1 <= q0 ^ d;" if not mix_blocking else "q1 = q0 ^ d;"
    sensitivity = "posedge clk or posedge rst" if use_reset else "posedge clk"
    reset_arm = (
        "        if (rst) begin q0 <= 0; q1 <= 0; end\n        else begin\n"
        if use_reset
        else "        begin\n"
    )
    design = f"""module fuzz_seq (
    input clk,
    input rst,
    input [{width - 1}:0] d,
    output reg [{width - 1}:0] q0,
    output reg [{width - 1}:0] q1
);
    always @({sensitivity}) begin
{reset_arm}            q0 <= d + {width}'d{const_a};
            {stage2}
        end
    end
endmodule
"""
    cycles = cases.integer(2, 6)
    drives = []
    for step in range(cycles):
        value = cases.integer(0, (1 << width) - 1)
        drives.append(f"        d = {width}'d{value};")
        drives.append("        #10;")
        if cases.boolean(0.5):
            drives.append(f'        $display("cycle {step}: q0=%d q1=%b", q0, q1);')
    testbench = f"""module fuzz_seq_tb;
    reg clk;
    reg rst;
    reg [{width - 1}:0] d;
    wire [{width - 1}:0] q0;
    wire [{width - 1}:0] q1;
    fuzz_seq dut(.clk(clk), .rst(rst), .d(d), .q0(q0), .q1(q1));
    always #5 clk = ~clk;
    initial begin
        clk = 0;
        rst = 1;
        d = {width}'d{const_b};
        #12;
        rst = 0;
{chr(10).join(drives)}
        $display("final q0=%d q1=%d", q0, q1);
        $finish;
    end
endmodule
"""
    return design, testbench


def _array_case(cases: Cases) -> Tuple[str, str]:
    """A memory array written then read back, with random addressing."""
    width = cases.integer(2, 8)
    depth_bits = cases.integer(1, 3)
    depth = 1 << depth_bits
    writes = []
    for _ in range(cases.integer(2, 6)):
        addr = cases.integer(0, depth - 1)
        value = cases.integer(0, (1 << width) - 1)
        writes.append(f"        mem[{addr}] = {width}'d{value};")
    reads = []
    for _ in range(cases.integer(1, 4)):
        addr = cases.integer(0, depth - 1)
        reads.append(f'        $display("mem[{addr}]=%b", mem[{addr}]);')
    testbench = f"""module fuzz_mem_tb;
    reg [{width - 1}:0] mem [0:{depth - 1}];
    integer i;
    initial begin
{chr(10).join(writes)}
        #5;
{chr(10).join(reads)}
        for (i = 0; i < {depth}; i = i + 1) begin
            $display("sweep %d: %d", i, mem[i]);
        end
        $finish;
    end
endmodule
"""
    design = "module fuzz_mem_unused (input x, output y);\n    assign y = x;\nendmodule\n"
    return design, testbench


def _termination_case(cases: Cases) -> Tuple[str, str, int]:
    """Traces that end by ``$finish``, by quiescence, or by the time limit."""
    width = cases.integer(1, 6)
    period = cases.choice([4, 6, 10])
    mode = cases.choice(["finish", "timeout", "quiescent"])
    max_time = cases.choice([40, 73, 111])
    if mode == "finish":
        tail = f"        #{cases.integer(1, 30)};\n        $finish;"
        clock = "    always #%d clk = ~clk;" % period
    elif mode == "timeout":
        tail = "        // runs until the time limit"
        clock = "    always #%d clk = ~clk;" % period
    else:
        tail = f"        #{cases.integer(1, 20)};"
        clock = "    // no free-running clock: simulation goes quiescent"
    testbench = f"""module fuzz_term_tb;
    reg clk;
    reg [{width - 1}:0] n;
{clock}
    always @(posedge clk) n <= n + 1'b1;
    initial begin
        clk = 0;
        n = 0;
{tail}
    end
endmodule
"""
    design = "module fuzz_term_unused (input x, output y);\n    assign y = ~x;\nendmodule\n"
    return design, testbench, max_time


# --------------------------------------------------------------------------- #
# Differential properties
# --------------------------------------------------------------------------- #


def test_differential_combinational() -> None:
    def prop(cases: Cases) -> None:
        design, testbench = _combinational_case(cases)
        assert_backends_identical(design, testbench)
        assert_batch_matches_oracle(design, testbench)

    for_all(num_cases(quick=25, full=300), prop, seed=SEED)


def test_differential_clocked_nba() -> None:
    def prop(cases: Cases) -> None:
        design, testbench = _clocked_case(cases)
        assert_backends_identical(design, testbench)

    for_all(num_cases(quick=15, full=200), prop, seed=SEED + 1)


def test_differential_arrays() -> None:
    def prop(cases: Cases) -> None:
        design, testbench = _array_case(cases)
        assert_backends_identical(design, testbench)

    for_all(num_cases(quick=10, full=150), prop, seed=SEED + 2)


def test_differential_termination() -> None:
    def prop(cases: Cases) -> None:
        design, testbench, max_time = _termination_case(cases)
        assert_backends_identical(design, testbench, max_time=max_time)

    for_all(num_cases(quick=10, full=150), prop, seed=SEED + 3)


def test_differential_random_stimulus() -> None:
    """Both backends must consume the shared ``$random`` stream identically."""
    testbench = """module fuzz_rand_tb;
    reg [7:0] a;
    reg [7:0] b;
    wire [8:0] s;
    integer i;
    fuzz_rand_add dut(.a(a), .b(b), .s(s));
    initial begin
        for (i = 0; i < 8; i = i + 1) begin
            a = $random;
            b = $random % 17;
            #10;
            $display("%d + %d -> %d (urandom %d)", a, b, s, $urandom);
        end
        $finish;
    end
endmodule
"""
    design = """module fuzz_rand_add (
    input [7:0] a,
    input [7:0] b,
    output [8:0] s
);
    assign s = a + b;
endmodule
"""
    assert_backends_identical(design, testbench)


# --------------------------------------------------------------------------- #
# Statement forms the compiled backend hands to the interpreter
# --------------------------------------------------------------------------- #

#: The compiled backend compiles only the statement forms grading runs; every
#: other form runs through the interpreter fallback for that subtree.  One
#: hand-written testbench per such form, each driving a tiny clocked DUT.
_INTERPRETED_DUT = """module diff_dut (input clk, input [3:0] d, output reg [3:0] q);
    always @(posedge clk) q <= d;
endmodule
"""

_INTERPRETED_FORMS = {
    "while_no_delay": """
    integer i;
    initial begin
        i = 0;
        while (i < 5) i = i + 2;
        $display("i=%0d", i);
        $finish;
    end""",
    "while_with_delay": """
    initial begin
        d = 0;
        while (d < 4) begin
            #3 d = d + 1;
            $display("t=%0t d=%0d q=%0d", $time, d, q);
        end
        $finish;
    end""",
    "repeat": """
    initial begin
        d = 1;
        repeat (3) d = d + 1;
        repeat (4) begin
            @(posedge clk) d = d + 2;
            $display("t=%0t q=%0d", $time, q);
        end
        $finish;
    end""",
    "forever_clock": """
    initial begin
        d = 3;
        #42 $display("t=%0t q=%0d", $time, q);
        $finish;
    end""",
    "wait_with_body": """
    initial begin
        d = 0;
        repeat (6) @(negedge clk) d = d + 1;
    end
    initial begin
        wait (q == 3) $display("q=3 at %0t", $time);
        $finish;
    end""",
    "wait_without_body": """
    initial begin
        d = 0;
        repeat (6) @(negedge clk) d = d + 1;
    end
    initial begin
        wait (q == 4);
        $display("q=4 at %0t", $time);
        $finish;
    end""",
    "if_branch_suspends": """
    initial begin
        d = 1;
        if (d == 1) #4 d = 5;
        else @(posedge clk) d = 6;
        if (d == 1) #4 d = 7;
        else @(posedge clk) d = 8;
        $display("t=%0t d=%0d", $time, d);
        $finish;
    end""",
    "case_branch_suspends": """
    integer k;
    initial begin
        for (k = 0; k < 3; k = k + 1) begin
            case (k)
                0: #3 d = 9;
                1: @(negedge clk) d = 10;
                default: d = 11;
            endcase
            $display("t=%0t k=%0d d=%0d", $time, k, d);
        end
        $finish;
    end""",
    "intra_assignment_delays": """
    reg [7:0] a, b, e;
    initial begin
        a = 3;
        b = #4 a + 1;
        e <= #3 a;
        a = 9;
        d <= #2 4'd7;
        #10 $display("t=%0t a=%0d b=%0d e=%0d q=%0d", $time, a, b, e, q);
        $finish;
    end""",
    "user_task_with_delay": """
    task pulse;
        input [3:0] n;
        begin
            #n d = d + n;
            @(posedge clk);
        end
    endtask
    initial begin
        d = 0;
        pulse(2);
        pulse(3);
        $display("t=%0t d=%0d q=%0d", $time, d, q);
        $finish;
    end""",
    "monitor": """
    initial begin
        d = 0;
        $monitor("d=%0d", d);
        d = 3;
        #1 d = 5;
        #1 $finish;
    end""",
    "fatal": """
    initial begin
        d = 5;
        #2 $fatal(1, "boom %0d", d);
        $display("not reached");
    end""",
    "display_without_format": """
    initial begin
        d = 2;
        $display(d, d);
        $display();
        #1 $display(q);
        $finish;
    end""",
    "unknown_task": """
    initial begin
        d = 2;
        $no_such_task(d);
        #1 $display("d=%0d", d);
        $finish;
    end""",
}


#: Loops that never suspend end in the iteration-limit error.
_RUNAWAY_FORMS = {
    "while_never_ends": """
    initial begin
        d = 0;
        while (1) d = d + 1;
    end""",
    "forever_never_suspends": """
    initial begin
        d = 0;
        #1 forever d = d + 1;
    end""",
}


def _forms_testbench(body: str) -> str:
    return (
        "module diff_forms_tb;\n"
        "    reg clk;\n"
        "    reg [3:0] d;\n"
        "    wire [3:0] q;\n"
        "    diff_dut dut(.clk(clk), .d(d), .q(q));\n"
        "    initial clk = 0;\n"
        "    initial forever #5 clk = ~clk;" + body + "\nendmodule\n"
    )


@pytest.mark.parametrize("form", sorted(_INTERPRETED_FORMS))
def test_interpreted_statement_forms_match(form: str) -> None:
    assert_backends_identical(_INTERPRETED_DUT, _forms_testbench(_INTERPRETED_FORMS[form]), max_time=1_000)


@pytest.mark.parametrize("form", sorted(_RUNAWAY_FORMS))
def test_runaway_loops_fail_identically(form: str, monkeypatch) -> None:
    monkeypatch.setattr(Simulator, "DEFAULT_MAX_LOOP_ITERATIONS", 64)
    testbench = _forms_testbench(_RUNAWAY_FORMS[form])
    assert_backends_identical(_INTERPRETED_DUT, testbench, max_time=1_000)
    result, _state = _run_backend(CompiledSimulator, _INTERPRETED_DUT, testbench, max_time=1_000)
    assert result.error is not None and "iteration limit exceeded" in result.error


# --------------------------------------------------------------------------- #
# $random stream regression
# --------------------------------------------------------------------------- #


def test_verilog_rng_pinned_sequence() -> None:
    """The LCG behind ``$random`` is frozen: changing it would silently break
    replayability of every recorded simulation. First draws are pinned."""
    rng = VerilogRng(VerilogRng.DEFAULT_SEED)
    assert [rng.next_value() for _ in range(5)] == [
        1406932606,
        654583775,
        1449466924,
        229283573,
        1109335178,
    ]
    fresh = VerilogRng(VerilogRng.DEFAULT_SEED)
    clone = fresh.clone()
    assert fresh.next_value() == clone.next_value()


def test_rng_seed_controls_testbench_stream() -> None:
    design = "module rseed (input x, output y);\n    assign y = x;\nendmodule\n"
    testbench = """module rseed_tb;
    reg x;
    wire y;
    rseed dut(.x(x), .y(y));
    initial begin
        x = 0;
        #1;
        $display("draw %d %d", $random, $random);
        $finish;
    end
endmodule
"""
    interp = run_testbench(design, testbench, backend="interpreter", random_seed=7)
    compiled = run_testbench(design, testbench, backend="compiled", random_seed=7)
    assert interp.output == compiled.output
    other = run_testbench(design, testbench, backend="compiled", random_seed=8)
    assert other.output != compiled.output


def test_unknown_backend_rejected() -> None:
    with pytest.raises(ValueError, match="unknown simulation backend"):
        run_testbench("module m; endmodule", "module tb; endmodule", backend="verilator")
    with pytest.raises(ValueError, match="unknown simulation backend"):
        run_testbench_batch([], "module tb; endmodule", backend="verilator")


# --------------------------------------------------------------------------- #
# Batched runner equivalence
# --------------------------------------------------------------------------- #


def test_run_testbench_batch_matches_scalar() -> None:
    def prop(cases: Cases) -> None:
        design, testbench = _combinational_case(cases)
        mutated = design.replace("assign o0 =", "assign o0 = 1'd1 ^", 1)
        broken = design.replace(";", "", 1)  # syntax error candidate
        candidates = [design, mutated, broken]
        batch = run_testbench_batch(candidates, testbench)
        for candidate, got in zip(candidates, batch):
            want = run_testbench(candidate, testbench)
            assert got.compiled == want.compiled
            assert got.simulated == want.simulated
            assert got.passed == want.passed
            assert got.output == want.output

    for_all(num_cases(quick=8, full=60), prop, seed=SEED + 4)


# --------------------------------------------------------------------------- #
# One testbench per batch: binding designs into a shared simulator
# --------------------------------------------------------------------------- #

REFERENCE_PROBLEMS = list(rtllm_suite()) + list(vgen_suite())
BACKEND_CLASSES = list(BACKENDS.values())

_OPERATOR_SWAPS = {
    "+": "-", "-": "+", "&": "|", "|": "&", "^": "|", "==": "!=", "!=": "==", "<<": ">>", ">>": "<<",
    "posedge": "negedge",
}  # fmt: skip
_SWAP_SITE = re.compile(r"posedge|==|!=|&&|\|\||<<|>>|<=|>=|[+\-&|^]")
_INPUT_PORT = re.compile(r"\binput\s+(?:wire\s+)?(?:\[[^\]]*\]\s*)?(\w+)")

#: Event budget of the bind sequences: every reference design needs < 100
#: events, and the runaway candidate exhausts it in a few milliseconds.
BIND_MAX_EVENTS = 500


def operator_mutants(reference: str, count: int) -> List[str]:
    """``count`` distinct variants of ``reference`` that parse.

    Single-site mutants first (operator swaps, then uses of one input
    replaced by another input), then, when the design has too few sites,
    the reference with a trailing comment.
    """
    header_end = reference.find(");") + 2
    sites = [
        (match.start(), match.end(), _OPERATOR_SWAPS[match.group()])
        for match in _SWAP_SITE.finditer(reference, header_end)
        if match.group() in _OPERATOR_SWAPS
    ]
    inputs = _INPUT_PORT.findall(reference[:header_end])
    for match in re.finditer(r"\b\w+\b", reference[header_end:]):
        sites += [
            (header_end + match.start(), header_end + match.end(), other)
            for other in inputs
            if match.group() in inputs and other != match.group()
        ]
    mutants: List[str] = []
    for start, end, replacement in sites:
        candidate = reference[:start] + replacement + reference[end:]
        if candidate not in mutants and check_syntax(candidate).ok:
            mutants.append(candidate)
            if len(mutants) == count:
                return mutants
    return mutants + [f"{reference}// variant {n}\n" for n in range(count - len(mutants))]


def _with_item(design: str, item: str) -> str:
    """``design`` with ``item`` added to the end of its first module."""
    return design.replace("endmodule", f"    {item}\nendmodule", 1)


#: Starts at time 1, while the testbench is mid-run, and spins at that time
#: until the event limit stops the simulation.
_RUNAWAY_ITEM = "reg runaway_r;\n    initial begin #1; forever #0 runaway_r = ~runaway_r; end"


def bind_sequence(reference: str) -> List[str]:
    """The reference, 3 operator mutants, three designs that do not elaborate, a runaway, the reference."""
    name = re.search(r"module\s+(\w+)", reference).group(1)
    return (
        [reference]
        + operator_mutants(reference, 3)
        + [
            _with_item(reference, "no_such_block u_missing ();"),
            reference + "\n" + reference,
            reference.replace(f"module {name}", f"module {name}_renamed", 1),
            _with_item(reference, _RUNAWAY_ITEM),
            reference,
        ]
    )


def assert_results_identical(got, want, label: str) -> None:
    """Every ``TestbenchResult`` field is equal."""
    for field in dataclasses.fields(want):
        assert getattr(got, field.name) == getattr(want, field.name), f"{label}: {field.name} differs"


def assert_batch_matches_per_candidate(candidates: List[str], testbench: str, **limits) -> list:
    """``run_testbench_batch`` returns, field for field, what ``run_testbench`` returns for each candidate."""
    batch = run_testbench_batch(candidates, testbench, **limits)
    for index, (candidate, got) in enumerate(zip(candidates, batch)):
        assert_results_identical(got, run_testbench(candidate, testbench, **limits), f"candidate {index}")
    return batch


def _continuous_order(simulator: Simulator) -> list:
    def placed(scope, expr):
        if isinstance(expr, _ScopedExpression):
            return expr.scope.prefix, expr.expr
        return scope.prefix, expr

    return [(placed(scope, lhs), placed(scope, rhs)) for scope, lhs, rhs in simulator.continuous]


def assert_binds_match_fresh(
    candidates: List[str], testbench_source: str, backend: type = CompiledSimulator, **limits
) -> None:
    """Binding each candidate in turn into one ``backend`` simulator equals a fresh simulator per candidate.

    Compared: the elaboration error, signal / process / continuous-assignment
    order, every ``SimulationResult`` field and the final signal state.
    """
    testbench = check_syntax(testbench_source).ast
    top = testbench.modules[-1].name
    shared: Optional[Simulator] = None
    for index, candidate in enumerate(candidates):
        unit = SourceFile(modules=check_syntax(candidate).ast.modules + testbench.modules)
        fresh = fresh_error = bound_error = None
        try:
            fresh = backend(unit, top=top, rng=VerilogRng(SEED), **limits)
        except (SimulationError, ValueError) as exc:
            fresh_error = str(exc)
        try:
            if shared is None:
                shared = backend(unit, top=top, rng=VerilogRng(SEED), **limits)
            else:
                shared.bind(unit)
        except (SimulationError, ValueError) as exc:
            bound_error = str(exc)
        label = f"{backend.__name__} candidate {index}"
        assert bound_error == fresh_error, label
        if fresh is None:
            continue
        assert list(shared.signals) == list(fresh.signals), label
        assert [(p.pid, p.name) for p in shared.processes] == [(p.pid, p.name) for p in fresh.processes], label
        assert _continuous_order(shared) == _continuous_order(fresh), label
        if backend is CompiledSimulator:
            # Nothing is left keyed on the previous design: its ids may be reused.
            assert set(shared._compiled_processes) == set(shared.processes), label
            assert {scope_id for scope_id, _node in shared._writers} <= {id(scope) for scope in shared.scopes}, label
        got, want = shared.run(), fresh.run()
        for field in dataclasses.fields(want):
            assert getattr(got, field.name) == getattr(want, field.name), f"{label}: {field.name} differs"
        assert shared.final_state() == fresh.final_state(), label



@pytest.mark.parametrize("problem", REFERENCE_PROBLEMS, ids=lambda problem: problem.name)
def test_binding_sequence_matches_fresh_simulators(problem) -> None:
    candidates = bind_sequence(problem.reference)
    assert len(candidates) == 9 and all(check_syntax(candidate).ok for candidate in candidates)
    batch = assert_batch_matches_per_candidate(candidates, problem.testbench, max_events=BIND_MAX_EVENTS)
    assert batch[0].passed and batch[-1].passed
    assert [result.compiled for result in batch[4:7]] == [False, False, False]
    assert batch[7].errors == ["event limit exceeded"]
    # The vector sweep takes some combinational candidates; this covers them all.
    for backend in BACKEND_CLASSES:
        assert_binds_match_fresh(candidates, problem.testbench, backend, max_events=BIND_MAX_EVENTS)


_LEAK_DUT = """module leak_dut (input clk, input [3:0] d, output reg [3:0] q);
    reg [3:0] r;
    always @(posedge clk) begin r <= d; q <= r ^ d; end
endmodule
"""

#: The testbench reads ``dut.r``; this candidate has no ``r``.
_LEAK_DUT_WITHOUT_R = """module leak_dut (input clk, input [3:0] d, output reg [3:0] q);
    always @(posedge clk) q <= d;
endmodule
"""

#: Every piece of testbench state a previous run could leave behind: a
#: ``reg clk = 0`` initialiser, a memory array the testbench writes (and reads
#: before writing), ``$random`` draws, a user task with a local (run by the
#: interpreter, suspended inside the task when the runaway candidate stops)
#: and a hierarchical read of the design.
_LEAK_TESTBENCH = """module leak_tb;
    reg clk = 0;
    reg [3:0] d;
    wire [3:0] q;
    reg [3:0] mem [0:3];
    integer i;
    leak_dut dut(.clk(clk), .d(d), .q(q));
    always #5 clk = ~clk;
    task drive;
        input [3:0] value;
        reg [3:0] scrambled;
        begin
            scrambled = value ^ 4'h5;
            d = scrambled;
            @(posedge clk);
            #1;
        end
    endtask
    initial begin
        $display("mem[0] before any write: %b", mem[0]);
        for (i = 0; i < 4; i = i + 1) begin
            mem[i] = $random;
            drive(mem[i]);
            $display("i=%0d mem=%h q=%h r=%h", i, mem[i], q, dut.r);
        end
        $display("TEST PASSED");
        $finish;
    end
endmodule
"""


def test_binding_leaks_no_testbench_state() -> None:
    runaway = _with_item(_LEAK_DUT, _RUNAWAY_ITEM.replace("#1", "#7"))
    candidates = [_LEAK_DUT, _LEAK_DUT_WITHOUT_R, _LEAK_DUT, runaway, _LEAK_DUT, _LEAK_DUT_WITHOUT_R]
    testbench = check_syntax(_LEAK_TESTBENCH).ast
    for backend, simulator_cls in BACKENDS.items():
        batch = assert_batch_matches_per_candidate(candidates, _LEAK_TESTBENCH, max_events=BIND_MAX_EVENTS, backend=backend)
        assert batch[0].passed and batch[0] == batch[2] == batch[4]
        assert "mem[0] before any write: xxxx" in batch[4].output
        assert "unknown hierarchical signal 'dut.r'" in batch[1].errors[0]
        assert batch[3].errors == ["event limit exceeded"]
        assert_binds_match_fresh(candidates, _LEAK_TESTBENCH, simulator_cls, max_events=BIND_MAX_EVENTS)

        # The runaway stops the testbench inside ``drive``, with the task's frame pushed.
        simulator = simulator_cls(
            SourceFile(modules=check_syntax(runaway).ast.modules + testbench.modules),
            top="leak_tb",
            max_events=BIND_MAX_EVENTS,
        )
        assert simulator.run().error == "event limit exceeded"
        assert [list(frame) for frame in simulator.scopes[0].locals] == [["value", "scrambled"]]
        simulator.bind(SourceFile(modules=check_syntax(_LEAK_DUT).ast.modules + testbench.modules))
        assert simulator.scopes[0].locals == []


def test_binding_random_clocked_designs() -> None:
    def prop(cases: Cases) -> None:
        design, testbench = _clocked_case(cases)
        mutant = design.replace("d +", "d -", 1)
        unknown = _with_item(design, "no_such_block u_missing ();")
        candidates = [mutant, design, unknown, design, mutant]
        assert_batch_matches_per_candidate(candidates, testbench)
        for backend in BACKEND_CLASSES:
            assert_binds_match_fresh(candidates, testbench, backend)

    for_all(num_cases(quick=6, full=60), prop, seed=SEED + 6)


def test_batch_compiles_the_testbench_once(monkeypatch) -> None:
    """Twelve candidates on a sequential testbench compile the testbench's processes once, not twelve times."""
    problem = next(problem for problem in REFERENCE_PROBLEMS if problem.name == "up_counter_4")
    candidates = [problem.reference] + operator_mutants(problem.reference, 11)
    expected = [run_testbench(candidate, problem.testbench) for candidate in candidates]

    top_level_calls: List[object] = []
    depth = 0
    compile_statement = CompiledSimulator._compile_statement

    def counting(self, scope, stmt):
        nonlocal depth
        if depth == 0 and scope.prefix == "":
            top_level_calls.append(stmt)
        depth += 1
        try:
            return compile_statement(self, scope, stmt)
        finally:
            depth -= 1

    monkeypatch.setattr(CompiledSimulator, "_compile_statement", counting)
    run_testbench(problem.reference, problem.testbench)
    per_simulation = len(top_level_calls)
    assert per_simulation == 3  # the clk initialiser, the clock and the stimulus
    top_level_calls.clear()
    assert run_testbench_batch(candidates, problem.testbench) == expected
    assert len(top_level_calls) == per_simulation


def test_construction_that_fails_on_the_design_compiles_nothing(monkeypatch) -> None:
    """Construction elaborates the whole hierarchy before it compiles a process of the testbench."""
    problem = next(problem for problem in REFERENCE_PROBLEMS if problem.name == "up_counter_4")
    testbench = check_syntax(problem.testbench).ast
    missing = check_syntax(_with_item(problem.reference, "no_such_block u_missing ();")).ast
    compiled: List[object] = []
    compile_statement = CompiledSimulator._compile_statement

    def counting(self, scope, stmt):
        compiled.append(stmt)
        return compile_statement(self, scope, stmt)

    monkeypatch.setattr(CompiledSimulator, "_compile_statement", counting)
    with pytest.raises(SimulationError, match="unknown module 'no_such_block'"):
        CompiledSimulator(SourceFile(modules=missing.modules + testbench.modules), top=testbench.modules[-1].name)
    assert compiled == []


def test_bind_rejects_another_top_module() -> None:
    other = check_syntax(_LEAK_DUT + _LEAK_TESTBENCH).ast
    for simulator_cls in BACKEND_CLASSES:
        simulator = simulator_cls(_LEAK_DUT + _LEAK_TESTBENCH, top="leak_tb")
        with pytest.raises(ValueError, match="bind needs the top module"):
            simulator.bind(SourceFile(modules=list(other.modules)))


@pytest.mark.slow
def test_differential_full_sweep() -> None:
    """Full-size randomized sweep across every generator family."""

    def prop(cases: Cases) -> None:
        family = cases.integer(0, 3)
        if family == 0:
            design, testbench = _combinational_case(cases)
            assert_backends_identical(design, testbench)
            assert_batch_matches_oracle(design, testbench)
        elif family == 1:
            design, testbench = _clocked_case(cases)
            assert_backends_identical(design, testbench)
        elif family == 2:
            design, testbench = _array_case(cases)
            assert_backends_identical(design, testbench)
        else:
            design, testbench, max_time = _termination_case(cases)
            assert_backends_identical(design, testbench, max_time=max_time)

    for_all(400, prop, seed=SEED + 5)

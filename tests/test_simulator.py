"""Tests for the event-driven simulator."""

import pytest

from repro.evalbench.designs import combinational_testbench
from repro.evalbench.functional import check_designs_functional
from repro.evalbench.rtllm import rtllm_suite
from repro.sim.compiled import CompiledSimulator, simulate_batch
from repro.sim.simulator import SimulationError, Simulator
from repro.sim.testbench import run_testbench, run_testbench_batch


def _simulate(source, top=None, max_time=100_000):
    simulator = Simulator(source, top=top)
    return simulator, simulator.run(max_time=max_time)


class TestElaboration:
    def test_signals_created_with_widths(self, sample_design):
        simulator = Simulator(sample_design, top="data_register")
        assert simulator.signals["data_in"].width == 4
        assert simulator.signals["data_out"].width == 4
        assert simulator.signals["clk"].width == 1

    def test_parameter_width(self, sample_counter):
        simulator = Simulator(sample_counter, top="counter")
        assert simulator.signals["count"].width == 8

    def test_parameter_override_through_instance(self, sample_counter):
        source = sample_counter + """
module top;
    reg clk, rst, en;
    wire [3:0] c;
    counter #(.WIDTH(4)) u0(.clk(clk), .rst(rst), .en(en), .count(c));
endmodule
"""
        simulator = Simulator(source, top="top")
        assert simulator.signals["u0.count"].width == 4

    def test_top_inference_prefers_testbench(self, sample_design):
        source = sample_design + "\nmodule data_register_tb; data_register dut(); endmodule\n"
        simulator = Simulator(source)
        assert simulator.top_name == "data_register_tb"

    def test_unknown_top_raises(self, sample_design):
        with pytest.raises(SimulationError):
            Simulator(sample_design, top="missing")

    def test_unknown_submodule_raises(self):
        source = "module top; notdefined u0(); endmodule"
        with pytest.raises(SimulationError):
            Simulator(source, top="top")

    def test_redeclared_module_raises(self):
        """iverilog rejects a compile unit that declares a module twice; the last copy must not win."""
        source = "module m; endmodule\nmodule top; m u0(); endmodule\nmodule m; wire w; endmodule"
        with pytest.raises(SimulationError, match="module 'm' is declared more than once"):
            Simulator(source, top="top")

    def test_memory_array_declared(self):
        source = "module m; reg [7:0] mem [0:15]; endmodule"
        simulator = Simulator(source, top="m")
        assert simulator.signals["mem"].is_array
        assert simulator.signals["mem"].array_size == 16


class TestInitialBlocks:
    def test_display_and_finish(self):
        source = """
module m;
    initial begin
        $display("hello %d", 42);
        $finish;
    end
endmodule
"""
        _, result = _simulate(source, top="m")
        assert result.finished
        assert result.display_lines == ["hello 42"]

    def test_display_formats(self):
        source = """
module m;
    reg [7:0] v;
    initial begin
        v = 8'hA5;
        $display("d=%d h=%h b=%b", v, v, v);
        $finish;
    end
endmodule
"""
        _, result = _simulate(source, top="m")
        assert result.display_lines == ["d=165 h=a5 b=10100101"]

    def test_time_advances_with_delays(self):
        source = """
module m;
    initial begin
        #25;
        $display("t=%t", $time);
        $finish;
    end
endmodule
"""
        _, result = _simulate(source, top="m")
        assert result.time == 25
        assert result.display_lines == ["t=25"]

    def test_blocking_assignment_order(self):
        source = """
module m;
    reg [3:0] a, b;
    initial begin
        a = 4'd1;
        b = a + 1;
        $display("%d %d", a, b);
        $finish;
    end
endmodule
"""
        _, result = _simulate(source, top="m")
        assert result.display_lines == ["1 2"]

    def test_quiescence_without_finish(self):
        source = "module m; reg x; initial x = 1; endmodule"
        _, result = _simulate(source, top="m")
        assert not result.finished
        assert result.error is None

    def test_for_loop(self):
        source = """
module m;
    integer i;
    reg [7:0] acc;
    initial begin
        acc = 0;
        for (i = 0; i < 5; i = i + 1) acc = acc + i;
        $display("%d", acc);
        $finish;
    end
endmodule
"""
        _, result = _simulate(source, top="m")
        assert result.display_lines == ["10"]

    def test_while_loop(self):
        source = """
module m;
    integer i;
    initial begin
        i = 0;
        while (i < 3) i = i + 1;
        $display("%d", i);
        $finish;
    end
endmodule
"""
        _, result = _simulate(source, top="m")
        assert result.display_lines == ["3"]

    def test_repeat_loop(self):
        source = """
module m;
    integer i;
    initial begin
        i = 0;
        repeat (4) i = i + 2;
        $display("%d", i);
        $finish;
    end
endmodule
"""
        _, result = _simulate(source, top="m")
        assert result.display_lines == ["8"]

    def test_random_is_deterministic(self):
        source = """
module m;
    integer a, b;
    initial begin
        a = $random;
        b = $random;
        $display("%d", a == b);
        $finish;
    end
endmodule
"""
        _, first = _simulate(source, top="m")
        _, second = _simulate(source, top="m")
        assert first.display_lines == second.display_lines


class TestContinuousAssign:
    def test_simple_assign(self):
        source = """
module m;
    reg [3:0] a, b;
    wire [3:0] y;
    assign y = a & b;
    initial begin
        a = 4'b1100; b = 4'b1010;
        #1;
        $display("%b", y);
        $finish;
    end
endmodule
"""
        _, result = _simulate(source, top="m")
        assert result.display_lines == ["1000"]

    def test_assign_chains_propagate(self):
        source = """
module m;
    reg [3:0] a;
    wire [3:0] b, c;
    assign b = a + 1;
    assign c = b + 1;
    initial begin
        a = 4'd1;
        #1;
        $display("%d", c);
        $finish;
    end
endmodule
"""
        _, result = _simulate(source, top="m")
        assert result.display_lines == ["3"]

    def test_concatenation_lhs_keeps_carry(self):
        source = """
module m;
    reg [3:0] a, b;
    wire [3:0] sum;
    wire cout;
    assign {cout, sum} = a + b;
    initial begin
        a = 4'hF; b = 4'h1;
        #1;
        $display("%d %d", cout, sum);
        $finish;
    end
endmodule
"""
        _, result = _simulate(source, top="m")
        assert result.display_lines == ["1 0"]

    def test_gate_primitives(self):
        source = """
module m;
    reg a, b;
    wire y_and, y_or, y_not, y_xor;
    and g0(y_and, a, b);
    or g1(y_or, a, b);
    not g2(y_not, a);
    xor g3(y_xor, a, b);
    initial begin
        a = 1; b = 0;
        #1;
        $display("%b%b%b%b", y_and, y_or, y_not, y_xor);
        $finish;
    end
endmodule
"""
        _, result = _simulate(source, top="m")
        assert result.display_lines == ["0101"]


class TestAlwaysBlocks:
    def test_clocked_register(self, sample_design):
        source = sample_design + """
module tb;
    reg clk = 0;
    reg [3:0] data_in;
    wire [3:0] data_out;
    data_register dut(.clk(clk), .data_in(data_in), .data_out(data_out));
    always #5 clk = ~clk;
    initial begin
        data_in = 4'd7;
        #12;
        $display("%d", data_out);
        $finish;
    end
endmodule
"""
        _, result = _simulate(source, top="tb")
        assert result.display_lines == ["7"]

    def test_nonblocking_swap(self):
        source = """
module m;
    reg clk = 0;
    reg [3:0] a, b;
    always @(posedge clk) begin
        a <= b;
        b <= a;
    end
    initial begin
        a = 4'd1; b = 4'd2;
        #1 clk = 1;
        #1;
        $display("%d %d", a, b);
        $finish;
    end
endmodule
"""
        _, result = _simulate(source, top="m")
        assert result.display_lines == ["2 1"]

    def test_async_reset_has_priority(self, sample_counter):
        source = sample_counter + """
module tb;
    reg clk = 0, rst, en;
    wire [7:0] count;
    counter dut(.clk(clk), .rst(rst), .en(en), .count(count));
    always #5 clk = ~clk;
    initial begin
        rst = 1; en = 1;
        #23;
        $display("%d", count);
        rst = 0;
        #20;
        $display("%d", count);
        $finish;
    end
endmodule
"""
        _, result = _simulate(source, top="tb")
        assert result.display_lines[0] == "0"
        assert int(result.display_lines[1]) == 2

    def test_combinational_always_star(self):
        source = """
module m;
    reg [3:0] a, b;
    reg [3:0] y;
    always @* y = a | b;
    initial begin
        a = 4'b0011; b = 4'b1000;
        #1;
        $display("%b", y);
        a = 4'b0100;
        #1;
        $display("%b", y);
        $finish;
    end
endmodule
"""
        _, result = _simulate(source, top="m")
        assert result.display_lines == ["1011", "1100"]

    def test_case_statement_fsm(self):
        source = """
module m;
    reg clk = 0, rst;
    reg [1:0] state;
    always #5 clk = ~clk;
    always @(posedge clk or posedge rst) begin
        if (rst) state <= 2'd0;
        else begin
            case (state)
                2'd0: state <= 2'd1;
                2'd1: state <= 2'd2;
                default: state <= 2'd0;
            endcase
        end
    end
    initial begin
        rst = 1;
        #12 rst = 0;
        #10 $display("%d", state);
        #10 $display("%d", state);
        #10 $display("%d", state);
        $finish;
    end
endmodule
"""
        _, result = _simulate(source, top="m")
        assert result.display_lines == ["1", "2", "0"]

    def test_memory_write_and_read(self):
        source = """
module m;
    reg clk = 0;
    reg [7:0] mem [0:3];
    reg [7:0] out;
    always #5 clk = ~clk;
    initial begin
        mem[0] = 8'd11;
        mem[1] = 8'd22;
        out = mem[1];
        $display("%d %d", mem[0], out);
        $finish;
    end
endmodule
"""
        _, result = _simulate(source, top="m")
        assert result.display_lines == ["11 22"]

    def test_always_without_suspend_raises(self):
        source = "module m; reg x; always x = ~x; endmodule"
        simulator = Simulator(source, top="m")
        result = simulator.run()
        assert result.error is not None

    def test_event_limit_guards_runaway(self):
        source = """
module m;
    reg clk = 0;
    always #1 clk = ~clk;
endmodule
"""
        simulator = Simulator(source, top="m", max_events=500)
        result = simulator.run()
        assert result.error is not None or result.time <= simulator.max_time


class TestHierarchy:
    def test_two_level_hierarchy(self):
        source = """
module half_adder(input a, input b, output sum, output carry);
    assign sum = a ^ b;
    assign carry = a & b;
endmodule
module full_adder(input a, input b, input cin, output sum, output cout);
    wire s1, c1, c2;
    half_adder ha1(.a(a), .b(b), .sum(s1), .carry(c1));
    half_adder ha2(.a(s1), .b(cin), .sum(sum), .carry(c2));
    assign cout = c1 | c2;
endmodule
module tb;
    reg a, b, cin;
    wire sum, cout;
    full_adder dut(.a(a), .b(b), .cin(cin), .sum(sum), .cout(cout));
    initial begin
        a = 1; b = 1; cin = 1;
        #1;
        $display("%b %b", cout, sum);
        $finish;
    end
endmodule
"""
        _, result = _simulate(source, top="tb")
        assert result.display_lines == ["1 1"]

    def test_user_function_evaluation(self):
        source = """
module m;
    reg [7:0] x;
    function [7:0] double;
        input [7:0] v;
        begin
            double = v * 2;
        end
    endfunction
    initial begin
        x = double(8'd21);
        $display("%d", x);
        $finish;
    end
endmodule
"""
        _, result = _simulate(source, top="m")
        assert result.display_lines == ["42"]

    def test_user_task_with_delay(self):
        source = """
module m;
    reg [7:0] seen;
    task record;
        input [7:0] value;
        begin
            #5;
            seen = value;
        end
    endtask
    initial begin
        record(8'd9);
        $display("%d %t", seen, $time);
        $finish;
    end
endmodule
"""
        _, result = _simulate(source, top="m")
        assert result.display_lines == ["9 5"]


@pytest.mark.parametrize("backend", [Simulator, CompiledSimulator], ids=["interpreter", "compiled"])
class TestBothBackends:
    def test_vector_writes(self, backend):
        """Bit, part, indexed-part and concatenation targets, blocking and non-blocking."""
        source = """
module m;
    reg [7:0] q, p;
    reg [15:0] w;
    reg [3:0] hi, lo;
    integer i;
    initial begin
        q = 0;
        q[3] = 1;
        q[7:6] = 2'b10;
        p = 8'hff;
        p[5:2] = 0;
        i = 4;
        w = 0;
        w[i +: 4] = 4'hA;
        w[15 -: 4] = 4'h5;
        {hi, lo} = 8'hC3;
        $display("%h %h %h %h %h", q, p, w, hi, lo);
        q[2] <= 1;
        q[1:0] <= 2'b11;
        #1 $display("%h", q);
        $finish;
    end
endmodule
"""
        result = backend(source, top="m").run()
        assert result.error is None
        assert result.display_lines == ["88 c3 50a0 c 3", "8f"]

    def test_hex_and_octal_pad_to_the_full_width(self, backend):
        """IEEE 1364 17.1.1.3: ``%h`` / ``%o`` print every digit of the value; ``%0h`` the fewest."""
        source = """
module m;
    reg [39:0] w = 'h500;
    reg [8:0] o = 9'o7;
    initial begin
        $display("%h", w);
        $display("%x|%0h|%0x", w, w, w);
        $display("%o|%0o|%h", o, o, 8'd0);
        $finish;
    end
endmodule
"""
        result = backend(source, top="m").run()
        assert result.error is None
        assert result.display_lines == ["0000000500", "0000000500|500|500", "007|7|00"]

    def test_fatal_prints_format_not_finish_number(self, backend):
        source = """
module m;
    reg [3:0] c;
    initial begin
        c = 5;
        $fatal(1, "boom %0d", c);
        $display("not reached");
    end
endmodule
"""
        result = backend(source, top="m").run()
        assert result.finished
        assert result.display_lines == ["boom 5"]

    def test_monitor_prints_once_when_it_executes(self, backend):
        source = """
module m;
    reg [3:0] c;
    initial begin
        c = 0;
        $monitor("c=%0d", c);
        c = 3;
        #1 c = 5;
        #1 $finish;
    end
endmodule
"""
        result = backend(source, top="m").run()
        assert result.display_lines == ["c=0"]


class TestRunTestbench:
    def test_passing_design(self, sample_design):
        testbench = """
module tb;
    reg clk = 0;
    reg [3:0] data_in;
    wire [3:0] data_out;
    data_register dut(.clk(clk), .data_in(data_in), .data_out(data_out));
    always #5 clk = ~clk;
    initial begin
        data_in = 4'd3;
        #12;
        if (data_out === 4'd3) $display("TEST PASSED");
        else $display("TEST FAILED");
        $finish;
    end
endmodule
"""
        result = run_testbench(sample_design, testbench)
        assert result.compiled and result.simulated and result.passed

    def test_failing_design_detected(self):
        broken = """
module data_register(input clk, input [3:0] data_in, output reg [3:0] data_out);
    always @(posedge clk) data_out <= ~data_in;
endmodule
"""
        testbench = """
module tb;
    reg clk = 0;
    reg [3:0] data_in;
    wire [3:0] data_out;
    data_register dut(.clk(clk), .data_in(data_in), .data_out(data_out));
    always #5 clk = ~clk;
    initial begin
        data_in = 4'd3;
        #12;
        if (data_out === 4'd3) $display("TEST PASSED");
        else $display("TEST FAILED");
        $finish;
    end
endmodule
"""
        result = run_testbench(broken, testbench)
        assert result.compiled and result.simulated and not result.passed

    def test_unparseable_design_fails_compile(self):
        result = run_testbench("module broken(", "module tb; initial $finish; endmodule")
        assert not result.compiled
        assert not result.passed

    def test_missing_module_fails_compile(self):
        result = run_testbench(
            "module other(); endmodule",
            "module tb; wire x; data_register dut(.data_out(x)); initial $finish; endmodule",
        )
        assert not result.compiled


# With ``a``, ``b`` 4-bit and ``q`` 8-bit, IEEE 1364 sizes these operands to
# the 8-bit context before applying the operator; every backend here sizes
# them to 4 bits, observing the value in the comment.  Fixing the oracle
# moves verdicts and goldens, so it is a change of its own.
_SELF_DETERMINED_DEVIATIONS = {
    "not": ("~a", {"a": 5, "b": 0}, 250),  # observed 10
    "shift": ("a << 2", {"a": 15, "b": 0}, 60),  # observed 12
    "xnor": ("a ~^ b", {"a": 5, "b": 5}, 255),  # observed 15
}


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="IEEE 1364 deviation: self-determined operand widths")
@pytest.mark.parametrize("backend", ["interpreter", "compiled", "batch"])
@pytest.mark.parametrize("case", sorted(_SELF_DETERMINED_DEVIATIONS))
def test_context_determined_widths_follow_ieee_1364(case, backend):
    expression, inputs, ieee = _SELF_DETERMINED_DEVIATIONS[case]
    design = f"module dev(input [3:0] a, input [3:0] b, output [7:0] q);\n    assign q = {expression};\nendmodule\n"
    testbench = combinational_testbench("dev", [("a", 4), ("b", 4)], [("q", 8)], [(inputs, {"q": ieee})])
    if backend == "batch":
        [result] = simulate_batch([design], testbench)
        if result is None:
            pytest.fail("the vector path did not take the design")  # not the deviation: fail outright
        output = result.output
    else:
        output = run_testbench(design, testbench, backend=backend).output
    assert output.splitlines()[-1] == "TEST PASSED", output


# Writes whose range reaches outside the vector write only the bits inside it
# (IEEE 1364-2005 5.2.1), below bit 0 as above the top bit.
_OUT_OF_RANGE_WRITES = """
module m;
    reg [3:0] w, q;
    integer i;
    initial begin
        w = 4'b0000; q = 4'b1111; i = -1;
        w[i] = 1'b1;           // bit -1: nothing written
        q[1 -: 4] = 4'b0110;   // bits 1:-2: q[1:0] = 2'b01
        $display("%b %b", w, q);
        q[0 -: 2] <= 2'b01;    // bits 0:-1: q[0] = 1'b0
        #1 $display("%b", q);
        w[5:2] = 4'b1011;      // bits 5:2: w[3:2] = 2'b11
        $display("%b", w);
        i = 32'h7fffffff;
        w[i] = 1'b0;           // far above the top bit: nothing written
        i = 32'h80000000;      // -2**31: far below bit 0, reads x
        $display("%b %b", w, q[i]);
        $finish;
    end
endmodule
"""

#: ``shift_register_4`` with a non-blocking write to ``q[0:-1]``: only ``q[0]`` takes ``serial_in``.
_SHIFT_REGISTER_BELOW_BIT_0 = """module shift_register (
    input clk,
    input rst,
    input serial_in,
    output reg [3:0] q
);
    always @(posedge clk or posedge rst) begin
        if (rst) q <= 4'd0;
        else q[0 -: 2] <= {serial_in, q[3]};
    end
endmodule
"""


@pytest.mark.parametrize("backend", [Simulator, CompiledSimulator])
def test_writes_outside_the_vector_keep_their_in_range_bits(backend):
    result = backend(_OUT_OF_RANGE_WRITES, top="m").run()
    assert result.error is None
    assert result.display_lines == ["0000 1101", "1100", "1100", "1100 x"]


@pytest.mark.parametrize("backend", ["interpreter", "compiled"])
def test_a_write_below_bit_0_is_graded_not_raised(backend):
    problem = rtllm_suite().get("shift_register_4")
    designs = [problem.reference, _SHIFT_REGISTER_BELOW_BIT_0]
    expected = ["TEST PASSED", "MISMATCH q=0001 expected 1011\nTEST FAILED: 1 errors"]
    for results in (
        run_testbench_batch(designs, problem.testbench, backend=backend),
        check_designs_functional(designs, problem, backend=backend),
        [run_testbench(design, problem.testbench, backend=backend) for design in designs],
    ):
        assert [result.output for result in results] == expected
        assert [(result.compiled, result.simulated, result.passed) for result in results] == [
            (True, True, True),
            (True, True, False),
        ]


# Function and task bodies run through the one statement executor, and every
# local has its declared width and signedness (IEEE 1364-2005 10.3, 10.4).
# Each body below is called as ``f(8'h ...)`` or ``t(8'hff)`` from module
# ``m``; the expected lines are the IEEE results.
_CALLABLE_CASES = {
    "declared_local_width": (
        "function [7:0] f; input [7:0] a; reg [3:0] tmp; begin tmp = 8'hff; f = tmp; end endfunction",
        "x = f(8'd0); $display(\"%0d\", x);",
        ["15"],
    ),
    "while_in_function": (
        "function [7:0] f; input [7:0] a; reg [3:0] tmp;"
        " begin tmp = 0; f = 0; while (tmp < 3) begin tmp = tmp + 1; f = f + tmp; end end endfunction",
        "x = f(8'd0); $display(\"%0d\", x);",
        ["6"],
    ),
    "repeat_in_function": (
        "function [7:0] f; input [7:0] a; reg [3:0] tmp; begin tmp = 5; f = 0; repeat (2) f = f + tmp; end endfunction",
        "x = f(8'd0); $display(\"%0d\", x);",
        ["10"],
    ),
    "return_width_is_the_context": (
        "function [8:0] f; input [7:0] a; input [7:0] b; begin f = a + b; end endfunction",
        "x = f(8'hff, 8'hff); $display(\"%0d\", x);",
        ["510"],
    ),
    "integer_local_is_signed": (
        "function [39:0] f; input [7:0] a; integer k; begin k = 32'hffffffff; f = k; end endfunction",
        "w = f(8'd0); $display(\"%h\", w);",
        ["ffffffffff"],
    ),
    "bit_writes_into_the_return_value": (
        "function [3:0] f; input [3:0] a; integer i; begin for (i = 0; i < 4; i = i + 1) f[i] = a[3 - i]; end endfunction",
        "x = f(4'b0011); $display(\"%b\", x[3:0]);",
        ["1100"],
    ),
    "part_writes_into_the_return_value": (
        "function [7:0] f; input [7:0] a; begin f[7:4] = a[3:0]; f[3:0] = a[7:4]; end endfunction",
        "x = f(8'h3c); $display(\"%h\", x[7:0]);",
        ["c3"],
    ),
    "local_shadows_a_module_signal": (
        "function [39:0] f; input [7:0] a; integer w; begin w = 32'hffffffff; f = w; end endfunction",
        "w = f(8'd0); $display(\"%h\", w);",
        ["ffffffffff"],
    ),
    "display_in_function": (
        "function [7:0] f; input [7:0] a; begin $display(\"in f %0d\", a); f = a; end endfunction",
        "x = f(8'd3); $display(\"%0d\", x);",
        ["in f 3", "3"],
    ),
    "declared_task_local_width": (
        "task t; input [7:0] a; reg [3:0] tmp; begin tmp = a; $display(\"%0d\", tmp); end endtask",
        "t(8'hff);",
        ["15"],
    ),
    # 10.2.2: a task's output and inout ports are copied to their arguments
    # on return; arguments bind to the ports by position.
    "task_output_is_copied_to_its_argument": (
        "task t; input [7:0] a; output [7:0] y; begin y = a + 1; end endtask",
        "x = 0; t(8'd4, x); $display(\"%0d\", x);",
        ["5"],
    ),
    "task_inout_reads_and_writes_its_argument": (
        "task t; inout [7:0] y; begin y = y + 3; end endtask",
        "x = 4; t(x); $display(\"%0d\", x);",
        ["7"],
    ),
    "task_ports_bind_by_position": (
        "task t; output [7:0] y; input [7:0] a; begin y = a * 2; end endtask",
        "x = 0; t(x, 8'd5); $display(\"%0d\", x);",
        ["10"],
    ),
    "task_output_into_a_part_select": (
        "task t; input [7:0] a; output [7:0] y; begin y = a + 1; end endtask",
        "w = 0; t(8'd4, w[15:8]); $display(\"%0h\", w);",
        ["500"],
    ),
    # 10.4.1: a function without a range returns one bit; ``integer`` and
    # ``signed`` return types are signed.
    "function_without_a_range_returns_one_bit": (
        "function f; input a; begin f = a; end endfunction",
        "$display(\"%b\", {f(1'b1), 1'b0});",
        ["10"],
    ),
    "integer_function_returns_32_signed_bits": (
        "function integer f; input a; begin f = -1; end endfunction",
        "$display(\"%0d %0d\", f(1'b0), $bits(f(1'b0)));",
        ["-1 32"],
    ),
    "signed_function_return": (
        "function signed [7:0] f; input [7:0] a; begin f = a; end endfunction",
        "$display(\"%0d\", f(8'hff));",
        ["-1"],
    ),
}


@pytest.mark.parametrize("backend", [Simulator, CompiledSimulator], ids=["interpreter", "compiled"])
@pytest.mark.parametrize("case", sorted(_CALLABLE_CASES))
def test_function_and_task_bodies_follow_ieee_1364(case, backend):
    declaration, call, expected = _CALLABLE_CASES[case]
    source = (
        f"module m;\n    reg [8:0] x;\n    reg [39:0] w;\n    {declaration}\n"
        f"    initial begin {call} $finish; end\nendmodule\n"
    )
    result = backend(source, top="m").run()
    assert result.error is None
    assert result.display_lines == expected


@pytest.mark.parametrize("backend", [Simulator, CompiledSimulator], ids=["interpreter", "compiled"])
@pytest.mark.parametrize(
    "body, error",
    [
        ("#1 f = a;", "function f contains a delay or event control"),
        ("@(a) f = a;", "function f contains a delay or event control"),
        ("f <= a;", "function f contains a nonblocking assignment"),
    ],
)
def test_timing_and_nonblocking_writes_in_a_function_are_errors(body, error, backend):
    source = (
        "module m;\n    reg [7:0] x;\n"
        f"    function [7:0] f; input [7:0] a; begin {body} end endfunction\n"
        "    initial begin x = f(8'd3); $display(\"%0d\", x); $finish; end\nendmodule\n"
    )
    result = backend(source, top="m").run()
    assert result.error == error
    assert result.display_lines == []

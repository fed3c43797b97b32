"""Tests for the event-driven simulator."""

import pytest

from repro.evalbench.designs import combinational_testbench
from repro.sim.compiled import CompiledSimulator, simulate_batch
from repro.sim.simulator import SimulationError, Simulator
from repro.sim.testbench import run_testbench


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

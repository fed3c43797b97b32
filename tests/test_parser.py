"""Tests for the Verilog parser and AST."""

import pytest

from repro.verilog import ast_nodes as ast
from repro.verilog.parser import ParseError, parse_module, parse_source


class TestModuleStructure:
    def test_simple_module(self, sample_design):
        module = parse_module(sample_design)
        assert module.name == "data_register"
        assert [p.name for p in module.ports] == ["clk", "data_in", "data_out"]

    def test_ansi_port_directions(self, sample_design):
        module = parse_module(sample_design)
        directions = {p.name: p.direction for p in module.ports}
        assert directions == {"clk": "input", "data_in": "input", "data_out": "output"}

    def test_port_ranges(self, sample_design):
        module = parse_module(sample_design)
        data_in = module.ports[1]
        assert data_in.range is not None

    def test_multiple_modules(self):
        source = "module a; endmodule\nmodule b; endmodule"
        tree = parse_source(source)
        assert [m.name for m in tree.modules] == ["a", "b"]

    def test_source_file_module_lookup(self):
        tree = parse_source("module a; endmodule")
        assert tree.module("a").name == "a"
        with pytest.raises(KeyError):
            tree.module("missing")

    def test_module_with_parameters_in_header(self, sample_counter):
        module = parse_module(sample_counter)
        assert module.parameters[0].names == ["WIDTH"]

    def test_non_ansi_ports(self):
        source = """
module adder(a, b, sum);
    input [3:0] a;
    input [3:0] b;
    output [3:0] sum;
    assign sum = a + b;
endmodule
"""
        module = parse_module(source)
        assert [p.name for p in module.ports] == ["a", "b", "sum"]
        declarations = [i for i in module.items if isinstance(i, ast.PortDeclaration)]
        assert len(declarations) == 3

    def test_empty_source_raises(self):
        with pytest.raises(ParseError):
            parse_source("   ")

    def test_missing_endmodule_raises(self):
        with pytest.raises(ParseError):
            parse_source("module a; wire x;")

    def test_garbage_in_module_raises(self):
        with pytest.raises(ParseError):
            parse_source("module a; 123abc!! endmodule")

    def test_timescale_directive_ignored(self):
        source = "`timescale 1ns / 1ps\nmodule a; endmodule"
        assert parse_module(source).name == "a"

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_define_continuation_lines_are_its_payload(self, newline):
        """A ```define`` body continued with a trailing backslash is dropped whole, as iverilog reads it."""
        body = newline.join(
            ["`define ADD(a,b) \\", "  ((a)+ \\", "   (b))", "module m(input a, output y); assign y = a; endmodule"]
        )
        module = parse_module(body)
        assert module.name == "m"
        assert module == parse_module("module m(input a, output y); assign y = a; endmodule")

    def test_directive_payload_ends_at_a_line_without_backslash(self):
        source = "`define W 8\nmodule m; wire [`W-1:0] x; endmodule"
        assert parse_module(source).items[0].names == ["x"]
        with pytest.raises(ParseError, match="expected 'module' at line 2"):
            parse_source("`define W 8 // note\n  junk\nmodule m; endmodule")


class TestDeclarations:
    def test_wire_declaration_with_init(self):
        module = parse_module("module m; wire [7:0] x = 8'd5; endmodule")
        decl = module.items[0]
        assert isinstance(decl, ast.NetDeclaration)
        assert decl.net_type == "wire"
        assert decl.initializers[0] is not None

    def test_reg_array_declaration(self):
        module = parse_module("module m; reg [7:0] mem [0:15]; endmodule")
        decl = module.items[0]
        assert decl.array_ranges[0] is not None

    def test_multiple_names_one_declaration(self):
        module = parse_module("module m; reg a, b, c; endmodule")
        assert module.items[0].names == ["a", "b", "c"]

    def test_integer_declaration(self):
        module = parse_module("module m; integer i; endmodule")
        assert module.items[0].net_type == "integer"

    def test_localparam(self):
        module = parse_module("module m; localparam IDLE = 2'd0, RUN = 2'd1; endmodule")
        decl = module.items[0]
        assert decl.kind == "localparam"
        assert decl.names == ["IDLE", "RUN"]

    def test_signed_declaration(self):
        module = parse_module("module m; reg signed [7:0] x; endmodule")
        assert module.items[0].signed

    def test_genvar(self):
        module = parse_module("module m; genvar i; endmodule")
        assert isinstance(module.items[0], ast.GenvarDeclaration)


class TestBehaviouralItems:
    def test_always_block(self, sample_design):
        module = parse_module(sample_design)
        always = [i for i in module.items if isinstance(i, ast.AlwaysBlock)]
        assert len(always) == 1

    def test_initial_block(self):
        module = parse_module("module m; initial begin end endmodule")
        assert isinstance(module.items[0], ast.InitialBlock)

    def test_continuous_assign(self):
        module = parse_module("module m(input a, input b, output y); assign y = a & b; endmodule")
        assigns = [i for i in module.items if isinstance(i, ast.ContinuousAssign)]
        assert len(assigns) == 1

    def test_multiple_assigns_in_one_statement(self):
        module = parse_module("module m; wire a, b; assign a = 1'b0, b = 1'b1; endmodule")
        assigns = [i for i in module.items if isinstance(i, ast.ContinuousAssign)]
        assert len(assigns[0].assignments) == 2

    def test_gate_instance(self):
        module = parse_module("module m(input a, input b, output y); and g1(y, a, b); endmodule")
        gates = [i for i in module.items if isinstance(i, ast.GateInstance)]
        assert gates[0].gate_type == "and"
        assert len(gates[0].terminals) == 3

    def test_module_instance_named_connections(self):
        source = "module m; wire c, r, q; dff u0(.clk(c), .rst(r), .q(q)); endmodule"
        module = parse_module(source)
        instance = [i for i in module.items if isinstance(i, ast.ModuleInstance)][0]
        assert instance.module_name == "dff"
        assert instance.instance_name == "u0"
        assert {c.name for c in instance.connections} == {"clk", "rst", "q"}

    def test_module_instance_positional_connections(self):
        module = parse_module("module m; wire a, b, y; my_and u1(y, a, b); endmodule")
        instance = [i for i in module.items if isinstance(i, ast.ModuleInstance)][0]
        assert all(c.name is None for c in instance.connections)

    def test_module_instance_parameter_override(self):
        module = parse_module("module m; wire [7:0] c; counter #(.WIDTH(8)) u0(.count(c)); endmodule")
        instance = [i for i in module.items if isinstance(i, ast.ModuleInstance)][0]
        assert instance.parameter_overrides[0].name == "WIDTH"

    def test_function_declaration(self):
        source = """
module m;
    function [7:0] increment;
        input [7:0] value;
        begin
            increment = value + 1;
        end
    endfunction
endmodule
"""
        module = parse_module(source)
        functions = [i for i in module.items if isinstance(i, ast.FunctionDeclaration)]
        assert functions[0].name == "increment"

    def test_task_declaration(self):
        source = """
module m;
    task check;
        input [7:0] expected;
        begin
            $display("%d", expected);
        end
    endtask
endmodule
"""
        module = parse_module(source)
        tasks = [i for i in module.items if isinstance(i, ast.TaskDeclaration)]
        assert tasks[0].name == "check"

    def test_generate_block(self):
        source = "module m; generate wire g; assign g = 1'b1; endgenerate endmodule"
        module = parse_module(source)
        blocks = [i for i in module.items if isinstance(i, ast.GenerateBlock)]
        assert len(blocks) == 1


class TestStatements:
    def _body(self, statements: str) -> ast.Statement:
        module = parse_module(f"module m; reg [7:0] x, y; integer i; always @* begin {statements} end endmodule")
        always = [i for i in module.items if isinstance(i, ast.AlwaysBlock)][0]
        return always.body

    def test_if_else(self):
        body = self._body("if (x) y = 1; else y = 0;")
        statement = body.body.statements[0]
        assert isinstance(statement, ast.IfStatement)
        assert statement.else_body is not None

    def test_nested_if(self):
        body = self._body("if (x) if (y) x = 0; else y = 1;")
        outer = body.body.statements[0]
        assert isinstance(outer.then_body, ast.IfStatement)

    def test_case_statement(self):
        body = self._body("case (x) 1: y = 1; 2, 3: y = 2; default: y = 0; endcase")
        case = body.body.statements[0]
        assert isinstance(case, ast.CaseStatement)
        assert len(case.items) == 3
        assert case.items[1].patterns and len(case.items[1].patterns) == 2
        assert case.items[2].is_default

    def test_casez(self):
        body = self._body("casez (x) 8'b1???????: y = 1; default: y = 0; endcase")
        assert body.body.statements[0].kind == "casez"

    def test_for_loop(self):
        body = self._body("for (i = 0; i < 8; i = i + 1) y = y + 1;")
        loop = body.body.statements[0]
        assert isinstance(loop, ast.ForStatement)

    def test_while_loop(self):
        body = self._body("while (x > 0) x = x - 1;")
        assert isinstance(body.body.statements[0], ast.WhileStatement)

    def test_repeat(self):
        body = self._body("repeat (4) y = y + 1;")
        assert isinstance(body.body.statements[0], ast.RepeatStatement)

    def test_blocking_vs_nonblocking(self):
        body = self._body("x = 1; y <= 2;")
        statements = body.body.statements
        assert statements[0].blocking is True
        assert statements[1].blocking is False

    def test_nonblocking_to_zero(self):
        body = self._body("if (x) y <= 0;")
        assignment = body.body.statements[0].then_body
        assert isinstance(assignment, ast.Assignment)
        assert assignment.blocking is False

    def test_system_task(self):
        body = self._body('$display("value=%d", x);')
        assert isinstance(body.body.statements[0], ast.SystemTaskCall)

    def test_named_block(self):
        body = self._body("begin : inner x = 1; end")
        inner = body.body.statements[0]
        assert inner.name == "inner"

    def test_concatenation_target(self):
        body = self._body("{x, y} = 16'hABCD;")
        assignment = body.body.statements[0]
        assert isinstance(assignment.target, ast.Concatenation)

    def test_delay_statement_in_initial(self):
        module = parse_module("module m; reg c; initial begin #5 c = 1; #10; end endmodule")
        block = module.items[1].body
        assert isinstance(block.statements[0], ast.DelayStatement)

    def test_event_control_posedge(self, sample_counter):
        module = parse_module(sample_counter)
        always = [i for i in module.items if isinstance(i, ast.AlwaysBlock)][0]
        event = always.body
        assert isinstance(event, ast.EventControlStatement)
        assert event.controls[0].edge == "posedge"
        assert len(event.controls) == 2

    def test_always_star(self):
        module = parse_module("module m; reg y; wire a; always @* y = a; endmodule")
        always = [i for i in module.items if isinstance(i, ast.AlwaysBlock)][0]
        assert always.body.is_star

    def test_always_star_parenthesised(self):
        module = parse_module("module m; reg y; wire a; always @(*) y = a; endmodule")
        assert [i for i in module.items if isinstance(i, ast.AlwaysBlock)][0].body.is_star

    def test_wait_statement(self):
        module = parse_module("module m; reg x; initial begin wait (x) $finish; end endmodule")
        block = module.items[1].body
        assert isinstance(block.statements[0], ast.WaitStatement)

    def test_forever_loop(self):
        module = parse_module("module m; reg clk; initial forever #5 clk = ~clk; endmodule")
        assert isinstance(module.items[1].body, ast.ForeverStatement)


class TestExpressions:
    def _expr(self, text: str) -> ast.Expression:
        module = parse_module(f"module m; wire [31:0] a, b, c, y; assign y = {text}; endmodule")
        assign = [i for i in module.items if isinstance(i, ast.ContinuousAssign)][0]
        return assign.assignments[0][1]

    def test_precedence_mul_over_add(self):
        expr = self._expr("a + b * c")
        assert expr.op == "+"
        assert expr.right.op == "*"

    def test_precedence_logical(self):
        expr = self._expr("a == b && c")
        assert expr.op == "&&"

    def test_parentheses_override(self):
        expr = self._expr("(a + b) * c")
        assert expr.op == "*"
        assert expr.left.op == "+"

    def test_ternary(self):
        expr = self._expr("a ? b : c")
        assert isinstance(expr, ast.Conditional)

    def test_nested_ternary(self):
        expr = self._expr("a ? b : c ? a : b")
        assert isinstance(expr.if_false, ast.Conditional)

    def test_unary_reduction(self):
        expr = self._expr("^a")
        assert isinstance(expr, ast.UnaryOp)
        assert expr.op == "^"

    def test_concatenation(self):
        expr = self._expr("{a, b, 2'b01}")
        assert isinstance(expr, ast.Concatenation)
        assert len(expr.parts) == 3

    def test_replication(self):
        expr = self._expr("{4{a}}")
        assert isinstance(expr, ast.Replication)

    def test_bit_select(self):
        expr = self._expr("a[3]")
        assert isinstance(expr, ast.BitSelect)

    def test_part_select(self):
        expr = self._expr("a[7:4]")
        assert isinstance(expr, ast.PartSelect)

    def test_indexed_part_select(self):
        expr = self._expr("a[b +: 4]")
        assert isinstance(expr, ast.PartSelect)
        assert expr.mode == "+:"

    def test_function_call_expression(self):
        expr = self._expr("my_func(a, b)")
        assert isinstance(expr, ast.FunctionCall)
        assert len(expr.args) == 2

    def test_system_function_call(self):
        expr = self._expr("$clog2(a)")
        assert isinstance(expr, ast.FunctionCall)
        assert expr.name == "$clog2"

    def test_number_parsing(self):
        expr = self._expr("8'hA5")
        assert isinstance(expr, ast.Number)
        assert expr.width == 8
        assert expr.base == "h"
        assert expr.value_text == "A5"

    def test_signed_number_literal(self):
        expr = self._expr("8'sd12")
        assert expr.signed

    def test_hierarchical_identifier(self):
        expr = self._expr("dut.internal_count")
        assert isinstance(expr, ast.Identifier)
        assert expr.name == "dut.internal_count"


class TestAstTraversal:
    def test_walk_visits_all_identifiers(self, sample_design):
        module = parse_module(sample_design)
        identifiers = {n.name for n in module.walk() if isinstance(n, ast.Identifier)}
        assert {"clk", "data_in", "data_out"} <= identifiers

    def test_children_of_binary_op(self):
        expr = ast.BinaryOp(op="+", left=ast.Identifier(name="a"), right=ast.Identifier(name="b"))
        children = list(expr.children())
        assert len(children) == 2

    def test_continuous_assign_children(self):
        assign = ast.ContinuousAssign(assignments=[(ast.Identifier(name="y"), ast.Identifier(name="a"))])
        assert len(list(assign.children())) == 2

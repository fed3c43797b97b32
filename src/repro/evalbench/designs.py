"""Reference designs and self-checking testbenches for the benchmark suites.

Every builder returns a ``(prompt, reference, testbench)`` triple.  Prompts
describe the module name and its ports explicitly (as both RTLLM and the
low-level VGen prompts do), references are golden implementations, and
testbenches are self-checking: they print ``TEST PASSED`` when every check
passes and ``MISMATCH``/``TEST FAILED`` otherwise, which is what the
functional grader looks for.

Combinational problems share a generic vector-based testbench generator whose
expected values are computed in Python; sequential problems use hand-written
templates.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

DesignTriple = Tuple[str, str, str]


# --------------------------------------------------------------------------- #
# Generic combinational testbench generation
# --------------------------------------------------------------------------- #


def combinational_testbench(
    module_name: str,
    inputs: Sequence[Tuple[str, int]],
    outputs: Sequence[Tuple[str, int]],
    vectors: Sequence[Tuple[Dict[str, int], Dict[str, int]]],
) -> str:
    """Build a self-checking testbench applying explicit input/output vectors.

    Args:
        module_name: name of the device under test.
        inputs: ``(port, width)`` pairs driven by the testbench.
        outputs: ``(port, width)`` pairs checked by the testbench.
        vectors: list of ``(input values, expected output values)`` pairs.
    """
    lines: List[str] = [f"module {module_name}_tb;"]
    for name, width in inputs:
        decl = f"    reg [{width - 1}:0] {name};" if width > 1 else f"    reg {name};"
        lines.append(decl)
    for name, width in outputs:
        decl = f"    wire [{width - 1}:0] {name};" if width > 1 else f"    wire {name};"
        lines.append(decl)
    lines.append("    integer errors;")
    connections = ", ".join(f".{name}({name})" for name, _ in list(inputs) + list(outputs))
    lines.append(f"    {module_name} dut({connections});")
    lines.append("    initial begin")
    lines.append("        errors = 0;")
    for input_values, expected in vectors:
        for name, width in inputs:
            value = input_values.get(name, 0) & ((1 << width) - 1)
            lines.append(f"        {name} = {width}'d{value};")
        lines.append("        #10;")
        for name, width in outputs:
            if name not in expected:
                continue
            value = expected[name] & ((1 << width) - 1)
            lines.append(f"        if ({name} !== {width}'d{value}) begin")
            lines.append(f"            errors = errors + 1;")
            lines.append(f'            $display("MISMATCH {name}: got %d expected {value}", {name});')
            lines.append("        end")
    lines.append('        if (errors == 0) $display("TEST PASSED");')
    lines.append('        else $display("TEST FAILED: %d errors", errors);')
    lines.append("        $finish;")
    lines.append("    end")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


def _port_list_text(inputs: Sequence[Tuple[str, int]], outputs: Sequence[Tuple[str, int]], reg_outputs: bool = False) -> str:
    parts = []
    for name, width in inputs:
        rng = f" [{width - 1}:0]" if width > 1 else ""
        parts.append(f"    input{rng} {name}")
    for name, width in outputs:
        rng = f" [{width - 1}:0]" if width > 1 else ""
        kind = " reg" if reg_outputs else ""
        parts.append(f"    output{kind}{rng} {name}")
    return ",\n".join(parts)


def _header(module_name: str, inputs, outputs, reg_outputs: bool = False) -> str:
    return f"module {module_name} (\n{_port_list_text(inputs, outputs, reg_outputs)}\n);"


# --------------------------------------------------------------------------- #
# Combinational designs
# --------------------------------------------------------------------------- #


def mux2(module_name: str = "mux2to1", width: int = 8) -> DesignTriple:
    """2-to-1 multiplexer."""
    inputs = [("a", width), ("b", width), ("sel", 1)]
    outputs = [("out", width)]
    prompt = (
        f"Implement a Verilog module named {module_name} that selects between two {width}-bit inputs. "
        f"Ports: input [{width - 1}:0] a, input [{width - 1}:0] b, input sel, output [{width - 1}:0] out. "
        "When sel is 0 the output equals a; when sel is 1 the output equals b."
    )
    reference = (
        _header(module_name, inputs, outputs)
        + "\n    assign out = sel ? b : a;\nendmodule\n"
    )
    mask = (1 << width) - 1
    vectors = []
    for a, b, sel in [(0x3C & mask, 0x55 & mask, 0), (0x3C & mask, 0x55 & mask, 1), (0, mask, 1), (mask, 0, 0)]:
        vectors.append(({"a": a, "b": b, "sel": sel}, {"out": b if sel else a}))
    return prompt, reference, combinational_testbench(module_name, inputs, outputs, vectors)


def mux4(module_name: str = "mux4to1", width: int = 8) -> DesignTriple:
    """4-to-1 multiplexer."""
    inputs = [("a", width), ("b", width), ("c", width), ("d", width), ("sel", 2)]
    outputs = [("out", width)]
    prompt = (
        f"Implement a Verilog module named {module_name}: a 4-to-1 multiplexer for {width}-bit data. "
        f"Ports: input [{width - 1}:0] a, b, c, d, input [1:0] sel, output [{width - 1}:0] out. "
        "sel=0 selects a, sel=1 selects b, sel=2 selects c, sel=3 selects d."
    )
    reference = (
        _header(module_name, inputs, outputs, reg_outputs=True)
        + "\n    always @* begin\n        case (sel)\n            2'd0: out = a;\n            2'd1: out = b;\n"
        "            2'd2: out = c;\n            default: out = d;\n        endcase\n    end\nendmodule\n"
    )
    mask = (1 << width) - 1
    values = {"a": 1 & mask, "b": 2 & mask, "c": 4 & mask, "d": 8 & mask}
    vectors = []
    for sel, key in enumerate(["a", "b", "c", "d"]):
        stimulus = dict(values)
        stimulus["sel"] = sel
        vectors.append((stimulus, {"out": values[key]}))
    return prompt, reference, combinational_testbench(module_name, inputs, outputs, vectors)


def adder(module_name: str = "adder", width: int = 8, with_carry: bool = True) -> DesignTriple:
    """Ripple adder with optional carry ports."""
    mask = (1 << width) - 1
    if with_carry:
        inputs = [("a", width), ("b", width), ("cin", 1)]
        outputs = [("sum", width), ("cout", 1)]
        prompt = (
            f"Implement a Verilog module named {module_name}: a {width}-bit adder with carry. "
            f"Ports: input [{width - 1}:0] a, input [{width - 1}:0] b, input cin, "
            f"output [{width - 1}:0] sum, output cout. The outputs satisfy {{cout, sum}} = a + b + cin."
        )
        reference = (
            _header(module_name, inputs, outputs)
            + "\n    assign {cout, sum} = a + b + cin;\nendmodule\n"
        )
        vectors = []
        for a, b, cin in [(1, 2, 0), (mask, 1, 0), (mask, mask, 1), (0x2A & mask, 0x15 & mask, 1)]:
            total = a + b + cin
            vectors.append(({"a": a, "b": b, "cin": cin}, {"sum": total & mask, "cout": (total >> width) & 1}))
    else:
        inputs = [("a", width), ("b", width)]
        outputs = [("sum", width)]
        prompt = (
            f"Implement a Verilog module named {module_name}: a {width}-bit adder. "
            f"Ports: input [{width - 1}:0] a, input [{width - 1}:0] b, output [{width - 1}:0] sum. "
            "The output is the sum of the inputs (modulo 2^width)."
        )
        reference = _header(module_name, inputs, outputs) + "\n    assign sum = a + b;\nendmodule\n"
        vectors = [({"a": a, "b": b}, {"sum": (a + b) & mask}) for a, b in [(1, 2), (10, 20), (mask, 1), (77 & mask, 33 & mask)]]
    return prompt, reference, combinational_testbench(module_name, inputs, outputs, vectors)


def subtractor(module_name: str = "subtractor", width: int = 8) -> DesignTriple:
    """Combinational subtractor."""
    mask = (1 << width) - 1
    inputs = [("a", width), ("b", width)]
    outputs = [("diff", width), ("borrow", 1)]
    prompt = (
        f"Implement a Verilog module named {module_name}: a {width}-bit subtractor. "
        f"Ports: input [{width - 1}:0] a, input [{width - 1}:0] b, output [{width - 1}:0] diff, output borrow. "
        "diff = a - b and borrow is 1 when a < b."
    )
    reference = (
        _header(module_name, inputs, outputs)
        + "\n    assign diff = a - b;\n    assign borrow = (a < b);\nendmodule\n"
    )
    vectors = []
    for a, b in [(10, 3), (3, 10), (mask, mask), (0, 1)]:
        vectors.append(({"a": a, "b": b}, {"diff": (a - b) & mask, "borrow": int(a < b)}))
    return prompt, reference, combinational_testbench(module_name, inputs, outputs, vectors)


def alu(module_name: str = "alu", width: int = 8) -> DesignTriple:
    """Small 8-operation ALU with a zero flag."""
    mask = (1 << width) - 1
    inputs = [("a", width), ("b", width), ("op", 3)]
    outputs = [("result", width), ("zero", 1)]
    prompt = (
        f"Implement a Verilog module named {module_name}: a {width}-bit ALU. "
        f"Ports: input [{width - 1}:0] a, input [{width - 1}:0] b, input [2:0] op, "
        f"output [{width - 1}:0] result, output zero. Operations: op=0 add, op=1 subtract, op=2 AND, "
        "op=3 OR, op=4 XOR, op=5 NOT a, op=6 shift a left by 1, op=7 pass a. "
        "zero is 1 when the result is 0."
    )
    reference = (
        _header(module_name, inputs, outputs, reg_outputs=False).replace("output [", "output reg [", 1).replace("output reg [7:0] result", f"output reg [{width - 1}:0] result")
    )
    # Build the reference explicitly to avoid the replace juggling above.
    reference = (
        f"module {module_name} (\n"
        f"    input [{width - 1}:0] a,\n    input [{width - 1}:0] b,\n    input [2:0] op,\n"
        f"    output reg [{width - 1}:0] result,\n    output zero\n);\n"
        f"    assign zero = (result == {width}'d0);\n"
        "    always @* begin\n        case (op)\n"
        "            3'd0: result = a + b;\n            3'd1: result = a - b;\n            3'd2: result = a & b;\n"
        "            3'd3: result = a | b;\n            3'd4: result = a ^ b;\n            3'd5: result = ~a;\n"
        "            3'd6: result = a << 1;\n            default: result = a;\n        endcase\n    end\nendmodule\n"
    )

    def model(a: int, b: int, op: int) -> int:
        operations = [a + b, a - b, a & b, a | b, a ^ b, ~a, a << 1, a]
        return operations[op] & mask

    vectors = []
    for op in range(8):
        a, b = 0x3C & mask, 0x05 & mask
        result = model(a, b, op)
        vectors.append(({"a": a, "b": b, "op": op}, {"result": result, "zero": int(result == 0)}))
    vectors.append(({"a": 5, "b": 5, "op": 1}, {"result": 0, "zero": 1}))
    return prompt, reference, combinational_testbench(module_name, inputs, outputs, vectors)


def comparator(module_name: str = "comparator", width: int = 8) -> DesignTriple:
    """Magnitude comparator."""
    inputs = [("a", width), ("b", width)]
    outputs = [("eq", 1), ("gt", 1), ("lt", 1)]
    prompt = (
        f"Implement a Verilog module named {module_name} comparing two {width}-bit unsigned inputs. "
        f"Ports: input [{width - 1}:0] a, input [{width - 1}:0] b, output eq, output gt, output lt. "
        "eq=1 when a==b, gt=1 when a>b, lt=1 when a<b."
    )
    reference = (
        _header(module_name, inputs, outputs)
        + "\n    assign eq = (a == b);\n    assign gt = (a > b);\n    assign lt = (a < b);\nendmodule\n"
    )
    vectors = []
    for a, b in [(5, 5), (9, 3), (3, 9), (0, 0)]:
        vectors.append(({"a": a, "b": b}, {"eq": int(a == b), "gt": int(a > b), "lt": int(a < b)}))
    return prompt, reference, combinational_testbench(module_name, inputs, outputs, vectors)


def decoder(module_name: str = "decoder3to8", in_width: int = 3) -> DesignTriple:
    """Binary to one-hot decoder."""
    out_width = 1 << in_width
    inputs = [("sel", in_width)]
    outputs = [("out", out_width)]
    prompt = (
        f"Implement a Verilog module named {module_name}: a {in_width}-to-{out_width} one-hot decoder. "
        f"Ports: input [{in_width - 1}:0] sel, output [{out_width - 1}:0] out. "
        "Exactly the bit indexed by sel is 1, all other bits are 0."
    )
    reference = (
        _header(module_name, inputs, outputs)
        + f"\n    assign out = {out_width}'d1 << sel;\nendmodule\n"
    )
    vectors = [({"sel": i}, {"out": 1 << i}) for i in range(out_width)]
    return prompt, reference, combinational_testbench(module_name, inputs, outputs, vectors)


def priority_encoder(module_name: str = "priority_encoder") -> DesignTriple:
    """4-to-2 priority encoder with valid flag."""
    inputs = [("in", 4)]
    outputs = [("out", 2), ("valid", 1)]
    prompt = (
        f"Implement a Verilog module named {module_name}: a 4-to-2 priority encoder. "
        "Ports: input [3:0] in, output [1:0] out, output valid. "
        "out is the index of the highest set bit of in; valid is 0 when in is all zeros."
    )
    reference = (
        f"module {module_name} (\n    input [3:0] in,\n    output reg [1:0] out,\n    output reg valid\n);\n"
        "    always @* begin\n        valid = 1'b1;\n        casez (in)\n"
        "            4'b1???: out = 2'd3;\n            4'b01??: out = 2'd2;\n"
        "            4'b001?: out = 2'd1;\n            4'b0001: out = 2'd0;\n"
        "            default: begin out = 2'd0; valid = 1'b0; end\n        endcase\n    end\nendmodule\n"
    )
    vectors = []
    for value in [0b0000, 0b0001, 0b0010, 0b0101, 0b1000, 0b1111]:
        if value == 0:
            expected = {"out": 0, "valid": 0}
        else:
            expected = {"out": value.bit_length() - 1, "valid": 1}
        vectors.append(({"in": value}, expected))
    return prompt, reference, combinational_testbench(module_name, inputs, outputs, vectors)


def gray_converter(module_name: str = "bin2gray", width: int = 8) -> DesignTriple:
    """Binary to Gray-code converter."""
    inputs = [("bin", width)]
    outputs = [("gray", width)]
    prompt = (
        f"Implement a Verilog module named {module_name} that converts a {width}-bit binary value to Gray code. "
        f"Ports: input [{width - 1}:0] bin, output [{width - 1}:0] gray. gray = bin ^ (bin >> 1)."
    )
    reference = _header(module_name, inputs, outputs) + "\n    assign gray = bin ^ (bin >> 1);\nendmodule\n"
    vectors = [({"bin": v}, {"gray": v ^ (v >> 1)}) for v in [0, 1, 2, 3, 7, 12, 255 & ((1 << width) - 1)]]
    return prompt, reference, combinational_testbench(module_name, inputs, outputs, vectors)


def parity_generator(module_name: str = "parity_gen", width: int = 8, odd: bool = False) -> DesignTriple:
    """Even/odd parity generator."""
    inputs = [("data", width)]
    outputs = [("parity", 1)]
    kind = "odd" if odd else "even"
    prompt = (
        f"Implement a Verilog module named {module_name} that computes the {kind} parity bit of a {width}-bit input. "
        f"Ports: input [{width - 1}:0] data, output parity."
    )
    expr = "~^data" if odd else "^data"
    reference = _header(module_name, inputs, outputs) + f"\n    assign parity = {expr};\nendmodule\n"
    vectors = []
    for value in [0, 1, 3, 7, 0xFF & ((1 << width) - 1), 0xA5 & ((1 << width) - 1)]:
        ones = bin(value).count("1")
        parity = ones % 2
        if odd:
            parity ^= 1
        vectors.append(({"data": value}, {"parity": parity}))
    return prompt, reference, combinational_testbench(module_name, inputs, outputs, vectors)


def barrel_shifter(module_name: str = "barrel_shifter", width: int = 8) -> DesignTriple:
    """Bidirectional logical shifter."""
    mask = (1 << width) - 1
    inputs = [("data", width), ("amount", 3), ("dir", 1)]
    outputs = [("out", width)]
    prompt = (
        f"Implement a Verilog module named {module_name}: a {width}-bit shifter. "
        f"Ports: input [{width - 1}:0] data, input [2:0] amount, input dir, output [{width - 1}:0] out. "
        "When dir is 0 the data is shifted left by amount; when dir is 1 it is shifted right."
    )
    reference = (
        _header(module_name, inputs, outputs)
        + "\n    assign out = dir ? (data >> amount) : (data << amount);\nendmodule\n"
    )
    vectors = []
    for data, amount, direction in [(0x0F, 2, 0), (0xF0 & mask, 3, 1), (1, 7, 0), (mask, 1, 1)]:
        expected = (data >> amount) if direction else (data << amount)
        vectors.append(({"data": data, "amount": amount, "dir": direction}, {"out": expected & mask}))
    return prompt, reference, combinational_testbench(module_name, inputs, outputs, vectors)


def half_adder(module_name: str = "half_adder") -> DesignTriple:
    """1-bit half adder."""
    inputs = [("a", 1), ("b", 1)]
    outputs = [("sum", 1), ("carry", 1)]
    prompt = (
        f"Implement a Verilog module named {module_name}: a half adder. "
        "Ports: input a, input b, output sum, output carry. sum = a XOR b, carry = a AND b."
    )
    reference = (
        _header(module_name, inputs, outputs)
        + "\n    assign sum = a ^ b;\n    assign carry = a & b;\nendmodule\n"
    )
    vectors = [({"a": a, "b": b}, {"sum": a ^ b, "carry": a & b}) for a in (0, 1) for b in (0, 1)]
    return prompt, reference, combinational_testbench(module_name, inputs, outputs, vectors)


def full_adder(module_name: str = "full_adder") -> DesignTriple:
    """1-bit full adder."""
    inputs = [("a", 1), ("b", 1), ("cin", 1)]
    outputs = [("sum", 1), ("cout", 1)]
    prompt = (
        f"Implement a Verilog module named {module_name}: a full adder. "
        "Ports: input a, input b, input cin, output sum, output cout. "
        "{cout, sum} = a + b + cin."
    )
    reference = (
        _header(module_name, inputs, outputs)
        + "\n    assign {cout, sum} = a + b + cin;\nendmodule\n"
    )
    vectors = []
    for a in (0, 1):
        for b in (0, 1):
            for cin in (0, 1):
                total = a + b + cin
                vectors.append(({"a": a, "b": b, "cin": cin}, {"sum": total & 1, "cout": total >> 1}))
    return prompt, reference, combinational_testbench(module_name, inputs, outputs, vectors)


def logic_gate(module_name: str = "and_gate", operation: str = "and", width: int = 1) -> DesignTriple:
    """Simple two-input gate module (and/or/xor/nand/nor/xnor)."""
    mask = (1 << width) - 1
    expressions = {
        "and": "a & b",
        "or": "a | b",
        "xor": "a ^ b",
        "nand": "~(a & b)",
        "nor": "~(a | b)",
        "xnor": "~(a ^ b)",
    }
    models = {
        "and": lambda a, b: a & b,
        "or": lambda a, b: a | b,
        "xor": lambda a, b: a ^ b,
        "nand": lambda a, b: ~(a & b) & mask,
        "nor": lambda a, b: ~(a | b) & mask,
        "xnor": lambda a, b: ~(a ^ b) & mask,
    }
    inputs = [("a", width), ("b", width)]
    outputs = [("y", width)]
    prompt = (
        f"Implement a Verilog module named {module_name} computing the bitwise {operation.upper()} of two "
        f"{width}-bit inputs. Ports: input{'' if width == 1 else f' [{width - 1}:0]'} a, "
        f"input{'' if width == 1 else f' [{width - 1}:0]'} b, output{'' if width == 1 else f' [{width - 1}:0]'} y."
    )
    reference = _header(module_name, inputs, outputs) + f"\n    assign y = {expressions[operation]};\nendmodule\n"
    pairs = [(0, 0), (0, mask), (mask, 0), (mask, mask), (0b0101 & mask, 0b0011 & mask)]
    vectors = [({"a": a, "b": b}, {"y": models[operation](a, b)}) for a, b in pairs]
    return prompt, reference, combinational_testbench(module_name, inputs, outputs, vectors)


def absolute_value(module_name: str = "abs_value", width: int = 8) -> DesignTriple:
    """Absolute value of a signed input."""
    mask = (1 << width) - 1
    inputs = [("in", width)]
    outputs = [("out", width)]
    prompt = (
        f"Implement a Verilog module named {module_name} that outputs the absolute value of a signed {width}-bit "
        f"two's-complement input. Ports: input [{width - 1}:0] in, output [{width - 1}:0] out. "
        f"When the sign bit in[{width - 1}] is 1, out = -in, otherwise out = in."
    )
    reference = (
        _header(module_name, inputs, outputs)
        + f"\n    assign out = in[{width - 1}] ? (~in + 1'b1) : in;\nendmodule\n"
    )
    vectors = []
    for value in [5, 0, (-7) & mask, (-128) & mask, 127 & mask]:
        signed = value - (1 << width) if value >> (width - 1) else value
        vectors.append(({"in": value}, {"out": abs(signed) & mask}))
    return prompt, reference, combinational_testbench(module_name, inputs, outputs, vectors)


def min_max(module_name: str = "min_max", width: int = 8) -> DesignTriple:
    """Minimum and maximum of two unsigned values."""
    inputs = [("a", width), ("b", width)]
    outputs = [("min_out", width), ("max_out", width)]
    prompt = (
        f"Implement a Verilog module named {module_name} that outputs the minimum and maximum of two {width}-bit "
        f"unsigned inputs. Ports: input [{width - 1}:0] a, input [{width - 1}:0] b, "
        f"output [{width - 1}:0] min_out, output [{width - 1}:0] max_out."
    )
    reference = (
        _header(module_name, inputs, outputs)
        + "\n    assign min_out = (a < b) ? a : b;\n    assign max_out = (a > b) ? a : b;\nendmodule\n"
    )
    vectors = [({"a": a, "b": b}, {"min_out": min(a, b), "max_out": max(a, b)}) for a, b in [(3, 9), (9, 3), (7, 7), (0, 255)]]
    return prompt, reference, combinational_testbench(module_name, inputs, outputs, vectors)


# --------------------------------------------------------------------------- #
# Sequential designs
# --------------------------------------------------------------------------- #


def data_register(module_name: str = "data_register", width: int = 4) -> DesignTriple:
    """The paper's running example: a clocked data register (Fig. 5)."""
    prompt = (
        f'Create a simple Verilog module named "{module_name}" that takes a {width}-bit input data_in and assigns '
        f"it to a {width}-bit output data_out using a non-blocking assignment on the positive edge of the clock. "
        f"Ports: input clk, input [{width - 1}:0] data_in, output reg [{width - 1}:0] data_out."
    )
    reference = (
        f"module {module_name} (\n    input clk,\n    input [{width - 1}:0] data_in,\n"
        f"    output reg [{width - 1}:0] data_out\n);\n"
        "    always @(posedge clk) begin\n        data_out <= data_in;\n    end\nendmodule\n"
    )
    testbench = f"""module {module_name}_tb;
    reg clk = 0;
    reg [{width - 1}:0] data_in;
    wire [{width - 1}:0] data_out;
    integer errors;
    {module_name} dut(.clk(clk), .data_in(data_in), .data_out(data_out));
    always #5 clk = ~clk;
    initial begin
        errors = 0;
        data_in = {width}'d3;
        #12;
        if (data_out !== {width}'d3) begin errors = errors + 1; $display("MISMATCH after first edge: %d", data_out); end
        data_in = {width}'d9;
        #10;
        if (data_out !== {width}'d9) begin errors = errors + 1; $display("MISMATCH after second edge: %d", data_out); end
        data_in = {width}'d5;
        #3;
        if (data_out !== {width}'d9) begin errors = errors + 1; $display("MISMATCH before edge: %d", data_out); end
        #10;
        if (data_out !== {width}'d5) begin errors = errors + 1; $display("MISMATCH after third edge: %d", data_out); end
        if (errors == 0) $display("TEST PASSED");
        else $display("TEST FAILED: %d errors", errors);
        $finish;
    end
endmodule
"""
    return prompt, reference, testbench


def dff(module_name: str = "dff", with_reset: bool = True) -> DesignTriple:
    """D flip-flop with optional asynchronous reset."""
    reset_port = "input rst,\n    " if with_reset else ""
    prompt = (
        f"Implement a Verilog module named {module_name}: a D flip-flop"
        + (" with asynchronous active-high reset" if with_reset else "")
        + f". Ports: input clk, {'input rst, ' if with_reset else ''}input d, output reg q. "
        "q follows d on the rising clock edge" + (" and clears to 0 when rst is high." if with_reset else ".")
    )
    if with_reset:
        body = (
            "    always @(posedge clk or posedge rst) begin\n"
            "        if (rst) q <= 1'b0;\n        else q <= d;\n    end\n"
        )
    else:
        body = "    always @(posedge clk) begin\n        q <= d;\n    end\n"
    reference = f"module {module_name} (\n    input clk,\n    {reset_port}input d,\n    output reg q\n);\n{body}endmodule\n"
    reset_decl = "reg rst;" if with_reset else ""
    reset_conn = ".rst(rst), " if with_reset else ""
    reset_init = "rst = 1; #7 rst = 0;" if with_reset else ""
    reset_check = (
        'rst = 1; #3; if (q !== 1\'b0) begin errors = errors + 1; $display("MISMATCH reset"); end rst = 0;'
        if with_reset
        else ""
    )
    testbench = f"""module {module_name}_tb;
    reg clk = 0;
    reg d;
    {reset_decl}
    wire q;
    integer errors;
    {module_name} dut(.clk(clk), {reset_conn}.d(d), .q(q));
    always #5 clk = ~clk;
    initial begin
        errors = 0;
        d = 0;
        {reset_init}
        d = 1;
        #10;
        if (q !== 1'b1) begin errors = errors + 1; $display("MISMATCH q should be 1"); end
        d = 0;
        #10;
        if (q !== 1'b0) begin errors = errors + 1; $display("MISMATCH q should be 0"); end
        d = 1;
        #10;
        {reset_check}
        if (errors == 0) $display("TEST PASSED");
        else $display("TEST FAILED: %d errors", errors);
        $finish;
    end
endmodule
"""
    return prompt, reference, testbench


def t_flip_flop(module_name: str = "t_ff") -> DesignTriple:
    """Toggle flip-flop."""
    prompt = (
        f"Implement a Verilog module named {module_name}: a T flip-flop with asynchronous reset. "
        "Ports: input clk, input rst, input t, output reg q. On the rising clock edge, q toggles when t is 1 "
        "and holds when t is 0; rst clears q to 0."
    )
    reference = (
        f"module {module_name} (\n    input clk,\n    input rst,\n    input t,\n    output reg q\n);\n"
        "    always @(posedge clk or posedge rst) begin\n"
        "        if (rst) q <= 1'b0;\n        else if (t) q <= ~q;\n    end\nendmodule\n"
    )
    testbench = f"""module {module_name}_tb;
    reg clk = 0, rst, t;
    wire q;
    integer errors;
    {module_name} dut(.clk(clk), .rst(rst), .t(t), .q(q));
    always #5 clk = ~clk;
    initial begin
        errors = 0;
        rst = 1; t = 0;
        #7 rst = 0;
        t = 1;
        #10;
        if (q !== 1'b1) begin errors = errors + 1; $display("MISMATCH toggle 1"); end
        #10;
        if (q !== 1'b0) begin errors = errors + 1; $display("MISMATCH toggle 2"); end
        t = 0;
        #10;
        if (q !== 1'b0) begin errors = errors + 1; $display("MISMATCH hold"); end
        if (errors == 0) $display("TEST PASSED");
        else $display("TEST FAILED: %d errors", errors);
        $finish;
    end
endmodule
"""
    return prompt, reference, testbench


def counter(module_name: str = "up_counter", width: int = 4, down: bool = False) -> DesignTriple:
    """Up/down counter with enable and asynchronous reset."""
    direction = "down" if down else "up"
    step = "count - 1'b1" if down else "count + 1'b1"
    prompt = (
        f"Implement a Verilog module named {module_name}: a {width}-bit {direction} counter. "
        f"Ports: input clk, input rst, input en, output reg [{width - 1}:0] count. "
        "rst asynchronously clears the counter to 0; when en is high the counter "
        f"{'decrements' if down else 'increments'} by 1 on each rising clock edge."
    )
    reference = (
        f"module {module_name} (\n    input clk,\n    input rst,\n    input en,\n"
        f"    output reg [{width - 1}:0] count\n);\n"
        "    always @(posedge clk or posedge rst) begin\n"
        f"        if (rst) count <= {width}'d0;\n        else if (en) count <= {step};\n    end\nendmodule\n"
    )
    mask = (1 << width) - 1
    expected_after_5 = (0 - 5) & mask if down else 5
    expected_hold = expected_after_5
    testbench = f"""module {module_name}_tb;
    reg clk = 0, rst, en;
    wire [{width - 1}:0] count;
    integer errors;
    {module_name} dut(.clk(clk), .rst(rst), .en(en), .count(count));
    always #5 clk = ~clk;
    initial begin
        errors = 0;
        rst = 1; en = 0;
        #12 rst = 0;
        if (count !== {width}'d0) begin errors = errors + 1; $display("MISMATCH reset value %d", count); end
        en = 1;
        #50;
        if (count !== {width}'d{expected_after_5}) begin errors = errors + 1; $display("MISMATCH after 5 edges: %d", count); end
        en = 0;
        #20;
        if (count !== {width}'d{expected_hold}) begin errors = errors + 1; $display("MISMATCH hold: %d", count); end
        rst = 1;
        #3;
        if (count !== {width}'d0) begin errors = errors + 1; $display("MISMATCH async reset: %d", count); end
        if (errors == 0) $display("TEST PASSED");
        else $display("TEST FAILED: %d errors", errors);
        $finish;
    end
endmodule
"""
    return prompt, reference, testbench


def shift_register(module_name: str = "shift_register", width: int = 4) -> DesignTriple:
    """Serial-in shift register."""
    prompt = (
        f"Implement a Verilog module named {module_name}: a {width}-bit serial-in shift register. "
        f"Ports: input clk, input rst, input serial_in, output reg [{width - 1}:0] q. "
        "On each rising clock edge the register shifts left by one and serial_in becomes the new LSB; "
        "rst asynchronously clears it."
    )
    reference = (
        f"module {module_name} (\n    input clk,\n    input rst,\n    input serial_in,\n"
        f"    output reg [{width - 1}:0] q\n);\n"
        "    always @(posedge clk or posedge rst) begin\n"
        f"        if (rst) q <= {width}'d0;\n"
        f"        else q <= {{q[{width - 2}:0], serial_in}};\n    end\nendmodule\n"
    )
    testbench = f"""module {module_name}_tb;
    reg clk = 0, rst, serial_in;
    wire [{width - 1}:0] q;
    integer errors;
    {module_name} dut(.clk(clk), .rst(rst), .serial_in(serial_in), .q(q));
    always #5 clk = ~clk;
    initial begin
        errors = 0;
        rst = 1; serial_in = 0;
        #12 rst = 0;
        serial_in = 1; #10;
        serial_in = 0; #10;
        serial_in = 1; #10;
        serial_in = 1; #10;
        if (q !== {width}'b1011) begin errors = errors + 1; $display("MISMATCH q=%b expected 1011", q); end
        if (errors == 0) $display("TEST PASSED");
        else $display("TEST FAILED: %d errors", errors);
        $finish;
    end
endmodule
"""
    return prompt, reference, testbench


def edge_detector(module_name: str = "edge_detector", falling: bool = False) -> DesignTriple:
    """Rising/falling edge detector producing a one-cycle pulse."""
    kind = "falling" if falling else "rising"
    expr = "~signal_in & signal_d" if falling else "signal_in & ~signal_d"
    prompt = (
        f"Implement a Verilog module named {module_name} that detects a {kind} edge of signal_in and produces a "
        "single-cycle pulse. Ports: input clk, input rst, input signal_in, output pulse. "
        "Register signal_in and compare it with its previous value."
    )
    reference = (
        f"module {module_name} (\n    input clk,\n    input rst,\n    input signal_in,\n    output pulse\n);\n"
        "    reg signal_d;\n"
        "    always @(posedge clk or posedge rst) begin\n"
        "        if (rst) signal_d <= 1'b0;\n        else signal_d <= signal_in;\n    end\n"
        f"    assign pulse = {expr};\nendmodule\n"
    )
    first_level = "0" if not falling else "1"
    second_level = "1" if not falling else "0"
    testbench = f"""module {module_name}_tb;
    reg clk = 0, rst, signal_in;
    wire pulse;
    integer errors;
    {module_name} dut(.clk(clk), .rst(rst), .signal_in(signal_in), .pulse(pulse));
    always #5 clk = ~clk;
    initial begin
        errors = 0;
        rst = 1; signal_in = {first_level};
        #12 rst = 0;
        #10;
        if (pulse !== 1'b0) begin errors = errors + 1; $display("MISMATCH idle pulse"); end
        signal_in = {second_level};
        #2;
        if (pulse !== 1'b1) begin errors = errors + 1; $display("MISMATCH missing pulse"); end
        #10;
        if (pulse !== 1'b0) begin errors = errors + 1; $display("MISMATCH pulse too long"); end
        if (errors == 0) $display("TEST PASSED");
        else $display("TEST FAILED: %d errors", errors);
        $finish;
    end
endmodule
"""
    return prompt, reference, testbench


def simple_fsm(module_name: str = "ctrl_fsm") -> DesignTriple:
    """3-state start/done controller FSM."""
    prompt = (
        f"Implement a Verilog module named {module_name}: a control FSM. "
        "Ports: input clk, input rst, input start, input done, output busy. "
        "States: IDLE (0) and RUN (1). The FSM leaves IDLE when start is high, returns to IDLE when done is high, "
        "and busy is high whenever the FSM is not in IDLE. rst asynchronously returns to IDLE."
    )
    reference = (
        f"module {module_name} (\n    input clk,\n    input rst,\n    input start,\n    input done,\n"
        "    output busy\n);\n"
        "    reg state;\n"
        "    localparam IDLE = 1'b0, RUN = 1'b1;\n"
        "    always @(posedge clk or posedge rst) begin\n"
        "        if (rst) state <= IDLE;\n"
        "        else begin\n"
        "            case (state)\n"
        "                IDLE: if (start) state <= RUN;\n"
        "                RUN: if (done) state <= IDLE;\n"
        "            endcase\n"
        "        end\n"
        "    end\n"
        "    assign busy = (state != IDLE);\nendmodule\n"
    )
    testbench = f"""module {module_name}_tb;
    reg clk = 0, rst, start, done;
    wire busy;
    integer errors;
    {module_name} dut(.clk(clk), .rst(rst), .start(start), .done(done), .busy(busy));
    always #5 clk = ~clk;
    initial begin
        errors = 0;
        rst = 1; start = 0; done = 0;
        #12 rst = 0;
        if (busy !== 1'b0) begin errors = errors + 1; $display("MISMATCH idle busy"); end
        start = 1; #10; start = 0;
        if (busy !== 1'b1) begin errors = errors + 1; $display("MISMATCH busy after start"); end
        #20;
        if (busy !== 1'b1) begin errors = errors + 1; $display("MISMATCH busy while running"); end
        done = 1; #10; done = 0;
        if (busy !== 1'b0) begin errors = errors + 1; $display("MISMATCH busy after done"); end
        if (errors == 0) $display("TEST PASSED");
        else $display("TEST FAILED: %d errors", errors);
        $finish;
    end
endmodule
"""
    return prompt, reference, testbench


def ring_counter(module_name: str = "ring_counter", width: int = 4) -> DesignTriple:
    """One-hot ring counter."""
    prompt = (
        f"Implement a Verilog module named {module_name}: a {width}-bit ring counter. "
        f"Ports: input clk, input rst, output reg [{width - 1}:0] q. "
        f"On reset q is {width}'b0001; on each rising clock edge the single one bit rotates left."
    )
    reference = (
        f"module {module_name} (\n    input clk,\n    input rst,\n    output reg [{width - 1}:0] q\n);\n"
        "    always @(posedge clk or posedge rst) begin\n"
        f"        if (rst) q <= {width}'d1;\n"
        f"        else q <= {{q[{width - 2}:0], q[{width - 1}]}};\n    end\nendmodule\n"
    )
    testbench = f"""module {module_name}_tb;
    reg clk = 0, rst;
    wire [{width - 1}:0] q;
    integer errors;
    {module_name} dut(.clk(clk), .rst(rst), .q(q));
    always #5 clk = ~clk;
    initial begin
        errors = 0;
        rst = 1;
        #12 rst = 0;
        if (q !== {width}'d1) begin errors = errors + 1; $display("MISMATCH reset %b", q); end
        #10;
        if (q !== {width}'d2) begin errors = errors + 1; $display("MISMATCH step1 %b", q); end
        #10;
        if (q !== {width}'d4) begin errors = errors + 1; $display("MISMATCH step2 %b", q); end
        #{10 * (width - 2)};
        if (q !== {width}'d1) begin errors = errors + 1; $display("MISMATCH wrap %b", q); end
        if (errors == 0) $display("TEST PASSED");
        else $display("TEST FAILED: %d errors", errors);
        $finish;
    end
endmodule
"""
    return prompt, reference, testbench


def accumulator(module_name: str = "accumulator", width: int = 8) -> DesignTriple:
    """Accumulating adder register."""
    prompt = (
        f"Implement a Verilog module named {module_name}: a {width}-bit accumulator. "
        f"Ports: input clk, input rst, input en, input [{width - 1}:0] din, output reg [{width - 1}:0] acc. "
        "When en is high, acc increases by din on each rising clock edge; rst asynchronously clears it."
    )
    reference = (
        f"module {module_name} (\n    input clk,\n    input rst,\n    input en,\n"
        f"    input [{width - 1}:0] din,\n    output reg [{width - 1}:0] acc\n);\n"
        "    always @(posedge clk or posedge rst) begin\n"
        f"        if (rst) acc <= {width}'d0;\n        else if (en) acc <= acc + din;\n    end\nendmodule\n"
    )
    testbench = f"""module {module_name}_tb;
    reg clk = 0, rst, en;
    reg [{width - 1}:0] din;
    wire [{width - 1}:0] acc;
    integer errors;
    {module_name} dut(.clk(clk), .rst(rst), .en(en), .din(din), .acc(acc));
    always #5 clk = ~clk;
    initial begin
        errors = 0;
        rst = 1; en = 0; din = 0;
        #12 rst = 0;
        en = 1; din = {width}'d5;
        #30;
        if (acc !== {width}'d15) begin errors = errors + 1; $display("MISMATCH acc=%d expected 15", acc); end
        en = 0; din = {width}'d9;
        #20;
        if (acc !== {width}'d15) begin errors = errors + 1; $display("MISMATCH hold acc=%d", acc); end
        if (errors == 0) $display("TEST PASSED");
        else $display("TEST FAILED: %d errors", errors);
        $finish;
    end
endmodule
"""
    return prompt, reference, testbench


def fifo(module_name: str = "sync_fifo", depth: int = 4, width: int = 8) -> DesignTriple:
    """Small synchronous FIFO."""
    prompt = (
        f"Implement a Verilog module named {module_name}: a synchronous FIFO with depth {depth} and {width}-bit data. "
        f"Ports: input clk, input rst, input wr_en, input rd_en, input [{width - 1}:0] din, "
        f"output [{width - 1}:0] dout, output full, output empty. "
        "Writes are accepted when not full, reads when not empty; dout always shows the oldest stored element."
    )
    reference = (
        f"module {module_name} #(parameter DEPTH = {depth}, parameter WIDTH = {width}) (\n"
        "    input clk,\n    input rst,\n    input wr_en,\n    input rd_en,\n"
        "    input [WIDTH-1:0] din,\n    output [WIDTH-1:0] dout,\n    output full,\n    output empty\n);\n"
        "    reg [WIDTH-1:0] mem [0:DEPTH-1];\n"
        "    reg [2:0] wr_ptr, rd_ptr, count;\n"
        "    assign full = (count == DEPTH);\n"
        "    assign empty = (count == 0);\n"
        "    assign dout = mem[rd_ptr];\n"
        "    always @(posedge clk) begin\n"
        "        if (rst) begin\n            wr_ptr <= 0; rd_ptr <= 0; count <= 0;\n        end else begin\n"
        "            if (wr_en && !full) begin\n                mem[wr_ptr] <= din;\n"
        "                wr_ptr <= (wr_ptr + 1) % DEPTH;\n                count <= count + 1;\n            end\n"
        "            if (rd_en && !empty) begin\n                rd_ptr <= (rd_ptr + 1) % DEPTH;\n"
        "                count <= count - 1;\n            end\n        end\n    end\nendmodule\n"
    )
    testbench = f"""module {module_name}_tb;
    reg clk = 0, rst, wr_en, rd_en;
    reg [{width - 1}:0] din;
    wire [{width - 1}:0] dout;
    wire full, empty;
    integer errors;
    {module_name} dut(.clk(clk), .rst(rst), .wr_en(wr_en), .rd_en(rd_en), .din(din), .dout(dout), .full(full), .empty(empty));
    always #5 clk = ~clk;
    initial begin
        errors = 0;
        rst = 1; wr_en = 0; rd_en = 0; din = 0;
        #12 rst = 0;
        if (empty !== 1'b1) begin errors = errors + 1; $display("MISMATCH empty after reset"); end
        wr_en = 1; din = {width}'d170; #10;
        din = {width}'d187; #10;
        wr_en = 0;
        if (empty !== 1'b0) begin errors = errors + 1; $display("MISMATCH not empty after writes"); end
        if (dout !== {width}'d170) begin errors = errors + 1; $display("MISMATCH dout=%d expected 170", dout); end
        rd_en = 1; #10; rd_en = 0;
        if (dout !== {width}'d187) begin errors = errors + 1; $display("MISMATCH dout=%d expected 187", dout); end
        rd_en = 1; #10; rd_en = 0;
        if (empty !== 1'b1) begin errors = errors + 1; $display("MISMATCH empty after reads"); end
        if (errors == 0) $display("TEST PASSED");
        else $display("TEST FAILED: %d errors", errors);
        $finish;
    end
endmodule
"""
    return prompt, reference, testbench


def pwm_generator(module_name: str = "pwm_gen", width: int = 4) -> DesignTriple:
    """Counter-comparator PWM generator."""
    prompt = (
        f"Implement a Verilog module named {module_name}: a PWM generator with a free-running {width}-bit counter. "
        f"Ports: input clk, input rst, input [{width - 1}:0] duty, output pwm. "
        "The counter increments every clock cycle (rst clears it) and pwm is high while the counter is less than duty."
    )
    reference = (
        f"module {module_name} (\n    input clk,\n    input rst,\n    input [{width - 1}:0] duty,\n    output pwm\n);\n"
        f"    reg [{width - 1}:0] cnt;\n"
        "    always @(posedge clk or posedge rst) begin\n"
        f"        if (rst) cnt <= {width}'d0;\n        else cnt <= cnt + 1'b1;\n    end\n"
        "    assign pwm = (cnt < duty);\nendmodule\n"
    )
    testbench = f"""module {module_name}_tb;
    reg clk = 0, rst;
    reg [{width - 1}:0] duty;
    wire pwm;
    integer errors;
    integer highs;
    integer i;
    {module_name} dut(.clk(clk), .rst(rst), .duty(duty), .pwm(pwm));
    always #5 clk = ~clk;
    initial begin
        errors = 0;
        highs = 0;
        duty = {width}'d4;
        rst = 1;
        #12 rst = 0;
        for (i = 0; i < 16; i = i + 1) begin
            #10;
            if (pwm) highs = highs + 1;
        end
        if (highs !== 4) begin errors = errors + 1; $display("MISMATCH duty cycle: %d highs", highs); end
        if (errors == 0) $display("TEST PASSED");
        else $display("TEST FAILED: %d errors", errors);
        $finish;
    end
endmodule
"""
    return prompt, reference, testbench

"""Tests for expression evaluation over four-state values."""

import pytest

from repro.sim.compiled import CompiledSimulator
from repro.sim.expr import EvaluationError, ExpressionEvaluator
from repro.sim.values import FourState
from repro.verilog.lexer import Lexer
from repro.verilog.parser import Parser


class _DictScope:
    """Minimal Scope implementation backed by a dictionary."""

    def __init__(self, signals=None, functions=None, arrays=None):
        self.signals = signals or {}
        self.functions = functions or {}
        self.arrays = arrays or {}

    def read_signal(self, name):
        if name not in self.signals:
            raise EvaluationError(f"unknown signal {name}")
        return self.signals[name]

    def signal_width(self, name):
        return self.signals[name].width

    def read_indexed(self, name, index):
        if name not in self.arrays:
            return None
        return self.arrays[name].get(index, FourState.unknown_value(self.signals[name].width))

    def call_function(self, name, args):
        if name in self.functions:
            return self.functions[name](args)
        raise EvaluationError(f"unknown function {name}")


def _expr(text):
    parser = Parser(Lexer(f"module m; wire x; assign x = {text}; endmodule"))
    module = parser.parse_source().modules[0]
    assign = [i for i in module.items if hasattr(i, "assignments")][0]
    return assign.assignments[0][1]


def _evaluate(text, signals=None, ctx=None):
    evaluator = ExpressionEvaluator(_DictScope(signals))
    return evaluator.evaluate(_expr(text), ctx)


def _compiled(text, signals=None, ctx=None, arrays=None):
    """``text`` through the compiled backend's closure over an elaborated module holding ``signals``."""
    signals = signals or {}
    arrays = arrays or {}
    declarations = "".join(
        f"reg [{value.width - 1}:0] {name}{' [0:7]' if name in arrays else ''};\n" for name, value in signals.items()
    )
    simulator = CompiledSimulator(f"module m;\n{declarations}endmodule\n", top="m")
    for name, value in signals.items():
        simulator.signals[name].value = value
        simulator.signals[name].array = dict(arrays.get(name, {}))

    def interpreted(*_args):
        raise AssertionError(f"{text} fell back to the interpreter")

    simulator._evaluate_possibly_scoped = interpreted
    return simulator._compile_expr(simulator._top.scope, _expr(text))(ctx)


def _evaluate_both(text, signals=None, ctx=None, arrays=None):
    """The evaluator's value of ``text``, after checking the compiled closure gives the same :class:`FourState`."""
    value = ExpressionEvaluator(_DictScope(signals, arrays=arrays)).evaluate(_expr(text), ctx)
    assert _compiled(text, signals, ctx, arrays) == value
    return value


def _raises_on_both(text, message, signals=None):
    """Both backends raise :class:`EvaluationError` with the same ``message``."""
    with pytest.raises(EvaluationError, match=message):
        ExpressionEvaluator(_DictScope(signals)).evaluate(_expr(text))
    with pytest.raises(EvaluationError, match=message):
        _compiled(text, signals)


class TestLiteralsAndIdentifiers:
    def test_sized_literal(self):
        assert _evaluate("8'hA5").to_int() == 0xA5

    def test_decimal_literal(self):
        assert _evaluate("42").to_int() == 42

    def test_identifier_lookup(self):
        signals = {"a": FourState.from_int(7, width=8)}
        assert _evaluate("a", signals).to_int() == 7

    def test_unknown_identifier_raises(self):
        with pytest.raises(EvaluationError):
            _evaluate("missing")

    def test_string_literal(self):
        value = _evaluate_both('"AB"')
        assert value.to_int() == (ord("A") << 8) | ord("B")
        assert value.width == 16

    def test_empty_string_literal_is_one_byte(self):
        assert _evaluate_both('""') == FourState.from_int(0, width=8)


class TestArithmetic:
    def test_addition(self):
        assert _evaluate("3 + 4").to_int() == 7

    def test_addition_with_context_width_keeps_carry(self):
        signals = {"a": FourState.from_int(0xFF, width=8), "b": FourState.from_int(1, width=8)}
        assert _evaluate("a + b", signals, ctx=9).to_int() == 0x100

    def test_addition_without_context_wraps(self):
        signals = {"a": FourState.from_int(0xFF, width=8), "b": FourState.from_int(1, width=8)}
        assert _evaluate("a + b", signals).to_int() == 0

    def test_subtraction_wraps(self):
        signals = {"a": FourState.from_int(0, width=8), "b": FourState.from_int(1, width=8)}
        assert _evaluate("a - b", signals).to_int() == 0xFF

    def test_multiplication(self):
        assert _evaluate("6 * 7").to_int() == 42

    def test_division(self):
        assert _evaluate("20 / 3").to_int() == 6

    def test_division_by_zero_is_zero(self):
        assert _evaluate("5 / 0").to_int() == 0

    def test_modulo(self):
        assert _evaluate("20 % 3").to_int() == 2

    def test_power(self):
        assert _evaluate("2 ** 10").to_int() == 1024

    def test_unary_minus(self):
        value = _evaluate("-1")
        assert value.to_signed_int() == -1

    def test_x_propagation_in_arithmetic(self):
        signals = {"a": FourState.unknown_value(8), "b": FourState.from_int(1, width=8)}
        assert not _evaluate("a + b", signals).is_fully_known


class TestBitwiseAndLogical:
    def test_and_or_xor(self):
        assert _evaluate("4'b1100 & 4'b1010").to_int() == 0b1000
        assert _evaluate("4'b1100 | 4'b1010").to_int() == 0b1110
        assert _evaluate("4'b1100 ^ 4'b1010").to_int() == 0b0110

    def test_bitwise_not(self):
        assert _evaluate("~4'b1010").to_int() == 0b0101

    def test_logical_not(self):
        assert _evaluate("!4'b0000").to_int() == 1
        assert _evaluate("!4'b0100").to_int() == 0

    def test_logical_and_short_circuit_with_x(self):
        signals = {"a": FourState.unknown_value(1)}
        # 0 && x is definitively 0.
        assert _evaluate("1'b0 && a", signals).to_int() == 0
        # 1 && x is unknown.
        assert not _evaluate("1'b1 && a", signals).is_fully_known

    def test_logical_or_short_circuit_with_x(self):
        signals = {"a": FourState.unknown_value(1)}
        assert _evaluate("1'b1 || a", signals).to_int() == 1
        assert not _evaluate("1'b0 || a", signals).is_fully_known

    def test_known_zero_and_dominates_x(self):
        signals = {"a": FourState.unknown_value(4)}
        value = _evaluate("a & 4'b0000", signals)
        assert value.to_int() == 0
        assert value.is_fully_known

    def test_known_one_or_dominates_x(self):
        signals = {"a": FourState.unknown_value(4)}
        value = _evaluate("a | 4'b1111", signals)
        assert value.to_int() == 0b1111
        assert value.is_fully_known

    def test_reduction_operators(self):
        assert _evaluate("&4'b1111").to_int() == 1
        assert _evaluate("&4'b1101").to_int() == 0
        assert _evaluate("|4'b0000").to_int() == 0
        assert _evaluate("^4'b1011").to_int() == 1
        assert _evaluate("~&4'b1111").to_int() == 0
        assert _evaluate("~|4'b0000").to_int() == 1


class TestComparisonsAndShifts:
    def test_equality(self):
        assert _evaluate("5 == 5").to_int() == 1
        assert _evaluate("5 != 5").to_int() == 0

    def test_relational(self):
        assert _evaluate("3 < 5").to_int() == 1
        assert _evaluate("5 <= 5").to_int() == 1
        assert _evaluate("6 > 7").to_int() == 0
        assert _evaluate("7 >= 7").to_int() == 1

    def test_comparison_with_x_is_unknown(self):
        signals = {"a": FourState.unknown_value(4)}
        assert not _evaluate("a == 4'd2", signals).is_fully_known

    def test_case_equality_with_x(self):
        signals = {"a": FourState.unknown_value(4)}
        assert _evaluate("a === a", signals).to_int() == 1

    def test_case_inequality(self):
        assert _evaluate("4'b1010 !== 4'b1010").to_int() == 0

    def test_shifts(self):
        assert _evaluate("4'b0001 << 2").to_int() == 4
        assert _evaluate("4'b1000 >> 3").to_int() == 1

    def test_arithmetic_shift_right_signed(self):
        signals = {"a": FourState.from_int(0b1000, width=4, signed=True)}
        assert _evaluate("a >>> 1", signals).to_bit_string() == "1100"


class TestStructuredExpressions:
    def test_ternary_true_branch(self):
        assert _evaluate("1 ? 8'd5 : 8'd9").to_int() == 5

    def test_ternary_false_branch(self):
        assert _evaluate("0 ? 8'd5 : 8'd9").to_int() == 9

    def test_ternary_unknown_condition(self):
        signals = {"s": FourState.unknown_value(1)}
        assert _evaluate_both("s ? 8'd5 : 8'd9", signals) == FourState.unknown_value(8)

    def test_ternary_unknown_condition_takes_the_wider_arm(self):
        signals = {"s": FourState.unknown_value(1), "a": FourState.from_int(3, width=4)}
        assert _evaluate_both("s ? a : 12'd9", signals) == FourState.unknown_value(12)

    def test_concatenation(self):
        assert _evaluate("{2'b10, 2'b01}").to_int() == 0b1001

    def test_concatenation_keeps_x_and_z_bits(self):
        signals = {"a": FourState.from_bits("1z"), "b": FourState.from_bits("x0")}
        assert _evaluate_both("{a, b, 1'b1}", signals) == FourState.from_bits("1zx01")

    def test_replication(self):
        assert _evaluate_both("{3{2'b10}}").to_int() == 0b101010

    def test_replication_of_unknown_bits(self):
        signals = {"a": FourState.from_bits("z1x")}
        assert _evaluate_both("{2{a}}", signals) == FourState.from_bits("z1xz1x")

    def test_replication_count_must_be_positive(self):
        _raises_on_both("{0{2'b10}}", "replication count must be positive")

    def test_replication_count_must_be_known(self):
        signals = {"n": FourState.unknown_value(2)}
        _raises_on_both("{n{2'b10}}", "unknown bits where a constant is required", signals)

    def test_bit_select(self):
        signals = {"a": FourState.from_int(0b1010, width=4)}
        assert _evaluate_both("a[1]", signals).to_int() == 1
        assert _evaluate_both("a[0]", signals).to_int() == 0

    def test_bit_select_outside_the_vector_is_x(self):
        signals = {"a": FourState.from_int(0b1010, width=4)}
        assert _evaluate_both("a[4]", signals) == FourState.unknown_value(1)

    def test_part_select(self):
        signals = {"a": FourState.from_int(0xAB, width=8)}
        assert _evaluate_both("a[7:4]", signals).to_int() == 0xA

    def test_part_select_reversed_bounds(self):
        signals = {"a": FourState.from_int(0xAB, width=8)}
        assert _evaluate_both("a[4:7]", signals) == _evaluate_both("a[7:4]", signals)

    def test_part_select_outside_the_vector_reads_x(self):
        signals = {"a": FourState.from_bits("1z01")}
        assert _evaluate_both("a[5:2]", signals) == FourState.from_bits("xx1z")
        assert _evaluate_both("a[1 -: 3]", signals) == FourState.from_bits("01x")

    def test_indexed_part_select(self):
        signals = {"a": FourState.from_int(0xAB, width=8), "b": FourState.from_int(4, width=3)}
        assert _evaluate_both("a[b +: 4]", signals).to_int() == 0xA

    def test_indexed_part_select_down(self):
        signals = {"a": FourState.from_int(0xAB, width=8), "b": FourState.from_int(5, width=3)}
        assert _evaluate_both("a[b -: 4]", signals) == FourState.from_int(0xA, width=4)

    def test_part_select_bound_must_be_known(self):
        signals = {"a": FourState.from_int(0xAB, width=8), "b": FourState.unknown_value(3)}
        _raises_on_both("a[b +: 4]", "unknown bits where a constant is required", signals)

    def test_bit_select_unknown_index(self):
        signals = {"a": FourState.from_int(0b1010, width=4), "i": FourState.unknown_value(2)}
        assert _evaluate_both("a[i]", signals) == FourState.unknown_value(1)

    def test_array_element(self):
        signals = {"mem": FourState.unknown_value(8), "i": FourState.from_int(2, width=3)}
        arrays = {"mem": {2: FourState.from_int(0x5A, width=8)}}
        assert _evaluate_both("mem[i]", signals, arrays=arrays) == FourState.from_int(0x5A, width=8)
        assert _evaluate_both("mem[3]", signals, arrays=arrays) == FourState.unknown_value(8)

    def test_array_element_unknown_index(self):
        signals = {"mem": FourState.unknown_value(8), "i": FourState.unknown_value(3)}
        arrays = {"mem": {2: FourState.from_int(0x5A, width=8)}}
        assert _evaluate_both("mem[i]", signals, arrays=arrays) == FourState.unknown_value(1)

    def test_function_call_dispatch(self):
        scope = _DictScope(functions={"double": lambda args: FourState.from_int(args[0].to_int() * 2, width=16)})
        parser = Parser(Lexer("module m; wire x; assign x = double(21); endmodule"))
        module = parser.parse_source().modules[0]
        expr = [i for i in module.items if hasattr(i, "assignments")][0].assignments[0][1]
        assert ExpressionEvaluator(scope).evaluate(expr).to_int() == 42

    def test_evaluate_int_requires_known(self):
        evaluator = ExpressionEvaluator(_DictScope({"a": FourState.unknown_value(4)}))
        parser = Parser(Lexer("module m; wire x; assign x = a; endmodule"))
        expr = [i for i in parser.parse_source().modules[0].items if hasattr(i, "assignments")][0].assignments[0][1]
        with pytest.raises(EvaluationError):
            evaluator.evaluate_int(expr)

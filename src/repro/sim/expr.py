"""Expression evaluation over four-state values.

The evaluator maps the parser's expression AST onto :class:`FourState`
operations.  It is used by the simulator for every right-hand side, condition,
delay and index expression, and also at elaboration time for parameter and
range expressions (where everything must be fully known).

Every value rule lives here, once, as a module-level function: the operators
(:func:`apply_unary`, and :func:`binary_rule`'s ``apply_*`` function per
binary operator), literals (:func:`literal_value`, :func:`string_value`), the
all-X result of ``?:`` under an unknown condition (:func:`unknown_choice`),
concatenation, replication, bit and part selects (:func:`concatenate`,
:func:`replicate`, :func:`bit_select`, :func:`part_select`, with
:func:`select_bounds` for the ``:`` / ``+:`` / ``-:`` bounds), the
known-integer check (:func:`known_int`) and the write of a bit range into a
vector (:func:`merge_bits`).
:class:`ExpressionEvaluator` calls them, and so do the closures of the
compiled backend (:mod:`repro.sim.compiled`) and the interpreter's write
path (:mod:`repro.sim.simulator`).  What the two backends share is therefore
the code itself, not two implementations kept in step.
"""

from __future__ import annotations

import operator
from typing import Callable, Dict, List, Optional, Protocol, Sequence, Tuple

from repro.verilog import ast_nodes as ast
from repro.sim.values import FourState


class EvaluationError(ValueError):
    """Raised when an expression cannot be evaluated."""


class Scope(Protocol):
    """The minimal interface the evaluator needs to resolve names."""

    def read_signal(self, name: str) -> FourState:
        """Return the current value of ``name``."""
        ...

    def signal_width(self, name: str) -> int:
        """Return the declared width of ``name``."""
        ...

    def call_function(self, name: str, args: List[FourState]) -> FourState:
        """Evaluate a user-defined or system function call."""
        ...


def _binary_arith(op: str, a: int, b: int) -> int:
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        return 0 if b == 0 else int(a / b) if (a < 0) != (b < 0) and a % b != 0 else a // b
    if op == "%":
        return 0 if b == 0 else a - b * int(a / b)
    if op == "**":
        return int(a**b) if b >= 0 else 0
    raise EvaluationError(f"unsupported arithmetic operator {op!r}")


def _reduce(op: str, value: FourState) -> FourState:
    if not value.is_fully_known:
        return FourState.unknown_value(1)
    bits = [(value.value >> i) & 1 for i in range(value.width)]
    if op == "&":
        result = int(all(bits))
    elif op == "|":
        result = int(any(bits))
    elif op == "^":
        result = sum(bits) & 1
    elif op == "~&":
        result = int(not all(bits))
    elif op == "~|":
        result = int(not any(bits))
    elif op in ("~^", "^~"):
        result = (sum(bits) & 1) ^ 1
    else:
        raise EvaluationError(f"unsupported reduction operator {op!r}")
    return FourState.from_int(result, width=1)


# --------------------------------------------------------------------------- #
# Shared value rules (used by the interpreter, the compiler and the write path)
# --------------------------------------------------------------------------- #

#: The relational and equality operators :func:`apply_compare` applies.
COMPARE_OPS: Dict[str, Callable[[int, int], bool]] = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    ">": operator.gt,
    "<=": operator.le,
    ">=": operator.ge,
}


def apply_unary(op: str, operand: FourState, _ctx: Optional[int] = None) -> FourState:
    """Apply a unary operator (including reductions) to an evaluated operand."""
    if op == "+":
        return operand
    if op == "-":
        if not operand.is_fully_known:
            return FourState.unknown_value(operand.width)
        return FourState.from_int(-operand.to_int(), width=max(operand.width, 32), signed=True)
    if op == "!":
        truth = operand.is_true()
        if truth is None:
            return FourState.unknown_value(1)
        return FourState.from_int(int(not truth), width=1)
    if op == "~":
        mask = (1 << operand.width) - 1
        return FourState(operand.width, ~operand.value & mask, operand.unknown, operand.zmask)
    return _reduce(op, operand)


def apply_logical(op: str, left: FourState, right: FourState, _ctx: Optional[int] = None) -> FourState:
    """``&&`` / ``||`` with three-valued truth."""
    lt, rt = left.is_true(), right.is_true()
    if op == "&&":
        if lt is False or rt is False:
            return FourState.from_int(0, width=1)
        if lt is None or rt is None:
            return FourState.unknown_value(1)
        return FourState.from_int(1, width=1)
    if lt is True or rt is True:
        return FourState.from_int(1, width=1)
    if lt is None or rt is None:
        return FourState.unknown_value(1)
    return FourState.from_int(0, width=1)


def apply_case_equality(op: str, left: FourState, right: FourState, _ctx: Optional[int] = None) -> FourState:
    """``===`` / ``!==``: bit-exact comparison including X/Z bits."""
    equal = (
        left.to_bit_string().rjust(max(left.width, right.width), "0")
        == right.to_bit_string().rjust(max(left.width, right.width), "0")
    )
    return FourState.from_int(int(equal if op == "===" else not equal), width=1)


def apply_compare(op: str, left: FourState, right: FourState, _ctx: Optional[int] = None) -> FourState:
    """Relational/equality comparison; unknown inputs compare to X."""
    if not left.is_fully_known or not right.is_fully_known:
        return FourState.unknown_value(1)
    signed = left.signed and right.signed
    a = left.to_signed_int() if signed else left.value
    b = right.to_signed_int() if signed else right.value
    return FourState.from_int(int(COMPARE_OPS[op](a, b)), width=1)


def apply_shift(op: str, left: FourState, right: FourState, _ctx: Optional[int] = None) -> FourState:
    """``<<``/``>>``/``<<<``/``>>>`` with X shift amounts producing X."""
    if not right.is_fully_known:
        return FourState.unknown_value(left.width)
    shift = right.value
    if op == "<<" or op == "<<<":
        return FourState(left.width, (left.value << shift), (left.unknown << shift), (left.zmask << shift), left.signed)
    if op == ">>>" and left.signed:
        value = left.to_signed_int() >> shift
        return FourState.from_int(value, width=left.width, signed=True)
    return FourState(left.width, left.value >> shift, left.unknown >> shift, left.zmask >> shift, left.signed)


def apply_bitwise(op: str, left: FourState, right: FourState, _ctx: Optional[int] = None) -> FourState:
    """Bitwise ``&``/``|``/``^``/``~^`` with per-bit X propagation."""
    width = max(left.width, right.width)
    a = left.resize(width)
    b = right.resize(width)
    if op == "&":
        value = a.value & b.value
        # A known-0 bit forces the result bit to known 0.
        unknown = (a.unknown | b.unknown) & ~((~a.value & ~a.unknown) | (~b.value & ~b.unknown))
    elif op == "|":
        value = a.value | b.value
        known_one = (a.value & ~a.unknown) | (b.value & ~b.unknown)
        unknown = (a.unknown | b.unknown) & ~known_one
    else:
        value = a.value ^ b.value
        unknown = a.unknown | b.unknown
        if op in ("~^", "^~"):
            value = ~value & ((1 << width) - 1)
    return FourState(width, value & ~unknown, unknown)


def apply_arith(op: str, left: FourState, right: FourState, ctx: Optional[int]) -> FourState:
    """Arithmetic with context-width extension and X propagation."""
    width = max(left.width, right.width)
    if not left.is_fully_known or not right.is_fully_known:
        out_width = max(width, ctx or 0)
        return FourState.unknown_value(out_width if out_width > 0 else width)
    signed = left.signed and right.signed
    a = left.to_signed_int() if signed else left.value
    b = right.to_signed_int() if signed else right.value
    raw = _binary_arith(op, a, b)
    out_width = max(width, ctx or 0, 1)
    return FourState.from_int(raw, width=out_width, signed=signed)


def binary_rule(op: str) -> Callable[[str, FourState, FourState, Optional[int]], FourState]:
    """The ``apply_*`` function of binary operator ``op``; each takes ``(op, left, right, ctx)``."""
    if op in ("&&", "||"):
        return apply_logical
    if op in ("===", "!=="):
        return apply_case_equality
    if op in COMPARE_OPS:
        return apply_compare
    if op in ("<<", ">>", "<<<", ">>>"):
        return apply_shift
    if op in ("&", "|", "^", "~^", "^~"):
        return apply_bitwise
    return apply_arith


def known_int(value: FourState) -> int:
    """The integer of a value that must be fully known: a constant, count, bound or delay."""
    if not value.is_fully_known:
        raise EvaluationError("expression has unknown bits where a constant is required")
    return value.to_int()


def literal_value(expr: ast.Number) -> FourState:
    """The value of a numeric literal (memoised by :meth:`FourState.from_literal`)."""
    return FourState.from_literal(expr.width, expr.base, expr.value_text or expr.text, signed=expr.signed)


def string_value(text: str) -> FourState:
    """A string literal as a vector: 8 bits per ASCII character, first character highest."""
    data = text.encode("ascii", errors="replace")
    return FourState.from_int(int.from_bytes(data, "big") if data else 0, width=max(8 * len(data), 8))


def unknown_choice(if_true: FourState, if_false: FourState) -> FourState:
    """``c ? a : b`` under an unknown ``c``: all X, as wide as the wider arm."""
    return FourState.unknown_value(max(if_true.width, if_false.width))


def concatenate(parts: Sequence[FourState]) -> FourState:
    """``{a, b, ...}``: the parts side by side, the first one highest; ``{}`` is ``1'b0``."""
    width = value = unknown = zmask = 0
    for part in parts:
        width += part.width
        value = (value << part.width) | part.value
        unknown = (unknown << part.width) | part.unknown
        zmask = (zmask << part.width) | part.zmask
    if width == 0:
        return FourState.from_int(0, width=1)
    return FourState(width, value, unknown, zmask)


def replicate(count: int, inner: FourState) -> FourState:
    """``{count{inner}}``: ``count`` copies of ``inner`` side by side."""
    if count <= 0:
        raise EvaluationError("replication count must be positive")
    # Multiplying by 0b...0001 0001 places one copy every ``inner.width`` bits.
    spread = ((1 << (inner.width * count)) - 1) // ((1 << inner.width) - 1)
    return FourState(inner.width * count, inner.value * spread, inner.unknown * spread, inner.zmask * spread)


def select_bounds(mode: str, first: int, second: int) -> Tuple[int, int]:
    """``(msb, lsb)`` of ``[first:second]``, ``[first +: second]`` or ``[first -: second]``, with ``msb >= lsb``.

    A declared range ``[msb:lsb]`` is the ``":"`` mode; its width is
    ``msb - lsb + 1`` of the result.
    """
    if mode == "+:":
        msb, lsb = first + second - 1, first
    elif mode == "-:":
        msb, lsb = first, first - second + 1
    else:
        msb, lsb = first, second
    return (msb, lsb) if msb >= lsb else (lsb, msb)


def _overlap(width: int, msb: int, lsb: int) -> Tuple[int, int]:
    """``(low, high)``: the bits of a ``width``-bit vector inside ``[msb:lsb]``; empty when ``low > high``."""
    return max(lsb, 0), min(msb, width - 1)


def part_select(target: FourState, msb: int, lsb: int) -> FourState:
    """``target[msb:lsb]`` (``msb >= lsb``); a bit outside ``target`` reads as X."""
    width = msb - lsb + 1
    low, high = _overlap(target.width, msb, lsb)
    if low > high:
        return FourState.unknown_value(width)
    inside = (1 << (high - low + 1)) - 1
    offset = low - lsb  # where target bit ``low`` lands in the result
    outside = ((1 << width) - 1) & ~(inside << offset)
    return FourState(
        width,
        ((target.value >> low) & inside) << offset,
        (((target.unknown >> low) & inside) << offset) | outside,
        ((target.zmask >> low) & inside) << offset,
    )


def bit_select(target: FourState, index: FourState) -> FourState:
    """``target[index]`` of a vector; an unknown index reads as X."""
    if not index.is_fully_known:
        return FourState.unknown_value(1)
    return part_select(target, index.to_int(), index.to_int())


def merge_bits(current: FourState, msb: int, lsb: int, value: FourState) -> FourState:
    """``current`` with bits ``msb:lsb`` (``msb >= lsb``) replaced by ``value``, resized to that range.

    Only the bits inside ``current`` are written: a range that reaches below
    bit 0 or above the top bit keeps its in-range part (IEEE 1364-2005 5.2.1).
    """
    value = value.resize(msb - lsb + 1)
    low, high = _overlap(current.width, msb, lsb)
    if low > high:
        return current
    mask = ((1 << (high - low + 1)) - 1) << low
    drop = low - lsb  # the value's bits that fall below bit 0
    return FourState(
        current.width,
        (current.value & ~mask) | (((value.value >> drop) << low) & mask),
        (current.unknown & ~mask) | (((value.unknown >> drop) << low) & mask),
        (current.zmask & ~mask) | (((value.zmask >> drop) << low) & mask),
        current.signed,
    )


class ExpressionEvaluator:
    """Evaluates parser expressions against a :class:`Scope`."""

    def __init__(self, scope: Scope) -> None:
        self.scope = scope

    # -- public API ---------------------------------------------------------

    def evaluate(self, expr: ast.Expression, context_width: Optional[int] = None) -> FourState:
        """Evaluate ``expr`` and return its four-state value."""
        method: Callable[[ast.Expression, Optional[int]], FourState]
        handlers: Dict[type, Callable] = {
            ast.Number: self._eval_number,
            ast.Identifier: self._eval_identifier,
            ast.StringLiteral: self._eval_string,
            ast.UnaryOp: self._eval_unary,
            ast.BinaryOp: self._eval_binary,
            ast.Conditional: self._eval_conditional,
            ast.Concatenation: self._eval_concatenation,
            ast.Replication: self._eval_replication,
            ast.BitSelect: self._eval_bit_select,
            ast.PartSelect: self._eval_part_select,
            ast.FunctionCall: self._eval_function_call,
        }
        method = handlers.get(type(expr))
        if method is None:
            raise EvaluationError(f"cannot evaluate {type(expr).__name__}")
        return method(expr, context_width)

    def evaluate_int(self, expr: ast.Expression) -> int:
        """Evaluate ``expr`` expecting a fully-known integer result."""
        return known_int(self.evaluate(expr))

    def evaluate_bounds(self, mode: str, first: ast.Expression, second: ast.Expression) -> Tuple[int, int]:
        """:func:`select_bounds` of a part select or declared range whose bounds are known integers."""
        return select_bounds(mode, self.evaluate_int(first), self.evaluate_int(second))

    def range_width(self, rng: ast.Range) -> int:
        """Bit count of a declared ``[msb:lsb]`` range."""
        msb, lsb = self.evaluate_bounds(":", rng.msb, rng.lsb)
        return msb - lsb + 1

    # -- handlers ------------------------------------------------------------

    def _eval_number(self, expr: ast.Number, _ctx: Optional[int]) -> FourState:
        return literal_value(expr)

    def _eval_identifier(self, expr: ast.Identifier, _ctx: Optional[int]) -> FourState:
        return self.scope.read_signal(expr.name)

    def _eval_string(self, expr: ast.StringLiteral, _ctx: Optional[int]) -> FourState:
        return string_value(expr.text)

    def _eval_unary(self, expr: ast.UnaryOp, ctx: Optional[int]) -> FourState:
        return apply_unary(expr.op, self.evaluate(expr.operand, ctx), ctx)

    def _eval_binary(self, expr: ast.BinaryOp, ctx: Optional[int]) -> FourState:
        left = self.evaluate(expr.left, ctx)
        return binary_rule(expr.op)(expr.op, left, self.evaluate(expr.right, ctx), ctx)

    def _eval_conditional(self, expr: ast.Conditional, ctx: Optional[int]) -> FourState:
        truth = self.evaluate(expr.condition).is_true()
        if truth is True:
            return self.evaluate(expr.if_true, ctx)
        if truth is False:
            return self.evaluate(expr.if_false, ctx)
        if_true = self.evaluate(expr.if_true, ctx)
        return unknown_choice(if_true, self.evaluate(expr.if_false, ctx))

    def _eval_concatenation(self, expr: ast.Concatenation, _ctx: Optional[int]) -> FourState:
        return concatenate([self.evaluate(part) for part in expr.parts])

    def _eval_replication(self, expr: ast.Replication, _ctx: Optional[int]) -> FourState:
        count = self.evaluate_int(expr.count)
        return replicate(count, self._eval_concatenation(expr.value, None))

    def _eval_bit_select(self, expr: ast.BitSelect, _ctx: Optional[int]) -> FourState:
        index = self.evaluate(expr.index)
        if isinstance(expr.target, ast.Identifier) and index.is_fully_known:
            # Memory/array element access such as ``mem[addr]``.
            reader = getattr(self.scope, "read_indexed", None)
            if reader is not None:
                element = reader(expr.target.name, index.to_int())
                if element is not None:
                    return element
        return bit_select(self.evaluate(expr.target), index)

    def _eval_part_select(self, expr: ast.PartSelect, _ctx: Optional[int]) -> FourState:
        target = self.evaluate(expr.target)
        return part_select(target, *self.evaluate_bounds(expr.mode, expr.msb, expr.lsb))

    def _eval_function_call(self, expr: ast.FunctionCall, _ctx: Optional[int]) -> FourState:
        args = [self.evaluate(arg) for arg in expr.args]
        return self.scope.call_function(expr.name, args)

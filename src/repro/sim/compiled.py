"""Compiled simulation backend.

The interpreter in :mod:`repro.sim.simulator` walks the AST once per executed
statement and re-evaluates *every* continuous assignment after every delta
step.  This module lowers an elaborated design once, ahead of time, into:

* a :class:`_State` table — every flat signal gets a slot, every slot a bit in
  a Python-int dirty bitset, so "which continuous assigns must re-run?" is a
  mask intersection instead of a full sweep (the nmigen ``pysim`` architecture);
* per-process compiled Python closures — one closure per statement, one per
  expression, with the AST dispatch, name resolution and constant folding paid
  at compile time.  Statements that can never suspend compile to plain
  functions; only delay/event/wait/``$finish`` constructs compile to
  generators, so the time wheel and NBA region of the interpreter are reused
  unchanged.

Cycle identity
--------------

:class:`CompiledSimulator` subclasses :class:`~repro.sim.simulator.Simulator`
and reuses its elaboration, scheduler (``run``/``_run_loop``/``_step_process``)
and four-state write path verbatim; the compiled closures bind the *same*
``apply_*`` operator functions from :mod:`repro.sim.expr` that the interpreter
dispatches to.  Any construct the compiler does not understand falls back to
the interpreter for exactly that subtree.  The result is asserted — not merely
hoped — to be cycle-identical: same :class:`SimulationResult` fields, same
``$display`` bytes, same ``$random`` draws (see
``tests/test_sim_differential.py`` and ``tests/test_sim_golden.py``).

Batched vectorized mode
-----------------------

:func:`simulate_batch` runs *many candidate designs* against *one shared
testbench* as NumPy sweeps over a candidate axis: the testbench is unrolled
into a straight-line stimulus program, each eligible candidate is lowered to a
two-state netlist of uint64 array operations, structurally identical
candidates are grouped (their constants lifted into per-candidate arrays of
shape ``(C, 1)``) and evaluated against the stimulus matrix of shape
``(1, V)`` in one pass.  Anything outside the eligible subset — sequential
logic, four-state outputs, non-vector testbenches — transparently falls back
to the scalar compiled backend, so batching is purely an optimisation, never
a semantics change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, List, Optional, Sequence, Tuple

import numpy as np

from repro.verilog import ast_nodes as ast
from repro.verilog.syntax import check_syntax
from repro.sim.expr import (
    COMPARE_OPS,
    EvaluationError,
    ExpressionEvaluator,
    apply_arith,
    apply_bitwise,
    apply_case_equality,
    apply_compare,
    apply_logical,
    apply_shift,
    apply_unary,
)
from repro.sim.simulator import (
    _CMD_DELAY,
    _CMD_FINISH,
    _CMD_WAIT_EVENT,
    _InstanceScope,
    _ScopedExpression,
    _apply_format,
    Signal,
    SimulationError,
    SimulationResult,
    Simulator,
)
from repro.sim.values import FourState

__all__ = ["CompiledSimulator", "simulate_batch", "BatchReport"]

#: Expression closure: takes the context width, returns the four-state value.
ExprFn = Callable[[Optional[int]], FourState]
#: Compiled statement: (is_async, fn); async fns return generators.
StmtFn = Tuple[bool, Callable]

_DISPLAY_TASKS = ("$display", "$write", "$strobe", "$error")
_IGNORED_TASKS = ("$dumpfile", "$dumpvars", "$dumpoff", "$dumpon", "$readmemh", "$readmemb", "$timeformat")


def _int_of(value: FourState) -> int:
    """``evaluate_int`` semantics over an already-evaluated value."""
    if not value.is_fully_known:
        raise EvaluationError("expression has unknown bits where a constant is required")
    return value.to_int()


class _State:
    """Slot table over the flat signal map.

    Every signal gets a slot; slot ``i`` owns bit ``1 << i`` of the dirty
    bitset.  Continuous assignments precompute a dependency mask over these
    bits, so one integer AND decides whether an assign can be skipped in a
    propagation iteration.
    """

    __slots__ = ("names", "signals", "slot_of", "mask_of")

    def __init__(self, signals: Dict[str, Signal]) -> None:
        self.names: List[str] = list(signals)
        self.signals: List[Signal] = [signals[name] for name in self.names]
        self.slot_of: Dict[str, int] = {name: slot for slot, name in enumerate(self.names)}
        self.mask_of: Dict[str, int] = {name: 1 << slot for slot, name in enumerate(self.names)}

    def current(self) -> List[FourState]:
        """Snapshot of the current value array in slot order."""
        return [signal.value for signal in self.signals]


class _CompiledAssign:
    """One lowered continuous assignment."""

    __slots__ = ("scope", "lhs", "rhs_fn", "width", "width_fn", "dep_mask", "volatile", "writer")

    def __init__(self, scope, lhs, rhs_fn, width, width_fn, dep_mask, volatile, writer) -> None:
        self.scope = scope
        self.lhs = lhs
        self.rhs_fn = rhs_fn
        self.width = width
        self.width_fn = width_fn
        self.dep_mask = dep_mask
        self.volatile = volatile
        self.writer = writer


class CompiledSimulator(Simulator):
    """Drop-in :class:`Simulator` that executes compiled closures.

    Elaboration, the event loop, the NBA region and all four-state semantics
    are inherited; only statement/expression execution and continuous-assign
    propagation are replaced by their compiled forms.
    """

    def __init__(self, *args, **kwargs) -> None:
        # Initialised before elaboration so inherited hooks stay callable.
        self._state: Optional[_State] = None
        self._writers: Dict[Tuple[int, int], Callable[[FourState], None]] = {}
        self._cont_entries: Optional[List[_CompiledAssign]] = None
        self._cont_static_mask = 0
        self._cont_any_volatile = False
        self._compiled_processes: Dict[int, StmtFn] = {}
        super().__init__(*args, **kwargs)
        self._compile()

    # ------------------------------------------------------------------ #
    # Compilation
    # ------------------------------------------------------------------ #

    def _compile(self) -> None:
        self._state = _State(self.signals)
        entries: List[_CompiledAssign] = []
        for scope, lhs, rhs in self.continuous:
            rhs_fn = self._compile_expr(scope, rhs)
            width, width_fn = self._compile_target_width(scope, lhs)
            dep_mask, volatile = self._analyze_deps(scope, (lhs, rhs))
            if self._lhs_writes_array(scope, lhs):
                # Array-element writes always record a (phantom) change; the
                # interpreter therefore re-evaluates them every iteration.
                volatile = True
            writer = self._compile_writer(scope, lhs)
            entries.append(_CompiledAssign(scope, lhs, rhs_fn, width, width_fn, dep_mask, volatile, writer))
        self._cont_entries = entries
        self._cont_static_mask = 0
        for entry in entries:
            self._cont_static_mask |= entry.dep_mask
        self._cont_any_volatile = any(entry.volatile for entry in entries)
        for process in self.processes:
            self._compiled_processes[process.pid] = self._compile_statement(process.scope, process.body)

    # -- dependency analysis -------------------------------------------------

    def _analyze_deps(self, scope: _InstanceScope, nodes: Sequence[ast.Node]) -> Tuple[int, bool]:
        """Dirty-bit mask of every signal read or written by ``nodes``.

        ``volatile`` marks entries that must be re-evaluated on every
        propagation iteration: any function call (``$time``/``$random``/user
        functions read state the mask cannot see) or any name the walk cannot
        resolve statically.
        """
        assert self._state is not None
        mask = 0
        volatile = False
        stack: List[Tuple[_InstanceScope, ast.Node]] = [(scope, node) for node in nodes]
        while stack:
            current_scope, node = stack.pop()
            if isinstance(node, _ScopedExpression):
                stack.append((node.scope, node.expr))
                continue
            if isinstance(node, ast.FunctionCall):
                volatile = True
            elif isinstance(node, ast.Identifier):
                flat = current_scope.signal_map.get(node.name)
                if flat is None:
                    if node.name in current_scope.parameters:
                        pass  # constant after elaboration
                    elif "." in node.name and node.name in self.signals:
                        flat = node.name
                    else:
                        volatile = True
                if flat is not None:
                    mask |= self._state.mask_of[flat]
            if isinstance(node, ast.Node):
                for child in node.children():
                    stack.append((current_scope, child))
        return mask, volatile

    def _lhs_writes_array(self, scope: _InstanceScope, lhs: ast.Node) -> bool:
        stack: List[Tuple[_InstanceScope, ast.Node]] = [(scope, lhs)]
        while stack:
            current_scope, node = stack.pop()
            if isinstance(node, _ScopedExpression):
                stack.append((node.scope, node.expr))
                continue
            if isinstance(node, ast.BitSelect) and isinstance(node.target, ast.Identifier):
                flat = current_scope.signal_map.get(node.target.name)
                if flat is not None and self.signals[flat].is_array:
                    return True
            if isinstance(node, ast.Concatenation):
                for part in node.parts:
                    stack.append((current_scope, part))
        return False

    # -- target widths -------------------------------------------------------

    def _compile_target_width(
        self, scope: _InstanceScope, target: ast.Expression
    ) -> Tuple[Optional[int], Optional[Callable[[], Optional[int]]]]:
        """Context width of an assignment target: static when possible.

        Signal widths are fixed after elaboration, so only part-selects with
        non-constant bounds (and concatenations containing them) need a
        runtime closure.
        """
        if self._width_is_static(scope, target):
            return self._target_width_safe(scope, target), None
        return None, lambda: self._target_width_safe(scope, target)

    def _width_is_static(self, scope: _InstanceScope, target: ast.Expression) -> bool:
        if isinstance(target, ast.PartSelect):
            return _is_constant_expr(scope, target.msb) and _is_constant_expr(scope, target.lsb)
        if isinstance(target, ast.Concatenation):
            return all(self._width_is_static(scope, part) for part in target.parts)
        # Identifier widths are fixed; every other node type is a constant in
        # the interpreter's ``_target_width`` as well.
        return True

    # -- expressions ---------------------------------------------------------

    def _compile_expr(self, scope: _InstanceScope, expr: ast.Expression) -> ExprFn:
        try:
            return self._compile_expr_inner(scope, expr)
        except Exception:
            # Unsupported or malformed node: evaluate through the interpreter
            # so runtime errors (and their messages) stay identical.
            return lambda ctx, _s=scope, _e=expr: self._evaluate_possibly_scoped(_s, _e, ctx)

    def _compile_expr_inner(self, scope: _InstanceScope, expr: ast.Expression) -> ExprFn:
        if isinstance(expr, _ScopedExpression):
            return self._compile_expr(expr.scope, expr.expr)
        if isinstance(expr, ast.Number):
            constant = FourState.from_literal(expr.width, expr.base, expr.value_text or expr.text, signed=expr.signed)
            return lambda ctx, _v=constant: _v
        if isinstance(expr, ast.StringLiteral):
            data = expr.text.encode("ascii", errors="replace")
            constant = FourState.from_int(int.from_bytes(data, "big") if data else 0, width=max(8 * len(data), 8))
            return lambda ctx, _v=constant: _v
        if isinstance(expr, ast.Identifier):
            return self._compile_identifier(scope, expr.name)
        if isinstance(expr, ast.UnaryOp):
            operand_fn = self._compile_expr(scope, expr.operand)
            return lambda ctx, _op=expr.op, _f=operand_fn: apply_unary(_op, _f(ctx))
        if isinstance(expr, ast.BinaryOp):
            return self._compile_binary(scope, expr)
        if isinstance(expr, ast.Conditional):
            cond_fn = self._compile_expr(scope, expr.condition)
            true_fn = self._compile_expr(scope, expr.if_true)
            false_fn = self._compile_expr(scope, expr.if_false)

            def eval_conditional(ctx: Optional[int]) -> FourState:
                truth = cond_fn(None).is_true()
                if truth is True:
                    return true_fn(ctx)
                if truth is False:
                    return false_fn(ctx)
                if_true = true_fn(ctx)
                if_false = false_fn(ctx)
                return FourState.unknown_value(max(if_true.width, if_false.width))

            return eval_conditional
        if isinstance(expr, ast.Concatenation):
            part_fns = [self._compile_expr(scope, part) for part in expr.parts]

            def eval_concatenation(_ctx: Optional[int]) -> FourState:
                bit_string = "".join(fn(None).to_bit_string() for fn in part_fns)
                if not bit_string:
                    return FourState.from_int(0, width=1)
                return FourState.from_bits(bit_string)

            return eval_concatenation
        if isinstance(expr, ast.Replication):
            count_fn = self._compile_expr(scope, expr.count)
            inner_fn = self._compile_expr(scope, expr.value)

            def eval_replication(_ctx: Optional[int]) -> FourState:
                count = _int_of(count_fn(None))
                inner = inner_fn(None)
                if count <= 0:
                    raise EvaluationError("replication count must be positive")
                return FourState.from_bits(inner.to_bit_string() * count)

            return eval_replication
        if isinstance(expr, ast.BitSelect):
            index_fn = self._compile_expr(scope, expr.index)
            target_fn = self._compile_expr(scope, expr.target)
            target_name = expr.target.name if isinstance(expr.target, ast.Identifier) else None

            def eval_bit_select(_ctx: Optional[int]) -> FourState:
                index = index_fn(None)
                if target_name is not None and index.is_fully_known:
                    element = scope.read_indexed(target_name, index.to_int())
                    if element is not None:
                        return element
                target = target_fn(None)
                if not index.is_fully_known:
                    return FourState.unknown_value(1)
                return FourState.from_bits(target.bit(index.to_int()))

            return eval_bit_select
        if isinstance(expr, ast.PartSelect):
            target_fn = self._compile_expr(scope, expr.target)
            msb_fn = self._compile_expr(scope, expr.msb)
            lsb_fn = self._compile_expr(scope, expr.lsb)
            mode = expr.mode

            def eval_part_select(_ctx: Optional[int]) -> FourState:
                target = target_fn(None)
                if mode == ":":
                    msb = _int_of(msb_fn(None))
                    lsb = _int_of(lsb_fn(None))
                else:
                    base = _int_of(msb_fn(None))
                    width = _int_of(lsb_fn(None))
                    if mode == "+:":
                        lsb, msb = base, base + width - 1
                    else:
                        msb, lsb = base, base - width + 1
                if msb < lsb:
                    msb, lsb = lsb, msb
                bits = "".join(target.bit(i) for i in range(msb, lsb - 1, -1))
                return FourState.from_bits(bits or "x")

            return eval_part_select
        if isinstance(expr, ast.FunctionCall):
            arg_fns = [self._compile_expr(scope, arg) for arg in expr.args]
            name = expr.name
            return lambda _ctx, _fns=arg_fns: scope.call_function(name, [fn(None) for fn in _fns])
        raise EvaluationError(f"cannot compile {type(expr).__name__}")

    def _compile_identifier(self, scope: _InstanceScope, name: str) -> ExprFn:
        # Resolution order mirrors _InstanceScope.read_signal: local frames
        # (only populated while a task body is suspended inside this scope),
        # then parameters, then the flat signal map, then hierarchical names.
        if name in scope.parameters:
            constant = scope.parameters[name]

            def read_parameter(_ctx: Optional[int]) -> FourState:
                if scope.locals:
                    for frame in reversed(scope.locals):
                        if name in frame:
                            return frame[name]
                return constant

            return read_parameter
        if name in scope.signal_map:
            signal = self.signals[scope.signal_map[name]]

            def read_signal(_ctx: Optional[int]) -> FourState:
                if scope.locals:
                    for frame in reversed(scope.locals):
                        if name in frame:
                            return frame[name]
                return signal.value

            return read_signal
        # Hierarchical or unknown names: the generic path raises the same
        # errors the interpreter would.
        return lambda _ctx: scope.read_signal(name)

    def _compile_binary(self, scope: _InstanceScope, expr: ast.BinaryOp) -> ExprFn:
        left_fn = self._compile_expr(scope, expr.left)
        right_fn = self._compile_expr(scope, expr.right)
        op = expr.op
        # Bind the semantics function at compile time; the dispatch mirrors
        # expr.apply_binary exactly.  Both operands are always evaluated
        # (Verilog has no short-circuit), left before right.
        if op in ("&&", "||"):
            return lambda ctx: apply_logical(op, left_fn(ctx), right_fn(ctx))
        if op in ("===", "!=="):
            return lambda ctx: apply_case_equality(op, left_fn(ctx), right_fn(ctx))
        if op in COMPARE_OPS:
            compare = COMPARE_OPS[op]
            return lambda ctx: apply_compare(compare, left_fn(ctx), right_fn(ctx))
        if op in ("<<", ">>", "<<<", ">>>"):
            return lambda ctx: apply_shift(op, left_fn(ctx), right_fn(ctx))
        if op in ("&", "|", "^", "~^", "^~"):
            return lambda ctx: apply_bitwise(op, left_fn(ctx), right_fn(ctx))
        return lambda ctx: apply_arith(op, left_fn(ctx), right_fn(ctx), ctx)

    # -- statements ----------------------------------------------------------

    def _compile_statement(self, scope: _InstanceScope, stmt: ast.Statement) -> StmtFn:
        try:
            return self._compile_statement_inner(scope, stmt)
        except Exception:
            # Interpreter fallback for the whole subtree.
            return True, (lambda _s=scope, _t=stmt: self._exec_statement(_s, _t))

    def _compile_statement_inner(self, scope: _InstanceScope, stmt: ast.Statement) -> StmtFn:
        if isinstance(stmt, ast.Block):
            return self._compile_block(scope, stmt.statements)
        if isinstance(stmt, ast.Assignment):
            return self._compile_assignment(scope, stmt)
        if isinstance(stmt, ast.IfStatement):
            return self._compile_if(scope, stmt)
        if isinstance(stmt, ast.CaseStatement):
            return self._compile_case(scope, stmt)
        if isinstance(stmt, ast.ForStatement):
            return self._compile_for(scope, stmt)
        if isinstance(stmt, ast.WhileStatement):
            return self._compile_while(scope, stmt)
        if isinstance(stmt, ast.RepeatStatement):
            return self._compile_repeat(scope, stmt)
        if isinstance(stmt, ast.ForeverStatement):
            return self._compile_forever(scope, stmt)
        if isinstance(stmt, ast.DelayStatement):
            return self._compile_delay(scope, stmt)
        if isinstance(stmt, ast.EventControlStatement):
            return self._compile_event_control(scope, stmt)
        if isinstance(stmt, ast.WaitStatement):
            return self._compile_wait(scope, stmt)
        if isinstance(stmt, ast.SystemTaskCall):
            return self._compile_system_task(scope, stmt)
        if isinstance(stmt, ast.TaskCallStatement):
            # User tasks push local frames and may suspend; the interpreter
            # path handles frames/arguments exactly.
            return True, (lambda _s=scope, _t=stmt: self._exec_statement(_s, _t))
        if isinstance(stmt, (ast.NullStatement, ast.DisableStatement, ast.LocalDeclaration)):
            return False, _noop
        message = f"unsupported statement {type(stmt).__name__}"
        return False, _raiser(message)

    def _compile_block(self, scope: _InstanceScope, statements: Sequence[ast.Statement]) -> StmtFn:
        children = [self._compile_statement(scope, child) for child in statements]
        if all(not is_async for is_async, _fn in children):
            fns = [fn for _is_async, fn in children]

            def run_block() -> None:
                for fn in fns:
                    fn()

            return False, run_block

        def run_block_async() -> Generator:
            for is_async, fn in children:
                if is_async:
                    yield from fn()
                    # Only suspendable children can raise the finished flag.
                    if self.finished:
                        return
                else:
                    fn()

        return True, run_block_async

    def _compile_assignment(self, scope: _InstanceScope, stmt: ast.Assignment) -> StmtFn:
        width, width_fn = self._compile_target_width(scope, stmt.target)
        value_fn = self._compile_expr(scope, stmt.value)
        target = stmt.target
        blocking = stmt.blocking

        if blocking:
            writer = self._compile_writer(scope, target)
            # Also seed the writer cache so any interpreter-path writes to the
            # same target (e.g. via a task body) reuse this closure.
            self._writers[(id(scope), id(target))] = writer

            def execute_write() -> None:
                ctx = width if width_fn is None else width_fn()
                writer(value_fn(ctx))

        else:

            def execute_write() -> None:
                ctx = width if width_fn is None else width_fn()
                self._nba_queue.append((scope, target, value_fn(ctx)))

        if stmt.delay is None:
            return False, execute_write

        delay_fn = self._compile_expr(scope, stmt.delay)

        def run_delayed_assign() -> Generator:
            delay = _int_of(delay_fn(None))
            if delay > 0:
                yield (_CMD_DELAY, delay)
            execute_write()

        return True, run_delayed_assign

    def _compile_if(self, scope: _InstanceScope, stmt: ast.IfStatement) -> StmtFn:
        cond_fn = self._compile_expr(scope, stmt.condition)
        then_async, then_fn = self._compile_statement(scope, stmt.then_body)
        else_compiled = None if stmt.else_body is None else self._compile_statement(scope, stmt.else_body)
        if not then_async and (else_compiled is None or not else_compiled[0]):
            else_fn = None if else_compiled is None else else_compiled[1]

            def run_if() -> None:
                truth = cond_fn(None).is_true()
                if truth:
                    then_fn()
                elif else_fn is not None:
                    else_fn()

            return False, run_if

        def run_if_async() -> Generator:
            truth = cond_fn(None).is_true()
            if truth:
                if then_async:
                    yield from then_fn()
                else:
                    then_fn()
            elif else_compiled is not None:
                else_async, else_fn = else_compiled
                if else_async:
                    yield from else_fn()
                else:
                    else_fn()

        return True, run_if_async

    def _compile_case(self, scope: _InstanceScope, stmt: ast.CaseStatement) -> StmtFn:
        subject_fn = self._compile_expr(scope, stmt.subject)
        kind = stmt.kind
        items: List[Tuple[bool, List[ExprFn], Optional[StmtFn]]] = []
        any_async = False
        for item in stmt.items:
            body = None if item.body is None else self._compile_statement(scope, item.body)
            if body is not None and body[0]:
                any_async = True
            pattern_fns = [self._compile_expr(scope, pattern) for pattern in item.patterns]
            items.append((item.is_default, pattern_fns, body))
        case_match = Simulator._case_match

        def select() -> Optional[StmtFn]:
            subject = subject_fn(None)
            default_body: Optional[StmtFn] = None
            for is_default, pattern_fns, body in items:
                if is_default:
                    default_body = body
                    continue
                for pattern_fn in pattern_fns:
                    if case_match(kind, subject, pattern_fn(None)):
                        return body
            return default_body

        if not any_async:

            def run_case() -> None:
                body = select()
                if body is not None:
                    body[1]()

            return False, run_case

        def run_case_async() -> Generator:
            body = select()
            if body is None:
                return
            is_async, fn = body
            if is_async:
                yield from fn()
            else:
                fn()

        return True, run_case_async

    def _compile_for(self, scope: _InstanceScope, stmt: ast.ForStatement) -> StmtFn:
        init_async, init_fn = self._compile_statement(scope, stmt.init)
        cond_fn = self._compile_expr(scope, stmt.condition)
        body_async, body_fn = self._compile_statement(scope, stmt.body)
        step_async, step_fn = self._compile_statement(scope, stmt.step)
        limit_message = "for loop iteration limit exceeded"
        if not (init_async or body_async or step_async):

            def run_for() -> None:
                init_fn()
                iterations = 0
                while True:
                    if not cond_fn(None).is_true():
                        break
                    body_fn()
                    step_fn()
                    iterations += 1
                    if iterations > self.max_loop_iterations:
                        raise SimulationError(limit_message)

            return False, run_for

        def run_for_async() -> Generator:
            if init_async:
                yield from init_fn()
            else:
                init_fn()
            iterations = 0
            while True:
                if not cond_fn(None).is_true():
                    break
                if body_async:
                    yield from body_fn()
                else:
                    body_fn()
                if self.finished:
                    return
                if step_async:
                    yield from step_fn()
                else:
                    step_fn()
                iterations += 1
                if iterations > self.max_loop_iterations:
                    raise SimulationError(limit_message)

        return True, run_for_async

    def _compile_while(self, scope: _InstanceScope, stmt: ast.WhileStatement) -> StmtFn:
        cond_fn = self._compile_expr(scope, stmt.condition)
        body_async, body_fn = self._compile_statement(scope, stmt.body)
        limit_message = "while loop iteration limit exceeded"
        if not body_async:

            def run_while() -> None:
                iterations = 0
                while True:
                    if not cond_fn(None).is_true():
                        break
                    body_fn()
                    iterations += 1
                    if iterations > self.max_loop_iterations:
                        raise SimulationError(limit_message)

            return False, run_while

        def run_while_async() -> Generator:
            iterations = 0
            while True:
                if not cond_fn(None).is_true():
                    break
                yield from body_fn()
                if self.finished:
                    return
                iterations += 1
                if iterations > self.max_loop_iterations:
                    raise SimulationError(limit_message)

        return True, run_while_async

    def _compile_repeat(self, scope: _InstanceScope, stmt: ast.RepeatStatement) -> StmtFn:
        count_fn = self._compile_expr(scope, stmt.count)
        body_async, body_fn = self._compile_statement(scope, stmt.body)
        if not body_async:

            def run_repeat() -> None:
                count = _int_of(count_fn(None))
                for _ in range(min(count, self.max_loop_iterations)):
                    body_fn()

            return False, run_repeat

        def run_repeat_async() -> Generator:
            count = _int_of(count_fn(None))
            for _ in range(min(count, self.max_loop_iterations)):
                yield from body_fn()
                if self.finished:
                    return

        return True, run_repeat_async

    def _compile_forever(self, scope: _InstanceScope, stmt: ast.ForeverStatement) -> StmtFn:
        body_async, body_fn = self._compile_statement(scope, stmt.body)
        limit_message = "forever loop iteration limit exceeded"
        if not body_async:
            # A forever loop with no suspension point spins until the
            # interpreter's iteration guard fires; mirror that exactly.

            def run_forever() -> None:
                iterations = 0
                while not self.finished:
                    body_fn()
                    iterations += 1
                    if iterations > self.max_loop_iterations:
                        raise SimulationError(limit_message)

            return False, run_forever

        def run_forever_async() -> Generator:
            iterations = 0
            while not self.finished:
                yield from body_fn()
                iterations += 1
                if iterations > self.max_loop_iterations:
                    raise SimulationError(limit_message)

        return True, run_forever_async

    def _compile_delay(self, scope: _InstanceScope, stmt: ast.DelayStatement) -> StmtFn:
        delay_fn = self._compile_expr(scope, stmt.delay)
        body = None if stmt.body is None else self._compile_statement(scope, stmt.body)

        def run_delay() -> Generator:
            delay = _int_of(delay_fn(None))
            yield (_CMD_DELAY, max(delay, 0))
            if body is not None:
                is_async, fn = body
                if is_async:
                    yield from fn()
                else:
                    fn()

        return True, run_delay

    def _compile_event_control(self, scope: _InstanceScope, stmt: ast.EventControlStatement) -> StmtFn:
        # Sensitivity lists are static AST walks over a fixed signal map.
        controls = self._resolve_sensitivity(scope, stmt)
        body = None if stmt.body is None else self._compile_statement(scope, stmt.body)

        def run_event_control() -> Generator:
            yield (_CMD_WAIT_EVENT, controls)
            if body is not None:
                is_async, fn = body
                if is_async:
                    yield from fn()
                else:
                    fn()

        return True, run_event_control

    def _compile_wait(self, scope: _InstanceScope, stmt: ast.WaitStatement) -> StmtFn:
        cond_fn = self._compile_expr(scope, stmt.condition)
        wait_controls = [(None, name) for name in self._signals_in_expression(scope, stmt.condition)]
        body = None if stmt.body is None else self._compile_statement(scope, stmt.body)

        def run_wait() -> Generator:
            iterations = 0
            while True:
                if cond_fn(None).is_true():
                    break
                yield (_CMD_WAIT_EVENT, wait_controls)
                iterations += 1
                if iterations > self.max_loop_iterations:
                    raise SimulationError("wait statement never satisfied")
            if body is not None:
                is_async, fn = body
                if is_async:
                    yield from fn()
                else:
                    fn()

        return True, run_wait

    def _compile_system_task(self, scope: _InstanceScope, stmt: ast.SystemTaskCall) -> StmtFn:
        name = stmt.name
        if name in ("$finish", "$stop"):

            def run_finish() -> Generator:
                self.finished = True
                yield (_CMD_FINISH, None)

            return True, run_finish
        if name == "$fatal":
            render = self._compile_display(scope, stmt.args)

            def run_fatal() -> Generator:
                self.display_lines.append(render())
                self.finished = True
                yield (_CMD_FINISH, None)

            return True, run_fatal
        if name in _DISPLAY_TASKS:
            render = self._compile_display(scope, stmt.args)
            return False, (lambda: self.display_lines.append(render()))
        if name == "$monitor":
            render = self._compile_display(scope, stmt.args)
            args = stmt.args

            def run_monitor() -> None:
                self._monitors.append((scope, args))
                self.display_lines.append(render())

            return False, run_monitor
        # $dump*/$readmem*/$timeformat and unknown tasks are no-ops.
        return False, _noop

    def _compile_display(self, scope: _InstanceScope, args: Sequence[ast.Expression]) -> Callable[[], str]:
        if not args:
            return lambda: ""
        first = args[0]
        if isinstance(first, ast.StringLiteral):
            fmt = first.text
            value_fns = [self._compile_expr(scope, arg) for arg in args[1:]]
            return lambda: _apply_format(fmt, [fn(None) for fn in value_fns], self.time)
        value_fns = [self._compile_expr(scope, arg) for arg in args]

        def render_values() -> str:
            rendered = []
            for fn in value_fns:
                value = fn(None)
                rendered.append(str(value.to_int()) if value.is_fully_known else value.to_bit_string())
            return " ".join(rendered)

        return render_values

    # ------------------------------------------------------------------ #
    # Execution overrides
    # ------------------------------------------------------------------ #

    def _exec_process(self, process) -> Generator:
        is_async, fn = self._compiled_processes[process.pid]
        return self._run_compiled_process(process, is_async, fn)

    def _run_compiled_process(self, process, is_async: bool, fn: Callable) -> Generator:
        if process.repeat_forever:
            iterations = 0
            while True:
                if is_async:
                    yield from fn()
                else:
                    fn()
                iterations += 1
                if self.finished:
                    return
                if iterations > self.max_loop_iterations:
                    raise SimulationError(f"always block {process.name} never suspends")
        else:
            if is_async:
                yield from fn()
            else:
                fn()

    def _write_target(self, scope, target, value) -> None:
        key = (id(scope), id(target))
        writer = self._writers.get(key)
        if writer is None:
            writer = self._compile_writer(scope, target)
            self._writers[key] = writer
        writer(value)

    def _compile_writer(self, scope, target) -> Callable[[FourState], None]:
        if isinstance(target, _ScopedExpression):
            return self._compile_writer(target.scope, target.expr)
        if isinstance(target, ast.Identifier):
            name = target.name
            flat = scope.signal_map.get(name)
            if flat is not None:
                signal = self.signals[flat]
                flat_name = signal.name

                def write_identifier(value: FourState) -> None:
                    if scope.locals:
                        for frame in reversed(scope.locals):
                            if name in frame:
                                frame[name] = value.resize(frame[name].width)
                                return
                    # Inlined Simulator._set_signal — this is the hottest
                    # write path, one call layer matters.  Change records are
                    # keyed by the flat hierarchical name.
                    value = value.resize(signal.width, signed=signal.signed)
                    old = signal.value
                    if old.value == value.value and old.unknown == value.unknown:
                        return
                    signal.value = value
                    changed = self._changed_signals
                    prev = changed.get(flat_name)
                    changed[flat_name] = (old, value) if prev is None else (prev[0], value)

                return write_identifier
        # Bit/part selects, concatenations and unresolvable names reuse the
        # interpreter's write path (its recursion re-enters the cached
        # dispatch above for concatenation parts).
        return lambda value: Simulator._write_target(self, scope, target, value)

    def _evaluate_continuous(self) -> None:
        for entry in self._cont_entries:
            try:
                width = entry.width if entry.width_fn is None else entry.width_fn()
                entry.writer(entry.rhs_fn(width))
            except (EvaluationError, SimulationError):
                continue

    def _propagate_changes(self, waiting) -> None:
        changes = self._changed_signals
        if not changes:
            return
        entries = self._cont_entries
        any_volatile = self._cont_any_volatile
        static_mask = self._cont_static_mask
        mask_of = self._state.mask_of
        for _ in range(64):
            changes = self._changed_signals
            if not changes:
                return
            self._changed_signals = {}
            dirty = 0
            for name in changes:
                bit = mask_of.get(name)
                if bit is not None:
                    dirty |= bit
            # Whole-network skip: when nothing any assign depends on changed,
            # re-evaluating would write identical values and wake nobody.
            if any_volatile or (dirty & static_mask):
                for entry in entries:
                    if not entry.volatile and not (entry.dep_mask & dirty):
                        continue
                    try:
                        width = entry.width if entry.width_fn is None else entry.width_fn()
                        entry.writer(entry.rhs_fn(width))
                    except (EvaluationError, SimulationError):
                        continue
            if waiting:
                # Inlined Simulator._matches_sensitivity over every waiter.
                woken: List[int] = []
                for pid, process in waiting.items():
                    for edge, signal_name in process.waiting_events:
                        change = changes.get(signal_name)
                        if change is None:
                            continue
                        if edge is None:
                            self._ready.append(process)
                            woken.append(pid)
                            break
                        old, new = change
                        new_bit = new.bit(0)
                        if (edge == "posedge" and new_bit == "1" and old.bit(0) != "1") or (
                            edge == "negedge" and new_bit == "0" and old.bit(0) != "0"
                        ):
                            self._ready.append(process)
                            woken.append(pid)
                            break
                for pid in woken:
                    waiting.pop(pid, None)
        raise SimulationError("continuous assignment network did not settle")


def _noop() -> None:
    return None


def _raiser(message: str) -> Callable[[], None]:
    def raise_unsupported() -> None:
        raise SimulationError(message)

    return raise_unsupported


def _is_constant_expr(scope: _InstanceScope, expr: ast.Node) -> bool:
    for node in expr.walk():
        if isinstance(node, (ast.FunctionCall, _ScopedExpression)):
            return False
        if isinstance(node, ast.Identifier) and node.name not in scope.parameters:
            return False
    return True


# ========================================================================== #
# Batched vectorized mode
# ========================================================================== #

_MAX_WIDTH = 64


@dataclass
class _VectorCheck:
    """One ``if (out !== expected)`` self-check in the stimulus program."""

    step: int
    name: str
    expected: int
    width: int
    fmt: str
    time: int


@dataclass
class _VectorProgram:
    """A testbench unrolled into a straight-line stimulus program."""

    module_name: str
    input_widths: Dict[str, int]
    output_widths: Dict[str, int]
    #: Per input, the value driven during each delay step: shape (V,).
    stimulus: Dict[str, List[int]]
    checks: List[_VectorCheck]
    num_steps: int
    total_time: int
    pass_text: str
    fail_fmt: str


@dataclass
class _Netlist:
    """A candidate lowered to two-state uint64 array operations.

    ``ops`` is the structural key: constants appear as slot references so
    that candidates differing only in literals/parameters share one compiled
    group; ``consts`` carries this candidate's values for those slots.
    """

    ops: Tuple[tuple, ...]
    consts: Tuple[int, ...]
    outputs: Tuple[Tuple[str, int], ...]  # (name, op index)

    @property
    def key(self) -> tuple:
        return (self.ops, self.outputs)


#: :attr:`BatchReport.reasons` key for a candidate that is not exactly one
#: module named like the testbench's DUT instance (or does not parse).
NOT_THE_DUT = "not a single module matching the testbench's DUT"


@dataclass
class BatchReport:
    """How a :func:`simulate_batch` call dispatched its candidates.

    ``reasons`` says why each fallback candidate left the vector path: the
    lowering's message (``"signed port"``, ``"unsupported item AlwaysBlock"``,
    ...) or :data:`NOT_THE_DUT`, mapped to how many candidates it turned away;
    its values sum to ``fallback``.
    """

    vectorized: int = 0
    fallback: int = 0
    groups: int = 0
    reasons: Dict[str, int] = field(default_factory=dict)


class _ConstScope:
    """Parameter-only scope for evaluating elaboration-time constants."""

    def __init__(self) -> None:
        self.parameters: Dict[str, FourState] = {}
        self.evaluator = ExpressionEvaluator(self)

    def read_signal(self, name: str) -> FourState:
        if name in self.parameters:
            return self.parameters[name]
        raise EvaluationError(f"non-constant name {name!r}")

    def signal_width(self, name: str) -> int:
        if name in self.parameters:
            return self.parameters[name].width
        return 32

    def call_function(self, name: str, args: List[FourState]) -> FourState:
        raise EvaluationError(f"function call {name!r} in constant context")


def _const_int(expr: ast.Expression, scope: Optional[_ConstScope] = None) -> Optional[int]:
    try:
        return (scope or _ConstScope()).evaluator.evaluate_int(expr)
    except (EvaluationError, Exception):
        return None


def _number_value(expr: ast.Expression) -> Optional[FourState]:
    if not isinstance(expr, ast.Number):
        return None
    try:
        value = FourState.from_literal(expr.width, expr.base, expr.value_text or expr.text, signed=expr.signed)
    except (ValueError, KeyError):
        return None
    if not value.is_fully_known or value.signed:
        return None
    return value


def _extract_vector_program(module: ast.ModuleDef) -> Optional[_VectorProgram]:
    """Recognise the generic combinational vector-testbench shape.

    Returns None (→ scalar fallback) unless the module consists of reg/wire
    declarations, one identity-connected DUT instance and one initial block
    of ``set inputs / #delay / check outputs`` rounds ending in the standard
    errors report and ``$finish``.
    """
    if module.ports or module.parameters:
        return None
    const_scope = _ConstScope()
    reg_widths: Dict[str, int] = {}
    wire_widths: Dict[str, int] = {}
    counters: Dict[str, int] = {}
    instance: Optional[ast.ModuleInstance] = None
    initial: Optional[ast.InitialBlock] = None
    for item in module.items:
        if isinstance(item, ast.NetDeclaration):
            if item.initializers and any(init is not None for init in item.initializers):
                return None
            if item.array_ranges and any(rng is not None for rng in item.array_ranges):
                return None
            if item.signed:
                return None
            width = 1
            if item.range is not None:
                msb = _const_int(item.range.msb, const_scope)
                lsb = _const_int(item.range.lsb, const_scope)
                if msb is None or lsb is None:
                    return None
                width = abs(msb - lsb) + 1
            if width > _MAX_WIDTH:
                return None
            for name in item.names:
                if item.net_type == "reg":
                    reg_widths[name] = width
                elif item.net_type == "wire":
                    wire_widths[name] = width
                elif item.net_type == "integer":
                    counters[name] = 32
                else:
                    return None
        elif isinstance(item, ast.ModuleInstance):
            if instance is not None or item.parameter_overrides:
                return None
            instance = item
        elif isinstance(item, ast.InitialBlock):
            if initial is not None:
                return None
            initial = item
        else:
            return None
    if instance is None or initial is None:
        return None
    connected: List[str] = []
    for conn in instance.connections:
        if conn.name is None or not isinstance(conn.expr, ast.Identifier) or conn.expr.name != conn.name:
            return None
        if conn.name not in reg_widths and conn.name not in wire_widths:
            return None
        connected.append(conn.name)
    if len(set(connected)) != len(connected):
        return None

    body = initial.body
    statements = list(body.statements) if isinstance(body, ast.Block) else [body]
    stimulus: Dict[str, List[int]] = {name: [] for name in reg_widths}
    current: Dict[str, Optional[int]] = {name: None for name in reg_widths}
    checks: List[_VectorCheck] = []
    steps = 0
    total_time = 0
    pass_text: Optional[str] = None
    fail_fmt: Optional[str] = None
    finished = False
    index = 0
    if statements and _is_counter_reset(statements[0], counters):
        index = 1
    else:
        return None
    while index < len(statements):
        stmt = statements[index]
        index += 1
        if finished:
            return None  # statements after $finish: not the known shape
        if isinstance(stmt, ast.Assignment) and stmt.blocking and stmt.delay is None:
            if not isinstance(stmt.target, ast.Identifier) or stmt.target.name not in reg_widths:
                return None
            value = _number_value(stmt.value)
            if value is None:
                return None
            name = stmt.target.name
            current[name] = value.resize(reg_widths[name]).value
            continue
        if isinstance(stmt, ast.DelayStatement) and stmt.body is None:
            amount = _const_int(stmt.delay, const_scope)
            if amount is None or amount < 0:
                return None
            if any(current[name] is None for name in current):
                return None  # an input would still be X during this step
            for name, value in current.items():
                stimulus[name].append(value)  # type: ignore[arg-type]
            steps += 1
            total_time += amount
            continue
        if isinstance(stmt, ast.SystemTaskCall) and stmt.name == "$finish":
            finished = True
            continue
        if isinstance(stmt, ast.IfStatement):
            final = _match_final_report(stmt, counters)
            if final is not None:
                pass_text, fail_fmt = final
                continue
            # A check reads the outputs produced by the most recent stimulus
            # row, i.e. step index ``steps - 1``.
            if steps == 0:
                return None
            check = _match_vector_check(stmt, wire_widths, counters, steps - 1, total_time)
            if check is None:
                return None
            checks.append(check)
            continue
        return None
    if not finished or pass_text is None or fail_fmt is None or steps == 0:
        return None
    if any(check.step >= steps for check in checks):
        return None
    checked = {check.name for check in checks}
    if not checked <= set(wire_widths):
        return None
    return _VectorProgram(
        module_name=instance.module_name,
        input_widths={name: reg_widths[name] for name in reg_widths if name in connected},
        output_widths={name: wire_widths[name] for name in wire_widths if name in connected},
        stimulus=stimulus,
        checks=checks,
        num_steps=steps,
        total_time=total_time,
        pass_text=pass_text,
        fail_fmt=fail_fmt,
    )


def _is_counter_reset(stmt: ast.Statement, counters: Dict[str, int]) -> bool:
    return (
        isinstance(stmt, ast.Assignment)
        and stmt.blocking
        and stmt.delay is None
        and isinstance(stmt.target, ast.Identifier)
        and stmt.target.name in counters
        and isinstance(stmt.value, ast.Number)
        and (_number_value(stmt.value) is not None)
        and _number_value(stmt.value).value == 0
    )


def _match_vector_check(
    stmt: ast.IfStatement,
    wire_widths: Dict[str, int],
    counters: Dict[str, int],
    step: int,
    time: int,
) -> Optional[_VectorCheck]:
    """Match ``if (out !== W'dV) begin errors = errors + 1; $display(...); end``."""
    if stmt.else_body is not None:
        return None
    cond = stmt.condition
    if not isinstance(cond, ast.BinaryOp) or cond.op != "!==":
        return None
    if not isinstance(cond.left, ast.Identifier) or cond.left.name not in wire_widths:
        return None
    expected = _number_value(cond.right)
    if expected is None:
        return None
    name = cond.left.name
    width = wire_widths[name]
    body = stmt.then_body
    statements = list(body.statements) if isinstance(body, ast.Block) else [body]
    if len(statements) != 2:
        return None
    increment, display = statements
    if not (
        isinstance(increment, ast.Assignment)
        and increment.blocking
        and increment.delay is None
        and isinstance(increment.target, ast.Identifier)
        and increment.target.name in counters
        and isinstance(increment.value, ast.BinaryOp)
        and increment.value.op == "+"
        and isinstance(increment.value.left, ast.Identifier)
        and increment.value.left.name == increment.target.name
        and isinstance(increment.value.right, ast.Number)
    ):
        return None
    if not (
        isinstance(display, ast.SystemTaskCall)
        and display.name == "$display"
        and len(display.args) == 2
        and isinstance(display.args[0], ast.StringLiteral)
        and isinstance(display.args[1], ast.Identifier)
        and display.args[1].name == name
    ):
        return None
    return _VectorCheck(
        step=step,
        name=name,
        expected=expected.resize(width).value,
        width=width,
        fmt=display.args[0].text,
        time=time,
    )


def _match_final_report(stmt: ast.IfStatement, counters: Dict[str, int]) -> Optional[Tuple[str, str]]:
    """Match ``if (errors == 0) $display("PASS..."); else $display("FAIL...", errors);``."""
    cond = stmt.condition
    if not (
        isinstance(cond, ast.BinaryOp)
        and cond.op == "=="
        and isinstance(cond.left, ast.Identifier)
        and cond.left.name in counters
        and isinstance(cond.right, ast.Number)
        and _number_value(cond.right) is not None
        and _number_value(cond.right).value == 0
    ):
        return None
    then_body = stmt.then_body
    else_body = stmt.else_body
    if not (
        isinstance(then_body, ast.SystemTaskCall)
        and then_body.name == "$display"
        and len(then_body.args) == 1
        and isinstance(then_body.args[0], ast.StringLiteral)
    ):
        return None
    if not (
        isinstance(else_body, ast.SystemTaskCall)
        and else_body.name == "$display"
        and len(else_body.args) == 2
        and isinstance(else_body.args[0], ast.StringLiteral)
        and isinstance(else_body.args[1], ast.Identifier)
        and else_body.args[1].name == cond.left.name
    ):
        return None
    return then_body.args[0].text, else_body.args[0].text


class _Ineligible(Exception):
    """A candidate falls outside the vectorizable subset."""


class _NetlistLowerer:
    """Lowers one candidate module to a :class:`_Netlist`."""

    def __init__(self, module: ast.ModuleDef, program: _VectorProgram) -> None:
        self.module = module
        self.program = program
        self.scope = _ConstScope()
        self.ops: List[tuple] = []
        self.consts: List[int] = []
        self.widths: List[int] = []  # result width per op
        self.wires: Dict[str, int] = {}  # name -> op index (once lowered)
        self.wire_widths: Dict[str, int] = {}
        self.input_widths: Dict[str, int] = {}
        #: name -> (rhs, total_ctx, lsb, width); the slice fields are None for
        #: plain targets and describe this name's chunk of a concat target.
        self.assigns: Dict[str, Tuple[ast.Expression, Optional[int], Optional[int], Optional[int]]] = {}

    # -- structure -----------------------------------------------------------

    def lower(self) -> _Netlist:
        self._collect_declarations()
        self._collect_assigns()
        order = self._topological_order()
        for name in order:
            rhs, total_ctx, lsb, slice_width = self.assigns[name]
            if total_ctx is None:
                op_index = self._lower_expr(rhs, ctx=self.wire_widths[name])
                op_index = self._mask_to(op_index, self.wire_widths[name])
            else:
                # Concat target: evaluate the rhs at the concatenation's total
                # width and take this name's chunk (MSB-first split).
                op_index = self._lower_expr(rhs, ctx=total_ctx)
                op_index = self._mask_to(op_index, total_ctx)
                op_index = self._emit(("bits", op_index, lsb, slice_width), slice_width)
            self.wires[name] = op_index
        outputs = []
        for name in self.program.output_widths:
            if name not in self.wires:
                raise _Ineligible(f"output {name} undriven")
            outputs.append((name, self.wires[name]))
        return _Netlist(ops=tuple(self.ops), consts=tuple(self.consts), outputs=tuple(sorted(outputs)))

    def _collect_declarations(self) -> None:
        module = self.module
        directions: Dict[str, str] = {}
        widths: Dict[str, int] = {}

        def width_of(rng: Optional[ast.Range]) -> int:
            if rng is None:
                return 1
            msb = _const_int(rng.msb, self.scope)
            lsb = _const_int(rng.lsb, self.scope)
            if msb is None or lsb is None:
                raise _Ineligible("non-constant range")
            return abs(msb - lsb) + 1

        for item in list(module.parameters) + list(module.items):
            if isinstance(item, ast.ParameterDeclaration):
                for name, value_expr in zip(item.names, item.values):
                    try:
                        value = self.scope.evaluator.evaluate(value_expr)
                    except EvaluationError as exc:
                        raise _Ineligible(str(exc)) from exc
                    if not value.is_fully_known:
                        raise _Ineligible("unknown parameter value")
                    self.scope.parameters[name] = value
        for port in module.ports:
            if port.direction is not None:
                directions[port.name] = port.direction
                widths[port.name] = width_of(port.range)
                if port.signed:
                    raise _Ineligible("signed port")
        for item in module.items:
            if isinstance(item, ast.PortDeclaration):
                if item.signed:
                    raise _Ineligible("signed port")
                for name in item.names:
                    directions[name] = item.direction
                    widths[name] = width_of(item.range)
            elif isinstance(item, ast.NetDeclaration):
                if item.net_type not in ("wire",) or item.signed:
                    raise _Ineligible(f"unsupported declaration {item.net_type}")
                if any(init is not None for init in item.initializers):
                    raise _Ineligible("wire initializer")
                if any(rng is not None for rng in item.array_ranges):
                    raise _Ineligible("array declaration")
                for name in item.names:
                    widths.setdefault(name, width_of(item.range))
            elif isinstance(item, (ast.ContinuousAssign, ast.ParameterDeclaration)):
                continue
            else:
                raise _Ineligible(f"unsupported item {type(item).__name__}")
        port_names = {port.name for port in module.ports}
        if port_names != set(directions):
            raise _Ineligible("undeclared header port")
        program = self.program
        expected_ports = set(program.input_widths) | set(program.output_widths)
        if port_names != expected_ports:
            raise _Ineligible("port set differs from testbench connections")
        for name, width in program.input_widths.items():
            if directions.get(name) != "input" or widths.get(name) != width:
                raise _Ineligible("input port mismatch")
            self.input_widths[name] = width
        for name, width in program.output_widths.items():
            if directions.get(name) != "output" or widths.get(name) != width:
                raise _Ineligible("output port mismatch")
        for name, width in widths.items():
            if width > _MAX_WIDTH:
                raise _Ineligible("width over 64 bits")
            if name not in self.input_widths:
                self.wire_widths[name] = width

    def _collect_assigns(self) -> None:
        for item in self.module.items:
            if not isinstance(item, ast.ContinuousAssign):
                continue
            if item.delay is not None:
                raise _Ineligible("assign delay")
            for lhs, rhs in item.assignments:
                if isinstance(lhs, ast.Identifier):
                    name = lhs.name
                    if name not in self.wire_widths or name in self.assigns:
                        raise _Ineligible("multiply-driven or unknown target")
                    self.assigns[name] = (rhs, None, None, None)
                elif isinstance(lhs, ast.Concatenation):
                    parts: List[Tuple[str, int]] = []
                    for part in lhs.parts:
                        if not isinstance(part, ast.Identifier) or part.name not in self.wire_widths:
                            raise _Ineligible("unsupported concat assign target")
                        parts.append((part.name, self.wire_widths[part.name]))
                    total = sum(width for _name, width in parts)
                    if total > _MAX_WIDTH:
                        raise _Ineligible("wide concat target")
                    cursor = total
                    for name, width in parts:  # MSB-first: first part takes the top bits
                        cursor -= width
                        if name in self.assigns:
                            raise _Ineligible("multiply-driven target")
                        self.assigns[name] = (rhs, total, cursor, width)
                else:
                    raise _Ineligible("non-identifier assign target")

    def _topological_order(self) -> List[str]:
        color: Dict[str, int] = {}
        order: List[str] = []

        def visit(name: str, depth: int) -> None:
            if depth > 256:
                raise _Ineligible("dependency nesting too deep")
            state = color.get(name)
            if state == 2:
                return
            if state == 1:
                raise _Ineligible("combinational loop")
            color[name] = 1
            for dep in self._expr_deps(self.assigns[name][0]):
                visit(dep, depth + 1)
            color[name] = 2
            order.append(name)

        for name in self.assigns:
            visit(name, 0)
        return order

    def _expr_deps(self, expr: ast.Expression) -> List[str]:
        deps = []
        for node in expr.walk():
            if isinstance(node, ast.Identifier) and node.name in self.assigns:
                deps.append(node.name)
        return deps

    # -- expression lowering -------------------------------------------------

    def _emit(self, op: tuple, width: int) -> int:
        self.ops.append(op)
        self.widths.append(width)
        return len(self.ops) - 1

    def _emit_const(self, value: int, width: int) -> int:
        slot = len(self.consts)
        self.consts.append(value & ((1 << width) - 1))
        return self._emit(("const", slot, width), width)

    def _mask_to(self, op_index: int, width: int) -> int:
        if self.widths[op_index] == width:
            return op_index
        return self._emit(("resize", op_index, width), width)

    def _lower_expr(self, expr: ast.Expression, ctx: Optional[int]) -> int:
        if isinstance(expr, ast.Number):
            value = _number_value(expr)
            if value is None:
                raise _Ineligible("four-state or signed literal")
            if value.width > _MAX_WIDTH:
                raise _Ineligible("wide literal")
            return self._emit_const(value.value, value.width)
        if isinstance(expr, ast.Identifier):
            name = expr.name
            if name in self.scope.parameters:
                value = self.scope.parameters[name]
                if not value.is_fully_known or value.signed or value.width > _MAX_WIDTH:
                    raise _Ineligible("unsupported parameter value")
                return self._emit_const(value.value, value.width)
            if name in self.input_widths:
                return self._emit(("input", name, self.input_widths[name]), self.input_widths[name])
            if name in self.wires:
                return self.wires[name]
            raise _Ineligible(f"unresolved identifier {name!r}")
        if isinstance(expr, ast.UnaryOp):
            return self._lower_unary(expr, ctx)
        if isinstance(expr, ast.BinaryOp):
            return self._lower_binary(expr, ctx)
        if isinstance(expr, ast.Conditional):
            cond = self._lower_expr(expr.condition, None)
            if_true = self._lower_expr(expr.if_true, ctx)
            if_false = self._lower_expr(expr.if_false, ctx)
            width_true = self.widths[if_true]
            width_false = self.widths[if_false]
            if width_true != width_false:
                # A per-element width mix would change downstream masking.
                raise _Ineligible("conditional arms of different widths")
            return self._emit(("mux", cond, if_true, if_false), width_true)
        if isinstance(expr, ast.Concatenation):
            parts = [self._lower_expr(part, None) for part in expr.parts]
            total = sum(self.widths[part] for part in parts)
            if not parts or total > _MAX_WIDTH:
                raise _Ineligible("unsupported concatenation")
            return self._emit(("cat", tuple((part, self.widths[part]) for part in parts)), total)
        if isinstance(expr, ast.Replication):
            count = _const_int(expr.count, self.scope)
            if count is None or count <= 0:
                raise _Ineligible("non-constant replication")
            inner = self._lower_expr(expr.value, None)
            width = self.widths[inner]
            if width * count > _MAX_WIDTH:
                raise _Ineligible("wide replication")
            return self._emit(("rep", inner, count, width), width * count)
        if isinstance(expr, ast.BitSelect):
            target = self._lower_expr(expr.target, None)
            width = self.widths[target]
            index = _const_int(expr.index, self.scope)
            if index is not None:
                if index < 0 or index >= width:
                    raise _Ineligible("out-of-range bit select")
                return self._emit(("bits", target, index, 1), 1)
            index_op = self._lower_expr(expr.index, None)
            if (1 << self.widths[index_op]) - 1 >= width:
                raise _Ineligible("bit-select index can exceed width")
            return self._emit(("bitdyn", target, index_op), 1)
        if isinstance(expr, ast.PartSelect):
            if expr.mode != ":":
                raise _Ineligible("indexed part select")
            target = self._lower_expr(expr.target, None)
            msb = _const_int(expr.msb, self.scope)
            lsb = _const_int(expr.lsb, self.scope)
            if msb is None or lsb is None:
                raise _Ineligible("non-constant part select")
            if msb < lsb:
                msb, lsb = lsb, msb
            if lsb < 0 or msb >= self.widths[target]:
                raise _Ineligible("out-of-range part select")
            return self._emit(("bits", target, lsb, msb - lsb + 1), msb - lsb + 1)
        raise _Ineligible(f"unsupported expression {type(expr).__name__}")

    def _lower_unary(self, expr: ast.UnaryOp, ctx: Optional[int]) -> int:
        op = expr.op
        operand = self._lower_expr(expr.operand, ctx)
        width = self.widths[operand]
        if op == "+":
            return operand
        if op == "~":
            return self._emit(("not", operand, width), width)
        if op == "!":
            return self._emit(("lnot", operand), 1)
        if op in ("&", "|", "^", "~&", "~|", "~^", "^~"):
            return self._emit(("reduce", op, operand, width), 1)
        raise _Ineligible(f"unsupported unary {op!r}")  # unary minus → signed


    def _lower_binary(self, expr: ast.BinaryOp, ctx: Optional[int]) -> int:
        op = expr.op
        left = self._lower_expr(expr.left, ctx)
        right = self._lower_expr(expr.right, ctx)
        width_left = self.widths[left]
        width_right = self.widths[right]
        if op in ("&&", "||"):
            return self._emit(("logic", op, left, right), 1)
        if op in ("===", "!=="):
            # Fully-known operands: case equality is numeric equality on the
            # zero-extended values.
            return self._emit(("cmp", "==" if op == "===" else "!=", left, right), 1)
        if op in COMPARE_OPS:
            return self._emit(("cmp", op, left, right), 1)
        if op in ("<<", ">>", "<<<", ">>>"):
            # Unsigned operands make the arithmetic variants equal to the
            # logical shifts; over-shift (amount > 63) is handled in the
            # kernel, which forces the result to zero.
            base_op = "<<" if op in ("<<", "<<<") else ">>"
            return self._emit(("shift", base_op, left, right, width_left), width_left)
        if op in ("&", "|", "^", "~^", "^~"):
            width = max(width_left, width_right)
            return self._emit(("bit", "~^" if op == "^~" else op, left, right, width), width)
        if op in ("+", "-", "*", "/", "%"):
            out_width = max(width_left, width_right, ctx or 0, 1)
            if out_width > _MAX_WIDTH:
                raise _Ineligible("wide arithmetic")
            return self._emit(("arith", op, left, right, out_width), out_width)
        raise _Ineligible(f"unsupported binary {op!r}")


def _mask(width: int) -> np.uint64:
    return np.uint64((1 << width) - 1 if width < 64 else 0xFFFFFFFFFFFFFFFF)


def _evaluate_group(
    ops: Tuple[tuple, ...],
    consts: np.ndarray,
    inputs: Dict[str, np.ndarray],
) -> List[np.ndarray]:
    """Evaluate a lowered op list over (C, 1) constants and (1, V) stimulus."""
    values: List[np.ndarray] = []
    one = np.uint64(1)
    for op in ops:
        kind = op[0]
        if kind == "const":
            _, slot, _width = op
            result = consts[:, slot : slot + 1]
        elif kind == "input":
            _, name, _width = op
            result = inputs[name]
        elif kind == "resize":
            _, src, width = op
            result = values[src] & _mask(width)
        elif kind == "not":
            _, src, width = op
            result = ~values[src] & _mask(width)
        elif kind == "lnot":
            result = (values[op[1]] == 0).astype(np.uint64)
        elif kind == "reduce":
            _, reduce_op, src, width = op
            value = values[src]
            if reduce_op in ("&", "~&"):
                result = (value == _mask(width)).astype(np.uint64)
                if reduce_op == "~&":
                    result ^= one
            elif reduce_op in ("|", "~|"):
                result = (value != 0).astype(np.uint64)
                if reduce_op == "~|":
                    result ^= one
            else:  # ^, ~^, ^~
                parity = value.copy()
                for offset in (32, 16, 8, 4, 2, 1):
                    parity ^= parity >> np.uint64(offset)
                result = parity & one
                if reduce_op in ("~^", "^~"):
                    result ^= one
        elif kind == "logic":
            _, logic_op, left, right = op
            left_true = values[left] != 0
            right_true = values[right] != 0
            truth = (left_true & right_true) if logic_op == "&&" else (left_true | right_true)
            result = truth.astype(np.uint64)
        elif kind == "cmp":
            _, cmp_op, left, right = op
            a, b = values[left], values[right]
            if cmp_op == "==":
                truth = a == b
            elif cmp_op == "!=":
                truth = a != b
            elif cmp_op == "<":
                truth = a < b
            elif cmp_op == ">":
                truth = a > b
            elif cmp_op == "<=":
                truth = a <= b
            else:
                truth = a >= b
            result = truth.astype(np.uint64)
        elif kind == "shift":
            _, shift_op, left, right, width = op
            raw = values[right]
            amount = np.minimum(raw, np.uint64(63))
            if shift_op == "<<":
                shifted = (values[left] << amount) & _mask(width)
            else:
                shifted = values[left] >> amount
            result = np.where(raw > np.uint64(63), np.uint64(0), shifted)
        elif kind == "bit":
            _, bit_op, left, right, width = op
            a, b = values[left], values[right]
            if bit_op == "&":
                result = a & b
            elif bit_op == "|":
                result = a | b
            elif bit_op == "^":
                result = a ^ b
            else:  # ~^
                result = ~(a ^ b) & _mask(width)
        elif kind == "arith":
            _, arith_op, left, right, out_width = op
            a, b = values[left], values[right]
            if arith_op == "+":
                result = (a + b) & _mask(out_width)
            elif arith_op == "-":
                result = (a - b) & _mask(out_width)
            elif arith_op == "*":
                result = (a * b) & _mask(out_width)
            elif arith_op == "/":
                safe = np.where(b == 0, one, b)
                result = np.where(b == 0, np.uint64(0), a // safe) & _mask(out_width)
            else:  # %
                safe = np.where(b == 0, one, b)
                result = np.where(b == 0, np.uint64(0), a % safe) & _mask(out_width)
        elif kind == "mux":
            _, cond, if_true, if_false = op
            result = np.where(values[cond] != 0, values[if_true], values[if_false])
        elif kind == "cat":
            parts = op[1]
            shift = sum(width for _part, width in parts)
            result = np.uint64(0)
            for part, width in parts:
                shift -= width
                result = result | (values[part] << np.uint64(shift))
        elif kind == "rep":
            _, src, count, width = op
            result = np.uint64(0)
            for repeat in range(count):
                result = result | (values[src] << np.uint64(repeat * width))
        elif kind == "bits":
            _, src, lsb, width = op
            result = (values[src] >> np.uint64(lsb)) & _mask(width)
        elif kind == "bitdyn":
            _, src, index = op
            result = (values[src] >> values[index]) & one
        else:  # pragma: no cover - lowering emits only the kinds above
            raise SimulationError(f"unknown op {kind!r}")
        values.append(result)
    return values


def simulate_batch(
    design_sources: Sequence[str],
    testbench_source: str,
    top: Optional[str] = None,
    max_time: int = 200_000,
    max_events: int = 200_000,
    report: Optional[BatchReport] = None,
) -> Optional[List[Optional[SimulationResult]]]:
    """Vectorized sweep of many candidate designs over one testbench.

    Returns None when the testbench itself is outside the vector subset;
    otherwise a list aligned with ``design_sources`` where each entry is a
    :class:`SimulationResult` bit-identical to the scalar backends' result,
    or None for candidates that must fall back to scalar simulation.
    """
    tb_check = check_syntax(testbench_source)
    if not tb_check.ok or len(tb_check.ast.modules) != 1:
        return None
    tb_module = tb_check.ast.modules[0]
    if top is not None and tb_module.name != top:
        return None
    program = _extract_vector_program(tb_module)
    if program is None:
        return None
    if program.total_time > max_time or program.num_steps + 1 > max_events:
        return None

    netlists: List[Optional[_Netlist]] = []
    reasons = report.reasons if report is not None else {}
    for source in design_sources:
        try:
            netlists.append(_lower_candidate(source, program, tb_module.name))
        except _Ineligible as exc:
            netlists.append(None)
            reason = str(exc)
            reasons[reason] = reasons.get(reason, 0) + 1

    results: List[Optional[SimulationResult]] = [None] * len(design_sources)
    groups: Dict[tuple, List[int]] = {}
    for index, netlist in enumerate(netlists):
        if netlist is not None:
            groups.setdefault(netlist.key, []).append(index)
    stimulus = {
        name: np.asarray(values, dtype=np.uint64).reshape(1, -1) for name, values in program.stimulus.items()
    }
    for key, members in groups.items():
        ops, outputs = key
        consts = np.asarray([netlists[index].consts for index in members], dtype=np.uint64).reshape(
            len(members), -1
        )
        values = _evaluate_group(ops, consts, stimulus)
        candidate_count = len(members)
        steps = program.num_steps
        out_matrix = {
            name: np.broadcast_to(values[op_index], (candidate_count, steps)) for name, op_index in outputs
        }
        for row, index in enumerate(members):
            results[index] = _replay_program(program, {name: out_matrix[name][row] for name in out_matrix})
    if report is not None:
        report.vectorized += sum(1 for result in results if result is not None)
        report.fallback += sum(1 for result in results if result is None)
        report.groups += len(groups)
    return results


def _lower_candidate(source: str, program: _VectorProgram, tb_name: str) -> _Netlist:
    """Lower one candidate to a netlist, or raise :class:`_Ineligible` saying why it cannot be."""
    design_check = check_syntax(source)
    if not design_check.ok or len(design_check.ast.modules) != 1:
        raise _Ineligible(NOT_THE_DUT)
    module = design_check.ast.modules[0]
    if module.name != program.module_name or module.name == tb_name:
        raise _Ineligible(NOT_THE_DUT)
    try:
        return _NetlistLowerer(module, program).lower()
    except (EvaluationError, SimulationError, RecursionError) as exc:
        raise _Ineligible(f"{type(exc).__name__}: {exc}") from exc


def _replay_program(program: _VectorProgram, outputs: Dict[str, np.ndarray]) -> SimulationResult:
    """Re-run the stimulus program against one candidate's output matrix.

    Display synthesis goes through :func:`_apply_format` so mismatch lines are
    byte-identical to the scalar backends.
    """
    lines: List[str] = []
    errors = 0
    for check in program.checks:
        got = int(outputs[check.name][check.step])
        if got != check.expected:
            errors += 1
            lines.append(_apply_format(check.fmt, [FourState.from_int(got, width=check.width)], check.time))
    if errors == 0:
        lines.append(_apply_format(program.pass_text, [], program.total_time))
    else:
        lines.append(
            _apply_format(program.fail_fmt, [FourState.from_int(errors, width=32, signed=True)], program.total_time)
        )
    # Event accounting of the scalar loop: one step per delay resume plus the
    # final segment that runs the report and hits $finish.
    return SimulationResult(
        finished=True,
        time=program.total_time,
        output="\n".join(lines),
        display_lines=lines,
        cycles=program.num_steps + 1,
        error=None,
    )

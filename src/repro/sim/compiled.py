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
  functions; only delays, event controls and ``$finish`` compile to
  generators, so the time wheel and NBA region of the interpreter are reused
  unchanged.

Only the statement forms grading runs are compiled: blocks, assignments
without an intra-assignment delay, ``if``/``case`` whose branches never
suspend, ``for`` whose init and step never suspend, delay and event controls,
``$finish``/``$stop``, the ``$display`` family with a string-literal format,
the ignored ``$dump*``/``$readmem*`` tasks, and the no-op null, ``disable``
and local-declaration statements.  Every other form (``while``, ``repeat``,
``forever``, ``wait``, user task calls, ``$monitor``, ``$fatal``, ...) raises
at compile time and runs in the interpreter for that subtree.

Cycle identity
--------------

:class:`CompiledSimulator` subclasses :class:`~repro.sim.simulator.Simulator`
and reuses its elaboration, scheduler (``run``/``_run_loop``/``_step_process``)
and four-state write path verbatim.  Every value an expression closure
returns comes from the function of :mod:`repro.sim.expr` (its docstring
lists them) that the interpreter's evaluator calls for the same form; a
closure only fixes, at compile time, which rule runs and the order its
operands are evaluated in, which is the interpreter's (index before target,
count before the repeated value).  The ``$display`` family is
:data:`~repro.sim.simulator._DISPLAY_TASKS` on both.  Any construct the
compiler does not compile falls back to the interpreter for exactly that
subtree.  The result is asserted to be cycle-identical: same
:class:`SimulationResult` fields, same ``$display`` bytes, same ``$random``
draws (see ``tests/test_sim_differential.py``, ``tests/test_sim_golden.py``
and, per expression form, ``tests/test_expr.py``).

One testbench per batch
-----------------------

:meth:`Simulator.bind` re-binds a simulator to the next design under the same
top module (the testbench), so :func:`repro.sim.testbench.run_testbench_batch`
elaborates the testbench once per call instead of once per candidate, on
either backend.  ``CompiledSimulator`` adds only its own state: a bind also
drops the previous design's writers and compiled processes, and after the
top's instances are elaborated it rebuilds the slot table and continuous
entries and compiles only the design's processes.  Construction takes the
same steps (elaborate everything, then compile), so signal, process and
continuous-assign order — and every result — equal a fresh simulator's, and
a design that does not elaborate is never compiled.

Batched vectorized mode
-----------------------

:func:`simulate_batch` runs *many candidate designs* against *one shared
testbench* as NumPy sweeps over a candidate axis: the testbench is unrolled
into a straight-line stimulus program, each eligible candidate is lowered to a
two-state netlist of uint64 array operations (continuous assigns, and
combinational ``always`` blocks as mux trees), structurally identical
candidates are grouped (their constants lifted into per-candidate arrays of
shape ``(C, 1)``) and evaluated against the stimulus matrix of shape
``(1, V)`` in one pass.  Anything outside the eligible subset — sequential
logic, latches, four-state outputs, non-vector testbenches — transparently
falls back to the scalar compiled backend, so batching is purely an
optimisation, never a semantics change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, List, NamedTuple, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.verilog import ast_nodes as ast
from repro.verilog.syntax import check_syntax
from repro.sim.expr import (
    COMPARE_OPS,
    EvaluationError,
    ExpressionEvaluator,
    apply_unary,
    binary_rule,
    bit_select,
    concatenate,
    known_int,
    literal_value,
    part_select,
    replicate,
    select_bounds,
    string_value,
    unknown_choice,
)
from repro.sim.simulator import (
    _CMD_DELAY,
    _CMD_FINISH,
    _CMD_WAIT_EVENT,
    _DISPLAY_TASKS,
    _InstanceScope,
    _Process,
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

#: Tasks the interpreter ignores that compile to a no-op; every other
#: unknown task is left to the interpreter, which ignores it too.
_IGNORED_TASKS = ("$dumpfile", "$dumpvars", "$dumpoff", "$dumpon", "$readmemh", "$readmemb", "$timeformat")


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

    Construction elaborates, then compiles.  :meth:`bind` swaps the design
    under the same top module: the top's own processes stay compiled, and
    only the instances are elaborated and compiled again.  So construction
    is the first bind, and a design that does not elaborate costs no
    compile.
    """

    def __init__(self, *args, **kwargs) -> None:
        # Initialised before elaboration so inherited hooks stay callable.
        self._state: Optional[_State] = None
        self._writers: Dict[Tuple[int, int], Callable[[FourState], None]] = {}
        self._cont_entries: Optional[List[_CompiledAssign]] = None
        self._cont_static_mask = 0
        self._cont_any_volatile = False
        self._compiled_processes: Dict[_Process, StmtFn] = {}
        super().__init__(*args, **kwargs)

    # ------------------------------------------------------------------ #
    # Binding
    # ------------------------------------------------------------------ #

    def _elaborate(self) -> None:
        super()._elaborate()
        self._compile()

    def bind(self, source: ast.SourceFile) -> None:
        """:meth:`Simulator.bind`, then compile the new design's processes and assigns."""
        super().bind(source)
        self._compile()

    def _rewind_top(self) -> None:
        super()._rewind_top()
        # Writers are keyed on ``id()`` of a scope and a target node.  The
        # previous design's scopes and nodes are freed, and a new object may
        # reuse one of their ids; the top scope's targets are nodes of the
        # top module, or made by its elaboration and kept in ``top``.  The
        # top's processes read only its own scope and resolve hierarchical
        # names at run time, so they stay compiled.
        top_id = id(self._top.scope)
        self._writers = {key: writer for key, writer in self._writers.items() if key[0] == top_id}
        self._compiled_processes = {process: self._compiled_processes[process] for process in self._top.processes}

    # ------------------------------------------------------------------ #
    # Compilation
    # ------------------------------------------------------------------ #

    def _compile(self) -> None:
        """Lower every continuous assignment and compile the processes not compiled yet."""
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
        compiled = self._compiled_processes
        for process in self.processes:
            if process not in compiled:
                compiled[process] = self._compile_statement(process.scope, process.body)

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
            constant = literal_value(expr)
            return lambda ctx, _v=constant: _v
        if isinstance(expr, ast.StringLiteral):
            constant = string_value(expr.text)
            return lambda ctx, _v=constant: _v
        if isinstance(expr, ast.Identifier):
            return self._compile_identifier(scope, expr.name)
        if isinstance(expr, ast.UnaryOp):
            operand_fn = self._compile_expr(scope, expr.operand)
            return lambda ctx, _op=expr.op, _f=operand_fn: apply_unary(_op, _f(ctx), ctx)
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
                return unknown_choice(if_true, false_fn(ctx))

            return eval_conditional
        if isinstance(expr, ast.Concatenation):
            part_fns = [self._compile_expr(scope, part) for part in expr.parts]
            return lambda _ctx: concatenate([fn(None) for fn in part_fns])
        if isinstance(expr, ast.Replication):
            count_fn = self._compile_expr(scope, expr.count)
            inner_fn = self._compile_expr(scope, expr.value)

            def eval_replication(_ctx: Optional[int]) -> FourState:
                count = known_int(count_fn(None))
                return replicate(count, inner_fn(None))

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
                return bit_select(target_fn(None), index)

            return eval_bit_select
        if isinstance(expr, ast.PartSelect):
            target_fn = self._compile_expr(scope, expr.target)
            msb_fn = self._compile_expr(scope, expr.msb)
            lsb_fn = self._compile_expr(scope, expr.lsb)
            mode = expr.mode

            def eval_part_select(_ctx: Optional[int]) -> FourState:
                target = target_fn(None)
                first = known_int(msb_fn(None))
                return part_select(target, *select_bounds(mode, first, known_int(lsb_fn(None))))

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
        rule = binary_rule(op)
        # Both operands are always evaluated (Verilog has no short-circuit),
        # left before right.
        return lambda ctx: rule(op, left_fn(ctx), right_fn(ctx), ctx)

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
        if isinstance(stmt, ast.DelayStatement):
            return self._compile_delay(scope, stmt)
        if isinstance(stmt, ast.EventControlStatement):
            return self._compile_event_control(scope, stmt)
        if isinstance(stmt, ast.SystemTaskCall):
            return self._compile_system_task(scope, stmt)
        if isinstance(stmt, (ast.NullStatement, ast.DisableStatement, ast.LocalDeclaration)):
            return False, _noop
        # while / repeat / forever / wait, user task calls and anything else
        # run in the interpreter.
        raise NotImplementedError(type(stmt).__name__)

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
        if stmt.delay is not None:
            raise NotImplementedError("intra-assignment delay")
        width, width_fn = self._compile_target_width(scope, stmt.target)
        value_fn = self._compile_expr(scope, stmt.value)
        target = stmt.target

        if stmt.blocking:
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

        return False, execute_write

    def _compile_if(self, scope: _InstanceScope, stmt: ast.IfStatement) -> StmtFn:
        cond_fn = self._compile_expr(scope, stmt.condition)
        then_async, then_fn = self._compile_statement(scope, stmt.then_body)
        else_async, else_fn = (False, None) if stmt.else_body is None else self._compile_statement(scope, stmt.else_body)
        if then_async or else_async:
            raise NotImplementedError("suspending if branch")

        def run_if() -> None:
            truth = cond_fn(None).is_true()
            if truth:
                then_fn()
            elif else_fn is not None:
                else_fn()

        return False, run_if

    def _compile_case(self, scope: _InstanceScope, stmt: ast.CaseStatement) -> StmtFn:
        subject_fn = self._compile_expr(scope, stmt.subject)
        kind = stmt.kind
        items: List[Tuple[bool, List[ExprFn], Optional[Callable[[], None]]]] = []
        for item in stmt.items:
            body_fn = None
            if item.body is not None:
                body_async, body_fn = self._compile_statement(scope, item.body)
                if body_async:
                    raise NotImplementedError("suspending case branch")
            pattern_fns = [self._compile_expr(scope, pattern) for pattern in item.patterns]
            items.append((item.is_default, pattern_fns, body_fn))
        case_match = Simulator._case_match

        def run_case() -> None:
            subject = subject_fn(None)
            default_fn: Optional[Callable[[], None]] = None
            for is_default, pattern_fns, body_fn in items:
                if is_default:
                    default_fn = body_fn
                    continue
                for pattern_fn in pattern_fns:
                    if case_match(kind, subject, pattern_fn(None)):
                        if body_fn is not None:
                            body_fn()
                        return
            if default_fn is not None:
                default_fn()

        return False, run_case

    def _compile_for(self, scope: _InstanceScope, stmt: ast.ForStatement) -> StmtFn:
        init_async, init_fn = self._compile_statement(scope, stmt.init)
        cond_fn = self._compile_expr(scope, stmt.condition)
        body_async, body_fn = self._compile_statement(scope, stmt.body)
        step_async, step_fn = self._compile_statement(scope, stmt.step)
        if init_async or step_async:
            raise NotImplementedError("suspending for init or step")
        limit_message = "for loop iteration limit exceeded"
        if not body_async:

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
            init_fn()
            iterations = 0
            while True:
                if not cond_fn(None).is_true():
                    break
                yield from body_fn()
                if self.finished:
                    return
                step_fn()
                iterations += 1
                if iterations > self.max_loop_iterations:
                    raise SimulationError(limit_message)

        return True, run_for_async

    def _compile_delay(self, scope: _InstanceScope, stmt: ast.DelayStatement) -> StmtFn:
        delay_fn = self._compile_expr(scope, stmt.delay)
        body = None if stmt.body is None else self._compile_statement(scope, stmt.body)

        def run_delay() -> Generator:
            delay = known_int(delay_fn(None))
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

    def _compile_system_task(self, scope: _InstanceScope, stmt: ast.SystemTaskCall) -> StmtFn:
        name = stmt.name
        if name in ("$finish", "$stop"):

            def run_finish() -> Generator:
                self.finished = True
                yield (_CMD_FINISH, None)

            return True, run_finish
        if name in _DISPLAY_TASKS and stmt.args and isinstance(stmt.args[0], ast.StringLiteral):
            fmt = stmt.args[0].text
            value_fns = [self._compile_expr(scope, arg) for arg in stmt.args[1:]]
            return False, (lambda: self.display_lines.append(_apply_format(fmt, [fn(None) for fn in value_fns], self.time)))
        if name in _IGNORED_TASKS:
            return False, _noop
        raise NotImplementedError(name)

    # ------------------------------------------------------------------ #
    # Execution overrides
    # ------------------------------------------------------------------ #

    def _exec_process(self, process) -> Generator:
        is_async, fn = self._compiled_processes[process]
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
                                local = frame[name]
                                frame[name] = value.resize(local.width, signed=local.signed)
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
    #: The DUT instance precedes the initial block, so the DUT's ``always``
    #: blocks wait on their signals before the first stimulus is driven.
    dut_first: bool


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
    #: Per combinational ``always`` block, the op indices of the signals that
    #: wake it: the sweep counts the interpreter's process steps from them.
    wakes: Tuple[Tuple[int, ...], ...]

    @property
    def key(self) -> tuple:
        return (self.ops, self.outputs, self.wakes)


#: :attr:`BatchReport.reasons` key for a candidate that is not exactly one
#: module named like the testbench's DUT instance (or does not parse).
NOT_THE_DUT = "not a single module matching the testbench's DUT"
#: :attr:`BatchReport.reasons` key for a candidate whose always blocks would
#: run past the interpreter's event or loop limit: the interpreter reports it.
_OVER_LIMIT = "event or loop limit"


@dataclass
class BatchReport:
    """How a :func:`simulate_batch` call dispatched its candidates.

    ``reasons`` says why each fallback candidate left the vector path: the
    lowering's message (``"signed port"``, ``"latch: always block leaves a
    target unassigned on some path"``, ...), :data:`NOT_THE_DUT`, or
    ``"event or loop limit"`` for a candidate whose ``always`` blocks would
    stop the interpreter with an error, mapped to how many candidates it
    turned away; its values sum to ``fallback``.
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
    number = _number_value(expr)
    if number is not None:
        return number.value  # a plain literal, without the evaluator
    try:
        return (scope or _ConstScope()).evaluator.evaluate_int(expr)
    except (EvaluationError, Exception):
        return None


def _number_value(expr: ast.Expression) -> Optional[FourState]:
    if not isinstance(expr, ast.Number):
        return None
    try:
        value = literal_value(expr)
    except (ValueError, KeyError):
        return None
    if not value.is_fully_known or value.signed:
        return None
    return value


def _const_width(rng: ast.Range, scope: _ConstScope) -> Optional[int]:
    """Bit count of a declared ``[msb:lsb]`` range, or None when a bound is not a constant."""
    msb = _const_int(rng.msb, scope)
    lsb = _const_int(rng.lsb, scope)
    if msb is None or lsb is None:
        return None
    msb, lsb = select_bounds(":", msb, lsb)
    return msb - lsb + 1


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
            width = 1 if item.range is None else _const_width(item.range, const_scope)
            if width is None or width > _MAX_WIDTH:
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
            dut_first = initial is None
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
        dut_first=dut_first,
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


class _Comb(NamedTuple):
    """A combinational ``always`` block: one netlist node beside the continuous assigns."""

    #: The statement under the event control.
    body: ast.Statement
    #: The names it assigns, in order of first assignment.
    targets: Tuple[str, ...]
    #: The signals whose change re-runs it: what it reads under ``@*``, its
    #: list otherwise (never its own targets, which only it changes).
    wakes: Tuple[str, ...]


_LOOPS = (ast.ForStatement, ast.WhileStatement, ast.RepeatStatement, ast.ForeverStatement)
#: While an always block is lowered: each target's op so far, None when only
#: some paths assigned it.
_Env = Dict[str, Optional[int]]


def _add_names(expr: ast.Node, names: Dict[str, None]) -> None:
    """Add the identifiers under ``expr`` to ``names`` in ``expr.walk()`` order, without its generators."""
    if isinstance(expr, ast.Identifier):
        names[expr.name] = None
    elif isinstance(expr, ast.BinaryOp):
        _add_names(expr.left, names)
        _add_names(expr.right, names)
    elif isinstance(expr, ast.UnaryOp):
        _add_names(expr.operand, names)
    elif not isinstance(expr, ast.Number):
        for child in expr.children():
            _add_names(child, names)


class _NetlistLowerer:
    """Lowers one candidate module to a :class:`_Netlist`.

    Continuous assigns and combinational ``always`` blocks are nodes of one
    dependency order.  A block is lowered by symbolic execution of its
    blocking assignments: ``name -> op index`` for what it has assigned so
    far, ``if`` / ``else`` arms merged with ``mux``, and ``case`` / ``casez``
    items as a priority chain of compares (``casez`` masks its ``?`` bits)
    ending in ``default``.  Each refusal raises :class:`_Ineligible` with the
    reason :attr:`BatchReport.reasons` counts; besides unknown items,
    statements and expressions, a block is refused when

    * a target is not assigned on every path (a latch);
    * it reads one of its targets before writing it;
    * no input wakes it (``always @* q = 0;`` never runs, so ``q`` stays X);
    * its explicit sensitivity list misses a signal it reads, or has an edge;
    * it wakes on the output of an ``always`` block, or on an assign listed
      before one of its own inputs, or the testbench drives the DUT before
      the DUT's processes wait.  Under these three rules each block runs once
      at time 0 and once per step where a wake signal changed, which is the
      interpreter's event count the sweep must reproduce.

    Expressions keep the interpreter's self-determined widths.  A ``?:``
    with arms of different widths takes the wider width; its per-element
    width is then unknown, so it may feed only operators whose value does
    not depend on it (compares, logic, ``|``/``&``/``^``, the assignment's
    truncation) and is refused elsewhere.
    """

    def __init__(self, module: ast.ModuleDef, program: _VectorProgram) -> None:
        self.module = module
        self.program = program
        self.scope = _ConstScope()
        self.ops: List[tuple] = []
        self.consts: List[int] = []
        self.widths: List[int] = []  # result width per op
        #: Mixed-width ``?:`` results and what inherits their width.
        self.loose: Set[int] = set()
        self.wires: Dict[str, int] = {}  # name -> op index (once lowered)
        self.wire_widths: Dict[str, int] = {}
        self.input_widths: Dict[str, int] = {}
        #: name -> what assigns it: an assign's (rhs, total_ctx, lsb, width),
        #: whose slice fields are None for plain targets and describe this
        #: name's chunk of a concat target, or the :class:`_Comb` block.
        self.assigns: Dict[str, Union[Tuple[ast.Expression, Optional[int], Optional[int], Optional[int]], _Comb]] = {}
        #: name -> position of its assign in the module's assign list.
        self.assign_positions: Dict[str, int] = {}
        self.blocks: List[_Comb] = []
        #: While a block is lowered: its targets, and what each holds so far.
        self.block_targets: Tuple[str, ...] = ()
        self.env: _Env = {}

    # -- structure -----------------------------------------------------------

    def lower(self) -> _Netlist:
        self._collect_declarations()
        self._collect_assigns()
        self._collect_blocks()
        order = self._topological_order()
        if self.blocks:
            self._check_wakes(order)
        for name in order:
            if name in self.wires:
                continue  # a block's other target, lowered with the block
            node = self.assigns[name]
            if isinstance(node, _Comb):
                self._lower_comb(node)
                continue
            rhs, total_ctx, lsb, slice_width = node
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
        wakes = tuple(
            tuple(self._lower_expr(ast.Identifier(name=name), None) for name in comb.wakes) for comb in self.blocks
        )
        return _Netlist(ops=tuple(self.ops), consts=tuple(self.consts), outputs=tuple(sorted(outputs)), wakes=wakes)

    def _collect_declarations(self) -> None:
        module = self.module
        directions: Dict[str, str] = {}
        widths: Dict[str, int] = {}

        def width_of(rng: Optional[ast.Range]) -> int:
            width = 1 if rng is None else _const_width(rng, self.scope)
            if width is None:
                raise _Ineligible("non-constant range")
            return width

        def declare(name: str, rng: Optional[ast.Range]) -> None:
            # A name declared twice takes the wider range, as in elaboration.
            widths[name] = max(widths.get(name, 1), width_of(rng))

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
                declare(port.name, port.range)
                if port.signed:
                    raise _Ineligible("signed port")
        for item in module.items:
            if isinstance(item, ast.PortDeclaration):
                if item.signed:
                    raise _Ineligible("signed port")
                for name in item.names:
                    directions[name] = item.direction
                    declare(name, item.range)
            elif isinstance(item, ast.NetDeclaration):
                if item.net_type not in ("wire", "reg") or item.signed:
                    raise _Ineligible(f"unsupported declaration {item.net_type}")
                if any(init is not None for init in item.initializers):
                    raise _Ineligible("wire initializer")
                if any(rng is not None for rng in item.array_ranges):
                    raise _Ineligible("array declaration")
                for name in item.names:
                    declare(name, item.range)
            elif isinstance(item, (ast.ContinuousAssign, ast.ParameterDeclaration, ast.AlwaysBlock)):
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
        position = 0
        for item in self.module.items:
            if not isinstance(item, ast.ContinuousAssign):
                continue
            if item.delay is not None:
                raise _Ineligible("assign delay")
            for lhs, rhs in item.assignments:
                position += 1
                if isinstance(lhs, ast.Identifier):
                    name = lhs.name
                    if name not in self.wire_widths or name in self.assigns:
                        raise _Ineligible("multiply-driven or unknown target")
                    self.assigns[name] = (rhs, None, None, None)
                    self.assign_positions[name] = position
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
                        self.assign_positions[name] = position
                else:
                    raise _Ineligible("non-identifier assign target")

    def _collect_blocks(self) -> None:
        items = [item for item in self.module.items if isinstance(item, ast.AlwaysBlock)]
        if not items:
            return
        if not self.program.dut_first:
            raise _Ineligible("testbench drives the DUT before its always blocks wait")
        if self.module.local_declarations:
            raise _Ineligible("block-local declaration")
        for item in items:
            control = item.body
            if not isinstance(control, ast.EventControlStatement) or control.body is None:
                raise _Ineligible("always block without an event control")
            if any(event.edge is not None for event in control.controls):
                raise _Ineligible("edge-triggered always block")
            targets: Dict[str, None] = {}
            names: Dict[str, None] = {}
            self._scan_block(control.body, targets, names)
            reads = [name for name in self._signals_in(names) if name not in targets]
            wakes = reads
            if not control.is_star:
                listed: Dict[str, None] = {}
                for event in control.controls:
                    if event.signal is not None:
                        _add_names(event.signal, listed)
                wakes = [name for name in self._signals_in(listed) if name not in targets]
                if not set(reads) <= set(wakes):
                    raise _Ineligible("sensitivity list misses a signal the block reads")
            if not any(name in self.input_widths for name in wakes):
                raise _Ineligible("always block reads no input")
            comb = _Comb(control.body, tuple(targets), tuple(wakes))
            for name in targets:
                if name not in self.wire_widths:
                    raise _Ineligible("always block assigns an input or an undeclared name")
                if name in self.assigns:
                    raise _Ineligible("multiply-driven target")
                self.assigns[name] = comb
            self.blocks.append(comb)

    def _scan_block(self, stmt: ast.Statement, targets: Dict[str, None], names: Dict[str, None]) -> None:
        """Record the names ``stmt`` assigns and the names it reads, in walk order.

        Refuses every statement form :meth:`_execute` does not lower.
        """
        if isinstance(stmt, ast.Block):
            for child in stmt.statements:
                self._scan_block(child, targets, names)
        elif isinstance(stmt, ast.Assignment):
            if not stmt.blocking:
                raise _Ineligible("non-blocking assignment in always block")
            if stmt.delay is not None:
                raise _Ineligible("intra-assignment delay in always block")
            parts = stmt.target.parts if isinstance(stmt.target, ast.Concatenation) else [stmt.target]
            for part in parts:
                if not isinstance(part, ast.Identifier):
                    raise _Ineligible("unsupported procedural target")
                targets[part.name] = None
            _add_names(stmt.value, names)
        elif isinstance(stmt, ast.IfStatement):
            _add_names(stmt.condition, names)
            self._scan_block(stmt.then_body, targets, names)
            if stmt.else_body is not None:
                self._scan_block(stmt.else_body, targets, names)
        elif isinstance(stmt, ast.CaseStatement):
            if stmt.kind not in ("case", "casez"):
                raise _Ineligible(f"{stmt.kind} in always block")
            _add_names(stmt.subject, names)
            for item in stmt.items:
                for pattern in item.patterns:
                    _add_names(pattern, names)
                if item.body is not None:
                    self._scan_block(item.body, targets, names)
        elif isinstance(stmt, _LOOPS):
            raise _Ineligible("loop in always block")
        elif not isinstance(stmt, ast.NullStatement):
            raise _Ineligible(f"unsupported statement {type(stmt).__name__} in always block")

    def _signals_in(self, names: Dict[str, None]) -> List[str]:
        """The declared signals among ``names`` (the interpreter's sensitivity drops the rest)."""
        return [name for name in names if name in self.wire_widths or name in self.input_widths]

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
            for dep in self._deps(name):
                visit(dep, depth + 1)
            color[name] = 2
            order.append(name)

        for name in self.assigns:
            visit(name, 0)
        return order

    def _deps(self, name: str) -> List[str]:
        node = self.assigns[name]
        if isinstance(node, _Comb):
            return [wake for wake in node.wakes if wake in self.assigns]
        names: Dict[str, None] = {}
        _add_names(node[0], names)
        return [dep for dep in names if dep in self.assigns]

    def _check_wakes(self, order: List[str]) -> None:
        """Refuse the wake signals whose changes the per-step count would miss.

        In the interpreter a block wakes once for every settle in which a
        signal it waits on changes.  That is once per changed step only when
        the signal has settled before any block runs (it derives from no
        block's output) and settles in one pass of the assign list (every
        assign it derives from comes after the assigns it reads).
        """
        from_blocks: Set[str] = set()
        for name in order:
            if isinstance(self.assigns[name], _Comb) or any(dep in from_blocks for dep in self._deps(name)):
                from_blocks.add(name)
        for comb in self.blocks:
            if from_blocks.intersection(comb.wakes):
                raise _Ineligible("always block waits on an always block's output")
            pending = [name for name in comb.wakes if name in self.assigns]
            seen = set(pending)
            while pending:
                name = pending.pop()
                for dep in self._deps(name):
                    if self.assign_positions[dep] >= self.assign_positions[name]:
                        raise _Ineligible("always block waits on an assign listed before its inputs")
                    if dep not in seen:
                        seen.add(dep)
                        pending.append(dep)

    def _lower_comb(self, comb: _Comb) -> None:
        self.block_targets = comb.targets
        env = self._execute(comb.body, {})
        self.block_targets = ()
        for name in comb.targets:
            if env.get(name) is None:
                raise _Ineligible("latch: always block leaves a target unassigned on some path")
            self.wires[name] = env[name]  # type: ignore[assignment]

    def _execute(self, stmt: Optional[ast.Statement], env: _Env) -> _Env:
        """Return what each target holds after ``stmt`` runs from ``env`` (a new dict when it assigns)."""
        if stmt is None or isinstance(stmt, ast.NullStatement):
            return env
        if isinstance(stmt, ast.Block):
            for child in stmt.statements:
                env = self._execute(child, env)
            return env
        self.env = env
        if isinstance(stmt, ast.Assignment):
            parts = stmt.target.parts if isinstance(stmt.target, ast.Concatenation) else [stmt.target]
            widths = [self.wire_widths[part.name] for part in parts]
            total = sum(widths)
            if total > _MAX_WIDTH:
                raise _Ineligible("wide concat target")
            value = self._mask_to(self._lower_expr(stmt.value, total), total)
            env = dict(env)
            cursor = total
            for part, width in zip(parts, widths):  # MSB-first, as the interpreter splits it
                cursor -= width
                env[part.name] = value if len(parts) == 1 else self._emit(("bits", value, cursor, width), width)
            return env
        if isinstance(stmt, ast.IfStatement):
            cond = self._lower_expr(stmt.condition, None)
            return self._merge(cond, self._execute(stmt.then_body, env), self._execute(stmt.else_body, env))
        # A case statement: the first matching item runs, else the last default.
        subject = self._lower_expr(stmt.subject, None)
        arms: List[Tuple[int, Optional[ast.Statement]]] = []
        default: Optional[ast.CaseItem] = None
        for item in stmt.items:
            if item.is_default:
                default = item
                continue
            match: Optional[int] = None
            for pattern in item.patterns:
                hit = self._lower_case_match(stmt.kind, subject, pattern)
                match = hit if match is None else self._emit(("logic", "||", match, hit), 1)
            if match is not None:
                arms.append((match, item.body))
        result = env if default is None else self._execute(default.body, env)
        for match, body in reversed(arms):
            result = self._merge(match, self._execute(body, env), result)
        return result

    def _merge(self, cond: int, if_true: _Env, if_false: _Env) -> _Env:
        if if_true is if_false:
            return if_true
        merged: Dict[str, Optional[int]] = {}
        for name in list(if_true) + [name for name in if_false if name not in if_true]:
            a, b = if_true.get(name), if_false.get(name)
            if a is None or b is None:
                merged[name] = None  # assigned on one side only
            else:
                merged[name] = a if a == b else self._emit(("mux", cond, a, b), self.widths[a])
        return merged

    def _lower_case_match(self, kind: str, subject: int, pattern: ast.Expression) -> int:
        if kind == "casez" and isinstance(pattern, ast.Number):
            try:
                value = literal_value(pattern)
            except (ValueError, KeyError) as exc:
                raise _Ineligible("four-state or signed literal") from exc
            if value.zmask:
                # ``?``/``z`` pattern bits match anything; both sides are
                # extended to the wider width first, a z MSB extending as z.
                self._fixed(subject)
                width = max(self.widths[subject], value.width)
                value = value.resize(width)
                if width > _MAX_WIDTH or pattern.signed or value.unknown != value.zmask:
                    raise _Ineligible("unsupported casez pattern")
                care = self._emit_const(((1 << width) - 1) & ~value.zmask, width)
                masked = self._emit(("bit", "&", subject, care, width), width)
                return self._emit(("cmp", "==", masked, self._emit_const(value.value, width)), 1)
        return self._emit(("cmp", "==", subject, self._lower_expr(pattern, None)), 1)

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
        if self.widths[op_index] == width and op_index not in self.loose:
            return op_index
        return self._emit(("resize", op_index, width), width)

    def _fixed(self, *op_indices: int) -> None:
        """Refuse a use whose value depends on the width of a mixed-width ``?:``."""
        if self.loose.intersection(op_indices):
            raise _Ineligible("width-sensitive use of a mixed-width conditional")

    def _loose_width(self, width: int, operands: Tuple[int, int], ctx: Optional[int]) -> bool:
        """Whether ``width``, the widest of ``operands`` and ``ctx``, is reached only by a mixed-width ``?:``."""
        if not self.loose.intersection(operands):
            return False
        return max([self.widths[side] for side in operands if side not in self.loose] + [ctx or 0, 1]) < width

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
            if name in self.block_targets:
                op_index = self.env.get(name)
                if op_index is None:
                    raise _Ineligible("always block reads its own target before writing it")
                return op_index
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
            # Lowered values are zero-extended, so the wider arm's width holds
            # either; the interpreter's result has the chosen arm's width.
            op_index = self._emit(("mux", cond, if_true, if_false), max(width_true, width_false))
            if width_true != width_false or self.loose.intersection((if_true, if_false)):
                self.loose.add(op_index)
            return op_index
        if isinstance(expr, ast.Concatenation):
            parts = [self._lower_expr(part, None) for part in expr.parts]
            self._fixed(*parts)
            total = sum(self.widths[part] for part in parts)
            if not parts or total > _MAX_WIDTH:
                raise _Ineligible("unsupported concatenation")
            return self._emit(("cat", tuple((part, self.widths[part]) for part in parts)), total)
        if isinstance(expr, ast.Replication):
            count = _const_int(expr.count, self.scope)
            if count is None or count <= 0:
                raise _Ineligible("non-constant replication")
            inner = self._lower_expr(expr.value, None)
            self._fixed(inner)
            width = self.widths[inner]
            if width * count > _MAX_WIDTH:
                raise _Ineligible("wide replication")
            return self._emit(("rep", inner, count, width), width * count)
        if isinstance(expr, ast.BitSelect):
            target = self._lower_expr(expr.target, None)
            self._fixed(target)
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
            self._fixed(target)
            msb = _const_int(expr.msb, self.scope)
            lsb = _const_int(expr.lsb, self.scope)
            if msb is None or lsb is None:
                raise _Ineligible("non-constant part select")
            msb, lsb = select_bounds(":", msb, lsb)
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
            self._fixed(operand)
            return self._emit(("not", operand, width), width)
        if op == "!":
            return self._emit(("lnot", operand), 1)
        if op in ("&", "|", "^", "~&", "~|", "~^", "^~"):
            if op in ("&", "~&"):
                self._fixed(operand)
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
            self._fixed(left)
            base_op = "<<" if op in ("<<", "<<<") else ">>"
            return self._emit(("shift", base_op, left, right, width_left), width_left)
        if op in ("&", "|", "^", "~^", "^~"):
            if op not in ("&", "|", "^"):
                self._fixed(left, right)
            width = max(width_left, width_right)
            op_index = self._emit(("bit", "~^" if op == "^~" else op, left, right, width), width)
            if self._loose_width(width, (left, right), None):
                self.loose.add(op_index)
            return op_index
        if op in ("+", "-", "*", "/", "%"):
            out_width = max(width_left, width_right, ctx or 0, 1)
            if out_width > _MAX_WIDTH:
                raise _Ineligible("wide arithmetic")
            if self._loose_width(out_width, (left, right), ctx):
                self._fixed(left, right)  # the result is masked to that width
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
    max_time: int = 200_000,
    max_events: int = 200_000,
    report: Optional[BatchReport] = None,
) -> Optional[List[Optional[SimulationResult]]]:
    """Vectorized sweep of many candidate designs over one testbench.

    A candidate is lowered when it is continuous assigns and combinational
    ``always`` blocks (``if`` / ``case`` / ``casez`` over blocking
    assignments) on unsigned signals of at most 64 bits.  Its result counts
    the interpreter's process steps too: the testbench's, and each ``always``
    block's once at time 0 plus once per step in which a signal it waits on
    changed.

    Returns None when the testbench itself is outside the vector subset;
    otherwise a list aligned with ``design_sources`` where each entry is a
    :class:`SimulationResult` bit-identical to the scalar backends' result,
    or None for candidates that must fall back to scalar simulation
    (``report.reasons`` says why).
    """
    tb_check = check_syntax(testbench_source)
    if not tb_check.ok or len(tb_check.ast.modules) != 1:
        return None
    tb_module = tb_check.ast.modules[0]
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
    steps = program.num_steps
    for key, members in groups.items():
        ops, outputs, wakes = key
        consts = np.asarray([netlists[index].consts for index in members], dtype=np.uint64).reshape(
            len(members), -1
        )
        values = _evaluate_group(ops, consts, stimulus)
        candidate_count = len(members)
        out_matrix = {
            name: np.broadcast_to(values[op_index], (candidate_count, steps)) for name, op_index in outputs
        }
        counts = _event_counts(values, wakes, candidate_count, steps, max_events)
        for row, index in enumerate(members):
            if counts[row] is None:
                # The interpreter stops with an error: let it say which.
                reasons[_OVER_LIMIT] = reasons.get(_OVER_LIMIT, 0) + 1
                continue
            outputs_row = {name: out_matrix[name][row] for name in out_matrix}
            results[index] = _replay_program(program, outputs_row, counts[row])
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


def _event_counts(
    values: List[np.ndarray], wakes: Tuple[Tuple[int, ...], ...], count: int, steps: int, max_events: int
) -> List[Optional[int]]:
    """The interpreter's process steps per candidate of a group, or None past its event or loop limit.

    The testbench's initial block steps once per delay plus once to finish.
    An always block steps once at time 0 to start waiting, then runs in the
    first step (every input goes from X to known) and in each later step
    where one of its wake signals differs from the step before.
    """
    if not wakes:
        return [steps + 1] * count
    events = np.full(count, steps + 1)
    over_limit = np.zeros(count, dtype=bool)
    for block in wakes:
        changed = np.zeros((count, steps - 1), dtype=bool)
        for op_index in block:
            value = values[op_index]
            if value.shape[-1] > 1:  # a per-candidate constant never changes
                changed |= value[:, 1:] != value[:, :-1]
        runs = 1 + changed.sum(axis=1)
        events += 1 + runs
        over_limit |= runs > Simulator.DEFAULT_MAX_LOOP_ITERATIONS
    over_limit |= events > max_events
    return [None if over else total for over, total in zip(over_limit.tolist(), events.tolist())]


def _replay_program(program: _VectorProgram, outputs: Dict[str, np.ndarray], cycles: int) -> SimulationResult:
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
    return SimulationResult(
        finished=True,
        time=program.total_time,
        output="\n".join(lines),
        display_lines=lines,
        cycles=cycles,
        error=None,
    )

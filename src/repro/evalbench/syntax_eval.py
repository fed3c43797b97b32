"""Syntax-correctness grading.

The paper calls a design syntactically correct when the design and its
testbench "successfully compile together using iverilog".  The closest
equivalent here is: both sources parse, and the design's and testbench's
modules together elaborate (port binding, parameter evaluation, declaration
resolution) without errors in the in-repo simulator — the same work iverilog
does at compile time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.sim.simulator import SimulationError, Simulator
from repro.verilog.ast_nodes import SourceFile
from repro.verilog.syntax import check_syntax


@dataclass
class SyntaxEvalResult:
    """Outcome of a syntax/compile check."""

    parses: bool
    compiles: bool
    errors: List[str] = field(default_factory=list)


def check_design_compiles(design: str, testbench: Optional[str] = None, top: Optional[str] = None) -> SyntaxEvalResult:
    """Check that ``design`` parses and (optionally) elaborates with ``testbench``."""
    design_check = check_syntax(design)
    if not design_check.ok:
        return SyntaxEvalResult(parses=False, compiles=False, errors=design_check.errors)
    if testbench is None:
        return SyntaxEvalResult(parses=True, compiles=True)
    tb_check = check_syntax(testbench)
    if not tb_check.ok:
        return SyntaxEvalResult(parses=True, compiles=False, errors=tb_check.errors)
    compile_unit = SourceFile(modules=design_check.ast.modules + tb_check.ast.modules)
    top_name = top or (tb_check.module_names[-1] if tb_check.module_names else None)
    try:
        Simulator(compile_unit, top=top_name)
    except (SimulationError, RecursionError, ValueError) as exc:
        return SyntaxEvalResult(parses=True, compiles=False, errors=[str(exc)])
    return SyntaxEvalResult(parses=True, compiles=True)

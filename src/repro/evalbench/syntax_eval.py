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

from repro.sim.testbench import elaborate_with_testbench
from repro.verilog.syntax import check_syntax


@dataclass
class SyntaxEvalResult:
    """Outcome of a syntax/compile check."""

    parses: bool
    compiles: bool
    errors: List[str] = field(default_factory=list)


def check_design_compiles(design: str, testbench: Optional[str] = None) -> SyntaxEvalResult:
    """Check that ``design`` parses and (optionally) elaborates with ``testbench``.

    The compile check is :func:`repro.sim.testbench.elaborate_with_testbench`,
    which every testbench run makes too, here on the interpreter.
    """
    design_check = check_syntax(design)
    if not design_check.ok:
        return SyntaxEvalResult(parses=False, compiles=False, errors=design_check.errors)
    if testbench is None:
        return SyntaxEvalResult(parses=True, compiles=True)
    _, errors = elaborate_with_testbench(design_check, check_syntax(testbench))
    return SyntaxEvalResult(parses=True, compiles=not errors, errors=errors)

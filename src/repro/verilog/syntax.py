"""Syntax checking convenience API.

The paper's data-refinement pipeline (Sec. III-A) uses the Stagira parser to
check every corpus sample and keeps only those that parse.  This module exposes
that operation as :func:`check_syntax`, returning a structured result that the
refinement pipeline and the syntax-quality evaluation both consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, Optional, Tuple

from repro.verilog.ast_nodes import SourceFile
from repro.verilog.lexer import LexerError
from repro.verilog.parser import ParseError, parse_source


#: Entries in the parse memo: one problem's sample set plus its testbench.
#: A grader checks the same few texts several times in a row (each sample on
#: its own, then the set as a batch, the testbench once per sample), so a
#: window this small catches every repeat; it is a constant, and far smaller
#: than an evaluation's distinct texts, so nothing outlives the problem that
#: parsed it and memory stays flat.
_MEMO_ENTRIES = 64


@dataclass
class SyntaxCheckResult:
    """Outcome of a syntax check.

    Attributes:
        ok: True if the source parsed without errors.
        ast: the parsed AST when ``ok`` is True.  Shared between every check
            of the same text (and every simulator built from it): read-only.
        errors: human-readable diagnostics when ``ok`` is False.
        module_names: names of the modules found (empty on failure).
    """

    ok: bool
    ast: Optional[SourceFile] = None
    errors: List[str] = field(default_factory=list)
    module_names: List[str] = field(default_factory=list)


def check_syntax(source: str) -> SyntaxCheckResult:
    """Parse ``source`` and report whether it is syntactically valid Verilog.

    This never raises: lexer and parser failures are converted into
    diagnostics on the returned result.  The parse is memoised on the source
    text (the last :data:`_MEMO_ENTRIES` distinct texts); each call returns a
    result object and lists of its own, only ``ast`` is shared.
    """
    tree, error = _parse_memoised(source)
    if tree is None:
        return SyntaxCheckResult(ok=False, errors=[error])
    return SyntaxCheckResult(ok=True, ast=tree, module_names=[m.name for m in tree.modules])


@lru_cache(maxsize=_MEMO_ENTRIES)
def _parse_memoised(source: str) -> Tuple[Optional[SourceFile], str]:
    """``(ast, "")`` when ``source`` parses to at least one module, else ``(None, diagnostic)``."""
    if not source or not source.strip():
        return None, "empty source"
    try:
        tree = parse_source(source)
    except (ParseError, LexerError, RecursionError) as exc:
        return None, str(exc)
    if not tree.modules:
        # A syntactically "valid" candidate with no module is useless to the
        # refinement pipeline and the pass@k grader: a comment-only or
        # directive-only sample must not count as passing.  The parser
        # already rejects module-free sources, but the grading contract
        # (>= 1 module) is enforced here too so it cannot silently regress
        # if the parser ever grows a laxer entry point.
        return None, "source contains no modules"
    return tree, ""

"""Verilog language substrate.

This subpackage is the reproduction's substitute for the Stagira Verilog parser
used in the paper.  It provides:

* a lexer (:mod:`repro.verilog.lexer`) producing a token stream,
* a recursive-descent parser (:mod:`repro.verilog.parser`) producing a real AST,
* a syntax-check convenience API (:mod:`repro.verilog.syntax`),
* extraction of *syntactically significant tokens* from the AST
  (:mod:`repro.verilog.significant`), and
* code segmentation with ``[FRAG]`` markers (:mod:`repro.verilog.fragments`),
  which is the input to the paper's syntax-enriched label construction.
"""

from repro.verilog.lexer import Lexer, Token, TokenKind, LexerError, tokenize
from repro.verilog.parser import Parser, ParseError, parse_source, parse_module
from repro.verilog.syntax import SyntaxCheckResult, check_syntax
from repro.verilog.significant import (
    EXTRA_KEYWORDS,
    extract_ast_keywords,
    extract_significant_tokens,
)
from repro.verilog.fragments import (
    FRAG,
    insert_frag_markers,
    segment_code,
    strip_frag_markers,
)

__all__ = [
    "Lexer",
    "Token",
    "TokenKind",
    "LexerError",
    "tokenize",
    "Parser",
    "ParseError",
    "parse_source",
    "parse_module",
    "SyntaxCheckResult",
    "check_syntax",
    "EXTRA_KEYWORDS",
    "extract_ast_keywords",
    "extract_significant_tokens",
    "FRAG",
    "insert_frag_markers",
    "segment_code",
    "strip_frag_markers",
]

"""Lexer for a practical subset of Verilog-2001.

The lexer converts Verilog source text into a list of :class:`Token` objects,
one regular-expression match per token.  It covers the constructs needed by
the reproduction: module definitions, declarations, procedural blocks,
expressions, numeric literals in every base, strings, system tasks, compiler
directives (skipped), and both comment styles.
"""

from __future__ import annotations

import enum
import re
from typing import Iterable, List, NamedTuple, Optional, Tuple


class LexerError(ValueError):
    """Raised when the source text cannot be tokenized."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"line {line}, col {column}: {message}")
        self.line = line
        self.column = column


class TokenKind(enum.Enum):
    """Categories of Verilog tokens."""

    KEYWORD = "keyword"
    IDENTIFIER = "identifier"
    SYSTEM_IDENTIFIER = "system_identifier"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"
    PUNCTUATION = "punctuation"
    DIRECTIVE = "directive"
    EOF = "eof"


#: Reserved words recognised by the lexer.  This is the subset of Verilog-2001
#: keywords that appear in synthesizable RTL and simple testbenches.
KEYWORDS = frozenset(
    {
        "module",
        "endmodule",
        "input",
        "output",
        "inout",
        "wire",
        "reg",
        "integer",
        "real",
        "time",
        "parameter",
        "localparam",
        "assign",
        "always",
        "initial",
        "begin",
        "end",
        "if",
        "else",
        "case",
        "casex",
        "casez",
        "endcase",
        "default",
        "for",
        "while",
        "repeat",
        "forever",
        "posedge",
        "negedge",
        "or",
        "and",
        "not",
        "nand",
        "nor",
        "xor",
        "xnor",
        "buf",
        "function",
        "endfunction",
        "task",
        "endtask",
        "generate",
        "endgenerate",
        "genvar",
        "signed",
        "unsigned",
        "wait",
        "disable",
        "fork",
        "join",
        "supply0",
        "supply1",
        "tri",
    }
)

#: Multi-character operators, longest first so that maximal munch works.
MULTI_CHAR_OPERATORS = [
    "<<<",
    ">>>",
    "===",
    "!==",
    "==",
    "!=",
    "<=",
    ">=",
    "&&",
    "||",
    "<<",
    ">>",
    "**",
    "~&",
    "~|",
    "~^",
    "^~",
    "+:",
    "-:",
    "->",
]

SINGLE_CHAR_OPERATORS = set("+-*/%<>!&|^~=?")

PUNCTUATION = set("()[]{};:,.#@")


class Token(NamedTuple):
    """A single lexical token (an immutable tuple, compared by value).

    Attributes:
        kind: the token category.
        text: the exact source text of the token.
        line: 1-based line number where the token starts.
        column: 1-based column number where the token starts.
    """

    kind: TokenKind
    text: str
    line: int
    column: int

    def is_keyword(self, word: Optional[str] = None) -> bool:
        """Return True if this token is a keyword (optionally a specific one)."""
        if self.kind is not TokenKind.KEYWORD:
            return False
        return word is None or self.text == word

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind.name}, {self.text!r}, {self.line}:{self.column})"


def _char_class(chars: Iterable[str]) -> str:
    return "[" + "".join(re.escape(ch) for ch in sorted(chars)) + "]"


#: Whitespace and both comment styles, skipped before every token.  An
#: unterminated ``/*`` is left in place for the ``open_comment`` group.
#: ``line_comment`` holds the last line comment, for :attr:`Lexer.in_line_comment`.
_TRIVIA = r"(?:[ \t\r\n]+|(?P<line_comment>//[^\n]*)|/\*(?s:.*?)\*/)*"

#: Pattern fragments shared by :data:`_TOKEN` and the error path.
_DECIMAL = r"[0-9][0-9_]*"
#: A based literal up to its base character.
_BASED_HEAD = rf"(?:{_DECIMAL})?'[sS]?"
#: A string literal without its closing quote.
_STRING_BODY = r'"(?:[^"\\\n]|\\[^\n])*'

#: One match is the trivia before a token, then the token: one named group per
#: kind, tried in order, so ``MULTI_CHAR_OPERATORS`` keeps its longest-first
#: order.  A plain decimal ends where its digits end (``(?![0-9_'])``): ``12'q``
#: must fail as a whole (bad base), not backtrack into the NUMBER ``1``.
#:
#: The last alternative, ``stop``, takes the end of the input or any
#: character no token starts with, so the token part matches wherever the
#: trivia ends.  That keeps the trivia whole: the engine never backtracks into
#: it (were the token part able to fail, ``endmodule // variant 3`` could end
#: in the NUMBER ``3``, and the trivia would have to be atomic), and
#: ``finditer`` never skips text.  ``open_comment`` and ``stop`` end the scan
#: (:data:`_GROUP_KINDS` maps them to None).
_TOKEN = re.compile(
    rf"(?P<trivia>{_TRIVIA})(?:"
    + "|".join(
        [
            r"(?P<IDENTIFIER>[A-Za-z_][A-Za-z0-9_$]*|\\[^ \t\r\n]*)",
            "(?P<PUNCTUATION>" + _char_class(PUNCTUATION) + ")",
            "(?P<NUMBER>"
            + _BASED_HEAD
            + r"(?:[bB][01xzXZ_?]+|[oO][0-7xzXZ_?]+|[dD][0-9_]+|[hH][0-9a-fA-FxzXZ_?]+)|"
            + _DECIMAL
            + rf"(?![0-9_'])(?:\.{_DECIMAL})?(?:[eE](?=[0-9+-])[+-]?[0-9]*)?)",
            r"(?P<open_comment>/\*)",
            "(?P<OPERATOR>"
            + "|".join(re.escape(op) for op in MULTI_CHAR_OPERATORS)
            + "|"
            + _char_class(SINGLE_CHAR_OPERATORS)
            + ")",
            "(?P<STRING>" + _STRING_BODY + '")',
            r"(?P<SYSTEM_IDENTIFIER>\$[A-Za-z0-9_]*)",
            r"(?P<DIRECTIVE>`[A-Za-z0-9_]*)",
            r"(?P<stop>(?s:.)|\Z)",
        ]
    )
    + ")"
)

#: Token kind by group number (``match.lastindex``); None ends the scan.
_GROUP_NAMES = {index: name for name, index in _TOKEN.groupindex.items()}
_GROUP_KINDS = tuple(TokenKind.__members__.get(_GROUP_NAMES.get(index, "")) for index in range(_TOKEN.groups + 1))

_STRING_BODY_RE = re.compile(_STRING_BODY)
_BASED_HEAD_RE = re.compile(_BASED_HEAD)


def _error_at(source: str, start: int, line: int, line_start: int) -> Tuple[LexerError, int]:
    """Diagnose the text at ``start`` (on ``line``, which begins at ``line_start``) that no token matches.

    Returns the error and the offset it is anchored at: the end of the input
    for a construct the input ends inside, so a caller can tell an incomplete
    trailing token from a dead one.
    """
    ch = source[start]
    if source.startswith("/*", start):
        pos, message = len(source), "unterminated block comment"
    elif ch == '"':
        pos = _STRING_BODY_RE.match(source, start).end()
        if source.startswith("\\", pos):  # escaping a newline or the end of input
            pos += 1
        message = "unterminated string literal"
    elif "0" <= ch <= "9" or (ch == "'" and source[start + 1 : start + 2].lower() in "bodhs"):
        pos = _BASED_HEAD_RE.match(source, start).end()
        base = source[pos : pos + 1].lower()
        if not base or base not in "bodh":
            message = f"invalid number base {base!r}"
        else:
            pos, message = pos + 1, "number literal missing digits"
    else:
        pos, message = start, f"unexpected character {ch!r}"
    newlines = source.count("\n", start, pos)
    if newlines:
        line += newlines
        line_start = source.rindex("\n", start, pos) + 1
    return LexerError(message, line, pos - line_start + 1), pos


class Lexer:
    """Verilog source text, lexed once.

    The constructor scans the whole source, one :data:`_TOKEN` match per
    token, and keeps the result: :attr:`error` is the :class:`LexerError` at
    the first text no token matches (None if there is none), and
    :attr:`tokens` the tokens before it, ending with the EOF token when there
    is no error.  :attr:`error_pos` is the offset the error is anchored at:
    ``len(source)`` for a construct the source ends inside (an unterminated
    string or block comment, a number still missing its digits), so a caller
    can tell an incomplete trailing token from a dead one.
    :attr:`in_line_comment` is True when the source ends inside a ``//``
    comment, which only a newline closes.

    Identifiers and numbers are ASCII (IEEE 1364-2001 §3.7); any other
    character outside a string or a comment is an ``unexpected character``.
    """

    def __init__(self, source: str) -> None:
        self.source = source
        tokens: List[Token] = []
        append = tokens.append
        new_token = tuple.__new__  # Token without its Python-level __new__
        group_kinds = _GROUP_KINDS
        identifier, keyword = TokenKind.IDENTIFIER, TokenKind.KEYWORD
        line, line_start = 1, 0
        # No token spans a newline, so the line changes only in trivia, and
        # only once a token starts past the next newline.
        next_newline = source.find("\n")
        if next_newline < 0:
            next_newline = len(source)
        for match in _TOKEN.finditer(source):
            start = match.end(1)  # the trivia, group 1, ends where the token starts
            if start > next_newline:
                line += source.count("\n", next_newline, start)
                line_start = source.rindex("\n", next_newline, start) + 1
                next_newline = source.find("\n", start)
                if next_newline < 0:
                    next_newline = len(source)
            index = match.lastindex
            kind = group_kinds[index]
            if kind is None:
                break
            text = match[index]
            if kind is identifier and text in KEYWORDS:
                kind = keyword
            append(new_token(Token, (kind, text, line, start - line_start + 1)))
        self.tokens = tokens
        self.error: Optional[LexerError] = None
        self.error_pos = 0
        # The last match's trivia ends the scan; its last line comment is
        # still open if it runs to the end of the source.
        self.in_line_comment = match.end("line_comment") == len(source)
        if start < len(source):
            self.error, self.error_pos = _error_at(source, start, line, line_start)
        else:
            append(new_token(Token, (TokenKind.EOF, "", line, start - line_start + 1)))


def tokenize(source: str, include_eof: bool = False) -> List[Token]:
    """Tokenize ``source`` and return the full list of tokens.

    Args:
        source: Verilog source text.
        include_eof: whether to append the trailing EOF token.

    Returns:
        The list of tokens in source order.

    Raises:
        LexerError: if some text matches no token.
    """
    lexer = Lexer(source)
    if lexer.error is not None:
        raise lexer.error
    return lexer.tokens if include_eof else lexer.tokens[:-1]

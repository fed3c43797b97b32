"""Lexer for a practical subset of Verilog-2001.

The lexer converts Verilog source text into a stream of :class:`Token` objects.
It covers the constructs needed by the reproduction: module definitions,
declarations, procedural blocks, expressions, numeric literals in every base,
strings, system tasks, compiler directives (skipped), and both comment styles.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional


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


@dataclass(frozen=True)
class Token:
    """A single lexical token.

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
#: unterminated ``/*`` is left in place for :data:`_TOKEN` to reject.
_TRIVIA = re.compile(r"(?:[ \t\r\n]+|//[^\n]*|/\*(?s:.*?)\*/)*")

#: Pattern fragments shared by :data:`_TOKEN` and the error path.
_DECIMAL = r"[0-9][0-9_]*"
#: A based literal up to its base character.
_BASED_HEAD = rf"(?:{_DECIMAL})?'[sS]?"
#: A string literal without its closing quote.
_STRING_BODY = r'"(?:[^"\\\n]|\\[^\n])*'

#: Every token kind in one alternation, one named group per kind (the
#: ``open_comment`` group only flags an error).  The first alternative that
#: matches wins, so ``MULTI_CHAR_OPERATORS`` keeps its longest-first order.
#: A plain decimal ends where its digits end (``(?![0-9_'])``): ``12'q``
#: must fail as a whole (bad base), not backtrack into the NUMBER ``1``.
_TOKEN = re.compile(
    "|".join(
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
        ]
    )
)

_KINDS = {kind.name: kind for kind in TokenKind}

_STRING_BODY_RE = re.compile(_STRING_BODY)
_BASED_HEAD_RE = re.compile(_BASED_HEAD)


class Lexer:
    """Streaming lexer over Verilog source text.

    Each :meth:`next_token` is two matches of compiled patterns: the skipped
    whitespace and comments, then the token.  Identifiers and numbers are
    ASCII (IEEE 1364-2001 §3.7); any other character outside a string or a
    comment is an ``unexpected character``.
    """

    def __init__(self, source: str) -> None:
        self.source = source
        self.pos = 0
        self.line = 1
        self.column = 1

    def _move_to(self, pos: int) -> None:
        """Advance ``pos``, ``line`` and ``column`` to ``pos``."""
        newlines = self.source.count("\n", self.pos, pos)
        if newlines:
            self.line += newlines
            self.column = pos - self.source.rindex("\n", self.pos, pos)
        else:
            self.column += pos - self.pos
        self.pos = pos

    def _error_at(self, start: int) -> LexerError:
        """Diagnose the text at ``start`` that no token matches.

        ``pos``, ``line`` and ``column`` move to where the error is anchored:
        the end of the input for a construct the input ends inside, so a
        caller can tell an incomplete trailing token from a dead one.
        """
        source = self.source
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
        self._move_to(pos)
        return LexerError(message, self.line, self.column)

    def next_token(self) -> Token:
        """Return the next token, or an EOF token when the input is exhausted."""
        source = self.source
        start = _TRIVIA.match(source, self.pos).end()
        if start != self.pos:
            self._move_to(start)
        if start >= len(source):
            return Token(TokenKind.EOF, "", self.line, self.column)
        match = _TOKEN.match(source, start)
        if match is None or match.lastgroup == "open_comment":
            raise self._error_at(start)
        text = match.group()
        kind = _KINDS[match.lastgroup]
        if kind is TokenKind.IDENTIFIER and text in KEYWORDS:
            kind = TokenKind.KEYWORD
        token = Token(kind, text, self.line, self.column)
        self.pos = match.end()
        self.column += self.pos - start
        return token

    def __iter__(self) -> Iterator[Token]:
        while True:
            token = self.next_token()
            yield token
            if token.kind is TokenKind.EOF:
                return


def tokenize(source: str, include_eof: bool = False) -> List[Token]:
    """Tokenize ``source`` and return the full list of tokens.

    Args:
        source: Verilog source text.
        include_eof: whether to append the trailing EOF token.

    Returns:
        The list of tokens in source order.
    """
    tokens = list(Lexer(source))
    if not include_eof and tokens and tokens[-1].kind is TokenKind.EOF:
        tokens.pop()
    return tokens

"""The oracle: a character-at-a-time Verilog lexer (no production caller).

It reads the source one character at a time through ``_peek`` / ``_advance``
and shares no pattern with :class:`repro.verilog.lexer.Lexer`, which lexes
with one compiled regular expression.  ``tests/test_lexer.py`` runs both over
the suite texts, every prefix of some references, random splices and random
strings, and compares ``(kind, text, line, column, pos)`` after every token
plus the message and ``pos`` of any error.

Identifiers and numbers follow ``str.isalpha`` / ``isdigit`` here, so the two
agree on ASCII input; the production lexer rejects non-ASCII characters
outside strings and comments.
"""

from __future__ import annotations

from typing import Iterator

from repro.verilog.lexer import (
    KEYWORDS,
    MULTI_CHAR_OPERATORS,
    PUNCTUATION,
    SINGLE_CHAR_OPERATORS,
    LexerError,
    Token,
    TokenKind,
)


class ReferenceLexer:
    """Streaming lexer over Verilog source text, one character at a time."""

    def __init__(self, source: str) -> None:
        self.source = source
        self.pos = 0
        self.line = 1
        self.column = 1

    def _error(self, message: str) -> LexerError:
        return LexerError(message, self.line, self.column)

    def _peek(self, offset: int = 0) -> str:
        idx = self.pos + offset
        if idx < len(self.source):
            return self.source[idx]
        return ""

    def _advance(self, count: int = 1) -> str:
        text = self.source[self.pos : self.pos + count]
        for ch in text:
            if ch == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1
        # ``len(text)``, not ``count``: an escape at the very end of an
        # unterminated string must not carry ``pos`` past the input.
        self.pos += len(text)
        return text

    def _skip_whitespace_and_comments(self) -> None:
        while self.pos < len(self.source):
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
            elif ch == "/" and self._peek(1) == "/":
                while self.pos < len(self.source) and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                self._advance(2)
                while self.pos < len(self.source):
                    if self._peek() == "*" and self._peek(1) == "/":
                        self._advance(2)
                        break
                    self._advance()
                else:
                    raise self._error("unterminated block comment")
            else:
                return

    def _lex_identifier(self) -> Token:
        line, column = self.line, self.column
        start = self.pos
        if self._peek() == "\\":
            # Escaped identifier: backslash up to whitespace.
            self._advance()
            while self.pos < len(self.source) and self._peek() not in " \t\r\n":
                self._advance()
            return Token(TokenKind.IDENTIFIER, self.source[start : self.pos], line, column)
        while self.pos < len(self.source) and (self._peek().isalnum() or self._peek() in "_$"):
            self._advance()
        text = self.source[start : self.pos]
        kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENTIFIER
        return Token(kind, text, line, column)

    def _lex_system_identifier(self) -> Token:
        line, column = self.line, self.column
        start = self.pos
        self._advance()  # consume '$'
        while self.pos < len(self.source) and (self._peek().isalnum() or self._peek() == "_"):
            self._advance()
        return Token(TokenKind.SYSTEM_IDENTIFIER, self.source[start : self.pos], line, column)

    def _lex_directive(self) -> Token:
        line, column = self.line, self.column
        start = self.pos
        self._advance()  # consume '`'
        while self.pos < len(self.source) and (self._peek().isalnum() or self._peek() == "_"):
            self._advance()
        return Token(TokenKind.DIRECTIVE, self.source[start : self.pos], line, column)

    def _lex_number(self) -> Token:
        line, column = self.line, self.column
        start = self.pos
        # Optional size prefix (decimal digits, possibly with underscores).
        while self.pos < len(self.source) and (self._peek().isdigit() or self._peek() == "_"):
            self._advance()
        if self._peek() == "'":
            self._advance()
            if self._peek().lower() == "s":
                self._advance()
            base = self._peek().lower()
            # ``not base`` guards end-of-input: ``""`` is a substring of
            # ``"bodh"``, so the containment check alone would fall through
            # and crash on the dict lookup below.
            if not base or base not in "bodh":
                raise self._error(f"invalid number base {base!r}")
            self._advance()
            valid = {
                "b": "01xzXZ_?",
                "o": "01234567xzXZ_?",
                "d": "0123456789_",
                "h": "0123456789abcdefABCDEFxzXZ_?",
            }[base]
            # Same guard: a base with no digits is missing them at end of
            # input too, not a finished literal.
            if not self._peek() or self._peek() not in valid:
                raise self._error("number literal missing digits")
            while self.pos < len(self.source) and self._peek() in valid:
                self._advance()
        else:
            # Plain decimal / real number.
            if self._peek() == "." and self._peek(1).isdigit():
                self._advance()
                while self.pos < len(self.source) and (self._peek().isdigit() or self._peek() == "_"):
                    self._advance()
            # Tuples, not strings: at end of input ``_peek()`` is ``""``, which
            # is "in" every string (see ``not base`` above) and would walk
            # ``pos`` past the end of the source.
            if self._peek() in ("e", "E") and (self._peek(1).isdigit() or self._peek(1) in ("+", "-")):
                self._advance()
                if self._peek() in ("+", "-"):
                    self._advance()
                while self.pos < len(self.source) and self._peek().isdigit():
                    self._advance()
        return Token(TokenKind.NUMBER, self.source[start : self.pos], line, column)

    def _lex_string(self) -> Token:
        line, column = self.line, self.column
        start = self.pos
        self._advance()  # consume opening quote
        while self.pos < len(self.source) and self._peek() != '"':
            if self._peek() == "\\":
                self._advance()
            if self._peek() == "\n":
                raise self._error("unterminated string literal")
            self._advance()
        if self.pos >= len(self.source):
            raise self._error("unterminated string literal")
        self._advance()  # closing quote
        return Token(TokenKind.STRING, self.source[start : self.pos], line, column)

    def next_token(self) -> Token:
        """Return the next token, or an EOF token when the input is exhausted."""
        self._skip_whitespace_and_comments()
        if self.pos >= len(self.source):
            return Token(TokenKind.EOF, "", self.line, self.column)
        ch = self._peek()
        line, column = self.line, self.column

        if ch.isalpha() or ch == "_" or ch == "\\":
            return self._lex_identifier()
        if ch == "$":
            return self._lex_system_identifier()
        if ch == "`":
            return self._lex_directive()
        if ch.isdigit():
            return self._lex_number()
        if ch == "'" and self._peek(1).lower() in "bodhs":
            return self._lex_number()
        if ch == '"':
            return self._lex_string()

        for op in MULTI_CHAR_OPERATORS:
            if self.source.startswith(op, self.pos):
                self._advance(len(op))
                return Token(TokenKind.OPERATOR, op, line, column)
        if ch in SINGLE_CHAR_OPERATORS:
            self._advance()
            return Token(TokenKind.OPERATOR, ch, line, column)
        if ch in PUNCTUATION:
            self._advance()
            return Token(TokenKind.PUNCTUATION, ch, line, column)
        raise self._error(f"unexpected character {ch!r}")

    def __iter__(self) -> Iterator[Token]:
        while True:
            token = self.next_token()
            yield token
            if token.kind is TokenKind.EOF:
                return

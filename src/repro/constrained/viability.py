"""Viable-prefix classification over the Verilog lexer/parser.

The grammar mask (:mod:`repro.constrained.mask`) needs one primitive: given
the text decoded so far, is it still the prefix of *some* syntactically valid
Verilog source?  This module answers that by driving the repo's own lexer and
recursive-descent parser (:mod:`repro.verilog`) in a prefix-tolerant way.
Each probed text is lexed once (:class:`~repro.verilog.lexer.Lexer`) and that
one scan is parsed (:func:`_probe`):

* a **lexer error** is tolerated only when it is anchored at the end of the
  text (an unterminated string/comment or a number still missing its digits
  is an *incomplete trailing token*, not a syntax error).  An error anchored
  before the end can never be repaired by more input, so the prefix is dead;
* the **parser** runs over the scan; a :class:`ParseError` whose offending
  token is EOF (or raised with the parser's lookahead already at EOF) means
  the prefix merely *ends too early* and stays viable, while an error
  anchored at a real token rejects the prefix outright;
* the **last token is tentative** when it touches the end of the text: an
  identifier like ``endmodul`` may still grow into the ``endmodule`` keyword,
  so a parse failure is retried with concrete extensions of that token.

The key property the mask relies on is *prefix-closure*: every prefix of a
viable string is itself viable (more input can only be appended at the end),
so committing BPE pieces one at a time can never paint the decoder into a
corner that a full re-check would have caught earlier.

:func:`completion_suffix` inverts the check: from any viable prefix it builds
a short textual suffix that closes every open construct (guided by the
parser's own ``expected ...`` diagnostics), which the constrained decoder uses
to guarantee a complete design when the token budget runs out mid-module.
"""

from __future__ import annotations

import enum
import re
from functools import lru_cache
from typing import NamedTuple, Optional

from repro.verilog.lexer import KEYWORDS, MULTI_CHAR_OPERATORS, Lexer, Token, TokenKind
from repro.verilog.parser import ParseError, Parser


class PrefixVerdict(enum.Enum):
    """Classification of a text against the Verilog grammar."""

    #: No continuation can make the text parse; the prefix is dead.
    INVALID = "invalid"
    #: Not a complete source yet, but some continuation parses.
    VIABLE = "viable"
    #: Parses as-is into a source file with at least one module.
    COMPLETE = "complete"


class _Probe(NamedTuple):
    """What one lex and one parse of a text say about it."""

    #: The parse's verdict; INVALID when the text does not lex.
    verdict: PrefixVerdict
    #: The parse error (empty for COMPLETE), from which
    #: :func:`completion_suffix` reads the parser's ``expected ...`` demand,
    #: or the lexer error, from which :func:`_heal_partial_tail` reads the
    #: incomplete construct.
    message: str
    #: True when the lexer error is anchored at the end of the text: it ends
    #: inside an incomplete token (unterminated string/comment, number missing
    #: digits...) that more characters may still finish.
    partial: bool
    #: The last token when it touches the end of the text, so it may still
    #: grow; None when trivia follows it or the text does not lex.
    last: Optional[Token]
    #: True when the text ends inside a ``//`` comment, which only a newline closes.
    in_line_comment: bool


@lru_cache(maxsize=16384)
def _probe(text: str) -> _Probe:
    """Lex ``text`` once, parse that scan, and classify the outcome."""
    lexer = Lexer(text)
    if lexer.error is not None:
        return _Probe(PrefixVerdict.INVALID, str(lexer.error), lexer.error_pos >= len(text), None, False)
    tokens = lexer.tokens
    last = None
    if len(tokens) > 1:
        # No token spans a newline, so the last token touches the end exactly
        # when EOF starts on its line, right after it.
        eof, before = tokens[-1], tokens[-2]
        if eof.line == before.line and eof.column == before.column + len(before.text):
            last = before
    parser = Parser(lexer)
    try:
        parser.parse_source()
    except ParseError as exc:
        at_eof = (exc.token is not None and exc.token.kind is TokenKind.EOF) or (
            parser._peek().kind is TokenKind.EOF
        )
        # An error at (or raised while looking at) EOF means the input simply
        # ended too early — more tokens may fix it.  Anchored at a real token
        # it is a hard rejection: that token can never change.
        verdict, message = (PrefixVerdict.VIABLE if at_eof else PrefixVerdict.INVALID), str(exc)
    except RecursionError:
        verdict, message = PrefixVerdict.INVALID, "recursion limit"
    else:
        verdict, message = PrefixVerdict.COMPLETE, ""
    return _Probe(verdict, message, False, last, lexer.in_line_comment)


@lru_cache(maxsize=65536)
def classify_prefix(text: str) -> PrefixVerdict:
    """Classify ``text`` as INVALID / VIABLE / COMPLETE Verilog.

    Empty (or whitespace/comment-only) text is VIABLE: a module can still
    follow.  COMPLETE requires at least one fully parsed module and no
    dangling partial token.
    """
    probe = _probe(text)
    if probe.partial:
        # The incomplete tail commits to one token kind (an open string can
        # only become a STRING, ``4'``/``4'h`` only a NUMBER, an open ``/*``
        # only whitespace), so heal it into a concrete witness of that kind
        # and parse in context: a number dangling where the grammar can never
        # accept a number is a dead prefix even though the token itself could
        # be finished.
        healed = _heal_partial_tail(text, probe.message)
        if healed is None or _probe(text + healed).verdict is PrefixVerdict.INVALID:
            return PrefixVerdict.INVALID
        return PrefixVerdict.VIABLE
    if probe.verdict is PrefixVerdict.INVALID and _extend_last_token(text, probe.last) is not None:
        # The last token touches the end of the text, so it may still grow
        # into a *different* token (``endmodul`` -> ``endmodule`` keyword,
        # ``begin`` -> ``beginx`` identifier, ``<`` -> ``<=``).  Viability
        # needs a concrete witness: some extension whose parse survives.
        # Merely dropping the token would wrongly revive prefixes like
        # ``endmodule`` whose every extension is equally dead.
        return PrefixVerdict.VIABLE
    return probe.verdict


def is_viable_prefix(text: str) -> bool:
    """True when ``text`` is (a prefix of) some syntactically valid source."""
    return classify_prefix(text) is not PrefixVerdict.INVALID


def is_complete_source(text: str) -> bool:
    """True when ``text`` parses as-is with at least one module."""
    return classify_prefix(text) is PrefixVerdict.COMPLETE


# --------------------------------------------------------------------------- #
# Grammar-guided closure
# --------------------------------------------------------------------------- #

#: ``expected 'X' at line ...`` -> the literal token the parser demands.
_EXPECTED_RE = re.compile(r"^expected '([^']+)'")

#: Parser diagnostics that name the construct left open, mapped to its closer.
_EOF_CLOSERS = [
    ("unexpected end of file inside begin/end block", "end"),
    ("unexpected end of file inside case", "endcase"),
    ("unexpected end of file inside generate", "endgenerate"),
    ("unexpected end of file inside module", "endmodule"),
    ("source contains no modules", "module"),
    ("expected identifier", "x"),
    ("expected expression", "0"),
    ("expected '=' or '<=' in assignment", "="),
    ("expected assignment operator", "="),
]


def _heal_partial_tail(text: str, message: str) -> Optional[str]:
    """Characters that finish the incomplete lexical construct at the end of ``text``."""
    if "unterminated block comment" in message:
        return "*/"
    if "unterminated string literal" in message:
        # A trailing backslash would escape the closing quote.
        return 'x"' if text.endswith("\\") else '"'
    if "invalid number base" in message:
        return "h0"  # ``4'`` or ``4's`` still waiting for its base
    if "number literal missing digits" in message:
        return "0"
    return None


def _extend_last_token(text: str, last: Optional[Token]) -> Optional[str]:
    """Grow a tentative last token into one that keeps the prefix alive.

    Used when the text is viable *only* because its last token may extend
    (e.g. committed pieces ending in ``endmodul``): try completing ``last``,
    the token touching the end of ``text`` (None when none does), into each
    keyword / multi-char operator it prefixes, or into a comment or a real
    literal.  Strings end with their closing quote and punctuation is
    single-char, so neither grows: only a ``.`` can still join the token
    before it.
    """
    if last is None:
        return None
    tail = last.text
    candidates = []
    if last.kind in (TokenKind.IDENTIFIER, TokenKind.KEYWORD):
        candidates = [kw[len(tail):] for kw in sorted(KEYWORDS) if kw.startswith(tail) and len(kw) > len(tail)]
        if last.kind is TokenKind.KEYWORD:
            # A keyword can also grow into a plain identifier (``begin`` ->
            # ``beginx``), which changes its token kind and may start e.g. a
            # module instantiation where the keyword itself was illegal.
            candidates.append("x")
        elif tail in ("e", "E"):
            # ``2.5e`` -> the real ``2.5e0``; after anything but a number,
            # ``e0`` is an identifier just like ``e``.
            candidates.append("0")
    elif last.kind is TokenKind.OPERATOR:
        candidates = [op[len(tail):] for op in MULTI_CHAR_OPERATORS if op.startswith(tail) and len(op) > len(tail)]
        if tail == "/":
            candidates.append("/")  # a ``//`` comment, where division is illegal
    elif last.kind is TokenKind.NUMBER:
        candidates = ["'h0"]
    elif tail == ".":
        # ``1.`` -> the real ``1.0``.  After anything but a plain decimal the
        # ``0`` is a token of its own behind the ``.``, and the LL(1) parse
        # fails at that ``.`` just as it did without the ``0``.
        candidates = ["0"]
    for extension in candidates:
        if _probe(text + extension).verdict is not PrefixVerdict.INVALID:
            return extension
    return None


def completion_suffix(text: str, max_appends: int = 128) -> Optional[str]:
    """Build a suffix that turns a viable prefix into a complete source.

    Repeatedly parses ``text + suffix`` and appends exactly the token the
    parser demands next (``expected ';'`` -> ``;``, ``expected identifier``
    -> a fresh name, an open ``begin`` -> ``end``, ...).  Each appended token
    is consumed before the next diagnostic, so the parse position strictly
    advances and the loop terminates in one append per open construct.

    Returns ``None`` when ``text`` is not a viable prefix or no closure was
    found within ``max_appends`` steps (pathological inputs only).
    """
    suffix = ""
    for _ in range(max_appends):
        current = text + suffix
        probe = _probe(current)
        if probe.partial:
            healed = _heal_partial_tail(current, probe.message)
            if healed is None:
                return None
            suffix += healed
            continue
        if probe.verdict is PrefixVerdict.COMPLETE:
            return suffix
        if probe.verdict is PrefixVerdict.INVALID:
            extension = _extend_last_token(current, probe.last)
            if extension is None:
                return None
            suffix += extension
            continue
        # VIABLE: satisfy the parser's immediate demand.
        piece = None
        match = _EXPECTED_RE.match(probe.message)
        if match is not None:
            piece = match.group(1)
        else:
            for marker, closer in _EOF_CLOSERS:
                if probe.message.startswith(marker):
                    piece = closer
                    break
        if piece is None:
            return None
        # A space would leave the piece inside a trailing ``//`` comment.
        suffix += ("\n" if probe.in_line_comment else " ") + piece
    return None


def clear_viability_caches() -> None:
    """Drop the memoized classifications (tests use this to bound memory)."""
    _probe.cache_clear()
    classify_prefix.cache_clear()

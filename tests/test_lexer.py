"""Tests for the Verilog lexer, including a differential run against the character-level oracle."""

import sys

import pytest
from hypothesis import given, strategies as st

from proptest import Cases, for_all, num_cases
from reference_lexer import ReferenceLexer
from repro.evalbench.rtllm import rtllm_suite
from repro.evalbench.vgen import vgen_suite
from repro.verilog import lexer as lexer_module
from repro.verilog.lexer import KEYWORDS, Lexer, LexerError, Token, TokenKind, tokenize
from repro.verilog.parser import Parser, parse_source


class TestBasicTokens:
    def test_keywords_are_classified(self):
        tokens = tokenize("module endmodule always begin end")
        assert [t.kind for t in tokens] == [TokenKind.KEYWORD] * 5

    def test_identifiers(self):
        tokens = tokenize("data_out my_signal_2 _private $display")
        assert tokens[0].kind is TokenKind.IDENTIFIER
        assert tokens[1].kind is TokenKind.IDENTIFIER
        assert tokens[2].kind is TokenKind.IDENTIFIER
        assert tokens[3].kind is TokenKind.SYSTEM_IDENTIFIER

    def test_identifier_with_dollar_inside(self):
        tokens = tokenize("sig$nal")
        assert tokens[0].text == "sig$nal"

    def test_escaped_identifier(self):
        tokens = tokenize(r"\bus+index other")
        assert tokens[0].kind is TokenKind.IDENTIFIER
        assert tokens[0].text == r"\bus+index"
        assert tokens[1].text == "other"

    def test_sized_binary_number(self):
        tokens = tokenize("4'b1010")
        assert tokens[0].kind is TokenKind.NUMBER
        assert tokens[0].text == "4'b1010"

    def test_sized_hex_number(self):
        assert tokenize("8'hFF")[0].text == "8'hFF"

    def test_signed_number(self):
        assert tokenize("8'sd5")[0].text == "8'sd5"

    def test_number_with_x_and_z(self):
        assert tokenize("4'b10xz")[0].text == "4'b10xz"

    def test_plain_decimal(self):
        assert tokenize("42")[0].kind is TokenKind.NUMBER

    def test_real_number(self):
        tokens = tokenize("3.14")
        assert tokens[0].text == "3.14"

    def test_number_with_underscores(self):
        assert tokenize("16'hDE_AD")[0].text == "16'hDE_AD"

    def test_string_literal(self):
        tokens = tokenize('"TEST PASSED"')
        assert tokens[0].kind is TokenKind.STRING

    def test_directive(self):
        tokens = tokenize("`timescale")
        assert tokens[0].kind is TokenKind.DIRECTIVE

    def test_empty_source(self):
        assert tokenize("") == []

    def test_eof_token_included_when_requested(self):
        tokens = tokenize("a", include_eof=True)
        assert tokens[-1].kind is TokenKind.EOF


class TestOperators:
    @pytest.mark.parametrize(
        "operator",
        ["<=", ">=", "==", "!=", "===", "!==", "&&", "||", "<<", ">>", "<<<", ">>>", "**", "~&", "~|", "+:", "-:"],
    )
    def test_multi_char_operator(self, operator):
        tokens = tokenize(f"a {operator} b")
        assert tokens[1].text == operator
        assert tokens[1].kind is TokenKind.OPERATOR

    def test_maximal_munch_triple_shift(self):
        tokens = tokenize("a <<< 2")
        assert tokens[1].text == "<<<"

    def test_single_char_operators(self):
        tokens = tokenize("a + b - c * d / e % f")
        operators = [t.text for t in tokens if t.kind is TokenKind.OPERATOR]
        assert operators == ["+", "-", "*", "/", "%"]

    def test_punctuation(self):
        tokens = tokenize("( ) [ ] { } ; : , . # @")
        assert all(t.kind is TokenKind.PUNCTUATION for t in tokens)


class TestComments:
    def test_line_comment_skipped(self):
        tokens = tokenize("a // this is a comment\nb")
        assert [t.text for t in tokens] == ["a", "b"]

    def test_block_comment_skipped(self):
        tokens = tokenize("a /* multi\nline */ b")
        assert [t.text for t in tokens] == ["a", "b"]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(LexerError):
            tokenize("a /* never closed")

    def test_unterminated_string_raises(self):
        with pytest.raises(LexerError):
            tokenize('"no closing quote')


class TestPositions:
    def test_line_and_column_tracking(self):
        tokens = tokenize("module foo;\n  wire x;")
        assert tokens[0].line == 1 and tokens[0].column == 1
        wire = next(t for t in tokens if t.text == "wire")
        assert wire.line == 2
        assert wire.column == 3

    def test_error_reports_position(self):
        try:
            tokenize("wire \x01")
        except LexerError as exc:
            assert exc.line == 1
        else:  # pragma: no cover
            pytest.fail("expected LexerError")


class TestTokenHelpers:
    def test_is_keyword(self):
        token = Token(TokenKind.KEYWORD, "module", 1, 1)
        assert token.is_keyword()
        assert token.is_keyword("module")
        assert not token.is_keyword("endmodule")

    def test_is_keyword_false_for_identifier(self):
        token = Token(TokenKind.IDENTIFIER, "module_name", 1, 1)
        assert not token.is_keyword()

    def test_all_keywords_lex_as_keywords(self):
        for keyword in KEYWORDS:
            assert tokenize(keyword)[0].kind is TokenKind.KEYWORD


class TestWholeModule:
    def test_full_module_token_count(self, sample_design):
        tokens = tokenize(sample_design)
        texts = [t.text for t in tokens]
        assert texts.count("module") == 1
        assert texts.count("endmodule") == 1
        assert "data_register" in texts
        assert "<=" in texts


#: Strings that escape a quote, a backslash and a newline.
_STRING_ESCAPES = 'initial begin $display("q=\\"%d\\" \\\\ done\\n", q); $write("\\\\"); end\n'


@pytest.mark.parametrize("name", ["alu_8bit", "up_counter_4", "string_escape"])
def test_lexer_never_reads_past_the_end_of_any_prefix(name):
    """``constrained.viability`` reads ``error_pos >= len(text)`` as "the text ends inside a token".

    An unterminated string ending in a backslash once anchored its error one past the end.  Without
    an error, EOF sits exactly at the end."""
    texts = {problem.name: problem.reference for problem in rtllm_suite()}
    texts["string_escape"] = _STRING_ESCAPES
    reference = texts[name]
    for cut in range(len(reference) + 1):
        source = reference[:cut]
        lexer = Lexer(source)
        assert lexer.error_pos <= len(source), cut
        if lexer.error is None:
            eof = lexer.tokens[-1]
            assert (eof.line, eof.column) == (source.count("\n") + 1, len(source) - source.rfind("\n")), cut


def test_trailing_decimal_keeps_its_text_and_position():
    tokens = Lexer("assign a = 8").tokens
    assert [t.text for t in tokens[:-1]] == ["assign", "a", "=", "8"]
    assert (tokens[-1].line, tokens[-1].column) == (1, len("assign a = 8") + 1)
    assert [t.text for t in tokenize("1.5e-3 2E+4 7e 8")] == ["1.5e-3", "2E+4", "7", "e", "8"]


@given(st.text(alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), whitelist_characters="_ \n\t;(),+-*&|^~!"), max_size=200))
def test_lexer_never_crashes_on_word_like_text(text):
    """Property: the lexer either tokenizes or raises LexerError, never anything else."""
    try:
        tokens = tokenize(text)
    except LexerError:
        return
    for token in tokens:
        assert token.text != "" or token.kind is TokenKind.EOF


@given(st.integers(min_value=0, max_value=2**32), st.sampled_from(["b", "o", "d", "h"]))
def test_number_literals_round_trip_text(value, base):
    """Property: formatted sized literals lex as a single NUMBER token."""
    digits = {"b": format(value, "b"), "o": format(value, "o"), "d": str(value), "h": format(value, "x")}[base]
    literal = f"64'{base}{digits}"
    tokens = tokenize(literal)
    assert len(tokens) == 1
    assert tokens[0].kind is TokenKind.NUMBER
    assert tokens[0].text == literal


@pytest.mark.parametrize("literal", ["4'd", "8'h", "2'sb"])
def test_based_literal_without_digits_is_missing_them_at_end_of_input_too(literal):
    lexer = Lexer(literal)
    assert "number literal missing digits" in str(lexer.error)
    assert lexer.error_pos == len(literal)  # an incomplete trailing token, not a dead one
    with pytest.raises(LexerError, match="number literal missing digits"):
        tokenize(literal + ";")


def test_bad_base_fails_the_whole_literal():
    """``12'q`` is an error at the ``q``, not the NUMBER ``1`` followed by more tokens."""
    lexer = Lexer("12'q")
    assert lexer.tokens == []
    assert str(lexer.error) == "line 1, col 4: invalid number base 'q'"


def test_non_ascii_is_unexpected_outside_strings_and_comments():
    with pytest.raises(LexerError, match="unexpected character 'é'"):
        tokenize("wire café;")
    assert [t.text for t in tokenize('$display("café"); // café\n/* café */ x')] == [
        "$display", "(", '"café"', ")", ";", "x"
    ]


# --------------------------------------------------------------------------- #
# Differential: the compiled-pattern lexer against the character-level oracle
# --------------------------------------------------------------------------- #

SUITE_TEXTS = [
    text
    for problem in list(rtllm_suite()) + list(vgen_suite())
    for text in (problem.prompt, problem.reference, problem.testbench)
]

#: ASCII characters from every class the lexer tells apart, plus two it rejects.
_ALPHABET = "aAbBdDeEhHoOsSxXzZ09_$`'\"\\/*+-<>=!&|^~%?:;,.()[]{}#@ \t\r\n\x0c\x7f"


def _scan_trace(text: str):
    """``Lexer(text)``'s tokens as ``(kind, text, line, column)``, then its error and anchor, if any."""
    lexer = Lexer(text)
    trace = [(token.kind, token.text, token.line, token.column) for token in lexer.tokens]
    if lexer.error is not None:
        error = lexer.error
        trace.append(("error", str(error), error.line, error.column, lexer.error_pos))
    return trace


def _oracle_trace(text: str):
    """The same trace, streamed from the character-level oracle."""
    oracle = ReferenceLexer(text)
    trace = []
    while True:
        try:
            token = oracle.next_token()
        except LexerError as error:
            trace.append(("error", str(error), error.line, error.column, oracle.pos))
            return trace
        trace.append((token.kind, token.text, token.line, token.column))
        if token.kind is TokenKind.EOF:
            return trace


def _assert_lexes_like_the_oracle(text: str) -> None:
    assert _scan_trace(text) == _oracle_trace(text), repr(text)


def test_suite_texts_and_every_prefix_lex_like_the_oracle():
    assert len(SUITE_TEXTS) == 138
    for text in SUITE_TEXTS:
        _assert_lexes_like_the_oracle(text)
    references = {problem.name: problem.reference for problem in rtllm_suite()}
    for name in ("alu_8bit", "ctrl_fsm", "priority_encoder", "up_counter_4"):
        reference = references[name]
        for cut in range(len(reference) + 1):
            _assert_lexes_like_the_oracle(reference[:cut])


def test_splices_and_random_strings_lex_like_the_oracle():
    def prop(cases: Cases) -> None:
        head, tail = cases.choice(SUITE_TEXTS), cases.choice(SUITE_TEXTS)
        cut, start = cases.integer(0, len(head)), cases.integer(0, len(tail))
        _assert_lexes_like_the_oracle(head[:cut] + tail[start : start + cases.integer(0, 120)])
        for _ in range(4):
            _assert_lexes_like_the_oracle("".join(cases.choice(_ALPHABET) for _ in range(cases.integer(0, 16))))

    for_all(num_cases(300, 20_000), prop, seed=29)


# --------------------------------------------------------------------------- #
# One scan: the parser reads the scan's tokens, and positions survive trivia
# --------------------------------------------------------------------------- #

_LINE_DIRECTIVES = ("`timescale", "`define", "`include", "`default_nettype")


def _scanned_without_directive_lines(text: str):
    """``tokenize(text)`` (with EOF) minus directives and the rest of a line directive's line (and its continuations)."""
    scanned = tokenize(text, include_eof=True)
    lines = text.split("\n")
    payloads = []  # (directive line, directive column, last payload line)
    for token in scanned:
        if token.kind is TokenKind.DIRECTIVE and token.text in _LINE_DIRECTIVES:
            last = token.line
            while last < len(lines) and lines[last - 1].rstrip("\r").endswith("\\"):
                last += 1
            payloads.append((token.line, token.column, last))
    return [
        token
        for token in scanned
        if token.kind is not TokenKind.DIRECTIVE
        and (
            token.kind is TokenKind.EOF
            or not any((line, column) < (token.line, token.column) and token.line <= last for line, column, last in payloads)
        )
    ]


def _parser_tokens_or_error(text: str):
    try:
        return Parser(Lexer(text)).tokens
    except LexerError as error:
        return str(error)


def _scan_or_error(text: str):
    try:
        return _scanned_without_directive_lines(text)
    except LexerError as error:
        return str(error)


def test_the_parser_reads_the_stream_minus_directive_lines():
    for text in SUITE_TEXTS:
        assert _parser_tokens_or_error(text) == _scan_or_error(text), text
        directed = "`timescale 1ns/1ps\n`define PAIR(a, b) \\\n  {a, b}\n" + text + "\n`default_nettype none"
        assert _parser_tokens_or_error(directed) == _scan_or_error(directed), directed
    references = {problem.name: problem.reference for problem in rtllm_suite()}
    for name in ("alu_8bit", "ctrl_fsm", "priority_encoder", "up_counter_4"):
        reference = "`timescale 1ns/1ps\n" + references[name]
        for cut in range(len(reference) + 1):
            assert _parser_tokens_or_error(reference[:cut]) == _scan_or_error(reference[:cut]), cut


@pytest.mark.parametrize("comment", ["// variant 3", "// variant 3\n", "/* variant 3 */", "// 8'd"])
def test_a_trailing_comment_is_never_reread_as_tokens(comment):
    source = "module m; endmodule " + comment
    tokens = tokenize(source, include_eof=True)
    assert [t.text for t in tokens] == ["module", "m", ";", "endmodule", ""]
    assert tokens[-1].line == 1 + comment.count("\n")
    assert parse_source("module m; endmodule\n" + comment) == parse_source("module m; endmodule")


def test_a_multi_line_block_comment_moves_line_and_column():
    lexer = Lexer("wire /* one\n two\n three */  x;\n")
    assert [(t.text, t.line, t.column) for t in lexer.tokens] == [
        ("wire", 1, 1), ("x", 3, 12), (";", 3, 13), ("", 4, 1)
    ]
    _assert_lexes_like_the_oracle(lexer.source)


def test_crlf_line_endings():
    source = "module m;\r\n  wire a;\r\nendmodule\r\n"
    lexer = Lexer(source)
    assert [(t.text, t.line, t.column) for t in lexer.tokens] == [
        ("module", 1, 1), ("m", 1, 8), (";", 1, 9), ("wire", 2, 3), ("a", 2, 8), (";", 2, 9),
        ("endmodule", 3, 1), ("", 4, 1),
    ]
    _assert_lexes_like_the_oracle(source)
    assert parse_source(source) == parse_source(source.replace("\r\n", "\n"))


def test_the_parser_raises_the_scanned_error_where_the_scan_met_it():
    lexer = Lexer("wire a; 12'q")
    assert [t.text for t in lexer.tokens] == ["wire", "a", ";"]
    assert str(lexer.error) == "line 1, col 12: invalid number base 'q'"
    assert lexer.error_pos == len("wire a; 12'")
    with pytest.raises(LexerError) as raised:
        Parser(lexer)
    assert raised.value is lexer.error


@pytest.mark.parametrize(
    "source, inside",
    [
        ("", False),
        ("a // x", True),
        ("// x", True),
        ("//", True),
        ("a // x\n", False),
        ("a // x\r", True),
        ("a /* // */", False),
        ("a /* x */ // y /* z", True),
        ("a // x */", True),
        ("// x\n/* y\n // z */ ", False),
        ("a /", False),
        ("a /* open //", False),  # an error: the text ends inside a block comment
    ],
)
def test_the_scan_knows_when_the_source_ends_inside_a_line_comment(source, inside):
    assert Lexer(source).in_line_comment is inside


def test_a_source_ends_inside_a_line_comment_when_appended_text_adds_no_token():
    def prop(cases: Cases) -> None:
        text = cases.choice(SUITE_TEXTS)
        source = text[: cases.integer(0, len(text))] + cases.choice(["", " ", "\n", " // c", "/* c */"])
        lexer = Lexer(source)
        if lexer.error is None:
            swallowed = len(Lexer(source + " x").tokens) == len(lexer.tokens)
            assert lexer.in_line_comment is swallowed, repr(source)

    for_all(num_cases(300, 5_000), prop, seed=35)


# --------------------------------------------------------------------------- #
# Hot path: parsing makes no per-token Python call into the lexer module
# --------------------------------------------------------------------------- #


def lexer_calls(run) -> int:
    """The Python calls into ``repro/verilog/lexer.py`` made while ``run()`` runs."""
    lexer_file = lexer_module.__file__
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename == lexer_file:
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return calls


def test_the_lexer_call_detector_sees_per_token_calls():
    source = rtllm_suite()[0].reference
    tokens = tokenize(source, include_eof=True)
    assert lexer_calls(lambda: Lexer(source)) == 1
    assert lexer_calls(lambda: [token.is_keyword() for token in tokens]) == len(tokens)


def test_parsing_makes_a_bounded_number_of_lexer_calls():
    small = "\n".join(problem.reference for problem in list(rtllm_suite())[:12])
    large = "\n".join([small] * 4)
    assert len(tokenize(small)) >= 500
    calls = lexer_calls(lambda: parse_source(small))
    assert calls <= 4
    assert lexer_calls(lambda: parse_source(large)) == calls

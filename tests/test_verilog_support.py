"""Tests for syntax checking, significant-token extraction and fragments."""

from hypothesis import given, settings, strategies as st

from repro.verilog.fragments import (
    FRAG,
    insert_frag_markers,
    segment_code,
    strip_frag_markers,
)
from repro.verilog.significant import EXTRA_KEYWORDS, extract_ast_keywords, extract_significant_tokens
from repro.verilog.syntax import check_syntax


class TestCheckSyntax:
    def test_valid_design(self, sample_design):
        result = check_syntax(sample_design)
        assert result.ok
        assert result.module_names == ["data_register"]
        assert result.errors == []

    def test_valid_multi_module(self, sample_design, sample_counter):
        result = check_syntax(sample_design + "\n" + sample_counter)
        assert result.ok
        assert set(result.module_names) == {"data_register", "counter"}

    def test_missing_endmodule(self):
        result = check_syntax("module broken(input a); assign x = a;")
        assert not result.ok
        assert result.errors

    def test_bad_token(self):
        assert not check_syntax("module m; wire \x01; endmodule").ok

    def test_empty_source(self):
        result = check_syntax("")
        assert not result.ok
        assert "empty" in result.errors[0]

    def test_whitespace_only(self):
        assert not check_syntax("   \n\t  ").ok

    def test_comment_only(self):
        assert not check_syntax("// just a comment\n").ok

    def test_check_never_raises_on_garbage(self):
        for garbage in ["{{{{", "module", "endmodule endmodule", "always @" * 10]:
            result = check_syntax(garbage)
            assert result.ok in (True, False)


class TestSignificantTokens:
    def test_ast_keywords_from_design(self, sample_design):
        keywords = extract_ast_keywords(sample_design)
        assert "data_register" in keywords
        assert "clk" in keywords
        assert "data_in" in keywords
        assert "data_out" in keywords
        assert "3" in keywords

    def test_ast_keywords_empty_for_invalid_code(self):
        assert extract_ast_keywords("not verilog at all") == []

    def test_extra_keywords_cover_paper_examples(self):
        # The paper explicitly lists negedge and endmodule as supplements.
        assert "negedge" in EXTRA_KEYWORDS
        assert "endmodule" in EXTRA_KEYWORDS
        assert "module" in EXTRA_KEYWORDS

    def test_significant_tokens_union(self, sample_design):
        tokens = extract_significant_tokens(sample_design)
        assert "data_register" in tokens
        assert "endmodule" in tokens
        # AST keywords come before the supplementary keyword block they are
        # not already part of.
        assert tokens.index("data_register") < tokens.index("negedge")

    def test_significant_tokens_no_duplicates(self, sample_counter):
        tokens = extract_significant_tokens(sample_counter)
        assert len(tokens) == len(set(tokens))

    def test_instance_and_function_names_extracted(self):
        source = """
module top;
    wire [7:0] c;
    counter u_count(.count(c));
    function [7:0] plus1; input [7:0] v; begin plus1 = v + 1; end endfunction
endmodule
module counter(output [7:0] count); assign count = 8'd0; endmodule
"""
        keywords = extract_ast_keywords(source)
        assert "u_count" in keywords
        assert "plus1" in keywords


class TestSegmentation:
    def test_segments_reassemble_to_source(self, sample_design):
        pieces = segment_code(sample_design)
        assert "".join(text for text, _ in pieces) == sample_design

    def test_significant_flags(self, sample_design):
        pieces = segment_code(sample_design)
        significant = [text for text, flag in pieces if flag]
        assert "module" in significant
        assert "data_register" in significant

    def test_keyword_does_not_split_identifier(self):
        # 'reg' is a significant keyword but must not split 'data_register'.
        pieces = segment_code("module m; reg data_register; endmodule")
        significant = [text for text, flag in pieces if flag]
        assert "data_register" in significant
        assert significant.count("reg") == 1

    def test_explicit_token_list(self):
        pieces = segment_code("assign y = a + b;", significant_tokens=["assign", "y"])
        significant = [text for text, flag in pieces if flag]
        assert significant == ["assign", "y"]


class TestFragMarkers:
    def test_strip_round_trip(self, sample_design):
        annotated = insert_frag_markers(sample_design)
        assert strip_frag_markers(annotated) == sample_design

    def test_markers_are_present(self, sample_design):
        annotated = insert_frag_markers(sample_design)
        assert annotated.count(FRAG) > 10
        assert f"{FRAG}module{FRAG}" in annotated

    def test_no_marker_runs(self, sample_design):
        annotated = insert_frag_markers(sample_design)
        assert FRAG + FRAG not in annotated

    def test_identifier_wrapped(self, sample_design):
        annotated = insert_frag_markers(sample_design)
        assert f"{FRAG}data_register{FRAG}" in annotated

    def test_insert_on_invalid_code_still_terminates(self):
        # Invalid code has no AST keywords; only the extra keywords segment it.
        annotated = insert_frag_markers("module broken without end")
        assert strip_frag_markers(annotated) == "module broken without end"


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["mux", "counter", "alu", "fsm", "register", "shifter"]), st.integers(0, 500))
def test_frag_round_trip_on_generated_designs(family, index):
    """Property: [FRAG] insertion is reversible on corpus designs."""
    from repro.data.corpus import CorpusConfig, SyntheticVerilogCorpus

    corpus = SyntheticVerilogCorpus(CorpusConfig(seed=7))
    item = corpus.generate_item(family, index)
    annotated = insert_frag_markers(item.code)
    assert strip_frag_markers(annotated) == item.code
    assert annotated.count(FRAG) >= 4

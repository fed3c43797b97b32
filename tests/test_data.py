"""Tests for the dataset substrate: corpus, descriptions, minhash, refinement, alpaca."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.data.alpaca import subset_fractions
from repro.data.corpus import CorpusConfig, SyntheticVerilogCorpus
from repro.data.descriptions import describe_design
from repro.data.minhash import MinHashDeduplicator, estimated_jaccard, jaccard_similarity, minhash_signature
from repro.data.refinement import (
    comment_fraction,
    has_complete_module_structure,
    refine_corpus,
    split_into_modules,
)
from repro.verilog.fragments import FRAG
from repro.verilog.syntax import check_syntax


class TestCorpusGenerator:
    def test_generates_requested_count(self):
        corpus = SyntheticVerilogCorpus(CorpusConfig(num_items=30, seed=1))
        assert len(corpus.generate()) == 30

    def test_all_families_generate_valid_verilog(self):
        corpus = SyntheticVerilogCorpus(CorpusConfig(seed=2))
        for family in corpus.families():
            for index in range(3):
                item = corpus.generate_item(family, index)
                assert check_syntax(item.code).ok, f"{family}[{index}] failed to parse"

    def test_descriptions_mention_module_name(self):
        corpus = SyntheticVerilogCorpus(CorpusConfig(seed=3))
        item = corpus.generate_item("counter", 0)
        assert item.name in item.description

    def test_deterministic_for_same_seed(self):
        a = SyntheticVerilogCorpus(CorpusConfig(num_items=10, seed=5)).generate()
        b = SyntheticVerilogCorpus(CorpusConfig(num_items=10, seed=5)).generate()
        assert [x.code for x in a] == [y.code for y in b]

    def test_different_seeds_differ(self):
        a = SyntheticVerilogCorpus(CorpusConfig(num_items=10, seed=5)).generate()
        b = SyntheticVerilogCorpus(CorpusConfig(num_items=10, seed=6)).generate()
        assert [x.code for x in a] != [y.code for y in b]

    def test_unknown_family_raises(self):
        corpus = SyntheticVerilogCorpus()
        with pytest.raises(KeyError):
            corpus.generate_item("nonexistent")

    def test_corruption_injection(self):
        corpus = SyntheticVerilogCorpus(CorpusConfig(num_items=20, seed=1, corrupted_fraction=0.25))
        items = corpus.generate()
        assert len(items) == 25
        broken = [i for i in items if i.name.endswith("_broken")]
        assert broken
        assert any(not check_syntax(i.code).ok for i in broken)

    def test_duplicate_injection(self):
        corpus = SyntheticVerilogCorpus(CorpusConfig(num_items=20, seed=1, duplicate_fraction=0.2))
        items = corpus.generate()
        assert len(items) == 24
        assert any(i.name.endswith("_dup") for i in items)

    def test_family_restriction(self):
        corpus = SyntheticVerilogCorpus(CorpusConfig(num_items=8, seed=0, families=["adder", "mux"]))
        assert {i.family for i in corpus.generate()} == {"adder", "mux"}


class TestDescriptions:
    def test_known_family(self):
        text = describe_design("counter", "tick_counter", {"width": 8, "down": 0})
        assert "tick_counter" in text
        assert "8" in text

    def test_unknown_family_fallback(self):
        text = describe_design("mystery", "foo", {})
        assert "foo" in text

    def test_deterministic(self):
        a = describe_design("alu", "alu_core", {"width": 8, "num_ops": 8})
        b = describe_design("alu", "alu_core", {"width": 8, "num_ops": 8})
        assert a == b

    def test_parity_kind_field(self):
        odd = describe_design("parity", "p", {"width": 4, "odd": 1})
        even = describe_design("parity", "p", {"width": 4, "odd": 0})
        assert ("odd" in odd) and ("even" in even)


class TestMinHash:
    def test_identical_documents_full_similarity(self):
        text = "module m(input a); assign y = a; endmodule"
        assert jaccard_similarity(text, text) == 1.0

    def test_disjoint_documents_zero_similarity(self):
        assert jaccard_similarity("alpha beta gamma delta", "one two three four") == 0.0

    def test_empty_documents(self):
        assert jaccard_similarity("", "") == 1.0
        assert jaccard_similarity("a b c", "") == 0.0

    def test_signature_deterministic(self):
        text = "module m; wire x; endmodule"
        a = minhash_signature(text, 32)
        b = minhash_signature(text, 32)
        assert (a == b).all()

    def test_estimated_jaccard_close_to_exact(self):
        a = "module m(input clk, input rst, output reg [3:0] q); always @(posedge clk) q <= q + 1; endmodule"
        b = "module m(input clk, input rst, output reg [3:0] q); always @(posedge clk) q <= q + 2; endmodule"
        exact = jaccard_similarity(a, b)
        estimate = estimated_jaccard(minhash_signature(a, 128), minhash_signature(b, 128))
        assert abs(exact - estimate) < 0.25

    def test_deduplicator_drops_near_duplicates(self):
        base = "module m(input clk, input [7:0] d, output reg [7:0] q); always @(posedge clk) q <= d; endmodule"
        near = base.replace("    ", "  ")
        different = "module alu(input [3:0] a, input [3:0] b, output [3:0] y); assign y = a + b; endmodule"
        kept, duplicates = MinHashDeduplicator(threshold=0.7).deduplicate([base, near, different])
        assert 0 in kept and 2 in kept
        assert 1 not in kept
        assert duplicates == [(0, 1)]

    def test_deduplicator_keeps_distinct(self):
        docs = [
            "module a(input x, output y); assign y = x; endmodule",
            "module b(input clk, output reg [7:0] count); always @(posedge clk) count <= count + 1; endmodule",
            "module c(input [3:0] p, input [3:0] q, output [3:0] r); assign r = p & q; endmodule",
        ]
        kept, duplicates = MinHashDeduplicator(threshold=0.8).deduplicate(docs)
        assert kept == [0, 1, 2]
        assert duplicates == []

    def test_bands_must_divide_permutations(self):
        with pytest.raises(ValueError):
            MinHashDeduplicator(num_permutations=60, bands=16)

    @settings(max_examples=20, deadline=None)
    @given(st.text(alphabet="abcdefg hij;()", min_size=10, max_size=100))
    def test_self_similarity_is_one(self, text):
        """Property: every document estimates similarity 1.0 with itself."""
        signature = minhash_signature(text, 32)
        assert estimated_jaccard(signature, signature) == 1.0


class TestRefinement:
    def test_split_into_modules(self):
        source = "module a; endmodule\n// comment\nmodule b; endmodule\n"
        modules = split_into_modules(source)
        assert len(modules) == 2
        assert modules[0].startswith("module a")

    def test_split_ignores_trailing_garbage(self):
        modules = split_into_modules("module a; endmodule\nmodule broken_without_end")
        assert len(modules) == 1

    def test_structure_check(self):
        assert has_complete_module_structure("module m; endmodule")
        assert not has_complete_module_structure("module m; ")
        assert not has_complete_module_structure("// nothing")

    def test_comment_fraction(self):
        assert comment_fraction("// all comment\n") > 0.9
        assert comment_fraction("wire x;\n") == 0.0
        assert comment_fraction("") == 1.0

    def test_full_pipeline_keeps_clean_items(self):
        corpus = SyntheticVerilogCorpus(CorpusConfig(num_items=30, seed=4))
        report = refine_corpus(corpus.generate())
        assert report.kept > 0
        assert report.kept <= report.after_module_split
        assert report.kept == len(report.examples)
        for example in report.examples:
            assert check_syntax(example.output).ok
            assert FRAG in example.output_with_frag

    def test_pipeline_removes_corrupted_items(self):
        corpus = SyntheticVerilogCorpus(CorpusConfig(num_items=20, seed=4, corrupted_fraction=0.3))
        report = refine_corpus(corpus.generate())
        assert report.removed_syntax + report.removed_structure_filter + report.removed_comment_filter > 0

    def test_pipeline_removes_duplicates(self):
        corpus = SyntheticVerilogCorpus(CorpusConfig(num_items=20, seed=4, duplicate_fraction=0.3))
        report = refine_corpus(corpus.generate())
        assert report.removed_duplicates > 0

    def test_report_totals_consistent(self):
        corpus = SyntheticVerilogCorpus(CorpusConfig(num_items=25, seed=9, corrupted_fraction=0.2, duplicate_fraction=0.2))
        report = refine_corpus(corpus.generate())
        removed = (
            report.removed_structure_filter
            + report.removed_comment_filter
            + report.removed_duplicates
            + report.removed_syntax
        )
        assert report.kept + removed == report.after_module_split


class TestAlpaca:
    def _examples(self, count=12):
        corpus = SyntheticVerilogCorpus(CorpusConfig(num_items=count, seed=2))
        return refine_corpus(corpus.generate()).examples

    def test_build_dataset_fields(self):
        examples = self._examples()
        assert examples
        example = examples[0]
        assert example.instruction
        assert example.output
        assert FRAG in example.output_with_frag
        assert example.prompt_text().startswith("Please act as a professional Verilog designer.")

    def test_subset_fractions_nested(self):
        examples = self._examples(30)
        subsets = subset_fractions(examples, fractions=(0.25, 0.5, 1.0), seed=1)
        quarter = {e.name for e in subsets[0.25]}
        half = {e.name for e in subsets[0.5]}
        full = {e.name for e in subsets[1.0]}
        assert quarter <= half <= full
        assert len(subsets[1.0]) == len(examples)

    def test_subset_sizes(self):
        examples = self._examples(30)
        subsets = subset_fractions(examples, fractions=(0.5,), seed=0)
        assert len(subsets[0.5]) == max(1, round(0.5 * len(examples)))

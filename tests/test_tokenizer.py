"""Tests for the vocabulary and BPE tokenizer."""

import pytest
from hypothesis import given, settings, strategies as st

from proptest import for_all, num_cases
from repro.constrained.mask import grammar_mask
from repro.data.corpus import CorpusConfig, SyntheticVerilogCorpus
from repro.tokenizer.bpe import BPETokenizer
from repro.tokenizer.vocab import SpecialTokens, Vocabulary
from repro.verilog.fragments import FRAG, insert_frag_markers


CORPUS = [
    "module data_register (input clk, input [3:0] data_in, output reg [3:0] data_out);",
    "always @(posedge clk) begin data_out <= data_in; end endmodule",
    "module counter (input clk, input rst, output reg [7:0] count);",
    "if (rst) count <= 0; else count <= count + 1;",
    "assign sum = a + b; assign carry = a & b;",
    "Write a Verilog module named counter that counts up by one.",
]


@pytest.fixture(scope="module")
def trained_tokenizer():
    tokenizer = BPETokenizer()
    tokenizer.train(CORPUS, vocab_size=300)
    return tokenizer


class TestVocabulary:
    def test_special_tokens_have_fixed_ids(self):
        vocab = Vocabulary()
        assert vocab.pad_id == 0
        assert vocab.unk_id == 1
        assert vocab.bos_id == 2
        assert vocab.eos_id == 3
        assert vocab.frag_id == 4
        assert vocab.ignore_id == 5

    def test_add_is_idempotent(self):
        vocab = Vocabulary()
        first = vocab.add("module")
        second = vocab.add("module")
        assert first == second

    def test_unknown_token_maps_to_unk(self):
        vocab = Vocabulary()
        assert vocab.token_to_id("never_seen") == vocab.unk_id

    def test_id_round_trip(self):
        vocab = Vocabulary(["alpha", "beta"])
        assert vocab.id_to_token(vocab.token_to_id("beta")) == "beta"

    def test_out_of_range_id(self):
        vocab = Vocabulary()
        assert vocab.id_to_token(10_000) == vocab.special.unk

    def test_contains(self):
        vocab = Vocabulary(["x"])
        assert "x" in vocab
        assert "y" not in vocab


class TestBPETraining:
    def test_vocab_size_respected(self, trained_tokenizer):
        assert trained_tokenizer.vocab_size <= 300

    def test_learns_merges(self, trained_tokenizer):
        assert len(trained_tokenizer.merges) > 0

    def test_frequent_words_become_single_tokens(self, trained_tokenizer):
        pieces = trained_tokenizer.encode_to_tokens("module")
        assert len(pieces) <= 3

    def test_min_frequency_limits_merges(self):
        tokenizer = BPETokenizer()
        tokenizer.train(["abcd efgh"], vocab_size=500, min_frequency=2)
        # Every pair occurs once, so no merges should be learned.
        assert tokenizer.merges == []


class TestEncodingDecoding:
    def test_encode_decode_round_trip_tokens(self, trained_tokenizer):
        text = "module counter (input clk);"
        decoded = trained_tokenizer.decode(trained_tokenizer.encode(text))
        assert decoded.split() == text.split()

    def test_frag_is_single_token(self, trained_tokenizer):
        ids = trained_tokenizer.encode(f"{FRAG}module{FRAG}")
        tokens = [trained_tokenizer.vocab.id_to_token(i) for i in ids]
        assert tokens.count(FRAG) == 2

    def test_frag_never_merges_with_code(self, trained_tokenizer):
        annotated = insert_frag_markers("module m(input a, output b); assign b = a; endmodule\n")
        ids = trained_tokenizer.encode(annotated)
        tokens = [trained_tokenizer.vocab.id_to_token(i) for i in ids]
        for token in tokens:
            assert token == FRAG or FRAG not in token

    def test_decode_strips_frag_when_asked(self, trained_tokenizer):
        ids = trained_tokenizer.encode(f"{FRAG}module{FRAG} m;")
        code = trained_tokenizer.decode(ids, keep_frag=False)
        assert FRAG not in code
        assert "module" in code

    def test_bos_eos(self, trained_tokenizer):
        ids = trained_tokenizer.encode("module", add_bos=True, add_eos=True)
        assert ids[0] == trained_tokenizer.vocab.bos_id
        assert ids[-1] == trained_tokenizer.vocab.eos_id

    def test_pad_and_ignore_dropped_in_decode(self, trained_tokenizer):
        vocab = trained_tokenizer.vocab
        ids = [vocab.pad_id, vocab.ignore_id] + trained_tokenizer.encode("wire x;")
        assert trained_tokenizer.decode(ids).strip().startswith("wire")

    def test_unknown_characters_become_unk(self, trained_tokenizer):
        ids = trained_tokenizer.encode("ééé")
        assert all(isinstance(i, int) for i in ids)

    def test_newlines_preserved(self, trained_tokenizer):
        text = "module m;\nwire x;\nendmodule"
        decoded = trained_tokenizer.decode(trained_tokenizer.encode(text))
        assert decoded.count("\n") == text.count("\n")

    def test_empty_text(self, trained_tokenizer):
        assert trained_tokenizer.encode("") == []
        assert trained_tokenizer.decode([]) == ""

    def test_encode_prompt_is_bos_then_the_text(self, trained_tokenizer):
        text = "Write a Verilog module named counter."
        assert trained_tokenizer.encode_prompt(text) == trained_tokenizer.encode(text, add_bos=True)

    def test_save_load_round_trip(self, trained_tokenizer, tmp_path):
        path = tmp_path / "tok.json"
        trained_tokenizer.save(path)
        loaded = BPETokenizer.load(path)
        text = "always @(posedge clk) begin count <= count + 1; end"
        assert loaded.encode(text) == trained_tokenizer.encode(text)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.sampled_from(
            ["module", "endmodule", "input", "output", "wire", "reg", "clk", "data_in", "count", "assign",
             "=", "<=", ";", "(", ")", "[3:0]", "+", "1'b1", "posedge", "begin", "end"]
        ),
        min_size=1,
        max_size=30,
    )
)
def test_round_trip_preserves_token_stream(words):
    """Property: decoding re-produces the same whitespace-separated words."""
    tokenizer = BPETokenizer()
    tokenizer.train(CORPUS + [" ".join(words)], vocab_size=350)
    text = " ".join(words)
    decoded = tokenizer.decode(tokenizer.encode(text))
    assert decoded.split() == text.split()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 1000))
def test_frag_annotation_round_trip_through_tokenizer(seed):
    """Property: [FRAG]-annotated corpus code keeps its marker count through encode/decode."""
    from repro.data.corpus import CorpusConfig, SyntheticVerilogCorpus

    corpus = SyntheticVerilogCorpus(CorpusConfig(seed=3))
    item = corpus.generate_item("register", seed)
    annotated = insert_frag_markers(item.code)
    tokenizer = BPETokenizer()
    tokenizer.train([annotated, item.code], vocab_size=400)
    ids = tokenizer.encode(annotated)
    decoded = tokenizer.decode(ids, keep_frag=True)
    assert decoded.count(FRAG) == annotated.count(FRAG)


class TestPieceTables:
    """``decode`` is a join over the tokenizer's per-id piece tables, and the
    grammar mask constrains the code table itself."""

    def test_decode_is_the_join_of_the_piece_tables(self, trained_tokenizer):
        size = trained_tokenizer.vocab_size
        unk = trained_tokenizer.special.unk

        def property_fn(cases):
            ids = [cases.integer(-3, size + 3) for _ in range(cases.integer(0, 40))]
            for keep_frag in (True, False):
                pieces = trained_tokenizer.piece_table(keep_frag)
                expected = "".join(pieces[i] if 0 <= i < size else unk for i in ids)
                assert trained_tokenizer.decode(ids, keep_frag=keep_frag) == expected
            # No ordinary piece of this vocabulary spells the marker, so the
            # code view is also the marker-free text.
            assert trained_tokenizer.decode(ids, keep_frag=False) == trained_tokenizer.decode(ids).replace(FRAG, "")

        for_all(num_cases(40, 400), property_fn, seed=42)

    def test_out_of_range_ids_decode_to_unk(self, trained_tokenizer):
        size = trained_tokenizer.vocab_size
        for keep_frag in (True, False):
            assert trained_tokenizer.decode([-1, size, -size], keep_frag=keep_frag) == "[UNK]" * 3

    def test_the_mask_reads_the_tokenizers_code_table(self, trained_tokenizer):
        table = trained_tokenizer.piece_table(keep_frag=False)
        assert table is trained_tokenizer.piece_table(keep_frag=False)
        assert grammar_mask("verilog", trained_tokenizer)._pieces is table
        vocab = trained_tokenizer.vocab
        assert table[vocab.frag_id] == "" and trained_tokenizer.piece_table(keep_frag=True)[vocab.frag_id] == FRAG

    def test_tables_follow_a_growing_vocabulary(self):
        tokenizer = BPETokenizer()
        assert len(tokenizer.piece_table(keep_frag=False)) == len(tokenizer.vocab)
        tokenizer.train(CORPUS, vocab_size=120)
        assert len(tokenizer.piece_table(keep_frag=False)) == tokenizer.vocab_size
        ids = tokenizer.encode("module counter;")
        assert tokenizer.decode(ids) == "module counter;"

    def test_ordinary_pieces_spelling_the_marker_stay_in_the_code_view(self):
        """Only the ``[FRAG]`` token is dropped from code: ordinary pieces that
        happen to spell ``[FRAG]`` are text like any other."""
        tokenizer = BPETokenizer()
        tokenizer.train(["[FRAGMENT]"], vocab_size=20, min_frequency=2)
        ids = [tokenizer.vocab.token_to_id(ch) for ch in "[FRAG]"]
        assert tokenizer.vocab.unk_id not in ids and tokenizer.vocab.frag_id not in ids
        assert tokenizer.decode(ids, keep_frag=False) == FRAG
        assert tokenizer.decode(ids + [tokenizer.vocab.frag_id], keep_frag=False) == FRAG
        assert tokenizer.decode(ids + [tokenizer.vocab.frag_id], keep_frag=True) == FRAG + FRAG


def test_one_marker_literal_for_the_data_and_the_tokenizer():
    """The marker the training data is annotated with is the tokenizer's
    atomic special token: every marker encodes to ``frag_id``."""
    assert SpecialTokens().frag is FRAG
    corpus = SyntheticVerilogCorpus(CorpusConfig(seed=3))
    items = [corpus.generate_item(family, seed) for family in ("register", "counter") for seed in range(3)]
    annotated = [insert_frag_markers(item.code) for item in items]
    tokenizer = BPETokenizer()
    tokenizer.train(annotated, vocab_size=400)
    frag_id = tokenizer.vocab.frag_id
    for text in annotated:
        ids = tokenizer.encode(text)
        assert ids.count(frag_id) == text.count(FRAG) > 0
        assert all(FRAG not in tokenizer.vocab.id_to_token(i) for i in ids if i != frag_id)

"""Tests for grammar-constrained decoding (:mod:`repro.constrained`).

Four layers:

* **viability** — :func:`classify_prefix` against hand-picked prefixes,
  including the cases that forced the witness-based rules (``endmodule`` is
  dead even though its last token is "extendable"; ``begin`` survives as a
  module item only because it can grow into an instantiation identifier; a
  dangling partial number in a port list is dead even though the *token*
  could be finished), plus closure round-trips;
* **mask mechanics** — piece table, EOS gating, snapshot/restore, the
  tree-candidate pre-filter, and the rng-identity contract of
  ``masked_sample`` (the inert mask consumes exactly the unconstrained
  generator state);
* **identity properties** — whenever an unconstrained decode is
  grammar-clean at every committed step, the constrained decode of the same
  request is byte-identical (grammar on/off x greedy/sampling x tree on/off
  x sequential/serving);
* **fuzz** — masked decoding never emits an unparseable prefix and always
  finishes on a complete design, across random seeds and prompts.

Satellite regressions (fallback-rng statefulness, the ``check_syntax``
module guard, pass@k strictness) live here too.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from proptest import for_all, num_cases

from repro.constrained import (
    PrefixVerdict,
    SyntaxMaskState,
    classify_prefix,
    clear_viability_caches,
    completion_suffix,
    closure_token_ids,
    grammar_mask,
    is_complete_source,
    is_viable_prefix,
    masked_argmax,
    masked_choice,
    masked_sample,
    prefilter_candidates,
)
from repro.core.decoding import DecodingStrategy, SpeculativeDecoder
from repro.evalbench import EvaluationRunner, QualityReport
from repro.evalbench.passk import pass_at_k, pass_at_k_single
from repro.evalbench.rtllm import rtllm_suite
from repro.evalbench.problems import ProblemSuite
from repro.models.generation import GenerationConfig, sample_from_logits
from repro.serving import ServingEngine
from repro.verilog.lexer import Lexer, LexerError
from repro.verilog.parser import parse_source
from repro.verilog.syntax import check_syntax


# --------------------------------------------------------------------------- #
# Viable-prefix classification
# --------------------------------------------------------------------------- #


#: Valid sources whose every prefix must stay viable: a ``/`` that may still
#: open a comment where division is illegal, a ``.`` or an ``e`` that may
#: still grow into a real literal, and text inside a ``//`` comment.
COMPLETE_SOURCES = [
    "module top(a, b, y);\n  wire t;\n  assign t = a & b;\n  assign y = ~t;\nendmodule\n",
    "module top(a, y); // note\n  input a; /* note */\n  output y;\n"
    "  always @(a) begin // note\n  end\n  assign y = a / 2;\nendmodule\n",
    "module t;\n  reg r;\n  initial begin\n    #1.5 r = 1;\n  end\nendmodule\n",
    "module t;\n  real r;\n  initial r = 2.5e3;\nendmodule\n",
]


class TestClassifyPrefix:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "  \n\t",
            "// a comment\n",
            "/* block */",
            "module",
            "module m",
            "module m;",
            "module m(",
            "module m(a, b);",
            "module m; wire w;",
            "module m; assign w =",
            "module m; assign w = a &",
            "module m; always @(posedge clk) begin",
            "module m; endmodul",  # identifier may still grow into the keyword
            "module m; wire w; assign w = 4'",  # partial number, legal position
            "module m; /* open comment",
            'module m; initial $display("open string',
        ],
    )
    def test_viable(self, text):
        assert classify_prefix(text) is PrefixVerdict.VIABLE
        assert is_viable_prefix(text)

    @pytest.mark.parametrize(
        "text",
        [
            "module m; endmodule",
            "module m(a, b); assign a = b; endmodule",
            "// header\nmodule m; wire w; endmodule\n",
        ],
    )
    def test_complete(self, text):
        assert classify_prefix(text) is PrefixVerdict.COMPLETE
        assert is_complete_source(text)
        assert is_viable_prefix(text)  # complete sources are trivially viable

    @pytest.mark.parametrize(
        "text",
        [
            "endmodule",  # extendable last token, but every extension is dead
            "wire w;",
            "module m; endmodule endmodule",
            "module m; @",  # '@' cannot start a module item
            "module m; assign a <",  # continuous assign takes only '='
            "module 4",
            "\nmodule multiple( mux\n'S",  # partial number dead in a port list
        ],
    )
    def test_invalid(self, text):
        assert classify_prefix(text) is PrefixVerdict.INVALID
        assert not is_viable_prefix(text)

    def test_begin_survives_as_instantiation_prefix(self):
        # 'begin' is not a legal module item, but the token may still grow
        # into an identifier ('beginx') opening a module instantiation — the
        # witness-based extendable retry must find that continuation.
        assert classify_prefix("module m; begin") is PrefixVerdict.VIABLE

    def test_prefix_closure_along_complete_source(self):
        """Every prefix of a valid source is viable (the mask's core invariant)."""
        for source in COMPLETE_SOURCES:
            assert is_complete_source(source)
            for cut in range(len(source) + 1):
                assert classify_prefix(source[:cut]) is not PrefixVerdict.INVALID, source[:cut]

    def test_every_prefix_of_a_complete_source_closes(self):
        for source in COMPLETE_SOURCES:
            for cut in range(len(source) + 1):
                suffix = completion_suffix(source[:cut])
                assert suffix is not None and is_complete_source(source[:cut] + suffix), source[:cut]

    def test_based_literal_without_digits_at_the_end_stays_viable(self):
        """``4'd`` at end of input is an incomplete NUMBER: healed with a digit, not parsed as-is."""
        text = "module m(output [3:0] y); assign y = 4'd"
        assert classify_prefix(text) is PrefixVerdict.VIABLE
        assert is_complete_source(text + completion_suffix(text))

    def test_lexer_partial_number_raises_lexer_error(self):
        """``4'`` at end of input is a LexerError anchored at the end, not a KeyError crash."""
        lexer = Lexer("assign w = 4'")
        assert isinstance(lexer.error, LexerError)
        assert lexer.error_pos == len("assign w = 4'")


class TestCompletionSuffix:
    @pytest.mark.parametrize(
        "prefix",
        [
            "module m;",
            "module m",
            "module counter(clk, rst);",
            "module m; wire w;",
            "module m; assign w =",
            "module m; always @(posedge clk) begin",
            "module m; /* open comment",
            "module m; wire w; assign w = 4'",
            "module m; // note",
            "module m; wire w; // a /* b",
        ],
    )
    def test_closure_completes(self, prefix):
        suffix = completion_suffix(prefix)
        assert suffix is not None
        assert is_complete_source(prefix + suffix)

    def test_complete_source_needs_no_suffix(self):
        assert completion_suffix("module m; endmodule") == ""

    def test_dead_prefix_has_no_closure(self):
        assert completion_suffix("endmodule") is None

    def test_only_a_closure_after_a_line_comment_starts_with_a_newline(self):
        assert completion_suffix("module m; // note") == "\nendmodule"
        assert completion_suffix("module m; /* // */") == " endmodule"
        assert completion_suffix("module m; // note\n") == " endmodule"


# --------------------------------------------------------------------------- #
# One scan per probed text
# --------------------------------------------------------------------------- #


def _lexed_sources(run):
    """The source of every ``Lexer`` built while ``run()`` runs, in order."""
    constructor = Lexer.__init__.__code__
    sources = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is constructor:
            sources.append(frame.f_locals["source"])

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return sources


class TestOneScanPerText:
    def test_the_counter_sees_every_lexer(self):
        assert _lexed_sources(lambda: Lexer("wire a;")) == ["wire a;"]
        assert _lexed_sources(lambda: parse_source("module m; endmodule")) == ["module m; endmodule"]
        assert _lexed_sources(lambda: [Lexer(text) for text in ("a", "b", "a")]) == ["a", "b", "a"]

    @pytest.mark.parametrize(
        "text",
        [
            "module m; wire w;",
            "module m; endmodule",
            "module m; @",
            "// note",
            "module m; assign w = a &",
            # ``begin`` is illegal here and would grow into ``beginx``, but
            # trivia follows it, so no extension is probed: not a space on
            # its line, nor a newline with EOF in the column right after it.
            "module m; begin ",
            "module m; begin\n" + " " * len("module m; begin"),
        ],
    )
    def test_classify_prefix_lexes_a_fresh_text_once(self, text):
        clear_viability_caches()
        assert _lexed_sources(lambda: classify_prefix(text)) == [text]

    @pytest.mark.parametrize(
        "text",
        [
            "module m; always @(posedge clk) begin",
            "module m; /* open comment",
            "module m; endmodul",
            "module m; initial begin /",
            "module m; // note",
        ],
    )
    def test_completion_suffix_lexes_each_probed_text_once(self, text):
        clear_viability_caches()
        sources = _lexed_sources(lambda: completion_suffix(text))
        assert sources[0] == text
        assert len(sources) == len(set(sources)), sources
        assert is_complete_source(text + completion_suffix(text))


# --------------------------------------------------------------------------- #
# Mask mechanics
# --------------------------------------------------------------------------- #


class TestSyntaxMaskState:
    def test_grammar_registry(self, tiny_pipeline):
        tokenizer = tiny_pipeline.tokenizer
        assert grammar_mask(None, tokenizer) is None
        assert isinstance(grammar_mask("verilog", tokenizer), SyntaxMaskState)
        with pytest.raises(ValueError):
            grammar_mask("vhdl", tokenizer)

    def test_piece_table(self, tiny_pipeline):
        tokenizer = tiny_pipeline.tokenizer
        pieces = tokenizer.piece_table(keep_frag=False)
        assert len(pieces) == tokenizer.vocab_size
        assert pieces is tokenizer.piece_table(keep_frag=False)  # built once per vocabulary
        vocab = tokenizer.vocab
        for special in (vocab.pad_id, vocab.bos_id, vocab.eos_id, vocab.ignore_id):
            assert pieces[special] == ""
        # Pieces concatenate to exactly the keep_frag=False decode.
        ids = tokenizer.encode("module m; endmodule", add_bos=False)
        assert "".join(pieces[i] for i in ids) == tokenizer.decode(ids, keep_frag=False)

    def test_eos_gating(self, tiny_pipeline):
        tokenizer = tiny_pipeline.tokenizer
        mask = grammar_mask("verilog", tokenizer)
        assert not mask.allows(mask.eos_id)  # empty text: nothing to finish
        for token_id in tokenizer.encode("module m; endmodule", add_bos=False):
            mask.advance(token_id)
        assert mask.is_complete()
        assert mask.allows(mask.eos_id)

    def test_blocked_specials(self, tiny_pipeline):
        tokenizer = tiny_pipeline.tokenizer
        vocab = tokenizer.vocab
        mask = grammar_mask("verilog", tokenizer)
        for blocked in (vocab.pad_id, vocab.bos_id, vocab.unk_id, vocab.ignore_id):
            assert not mask.allows(blocked)
        # [FRAG] contributes no text, so it can never break the prefix.
        assert mask.allows(vocab.token_to_id(tokenizer.special.frag))

    def test_snapshot_restore(self, tiny_pipeline):
        tokenizer = tiny_pipeline.tokenizer
        mask = grammar_mask("verilog", tokenizer)
        for token_id in tokenizer.encode("module m;", add_bos=False):
            mask.advance(token_id)
        base_text = mask.text
        mark = mask.snapshot()
        for token_id in tokenizer.encode(" wire w;", add_bos=False):
            mask.advance(token_id)
        assert mask.text != base_text
        mask.restore(mark)
        assert mask.text == base_text

    def test_allowed_token_ids_matches_allows(self, tiny_pipeline):
        tokenizer = tiny_pipeline.tokenizer
        mask = grammar_mask("verilog", tokenizer)
        for token_id in tokenizer.encode("module m; endmodul", add_bos=False):
            mask.advance(token_id)
        candidates = list(range(0, tokenizer.vocab_size, 7))
        subset = mask.allowed_token_ids(candidates)
        assert subset == [t for t in candidates if mask.allows(t)]
        assert set(subset) <= set(mask.allowed_token_ids())

    def test_closure_token_ids_completes_text(self, tiny_pipeline):
        tokenizer = tiny_pipeline.tokenizer
        mask = grammar_mask("verilog", tokenizer)
        for token_id in tokenizer.encode("module m; wire w;", add_bos=False):
            mask.advance(token_id)
        ids = closure_token_ids(mask, tokenizer)
        assert ids  # an open module needs closing
        assert mask.is_complete()  # closure advanced the mask through its own ids
        assert closure_token_ids(mask, tokenizer) == []  # idempotent once complete


class TestPrefilterCandidates:
    def _mask(self):
        # Synthetic vocabulary: index -> piece.  Index 5 is illegal after
        # 'module m;' ('@' cannot start a module item); eos_id points past
        # the table so EOS never collides with a real candidate.
        pieces = ["", "module ", "m", ";", " endmodule", " @", " wire w;"]
        return SyntaxMaskState(pieces, eos_id=99)

    def test_none_mask_is_identity(self):
        candidates = [[1, 2], [3]]
        assert prefilter_candidates(candidates, None) is candidates

    def test_cuts_at_first_disallowed(self):
        mask = self._mask()
        filtered = prefilter_candidates([[1, 2, 3, 4], [1, 2, 3, 5, 4]], mask)
        assert filtered == [[1, 2, 3, 4], [1, 2, 3]]

    def test_restores_mask_state(self):
        mask = self._mask()
        before = mask.snapshot()
        text = mask.text
        prefilter_candidates([[1, 2, 3], [5]], mask)
        assert mask.snapshot() == before
        assert mask.text == text

    def test_all_dead_keeps_one_token(self):
        mask = self._mask()
        # Both candidates start with an illegal piece: keep the proposal's
        # single best first token so the verify step still advances.
        assert prefilter_candidates([[5, 1], [5, 2]], mask) == [[5]]

    def test_drops_emptied_candidates(self):
        mask = self._mask()
        filtered = prefilter_candidates([[1, 2], [5, 1]], mask)
        assert filtered == [[1, 2]]


class TestMaskedSampling:
    def test_masked_argmax_identity_when_allowed(self):
        logits = np.array([0.1, 2.0, -1.0, 0.5])
        always = SyntaxMaskState([""] * 4, eos_id=99)
        assert masked_argmax(logits, None) == 1
        assert masked_argmax(logits, always) == 1

    def test_masked_argmax_falls_to_next_best(self):
        # Piece table where the argmax token is grammar-illegal from "".
        pieces = ["endmodule", "module ", " @", ""]
        mask = SyntaxMaskState(pieces, eos_id=99)
        logits = np.array([5.0, 1.0, 0.5, 0.0])
        assert masked_argmax(logits, mask) == 1

    def test_masked_choice_first_draw_matches_unconstrained_rng(self):
        probabilities = np.array([0.1, 0.5, 0.2, 0.2])
        inert = SyntaxMaskState([""] * 4, eos_id=99)
        rng_a = np.random.default_rng(7)
        rng_b = np.random.default_rng(7)
        unconstrained = int(rng_a.choice(4, p=probabilities))
        assert masked_choice(probabilities, rng_b, inert) == unconstrained
        # Identical generator state afterwards: the streams stay in lockstep.
        assert rng_a.integers(1 << 30) == rng_b.integers(1 << 30)

    def test_masked_sample_none_mask_is_sample_from_logits(self):
        logits = np.random.default_rng(0).normal(size=32)
        config = GenerationConfig.sampling_config(0.8, 8, seed=3)
        rng_a = np.random.default_rng(11)
        rng_b = np.random.default_rng(11)
        assert masked_sample(logits, config, rng_a, None) == sample_from_logits(logits, config, rng_b)

    def test_masked_choice_samples_conditional_distribution(self):
        # Token 0 is illegal; the constrained draw must land on 1/2 with the
        # renormalised odds (statistical smoke check, fixed seed).
        pieces = ["endmodule", "module ", "// c\n"]
        mask = SyntaxMaskState(pieces, eos_id=99)
        probabilities = np.array([0.5, 0.375, 0.125])
        rng = np.random.default_rng(0)
        draws = [masked_choice(probabilities, rng, mask) for _ in range(400)]
        assert 0 not in draws
        share = draws.count(1) / len(draws)
        assert 0.6 < share < 0.9  # expected 0.75


# --------------------------------------------------------------------------- #
# Satellite regressions
# --------------------------------------------------------------------------- #


class TestCheckSyntaxModuleGuard:
    @pytest.mark.parametrize("source", ["", "   \n", "// only a comment\n", "/* block */ // more\n"])
    def test_module_free_source_fails(self, source):
        result = check_syntax(source)
        assert not result.ok
        assert result.module_names == []

    def test_single_module_passes(self):
        result = check_syntax("module m; endmodule")
        assert result.ok
        assert result.module_names == ["m"]


class TestPassAtKStrictness:
    def test_equation_five_values(self):
        assert pass_at_k_single(10, 3, 1) == pytest.approx(0.3)
        assert pass_at_k_single(4, 2, 2) == pytest.approx(1.0 - 1.0 / 6.0)
        assert pass_at_k_single(5, 0, 3) == 0.0
        assert pass_at_k_single(5, 5, 1) == 1.0
        assert pass_at_k_single(0, 0, 1) == 0.0
        assert pass_at_k_single(6, 4, 3) == 1.0  # n - c < k: certain hit

    def test_oversized_k_raises(self):
        with pytest.raises(ValueError, match="pass@10 requested with only n=5"):
            pass_at_k_single(5, 2, 10)
        with pytest.raises(ValueError, match="k <= n"):
            pass_at_k([[True, False]], 3)

    def test_invalid_counts_raise(self):
        with pytest.raises(ValueError):
            pass_at_k_single(3, 4, 1)
        with pytest.raises(ValueError):
            pass_at_k_single(3, 1, 0)

    def test_runner_rejects_oversized_k_at_init(self, tiny_pipeline):
        with pytest.raises(ValueError, match=r"k_values \[5\] exceed samples_per_prompt=3"):
            EvaluationRunner(tiny_pipeline.decoder_for("ours"), samples_per_prompt=3, k_values=(1, 5))

    def test_report_row_has_only_the_computed_columns(self):
        report = QualityReport(
            suite="s",
            label="l",
            num_prompts=1,
            samples_per_prompt=3,
            syntax_pass_at_k={1: 0.5},
            function_pass_at_k={1: 0.25, 2: 0.5},
            syntax_pass_rate=1.0,
            function_pass_rate=0.75,
        )
        assert report.row("function") == {"pass@1": 25.0, "pass@2": 50.0, "pass_rate": 75.0}
        assert report.row("syntax") == {"pass@1": 50.0, "pass_rate": 100.0}


# --------------------------------------------------------------------------- #
# End-to-end identity, syntax guarantee, verified savings
# --------------------------------------------------------------------------- #


def _first_intervention(token_ids, tokenizer):
    """Replay an unconstrained trace through a fresh mask; index of the first
    token the mask would have blocked (``len(token_ids)`` when it never
    intervenes)."""
    mask = grammar_mask("verilog", tokenizer)
    for index, token_id in enumerate(token_ids):
        if not mask.allows(token_id):
            return index
        mask.advance(token_id)
    return len(token_ids)


class TestConstrainedDecoding:
    @pytest.mark.parametrize("greedy", [False, True])
    def test_constrained_output_always_parses(self, tiny_pipeline, greedy):
        decoder = tiny_pipeline.decoder_for("ours")
        for example in tiny_pipeline.examples[:3]:
            if greedy:
                config = GenerationConfig.greedy_config(48, grammar="verilog")
            else:
                config = GenerationConfig.sampling_config(0.8, 48, seed=13, grammar="verilog")
            result = decoder.generate_from_text(example.prompt_text(), config)
            assert check_syntax(result.code).ok, result.code

    @pytest.mark.parametrize("method", ["ntp", "ours"])
    def test_inert_mask_token_identity(self, tiny_pipeline, method):
        """While the mask is inert, grammar='verilog' is byte-identical.

        Under greedy decoding every accepted speculative prefix lies on the
        base model's unique argmax chain, so the constrained run must match
        the unconstrained one token for token up to the first position the
        mask actually blocks (and the whole trace when it never blocks)."""
        decoder = tiny_pipeline.decoder_for(method)
        tokenizer = tiny_pipeline.tokenizer
        inert_tokens = 0
        for example in tiny_pipeline.examples[:6]:
            config = GenerationConfig.greedy_config(40)
            baseline = decoder.generate_from_text(example.prompt_text(), config)
            cut = _first_intervention(baseline.token_ids, tokenizer)
            constrained = decoder.generate_from_text(
                example.prompt_text(),
                GenerationConfig.greedy_config(40, grammar="verilog"),
            )
            assert constrained.token_ids[:cut] == baseline.token_ids[:cut]
            inert_tokens += cut
        assert inert_tokens > 0  # the property must not hold vacuously

    def test_inert_prefix_identity_against_goldens(self, tiny_pipeline):
        """The pinned golden traces themselves bound the constrained run: up
        to the first masked position, constrained decoding reproduces the
        golden token stream exactly."""
        import json
        from pathlib import Path

        fixture = json.loads((Path(__file__).parent / "golden" / "ours.json").read_text())
        decoder = tiny_pipeline.decoder_for("ours")
        tokenizer = tiny_pipeline.tokenizer
        checked = 0
        for case in fixture["cases"]:
            spec = case["config"]
            if not spec["greedy"]:
                continue
            config = GenerationConfig(
                max_new_tokens=spec["max_new_tokens"],
                temperature=spec["temperature"],
                seed=spec["seed"],
                grammar="verilog",
            )
            for prompt, expected in zip(fixture["prompts"], case["outputs"]):
                cut = _first_intervention(expected, tokenizer)
                result = decoder.generate_from_text(prompt, config)
                assert result.token_ids[:cut] == expected[:cut]
                checked += cut
        assert checked > 0

    def test_grammar_none_bitwise_unchanged(self, tiny_pipeline):
        """grammar=None goes through the exact pre-change code paths."""
        decoder = tiny_pipeline.decoder_for("ours")
        prompt = tiny_pipeline.examples[0].prompt_text()
        for config in (
            GenerationConfig.greedy_config(32),
            GenerationConfig.sampling_config(0.8, 32, seed=4),
        ):
            first = decoder.generate_from_text(prompt, config)
            second = decoder.generate_from_text(prompt, config)
            assert first.token_ids == second.token_ids
            assert first.tokens_verified == first.tokens_verified_unpruned
            assert first.closure_tokens == 0

    def test_verified_positions_strictly_drop(self, tiny_pipeline):
        """The grammar pre-filter verifies strictly fewer positions than the
        same run would have verified unpruned (ours strategy, all prompts)."""
        decoder = tiny_pipeline.decoder_for("ours")
        total_verified = 0
        total_unpruned = 0
        for example in tiny_pipeline.examples:
            config = GenerationConfig.greedy_config(48, grammar="verilog")
            result = decoder.generate_from_text(example.prompt_text(), config)
            total_verified += result.tokens_verified
            total_unpruned += result.tokens_verified_unpruned
        assert total_verified < total_unpruned

    @pytest.mark.parametrize(
        "method,strategy",
        [("ntp", DecodingStrategy.NTP), ("medusa", DecodingStrategy.MEDUSA), ("ours", DecodingStrategy.OURS)],
    )
    def test_serving_matches_sequential_under_grammar(self, tiny_pipeline, method, strategy):
        prompts = [example.prompt_text() for example in tiny_pipeline.examples[:4]]
        configs = [
            GenerationConfig.greedy_config(24, grammar="verilog"),
            GenerationConfig.sampling_config(0.8, 24, seed=1, grammar="verilog"),
            GenerationConfig.greedy_config(24),
            GenerationConfig.sampling_config(0.8, 24, seed=3, grammar="verilog"),
        ]
        decoder = tiny_pipeline.decoder_for(method)
        sequential = [decoder.generate_from_text(p, c) for p, c in zip(prompts, configs)]

        engine = ServingEngine(SpeculativeDecoder(tiny_pipeline.models[method], tiny_pipeline.tokenizer, strategy=strategy))
        request_ids = [engine.submit_text(p, c) for p, c in zip(prompts, configs)]
        results = engine.run()

        for request_id, expected in zip(request_ids, sequential):
            got = results[request_id]
            assert got.token_ids == expected.token_ids
            assert got.text == expected.text
            assert got.closure_tokens == expected.closure_tokens
            assert got.tokens_verified == expected.tokens_verified
            assert got.tokens_verified_unpruned == expected.tokens_verified_unpruned

    def test_masked_fuzz_never_unparseable(self, tiny_pipeline):
        """Fuzz: every committed prefix of a constrained decode stays viable
        and the finished design always parses."""
        decoder = tiny_pipeline.decoder_for("ours")
        tokenizer = tiny_pipeline.tokenizer
        pieces = tokenizer.piece_table(keep_frag=False)
        prompts = [example.prompt_text() for example in tiny_pipeline.examples]

        def property_fn(cases):
            prompt = cases.choice(prompts)
            config = GenerationConfig.sampling_config(
                cases.choice([0.6, 0.9, 1.2]),
                cases.integer(16, 48),
                seed=cases.integer(0, 10_000),
                grammar="verilog",
            )
            result = decoder.generate_from_text(prompt, config)
            text = ""
            for token_id in result.token_ids:
                text += pieces[token_id]
                assert is_viable_prefix(text), text
            assert check_syntax(result.code).ok, result.code

        for_all(num_cases(6, 40), property_fn, seed=2025)


class TestConstrainedEvalbench:
    @pytest.fixture(scope="class")
    def mini_suite(self):
        suite = rtllm_suite()
        return ProblemSuite(name="RTLLM-mini", problems=[suite.get("half_adder"), suite.get("mux2to1_8")])

    def test_constrained_mode_report(self, tiny_pipeline, mini_suite):
        runner = EvaluationRunner(
            tiny_pipeline.decoder_for("ours"),
            samples_per_prompt=2,
            max_new_tokens=48,
            k_values=(1, 2),
            grammar="verilog",
        )
        report = runner.evaluate_suite(mini_suite, label="ours+grammar")
        assert report.grammar == "verilog"
        # Constrained decoding guarantees every sample parses.
        assert report.parse_pass_at_k[1] == 1.0
        assert report.parse_pass_rate == 1.0
        # Verified-token savings are reported and real on this workload.
        assert report.tokens_verified < report.tokens_verified_unpruned
        assert 0.0 < report.verified_savings_ratio < 1.0

    def test_unconstrained_report_totals_coincide(self, tiny_pipeline, mini_suite):
        runner = EvaluationRunner(
            tiny_pipeline.decoder_for("ours"), samples_per_prompt=1, max_new_tokens=32, k_values=(1,)
        )
        report = runner.evaluate_suite(mini_suite, label="ours")
        assert report.grammar is None
        assert report.tokens_verified == report.tokens_verified_unpruned
        assert report.closure_tokens == 0
        assert report.verified_savings_ratio == 0.0

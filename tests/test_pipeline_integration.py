"""Integration tests: the full pipeline, speed measurement and the quality runner."""

import pytest

from repro.core.decoding import DecodingStrategy
from repro.core.pipeline import METHOD_STRATEGIES, PipelineConfig, VerilogSpecPipeline
from repro.evalbench.problems import ProblemSuite
from repro.evalbench.rtllm import rtllm_suite
from repro.evalbench.runner import EvaluationRunner
from repro.evalbench.speed import measure_speed, speedup
from repro.models.generation import GenerationConfig
from repro.verilog.fragments import FRAG
from repro.verilog.syntax import check_syntax


class TestPipelinePreparation:
    def test_prepare_produces_examples_and_tokenizer(self, tiny_pipeline):
        assert len(tiny_pipeline.examples) > 5
        assert tiny_pipeline.tokenizer is not None
        assert tiny_pipeline.tokenizer.vocab_size > 100

    def test_examples_have_frag_annotation(self, tiny_pipeline):
        assert all(FRAG in e.output_with_frag for e in tiny_pipeline.examples)
        assert all(FRAG not in e.output for e in tiny_pipeline.examples)

    def test_examples_are_valid_verilog(self, tiny_pipeline):
        for example in tiny_pipeline.examples[:10]:
            assert check_syntax(example.output).ok

    def test_all_methods_trained(self, tiny_pipeline):
        assert set(tiny_pipeline.models) == {"ours", "medusa", "ntp"}
        assert set(tiny_pipeline.histories) == {"ours", "medusa", "ntp"}

    def test_ntp_model_has_no_heads(self, tiny_pipeline):
        assert tiny_pipeline.models["ntp"].num_medusa_heads == 0
        assert tiny_pipeline.models["ours"].num_medusa_heads > 0

    def test_method_strategies_mapping(self):
        assert METHOD_STRATEGIES["ours"] is DecodingStrategy.OURS
        assert METHOD_STRATEGIES["medusa"] is DecodingStrategy.MEDUSA
        assert METHOD_STRATEGIES["ntp"] is DecodingStrategy.NTP

    def test_decoder_for_unknown_method_raises(self, tiny_pipeline):
        with pytest.raises(KeyError):
            tiny_pipeline.decoder_for("unknown")

    def test_train_method_rejects_unknown(self, tiny_pipeline):
        with pytest.raises(ValueError):
            tiny_pipeline.train_method("bogus")

    def test_training_samples_differ_between_methods(self, tiny_pipeline):
        ours = tiny_pipeline.training_samples("ours")
        ntp = tiny_pipeline.training_samples("ntp")
        frag_id = tiny_pipeline.tokenizer.vocab.frag_id
        assert any(frag_id in s.target_ids for s in ours)
        assert all(frag_id not in s.target_ids for s in ntp)

    def test_data_fraction_subsets(self):
        config = PipelineConfig(corpus_items=30, vocab_size=300, data_fraction=0.5)
        pipeline = VerilogSpecPipeline(config)
        artifacts = pipeline.prepare()
        full = VerilogSpecPipeline(PipelineConfig(corpus_items=30, vocab_size=300)).prepare()
        assert len(artifacts.examples) <= len(full.examples)
        assert len(artifacts.examples) >= len(full.examples) // 2 - 1

    @pytest.mark.parametrize("architecture", ["encoder_decoder", "decoder", ""])
    def test_unknown_architecture_rejected(self, architecture):
        with pytest.raises(ValueError, match="'decoder-only' or 'encoder-decoder'"):
            PipelineConfig(architecture=architecture)

    def test_build_model_requires_prepare(self):
        pipeline = VerilogSpecPipeline(PipelineConfig())
        with pytest.raises(RuntimeError):
            pipeline.build_model("ours")


class TestSpeedMeasurement:
    def test_speed_report_fields(self, tiny_pipeline):
        decoder = tiny_pipeline.decoder_for("ours")
        prompts = [tiny_pipeline.examples[0].prompt_text()]
        report = measure_speed(decoder, prompts, max_new_tokens=16, include_sampling=True, label="ours")
        assert report.num_outputs == 2
        assert report.mean_tokens_per_second > 0
        assert report.mean_tokens_per_step >= 1.0
        assert report.label == "ours"

    def test_speedup_vs_ntp_in_steps(self, tiny_pipeline):
        prompts = [tiny_pipeline.examples[0].prompt_text()]
        ours = measure_speed(tiny_pipeline.decoder_for("ours"), prompts, max_new_tokens=24, include_sampling=False)
        ntp = measure_speed(tiny_pipeline.decoder_for("ntp"), prompts, max_new_tokens=24, include_sampling=False)
        assert speedup(ours, ntp, use_steps=True) >= 1.0

    def test_speedup_handles_zero_baseline(self, tiny_pipeline):
        from repro.evalbench.speed import SpeedReport

        empty = SpeedReport("x", 0, 0.0, 0.0, 0.0, 0.0, 0.0)
        real = SpeedReport("y", 1, 10.0, 2.0, 5.0, 3.0, 0.5)
        assert speedup(real, empty) == 0.0
        assert speedup(real, empty, use_steps=True) == 0.0

    def test_empty_prompt_list(self, tiny_pipeline):
        report = measure_speed(tiny_pipeline.decoder_for("ntp"), [], max_new_tokens=8)
        assert report.num_outputs == 0


class TestQualityRunner:
    @pytest.fixture(scope="class")
    def mini_suite(self):
        suite = rtllm_suite()
        problems = [suite.get("data_register_4"), suite.get("half_adder")]
        return ProblemSuite(name="RTLLM-mini", problems=problems)

    def test_runner_produces_report(self, tiny_pipeline, mini_suite):
        runner = EvaluationRunner(
            tiny_pipeline.decoder_for("ours"), samples_per_prompt=2, max_new_tokens=48, k_values=(1, 2)
        )
        report = runner.evaluate_suite(mini_suite, label="ours")
        assert report.num_prompts == 2
        assert set(report.syntax_pass_at_k) == {1, 2}
        assert 0.0 <= report.function_pass_rate <= 1.0
        assert 0.0 <= report.syntax_pass_rate <= 1.0
        row = report.row("function")
        assert set(row) == {"pass@1", "pass@5", "pass@10", "pass_rate"}

    def test_function_never_exceeds_syntax(self, tiny_pipeline, mini_suite):
        runner = EvaluationRunner(
            tiny_pipeline.decoder_for("ntp"), samples_per_prompt=2, max_new_tokens=48, k_values=(1,)
        )
        report = runner.evaluate_suite(mini_suite, label="ntp")
        assert report.function_pass_at_k[1] <= report.syntax_pass_at_k[1] + 1e-9
        assert report.function_pass_rate <= report.syntax_pass_rate + 1e-9

    def test_reference_designs_score_perfectly(self, tiny_pipeline, mini_suite):
        """Grading the golden designs through the runner yields pass@k == 1."""
        runner = EvaluationRunner(tiny_pipeline.decoder_for("ours"), samples_per_prompt=2, k_values=(1,))
        evaluations = [
            runner.evaluate_problem(problem, samples=[problem.reference, problem.reference]) for problem in mini_suite
        ]
        assert all(all(e.functional_flags) for e in evaluations)
        assert all(all(e.syntax_flags) for e in evaluations)

    def test_generated_samples_count(self, tiny_pipeline, mini_suite):
        runner = EvaluationRunner(tiny_pipeline.decoder_for("medusa"), samples_per_prompt=3, max_new_tokens=32)
        samples = runner.generate_samples(mini_suite[0])
        assert len(samples) == 3
        assert all(isinstance(s, str) for s in samples)

    @pytest.mark.parametrize("backbone", ["tiny_pipeline", "encdec_pipeline"])
    def test_batched_samples_equal_one_generate_per_sample(self, request, backbone, mini_suite):
        """The samples decoded as lanes of one prompt equal the per-sample ``generate`` loop."""
        decoder = request.getfixturevalue(backbone).decoder_for("ours")
        temperatures = (0.2, 0.4, 0.6, 0.8)
        runner = EvaluationRunner(
            decoder, samples_per_prompt=5, temperatures=temperatures, max_new_tokens=24, grammar="verilog"
        )
        problem = mini_suite[0]
        expected = [decoder.generate_from_text(problem.prompt, GenerationConfig.greedy_config(24, grammar="verilog"))]
        for index in range(1, 5):
            config = GenerationConfig.sampling_config(temperatures[index % 4], 24, seed=index, grammar="verilog")
            expected.append(decoder.generate_from_text(problem.prompt, config))
        evaluation = runner.evaluate_problem(problem)
        assert evaluation.samples == [result.code for result in expected]
        assert evaluation.tokens_verified == sum(result.tokens_verified for result in expected)
        assert evaluation.closure_tokens == sum(result.closure_tokens for result in expected)

    @pytest.mark.parametrize(
        "kwargs, parameter", [({"samples_per_prompt": 0}, "samples_per_prompt"), ({"temperatures": ()}, "temperatures")]
    )
    def test_rejects_an_empty_sample_plan(self, tiny_pipeline, kwargs, parameter):
        with pytest.raises(ValueError, match=parameter):
            EvaluationRunner(tiny_pipeline.decoder_for("ours"), **kwargs)

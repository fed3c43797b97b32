"""End-to-end quality evaluation runner.

:class:`EvaluationRunner` reproduces the paper's quality protocol (Sec. IV-A.3
and IV-B.2): for each benchmark prompt it samples ``n`` responses spread over a
set of temperatures, grades every response for syntax and functional
correctness, and aggregates pass@k (k in {1, 5, 10}) plus Pass Rate.

Passing ``grammar="verilog"`` runs the whole evaluation in constrained mode
(:mod:`repro.constrained`): every sample is decoded under the syntax mask, so
syntax pass@1 is 1.0 by construction, and the report additionally carries the
verified-position totals (actual vs. what the same steps would have verified
unpruned) — the token-savings side of the constrained-decoding trade.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.decoding import DecodeResult, SpeculativeDecoder
from repro.evalbench.functional import check_designs_functional
from repro.evalbench.passk import pass_at_k, pass_rate
from repro.evalbench.problems import Problem, ProblemSuite
from repro.evalbench.syntax_eval import check_design_compiles
from repro.models.generation import GenerationConfig
from repro.sim.testbench import DEFAULT_BACKEND, simulator_class


@dataclass
class PromptEvaluation:
    """Per-prompt grading outcome."""

    problem_name: str
    samples: List[str] = field(default_factory=list)
    #: Per-sample parse outcome (the design alone is valid Verilog) — the
    #: property constrained decoding guarantees.  ``syntax_flags`` is the
    #: stricter compile check (design + testbench elaborate together).
    parse_flags: List[bool] = field(default_factory=list)
    syntax_flags: List[bool] = field(default_factory=list)
    functional_flags: List[bool] = field(default_factory=list)
    #: Verification-forward positions actually computed across this prompt's
    #: samples, and what the same steps would have computed without the
    #: grammar pre-filter (equal when unconstrained) — see
    #: :attr:`repro.core.decoding.DecodeResult.tokens_verified_unpruned`.
    tokens_verified: int = 0
    tokens_verified_unpruned: int = 0
    #: Grammar-closure tokens appended across this prompt's samples.
    closure_tokens: int = 0


@dataclass
class QualityReport:
    """Aggregated quality metrics for one suite/model/strategy."""

    suite: str
    label: str
    num_prompts: int
    samples_per_prompt: int
    syntax_pass_at_k: Dict[int, float]
    function_pass_at_k: Dict[int, float]
    syntax_pass_rate: float
    function_pass_rate: float
    prompt_results: List[PromptEvaluation] = field(default_factory=list)
    #: Grammar the samples were decoded under (None = unconstrained).
    grammar: Optional[str] = None
    #: Parse-level pass@k / Pass Rate (design-only syntax validity).  This is
    #: the column constrained decoding drives to 1.0 by construction; the
    #: ``syntax_*`` fields additionally require testbench elaboration.
    parse_pass_at_k: Dict[int, float] = field(default_factory=dict)
    parse_pass_rate: float = 0.0
    #: Suite-wide verification-position totals (see :class:`PromptEvaluation`).
    tokens_verified: int = 0
    tokens_verified_unpruned: int = 0
    closure_tokens: int = 0

    def row(self, metric: str = "function") -> Dict[str, float]:
        """One Table-I-style row: pass@1/5/10 plus Pass Rate, in percent."""
        source = self.function_pass_at_k if metric == "function" else self.syntax_pass_at_k
        rate = self.function_pass_rate if metric == "function" else self.syntax_pass_rate
        return {
            "pass@1": 100.0 * source.get(1, 0.0),
            "pass@5": 100.0 * source.get(5, 0.0),
            "pass@10": 100.0 * source.get(10, 0.0),
            "pass_rate": 100.0 * rate,
        }

    @property
    def verified_savings_ratio(self) -> float:
        """Fraction of verification positions the grammar pre-filter saved.

        ``1 - verified / unpruned`` over the suite; 0.0 for unconstrained
        runs (the totals coincide) and whenever nothing was verified.
        """
        if self.tokens_verified_unpruned <= 0:
            return 0.0
        return 1.0 - self.tokens_verified / self.tokens_verified_unpruned


class EvaluationRunner:
    """Samples model outputs for a problem suite and grades them."""

    def __init__(
        self,
        decoder: SpeculativeDecoder,
        samples_per_prompt: int = 20,
        temperatures: Sequence[float] = (0.2, 0.4, 0.6, 0.8),
        max_new_tokens: int = 160,
        k_values: Sequence[int] = (1, 5, 10),
        sim_backend: str = DEFAULT_BACKEND,
        grammar: Optional[str] = None,
        strict_pass_k: bool = False,
    ) -> None:
        """``grammar`` selects constrained decoding for every sample (see the
        module docstring); ``strict_pass_k`` makes a ``k`` in ``k_values``
        larger than ``samples_per_prompt`` raise instead of warn-and-clamp
        (:func:`repro.evalbench.passk.pass_at_k_single`), so a benchmark run
        fails fast on a mislabeled pass@k column."""
        simulator_class(sim_backend)  # an unknown backend raises here, before any sampling
        if samples_per_prompt < 1:
            raise ValueError(f"samples_per_prompt must be at least 1, got {samples_per_prompt}")
        self.temperatures = list(temperatures)
        if not self.temperatures:
            raise ValueError("temperatures must name at least one sampling temperature")
        self.decoder = decoder
        self.samples_per_prompt = samples_per_prompt
        self.max_new_tokens = max_new_tokens
        self.k_values = list(k_values)
        self.sim_backend = sim_backend
        self.grammar = grammar
        self.strict_pass_k = strict_pass_k
        if strict_pass_k:
            oversized = [k for k in self.k_values if k > samples_per_prompt]
            if oversized:
                raise ValueError(
                    f"k_values {oversized} exceed samples_per_prompt={samples_per_prompt} under strict_pass_k"
                )

    def generate_results(self, problem: Problem) -> List[DecodeResult]:
        """Decode ``samples_per_prompt`` results for ``problem`` (full records).

        Sample 0 is greedy; sample ``i`` samples at temperature
        ``temperatures[i % len(temperatures)]`` with seed ``i``.  All of a
        problem's samples decode as lanes of one
        :meth:`~repro.core.decoding.SpeculativeDecoder.generate_many` call,
        so the prompt is encoded and prefilled once.
        """
        configs = [GenerationConfig.greedy_config(self.max_new_tokens, grammar=self.grammar)]
        for index in range(1, self.samples_per_prompt):
            temperature = self.temperatures[index % len(self.temperatures)]
            configs.append(
                GenerationConfig.sampling_config(temperature, self.max_new_tokens, seed=index, grammar=self.grammar)
            )
        prompt_ids = self.decoder.tokenizer.encode_prompt(problem.prompt)
        return self.decoder.generate_many(prompt_ids, configs)

    def generate_samples(self, problem: Problem) -> List[str]:
        """Generate ``samples_per_prompt`` candidate designs for ``problem``."""
        return [result.code for result in self.generate_results(problem)]

    def evaluate_problem(self, problem: Problem, samples: Optional[List[str]] = None) -> PromptEvaluation:
        """Grade (and if needed generate) samples for one problem."""
        results: List[DecodeResult] = []
        if samples is None:
            results = self.generate_results(problem)
            samples = [result.code for result in results]
        evaluation = PromptEvaluation(problem_name=problem.name, samples=samples)
        for result in results:
            evaluation.tokens_verified += result.tokens_verified
            evaluation.tokens_verified_unpruned += result.tokens_verified_unpruned
            evaluation.closure_tokens += result.closure_tokens
        # Without a testbench this only parses the design; the parse is
        # memoised, so grading below parses no sample again.
        evaluation.parse_flags = [check_design_compiles(design).parses for design in samples]
        # One testbench run per sample gives both other verdicts: ``compiled``
        # is the syntax flag (design and testbench compile together) and
        # ``passed`` the functional one.  With the compiled backend the
        # samples share a single vectorized sweep of the problem's testbench.
        for graded in check_designs_functional(samples, problem, backend=self.sim_backend):
            evaluation.syntax_flags.append(graded.compiled)
            evaluation.functional_flags.append(graded.passed)
        return evaluation

    def evaluate_suite(self, suite: ProblemSuite, label: str = "", problems: Optional[Sequence[Problem]] = None) -> QualityReport:
        """Evaluate every problem in ``suite`` and aggregate the metrics."""
        selected = list(problems) if problems is not None else list(suite)
        prompt_results = [self.evaluate_problem(problem) for problem in selected]
        parse_matrix = [p.parse_flags for p in prompt_results]
        syntax_matrix = [p.syntax_flags for p in prompt_results]
        function_matrix = [p.functional_flags for p in prompt_results]
        return QualityReport(
            suite=suite.name,
            label=label,
            num_prompts=len(selected),
            samples_per_prompt=self.samples_per_prompt,
            syntax_pass_at_k={k: pass_at_k(syntax_matrix, k, strict=self.strict_pass_k) for k in self.k_values},
            function_pass_at_k={k: pass_at_k(function_matrix, k, strict=self.strict_pass_k) for k in self.k_values},
            syntax_pass_rate=pass_rate(syntax_matrix),
            function_pass_rate=pass_rate(function_matrix),
            prompt_results=prompt_results,
            grammar=self.grammar,
            parse_pass_at_k={k: pass_at_k(parse_matrix, k, strict=self.strict_pass_k) for k in self.k_values},
            parse_pass_rate=pass_rate(parse_matrix),
            tokens_verified=sum(p.tokens_verified for p in prompt_results),
            tokens_verified_unpruned=sum(p.tokens_verified_unpruned for p in prompt_results),
            closure_tokens=sum(p.closure_tokens for p in prompt_results),
        )

"""Tests for the evaluation benchmarks and metrics."""


import pytest
from hypothesis import given, settings, strategies as st

from repro.evalbench.designs import adder, counter, data_register, mux2
from repro.evalbench.functional import check_design_functional, check_designs_functional
from repro.evalbench.passk import pass_at_k, pass_at_k_from_counts, pass_at_k_single, pass_rate
from repro.evalbench.problems import Problem
from repro.evalbench.rtllm import rtllm_suite
from repro.evalbench.syntax_eval import check_design_compiles
from repro.evalbench.vgen import vgen_suite


class TestPassAtK:
    def test_all_passing(self):
        assert pass_at_k_single(20, 20, 1) == 1.0

    def test_none_passing(self):
        assert pass_at_k_single(20, 0, 10) == 0.0

    def test_known_value(self):
        # n=4, c=2, k=2: 1 - C(2,2)/C(4,2) = 1 - 1/6
        assert pass_at_k_single(4, 2, 2) == pytest.approx(1 - 1 / 6)

    def test_k_larger_than_n_clamped(self):
        assert pass_at_k_single(3, 1, 10) == 1.0

    def test_invalid_counts_raise(self):
        with pytest.raises(ValueError):
            pass_at_k_single(3, 4, 1)
        with pytest.raises(ValueError):
            pass_at_k_single(3, 1, 0)

    def test_zero_samples(self):
        assert pass_at_k_single(0, 0, 5) == 0.0

    def test_mean_over_prompts(self):
        counts = [(10, 10), (10, 0)]
        assert pass_at_k_from_counts(counts, 1) == pytest.approx(0.5)

    def test_from_flags(self):
        results = [[True] * 5, [False] * 5]
        assert pass_at_k(results, 1) == pytest.approx(0.5)

    def test_empty_input(self):
        assert pass_at_k([], 5) == 0.0
        assert pass_at_k_from_counts([], 5) == 0.0

    def test_pass_rate(self):
        results = [[False, True], [False, False], [True, True]]
        assert pass_rate(results) == pytest.approx(2 / 3)

    def test_pass_rate_empty(self):
        assert pass_rate([]) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 30), st.integers(0, 30), st.integers(1, 15))
    def test_pass_at_k_bounds_and_monotonicity(self, n, c, k):
        """Property: 0 <= pass@k <= 1 and pass@k is nondecreasing in k."""
        c = min(c, n)
        value = pass_at_k_single(n, c, k)
        assert 0.0 <= value <= 1.0
        assert pass_at_k_single(n, c, min(k + 1, n)) >= value - 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 25), st.integers(0, 25))
    def test_pass_at_1_equals_ratio(self, n, c):
        """Property: pass@1 is exactly c/n."""
        c = min(c, n)
        assert pass_at_k_single(n, c, 1) == pytest.approx(c / n)


class TestProblemSuites:
    def test_rtllm_has_29_problems(self):
        assert len(rtllm_suite()) == 29

    def test_vgen_has_17_problems(self):
        assert len(vgen_suite()) == 17

    def test_problem_names_unique(self):
        for suite in (rtllm_suite(), vgen_suite()):
            names = [p.name for p in suite]
            assert len(names) == len(set(names))

    def test_vgen_prompts_contain_module_header(self):
        for problem in vgen_suite():
            assert f"module {problem.module_name}" in problem.prompt

    def test_rtllm_prompts_are_prose(self):
        for problem in rtllm_suite():
            assert problem.module_name in problem.prompt
            assert "Please act as a professional Verilog designer." in problem.prompt

    def test_suite_lookup(self):
        suite = rtllm_suite()
        assert suite.get("alu_8bit") is not None
        assert suite.get("nonexistent") is None
        assert len(suite.prompts()) == len(suite)

    def test_suite_indexing(self):
        suite = vgen_suite()
        assert isinstance(suite[0], Problem)


@pytest.mark.parametrize("problem", list(rtllm_suite()) + list(vgen_suite()), ids=lambda p: p.name)
def test_every_reference_design_passes_its_testbench(problem):
    """Oracle check: each benchmark's golden design compiles and passes functionally."""
    syntax = check_design_compiles(problem.reference, problem.testbench)
    assert syntax.compiles, syntax.errors
    functional = check_design_functional(problem.reference, problem)
    assert functional.passed, functional.output or functional.errors


class TestGraders:
    def test_wrong_design_fails_functionally(self):
        prompt, reference, testbench = mux2("mux2to1", width=8)
        problem = Problem(name="x", prompt=prompt, reference=reference, testbench=testbench, module_name="mux2to1")
        wrong = reference.replace("sel ? b : a", "sel ? a : b")
        result = check_design_functional(wrong, problem)
        assert result.compiled and not result.passed

    @pytest.mark.parametrize("backend", ["interpreter", "compiled"])
    def test_design_declaring_its_module_twice_fails_compile(self, backend):
        """iverilog rejects a re-declared module, so the right copy declared last must not pass the wrong one."""
        prompt, reference, testbench = mux2("mux2to1", width=8)
        problem = Problem(name="x", prompt=prompt, reference=reference, testbench=testbench, module_name="mux2to1")
        twice = reference.replace("sel ? b : a", "sel ? a : b") + "\n" + reference
        syntax = check_design_compiles(twice, testbench)
        assert syntax.parses and not syntax.compiles
        assert syntax.errors == ["module 'mux2to1' is declared more than once"]
        result = check_design_functional(twice, problem, backend=backend)
        assert not result.compiled and not result.passed
        batch = check_designs_functional([twice, reference], problem, backend=backend)
        assert [(graded.compiled, graded.passed) for graded in batch] == [(False, False), (True, True)]

    def test_unparseable_design_fails_syntax(self):
        prompt, reference, testbench = adder("adder_8bit")
        result = check_design_compiles("module broken(input a;", testbench)
        assert not result.parses and not result.compiles

    def test_wrong_module_name_fails_compile(self):
        prompt, reference, testbench = counter("up_counter")
        renamed = reference.replace("module up_counter", "module different_name")
        result = check_design_compiles(renamed, testbench)
        assert result.parses and not result.compiles

    def test_design_alone_compiles(self):
        _, reference, _ = data_register()
        assert check_design_compiles(reference).compiles

    def test_functional_check_counts_reference_as_pass(self):
        prompt, reference, testbench = data_register()
        problem = Problem(name="dr", prompt=prompt, reference=reference, testbench=testbench, module_name="data_register")
        assert check_design_functional(reference, problem).passed

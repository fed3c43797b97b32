"""Seeded input generation: the same seed gives the same bytes, another seed other bytes."""

import pytest

import config
import run
import workloads


@pytest.mark.parametrize("name", list(config.WORKLOADS))
def test_inputs_are_a_pure_function_of_the_seed(name, quick_pipeline_path):
    cls = workloads.WORKLOAD_CLASSES[name]
    pipeline = run.load_pipeline(quick_pipeline_path)
    first = cls(pipeline, config.QUICK_SIZES, seed=3).inputs_digest()
    again = cls(run.load_pipeline(quick_pipeline_path), config.QUICK_SIZES, seed=3).inputs_digest()
    other = cls(pipeline, config.QUICK_SIZES, seed=4).inputs_digest()
    assert first == again
    assert first != other


def test_every_mutant_parses_and_differs_from_the_reference():
    from repro.verilog import check_syntax

    for problem in workloads.benchmark_problems(None):
        mutants = workloads.mutants_of(problem.reference)
        assert len(set(mutants)) == len(mutants)
        assert all(mutant != problem.reference and check_syntax(mutant).ok for mutant in mutants)


def test_grade_sweep_candidates_have_the_stated_shape(quick_pipeline_path):
    from repro.verilog import check_syntax

    sweep = workloads.GradeSweep(run.load_pipeline(quick_pipeline_path), config.FULL_SIZES, seed=0)
    assert len(sweep.problems) == 46
    for problem, candidates in zip(sweep.problems, sweep.candidates):
        assert len(candidates) == config.FULL_SIZES.batch_candidates
        assert candidates[0] == problem.reference
        assert len(set(candidates)) == len(candidates)
        assert not check_syntax(candidates[-1]).ok

"""One testbench run grades a sample: its compile verdict and its functional verdict.

``EvaluationRunner.evaluate_problem`` takes a sample's syntax flag from the
``compiled`` field of the same testbench run that gives its functional flag,
instead of elaborating the sample a second time in ``check_design_compiles``.
That is only right while the two agree, so the agreement is pinned here over
the corpus grading sees: every reference, ``grade_sweep``-style operator
mutants and truncated sources, the wrong-module sample constrained decoding
writes, and designs on the edge of what elaborates.  Both backends and the
batch path are checked.
"""

from __future__ import annotations

from typing import List

import pytest

from repro.evalbench.runner import EvaluationRunner
from repro.evalbench.syntax_eval import check_design_compiles
from repro.sim.simulator import Simulator
from repro.sim.testbench import BACKENDS, run_testbench, run_testbench_batch

from test_sim_differential import BIND_MAX_EVENTS, REFERENCE_PROBLEMS, _with_item, operator_mutants

#: Items added to a reference design: an assign to an undeclared net, out-of-range
#: bit and part selects (written and read), an unknown submodule instance and a
#: wire whose range names an undefined parameter.
EDGE_ITEMS = [
    "assign edge_undeclared = 1'b0;",
    "wire [3:0] edge_w;\n    assign edge_w[7] = 1'b0;",
    "wire [3:0] edge_w;\n    assign edge_w[9:6] = 4'd0;",
    "wire [3:0] edge_w;\n    wire edge_r;\n    assign edge_r = edge_w[12];",
    "wire [3:0] edge_w;\n    wire [1:0] edge_r;\n    assign edge_r = edge_w[13:12];",
    "no_such_block u_missing ();",
    "wire [EDGE_UNDEFINED-1:0] edge_p;",
]

#: What a constrained sample is when the model writes no design.
WRONG_MODULE = " module x ; endmodule"


def grading_corpus(reference: str) -> List[str]:
    """The reference, ten operator mutants, its first two thirds, the wrong module, the edge variants."""
    truncated = reference[: 2 * len(reference) // 3]
    edges = [_with_item(reference, item) for item in EDGE_ITEMS]
    return [reference] + operator_mutants(reference, 10) + [truncated, WRONG_MODULE] + edges


@pytest.mark.parametrize("problem", REFERENCE_PROBLEMS, ids=lambda problem: problem.name)
def test_the_testbench_run_compiles_what_the_compile_check_compiles(problem) -> None:
    candidates = grading_corpus(problem.reference)
    expected = [check_design_compiles(candidate, problem.testbench).compiles for candidate in candidates]
    assert expected[0] and not expected[candidates.index(WRONG_MODULE)]
    for backend in BACKENDS:
        batch = run_testbench_batch(candidates, problem.testbench, max_events=BIND_MAX_EVENTS, backend=backend)
        assert [result.compiled for result in batch] == expected, backend
        for candidate, want in zip(candidates, expected):
            scalar = run_testbench(candidate, problem.testbench, max_events=BIND_MAX_EVENTS, backend=backend)
            assert scalar.compiled == want, backend


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_evaluate_problem_elaborates_each_sample_once(monkeypatch, backend) -> None:
    """Samples that compile but do not vectorize are elaborated by the grading run alone."""
    problem = next(problem for problem in REFERENCE_PROBLEMS if problem.name == "up_counter_4")
    samples = [problem.reference] + operator_mutants(problem.reference, 11)
    elaborated: List[str] = []
    elaborate_instances = Simulator._elaborate_instances

    def counting(self) -> None:
        elaborated.append(type(self).__name__)
        elaborate_instances(self)

    monkeypatch.setattr(Simulator, "_elaborate_instances", counting)
    runner = EvaluationRunner(decoder=None, samples_per_prompt=len(samples), k_values=(1,), sim_backend=backend)
    evaluation = runner.evaluate_problem(problem, samples=samples)
    assert elaborated == [BACKENDS[backend].__name__] * len(samples)
    assert evaluation.parse_flags == evaluation.syntax_flags == [True] * len(samples)
    assert evaluation.functional_flags[0] and not all(evaluation.functional_flags)

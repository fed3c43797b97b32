"""The grading path parses every Verilog text once, and may because ASTs are shared read-only.

``check_syntax`` memoises its parse on the source text and the simulators take
the parsed modules, so grading a sample set lexes each distinct text once
instead of three times.  Sharing ASTs is only sound under three conditions,
each pinned here without a clock:

* *parse count*: one problem's sample set through the evaluator's call pair
  calls ``parse_source`` once per distinct text, and the memo is bounded;
* *read-only AST*: neither backend nor the batch path writes to a parsed tree;
* *concatenation equivalence*: the modules of ``design + "\\n\\n" + testbench``
  are the design's modules followed by the testbench's, which is what lets the
  compile unit be assembled from two parses.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import itertools
import json

import pytest

import repro.sim.simulator as simulator_module
import repro.sim.testbench as testbench_module
import repro.verilog.syntax as syntax_module
from repro.evalbench.functional import check_designs_functional
from repro.evalbench.rtllm import rtllm_suite
from repro.evalbench.syntax_eval import check_design_compiles
from repro.evalbench.vgen import vgen_suite
from repro.sim.compiled import NOT_THE_DUT, BatchReport, CompiledSimulator, simulate_batch
from repro.sim.rng import VerilogRng
from repro.sim.simulator import Simulator
from repro.sim.testbench import run_testbench_batch
from repro.sim.values import FourState
from repro.verilog.ast_nodes import LocalDeclaration, ModuleDef, ModuleInstance, Node, SourceFile
from repro.verilog.parser import parse_source
from repro.verilog.significant import extract_significant_tokens
from repro.verilog.syntax import check_syntax

from proptest import Cases, for_all, num_cases
from test_sim_differential import _array_case, _clocked_case, _combinational_case, _termination_case, operator_mutants

PROBLEMS = list(rtllm_suite()) + list(vgen_suite())
BY_NAME = {problem.name: problem for problem in PROBLEMS}

_filler_ids = itertools.count()


def _push_everything_out_of_the_memo() -> None:
    """Check more distinct texts than the memo holds, through the public function only."""
    for _ in range(syntax_module._MEMO_ENTRIES + 1):
        assert check_syntax(f"module filler_{next(_filler_ids)}; endmodule").ok


def _grade(problem, candidates):
    """What ``EvaluationRunner.evaluate_problem`` does with one problem's samples."""
    compiles = [check_design_compiles(design, problem.testbench).compiles for design in candidates]
    return compiles, [result.passed for result in check_designs_functional(candidates, problem)]


# One problem per dispatch: vector sweep, vector testbench with designs that fall
# back (always block), sequential testbench (candidates bound into one simulator).
@pytest.mark.parametrize("name", ["adder_8bit", "mux4to1_8", "up_counter_4"])
def test_grading_a_sample_set_parses_each_distinct_text_once(monkeypatch, name):
    problem = BY_NAME[name]
    candidates = [problem.reference] + [f"{problem.reference}\n// sample {n}\n" for n in range(1, 12)]
    parsed = []

    def counting_parse_source(source):
        parsed.append(source)
        return parse_source(source)

    # The only two modules on the grading path that import parse_source.
    monkeypatch.setattr(syntax_module, "parse_source", counting_parse_source)
    monkeypatch.setattr(simulator_module, "parse_source", counting_parse_source)

    _push_everything_out_of_the_memo()
    parsed.clear()
    first = _grade(problem, candidates)
    assert first == ([True] * 12, [True] * 12)
    assert sorted(parsed) == sorted(candidates + [problem.testbench])  # 13 texts, once each

    parsed.clear()
    assert _grade(problem, candidates) == first
    assert parsed == []

    # The memo is bounded: after more than _MEMO_ENTRIES other texts nothing of this set is left.
    _push_everything_out_of_the_memo()
    parsed.clear()
    assert _grade(problem, candidates) == first
    assert sorted(parsed) == sorted(candidates + [problem.testbench])


def test_results_of_one_text_do_not_alias():
    broken = "module broken(input a); assign x = a;"
    first = check_syntax(broken)
    assert not first.ok and first.errors
    expected_errors = list(first.errors)
    first.errors.append("scribble")
    assert check_syntax(broken).errors == expected_errors

    fine = "module a; endmodule\nmodule b; endmodule"
    first = check_syntax(fine)
    first.module_names.clear()
    first.errors.append("scribble")
    again = check_syntax(fine)
    assert again.ok and again.module_names == ["a", "b"] and again.errors == []
    assert again.ast is first.ast  # the tree is the shared part


@pytest.mark.parametrize("problem", PROBLEMS, ids=lambda p: p.name)
def test_simulating_leaves_the_parsed_modules_untouched(problem):
    candidates = [problem.reference] + operator_mutants(problem.reference, 3)
    designs = [check_syntax(candidate).ast for candidate in candidates]
    design = designs[0]
    testbench = check_syntax(problem.testbench).ast
    designs_before, testbench_before = copy.deepcopy(designs), copy.deepcopy(testbench)
    for backend in (Simulator, CompiledSimulator):
        simulator = backend(
            SourceFile(modules=design.modules + testbench.modules),
            top=testbench.modules[-1].name,
            max_time=100_000,
            rng=VerilogRng(VerilogRng.DEFAULT_SEED),
        )
        assert simulator.run().error is None
    simulate_batch([problem.reference], problem.testbench)
    # Binding: one testbench AST under every candidate, through the batch and directly.
    run_testbench_batch(candidates, problem.testbench)
    for candidate_ast in designs:
        simulator.bind(SourceFile(modules=candidate_ast.modules + testbench.modules))
        simulator.run()
    # Every path read these very objects, not a parse of its own.
    assert all(check_syntax(candidate).ast is tree for candidate, tree in zip(candidates, designs))
    assert check_syntax(problem.testbench).ast is testbench
    assert designs == designs_before
    assert testbench == testbench_before


def _assert_concatenation_is_both_parses(design: str, testbench: str) -> None:
    combined = parse_source(design.rstrip() + "\n\n" + testbench)
    assert combined.modules == parse_source(design).modules + parse_source(testbench).modules


@pytest.mark.parametrize("problem", PROBLEMS, ids=lambda p: p.name)
def test_concatenated_parse_equals_the_two_parses(problem):
    _assert_concatenation_is_both_parses(problem.reference, problem.testbench)


#: What a generated design may end with, or a testbench begin with, that a
#: lexer carrying state across the seam (an open comment, a directive's line,
#: a macro table) would trip over.
_SEAM_TEXT = [
    "",
    "\n",
    "// trailing comment with no newline",
    "/* block\n comment */",
    "`timescale 1ns/1ps",
    "`define WIDTH 8",
    "`default_nettype none",
    "`celldefine\n`endcelldefine",
    "   \t\n\n",
]


def test_concatenated_parse_equals_the_two_parses_fuzz():
    generators = [_combinational_case, _clocked_case, _array_case, lambda cases: _termination_case(cases)[:2]]

    def prop(cases: Cases) -> None:
        design, testbench = cases.choice(generators)(cases)
        design = cases.choice(_SEAM_TEXT) + "\n" + design + cases.choice(_SEAM_TEXT)
        testbench = cases.choice(_SEAM_TEXT) + "\n" + testbench + cases.choice(_SEAM_TEXT)
        _assert_concatenation_is_both_parses(design, testbench)

    for_all(num_cases(40, 400), prop, seed=15)


def test_empty_candidate_list_does_no_work(monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("an empty batch parsed or simulated something")

    monkeypatch.setattr(testbench_module, "check_syntax", must_not_run)
    monkeypatch.setattr(testbench_module, "simulate_batch", must_not_run)
    problem = BY_NAME["adder_8bit"]
    assert run_testbench_batch([], problem.testbench) == []
    assert run_testbench_batch([], problem.testbench, backend="interpreter") == []
    assert check_designs_functional([], problem) == []
    with pytest.raises(ValueError):
        run_testbench_batch([], problem.testbench, backend="no-such-backend")


def test_batch_report_says_why_candidates_fell_back():
    assert BatchReport() == BatchReport(vectorized=0, fallback=0, groups=0, reasons={})
    adder = BY_NAME["adder_8bit"]
    always_mux = BY_NAME["mux4to1_8"]
    report = BatchReport()
    results = simulate_batch(
        [
            adder.reference,
            adder.reference.replace("module adder_8bit", "module some_other_name"),
            adder.reference + "\n" + always_mux.reference,
            "module truncated(input a",
        ],
        adder.testbench,
        report=report,
    )
    assert [result is not None for result in results] == [True, False, False, False]
    assert (report.vectorized, report.fallback, report.groups) == (1, 3, 1)
    assert report.reasons == {NOT_THE_DUT: 3}

    # The report accumulates over calls; a lowering refusal carries the lowerer's own message.
    latch_mux = always_mux.reference.replace("            default: out = d;\n", "")
    assert latch_mux != always_mux.reference
    results = simulate_batch([latch_mux] * 2, always_mux.testbench, report=report)
    assert results == [None, None]
    assert (report.vectorized, report.fallback, report.groups) == (1, 5, 1)
    assert report.reasons == {NOT_THE_DUT: 3, "latch: always block leaves a target unassigned on some path": 2}
    assert sum(report.reasons.values()) == report.fallback


# --------------------------------------------------------------------------- #
# Elaboration reads what the parser recorded, and literals are built once
# --------------------------------------------------------------------------- #

#: Block-local declarations in a function, nested named blocks and a
#: generate region whose error recovery drops an item that had already
#: declared ``dropped`` and one that had already built instance ``u4``.
_RECORD_EDGES = """
module sub(input a, output y); assign y = a; endmodule
module top;
  reg r;
  function f; input x; begin : fb integer k; f = x; end endfunction
  initial begin : outer
    integer i;
    reg [3:0] t;
    begin : inner real q; end
  end
  generate
    always begin integer dropped; + ; end
    sub u3(r, );
    sub u4(r), ;
  endgenerate
  sub u1(.a(r), .y()), u2(r, );
endmodule
"""


def _compile_unit(problem) -> SourceFile:
    """The evaluator's memo-hit compile unit: the design's and the testbench's parsed modules."""
    return SourceFile(modules=check_syntax(problem.reference).ast.modules + check_syntax(problem.testbench).ast.modules)


@pytest.mark.parametrize("name", ["alu_8bit", "up_counter_4", "sync_fifo_4x8"])
def test_building_a_simulator_walks_no_module(monkeypatch, name):
    problem = BY_NAME[name]
    unit = _compile_unit(problem)
    walked = []

    def counting_walk(module):
        walked.append(module.name)
        return Node.walk(module)

    monkeypatch.setattr(ModuleDef, "walk", counting_walk)
    for backend in (Simulator, CompiledSimulator):
        for top in (unit.modules[-1].name, None):
            simulator = backend(unit, top=top, max_time=100_000, rng=VerilogRng(VerilogRng.DEFAULT_SEED))
            assert simulator.top_name == unit.modules[-1].name
    assert walked == []


@pytest.mark.parametrize("text", [text for p in PROBLEMS for text in (p.reference, p.testbench)] + [_RECORD_EDGES])
def test_the_parse_time_record_is_what_a_walk_finds(text):
    for module in parse_source(text).modules:
        nodes = list(module.walk())
        assert len({id(node) for node in nodes}) == len(nodes)  # the record is not visited
        assert [id(n) for n in module.local_declarations] == [
            id(n) for n in nodes if isinstance(n, LocalDeclaration)
        ]
        assert [id(n) for n in module.instances] == [id(n) for n in nodes if isinstance(n, ModuleInstance)]
        assert module == dataclasses.replace(module, local_declarations=[], instances=[])


def test_the_record_survives_generate_error_recovery():
    top = parse_source(_RECORD_EDGES).module("top")
    assert [local.declaration.names for local in top.local_declarations] == [["k"], ["i"], ["t"], ["q"]]
    assert [instance.instance_name for instance in top.instances] == ["u3", "u1", "u2"]
    simulator = Simulator(_RECORD_EDGES)
    assert simulator.top_name == "top"
    assert {"i", "t", "q", "k"} <= set(simulator.signals) and "dropped" not in simulator.signals


def test_significant_tokens_of_the_suite_are_unchanged():
    texts = [text for problem in PROBLEMS for text in (problem.reference, problem.testbench)]
    digest = hashlib.sha256(json.dumps([extract_significant_tokens(text) for text in texts]).encode()).hexdigest()
    assert digest == "814d86d1877ef24cccfbd3553c0c60e8f73add038800303e2cb95f0d439cf2e1"


def test_a_rebuilt_simulator_reuses_every_literal_value():
    unit = _compile_unit(BY_NAME["alu_8bit"])
    CompiledSimulator(unit, max_time=100_000)
    before = FourState.from_literal.cache_info()
    CompiledSimulator(unit, max_time=100_000)
    after = FourState.from_literal.cache_info()
    assert after.misses == before.misses and after.hits > before.hits
    assert FourState.from_literal(8, "h", "A5") is FourState.from_literal(8, "h", "A5")

"""Evaluation benchmarks and metrics (paper Sec. IV-B).

Provides RTLLM-style and VGen-style problem suites built on the in-repo
simulator, the pass@k / Pass Rate metrics, syntax and functional graders
and the speed/speedup measurement harness (eq. 3/4).
"""

from repro.evalbench.problems import Problem, ProblemSuite
from repro.evalbench.rtllm import rtllm_suite
from repro.evalbench.vgen import vgen_suite
from repro.evalbench.passk import pass_at_k, pass_at_k_from_counts, pass_at_k_single, pass_rate
from repro.evalbench.syntax_eval import check_design_compiles
from repro.evalbench.functional import check_design_functional, check_designs_functional
from repro.evalbench.speed import (
    SpeedReport,
    measure_speed,
    speedup,
)
from repro.evalbench.runner import EvaluationRunner, PromptEvaluation, QualityReport

__all__ = [
    "Problem",
    "ProblemSuite",
    "rtllm_suite",
    "vgen_suite",
    "pass_at_k",
    "pass_at_k_from_counts",
    "pass_at_k_single",
    "pass_rate",
    "check_design_compiles",
    "check_design_functional",
    "check_designs_functional",
    "SpeedReport",
    "measure_speed",
    "speedup",
    "EvaluationRunner",
    "PromptEvaluation",
    "QualityReport",
]

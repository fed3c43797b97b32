"""Benchmark problem definitions.

A :class:`Problem` bundles everything needed to grade one benchmark entry:

* ``prompt`` — the natural-language specification shown to the model
  (RTLLM-style free description, or VGen-style description plus module header);
* ``reference`` — a golden design that passes the testbench (used to validate
  the benchmark itself and as the target of oracle tests);
* ``testbench`` — a self-checking testbench that prints ``TEST PASSED`` /
  ``TEST FAILED`` markers, exactly the convention the functional grader in
  :mod:`repro.evalbench.functional` looks for;
* ``module_name`` — the required top-level module name.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator, List, Optional


def module_name_from_reference(reference: str) -> str:
    """The name of the first module ``reference`` defines (both suites'
    ``Problem.module_name``)."""
    match = re.search(r"module\s+(\w+)", reference)
    if match is None:
        raise ValueError("reference has no module definition")
    return match.group(1)


@dataclass(frozen=True)
class Problem:
    """One benchmark problem."""

    name: str
    prompt: str
    reference: str
    testbench: str
    module_name: str
    category: str = "combinational"


@dataclass
class ProblemSuite:
    """A named collection of problems (e.g. RTLLM or VGen)."""

    name: str
    problems: List[Problem] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.problems)

    def __iter__(self) -> Iterator[Problem]:
        return iter(self.problems)

    def __getitem__(self, index: int) -> Problem:
        return self.problems[index]

    def get(self, name: str) -> Optional[Problem]:
        """Return the problem called ``name`` if present."""
        for problem in self.problems:
            if problem.name == name:
                return problem
        return None

    def prompts(self) -> List[str]:
        """All prompts in suite order."""
        return [problem.prompt for problem in self.problems]

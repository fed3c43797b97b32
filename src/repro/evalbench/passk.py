"""pass@k and Pass Rate metrics (paper eq. 5 and eq. 6).

``pass@k`` is the unbiased estimator introduced by the HumanEval/VerilogEval
line of work: for a prompt with ``n`` samples of which ``c`` pass, the
probability that at least one of ``k`` randomly chosen samples passes is
``1 - C(n - c, k) / C(n, k)``.  The benchmark-level value is the mean over
prompts.  ``Pass Rate`` is the fraction of prompts for which *any* of the
samples passed.

Requesting ``k`` larger than the sample count ``n`` raises
:class:`ValueError`: the estimator is undefined there, and evaluating at
``k = n`` instead would mislabel the reported column (a "pass@10" computed
from 5 samples is a pass@5).
"""

from __future__ import annotations

from math import comb
from typing import Sequence


def pass_at_k_single(n: int, c: int, k: int) -> float:
    """pass@k for one prompt with ``n`` samples and ``c`` passing samples.

    Args:
        n: number of samples drawn for the prompt.
        c: number of passing samples (``0 <= c <= n``).
        k: the ``k`` of pass@k; must be positive and, when ``n > 0``, at
            most ``n``.
    """
    if n < 0 or c < 0 or c > n:
        raise ValueError("invalid sample counts")
    if k <= 0:
        raise ValueError("k must be positive")
    if n == 0:
        return 0.0
    if k > n:
        raise ValueError(f"pass@{k} requested with only n={n} samples; the estimator needs k <= n")
    if c == 0:
        return 0.0
    if n - c < k:
        return 1.0
    return 1.0 - comb(n - c, k) / comb(n, k)


def pass_at_k_from_counts(counts: Sequence[Sequence[int]], k: int) -> float:
    """Mean pass@k over prompts given ``(n, c)`` pairs."""
    if not counts:
        return 0.0
    return sum(pass_at_k_single(n, c, k) for n, c in counts) / len(counts)


def pass_at_k(results_per_prompt: Sequence[Sequence[bool]], k: int) -> float:
    """Mean pass@k over prompts given per-sample pass/fail flags."""
    counts = [(len(results), sum(bool(r) for r in results)) for results in results_per_prompt]
    return pass_at_k_from_counts(counts, k)


def pass_rate(results_per_prompt: Sequence[Sequence[bool]]) -> float:
    """Fraction of prompts with at least one passing sample (eq. 6)."""
    if not results_per_prompt:
        return 0.0
    successes = sum(1 for results in results_per_prompt if any(results))
    return successes / len(results_per_prompt)

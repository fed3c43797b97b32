"""Data refinement pipeline (paper Fig. 2, "Code Refinement" path).

The paper's pipeline is: split raw files into modules, remove duplicates with
MinHash/Jaccard, filter files lacking complete ``module``/``endmodule``
structures or consisting mostly of comments, syntax-check everything with the
Stagira parser keeping only passing samples, and finally annotate the cleaned
code with its syntactically significant tokens (``[FRAG]`` insertion).

:func:`refine_corpus` runs exactly these stages over a list of
:class:`~repro.data.corpus.CorpusItem`, reports what each stage removed and
emits each surviving module as an :class:`~repro.data.alpaca.AlpacaExample`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.data.alpaca import AlpacaExample
from repro.data.corpus import CorpusItem
from repro.data.minhash import MinHashDeduplicator
from repro.verilog.fragments import insert_frag_markers
from repro.verilog.syntax import check_syntax


@dataclass
class RefinementConfig:
    """Configuration of the refinement pipeline."""

    dedup_threshold: float = 0.8
    minhash_permutations: int = 64
    minhash_bands: int = 16
    #: Items whose comment-character fraction exceeds this are dropped.
    max_comment_fraction: float = 0.6


@dataclass
class RefinementReport:
    """Statistics of one refinement run."""

    total_input: int = 0
    after_module_split: int = 0
    removed_structure_filter: int = 0
    removed_comment_filter: int = 0
    removed_duplicates: int = 0
    removed_syntax: int = 0
    kept: int = 0
    #: The surviving modules, each with its description as the instruction.
    examples: List[AlpacaExample] = field(default_factory=list)


_COMMENT_PATTERN = re.compile(r"//[^\n]*|/\*.*?\*/", re.DOTALL)


def split_into_modules(source: str) -> List[str]:
    """Split a Verilog file into its top-level module texts.

    Mirrors the paper's "each file is segmented into functional Verilog
    modules" step.  Text outside any module is discarded.
    """
    modules: List[str] = []
    pattern = re.compile(r"\bmodule\b")
    end_pattern = re.compile(r"\bendmodule\b")
    position = 0
    while True:
        start_match = pattern.search(source, position)
        if start_match is None:
            break
        end_match = end_pattern.search(source, start_match.end())
        if end_match is None:
            break
        modules.append(source[start_match.start() : end_match.end()].strip() + "\n")
        position = end_match.end()
    return modules


def has_complete_module_structure(source: str) -> bool:
    """True when the text contains matching ``module``/``endmodule`` keywords."""
    return bool(re.search(r"\bmodule\b", source)) and bool(re.search(r"\bendmodule\b", source))


def comment_fraction(source: str) -> float:
    """Fraction of characters that belong to comments."""
    if not source.strip():
        return 1.0
    comment_chars = sum(len(match.group(0)) for match in _COMMENT_PATTERN.finditer(source))
    return comment_chars / max(len(source), 1)


def refine_corpus(
    items: Sequence[CorpusItem], config: Optional[RefinementConfig] = None
) -> RefinementReport:
    """Run the full refinement pipeline over raw corpus items."""
    config = config or RefinementConfig()
    report = RefinementReport(total_input=len(items))

    # Stage 1: split into modules (one item may contain several modules).
    staged: List[Tuple[CorpusItem, str]] = []
    for item in items:
        modules = split_into_modules(item.code)
        if not modules:
            # Keep the raw text so later stages can reject it explicitly.
            staged.append((item, item.code))
            continue
        for module_text in modules:
            staged.append((item, module_text))
    report.after_module_split = len(staged)

    # Stage 2: structural filter (complete module/endmodule, not mostly comments).
    structurally_ok: List[Tuple[CorpusItem, str]] = []
    for item, code in staged:
        if not has_complete_module_structure(code):
            report.removed_structure_filter += 1
            continue
        if comment_fraction(code) > config.max_comment_fraction:
            report.removed_comment_filter += 1
            continue
        structurally_ok.append((item, code))

    # Stage 3: MinHash/Jaccard deduplication.
    deduplicator = MinHashDeduplicator(
        threshold=config.dedup_threshold,
        num_permutations=config.minhash_permutations,
        bands=config.minhash_bands,
    )
    kept_indices, duplicate_pairs = deduplicator.deduplicate([code for _, code in structurally_ok])
    report.removed_duplicates = len(duplicate_pairs)
    deduplicated = [structurally_ok[i] for i in kept_indices]

    # Stage 4: syntax check with the parser; keep only cleaned code, and
    # annotate it with [FRAG] markers.
    for item, code in deduplicated:
        result = check_syntax(code)
        if not result.ok:
            report.removed_syntax += 1
            continue
        report.examples.append(
            AlpacaExample(
                instruction=item.description,
                output=code,
                output_with_frag=insert_frag_markers(code),
                name=item.name,
            )
        )
    report.kept = len(report.examples)
    return report

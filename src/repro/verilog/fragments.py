"""Code segmentation into syntactically meaningful fragments (paper Fig. 3C).

After the significant tokens have been identified, the paper uses regular
expressions to segment the code into fragments that preserve syntax integrity,
inserting a special ``[FRAG]`` marker at every segmentation point.  The
``[FRAG]``-annotated text is what the tokenizer sees and what the
syntax-enriched labels (:mod:`repro.core.labels`) are built from.

This module provides:

* :func:`segment_code` — split code into (fragment, is_significant) pieces;
* :func:`insert_frag_markers` — produce the ``[FRAG]``-annotated text;
* :func:`strip_frag_markers` — recover plain code from annotated text.

The marker string itself is :data:`repro.tokenizer.vocab.FRAG`, the
tokenizer's atomic ``[FRAG]`` token.  Where decoding may stop is decided on
token ids, not on text: :mod:`repro.core.integrity` owns that rule.
"""

from __future__ import annotations

import re
from typing import List, Optional, Sequence, Tuple

from repro.tokenizer.vocab import FRAG
from repro.verilog.significant import extract_significant_tokens

#: Tokens that never need word boundaries (operators / punctuation).
_NON_WORD = re.compile(r"[^0-9A-Za-z_]")


def _build_pattern(significant_tokens: Sequence[str]) -> re.Pattern:
    """Build a regex that matches any significant token (longest first)."""
    ordered = sorted(set(significant_tokens), key=len, reverse=True)
    alternatives = []
    for token in ordered:
        escaped = re.escape(token)
        if _NON_WORD.search(token):
            alternatives.append(escaped)
        else:
            # Word-like tokens must match whole identifiers only, so that e.g.
            # the keyword ``reg`` does not split ``data_register``.
            alternatives.append(rf"(?<![0-9A-Za-z_$]){escaped}(?![0-9A-Za-z_$])")
    return re.compile("|".join(alternatives)) if alternatives else re.compile(r"(?!x)x")


def segment_code(
    source: str, significant_tokens: Optional[Sequence[str]] = None
) -> List[Tuple[str, bool]]:
    """Segment ``source`` around its significant tokens.

    Args:
        source: plain Verilog source text (no ``[FRAG]`` markers).
        significant_tokens: the significant-token set.  When omitted it is
            derived from ``source`` itself via
            :func:`repro.verilog.significant.extract_significant_tokens`.

    Returns:
        A list of ``(text, is_significant)`` pieces whose concatenation equals
        ``source``.  ``is_significant`` is True for pieces that are significant
        tokens and False for the glue (whitespace, brackets, the remainder).
    """
    if significant_tokens is None:
        significant_tokens = extract_significant_tokens(source)
    pattern = _build_pattern(significant_tokens)
    pieces: List[Tuple[str, bool]] = []
    cursor = 0
    for match in pattern.finditer(source):
        if match.start() > cursor:
            pieces.append((source[cursor : match.start()], False))
        pieces.append((match.group(0), True))
        cursor = match.end()
    if cursor < len(source):
        pieces.append((source[cursor:], False))
    return pieces


def insert_frag_markers(
    source: str, significant_tokens: Optional[Sequence[str]] = None
) -> str:
    """Insert ``[FRAG]`` markers around every significant token in ``source``.

    The result matches the paper's Fig. 3C format: each significant token is
    bracketed by ``[FRAG]`` markers, and non-significant glue text is kept
    verbatim between them.  Consecutive markers are collapsed so that the
    annotated text never contains ``[FRAG][FRAG]`` runs longer than one marker
    per boundary.
    """
    pieces = segment_code(source, significant_tokens)
    out: List[str] = []

    def append_marker() -> None:
        if not out or not out[-1].endswith(FRAG):
            out.append(FRAG)

    for text, is_significant in pieces:
        if is_significant:
            append_marker()
            out.append(text)
            out.append(FRAG)
        else:
            out.append(text)
    return "".join(out)


def strip_frag_markers(annotated: str) -> str:
    """Remove every ``[FRAG]`` marker, recovering the plain source text."""
    return annotated.replace(FRAG, "")

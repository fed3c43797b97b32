"""Dataset construction substrate (paper Sec. III-A).

The paper builds its corpus from GitHub Verilog files plus MG-Verilog and
RTLCoder, then refines it: split into modules, de-duplicate with MinHash +
Jaccard similarity, filter malformed files, syntax-check with the Stagira
parser, and attach natural-language descriptions (GPT-4 generated for the
GitHub portion).  With no network access, this subpackage substitutes a
parameterised synthetic Verilog generator for the scrape and a template-based
description generator for GPT-4 — but runs the *same* refinement pipeline on
top of them.
"""

from repro.data.corpus import CorpusConfig, CorpusItem, SyntheticVerilogCorpus
from repro.data.descriptions import describe_design
from repro.data.minhash import MinHashDeduplicator, jaccard_similarity, minhash_signature
from repro.data.refinement import RefinementConfig, RefinementReport, refine_corpus, split_into_modules
from repro.data.alpaca import AlpacaExample, subset_fractions

__all__ = [
    "CorpusConfig",
    "CorpusItem",
    "SyntheticVerilogCorpus",
    "describe_design",
    "MinHashDeduplicator",
    "jaccard_similarity",
    "minhash_signature",
    "RefinementConfig",
    "RefinementReport",
    "refine_corpus",
    "split_into_modules",
    "AlpacaExample",
    "subset_fractions",
]

"""Trainable byte-pair-encoding tokenizer.

This is the reproduction's substitute for the HuggingFace BPE tokenizers that
CodeLlama and CodeT5p ship with.  It implements the classic BPE training loop
(count adjacent symbol pairs, merge the most frequent, repeat) over a
whitespace-aware pre-tokenization, and encodes/decodes text with learned
merges.  Special tokens — most importantly ``[FRAG]`` — are always atomic: they
are split out before pre-tokenization and never participate in merges, so a
fragment boundary is always exactly one token, which the syntax-enriched label
construction (:mod:`repro.core.labels`) relies on.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.tokenizer.vocab import SpecialTokens, Vocabulary

#: Marker for a leading space, mirroring the GPT-2/SentencePiece convention.
_SPACE_MARKER = "Ġ"
#: Marker for a newline.
_NEWLINE_MARKER = "Ċ"

_WORD_PATTERN = re.compile(
    r"""[A-Za-z_][A-Za-z0-9_$]*   # identifiers / keywords
      | [0-9]+'[bodhBODH][0-9a-fA-FxzXZ_?]+  # sized literals
      | [0-9]+                   # plain numbers
      | [^\sA-Za-z0-9_]+         # operator / punctuation runs
      """,
    re.VERBOSE,
)


class BPETokenizer:
    """Byte-pair-encoding tokenizer with atomic special tokens."""

    def __init__(self, special: Optional[SpecialTokens] = None) -> None:
        self.special = special or SpecialTokens()
        self.vocab = Vocabulary(special=self.special)
        self.merges: List[Tuple[str, str]] = []
        self._merge_ranks: Dict[Tuple[str, str], int] = {}
        self._special_pattern = re.compile(
            "(" + "|".join(re.escape(tok) for tok in self.special.as_list()) + ")"
        )
        self._encode_cache: Dict[str, List[str]] = {}
        #: :meth:`piece_table` per ``keep_frag``, rebuilt when the vocabulary grows.
        self._piece_tables: Dict[bool, List[str]] = {}

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #

    def train(self, corpus: Iterable[str], vocab_size: int = 2000, min_frequency: int = 2) -> None:
        """Learn BPE merges from ``corpus``.

        Args:
            corpus: iterable of text documents (code and natural language).
            vocab_size: target total vocabulary size (including specials and
                single characters).
            min_frequency: pairs occurring fewer times than this are not merged.
        """
        word_counts: Counter = Counter()
        for document in corpus:
            for word in self._pre_tokenize(document):
                word_counts[word] += 1

        # Start from characters (always including the whitespace markers so
        # indentation/newlines survive encode/decode even if the training
        # corpus happens not to contain them).
        splits: Dict[str, List[str]] = {word: list(word) for word in word_counts}
        alphabet = sorted({ch for word in word_counts for ch in word} | {_SPACE_MARKER, _NEWLINE_MARKER})
        for ch in alphabet:
            self.vocab.add(ch)

        self.merges = []
        while len(self.vocab) < vocab_size:
            pair_counts: Counter = Counter()
            for word, count in word_counts.items():
                symbols = splits[word]
                for i in range(len(symbols) - 1):
                    pair_counts[(symbols[i], symbols[i + 1])] += count
            if not pair_counts:
                break
            best_pair, best_count = pair_counts.most_common(1)[0]
            if best_count < min_frequency:
                break
            merged = best_pair[0] + best_pair[1]
            self.merges.append(best_pair)
            self.vocab.add(merged)
            for word in splits:
                splits[word] = self._apply_merge(splits[word], best_pair, merged)
        self._merge_ranks = {pair: rank for rank, pair in enumerate(self.merges)}
        self._encode_cache = {}

    @staticmethod
    def _apply_merge(symbols: List[str], pair: Tuple[str, str], merged: str) -> List[str]:
        out: List[str] = []
        i = 0
        while i < len(symbols):
            if i < len(symbols) - 1 and symbols[i] == pair[0] and symbols[i + 1] == pair[1]:
                out.append(merged)
                i += 2
            else:
                out.append(symbols[i])
                i += 1
        return out

    # ------------------------------------------------------------------ #
    # Pre-tokenization
    # ------------------------------------------------------------------ #

    def _pre_tokenize(self, text: str) -> List[str]:
        """Split text into words, marking leading whitespace and newlines."""
        words: List[str] = []
        for chunk in self._special_pattern.split(text):
            if not chunk or chunk in self.special.as_list():
                continue
            pos = 0
            pending_space = ""
            while pos < len(chunk):
                ch = chunk[pos]
                if ch == "\n":
                    words.append(_NEWLINE_MARKER)
                    pending_space = ""
                    pos += 1
                    continue
                if ch in " \t":
                    pending_space = _SPACE_MARKER
                    pos += 1
                    continue
                match = _WORD_PATTERN.match(chunk, pos)
                if match is None:
                    pos += 1
                    continue
                words.append(pending_space + match.group(0))
                pending_space = ""
                pos = match.end()
        return words

    # ------------------------------------------------------------------ #
    # Encoding / decoding
    # ------------------------------------------------------------------ #

    def encode_to_tokens(self, text: str) -> List[str]:
        """Encode ``text`` into a list of string tokens (BPE pieces + specials)."""
        pieces: List[str] = []
        for chunk in self._special_pattern.split(text):
            if not chunk:
                continue
            if chunk in self.special.as_list():
                pieces.append(chunk)
                continue
            for word in self._pre_tokenize(chunk):
                pieces.extend(self._encode_word(word))
        return pieces

    def encode(self, text: str, add_bos: bool = False, add_eos: bool = False) -> List[int]:
        """Encode ``text`` into token ids."""
        ids = [self.vocab.token_to_id(token) for token in self.encode_to_tokens(text)]
        if add_bos:
            ids.insert(0, self.vocab.bos_id)
        if add_eos:
            ids.append(self.vocab.eos_id)
        return ids

    def encode_prompt(self, text: str) -> List[int]:
        """The ids a model is prompted with for instruction ``text``.

        The one place a prompt becomes model-facing ids: decoding, serving,
        trace replay, evaluation and training all call it, so the prompt a
        method is trained on and the prompt it is evaluated with cannot
        differ in format.
        """
        return self.encode(text, add_bos=True)

    def _encode_word(self, word: str) -> List[str]:
        cached = self._encode_cache.get(word)
        if cached is not None:
            return cached
        symbols = list(word)
        while len(symbols) > 1:
            best_rank = None
            best_index = -1
            for i in range(len(symbols) - 1):
                rank = self._merge_ranks.get((symbols[i], symbols[i + 1]))
                if rank is not None and (best_rank is None or rank < best_rank):
                    best_rank = rank
                    best_index = i
            if best_rank is None:
                break
            symbols[best_index : best_index + 2] = [symbols[best_index] + symbols[best_index + 1]]
        result = [s if s in self.vocab else self.special.unk for s in symbols]
        self._encode_cache[word] = result
        return result

    def piece_table(self, keep_frag: bool = True) -> List[str]:
        """Per-id text of every vocabulary token: what :meth:`decode` joins.

        Whitespace markers are expanded; ``[PAD]``, ``[IGNORE]``, BOS and EOS
        contribute nothing, and ``[FRAG]`` contributes itself when
        ``keep_frag`` and nothing otherwise (the code view).  Each table is
        built once per vocabulary and shared: the grammar mask
        (:mod:`repro.constrained.mask`) constrains exactly the code text
        ``decode(ids, keep_frag=False)`` returns.
        """
        table = self._piece_tables.get(keep_frag)
        if table is None or len(table) != len(self.vocab):
            special = self.special
            silent = {special.pad, special.ignore, special.bos, special.eos}
            if not keep_frag:
                silent.add(special.frag)
            table = [
                "" if token in silent else token.replace(_SPACE_MARKER, " ").replace(_NEWLINE_MARKER, "\n")
                for token in self.vocab.tokens()
            ]
            self._piece_tables[keep_frag] = table
        return table

    def decode(self, ids: Sequence[int], keep_frag: bool = True) -> str:
        """Decode token ids back to text.

        Args:
            ids: token ids; an id outside ``[0, V)`` decodes to ``[UNK]``.
            keep_frag: when False, ``[FRAG]`` tokens are dropped so the
                result is plain Verilog code.
        """
        table = self.piece_table(keep_frag)
        size = len(table)
        unk = table[self.vocab.unk_id]
        return "".join([table[i] if 0 <= i < size else unk for i in ids])

    @property
    def vocab_size(self) -> int:
        """Total number of tokens in the vocabulary."""
        return len(self.vocab)

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #

    def save(self, path: Union[str, Path]) -> None:
        """Write the tokenizer (vocab + merges) to a JSON file."""
        payload = {
            "special": self.special.__dict__,
            "tokens": self.vocab.tokens(),
            "merges": [list(pair) for pair in self.merges],
        }
        Path(path).write_text(json.dumps(payload))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "BPETokenizer":
        """Load a tokenizer previously written by :meth:`save`."""
        payload = json.loads(Path(path).read_text())
        tokenizer = cls(special=SpecialTokens(**payload["special"]))
        for token in payload["tokens"]:
            tokenizer.vocab.add(token)
        tokenizer.merges = [tuple(pair) for pair in payload["merges"]]
        tokenizer._merge_ranks = {pair: rank for rank, pair in enumerate(tokenizer.merges)}
        return tokenizer

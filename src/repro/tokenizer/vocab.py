"""Vocabulary and special tokens.

The paper's method extends a conventional BPE vocabulary with three special
tokens:

* ``[FRAG]`` — the fragment-boundary marker inserted by
  :func:`repro.verilog.fragments.insert_frag_markers`;
* ``[PAD]`` — padding appended to head labels so all heads share the base
  label's sequence length (Fig. 4, "Before" panel);
* ``[IGNORE]`` — positions excluded from the loss (Fig. 4, "After" panel).

plus the usual BOS/EOS/UNK bookkeeping tokens.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional


#: The fragment-boundary marker: written into the training text by
#: :func:`repro.verilog.fragments.insert_frag_markers` and split out of any
#: text by the tokenizer as one atomic token.
FRAG = "[FRAG]"


@dataclass(frozen=True)
class SpecialTokens:
    """Names of the special tokens used throughout the reproduction."""

    pad: str = "[PAD]"
    unk: str = "[UNK]"
    bos: str = "<s>"
    eos: str = "</s>"
    frag: str = FRAG
    ignore: str = "[IGNORE]"

    def as_list(self) -> List[str]:
        """All special tokens in canonical (id-assignment) order."""
        return [self.pad, self.unk, self.bos, self.eos, self.frag, self.ignore]


class Vocabulary:
    """A bidirectional token <-> id mapping with special-token bookkeeping."""

    def __init__(self, tokens: Iterable[str] = (), special: Optional[SpecialTokens] = None) -> None:
        self.special = special or SpecialTokens()
        self._token_to_id: Dict[str, int] = {}
        self._id_to_token: List[str] = []
        for token in self.special.as_list():
            self.add(token)
        for token in tokens:
            self.add(token)

    # -- mutation -----------------------------------------------------------

    def add(self, token: str) -> int:
        """Add ``token`` (idempotent) and return its id."""
        existing = self._token_to_id.get(token)
        if existing is not None:
            return existing
        token_id = len(self._id_to_token)
        self._token_to_id[token] = token_id
        self._id_to_token.append(token)
        return token_id

    # -- lookup -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    def token_to_id(self, token: str) -> int:
        """Return the id of ``token``, or the UNK id if unknown."""
        return self._token_to_id.get(token, self._token_to_id[self.special.unk])

    def id_to_token(self, token_id: int) -> str:
        """Return the token with id ``token_id``."""
        if 0 <= token_id < len(self._id_to_token):
            return self._id_to_token[token_id]
        return self.special.unk

    @property
    def pad_id(self) -> int:
        return self._token_to_id[self.special.pad]

    @property
    def unk_id(self) -> int:
        return self._token_to_id[self.special.unk]

    @property
    def bos_id(self) -> int:
        return self._token_to_id[self.special.bos]

    @property
    def eos_id(self) -> int:
        return self._token_to_id[self.special.eos]

    @property
    def frag_id(self) -> int:
        return self._token_to_id[self.special.frag]

    @property
    def ignore_id(self) -> int:
        return self._token_to_id[self.special.ignore]

    def tokens(self) -> List[str]:
        """All tokens in id order."""
        return list(self._id_to_token)

"""Four-state logic values.

Verilog signals take the values 0, 1, X (unknown) and Z (high impedance).  A
:class:`FourState` vector stores, for each bit, whether it is known and, if
known, whether it is 0 or 1.  Unknown bits are tracked with a mask so that
X-propagation through expressions behaves the way a real simulator (and the
paper's iverilog-based grader) would: arithmetic on unknown inputs produces
unknown outputs, comparisons against unknowns are unknown, and conditionals on
unknowns take the "unknown" branch value.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Union

X_CHAR = "x"
Z_CHAR = "z"


@dataclass(frozen=True)
class FourState:
    """A fixed-width 4-state logic vector.

    Attributes:
        width: number of bits (>= 1).
        value: the known bit values (bits where ``unknown`` is set are 0 here).
        unknown: mask of bits that are X or Z.
        zmask: subset of ``unknown`` bits that are specifically Z.
        signed: whether arithmetic should treat the vector as signed.
    """

    width: int
    value: int
    unknown: int = 0
    zmask: int = 0
    signed: bool = False

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError("width must be >= 1")
        mask = (1 << self.width) - 1
        object.__setattr__(self, "value", self.value & mask & ~self.unknown)
        object.__setattr__(self, "unknown", self.unknown & mask)
        object.__setattr__(self, "zmask", self.zmask & self.unknown)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_int(value: int, width: int = 32, signed: bool = False) -> "FourState":
        """Build a fully-known vector from a Python integer (two's complement)."""
        mask = (1 << width) - 1
        return FourState(width=width, value=value & mask, unknown=0, signed=signed)

    @staticmethod
    def unknown_value(width: int = 32) -> "FourState":
        """Build an all-X vector."""
        mask = (1 << width) - 1
        return FourState(width=width, value=0, unknown=mask)

    @staticmethod
    def high_z(width: int = 32) -> "FourState":
        """Build an all-Z vector."""
        mask = (1 << width) - 1
        return FourState(width=width, value=0, unknown=mask, zmask=mask)

    @staticmethod
    def from_bits(bits: str, signed: bool = False) -> "FourState":
        """Build a vector from a bit string like ``"10x1z"`` (MSB first)."""
        width = len(bits)
        value = 0
        unknown = 0
        zmask = 0
        for ch in bits:
            value <<= 1
            unknown <<= 1
            zmask <<= 1
            low = ch.lower()
            if low == "1":
                value |= 1
            elif low == "0":
                pass
            elif low == X_CHAR:
                unknown |= 1
            elif low == Z_CHAR or low == "?":
                # '?' is shorthand for Z (don't-care in casez patterns).
                unknown |= 1
                zmask |= 1
            else:
                raise ValueError(f"invalid bit character {ch!r}")
        return FourState(width=width, value=value, unknown=unknown, zmask=zmask, signed=signed)

    @staticmethod
    @lru_cache(maxsize=4096)
    def from_literal(width: Optional[int], base: str, digits: str, signed: bool = False) -> "FourState":
        """Build a vector from the parts of a Verilog literal (e.g. 4, 'b', '10x1').

        Memoised: a design's literals recur in every simulator built over it,
        and a :class:`FourState` is immutable, so one value serves them all.
        """
        digits = digits.replace("_", "")
        base = base.lower()
        bits_per_digit = {"b": 1, "o": 3, "h": 4, "d": 0}[base]
        if base == "d":
            if any(c.lower() in (X_CHAR, Z_CHAR, "?") for c in digits):
                w = width or 32
                return FourState.unknown_value(w)
            value = int(digits) if digits else 0
            w = width or max(32, value.bit_length() or 1)
            return FourState.from_int(value, width=w, signed=signed)
        bit_string = ""
        for ch in digits:
            low = ch.lower()
            if low in (X_CHAR, Z_CHAR, "?"):
                char = X_CHAR if low == X_CHAR else Z_CHAR
                bit_string += char * bits_per_digit
            else:
                bit_string += format(int(ch, 16 if base == "h" else 8 if base == "o" else 2), f"0{bits_per_digit}b")
        if not bit_string:
            bit_string = "0"
        if width is not None:
            if len(bit_string) < width:
                pad_char = bit_string[0] if bit_string[0] in (X_CHAR, Z_CHAR) else "0"
                bit_string = pad_char * (width - len(bit_string)) + bit_string
            elif len(bit_string) > width:
                bit_string = bit_string[-width:]
        return FourState.from_bits(bit_string, signed=signed)

    # -- inspection ---------------------------------------------------------

    @property
    def is_fully_known(self) -> bool:
        """True when no bit is X or Z."""
        return self.unknown == 0

    def to_int(self) -> int:
        """Interpret the vector as an unsigned (or signed) Python integer.

        Unknown bits are treated as 0, matching how Verilog converts 4-state
        values in arithmetic contexts after X-propagation has been handled.
        """
        raw = self.value
        if self.signed and self.width > 0 and (raw >> (self.width - 1)) & 1:
            return raw - (1 << self.width)
        return raw

    def to_signed_int(self) -> int:
        """Interpret the vector as a signed integer regardless of ``signed``."""
        raw = self.value
        if self.width > 0 and (raw >> (self.width - 1)) & 1:
            return raw - (1 << self.width)
        return raw

    def bit(self, index: int) -> str:
        """Return the character ('0','1','x','z') of bit ``index`` (LSB = 0)."""
        if index < 0 or index >= self.width:
            return X_CHAR
        if (self.unknown >> index) & 1:
            return Z_CHAR if (self.zmask >> index) & 1 else X_CHAR
        return "1" if (self.value >> index) & 1 else "0"

    def to_bit_string(self) -> str:
        """Return the MSB-first bit string, e.g. ``"10x1"``."""
        return "".join(self.bit(i) for i in range(self.width - 1, -1, -1))

    def is_true(self) -> Optional[bool]:
        """Truthiness used by ``if``/``while``: True, False, or None for unknown."""
        if self.value != 0:
            return True
        if self.unknown != 0:
            return None
        return False

    # -- conversions --------------------------------------------------------

    def resize(self, width: int, signed: Optional[bool] = None) -> "FourState":
        """Zero-/sign-extend or truncate to ``width`` bits."""
        signed = self.signed if signed is None else signed
        if width == self.width:
            if signed == self.signed:
                return self
            return FourState(self.width, self.value, self.unknown, self.zmask, signed)
        if width < self.width:
            return FourState(width, self.value, self.unknown, self.zmask, signed)
        extension_bits = width - self.width
        msb_index = self.width - 1
        value = self.value
        unknown = self.unknown
        zmask = self.zmask
        if self.signed and not (self.unknown >> msb_index) & 1 and (self.value >> msb_index) & 1:
            value |= ((1 << extension_bits) - 1) << self.width
        if (self.unknown >> msb_index) & 1:
            unknown |= ((1 << extension_bits) - 1) << self.width
            if (self.zmask >> msb_index) & 1:
                zmask |= ((1 << extension_bits) - 1) << self.width
        return FourState(width, value, unknown, zmask, signed)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.width}'b{self.to_bit_string()}"


Valueish = Union[FourState, int, bool]


def as_four_state(value: Valueish, width: int = 32) -> FourState:
    """Coerce ``value`` into a :class:`FourState` of at least ``width`` bits."""
    if isinstance(value, FourState):
        return value
    if isinstance(value, bool):
        return FourState.from_int(int(value), width=1)
    return FourState.from_int(int(value), width=width)

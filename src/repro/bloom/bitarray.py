"""Fixed-size bit vector backed by a single Python integer.

The BMT (paper §III-B2) ORs whole Bloom filters together at every interior
node — thousands of times while indexing a chain — so the representation
must make bitwise-OR cheap.  A Python ``int`` gives an O(words) OR in C,
far faster than any per-bit structure, while still serializing to the exact
``size_bits / 8`` bytes the paper's size accounting assumes.
"""

from __future__ import annotations

from repro.errors import EncodingError


class BitArray:
    """Immutable-width, mutable-content bit vector.

    Bit ``i`` is the ``i % 8``-th least significant bit of byte ``i // 8``
    in the serialized form, matching Bitcoin's BIP-37 filter layout.
    """

    __slots__ = ("_bits", "_value")

    def __init__(self, size_bits: int, value: int = 0) -> None:
        if size_bits <= 0:
            raise ValueError(f"BitArray needs a positive size, got {size_bits}")
        if size_bits % 8:
            raise ValueError(f"BitArray size must be byte-aligned, got {size_bits}")
        if value < 0 or value.bit_length() > size_bits:
            raise ValueError("initial value does not fit in the bit array")
        self._bits = size_bits
        self._value = value

    # -- construction ------------------------------------------------------

    @classmethod
    def from_bytes(cls, payload: bytes) -> "BitArray":
        if not payload:
            raise EncodingError("cannot build a BitArray from empty bytes")
        return cls(len(payload) * 8, int.from_bytes(payload, "little"))

    # -- inspection --------------------------------------------------------

    @property
    def size_bits(self) -> int:
        return self._bits

    @property
    def size_bytes(self) -> int:
        return self._bits // 8

    def get(self, index: int) -> bool:
        self._check_index(index)
        return bool((self._value >> index) & 1)

    def popcount(self) -> int:
        """Number of set bits."""
        return self._value.bit_count()

    def fill_ratio(self) -> float:
        """Fraction of bits set — drives the BMT endpoint distribution."""
        return self.popcount() / self._bits

    def __len__(self) -> int:
        return self._bits

    # -- mutation ----------------------------------------------------------

    def set(self, index: int) -> None:
        self._check_index(index)
        self._value |= 1 << index

    def clear(self, index: int) -> None:
        self._check_index(index)
        self._value &= ~(1 << index)

    def ior(self, other: "BitArray") -> None:
        """In-place OR; both arrays must have identical width."""
        self._check_width(other)
        self._value |= other._value

    # -- operators ---------------------------------------------------------

    def __or__(self, other: "BitArray") -> "BitArray":
        self._check_width(other)
        return BitArray(self._bits, self._value | other._value)

    def __and__(self, other: "BitArray") -> "BitArray":
        self._check_width(other)
        return BitArray(self._bits, self._value & other._value)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitArray):
            return NotImplemented
        return self._bits == other._bits and self._value == other._value

    def __hash__(self) -> int:
        return hash((self._bits, self._value))

    def is_subset_of(self, other: "BitArray") -> bool:
        """True when every set bit here is also set in ``other``.

        Verifiers use this to check that a child BF could plausibly have
        contributed to a parent BF (``child | parent == parent``).
        """
        self._check_width(other)
        return self._value | other._value == other._value

    def covers_positions(self, positions: "list[int]") -> bool:
        """True when *all* ``positions`` are set (a failed BF check).

        Folds the positions into one mask so the test is a single big-int
        AND rather than one shift per position — this sits on the hot
        path of every BMT descent and per-block filter check.
        """
        mask = 0
        for position in positions:
            if not 0 <= position < self._bits:
                raise IndexError(
                    f"bit {position} out of range [0, {self._bits})"
                )
            mask |= 1 << position
        return self._value & mask == mask

    def covers_mask(self, mask: int) -> bool:
        """``covers_positions`` for a pre-folded mask (no bounds checks;
        callers build the mask once per query via :meth:`positions_mask`)."""
        return self._value & mask == mask

    @staticmethod
    def positions_mask(positions: "list[int]") -> int:
        """Fold bit positions into the int mask ``covers_mask`` expects."""
        mask = 0
        for position in positions:
            mask |= 1 << position
        return mask

    # -- serialization -----------------------------------------------------

    def to_bytes(self) -> bytes:
        return self._value.to_bytes(self._bits // 8, "little")

    def copy(self) -> "BitArray":
        return BitArray(self._bits, self._value)

    def __repr__(self) -> str:
        return f"BitArray(bits={self._bits}, set={self.popcount()})"

    # -- internals ---------------------------------------------------------

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self._bits:
            raise IndexError(f"bit {index} out of range [0, {self._bits})")

    def _check_width(self, other: "BitArray") -> None:
        if self._bits != other._bits:
            raise ValueError(
                f"BitArray width mismatch: {self._bits} vs {other._bits}"
            )

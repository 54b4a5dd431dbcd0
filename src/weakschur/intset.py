"""Dense immutable sets of positive integers.

The whole library leans on one representation trick: a set of integers in
1..n is a single arbitrary-size Python int, with bit k set iff k is a
member.  Shifted intersection (``mask & (mask >> a)``) then answers "which
b have both b and a+b in the set" in one pass of word operations, which is
what makes verifying partitions of order ~4*10^5 cheap.
"""

from __future__ import annotations

from operator import index as _index
from typing import Iterable, Iterator

# bit positions set in each byte value, for fast mask -> elements decoding
_BYTE_BITS = tuple(
    tuple(b for b in range(8) if value >> b & 1) for value in range(256)
)


def bit_positions(mask: int) -> list[int]:
    """Positions of set bits, ascending, at a cost that follows the set
    bits rather than the mask width.

    One of two exact decoders is picked from the mask alone:

    * sparse: repeated highest-bit extraction, ``top = mask.bit_length()
      - 1`` then ``mask ^= 1 << top``.  Each bit costs a few big-int
      operations no wider than what is left of the mask, and nothing is
      spent on the zero bytes between bits.
    * dense: one bytewise pass with a 256-entry table, whose cost follows
      the width whatever the number of bits.

    The sparse decoder is taken when ``bits * (nbytes // 1024 + 1) <
    nbytes + 32``, a fit of both costs on CPython 3.11: one bit costs the
    sparse decoder about what one byte costs the bytewise pass, and more
    as the mask widens, while the bytewise pass has a start-up cost worth
    a few dozen bits.  Witness masks are sparse: a verifier pair mask
    lists the partners b of one operand a, a handful at most and on the
    2-adic condition-3 input exactly one, yet it is as wide as the whole
    subset; so are the run starts and ends of a construction output.
    Whole sets (``IntSet.from_mask``) take the bytewise path unless they
    fit in a few bytes.
    """
    if not mask:
        return []
    nbytes = (mask.bit_length() + 7) >> 3
    out: list[int] = []
    if mask.bit_count() * (nbytes // 1024 + 1) < nbytes + 32:
        append = out.append
        while mask:
            top = mask.bit_length() - 1
            append(top)
            mask ^= 1 << top
        out.reverse()
        return out
    extend = out.extend
    for i, byte in enumerate(mask.to_bytes(nbytes, "little")):
        if byte:
            base = i << 3
            extend(base + b for b in _BYTE_BITS[byte])
    return out


class IntSet:
    """Immutable set of integers >= 1 with a dense-bitmap backing.

    Keeps three views of the same data: a sorted tuple (cheap ascending
    iteration), a bytes buffer (O(1) membership) and an int mask (the
    shifted-intersection workhorse).
    """

    __slots__ = ("_elems", "_bytes", "_mask")

    def __init__(self, elements: Iterable[int] = ()):
        elems = sorted({_index(e) for e in elements})
        if elems and elems[0] < 1:
            raise ValueError(f"IntSet elements must be >= 1, got {elems[0]}")
        if elems:
            buf = bytearray((elems[-1] >> 3) + 1)
            for e in elems:
                buf[e >> 3] |= 1 << (e & 7)
            self._bytes = bytes(buf)
            self._mask = int.from_bytes(buf, "little")
        else:
            self._bytes = b""
            self._mask = 0
        self._elems = tuple(elems)

    @classmethod
    def from_mask(cls, mask: int) -> "IntSet":
        """Build from a bitmap int (bit k set means k is a member)."""
        if mask < 0:
            raise ValueError("mask must be non-negative")
        if mask & 1:
            raise ValueError("bit 0 set: IntSet elements must be >= 1")
        obj = cls.__new__(cls)
        obj._bytes = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
        obj._mask = mask
        obj._elems = tuple(bit_positions(mask))
        return obj

    @property
    def elements(self) -> tuple[int, ...]:
        return self._elems

    @property
    def mask(self) -> int:
        return self._mask

    @property
    def buffer(self) -> bytes:
        """The bitmap as little-endian bytes: k is a member iff
        ``buffer[k >> 3] >> (k & 7) & 1``, for 0 <= k <= max.  Loops that
        test many members already known to be in range read it directly,
        skipping ``__contains__``'s argument checks."""
        return self._bytes

    @property
    def min(self) -> int | None:
        return self._elems[0] if self._elems else None

    @property
    def max(self) -> int | None:
        return self._elems[-1] if self._elems else None

    def union(self, other: "IntSet | Iterable[int]") -> "IntSet":
        if isinstance(other, IntSet):
            return IntSet.from_mask(self._mask | other._mask)
        out = IntSet(other)
        return IntSet.from_mask(self._mask | out._mask)

    def with_element(self, x: int) -> "IntSet":
        x = _index(x)
        if x < 1:
            raise ValueError(f"IntSet elements must be >= 1, got {x}")
        if x in self:
            return self
        return IntSet.from_mask(self._mask | (1 << x))

    def __contains__(self, x: object) -> bool:
        try:
            k = _index(x)  # type: ignore[arg-type]
        except TypeError:
            return False
        if k < 0:
            return False
        buf = self._bytes
        i = k >> 3
        return i < len(buf) and buf[i] >> (k & 7) & 1 != 0

    def __iter__(self) -> Iterator[int]:
        return iter(self._elems)

    def __len__(self) -> int:
        return len(self._elems)

    def __bool__(self) -> bool:
        return bool(self._elems)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntSet):
            return NotImplemented
        return self._mask == other._mask

    def __hash__(self) -> int:
        return hash(self._mask)

    def __repr__(self) -> str:
        if len(self._elems) <= 12:
            body = ", ".join(map(str, self._elems))
            return f"IntSet({{{body}}})"
        head = ", ".join(map(str, self._elems[:6]))
        return f"IntSet({{{head}, ...}} len={len(self._elems)} max={self._elems[-1]})"

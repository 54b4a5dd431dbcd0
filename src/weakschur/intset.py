"""Dense immutable sets of positive integers.

The whole library leans on one representation trick: a set of integers in
1..n is a single arbitrary-size Python int, with bit k set iff k is a
member.  Shifted intersection (``mask & (mask >> a)``) then answers "which
b have both b and a+b in the set" in one pass of word operations, which is
what makes verifying partitions of order ~4*10^5 cheap.  The mask is the
only thing a set stores; its elements are decoded from it on demand.
"""

from __future__ import annotations

from operator import index as _index
from typing import Iterable, Iterator

# bit positions set in each byte value, for fast mask -> elements decoding
_BYTE_BITS = tuple(
    tuple(b for b in range(8) if value >> b & 1) for value in range(256)
)
# each byte value with its 8 bits in reverse order, for ``reflect``
_REVERSED_BYTES = bytes(int(f"{value:08b}"[::-1], 2) for value in range(256))
# each byte value's even bits 0, 2, 4, 6 packed into its low nibble, and
# the same packed into its high nibble, for ``halve``
_EVEN_BITS_LO = bytes(v & 1 | v >> 1 & 2 | v >> 2 & 4 | v >> 3 & 8 for v in range(256))
_EVEN_BITS_HI = bytes(b << 4 for b in _EVEN_BITS_LO)


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
    lists the partners b of one operand a, a handful at most, yet it is
    as wide as the whole subset; so is the mask of run edges that
    ``run_bounds`` decodes for a construction output.
    Whole sets (``IntSet.elements`` and iteration) take the bytewise path
    unless they fit in a few bytes.
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
            extend(map((i << 3).__add__, _BYTE_BITS[byte]))
    return out


def run_bounds(mask: int) -> tuple[list[int], list[int]]:
    """The runs of consecutive set bits of mask, as (starts, stops): run k
    is ``range(starts[k], stops[k])``, ascending.

    Bit j of ``mask ^ (mask << 1)`` is set exactly where the mask changes
    between j - 1 and j: at each run's first bit and just past its last.
    That mask holds two bits per run, so one ``bit_positions`` call
    decodes it, sparsely when the runs are few, and its even and odd
    entries are the starts and the stops.
    """
    edges = bit_positions(mask ^ (mask << 1))
    return edges[::2], edges[1::2]


def reflect(mask: int, r: int) -> int:
    """The mask of {r - a : a in mask}, for a mask with no bit above r.

    Reversing the bits of each byte and reading the bytes in the other
    order reverses the whole nb-byte mask, sending bit a to 8*nb - 1 - a;
    a shift by r + 1 - 8*nb then lands it on r - a.  When the shift goes
    right, the bits it drops stood for a > r, and there are none.
    """
    nb = (mask.bit_length() + 7) >> 3
    out = int.from_bytes(mask.to_bytes(nb, "little").translate(_REVERSED_BYTES), "big")
    shift = r + 1 - 8 * nb
    return out << shift if shift >= 0 else out >> -shift


def halve(mask: int) -> int:
    """The mask of {a : 2a in mask}: bit a of the result is bit 2a of mask.

    Byte 2j of the mask holds bits 16j..16j+7, whose even bits are bits
    8j..8j+3 of the result, and byte 2j + 1 holds those for bits
    8j+4..8j+7; so the even bytes, packed by one table into low nibbles,
    and the odd bytes, packed by another into high nibbles, OR into the
    result's bytes.  With an odd byte count the odd bytes are one fewer,
    and the missing one would be zero.
    """
    data = mask.to_bytes((mask.bit_length() + 7) >> 3, "little")
    return (int.from_bytes(data[0::2].translate(_EVEN_BITS_LO), "little")
            | int.from_bytes(data[1::2].translate(_EVEN_BITS_HI), "little"))


class IntSet:
    """Immutable set of integers >= 1, stored as one int bitmask.

    The mask is the only state: length, min, max and membership are bit
    operations on it, and the ascending elements are decoded from it with
    ``bit_positions`` on every call to ``elements``, ``__iter__`` or
    ``__repr__``.  Nothing is cached, so a set costs its mask alone; a
    caller that walks the elements more than once keeps its own copy.
    """

    __slots__ = ("_mask",)

    def __init__(self, elements: Iterable[int] = ()):
        elems = list(map(_index, elements))
        if elems and min(elems) < 1:
            raise ValueError(f"IntSet elements must be >= 1, got {min(elems)}")
        buf = bytearray((max(elems, default=0) >> 3) + 1)
        for e in elems:
            buf[e >> 3] |= 1 << (e & 7)
        self._mask = int.from_bytes(buf, "little")

    @classmethod
    def from_mask(cls, mask: int) -> "IntSet":
        """Build from a bitmap int (bit k set means k is a member)."""
        if mask < 0:
            raise ValueError("mask must be non-negative")
        if mask & 1:
            raise ValueError("bit 0 set: IntSet elements must be >= 1")
        obj = cls.__new__(cls)
        obj._mask = mask
        return obj

    @property
    def elements(self) -> tuple[int, ...]:
        return tuple(bit_positions(self._mask))

    @property
    def mask(self) -> int:
        return self._mask

    @property
    def min(self) -> int | None:
        m = self._mask
        return (m & -m).bit_length() - 1 if m else None

    @property
    def max(self) -> int | None:
        return self._mask.bit_length() - 1 if self._mask else None

    def union(self, other: "IntSet | Iterable[int]") -> "IntSet":
        if not isinstance(other, IntSet):
            other = IntSet(other)
        return IntSet.from_mask(self._mask | other._mask)

    def __contains__(self, x: object) -> bool:
        try:
            k = _index(x)  # type: ignore[arg-type]
        except TypeError:
            return False
        return k >= 0 and self._mask >> k & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return iter(bit_positions(self._mask))

    def __len__(self) -> int:
        return self._mask.bit_count()

    def __bool__(self) -> bool:
        return self._mask != 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntSet):
            return NotImplemented
        return self._mask == other._mask

    def __hash__(self) -> int:
        return hash(self._mask)

    def __repr__(self) -> str:
        elems = bit_positions(self._mask)
        if len(elems) <= 12:
            body = ", ".join(map(str, elems))
            return f"IntSet({{{body}}})"
        head = ", ".join(map(str, elems[:6]))
        return f"IntSet({{{head}, ...}} len={len(elems)} max={elems[-1]})"

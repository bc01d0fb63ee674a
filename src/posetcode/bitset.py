"""Subsets of {1, ..., n} as int bitmasks.

Bit j-1 of a mask stands for element j, so masks double as indices into
arrays of length 2**n.  All public functions in this package that take or
return subsets use this encoding; element lists in file formats and CLI
output are 1-based.

Tables over a family of subsets keep one byte per subset in a bytes
object, read without a Python loop over the entries: bytes.find and
rfind name the first or last entry holding a value (find_all each in
turn), and bytes.translate maps or deletes values.  to_fields widens
such a table into little-endian fields of several bytes, one translate
per byte plane, for packed int arithmetic on all entries at once.
byte_tables builds the translate tables that map a byte of a bit string
to a byte of the OR, or the sum, of images of the bits set in it: the
support stream's closures and the compact keys of poset.ChainLayout.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

MAX_GROUND = 24

# bytes.translate table adding 1 to every byte (255 wraps to 0)
_PLUS_ONE = bytes(range(1, 256)) + b"\0"


def bits_of(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def to_elements(mask: int) -> tuple[int, ...]:
    """1-based elements of a subset mask, ascending."""
    return tuple(b + 1 for b in bits_of(mask))


def from_elements(elements: Iterable[int], n: int) -> int:
    """Mask of a 1-based element list; rejects out-of-range and repeats."""
    out = 0
    for e in elements:
        if not 1 <= e <= n:
            raise ValueError(f"element {e} outside 1..{n}")
        bit = 1 << (e - 1)
        if out & bit:
            raise ValueError(f"element {e} repeated")
        out |= bit
    return out


def subset_sizes(n: int) -> bytes:
    """Byte table of |A| for every mask A < 2**n."""
    return digit_sums((1,) * n)


def digit_sums(lengths: Sequence[int]) -> bytes:
    """Byte table of the digit sum of every index of the mixed radix whose
    digit c runs over 0..lengths[c], digit 0 lowest: |S_x| at every point
    x of a chain layout's grid by its index (poset.ChainLayout), |A| for
    every mask under the antichain.  Built by copying: the indices with
    digit c at t are those below, t larger."""
    sums = b"\0"
    for s in lengths:
        top = sums
        for _ in range(s):
            top = top.translate(_PLUS_ONE)
            sums += top
    return sums


def find_all(table: bytes, value: int) -> Iterator[int]:
    """Every index of the table holding value, ascending, one bytes.find each."""
    at = table.find(value)
    while at >= 0:
        yield at
        at = table.find(value, at + 1)


def to_fields(table: bytes, values: Sequence[int], width: int) -> bytearray:
    """values[table[i]] as the width-byte little-endian field i; entries
    with no value give 0."""
    out = bytearray(len(table) * width)
    for j in range(width):
        out[j::width] = table.translate(bytes(v >> 8 * j & 255 for v in values).ljust(256, b"\0"))
    return out


def byte_tables(images: Sequence[int], slot: int, stride: int, size: int, sums: bool = False) -> list[list[tuple[int, bytes]]]:
    """Per slot byte j, (o, T) for each byte o of size it reaches: T[v] is byte o
    of the OR (with sums, the sum) of the images of the coordinates with a
    bit set in v at byte j.  Built by doubling: the records v with bit t set,
    t < 8, are those below 2**t with the image of the coordinate that owns
    bit t ORed (added) in."""
    n = len(images)
    ones = [int.from_bytes((b"\1" + bytes(size - 1)) * (1 << t), "little") for t in range(8)]
    blank, out = bytes(256), []
    for j in range(slot):
        wide = 0
        for t, bit in enumerate(range(8 * j, 8 * j + 8)):
            image = images[bit // stride] if bit < n * stride else 0
            wide |= ((wide + image * ones[t]) if sums else (wide | image * ones[t])) << (8 * size << t)
        wide = wide.to_bytes(256 * size, "little")
        out.append([(o, table) for o in range(size) if (table := wide[o::size]) != blank])
    return out

"""Subsets of {1, ..., n} as int bitmasks.

Bit j-1 of a mask stands for element j, so masks double as indices into
arrays of length 2**n.  All public functions in this package that take or
return subsets use this encoding; element lists in file formats and CLI
output are 1-based.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

MAX_GROUND = 24


def bits_of(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_from_positions(positions: Iterable[int]) -> int:
    out = 0
    for p in positions:
        if p < 0:
            raise ValueError(f"negative bit position {p}")
        out |= 1 << p
    return out


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


"""Finite posets on the ground set {1, ..., n} and their order ideals.

A subset J is an (order) ideal when it is downward closed: i <= j and
j in J force i in J.  The ideal closure <A> of an arbitrary subset A is
the smallest ideal containing A.  Poset stores, for each element, the
bitmask of everything below it (itself included), which makes closures
a handful of OR operations.

Conventions used throughout:

  * elements are 1-based in files, CLI text, and cover-relation pairs;
  * subsets travel as bitmasks (bit j-1 is element j, see bitset);
  * the ground set is capped at 24 elements so every subset family fits
    comfortably in machine-word masks.

The text format understood by parse_poset / format_poset is

    n 4            # header: ground set size
    1 < 3          # one strict relation per line
    2 < 3

with '#' starting a comment anywhere on a line.  Relations may include
transitively redundant pairs; format_poset writes only cover relations.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable, Iterable, Iterator
from pathlib import Path
from typing import TypeVar

from .bitset import MAX_GROUND, bits_of

T = TypeVar("T")


class Poset:
    """Immutable poset; construct via from_cover_relations, chain, antichain,
    or directly from per-element downset masks."""

    __slots__ = ("n", "below", "_ideals")

    def __init__(self, n: int, below: Iterable[int]) -> None:
        if not 1 <= n <= MAX_GROUND:
            raise ValueError(f"ground set size {n} outside 1..{MAX_GROUND}")
        below = tuple(below)
        if len(below) != n:
            raise ValueError(f"{len(below)} downset masks for {n} elements")
        full = (1 << n) - 1
        for j, mask in enumerate(below):
            if not 0 <= mask <= full:
                raise ValueError(f"downset mask {mask:#x} of element {j + 1} out of range")
            if not mask >> j & 1:
                raise ValueError(f"element {j + 1} missing from its own downset")
        for j in range(n):
            for i in bits_of(below[j]):
                if below[i] & ~below[j]:
                    raise ValueError(f"downsets not transitive at elements {i + 1}, {j + 1}")
                if i != j and below[i] >> j & 1:
                    raise ValueError(f"antisymmetry violated by elements {i + 1}, {j + 1}")
        self.n = n
        self.below = below
        self._ideals: tuple[int, ...] | None = None

    # -- constructors --------------------------------------------------

    @classmethod
    def from_cover_relations(cls, n: int, relations: Iterable[tuple[int, int]]) -> Poset:
        """Poset generated by strict relations (i, j) meaning i < j, 1-based.

        The pairs need not be covers; any acyclic generating set works.
        Cycles raise ValueError.
        """
        if not 1 <= n <= MAX_GROUND:
            raise ValueError(f"ground set size {n} outside 1..{MAX_GROUND}")
        succs: list[list[int]] = [[] for _ in range(n)]
        indeg = [0] * n
        seen = set()
        for i, j in relations:
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"relation {i} < {j} out of range 1..{n}")
            if i == j:
                raise ValueError(f"relation {i} < {j} is reflexive")
            if (i, j) in seen:
                continue
            seen.add((i, j))
            succs[i - 1].append(j - 1)
            indeg[j - 1] += 1
        order = [v for v in range(n) if indeg[v] == 0]
        head = 0
        while head < len(order):
            v = order[head]
            head += 1
            for w in succs[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    order.append(w)
        if len(order) < n:
            raise ValueError("relations contain a cycle")
        below = [1 << v for v in range(n)]
        for v in order:
            for w in succs[v]:
                below[w] |= below[v]
        return cls(n, below)

    @classmethod
    def chain(cls, n: int) -> Poset:
        """Total order 1 < 2 < ... < n."""
        return cls(n, ((1 << (j + 1)) - 1 for j in range(n)))

    @classmethod
    def antichain(cls, n: int) -> Poset:
        """No strict relations; ideals are all 2**n subsets."""
        return cls(n, (1 << j for j in range(n)))

    def dual(self) -> Poset:
        """Same ground set with every relation reversed."""
        above = [1 << i for i in range(self.n)]
        for j in range(self.n):
            for i in bits_of(self.below[j]):
                above[i] |= 1 << j
        return Poset(self.n, above)

    # -- ideals ----------------------------------------------------------

    def ideal_closure(self, mask: int) -> int:
        """Smallest ideal containing the subset: union of member downsets."""
        if not 0 <= mask < (1 << self.n):
            raise ValueError(f"subset mask {mask:#x} out of range for n={self.n}")
        out = 0
        below = self.below
        for i in bits_of(mask):
            out |= below[i]
        return out

    def is_ideal(self, mask: int) -> bool:
        return self.ideal_closure(mask) == mask

    def linear_extension(self) -> list[int]:
        """Elements (0-based) ordered so that i < j in P puts i before j.

        Sorting by downset size does it, since i < j makes below[i] a
        proper subset of below[j]; ties go by element.
        """
        below = self.below
        return sorted(range(self.n), key=lambda e: (below[e].bit_count(), e))

    def walk_ideals(self, extend: Callable[[T, int], T], root: T) -> Iterator[tuple[int, T]]:
        """Yield (ideal, state) once for every order ideal, depth first.

        The walk decides elements along linear_extension and descends only
        into extensions that stay downward closed: O(n * count) work, not a
        filter over all 2**n subsets.  The empty ideal carries root; any
        other is its parent plus one element e, with extend(parent state, e).
        """
        below = self.below
        order = self.linear_extension()
        need = [below[e] ^ (1 << e) for e in order]
        stack = [(0, 0, root)]
        while stack:
            idx, mask, state = stack.pop()
            for j in range(idx, self.n):
                if need[j] & ~mask == 0:
                    e = order[j]
                    stack.append((j + 1, mask | (1 << e), extend(state, e)))
            yield mask, state

    def ideals(self, size: int | None = None) -> tuple[int, ...]:
        """All order ideals as masks in ascending numeric order.

        The family comes from walk_ideals and is cached on first use; size
        filters the cached tuple.
        """
        if self._ideals is None:
            walk = self.walk_ideals(lambda state, e: None, None)
            self._ideals = tuple(sorted(mask for mask, _ in walk))
        if size is None:
            return self._ideals
        return tuple(m for m in self._ideals if m.bit_count() == size)

    def maximal_elements(self, ideal: int) -> int:
        """Mask of elements of the ideal with nothing of the ideal above them."""
        if not self.is_ideal(ideal):
            raise ValueError(f"subset {ideal:#x} is not an ideal")
        out = 0
        for e in bits_of(ideal):
            covered = False
            for f in bits_of(ideal):
                if f != e and self.below[f] >> e & 1:
                    covered = True
                    break
            if not covered:
                out |= 1 << e
        return out

    # -- serialization ----------------------------------------------------

    def cover_relations(self) -> tuple[tuple[int, int], ...]:
        """Covering pairs (i, j), 1-based: i < j with nothing in between."""
        out = []
        for j in range(self.n):
            strict = self.below[j] ^ (1 << j)
            for i in bits_of(strict):
                between = strict & ~self.below[i] & ~(1 << j)
                direct = True
                for g in bits_of(between):
                    if self.below[g] >> i & 1:
                        direct = False
                        break
                if direct:
                    out.append((i + 1, j + 1))
        out.sort()
        return tuple(out)

    def digest(self) -> str:
        """Short stable identifier of the isomorphism-sensitive labeled poset."""
        return hashlib.sha256(format_poset(self).encode()).hexdigest()[:12]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poset):
            return NotImplemented
        return self.n == other.n and self.below == other.below

    def __hash__(self) -> int:
        return hash((self.n, self.below))

    def __repr__(self) -> str:
        return f"Poset(n={self.n}, covers={list(self.cover_relations())})"


def parse_poset(text: str) -> Poset:
    """Parse the poset text format; see the module docstring."""
    n = None
    relations: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 2 or parts[0] != "n":
                raise ValueError(f"line {lineno}: expected header 'n <count>', got {raw!r}")
            try:
                n = int(parts[1])
            except ValueError:
                raise ValueError(f"line {lineno}: ground set size {parts[1]!r} is not an integer") from None
            continue
        if len(parts) != 3 or parts[1] != "<":
            raise ValueError(f"line {lineno}: expected '<i> < <j>', got {raw!r}")
        try:
            i, j = int(parts[0]), int(parts[2])
        except ValueError:
            raise ValueError(f"line {lineno}: relation endpoints must be integers: {raw!r}") from None
        relations.append((i, j))
    if n is None:
        raise ValueError("missing header line 'n <count>'")
    return Poset.from_cover_relations(n, relations)


def format_poset(poset: Poset) -> str:
    lines = [f"n {poset.n}"]
    lines.extend(f"{i} < {j}" for i, j in poset.cover_relations())
    return "\n".join(lines) + "\n"


def load_poset(path: str | Path) -> Poset:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ValueError(f"cannot read poset file {path}: {exc}") from None
    try:
        return parse_poset(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None

"""Finite posets on the ground set {1, ..., n} and their order ideals.

A subset J is an (order) ideal when it is downward closed: i <= j and
j in J force i in J.  The ideal closure <A> of an arbitrary subset A is
the smallest ideal containing A.  Poset stores, for each element, the
bitmask of everything below it (itself included).  Closure distributes
over union, so on first use each Poset fills one table per byte of the
mask (at most three for n <= 24) with the closures of all subsets of
that byte's elements, and the closure of any subset is the OR of at
most three table entries.

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
from collections.abc import Callable, Iterable, Iterator, Sequence
from pathlib import Path
from typing import TypeVar

from .bitset import MAX_GROUND, bits_of

T = TypeVar("T")


class Poset:
    """Immutable poset; construct via from_cover_relations, chain, antichain,
    or directly from per-element downset masks."""

    __slots__ = ("n", "below", "_ideals", "_closures", "_layout")

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
        self._closures: tuple[list[int], list[int], list[int]] | None = None
        # () until chain_layout() first runs; None there means no chain decomposition
        self._layout: ChainLayout | None | tuple = ()

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
        return self._ideal_closures((mask,))[0]

    def _ideal_closures(self, masks: Iterable[int]) -> list[int]:
        """Closures of many subsets, unchecked: every mask must lie in range(2**n)."""
        t0, t1, t2 = self._closure_tables()
        return [t0[s & 255] | t1[s >> 8 & 255] | t2[s >> 16] for s in masks]

    def _closure_tables(self) -> tuple[list[int], list[int], list[int]]:
        """Closures of the subsets of elements 8b..8b+7, one list per byte b.

        Entry s of table b is the closure of the subset s << 8b, filled
        from the entry without its lowest bit.  A byte past n gets the
        one-entry table [0], so any mask in range(2**n) indexes all three.
        """
        if self._closures is None:
            below = self.below
            tables = []
            for base in (0, 8, 16):
                tab = [0] * (1 << min(8, max(0, self.n - base)))
                for s in range(1, len(tab)):
                    low = s & -s
                    tab[s] = tab[s ^ low] | below[base + low.bit_length() - 1]
                tables.append(tab)
            self._closures = tuple(tables)
        return self._closures

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

    def chain_layout(self) -> ChainLayout | None:
        """J(P) as a product of chains when P is a disjoint union of chains
        (the antichain, a chain, NRT posets), else None.  Cached on first use.

        P is one when the strict downset of every element is empty or the
        downset of one element f, its only lower cover, and no f is the
        only lower cover of two elements: then every element has at most
        one cover each way, and the chains run up from the minimal elements.
        """
        if self._layout == ():
            below = self.below
            whose = {down: f for f, down in enumerate(below)}
            up: dict[int, int] = {}
            for e, down in enumerate(below):
                if strict := down ^ (1 << e):
                    f = whose.get(strict)
                    if f is None or f in up:
                        self._layout = None
                        return None
                    up[f] = e
            chains = []
            for e, down in enumerate(below):
                if down == 1 << e:
                    chains.append([e])
                    while chains[-1][-1] in up:
                        chains[-1].append(up[chains[-1][-1]])
            self._layout = ChainLayout(self.n, chains)
        return self._layout

    def ideals(self) -> tuple[int, ...]:
        """All order ideals as masks in ascending numeric order.

        The family comes from walk_ideals and is cached on first use.
        """
        if self._ideals is None:
            walk = self.walk_ideals(lambda state, e: None, None)
            self._ideals = tuple(sorted(mask for mask, _ in walk))
        return self._ideals

    def maximal_elements(self, ideal: int) -> int:
        """Mask of elements of the ideal with nothing of the ideal above them."""
        if not self.is_ideal(ideal):
            raise ValueError(f"subset {ideal:#x} is not an ideal")
        strictly_below = 0
        for f in bits_of(ideal):
            strictly_below |= self.below[f] ^ (1 << f)
        return ideal & ~strictly_below

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


class ChainLayout:
    """J(P) of a disjoint union of chains as the product of the chains.

    The chains go bottom up, ordered by least element, which keeps their
    order, and so every stride, the same under the opposite poset.  Ideal I
    sits at index sum_c |I & chain c| * stride_c, with stride_c the product
    of s_b + 1 over the chains b before c (s_b the length of chain b): a sum
    over the elements of I, so one table per mask byte maps an ideal to its
    index.  Under the antichain every chain is one element and the index is
    the mask.  Index order is mask order when each chain takes consecutive
    bits upwards, chain after chain, as in the NRT files; otherwise
    in_mask_order sorts.
    """

    __slots__ = ("n", "chains", "lengths", "size", "_weight", "_tables")

    def __init__(self, n: int, chains: Iterable[Iterable[int]]) -> None:
        self.n = n
        self.chains = tuple(sorted(map(tuple, chains), key=min))
        self.lengths = tuple(map(len, self.chains))
        weight, stride = [0] * n, 1
        for chain in self.chains:
            for e in chain:
                weight[e] = stride
            stride *= len(chain) + 1
        self.size = stride
        self._weight = weight
        self._tables: tuple[list[int], list[int], list[int]] | None = None

    def index(self, ideal: int) -> int:
        if self._tables is None:
            # built on first use: the sums of the weights of each subset of a mask byte
            tables = []
            for base in (0, 8, 16):
                table = [0]
                for weight in self._weight[base : base + 8]:
                    table += [v + weight for v in table]
                tables.append(table)
            self._tables = tuple(tables)
        t0, t1, t2 = self._tables
        return t0[ideal & 255] + t1[ideal >> 8 & 255] + t2[ideal >> 16]

    def ideal(self, index: int) -> int:
        """The ideal at an index: digit c is the prefix of chain c it takes."""
        mask = 0
        for chain in self.chains:
            index, digit = divmod(index, len(chain) + 1)
            mask |= sum(1 << e for e in chain[:digit])
        return mask

    def opposite(self) -> Poset:
        """The opposite poset: the same chains, each reversed."""
        above = [0] * self.n
        for chain in self.chains:
            top = 0
            for e in reversed(chain):
                top |= 1 << e
                above[e] = top
        return Poset(self.n, above)

    def in_mask_order(self, dims: bytes) -> tuple[Sequence[int], bytes]:
        """(ideals, dims) in ascending mask order from dims by index."""
        if self.size == 1 << self.n:
            return range(self.size), dims
        ideals = [0]
        for chain in self.chains:
            prefixes = [0]
            for e in chain:
                prefixes.append(prefixes[-1] | 1 << e)
            ideals = [mask | prefix for prefix in prefixes for mask in ideals]
        if [e for chain in self.chains for e in chain] == list(range(self.n)):
            return tuple(ideals), dims
        order = sorted(range(self.size), key=ideals.__getitem__)
        return tuple(map(ideals.__getitem__, order)), bytes(map(dims.__getitem__, order))


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

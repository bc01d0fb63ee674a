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

from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import cache
from itertools import accumulate
from pathlib import Path

from .bitset import MAX_GROUND, bits_of, byte_tables, find_all, to_fields
from .errors import SelfCheckError


class Poset:
    """Immutable poset; construct via from_cover_relations, chain, antichain,
    or directly from per-element downset masks."""

    __slots__ = ("n", "below", "_closures", "_layout", "_digest")

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
        self._closures: tuple[list[int], list[int], list[int]] | None = None
        self._layout: ChainLayout | None = None
        self._digest: str | None = None

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
        # a repeated pair adds to succs and indeg alike, so the queue still releases each element once
        for i, j in relations:
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"relation {i} < {j} out of range 1..{n}")
            if i == j:
                raise ValueError(f"relation {i} < {j} is reflexive")
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
        """Same ground set with every relation reversed (ChainLayout.opposite)."""
        return self.chain_layout().opposite()

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

    def chain_layout(self) -> ChainLayout:
        """J(P) laid out on a minimum chain partition of P, its bottom-up
        chains ordered by least element; cached on first use, as the one
        record of the partition that the census, the rank tables and the
        ideals read.

        A maximum matching of each element to one below it (augmenting
        paths) leaves width(P) elements matched to none below (Fulkerson's
        proof of Dilworth's theorem, 1956), each the bottom of a chain up
        the matching.  On a disjoint union of chains it pairs covers only.
        """
        if self._layout is None:
            below, n = self.below, self.n
            up, down = [-1] * n, [-1] * n

            def augment(e: int, seen: set[int]) -> bool:
                for f in bits_of(below[e] ^ 1 << e):
                    if f not in seen:
                        seen.add(f)
                        if up[f] < 0 or augment(up[f], seen):
                            down[e], up[f] = f, e
                            return True
                return False

            for e in range(n):
                augment(e, set())
            chains = [[e] for e in range(n) if down[e] < 0]
            for chain in chains:
                while up[chain[-1]] >= 0:
                    chain.append(up[chain[-1]])
            self._layout = ChainLayout(below, chains)
        return self._layout

    def ideals(self) -> tuple[int, ...]:
        """All order ideals as masks in ascending order, read off the chain
        layout's flags (every grid point on a disjoint union of chains)."""
        layout = self.chain_layout()
        at = range(layout.size) if layout.flags is None else find_all(layout.flags, 1)
        return tuple(sorted(map(layout.ideal, at)))

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
        """Covering pairs (i, j), 1-based: i < j with nothing in between, so
        the strict down-set of j less the strict down-sets below it."""
        strict = [down ^ (1 << j) for j, down in enumerate(self.below)]
        out = []
        for j, below_j in enumerate(strict):
            shadow = 0
            for g in bits_of(below_j):
                shadow |= strict[g]
            out.extend((i + 1, j + 1) for i in bits_of(below_j & ~shadow))
        out.sort()
        return tuple(out)

    def digest(self) -> str:
        """Short stable identifier of the isomorphism-sensitive labeled poset:
        the first 12 hex digits of the SHA-256 of format_poset (_sha256),
        cached on first use."""
        if self._digest is None:
            self._digest = _sha256()(format_poset(self).encode()).hexdigest()[:12]
        return self._digest

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poset):
            return NotImplemented
        return self.n == other.n and self.below == other.below

    def __hash__(self) -> int:
        return hash((self.n, self.below))

    def __repr__(self) -> str:
        return f"Poset(n={self.n}, covers={list(self.cover_relations())})"


class ChainLayout:
    """J(P) on the grid of a chain partition of P, bottom-up chains ordered
    by least element.  Grid point x takes the first x_c elements of each
    chain c, the set S_x, at index sum_c x_c * stride_c, stride_c the
    product of s_b + 1 over the chains b before c (s_b the length of chain
    b); under the antichain the index is the mask.  An ideal meets each
    chain in a prefix, so it is S_x for one x; flags marks those x, None on
    a disjoint union of chains, where the grid is J(P).  As s + 1 <= 2**s,
    the grid has at most 2**n points.  Where the chains, concatenated, run
    0..n-1 upwards (mask_ordered), index order is mask order.  The layout
    runs every packed pass over the grid (zeta, moebius, flags, maximal_counts)
    and owns its steps.  opposite() keeps the chains, each reversed, so
    complementing an ideal reverses its index.
    """

    __slots__ = ("n", "below", "chains", "lengths", "size", "_weight", "_up", "_split", "_low", "_high", "_flags", "mask_ordered", "_index_tables")

    def __init__(self, below: Sequence[int], chains: Iterable[Iterable[int]]) -> None:
        self.n = n = len(below)
        self.below = tuple(below)
        self.chains = tuple(sorted(map(tuple, chains), key=min))
        self.lengths = tuple(map(len, self.chains))
        # _up[e]: e and what lies above it on its chain
        weight, up, strides = [0] * n, [0] * n, [1]
        for chain in self.chains:
            top = 0
            for e in reversed(chain):
                weight[e], top = strides[-1], top | 1 << e
                up[e] = top
            strides.append(strides[-1] * (len(chain) + 1))
        self.size = strides[-1]
        self._weight, self._up = weight, up
        # S_x is its part on the chains below a split near sqrt(size), at index % split, and the rest;
        # under the antichain, where the index is the mask, no table is needed
        if self.size != 1 << n:
            c = next(c for c, stride in enumerate(strides) if stride * stride >= self.size)
            bits = [1 << e for e in range(n)]
            self._split, self._low, self._high = strides[c], _grid_sums(self.chains[:c], bits), _grid_sums(self.chains[c:], bits)
        # None on a disjoint union of chains, with nothing below an element off its chain; else () until read
        self._flags: bytes | None | tuple = () if any(below[e] & ~up[chain[0]] for chain in self.chains for e in chain) else None
        self.mask_ordered = [e for chain in self.chains for e in chain] == list(range(n))
        self._index_tables: tuple[int, list[list[tuple[int, bytes]]]] | None = None

    def index(self, ideal: int) -> int:
        """The index of S_x, such as an ideal: the sum of its elements' strides.
        A set that is no S_x raises ValueError."""
        if 0 <= ideal < 1 << self.n and self.ideal(at := sum(map(self._weight.__getitem__, bits_of(ideal)))) == ideal:
            return at
        raise ValueError(f"subset {ideal:#x} is no S_x of the chain layout")

    def ideal(self, index: int) -> int:
        """S_x at an index: digit c is the prefix of chain c it takes."""
        if self.size == 1 << self.n:
            return index
        return self._low[index % self._split] | self._high[index // self._split]

    def index_tables(self) -> tuple[int, list[list[tuple[int, bytes]]]]:
        """(width, tables): the indexes' width in bytes, and per mask byte
        bitset.byte_tables' (o, T), T[v] byte o of the index part of the
        elements set in v there, the sum of their strides.  The parts of
        S_x's bytes add up to its index.  Cached on first use."""
        if self._index_tables is None:
            width = ((self.size - 1).bit_length() + 7) // 8
            self._index_tables = width, byte_tables(self._weight, (self.n + 7) // 8, 1, width, sums=True)
        return self._index_tables

    def linear_extension(self) -> list[int]:
        """The elements, each after everything below it: of those whose strict
        downsets are placed, the first in chain order, so on a disjoint union
        of chains the chains one after another, each bottom up."""
        pending, order, placed = [list(chain[::-1]) for chain in self.chains], [], 0
        for _ in range(self.n):
            chain = next(chain for chain in pending if chain and self.below[chain[-1]] & ~placed == 1 << chain[-1])
            order.append(e := chain.pop())
            placed |= 1 << e
        return order

    def ideal_steps(self, width: int, value: int, down: bool = False) -> Iterator[tuple[int, int]]:
        """(stride_c, mask) per element e, the t-th of chain c, along
        linear_extension() or, when down, in reverse: mask holds value in the
        width-bit fields at the x with x_c = t - 1 whose S_x holds all below
        e.  An ideal less its last element along the order is an ideal, so
        one pass of packed steps reaches every ideal.  On a disjoint union of
        chains, whose steps commute across chains, the digit masks, each
        chain's from its top digit when down; elsewhere each element's box."""
        if self._flags is None:
            # digit_masks runs each chain up, from the last chain
            masks = digit_masks(self.lengths, width, value)
            for s in reversed(self.lengths):
                steps = [next(masks) for _ in range(s)]
                yield from reversed(steps) if down else steps
            return
        field, order = value.to_bytes(width // 8, "little"), self.linear_extension()
        for e in reversed(order) if down else order:
            out, low, high = field, self.below[e] ^ 1 << e, (1 << self.n) - 1 ^ self._up[e]
            for chain in self.chains:
                mask = self._up[chain[0]]
                lo, hi = (low & mask).bit_count(), (high & mask).bit_count()
                zero = bytes(len(out))
                out = b"".join((zero * lo, out * (hi - lo + 1), zero * (len(chain) - hi)))
            box = int.from_bytes(out, "little")
            # the join's buffers go before the yield, which would keep them beside the box
            del out, zero
            yield self._weight[e], box

    @property
    def flags(self) -> bytes | None:
        """A byte per grid point, 1 where S_x is an ideal, else 0, by one pass
        of ideal_steps; None on a disjoint union of chains."""
        if self._flags == ():
            flags = 1
            for stride, box in self.ideal_steps(8, 1):
                flags |= (flags & box) << 8 * stride
            self._flags = flags.to_bytes(self.size, "little")
        return self._flags

    def maximal_counts(self) -> bytes:
        """A byte per grid point, at an ideal S_x its number of maximal elements:
        the chains c whose top in S_x leaves an ideal, flagged (or on a chain
        union, a point) stride_c before x.  One packed step per chain digit."""
        ones = int.from_bytes(self.flags or b"\1" * self.size, "little")
        tops = sum((ones & mask) << 8 * stride for stride, mask in digit_masks(self.lengths, 8, 1))
        return tops.to_bytes(self.size, "little")

    def zeta(self, census: dict[int, int], wb: int) -> bytes:
        """The prefix sum over the grid of a census by index in wb-byte fields,
        which no sum may overflow: field x sums the counts at every y <= x.  One
        packed step T += (T & M) << (w * stride_c) per chain c and digit t,
        M (digit_masks) the fields whose digit c is t - 1."""
        size, w = self.size, 8 * wb
        counts = bytearray(size * wb)
        for j in range(wb):
            plane = counts if wb == 1 else bytearray(size)
            for at, count in census.items():
                plane[at] = count >> 8 * j & 255
            if wb > 1:
                counts[j::wb] = plane
        del plane
        table = int.from_bytes(counts, "little")
        # each buffer below is |J(P)| fields long: drop it once read, to bound the peak at n = 24
        del counts
        for stride, mask in digit_masks(self.lengths, w, (1 << w) - 1):
            table += (table & mask) << w * stride
        del mask
        return table.to_bytes(size * wb, "little")

    def moebius(self, table: bytes, values: Sequence[int], wb: int) -> dict[int, int]:
        """The nonzero counts by index of the Moebius inversion over J(P) of
        values[table[x]], each a count under the guard bit G, the top of a
        wb-byte field; off the ideals a field is G, so no step moves anything.
        Per element e, last of linear_extension() first, T -= (T & M_e) <<
        (w * stride_c), M_e the fields from which adding e gives an ideal
        (ideal_steps).  A negative count clears its own G: SelfCheckError."""
        size, w, guard = self.size, 8 * wb, 1 << 8 * wb - 1
        guards = int.from_bytes(guard.to_bytes(wb, "little") * size, "little")
        packed = int.from_bytes(to_fields(table, values, wb), "little")
        if self.flags is not None:
            packed = packed & int.from_bytes(to_fields(self.flags, [0, guard - 1], wb), "little") | guards
        for stride, low in self.ideal_steps(w, guard - 1, down=True):
            packed -= (packed & low) << w * stride
            if packed & guards != guards:
                lost = guards & ~packed
                raise SelfCheckError(f"Moebius census: negative count at subset {self.ideal(((lost & -lost).bit_length() - 1) // w):#x}")
        # a field is nonzero exactly when subtracting 1 from it keeps its guard bit
        nonzero = ((packed - (guards >> w - 1)) & guards).to_bytes(size * wb, "little")[wb - 1 :: wb]
        data = packed.to_bytes(size * wb, "little")
        return {at: int.from_bytes(data[at * wb : (at + 1) * wb], "little") - guard for at in find_all(nonzero, 0x80)}

    def opposite(self) -> Poset:
        """The opposite poset, laid out on the same chains, each reversed, and
        so with these flags reversed once they are known."""
        above = [1 << e for e in range(self.n)]
        for f, down in enumerate(self.below):
            for e in bits_of(down ^ 1 << f):
                above[e] |= 1 << f
        opposite = Poset(self.n, above)
        opposite._layout = ChainLayout(above, (chain[::-1] for chain in self.chains))
        if self._flags:
            opposite._layout._flags = self._flags[::-1]
        return opposite


def _grid_sums(chains: Sequence[Sequence[int]], weights: Sequence[int]) -> list[int]:
    """The sum of weights[e] over S_x at every point x of the grid of the
    chains, by index, a chain at a time like bitset.digit_sums: with weights
    1 << e, S_x itself."""
    sums = [0]
    for chain in chains:
        sums = [s + step for step in accumulate((weights[e] for e in chain), initial=0) for s in sums]
    return sums


def digit_masks(lengths: Sequence[int], width: int, value: int) -> Iterator[tuple[int, int]]:
    """(stride_c, mask) for each chain c from the last down and each digit t =
    1..s_c up: mask holds value in each width-bit field of the product of
    chains whose digit c is t - 1, which stride_c fields on have digit t.
    The digit-0 mask of chain c follows from chain c + 1's by one XOR when
    chain c + 1 has length 1 (every chain of the antichain): its fields are
    those of chain c + 1's digit 0 at most stride_c fields past a multiple
    of stride_(c+1)."""
    strides = [1]
    for s in lengths:
        strides.append(strides[-1] * (s + 1))
    field, size, zero = value.to_bytes(width // 8, "little"), strides[-1], 0
    for c in reversed(range(len(lengths))):
        stride, s = strides[c], lengths[c]
        if zero and lengths[c + 1] == 1:
            zero ^= zero << (width * stride)
        else:
            # stride fields of value per period, the zero fields between them; no buffer outlives the int
            periods = [field * stride] * (size // strides[c + 1])
            zero = int.from_bytes(bytes(len(field) * stride * s).join(periods), "little")
            del periods
        mask = zero
        for t in range(1, s + 1):
            yield stride, mask
            if t < s:
                mask <<= width * stride


@cache
def _sha256() -> Callable:
    """sha256 from CPython's built-in module, _sha2 from 3.12 and _sha256
    before, as random.py takes _sha512: hashlib loads OpenSSL, so it serves
    only where neither is built.  Imported at the first digest, once: a
    refused import costs about 50 us."""
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256


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

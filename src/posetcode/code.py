"""Linear codes over GF(q) with poset-weight support.

A LinearCode is the row space of a k x n generator matrix over GF(q).
The parity-check matrix (a null-space basis of the generator) is computed
at construction, so membership tests and the dual code are always
available.  The poset weight of a word u under a poset P on {1..n} is
the size of the ideal closure of its support.

Codeword enumeration runs in ascending base-q order of the message
encoding: message integer m encodes the coefficient vector
(m // q**i) % q applied to generator row i.  Two streams follow that
order, and both span the low ceil(k/2) generator rows and the high
floor(k/2) rows separately and meet in the middle: for each word b of
the high span, the codewords a + b for each word a of the low span.
They hold the two spans, a few times q**ceil(k/2) words, never q**k.
codewords() yields the words as tuples, one row addition each.
support_batches() yields only the supports, as n-bit masks, or given a
poset their ideal closures, with whole-int and bytes operations per batch
and no Python per codeword.  It packs each word into one int (see
_PackedWords) and lays the low span out once as one little-endian int,
a slot of B = ceil(n*c/8) bytes per word.  For each high word b, one XOR
with -b's slot repeated gives a XOR (-b) for every a, and a coordinate of
a + b is zero exactly when all its bits there are.  Every bit lies in one
slot byte, so per slot byte j and closure byte o one bytes.translate of
the batch's byte lane j maps each word's byte j to byte o of the OR of
the images (bits, or the poset's downsets) of the coordinates with a bit
set in it.  The planes, ORed as ints and interleaved into records of
native ints, are the batch.

A word and its q - 1 nonzero multiples share a support, so the enumerate
census reads one word per line: support_batches(poset, lines=True) keeps
the zero word and the monic messages, whose last nonzero digit is 1, in
message order, 1 + (q**k - 1)/(q - 1) supports.  A span's monic words
ending at row i fill its block [q**i, 2 * q**i), so the stream yields one
batch of the zero word and the low span's monic words, then the low span
for each monic high word.  For q = 2 that is the full stream, batch for
batch, and it runs as one.  closure_tally tallies the line stream into
the census |C & S_I|, a dict of its nonzero counts by grid index of the
poset's ChainLayout (under the antichain the mask), which the enumerate
support_census, distribution and report and the zeta fills of the
matroid module read.  One of two tallies counts, chosen by the line
count and the layout's key space alone.  Where the lines outnumber the
poset's compact keys (ChainLayout.key_weights: per mask byte and chain,
a count of the chain's elements there) or match them, the stream hands
out keys instead of closures, one more translate per closure byte and
key byte (ChainLayout.key_tables) turning each closure byte into its
fields, the planes ORed into records of 2 or 4 bytes, and a list by key
counts them straight off the record buffer, a whole group of high words
a batch: the census is read off it by grid index
(ChainLayout.grid_keys).  Else a Counter counts the closure masks, and
ChainLayout.index maps them to the grid.

shorten(J) solves for the messages whose codewords vanish outside J:
from the identity basis, one kernel step per coordinate c outside J
meets the kernel so far with the hyperplane (mG)_c = 0.  shorten_dims
runs the same step depth first over every complement whose kernel is
not yet empty: the kernel only shrinks as the complement grows.

Text format for code files (parse_code / format_code):

    q 2 n 4 k 2    # header
    1 1 0 0        # k generator rows of n entries each
    0 0 1 1

'#' starts a comment; entries are whitespace-separated ints in range(q).
"""

from __future__ import annotations

import sys
import warnings
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from itertools import repeat
from operator import lshift, or_
from pathlib import Path

from .bitset import bits_of, byte_tables
from .errors import SelfCheckError
from .field import GF, gf
from .matrix import Matrix, matrix_times_col, row_times_matrix
from .poset import Poset

MAX_ENUMERATION = 1 << 20
TABLE_LIMIT = 16  # all-subsets tables: shorten_dims and the matroid rank tables
_GROUP_WORDS = 1024  # words per closures() call of the support stream, at least


def support_mask(word: Sequence[int]) -> int:
    """Bitmask of the nonzero coordinates of a word."""
    out = 0
    for i, a in enumerate(word):
        if a:
            out |= 1 << i
    return out


class _PackedWords:
    """Words of length n over GF(p**m) packed into one int each.

    Digit j (base p) of coordinate i sits in bit field i*m + j, so
    coordinate i takes the c = m*w bits from bit i*c on and one shift and
    mask reads it.  Fields are w = (p - 1).bit_length() + 1 bits wide (2
    for p = 2, so GF(2**m) words take 2m bits a coordinate), and addition
    is SWAR mod p on all fields at once: s = a + b, then subtract p from
    every field whose sum reaches p, found by adding K = 2**(w-1) - p >= 0
    and reading the top bit H of the field.  Digits are at most p - 1 and
    p <= 2**(w-1), so a sum is at most 2p - 2 < 2**w and a sum plus K at
    most p - 2 + 2**(w-1) < 2**w: no field ever carries into the next, and
    H is set exactly when the sum reaches p, for every prime p.

    Digits are canonical, so a coordinate of a + b is zero exactly when
    a and -b agree on all m of its fields, which is when its c bits of
    a XOR (-b) are all zero: LinearCode.support_batches reads supports so.
    """

    __slots__ = ("field", "width", "stride", "top", "carry", "spread", "element", "shifts")

    def __init__(self, field: GF, n: int) -> None:
        p, m = field.p, field.m
        w = (p - 1).bit_length() + 1
        c = m * w
        ones = sum(1 << (f * w) for f in range(m * n))
        self.field = field
        self.width = w
        self.stride = c
        self.top = ones << (w - 1)
        self.carry = ones * ((1 << (w - 1)) - p)
        # an element's digit fields as they sit for coordinate 0, and back
        self.spread = [0]
        for a in range(1, field.q):
            self.spread.append(a % p | self.spread[a // p] << w)
        self.element = {s: a for a, s in enumerate(self.spread)}
        self.shifts = range(0, n * c, c)

    def pack(self, word: Sequence[int]) -> int:
        return sum(map(lshift, map(self.spread.__getitem__, word), self.shifts))

    def times(self, scalar: int, word: int) -> int:
        """scalar * word: double and add for prime q, else one coordinate at a time."""
        if self.field.m == 1:
            p, top, carry, shift, out = self.field.p, self.top, self.carry, self.width - 1, word
            for bit in bin(scalar)[3:]:
                out = (s := out + out) - (((s + carry) & top) >> shift) * p
                if bit == "1":
                    out = (s := out + word) - (((s + carry) & top) >> shift) * p
            return out
        element, spread, times_c, digits = self.element, self.spread, self.field._mul[scalar], (1 << self.stride) - 1
        return sum(spread[times_c[element[word >> at & digits]]] << at for at in range(0, word.bit_length(), self.stride))

    def span(self, rows: Sequence[Sequence[int]]) -> list[int]:
        """Packed words of every combination of the rows, in message-encoding order:
        element sum d_j p**j is sum d_j x**j, so this is the span over GF(p) of
        the words x**j * row, j < m, row by row, by SWAR adds alone."""
        F, p = self.field, self.field.p
        shift, top, carry = self.width - 1, self.top, self.carry
        words = [0]
        for row in rows:
            for j in range(F.m):
                multiples = [self.pack(F._scale(p**j, row))]
                for _ in range(p - 2):
                    multiples.append((s := multiples[-1] + multiples[0]) - (((s + carry) & top) >> shift) * p)
                words += [(s := a + t) - (((s + carry) & top) >> shift) * p for t in multiples for a in words]
        return words


def poset_weight(poset: Poset, word: Sequence[int]) -> int:
    """Size of the ideal closure of the word's support."""
    if len(word) != poset.n:
        raise ValueError(f"word length {len(word)} != poset size {poset.n}")
    return poset.ideal_closure(support_mask(word)).bit_count()


class LinearCode:
    __slots__ = ("field", "n", "k", "generator", "parity", "_matroid")

    def __init__(self, field: GF, generator: Matrix, parity: Matrix) -> None:
        self.field = field
        self.n = generator.ncols
        self.k = generator.nrows
        self.generator = generator
        self.parity = parity
        self._matroid = None

    @classmethod
    def from_generator(cls, field: GF, rows: Iterable[Iterable[int]]) -> LinearCode:
        """Code spanned by the given rows.

        Dependent rows are legal: the code is then built from the reduced
        echelon basis and a warning reports the smaller dimension.  A zero
        row space is rejected.
        """
        rows = tuple(tuple(r) for r in rows)
        if not rows:
            raise ValueError("a code needs at least one generator row")
        mat = Matrix(field, rows)
        reduced, pivots = mat.echelon()
        rank = len(pivots)
        if rank == 0:
            raise ValueError("generator rows span only the zero word")
        if rank < mat.nrows:
            warnings.warn(
                f"generator rows are dependent; dimension reduced to k={rank}",
                stacklevel=2,
            )
            mat = Matrix._unchecked(field, reduced.rows[:rank], mat.ncols)
        return cls(field, mat, mat.null_space_basis())

    # -- basic queries -----------------------------------------------------

    @property
    def codeword_count(self) -> int:
        return self.field.q**self.k

    def contains(self, word: Sequence[int]) -> bool:
        if len(word) != self.n:
            raise ValueError(f"word length {len(word)} != code length {self.n}")
        return not any(matrix_times_col(self.parity, word))

    def codeword(self, message: Sequence[int]) -> tuple[int, ...]:
        """Encode one message vector of length k."""
        return row_times_matrix(message, self.generator)

    def require_enumerable(self) -> None:
        """Raise ValueError when the q**k codewords exceed the enumeration cap."""
        total = self.codeword_count
        if total > MAX_ENUMERATION:
            raise ValueError(
                f"q^k = {total} codewords exceeds the enumeration cap {MAX_ENUMERATION}"
            )

    def codewords(self) -> Iterator[tuple[int, ...]]:
        """Stream all q**k codewords in ascending message-encoding order, met in the
        middle as in support_batches: a + b for each word b of the high span, then
        each word a of the low span.  The cap is checked before any word is built."""
        self.require_enumerable()
        F, rows, half = self.field, self.generator.rows, (self.k + 1) // 2

        def span(part: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
            words = [(0,) * self.n]
            for row in part:
                words += [tuple(F._add_scaled(a, c, row)) for c in range(1, F.q) for a in words]
            return words

        low = span(rows[:half])
        for b in span(rows[half:]):
            for a in low:
                yield tuple(F._add_scaled(b, 1, a))

    def support_batches(self, poset: Poset | None = None, *, lines: bool = False) -> Iterator[list[int]]:
        """Support masks of all q**k codewords in message-encoding order, or
        with a poset of length n their ideal closures.

        Batch b holds the supports of the messages b * q**h .. (b+1) * q**h - 1
        with h = ceil(k/2); lines=True keeps only the zero word and the monic
        messages, 1 + (q**k - 1)/(q - 1) supports (see the module docstring).
        The cap, on q**k either way, is checked here, before anything is packed.
        """
        return self._support_batches(self._images(poset), lines)

    def _images(self, poset: Poset | None) -> Sequence[int]:
        """Each coordinate's image in the stream, its bit or its downset in the
        poset, once the poset's length and the cap on q**k check out."""
        if poset is not None and poset.n != self.n:
            raise ValueError(f"poset size {poset.n} != code length {self.n}")
        self.require_enumerable()
        return [1 << i for i in range(self.n)] if poset is None else poset.below

    def closure_tally(self, poset: Poset) -> dict[int, int]:
        """The census |C & S_I| by grid index of poset.chain_layout(), its
        nonzero counts only, from the closures of the line stream, each
        counted q - 1 times but the first, the zero word's, once: by a dense
        list over the keys where the 2**bits keys of ChainLayout.key_weights
        are no more than the 1 + (q**k - 1)/(q - 1) lines, else by a Counter
        on the closure masks (module docstring).  Counts that do not sum to
        q**k raise SelfCheckError."""
        q, total, layout = self.field.q, self.codeword_count, poset.chain_layout()
        lines = 1 + (total - 1) // (q - 1)
        if 1 << layout.key_weights()[0] > lines:
            stream = self.support_batches(poset, lines=True)
            first = next(stream, [])
            census = Counter(first)
            for batch in stream:
                census.update(batch)
            if q > 2 and first:
                # every other line stands for its q - 1 nonzero multiples, which share its support
                census = {ideal: count * (q - 1) for ideal, count in census.items()}
                census[first[0]] -= q - 2
            if layout.size != 1 << poset.n:
                census = dict(zip(map(layout.index, census), census.values()))
        else:
            stream = self._support_batches(self._images(poset), True, layout.key_tables())
            counts, step = [0] * (1 << layout.key_weights()[0]), q - 1
            first = next(stream, [])
            for key in first:
                counts[key] += step
            if first:
                counts[first[0]] -= step - 1
            for batch in stream:
                for key in batch:
                    counts[key] += step
            # a key off the grid drops out here, and the sum below refuses it
            census = {at: count for at, key in enumerate(layout.grid_keys()) if (count := counts[key])}
        if (counted := sum(census.values())) != total:
            raise SelfCheckError(f"enumerate census: {counted} words counted, not q^k = {total}")
        return census

    def _support_batches(self, images: Sequence[int], lines: bool, keys: tuple[int, list] | None = None) -> Iterator[list[int]]:
        F, q, n = self.field, self.field.q, self.n
        packed = _PackedWords(F, n)
        slot, size = (n * packed.stride + 7) // 8, (n + 7) // 8
        tables = byte_tables(images, slot, packed.stride, size)
        if keys is None:
            width, key_tables = size, None
            limb, kind = (4, "I") if size <= 4 else (8, "Q")
        else:
            # a closure goes out as its key, (width, tables) of ChainLayout.key_tables:
            # one more translate per closure byte and key byte
            width, key_tables = keys
            limb, kind = (2, "H") if width <= 2 else (4, "I")
        # closures, or keys, go out as records of `limbs` native ints of `limb`
        # bytes: byte o sits at byte o ^ flip of its record, flip reversing
        # each limb's bytes on a big-endian host
        limbs = -(-width // limb)
        record, flip = limb * limbs, 0 if sys.byteorder == "little" else limb - 1

        def closures(data: bytes, count: int) -> list[int]:
            planes = [0] * size
            for j, reached in enumerate(tables):
                lane = data[j::slot]
                for o, table in reached:
                    planes[o] |= int.from_bytes(lane.translate(table), "little")
            if key_tables is not None:
                coded = [0] * width
                for plane, reached in zip(planes, key_tables):
                    lane = plane.to_bytes(count, "little")
                    for o, table in reached:
                        coded[o] |= int.from_bytes(lane.translate(table), "little")
                planes = coded
            out = bytearray(count * record)
            for o, plane in enumerate(planes):
                out[o ^ flip :: record] = plane.to_bytes(count, "little")
            values = memoryview(out).cast(kind)
            if limbs == 1:
                # keys fit one limb, and their tally reads them straight off the buffer
                return values if key_tables is not None else values.tolist()
            joined = values[::limbs]
            for i in range(1, limbs):
                joined = list(map(or_, joined, map(lshift, values[i::limbs], repeat(64 * i))))
            return joined

        rows, half = self.generator.rows, (self.k + 1) // 2
        low = b"".join(map(int.to_bytes, packed.span(rows[:half]), repeat(slot), repeat("little")))
        high = packed.span([F._scale(F.neg(1), row) for row in rows[half:]])
        if lines and q > 2:
            # over GF(2) every word is its line, so the full stream's batches are the line batches;
            # span() puts the words whose last nonzero digit is 1, at row i, in [q**i, 2 * q**i)
            first = bytes(slot) + b"".join(low[q**i * slot : 2 * q**i * slot] for i in range(half))
            yield closures(first, len(first) // slot)
            high = [b for i in range(self.k - half) for b in high[q**i : 2 * q**i]]
        count = len(low) // slot
        words = int.from_bytes(low, "little")
        ones = int.from_bytes((b"\1" + bytes(slot - 1)) * count, "little")
        # a short low span shares one closures() call among several high words; the key
        # tally counts in any order, so it takes 16 times the words a call, as one batch
        group = -(-(_GROUP_WORDS if key_tables is None else 16 * _GROUP_WORDS) // count)
        batch = count if key_tables is None else group * count
        for at in range(0, len(high), group):
            data = b"".join((words ^ b * ones).to_bytes(len(low), "little") for b in high[at : at + group])
            values = closures(data, len(data) // slot)
            for i in range(0, len(values), batch):
                yield values[i : i + batch]

    # -- derived codes -------------------------------------------------------

    def _meet_hyperplane(self, basis: tuple, c: int) -> tuple:
        """The kernel step.  basis holds rows (m | mG) whose messages m span
        the kernel {m : (mG)_i = 0} of some coordinates i; return such rows
        for the part of that kernel where also (mG)_c = 0.

        Messages stay reduced with respect to their last nonzero digit, their
        lead, which is 1 and zero in every other message.  The first row
        with (mG)_c != 0 has the smallest such lead; it clears the later
        rows and leaves, which keeps that shape, so the messages stay the
        basis Matrix.null_space_basis returns for the same kernel.
        """
        at = self.k + c
        i = next((i for i, row in enumerate(basis) if row[at]), None)
        if i is None:
            return basis
        F, pivot = self.field, basis[i]
        over = F._neg[F._inv[pivot[at]]]
        later = (F._add_scaled(row, F._mul[row[at]][over], pivot) if row[at] else row for row in basis[i + 1 :])
        return basis[:i] + tuple(later)

    def _kernel_root(self) -> tuple:
        # (e_i | row i of G): the identity basis of messages, with their codewords
        return tuple((0,) * i + (1,) + (0,) * (self.k - 1 - i) + row for i, row in enumerate(self.generator.rows))

    def shorten(self, mask: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """Dimension and basis of the subcode supported inside the subset.

        The subcode C^J = {u in C : supp(u) <= J} is cut out by solving for
        messages whose codewords vanish on the complement of J, one kernel
        step per coordinate outside J from the identity basis, so the
        returned dimension comes from a null-space computation and not from
        any rank identity.  Basis words are full-length.
        """
        if not 0 <= mask < (1 << self.n):
            raise ValueError(f"subset mask {mask:#x} out of range for n={self.n}")
        rows = self._kernel_root()
        for c in bits_of(((1 << self.n) - 1) ^ mask):
            rows = self._meet_hyperplane(rows, c)
        return len(rows), tuple(tuple(row[self.k :]) for row in rows)

    def shorten_dims(self) -> bytes:
        """shorten(J)[0] for every subset mask J, from one depth-first walk over
        the complements S of J, one kernel step per S, stopping below an empty
        kernel: it only shrinks as S grows, so entries start at 0, and a subset
        the walk misses with a nonempty kernel shows as a wrong dimension."""
        if self.n > TABLE_LIMIT:
            raise ValueError(f"all-subsets tables need n <= {TABLE_LIMIT}, got n={self.n}")
        n, full = self.n, (1 << self.n) - 1
        dims = bytearray(full + 1)
        stack = [(0, 0, self._kernel_root())]
        while stack:
            first, outside, rows = stack.pop()
            dims[full ^ outside] = len(rows)
            for c in range(first, n):
                if below := self._meet_hyperplane(rows, c):
                    stack.append((c + 1, outside | 1 << c, below))
        return bytes(dims)

    def dualize(self) -> LinearCode:
        """The dual code, generated by the parity-check rows."""
        if self.k == self.n:
            raise ValueError("the full space has the zero code as its dual")
        return LinearCode.from_generator(self.field, self.parity.rows)

    @property
    def matroid(self):
        """Rank tables shared by all callers, built on first use; see the matroid module."""
        if self._matroid is None:
            from .matroid import RankProfile

            self._matroid = RankProfile(self)
        return self._matroid

    def __repr__(self) -> str:
        return f"LinearCode(q={self.field.q}, n={self.n}, k={self.k})"


def parse_code(text: str) -> LinearCode:
    """Parse the code text format; see the module docstring."""
    header: list[str] | None = None
    entries: list[int] = []
    q = n = k = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if header is None:
            header = parts
            if len(parts) != 6 or parts[0] != "q" or parts[2] != "n" or parts[4] != "k":
                raise ValueError(
                    f"line {lineno}: expected header 'q <q> n <n> k <k>', got {raw!r}"
                )
            try:
                q, n, k = int(parts[1]), int(parts[3]), int(parts[5])
            except ValueError:
                raise ValueError(f"line {lineno}: non-integer header field in {raw!r}") from None
            continue
        try:
            entries += map(int, parts)
        except ValueError:
            # name the first token int() refuses
            for tok in parts:
                try:
                    int(tok)
                except ValueError:
                    raise ValueError(f"line {lineno}: matrix entry {tok!r} is not an integer") from None
    if header is None:
        raise ValueError("missing header line 'q <q> n <n> k <k>'")
    assert q is not None and n is not None and k is not None
    field = gf(q)
    if n < 1:
        raise ValueError(f"code length {n} must be at least 1")
    if not 1 <= k <= n:
        raise ValueError(f"dimension {k} outside 1..{n}")
    if len(entries) != k * n:
        raise ValueError(f"expected {k}x{n} = {k * n} matrix entries, got {len(entries)}")
    rows = [entries[i * n : (i + 1) * n] for i in range(k)]
    code = LinearCode.from_generator(field, rows)
    return code


def format_code(code: LinearCode) -> str:
    lines = [f"q {code.field.q} n {code.n} k {code.k}"]
    lines.extend(" ".join(str(a) for a in row) for row in code.generator.rows)
    return "\n".join(lines) + "\n"


def load_code(path: str | Path) -> LinearCode:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ValueError(f"cannot read code file {path}: {exc}") from None
    try:
        return parse_code(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None

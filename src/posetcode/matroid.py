"""Column-rank data of a linear code, viewed as a matroid on {1..n}.

Ranks come from ideal_ranks, a depth-first walk over the ideal lattice
J(P) (Poset.walk_ideals) that carries an echelon basis, so each ideal
costs one reduction of the column it adds.  Columns and rows are packed
words (code._PackedWords): one shift and mask reads a column's digits
at a row's lead, and one SWAR add of a multiple of the row, built the
first time some column needs it, clears them.  RankProfile keeps:

  * per poset P, the shortened dimensions dim C^I = |I| - rank_H(I) on
    every ideal I (G generator, H parity-check matrix), as one flat
    table (ideals, dims): the ideal masks in ascending order
    (range(2**n) for the antichain) and a bytes object aligned with
    them.  This one table gives the hierarchies of C under P and of the
    dual code under the opposite poset and the classification.  It has
    two fills, chosen by the instance alone:

      zeta   under the antichain every subset is an ideal and
             q^(dim C^I) is the number of codewords supported inside I,
             so the table is the subset-sum (zeta) transform of the
             codeword support counts.  zeta_dims counts the
             support_batches stream into byte-aligned little-endian
             fields of one int T and runs one packed subset-sum per
             coordinate, T += (T & low_e) << (w << e), where low_e
             (_low_masks) selects the w-bit fields whose index lacks
             bit e.  No elimination at all.  C-perp's stream, from the
             parity-check rows, serves as well as C's: reversing its
             table complements the index, and
             dim C^A = |A| - (n - k) + dim C-perp^(complement A).  The
             shorter stream serves, C's own on a tie, when it is no
             longer than the table and within MAX_ENUMERATION;
      walk   every other case: ideal_ranks on the parity-check columns,
             written by mask into one 2**n bytearray under the antichain.

    walked_dims is the walk alone.  census_dims, the table the Moebius
    census reads, is C-perp's fill or the walk, never C's own stream:
    Moebius inversion of a zeta transform of the enumerate counts would
    just give those counts back, and the census would stop being an
    oracle independent of enumeration;
  * for n <= TABLE_LIMIT, flat lists indexed by subset mask: rank(A) on
    the columns of G and dual_rank(A) on those of H (the dual matroid),
    filled from the antichain's tables (rank by the walk on G, dual_rank
    from the antichain's shortened dimensions, so by a zeta fill when one
    serves).  They serve the checks below, and the complement identity
    then holds either zeta fill against the walk on G.
    shortened_dim_tables reads dim C^J off both on every mask, beside a
    third table from the null-space solver (LinearCode.shorten_dims).

Both rank functions satisfy the matroid rank axioms

  R1  0 <= f(A) <= |A|
  R2  A <= B implies f(A) <= f(B)
  R3  f(A | B) + f(A & B) <= f(A) + f(B)

and they are tied together by the complement identity

  dual_rank(A) = |A| - k + rank(complement of A)

as well as by the three-way description of the shortened subcode dimension

  |J| - dual_rank(J) = k - rank(complement of J) = dim {u in C : supp(u) <= J}.

check_rank_axioms and check_complement_rank_identity verify these
statements on every subset.  Each refuses n > TABLE_LIMIT before any
fill, then reads each table once, so a corrupted table is caught; the
identity is one compare of whole tables.  The axiom check sweeps R1 on
every A, and R2 and R3 only locally, for A and elements e, g outside A:

  R2  f(A) <= f(A | e)
  R3  f(A | e | g) + f(A) <= f(A | e) + f(A | g).

On the Boolean lattice these are equivalent to R2 and R3 over all pairs:
monotonicity follows along a chain of single-element steps from A up to
B, and local submodularity implies submodularity (Schrijver,
Combinatorial Optimization, Thm 44.1).  So C(n, 2) * 2**(n-2) comparisons
replace the 4**n pairs.  Once R1 holds every value fits a byte, and the
sweep runs as packed steps on byte fields of one int: one step compares
all A for R2 at each e, and one for R3 at each pair (e, g).  A violation
is reported as the scalar sweep would: the smallest A, then e, then g.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property

from .bitset import subset_sizes, to_fields
from .code import MAX_ENUMERATION, TABLE_LIMIT, LinearCode, _PackedWords
from .errors import SelfCheckError
from .field import GF
from .matrix import Matrix
from .poset import Poset


def _columns(mat: Matrix) -> list[tuple[int, ...]]:
    return [tuple(row[c] for row in mat.rows) for c in range(mat.ncols)]


def ideal_ranks(poset: Poset, field: GF, columns: Sequence[Sequence[int]]) -> Iterator[tuple[int, int]]:
    """(ideal, rank of the columns it indexes) for every ideal of the poset.

    The walk carries an echelon basis of packed rows, zero at earlier rows'
    leads, so one in-order pass reduces a column.  A row is kept as (lead bit
    offset, row, -1/lead times each element, -(a/lead) * row by lead digits a).
    """
    packed = _PackedWords(field, len(columns[0]))
    words = [packed.pack(column) for column in columns]
    element, stride, digits, p = packed.element, packed.stride, (1 << packed.stride) - 1, field.p
    shift, top, carry = packed.width - 1, packed.top, packed.carry
    scales = {packed.spread[a]: field._mul[field._neg[field._inv[a]]] for a in range(1, field.q)}

    def extend(basis: tuple, e: int) -> tuple:
        v = words[e]
        for at, row, scale, multiples in basis:
            if a := v >> at & digits:
                if (t := multiples.get(a)) is None:
                    t = multiples[a] = packed.times(scale[element[a]], row)
                v = (s := v + t) - (((s + carry) & top) >> shift) * p
        if not v:
            return basis
        at = (v & -v).bit_length() - 1
        at -= at % stride
        return basis + ((at, v, scales[v >> at & digits], {}),)

    for ideal, basis in poset.walk_ideals(extend, ()):
        yield ideal, len(basis)


def _is_antichain(poset: Poset) -> bool:
    return all(below == 1 << e for e, below in enumerate(poset.below))


def _low_masks(n: int, width: int, value: int) -> Iterator[tuple[int, int]]:
    """(e, low_e) for e = n-1 down to 0: value in each of 2**n width-bit
    fields whose index lacks bit e; low_{e-1} = low_e ^ low_e << 2**(e-1) fields."""
    low = int.from_bytes(value.to_bytes(width // 8, "little") * (1 << n >> 1), "little")
    for e in reversed(range(n)):
        yield e, low
        if e:
            low ^= low << (width << (e - 1))


def zeta_dims(code) -> bytes:
    """dim C^I for every subset I, indexed by mask, from the codeword
    supports alone (module docstring).  Fields are the fewest whole bytes
    that hold q^k, which no partial sum exceeds, so none carries.  A stream
    not q^k words long, or a sum not a power of q, raises SelfCheckError."""
    n, k, total = code.n, code.k, code.codeword_count
    size, wb = 1 << n, (total.bit_length() + 7) // 8
    tally: Counter[int] = Counter()
    for batch in code.support_batches():
        tally.update(batch)
    if tally.total() != total:
        raise SelfCheckError(f"support stream gave {tally.total()} words, not q^k = {total}")
    counts = bytearray(size * wb)
    for support, count in tally.items():
        counts[support * wb : (support + 1) * wb] = count.to_bytes(wb, "little")
    table = int.from_bytes(counts, "little")
    # each buffer below is 2**n fields long: drop it once read, to bound the peak at n = 24
    del counts, tally
    w = 8 * wb
    for e, low in _low_masks(n, w, (1 << w) - 1):
        table += (table & low) << (w << e)
    data = table.to_bytes(size * wb, "little")
    del table, low
    # log_q: the top nonzero byte of q^d, with its plane, names d.  One
    # translate per byte plane, from the top; a lower plane's names fill
    # in only where no higher plane named one (name d + 1, 0 for none).
    powers = [0] + [code.field.q**d for d in range(k + 1)]
    for j in reversed(range(wb)):
        tops = {power >> 8 * j: name for name, power in enumerate(powers) if 0 < power >> 8 * j < 256}
        named = data[j::wb].translate(bytes(tops.get(b, 0) for b in range(256)))
        if j < wb - 1:
            named = int.from_bytes(named, "little") & int.from_bytes(names.translate(b"\xff" + bytes(255)), "little")
            named = (named | int.from_bytes(names, "little")).to_bytes(size, "little")
        names = named
    # and every field must be exactly the power it names
    subset = names.find(0)
    if subset < 0 and (rebuilt := to_fields(names, powers, wb)) != data:
        subset = next(i for i in range(size) if rebuilt[i * wb : (i + 1) * wb] != data[i * wb : (i + 1) * wb])
    if subset >= 0:
        raise SelfCheckError(f"zeta fill: the codewords inside subset {subset:#x} are not a power of q")
    return names.translate(b"\xff" + bytes(range(255)))


class RankProfile:
    """Rank tables of one code's columns; see the module docstring."""

    def __init__(self, code) -> None:
        self.code = code
        self.n = code.n
        self.k = code.k
        self.full = (1 << code.n) - 1
        self._gen_cols = _columns(code.generator)
        self._par_cols = _columns(code.parity)
        self._walks: dict[Poset, tuple[Sequence[int], bytes]] = {}

    @cached_property
    def _primal_fill(self) -> bytes:
        return zeta_dims(self.code)

    @cached_property
    def _dual_fill(self) -> bytes:
        # |A| + dim C-perp^(complement A) never carries; below n - k it becomes 255 > k
        code, n, k = self.code, self.n, self.k
        reversed_dual = zeta_dims(LinearCode(code.field, code.parity, code.generator))[::-1]
        total = int.from_bytes(subset_sizes(n), "little") + int.from_bytes(reversed_dual, "little")
        return total.to_bytes(1 << n, "little").translate(b"\xff" * (n - k) + bytes(range(256 - n + k)))

    def shortened_dims(self, poset: Poset) -> tuple[Sequence[int], bytes]:
        """(ideals, dims): the ideals of the poset in ascending mask order and
        dim C^I = |I| - rank_H(I) of each, by a zeta fill or the walk."""
        cap = min(1 << self.n, MAX_ENUMERATION, self.code.field.q ** (self.n - self.k))
        if _is_antichain(poset) and self.code.codeword_count <= cap:
            return range(1 << self.n), self._primal_fill
        return self.census_dims(poset)

    def census_dims(self, poset: Poset) -> tuple[Sequence[int], bytes]:
        """The table of shortened_dims by C-perp's zeta fill or the walk,
        never by C's own stream: the one the Moebius census reads."""
        if _is_antichain(poset) and self.code.field.q ** (self.n - self.k) <= min(1 << self.n, MAX_ENUMERATION):
            return range(1 << self.n), self._dual_fill
        return self.walked_dims(poset)

    def walked_dims(self, poset: Poset) -> tuple[Sequence[int], bytes]:
        """The table of shortened_dims, always filled by the rank walk."""
        table = self._walks.get(poset)
        if table is None:
            walk = ideal_ranks(poset, self.code.field, self._par_cols)
            if _is_antichain(poset):
                dims = bytearray(1 << self.n)
                for ideal, r in walk:
                    dims[ideal] = ideal.bit_count() - r
                table = (range(1 << self.n), bytes(dims))
            else:
                dims = {ideal: ideal.bit_count() - r for ideal, r in walk}
                ideals = tuple(sorted(dims))
                table = (ideals, bytes(map(dims.__getitem__, ideals)))
            self._walks[poset] = table
        return table

    @cached_property
    def _rank_table(self) -> list[int]:
        # -1 where the walk never writes, which R1 refuses
        table = [-1] * (self.full + 1)
        for mask, r in ideal_ranks(Poset.antichain(self.n), self.code.field, self._gen_cols):
            table[mask] = r
        return table

    @cached_property
    def _dual_table(self) -> list[int]:
        # rank_H(A) = |A| - dim C^A, read off the antichain's shortened dimensions
        masks, dims = self.shortened_dims(Poset.antichain(self.n))
        return [mask.bit_count() - dim for mask, dim in zip(masks, dims)]

    @cached_property
    def _solver_dims(self) -> bytes:
        return self.code.shorten_dims()

    def _require_tables(self) -> None:
        # called before a table is touched, so n > TABLE_LIMIT is refused before any fill
        if self.n > TABLE_LIMIT:
            raise ValueError(f"all-subsets rank tables need n <= {TABLE_LIMIT}, got n={self.n}")

    def _check_mask(self, mask: int) -> int:
        self._require_tables()
        if not 0 <= mask <= self.full:
            raise ValueError(f"subset mask {mask:#x} out of range for n={self.n}")
        return mask

    def rank(self, mask: int) -> int:
        """Rank of the generator columns indexed by mask."""
        mask = self._check_mask(mask)
        return self._rank_table[mask]

    def dual_rank(self, mask: int) -> int:
        """Rank of the parity-check columns indexed by mask."""
        mask = self._check_mask(mask)
        return self._dual_table[mask]

    def shortened_dim_three_ways(self, mask: int) -> tuple[int, int, int]:
        """dim of the shortened subcode computed three independent ways:
        |J| - dual_rank(J), k - rank(complement J), and by the null-space
        solver of LinearCode.shorten_dims."""
        mask = self._check_mask(mask)
        via_dual = mask.bit_count() - self._dual_table[mask]
        via_complement = self.k - self._rank_table[self.full ^ mask]
        return via_dual, via_complement, self._solver_dims[mask]

    def shortened_dim_tables(self) -> tuple[list[int], list[int], bytes]:
        """The three ways of shortened_dim_three_ways as tables over every
        mask J, in mask order."""
        self._require_tables()
        via_dual = [size - r for size, r in zip(subset_sizes(self.n), self._dual_table)]
        via_complement = [self.k - r for r in reversed(self._rank_table)]
        return via_dual, via_complement, self._solver_dims


@dataclass(frozen=True)
class AxiomViolation:
    function: str
    axiom: str
    set_a: int
    set_b: int | None

    def describe(self) -> str:
        b = "" if self.set_b is None else f", B={self.set_b:#x}"
        return f"{self.function} violates {self.axiom} at A={self.set_a:#x}{b}"


@dataclass(frozen=True)
class AxiomReport:
    n: int
    passed: bool
    violation: AxiomViolation | None


@dataclass(frozen=True)
class IdentityReport:
    n: int
    passed: bool
    witness: int | None


def _lowest_field(flags: int) -> int:
    """Index of the lowest byte field whose flag bit is set."""
    return ((flags & -flags).bit_length() - 1) >> 3


def _axiom_violation(name: str, t: list[int], n: int) -> AxiomViolation | None:
    """First violation of the local sweep over the table t of f, in the order
    R1 by A, R2 by (A, e), R3 by (A, e, g); see the module docstring.

    Once R1 holds, every f(A) lies in 0..n <= 16, so t packs into byte
    fields of one int T, and one step compares every field at once.
    Field A of T >> (8 << e) holds f(A | e) wherever A lacks e.  A step
    adds the guard bit 0x80 to each field of the side that should be the
    larger and subtracts the other side: every field stays in 0..255, so
    none borrows from the next, and a field whose guard bit clears breaks
    the inequality.  low_e (_low_masks) keeps the guards of the fields A
    that lack e.
    """
    if not (0 <= min(t) and max(t) <= n):
        a = next(a for a, value in enumerate(t) if not 0 <= value <= a.bit_count())
        return AxiomViolation(name, "R1", a, None)
    table = int.from_bytes(bytes(t), "little")
    guards = int.from_bytes(b"\x80" * len(t), "little")
    if over := guards & ~(int.from_bytes(subset_sizes(n), "little") + guards - table):
        return AxiomViolation(name, "R1", _lowest_field(over), None)
    low = dict(_low_masks(n, 8, 0x80))
    up = [table >> (8 << e) for e in range(n)]
    r2 = [(_lowest_field(v), e) for e in range(n) if (v := low[e] & ~(up[e] + guards - table))]
    if r2:
        a, e = min(r2)
        return AxiomViolation(name, "R2", a, a | 1 << e)
    r3 = [
        (_lowest_field(v), e, g)
        for e in range(n)
        for g in range(e + 1, n)
        if (v := low[e] & low[g] & ~(up[e] + up[g] + guards - table - (up[e] >> (8 << g))))
    ]
    if r3:
        # A | e and A | g meet in A and join to A | e | g
        a, e, g = min(r3)
        return AxiomViolation(name, "R3", a | 1 << e, a | 1 << g)
    return None


def check_rank_axioms(profile: RankProfile) -> AxiomReport:
    """Verify R1, R2, R3 for rank, then for dual_rank, on every subset.

    The first violation in sweep order is reported with its witnesses:
    A for R1, (A, A | e) for R2, (A | e, A | g) for R3.
    """
    profile._require_tables()
    n = profile.n
    for name, table in (("rank", profile._rank_table), ("dual_rank", profile._dual_table)):
        violation = _axiom_violation(name, table, n)
        if violation is not None:
            return AxiomReport(n, False, violation)
    return AxiomReport(n, True, None)


def check_complement_rank_identity(profile: RankProfile) -> IdentityReport:
    """Verify dual_rank(A) = |A| - k + rank(complement A) on every subset,
    as one compare of whole tables; the witness is the smallest failing mask."""
    profile._require_tables()
    n, k = profile.n, profile.k
    lhs = [r - size for size, r in zip(subset_sizes(n), profile._dual_table)]
    rhs = [r - k for r in reversed(profile._rank_table)]
    if lhs == rhs:
        return IdentityReport(n, True, None)
    return IdentityReport(n, False, next(a for a, (x, y) in enumerate(zip(lhs, rhs)) if x != y))

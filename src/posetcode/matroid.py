"""Column-rank data of a linear code, viewed as a matroid on {1..n}.

Ranks come from ideal_ranks, a depth-first walk over the ideal lattice
J(P) (Poset.walk_ideals) that carries an echelon basis, so each ideal
costs one reduction of the column it adds.  RankProfile keeps:

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
             selects the w-bit fields whose index lacks bit e.  No
             elimination at all.  It serves when
             q^k <= min(2**n, MAX_ENUMERATION), so the stream is never
             longer than the table;
      walk   every other case: ideal_ranks on the parity-check columns.

    walked_dims is the walk alone.  The Moebius census reads it and
    never the zeta fill: Moebius inversion of a zeta transform of the
    enumerate counts would just give those counts back, and the census
    would stop being an oracle independent of enumeration;
  * for n <= TABLE_LIMIT, flat lists indexed by subset mask: rank(A) on
    the columns of G and dual_rank(A) on those of H (the dual matroid),
    filled from the antichain's tables (rank by the walk on G, dual_rank
    from the antichain's shortened dimensions, so by the zeta fill when it
    serves).  They serve the checks below, and the complement identity
    then holds the zeta fill against the walk on G.

Both rank functions satisfy the matroid rank axioms

  R1  0 <= f(A) <= |A|
  R2  A <= B implies f(A) <= f(B)
  R3  f(A | B) + f(A & B) <= f(A) + f(B)

and they are tied together by the complement identity

  dual_rank(A) = |A| - k + rank(complement of A)

as well as by the three-way description of the shortened subcode dimension

  |J| - dual_rank(J) = k - rank(complement of J) = dim {u in C : supp(u) <= J}.

check_rank_axioms and check_complement_rank_identity verify these
statements on every subset.  The axiom check reads each table once
through the public accessors, so a corrupted table is caught, and then
sweeps R1 on every A, and R2 and R3 only locally, for A and elements
e, g outside A:

  R2  f(A) <= f(A | e)
  R3  f(A | e | g) + f(A) <= f(A | e) + f(A | g).

On the Boolean lattice these are equivalent to R2 and R3 over all pairs:
monotonicity follows along a chain of single-element steps from A up to
B, and local submodularity implies submodularity (Schrijver,
Combinatorial Optimization, Thm 44.1).  So C(n, 2) * 2**(n-2) comparisons
replace the 4**n pairs.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property

from .bitset import flags_equal
from .code import MAX_ENUMERATION
from .errors import SelfCheckError
from .field import GF
from .matrix import Matrix
from .poset import Poset

TABLE_LIMIT = 16


def _columns(mat: Matrix) -> list[tuple[int, ...]]:
    return [tuple(row[c] for row in mat.rows) for c in range(mat.ncols)]


def ideal_ranks(poset: Poset, field: GF, columns: Sequence[Sequence[int]]) -> Iterator[tuple[int, int]]:
    """(ideal, rank of the columns it indexes) for every ideal of the poset.

    The walk carries an echelon basis of (lead, row) pairs, each row 1 at
    its lead and 0 at earlier rows' leads, so one in-order pass reduces a column.
    """

    def extend(basis: tuple, e: int) -> tuple:
        v = columns[e]
        for lead, b in basis:
            if v[lead]:
                v = field._sub_scaled(v, v[lead], b)
        lead = next((i for i, x in enumerate(v) if x), None)
        if lead is None:
            return basis
        v = tuple(field._scale(field._inv[v[lead]], v))
        return basis + ((lead, v),)

    for ideal, basis in poset.walk_ideals(extend, ()):
        yield ideal, len(basis)


def _is_antichain(poset: Poset) -> bool:
    return all(below == 1 << e for e, below in enumerate(poset.below))


def zeta_dims(code) -> bytes:
    """dim C^I for every subset I of the coordinates, indexed by mask, from
    the codeword supports alone; see the module docstring.

    Counters are fields of 1, 2 or 4 bytes, the narrowest that holds q^k,
    and no partial sum exceeds q^k, so no field ever carries into the next.
    A stream that is not q^k words long, or a sum that is not a power of
    q, raises SelfCheckError.
    """
    n, q, total = code.n, code.field.q, code.codeword_count
    size = 1 << n
    wb = 1 if total < 1 << 8 else 2 if total < 1 << 16 else 4
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
    for e in range(n):
        low = int.from_bytes((b"\xff" * (wb << e) + bytes(wb << e)) * (size >> (e + 1)), "little")
        table += (table & low) << (w << e)
    del low
    # log_q field by field: byte plane j holds byte j of every field
    data = table.to_bytes(size * wb, "little")
    del table
    planes = [data[j::wb] for j in range(wb)]
    del data
    dims = seen = 0
    for d in range(code.k + 1):
        power = q**d
        hit = -1
        for j, plane in enumerate(planes):
            hit &= flags_equal(plane, power >> 8 * j & 255)
        seen |= hit
        dims |= hit * d
    missed = seen ^ int.from_bytes(b"\1" * size, "little")
    if missed:
        subset = ((missed & -missed).bit_length() - 1) >> 3
        raise SelfCheckError(f"zeta fill: the codewords inside subset {subset:#x} are not a power of q")
    return dims.to_bytes(size, "little")


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
        self._zeta: tuple[Sequence[int], bytes] | None = None

    def shortened_dims(self, poset: Poset) -> tuple[Sequence[int], bytes]:
        """(ideals, dims): the ideals of the poset in ascending mask order and
        dim C^I = |I| - rank_H(I) of each, by the zeta fill or the walk."""
        if not (_is_antichain(poset) and self.code.codeword_count <= min(1 << self.n, MAX_ENUMERATION)):
            return self.walked_dims(poset)
        if self._zeta is None:
            self._zeta = (range(1 << self.n), zeta_dims(self.code))
        return self._zeta

    def walked_dims(self, poset: Poset) -> tuple[Sequence[int], bytes]:
        """The table of shortened_dims, always filled by the rank walk."""
        table = self._walks.get(poset)
        if table is None:
            walk = ideal_ranks(poset, self.code.field, self._par_cols)
            dims = {ideal: ideal.bit_count() - r for ideal, r in walk}
            ideals = range(1 << self.n) if _is_antichain(poset) else tuple(sorted(dims))
            table = self._walks[poset] = (ideals, bytes(map(dims.__getitem__, ideals)))
        return table

    @cached_property
    def _rank_table(self) -> list[int]:
        ranks = dict(ideal_ranks(Poset.antichain(self.n), self.code.field, self._gen_cols))
        return [ranks[mask] for mask in range(self.full + 1)]

    @cached_property
    def _dual_table(self) -> list[int]:
        # rank_H(A) = |A| - dim C^A, read off the antichain's shortened dimensions
        masks, dims = self.shortened_dims(Poset.antichain(self.n))
        return [mask.bit_count() - dim for mask, dim in zip(masks, dims)]

    def _check_mask(self, mask: int) -> int:
        # called before a table is touched, so n > TABLE_LIMIT is refused before any fill
        if self.n > TABLE_LIMIT:
            raise ValueError(f"all-subsets rank tables need n <= {TABLE_LIMIT}, got n={self.n}")
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
        solver in LinearCode.shorten."""
        via_dual = mask.bit_count() - self.dual_rank(mask)
        via_complement = self.k - self.rank(self.full ^ mask)
        via_solver = self.code.shorten(mask)[0]
        return via_dual, via_complement, via_solver


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


def _axiom_violation(name: str, t: list[int], n: int) -> AxiomViolation | None:
    """First violation in the local sweep over the table t of f; see the module docstring."""
    for a, value in enumerate(t):
        if not 0 <= value <= a.bit_count():
            return AxiomViolation(name, "R1", a, None)
    bits = [1 << e for e in range(n)]
    for a, value in enumerate(t):
        for e in bits:
            if not a & e and t[a | e] < value:
                return AxiomViolation(name, "R2", a, a | e)
    for a, value in enumerate(t):
        outside = [e for e in bits if not a & e]
        for i, e in enumerate(outside):
            ae = a | e
            t_ae = t[ae]
            for g in outside[i + 1 :]:
                if t[ae | g] + value > t_ae + t[a | g]:
                    # A | e and A | g meet in A and join to A | e | g
                    return AxiomViolation(name, "R3", ae, a | g)
    return None


def check_rank_axioms(profile: RankProfile) -> AxiomReport:
    """Verify R1, R2, R3 for rank, then for dual_rank, on every subset.

    The first violation in sweep order is reported with its witnesses:
    A for R1, (A, A | e) for R2, (A | e, A | g) for R3.
    """
    n = profile.n
    for name, fn in (("rank", profile.rank), ("dual_rank", profile.dual_rank)):
        violation = _axiom_violation(name, [fn(mask) for mask in range(1 << n)], n)
        if violation is not None:
            return AxiomReport(n, False, violation)
    return AxiomReport(n, True, None)


def check_complement_rank_identity(profile: RankProfile) -> IdentityReport:
    """Verify dual_rank(A) = |A| - k + rank(complement A) on every subset;
    the witness is the smallest failing mask."""
    n, k, full = profile.n, profile.k, profile.full
    rank = [profile.rank(mask) for mask in range(full + 1)]
    for mask in range(full + 1):
        if profile.dual_rank(mask) != mask.bit_count() - k + rank[full ^ mask]:
            return IdentityReport(n, False, mask)
    return IdentityReport(n, True, None)

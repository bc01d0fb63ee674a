"""Column-rank data of a linear code, viewed as a matroid on {1..n}.

All ranks come from ideal_ranks, a depth-first walk over the ideal
lattice J(P) (Poset.walk_ideals) that carries an echelon basis, so each
ideal costs one reduction of the column it adds.  RankProfile keeps:

  * per poset P, the shortened dimensions dim C^I = |I| - rank_H(I) on
    every ideal I (G generator, H parity-check matrix).  This one table
    gives the hierarchies of C under P and of the dual code under the
    opposite poset, the support census and the classification;
  * for n <= TABLE_LIMIT, flat lists indexed by subset mask: rank(A) on
    the columns of G and dual_rank(A) on those of H (the dual matroid),
    filled by the same walk over the antichain, whose ideals are all 2**n
    subsets, in two separate eliminations.  They serve the checks below.

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

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property

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


class RankProfile:
    """Rank tables of one code's columns; see the module docstring."""

    def __init__(self, code) -> None:
        self.code = code
        self.n = code.n
        self.k = code.k
        self.full = (1 << code.n) - 1
        self._gen_cols = _columns(code.generator)
        self._par_cols = _columns(code.parity)
        self._dims: dict[Poset, dict[int, int]] = {}

    def shortened_dims(self, poset: Poset) -> dict[int, int]:
        """dim C^I = |I| - rank_H(I) for every ideal I of the poset, keyed by mask."""
        dims = self._dims.get(poset)
        if dims is None:
            ranks = ideal_ranks(poset, self.code.field, self._par_cols)
            dims = self._dims[poset] = {ideal: ideal.bit_count() - r for ideal, r in ranks}
        return dims

    def _subset_table(self, entries: Iterable[tuple[int, int]]) -> list[int]:
        table = [0] * (self.full + 1)
        for mask, value in entries:
            table[mask] = value
        return table

    @cached_property
    def _rank_table(self) -> list[int]:
        return self._subset_table(ideal_ranks(Poset.antichain(self.n), self.code.field, self._gen_cols))

    @cached_property
    def _dual_table(self) -> list[int]:
        # the antichain's table of shortened dimensions is the same walk on H
        dims = self.shortened_dims(Poset.antichain(self.n))
        return self._subset_table((mask, mask.bit_count() - dim) for mask, dim in dims.items())

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

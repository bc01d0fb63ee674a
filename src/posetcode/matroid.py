"""Column-rank data of a linear code, viewed as a matroid on {1..n}.

All ranks come from ideal_ranks, a depth-first walk over the ideal
lattice J(P) (Poset.walk_ideals) that carries an echelon basis, so each
ideal costs one reduction of the column it adds.  RankProfile keeps:

  * per poset P, the shortened dimensions dim C^I = |I| - rank_H(I) on
    every ideal I (G generator, H parity-check matrix).  This one table
    gives the hierarchies of C under P and of the dual code under the
    opposite poset, the support census and the classification;
  * for n <= TABLE_LIMIT and every subset A, from the same walk over the
    antichain and by two separate eliminations, rank(A) on the columns of
    G and dual_rank(A) on those of H (the dual matroid).  They serve the
    checks below.

Both rank functions satisfy the matroid rank axioms

  R1  0 <= f(A) <= |A|
  R2  A <= B implies f(A) <= f(B)
  R3  f(A | B) + f(A & B) <= f(A) + f(B)

and they are tied together by the complement identity

  dual_rank(A) = |A| - k + rank(complement of A)

as well as by the three-way description of the shortened subcode dimension

  |J| - dual_rank(J) = k - rank(complement of J) = dim {u in C : supp(u) <= J}.

check_rank_axioms and check_complement_rank_identity verify these
statements exhaustively (all subsets, or all pairs of subsets) up to
n <= 12, switching to seeded random sampling beyond that.  The exhaustive
sweeps read every value through the public accessors, so a corrupted
table is caught and reported with a witness.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property
from random import Random

import numpy as np

from .errors import SelfCheckError
from .field import GF
from .matrix import Matrix
from .poset import Poset

EXHAUSTIVE_LIMIT = 12
TABLE_LIMIT = 16
_SAMPLED_PAIRS = 5000


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

    @cached_property
    def _rank_table(self) -> dict[int, int]:
        return dict(ideal_ranks(Poset.antichain(self.n), self.code.field, self._gen_cols))

    @cached_property
    def _dual_table(self) -> dict[int, int]:
        # the antichain's table of shortened dimensions is the same walk on H
        dims = self.shortened_dims(Poset.antichain(self.n))
        return {mask: mask.bit_count() - dim for mask, dim in dims.items()}

    def _check_mask(self, mask: int) -> int:
        if self.n > TABLE_LIMIT:
            raise ValueError(f"all-subsets rank tables need n <= {TABLE_LIMIT}, got n={self.n}")
        if not 0 <= mask <= self.full:
            raise ValueError(f"subset mask {mask:#x} out of range for n={self.n}")
        return mask

    def rank(self, mask: int) -> int:
        """Rank of the generator columns indexed by mask."""
        return self._rank_table[self._check_mask(mask)]

    def dual_rank(self, mask: int) -> int:
        """Rank of the parity-check columns indexed by mask."""
        return self._dual_table[self._check_mask(mask)]

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
    exhaustive: bool
    passed: bool
    violation: AxiomViolation | None


@dataclass(frozen=True)
class IdentityReport:
    n: int
    exhaustive: bool
    passed: bool
    witness: int | None


def _values_array(fn, size: int) -> np.ndarray:
    return np.fromiter((fn(m) for m in range(size)), dtype=np.int64, count=size)


def _axioms_exhaustive(name: str, t: np.ndarray, n: int) -> AxiomViolation | None:
    size = 1 << n
    masks = np.arange(size, dtype=np.int64)
    pops = np.fromiter((m.bit_count() for m in range(size)), dtype=np.int64, count=size)
    bad = np.nonzero((t < 0) | (t > pops))[0]
    if bad.size:
        return AxiomViolation(name, "R1", int(bad[0]), None)
    # all containments A <= B appear as B = A | X with X ranging over all
    # masks, and all (A, B) pairs feed the submodularity inequality
    chunk = max(1, (1 << 20) // size)
    for start in range(0, size, chunk):
        a = masks[start : start + chunk, None]
        union = a | masks[None, :]
        inter = a & masks[None, :]
        r2 = t[union] < t[a]
        if r2.any():
            ai, xi = np.nonzero(r2)
            a0 = int(masks[start + ai[0]])
            return AxiomViolation(name, "R2", a0, a0 | int(masks[xi[0]]))
        r3 = t[union] + t[inter] > t[a] + t[masks[None, :]]
        if r3.any():
            ai, bi = np.nonzero(r3)
            return AxiomViolation(name, "R3", int(masks[start + ai[0]]), int(masks[bi[0]]))
    return None


def _axioms_sampled(name: str, fn, n: int, rng: Random, samples: int) -> AxiomViolation | None:
    size = 1 << n
    for _ in range(samples):
        a = rng.randrange(size)
        b = rng.randrange(size)
        fa, fb = fn(a), fn(b)
        if not 0 <= fa <= a.bit_count():
            return AxiomViolation(name, "R1", a, None)
        if fn(a | b) < max(fa, fb):
            return AxiomViolation(name, "R2", a if fa >= fb else b, a | b)
        if fn(a | b) + fn(a & b) > fa + fb:
            return AxiomViolation(name, "R3", a, b)
    return None


def check_rank_axioms(
    profile: RankProfile,
    exhaustive: bool | None = None,
    rng: Random | None = None,
    samples: int = _SAMPLED_PAIRS,
) -> AxiomReport:
    """Verify R1, R2, R3 for both rank and dual_rank.

    Exhaustive mode (automatic for n <= 12) checks R1 on all subsets and
    R2, R3 on all ordered pairs of subsets; otherwise seeded random pairs
    are sampled.  The first violation, if any, is reported with witnesses.
    """
    n = profile.n
    if exhaustive is None:
        exhaustive = n <= EXHAUSTIVE_LIMIT
    if exhaustive and n > EXHAUSTIVE_LIMIT:
        raise ValueError(f"exhaustive axiom check needs n <= {EXHAUSTIVE_LIMIT}")
    for name, fn in (("rank", profile.rank), ("dual_rank", profile.dual_rank)):
        if exhaustive:
            violation = _axioms_exhaustive(name, _values_array(fn, 1 << n), n)
        else:
            violation = _axioms_sampled(name, fn, n, rng or Random(0), samples)
        if violation is not None:
            return AxiomReport(n, exhaustive, False, violation)
    return AxiomReport(n, exhaustive, True, None)


def check_complement_rank_identity(
    profile: RankProfile,
    exhaustive: bool | None = None,
    rng: Random | None = None,
    samples: int = _SAMPLED_PAIRS,
) -> IdentityReport:
    """Verify dual_rank(A) = |A| - k + rank(complement A) on subsets."""
    n = profile.n
    if exhaustive is None:
        exhaustive = n <= EXHAUSTIVE_LIMIT
    if exhaustive:
        size = 1 << n
        t = _values_array(profile.rank, size)
        dt = _values_array(profile.dual_rank, size)
        pops = np.fromiter((m.bit_count() for m in range(size)), dtype=np.int64, count=size)
        comp = np.arange(size, dtype=np.int64) ^ profile.full
        bad = np.nonzero(dt != pops - profile.k + t[comp])[0]
        if bad.size:
            return IdentityReport(n, True, False, int(bad[0]))
        return IdentityReport(n, True, True, None)
    rng = rng or Random(0)
    for _ in range(samples):
        a = rng.randrange(1 << n)
        if profile.dual_rank(a) != a.bit_count() - profile.k + profile.rank(profile.full ^ a):
            return IdentityReport(n, False, False, a)
    return IdentityReport(n, False, True, None)


def require_passed(report: AxiomReport | IdentityReport, context: str) -> None:
    """Raise SelfCheckError when a verification report carries a failure."""
    if report.passed:
        return
    if isinstance(report, AxiomReport) and report.violation is not None:
        raise SelfCheckError(f"{context}: {report.violation.describe()}")
    witness = getattr(report, "witness", None)
    raise SelfCheckError(f"{context}: identity fails at mask {witness:#x}")

"""Column-rank data of a linear code, viewed as a matroid on {1..n}.

RankProfile memoizes two set functions over coordinate subsets:

  * rank(A): rank of the generator columns indexed by A, and
  * dual_rank(A): rank of the parity-check columns indexed by A, which is
    the rank function of the dual matroid.

Both satisfy the matroid rank axioms

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
sweeps read every value through the public accessors, so a corrupted memo
is caught and reported with a witness.

Ranks are computed incrementally: the rank of A is derived from the rank
of A minus its lowest element by reducing one more column against a kept
echelon basis, so filling all 2**n subsets costs O(2**n k^2) field ops
rather than 2**n independent eliminations.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

import numpy as np

from .errors import SelfCheckError
from .matrix import Matrix

EXHAUSTIVE_LIMIT = 12
TABLE_LIMIT = 16
_SAMPLED_PAIRS = 5000


def _columns(mat: Matrix) -> list[tuple[int, ...]]:
    return [tuple(row[c] for row in mat.rows) for c in range(mat.ncols)]


class RankProfile:
    """Memoized rank and dual-rank of one code's coordinate subsets."""

    def __init__(self, code) -> None:
        self.code = code
        self.n = code.n
        self.k = code.k
        self.full = (1 << code.n) - 1
        self._rank_memo: dict[int, int] = {0: 0}
        self._dual_memo: dict[int, int] = {0: 0}
        self._rank_bases: dict[int, tuple] = {0: ()}
        self._dual_bases: dict[int, tuple] = {0: ()}
        self._gen_cols = _columns(code.generator)
        self._par_cols = _columns(code.parity)

    # -- incremental elimination -----------------------------------------

    def _reduce(self, vec: tuple[int, ...], basis: tuple) -> tuple[int, ...] | None:
        """Reduce vec against an echelon basis; None when it lies in the span."""
        F = self.code.field
        v = vec
        for lead, b in basis:
            c = v[lead]
            if c:
                v = F._sub_scaled(v, c, b)
        lead = next((i for i, x in enumerate(v) if x), None)
        if lead is None:
            return None
        if v[lead] != 1:
            v = F._scale(F.inv(v[lead]), v)
        return tuple(v)

    def _value(self, mask: int, memo: dict[int, int], bases: dict[int, tuple], cols) -> int:
        got = memo.get(mask)
        if got is not None:
            return got
        chain = []
        m = mask
        while m and m not in bases:
            chain.append(m)
            m ^= m & -m
        basis = bases[m] if m in bases else ()
        rank = len(basis)
        for mm in reversed(chain):
            low = mm & -mm
            col = cols[low.bit_length() - 1]
            reduced = self._reduce(col, basis)
            if reduced is not None:
                lead = next(i for i, x in enumerate(reduced) if x)
                basis = tuple(sorted(basis + ((lead, reduced),)))
                rank += 1
            bases[mm] = basis
            memo.setdefault(mm, rank)
        return memo[mask]

    def _check_mask(self, mask: int) -> int:
        if not 0 <= mask <= self.full:
            raise ValueError(f"subset mask {mask:#x} out of range for n={self.n}")
        return mask

    def rank(self, mask: int) -> int:
        """Rank of the generator columns indexed by mask."""
        self._check_mask(mask)
        return self._value(mask, self._rank_memo, self._rank_bases, self._gen_cols)

    def dual_rank(self, mask: int) -> int:
        """Rank of the parity-check columns indexed by mask."""
        self._check_mask(mask)
        return self._value(mask, self._dual_memo, self._dual_bases, self._par_cols)

    def fill(self) -> None:
        """Memoize both functions on all 2**n subsets, then drop the bases.

        Kept bases would dominate memory at scale; after a full fill every
        query is a dict hit, so they are no longer needed.
        """
        if self.n > TABLE_LIMIT:
            raise ValueError(f"full tables need n <= {TABLE_LIMIT}, got n={self.n}")
        for mask in range(self.full + 1):
            self.rank(mask)
            self.dual_rank(mask)
        self._rank_bases = {0: ()}
        self._dual_bases = {0: ()}

    def shortened_dim_three_ways(self, mask: int) -> tuple[int, int, int]:
        """dim of the shortened subcode computed three independent ways:
        |J| - dual_rank(J), k - rank(complement J), and by the null-space
        solver in LinearCode.shorten."""
        self._check_mask(mask)
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

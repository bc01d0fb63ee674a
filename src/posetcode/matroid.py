"""Column-rank data of a linear code, viewed as a matroid on {1..n}.

Ranks come from a depth-first walk over the ideal lattice J(P) that
carries an echelon basis; _reducer, the one kernel, reduces the column
each ideal adds.  Columns and rows are packed words (code._PackedWords):
one shift and mask reads a column's digits at a row's lead, and one SWAR
add of a multiple of the row, built the first time some column needs
it, clears them.  Rank is monotone (R2), so once the basis is full every
larger ideal has full rank.  grid_ranks, the one walk for every poset,
decides the elements along ChainLayout.linear_extension() (_walk_steps)
and carries (mask, grid index, basis), one more element of chain c being
stride_c on.
It writes each rank into a bytearray prefilled with the full rank and
goes no further from a full basis, as all below it are supersets.
RankProfile keeps:

  * per poset P, the shortened dimensions dim C^I = |I| - rank_H(I) on
    every ideal I (G generator, H parity-check matrix), as one bytes
    table by index on the grid of P's chain partition (ChainLayout),
    meaningless off the ideals: shortened_dims, walked_dims and
    census_dims all hand it out so, and their readers take (layout, dims),
    look at the ideals only (ChainLayout.flags) and map an index to its
    mask where a witness needs one.  This one table gives the
    hierarchies of C under P and of the dual code under the opposite
    poset and the classification.  It has two fills, chosen by the
    instance alone:

      zeta   an ideal J sits at grid point x or below exactly when
             J <= S_x, so the prefix sum over the grid of the enumerate
             census (LinearCode.closure_tally) counts at x the codewords
             whose support closes into S_x: q^(dim C^I) at an ideal I, a
             power of q everywhere.  zeta_dims takes it by ChainLayout.zeta,
             no elimination, and log_zeta reads log_q off each field.  A
             field whose top byte names no power is refused; wider fields
             are also rebuilt from their names and compared, as a lower
             byte can be wrong.  C-perp's stream under the opposite poset
             serves as well as C's: reversing its table complements the
             index, and dim C^A = |A| - (n - k) + dim C-perp^(complement A).  The
             shorter stream serves, C's own on a tie, when it is no longer
             than the grid and within MAX_ENUMERATION;
      walk   every other case: grid_ranks on the parity-check columns,
             read off as C-perp's fill with n - k - rank_H(I) in place of
             dim C-perp; off the ideals the rank stays full.

    walked_dims is the walk alone.  census_dims is C-perp's
    fill or the walk, never C's own stream: Moebius inversion of a zeta
    transform of the enumerate counts would give those counts back, and
    the census would stop being an oracle independent of enumeration;
  * for n <= TABLE_LIMIT, flat lists indexed by subset mask: rank(A) on
    the columns of G and dual_rank(A) on those of H (the dual matroid),
    filled from the antichain's tables (rank by grid_ranks on G, dual_rank
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

from collections.abc import Callable, Sequence
from functools import cached_property
from operator import sub
from typing import NamedTuple

from .bitset import digit_sums, subset_sizes, to_fields
from .code import MAX_ENUMERATION, TABLE_LIMIT, LinearCode, _PackedWords
from .errors import SelfCheckError
from .field import GF
from .matrix import Matrix
from .poset import ChainLayout, Poset, digit_masks


def _columns(mat: Matrix) -> list[tuple[int, ...]]:
    return [tuple(row[c] for row in mat.rows) for c in range(mat.ncols)]


def _reducer(field: GF, columns: Sequence[Sequence[int]]) -> Callable[[tuple, int], tuple]:
    """extend(basis, e): the echelon basis of packed rows, zero at earlier
    rows' leads, with column e reduced in by one in-order pass; a full basis
    comes back at once.  A row is kept as (lead bit offset, row, -1/lead
    times each element, -(a/lead) * row by lead digits a)."""
    packed = _PackedWords(field, full := len(columns[0]))
    words = [packed.pack(column) for column in columns]
    element, stride, digits, p = packed.element, packed.stride, (1 << packed.stride) - 1, field.p
    shift, top, carry = packed.width - 1, packed.top, packed.carry
    scales = {packed.spread[a]: field._mul[field._neg[field._inv[a]]] for a in range(1, field.q)}

    def extend(basis: tuple, e: int) -> tuple:
        if len(basis) == full:
            return basis
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

    return extend


def _walk_steps(layout: ChainLayout) -> tuple:
    """The steps of grid_ranks' walk from the empty ideal, along
    layout.linear_extension() (the chains one after another on a chain
    union).  A state that has decided the first f positions may add e at
    j >= f once e's strict downset lies among them, by the step (need, e,
    1 << e, e's stride, the first and the other steps of the state it
    reaches)."""
    n, below, weight, order = layout.n, layout.below, layout._weight, layout.linear_extension()
    strict = [down ^ 1 << e for e, down in enumerate(below)]
    # first[j]: the step of position j from a state at j, which holds the element at j - 1 and its
    # downset; rest[j]: the other steps at j, whose need is the whole strict downset, as in plain
    first, rest, plain, held = [None] * (n + 1), [()] * (n + 1), None, 0
    for j in reversed(range(n)):
        e, after, up, stride = order[j], rest[j + 1], first[j + 1], weight[order[j]]
        first[j] = (strict[e] & ~below[order[j - 1]] if j else 0, e, bit := 1 << e, stride, up, after)
        if plain:
            # a step at j + 1 waits at j unless its need holds e; held, the needs of every step that
            # waited, tells when none of rest[j + 1] can
            waiting = after if plain[0] & bit else (plain, *after)
            rest[j] = tuple([step for step in waiting if not step[0] & bit]) if held & bit else waiting
            held |= 0 if plain[0] & bit else plain[0]
        plain = (strict[e], e, bit, stride, up, after)
    return (first[0], *rest[0])


def grid_ranks(layout: ChainLayout, field: GF, columns: Sequence[Sequence[int]]) -> bytearray:
    """Ranks of the columns on the ideals by layout index, full off them (module docstring)."""
    full, extend = len(columns[0]), _reducer(field, columns)
    ranks = bytearray(1) + bytes([full]) * (layout.size - 1)
    stack = [(0, _walk_steps(layout), 0, ())] if full else []
    while stack:
        mask, steps, at, basis = stack.pop()
        for step in steps:
            # on along the order while the next position can follow, as up a chain
            m, i, up = mask, at, basis
            while step:
                need, e, bit, stride, step, rest = step
                if need and need & ~m:
                    break
                up = extend(up, e)
                if (r := len(up)) == full:
                    break
                m, i = m | bit, i + stride
                ranks[i] = r
                if rest:
                    stack.append((m, rest, i, up))
    return ranks


def log_zeta(layout: ChainLayout, census: dict[int, int], q: int, k: int) -> bytes:
    """dim C^I by index from the census |C & S_I| by index (module docstring):
    log_q of its ChainLayout.zeta in the fewest whole bytes that hold q^k.
    A sum not a power of q raises SelfCheckError."""
    size, wb = layout.size, ((q**k).bit_length() + 7) // 8
    data = layout.zeta(census, wb)
    # log_q: the top nonzero byte of q^d, with its plane, names d (255 for
    # none).  One translate per byte plane, from the top; a lower plane's
    # names fill in only where no higher plane named one.
    powers = [q**d for d in range(k + 1)]
    for j in reversed(range(wb)):
        logs = bytearray(b"\xff" * 256)
        for d, power in enumerate(powers):
            if 0 < power >> 8 * j < 256:
                logs[power >> 8 * j] = d
        named = data[j::wb].translate(logs)
        if j < wb - 1:
            named = int.from_bytes(named, "little") | int.from_bytes(names.translate(b"\xff" * 255 + b"\0"), "little")
            named = (named & int.from_bytes(names, "little")).to_bytes(size, "little")
        names = named
    # and every field must be exactly the power it names: find has refused every other one-byte field
    at = names.find(255)
    if at < 0 and wb > 1 and (rebuilt := to_fields(names, powers, wb)) != data:
        at = next(i for i in range(size) if rebuilt[i * wb : (i + 1) * wb] != data[i * wb : (i + 1) * wb])
    if at >= 0:
        raise SelfCheckError(f"zeta fill: the codewords inside subset {layout.ideal(at):#x} are not a power of q")
    return names


def zeta_dims(code, poset: Poset) -> bytes:
    """dim C^I by grid index from the code's enumerate census alone; off the
    ideals, log_q of the words inside S_x (module docstring)."""
    return log_zeta(poset.chain_layout(), code.closure_tally(poset), code.field.q, code.k)


class RankProfile:
    """Rank tables of one code's columns; see the module docstring."""

    # the columns of G and H, built when a walk first reads them
    _gen_cols = cached_property(lambda self: _columns(self.code.generator))
    _par_cols = cached_property(lambda self: _columns(self.code.parity))

    def __init__(self, code) -> None:
        self.code = code
        self.n = code.n
        self.k = code.k
        self.full = (1 << code.n) - 1
        self._walks: dict[Poset, bytes] = {}
        self._fills: dict[tuple[Poset, bool], bytes] = {}

    def _dims(self, layout: ChainLayout, slack: bytes) -> bytes:
        # by index, |I| + slack(I) with slack n - k - rank_H(I) = dim C-perp^(complement I) never carries
        # and less n - k is dim C^I, or 255 > k below n - k
        total = int.from_bytes(digit_sums(layout.lengths), "little") + int.from_bytes(slack, "little")
        n_k = self.n - self.k
        return total.to_bytes(layout.size, "little").translate(b"\xff" * n_k + bytes(range(256 - n_k)))

    def _dual_fill(self, poset: Poset) -> bytes:
        if (dims := self._fills.get((poset, True))) is None:
            code, layout = self.code, poset.chain_layout()
            reversed_dual = zeta_dims(LinearCode(code.field, code.parity, code.generator), layout.opposite())[::-1]
            dims = self._fills[poset, True] = self._dims(layout, reversed_dual)
        return dims

    def shortened_dims(self, poset: Poset) -> bytes:
        """dim C^I = |I| - rank_H(I) by grid index, meaningless off the ideals,
        by a zeta fill or the walk."""
        # C's own fill serves when its stream is the shorter and no longer than the grid
        if self.code.codeword_count > min(poset.chain_layout().size, MAX_ENUMERATION, self.code.field.q ** (self.n - self.k)):
            return self.census_dims(poset)
        if (dims := self._fills.get((poset, False))) is None:
            dims = self._fills[poset, False] = zeta_dims(self.code, poset)
        return dims

    def census_dims(self, poset: Poset) -> bytes:
        """dim C^I by grid index, meaningless off the ideals, by C-perp's zeta
        fill or the walk, never C's own stream: the Moebius census's table."""
        if self.code.field.q ** (self.n - self.k) <= min(poset.chain_layout().size, MAX_ENUMERATION):
            return self._dual_fill(poset)
        return self.walked_dims(poset)

    def walked_dims(self, poset: Poset) -> bytes:
        """The table of shortened_dims, always filled by the rank walk on H."""
        if (dims := self._walks.get(poset)) is None:
            layout = poset.chain_layout()
            ranks = grid_ranks(layout, self.code.field, self._par_cols)
            slack = ranks.translate(bytes(range(self.n - self.k, -1, -1)).ljust(256, b"\0"))
            dims = self._walks[poset] = self._dims(layout, slack)
        return dims

    @cached_property
    def _rank_table(self) -> list[int]:
        # the walk leaves the full rank k on the supersets of a full-rank set
        # it prunes; on a set it skipped with fewer than k elements R1 refuses it
        return list(grid_ranks(Poset.antichain(self.n).chain_layout(), self.code.field, self._gen_cols))

    @cached_property
    def _dual_table(self) -> list[int]:
        # rank_H(A) = |A| - dim C^A, read off the antichain's shortened dimensions, by mask
        return list(map(sub, subset_sizes(self.n), self.shortened_dims(Poset.antichain(self.n))))

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


class AxiomViolation(NamedTuple):
    function: str
    axiom: str
    set_a: int
    set_b: int | None

    def describe(self) -> str:
        b = "" if self.set_b is None else f", B={self.set_b:#x}"
        return f"{self.function} violates {self.axiom} at A={self.set_a:#x}{b}"


class AxiomReport(NamedTuple):
    n: int
    passed: bool
    violation: AxiomViolation | None


class IdentityReport(NamedTuple):
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
    the inequality.  low_e keeps the guards of the fields A that lack e:
    the digit masks of the antichain's product of chains (poset.digit_masks).
    """
    if not (0 <= min(t) and max(t) <= n):
        a = next(a for a, value in enumerate(t) if not 0 <= value <= a.bit_count())
        return AxiomViolation(name, "R1", a, None)
    table = int.from_bytes(bytes(t), "little")
    guards = int.from_bytes(b"\x80" * len(t), "little")
    if over := guards & ~(int.from_bytes(subset_sizes(n), "little") + guards - table):
        return AxiomViolation(name, "R1", _lowest_field(over), None)
    low = [mask for _, mask in digit_masks((1,) * n, 8, 0x80)][::-1]
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

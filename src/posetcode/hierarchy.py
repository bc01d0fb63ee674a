"""Generalized minimum poset weights of a linear code.

For a poset P on the coordinate set and 1 <= r <= k, the r-th minimum
poset weight is

    d_r = min { |<supp(D)>| : D an r-dimensional subspace of C },

where <.> is ideal closure.  Two independent computations are provided:

bruteforce
    Enumerates every r-dimensional subspace of the message space through
    its unique reduced-echelon basis (pivot columns first, then free
    entries), maps basis rows to codewords, and takes the closure of the
    union of supports.  Exponential, guarded by caps; exists to validate
    the fast path and to serve as the definitional oracle.

ideal-scan
    Reads the flat table of shortened dimensions dim C^J = |J| - dual_rank(J)
    over the ideals J of P (RankProfile.shortened_dims: ascending masks and
    an aligned bytes object, from the zeta fill or the rank walk) and
    finds, for every r, the smallest ideal, by size and then by mask, whose
    shortened subcode has dimension at least r.  There is no Python loop
    over the ideals: bytes.translate turns the dims into a flag int that
    marks dim >= r and a table of ideal sizes into one that marks |J| = s
    (bitset.flags_at_least, flags_equal), and the lowest set byte of
    their AND is the smallest such ideal of size s.  Restricting the scan
    to ideals is exact: replacing any subset by its ideal closure keeps
    the objective value while the shortened dimension can only grow.  The
    same scan with the requirement pinned to exactly r
    (require_exact=True) returns the same minimum, which is checked by
    the test suite.

The full hierarchy must be strictly increasing and confined to the
Singleton-type window r <= d_r <= n - k + r; weight_hierarchy raises
SelfCheckError otherwise.  duality_partition pairs the hierarchy of C
under P with the hierarchy of the dual code under the opposite poset:
the sets {d_r} and {n + 1 - d'_s} must partition {1..n}.  Both come from
the same table (Wei duality through the matroid relation
dim C^I = |I| - rank_H(I) = k - rank_G(P - I)), so the dual code is never
built: the dual dimensions n - k - rank_H(I) are one bytes table, and
the dual scan reads the highest set byte, the largest ideal I of the
largest size, whose complement is the smallest ideal of the opposite
poset.  The test suite and the acceptance gate compare d'_s with the
hierarchy of the dualized code under the dual poset.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import combinations, product

from .bitset import flags_at_least, flags_equal, subset_sizes, to_elements
from .code import LinearCode
from .errors import SelfCheckError
from .poset import Poset

ORACLE_WORD_CAP = 1 << 16
ORACLE_SUBSPACE_CAP = 1 << 20

METHOD_IDEAL_SCAN = "ideal-scan"
METHOD_BRUTEFORCE = "bruteforce"


def gaussian_binomial(k: int, r: int, q: int) -> int:
    """Number of r-dimensional subspaces of a k-dimensional space over GF(q)."""
    if r < 0 or r > k:
        return 0
    num = den = 1
    for i in range(r):
        num *= q ** (k - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def reduced_echelon_rows(k: int, r: int, q: int):
    """Yield each r x k reduced-echelon matrix over GF(q) once, as row tuples.

    Pivot column combinations are emitted in lexicographic order; for each,
    the free entries (right of the row's pivot, outside pivot columns) run
    through all q values in odometer order.  Every r-dimensional subspace
    of GF(q)^k has exactly one such matrix as its canonical basis.
    """
    for pivots in combinations(range(k), r):
        pivot_set = set(pivots)
        free = [
            (i, c)
            for i in range(r)
            for c in range(pivots[i] + 1, k)
            if c not in pivot_set
        ]
        base = []
        for i in range(r):
            row = [0] * k
            row[pivots[i]] = 1
            base.append(row)
        if not free:
            yield tuple(tuple(row) for row in base)
            continue
        for fill in product(range(q), repeat=len(free)):
            rows = [row[:] for row in base]
            for (i, c), v in zip(free, fill):
                rows[i][c] = v
            yield tuple(tuple(row) for row in rows)


def _message_supports(code: LinearCode) -> list[int]:
    """Support mask of the codeword of every message, indexed by encoding:
    the batches of the support stream come in message order."""
    return [s for batch in code.support_batches() for s in batch]


def _require_bruteforce_caps(code: LinearCode, dims) -> None:
    """Refuse a brute force over more than ORACLE_WORD_CAP messages or, for
    any r in dims, more than ORACLE_SUBSPACE_CAP r-dimensional subspaces."""
    if code.codeword_count > ORACLE_WORD_CAP:
        raise ValueError(
            f"bruteforce needs q^k <= {ORACLE_WORD_CAP}, got {code.codeword_count}"
        )
    for r in dims:
        count = gaussian_binomial(code.k, r, code.field.q)
        if count > ORACLE_SUBSPACE_CAP:
            raise ValueError(
                f"bruteforce needs at most {ORACLE_SUBSPACE_CAP} subspaces, got {count}"
            )


def min_weight_bruteforce(
    code: LinearCode,
    poset: Poset,
    r: int,
    _supports: list[int] | None = None,
) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Definitional minimum over all r-dimensional subcodes.

    Returns the weight and a witness basis (codewords of the first
    minimizing subspace in enumeration order).  Caps: q**k <= 2**16
    messages and at most 2**20 subspaces.  weight_hierarchy checks the
    inputs and the caps for every r once and passes the message supports
    as _supports; the checks here run only without them.
    """
    if _supports is None:
        _require_compatible(code, poset)
        if not 1 <= r <= code.k:
            raise ValueError(f"subcode dimension {r} outside 1..{code.k}")
        _require_bruteforce_caps(code, (r,))
        _supports = _message_supports(code)
    q = code.field.q
    closure_size: dict[int, int] = {}
    powers = [q**i for i in range(code.k)]
    best_weight = poset.n + 1
    best_rows: tuple[tuple[int, ...], ...] | None = None
    for rows in reduced_echelon_rows(code.k, r, q):
        union = 0
        for row in rows:
            enc = 0
            for c, v in zip(row, powers):
                if c:
                    enc += c * v
            union |= _supports[enc]
        size = closure_size.get(union)
        if size is None:
            size = poset.ideal_closure(union).bit_count()
            closure_size[union] = size
        if size < best_weight:
            best_weight = size
            best_rows = rows
    assert best_rows is not None
    witness = tuple(code.codeword(row) for row in best_rows)
    return best_weight, witness


def ideal_sizes(ideals: Sequence[int]) -> bytes:
    """Byte table of |I| aligned with the ideals of a shortened-dimension table."""
    if isinstance(ideals, range):
        # the antichain: every mask below 2**n, in order
        return subset_sizes(len(ideals).bit_length() - 1)
    return bytes(map(int.bit_count, ideals))


def _table_minima(
    ideals: Sequence[int], dims: bytes, n: int, count: int, downward: bool = False, require_exact: bool = False
) -> list[tuple[int, int]]:
    """For r = 1..count the first (|I|, I) over the aligned ideals and dims
    tables, by ascending size then mask (both descending when downward),
    whose dim is at least r (exactly r with require_exact).

    One flag int of dims per r, ANDed with one flag int of the sizes per
    size tried; the lowest set byte of a nonzero intersection is its
    smallest mask, the highest its largest.  The ideals reaching r + 1
    lie among those reaching r (not under require_exact), so the size
    search resumes where r stopped.
    """
    sizes = ideal_sizes(ideals)
    order = range(n, -1, -1) if downward else range(n + 1)
    flags = flags_equal if require_exact else flags_at_least
    out = []
    start, at_pos, at = 0, None, 0
    for r in range(1, count + 1):
        reach = flags(dims, r)
        for pos in range(0 if require_exact else start, n + 1):
            if pos != at_pos:
                at_pos, at = pos, flags_equal(sizes, order[pos])
            hit = reach & at
            if hit:
                break
        else:
            raise SelfCheckError(f"no ideal reaches shortened dimension {r} although k={count}")
        start = pos
        index = (hit.bit_length() if downward else (hit & -hit).bit_length()) - 1 >> 3
        out.append((order[pos], ideals[index]))
    return out


def _scan_minima(code: LinearCode, poset: Poset, require_exact: bool = False) -> list[tuple[int, int]]:
    """(d_r, witness ideal) for r = 1..k: the smallest ideal, ties by mask,
    whose shortened subcode has dimension at least r (exactly r with
    require_exact); the caller has checked that code and poset have the
    same length."""
    ideals, dims = code.matroid.shortened_dims(poset)
    return _table_minima(ideals, dims, code.n, code.k, require_exact=require_exact)


def min_weight_ideal_scan(
    code: LinearCode,
    poset: Poset,
    r: int,
    require_exact: bool = False,
) -> tuple[int, int]:
    """Smallest ideal carrying an r-dimensional shortened subcode.

    Returns (weight, witness ideal mask): the numerically smallest ideal
    of minimum size.  With require_exact the shortened dimension must
    equal r instead of reaching it; both variants attain the same minimum.
    """
    _require_compatible(code, poset)
    if not 1 <= r <= code.k:
        raise ValueError(f"subcode dimension {r} outside 1..{code.k}")
    return _scan_minima(code, poset, require_exact)[r - 1]


@dataclass(frozen=True)
class WeightHierarchy:
    """Weights d_1 < ... < d_k with per-r witnesses.

    For the ideal-scan method each witness is an ideal given as a 1-based
    element tuple; for bruteforce it is a tuple of basis codewords.
    """

    n: int
    k: int
    q: int
    poset_digest: str
    method: str
    weights: tuple[int, ...]
    witnesses: tuple[object, ...]

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "q": self.q,
            "poset": self.poset_digest,
            "method": self.method,
            "weights": list(self.weights),
            "witnesses": [list(map(list, w)) if self.method == METHOD_BRUTEFORCE else list(w) for w in self.witnesses],
        }


def weight_hierarchy(
    code: LinearCode,
    poset: Poset,
    method: str = METHOD_IDEAL_SCAN,
) -> WeightHierarchy:
    """All k minimum weights, verified against the structural invariants."""
    _require_compatible(code, poset)
    if method == METHOD_IDEAL_SCAN:
        minima = _scan_minima(code, poset)
        weights = [w for w, _ in minima]
        witnesses = [to_elements(mask) for _, mask in minima]
    elif method == METHOD_BRUTEFORCE:
        _require_bruteforce_caps(code, range(1, code.k + 1))
        supports = _message_supports(code)
        weights, witnesses = [], []
        for r in range(1, code.k + 1):
            w, basis = min_weight_bruteforce(code, poset, r, _supports=supports)
            weights.append(w)
            witnesses.append(basis)
    else:
        raise ValueError(f"unknown method {method!r}")
    _check_window(weights, code.n, code.k)
    return WeightHierarchy(
        code.n, code.k, code.field.q, poset.digest(), method, tuple(weights), tuple(witnesses)
    )


@dataclass(frozen=True)
class DualityPartition:
    """Hierarchy of C under P against the dual code under the opposite poset.

    first = {d_r : 1 <= r <= k} and second = {n + 1 - d'_s : 1 <= s <= n-k}
    partition {1, ..., n}; duality_partition raises SelfCheckError if not.
    """

    n: int
    k: int
    weights: tuple[int, ...]
    dual_weights: tuple[int, ...]
    first: tuple[int, ...]
    second: tuple[int, ...]

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "weights": list(self.weights),
            "dual_weights": list(self.dual_weights),
            "first": list(self.first),
            "second": list(self.second),
        }


def duality_partition(code: LinearCode, poset: Poset) -> DualityPartition:
    """Both hierarchies from one table of shortened dimensions, with the
    partition statement verified.

    The ideals of the opposite poset are the complements P - I of the
    ideals I of P, and the dual code shortened on P - I has dimension
    (n - |I|) - rank_G(P - I) = n - |I| - k + dim C^I.
    """
    if code.k == code.n:
        raise ValueError("duality needs a proper subspace: 1 <= k <= n - 1")
    primal = weight_hierarchy(code, poset)
    n, k = code.n, code.k
    ideals, dims = code.matroid.shortened_dims(poset)
    # n - |I| - k + dim C^I = n - k - rank_H(I), byte by byte with no borrow,
    # since rank_H(I) = |I| - dim C^I lies in 0..n-k
    size = len(dims)
    dual_dims = (
        int.from_bytes(bytes([n - k]) * size, "little")
        - int.from_bytes(ideal_sizes(ideals), "little")
        + int.from_bytes(dims, "little")
    ).to_bytes(size, "little")
    # the smallest key (n - |I|, P - I) is the largest I
    dual_minima = _table_minima(ideals, dual_dims, n, n - k, downward=True)
    dual_weights = tuple(n - size for size, _ in dual_minima)
    _check_window(dual_weights, n, n - k)
    first = tuple(sorted(primal.weights))
    second = tuple(sorted(n + 1 - d for d in dual_weights))
    if sorted(first + second) != list(range(1, n + 1)):
        raise SelfCheckError(f"duality partition fails: first={first}, second={second}, n={n}")
    return DualityPartition(n, k, primal.weights, dual_weights, first, second)


def _check_window(weights, n: int, k: int) -> None:
    """A hierarchy strictly increases inside the window r <= d_r <= n - k + r."""
    for r, w in enumerate(weights, start=1):
        if not r <= w <= n - k + r:
            raise SelfCheckError(f"d_{r} = {w} outside the window [{r}, {n - k + r}]")
        if r >= 2 and weights[r - 2] >= w:
            raise SelfCheckError(
                f"hierarchy not strictly increasing: d_{r - 1} = {weights[r - 2]}, d_{r} = {w}"
            )


def _require_compatible(code: LinearCode, poset: Poset) -> None:
    if code.n != poset.n:
        raise ValueError(f"poset size {poset.n} != code length {code.n}")

"""Generalized minimum poset weights of a linear code.

For a poset P on the coordinate set and 1 <= r <= k, the r-th minimum
poset weight is

    d_r = min { |<supp(D)>| : D an r-dimensional subspace of C },

where <.> is ideal closure.  Two independent computations are provided:

bruteforce
    Runs over every r-dimensional subspace of the message space through
    its unique reduced-echelon basis (pivot columns first, then free
    entries) and takes the closure of the union of the supports of its
    basis codewords.  For a fixed pivot pattern the rows range
    independently, so the distinct unions are built one row at a time,
    each kept with the first rows that reach it.  Exponential, guarded by
    caps; exists to validate the fast path and to serve as the
    definitional oracle.

ideal-scan
    Reads one byte per ideal I of P that names the pair
    (dim C^I, rank_H I), where dim C^I = |I| - rank_H(I) is the shortened
    dimension and H a parity-check matrix:

        key(I) = (n - k + 1) dim C^I + rank_H(I) = (n - k) dim C^I + |I|.

    It is built from the flat table of shortened dimensions
    (RankProfile.shortened_dims, by index on the grid of P's chain
    partition, poset.ChainLayout) by one translate, one int add of the
    sizes |S_x| (bitset.digit_sums) and one to_bytes; off the ideals one
    OR makes the byte 0xff, which names no pair.  It is read with
    bytes.find, rfind and translate, with no Python loop over the ideals.
    d_r = r + t for the smallest t such that the byte of the pair (r, t)
    occurs, and the witness is the least ideal mask holding it: the
    first find where index order is mask order (ChainLayout.mask_ordered),
    else the least over every occurrence.  The scan asks for
    dim C^I = r exactly and still gives the definitional minimum over
    dim C^I >= r: at size d_r no ideal has dim C^I > r, or
    d_{r+1} <= d_r.  The profile checks of classify delete the allowed
    pairs and 0xff with translate and must be left with nothing.
    Restricting the minimum to ideals is exact: replacing any subset by
    its ideal closure keeps the objective value while the shortened
    dimension can only grow.

The full hierarchy must be strictly increasing and confined to the
Singleton-type window r <= d_r <= n - k + r; weight_hierarchy raises
SelfCheckError otherwise.  duality_partition pairs the hierarchy of C
under P with the hierarchy of the dual code under the opposite poset:
the sets {d_r} and {n + 1 - d'_s} must partition {1..n}.  Both are read
from the same key table, which is Wei duality as the matroid relation
dim C^I = |I| - rank_H(I) = k - rank_G(P - I): the ideals of the
opposite poset are the complements P - I, and the dual code shortened
on P - I has dimension n - k - rank_H(I).  So d'_s = k + s - g for the
largest g such that the byte of the pair (g, n - k - s) occurs, and
the largest ideal mask I holding it (rfind where index order is mask
order) has as complement the smallest ideal of the opposite poset.
The dual code is never built; the test suite and the acceptance gate
compare d'_s with the hierarchy of the dualized code under the dual
poset.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import NamedTuple

from .bitset import digit_sums, find_all, to_elements
from .code import LinearCode
from .errors import SelfCheckError
from .poset import ChainLayout, Poset

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


def _echelon_rows(k: int, pivots: tuple[int, ...], q: int) -> list[list[tuple[int, ...]]]:
    """Per pivot p, the rows with lead p of a reduced-echelon matrix: 1 at
    p, 0 at the other pivots, and the free entries right of p running
    through all q values in odometer order."""
    out = []
    for p in pivots:
        free = [c for c in range(p + 1, k) if c not in pivots]
        rows = []
        for fill in product(range(q), repeat=len(free)):
            row = [0] * k
            row[p] = 1
            for c, v in zip(free, fill):
                row[c] = v
            rows.append(tuple(row))
        out.append(rows)
    return out


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
    minimizing subspace, pivots in lexicographic order, then _echelon_rows).  Caps:
    q**k <= 2**16 messages and at most 2**20 subspaces.  weight_hierarchy
    checks the inputs and the caps for every r once and passes the
    message supports as _supports; the checks here run only without them.

    Per pivot pattern the support unions grow one echelon row at a time,
    each kept with the first rows reaching it (dict insertion order);
    these are first in enumeration order, and so is the witness.
    """
    if _supports is None:
        _require_compatible(code, poset)
        if not 1 <= r <= code.k:
            raise ValueError(f"subcode dimension {r} outside 1..{code.k}")
        _require_bruteforce_caps(code, (r,))
        _supports = _message_supports(code)
    q, k = code.field.q, code.k
    best_weight = poset.n + 1
    best_rows: tuple[tuple[int, ...], ...] | None = None
    for pivots in combinations(range(k), r):
        unions: dict[int, tuple[tuple[int, ...], ...]] = {0: ()}
        for rows_at_p in _echelon_rows(k, pivots, q):
            choices = [(row, _supports[sum(v * q**c for c, v in enumerate(row))]) for row in rows_at_p]
            grown: dict[int, tuple[tuple[int, ...], ...]] = {}
            for union, rows in unions.items():
                for row, support in choices:
                    joined = union | support
                    if joined not in grown:
                        grown[joined] = rows + (row,)
            unions = grown
        for closure, rows in zip(poset._ideal_closures(unions), unions.values()):
            size = closure.bit_count()
            if size < best_weight:
                best_weight, best_rows = size, rows
    assert best_rows is not None
    return best_weight, tuple(code.codeword(row) for row in best_rows)


def _key_table(code: LinearCode, layout: ChainLayout, dims: bytes) -> bytes:
    """key(I) = (n - k + 1) dim C^I + rank_H(I) by index from a table of
    RankProfile.shortened_dims on the layout, 0xff off the ideals (module
    docstring).  SelfCheckError where a dim byte at an ideal names no pair:
    dim C^I > k, or rank_H(I) outside 0..n-k."""
    n, k, size = code.n, code.k, layout.size
    # No borrow and no carry: the key is (n - k) dim + |I| with dims above k
    # scaled to 0, so no byte of the sum exceeds (n - k) k + n <= 168 for
    # n <= 24, and the add never spills from one ideal into the next.
    scale = bytes((n - k) * d for d in range(k + 1)).ljust(256, b"\0")
    key = int.from_bytes(dims.translate(scale), "little") + int.from_bytes(digit_sums(layout.lengths), "little")
    if layout.flags is not None:
        # 0xff off the ideals, in the key and in the dims it must decode to
        off = int.from_bytes(layout.flags.translate(b"\xff" + bytes(255)), "little")
        key, dims = key | off, (int.from_bytes(dims, "little") | off).to_bytes(size, "little")
    key = key.to_bytes(size, "little")
    # a byte decodes back to its dim, b // step by runs of step bytes, exactly when it names a pair; 0xff to itself
    step = n - k + 1
    decoded = key.translate(b"".join(bytes([d]) * step for d in range(-(-256 // step)))[:255] + b"\xff")
    if decoded != dims:
        i = next(i for i, (got, dim) in enumerate(zip(decoded, dims)) if got != dim)
        raise SelfCheckError(
            f"shortened dimension {dims[i]} at ideal {layout.ideal(i):#x} is not a pair with "
            f"dim <= k = {k} and 0 <= |I| - dim <= n - k = {n - k}"
        )
    return key


def _witness(layout: ChainLayout, key: bytes, at: int, pick=min) -> int:
    """pick (min, or max) of the masks of the ideals whose key is key[at],
    at the first index holding it (the last, for max): that index's own
    where index order is mask order, else over every occurrence."""
    if layout.mask_ordered:
        return layout.ideal(at)
    return pick(map(layout.ideal, find_all(key, key[at])))


def _primal_minima(layout: ChainLayout, key: bytes, n: int, k: int) -> list[tuple[int, int]]:
    """(d_r, witness ideal) for r = 1..k: the smallest ideal mask holding the
    pair (r, t) for the smallest t."""
    step = n - k + 1
    out = []
    for r in range(1, k + 1):
        for t in range(step):
            i = key.find(step * r + t)
            if i >= 0:
                out.append((r + t, _witness(layout, key, i)))
                break
        else:
            raise SelfCheckError(f"no ideal has shortened dimension {r} although k={k}")
    return out


def _dual_minima(layout: ChainLayout, key: bytes, n: int, k: int) -> list[tuple[int, int]]:
    """(d'_s, witness ideal of the opposite poset) for s = 1..n-k: the
    complement of the largest ideal mask holding the pair (g, n - k - s)
    for the largest g."""
    step, full = n - k + 1, (1 << n) - 1
    out = []
    for s in range(1, n - k + 1):
        for g in range(k, -1, -1):
            i = key.rfind(step * g + n - k - s)
            if i >= 0:
                out.append((k + s - g, full ^ _witness(layout, key, i, max)))
                break
        else:
            raise SelfCheckError(f"no ideal has dual shortened dimension {s} although n-k={n - k}")
    return out


def _profile_ok(key: bytes, n: int, k: int, want) -> bool:
    """dim C^J == want(|J|) on every ideal J, skipping sizes where want gives
    None: the key table holds no byte outside the allowed pairs and 0xff."""
    allowed = bytes(
        (n - k + 1) * dim + size - dim
        for size in range(n + 1)
        for dim in range(max(0, size - n + k), min(k, size) + 1)
        if want(size) in (None, dim)
    ) + b"\xff"
    return not key.translate(None, allowed)


def min_weight_ideal_scan(code: LinearCode, poset: Poset, r: int) -> tuple[int, int]:
    """Smallest ideal carrying an r-dimensional shortened subcode.

    Returns (weight, witness ideal mask): the numerically smallest ideal
    of minimum size, read off the key table of the module docstring.
    """
    _require_compatible(code, poset)
    if not 1 <= r <= code.k:
        raise ValueError(f"subcode dimension {r} outside 1..{code.k}")
    layout = poset.chain_layout()
    return _primal_minima(layout, _key_table(code, layout, code.matroid.shortened_dims(poset)), code.n, code.k)[r - 1]


class WeightHierarchy(NamedTuple):
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
        layout = poset.chain_layout()
        minima = _primal_minima(layout, _key_table(code, layout, code.matroid.shortened_dims(poset)), code.n, code.k)
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


class DualityPartition(NamedTuple):
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
        # fields in declaration order, every tuple as a list
        return {f: list(v) if isinstance(v, tuple) else v for f, v in zip(self._fields, self)}


def duality_partition(code: LinearCode, poset: Poset) -> DualityPartition:
    """Both hierarchies from one key table, with the partition statement
    verified; see the module docstring."""
    if code.k == code.n:
        raise ValueError("duality needs a proper subspace: 1 <= k <= n - 1")
    _require_compatible(code, poset)
    n, k = code.n, code.k
    layout = poset.chain_layout()
    key = _key_table(code, layout, code.matroid.shortened_dims(poset))
    weights = tuple(d for d, _ in _primal_minima(layout, key, n, k))
    _check_window(weights, n, k)
    dual_weights = tuple(d for d, _ in _dual_minima(layout, key, n, k))
    _check_window(dual_weights, n, n - k)
    first = tuple(sorted(weights))
    second = tuple(sorted(n + 1 - d for d in dual_weights))
    if sorted(first + second) != list(range(1, n + 1)):
        raise SelfCheckError(f"duality partition fails: first={first}, second={second}, n={n}")
    return DualityPartition(n, k, weights, dual_weights, first, second)


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

"""Poset weight distributions and MDS / near-MDS classification.

For an ideal I of the poset P, let S_I be the set of words whose support
has ideal closure exactly I.  The support census maps each ideal I to
|C & S_I|, and every count in this module is read off it.  Both ways to
take it give the same shape, a dict of the nonzero counts by grid index
of poset.chain_layout() (under the antichain the index is the mask), and
_census serves support_census, distribution and distribution_report
alike; only support_census maps the indices to ideal masks.  The two
ways:

enumerate
    Count the support closures of the codewords, which the stream reads
    off the packed words a batch at a time, one bytes.translate per slot
    byte and closure byte with no Python per word
    (LinearCode.closure_tally: support_batches given the poset and
    lines=True, guarded by the cap on q**k): one word per line, its count
    taken q - 1 times, but the zero word's, the first, once.  The stream
    hands out each closure's grid index, one more translate per closure
    byte and index byte (ChainLayout.index_tables; under the antichain
    the index is the mask), and a rule on two numbers alone picks the
    tally: a Counter where the grid has more points than the
    1 + (q^k - 1)/(q - 1) lines, else a list over the grid.  Counts that
    do not sum to q**k raise SelfCheckError.  It never lists the ideals
    of P and never reads the rank table, so it is the independent oracle
    for the other method.  The enumerate report classifies off the zeta of this
    census (matroid.log_zeta), so it walks nothing and streams C once; the
    census itself still reads no rank table, and the tests check the
    report's label against classify.

moebius
    The words of C supported inside an ideal I form the shortened subcode
    C^I, so the sum over ideals J <= I of |C & S_J| is q^(dim C^I), and
    the census is the Moebius inversion of q^(dim C^I) over the ideal
    lattice J(P): the fast transform of Bjorklund, Husfeldt, Kaski,
    Koivisto, Nederlof and Parviainen ("Fast zeta transforms for lattices
    with few irreducibles", SODA 2012).  Its table is
    RankProfile.census_dims, by index on the grid of P's chain partition
    (poset.ChainLayout): the zeta fill of C-perp's stream where it
    serves, else the rank walk, never C's own stream; the moebius report
    classifies off that same table.  Inverting a zeta transform of C's
    enumerate counts would hand those counts back, and the census would
    stop being an oracle for enumeration.  ChainLayout.moebius inverts
    the q^(dim C^I), each in a field under a guard bit above q^k, by one
    packed step per element.  A dim above k at an ideal, read once for
    both, or a count that would go negative raises SelfCheckError.

The weight distribution (A_0, ..., A_n) with A_r = |{u in C : wt_P(u) = r}|
sums the census over the ideals of each size, |S_x| read off the grid
index (bitset.digit_sums); under the antichain the index is the mask
and int.bit_count its size, with no grid-sized table (the Golay code's
4 096 words on the 2**24 points of antichain:24).

A code is MDS for P when d_1 = n - k + 1, and near-MDS (NMDS) when
d_1 = n - k and d_2 = n - k + 2 (k >= 2).  One closed form gives both.
Every ideal has dim C^I >= D(|I|), D(s) = max(0, s - (n - k)), so
q^(dim C^I) = q^D(|I|) + g(I) with g >= 0.  The Moebius function of J(P)
is (-1)^|A| on the sets A of maximal elements of I; invert each part:

    A_r = sum_m N(r, m) sum_{a=0}^{m} (-1)^a C(m, a) q^D(r-a)
        + sum_{J in W} (-1)^(r-|J|) C(a_J, r-|J|) g(J)

with N(r, m) the number of ideals of size r with m maximal elements (the
coefficients of F_P(x, y) = prod_c (1 + y (x + ... + x^s_c)) under a
disjoint union of chains of lengths s_c, else read off the flags), the
window W the ideals with g(J) != 0, and
a_J the number of minimal elements of P - J: J is I less some maximal
elements of I for exactly C(a_J, r - |J|) ideals I of size r.  W is read
off RankProfile.census_dims by index, at the ideals only, by translate
and find; only its entries are mapped to masks.  It is empty for MDS
codes, whose table is never read: dim C^J = 0 below size n - k + 1, and
as d_{r+1} > d_r every d_r sits at the Singleton bound n - k + r.  For
NMDS codes d_2 = n - k + 2 leaves in W only ideals of size d = n - k
with dim C^J = 1, where g(J) = q - 1 = |C & S_J| is the correction of
Dodunekov and Landjev ("On near-MDS codes", 1995).  Under the antichain
N(r, m) is C(n, r) at m = r, a_J = n - d, and the NMDS form collapses
to binomials:

    A_r = C(n, r) sum_{a=0}^{r} (-1)^a C(r, a) q^D(r-a)
        + (-1)^(r-d) C(n-d, r-d) A_d.

Every closed form here is validated against enumeration by the test suite;
none of them is ever used as its own oracle.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress
from math import comb
from typing import NamedTuple

from .bitset import digit_sums, find_all, to_elements
from .code import MAX_ENUMERATION, LinearCode
from .errors import SelfCheckError
from .hierarchy import _dual_minima, _key_table, _primal_minima, _profile_ok, _require_compatible
from .matroid import log_zeta
from .poset import ChainLayout, Poset

MDS_LABEL = "MDS"
NMDS_LABEL = "NMDS"
OTHER_LABEL = "other"


def support_census(code: LinearCode, poset: Poset, method: str = "moebius") -> dict[int, int]:
    """Map each ideal I with C & S_I nonempty to |C & S_I|, by mask; see the module docstring."""
    census, layout = _census(code, poset, method), poset.chain_layout()
    return census if layout.size == 1 << layout.n else dict(zip(map(layout.ideal, census), census.values()))


def _census(code: LinearCode, poset: Poset, method: str) -> dict[int, int]:
    """The census by grid index of poset.chain_layout(), by the method."""
    _require_compatible(code, poset)
    if method == "enumerate":
        return code.closure_tally(poset)
    if method != "moebius":
        raise ValueError(f"unknown method {method!r}")
    return _moebius(poset, _census_table(code, poset), code.k, code.field.q)


def _census_table(code: LinearCode, poset: Poset) -> bytes:
    """RankProfile.census_dims, with SelfCheckError for a dim above k at an ideal."""
    dims, k, layout = code.matroid.census_dims(poset), code.k, poset.chain_layout()
    over = dims.translate(bytes(k + 1).ljust(256, b"\1"))
    if layout.flags is not None:
        over = (int.from_bytes(over, "little") & int.from_bytes(layout.flags, "little")).to_bytes(layout.size, "little")
    if (bad := over.find(1)) >= 0:
        raise SelfCheckError(f"Moebius census: shortened dimension {dims[bad]} > k = {k} at subset {layout.ideal(bad):#x}")
    return dims


def _moebius(poset: Poset, dims: bytes, k: int, q: int) -> dict[int, int]:
    """The census by grid index from a census table, each dim at an ideal at
    most k: ChainLayout.moebius of q^d under a guard bit above q^k."""
    wb = (q**k).bit_length() // 8 + 1
    guard = 1 << 8 * wb - 1
    return poset.chain_layout().moebius(dims, [q**d | guard for d in range(k + 1)], wb)


def distribution(code: LinearCode, poset: Poset, method: str = "enumerate") -> tuple[int, ...]:
    """Weight distribution (A_0, ..., A_n): the support census summed by ideal size."""
    return _by_size(_census(code, poset, method), poset.chain_layout())


def _by_size(census: dict[int, int], layout: ChainLayout) -> tuple[int, ...]:
    """A census by grid index summed by size, |S_x| the digit sum of x: under
    the antichain int.bit_count of the index, the mask (half the time of a
    table read even on a full census), elsewhere read off digit_sums."""
    if layout.size == 1 << layout.n:
        sizes = map(int.bit_count, census)
    else:
        sizes = map(digit_sums(layout.lengths).__getitem__, census)
    counts = [0] * (layout.n + 1)
    for size, count in zip(sizes, census.values()):
        counts[size] += count
    return tuple(counts)


class Classification(NamedTuple):
    """MDS / NMDS / other verdict for one (code, poset) pair.

    d1 (and d2 when k >= 2) decide the label.  The three optional flags
    are reported, not enforced; the first two record whether structural
    facts implied by the label hold on this instance:

      * dimension_profile_ok: shortened dimension dim C^J matches
        the closed-form step profile on every ideal J (skipping the one
        unconstrained size).
      * dual_rank_profile_ok (NMDS): dual_rank(J) = |J| below size n - k
        and = n - k above it, on ideals.
      * column_conditions_ok (NMDS): the code's Hamming NMDS test,
        d_H(C) = n - k and d_H(C-perp) = k, the first weights of the
        primal and dual scans over the antichain's key table: the table
        classify already reads under the antichain, else the antichain's
        own from RankProfile.shortened_dims.  Implied by the label under
        the antichain only.
    """

    label: str
    n: int
    k: int
    q: int
    d1: int
    d2: int | None
    d1_witness: tuple[int, ...]
    d2_witness: tuple[int, ...] | None
    dimension_profile_ok: bool | None
    dual_rank_profile_ok: bool | None
    column_conditions_ok: bool | None

    def as_dict(self) -> dict:
        # fields in declaration order, the witness tuples as lists
        return {f: list(v) if isinstance(v, tuple) else v for f, v in zip(self._fields, self)}


def _column_conditions(code: LinearCode, layout: ChainLayout, key: bytes) -> bool:
    """The Hamming NMDS test d_H(C) = n - k and d_H(C-perp) = k: the first
    weight of each scan over the antichain's key table, the one in hand
    under the antichain, else filled (and cached) by RankProfile."""
    n, k = code.n, code.k
    if layout.size != 1 << n:
        anti = Poset.antichain(n)
        layout = anti.chain_layout()
        key = _key_table(code, layout, code.matroid.shortened_dims(anti))
    return _primal_minima(layout, key, n, k)[0][0] == n - k and _dual_minima(layout, key, n, k)[0][0] == k


def classify(code: LinearCode, poset: Poset) -> Classification:
    """Decide MDS / NMDS / other from d_1 (and d_2 when it exists)."""
    _require_compatible(code, poset)
    return _classify(code, poset.chain_layout(), code.matroid.shortened_dims(poset))


def _classify(code: LinearCode, layout: ChainLayout, dims: bytes) -> Classification:
    """classify off a table of RankProfile.shortened_dims on the layout already in hand."""
    n, k, q = code.n, code.k, code.field.q
    key = _key_table(code, layout, dims)
    minima = _primal_minima(layout, key, n, k)
    d1, w1 = minima[0]
    d2, w2 = minima[1] if k >= 2 else (None, None)
    label = OTHER_LABEL
    if d1 == n - k + 1:
        label = MDS_LABEL
    elif k >= 2 and d1 == n - k and d2 == n - k + 2:
        label = NMDS_LABEL
    dimension_ok = dual_rank_ok = column_ok = None
    if label == MDS_LABEL:
        # dim climbs as max(0, |J| - d + 1): zero up to size d-1, then unit steps
        dimension_ok = _profile_ok(key, n, k, lambda size: max(0, size - d1 + 1))
    elif label == NMDS_LABEL:
        # one silent size at |J| = d where both 0 and 1 occur across ideals
        dimension_ok = _profile_ok(key, n, k, lambda size: None if size == d1 else max(0, size - d1))
        # dual_rank(J) = |J| - dim C^J is |J| below size n - k and n - k above it
        boundary = n - k
        dual_rank_ok = _profile_ok(key, n, k, lambda size: None if size == boundary else size - min(size, boundary))
        column_ok = _column_conditions(code, layout, key)
    return Classification(
        label=label,
        n=n,
        k=k,
        q=q,
        d1=d1,
        d2=d2,
        d1_witness=to_elements(w1),
        d2_witness=None if w2 is None else to_elements(w2),
        dimension_profile_ok=dimension_ok,
        dual_rank_profile_ok=dual_rank_ok,
        column_conditions_ok=column_ok,
    )


def _ideal_term(r: int, m: int, redundancy: int, q: int) -> int:
    """sum_{a=0}^{m} (-1)^a C(m, a) q^D(r - a), D(s) = max(0, s - redundancy):
    the first part of the closed form for one ideal of size r with m maximal elements."""
    return sum((-1) ** a * comb(m, a) * q ** max(0, r - a - redundancy) for a in range(m + 1))


def _closed_form_counts(code: LinearCode, poset: Poset, d1: int) -> list[int]:
    """[A_0, ..., A_n] by the closed form of the module docstring for a code of
    first weight d1 under P: the ideal terms once per (r, m) of N(r, m), then
    the window, read off the census table only when d1 <= n - k."""
    n, k, q = code.n, code.k, code.field.q
    counts = [0] * (n + 1)
    for (r, m), count in _ideal_profile(poset).items():
        counts[r] += count * _ideal_term(r, m, n - k, q)
    if d1 > n - k:
        return counts
    layout, dims = poset.chain_layout(), _census_table(code, poset)
    sizes = digit_sums(layout.lengths)
    floor = sizes.translate(bytes(max(0, s - (n - k)) for s in range(256)))
    # the window: 1 at every ideal where dim C^J differs from D(|J|)
    differs = int.from_bytes(dims, "little") ^ int.from_bytes(floor, "little")
    differs = differs.to_bytes(layout.size, "little").translate(b"\0" + b"\1" * 255)
    if layout.flags is not None:
        differs = (int.from_bytes(differs, "little") & int.from_bytes(layout.flags, "little")).to_bytes(layout.size, "little")
    window: Counter[tuple[int, int, int]] = Counter()
    for at in find_all(differs, 1):
        window[sizes[at], _minimal_outside(poset, layout.ideal(at)).bit_count(), q ** dims[at] - q ** floor[at]] += 1
    for (size, a, g), count in window.items():
        for r in range(size, size + a + 1):
            counts[r] += (-1) ** (r - size) * comb(a, r - size) * g * count
    return counts


def _ideal_profile(poset: Poset) -> Counter[tuple[int, int]]:
    """N(r, m): the number of ideals of size r with m maximal elements, the
    coefficients of F_P(x, y) = sum_I x^|I| y^m(I).  Under a disjoint union
    of chains an ideal takes a prefix of each chain, and a nonempty one adds
    one maximal element, so F_P is the product over the chains of
    1 + y (x + ... + x^s).  Elsewhere ChainLayout.maximal_counts counts them."""
    layout = poset.chain_layout()
    if (flags := layout.flags) is not None:
        tops = layout.maximal_counts()
        return Counter(zip(compress(digit_sums(layout.lengths), flags), compress(tops, flags)))
    terms = Counter({(0, 0): 1})
    for s in layout.lengths:
        grown: Counter[tuple[int, int]] = Counter()
        for (r, m), count in terms.items():
            grown[r, m] += count
            for a in range(1, s + 1):
                grown[r + a, m + 1] += count
        terms = grown
    return terms


def _minimal_outside(poset: Poset, ideal: int) -> int:
    """Mask of the minimal elements of P - ideal: those whose strict downset lies in the ideal."""
    return sum(1 << e for e, down in enumerate(poset.below) if down & ~ideal == 1 << e)


def mds_distribution(code: LinearCode, poset: Poset, classification: Classification | None = None) -> tuple[int, ...]:
    """Closed-form distribution for MDS poset codes: no window, so no census table."""
    cls_ = classification or classify(code, poset)
    if cls_.label != MDS_LABEL:
        raise ValueError(
            f"not MDS for this poset: d1={cls_.d1} at ideal {list(cls_.d1_witness)}, "
            f"needed n-k+1={code.n - code.k + 1}"
        )
    return tuple(_closed_form_counts(code, poset, cls_.d1))


def nmds_distribution(code: LinearCode, poset: Poset, classification: Classification | None = None) -> tuple[int, ...]:
    """Closed-form distribution for near-MDS poset codes: the window is the ideals
    of size n - k that hold a codeword, read off the census table."""
    cls_ = classification or classify(code, poset)
    if cls_.label != NMDS_LABEL:
        raise ValueError(
            f"not NMDS for this poset: d1={cls_.d1}, d2={cls_.d2} "
            f"at ideal {list(cls_.d1_witness)}, needed (n-k, n-k+2)="
            f"({code.n - code.k}, {code.n - code.k + 2})"
        )
    return tuple(_closed_form_counts(code, poset, cls_.d1))


def hamming_nmds_distribution(code: LinearCode) -> tuple[int, ...]:
    """Binomial closed form for NMDS codes under the antichain order.

    Needs only n, k, q, and the single count A_d at d = n - k; ideal
    sums collapse to binomial coefficients because every subset is an
    ideal equal to its own maximal-element set.
    """
    poset = Poset.antichain(code.n)
    cls_ = classify(code, poset)
    if cls_.label != NMDS_LABEL:
        raise ValueError(
            f"not NMDS under the antichain: d1={cls_.d1}, d2={cls_.d2}, "
            f"needed ({code.n - code.k}, {code.n - code.k + 2})"
        )
    n, k, q, d = code.n, code.k, code.field.q, cls_.d1
    a_d = distribution(code, poset, "enumerate" if code.codeword_count <= MAX_ENUMERATION else "moebius")[d]
    counts = [comb(n, r) * _ideal_term(r, r, n - k, q) for r in range(n + 1)]
    for r in range(d, n + 1):
        counts[r] += (-1) ** (r - d) * comb(n - d, r - d) * a_d
    return tuple(counts)


class DistributionReport(NamedTuple):
    counts: tuple[int, ...]
    method: str
    classification: Classification

    def as_dict(self) -> dict:
        return {
            "counts": list(self.counts),
            "method": self.method,
            "classification": self.classification.label,
            "d1": self.classification.d1,
            "d2": self.classification.d2,
        }


def distribution_report(code: LinearCode, poset: Poset, method: str = "enumerate") -> DistributionReport:
    """Distribution plus classification; closed-form dispatches on the label.

    enumerate and moebius take the census by grid index as distribution
    does (_census) and classify off the table their counts come from: the
    zeta of the enumerate census, and the census table itself.  Both take
    the census first, so the enumeration cap and a poisoned census table
    are refused before anything is classified.
    """
    if method != "closed-form":
        census, layout = _census(code, poset, method), poset.chain_layout()
        table = log_zeta(layout, census, code.field.q, code.k) if method == "enumerate" else code.matroid.census_dims(poset)
        return DistributionReport(_by_size(census, layout), method, _classify(code, layout, table))
    cls_ = classify(code, poset)
    if cls_.label == OTHER_LABEL:
        raise ValueError(
            f"closed-form needs an MDS or NMDS code; got d1={cls_.d1} "
            f"(witness ideal {list(cls_.d1_witness)}), d2={cls_.d2}"
        )
    return DistributionReport(tuple(_closed_form_counts(code, poset, cls_.d1)), method, cls_)

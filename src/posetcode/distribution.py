"""Poset weight distributions and MDS / near-MDS classification.

For an ideal I of the poset P, let S_I be the set of words whose support
has ideal closure exactly I.  The support census maps each ideal I to
|C & S_I|, and every count in this module is read off it.  Two ways to
take the census:

enumerate
    Stream the q**k codewords and bucket them by the closure of their
    support (guarded by the enumeration cap).  It never lists the ideals
    of P, so it is the independent oracle for the other method.

moebius
    The words of C supported inside an ideal I form the shortened subcode
    C^I, whose dimension RankProfile.shortened_dims tabulates.  So

        sum over ideals J <= I of |C & S_J| = q^(dim C^I),

    and the census is the Moebius inversion of q^(dim C^I) over the ideal
    lattice J(P).  The fast transform of Bjorklund, Husfeldt,
    Kaski, Koivisto, Nederlof and Parviainen ("Fast zeta transforms for
    lattices with few irreducibles", SODA 2012) does it in n * |J(P)|
    subtractions: for e along the reverse of a linear extension, subtract
    the entry of I - {e} from the entry of I wherever I - {e} is an ideal.

The weight distribution (A_0, ..., A_n) with A_r = |{u in C : wt_P(u) = r}|
sums the census over the ideals of each size.

A code is MDS for P when d_1 = n - k + 1, and near-MDS (NMDS) when
d_1 = n - k and d_2 = n - k + 2 (k >= 2).  Both admit closed-form
distributions driven only by the ideal census of P, the count of maximal
elements per ideal, and (for NMDS) the census at the bottom size d:

    MDS   A_r = sum_{|I| = r} sum_{s=0}^{r-d} (-1)^s C(m_I, s) (q^(r-d+1-s) - 1)
    NMDS  A_r = sum_{|I| = r} sum_{s=0}^{r-d-1} (-1)^s C(m_I, s) (q^(r-d-s) - 1)
              + (-1)^(r-d) sum_{|J| = d} C(a_J, r-d) |C & S_J|

with m_I the number of maximal elements of I and a_J the number of
minimal elements of P - J: an ideal J of size d lies between I minus its
maximal elements and I for exactly C(a_J, r-d) ideals I of size r, the
unions of J with r-d minimal elements of P - J.  When P is the antichain
a_J = n - d and the NMDS form collapses to binomials:

    A_r = C(n, r) sum_{s=0}^{r-d-1} (-1)^s C(r, s) (q^(r-d-s) - 1)
        + (-1)^(r-d) C(n-d, r-d) A_d.

Every closed form here is validated against enumeration by the test suite;
none of them is ever used as its own oracle.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import combinations
from math import comb

from .bitset import mask_from_positions, to_elements
from .code import MAX_ENUMERATION, LinearCode, support_mask
from .hierarchy import _require_compatible, _scan_minima
from .poset import Poset

MDS_LABEL = "MDS"
NMDS_LABEL = "NMDS"
OTHER_LABEL = "other"

_COLUMN_CONDITION_CAP = 1 << 16


def support_census(code: LinearCode, poset: Poset, method: str = "moebius") -> dict[int, int]:
    """Map each ideal I with C & S_I nonempty to |C & S_I|; see the module docstring."""
    _require_compatible(code, poset)
    if method == "enumerate":
        census: dict[int, int] = {}
        for w in code.codewords():
            closure = poset.ideal_closure(support_mask(w))
            census[closure] = census.get(closure, 0) + 1
        return census
    if method != "moebius":
        raise ValueError(f"unknown method {method!r}")
    q = code.field.q
    census = {ideal: q**dim for ideal, dim in code.matroid.shortened_dims(poset).items()}
    # undo the zeta transform one element at a time, last element first
    for e in reversed(poset.linear_extension()):
        bit = 1 << e
        for ideal in census:
            if ideal & bit and ideal ^ bit in census:
                census[ideal] -= census[ideal ^ bit]
    return {ideal: count for ideal, count in census.items() if count}


def distribution(code: LinearCode, poset: Poset, method: str = "enumerate") -> tuple[int, ...]:
    """Weight distribution (A_0, ..., A_n): the support census summed by ideal size."""
    counts = [0] * (poset.n + 1)
    for ideal, count in support_census(code, poset, method).items():
        counts[ideal.bit_count()] += count
    return tuple(counts)


@dataclass(frozen=True)
class Classification:
    """MDS / NMDS / other verdict for one (code, poset) pair.

    d1 (and d2 when k >= 2) decide the label.  The three optional flags
    record whether the structural facts implied by the label hold on this
    instance; they are reported, not enforced:

      * dimension_profile_ok: shortened dimension dim C^J matches
        the closed-form step profile on every ideal J (skipping the one
        unconstrained size).
      * dual_rank_profile_ok (NMDS): dual_rank(J) = |J| below size n - k
        and = n - k above it, on ideals.
      * column_conditions_ok (NMDS): the all-subsets independence pattern
        of parity columns at sizes n-k-1, n-k, n-k+1; None when the
        subset census is too large.
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
        return {
            "label": self.label,
            "n": self.n,
            "k": self.k,
            "q": self.q,
            "d1": self.d1,
            "d2": self.d2,
            "d1_witness": list(self.d1_witness),
            "d2_witness": None if self.d2_witness is None else list(self.d2_witness),
            "dimension_profile_ok": self.dimension_profile_ok,
            "dual_rank_profile_ok": self.dual_rank_profile_ok,
            "column_conditions_ok": self.column_conditions_ok,
        }


def _dimension_profile_ok(code: LinearCode, poset: Poset, want) -> bool:
    for ideal, dim in code.matroid.shortened_dims(poset).items():
        expected = want(ideal.bit_count())
        if expected is not None and dim != expected:
            return False
    return True


def _dual_rank_profile_ok(code: LinearCode, poset: Poset) -> bool:
    boundary = code.n - code.k
    for ideal, dim in code.matroid.shortened_dims(poset).items():
        size = ideal.bit_count()
        # dual_rank(J) = |J| - dim C^J
        if size != boundary and size - dim != min(size, boundary):
            return False
    return True


def _column_conditions(code: LinearCode) -> bool | None:
    n, k = code.n, code.k
    sizes = [n - k - 1, n - k, n - k + 1]
    if any(s < 0 or s > n for s in sizes):
        return None
    if sum(comb(n, s) for s in sizes) > _COLUMN_CONDITION_CAP:
        return None

    def ranks(size: int) -> Iterator[int]:
        # one elimination per subset, at any n; the caller stops at the first decisive one
        for c in combinations(range(n), size):
            yield code.parity.column_submatrix(mask_from_positions(c)).rank()

    return (
        all(r == n - k - 1 for r in ranks(n - k - 1))
        and any(r < n - k for r in ranks(n - k))
        and all(r == n - k for r in ranks(n - k + 1))
    )


def classify(code: LinearCode, poset: Poset) -> Classification:
    """Decide MDS / NMDS / other from d_1 (and d_2 when it exists)."""
    _require_compatible(code, poset)
    n, k, q = code.n, code.k, code.field.q
    minima = _scan_minima(code, poset)
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
        dimension_ok = _dimension_profile_ok(code, poset, lambda size: max(0, size - d1 + 1))
    elif label == NMDS_LABEL:
        # one silent size at |J| = d where both 0 and 1 occur across ideals
        dimension_ok = _dimension_profile_ok(
            code, poset, lambda size: None if size == d1 else max(0, size - d1)
        )
        dual_rank_ok = _dual_rank_profile_ok(code, poset)
        column_ok = _column_conditions(code)
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


def mds_distribution(code: LinearCode, poset: Poset, classification: Classification | None = None) -> tuple[int, ...]:
    """Closed-form distribution for MDS poset codes."""
    cls_ = classification or classify(code, poset)
    if cls_.label != MDS_LABEL:
        raise ValueError(
            f"not MDS for this poset: d1={cls_.d1} at ideal {list(cls_.d1_witness)}, "
            f"needed n-k+1={code.n - code.k + 1}"
        )
    n, q, d = code.n, code.field.q, cls_.d1
    counts = [0] * (n + 1)
    counts[0] = 1
    for r in range(d, n + 1):
        total = 0
        for ideal in poset.ideals(size=r):
            m = poset.maximal_elements(ideal).bit_count()
            for s in range(r - d + 1):
                term = comb(m, s) * (q ** (r - d + 1 - s) - 1)
                total += term if s % 2 == 0 else -term
        counts[r] = total
    return tuple(counts)


def nmds_distribution(code: LinearCode, poset: Poset, classification: Classification | None = None) -> tuple[int, ...]:
    """Closed-form distribution for near-MDS poset codes.

    The correction term needs the census at the bottom size d = n - k;
    it comes from the moebius census, which the test suite validates
    against enumeration independently of this formula.
    """
    cls_ = classification or classify(code, poset)
    if cls_.label != NMDS_LABEL:
        raise ValueError(
            f"not NMDS for this poset: d1={cls_.d1}, d2={cls_.d2} "
            f"at ideal {list(cls_.d1_witness)}, needed (n-k, n-k+2)="
            f"({code.n - code.k}, {code.n - code.k + 2})"
        )
    n, q, d = code.n, code.field.q, cls_.d1
    full = (1 << n) - 1
    dual = poset.dual()
    # (a_J, |C & S_J|) for the ideals J of size d; a_J counts the minimal elements of P - J
    bottom = [
        (dual.maximal_elements(full ^ j).bit_count(), count)
        for j, count in support_census(code, poset).items()
        if j.bit_count() == d
    ]
    counts = [0] * (n + 1)
    counts[0] = 1
    for r in range(d, n + 1):
        total = 0
        for ideal in poset.ideals(size=r):
            m = poset.maximal_elements(ideal).bit_count()
            for s in range(r - d):
                term = comb(m, s) * (q ** (r - d - s) - 1)
                total += term if s % 2 == 0 else -term
        correction = sum(comb(a, r - d) * count for a, count in bottom)
        counts[r] = total + ((-1) ** (r - d)) * correction
    return tuple(counts)


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
    n, q, d = code.n, code.field.q, cls_.d1
    a_d = distribution(code, poset, "enumerate" if code.codeword_count <= MAX_ENUMERATION else "moebius")[d]
    counts = [0] * (n + 1)
    counts[0] = 1
    for r in range(d, n + 1):
        head = 0
        for s in range(r - d):
            term = comb(r, s) * (q ** (r - d - s) - 1)
            head += term if s % 2 == 0 else -term
        counts[r] = comb(n, r) * head + ((-1) ** (r - d)) * comb(n - d, r - d) * a_d
    return tuple(counts)


@dataclass(frozen=True)
class DistributionReport:
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
    """Distribution plus classification; closed-form dispatches on the label."""
    cls_ = classify(code, poset)
    if method in ("enumerate", "moebius"):
        counts = distribution(code, poset, method)
    elif method == "closed-form":
        if cls_.label == MDS_LABEL:
            counts = mds_distribution(code, poset, cls_)
        elif cls_.label == NMDS_LABEL:
            counts = nmds_distribution(code, poset, cls_)
        else:
            raise ValueError(
                f"closed-form needs an MDS or NMDS code; got d1={cls_.d1} "
                f"(witness ideal {list(cls_.d1_witness)}), d2={cls_.d2}"
            )
    else:
        raise ValueError(f"unknown method {method!r}")
    return DistributionReport(counts=counts, method=method, classification=cls_)

"""Poset weight distributions and MDS / near-MDS classification.

For an ideal I of the poset P, let S_I be the set of words whose support
has ideal closure exactly I.  Two ways to count the codewords in S_I:

enumerate
    Stream the q**k codewords and bucket them by the closure of their
    support (guarded by the enumeration cap).

moebius
    Inclusion-exclusion over the interval of I, the ideals J sandwiched
    between I minus its maximal elements and I:

        |C & S_I| = sum over J of (-1)^(|I| - |J|) q^(k - rank(comp J))

    where k - rank(comp J) is the dimension of the shortened subcode on J.

The weight distribution (A_0, ..., A_n) with A_r = |{u in C : wt_P(u) = r}|
follows by summing S_I counts over the ideals of each size.

A code is MDS for P when d_1 = n - k + 1, and near-MDS (NMDS) when
d_1 = n - k and d_2 = n - k + 2 (k >= 2).  Both admit closed-form
distributions driven only by the ideal census of P, the count of maximal
elements per ideal, and (for NMDS) the S_J counts at the bottom size d:

    MDS   A_r = sum_{|I| = r} sum_{s=0}^{r-d} (-1)^s C(m_I, s) (q^(r-d+1-s) - 1)
    NMDS  A_r = sum_{|I| = r} sum_{s=0}^{r-d-1} (-1)^s C(m_I, s) (q^(r-d-s) - 1)
              + (-1)^(r-d) sum_{|I| = r} sum_{J in interval(I), |J| = d} |C & S_J|

with m_I the number of maximal elements of I.  When P is the antichain the
NMDS form collapses to binomials:

    A_r = C(n, r) sum_{s=0}^{r-d-1} (-1)^s C(r, s) (q^(r-d-s) - 1)
        + (-1)^(r-d) C(n-d, r-d) A_d.

Every closed form here is validated against enumeration by the test suite;
none of them is ever used as its own oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .bitset import bits_of, mask_from_positions, to_elements
from .code import MAX_ENUMERATION, LinearCode, support_mask
from .hierarchy import _require_compatible, min_weight_ideal_scan
from .poset import Poset

MDS_LABEL = "MDS"
NMDS_LABEL = "NMDS"
OTHER_LABEL = "other"

_COLUMN_CONDITION_CAP = 1 << 16


def alternating_binomial_sum(m: int) -> int:
    """sum_{s=0}^{m} (-1)^s C(m, s): equals 1 for m = 0 and 0 for m >= 1."""
    return sum((-1) ** s * comb(m, s) for s in range(m + 1))


def interval_sign_sum(poset: Poset, ideal: int) -> int:
    """sum over J in interval(ideal) of (-1)^(|ideal| - |J|).

    Collapses to alternating_binomial_sum over the maximal-element count,
    so it vanishes for every nonempty ideal.
    """
    size = ideal.bit_count()
    return sum((-1) ** (size - j.bit_count()) for j in poset.interval(ideal))


def _moebius_count(code: LinearCode, poset: Poset, ideal: int, cache: dict[int, int] | None = None) -> int:
    if cache is not None and ideal in cache:
        return cache[ideal]
    profile = code.matroid
    full = (1 << code.n) - 1
    q = code.field.q
    size = ideal.bit_count()
    total = 0
    for j in poset.interval(ideal):
        dim = code.k - profile.rank(full ^ j)
        term = q**dim
        total += term if (size - j.bit_count()) % 2 == 0 else -term
    if cache is not None:
        cache[ideal] = total
    return total


def exact_support_count(code: LinearCode, poset: Poset, ideal: int, method: str = "moebius") -> int:
    """Number of codewords whose support closure is exactly the given ideal."""
    _require_compatible(code, poset)
    if not poset.is_ideal(ideal):
        raise ValueError(f"subset {ideal:#x} is not an ideal")
    if method == "moebius":
        return _moebius_count(code, poset, ideal)
    if method == "enumerate":
        return sum(
            1 for w in code.codewords() if poset.ideal_closure(support_mask(w)) == ideal
        )
    raise ValueError(f"unknown method {method!r}")


def distribution(code: LinearCode, poset: Poset, method: str = "enumerate") -> tuple[int, ...]:
    """Weight distribution (A_0, ..., A_n) by enumeration or inclusion-exclusion."""
    _require_compatible(code, poset)
    counts = [0] * (poset.n + 1)
    if method == "enumerate":
        for w in code.codewords():
            counts[poset.ideal_closure(support_mask(w)).bit_count()] += 1
    elif method == "moebius":
        cache: dict[int, int] = {}
        for ideal in poset.ideals():
            counts[ideal.bit_count()] += _moebius_count(code, poset, ideal, cache)
    else:
        raise ValueError(f"unknown method {method!r}")
    return tuple(counts)


@dataclass(frozen=True)
class Classification:
    """MDS / NMDS / other verdict for one (code, poset) pair.

    d1 (and d2 when k >= 2) decide the label.  The three optional flags
    record whether the structural facts implied by the label hold on this
    instance; they are reported, not enforced:

      * dimension_profile_ok: shortened dimension k - rank(comp J) matches
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
    profile = code.matroid
    full = (1 << code.n) - 1
    for ideal in poset.ideals():
        expected = want(ideal.bit_count())
        if expected is None:
            continue
        if code.k - profile.rank(full ^ ideal) != expected:
            return False
    return True


def _dual_rank_profile_ok(code: LinearCode, poset: Poset) -> bool:
    profile = code.matroid
    boundary = code.n - code.k
    for ideal in poset.ideals():
        size = ideal.bit_count()
        if size == boundary:
            continue
        want = size if size < boundary else boundary
        if profile.dual_rank(ideal) != want:
            return False
    return True


def _column_conditions(code: LinearCode) -> bool | None:
    n, k = code.n, code.k
    sizes = [n - k - 1, n - k, n - k + 1]
    if any(s < 0 or s > n for s in sizes):
        return None
    if sum(comb(n, s) for s in sizes) > _COLUMN_CONDITION_CAP:
        return None
    profile = code.matroid

    def ranks(size: int) -> list[int]:
        return [
            profile.dual_rank(mask_from_positions(c))
            for c in combinations(range(n), size)
        ]

    small_independent = all(r == n - k - 1 for r in ranks(n - k - 1))
    some_dependent = any(r < n - k for r in ranks(n - k))
    large_full = all(r == n - k for r in ranks(n - k + 1))
    return small_independent and some_dependent and large_full


def classify(code: LinearCode, poset: Poset) -> Classification:
    """Decide MDS / NMDS / other from d_1 (and d_2 when it exists)."""
    _require_compatible(code, poset)
    n, k, q = code.n, code.k, code.field.q
    d1, w1 = min_weight_ideal_scan(code, poset, 1)
    d2 = w2 = None
    if k >= 2:
        d2, w2 = min_weight_ideal_scan(code, poset, 2)
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


def _interval_members_of_size(poset: Poset, ideal: int, size: int) -> tuple[int, ...]:
    m = poset.maximal_elements(ideal)
    base = ideal ^ m
    need = size - base.bit_count()
    if need < 0 or need > m.bit_count():
        return ()
    mbits = list(bits_of(m))
    return tuple(base | mask_from_positions(c) for c in combinations(mbits, need))


def nmds_distribution(code: LinearCode, poset: Poset, classification: Classification | None = None) -> tuple[int, ...]:
    """Closed-form distribution for near-MDS poset codes.

    The correction term needs the exact S_J counts at the bottom size
    d = n - k; those come from the moebius counter, which the test suite
    validates against enumeration independently of this formula.
    """
    cls_ = classification or classify(code, poset)
    if cls_.label != NMDS_LABEL:
        raise ValueError(
            f"not NMDS for this poset: d1={cls_.d1}, d2={cls_.d2} "
            f"at ideal {list(cls_.d1_witness)}, needed (n-k, n-k+2)="
            f"({code.n - code.k}, {code.n - code.k + 2})"
        )
    n, q, d = code.n, code.field.q, cls_.d1
    cache: dict[int, int] = {}
    counts = [0] * (n + 1)
    counts[0] = 1
    for r in range(d, n + 1):
        total = 0
        correction = 0
        for ideal in poset.ideals(size=r):
            m = poset.maximal_elements(ideal).bit_count()
            for s in range(r - d):
                term = comb(m, s) * (q ** (r - d - s) - 1)
                total += term if s % 2 == 0 else -term
            for j in _interval_members_of_size(poset, ideal, d):
                correction += _moebius_count(code, poset, j, cache)
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
    if code.codeword_count <= MAX_ENUMERATION:
        a_d = sum(1 for w in code.codewords() if support_mask(w).bit_count() == d)
    else:
        cache: dict[int, int] = {}
        a_d = sum(
            _moebius_count(code, poset, mask_from_positions(c), cache)
            for c in combinations(range(n), d)
        )
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

"""Known answers from the coding-theory literature, not from this package.

The codes below are taken under the antichain (Hamming metric); the last
test takes random codes under the chain.

* The binary [7,4] Hamming code, its dual the [7,3] simplex code, and
  the extended [8,4,4] Hamming code.  The weight hierarchies are Wei's
  (IEEE T-IT 37(5), 1991); the enumerators are the classical ones
  (MacWilliams-Sloane, ch. 1).  The Hamming code has d_1 = 3 = n - k and
  d_2 = 5 = n - k + 2, so it is near-MDS and both NMDS closed forms apply.
* The extended binary Golay code [24,12,8], the GF(4) hexacode [6,3,4]
  and the extended ternary Golay code [12,6,6], with the enumerators of
  MacWilliams-Sloane (ch. 2, 16 and 20) and Conway-Sloane (ch. 3).  The
  extended Hamming and ternary Golay codes are near-MDS as well, with
  (d_1, d_2) = (4, 6) and (6, 8), so both NMDS closed forms must give
  their enumerators.
* The first-order Reed-Muller code RM(1,4) [16,5,8] has weight hierarchy
  (8, 12, 14, 15, 16) (Wei, IEEE T-IT 37(5), 1991); its dual is RM(2,4)
  [16,11,4], whose hierarchy Wei duality then fixes as the rest of
  1..16 reflected: (4, 6, 7, 8, 10, 11, 12, 13, 14, 15, 16).
* Reed-Solomon codes, which are MDS: their distribution is the classical
  MDS formula (MacWilliams-Sloane, ch. 11, Thm. 6), written out below.

* Under the chain 1 < ... < n the ideals are the prefixes {1..j}, so
  d_r is the r-th smallest last-nonzero position of an echelon basis of
  the code reduced from the right (the one-chain case of Rosenbloom and
  Tsfasman, Probl. Inf. Transm. 33(1), 1997).  The test eliminates with
  the field's scalar operations alone.

Between them the enumerate census meets every word packing of the codeword
stream: p = 2 with one digit plane (Golay, Hamming), p = 2 with several
(hexacode, GF(8)), odd p with one (ternary Golay, GF(7)) and with
several (GF(9)).
"""

from __future__ import annotations

from math import comb
from random import Random

from posetcode import (
    LinearCode,
    Matrix,
    Poset,
    classify,
    distribution,
    duality_partition,
    gf,
    hamming_nmds_distribution,
    mds_distribution,
    nmds_distribution,
    weight_hierarchy,
)
from posetcode.distribution import MDS_LABEL, NMDS_LABEL
from posetcode.hierarchy import METHOD_BRUTEFORCE


def enumerator(n, terms):
    """Distribution (A_0, ..., A_n) from {weight: count}."""
    return tuple(terms.get(r, 0) for r in range(n + 1))


def with_parity(rows):
    """Rows extended by an overall binary parity coordinate."""
    return [tuple(row) + (sum(row) % 2,) for row in rows]


def systematic(a):
    """Rows of [I | A]."""
    k = len(a)
    return [tuple(int(i == j) for j in range(k)) + tuple(a[i]) for i in range(k)]


HAMMING_ROWS = [
    (1, 0, 0, 0, 1, 1, 0),
    (0, 1, 0, 0, 1, 0, 1),
    (0, 0, 1, 0, 0, 1, 1),
    (0, 0, 0, 1, 1, 1, 1),
]
HAMMING = LinearCode.from_generator(gf(2), HAMMING_ROWS)
SIMPLEX = HAMMING.dualize()
ANTI7 = Poset.antichain(7)


def test_hamming_and_simplex_hierarchies():
    assert (HAMMING.k, SIMPLEX.k) == (4, 3)
    assert weight_hierarchy(HAMMING, ANTI7).weights == (3, 5, 6, 7)
    assert weight_hierarchy(SIMPLEX, ANTI7).weights == (4, 6, 7)
    part = duality_partition(HAMMING, ANTI7)
    assert part.first == (3, 5, 6, 7)
    assert part.second == (1, 2, 4)


def test_hamming_distribution_every_route():
    want = (1, 0, 0, 7, 7, 0, 0, 1)  # 1 + 7z^3 + 7z^4 + z^7
    assert classify(HAMMING, ANTI7).label == NMDS_LABEL
    assert distribution(HAMMING, ANTI7, "enumerate") == want
    assert distribution(HAMMING, ANTI7, "moebius") == want
    assert nmds_distribution(HAMMING, ANTI7) == want
    assert hamming_nmds_distribution(HAMMING) == want


def test_simplex_distribution():
    want = (1, 0, 0, 0, 7, 0, 0, 0)  # 1 + 7z^4
    assert distribution(SIMPLEX, ANTI7, "enumerate") == want
    assert distribution(SIMPLEX, ANTI7, "moebius") == want


def test_extended_hamming_8_4_4():
    code = LinearCode.from_generator(gf(2), with_parity(HAMMING_ROWS))
    anti = Poset.antichain(8)
    assert weight_hierarchy(code, anti).weights == (4, 6, 7, 8)
    want = enumerator(8, {0: 1, 4: 14, 8: 1})
    assert distribution(code, anti, "enumerate") == want
    assert distribution(code, anti, "moebius") == want
    # d_1 = 4 = n - k and d_2 = 6 = n - k + 2: near-MDS
    c = classify(code, anti)
    assert (c.label, c.d1, c.d2) == (NMDS_LABEL, 4, 6)
    assert nmds_distribution(code, anti) == want
    assert hamming_nmds_distribution(code) == want


def test_extended_binary_golay_enumerator():
    # the [23,12] cyclic Golay code from g(x) = x^11 + x^10 + x^6 + x^5 + x^4 + x^2 + 1,
    # extended by a parity bit: the extended quadratic-residue code of length 24
    g = [1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1]  # coefficients of x^0 .. x^11
    rows = [(0,) * i + tuple(g) + (0,) * (11 - i) for i in range(12)]
    code = LinearCode.from_generator(gf(2), with_parity(rows))
    assert (code.n, code.k) == (24, 12)
    want = enumerator(24, {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1})
    assert distribution(code, Poset.antichain(24), "enumerate") == want


def test_hexacode_enumerator():
    # GF(4) = {0, 1, w, w^2} encoded 0, 1, 2, 3, with w^2 = w + 1
    w, w2 = 2, 3
    code = LinearCode.from_generator(gf(4), systematic([(1, w2, w), (1, w, w2), (1, 1, 1)]))
    want = enumerator(6, {0: 1, 4: 45, 6: 18})
    anti = Poset.antichain(6)
    assert distribution(code, anti, "enumerate") == want
    assert distribution(code, anti, "moebius") == want


def test_extended_ternary_golay_enumerator():
    a = [
        (0, 1, 1, 1, 1, 1),
        (1, 0, 1, 2, 2, 1),
        (1, 1, 0, 1, 2, 2),
        (1, 2, 1, 0, 1, 2),
        (1, 2, 2, 1, 0, 1),
        (1, 1, 2, 2, 1, 0),
    ]
    code = LinearCode.from_generator(gf(3), systematic(a))
    want = enumerator(12, {0: 1, 6: 264, 9: 440, 12: 24})
    anti = Poset.antichain(12)
    assert distribution(code, anti, "enumerate") == want
    assert distribution(code, anti, "moebius") == want
    # d_1 = 6 = n - k and d_2 = 8 = n - k + 2: near-MDS
    c = classify(code, anti)
    assert (c.label, c.d1, c.d2) == (NMDS_LABEL, 6, 8)
    assert nmds_distribution(code, anti) == want
    assert hamming_nmds_distribution(code) == want


def reed_muller(order):
    """Generator of RM(order, 4): the monomials of degree <= order in x1..x4,
    evaluated at the 16 points of GF(2)^4 (point p has x_i = bit i of p)."""
    monomials = [()] + [(i,) for i in range(4)] + [(i, j) for i in range(4) for j in range(i + 1, 4)]
    return [tuple(int(all(p >> i & 1 for i in m)) for p in range(16)) for m in monomials if len(m) <= order]


def test_reed_muller_hierarchies():
    rm1, rm2 = (LinearCode.from_generator(gf(2), reed_muller(r)) for r in (1, 2))
    anti = Poset.antichain(16)
    assert (rm1.k, rm2.k) == (5, 11)
    # orthogonal, with 5 + 11 = 16: RM(2,4) is the dual of RM(1,4)
    assert all(sum(a * b for a, b in zip(u, v)) % 2 == 0 for u in rm1.generator.rows for v in rm2.generator.rows)
    want = (8, 12, 14, 15, 16)
    assert weight_hierarchy(rm1, anti).weights == want
    assert weight_hierarchy(rm1, anti, METHOD_BRUTEFORCE).weights == want
    dual_want = (4, 6, 7, 8, 10, 11, 12, 13, 14, 15, 16)
    assert duality_partition(rm1, anti).dual_weights == dual_want
    assert weight_hierarchy(rm2, anti).weights == dual_want


def reed_solomon(q, n, k):
    """Evaluations of the polynomials of degree < k at n distinct field elements."""
    field = gf(q)
    points = range(q - n, q)
    return LinearCode.from_generator(field, [[field.pow(x, i) for x in points] for i in range(k)])


def classical_mds(n, k, q):
    """A_w = C(n, w) sum_{j=0}^{w-d} (-1)^j C(w, j) (q^(w-d+1-j) - 1), d = n - k + 1."""
    d = n - k + 1
    counts = [1] + [0] * n
    for w in range(d, n + 1):
        counts[w] = comb(n, w) * sum((-1) ** j * comb(w, j) * (q ** (w - d + 1 - j) - 1) for j in range(w - d + 1))
    return tuple(counts)


def test_reed_solomon_distributions():
    for q, n, k in [(5, 5, 3), (7, 6, 3), (7, 7, 4), (8, 8, 4), (9, 9, 4), (9, 8, 2)]:
        code = reed_solomon(q, n, k)
        anti = Poset.antichain(n)
        assert classify(code, anti).label == MDS_LABEL
        assert weight_hierarchy(code, anti).weights == tuple(range(n - k + 1, n + 1))
        want = classical_mds(n, k, q)
        assert sum(want) == q**k
        assert distribution(code, anti, "enumerate") == want
        assert mds_distribution(code, anti) == want


def last_nonzero_positions(field, rows):
    """1-based last-nonzero positions of an echelon basis of the row space,
    reduced from the right: one distinct position per independent row."""
    basis = {}
    for row in rows:
        v = list(row)
        while any(v):
            last = max(i for i, x in enumerate(v) if x)
            if last not in basis:
                basis[last] = v
                break
            b = basis[last]
            c = field.mul(v[last], field.inv(b[last]))
            v = [field.sub(x, field.mul(c, y)) for x, y in zip(v, b)]
    return sorted(p + 1 for p in basis)


def test_chain_hierarchy_from_echelon_positions():
    rng = Random(71)
    for trial in range(60):
        q = (2, 3, 4, 5)[trial % 4]
        field = gf(q)
        n = rng.randint(2, 12)
        k = rng.randint(1, n - 1)
        while True:
            rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
            if Matrix(field, rows).rank() == k:
                break
        code = LinearCode.from_generator(field, rows)
        chain = Poset.chain(n)
        assert list(weight_hierarchy(code, chain).weights) == last_nonzero_positions(field, rows)
        # under the reversed chain the ideals are suffixes: reverse the coordinates
        dual = code.dualize()
        reversed_rows = [row[::-1] for row in dual.generator.rows]
        dual_weights = last_nonzero_positions(field, reversed_rows)
        assert weight_hierarchy(dual, chain.dual()).weights == tuple(dual_weights)
        partition = duality_partition(code, chain)
        assert list(partition.dual_weights) == dual_weights
        assert list(partition.second) == sorted(n + 1 - d for d in dual_weights)

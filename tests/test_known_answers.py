"""Known answers from the coding-theory literature, not from this package.

The binary [7,4] Hamming code and its dual, the [7,3] simplex code, under
the antichain (Hamming metric).  The weight hierarchies are Wei's (IEEE
T-IT 37(5), 1991); the enumerators are the classical ones
(MacWilliams-Sloane, ch. 1).  The Hamming code has d_1 = 3 = n - k and
d_2 = 5 = n - k + 2, so it is near-MDS and both NMDS closed forms apply.
"""

from __future__ import annotations

from posetcode import (
    LinearCode,
    Poset,
    classify,
    distribution,
    duality_partition,
    gf,
    hamming_nmds_distribution,
    nmds_distribution,
    weight_hierarchy,
)
from posetcode.distribution import NMDS_LABEL

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

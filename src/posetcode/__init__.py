"""Weight hierarchies, duality, and weight distributions of linear codes
under poset metrics, with exact GF(q) arithmetic for prime powers q <= 256.

Quick start:

    >>> from posetcode import gf, LinearCode, Poset, weight_hierarchy
    >>> code = LinearCode.from_generator(gf(2), [(1, 1, 0, 0), (0, 0, 1, 1)])
    >>> weight_hierarchy(code, Poset.antichain(4)).weights
    (2, 4)

Every fast path (ideal scan, Moebius census, closed forms) has a
brute-force counterpart in the same API, and run_selftest cross-validates
them on randomized instances.
"""

from .bitset import from_elements, to_elements
from .code import (
    LinearCode,
    format_code,
    load_code,
    parse_code,
    poset_weight,
    support_mask,
)
from .distribution import (
    Classification,
    DistributionReport,
    classify,
    distribution,
    distribution_report,
    hamming_nmds_distribution,
    mds_distribution,
    nmds_distribution,
    support_census,
)
from .errors import SelfCheckError
from .field import GF, gf, make_field
from .hierarchy import (
    DualityPartition,
    WeightHierarchy,
    duality_partition,
    gaussian_binomial,
    min_weight_bruteforce,
    min_weight_ideal_scan,
    weight_hierarchy,
)
from .matrix import Matrix, matrix_times_col, row_times_matrix
from .matroid import (
    AxiomReport,
    IdentityReport,
    RankProfile,
    check_complement_rank_identity,
    check_rank_axioms,
)
from .poset import Poset, format_poset, load_poset, parse_poset
from .selftest import SelfTestReport, random_instance, run_selftest

__version__ = "0.1.0"

__all__ = [
    "GF",
    "gf",
    "make_field",
    "Matrix",
    "matrix_times_col",
    "row_times_matrix",
    "Poset",
    "parse_poset",
    "format_poset",
    "load_poset",
    "LinearCode",
    "parse_code",
    "format_code",
    "load_code",
    "support_mask",
    "poset_weight",
    "RankProfile",
    "AxiomReport",
    "IdentityReport",
    "check_rank_axioms",
    "check_complement_rank_identity",
    "WeightHierarchy",
    "DualityPartition",
    "weight_hierarchy",
    "duality_partition",
    "min_weight_bruteforce",
    "min_weight_ideal_scan",
    "gaussian_binomial",
    "Classification",
    "DistributionReport",
    "classify",
    "distribution",
    "distribution_report",
    "support_census",
    "mds_distribution",
    "nmds_distribution",
    "hamming_nmds_distribution",
    "SelfTestReport",
    "run_selftest",
    "random_instance",
    "SelfCheckError",
    "from_elements",
    "to_elements",
]

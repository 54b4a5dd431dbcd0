"""Weak Schur partitions: construction, verification, and exact search.

A weak Schur partition splits {1..n} into s subsets none of which contains
three distinct members a, b, c with a + b = c.  This package builds
arbitrarily long chains of such partitions by a tripling step (orders
follow m' = 3m - 1 from a built-in order-21 base), verifies any claimed
partition independently, and settles small cases exactly by exhaustive
search.
"""

from .construct import (
    LITERATURE_ORDERS,
    BoundSequence,
    SeedConditionError,
    base_partition,
    bound,
    bound_table,
    construct_step,
    iterate,
    validate_seed,
)
from .intset import IntSet
from .partition import (
    ConstructionTrace,
    InvalidPartitionError,
    Partition,
    Violation,
    ViolationReport,
    WspFormatError,
    parse_partition,
    serialize_partition,
    serialize_partitions,
    well_formed_violations,
)
from .search import (
    DEFAULT_BUDGET,
    SearchBudgetExceeded,
    SearchResult,
    compute_ws,
    decide,
    find_seeds,
)
from .verifier import (
    ConditionSet,
    condition2_violations,
    condition3_violations,
    strong_violations,
    verify,
    weak_violations,
    weak_violations_naive,
)

__version__ = "1.0.0"

__all__ = [
    "BoundSequence",
    "ConditionSet",
    "ConstructionTrace",
    "DEFAULT_BUDGET",
    "IntSet",
    "InvalidPartitionError",
    "LITERATURE_ORDERS",
    "Partition",
    "SearchBudgetExceeded",
    "SearchResult",
    "SeedConditionError",
    "Violation",
    "ViolationReport",
    "WspFormatError",
    "base_partition",
    "bound",
    "bound_table",
    "compute_ws",
    "condition2_violations",
    "condition3_violations",
    "construct_step",
    "decide",
    "find_seeds",
    "iterate",
    "parse_partition",
    "serialize_partition",
    "serialize_partitions",
    "strong_violations",
    "validate_seed",
    "verify",
    "weak_violations",
    "weak_violations_naive",
    "well_formed_violations",
]

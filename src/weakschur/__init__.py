"""Weak Schur partitions: construction, verification, and exact search.

A weak Schur partition splits {1..n} into s subsets none of which contains
three distinct members a, b, c with a + b = c.  This package builds
arbitrarily long chains of such partitions by a tripling step (orders
follow m' = 3m - 1 from a built-in order-21 base), verifies any claimed
partition independently, and settles small cases exactly by exhaustive
search.

The names in ``__all__`` load on first use: importing the package loads
none of its submodules, and ``weakschur.verify`` (say) imports
``weakschur.verifier`` when it is first read.  So a command that only
verifies never loads the construction or the search.
"""

__version__ = "1.0.0"

#: the ``wsp N`` header that ``serialize_partition`` writes and
#: ``parse_partition`` requires; defined here so that ``weakschur
#: --version`` can name it without loading the partition module
WSP_FORMAT_VERSION = 1

#: node budget applied when the caller does not choose one; defined here so
#: that the CLI's help can name it without loading the search
DEFAULT_BUDGET = 100_000_000

#: each lazily loaded export -> the submodule that defines it
_EXPORTS = {
    "BoundSequence": "construct",
    "LITERATURE_ORDERS": "construct",
    "SeedConditionError": "construct",
    "base_partition": "construct",
    "bound": "construct",
    "bound_table": "construct",
    "construct_step": "construct",
    "iterate": "construct",
    "validate_seed": "construct",
    "IntSet": "intset",
    "ConstructionTrace": "partition",
    "InvalidPartitionError": "partition",
    "Partition": "partition",
    "Violation": "partition",
    "ViolationReport": "partition",
    "WspFormatError": "partition",
    "parse_partition": "partition",
    "serialize_partition": "partition",
    "serialize_partitions": "partition",
    "well_formed_violations": "partition",
    "SearchBudgetExceeded": "search",
    "SearchResult": "search",
    "compute_ws": "search",
    "decide": "search",
    "find_seeds": "search",
    "ConditionSet": "verifier",
    "condition2_violations": "verifier",
    "condition3_violations": "verifier",
    "strong_violations": "verifier",
    "verify": "verifier",
    "weak_violations": "verifier",
    "weak_violations_naive": "verifier",
}


def __getattr__(name):
    """Import the submodule that defines an export on its first use, and
    keep the name here so later reads do not come back.  Any other name,
    a submodule's included, raises AttributeError, so that ``from weakschur
    import search`` imports the submodule."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _EXPORTS.keys())


#: the export table's names and the one export defined here
__all__ = sorted([*_EXPORTS, "DEFAULT_BUDGET"])

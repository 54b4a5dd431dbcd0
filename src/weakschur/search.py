"""Exhaustive backtracking over colourings of 1..n.

This is the library's independent oracle: agreement between a search
witness and the verifier, or between an exact value here and a bound
there, is evidence rather than tautology.  It shares one thing with the
construction, for seeds only: the seed prune reads the construction's
seed-rule table (``_seed_rules``, ``MIN_ORDER`` and ``GAP``), and
``find_seeds`` returns the pruned walk's leaves without checking them
again.  A test compares ``find_seeds`` with the walk without the seed
rules, filtered by ``validate_seed``, so a prune that drops a clean seed
or keeps a dirty one shows there.  Values are coloured in the fixed order
1, 2, ..., n; colour symmetry is broken by first use, and every result is
deterministic, including node counts.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable, Optional

from .construct import GAP, MIN_ORDER, _seed_rules
from .intset import IntSet
from .partition import Partition
from .verifier import ConditionSet

#: node budget applied when the caller does not choose one
DEFAULT_BUDGET = 100_000_000


class SearchBudgetExceeded(RuntimeError):
    """The node budget ran out before the question was settled."""

    def __init__(self, nodes_visited: int):
        self.nodes_visited = nodes_visited
        super().__init__(f"search budget exhausted after {nodes_visited} nodes")


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a weak-Schur-number scan.

    mode is "exact" when infeasibility at best_n + 1 was proven by
    exhausting the tree, "capped" when the order cap or node budget ended
    the scan first.  Values here come from search, never from the bound
    formula; consumers should label them accordingly.
    """

    s: int
    mode: str
    best_n: int
    witness: Optional[Partition]
    exhausted: bool
    nodes_visited: int

    def as_json(self) -> dict:
        return {
            "s": self.s,
            "mode": self.mode,
            "best_n": self.best_n,
            "exhausted": self.exhausted,
            "nodes_visited": self.nodes_visited,
            "source": "search",
        }


def _search(
    s: int,
    n: int,
    *,
    no_double: bool = False,
    special_first: bool = False,
    seed_filters: bool = False,
    budget: Optional[int] = None,
    emit: Callable[[list[int]], bool],
) -> tuple[bool, int]:
    """Core backtracker over colourings of 1..n (n >= 1) with s colours.

    Per colour, ``members`` is the bitmask of placed values and ``sums`` the
    bitmask of values that would close a weak triple there (bit v set means
    some a < b in the colour have a + b = v), so feasibility of a colour is
    one AND with ``bit = 1 << v`` and placement is one shifted OR.

    The depth-first walk is one loop over an explicit stack, not recursion,
    so its depth is bounded by memory rather than the interpreter's
    recursion limit.  Level v keeps, in per-level arrays, the colour placed
    there (``colour_of``), the highest colour open before it (``hi_at``) and
    the ``members``/``sums`` masks of that colour before the placement; on
    backtracking they are restored and the scan resumes at the next colour.
    A child that is a leaf (v = n) or provably dead (``special_first`` with
    fewer values left than empty colours) is judged where it is placed and
    undone at once, without entering a level.

    First-use symmetry breaking: value v may reuse any open colour or open
    the next one.  With ``special_first`` colour 1 is exempt from that
    ordering (it is pre-opened); it then also enforces the seed-extension
    rules (no pair in colour 1 may sum to n + 2 and n itself stays out),
    and every colour, colour 1 included, must end up non-empty.
    ``seed_filters`` additionally prunes colour 1 by the construction's
    seed-rule table: no value of a ``_seed_rules(n)`` row, and no pair at
    distance ``GAP`` whose larger member is above 4.  ``emit`` sees each
    complete assignment as its colour masks (a list of s masks, colour c's
    at index c - 1, bit v set when value v has colour c; a colour left
    unused is 0) and returns True to stop the search.

    Returns (stopped_early, nodes); a node is one value placement, counted
    in the same order as colours are tried.  Before each placement the
    count is compared with the budget, and SearchBudgetExceeded is raised
    when ``nodes >= budget``: a budget of b allows exactly b placements, and
    a zero or negative budget allows none.
    """
    if special_first and n < s:
        return False, 0  # the root is already dead: s colours need s values
    members = [0] * (s + 1)
    sums = [0] * (s + 1)
    colour_of = [0] * (n + 1)
    hi_at = [0] * (n + 1)
    saved_members = [0] * (n + 1)
    saved_sums = [0] * (n + 1)
    limit = sys.maxsize if budget is None else budget
    nodes = 0
    target = n + 2  # forbidden pair-sum inside the designated first subset
    banned_first = frozenset()
    if seed_filters:
        banned_first = frozenset(value for value, _, _ in _seed_rules(n))

    v, c = 1, 1
    hi = 1 if special_first else 0
    while True:
        # scan level v from colour c; hi and the masks are as on entry to v
        bit = 1 << v
        top = hi + 1 if hi < s else s
        half = 1 << (v >> 1) if no_double and not v & 1 and v > 9 else 0
        while c <= top:
            sc = sums[c]
            if sc & bit:
                c += 1
                continue
            mc = members[c]
            if (half and mc & half) or (
                special_first
                and c == 1
                and (
                    v == n
                    or (mc >> (target - v)) & 1
                    or v in banned_first
                    or (seed_filters and v > 4 and (mc >> (v - GAP)) & 1)
                )
            ):
                c += 1
                continue
            if nodes >= limit:
                raise SearchBudgetExceeded(nodes)
            nodes += 1
            members[c] = mc | bit
            sums[c] = sc | (mc << v)
            colour_of[v] = c
            child_hi = c if c > hi else hi
            if v == n:
                if not (
                    special_first and (child_hi < s or not members[1])
                ) and emit(members[1:]):
                    return True, nodes
            elif not (
                special_first and n - v < (s - child_hi) + (not members[1])
            ):
                break
            members[c] = mc
            sums[c] = sc
            c += 1
        else:
            # every colour at v tried: undo the placement at v - 1
            v -= 1
            if not v:
                return False, nodes
            c = colour_of[v]
            members[c] = saved_members[v]
            sums[c] = saved_sums[v]
            hi = hi_at[v]
            c += 1
            continue
        saved_members[v] = mc
        saved_sums[v] = sc
        hi_at[v] = hi
        hi = child_hi
        v += 1
        c = 1


def _partition_from(
    colour_masks: list[int], s: int, n: int, sets: Optional[dict[int, IntSet]] = None
) -> Partition:
    """Turn the colour masks of a leaf into a Partition with exactly s
    non-empty subsets, peeling single elements off large subsets when the
    search used fewer colours.  Removal never breaks weak sum-freeness, so
    padding is always sound; the donor is the subset holding the largest
    movable element, which keeps the result deterministic.  A mask that
    sets (mask -> IntSet) already holds reuses its IntSet; a new one is
    added to it."""
    masks = list(colour_masks)
    for i in range(s):
        if not masks[i]:
            # disjoint masks compare like their largest elements
            donor = max(m for m in masks if m & (m - 1))
            top = 1 << (donor.bit_length() - 1)
            masks[masks.index(donor)] ^= top
            masks[i] = top
    if sets is None:
        sets = {}
    subsets = []
    for m in masks:
        sub = sets.get(m)
        if sub is None:
            sub = sets[m] = IntSet.from_mask(m)
        subsets.append(sub)
    return Partition(tuple(subsets), n)


def decide(
    s: int,
    n: int,
    constraints: Optional[ConditionSet] = None,
    *,
    budget: int = DEFAULT_BUDGET,
) -> Optional[Partition]:
    """Find a partition of 1..n into exactly s non-empty weakly sum-free
    subsets meeting the requested extra conditions, or prove there is none.

    Returns a witness Partition or None for proven infeasibility; raises
    SearchBudgetExceeded when the node budget runs out first, which is a
    different statement entirely.  Deterministic for fixed arguments.
    """
    witness, _ = _decide(s, n, constraints, budget=budget)
    return witness


def _decide(
    s: int,
    n: int,
    constraints: Optional[ConditionSet] = None,
    *,
    budget: int = DEFAULT_BUDGET,
) -> tuple[Optional[Partition], int]:
    if s < 1 or n < 1:
        raise ValueError("s and n must be >= 1")
    if n < s:
        return None, 0  # s non-empty subsets need at least s integers
    constraints = constraints if constraints is not None else ConditionSet.condition1()
    found: list[list[int]] = []

    def emit(masks: list[int]) -> bool:
        found.append(masks)
        return True

    _, nodes = _search(
        s,
        n,
        no_double=constraints.no_double,
        special_first=constraints.seed_extension,
        budget=budget,
        emit=emit,
    )
    if not found:
        return None, nodes
    witness = _partition_from(found[0], s, n)
    witness.validate()
    return witness, nodes


def compute_ws(s: int, cap: int, *, budget: int = DEFAULT_BUDGET) -> SearchResult:
    """Scan n upward to the largest order admitting a weak Schur partition
    into s subsets.

    Exact when infeasibility at best_n + 1 was proven inside the budget;
    capped when the order cap or the budget cut the scan short.  Budget
    exhaustion is encoded in the result, never raised.  The scan starts at
    order s, so a cap below s, which would scan nothing, is a ValueError.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    if cap < s:
        raise ValueError(f"cap {cap} is below s={s}: the scan starts at order s")
    best_n = 0
    witness: Optional[Partition] = None
    nodes_total = 0
    mode = "capped"
    exhausted = False
    for n in range(s, cap + 1):
        try:
            w, nodes = _decide(s, n, budget=budget - nodes_total)
        except SearchBudgetExceeded as e:
            nodes_total += e.nodes_visited
            break
        nodes_total += nodes
        if w is None:
            mode = "exact"
            exhausted = True
            break
        best_n, witness = n, w
    return SearchResult(
        s=s,
        mode=mode,
        best_n=best_n,
        witness=witness,
        exhausted=exhausted,
        nodes_visited=nodes_total,
    )


def find_seeds(
    s: int, n: int, limit: int, *, budget: int = DEFAULT_BUDGET
) -> list[Partition]:
    """Enumerate up to ``limit`` partitions of 1..n that can start the
    iteration indefinitely: validate_seed reports nothing for them.

    Subset 1 is the designated seed-extension subset and may be any class
    (it is exempt from first-use ordering); subsets 2..s appear in first-use
    order, so each labelled seed shows up exactly once.

    The walk's prune is the seed policy, so its leaves are returned as
    they are, each through Partition.validate() alone.  Every rule
    validate_seed checks is a prune of the walk:

    * condition 1: a value is placed only where ``sums`` has no bit for it;
    * condition 2: ``no_double`` keeps an even v > 9 out of the colour
      holding v/2;
    * condition 3: n stays out of colour 1, and so does any v whose
      partner n+2-v is already there;
    * the ``_seed_rules(n)`` rows: ``seed_filters`` bans their values from
      colour 1, and any v > 4 whose v - GAP is already there;
    * well-formedness: each value is placed once, and a leaf must use
      every colour;
    * orders up to MIN_ORDER cannot pass validate_seed cleanly and yield
      no results.
    """
    if s < 1 or n < 1:
        raise ValueError("s and n must be >= 1")
    if limit <= 0 or n < s or n <= MIN_ORDER:
        return []
    seeds: list[Partition] = []
    # one walk's leaves share most subsets: each distinct mask is one IntSet
    sets: dict[int, IntSet] = {}

    def emit(masks: list[int]) -> bool:
        p = _partition_from(masks, s, n, sets)
        p.validate()
        seeds.append(p)
        return len(seeds) >= limit

    _search(
        s,
        n,
        no_double=True,
        special_first=True,
        seed_filters=True,
        budget=budget,
        emit=emit,
    )
    return seeds

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

Every prune besides weak sums is a ban stated once, in ``_walk_rules``:
condition 2's doubles, condition 3's partners and the seed rules.  The
walk's state is colour-parallel: one int holds every colour's members and
one every ban, and a level's free colours are a few bits of one int (see
``_search``).  States wider than ``PACKED_MAX_BITS`` take a walk with one
members and one bans mask per colour, which keeps memory bounded.  Both
walks read the same table and visit the same nodes in the same order.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable, Optional

from . import DEFAULT_BUDGET
from .construct import GAP, MIN_ORDER, _seed_rules
from .intset import IntSet
from .partition import Partition
from .verifier import ConditionSet


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
    nodes_visited: int

    @property
    def exhausted(self) -> bool:
        """Whether the scan exhausted the tree at best_n + 1: mode is "exact"."""
        return self.mode == "exact"

    def as_json(self) -> dict:
        return {
            "s": self.s,
            "mode": self.mode,
            "best_n": self.best_n,
            "exhausted": self.exhausted,
            "nodes_visited": self.nodes_visited,
            "source": "search",
        }


#: widest colour-parallel walk state, in bits (s * (n + 1)); its stack
#: holds about s*n*n bits, so wider states take the per-colour walk
PACKED_MAX_BITS = 1 << 12


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

    First-use symmetry breaking: value v may reuse any open colour or open
    the next one.  With ``special_first`` colour 1 is exempt from that
    ordering (it is pre-opened), and every colour, colour 1 included, must
    end up non-empty.  A value is placed only in a colour that holds no
    ban on it: a weak sum of two of the colour's members, or a ban of the
    walk's rules.  The rules live in one table, ``_walk_rules``, built
    here once and read by either walk: ``no_double`` keeps 2a out of a
    colour holding a, for a >= 5; ``special_first`` keeps n, and any
    partner n + 2 - v of a member, out of colour 1; and ``seed_filters``
    adds the construction's seed-rule table: the ``_seed_rules(n)`` values
    and v + GAP above 4 stay out of colour 1 once v is there.  ``emit``
    sees each complete assignment as its colour masks (a list of s masks,
    colour c's at index c - 1, bit v set when value v has colour c; a
    colour left unused is 0) and returns True to stop the search.

    The depth-first walk is one loop over an explicit stack, not recursion,
    so its depth is bounded by memory rather than the interpreter's
    recursion limit.  Its state is colour-parallel (``_search_packed``):
    ``M`` has bit w*s + k set when value w has colour k + 1, and ``S``,
    kept relative to the current level v, has bit (w - v)*s + k set when
    colour k + 1 may not take w.  The free colours at v are the low s bits
    of ``~S`` within the open ones, tried lowest first (colour 1, 2, ...),
    and placing v in colour k + 1 ORs the colour's members, shifted by v,
    and the table's bans for that placement into ``S`` and shifts it down
    one level; colour 1's fixed bans are preloaded.  A child that is a
    leaf (v = n), has no free colour or cannot be completed is counted but
    not entered.  Each level saves its ``M`` and ``S``, about s*v bits
    each, so a state wider than ``PACKED_MAX_BITS`` takes
    ``_search_per_colour`` instead, which keeps one mask pair per colour
    and saves one colour's pair a level.  Both walks visit the same nodes
    and emit the same leaves in the same order.

    Returns (stopped_early, nodes); a node is one value placement, counted
    in the same order as colours are tried.  Before each placement the
    count is compared with the budget, and SearchBudgetExceeded is raised
    when ``nodes >= budget``: a budget of b allows exactly b placements, and
    a zero or negative budget allows none.
    """
    if special_first and n < s:
        return False, 0  # the root is already dead: s colours need s values
    walk = _search_packed if s * (n + 1) <= PACKED_MAX_BITS else _search_per_colour
    limit = sys.maxsize if budget is None else budget
    table, banned = _walk_rules(n, no_double, special_first, seed_filters)
    return walk(s, n, special_first, table, banned, limit, emit)


def _walk_rules(n, no_double, special_first, seed_filters):
    """Every ban the walk makes besides weak sums, as (table, banned): the
    one place its prunes live, read by both walks.  A rule of ``table``,
    (only1, lo, last, mul, off), says that placing v in a colour, for
    lo <= v <= last, bans mul*v + off (always above v) from that colour,
    from colour 1 alone when ``only1`` is set; ``banned`` holds the values
    in 1..n that colour 1 may never take.  Each rule is five ints whatever
    n is:

    * condition 2 (``no_double``): 2v in v's colour, for v >= 5;
    * condition 3 (``special_first``): n + 2 - v in colour 1, and n;
    * the seed-rule table (``seed_filters``): v + GAP in colour 1 when it
      is above 4, and the ``_seed_rules(n)`` values.
    """
    table = []
    if no_double:
        table.append((False, 5, n // 2, 2, 0))
    banned = set()
    if special_first:
        table.append((True, 2, (n + 1) // 2, -1, n + 2))
        banned.add(n)
        if seed_filters:
            table.append((True, max(1, 5 - GAP), n - GAP, 1, GAP))
            banned.update(w for w, _, _ in _seed_rules(n) if 1 <= w <= n)
    return table, banned


def _search_packed(s, n, special_first, table, banned, limit, emit):
    """_search's walk with all s colours interleaved in two ints, ``M``
    and ``S`` (see ``_search``).  ``lanes`` maps colour k + 1's bit to the
    bits w*s + k for every w, so placing v there is
    ``S' = (S | adds & lanes[b]) >> s`` with ``adds = M | rules[v]``:
    ``rules[v]`` holds the bans ``table`` makes for a placement of v, in
    every colour's lane or in colour 1's, at their offsets from v, and
    ``S`` starts with colour 1's ``banned`` values.  Each level saves one
    (M, S, hi, free, adds) tuple.
    """
    width = s * (n + 1)
    lane0 = ((1 << width) - 1) // ((1 << s) - 1)  # bit w*s for w = 0..n
    # no comprehension here reads a local: one that did would turn it into a
    # closure cell, slower to read in the loop below
    lanes = {}
    for k in range(s):
        lanes[1 << k] = lane0 << k
    allowed = [(1 << k) - 1 for k in range(1, s + 1)]
    allowed.append(allowed[-1])  # allowed[hi]: colours 1..min(hi + 1, s)
    rules = [0] * (n + 2)
    for only1, lo, last, mul, off in table:
        for v in range(lo, last + 1):
            rules[v] |= (1 if only1 else allowed[s]) << (mul * v + off - v) * s
    S = 0
    for w in banned:
        S |= 1 << (w - 1) * s  # w in colour 1, relative to value 1
    fmt = f"0{width}b"
    stack = []
    push = stack.append
    pop = stack.pop
    nodes = 0
    v = 1
    vs = s  # v * s
    M = 0
    hi = 1 if special_first else 0
    a = allowed[hi]
    free = a ^ a & S
    adds = rules[1]
    while True:
        while free:
            b = free & -free
            free ^= b
            if nodes >= limit:
                raise SearchBudgetExceeded(nodes)
            nodes += 1
            child_hi = hi + 1 if b >> hi else hi
            if v == n:
                Mc = M | b << vs
                if special_first and (child_hi < s or not Mc & lane0):
                    continue  # a colour, maybe colour 1, is left empty
                if emit(_colour_masks(format(Mc, fmt), s)):
                    return True, nodes
                continue
            Sc = (S | adds & lanes[b]) >> s
            a = allowed[child_hi]
            child_free = a ^ a & Sc  # a & ~Sc, without a full-width ~Sc
            if not child_free:
                continue
            Mc = M | b << vs
            if special_first:
                # values still to place, less the colours 2..s still empty
                short = n - v - s + child_hi
                if short < 0 or not short and not Mc & lane0:
                    continue
            push((M, S, hi, free, adds))
            M, S, hi, free = Mc, Sc, child_hi, child_free
            v += 1
            vs += s
            adds = M | rules[v]
        # every colour at v tried: undo the placement at v - 1
        if not stack:
            return False, nodes
        M, S, hi, free, adds = pop()
        v -= 1
        vs -= s


def _colour_masks(bits: str, s: int) -> list[int]:
    """The s colour masks of a leaf, from its ``M`` as one binary string:
    colour k + 1 has every s-th digit, starting s - 1 - k from the left."""
    return [int(bits[i::s], 2) for i in range(s - 1, -1, -1)]


def _search_per_colour(s, n, special_first, table, banned, limit, emit):
    """_search's walk with one ``members`` and one ``bans`` mask per colour:
    ``bans[c]`` has bit w set when colour c may not take w, a weak sum
    a + b of members a < b or a ban of the walk's rules.  A placement adds
    its weak sums only when the walk goes on to the next value: a leaf or
    a child that cannot be completed never reads them.  The rules' bans on
    a value are added when the walk enters its level, read back from the
    values that make them: a rule's ban on w comes from (w - off) / mul,
    whose colour is in ``colour_of`` (a colour-1 rule is skipped when
    colour 1 already may not take w), and a value of ``banned`` bans
    colour 1.  So a mask holds no ban far above its level, however far
    ahead a rule bans (n + 2 - v lands near n while v is small).  Such a
    ban needs no undo: it leaves with the first restored mask saved before
    it was added, at the latest the one saved when its source was placed,
    and a return to its level from deeper ones restores only masks saved
    after it.  Level v keeps, in per-level arrays, the colour placed there
    (``colour_of``) and that colour's bans mask before the placement, about
    2*v bits, so this is the walk for states too wide for
    ``_search_packed``.  Its members mask needs no copy: backtracking
    clears the one bit placed there.  Nor does the highest open colour,
    ``hi``: by first-use order, a placement that leaves its colour empty
    when undone is the one that opened it, so ``hi`` falls back below that
    colour; otherwise ``hi`` is as it was (a pre-opened colour 1 aside).
    """
    members = [0] * (s + 1)
    bans = [0] * (s + 1)
    colour_of = [0] * (n + 1)
    saved_bans = [0] * (n + 1)
    nodes = 0

    v, c = 1, 1
    hi = first = 1 if special_first else 0  # colours 1..first start open
    while True:
        # scan level v from colour c; hi and the masks are as on entry to v
        bit = 1 << v
        top = hi + 1 if hi < s else s
        if table and c == 1:  # entering v, in a walk with rules
            for only1, lo, last, mul, off in table:
                if only1 and bans[1] & bit:
                    continue  # colour 1 may not take v already
                u = (v - off) // mul  # the value whose placement bans v
                if lo <= u <= last and mul * u + off == v:
                    k = colour_of[u]
                    if k == 1 or not only1:
                        bans[k] |= bit
            if v in banned:
                bans[1] |= bit
        while c <= top:
            bc = bans[c]
            if bc & bit:
                c += 1
                continue
            if nodes >= limit:
                raise SearchBudgetExceeded(nodes)
            nodes += 1
            mc = members[c]
            members[c] = mc | bit
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
            c += 1
        else:
            # every colour at v tried: undo the placement at v - 1
            v -= 1
            if not v:
                return False, nodes
            c = colour_of[v]
            members[c] ^= 1 << v
            bans[c] = saved_bans[v]
            if c > first and not members[c]:
                hi = c - 1  # the placement at v opened colour c
            c += 1
            continue
        colour_of[v] = c
        saved_bans[v] = bc
        bans[c] = bc | mc << v
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
    The walk always enforces condition 1, so constraints without it are a
    ValueError: a None would claim infeasibility the walk never tested.
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
    constraints = constraints if constraints is not None else ConditionSet.condition1()
    if not constraints.weak_sum_free:
        raise ValueError("the search always enforces condition 1 (weak sum-freeness)")
    if n < s:
        return None, 0  # s non-empty subsets need at least s integers
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
    for n in range(s, cap + 1):
        try:
            w, nodes = _decide(s, n, budget=budget - nodes_total)
        except SearchBudgetExceeded as e:
            nodes_total += e.nodes_visited
            break
        nodes_total += nodes
        if w is None:
            mode = "exact"
            break
        best_n, witness = n, w
    return SearchResult(
        s=s,
        mode=mode,
        best_n=best_n,
        witness=witness,
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

    * condition 1: a value is placed only in a colour with no weak-sum ban
      on it;
    * conditions 2 and 3 and the ``_seed_rules(n)`` rows: the bans of the
      walk's one rule table, ``_walk_rules`` with every rule switched on
      (doubles above 4 in a colour, n and the partner n+2-v in colour 1,
      the rows' values and v + GAP above 4 in colour 1);
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

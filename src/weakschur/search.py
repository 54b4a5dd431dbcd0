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
walks read the same table and count the same nodes in the same order.
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
#: holds about s*n*n/2 bits, so wider states take the per-colour walk
PACKED_MAX_BITS = 1 << 12

#: the packed walk counts a subtree from its window table when the subtree
#: ends within WINDOW_DEPTH + 1 levels; depths 2 / 3 / 4 / 5 took
#: decide(4, 53) 5.0 / 3.0 / 2.3 / 2.5 s and compute_ws(4, 60,
#: budget=10**6) 0.115 / 0.094 / 0.073 / 0.069 s
WINDOW_DEPTH = 4
#: most entries the window table keeps; a full one is emptied
WINDOW_ENTRIES = 1 << 16


def _search(
    s: int,
    n: int,
    *,
    no_double: bool = False,
    special_first: bool = False,
    seed_filters: bool = False,
    budget: Optional[int] = None,
    emit: Callable[[list[int]], bool],
    counts: Optional[dict] = None,
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
    colour left unused is 0), a new list for each leaf that it may keep,
    and returns True to stop the search.

    The depth-first walk is one loop over an explicit stack, not recursion,
    so its depth is bounded by memory rather than the interpreter's
    recursion limit.  A state of s*(n + 1) bits, at most
    ``PACKED_MAX_BITS``, takes the colour-parallel ``_search_packed``,
    whose stack saves up to that many bits a level; a wider one takes
    ``_search_per_colour``, which saves one colour's mask pair a level.
    Both walks count the same nodes and emit the same leaves in the same
    order.

    ``counts`` is the packed walk's window table, a dict of packed ints,
    new when None.  Its key holds everything a count depends on, whatever
    n and the rules are, so one table may serve every walk of one s: each
    ``_leaves`` call without a table makes one, and ``compute_ws`` passes
    one for all its orders.  It keeps at most WINDOW_ENTRIES = 2^16
    entries and is emptied when full.  An entry takes about 70 bytes at
    s = 4, and a test holds it under 100, so the cap bounds the table by
    6.6 MB there; a key has at most 45s bits, so wider walks add about 6
    bytes an entry a colour.

    Returns (stopped_early, nodes); a node is one value placement, counted
    in the same order as colours are tried.  Before each placement the
    count is compared with the budget, and SearchBudgetExceeded is raised
    when ``nodes >= budget``: a budget of b allows exactly b placements, and
    a zero or negative budget allows none.
    """
    if special_first and n < s:
        return False, 0  # the root is already dead: s colours need s values
    limit = sys.maxsize if budget is None else budget
    table, banned = _walk_rules(n, no_double, special_first, seed_filters)
    if s * (n + 1) > PACKED_MAX_BITS:
        return _search_per_colour(s, n, special_first, table, banned, limit, emit)
    if counts is None:
        counts = {}
    return _search_packed(s, n, special_first, table, banned, limit, emit, counts)


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


def _search_packed(s, n, special_first, table, banned, limit, emit, counts):
    """_search's walk with all s colours interleaved in two ints: ``M``
    has bit w*s + k set when value w has colour k + 1, and ``S``, kept
    relative to the current level v, has bit (w - v)*s + k set when colour
    k + 1 may not take w.  The free colours at v are the low s bits of
    ``~S`` within the open ones, tried lowest first (colour 1, 2, ...).
    A child that is a leaf (v = n), has no free colour or cannot be
    completed is counted but not entered.  ``lanes`` maps colour k + 1's
    bit to the bits w*s + k for every w, so placing v there is
    ``S' = (S | adds & lanes[b]) >> s`` with ``adds = M | rules[v]``:
    ``rules[v]`` holds the bans ``table`` makes for a placement of v, in
    every colour's lane or in colour 1's, at their offsets from v, and
    ``S`` starts with colour 1's ``banned`` values.  Each level saves one
    (S, hi, free) tuple, all that a backtrack cannot rebuild: a pop back to
    v clears the bits of values v.. from ``M`` (``M &= (1 << v*s) - 1``)
    and recomputes ``adds`` from it.

    A leaf's colour masks are read from ``M`` without a text round trip:
    value w's colour is the one bit of ``M >> w*s`` within its low s bits
    (``_decode``).  The masks of values 1..n - 8 are kept in a one-entry
    cache keyed by ``M``'s bits for them; leaves come depth first, so a
    prefix that changes never comes back (the first 20000 leaves of the
    seed walk at s = 4, n = 40 have 59), and a leaf copies the cached list
    and decodes its last 8 values.

    The walk does not enter a child at u = v + 1 whose whole subtree ends
    within d + 1 levels, u..u + d with d = WINDOW_DEPTH, in dead
    placements.  Those placements read only the bans on u..u + d + 2, and
    these come from the child's window, the table's key: the low
    (d + 3)*s bits of the child's ``S``; the low (d + 3)*s bits of ``M``,
    the colours of 1..d + 2, the only members whose weak sums with
    u..u + d land there (values from u on sum past u + d + 2); and
    ``rules[u..u + d]`` cut to the window.  So the subtree's node count is
    a function of the key.  On a miss ``_window_count`` computes it once,
    with the walk's own dead and push tests on the window ints, and counts
    in one step a level whose every placement is dead (all of its colours
    banned on the level below), or gives 0 when the subtree would enter
    u + d + 1.  The walk adds a count k when ``nodes + k <= limit`` and
    enters the child otherwise, so a budget that ends inside the subtree
    cuts it where counting one at a time does.

    The lookup applies where d + 3 <= v <= n - 3 - d (``wlo``, ``wtop``):
    values 1..d + 2 are placed, and the window enters no level past
    n - 2, so every level it counts in one step lies below n: no leaf
    falls inside it, and nothing skipped there could emit.  It also waits
    for every colour to be open (child_hi = s), so the key needs no
    highest open colour.  Before that a colour never used is free on the
    whole window (no member, no rule ban), and so is the colour a window
    value opens, as sums of window values fall past it, so the subtree
    always reaches u + d + 1.  With every colour open, ``special_first``'s
    prune on colours still empty cannot fire above n either.
    """
    width = s * (n + 1)
    lane0 = ((1 << width) - 1) // ((1 << s) - 1)  # bit w*s for w = 0..n
    # no comprehension here reads a local: one that did would turn it into a
    # closure cell, slower to read in the loop below
    lanes = {}
    for k in range(s):
        lanes[1 << k] = lane0 << k
    allowed = []  # allowed[hi]: colours 1..min(hi + 1, s)
    for k in range(1, s + 1):
        allowed.append((1 << k) - 1)
    allowed.append(allowed[-1])
    ahead = allowed[s] << s  # every colour's bit at bits s..2s-1
    rules = [0] * (n + 2)
    for only1, lo, last, mul, off in table:
        for v in range(lo, last + 1):
            rules[v] |= (1 if only1 else allowed[s]) << (mul * v + off - v) * s
    S = 0
    for w in banned:
        S |= 1 << (w - 1) * s  # w in colour 1, relative to value 1
    # the window table's key for a child of v: its S and the walk's M cut
    # to wbits, then the rules' bans from v + 1..v + 1 + d cut to the
    # window (rwin[v], one int a level, packed into rkey[v])
    d = WINDOW_DEPTH
    wbits = (d + 3) * s
    wmask = (1 << wbits) - 1
    wlo, wtop = d + 3, n - 3 - d
    rkey = [0] * (n + 1)
    rwin = [[0] * (d + 1)] * (n + 1)
    if table:  # without rules every rule window is 0
        for v in range(wlo, wtop + 1):
            rwin[v] = []
            for i in range(d + 1):
                win = rules[v + 1 + i] & ((1 << (d + 3 - i) * s) - 1)
                rwin[v].append(win)
                rkey[v] |= win << (2 + i) * wbits
    get = counts.get
    # the leaf decoder's cached prefix is values 1..top (see above)
    top = max(n - 8, 0)
    tbits = (top + 1) * s
    tmask = (1 << tbits) - 1
    pkey = -1
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
            if special_first:
                # values still to place, less the colours 2..s still empty
                short = n - v - s + child_hi
                if short < 0 or not short and not (M | b << vs) & lane0:
                    continue
            if v == n:
                if M & tmask != pkey:
                    pkey = M & tmask
                    prefix = _decode(pkey >> s, s, 1, top, [0] * s)
                if emit(_decode((M | b << vs) >> tbits, s, top + 1, n, prefix.copy())):
                    return True, nodes
                continue
            Sc = (S | adds & lanes[b]) >> s
            a = allowed[child_hi]
            child_free = a ^ a & Sc  # a & ~Sc, without a full-width ~Sc
            if not child_free:
                continue
            if child_hi == s and wlo <= v <= wtop:
                # a child whose subtree ends inside its window: count it
                # from the table, unless the budget ends inside it
                Mw = M & wmask
                key = Sc & wmask | Mw << wbits | rkey[v]
                k = get(key)
                if k is None:
                    if len(counts) >= WINDOW_ENTRIES:
                        counts.clear()
                    k = counts[key] = _window_count(Sc & wmask, Mw, rwin[v], s, ahead, lanes)
                if k and nodes + k <= limit:
                    nodes += k
                    continue
            push((S, hi, free))
            M, S, hi, free = M | b << vs, Sc, child_hi, child_free
            v += 1
            vs += s
            adds = M | rules[v]
        # every colour at v tried: undo the placement at v - 1
        if not stack:
            return False, nodes
        S, hi, free = pop()
        v -= 1
        vs -= s
        M &= (1 << vs) - 1
        adds = M | rules[v]


def _window_count(S, Mw, rwin, s, ahead, lanes, level=0):
    """The nodes below a child that _search_packed would enter at u with
    every colour open, from its window alone (see _search_packed): ``S``
    as at the child, ``Mw`` the colours of 1..WINDOW_DEPTH + 2, ``rwin``
    the rules' bans for each level of the window and ``ahead`` every
    colour's bit at bits s..2s-1.  0 when the walk would enter a level past
    u + WINDOW_DEPTH.  ``level`` is the child's level less u."""
    a = ahead >> s
    free = a ^ a & S
    adds = Mw | rwin[level]
    total = 0
    while free:
        b = free & -free
        free ^= b
        total += 1
        Sc = (S | adds & lanes[b]) >> s
        child_free = a ^ a & Sc
        if not child_free:
            continue
        if ahead & Sc == ahead:
            total += child_free.bit_count()
            continue
        if level == WINDOW_DEPTH:
            return 0
        k = _window_count(Sc, Mw, rwin, s, ahead, lanes, level + 1)
        if not k:
            return 0
        total += k
    return total


def _decode(x: int, s: int, lo: int, hi: int, masks: list[int]) -> list[int]:
    """masks, colour k + 1's at index k, with values lo..hi added: ``x``
    holds value w's s colour bits, one of them set, at bit (w - lo)*s."""
    colours = (1 << s) - 1
    for w in range(lo, hi + 1):
        masks[(x & colours).bit_length() - 1] |= 1 << w
        x >>= s
    return masks


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
    # each rule with the range of values it bans, tested first
    reads = []
    for only1, lo, last, mul, off in table:
        if lo <= last:
            tlo, thi = sorted((mul * lo + off, mul * last + off))
            reads.append((tlo, thi, only1, mul, off))

    v, c = 1, 1
    hi = first = 1 if special_first else 0  # colours 1..first start open
    while True:
        # scan level v from colour c; hi and the masks are as on entry to v
        bit = 1 << v
        top = hi + 1 if hi < s else s
        if table and c == 1:  # entering v, in a walk with rules
            for tlo, thi, only1, mul, off in reads:
                if not tlo <= v <= thi or only1 and bans[1] & bit:
                    continue  # no ban on v, or colour 1 may not take v already
                u = (v - off) // mul  # the value whose placement bans v
                if mul * u + off == v:
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
            if not (special_first and n - v < s - child_hi + (not members[1])):
                if v < n:
                    break
                if emit(members[1:]):
                    return True, nodes
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
    colour_masks: list[int], s: int, n: int, sets: dict[int, IntSet]
) -> Partition:
    """Turn the colour masks of a leaf into a Partition with exactly s
    non-empty subsets, peeling single elements off large subsets when the
    search used fewer colours.  Removal never breaks weak sum-freeness, so
    padding is always sound; the donor is the subset holding the largest
    movable element, which keeps the result deterministic.  A mask that
    sets (mask -> IntSet) already holds reuses its IntSet; a new one is
    added to it.  The result goes through Partition.validate(), the one
    check each leaf the library returns gets, whose clean case is decided
    on the masks alone."""
    masks = list(colour_masks)
    for i in range(s):
        if not masks[i]:
            # disjoint masks compare like their largest elements
            donor = max(m for m in masks if m & (m - 1))
            top = 1 << (donor.bit_length() - 1)
            masks[masks.index(donor)] ^= top
            masks[i] = top
    subsets = []
    for m in masks:
        sub = sets.get(m)
        if sub is None:
            sub = sets[m] = IntSet.from_mask(m)
        subsets.append(sub)
    p = Partition(tuple(subsets), n)
    p.validate()
    return p


def _leaves(
    s: int, n: int, limit: int, budget: int, counts: Optional[dict] = None, **rules: bool
) -> tuple[list[list[int]], int]:
    """The first ``limit`` leaves of the walk over colourings of 1..n with
    s colours, each the list of colour masks ``emit`` receives, and the
    walk's node count: the one way into ``_search``, whose rule flags and
    window table ``counts`` pass straight through.  A leaf is checked by
    whoever turns it into a result: ``_partition_from`` for the library's
    Partitions, ``partition._serialize_leaves`` for the CLI's texts."""
    leaves: list[list[int]] = []

    def emit(masks: list[int]) -> bool:
        leaves.append(masks)
        return len(leaves) >= limit

    _, nodes = _search(s, n, budget=budget, emit=emit, counts=counts, **rules)
    return leaves, nodes


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
    if s < 1 or n < 1:
        raise ValueError("s and n must be >= 1")
    constraints = constraints if constraints is not None else ConditionSet.condition1()
    if not constraints.weak_sum_free:
        raise ValueError("the search always enforces condition 1 (weak sum-freeness)")
    if n < s:
        return None  # s non-empty subsets need at least s integers
    leaves, _ = _leaves(
        s, n, 1, budget,
        no_double=constraints.no_double, special_first=constraints.seed_extension,
    )
    return _partition_from(leaves[0], s, n, {}) if leaves else None


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
    witness: Optional[list[int]] = None  # the colour masks of best_n's leaf
    nodes_total = 0
    mode = "capped"
    counts: dict = {}  # one window table for every order of the scan
    for n in range(s, cap + 1):
        try:
            leaves, nodes = _leaves(s, n, 1, budget - nodes_total, counts)
        except SearchBudgetExceeded as e:
            nodes_total += e.nodes_visited
            break
        nodes_total += nodes
        if not leaves:
            mode = "exact"
            break
        best_n, witness = n, leaves[0]
    return SearchResult(
        s=s,
        mode=mode,
        best_n=best_n,
        witness=_partition_from(witness, s, best_n, {}) if witness else None,
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

    The walk's prune is the seed policy, so its leaves, from
    ``_seed_leaves``, are returned as they are, each through the
    Partition.validate() in ``_partition_from`` alone, with one
    ``mask -> IntSet`` memo per call: depth-first siblings share most of
    their subsets.  Every rule validate_seed checks is a prune of the walk:

    * condition 1: a value is placed only in a colour with no weak-sum ban
      on it;
    * conditions 2 and 3 and the ``_seed_rules(n)`` rows: the bans of the
      walk's one rule table, ``_walk_rules`` with every rule switched on
      (doubles above 4 in a colour, n and the partner n+2-v in colour 1,
      the rows' values and v + GAP above 4 in colour 1);
    * well-formedness: each value is placed once, and a leaf must use
      every colour;
    * orders up to MIN_ORDER cannot pass validate_seed cleanly and yield
      no results; a larger order below s yields none through ``_search``'s
      root guard, which spends no node.
    """
    sets: dict[int, IntSet] = {}
    return [_partition_from(masks, s, n, sets) for masks in _seed_leaves(s, n, limit, budget)]


def _seed_leaves(s: int, n: int, limit: int, budget: int) -> list[list[int]]:
    """The colour masks of find_seeds(s, n, limit, budget=budget)'s seeds,
    unchecked: its argument guards and the seed walk, with every rule of
    ``_walk_rules`` on.  The CLI writes these straight to text."""
    if s < 1 or n < 1:
        raise ValueError("s and n must be >= 1")
    if limit <= 0 or n <= MIN_ORDER:
        return []
    return _leaves(
        s, n, limit, budget, no_double=True, special_first=True, seed_filters=True
    )[0]

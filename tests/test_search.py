import hashlib
import tracemalloc
from bisect import bisect_right
from contextlib import nullcontext
from functools import partial
from itertools import product
from typing import Callable, Optional
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakschur import (
    ConditionSet,
    IntSet,
    Partition,
    SearchBudgetExceeded,
    base_partition,
    compute_ws,
    construct_step,
    decide,
    find_seeds,
    serialize_partition,
    validate_seed,
    verify,
    weak_violations_naive,
)
from weakschur import search, serialize_partitions
from weakschur.partition import _serialize_leaves
from weakschur.search import DEFAULT_BUDGET, _leaves, _partition_from, _search, _seed_leaves


def weakly_sum_free(elems):
    return not weak_violations_naive(IntSet(elems))


# --- decide -----------------------------------------------------------------


def test_decide_trivial_pair():
    p = decide(1, 2)
    assert p is not None
    assert p.subset(1) == IntSet([1, 2])


def test_decide_smallest_infeasible():
    assert decide(1, 3) is None  # 1 + 2 = 3


def test_decide_two_subsets():
    assert decide(2, 8) is not None
    assert decide(2, 9) is None


def test_decide_three_subsets_exact_boundary():
    # the largest feasible order for three subsets is 23; 24 is proven
    # infeasible by exhausting the tree
    witness = decide(3, 23)
    assert witness is not None
    assert verify(witness, ConditionSet.condition1()).passed
    assert decide(3, 24) is None


def test_decide_rejects_bad_arguments():
    with pytest.raises(ValueError):
        decide(0, 5)
    with pytest.raises(ValueError):
        decide(2, 0)


@pytest.mark.parametrize("s,n", [(1, 3), (3, 2)])
def test_decide_refuses_constraints_without_condition_1(s, n):
    # the walk always enforces condition 1: {1, 2, 3} passes verify under
    # these conditions, so a None from decide(1, 3) claimed infeasibility
    # that was never tested
    constraints = ConditionSet(weak_sum_free=False, no_double=True, seed_extension=False)
    assert verify(Partition.from_subsets([[1, 2, 3]]), constraints).passed
    with pytest.raises(ValueError, match="condition 1"):
        decide(s, n, constraints)


def test_decide_infeasible_below_subset_count():
    # s non-empty subsets need at least s integers
    assert decide(3, 2) is None


def test_decide_pads_to_exactly_s_subsets():
    p = decide(3, 5)
    assert p is not None
    assert p.s == 3
    assert all(len(p.subset(i)) >= 1 for i in range(1, 4))


@pytest.mark.parametrize("s,n", [(1, 2), (2, 5), (2, 8), (3, 10), (3, 23), (4, 20)])
def test_decide_witnesses_pass_the_verifier(s, n):
    # search and verifier are written independently; agreement is the point
    p = decide(s, n)
    assert p is not None
    assert p.s == s and p.n == n
    assert verify(p, ConditionSet.condition1()).passed


def test_decide_with_extra_conditions():
    constraints = ConditionSet.all()
    p = decide(3, 21, constraints)
    assert p is not None
    report = verify(p, constraints)
    assert report.passed


def test_decide_downward_closure():
    # restricting a witness of order n to 1..n-1 stays a witness
    for n in range(3, 12):
        if decide(2, n) is not None and n - 1 >= 2:
            assert decide(2, n - 1) is not None


def test_decide_budget_is_distinct_from_infeasible():
    with pytest.raises(SearchBudgetExceeded):
        decide(3, 23, budget=5)


# --- canonical search vs unrestricted enumeration ----------------------------


def brute_force_feasible(s, n):
    """Try every one of the s^n colourings, no symmetry breaking at all."""
    for assignment in product(range(s), repeat=n):
        groups = [[] for _ in range(s)]
        for v, c in enumerate(assignment, 1):
            groups[c].append(v)
        if all(weakly_sum_free(g) for g in groups):
            return True
    return False


@pytest.mark.parametrize("s", [1, 2])
@pytest.mark.parametrize("n", range(1, 13))
def test_symmetry_breaking_loses_nothing(s, n):
    found = [False]

    def emit(_assignment):
        found[0] = True
        return True

    _search(s, n, emit=emit)
    assert found[0] == brute_force_feasible(s, n)


# --- compute_ws ---------------------------------------------------------------


def test_compute_ws_one_subset():
    r = compute_ws(1, 100)
    assert (r.mode, r.best_n, r.exhausted) == ("exact", 2, True)
    assert r.witness is not None and r.witness.n == 2


def test_compute_ws_two_subsets_with_brute_force_oracle():
    r = compute_ws(2, 100)
    assert (r.mode, r.best_n, r.exhausted) == ("exact", 8, True)
    # independent confirmation that 9 is infeasible: all 512 colourings fail
    assert brute_force_feasible(2, 8)
    assert not brute_force_feasible(2, 9)


def test_compute_ws_witness_passes_verifier():
    r = compute_ws(2, 100)
    assert verify(r.witness, ConditionSet.condition1()).passed
    assert r.witness.n == r.best_n


def test_compute_ws_respects_cap():
    r = compute_ws(2, 5)
    assert r.mode == "capped"
    assert r.best_n == 5
    assert not r.exhausted


def test_compute_ws_encodes_budget_exhaustion():
    r = compute_ws(3, 100, budget=100)
    assert r.mode == "capped"
    assert not r.exhausted


def test_compute_ws_rejects_bad_s():
    with pytest.raises(ValueError):
        compute_ws(0, 10)


def test_compute_ws_nodes_deterministic():
    a = compute_ws(2, 100)
    b = compute_ws(2, 100)
    assert a.nodes_visited == b.nodes_visited
    assert a.witness == b.witness


def test_compute_ws_json_labels_source():
    assert compute_ws(1, 10).as_json()["source"] == "search"


@pytest.mark.parametrize(
    "s,cap,budget,best_n",
    [(1, 100, DEFAULT_BUDGET, 2), (2, 100, DEFAULT_BUDGET, 8), (3, 100, DEFAULT_BUDGET, 23),
     (4, 60, 10**6, 52)],
)
def test_compute_ws_witness_is_what_one_decide_finds(s, cap, budget, best_n):
    # the scan's orders share one window table; a single decide walks
    # with a table of its own, and both keep the walk's first leaf
    r = compute_ws(s, cap, budget=budget)
    assert r.best_n == best_n
    assert r.witness == decide(s, best_n)


@pytest.mark.parametrize("s,top,nodes", [(2, 9, 62), (3, 24, 22610)])
def test_compute_ws_counts_what_fresh_walks_of_each_order_count(s, top, nodes):
    # the exact scan settles order top: it counts the nodes of one fresh
    # walk per order s..top, each with its own window table
    assert compute_ws(s, 100).nodes_visited == nodes
    assert sum(_leaves(s, n, 1, DEFAULT_BUDGET)[1] for n in range(s, top + 1)) == nodes


# --- find_seeds -----------------------------------------------------------------


def test_find_seeds_at_the_base_order(base):
    seeds = find_seeds(3, 21, 1000)
    assert seeds, "at least one seed exists at (3, 21)"
    assert base in seeds
    for p in seeds:
        report = validate_seed(p)
        assert report.passed


def test_find_seeds_minimal_case_is_empty():
    # the only canonical partition is [{1,2}] and its order sits in subset 1
    assert find_seeds(1, 2, 10) == []


def test_find_seeds_tiny_orders_cannot_seed():
    assert find_seeds(2, 3, 10) == []


def test_find_seeds_respects_limit():
    assert len(find_seeds(3, 18, 2)) == 2


def test_find_seeds_none_below_subset_count():
    assert find_seeds(3, 2, 5) == []
    # n < s past MIN_ORDER: the search's root guard alone answers, so a
    # zero budget, which allows no placement, must not raise
    assert find_seeds(8, 6, 5, budget=0) == []


def test_find_seeds_at_best_order_iterate_beats_the_base_chain(base):
    # any seed of order 23 steps to order 68 > 62; whether one exists is a
    # computed fact, not an assumption
    seeds = find_seeds(3, 23, 1000)
    for p in seeds:
        q, _ = construct_step(p)
        assert q.n == 68
        assert verify(q, ConditionSet.all()).passed


def test_find_seeds_budget():
    with pytest.raises(SearchBudgetExceeded):
        find_seeds(3, 21, 1000, budget=10)


def test_find_seeds_every_seed_survives_one_step():
    for n in (18, 19, 20):
        for p in find_seeds(3, n, 50):
            q, _ = construct_step(p)
            assert verify(q, ConditionSet.all()).passed


@pytest.mark.parametrize("limit", [0, -5])
def test_find_seeds_nonpositive_limit_is_empty(limit):
    assert find_seeds(3, 21, limit) == []


def test_find_seeds_bytes_are_pinned():
    # which seeds are found, in which order, and their text: a change to
    # the walk, the checks or the writer that alters any of them shows here
    seeds = find_seeds(4, 40, 2000)
    text = "".join(serialize_partition(p) for p in seeds)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "a6d74eb14405e9038d5235c8a61667a40c62d3e9169d348c5f28afff2df26a57")


def test_find_seeds_shares_one_intset_per_distinct_subset():
    seeds = find_seeds(4, 40, 2000)
    subsets = [sub for p in seeds for sub in p.subsets]
    distinct = {sub.mask for sub in subsets}
    assert len({id(sub) for sub in subsets}) == len(distinct) < len(subsets) // 10


def _seed_walk_leaves(s, n, *, seed_filters):
    """The leaves of find_seeds' walk, with or without the seed-rule rows
    of its prune, as Partitions in walk order."""
    leaves = []

    def emit(masks):
        leaves.append(_partition_from(masks, s, n, {}))
        return False

    _search(s, n, no_double=True, special_first=True, seed_filters=seed_filters, emit=emit)
    return leaves


def test_find_seeds_matches_the_unpruned_walk_filtered_by_validate_seed():
    # find_seeds checks no leaf: its prune is the seed policy, so this is
    # what shows a prune that drops a clean seed or keeps a dirty one
    cases = [*product(range(1, 4), range(1, 24)), *product([4], range(5, 11))]
    for s, n in cases:
        clean = [p for p in _seed_walk_leaves(s, n, seed_filters=False)
                 if not validate_seed(p).violations]
        assert find_seeds(s, n, 10**9) == clean, (s, n)


def test_a_walk_without_the_seed_rules_emits_dirty_seeds():
    # the cross-check above has teeth: without the seed-rule rows the walk
    # emits leaves validate_seed rejects, so a prune that lost them would
    # fail it
    leaves = _seed_walk_leaves(3, 18, seed_filters=False)
    dirty = [p for p in leaves if validate_seed(p).violations]
    assert len(dirty) == 102
    assert [p for p in leaves if p not in dirty] == find_seeds(3, 18, 10**9)


def test_find_seeds_past_the_cross_checked_orders_pass_validate_seed():
    # the unpruned walk is too large to compare above n = 10 at s = 4, so
    # there the seeds found are checked one by one
    for n in range(11, 41):
        for p in find_seeds(4, n, 100):
            assert not validate_seed(p).violations, (n, serialize_partition(p))


# --- the CLI's seed path: the walk's colour masks straight to text ----------


@pytest.mark.parametrize(
    "s,n,limit,wide",
    [(2, 5, 10, False), (2, 7, 10, False), (3, 12, 100, False), (3, 21, 10, False),
     (4, 30, 200, False), (4, 40, 200, False), (5, 70, 100, False),
     (3, 12, 100, True), (4, 40, 200, True), (12, 400, 3, False)],
)
def test_seed_leaves_write_the_texts_of_find_seeds(s, n, limit, wide):
    # s * (n + 1) = 4812 bits at (12, 400): the per-colour walk by default
    with per_colour_walk(wide):
        texts = _serialize_leaves(n, _seed_leaves(s, n, limit, DEFAULT_BUDGET))
        assert texts == serialize_partitions(find_seeds(s, n, limit))
    assert len(texts) == {(2, 5): 2, (2, 7): 1, (3, 12): 75, (3, 21): 2}.get((s, n), limit)


SEED_RULES = dict(no_double=True, special_first=True, seed_filters=True)


@pytest.mark.parametrize(
    "s,n,rules,stop_after,leaves",
    [(3, 18, SEED_RULES, None, 38), (3, 23, SEED_RULES, None, 0), (3, 23, {}, None, 3),
     (4, 40, SEED_RULES, 3000, 3000)],
)
def test_the_walks_emit_the_same_leaves_past_the_decoders_border(
    s, n, rules, stop_after, leaves
):
    # the packed walk reads a leaf's colours of 1..n - 8 from a one-entry
    # cache and the rest from M; the per-colour walk keeps one mask per
    # colour.  The exhaustive cross-checks below stop at n = 10
    packed = _walk(_search, stop_after, s=s, n=n, **rules)
    with per_colour_walk(True):
        assert _walk(_search, stop_after, s=s, n=n, **rules) == packed
    assert len(packed[1]) == leaves


# --- the explicit-stack loop against the recursive reference -------------------


def _search_reference(
    s: int,
    n: int,
    *,
    no_double: bool = False,
    special_first: bool = False,
    require_all: bool = False,
    seed_filters: bool = False,
    budget: Optional[int] = None,
    emit: Callable[[list[int]], bool],
    emitted_at: Optional[list[int]] = None,
) -> tuple[bool, int]:
    """The recursive backtracker that ``_search`` replaced, kept as the
    reference: one Python call per value placed, so its depth is bounded
    by the recursion limit.  Like ``_search`` it emits its own colour
    masks, ``members[1:]``; ``emitted_at``, when given, gets the node
    count at each emit."""
    members = [0] * (s + 1)
    sums = [0] * (s + 1)
    nodes = 0
    target = n + 2  # forbidden pair-sum inside the designated first subset
    banned_first = frozenset()
    if seed_filters:
        banned = {5, 6, n - 1}
        if n % 2 == 0 and (n + 2) // 2 > 4:
            banned.add((n + 2) // 2)
        banned_first = frozenset(banned)

    def place(v: int, hi: int) -> bool:
        nonlocal nodes
        if v > n:
            if require_all and (hi < s or (special_first and not members[1])):
                return False
            if emitted_at is not None:
                emitted_at.append(nodes)
            return emit(members[1:])
        if require_all:
            empties = (s - hi) + (1 if special_first and not members[1] else 0)
            if n - v + 1 < empties:
                return False
        top = hi + 1 if hi < s else s
        for c in range(1, top + 1):
            if (sums[c] >> v) & 1:
                continue
            if no_double and not (v & 1):
                a = v >> 1
                if a > 4 and (members[c] >> a) & 1:
                    continue
            if special_first and c == 1:
                if v == n:
                    continue
                partner = target - v
                if 0 < partner and (members[1] >> partner) & 1:
                    continue
                if seed_filters:
                    if v in banned_first:
                        continue
                    if v > 4 and (members[1] >> (v - 3)) & 1:
                        continue
            if budget is not None and nodes >= budget:
                raise SearchBudgetExceeded(nodes)
            nodes += 1
            saved_members, saved_sums = members[c], sums[c]
            sums[c] = saved_sums | (saved_members << v)
            members[c] = saved_members | (1 << v)
            if place(v + 1, hi if c <= hi else c):
                return True
            members[c], sums[c] = saved_members, saved_sums
        return False

    stopped = place(1, 1 if special_first else 0)
    return stopped, nodes


def _walk(search, stop_after, **kwargs):
    """Run one search, recording the colour masks of every leaf it emits
    in order and stopping after ``stop_after`` emits (never when None)."""
    emitted: list[list[int]] = []

    def emit(masks: list[int]) -> bool:
        emitted.append(list(masks))
        return stop_after is not None and len(emitted) >= stop_after

    try:
        outcome = search(emit=emit, **kwargs)
    except SearchBudgetExceeded as e:
        outcome = ("budget exceeded", e.nodes_visited)
    return outcome, emitted


def per_colour_walk(wide: bool):
    """Force _search onto its per-colour walk (wide) or leave the width
    selection as it is."""
    return mock.patch.object(search, "PACKED_MAX_BITS", 0) if wide else nullcontext()


@st.composite
def walk_sizes(draw):
    # the exhaustive trees of s <= 3 stay under 61000 nodes up to n = 30;
    # from s = 4 on they do not, so there the budget is bounded.  The
    # orders reach where the packed walk counts most nodes from its window
    # table, where subtrees die a few levels down: past n = 22 at s = 3,
    # from about n = 39 at s = 4 and n = 80 at s = 5, where it counts over
    # 90% of the first 20000 nodes
    s = draw(st.integers(1, 6))
    if s <= 3:
        n = draw(st.integers(1, 30))
        budget = draw(st.one_of(st.sampled_from([None, 0, 1]), st.integers(-3, 20000)))
    else:
        n = draw(st.integers(1, {4: 60, 5: 120}.get(s, 16)))
        budget = draw(st.integers(-3, 20000))
    return s, n, budget


@settings(deadline=None)  # whole trees of up to ~15000 nodes, twice
@given(
    size=walk_sizes(),
    no_double=st.booleans(),
    special_first=st.booleans(),
    seed_filters=st.booleans(),
    stop_after=st.one_of(st.none(), st.integers(1, 40)),
    wide=st.booleans(),
)
def test_loop_matches_recursive_reference(
    size, no_double, special_first, seed_filters, stop_after, wide
):
    s, n, budget = size
    kwargs = dict(
        s=s,
        n=n,
        no_double=no_double,
        special_first=special_first,
        seed_filters=seed_filters,
        budget=budget,
    )
    # _search's special_first also requires every colour to be used
    with per_colour_walk(wide):
        walked = _walk(_search, stop_after, **kwargs)
    assert walked == _walk(
        _search_reference, stop_after, require_all=special_first, **kwargs
    )


def test_loop_matches_recursive_reference_on_every_small_case():
    # the exhaustive corner the property samples thinly: orders where the
    # every-colour-used prune and the leaf checks decide most outcomes,
    # through both walks
    names = ("no_double", "special_first", "seed_filters")
    for s, n, wide in product(range(1, 5), range(1, 11), (False, True)):
        for flags in product((False, True), repeat=3):
            kwargs = dict(zip(names, flags))
            with per_colour_walk(wide):
                walked = _walk(_search, None, s=s, n=n, **kwargs)
            assert walked == _walk(
                _search_reference,
                None,
                s=s,
                n=n,
                require_all=kwargs["special_first"],
                **kwargs,
            ), (s, n, wide, kwargs)


@pytest.mark.parametrize(
    "s,n,walk",
    [(4, 1023, "_search_packed"), (4, 1024, "_search_per_colour"),
     (1, 4095, "_search_packed"), (1, 4096, "_search_per_colour"),
     (100, 39, "_search_packed"), (100, 40, "_search_per_colour")],
)
def test_the_state_width_picks_the_walk(monkeypatch, s, n, walk):
    # the interleaved state is s * (n + 1) bits wide: up to PACKED_MAX_BITS
    # the packed walk runs, past it the per-colour one
    picked = []
    for name in ("_search_packed", "_search_per_colour"):
        monkeypatch.setattr(search, name, lambda *args, name=name: picked.append(name))
    _search(s, n, emit=lambda masks: True)
    assert picked == [walk]


def packed_walk():
    """Lift the width limit so the colour-parallel walk also runs states
    of up to 2^14 bits, which the default limit sends to the per-colour
    walk."""
    return mock.patch.object(search, "PACKED_MAX_BITS", 1 << 14)


def test_the_walks_agree_on_a_wide_seed_walk():
    # s * (n + 1) = 4812 bits: past the default limit, so by default only
    # the per-colour walk runs this; the two read the same rule table
    kwargs = dict(s=12, n=400, no_double=True, special_first=True, seed_filters=True)
    with packed_walk():
        packed = _walk(_search, 200, **kwargs)
    with per_colour_walk(True):
        assert _walk(_search, 200, **kwargs) == packed
    assert packed[0][0] is True and len(packed[1]) == 200


def test_the_walks_agree_on_a_wide_scan():
    # 100 colours: every order up to 150 is s * (n + 1) <= 15100 bits
    with packed_walk():
        packed = compute_ws(100, 150)
    with per_colour_walk(True):
        assert compute_ws(100, 150) == packed
    assert (packed.best_n, packed.nodes_visited) == (150, 6375)


@pytest.mark.parametrize("wide", [False, True])
def test_pinned_node_counts(wide):
    with per_colour_walk(wide):
        assert compute_ws(3, 100).nodes_visited == 22610
        assert _leaves(3, 23, 1, DEFAULT_BUDGET)[1] == 954
        assert _leaves(3, 23, 1, DEFAULT_BUDGET, no_double=True)[1] == 5772
        assert _leaves(3, 23, 1, DEFAULT_BUDGET, no_double=True, special_first=True)[1] == 15127
        outcome, emitted = _walk(
            _search,
            None,
            s=3,
            n=21,
            no_double=True,
            special_first=True,
            seed_filters=True,
        )
    assert outcome == (False, 4028)
    assert len(emitted) == 2


@pytest.mark.parametrize("wide", [False, True])
def test_pinned_node_counts_at_four_colours(wide):
    # the orders search ws --s 4 settles before its budget runs out at 53
    with per_colour_walk(wide):
        assert _leaves(4, 51, 1, DEFAULT_BUDGET)[1] == 5439
        assert _leaves(4, 52, 1, DEFAULT_BUDGET)[1] == 5443


def test_every_budget_cuts_where_the_reference_does():
    # this seed walk has 1060 nodes; each budget must stop the packed walk
    # exactly where the recursive reference, counting one at a time, stops
    kwargs = dict(s=3, n=10, no_double=True, special_first=True, seed_filters=True)
    assert _walk(_search, None, **kwargs)[0] == (False, 1060)
    for budget in range(1062):
        assert _walk(_search, None, budget=budget, **kwargs) == _walk(
            _search_reference, None, require_all=True, budget=budget, **kwargs
        ), budget


def _reference_cuts(stop_after, top, **kwargs):
    """What _walk(_search_reference, stop_after, budget=b, **kwargs) gives
    for every b <= top, from one reference walk: a budget of b cuts it at
    the first placement after b nodes, with the leaves emitted by then."""
    emitted_at: list[int] = []
    outcome, leaves = _walk(
        _search_reference, stop_after, budget=top + 1, emitted_at=emitted_at, **kwargs
    )
    cuts = []
    for b in range(top + 1):
        if outcome[0] != "budget exceeded" and b >= outcome[1]:
            cuts.append((outcome, leaves))
        else:
            cuts.append((("budget exceeded", max(b, 0)), leaves[: bisect_right(emitted_at, b)]))
    return cuts


@pytest.mark.parametrize(
    "stop_after,kwargs",
    [
        # condition 1 to its first leaf: 5439 nodes, 5237 of them counted
        # from the window table by 93 of its 177 lookups
        (1, dict(s=4, n=51)),
        # the first 3000 nodes of a seed walk with every rule: 2913 of them
        # come from the table by 11 of its 31 lookups
        (None, dict(s=4, n=42, no_double=True, special_first=True, seed_filters=True)),
    ],
)
def test_every_budget_cuts_where_the_reference_does_through_the_window_table(
    stop_after, kwargs
):
    # a subtree counted from the table must be entered instead when the
    # budget ends inside it, so each budget cuts where one-at-a-time
    # counting does
    top = 5440 if stop_after else 3000
    require_all = kwargs.get("special_first", False)
    cuts = _reference_cuts(stop_after, top, require_all=require_all, **kwargs)
    for b in range(-1, top + 1):
        assert _walk(_search, stop_after, budget=b, **kwargs) == cuts[max(b, 0)], b


def test_one_window_table_serves_walks_of_any_order_and_rules():
    # the table's key holds every fact a counted subtree depends on: the
    # bans and colours in its window and the rules' bans that land there,
    # so walks of one s may share it, as compute_ws's orders do
    # (whole trees at s = 3; condition 3's partner bans land in a window
    # only near n / 2, which a short budget never reaches)
    names = ("no_double", "special_first", "seed_filters")
    for s, orders, budget in ((3, (23, 26), None), (4, (42, 45, 48, 51), 4000)):
        counts: dict = {}
        for n, flags in product(orders, product((False, True), repeat=3)):
            kwargs = dict(zip(names, flags), s=s, n=n, budget=budget)
            shared = _walk(partial(_search, counts=counts), None, **kwargs)
            assert shared == _walk(
                _search_reference, None, require_all=kwargs["special_first"], **kwargs
            ), kwargs
        assert len(counts) > 200


@pytest.mark.parametrize("budget,nodes", [(0, 0), (1, 1), (5, 5), (-5, 0)])
def test_budget_cuts_after_exactly_budget_nodes(budget, nodes):
    # the budget is compared with ``>=`` before each placement, so a
    # negative budget stops at once instead of running unbounded
    with pytest.raises(SearchBudgetExceeded) as info:
        decide(3, 23, budget=budget)
    assert info.value.nodes_visited == nodes


def test_deep_search_has_no_recursion_limit():
    # one level per value: 1500 levels passed the interpreter's default
    # recursion limit of 1000 while the search recursed
    p = decide(12, 1500, budget=10**6)
    assert isinstance(p, Partition)
    assert (p.s, p.n) == (12, 1500)
    assert verify(p, ConditionSet.condition1()).passed


def test_wide_walk_memory_stays_bounded():
    # s * (n + 1) = 100100 bits is past PACKED_MAX_BITS: the per-colour walk
    # keeps one colour's bans mask a level and peaks near 0.2 MB, where the
    # interleaved state, two s-colour ints a level, peaked near 22 MB
    tracemalloc.start()
    try:
        witness = decide(100, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert witness is not None
    assert peak < 2e6, f"peak {peak / 1e6:.2f} MB"


@pytest.mark.parametrize(
    "walk,bound",
    [(lambda: find_seeds(12, 340, 1), 0.5e6), (lambda: decide(12, 340), 0.25e6)],
    ids=["find_seeds", "decide"],
)
def test_packed_walk_memory_stays_bounded_at_its_widest(walk, bound):
    # s * (n + 1) = 4092 bits is the widest state the packed walk takes.  A
    # level saves (S, hi, free), and a backtrack rebuilds M and adds from
    # the parent's M: the seed walk peaks near 0.37 MB and the dive near
    # 0.13 MB, where saving (M, S, hi, free, adds) took 0.61 and 0.33 MB
    assert 12 * (340 + 1) <= search.PACKED_MAX_BITS
    tracemalloc.start()
    try:
        found = walk()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found
    assert peak < bound, f"peak {peak / 1e6:.2f} MB"


def _scan_with_window_cap(cap, budget):
    """compute_ws(4, 60, budget=budget) with the window table capped at
    ``cap`` entries, and the one table its orders shared."""
    tables = []
    walk = search._search

    def spy(*args, counts, **kwargs):
        tables.append(counts)
        return walk(*args, counts=counts, **kwargs)

    with mock.patch.object(search, "WINDOW_ENTRIES", cap), \
            mock.patch.object(search, "_search", spy):
        result = compute_ws(4, 60, budget=budget)
    assert all(t is tables[0] for t in tables)
    return result, tables[0]


def test_window_table_memory_stays_bounded():
    # the benchmark's scan meets 5233 distinct windows (5222 while the walk
    # counted a level of dead placements in one step before its lookup); a
    # table capped below that is emptied when full, never holds more than
    # its cap, and changes no result
    full, table = _scan_with_window_cap(search.WINDOW_ENTRIES, 10**6)
    assert len(table) == 5233
    capped, table = _scan_with_window_cap(1 << 10, 10**6)
    assert capped == full and (full.best_n, full.nodes_visited) == (52, 10**6)
    assert 0 < len(table) <= 1 << 10
    # an entry takes about 70 bytes at s = 4, under the 100 that _search's
    # docstring bounds it by: the first 10^5 nodes meet 876 windows, so a
    # cap of 512 entries fills
    peaks = []
    for cap in (1, 512):
        tracemalloc.start()
        try:
            _, table = _scan_with_window_cap(cap, 10**5)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(table) <= cap
    assert peaks[1] - peaks[0] < 512 * 100, peaks


@pytest.mark.parametrize(
    "s,n,limit,budget,bound",
    [
        (12, 2000, 5, DEFAULT_BUDGET, 2e6),
        (4, 20000, 1, 10**4, 2e6),
        (12, 50000, 1, 3000, 4.5e6),
        (12, 8000, 1, DEFAULT_BUDGET, 11e6),
    ],
)
def test_wide_seed_walk_memory_stays_bounded(s, n, limit, budget, bound):
    # the per-colour walk adds a rule's ban on w when it reaches w, so no
    # mask holds a ban far above its level: the walk to 2000 levels peaks
    # near 0.63 MB, the one that never gets deep near 0.33 MB, and the one
    # 3000 nodes into n = 50000 near 2.1 MB.  Bans written when their
    # source is placed (n and n + 2 - v in colour 1) made colour 1's mask n
    # bits wide at every level that saved it: 7.4 MB on that walk.  A ban
    # mask made up front for every value would take about n*n bits (44 MB
    # at n = 20000).  The dive straight to a leaf at n = 8000 peaks near
    # 8.9 MB: a level saves one colour's bans mask, about 2v bits, and
    # backtracking clears the placed bit of its members mask; saving that
    # mask too peaked at 13.5 MB
    tracemalloc.start()
    try:
        try:
            find_seeds(s, n, limit, budget=budget)
        except SearchBudgetExceeded:
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, f"peak {peak / 1e6:.2f} MB"


# --- _partition_from: one mask per colour against the list-based reference --


def _partition_from_reference(assignment, s, n):
    """Padding done on per-colour lists: an independent reference for
    _partition_from's per-colour masks."""
    groups = [[] for _ in range(s)]
    for v, c in enumerate(assignment, 1):
        groups[c - 1].append(v)
    empties = [g for g in groups if not g]
    while empties:
        donor = max((g for g in groups if len(g) > 1), key=lambda g: g[-1])
        empties.pop(0).append(donor.pop())
    return Partition(tuple(IntSet(g) for g in groups), n)


@st.composite
def padded_assignments(draw):
    # n >= s values over fewer than s colours, gaps anywhere: the padding path
    s = draw(st.integers(2, 7))
    n = draw(st.integers(s, 40))
    used = draw(st.lists(st.integers(1, s), min_size=1, max_size=s - 1, unique=True))
    return draw(st.lists(st.sampled_from(used), min_size=n, max_size=n)), s, n


def colour_masks(assignment, s):
    """The colour masks _search emits for a leaf with this assignment."""
    masks = [0] * s
    for v, c in enumerate(assignment, 1):
        masks[c - 1] |= 1 << v
    return masks


@given(padded_assignments())
def test_partition_from_matches_reference_when_padding(case):
    assignment, s, n = case
    masks = colour_masks(assignment, s)
    p = _partition_from(masks, s, n, {})
    assert p == _partition_from_reference(assignment, s, n)
    assert masks == colour_masks(assignment, s)  # the caller's list is left as it was
    p.validate()
    assert all(p.subsets)


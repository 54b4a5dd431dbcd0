import random
from dataclasses import replace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from weakschur import (
    ConditionSet,
    IntSet,
    Partition,
    Violation,
    ViolationReport,
    base_partition,
    condition2_violations,
    condition3_violations,
    construct_step,
    decide,
    find_seeds,
    iterate,
    strong_violations,
    verify,
    weak_violations,
    weak_violations_naive,
)
from weakschur import verifier
from weakschur.intset import bit_positions
from weakschur.partition import violation_key

small_sets = st.lists(st.integers(min_value=1, max_value=400), max_size=60)


def triples(violations):
    return {v.witness for v in violations}


# --- weak sum checks ---------------------------------------------------


def test_weak_smallest_violation():
    assert triples(weak_violations(IntSet([1, 2, 3]))) == {(1, 2, 3)}


def test_weak_middle_block_clean():
    assert weak_violations(IntSet(range(9, 18))) == []


def test_weak_extended_first_subset_clean():
    assert weak_violations(IntSet([1, 2, 4, 8, 18, 23])) == []


def test_weak_reports_every_triple():
    got = triples(weak_violations(IntSet([1, 2, 3, 4])))
    assert got == {(1, 2, 3), (1, 3, 4)}


def test_weak_ignores_doubles():
    # 2 + 2 = 4 is not three distinct members
    assert weak_violations(IntSet([2, 4])) == []


def test_weak_first_only_stops_early():
    full = weak_violations(IntSet([1, 2, 3, 4]))
    first = weak_violations(IntSet([1, 2, 3, 4]), first_only=True)
    assert len(full) == 2
    assert len(first) == 1


@pytest.mark.parametrize("elems", [[], [5], [1, 2, 3], [9, 10, 11], [1, 2, 4, 8, 18, 23]])
def test_naive_matches_fast_on_named_cases(elems):
    assert triples(weak_violations_naive(IntSet(elems))) == triples(weak_violations(IntSet(elems)))


# --- strong sum checks --------------------------------------------------


def test_strong_catches_equal_operands():
    assert triples(strong_violations(IntSet([1, 2]))) == {(1, 1, 2)}


def test_strong_middle_block_clean():
    # 9 + 9 = 18 already exceeds 17
    assert strong_violations(IntSet(range(9, 18))) == []


def test_strong_new_subset_after_one_step():
    # the subset the first construction step creates, checked against a
    # direct pair scan written independently of the library
    elems = [22] + list(range(24, 44)) + [45]
    s = IntSet(elems)
    brute = {
        (a, b, a + b)
        for i, a in enumerate(elems)
        for b in elems[i:]
        if a + b in set(elems)
    }
    assert triples(strong_violations(s)) == brute == set()


def test_strong_superset_of_weak_example():
    s = IntSet([1, 2, 3, 6])
    assert triples(weak_violations(s)) <= triples(strong_violations(s))
    assert (3, 3, 6) in triples(strong_violations(s))


# --- condition 2: no a, 2a with a > 4 -----------------------------------


def test_condition2_clean_on_base(base):
    assert condition2_violations(base) == []


def test_condition2_smallest_double():
    p = Partition.from_subsets([(5, 10), (1, 2, 3, 4, 6, 7, 8, 9)])
    out = condition2_violations(p)
    assert [(v.subset_index, v.witness) for v in out] == [(1, (5, 10))]


def test_condition2_exempts_four():
    # 4, 8 sit together in the base partition's first subset on purpose
    p = Partition.from_subsets([(4, 8), (1, 2, 3, 5, 6, 7)])
    assert condition2_violations(p) == []


@given(st.lists(st.integers(0, 2), min_size=1, max_size=300))
def test_condition2_matches_set_membership(colours):
    # the halved mask (even binary digits) against a plain set, any width parity
    groups = [[v for v, c in enumerate(colours, 1) if c == k] for k in range(3)]
    p = Partition(tuple(IntSet(g) for g in groups), len(colours))
    expected = [
        (i, (a, 2 * a))
        for i, g in enumerate(groups, 1)
        for a in g
        if a > 4 and 2 * a in set(g)
    ]
    assert [(v.subset_index, v.witness) for v in condition2_violations(p)] == expected


@settings(deadline=None)
@given(st.sets(st.integers(1, 6000), min_size=1))
def test_condition2_matches_a_plain_scan_on_wide_sets(members):
    # one subset as wide as several halve() byte pairs, its complement the other
    n = max(members)
    rest = set(range(1, n + 1)) - members
    groups = [g for g in (members, rest) if g]
    p = Partition(tuple(IntSet(g) for g in groups), n)
    expected = [(i, (a, 2 * a)) for i, g in enumerate(groups, 1)
                for a in sorted(g) if a > 4 and 2 * a in g]
    assert [(v.subset_index, v.witness) for v in condition2_violations(p)] == expected


# --- condition 3: first-subset extension --------------------------------


def test_condition3_clean_on_base(base):
    assert condition3_violations(base) == []


def test_condition3_membership():
    p = Partition.from_subsets([(1, 5), (2, 3, 4)])
    kinds = [v.kind for v in condition3_violations(p)]
    assert kinds == ["condition3-membership"]


def test_condition3_can_fail_both_halves():
    # subset 1 holding 2 and n always breaks the sum half too: 2 + n = n + 2
    p = Partition.from_subsets([(1, 2, 5), (3, 4)])
    kinds = {v.kind for v in condition3_violations(p)}
    assert kinds == {"condition3-membership", "condition3-sumfree"}


def test_condition3_sumfree_breaks():
    # n = 5, extension element 7 = 3 + 4
    p = Partition.from_subsets([(3, 4), (1, 2, 5)])
    out = condition3_violations(p)
    assert [(v.kind, v.witness) for v in out] == [("condition3-sumfree", (3, 4, 7))]


def test_condition3_clean_after_one_step(base):
    p4, _ = construct_step(base)
    assert condition3_violations(p4) == []


# --- verify aggregation --------------------------------------------------


def test_verify_base_all_conditions_empty(base):
    report = verify(base, ConditionSet.all())
    assert report.passed
    assert report.checked_conditions == frozenset(
        {"well-formed", "weak-sum-free", "no-double", "seed-extension"}
    )


def test_verify_tags_subset_indices():
    p = Partition.from_subsets([(1, 2, 3), (4, 5)])
    report = verify(p, ConditionSet.condition1())
    assert [(v.kind, v.subset_index, v.witness) for v in report.violations] == [
        ("weak-sum", 1, (1, 2, 3))
    ]


def test_verify_partition_containing_small_triple():
    # any 3-subset split of 1..24 keeping {1,2,3} together fails condition 1
    rest = [v for v in range(4, 25)]
    p = Partition.from_subsets([(1, 2, 3, *rest[:7]), rest[7:14], rest[14:]])
    report = verify(p, ConditionSet.condition1())
    assert not report.passed
    assert (1, 2, 3) in triples(report.violations)


def test_verify_skips_conditions_on_malformed():
    broken = Partition((IntSet([1, 2]), IntSet([2, 3])), 3)
    report = verify(broken, ConditionSet.all())
    assert not report.passed
    assert report.checked_conditions == frozenset({"well-formed"})
    assert all(v.kind in ("not-a-partition", "empty-subset") for v in report.violations)


def test_verify_first_only_same_emptiness(base):
    assert verify(base, first_only=True).passed
    bad = Partition.from_subsets([(1, 2, 3), (4, 5)])
    full = verify(bad)
    first = verify(bad, first_only=True)
    assert not full.passed and not first.passed
    assert len(first.violations) == 1
    assert first.violations[0] in full.violations


def test_verify_report_sorted_deterministically():
    p = Partition.from_subsets([(2, 4, 6), (1, 3, 5, 8, 7)])
    report = verify(p, ConditionSet.condition1())
    keys = [violation_key(v) for v in report.violations]
    assert keys == sorted(keys)
    assert report.as_json() == verify(p, ConditionSet.condition1()).as_json()


def test_verify_two_adic_reports_exactly_the_analytic_condition3_witnesses():
    # subset k+1 holds the x in 1..n with 2-adic valuation k: each is weakly
    # sum-free and free of a/2a pairs, and the odd subset 1 fails condition 3
    # once per odd a with 3 <= a < (n+2)/2, through the sparse pair masks
    n = 2000
    groups = {}
    for x in range(1, n + 1):
        groups.setdefault((x & -x).bit_length(), []).append(x)
    p = Partition.from_subsets([groups[k] for k in sorted(groups)], n)
    report = verify(p)
    assert report.violations == tuple(
        Violation("condition3-sumfree", 1, (a, n + 2 - a, n + 2))
        for a in range(3, (n + 2) // 2, 2)
    )


def test_condition_set_parsing():
    assert ConditionSet.from_labels("all") == ConditionSet.all()
    c = ConditionSet.from_labels("1,3")
    assert c.weak_sum_free and c.seed_extension and not c.no_double
    with pytest.raises(ValueError):
        ConditionSet.from_labels("4")
    with pytest.raises(ValueError):
        ConditionSet(False, False, False)


# --- cross-checks and properties -----------------------------------------


@given(small_sets)
def test_fast_equals_naive(elems):
    s = IntSet(elems)
    assert triples(weak_violations(s)) == triples(weak_violations_naive(s))


@given(small_sets, small_sets)
def test_weak_monotone_under_subset(a, b):
    small = IntSet(a)
    large = small.union(IntSet(b))
    assert triples(weak_violations(small)) <= triples(weak_violations(large))


@given(small_sets)
def test_strong_contains_weak(elems):
    s = IntSet(elems)
    assert triples(weak_violations(s)) <= triples(strong_violations(s))


@given(small_sets)
def test_weak_triples_are_ordered_sums(elems):
    for v in weak_violations(IntSet(elems)):
        a, b, c = v.witness
        assert a < b < c
        assert a + b == c


def test_equivalence_on_random_dense_sets():
    rng = random.Random(99)
    for _ in range(300):
        k = rng.randint(0, 120)
        s = IntSet(rng.sample(range(1, 2001), k))
        assert triples(weak_violations(s)) == triples(weak_violations_naive(s))


# --- run-wise probes against the per-element probe and the naive scan ----


@st.composite
def run_unions(draw):
    """Unions of integer intervals, the shape construction outputs have,
    with the cases the run probe must get right planted on purpose."""
    top = draw(st.integers(min_value=3, max_value=600))
    elems = set()
    for lo, length in draw(st.lists(st.tuples(st.integers(1, top), st.integers(0, 80)),
                                    max_size=8)):
        elems.update(range(lo, min(lo + length, top) + 1))
    elems.update(draw(st.lists(st.integers(1, top), max_size=6)))  # singleton runs
    half = (top - 1) // 2
    if draw(st.booleans()):  # a run crossing (max-1)/2
        width = draw(st.integers(0, 40))
        elems.update(range(max(1, half - width), half + width + 1))
        elems.add(top)
    if draw(st.booleans()):  # a run [a, 2a]: its only sum inside is the double a+a
        a = draw(st.integers(1, max(1, top // 2)))
        elems.update(range(a, 2 * a + 1))
    if draw(st.booleans()):  # a true triple
        a = draw(st.integers(1, max(1, half)))
        b = draw(st.integers(a + 1, max(a + 1, top - a)))
        elems.update((a, b, a + b))
    return IntSet(elems)


def operand_mask(S):
    """Members a of S with 2a < max(S): the operands that can open a triple."""
    return IntSet(a for a in S if 2 * a < S.max).mask


def both_paths(S, first_only=False):
    """(run path, per-element path) over S's candidate operands."""
    if not S:
        return [], []
    low = operand_mask(S)
    return (verifier._weak_by_runs(S.mask, low, first_only),
            verifier._weak_by_elements(S.mask, bit_positions(low), first_only))


@settings(deadline=None)  # the naive O(|S|^2) scan dominates
@given(run_unions())
def test_run_path_equals_element_path_and_naive(S):
    by_runs, by_elements = both_paths(S)
    naive = weak_violations_naive(S)
    assert by_runs == by_elements == naive == weak_violations(S)


@settings(deadline=None)  # the naive O(|S|^2) scan dominates
@given(run_unions())
def test_run_path_first_only_equal(S):
    first_runs, first_elements = both_paths(S, first_only=True)
    assert first_runs == first_elements == weak_violations(S, first_only=True)
    assert first_runs == weak_violations_naive(S)[:1]


def old_condition3(p, weak=weak_violations_naive):
    """Condition 3 as a weak check of S1 + {n+2}, by the naive scan unless
    told otherwise."""
    s1 = p.subset(1)
    out = [replace(v, kind="condition3-sumfree", subset_index=1)
           for v in weak(s1.union([p.n + 2]))]
    if p.n in s1:
        out.append(Violation("condition3-membership", 1, (p.n,)))
    return out


@settings(deadline=None)  # the naive O(|S|^2) scan dominates
@given(run_unions(), st.integers(min_value=0, max_value=3))
def test_condition3_on_run_unions(S, extra):
    assume(S)
    n = S.max + extra
    rest = IntSet(range(1, n + 1)).mask & ~S.mask
    p = Partition((S, IntSet.from_mask(rest)) if rest else (S,), n)
    assert condition3_violations(p) == old_condition3(p)


@st.composite
def condition3_cases(draw):
    """A partition (S1, rest) of 1..n with scattered S1, odd or even n,
    often holding (n+2)/2, n, or all of 1..n (subset 1 alone)."""
    n = draw(st.integers(min_value=1, max_value=100))
    s1 = draw(st.sets(st.integers(min_value=1, max_value=n), min_size=1))
    if n % 2 == 0 and draw(st.booleans()):
        s1.add((n + 2) // 2)  # a + a = n+2 must not be reported
    if draw(st.booleans()):
        s1.add(n)
    if draw(st.integers(0, 9)) == 0:
        s1 = set(range(1, n + 1))
    S1 = IntSet(s1)
    rest = ((1 << (n + 1)) - 2) & ~S1.mask
    return Partition((S1, IntSet.from_mask(rest)) if rest else (S1,), n)


CONDITION3_SELECTIONS = (
    ConditionSet.all(),
    ConditionSet.from_labels("1,3"),
    ConditionSet.from_labels("3"),
    ConditionSet.from_labels("2,3"),
)


@settings(deadline=None)  # the naive O(|S|^2) scan dominates
@given(condition3_cases())
@example(Partition.from_subsets([(2, 3), (1, 4)], 4))  # 3 + 3 = n+2 only
@example(Partition.from_subsets([(1, 2, 3, 4, 5)], 5))  # subset 1 alone
@example(Partition.from_subsets([(4, 5, 6), (1, 2, 3)], 6))  # (n+2)/2 and n
@example(Partition.from_subsets([(3, 4, 7, 8), (1, 2, 5, 6, 9)], 9))  # 3 opens 3+4=7 and 3+8=11
@example(Partition.from_subsets([(7, 8), (1, 2, 3, 4, 5, 6)], 8))  # no pairs, n held
def test_derived_condition3_matches_the_old_formulation_and_verify(p):
    expected = old_condition3(p)
    assert condition3_violations(p) == expected
    ordered = sorted(expected, key=violation_key)  # as a report lists them
    weak_found = any(weak_violations_naive(sub) for sub in p.subsets)
    for which in CONDITION3_SELECTIONS:
        earlier = ((which.weak_sum_free and weak_found)
                   or (which.no_double and condition2_violations(p)))
        for first_only in (False, True):
            report = verify(p, which, first_only=first_only)
            part = [v for v in report.violations if v.kind.startswith("condition3")]
            if first_only and earlier:  # verify stopped before condition 3
                assert part == [] and "seed-extension" not in report.checked_conditions
                continue
            assert "seed-extension" in report.checked_conditions
            assert part == ordered[:1 if first_only else None]


def random_colouring(seed=1, s=12, n=8000):
    rng = random.Random(seed)
    colours = [[] for _ in range(s)]
    for x in range(1, n + 1):
        colours[rng.randrange(s)].append(x)
    return Partition.from_subsets(colours, n)


def test_verify_reuses_subset1_weak_list_with_the_same_reports(monkeypatch):
    two_adic = Partition.from_subsets([range(1 << k, 50001, 2 << k) for k in range(16)], 50000)
    chain = iterate(base_partition(), 9)[-1][0]
    partitions = (two_adic, chain, random_colouring(n=3000))

    def reports():
        return [verify(p, first_only=f) for p in partitions for f in (False, True)]

    reused = reports()
    calls = []
    weak = verifier.weak_violations
    monkeypatch.setattr(verifier, "weak_violations",
                        lambda S, **kw: calls.append(S) or weak(S, **kw))
    for p in partitions:  # one weak check per subset, none again for condition 3
        calls.clear()
        verify(p)
        assert calls == list(p.subsets)
    # without the reuse: condition 3 asks for subset 1's list again
    derived = verifier._condition3
    monkeypatch.setattr(verifier, "_condition3",
                        lambda p, _s1: derived(p, weak(p.subset(1))))
    assert reports() == reused
    assert len(reused[0].violations) == 12499 and reused[2].passed
    # and the full reports match condition 3 as a weak check of S1 + {n+2}
    for k, p in enumerate(partitions):
        head = verify(p, ConditionSet.from_labels("1,2"))
        assert reused[2 * k] == ViolationReport.build(
            [*head.violations, *old_condition3(p, weak)],
            head.checked_conditions | {"seed-extension"})


def _weak_by_elements_only(S, *, first_only=False, subset_index=None):
    if not S:
        return []
    return verifier._weak_by_elements(S.mask, bit_positions(operand_mask(S)), first_only,
                                      subset_index)


def test_seven_step_chain_same_report_through_both_paths(monkeypatch):
    p = iterate(base_partition(), 7)[-1][0]
    assert p.n == 44834
    # moving 1 into the last subset breaks every run there: 1 + x = x + 1
    subsets = list(p.subsets)
    subsets[0] = IntSet.from_mask(subsets[0].mask & ~2)
    subsets[-1] = subsets[-1].union([1])
    broken = Partition(tuple(subsets), p.n)

    run_calls = []
    by_runs = verifier._weak_by_runs
    monkeypatch.setattr(verifier, "_weak_by_runs",
                        lambda *args: run_calls.append(1) or by_runs(*args))
    reports = [verify(q, first_only=f) for q in (p, broken) for f in (False, True)]
    assert run_calls  # the cost rule sent the long-run subsets down the run path
    assert reports[0].passed and not reports[2].passed

    monkeypatch.setattr(verifier, "weak_violations", _weak_by_elements_only)
    assert [verify(q, first_only=f) for q in (p, broken) for f in (False, True)] == reports


def test_cost_rule_keeps_scattered_sets_on_element_path(monkeypatch):
    def refuse(*args):
        raise AssertionError("run path taken on a scattered set")

    monkeypatch.setattr(verifier, "_weak_by_runs", refuse)
    odds = IntSet(range(1, 5001, 2))
    assert weak_violations(odds) == []
    rng = random.Random(3)
    scattered = IntSet(rng.sample(range(1, 4001), 300))
    assert weak_violations(scattered) == weak_violations_naive(scattered)


# --- block-sparse probes against the element path and the naive scan ----


@st.composite
def block_cases(draw):
    """(S, w): a set cut into w-bit blocks, w tiny so that a few hundred
    integers span many blocks, with triples planted across block borders:
    both operands in one block (i = j), in neighbouring blocks (j = i+1),
    and sums that land in block i+j+1 rather than i+j."""
    w = draw(st.sampled_from([8, 64]))
    blocks = draw(st.integers(min_value=2, max_value=24))
    top = blocks * w
    elems = set(draw(st.lists(st.integers(1, top), max_size=40)))
    for lo, length in draw(st.lists(st.tuples(st.integers(1, top), st.integers(0, 3 * w)),
                                    max_size=3)):
        elems.update(range(lo, min(lo + length, top) + 1))
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, max(0, blocks // 2 - 1)))
        j = i + draw(st.integers(0, 1))
        a = draw(st.integers(max(1, i * w), i * w + w - 1))
        b = draw(st.integers(max(a + 1, j * w), max(a + 1, j * w + w - 1)))
        if draw(st.booleans()):  # push a + b over into block i+j+1
            b = max(b, (i + j + 1) * w - a)
        elems.update((a, b, a + b))
    return IntSet(elems), w


def block_path(S, w, first_only=False, subset_index=None):
    low = operand_mask(S)
    return verifier._weak_by_blocks(S.mask, verifier._block_plan(S.mask, low, w),
                                    first_only, subset_index)


@settings(deadline=None)  # the naive O(|S|^2) scan dominates
@given(block_cases(), st.sampled_from([None, 3]))
def test_block_path_equals_element_path_and_naive(case, index):
    S, w = case
    assume(S)
    by_elements = _weak_by_elements_only(S, subset_index=index)
    assert block_path(S, w, subset_index=index) == by_elements
    assert [replace(v, subset_index=None) for v in by_elements] == weak_violations_naive(S)
    first = block_path(S, w, first_only=True, subset_index=index)
    assert first == _weak_by_elements_only(S, first_only=True, subset_index=index)
    assert first == by_elements[:1]


def test_block_path_finds_triples_across_block_borders():
    w = 8
    cases = [
        (1, 5, 6),     # i = j = 0, sum in block 0
        (3, 6, 9),     # i = j = 0, sum in block i+j+1 = 1
        (2, 9, 11),    # j = i+1, sum in block i+j = 1
        (7, 15, 22),   # j = i+1, sum in block i+j+1 = 2
        (17, 30, 47),  # j = i+1 = 3, sum in block i+j = 5
        (20, 22, 42),  # i = j = 2, sum in block i+j+1 = 5
    ]
    for triple in cases:
        S = IntSet([*triple, 200])
        assert block_path(S, w) == [Violation("weak-sum", None, triple)]


def test_cost_rule_picks_each_path_on_a_twelve_subset_chain(monkeypatch):
    p = iterate(base_partition(), 9)[-1][0]
    taken = []
    for name in ("_weak_by_blocks", "_weak_by_runs", "_weak_by_elements"):
        path = getattr(verifier, name)
        monkeypatch.setattr(verifier, name,
                            lambda *args, _p=path, _n=name: taken.append(_n) or _p(*args))
    paths = []
    for sub in p.subsets:
        taken.clear()
        assert weak_violations(sub) == []
        paths.append(taken[0])
    # the Cantor-like subsets 1-4 by blocks, the long runs by runs, and the
    # one-run newest subset (a single candidate) by elements
    assert paths == ["_weak_by_blocks"] * 4 + ["_weak_by_runs"] * 7 + ["_weak_by_elements"]
    taken.clear()
    assert condition3_violations(p) == []
    assert taken[0] == "_weak_by_blocks"


_block_plan = verifier._block_plan


def test_cost_rule_keeps_small_and_scattered_sets_off_the_block_path(monkeypatch):
    def refuse(*args):
        raise AssertionError("block path taken")

    monkeypatch.setattr(verifier, "_weak_by_blocks", refuse)
    monkeypatch.setattr(verifier, "_block_plan", refuse)  # not even costed
    for seed in find_seeds(4, 40, limit=200):
        verify(seed)
    verify(random_colouring())
    # the 2-adic partition is wide enough to be costed, and stays off
    monkeypatch.setattr(verifier, "_block_plan", _block_plan)
    two_adic = Partition.from_subsets([range(1 << k, 50001, 2 << k) for k in range(16)], 50000)
    assert len(verify(two_adic).violations) == 12499


def _weak_by_blocks_only(S, *, first_only=False, subset_index=None):
    return block_path(S, 512, first_only, subset_index) if S else []


def test_ten_subset_chain_same_report_with_the_block_path_disabled(monkeypatch):
    p = iterate(base_partition(), 7)[-1][0]
    assert p.n == 44834
    subsets = list(p.subsets)
    subsets[0] = IntSet.from_mask(subsets[0].mask & ~2)
    subsets[-1] = subsets[-1].union([1])
    broken = Partition(tuple(subsets), p.n)

    def reports():
        return [verify(q, which, first_only=f) for q in (p, broken)
                for which in (ConditionSet.all(), ConditionSet.condition1())
                for f in (False, True)]

    expected = reports()
    assert expected[0].passed and not expected[4].passed
    block_calls = []
    by_blocks = verifier._weak_by_blocks
    monkeypatch.setattr(verifier, "_weak_by_blocks",
                        lambda *args: block_calls.append(1) or by_blocks(*args))
    monkeypatch.setattr(verifier, "BLOCK_MIN_BLOCKS", 10**9)
    assert reports() == expected
    assert not block_calls
    # and every subset, condition 3's included, through the block path alone
    monkeypatch.setattr(verifier, "weak_violations", _weak_by_blocks_only)
    assert reports() == expected
    assert block_calls


# --- _verify against a reference built from the naive checks ----------------

#: every selection ConditionSet accepts
ALL_SELECTIONS = tuple(
    ConditionSet(weak_sum_free=w, no_double=d, seed_extension=e)
    for w in (True, False) for d in (True, False) for e in (True, False) if w or d or e
)


def reference_verify(p, which, first_only):
    """verify's report from independent pieces: a set scan for
    well-formedness and for a/2a pairs, weak_violations_naive for
    condition 1 and old_condition3 for condition 3.  With first_only the
    checks stop at the first that finds anything, condition 1 counting
    per subset and keeping its first triple (smallest a, then smallest b),
    and the smallest violation found is kept."""
    checked = {"well-formed"}
    out = []
    if p.n < 1 or p.s < 1:
        out.append(Violation("not-a-partition", None))
    else:
        seen = set()
        for i, sub in enumerate(p.subsets, 1):
            if not sub.elements:
                out.append(Violation("empty-subset", i))
            for e in sub.elements:
                if e > p.n:
                    out.append(Violation("not-a-partition", i, (e,)))
                if e in seen:
                    out.append(Violation("not-a-partition", i, (e,)))
            seen.update(sub.elements)
        out += [Violation("not-a-partition", None, (e,))
                for e in range(1, p.n + 1) if e not in seen]
    if not out:
        stages = []
        if which.weak_sum_free:
            for i, sub in enumerate(p.subsets, 1):
                found = [replace(v, subset_index=i) for v in weak_violations_naive(sub)]
                stages.append(("weak-sum-free", found[:1] if first_only else found))
        if which.no_double:
            stages.append(("no-double", [
                Violation("double-element", i, (a, 2 * a))
                for i, sub in enumerate(p.subsets, 1) for a in sub.elements
                if a > 4 and 2 * a in set(sub.elements)]))
        if which.seed_extension:
            stages.append(("seed-extension", old_condition3(p)))
        for label, found in stages:
            checked.add(label)
            out += found
            if first_only and out:
                break
    if first_only:
        out = sorted(out, key=violation_key)[:1]
    return ViolationReport.build(out, checked)


#: partitions with no weak-sum triple that break condition 2 or 3, or both
VERIFY_EXAMPLES = (
    Partition.from_subsets([(1, 2, 4, 7), (3, 5, 6, 10), (8, 9)], 10),  # 5, 10
    Partition.from_subsets([(1, 2, 4, 8, 18, 19), (3, 5, 6, 7, 20, 21), range(9, 18)], 21),
    Partition.from_subsets([(1, 2, 4, 8, 18, 21), (3, 5, 6, 7, 19, 20), range(9, 18)], 21),
)

#: clean seeds: every check passes
VERIFY_SEEDS = find_seeds(3, 21, 40) + find_seeds(4, 24, 40)


@st.composite
def verify_cases(draw):
    """A clean seed, a condition-1 witness of decide, an example that
    breaks condition 2 or 3, or a random colouring (mostly violating),
    then up to three edits: move a value (still well formed), or copy it,
    drop it, add one past the order, or empty a subset (malformed)."""
    source = draw(st.sampled_from(["seed", "witness", "example", "colouring"]))
    if source == "seed":
        p = draw(st.sampled_from(VERIFY_SEEDS))
    elif source == "witness":
        k = draw(st.integers(2, 3))
        p = decide(k, draw(st.integers(k, 8 if k == 2 else 13)))  # WS(2) = 8
    elif source == "example":
        p = draw(st.sampled_from(VERIFY_EXAMPLES + (base_partition(),)))
    else:
        n = draw(st.integers(1, 30))
        colours = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        masks = [0] * (max(colours) + 1)
        for v, c in enumerate(colours, 1):
            masks[c] |= 1 << v
        p = Partition(tuple(map(IntSet.from_mask, masks)), n)
    masks, n = [sub.mask for sub in p.subsets], p.n
    for edit in draw(st.lists(st.sampled_from(["move", "move", "copy", "drop", "past", "empty"]),
                              max_size=3)):
        j = draw(st.integers(0, len(masks) - 1))
        bit = 1 << draw(st.integers(1, n))
        if edit in ("move", "drop"):
            masks = [m & ~bit for m in masks]
        if edit in ("move", "copy"):
            masks[j] |= bit
        elif edit == "past":
            masks[j] |= 2 << n
        elif edit == "empty":
            masks[j] = 0
    return Partition(tuple(map(IntSet.from_mask, masks)), n)


@settings(deadline=None)
@given(verify_cases())
@example(base_partition())
def test_verify_equals_the_naive_reference_for_every_selection(p):
    for which in ALL_SELECTIONS:
        for first_only in (False, True):
            expected = reference_verify(p, which, first_only)
            assert verify(p, which, first_only=first_only) == expected
            violations, checked = verifier._verify(p, which, first_only)
            assert ViolationReport.build(violations, checked) == expected
            if first_only:
                assert len(violations) <= 1

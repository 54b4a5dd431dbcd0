from dataclasses import replace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from weakschur import (
    BoundSequence,
    ConditionSet,
    IntSet,
    Partition,
    SeedConditionError,
    base_partition,
    bound,
    bound_table,
    condition3_violations,
    construct_step,
    find_seeds,
    iterate,
    strong_violations,
    validate_seed,
    verify,
)
from weakschur.construct import _require_seed, _seed_rule_violations
from weakschur.intset import reflect
from weakschur.partition import VIOLATION_KINDS, ConstructionTrace, Violation, ViolationReport

CHAIN_ORDERS = [62, 185, 554, 1661, 4982, 14945, 44834, 134501, 403502]


# --- base partition -------------------------------------------------------


def test_base_partition_contents(base):
    assert base.s == 3
    assert base.n == 21
    assert base.subset(1) == IntSet([1, 2, 4, 8, 18])
    assert base.subset(2) == IntSet([3, 5, 6, 7, 19, 20, 21])
    assert base.subset(3) == IntSet(range(9, 18))


def test_base_partition_passes_everything(base):
    assert verify(base, ConditionSet.all()).passed


# --- single step ----------------------------------------------------------


def test_step_from_base_exact_subsets(base):
    p4, trace = construct_step(base)
    assert p4.s == 4
    assert p4.n == 62
    assert p4.subset(1) == IntSet([1, 2, 4, 8, 18, 23, 44, 49, 59])
    assert p4.subset(4) == IntSet([22, *range(24, 44), 45])
    assert trace.injected == (23, 44)
    assert trace.input_order == 21
    assert trace.output_order == 62
    assert verify(p4, ConditionSet.all()).passed


def test_step_trace_reflections(base):
    _, trace = construct_step(base)
    # 3*21+4 = 67 minus each element above 4, per subset
    assert tuple(r.elements for r in trace.reflected_per_subset) == (
        (49, 59),                      # 67-18, 67-8
        (46, 47, 48, 60, 61, 62),      # 67-21.. and 67-7..
        tuple(range(50, 59)),          # 67-17 .. 67-9
    )
    assert trace.new_subset == IntSet([22, *range(24, 44), 45])


def test_step_injected_lands_in_subset_one(base):
    p = base
    for _ in range(3):
        p, trace = construct_step(p)
        assert trace.injected == (trace.input_order + 2, 2 * trace.input_order + 2)
        assert trace.injected[0] in p.subset(1)
        assert trace.injected[1] in p.subset(1)


def test_step_output_order_lands_in_subset_two(base):
    # 5 lives in subset 2 of the base, so 3m+4-5 = 3m-1 = n' does too,
    # keeping n' out of subset 1 on every step of this chain
    p = base
    for _ in range(4):
        p, _ = construct_step(p)
        assert p.n in p.subset(2)
        assert p.n not in p.subset(1)


def test_step_reflection_covers_upper_block(base):
    p, trace = construct_step(base)
    m = trace.input_order
    reflected = sorted(x for block in trace.reflected_per_subset for x in block)
    assert reflected == list(range(2 * m + 4, 3 * m))
    # each reflected value sits in exactly one output subset
    for x in reflected:
        owners = [i for i in range(1, p.s + 1) if x in p.subset(i)]
        assert len(owners) == 1


def test_step_subsets_only_grow(base):
    p = base
    for _ in range(3):
        q, _ = construct_step(p)
        for i in range(1, p.s + 1):
            assert set(p.subset(i)) <= set(q.subset(i))
        p = q


def test_step_new_subset_strongly_sum_free(base):
    p = base
    for _ in range(4):
        p, trace = construct_step(p)
        assert strong_violations(trace.new_subset) == []


def test_step_rejects_non_seed():
    bad = Partition.from_subsets([(1, 2, 3), (4, 5)])
    with pytest.raises(SeedConditionError, match="condition 1"):
        construct_step(bad)


def test_step_rejects_condition3_failure():
    # conditions 1 and 2 hold but n sits in subset 1
    p = Partition.from_subsets([(1, 2, 5), (3, 4)])
    with pytest.raises(SeedConditionError, match="condition 3"):
        construct_step(p)


@pytest.mark.parametrize("subsets,failed", [
    ([(1, 2, 3), (4, 5)], "condition 1 (weak sum-freeness)"),
    ([(6, 8, 9), (3, 4, 5, 10), (1, 2, 7)], "condition 2 (no a,2a pair with a > 4)"),
    ([(6, 7, 9, 10), (2, 4, 8), (1, 3, 5, 11)], "condition 3 (subset 1 extension)"),
    ([(1, 2, 5), (3, 4)], "condition 3 (order in subset 1)"),
    # several conditions fail: the lowest is named, then the first in report order
    ([(1, 2, 3, 5), (4,)], "condition 1 (weak sum-freeness)"),
    ([(6, 7, 8), (1, 2, 4, 9), (3, 5, 10, 11)], "condition 2 (no a,2a pair with a > 4)"),
    ([(1, 3, 7, 11), (2, 5, 9, 10), (4, 6, 8)], "condition 2 (no a,2a pair with a > 4)"),
    ([(1, 2, 5, 12), (6, 7, 8, 9, 10), (3, 4, 11)], "condition 3 (order in subset 1)"),
    ([(1,), (2,)], "minimum order 4"),
    ([(1, 6), (2, 3, 9, 10), (4, 5, 7, 8)],
     "injected-double guard ((n+2)/2 outside subset 1)"),
])
def test_step_names_the_failed_condition(subsets, failed):
    with pytest.raises(SeedConditionError) as e:
        construct_step(Partition.from_subsets(subsets))
    assert e.value.failed == failed
    assert str(e.value) == f"cannot extend partition: {failed} fails"


@pytest.mark.parametrize("subsets,violation", [
    ([(1, 6), (2, 3, 9, 10), (4, 5, 7, 8)], Violation("injected-double", 1, (6, 12))),
    ([(1,), (2,)], Violation("order-too-small", None, (2,))),
])
def test_step_error_carries_the_validate_seed_report(subsets, violation):
    p = Partition.from_subsets(subsets)
    with pytest.raises(SeedConditionError) as e:
        construct_step(p)
    assert e.value.report == ViolationReport.build([violation], {
        "well-formed", "weak-sum-free", "no-double", "seed-extension", "look-ahead",
    })
    assert e.value.report == validate_seed(p)


def test_step_names_well_formedness():
    with pytest.raises(SeedConditionError, match="^cannot extend partition: "
                       "well-formedness fails$"):
        construct_step(Partition((IntSet([1, 2]), IntSet([2, 3])), 3))


def test_step_rejects_tiny_orders():
    p = Partition.from_subsets([(1,), (2,)])
    with pytest.raises(SeedConditionError, match="minimum order"):
        construct_step(p)


def test_step_accepts_order_four_seed():
    p = Partition.from_subsets([(1, 2), (3, 4)])
    out, _ = construct_step(p)
    assert out.n == 11
    assert verify(out, ConditionSet.all()).passed


# --- the mask-arithmetic step against the element-wise reference -----------


def _step_reference(p):
    """The step built element by element from sorted tuples: an
    independent reference for construct_step's mask arithmetic."""
    _require_seed(p)
    m = p.n
    r = 3 * m + 4
    reflected = tuple(
        tuple(r - a for a in reversed(sub.elements) if a > 4) for sub in p.subsets
    )
    first = p.subsets[0].elements + (m + 2, 2 * m + 2) + reflected[0]
    newcomer = (m + 1,) + tuple(range(m + 3, 2 * m + 2)) + (2 * m + 3,)
    subsets = (
        IntSet(first),
        *(IntSet(p.subsets[i].elements + reflected[i]) for i in range(1, p.s)),
        IntSet(newcomer),
    )
    out = Partition(subsets, 3 * m - 1)
    out.validate()
    trace = ConstructionTrace(
        input_order=m,
        output_order=3 * m - 1,
        injected=(m + 2, 2 * m + 2),
        reflected_per_subset=reflected,
        new_subset=subsets[-1],
    )
    return out, trace


def _decoded(step):
    """A construct_step result with each trace reflection decoded to the
    sorted tuple the reference builds."""
    out, trace = step
    reflected = tuple(r.elements for r in trace.reflected_per_subset)
    return out, replace(trace, reflected_per_subset=reflected)


def test_step_matches_reference_along_base_chain(base):
    p = base
    for _ in range(7):  # s = 4 .. 10, up to order 44834
        out, trace = construct_step(p)
        assert _decoded((out, trace)) == _step_reference(p)
        p = out
    assert (p.s, p.n) == (10, 44834)


def test_step_matches_reference_from_searched_seeds():
    seeds = find_seeds(4, 40, 200)
    assert len(seeds) == 200
    for seed in seeds:
        assert _decoded(construct_step(seed)) == _step_reference(seed)


@given(st.sets(st.integers(1, 400)), st.integers(0, 50))
@example(set(), 1)
@example({1, 2, 3, 4}, 1)
@example({5, 9}, 1)  # a = r - 1 = 9 reflects to 1
@example({5, 9}, 0)  # a = r = 9 reflects to 0
@example({5, 16}, 0)  # 3 bytes hold 24 bits, past r + 1 = 17: the shift goes right
@example({5, 15}, 0)  # 2 bytes hold exactly r + 1 = 16 bits: no shift
@example({5, 400}, 50)  # 51 bytes, r + 1 = 451: the shift goes left
def test_reflect_matches_set_definition(members, extra):
    r = max(members, default=0) + extra
    mask = IntSet(members).mask & -32  # the step reflects only a > 4
    assert reflect(mask, r) == sum(1 << (r - a) for a in members if a > 4)


# --- iteration --------------------------------------------------------------


def test_iterate_zero_steps(base):
    assert iterate(base, 0) == []


def test_iterate_four_steps_orders(base):
    chain = iterate(base, 4)
    assert [p.n for p, _ in chain] == CHAIN_ORDERS[:4]
    assert [p.s for p, _ in chain] == [4, 5, 6, 7]


def test_iterate_rejects_negative(base):
    with pytest.raises(ValueError):
        iterate(base, -1)


def test_induction_holds_on_searched_clean_seeds():
    """iterate guards a clean seed once and trusts the step after that, so
    the step must keep every output clean: each unguarded chain equals the
    guarded one, and validate_seed reports nothing on any output."""
    seeds = [seed for s in range(1, 5) for n in range(5, 41) for seed in find_seeds(s, n, 6)]
    assert len(seeds) > 300
    for seed in seeds:
        chain = iterate(seed, 3)
        p, guarded = seed, []
        for _ in range(3):
            p, trace = construct_step(p)
            guarded.append((p, trace))
        assert chain == guarded
        for out, _ in chain:
            assert validate_seed(out).violations == ()


def _count_seed_checks(monkeypatch):
    """Record the order of every partition the step guard checks."""
    orders = []

    def counted(p):
        orders.append(p.n)
        return validate_seed(p)

    monkeypatch.setattr("weakschur.construct.validate_seed", counted)
    return orders


def test_iterate_checks_a_clean_seed_once(base, monkeypatch):
    orders = _count_seed_checks(monkeypatch)
    chain = iterate(base, 5)
    assert [p.n for p, _ in chain] == CHAIN_ORDERS[:5]
    assert orders == [21]


def test_iterate_reports_failing_step(monkeypatch):
    # passes validate_seed except for the advisory, so exactly one step works
    orders = _count_seed_checks(monkeypatch)
    p = Partition.from_subsets([(1, 5), (2, 3, 6), (4,)])
    chain = iterate(p, 1)
    assert chain[0][0].n == 17
    assert orders == [6]
    orders.clear()
    with pytest.raises(SeedConditionError) as e:
        iterate(p, 3)
    assert e.value.step == 1
    assert "condition 3" in str(e.value)
    # the advisory keeps the guard on, so the step-1 input is checked too
    assert orders == [6, 17]


def test_construct_step_checks_every_call(base, monkeypatch):
    orders = _count_seed_checks(monkeypatch)
    p = base
    for _ in range(3):
        p, _ = construct_step(p)
    assert orders == [21, 62, 185]


def test_theorem_property_along_chain(base):
    # output keeps satisfying everything the input did, step after step
    p = base
    for _ in range(5):
        p, _ = construct_step(p)
        assert verify(p, ConditionSet.all()).passed


# --- seed validation ---------------------------------------------------------


def test_validate_seed_base_is_clean(base):
    report = validate_seed(base)
    assert report.passed
    assert "look-ahead" in report.checked_conditions


def test_validate_seed_advisory_when_five_in_subset_one():
    p = Partition.from_subsets([(5,), (1, 2, 7), (3, 4, 6)])
    report = validate_seed(p)
    assert [v.kind for v in report.violations] == ["advisory-lookahead"]
    assert report.blocking() == ()
    # the advisory is a real prediction: the next partition fails condition 3
    p2, _ = construct_step(p)
    assert p2.n == 20
    assert 20 in p2.subset(1)
    kinds = [v.kind for v in condition3_violations(p2)]
    assert "condition3-membership" in kinds


def test_validate_seed_advisories_can_stack():
    # 5 in subset 1 is both the next-order element and the partner of the
    # injected 2n+2 in the extension sum
    p = Partition.from_subsets([(1, 5), (2, 3, 6), (4,)])
    report = validate_seed(p)
    kinds = {v.kind for v in report.violations}
    assert kinds == {"advisory-lookahead", "advisory-chain-break"}
    assert report.blocking() == ()


def test_validate_seed_blocks_injected_double():
    # n = 10 even, (n+2)/2 = 6 in subset 1: all conditions hold, yet one
    # step would put 6 and its double 12 together and even break weak
    # sum-freeness via the reflection of 6
    p = Partition.from_subsets([(1, 6), (2, 3, 9, 10), (4, 5, 7, 8)])
    assert verify(p, ConditionSet.all()).passed
    report = validate_seed(p)
    assert [v.kind for v in report.violations] == ["injected-double"]
    assert report.blocking() != ()
    with pytest.raises(SeedConditionError, match="injected-double"):
        construct_step(p)


def test_validate_seed_chain_break_when_order_minus_one_in_subset_one():
    p = Partition.from_subsets([(1, 6), (2, 3, 7), (4, 5)])
    report = validate_seed(p)
    assert {v.kind for v in report.violations} == {"advisory-chain-break"}
    # prediction: one step fine, the next refused on condition 3
    chain = iterate(p, 1)
    assert chain[0][0].n == 20
    with pytest.raises(SeedConditionError) as e:
        iterate(p, 2)
    assert e.value.step == 1
    assert "condition 3" in str(e.value)


@given(st.sets(st.integers(1, 300)))
def test_distance_three_advisories_match_set_membership(first):
    # the shifted-mask test against a plain set
    n = max(first, default=1) + 1
    rest = [v for v in range(1, n + 1) if v not in first]
    p = Partition((IntSet(first), IntSet(rest)), n)
    pairs = [
        v.witness
        for v in _seed_rule_violations(p)
        if v.kind == "advisory-chain-break" and v.witness[-1] - v.witness[0] == 3
    ]
    assert pairs == [(d - 3, d) for d in sorted(first) if d > 4 and d - 3 in first]


def test_validate_seed_chain_break_on_distance_three_pair():
    # 2 and 5 in subset 1: after one step the reflection of 5 pairs with 2
    # to hit the new extension sum
    p = Partition.from_subsets([(2, 5), (1, 3, 9), (4, 6, 7, 8)])
    assert verify(p, ConditionSet.all()).passed
    kinds = {v.kind for v in validate_seed(p).violations}
    assert "advisory-chain-break" in kinds
    q, _ = construct_step(p)
    assert not verify(q, ConditionSet.all()).passed


def test_validate_seed_minimal_partition():
    report = validate_seed(Partition.from_subsets([(1, 2)]))
    kinds = {v.kind for v in report.violations}
    # {1,2,4} is weakly sum-free, but the order 2 sits in subset 1
    assert "condition3-sumfree" not in kinds
    assert "condition3-membership" in kinds


def test_validate_seed_flags_small_orders():
    report = validate_seed(Partition.from_subsets([(1,), (2,)]))
    assert "order-too-small" in {v.kind for v in report.violations}


def test_validate_seed_on_malformed_partition():
    broken = Partition((IntSet([1]), IntSet([1])), 1)
    report = validate_seed(broken)
    assert not report.passed
    assert "look-ahead" not in report.checked_conditions


# --- bounds -------------------------------------------------------------------


@pytest.mark.parametrize(
    "s,expected", [(3, 21), (4, 62), (5, 185), (6, 554), (7, 1661), (12, 403502)]
)
def test_bound_values(s, expected):
    assert bound(s) == expected


def test_bound_rejects_small_s():
    with pytest.raises(ValueError):
        bound(2)


def test_bound_closed_form_matches_recurrence():
    m = 21
    for s in range(3, 41):
        assert bound(s) == m
        m = 3 * m - 1


def test_bound_exact_at_depth_sixty():
    # far beyond 64-bit range; exact integers keep this checkable
    assert bound(60) == (41 * 3**57 + 1) // 2
    assert 3 * bound(59) - 1 == bound(60)


def test_bound_matches_physical_chain(base):
    chain = iterate(base, 5)
    for k, (p, _) in enumerate(chain):
        assert p.n == bound(4 + k)


def test_bound_table_contents():
    seq = bound_table(7)
    assert seq.start_s == 3
    assert seq.orders == (21, 62, 185, 554, 1661)
    with pytest.raises(ValueError):
        bound_table(2)


def test_bound_sequence_enforces_recurrence():
    with pytest.raises(ValueError):
        BoundSequence(3, (21, 63))
    assert BoundSequence(3, (21, 62)).as_json() == {"start_s": 3, "orders": [21, 62]}


# --- every kind validate_seed reports ---------------------------------------

#: partitions that, between them, show every kind validate_seed reports
SEED_EXAMPLES = (
    base_partition(),
    Partition.from_subsets([(1, 2), (3, 4, 5)], 5),  # clean
    Partition.from_subsets([(1, 2, 3), (4,)], 4),  # weak-sum
    Partition.from_subsets([(1, 2, 4, 7), (3, 5, 6, 10), (8, 9)], 10),  # double-element
    # 4 + 19 = n+2 in subset 1, and the order n in subset 1
    Partition.from_subsets([(1, 2, 4, 8, 18, 19), (3, 5, 6, 7, 20, 21), range(9, 18)], 21),
    Partition.from_subsets([(1, 2, 4, 8, 18, 21), (3, 5, 6, 7, 19, 20), range(9, 18)], 21),
    Partition((IntSet([1, 2]), IntSet()), 2),  # empty-subset
    Partition((IntSet([1, 2]), IntSet([2, 3])), 3),  # not-a-partition
    Partition.from_subsets([(1,), (2,)], 2),  # order-too-small
    Partition.from_subsets([(1, 2), (3, 4)], 4),  # advisory-chain-break at MIN_ORDER
    Partition.from_subsets([(1, 3, 5), (2, 4, 7), (6,)], 7),  # advisory-lookahead
    Partition.from_subsets([(1, 2, 5), (3, 4, 6, 8), (7,)], 8),  # injected-double
    # the advisory rows 6 and n-1, and a pair at distance GAP
    Partition.from_subsets([(1, 2, 6), (3, 4, 5), (7, 8)], 8),
    Partition.from_subsets([(1, 2, 4), (3, 5)], 5),
    Partition.from_subsets([(1, 2, 4, 7), (3, 5, 6), (8, 9, 10)], 10),
)


def test_seed_examples_show_every_seed_kind():
    kinds = {v.kind for p in SEED_EXAMPLES for v in validate_seed(p).violations}
    assert kinds == set(VIOLATION_KINDS) - {"strong-sum"}
    assert not validate_seed(SEED_EXAMPLES[1]).violations
    breaks = {(p.n, v.witness) for p in SEED_EXAMPLES for v in validate_seed(p).violations
              if v.kind == "advisory-chain-break"}
    assert {(8, (6,)), (5, (4, 12)), (10, (4, 7)), (4, (10,))} <= breaks

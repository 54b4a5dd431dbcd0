import functools
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weakschur import (
    IntSet,
    InvalidPartitionError,
    Partition,
    Violation,
    WspFormatError,
    base_partition,
    find_seeds,
    iterate,
    parse_partition,
    serialize_partition,
    serialize_partitions,
    well_formed_violations,
)
from weakschur import partition
from weakschur.intset import bit_positions, run_bounds
from weakschur.partition import VIOLATION_KINDS

from conftest import BASE_TEXT

MINIMAL_TEXT = "wsp 1\ns=1 n=2\n1: 1 2\n"


def test_parse_minimal():
    p = parse_partition(MINIMAL_TEXT)
    assert p.s == 1
    assert p.n == 2
    assert p.subset(1) == IntSet([1, 2])


def test_parse_base_text(base):
    assert parse_partition(BASE_TEXT) == base


def test_parse_accepts_file_object(tmp_path):
    path = tmp_path / "p.wsp"
    path.write_text(MINIMAL_TEXT, encoding="ascii")
    with open(path, encoding="ascii") as fh:
        assert parse_partition(fh) == parse_partition(MINIMAL_TEXT)


def test_serialize_minimal():
    p = Partition.from_subsets([(1, 2)])
    assert serialize_partition(p) == MINIMAL_TEXT


def test_serialize_base_subset_two_line(base):
    assert "2: 3 5 6 7 19 20 21\n" in serialize_partition(base)


def test_round_trip_base(base):
    assert parse_partition(serialize_partition(base)) == base


def test_round_trip_large_chain_partition(base):
    # identity survives at the scale the construction actually produces
    p7 = iterate(base, 4)[-1][0]
    assert p7.n == 1661
    text = serialize_partition(p7)
    assert serialize_partition(parse_partition(text)) == text


def test_parse_duplicate_across_subsets():
    with pytest.raises(WspFormatError) as e:
        parse_partition("wsp 1\ns=2 n=3\n1: 1 3\n2: 1 2\n")
    assert "duplicate integer 1" in str(e.value)
    assert e.value.line == 4


def test_parse_duplicate_within_subset():
    with pytest.raises(WspFormatError, match="duplicate integer 2"):
        parse_partition("wsp 1\ns=1 n=2\n1: 1 2 2\n")


def test_parse_gap_in_cover():
    with pytest.raises(WspFormatError, match="integer 2 missing"):
        parse_partition("wsp 1\ns=1 n=3\n1: 1 3\n")


def test_parse_empty_subset_line():
    with pytest.raises(WspFormatError, match="subset 2 is empty"):
        parse_partition("wsp 1\ns=2 n=2\n1: 1 2\n2:\n")


def test_parse_missing_subset_line():
    with pytest.raises(WspFormatError, match="unexpected end of input"):
        parse_partition("wsp 1\ns=2 n=3\n1: 1 2\n")


def test_parse_bad_version():
    with pytest.raises(WspFormatError) as e:
        parse_partition("wsp 2\ns=1 n=1\n1: 1\n")
    assert e.value.line == 1


def test_parse_bad_header():
    with pytest.raises(WspFormatError) as e:
        parse_partition("wsp 1\nn=1 s=1\n1: 1\n")
    assert e.value.line == 2


def test_parse_wrong_subset_index():
    with pytest.raises(WspFormatError, match="expected subset 1, found 2"):
        parse_partition("wsp 1\ns=1 n=1\n2: 1\n")


def test_parse_malformed_element():
    with pytest.raises(WspFormatError, match="malformed element 'x'"):
        parse_partition("wsp 1\ns=1 n=1\n1: x\n")


@pytest.mark.parametrize("token", ["1_0", "\u0662", "+2", "2\u00b2"])
def test_parse_rejects_non_ascii_digit_tokens(token):
    # int() alone would read '1_0' as 10 and the Arabic-Indic digit as 2
    with pytest.raises(WspFormatError, match="malformed element") as e:
        parse_partition(f"wsp 1\ns=1 n=10\n1: 1 {token} 3 4 5 6 7 8 9 10\n")
    assert e.value.line == 3


def test_parse_rejects_non_ascii_header_digits():
    with pytest.raises(WspFormatError, match="expected header"):
        parse_partition("wsp 1\ns=\u0661 n=2\n1: 1 2\n")


def test_parse_separators_are_spaces_or_tabs():
    assert parse_partition("wsp 1\ns=1 n=2\n1:\t1 \t 2\n") == parse_partition(MINIMAL_TEXT)
    with pytest.raises(WspFormatError, match="separated by spaces or tabs"):
        parse_partition("wsp 1\ns=1 n=2\n1: 1\u00a02\n")


@pytest.mark.parametrize("line", [
    "2: 3 5 6 7 19 20 21\u3000",  # trailing ideographic space, which str.strip() removes
    "2: 3 5 6 7 19 20 21\x85",  # trailing NEL, which str.splitlines() breaks on
    "2: 3 5 6 7\u2028 19 20 21",  # line separator inside the element list
])
def test_parse_line_rules_are_ascii_only(line):
    lines = BASE_TEXT.split("\n")
    lines[3] = line
    with pytest.raises(WspFormatError, match="separated by spaces or tabs") as e:
        parse_partition("\n".join(lines))
    assert e.value.line == 4


def test_parse_unicode_blank_line_is_not_blank():
    with pytest.raises(WspFormatError, match="unexpected trailing line") as e:
        parse_partition(MINIMAL_TEXT + "\u3000\n")
    assert e.value.line == 4


def test_parse_crlf_round_trips(base):
    crlf = BASE_TEXT.replace("\n", "\r\n")
    assert parse_partition(crlf) == base
    assert serialize_partition(parse_partition(crlf)) == BASE_TEXT


def test_parse_rejects_order_beyond_text_before_allocating():
    text = "wsp 1\ns=1 n=100000000\n1: 1\n"
    tracemalloc.start()
    try:
        with pytest.raises(WspFormatError, match="exceeds what") as e:
            parse_partition(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert e.value.line == 2
    assert peak < 1_000_000


def test_parse_rejects_header_past_int_digit_limit():
    with pytest.raises(WspFormatError, match="too large"):
        parse_partition(f"wsp 1\ns=1 n={'9' * 5000}\n1: 1\n")


def test_parse_element_out_of_range():
    with pytest.raises(WspFormatError, match="element 5 exceeds order 2"):
        parse_partition("wsp 1\ns=1 n=2\n1: 1 2 5\n")


def test_parse_trailing_line():
    with pytest.raises(WspFormatError, match="unexpected trailing line"):
        parse_partition(MINIMAL_TEXT + "4: 9\n")


def test_parse_skips_comments_and_blanks():
    text = "# generated\n\nwsp 1\n# header next\ns=1 n=2\n\n1: 1 2\n\n# done\n"
    assert parse_partition(text) == parse_partition(MINIMAL_TEXT)


def test_parse_tolerates_unsorted_elements_and_canonicalizes():
    messy = "wsp 1\ns=1 n=3\n1: 3 1 2\n"
    assert serialize_partition(parse_partition(messy)) == "wsp 1\ns=1 n=3\n1: 1 2 3\n"


def test_serialize_parse_idempotent_on_golden(golden_dir):
    for path in sorted(golden_dir.glob("*.wsp")):
        text = path.read_text(encoding="ascii")
        assert serialize_partition(parse_partition(text)) == text


def test_from_subsets_infers_n():
    p = Partition.from_subsets([(1, 3), (2,)])
    assert p.n == 3
    assert p.s == 2


def test_from_subsets_validates():
    with pytest.raises(InvalidPartitionError):
        Partition.from_subsets([(1, 3)])  # 2 missing


def test_subset_accessor_is_one_based(base):
    assert base.subset(1) == IntSet([1, 2, 4, 8, 18])
    with pytest.raises(IndexError):
        base.subset(0)
    with pytest.raises(IndexError):
        base.subset(4)


def test_well_formed_violations_cases():
    overlapping = Partition((IntSet([1, 2]), IntSet([2, 3])), 3)
    kinds = [(v.kind, v.subset_index, v.witness) for v in well_formed_violations(overlapping)]
    assert ("not-a-partition", 2, (2,)) in kinds

    missing = Partition((IntSet([1, 3]),), 3)
    kinds = [(v.kind, v.witness) for v in well_formed_violations(missing)]
    assert ("not-a-partition", (2,)) in kinds

    empty = Partition((IntSet([1]), IntSet()), 1)
    kinds = [v.kind for v in well_formed_violations(empty)]
    assert "empty-subset" in kinds

    stray = Partition((IntSet([1, 2, 9]),), 2)
    assert any(v.witness == (9,) for v in well_formed_violations(stray))

    assert well_formed_violations(base_partition()) == []


def well_formed_by_loop(p):
    """well_formed_violations as it stood before its mask test for the
    clean case: every partition through the loop that names violations."""
    out = []
    if p.n < 1 or p.s < 1:
        out.append(Violation("not-a-partition", None))
        return out
    full = (1 << (p.n + 1)) - 2  # bits 1..n
    seen = 0
    for i, sub in enumerate(p.subsets, 1):
        m = sub.mask
        if not m:
            out.append(Violation("empty-subset", i))
        for e in bit_positions(m & ~full):
            out.append(Violation("not-a-partition", i, (e,)))
        for e in bit_positions(m & seen):
            out.append(Violation("not-a-partition", i, (e,)))
        seen |= m
    for e in bit_positions(full & ~seen):
        out.append(Violation("not-a-partition", None, (e,)))
    out.sort(key=partition.violation_key)
    return out


#: edits that break a clean colouring in each way the mask test must catch
WELL_FORMED_EDITS = ("copy", "past", "empty", "drop", "swap")


@st.composite
def mask_partitions(draw):
    """Subset masks for orders -2..14 and 0..4 subsets: a colouring of
    1..n, clean unless a subset came out empty, then up to three edits.
    copy puts a value in a second subset (an overlap whose union is still
    bits 1..n, so the sizes add up past n), past adds a value above n,
    empty clears a subset, drop removes a value from every subset, swap
    exchanges two masks.  copy then drop, or past then drop, can make the
    sizes add up to n again with a union that is not bits 1..n."""
    n = draw(st.integers(-2, 14))
    s = draw(st.integers(0, 4))
    masks = [0] * s
    if s:
        for v in range(1, n + 1):
            masks[draw(st.integers(0, s - 1))] |= 1 << v
        for edit in draw(st.lists(st.sampled_from(WELL_FORMED_EDITS), max_size=3)):
            j = draw(st.integers(0, s - 1))
            v = draw(st.integers(1, max(n, 1)))
            if edit == "copy":
                masks[j] |= 1 << v
            elif edit == "past":
                masks[j] |= 1 << draw(st.integers(max(n, 0) + 1, max(n, 0) + 4))
            elif edit == "empty":
                masks[j] = 0
            elif edit == "drop":
                masks = [m & ~(1 << v) for m in masks]
            else:
                k = draw(st.integers(0, s - 1))
                masks[j], masks[k] = masks[k], masks[j]
    return Partition(tuple(IntSet.from_mask(m) for m in masks), n)


def _masks(*masks, n):
    return Partition(tuple(IntSet.from_mask(m) for m in masks), n)


@given(mask_partitions())
@example(base_partition())  # clean
@example(_masks(0b0110, 0b1100, n=3))  # an overlap, union still 1..3
@example(_masks(0b0110, 0b10000, n=3))  # 4 above n, 3 missing: sizes add up to n
@example(_masks(0b1110, 0, n=3))  # an empty subset
@example(_masks(0b1010, n=3))  # 2 missing
@example(_masks(0b10, n=0))
@example(_masks(0b10, n=-1))
@example(_masks(n=3))  # no subsets
def test_well_formed_mask_test_equals_the_loop(p):
    assert well_formed_violations(p) == well_formed_by_loop(p)


def test_validate_raises_with_details():
    bad = Partition((IntSet([1, 2]), IntSet([2, 3])), 3)
    with pytest.raises(InvalidPartitionError, match="duplicated"):
        bad.validate()


def test_validate_raises_on_every_call():
    # only a passed check is remembered: an ill-formed partition is checked
    # and refused each time
    bad = Partition((IntSet([1, 2]), IntSet([2, 3])), 3)
    calls = []
    check = partition.well_formed_violations

    def counted(p):
        calls.append(p)
        return check(p)

    with mock.patch.object(partition, "well_formed_violations", counted):
        for _ in range(3):
            with pytest.raises(InvalidPartitionError, match="duplicated"):
                bad.validate()
            with pytest.raises(InvalidPartitionError):
                serialize_partition(bad)
        good = Partition((IntSet([1, 2]), IntSet([3])), 3)
        good.validate()
        good.validate()
    assert calls == [bad] * 6 + [good]


def test_serialize_refuses_malformed():
    bad = Partition((IntSet([1, 3]),), 3)
    with pytest.raises(InvalidPartitionError):
        serialize_partition(bad)


@st.composite
def random_partitions(draw):
    n = draw(st.integers(min_value=1, max_value=60))
    s = draw(st.integers(min_value=1, max_value=min(n, 6)))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = random.Random(seed)
    # seed every subset with one element so none is empty, then spread the rest
    values = list(range(1, n + 1))
    rng.shuffle(values)
    groups = [[values[i]] for i in range(s)]
    for v in values[s:]:
        groups[rng.randrange(s)].append(v)
    return Partition(tuple(IntSet(g) for g in groups), n)


@given(random_partitions())
def test_round_trip_identity_property(p):
    assert parse_partition(serialize_partition(p)) == p


@given(random_partitions())
def test_random_valid_partitions_have_no_structural_violations(p):
    assert well_formed_violations(p) == []


# --- one writer for many partitions -------------------------------------


def plain_text(p):
    """The canonical text, one str() per element: the writer's reference."""
    lines = [f"{i}: {' '.join(map(str, sub))}\n" for i, sub in enumerate(p.subsets, 1)]
    return f"wsp 1\ns={p.s} n={p.n}\n" + "".join(lines)


@st.composite
def run_partitions(draw):
    """1..n cut into runs dealt to s subsets, n across 99|100 or 999|1000,
    so most subsets take the run path of the writer."""
    n = draw(st.integers(min_value=90, max_value=2500))
    s = draw(st.integers(min_value=1, max_value=4))
    masks = [0] * s
    lo = 1
    while lo <= n:
        stop = min(n + 1, lo + draw(st.integers(min_value=1, max_value=80)))
        masks[draw(st.integers(0, s - 1))] |= (1 << stop) - (1 << lo)
        lo = stop
    return Partition(tuple(IntSet.from_mask(m) for m in masks if m), n)


def grown(p):
    """p's subsets under order n+1, the new value alone in a last subset:
    every line of p again, with another number text."""
    return Partition((*p.subsets, IntSet([p.n + 1])), p.n + 1)


@settings(deadline=None)
@given(st.lists(st.one_of(random_partitions(), run_partitions(),
                          st.sampled_from([q for q, _ in iterate(base_partition(), 3)])),
                min_size=1, max_size=5),
       st.data())
def test_serialize_partitions_equals_one_at_a_time(ps, data):
    ps += [grown(p) for p in ps if data.draw(st.booleans())]
    # the same lines under other labels
    ps += [Partition(p.subsets[::-1], p.n) for p in ps if p.s > 1 and data.draw(st.booleans())]
    ps += data.draw(st.lists(st.sampled_from(ps), max_size=4))  # repeats
    texts = serialize_partitions(ps)
    assert texts == [serialize_partition(p) for p in ps] == [plain_text(p) for p in ps]


def test_serialize_partitions_refuses_any_malformed_partition(base):
    bad = Partition((IntSet([1, 3]),), 3)
    with pytest.raises(InvalidPartitionError):
        serialize_partitions([base, bad])
    assert serialize_partitions([]) == []


@pytest.mark.parametrize(
    "groups,n",
    [([[1, 2], [], [3, 4, 5, 6]], 6), ([[1, 2, 3], [3, 4], [5, 6]], 6),
     ([[1, 2], [4], [5, 6]], 6), ([[1, 2, 7], [3, 4], [5, 6]], 6), ([], 6), ([[1]], 0)],
    ids=["empty", "overlap", "gap", "above-n", "no-subsets", "order-0"],
)
def test_a_bad_leaf_is_refused_with_the_well_formed_report(groups, n):
    # the writer of search leaves checks their masks alone; a leaf that
    # fails gets the report a Partition with those subsets would
    masks = [IntSet(g).mask for g in groups]
    good = [IntSet([1, 2]).mask, IntSet([3, 4, 5, 6]).mask]
    with pytest.raises(InvalidPartitionError) as e:
        partition._serialize_leaves(n, [good, masks] if n == 6 else [masks])
    expected = well_formed_violations(Partition(tuple(IntSet(g) for g in groups), n))
    assert list(e.value.violations) == expected != []


# --- parser fuzzing: any text is a Partition or a WspFormatError ----------

_WSP_PIECES = st.sampled_from(
    ["wsp 1", "s=", "n=", ":", " ", "\t", "\n", "\r\n", "#", "0", "1", "2", "3", "9",
     "21", "_", "-", "+", "\u0662", "\u00a0", "\x0b", "\ufeff", "x", "99999"]
)


def _assert_partition_or_format_error(text):
    try:
        p = parse_partition(text)
    except WspFormatError as e:
        assert e.line is None or e.line >= 1
    else:
        assert isinstance(p, Partition)
        assert well_formed_violations(p) == []
        assert parse_partition(serialize_partition(p)) == p


@given(st.text())
def test_parse_fuzz_arbitrary_text(text):
    _assert_partition_or_format_error(text)


@given(st.lists(_WSP_PIECES, max_size=40).map("".join))
def test_parse_fuzz_wsp_like_text(body):
    _assert_partition_or_format_error("wsp 1\ns=1 n=3\n" + body)
    _assert_partition_or_format_error("wsp 1\n" + body)


@given(st.data())
def test_parse_fuzz_mutated_base(data):
    text = list(BASE_TEXT)
    for _ in range(data.draw(st.integers(1, 4))):
        i = data.draw(st.integers(0, len(text)))
        op = data.draw(st.sampled_from(["insert", "delete", "replace"]))
        piece = data.draw(_WSP_PIECES)
        if op == "insert":
            text[i:i] = piece
        elif i < len(text):
            text[i:i + 1] = piece if op == "replace" else ""
    _assert_partition_or_format_error("".join(text))


# --- violation kinds: one table behind describe() and is_advisory ----------

DESCRIBED = [
    ("weak-sum", 2, (1, 2, 3), "weak-sum: 1 + 2 = 3 in subset 2"),
    ("strong-sum", None, (3, 3, 6), "strong-sum: 3 + 3 = 6"),
    ("double-element", 1, (5, 10), "double-element: pair 5, 10 in subset 1"),
    ("condition3-sumfree", 1, (2, 21, 23), "condition3-sumfree: 2 + 21 = 23 in subset 1"),
    ("condition3-membership", 1, (21,),
     "condition3-membership: order 21 is a member in subset 1"),
    ("empty-subset", 3, (), "empty-subset: no elements in subset 3"),
    ("not-a-partition", None, (), "not-a-partition: bad structure"),
    ("not-a-partition", None, (7,), "not-a-partition: integer 7 is not covered"),
    ("not-a-partition", 2, (7,),
     "not-a-partition: element 7 duplicated or outside 1..n in subset 2"),
    ("order-too-small", None, (2,),
     "order-too-small: order 2 is below 4, the smallest the step extends"),
    ("injected-double", 1, (6, 12),
     "injected-double: 6 present, so the step would inject its double 12 in subset 1"),
    ("advisory-lookahead", 1, (5, 62),
     "advisory-lookahead: 5 present, so the next step would put 62 there in subset 1"),
    ("advisory-chain-break", 1, (2, 5), "advisory-chain-break: iteration provably "
     "stops a few steps out (involving 2, 5) in subset 1"),
    ("advisory-chain-break", 1, (44,), "advisory-chain-break: iteration provably "
     "stops a few steps out (involving 44) in subset 1"),
    ("something-else", 4, (1, 2), "something-else: 1 2 in subset 4"),
    # words that do not fit the witness give way to the bare witness, and
    # a % in a kind is text, not a pattern
    ("weak-sum", 1, (1, 2), "weak-sum: 1 2 in subset 1"),
    ("empty-subset", 2, (9,), "empty-subset: 9 in subset 2"),
    ("not-a-partition", 2, (), "not-a-partition: bad structure in subset 2"),
    ("advisory-chain-break", None, (), "advisory-chain-break: iteration provably "
     "stops a few steps out (involving )"),
    ("100%d", None, (7,), "100%d: 7"),
]


@pytest.mark.parametrize("kind,index,witness,text", DESCRIBED)
def test_describe_text_of_every_kind(kind, index, witness, text):
    v = Violation(kind, index, witness)
    assert v.describe() == str(v) == text
    assert v.is_advisory == kind.startswith("advisory-")


def test_described_kinds_cover_the_table():
    assert {k for k, *_ in DESCRIBED} - {"something-else", "100%d"} == set(VIOLATION_KINDS)


# --- serialize: runs cut from one number text, or element by element ------

@pytest.mark.parametrize("n", [1, 9, 10, 999, 1000, 1001, 1999, 2000, 2001,
                               10**6 - 1, 10**6, 1210505])
def test_number_text_equals_plain_join(n):
    assert partition._number_text(n) == " ".join(map(str, range(1, n + 1)))


number_text = functools.lru_cache(partition._number_text)


@st.composite
def run_masks(draw):
    """(mask, n): random runs within 1..n, some across a change of digit
    count (9|10, 99|100, ..., 999999|1000000) and some ending at n."""
    n = draw(st.sampled_from([40, 2345, 1000123]))
    mask = 0
    for _ in range(draw(st.integers(0, 12))):
        lo, length = draw(st.integers(1, n)), draw(st.integers(1, 300))
        mask |= ((1 << length) - 1) << lo
    for d in (10**k for k in range(1, 7)):
        if d <= n and draw(st.booleans()):
            below, above = draw(st.integers(1, min(d - 1, 40))), draw(st.integers(0, 40))
            mask |= ((1 << (below + above)) - 1) << (d - below)
    if draw(st.booleans()):
        mask |= (2 << n) - (1 << (n + 1 - draw(st.integers(1, min(n, 500)))))
    return mask & ((2 << n) - 2), n


@given(run_masks())
def test_run_path_equals_element_path(case):
    mask, n = case
    assert partition._runs_text(mask, number_text(n)) == " ".join(map(str, bit_positions(mask)))


def test_scattered_sets_stay_on_element_path(monkeypatch):
    def refuse(*args):
        raise AssertionError("run path taken on a scattered set")

    monkeypatch.setattr(partition, "_runs_text", refuse)
    seeds = find_seeds(4, 40, limit=200)
    assert len(seeds) == 200
    # subset k+1 holds the x in 1..50000 with 2-adic valuation k
    two_adic = Partition.from_subsets([range(1 << k, 50001, 2 << k) for k in range(16)], 50000)
    rng = random.Random(1)
    colours = [[] for _ in range(12)]
    for x in range(1, 8001):
        colours[rng.randrange(12)].append(x)
    coloured = Partition.from_subsets(colours, 8000)
    for p in (*seeds, two_adic, coloured):
        assert parse_partition(serialize_partition(p)) == p


def test_chain_output_same_text_by_runs_and_by_elements(monkeypatch):
    p = iterate(base_partition(), 7)[-1][0]
    run_calls = []
    by_runs = partition._runs_text
    monkeypatch.setattr(partition, "_runs_text",
                        lambda *args: run_calls.append(1) or by_runs(*args))
    text = serialize_partition(p)
    assert len(run_calls) == 8  # subsets 3..10; 1 and 2 hold 1 and 3 elements a run
    monkeypatch.setattr(partition, "_by_runs", lambda mask: False)
    assert serialize_partition(p) == text
    assert parse_partition(text) == p


# --- the run-sliced parse: the inverse of the run-sliced writer -----------


@st.composite
def run_heavy_partitions(draw):
    """Two or three subsets of 1..n, n up to about 10^6, whose first is
    mostly long runs: runs crossing 9|10, 99|100, ... (run_masks), runs that
    end at n, and single-element runs between the long ones."""
    mask, n = draw(run_masks())
    for _ in range(draw(st.integers(0, 8))):
        x = draw(st.integers(2, n - 1))
        mask = (mask | 1 << x) & ~(1 << (x - 1)) & ~(1 << (x + 1))
    rest = ((2 << n) - 2) & ~mask
    if draw(st.booleans()):  # a third subset: the top of the rest
        cut = draw(st.integers(1, n))
        subsets = [mask, rest & ((1 << cut) - 1), rest & ~((1 << cut) - 1)]
    else:
        subsets = [mask, rest]
    subsets = [IntSet.from_mask(m) for m in subsets if m]
    return Partition(tuple(subsets), n)


@settings(deadline=None, max_examples=60)  # a number text of 10^6 per example
@given(run_heavy_partitions())
def test_round_trip_run_heavy_partitions(p):
    assert parse_partition(serialize_partition(p)) == p


@st.composite
def run_lines(draw):
    """(mask, n) from run_masks, sometimes with a run ending at x followed
    by an element whose text starts with that of x + 1 (x = 12, then 134;
    x = 99, then 1000), where matching the number text runs into the
    middle of a token."""
    mask, n = draw(run_masks())
    if draw(st.booleans()):
        x = draw(st.integers(2, max(2, n // 10 - 2)))
        length = draw(st.integers(1, min(x - 1, 200)))
        y = 10 * (x + 1) + draw(st.integers(0, 9))
        if y <= n:
            mask &= ~((1 << y) - (1 << (x + 1)))
            mask |= (1 << (x + 1)) - (1 << (x + 1 - length)) | 1 << y
    return mask, n


@given(run_lines())
def test_runs_mask_inverts_runs_text(case):
    # the reader returns the writer's mask for every line the writer cuts by
    # runs, and leaves every other line to the per-token loop
    mask, n = case
    line = "1: " + partition._runs_text(mask, number_text(n))
    count = mask.bit_count()
    seen = bytearray(n + 1)
    got = partition._runs_mask(line, 2, count, number_text(n), n, seen)
    if (mask & ~(mask << 1)).bit_count() * partition.RUN_MIN_LENGTH < count:
        assert got == mask
        assert int(seen[::-1].translate(bytes.maketrans(b"\0\1", b"01")), 2) == mask
    else:
        assert got is None
        assert not any(seen)


def _parse_by_tokens(text):
    """parse_partition with every line through the per-token loop."""
    with mock.patch.object(partition, "_run_heavy", lambda line, start: False):
        return parse_partition(text)


def _outcome(parse, text):
    try:
        return parse(text)
    except WspFormatError as e:
        return (e.message, e.line)


#: a nine-subset chain (n = 14945); subsets 3..9 are read by runs
CHAIN = iterate(base_partition(), 6)[-1][0]
CHAIN_TEXT = serialize_partition(CHAIN)
CHAIN_LINES = CHAIN_TEXT.split("\n")


def test_chain_text_is_read_by_runs_with_the_same_result():
    calls = []
    by_runs = partition._runs_mask
    with mock.patch.object(partition, "_runs_mask",
                           lambda *args: calls.append(args[0][:2]) or by_runs(*args)):
        p = parse_partition(CHAIN_TEXT)
    assert calls == [f"{i}:" for i in range(3, 10)]
    assert p == _parse_by_tokens(CHAIN_TEXT)
    assert serialize_partition(p) == CHAIN_TEXT


#: mutations of token k of a run-heavy line's tokens t, n the order
_MUTATIONS = {
    "leading zero": lambda t, k, n: t[:k] + ["0" + t[k]] + t[k + 1:],
    "tab": lambda t, k, n: t[:max(k, 1) - 1] + ["\t".join(t[max(k, 1) - 1:max(k, 1) + 1])]
                           + t[max(k, 1) + 1:],
    "double space": lambda t, k, n: t[:k] + [" " + t[k]] + t[k + 1:],
    "descending pair": lambda t, k, n: (t[:k - 1] + [t[k], t[k - 1]] + t[k + 1:] if k
                                        else [t[1], t[0]] + t[2:]),
    "duplicate": lambda t, k, n: t[:k + 1] + [t[k]] + t[k + 1:],
    "run grown by one": lambda t, k, n: t[:k + 1] + [str(int(t[k]) + 1)] + t[k + 1:],
    "n+1 after it": lambda t, k, n: t[:k + 1] + [str(n + 1)] + t[k + 1:],
}


@settings(deadline=None)
@given(st.data())
def test_parse_fuzz_mutated_chain_text_matches_the_token_loop(data):
    i = data.draw(st.integers(3, 9))  # a subset read by runs
    starts, stops = run_bounds(CHAIN.subset(i).mask)
    r = data.draw(st.integers(0, len(starts) - 1))
    # a run's first element, its last, or one inside it
    x = data.draw(st.sampled_from([starts[r], stops[r] - 1, (starts[r] + stops[r]) // 2]))
    kind = data.draw(st.sampled_from(sorted(_MUTATIONS)))
    tokens = CHAIN_LINES[i + 1].split(" ")[1:]
    tokens = _MUTATIONS[kind](tokens, tokens.index(str(x)), CHAIN.n)
    lines = list(CHAIN_LINES)
    lines[i + 1] = " ".join([f"{i}:", *tokens])
    text = "\n".join(lines)
    assert _outcome(parse_partition, text) == _outcome(_parse_by_tokens, text)


@pytest.mark.parametrize("subset, old, new, error", [
    # valid but not canonical: the per-token loop reads the same partition
    (3, " 9 10 ", " 09 10 ", None),
    (3, " 9 10 ", " 9\t10 ", None),
    (3, " 9 10 ", " 9  10 ", None),
    (3, " 17 50 ", " 50 17 ", None),
    # errors: a duplicate at a run border, a run grown by one into subset 1,
    # n + 1 after a run's end, and a zero
    (3, " 17 50 ", " 17 17 50 ", ("duplicate integer 17", 5)),
    (3, " 17 50 ", " 17 18 50 ", ("duplicate integer 18", 5)),
    (9, " 9967", " 9967 14946", ("element 14946 exceeds order 14945", 11)),
    (5, " 63 65 ", " 0 65 ", ("element 0 must be >= 1", 7)),
], ids=["leading-zero", "tab", "double-space", "descending", "duplicate", "run-grown",
        "n+1", "zero"])
def test_mutated_chain_line_parses_as_the_token_loop_does(subset, old, new, error):
    lines = list(CHAIN_LINES)
    line = lines[subset + 1]
    assert old in line + " "
    lines[subset + 1] = (line + " ").replace(old, new, 1).rstrip(" ")
    text = "\n".join(lines)
    expected = CHAIN if error is None else error
    assert _outcome(parse_partition, text) == _outcome(_parse_by_tokens, text) == expected


def test_scattered_lines_stay_off_the_run_parse(monkeypatch):
    def refuse(*args):
        raise AssertionError("run parse taken on a scattered line")

    monkeypatch.setattr(partition, "_runs_mask", refuse)
    texts = [serialize_partition(p) for p in find_seeds(4, 40, limit=200)]
    two_adic = Partition.from_subsets([range(1 << k, 50001, 2 << k) for k in range(16)], 50000)
    rng = random.Random(1)
    colours = [[] for _ in range(12)]
    for x in range(1, 8001):
        colours[rng.randrange(12)].append(x)
    coloured = Partition.from_subsets(colours, 8000)
    texts += [serialize_partition(two_adic), serialize_partition(coloured)]
    for text in texts:
        assert parse_partition(text) == _parse_by_tokens(text)


def test_hostile_header_with_a_long_run_line_allocates_a_small_multiple_of_the_text():
    # the header claims as large an order as the text length allows; the
    # line is one long run, so the run parse reads it, and its number text
    # is sized by what the text can hold, not by the header
    body = "1: " + " ".join(map(str, range(1, 200001)))
    text = f"wsp 1\ns=1 n={len(body)}\n{body}\n"  # the order fits the text
    tracemalloc.start()
    try:
        with pytest.raises(WspFormatError, match="integer 200001 missing") as e:
            parse_partition(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert e.value.line == 2
    assert peak < 5 * len(text)

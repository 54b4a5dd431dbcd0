"""The streamed ``verify`` renderers against ``json.dumps`` and ``describe()``.

``ViolationReport.write_json`` and ``ViolationReport.write_text`` write the
report one violation at a time; the tests here hold them to the bytes of
``json.dumps(report.as_json(), sort_keys=True)`` and of one ``describe()``
line per violation.
"""

import copy
import dataclasses
import gc
import io
import json
import pickle
import random
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakschur import parse_partition
from weakschur.cli import main
from weakschur.partition import VIOLATION_KINDS, Violation, ViolationReport
from weakschur.verifier import (
    LABEL_NO_DOUBLE,
    LABEL_SEED_EXT,
    LABEL_WEAK,
    LABEL_WELL_FORMED,
    ConditionSet,
    verify,
)

from conftest import GOLDEN_DIR

LABELS = (LABEL_WELL_FORMED, LABEL_WEAK, LABEL_NO_DOUBLE, LABEL_SEED_EXT)
LABEL_SETS = [frozenset(c) for k in range(len(LABELS) + 1) for c in combinations(LABELS, k)]

violations = st.builds(
    Violation,
    # every known kind, plus unknown ones that need JSON escaping
    st.sampled_from(sorted(VIOLATION_KINDS)) | st.text(max_size=6),
    st.none() | st.integers(),
    st.lists(st.integers(), max_size=4).map(tuple),
)


# the text writer's fallbacks: kinds that need escaping as a % pattern, and
# subset indices and witness lengths that no row of the table has words for
text_violations = st.builds(
    Violation,
    st.sampled_from(sorted(VIOLATION_KINDS) + ["100%", "%d%s%%", "something-else"])
    | st.text(alphabet="%ds -", max_size=6),
    st.none() | st.integers(-5, 20) | st.sampled_from([-(2**70), 2**70]),
    st.lists(st.integers() | st.sampled_from([-(2**80), 2**64 + 1]), max_size=4).map(tuple),
)


def streamed(report: ViolationReport) -> str:
    out = io.StringIO()
    report.write_json(out)
    return out.getvalue()


def dumped(report: ViolationReport) -> str:
    return json.dumps(report.as_json(), sort_keys=True)


def streamed_text(report: ViolationReport) -> str:
    out = io.StringIO()
    report.write_text(out)
    return out.getvalue()


def described(report: ViolationReport) -> str:
    return "".join(v.describe() + "\n" for v in report.violations)


@pytest.mark.parametrize("checked", LABEL_SETS, ids=lambda c: ",".join(sorted(c)) or "none")
@settings(max_examples=40, deadline=None)
@given(st.lists(violations, max_size=6))
def test_streamed_json_matches_dumps(checked, vios):
    report = ViolationReport(tuple(vios), checked)
    assert streamed(report) == dumped(report)


@settings(max_examples=300, deadline=None)
@given(st.lists(text_violations, max_size=6))
def test_streamed_text_matches_describe(vios):
    report = ViolationReport(tuple(vios), frozenset(LABELS))
    assert streamed_text(report) == described(report)


@pytest.mark.parametrize("checked", LABEL_SETS, ids=lambda c: ",".join(sorted(c)) or "none")
def test_streamed_json_of_empty_report(checked):
    report = ViolationReport((), checked)
    assert streamed(report) == dumped(report)


def test_every_known_kind_streams_like_dumps():
    vios = [Violation(kind, i, w) for kind in VIOLATION_KINDS
            for i in (None, 1) for w in ((), (7,), (1, 2, 3))]
    report = ViolationReport(tuple(vios), frozenset(LABELS))
    assert streamed(report) == dumped(report)


def test_violation_is_slotted():
    v = Violation("weak-sum", 1, (1, 2, 3))
    assert not hasattr(v, "__dict__")


def test_streamed_json_of_a_mixed_report_past_two_chunks():
    # write_json and write_text join 1024 violations a piece and build one
    # template per (kind, subset index, witness length): cross two chunk
    # borders with kinds needing escapes, null indices, empty witnesses and
    # wide ints
    kinds = ["weak-sum", "100%", 'say "hi"', "%d%s%%", "not-a-partition"]
    indices = [None, 1, 12, -3, 2**70]
    witnesses = [(), (7,), (1, 2, 3), (-5, 2**64 + 1, -(2**80), 0), tuple(range(9))]
    rng = random.Random(3)
    vios = [Violation(rng.choice(kinds), rng.choice(indices), rng.choice(witnesses))
            for _ in range(2500)]
    report = ViolationReport(tuple(vios), frozenset(LABELS))
    assert len({(v.kind, v.subset_index, len(v.witness)) for v in vios}) == 125
    assert streamed(report) == dumped(report)
    assert streamed_text(report) == described(report)


def test_violation_keeps_its_dataclass_behaviour():
    v = Violation("weak-sum", 2, (1, 2, 3))
    assert v == Violation(kind="weak-sum", subset_index=2, witness=(1, 2, 3))
    assert v == Violation("weak-sum", subset_index=2, witness=(1, 2, 3))
    assert hash(v) == hash(Violation("weak-sum", 2, (1, 2, 3)))
    assert v != Violation("weak-sum", 3, (1, 2, 3))
    assert Violation("empty-subset", 1).witness == ()
    assert repr(v) == "Violation(kind='weak-sum', subset_index=2, witness=(1, 2, 3))"
    assert dataclasses.replace(v, subset_index=None) == Violation("weak-sum", None, (1, 2, 3))
    assert [f.name for f in dataclasses.fields(v)] == ["kind", "subset_index", "witness"]
    assert Violation.__match_args__ == ("kind", "subset_index", "witness")
    match v:
        case Violation(kind, index, (a, b, c)):
            assert (kind, index, a, b, c) == ("weak-sum", 2, 1, 2, 3)
    for name in ("kind", "subset_index", "witness"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(v, name, None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        del v.kind
    with pytest.raises(TypeError):
        Violation("weak-sum")
    with pytest.raises(TypeError):
        Violation("weak-sum", 1, (1, 2, 3), "extra")


def test_violation_and_report_refuse_every_attribute_write():
    # the slotted dataclass's own __setattr__ raised TypeError for a name
    # that is not a field
    v = Violation("weak-sum", 2, (1, 2, 3))
    report = verify(parse_partition("wsp 1\ns=2 n=5\n1: 1 2 3\n2: 4 5\n"),
                    ConditionSet.condition1())
    for obj, field in ((v, "kind"), (report, "violations"), (report, "checked_conditions")):
        for name in (field, "other"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(obj, name)
    assert v == Violation("weak-sum", 2, (1, 2, 3)) and not hasattr(v, "other")
    assert report.violations == (Violation("weak-sum", 1, (1, 2, 3)),)
    # a report verify built from runs against the same report built by hand
    by_hand = ViolationReport.build(list(report.violations), report.checked_conditions)
    assert report == by_hand and hash(report) == hash(by_hand) and repr(report) == repr(by_hand)
    assert report.count == 1 and not report.passed
    assert pickle.loads(pickle.dumps(report)) == report == copy.deepcopy(report)
    assert pickle.loads(pickle.dumps(v)) == v


def test_streamed_report_of_alternating_condition3_and_weak_lines():
    # subset 1 lists each weak-sum triple right after its condition3-sumfree
    # copy, so its runs are one line long and cross both chunk borders
    groups = random_colouring(400, 3, seed=2)
    report = verify(parse_partition(
        "wsp 1\ns=3 n=400\n" + "".join(f"{i}: {' '.join(map(str, g))}\n"
                                         for i, g in enumerate(groups, 1))))
    first = [v.kind for v in report.violations if v.subset_index == 1]
    changes = sum(a != b for a, b in zip(first, first[1:]))
    assert report.count == len(report.violations) > 2048 and changes > 2048
    assert streamed(report) == dumped(report)
    assert streamed_text(report) == described(report)


def random_colouring(n: int, s: int, seed: int) -> list[list[int]]:
    """A seeded random s-colouring of 1..n, redrawn until every colour is used."""
    rng = random.Random(seed)
    while True:
        groups = [[] for _ in range(s)]
        for x in range(1, n + 1):
            groups[rng.randrange(s)].append(x)
        if all(groups):
            return groups


@pytest.fixture(scope="module")
def random_wsp(tmp_path_factory):
    """A random 12-colouring of 1..8000: about 10^5 violations of all three
    conditions."""
    groups = random_colouring(8000, 12, seed=1)
    lines = ["wsp 1", "s=12 n=8000"]
    lines += [f"{i}: {' '.join(map(str, g))}" for i, g in enumerate(groups, 1)]
    path = tmp_path_factory.mktemp("render") / "random.wsp"
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    return path


def rendered_by_dumps(path, conditions, first_only):
    """``verify``'s plain and ``--json`` stdout and its exit code, rendered
    with one ``describe()`` line per violation and with ``json.dumps``."""
    with open(path, encoding="ascii") as fh:
        report = verify(parse_partition(fh), conditions, first_only=first_only)
    lines = [v.describe() for v in report.violations]
    status = "ok" if report.passed else f"{len(report.violations)} violation(s)"
    lines.append(f"{path}: {status} (checked: {', '.join(sorted(report.checked_conditions))})")
    return "\n".join(lines) + "\n", dumped(report) + "\n", 0 if report.passed else 1


@pytest.mark.parametrize("options", [(), ("--first-only",), ("--conditions", "1")],
                         ids=lambda o: " ".join(o) or "all")
def test_cli_verify_matches_dumps(capsys, random_wsp, options):
    conditions = ConditionSet.condition1() if "--conditions" in options else ConditionSet.all()
    paths = sorted(GOLDEN_DIR.glob("*.wsp")) + [random_wsp]
    assert len(paths) > 1
    for path in paths:
        plain, as_json, code = rendered_by_dumps(path, conditions, "--first-only" in options)
        assert main(["verify", str(path), *options]) == code, path
        assert capsys.readouterr().out == plain, path
        assert main(["verify", str(path), *options, "--json"]) == code, path
        assert capsys.readouterr().out == as_json, path


def test_cli_verify_json_runs_no_collection(capsys, random_wsp):
    # 120294 violations: with the collector on, generation 0 alone would
    # be collected hundreds of times over the live report
    collections = []
    callback = lambda phase, info: collections.append(info["generation"]) if phase == "start" else None
    gc.callbacks.append(callback)
    try:
        assert main(["verify", str(random_wsp), "--json"]) == 1
    finally:
        gc.callbacks.remove(callback)
    assert len(capsys.readouterr().out) > 8_000_000
    assert collections == []


class _Count:
    """A text sink that keeps only the number of characters it is given."""

    chars = 0

    def write(self, text: str) -> int:
        self.chars += len(text)
        return len(text)


def test_verify_and_streamed_render_peak_memory(random_wsp):
    # the bytes are test_cli_verify_matches_dumps's business; this is the peak
    with open(random_wsp, encoding="ascii") as fh:
        p = parse_partition(fh)
    sink, text_sink = _Count(), _Count()
    tracemalloc.start()
    try:
        report = verify(p)
        report.write_json(sink)
        held, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        report.write_text(text_sink)
        text_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.violations) > 100_000 and sink.chars > 8_000_000
    # holding the report and its dumped document as well peaked at 79 MB
    assert peak < 45e6, f"peak {peak / 1e6:.1f} MB"
    # the text writer holds 1024 lines at a time (0.2 MB over the report);
    # joining every describe() line first took 17 MB more
    assert text_sink.chars > 4_000_000
    assert text_peak - held < 2e6, f"text writer {(text_peak - held) / 1e6:.1f} MB"

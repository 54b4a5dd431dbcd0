"""Core domain types and the canonical ``.wsp`` partition text format.

A partition assigns every integer in 1..n to exactly one of s labelled
subsets.  Subset labels are 1-based and meaningful: subset 1 is the one the
seed-extension condition constrains, so label order is data, not cosmetics.

Canonical format (line-oriented ASCII, extension ``.wsp``)::

    wsp 1
    s=<count> n=<order>
    1: <a1> <a2> ...
    ...
    s: <a1> <a2> ...

Elements are ascending, single-space separated.  Blank lines and lines
starting with ``#`` are ignored when parsing and never emitted.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import IO, Iterable, NamedTuple, Optional

from . import WSP_FORMAT_VERSION
from .intset import IntSet, bit_positions, run_bounds


class WspFormatError(ValueError):
    """Malformed partition text; ``line`` is the 1-based offending line."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        self.message = message
        super().__init__(f"line {line}: {message}" if line else message)


class InvalidPartitionError(ValueError):
    """A partition object failed its structural invariants."""

    def __init__(self, violations: "list[Violation]"):
        self.violations = tuple(violations)
        head = "; ".join(v.describe() for v in self.violations[:4])
        more = f" (+{len(self.violations) - 4} more)" if len(self.violations) > 4 else ""
        super().__init__(f"not a valid partition: {head}{more}")


class ViolationKind(NamedTuple):
    """One row of VIOLATION_KINDS.  ``text`` gives describe()'s words for a
    witness: a pattern with one ``%d`` per witness integer, or a dict of
    patterns by (subset index given, witness length), where ``%d, ...``
    stands for the whole witness joined by ", ".  ``condition`` is the
    requirement a construction step names when its input shows this kind,
    and ``rank`` picks which one when several fail: structure first, then
    conditions 1, 2 and 3.  Advisory kinds flag a future problem rather
    than a broken condition."""

    text: str | dict[tuple[bool, int], str]
    condition: Optional[str] = None
    rank: int = 9
    advisory: bool = False


#: every violation kind the library reports, by Violation.kind
VIOLATION_KINDS = {
    "weak-sum": ViolationKind("%d + %d = %d", "condition 1 (weak sum-freeness)", 1),
    "strong-sum": ViolationKind("%d + %d = %d"),
    "double-element": ViolationKind("pair %d, %d", "condition 2 (no a,2a pair with a > 4)", 2),
    "condition3-sumfree": ViolationKind("%d + %d = %d", "condition 3 (subset 1 extension)", 3),
    "condition3-membership":
        ViolationKind("order %d is a member", "condition 3 (order in subset 1)", 3),
    "empty-subset": ViolationKind("no elements", "well-formedness", 0),
    "not-a-partition": ViolationKind({
        (False, 0): "bad structure", (True, 0): "bad structure",
        (False, 1): "integer %d is not covered",
        (True, 1): "element %d duplicated or outside 1..n",
    }, "well-formedness", 0),
    "order-too-small": ViolationKind(
        "order %d is below 4, the smallest the step extends", "minimum order 4"
    ),
    "injected-double": ViolationKind(
        "%d present, so the step would inject its double %d",
        "injected-double guard ((n+2)/2 outside subset 1)",
    ),
    "advisory-lookahead": ViolationKind(
        "%d present, so the next step would put %d there", advisory=True
    ),
    "advisory-chain-break": ViolationKind(
        "iteration provably stops a few steps out (involving %d, ...)", advisory=True
    ),
}


@dataclass(frozen=True, slots=True, init=False)
class Violation:
    """One broken rule, as data.

    kind is one of the keys of VIOLATION_KINDS.  The witness carries the
    integers that exhibit the problem (for sums: a, b, a+b with the smaller
    operand first).  Slotted: a rejected partition can carry 10^5 of these.
    """

    kind: str
    subset_index: Optional[int]
    witness: tuple[int, ...] = ()

    def __init__(self, kind: str, subset_index: Optional[int], witness: tuple[int, ...] = ()):
        # the frozen dataclass __init__ goes through object.__setattr__ three
        # times; the slots' own setters skip that lookup
        _set_kind(self, kind)
        _set_subset_index(self, subset_index)
        _set_witness(self, witness)

    @property
    def is_advisory(self) -> bool:
        row = VIOLATION_KINDS.get(self.kind)
        return row is not None and row.advisory

    def describe(self) -> str:
        return _text_template(self.kind, self.subset_index, len(self.witness)) % self.witness

    def as_json(self) -> dict:
        return {
            "kind": self.kind,
            "subset_index": self.subset_index,
            "witness": list(self.witness),
        }

    def __str__(self) -> str:
        return self.describe()


_set_kind = Violation.kind.__set__
_set_subset_index = Violation.subset_index.__set__
_set_witness = Violation.witness.__set__


def violation_key(v: Violation) -> tuple:
    """The order every report lists violations in: by subset (unlabelled
    first), then sum (the witness's last integer), then smaller operand
    (its first), then kind.  A plain function, so sorts pass it as their
    key without a lambda."""
    w = v.witness
    return (
        v.subset_index if v.subset_index is not None else 0,
        w[-1] if w else 0,
        w[0] if w else 0,
        v.kind,
    )


@dataclass(frozen=True)
class ViolationReport:
    """Outcome of a verification run: an exhaustive, sorted violation list
    plus the labels of the checks that actually ran."""

    violations: tuple[Violation, ...]
    checked_conditions: frozenset[str]

    @classmethod
    def build(
        cls, violations: Iterable[Violation], checked: Iterable[str]
    ) -> "ViolationReport":
        ordered = tuple(sorted(violations, key=violation_key))
        return cls(ordered, frozenset(checked))

    @property
    def passed(self) -> bool:
        return not self.violations

    def blocking(self) -> tuple[Violation, ...]:
        """Violations that actually break a condition (advisories excluded)."""
        return tuple(v for v in self.violations if not v.is_advisory)

    def as_json(self) -> dict:
        return {
            "violations": [v.as_json() for v in self.violations],
            "checked_conditions": sorted(self.checked_conditions),
        }

    def write_text(self, out: IO[str]) -> None:
        """Write one describe() line per violation to out, each ending in a
        newline, 1024 violations at a time."""
        self._write_each(out, _text_template, "\n")
        if self.violations:
            out.write("\n")

    def write_json(self, out: IO[str]) -> None:
        """Write ``json.dumps(self.as_json(), sort_keys=True)`` to out, 1024
        violations at a time, without building the document."""
        out.write(f'{{"checked_conditions": {json.dumps(sorted(self.checked_conditions))}, '
                  '"violations": [')
        self._write_each(out, _violation_template, ", ")
        out.write("]}")

    def _write_each(self, out: IO[str], template_of, sep: str) -> None:
        """Write the violations to out, sep between them, 1024 at a time.
        Each is one ``%`` of its witness against a template that
        template_of builds once per (kind, subset index, witness length)."""
        vs = self.violations
        templates: dict[tuple, str] = {}
        for k in range(0, len(vs), 1024):
            parts = []
            for v in vs[k:k + 1024]:
                key = v.kind, v.subset_index, len(v.witness)
                template = templates.get(key)
                if template is None:
                    template = templates[key] = template_of(*key)
                parts.append(template % v.witness)
            out.write((sep if k else "") + sep.join(parts))


# describe() runs once per violation: build each shape's template once
@lru_cache(maxsize=1024)
def _text_template(kind: str, subset_index: Optional[int], size: int) -> str:
    """describe()'s line for a violation with this kind and subset index, a
    ``%d`` for each of its size witness integers.  The words come from the
    kind's VIOLATION_KINDS row; a kind outside the table, or a witness
    whose length the row's words do not fit, is written as the bare
    witness.  A ``%`` in the kind is escaped, as in _violation_template."""
    words = VIOLATION_KINDS[kind].text if kind in VIOLATION_KINDS else ""
    if isinstance(words, dict):
        words = words.get((subset_index is not None, size), "")
    words = words.replace("%d, ...", ", ".join(["%d"] * size))
    if words.count("%d") != size:
        words = " ".join(["%d"] * size)
    where = "" if subset_index is None else f" in subset {subset_index}"
    return f"{kind.replace('%', '%%')}: {words}{where}"


def _violation_template(kind: str, subset_index: Optional[int], size: int) -> str:
    """The JSON text of a violation with this kind and subset index, a
    ``%d`` for each of its size witness integers; a ``%`` in the kind's
    text is escaped, so only the witness is formatted into it."""
    return (f'{{"kind": {json.dumps(kind).replace("%", "%%")}, '
            f'"subset_index": {json.dumps(subset_index)}, '
            f'"witness": [{", ".join(["%d"] * size)}]}}')


@dataclass(frozen=True)
class Partition:
    """s labelled subsets covering exactly {1..n}.

    Construction does not validate (the verifier treats malformed
    partitions as reportable data); every operation that hands a Partition
    to a caller runs :meth:`validate` first.  The subsets and n never
    change, so a check that passed is remembered on the instance: a
    partition is checked once, however many operations it passes through.
    """

    subsets: tuple[IntSet, ...]
    n: int
    _valid: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "subsets", tuple(self.subsets))

    @property
    def s(self) -> int:
        return len(self.subsets)

    def subset(self, i: int) -> IntSet:
        """1-based accessor matching the labels in the text format."""
        if not 1 <= i <= len(self.subsets):
            raise IndexError(f"subset index {i} out of range 1..{len(self.subsets)}")
        return self.subsets[i - 1]

    @classmethod
    def from_subsets(
        cls, subsets: Iterable[Iterable[int]], n: Optional[int] = None
    ) -> "Partition":
        """Build and validate.  When n is omitted, the largest element is used."""
        sets = tuple(s if isinstance(s, IntSet) else IntSet(s) for s in subsets)
        if n is None:
            n = max((s.max for s in sets if s.max is not None), default=0)
        p = cls(sets, n)
        p.validate()
        return p

    def validate(self) -> None:
        vios = self.structural_violations()
        if vios:
            raise InvalidPartitionError(vios)

    def structural_violations(self) -> list[Violation]:
        """well_formed_violations(self), run until it first comes back
        empty; after that the remembered pass answers []."""
        if self._valid:
            return []
        vios = well_formed_violations(self)
        if not vios:
            object.__setattr__(self, "_valid", True)
        return vios

    def __repr__(self) -> str:
        return f"Partition(s={self.s}, n={self.n})"


def well_formed_violations(p: Partition) -> list[Violation]:
    """Structural checks: positive order, non-empty pairwise-disjoint
    subsets, union exactly {1..n}.  Returns violations, sorted.

    The clean case is decided on the masks alone: non-empty masks whose
    union is exactly bits 1..n and whose sizes add up to n are pairwise
    disjoint, so p is well formed.  Only a partition that fails this goes
    through the loop that names each violation."""
    out: list[Violation] = []
    if p.n < 1 or p.s < 1:
        out.append(Violation("not-a-partition", None))
        return out
    full = (1 << (p.n + 1)) - 2  # bits 1..n
    union = size = 0
    for sub in p.subsets:
        m = sub.mask
        if not m:
            break
        union |= m
        size += m.bit_count()
    else:
        if union == full and size == p.n:
            return out
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
    out.sort(key=violation_key)
    return out


@dataclass(frozen=True)
class ConstructionTrace:
    """Bookkeeping for one extension step: where every new element of the
    output came from."""

    input_order: int
    output_order: int
    injected: tuple[int, int]
    reflected_per_subset: tuple[IntSet, ...]
    new_subset: IntSet

    def as_json(self) -> dict:
        return {
            "input_order": self.input_order,
            "output_order": self.output_order,
            "injected": list(self.injected),
            "reflected_per_subset": [list(r) for r in self.reflected_per_subset],
            "new_subset": list(self.new_subset),
        }


_HEADER_RE = re.compile(r"s=([0-9]+) n=([0-9]+)")
_SUBSET_RE = re.compile(r"([0-9]+):(.*)")
# element tokens: ASCII digits only, separated by spaces or tabs
_ELEMENTS_RE = re.compile(r"[0-9 \t]*")


def parse_partition(source: "str | IO[str]") -> Partition:
    """Parse canonical partition text into a validated Partition.

    Accepts a string or a text file object.  Lines end at LF only, and
    only spaces, tabs and CR are trimmed from their ends, so CRLF text
    parses; blank and ``#`` lines are skipped; elements are ASCII digits
    separated by spaces or tabs.
    Raises WspFormatError with the offending line number on any problem:
    bad header, an order the text is too short to cover, malformed line or
    element, duplicate integer, element out of range, empty subset, or
    incomplete coverage of 1..n.

    A subset line that looks like one serialize_partition writes by runs
    (more than RUN_MIN_COUNT elements, long runs; see _run_heavy) is read
    run by run against the number text of 1..n, as the inverse of that
    writer: per run, a few comparisons of text slices and two slice writes,
    instead of a str, an int and four checks per element.  Any line that
    is not canonical, has short runs, or fails a check goes through the
    per-token loop instead, so every error names the same token and line.
    The number text is never longer than the input text.
    """
    text = source.read() if hasattr(source, "read") else source
    # ASCII line rules: str.splitlines() and str.strip() would also break
    # or trim on Unicode separators such as U+2028, U+0085 and U+3000
    lines = [
        (no, stripped)
        for no, raw in enumerate(text.split("\n"), 1)
        if (stripped := raw.strip(" \t\r")) and not stripped.startswith("#")
    ]
    cursor = iter(lines)

    def next_line(expect: str) -> tuple[int, str]:
        try:
            return next(cursor)
        except StopIteration:
            raise WspFormatError(f"unexpected end of input, expected {expect}") from None

    no, line = next_line("format header")
    if line != f"wsp {WSP_FORMAT_VERSION}":
        raise WspFormatError(f"expected format header 'wsp {WSP_FORMAT_VERSION}'", no)

    header_no, line = next_line("header 's=<count> n=<order>'")
    m = _HEADER_RE.fullmatch(line)
    if not m:
        raise WspFormatError("expected header 's=<count> n=<order>'", header_no)
    try:
        s, n = int(m.group(1)), int(m.group(2))
    except ValueError:  # past int()'s digit limit, far beyond what the text holds
        raise WspFormatError("header value too large", header_no) from None
    if s < 1:
        raise WspFormatError("subset count must be >= 1", header_no)
    if n < 1:
        raise WspFormatError("order must be >= 1", header_no)
    if n > len(text):
        # covering 1..n takes at least n digits; checked before sizing by n
        raise WspFormatError(f"order {n} exceeds what {len(text)} characters can cover",
                             header_no)

    seen = bytearray(n + 1)
    count = 0
    subsets = []
    numbers = None  # the run path's number text, built for its first line
    for i in range(1, s + 1):
        no, line = next_line(f"subset line '{i}: ...'")
        m = _SUBSET_RE.fullmatch(line)
        if not m:
            raise WspFormatError(f"expected subset line '{i}: ...'", no)
        label = m.group(1)
        if label.lstrip("0") != str(i):  # int() would reject very long labels
            raise WspFormatError(f"expected subset {i}, found {label}", no)
        start = m.start(2)
        elements = line.count(" ", start)  # if canonical: one space before each
        if elements > RUN_MIN_COUNT and _run_heavy(line, start):
            if numbers is None:
                # no longer than the text, whatever the header says
                top = min(n, _numbers_within(len(text)))
                numbers = _number_text(top)
            mask = _runs_mask(line, start, elements, numbers, top, seen)
            if mask is not None:
                count += mask.bit_count()
                subsets.append(IntSet.from_mask(mask))
                continue
        tokens = m.group(2).split()
        if not _ELEMENTS_RE.fullmatch(line, start):
            bad = next((t for t in tokens if not (t.isascii() and t.isdigit())), None)
            if bad is None:
                raise WspFormatError("elements must be separated by spaces or tabs", no)
            raise WspFormatError(f"malformed element {bad!r}", no)
        if not tokens:
            raise WspFormatError(f"subset {i} is empty", no)
        elems = []
        for tok in tokens:
            try:
                e = int(tok)
            except ValueError:  # past int()'s digit limit
                raise WspFormatError(f"element of {len(tok)} digits exceeds order {n}",
                                     no) from None
            if e < 1:
                raise WspFormatError(f"element {e} must be >= 1", no)
            if e > n:
                raise WspFormatError(f"element {e} exceeds order {n}", no)
            if seen[e]:
                raise WspFormatError(f"duplicate integer {e}", no)
            seen[e] = 1
            elems.append(e)
        count += len(elems)
        subsets.append(IntSet(elems))

    try:
        no, line = next(cursor)
    except StopIteration:
        pass
    else:
        raise WspFormatError(f"unexpected trailing line {line!r}", no)

    if count != n:
        missing = next(e for e in range(1, n + 1) if not seen[e])
        raise WspFormatError(f"integer {missing} missing from cover of 1..{n}", header_no)

    p = Partition(tuple(subsets), n)
    p.validate()
    return p


#: serialize_partition cuts a subset from one number text of 1..n when it
#: has more than RUN_MIN_COUNT elements and fewer than one run per
#: RUN_MIN_LENGTH of them (see _by_runs); parse_partition reads such a line
#: back by runs (see _run_heavy and _runs_mask)
RUN_MIN_COUNT = 64
RUN_MIN_LENGTH = 4
#: adjacent token pairs _run_heavy samples from a line
RUN_SAMPLES = 32


def _run_heavy(line: str, start: int) -> bool:
    """Whether the element list line[start:] looks like one the serializer
    writes by runs: at least RUN_MIN_LENGTH - 1 of every RUN_MIN_LENGTH of
    RUN_SAMPLES adjacent token pairs, spread evenly over the text, are
    consecutive integers.  It only steers; _runs_mask checks the text."""
    step = (len(line) - start) // (RUN_SAMPLES + 1)
    hits = 0
    for q in range(1, RUN_SAMPLES + 1):
        a = line.rfind(" ", start, start + q * step) + 1
        b = line.find(" ", a)
        c = line.find(" ", b + 1)
        first, second = line[a:b], line[b + 1:c if c >= 0 else len(line)]
        if 0 < len(first) < 20 and first.isascii() and first.isdigit():
            hits += second == str(int(first) + 1)
    return hits * RUN_MIN_LENGTH >= (RUN_MIN_LENGTH - 1) * RUN_SAMPLES


def _runs_mask(
    line: str, start: int, count: int, numbers: str, top: int, seen: bytearray
) -> Optional[int]:
    """The mask of the element list line[start:], which holds count spaces,
    read run by run from numbers = _number_text(top); or None when the
    line must go through the per-token loop instead: it is not canonical
    (one space before each element, no leading zero, strictly ascending),
    an element is past top or already in seen, or it has at least one run
    per RUN_MIN_LENGTH elements.  seen is marked only when a mask is
    returned.

    Each run starts at a token lo and ends where the line stops matching
    numbers from lo's offset (see _match_run).  This is the inverse of
    _runs_text."""
    end = len(line)
    width = len(str(top))
    pos = start + 1
    if line[start:pos] != " ":
        return None
    starts: list[int] = []
    stops: list[int] = []
    prev = hint = 0
    while True:
        sp = line.find(" ", pos)
        tok = line[pos:sp if sp >= 0 else end]
        d = len(tok)
        if not (tok.isascii() and tok.isdigit()) or tok[0] == "0" or d > width:
            return None
        lo = int(tok)
        if lo <= prev or lo > top:  # prev: the stop of the last run
            return None
        good, q = _match_run(line, pos, lo, d, numbers, top, hint)
        stop = lo + good + 1
        if seen.find(1, lo, stop) >= 0:
            return None
        starts.append(lo)
        stops.append(stop)
        if len(starts) * RUN_MIN_LENGTH >= count:
            return None
        if q >= end:
            break
        prev, hint, pos = stop, good, q + 1
    # the runs are disjoint, so the mask is the sum of 2^stop - 2^lo over
    # them: a sparse mask of the stops less one of the starts
    size = (stops[-1] >> 3) + 1
    heads, tails = bytearray(size), bytearray(size)
    for lo, stop in zip(starts, stops):
        seen[lo:stop] = b"\x01" * (stop - lo)
        heads[lo >> 3] |= 1 << (lo & 7)
        tails[stop >> 3] |= 1 << (stop & 7)
    return int.from_bytes(tails, "little") - int.from_bytes(heads, "little")


def _match_run(
    line: str, pos: int, lo: int, d: int, numbers: str, top: int, hint: int
) -> tuple[int, int]:
    """(k, q) for the run that starts with lo, whose d-digit text is at
    line[pos]: from pos on, line holds the text of lo, lo + 1, ..., lo + k
    as numbers = _number_text(top) does, with k as large as it goes, and
    that text ends at line[q], a space or the line end.

    k is found with an exponential search and a bisection, the first guess
    hint (the last run's length less one, which Cantor-like subsets
    repeat); each comparison covers only text not yet matched, so a run
    costs O(log k) comparisons and one pass over its text."""
    o = _offset(lo)
    band = 10 ** d - lo  # lo + k has d digits while k < band

    def extend(k: int) -> int:
        """Where the text of lo + k ends in numbers if the line matches
        numbers on to there, else -1."""
        stop = o + (k + 1) * (d + 1) - 1 if k < band else _offset(lo + k + 1) - 1
        return stop if line.startswith(numbers[at:stop], pos + at - o) else -1

    # the line matches numbers from o through the text of lo + good, which
    # ends at numbers[at]; it does not match through lo + bad
    good, bad, at = 0, top - lo + 1, o + d
    if 0 < hint < bad:
        stop = extend(hint)
        if stop < 0:
            bad = hint
        else:
            good, at = hint, stop
    step = 1
    while good + step < bad:
        stop = extend(good + step)
        if stop < 0:
            bad = good + step
            break
        good, at, step = good + step, stop, 2 * step
    while bad - good > 1:
        k = (good + bad) // 2
        stop = extend(k)
        if stop < 0:
            bad = k
        else:
            good, at = k, stop
    q = pos + at - o
    if q < len(line) and line[q] != " ":  # lo + good is the head of a longer token
        good -= 1
        q = pos + _offset(lo + good + 1) - 1 - o
    return good, q


def serialize_partition(p: Partition) -> str:
    """Emit canonical text: ascending elements, single spaces, no comments.

    The input is validated first, so only well-formed partitions can ever
    reach a file; parse(serialize(p)) == p holds for all of them.
    """
    return serialize_partitions([p])[0]


def serialize_partitions(ps: Iterable[Partition]) -> list[str]:
    """serialize_partition of each partition of ps, in order.

    Every partition is validated.  A subset line is built once per
    (label, mask), however many partitions share it, as partitions found
    by one search do: its text depends on nothing else, since a run is cut
    from the same place in the number text of any order.  That number text
    is built once per order.  A line is kept as its pieces, so a long one
    is copied once, into the partition's text.
    """
    texts = []
    lines: dict[tuple[int, int], tuple[str, str, str]] = {}
    numbers: dict[int, str] = {}
    for p in ps:
        p.validate()
        parts = [f"wsp {WSP_FORMAT_VERSION}\ns={p.s} n={p.n}\n"]
        for i, sub in enumerate(p.subsets, 1):
            key = (i, sub.mask)
            line = lines.get(key)
            if line is None:
                m = sub.mask
                if _by_runs(m):
                    if p.n not in numbers:
                        numbers[p.n] = _number_text(p.n)
                    body = _runs_text(m, numbers[p.n])
                else:
                    body = " ".join(map(str, bit_positions(m)))
                line = lines[key] = (f"{i}: ", body, "\n")
            parts += line
        texts.append("".join(parts))
    return texts


def _by_runs(mask: int) -> bool:
    """Whether to write mask by runs rather than element by element.

    The run path costs one decode of two bits per run and a slice per run;
    the element path one decode of the whole mask and a str() per element.
    On CPython 3.11, over masks of 1 to 4096 equal runs spread across 300
    to 1.2*10^6 bits, the two cost the same at 4 to 6 elements a run,
    hence RUN_MIN_LENGTH.  RUN_MIN_COUNT spares small sets, such as seeds,
    the pass over the mask that counts the runs.
    """
    count = mask.bit_count()
    return count > RUN_MIN_COUNT and (mask & ~(mask << 1)).bit_count() * RUN_MIN_LENGTH < count


def _runs_text(mask: int, numbers: str) -> str:
    """The elements of mask, as by ``" ".join(map(str, bit_positions(mask)))``,
    cut from numbers = _number_text(n), n >= max(mask): run [lo, stop) is
    the one slice from lo's offset to stop's, less the space before stop."""
    starts, stops = run_bounds(mask)
    return " ".join([numbers[_offset(lo):_offset(stop) - 1] for lo, stop in zip(starts, stops)])


def _number_text(n: int) -> str:
    """``" ".join(map(str, range(1, n + 1)))``, built a thousand numbers per
    join above 999: ``str(p).join(["", "000 ", "001 ", ..., "999"])`` is
    the text of p000 .. p999."""
    full = (n + 1) // 1000  # blocks p000 .. p999 with p < full end at or below n
    tails = ["", *[f"{k:03d} " for k in range(999)], "999"]
    pieces = [" ".join(map(str, range(1, min(n, 999) + 1)))]
    pieces += [str(p).join(tails) for p in range(1, full)]
    rest = 1000 * max(full, 1)
    if rest <= n:
        pieces.append(" ".join(map(str, range(rest, n + 1))))
    return " ".join(pieces)


def _numbers_within(limit: int) -> int:
    """The largest k whose _number_text(k) has at most limit characters."""
    lo, hi = 0, limit  # _number_text(k) has at least k characters
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _offset(mid + 1) - 1 <= limit:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _offset(k: int) -> int:
    """Where k starts in _number_text(n) for any n >= k - 1.  Before a
    d-digit k come k - 1 spaces, and d digits for each j < k less one for
    each j < 10^i, i < d: d*k - (10^d - 1)/9 digits."""
    d = len(str(k))
    return (d + 1) * k - 1 - (10 ** d - 1) // 9

"""Independent checks on partitions and their subsets.

Everything here is a pure function from immutable inputs to violation
lists; failures are data, never exceptions.  The fast weak-sum enumerator
and the deliberately dumb naive one implement the same contract, so each
can convict the other of a bug.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import ne
from typing import Iterable

from .intset import IntSet, bit_positions, halve, reflect, run_bounds
from .partition import Partition, Violation, ViolationReport, _runs_of, _unrolled

LABEL_WELL_FORMED = "well-formed"
LABEL_WEAK = "weak-sum-free"
LABEL_NO_DOUBLE = "no-double"
LABEL_SEED_EXT = "seed-extension"

# numeric aliases accepted on the command line
_NUMBERED = {"1": LABEL_WEAK, "2": LABEL_NO_DOUBLE, "3": LABEL_SEED_EXT}


@dataclass(frozen=True)
class ConditionSet:
    """Which checks to run.  Well-formedness is always evaluated first
    regardless of the flags; the other checks never run on a partition
    that failed it."""

    weak_sum_free: bool = True
    no_double: bool = True
    seed_extension: bool = True

    def __post_init__(self):
        if not (self.weak_sum_free or self.no_double or self.seed_extension):
            raise ValueError("at least one check must be selected")

    @classmethod
    def all(cls) -> "ConditionSet":
        return ALL_CONDITIONS

    @classmethod
    def condition1(cls) -> "ConditionSet":
        """Weak sum-freeness only: what a lower-bound witness must satisfy."""
        return cls(weak_sum_free=True, no_double=False, seed_extension=False)

    @classmethod
    def from_labels(cls, text: str) -> "ConditionSet":
        """Parse a CLI selector: 'all' or a comma list drawn from 1,2,3."""
        if text.strip().lower() == "all":
            return cls.all()
        chosen = set()
        for tok in text.split(","):
            tok = tok.strip()
            if tok not in _NUMBERED:
                raise ValueError(f"unknown condition {tok!r} (expected 1, 2, 3 or 'all')")
            chosen.add(_NUMBERED[tok])
        return cls(
            weak_sum_free=LABEL_WEAK in chosen,
            no_double=LABEL_NO_DOUBLE in chosen,
            seed_extension=LABEL_SEED_EXT in chosen,
        )


#: every condition: verify's default, built once
ALL_CONDITIONS = ConditionSet()

#: the block path of weak_violations cuts masks into blocks of this many
#: bits (a multiple of 8); a set narrower than BLOCK_MIN_BLOCKS blocks
#: never considers it
BLOCK_BITS = 4096
BLOCK_MIN_BLOCKS = 4
#: one big-int operation on a W-word mask costs about W + PROBE_WORDS word
#: steps, a block probe two of them on a BLOCK_BITS-bit block, and cutting
#: a mask into blocks about CUT_COST operations on the whole mask (CPython
#: 3.11)
PROBE_WORDS = 64
CUT_COST = 16


#: a key's rank, its low two bits: its kind's place in violation_key's
#: order of kinds, which is the order of RANKED_KINDS
CONDITION3_MEMBERSHIP, CONDITION3_SUMFREE, DOUBLE, WEAK = range(4)
RANKED_KINDS = ("condition3-membership", "condition3-sumfree", "double-element", "weak-sum")


def _shift(n: int) -> int:
    """Where the sum starts in the key of a violation of a partition of
    1..n: ``sum << (B + 2) | operand << 2 | rank``, B = (n + 2).bit_length().

    Each operand is below 2^B, so sorting one subset's keys as ints sorts
    its violations by (sum, operand, kind), as violation_key does.  The
    only violations of one subset that tie on (sum, operand) are a weak
    triple of subset 1 and its condition-3 copy, whose ranks 3 and 1
    order them as their kinds do."""
    return (n + 2).bit_length() + 2


def _shift_for(p: Partition) -> int:
    """_shift for p, wide enough for an element past its order as well."""
    return _shift(max([p.n] + [sub.mask.bit_length() for sub in p.subsets]))


def _key_runs(keys: list[int], shift: int, index: "int | None") -> list[tuple]:
    """The violations of keys, in their order, as runs (kind, index,
    witnesses) of one rank each: the one decoder of keys.  Every key is
    decoded as a + b = c first, the witness of both odd ranks; the rare
    runs of an even rank are decoded again."""
    if not keys:
        return []
    low = (1 << (shift - 2)) - 1
    ranks = [k & 3 for k in keys]
    cuts = [0, *compress(range(1, len(keys)), map(ne, ranks, ranks[1:])), len(keys)]
    sums = [(a := k >> 2 & low, (c := k >> shift) - a, c) for k in keys]
    runs = []
    for i, j in zip(cuts, cuts[1:]):
        rank = ranks[i]
        if rank & 1:
            witnesses = sums[i:j]
        elif rank:  # a, 2a
            witnesses = [(k >> 2 & low, k >> shift) for k in keys[i:j]]
        else:  # n
            witnesses = [(k >> 2 & low,) for k in keys[i:j]]
        runs.append((RANKED_KINDS[rank], index, witnesses))
    return runs


def _violations(keys: list[int], shift: int, index: "int | None") -> list[Violation]:
    """One Violation per key, in order, labelled with subset index."""
    return _unrolled(_key_runs(keys, shift, index))


def weak_violations(
    S: IntSet, *, first_only: bool = False, subset_index: "int | None" = None
) -> list[Violation]:
    """Every triple a < b with a+b also in S, by smaller operand and then
    larger, each labelled with subset_index: _weak_keys, decoded."""
    shift = _shift(S.mask.bit_length())
    return _violations(_weak_keys(S, shift, first_only), shift, subset_index)


def _weak_keys(S: IntSet, shift: int, first_only: bool) -> list[int]:
    """The weak-sum triples of S as keys (see _shift), via shifted
    intersection.

    For positive integers a != b forces a+b distinct from both, so
    enumerating a < b is exactly the no-three-distinct-members criterion.
    Bit k of ``mask & (mask >> a)`` says k and k+a are both members.  Only
    a with 2a < max(S) can open a triple; these candidates are probed one
    of three ways, with identical results:

    * per element: one full-width probe per candidate a;
    * per run: one probe per run [lo, hi] of consecutive candidates,
      ``(smear(mask, hi-lo+1) >> lo) & mask`` above lo.  It is zero when
      no a in the run has a partner b > a, so the run is cleared; when it
      is not (a triple, or just a double a + a), that run alone is
      re-probed per element;
    * per block: the mask is cut into BLOCK_BITS-bit blocks.  A candidate
      a in block i can only meet a partner b in an occupied block j >= i
      whose target block i+j or i+j+1 is occupied, so a is probed once per
      such j on two blocks' width, not on the whole mask.  A probe that
      fires is a real triple, and that a alone is re-probed per element.

    Re-probes keep the list exhaustive and in (a, b) order, and with
    first_only it holds the first key alone.  One rule picks the
    path from the mask alone, counting big-int operations on the whole
    mask: one per candidate for the element path (a probe takes about
    four, so the rule leans to this simplest path), log2(run length) + 3
    per run for the run path, and for the block path two per block probe,
    scaled by a block's width against the mask's (see PROBE_WORDS).
    Scattered sets keep the per-element loop, long runs take the run path,
    and the older, Cantor-like subsets of a construction output (few
    elements per run, few occupied blocks) take the block path.  A set
    narrower than BLOCK_MIN_BLOCKS blocks, or cheaper by the other paths
    than cutting it into blocks, skips the block count after one or two
    comparisons.
    """
    m = S.mask
    if not m:
        return []
    top = m.bit_length() - 1
    low = m & ((2 << ((top - 1) >> 1)) - 1)  # the candidates a <= (max-1)/2
    probes = low.bit_count()
    runs = (low & ~(low << 1)).bit_count()
    by_runs = runs * ((probes // runs).bit_length() + 3) if runs else probes
    cost = min(probes, by_runs)
    if top >= BLOCK_MIN_BLOCKS * BLOCK_BITS and cost > CUT_COST:
        plan = _block_plan(m, low, BLOCK_BITS)
        block_probes = sum(cand.bit_count() * len(js) for _, cand, js in plan[1])
        if (2 * block_probes * (BLOCK_BITS // 64 + PROBE_WORDS)
                < cost * ((top >> 6) + PROBE_WORDS)):
            return _weak_by_blocks(m, plan, first_only, shift)
    if by_runs < probes:
        return _weak_by_runs(m, low, first_only, shift)
    return _weak_by_elements(m, bit_positions(low), first_only, shift)


def _weak_by_elements(
    m: int, operands: Iterable[int], first_only: bool, shift: int
) -> list[int]:
    """Exact per-element probe of each ascending operand a against mask m.
    ``(m >> a) & m`` alone is zero for most operands of a clean set, so the
    partners b <= a are masked off only when it is not.  The key of
    a + b is ``(b << shift) + base``, base holding the part that depends
    on a alone."""
    out: list[int] = []
    for a in operands:
        pair = (m >> a) & m
        if pair and (pair := pair & (-1 << (a + 1))):
            base = (a << shift) + (a << 2) + WEAK
            if first_only:
                return [(((pair & -pair).bit_length() - 1) << shift) + base]
            out += [(b << shift) + base for b in bit_positions(pair)]
    return out


def _weak_by_runs(m: int, low: int, first_only: bool, shift: int) -> list[int]:
    """One probe per run of consecutive bits of ``low`` (operands drawn
    from mask m); runs that light it are re-enumerated per element."""
    out: list[int] = []
    for lo, stop in zip(*run_bounds(low)):
        if (_smear(m, stop - lo) >> lo) & m & (-1 << (lo + 1)):
            out += _weak_by_elements(m, range(lo, stop), first_only, shift)
            if first_only and out:
                break
    return out


def _smear(m: int, length: int) -> int:
    """OR of ``m >> k`` for 0 <= k < length, by shift-doubling: bit j is
    set iff m has a bit in [j, j + length)."""
    out, width = m, 1
    while 2 * width <= length:
        out |= out >> width
        width *= 2
    if width < length:
        out |= out >> (length - width)
    return out


def _block_plan(
    m: int, low: int, w: int
) -> tuple[list[int], list[tuple[int, int, list[int]]], int]:
    """The block path's work for mask m and its candidates low, in w-bit
    blocks (w a multiple of 8): (blocks, work, w).  blocks holds the
    blocks of m, lowest first, and one zero block past them.  work holds
    (i, the candidates of block i, the js) for each block i with
    candidates; the js are the occupied blocks j >= i whose block i+j or
    i+j+1 is occupied, the only ones that can hold a partner b."""
    size = w >> 3
    raw = m.to_bytes((m.bit_length() + 7) >> 3, "little")
    blocks = [int.from_bytes(raw[k:k + size], "little") for k in range(0, len(raw), size)]
    blocks.append(0)
    occupied = 0
    for k, block in enumerate(blocks):
        if block:
            occupied |= 1 << k
    targets = occupied | occupied >> 1  # bit k: block k or k+1 is occupied
    work = []
    span = low.bit_length()  # the candidates are the bits of m below span
    last = (span - 1) // w
    for i in range(last + 1 if low else 0):
        cand = blocks[i] if i < last else blocks[i] & ((1 << (span - i * w)) - 1)
        js = bit_positions(occupied & (targets >> i) & (-1 << i)) if cand else None
        if js:
            work.append((i, cand, js))
    return blocks, work, w


def _weak_by_blocks(m: int, plan: tuple, first_only: bool, shift: int) -> list[int]:
    """Block-sparse probe over plan = _block_plan(m, low, w): each
    candidate a' of block i against each partner block j of the plan, as
    ``(T >> a') & B_j`` where B_j is block j and T the two target blocks
    i+j and i+j+1 (with b > a as well when j = i).  A probe that fires
    names a real triple, so exactly the operands with a partner are
    re-probed per element, in ascending order."""
    blocks, work, w = plan
    lit: list[int] = []
    for i, cand, js in work:
        operands = bit_positions(cand)
        found: set[int] = set()
        for j in js:
            block, target = blocks[j], blocks[i + j] | blocks[i + j + 1] << w
            if j == i:
                found.update([a for a in operands if (target >> a) & block & (-2 << a)])
            else:
                found.update([a for a in operands if (target >> a) & block])
        lit += sorted(i * w + a for a in found)
        if first_only and lit:
            break
    return _weak_by_elements(m, lit, first_only, shift)


def weak_violations_naive(S: IntSet) -> list[Violation]:
    """Reference enumerator: direct O(|S|^2) pair scan, no bit tricks.

    Exists purely to cross-check weak_violations; keep it boring.
    """
    elems = S.elements
    members = set(elems)
    out = []
    for i, a in enumerate(elems):
        for b in elems[i + 1:]:
            if a + b in members:
                out.append(Violation("weak-sum", None, (a, b, a + b)))
    return out


def strong_violations(S: IntSet) -> list[Violation]:
    """Every pair a <= b (equality allowed) with a+b in S."""
    out: list[Violation] = []
    m = S.mask
    top = m.bit_length() - 1  # -1 for the empty set, so no candidates
    for a in bit_positions(m & ((1 << (top // 2 + 1)) - 1)):  # the a with 2a <= top
        pair = (m >> a) & m & (-1 << a)  # b >= a this time
        if pair:
            out.extend(
                Violation("strong-sum", None, (a, b, a + b)) for b in bit_positions(pair)
            )
    return out


def condition2_violations(p: Partition) -> list[Violation]:
    """Pairs a, 2a in one subset with a > 4, by subset and then a.

    Doubling with a <= 4 is exempt: those sums are the only a+a=c shapes a
    step can run into below the reflection zone, and they are harmless.
    """
    shift = _shift_for(p)
    return [v for i, sub in enumerate(p.subsets, 1)
            for v in _violations(_double_keys(sub.mask, shift), shift, i)]


def _double_keys(m: int, shift: int) -> list[int]:
    """The keys of the pairs a, 2a in mask m with a > 4, by a."""
    return [(a << shift + 1) + (a << 2) + DOUBLE for a in bit_positions(halve(m) & m & -32)]


def condition3_violations(p: Partition) -> list[Violation]:
    """Subset 1 must stay weakly sum-free when n+2 joins it, and must not
    contain n itself.  Both halves are what lets a step be applied.

    Derived rather than re-checked, for a well-formed p (every element at
    most n): n+2 is larger than any element, so it is never an operand,
    and the triples of S1 + {n+2} are subset 1's own weak-sum triples plus
    the pairs a < b of S1 with a + b = n+2.  Listed by smaller operand,
    subset 1's triples first for equal operands, as a weak check of
    S1 + {n+2} lists them.
    """
    shift = _shift_for(p)
    out = _violations(_condition3_keys(p, _weak_keys(p.subset(1), shift, False), shift),
                      shift, 1)
    out.sort(key=lambda v: v.witness[0])  # stable: equal operands keep S1's triples first
    return out


def _condition3_keys(p: Partition, s1_weak: list[int], shift: int) -> list[int]:
    """condition3_violations' keys from s1_weak, the full _weak_keys list
    of subset 1: each of its triples with the rank flipped to
    CONDITION3_SUMFREE, then the pairs summing to t = n+2, then n if
    subset 1 holds it.  The pairs are the bits a of S1 that S1's
    reflection about t also holds, a <= (t-1)/2 so that a < t - a: a
    double a + a = t is never a weak-sum triple."""
    n, t = p.n, p.n + 2
    m = p.subset(1).mask
    pairs = m & reflect(m, t) & ((2 << ((t - 1) >> 1)) - 1)
    out = [k ^ (WEAK ^ CONDITION3_SUMFREE) for k in s1_weak]
    base = (t << shift) + CONDITION3_SUMFREE
    out += [base + (a << 2) for a in bit_positions(pairs)]
    if m >> n & 1:
        out.append((n << shift) + (n << 2) + CONDITION3_MEMBERSHIP)
    return out


def verify(
    p: Partition,
    which: "ConditionSet | None" = None,
    *,
    first_only: bool = False,
) -> ViolationReport:
    """Run the selected checks and aggregate a deterministic report.

    Well-formedness always runs first; if it fails, the condition checks
    are skipped (their labels stay out of checked_conditions) so they never
    see garbage.  Violations are sorted by (subset, sum, smaller operand,
    kind), as violation_key orders them.
    An empty report with condition 1 checked certifies the order as a
    lower-bound witness; empty with all conditions means the partition can
    seed the construction.  With first_only, checks stop after the first
    that finds anything (condition 1 counts per subset), and only the
    smallest violation found is kept.

    Condition 3 is derived from subset 1's weak-sum list
    (condition3_violations); when condition 1 runs too, the list it
    computed for subset 1 is reused.  That is exact with first_only as
    well: verify only reaches condition 3 if subset 1's list was empty.
    The checks run in _verify, which hands over the report's runs in
    report order; no Violation object is made until a caller reads the
    report's violations.
    """
    return ViolationReport._of_runs(
        *_verify(p, which if which is not None else ALL_CONDITIONS, first_only))


def _verify(
    p: Partition, which: ConditionSet, first_only: bool
) -> tuple[list[tuple], set[str]]:
    """verify's checks, as (the report's runs, labels of the checks that
    ran); validate_seed unrolls the runs to add its seed rules.
    Well-formedness runs first, and the condition checks only ever see a
    well-formed p; a p that has passed that check once is not checked
    again.  The condition checks give each subset's violations as keys
    (see _shift): one int sort per subset puts them in report order."""
    checked = {LABEL_WELL_FORMED}
    bad = p.structural_violations()
    if bad:
        return _runs_of(bad[:1] if first_only else bad), checked  # already sorted
    shift = _shift(p.n)
    found: list[list[int]] = [[] for _ in p.subsets]  # each subset's keys
    if which.weak_sum_free:
        checked.add(LABEL_WEAK)
        for i, sub in enumerate(p.subsets):
            found[i] = _weak_keys(sub, shift, first_only)
            if first_only and found[i]:  # this subset's, the first to find any
                return _report_runs(found, shift, True), checked
    s1_weak = found[0]
    if which.no_double:
        checked.add(LABEL_NO_DOUBLE)
        # new lists: s1_weak stays subset 1's weak keys alone
        found = [keys + _double_keys(sub.mask, shift) for keys, sub in zip(found, p.subsets)]
        if first_only and any(found):
            return _report_runs(found, shift, True), checked
    if which.seed_extension:
        checked.add(LABEL_SEED_EXT)
        # a first_only list reaches here only when it is empty, so it is
        # the full list too
        if not which.weak_sum_free:
            s1_weak = _weak_keys(p.subsets[0], shift, False)
        found[0] = found[0] + _condition3_keys(p, s1_weak, shift)
    return _report_runs(found, shift, first_only), checked


def _report_runs(found: list[list[int]], shift: int, first_only: bool) -> list[tuple]:
    """The report's runs from found, each subset's keys: each list sorted
    in place and decoded, or with first_only the smallest key of the first
    list that has any."""
    runs = []
    for i, keys in enumerate(found, 1):
        if first_only and keys:
            return _key_runs([min(keys)], shift, i)
        keys.sort()
        runs += _key_runs(keys, shift, i)
    return runs

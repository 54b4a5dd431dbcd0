"""The tripling construction: one step, iteration, seeds and bounds.

A step takes a partition of 1..m into s weakly sum-free subsets satisfying
three conditions (weak sum-freeness, no a/2a pair with a > 4 in one subset,
and subset 1 staying sum-free when m+2 joins it while m stays out) and
produces a partition of 1..3m-1 into s+1 subsets satisfying the same
conditions again, so the step can be repeated forever.  Orders follow
m' = 3m - 1, which from the built-in order-21 base gives 62, 185, 554,
1661, ... as lower-bound witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .intset import IntSet, bit_positions, reflect
from .partition import (
    VIOLATION_KINDS,
    ConstructionTrace,
    Partition,
    Violation,
    ViolationReport,
    _unrolled,
)
from .verifier import ALL_CONDITIONS, LABEL_WEAK, _verify

#: comparison orders from other published constructions, shown in tables as
#: context only, never reproduced by this library
LITERATURE_ORDERS = {
    6: ((536, "strong"), (572, "weak"), (642, "weak")),
    7: ((1680, "strong"), (2146, "weak")),
}

_BASE_SUBSETS = (
    (1, 2, 4, 8, 18),
    (3, 5, 6, 7, 19, 20, 21),
    tuple(range(9, 18)),
)

class SeedConditionError(ValueError):
    """The input to a construction step fails a required condition."""

    def __init__(
        self,
        failed: str,
        report: Optional[ViolationReport] = None,
        step: Optional[int] = None,
    ):
        self.failed = failed
        self.report = report
        self.step = step
        at = f" at step {step}" if step is not None else ""
        super().__init__(f"cannot extend partition{at}: {failed} fails")


def base_partition() -> Partition:
    """The built-in 3-subset seed of order 21: {1,2,4,8,18},
    {3,5,6,7,19,20,21}, {9..17}.  Satisfies every condition the step needs."""
    return Partition(tuple(IntSet(e) for e in _BASE_SUBSETS), 21)


#: the smallest order the step extends; at exactly this order the injected
#: 2n+2 is the next order minus one, so the chain stops one step later
MIN_ORDER = 4
#: subset 1 holding d and d - GAP with d > 4 stops the chain: one step on,
#: d - GAP pairs with the reflection 3n+4-d to hit the next extension sum
GAP = 3


def _seed_rules(n: int) -> list[tuple[int, str, tuple[int, ...]]]:
    """The values subset 1 of an order-n seed must avoid, as rows
    (value, kind, witness); a row trips when its value is in subset 1.
    Rows, not a dict, because n-1 can equal 5 or 6.

    * 5: the next output has order 3n-1 = (3n+4)-5 inside its subset 1,
      failing the membership half of condition 3 one step out.
    * 6: becomes the n-1 case one step later.
    * n-1: pairs with the injected 2n+2 to hit 3n+1, the extension sum of
      the next output.
    * (n+2)/2 for even n, above the a <= 4 exemption, blocks the step: the
      injected n+2 is its double, so the output contains (n+2)/2 + (n+2)/2
      = n+2 and, via the reflection of (n+2)/2, the distinct sum
      (n+2)/2 + (2n+2) = (3n+4) - (n+2)/2, so it is not even weakly
      sum-free.  Condition 3 cannot see this: a + a = c sums are exactly
      what weak sum-freeness ignores.

    validate_seed reports the rows with MIN_ORDER and GAP; the search's
    rule table (search._walk_rules) bans the same rows and GAP from
    subset 1.
    """
    rows = [
        (5, "advisory-lookahead", (5, 3 * n - 1)),
        (6, "advisory-chain-break", (6,)),
        (n - 1, "advisory-chain-break", (n - 1, 2 * n + 2)),
    ]
    half = (n + 2) // 2
    if n % 2 == 0 and half > 4:
        rows.append((half, "injected-double", (half, n + 2)))
    return rows


def _seed_rule_violations(p: Partition) -> list[Violation]:
    """Every seed rule p trips, blocking and advisory alike.  A Violation
    is built only for a rule that trips."""
    n = p.n
    s1 = p.subset(1)
    out = [Violation(kind, 1, w) for value, kind, w in _seed_rules(n) if value in s1]
    if n < MIN_ORDER:  # the output pieces would overlap or overshoot 3n-1
        out.append(Violation("order-too-small", None, (n,)))
    elif n == MIN_ORDER:
        out.append(Violation("advisory-chain-break", 1, (2 * n + 2,)))
    m = s1.mask
    for d in bit_positions(m & (m << GAP) & -32):  # d > 4 with d - GAP in s1 too
        out.append(Violation("advisory-chain-break", 1, (d - GAP, d)))
    return out


def _require_seed(p: Partition, step: Optional[int] = None) -> ViolationReport:
    """validate_seed's report on p; raises SeedConditionError, carrying
    step, on its first blocking entry."""
    report = validate_seed(p)
    blocking = report.blocking()
    if blocking:
        first = min(blocking, key=lambda v: VIOLATION_KINDS[v.kind].rank)
        raise SeedConditionError(VIOLATION_KINDS[first.kind].condition, report, step)
    return report


def _step(p: Partition) -> tuple[Partition, ConstructionTrace]:
    """The step itself, on an input the caller has already guarded."""
    m = p.n
    r = 3 * m + 4
    reflected = [reflect(sub.mask & -32, r) for sub in p.subsets]  # a > 4 only
    injected = 1 << (m + 2) | 1 << (2 * m + 2)
    masks = [sub.mask | refl for sub, refl in zip(p.subsets, reflected)]
    masks[0] |= injected
    # m+1 .. 2m+3 but for the two injected values
    masks.append(((1 << (2 * m + 4)) - (1 << (m + 1))) ^ injected)
    subsets = tuple(IntSet.from_mask(mask) for mask in masks)
    out = Partition(subsets, 3 * m - 1)
    out.validate()
    trace = ConstructionTrace(
        input_order=m,
        output_order=3 * m - 1,
        injected=(m + 2, 2 * m + 2),
        reflected_per_subset=tuple(IntSet.from_mask(refl) for refl in reflected),
        new_subset=subsets[-1],
    )
    return out, trace


def construct_step(p: Partition) -> tuple[Partition, ConstructionTrace]:
    """Extend a conforming partition of 1..m to one of 1..3m-1.

    Three rules build the output, each one mask operation:

    1. subset 1 additionally receives m+2, 2m+2 and the reflection
       3m+4-a of each of its own elements a > 4;
    2. every other subset i receives the reflections of its own elements
       a > 4;
    3. a brand new subset takes m+1, the block m+3 .. 2m+1, and 2m+3.

    Elements 1..4 are never reflected; the reflections of 5..m tile
    2m+4 .. 3m-1 exactly once each, which is what makes the output a
    partition.  Every call verifies its input first and refuses it on any
    blocking entry of validate_seed: without that the output would not be
    a weak Schur partition at all.  iterate guards only the seed when its
    report is empty, and relies on the induction for the outputs.
    """
    _require_seed(p)
    return _step(p)


def iterate(
    seed: Partition, steps: int
) -> list[tuple[Partition, ConstructionTrace]]:
    """Apply the step repeatedly, guarding the seed once.

    The seed goes through construct_step's guard.  An empty validate_seed
    report is exactly the induction's hypothesis: every condition and seed
    rule re-establishes itself under the step, so each later output would
    pass the guard as well, and the remaining steps run unguarded.  While
    the report holds advisories the chain may stop soon, so the output of
    each step is guarded before the next consumes it, until one report
    comes back empty.  The final output is not gated on the conditions; a
    seed carrying the look-ahead advisory legitimately supports exactly one
    step, and that step's output is still a valid weak Schur partition.
    Raises SeedConditionError carrying the 0-based index of the step whose
    guard failed.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    chain: list[tuple[Partition, ConstructionTrace]] = []
    current = seed
    guarded = True
    for k in range(steps):
        if guarded:
            guarded = not _require_seed(current, k).passed
        current, trace = _step(current)
        chain.append((current, trace))
    return chain


def validate_seed(p: Partition) -> ViolationReport:
    """Check whether a partition can start the iteration, and how far.

    The report holds conditions 1..3 and the seed rules (_seed_rules,
    MIN_ORDER and GAP).  Blocking entries mean no step is possible at all.
    Advisories, reported only when nothing blocks, mean at least one step
    works but the chain provably stops soon after.  An empty report
    certifies the chain iterates indefinitely: every rule re-establishes
    itself under the step, so the induction closes.
    """
    runs, checked = _verify(p, ALL_CONDITIONS, False)
    violations = _unrolled(runs)
    if LABEL_WEAK in checked:  # the conditions ran, so p is well-formed
        checked.add("look-ahead")
        found = _seed_rule_violations(p)
        violations += [v for v in found if not v.is_advisory]
        if not violations:
            # advisories describe the chain's future; moot unless a first
            # step is actually possible
            violations = found
    return ViolationReport.build(violations, checked)


@dataclass(frozen=True)
class BoundSequence:
    """Orders reached by the construction for consecutive subset counts."""

    start_s: int
    orders: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "orders", tuple(self.orders))
        for k in range(len(self.orders) - 1):
            if self.orders[k + 1] != 3 * self.orders[k] - 1:
                raise ValueError(
                    f"orders[{k + 1}] = {self.orders[k + 1]} breaks the "
                    f"3x-1 recurrence from {self.orders[k]}"
                )

    def as_json(self) -> dict:
        return {"start_s": self.start_s, "orders": list(self.orders)}


def bound(s: int) -> int:
    """Largest order the chain from the built-in base reaches with s
    subsets: (41 * 3^(s-3) + 1) / 2, the closed form of m' = 3m - 1 from
    m = 21.  Exact integer arithmetic, valid for any s >= 3."""
    if s < 3:
        raise ValueError("bound is defined for s >= 3")
    return (41 * 3 ** (s - 3) + 1) // 2


def bound_table(s_max: int) -> BoundSequence:
    """Bound values for s = 3..s_max as a recurrence-checked sequence."""
    if s_max < 3:
        raise ValueError("s_max must be >= 3")
    return BoundSequence(3, tuple(bound(s) for s in range(3, s_max + 1)))

"""Independent checks on the CLI's outputs.

Each check takes a command's exit code and stdout and returns None when
both are right, or a one-line reason.  Expected reports are built here from
the analytic answer or from the package's naive reference enumerator, never
from the fast verifier whose output is being checked.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from weakschur import (
    ConditionSet,
    IntSet,
    bound,
    parse_partition,
    validate_seed,
    verify,
    weak_violations_naive,
)

ALL_CONDITIONS = ["no-double", "seed-extension", "weak-sum-free", "well-formed"]

#: sha256 of ``weakschur generate --s 12`` output, the order-403502 chain
CHAIN_S12_SHA256 = "825b6277dd02f0c306463abab6d5f4aed49d63d657f42701df3c2b533e47a47f"

SEARCH_S, SEARCH_CAP, SEARCH_BUDGET, SEARCH_BEST_N = 4, 60, 1_000_000, 52
SEEDS_S, SEEDS_N, SEEDS_LIMIT = 4, 40, 20000


def _sort_key(v: dict) -> tuple:
    w = v["witness"]
    return (v["subset_index"] or 0, w[-1] if w else 0, w[0] if w else 0, v["kind"])


def report_doc(violations: list[dict]) -> dict:
    return {"checked_conditions": ALL_CONDITIONS,
            "violations": sorted(violations, key=_sort_key)}


def two_adic_report(n: int) -> dict:
    """The analytic ``verify --json`` report of gen.two_adic(n).  For even n
    it holds only the condition-3 witnesses (a, n+2-a, n+2) for odd
    3 <= a < (n+2)/2.  For odd n no two odd numbers sum to n+2, but n
    itself lies in subset 1."""
    if n % 2:
        return report_doc([{"kind": "condition3-membership", "subset_index": 1, "witness": [n]}])
    return report_doc([
        {"kind": "condition3-sumfree", "subset_index": 1, "witness": [a, n + 2 - a, n + 2]}
        for a in range(3, n + 2, 2) if 2 * a < n + 2
    ])


def naive_report(subsets: list[list[int]], n: int) -> dict:
    """The full ``verify --json`` report by direct scans: weak sums from
    weak_violations_naive per subset, a/2a pairs and condition 3 by hand."""
    out = []

    def sums(elems, kind, index):
        for v in weak_violations_naive(IntSet(elems)):
            out.append({"kind": kind, "subset_index": index, "witness": list(v.witness)})

    for i, sub in enumerate(subsets, 1):
        sums(sub, "weak-sum", i)
        members = set(sub)
        out.extend({"kind": "double-element", "subset_index": i, "witness": [a, 2 * a]}
                   for a in sub if a > 4 and 2 * a in members)
    sums(subsets[0] + [n + 2], "condition3-sumfree", 1)
    if n in subsets[0]:
        out.append({"kind": "condition3-membership", "subset_index": 1, "witness": [n]})
    return report_doc(out)


def _json(stdout: bytes):
    try:
        return json.loads(stdout)
    except ValueError:
        return None


def check_version(code: int, stdout: bytes):
    if code != 0 or not stdout.startswith(b"weakschur "):
        return f"--version: exit {code}, stdout {stdout[:60]!r}"
    return None


def check_generate(path: Path):
    """``generate --s 12 --out path --json``: n == bound(12), pinned bytes."""
    def check(code: int, stdout: bytes):
        doc = _json(stdout)
        orders = [bound(k) for k in range(4, 13)]
        if code != 0 or not doc or doc.get("n") != bound(12) or doc.get("orders") != orders:
            return f"generate: exit {code}, doc {str(doc)[:120]}"
        data = path.read_bytes()
        if data.split(b"\n", 2)[1] != f"s=12 n={bound(12)}".encode():
            return "generate: header is not s=12 n=bound(12)"
        if hashlib.sha256(data).hexdigest() != CHAIN_S12_SHA256:
            return "generate: output differs from the pinned chain"
        return None
    return check


def check_report(expected: dict, expected_code: int, label: str):
    """``verify --json`` must print exactly ``expected`` and exit as given."""
    def check(code: int, stdout: bytes):
        if code != expected_code:
            return f"{label}: exit {code}, expected {expected_code}"
        doc = _json(stdout)
        if doc != expected:
            got = len(doc.get("violations", ())) if isinstance(doc, dict) else None
            return f"{label}: report differs ({got} violations, expected {len(expected['violations'])})"
        return None
    return check


def check_search_ws(code: int, stdout: bytes):
    """Budgeted scan: capped at best_n 52 after exactly the budget, exit 3,
    and its witness is weakly sum-free."""
    doc = _json(stdout)
    want = {"s": SEARCH_S, "mode": "capped", "best_n": SEARCH_BEST_N,
            "exhausted": False, "nodes_visited": SEARCH_BUDGET}
    if code != 3 or not doc or any(doc.get(k) != v for k, v in want.items()):
        return f"search ws: exit {code}, doc {str(doc)[:160]}"
    w = parse_partition(doc["witness"])
    if (w.s, w.n) != (SEARCH_S, SEARCH_BEST_N) or verify(w, ConditionSet.condition1()).violations:
        return "search ws: witness is not a weak Schur partition of 1..52"
    return None


def check_search_seeds(code: int, stdout: bytes):
    """Seed hunt: 20000 distinct seeds, each accepted by validate_seed."""
    doc = _json(stdout)
    if code != 0 or not doc or doc.get("found") != SEEDS_LIMIT:
        return f"search seeds: exit {code}, found {doc and doc.get('found')}"
    seeds = doc["seeds"]
    if len(seeds) != SEEDS_LIMIT or len(set(seeds)) != SEEDS_LIMIT:
        return "search seeds: seeds are missing or repeated"
    for text in seeds:
        p = parse_partition(text)
        if (p.s, p.n) != (SEEDS_S, SEEDS_N) or validate_seed(p).violations:
            return f"search seeds: {text!r} is not a clean seed"
    return None


def memo(check):
    """Run ``check`` once per distinct (exit code, stdout): identical bytes
    to an output already checked get the same verdict."""
    seen: dict = {}

    def cached(code: int, stdout: bytes):
        key = (code, hashlib.sha256(stdout).digest())
        if key not in seen:
            seen[key] = check(code, stdout)
        return seen[key]
    return cached

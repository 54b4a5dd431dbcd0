"""The traced run: each layer's public functions called in-process, with a
span around every call.

Spans and counts are recorded only here, in the benchmark, around calls
into the package; nothing inside the package is instrumented.  A span's
layer is the part of its name before the first dot.  Spans named
``cli.<command>`` replay one CLI command's work in-process, so the CLI's
wall time minus that span is the cost of running it as a command.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
import tracemalloc
from contextlib import contextmanager

from weakschur import (
    ConditionSet,
    IntSet,
    ViolationReport,
    base_partition,
    compute_ws,
    condition2_violations,
    condition3_violations,
    construct_step,
    find_seeds,
    iterate,
    parse_partition,
    serialize_partition,
    validate_seed,
    verify,
    weak_violations,
    well_formed_violations,
)

import gen
import oracle

CHAIN_STEPS = 9  # base order 21 (s = 3) to order 403502 (s = 12)


class Tracer:
    """Spans (name, start, end, parent) and named counts, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter_ns()

    def add(self, name: str, k: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def durations(self, name: str) -> list[float]:
        return [(end - start) / 1e9 for n, start, end, _ in self.spans if n == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_times(self) -> dict[str, float]:
        """Seconds per layer: each span's duration minus its children's."""
        own = [(end - start) / 1e9 for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent is not None:
                own[parent] -= (end - start) / 1e9
        out: dict[str, float] = {}
        for (name, *_), t in zip(self.spans, own):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + t
        return out


def span_cost_s(samples: int = 20000) -> float:
    """Mean cost of recording one empty span, for the tracing overhead."""
    tr = Tracer()
    t0 = time.perf_counter()
    for _ in range(samples):
        with tr.span("bench.calibrate"):
            pass
    return (time.perf_counter() - t0) / samples


def construct_group(tr: Tracer, work, failures: list) -> tuple[dict, str]:
    """``generate --s 12`` replayed, then each step's re-verification and
    the final step timed on their own.  Returns metrics and the chain text."""
    base = base_partition()
    with tr.span("cli.generate"):
        with tr.span("construct.iterate"):
            chain = iterate(base, CHAIN_STEPS)
        final = chain[-1][0]
        with tr.span("partition.serialize_partition"):
            text = serialize_partition(final)
        path = work / "chain_inprocess.wsp"
        path.write_text(text, encoding="ascii")
        json.dumps({"s": final.s, "n": final.n, "orders": [p.n for p, _ in chain],
                    "out": str(path), "partition": None, "trace": None}, sort_keys=True)
    if hashlib.sha256(text.encode()).hexdigest() != oracle.CHAIN_S12_SHA256:
        failures.append("in-process generate differs from the pinned chain")
    tr.add("construct.steps", len(chain))
    step_inputs = [base] + [p for p, _ in chain[:-1]]
    for p in step_inputs:
        with tr.span("construct.reverify"):
            verify(p, ConditionSet.all())
    with tr.span("construct.construct_step"):
        construct_step(step_inputs[-1])
    iterate_s = tr.total("construct.iterate")
    reverify_s = tr.total("construct.reverify")
    return {
        "construct.iterate_s": iterate_s,
        "construct.step_s": tr.total("construct.construct_step"),
        "construct.reverify_s": reverify_s,
        "construct.reverify_share": reverify_s / iterate_s,
        "construct.steps": tr.counts["construct.steps"],
        "partition.serialize_s": tr.total("partition.serialize_partition"),
    }, text


def verify_group(tr: Tracer, inputs: list[tuple[str, list[str]]], *,
                 replay_cli: bool, round_trip: bool, failures: list,
                 expected: dict | None = None) -> dict:
    """Parse and verify each input's texts as ``verify --json`` does, then
    time each condition, the report and the IntSet builds on their own."""
    stats_in, peak = [], 0
    for label, texts in inputs:
        with tr.span("cli.verify" if replay_cli else "bench.verify"):
            with tr.span("partition.parse_partition"):
                parts = [parse_partition(t) for t in texts]
            with tr.span("verifier.verify"):
                reports = [verify(p) for p in parts]
            with tr.span("partition.as_json"):
                docs = [r.as_json() for r in reports]
            for doc in docs:
                json.dumps(doc, sort_keys=True)
        if expected and docs[0] != expected[label]:
            failures.append(f"in-process verify of {label} differs from the oracle")
        if round_trip:
            with tr.span("partition.serialize_partition"):
                again = [serialize_partition(p) for p in parts]
            if again != texts:
                failures.append(f"serialize(parse({label})) changed the text")
        with tr.span("partition.well_formed_violations"):
            for p in parts:
                well_formed_violations(p)
        max_s = max(p.s for p in parts)
        for i in range(max_s):
            with tr.span("verifier.weak_violations"):
                for p in parts:
                    if i < p.s:
                        weak_violations(p.subsets[i])
        with tr.span("verifier.condition2_violations"):
            for p in parts:
                condition2_violations(p)
        with tr.span("verifier.condition3_violations"):
            for p in parts:
                condition3_violations(p)
        with tr.span("partition.report_build"):
            for r in reports:
                ViolationReport.build(r.violations, r.checked_conditions)
        with tr.span("partition.describe"):
            for r in reports:
                for v in r.violations:
                    v.describe()
        elements = [sub.elements for p in parts for sub in p.subsets]
        with tr.span("intset.build"):
            built = [IntSet(e) for e in elements]
        del built
        tracemalloc.start()
        try:
            built = [IntSet(e) for e in elements]
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        del built
        for r in reports:
            tr.add("partition.violations", len(r.violations))
            tr.add("verifier.hits", len({(v.subset_index, v.witness[0], v.kind)
                                         for v in r.violations
                                         if v.kind in ("weak-sum", "condition3-sumfree")}))
        tr.add("partition.file_bytes", sum(len(t) for t in texts))
        stats_in.extend(([list(sub.elements) for sub in p.subsets], p.n) for p in parts)
    stats = gen.input_stats(stats_in)
    for key in ("probes", "elements", "runs"):
        tr.add(f"input.{key}", stats[key])
    weak = tr.durations("verifier.weak_violations")
    hits = tr.counts["verifier.hits"]
    return {
        "verifier.verify_s": tr.total("verifier.verify"),
        "verifier.weak_s": sum(weak),
        "verifier.weak_max_s": max(weak),
        "verifier.probes": stats["probes"],
        "verifier.probe_mb": stats["probe_mb"],
        "verifier.cond2_s": tr.total("verifier.condition2_violations"),
        "verifier.cond3_s": tr.total("verifier.condition3_violations"),
        "verifier.hits": hits,
        "verifier.hit_ratio": hits / stats["probes"],
        "partition.parse_s": tr.total("partition.parse_partition"),
        "partition.file_mb": tr.counts["partition.file_bytes"] / 1e6,
        "partition.validate_s": tr.total("partition.well_formed_violations"),
        "partition.report_build_s": tr.total("partition.report_build"),
        "partition.render_s": tr.total("partition.as_json") + tr.total("partition.describe"),
        "partition.violations": tr.counts["partition.violations"],
        **({"partition.serialize_s": tr.total("partition.serialize_partition")}
           if round_trip else {}),
        "intset.build_s": tr.total("intset.build"),
        "intset.partition_mb": peak / 1e6,
        "intset.elements": stats["elements"],
        "intset.runs": stats["runs"],
        "intset.elems_per_run": stats["elems_per_run"],
    }


def search_group(tr: Tracer, failures: list) -> tuple[dict, list[str]]:
    """``search ws`` and ``search seeds`` replayed, then the found seeds
    validated and verified one by one.  Returns metrics and the seed texts."""
    with tr.span("cli.search_ws"):
        with tr.span("search.compute_ws"):
            result = compute_ws(oracle.SEARCH_S, oracle.SEARCH_CAP, budget=oracle.SEARCH_BUDGET)
        with tr.span("partition.serialize_partition"):
            witness = serialize_partition(result.witness)
        ws_doc = {**result.as_json(), "witness_path": None, "witness": witness}
        ws_out = json.dumps(ws_doc, sort_keys=True)
    reason = oracle.check_search_ws(3, ws_out.encode())
    if reason:
        failures.append("in-process " + reason)
    with tr.span("cli.search_seeds"):
        with tr.span("search.find_seeds"):
            seeds = find_seeds(oracle.SEEDS_S, oracle.SEEDS_N, oracle.SEEDS_LIMIT)
        with tr.span("partition.serialize_partition"):
            texts = [serialize_partition(p) for p in seeds]
        json.dumps({"s": oracle.SEEDS_S, "n": oracle.SEEDS_N, "limit": oracle.SEEDS_LIMIT,
                    "found": len(seeds), "source": "search", "seeds": texts}, sort_keys=True)
    with tr.span("construct.validate_seed"):
        clean = sum(1 for p in seeds if not validate_seed(p).violations)
    if clean != oracle.SEEDS_LIMIT or len(set(texts)) != oracle.SEEDS_LIMIT:
        failures.append(f"find_seeds: {clean} clean of {len(seeds)}, expected {oracle.SEEDS_LIMIT}")
    with tr.span("verifier.verify_seed"):
        for p in seeds:
            verify(p)
    tr.add("search.nodes", result.nodes_visited)
    tr.add("search.seeds_found", len(seeds))
    find_s = tr.total("search.find_seeds")
    validate_s = tr.total("construct.validate_seed")
    ws_s = tr.total("search.compute_ws")
    return {
        "search.nodes": result.nodes_visited,
        "search.nodes_per_s": result.nodes_visited / ws_s,
        "search.find_seeds_s": find_s,
        "search.seeds_found": len(seeds),
        "search.search_share": (find_s - validate_s) / find_s,
        "construct.validate_seed_s": validate_s,
        "verifier.small_verify_us": tr.total("verifier.verify_seed") / len(seeds) * 1e6,
        "partition.serialize_s": tr.total("partition.serialize_partition"),
    }, texts


def traced_layers(workload: str, inputs: dict, work, failures: list) -> tuple[dict, list[Tracer]]:
    """Per-layer metrics on ``workload``'s own inputs.

    A layer the workload never calls (construct off the chain, search off
    search-s4) is measured on the workload it maps to instead, by a group
    run with its own tracer, so every traced run reports every layer.
    Metrics and layer self times come from the first tracer that has them:
    the workload's own, then the fillers.
    """
    own = Tracer()
    if workload == "chain-s12":
        metrics, text = construct_group(own, work, failures)
        metrics.update(verify_group(own, [("chain", [text])], replay_cli=True, round_trip=False,
                                    failures=failures, expected={"chain": oracle.report_doc([])}))
        fillers = ["search"]
    elif workload == "unstructured":
        metrics = verify_group(own, [(k, [inputs[k]]) for k in ("two_adic", "random")],
                               replay_cli=True, round_trip=True, failures=failures,
                               expected=inputs["expected"])
        fillers = ["construct", "search"]
    else:
        metrics, texts = search_group(own, failures)
        metrics.update(verify_group(own, [("seeds", texts)], replay_cli=False,
                                    round_trip=False, failures=failures))
        fillers = ["construct"]
    tracers = [own]
    for filler in fillers:
        tr = Tracer()
        found, _ = (construct_group(tr, work, failures) if filler == "construct"
                    else search_group(tr, failures))
        for key, value in found.items():
            metrics.setdefault(key, value)
        tracers.append(tr)
    for tr in tracers:
        for layer, seconds in tr.self_times().items():
            metrics.setdefault(f"{layer}.self_s", seconds)
    return metrics, tracers


def span_summary(tracers: list[Tracer]) -> list[tuple[str, int, float, float]]:
    """(name, calls, total s, median s) per span name, in first-seen order."""
    seen: dict[str, list[float]] = {}
    for tr in tracers:
        for name, start, end, _ in tr.spans:
            seen.setdefault(name, []).append((end - start) / 1e9)
    return [(n, len(d), sum(d), statistics.median(d)) for n, d in seen.items()]

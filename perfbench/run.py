"""End-to-end and per-layer benchmark of the weakschur CLI and library.

    python3 perfbench/run.py --workload chain-s12 --seed 1 --seconds 40 --trace 0

``--trace 0`` runs the workload's two CLI commands as child processes, one
at a time, repeatedly for about ``--seconds``, and reports medians of their wall
times, of CLI start-up (``--version``) and of their peak RSS.  ``--trace 1``
runs each command once through the CLI and then the same work in-process
through each module's public functions, with a span around every call, and
reports the per-layer metrics.  Every output is checked against an
independent oracle (see oracle.py).  The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.

The CLI is the checkout's own: ``python -m weakschur.cli`` with the
checkout's ``src`` first on PYTHONPATH.  Scratch files go to
``.perfbench_work/`` in the checkout and are removed on exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_PER_REP = 3       # --version runs per repetition, for setup_s
COMMAND_TIMEOUT_S = 150  # a child still running after this is killed and failed

# name, unit, better
E2E_METRICS = (
    ("setup_s", "s", "lower"),
    ("cmd1_s", "s", "lower"),
    ("cmd2_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# name, unit, better, the end-to-end metric and workload it should move
LAYER_METRICS = (
    ("construct.iterate_s", "s", "lower", "chain-s12 cmd1_s (generate_s)"),
    ("construct.step_s", "s", "lower", "chain-s12 cmd1_s (generate_s)"),
    ("construct.reverify_s", "s", "lower", "chain-s12 cmd1_s (generate_s)"),
    ("construct.reverify_share", "ratio", "lower", "chain-s12 cmd1_s (generate_s)"),
    ("construct.validate_seed_s", "s", "lower", "search-s4 cmd2_s (seeds_s)"),
    ("construct.steps", "count", "lower", "chain-s12 cmd1_s (generate_s)"),
    ("verifier.verify_s", "s", "lower", "chain-s12 cmd2_s and unstructured cmd1_s (verify_s)"),
    ("verifier.weak_s", "s", "lower", "chain-s12 cmd2_s (verify_s); no change on unstructured"),
    ("verifier.weak_max_s", "s", "lower", "chain-s12 cmd2_s (verify_s); no change on unstructured"),
    ("verifier.probes", "count", "lower", "chain-s12 cmd2_s (verify_s); no change on unstructured"),
    ("verifier.probe_mb", "MB", "lower", "chain-s12 cmd2_s (verify_s), computed"),
    ("verifier.cond2_s", "s", "lower", "chain-s12 cmd2_s and unstructured cmd1_s (verify_s)"),
    ("verifier.cond3_s", "s", "lower", "unstructured cmd1_s (verify_s)"),
    ("verifier.hits", "count", "lower", "unstructured cmd1_s (verify_s)"),
    ("verifier.hit_ratio", "ratio", "lower", "unstructured cmd1_s (verify_s)"),
    ("verifier.small_verify_us", "us", "lower", "search-s4 cmd2_s (seeds_s)"),
    ("partition.parse_s", "s", "lower", "verify_s and unstructured cmd2_s (reject_s)"),
    ("partition.file_mb", "MB", "lower", "verify_s and unstructured cmd2_s (reject_s)"),
    ("partition.serialize_s", "s", "lower", "chain-s12 cmd1_s (generate_s)"),
    ("partition.validate_s", "s", "lower", "every wall-time metric"),
    ("partition.report_build_s", "s", "lower", "unstructured cmd2_s (reject_s)"),
    ("partition.render_s", "s", "lower", "unstructured cmd2_s (reject_s)"),
    ("partition.violations", "count", "lower", "unstructured cmd2_s (reject_s)"),
    ("intset.build_s", "s", "lower", "chain-s12 cmd1_s and cmd2_s"),
    ("intset.partition_mb", "MB", "lower", "chain-s12 peak_rss_mb"),
    ("intset.elements", "count", "lower", "input property for run-length paths"),
    ("intset.runs", "count", "lower", "input property for run-length paths"),
    ("intset.elems_per_run", "count", "higher", "input property for run-length paths"),
    ("search.nodes", "count", "lower", "search-s4 cmd1_s (search_s); must stay identical"),
    ("search.nodes_per_s", "1/s", "higher", "search-s4 cmd1_s (search_s)"),
    ("search.find_seeds_s", "s", "lower", "search-s4 cmd2_s (seeds_s)"),
    ("search.seeds_found", "count", "higher", "search-s4 cmd2_s (seeds_s)"),
    ("search.search_share", "ratio", "lower", "search-s4 cmd2_s (seeds_s)"),
    ("cli.overhead_s", "s", "lower", "every wall-time metric"),
    ("cli.stdout_mb", "MB", "lower", "unstructured cmd2_s (reject_s), search-s4 cmd2_s (seeds_s)"),
    *((f"{layer}.self_s", "s", "lower", "that layer's share of the workload's wall time")
      for layer in ("cli", "partition", "intset", "construct", "verifier", "search")),
    ("trace.spans", "count", "lower", "tracing cost"),
    ("trace.overhead_s", "s", "lower", "traced minus untraced in-process time"),
)

WORKLOADS = ("chain-s12", "unstructured", "search-s4")


@dataclass
class Command:
    name: str    # the command's own metric name, e.g. generate_s
    slot: str    # the end-to-end metric it reports as: cmd1_s or cmd2_s
    argv: list[str]
    check: Callable[[int, bytes], "str | None"]


@dataclass
class Run:
    wall_s: float
    code: int
    stdout: bytes
    maxrss_mb: float


def run_cli(argv: list[str], work: Path, env: dict) -> Run:
    """One ``weakschur`` child process: wall time, exit code, stdout, and
    its own peak RSS from wait4 (not RUSAGE_CHILDREN, which is a running
    maximum over every child so far)."""
    out_path, err_path = work / "stdout", work / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "weakschur.cli", *argv],
                                stdout=out, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return Run(wall, code, out_path.read_bytes(), usage.ru_maxrss * 1024 / 1e6)


def prepare(workload: str, seed: int, work: Path):
    """The workload's commands, in-process inputs, and a function giving
    the (subsets, n) partitions its verifier calls see."""
    import oracle

    if workload == "chain-s12":
        chain = work / "chain.wsp"
        commands = [
            Command("generate_s", "cmd1_s", ["generate", "--s", "12", "--out", str(chain), "--json"],
                    oracle.check_generate(chain)),
            Command("verify_s", "cmd2_s", ["verify", str(chain), "--json"],
                    oracle.memo(oracle.check_report(oracle.report_doc([]), 0, "verify chain"))),
        ]
        return commands, {}, lambda outputs: [gen.from_wsp(chain.read_text(encoding="ascii"))]
    if workload == "unstructured":
        two_adic = gen.two_adic(gen.TWO_ADIC_N)
        colouring = gen.random_colouring(gen.RANDOM_N, gen.RANDOM_S, seed)
        texts = {"two_adic": gen.to_wsp(two_adic, gen.TWO_ADIC_N),
                 "random": gen.to_wsp(colouring, gen.RANDOM_N)}
        expected = {"two_adic": oracle.two_adic_report(gen.TWO_ADIC_N),
                    "random": oracle.naive_report(colouring, gen.RANDOM_N)}
        for label, text in texts.items():
            (work / f"{label}.wsp").write_text(text, encoding="ascii")
        commands = [
            Command("verify_s", "cmd1_s", ["verify", str(work / "two_adic.wsp"), "--json"],
                    oracle.memo(oracle.check_report(expected["two_adic"], 1, "verify 2-adic"))),
            Command("reject_s", "cmd2_s", ["verify", str(work / "random.wsp"), "--json"],
                    oracle.memo(oracle.check_report(expected["random"], 1, "verify random"))),
        ]
        parts = [(two_adic, gen.TWO_ADIC_N), (colouring, gen.RANDOM_N)]
        return commands, {**texts, "expected": expected}, lambda outputs: parts
    commands = [
        Command("search_s", "cmd1_s",
                ["search", "ws", "--s", str(oracle.SEARCH_S), "--cap", str(oracle.SEARCH_CAP),
                 "--budget", str(oracle.SEARCH_BUDGET), "--json"],
                oracle.memo(oracle.check_search_ws)),
        Command("seeds_s", "cmd2_s",
                ["search", "seeds", "--s", str(oracle.SEEDS_S), "--n", str(oracle.SEEDS_N),
                 "--limit", str(oracle.SEEDS_LIMIT), "--json"],
                oracle.memo(oracle.check_search_seeds)),
    ]
    return commands, {}, lambda outputs: [
        gen.from_wsp(t) for t in json.loads(outputs["seeds_s"])["seeds"]]


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.reasons: list[str] = []

    def record(self, reason: "str | None") -> None:
        self.attempted += 1
        if reason:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(reason)

    def check(self, check, run: Run) -> None:
        try:
            reason = check(run.code, run.stdout)
        except Exception as e:  # a malformed output must count, not end the run
            reason = f"check raised {e!r}"
        self.record(reason)


def measure(commands: list[Command], seconds: float, work: Path, env: dict, tally: Tally):
    """Repeat --version x SETUP_PER_REP and the workload's commands until
    one more repetition would pass ``seconds``; return the samples and each
    command's last stdout."""
    import oracle

    run_cli(["--version"], work, env)  # writes bytecode caches; users do not pay this per run
    samples: dict[str, list[float]] = {"setup_s": [], "peak_rss_mb": []}
    last: dict[str, bytes] = {}
    start = time.perf_counter()
    rep_s: list[float] = []
    while True:
        rep_start = time.perf_counter()
        for _ in range(SETUP_PER_REP):
            r = run_cli(["--version"], work, env)
            samples["setup_s"].append(r.wall_s)
            tally.check(oracle.check_version, r)
        rss = 0.0
        for cmd in commands:
            r = run_cli(cmd.argv, work, env)
            samples.setdefault(cmd.slot, []).append(r.wall_s)
            rss = max(rss, r.maxrss_mb)
            tally.check(cmd.check, r)
            last[cmd.name] = r.stdout
        samples["peak_rss_mb"].append(rss)
        now = time.perf_counter()
        rep_s.append(now - rep_start)
        # stop before a repetition that would overrun, so a run lasts about `seconds`
        if now - start + statistics.median(rep_s) > seconds:
            return samples, last


def traced(workload, commands, inputs, work, env, tally):
    """Each command once through the CLI, then the traced in-process run."""
    import layers

    cli_wall = stdout_bytes = 0.0
    for cmd in commands:
        r = run_cli(cmd.argv, work, env)
        tally.check(cmd.check, r)
        cli_wall += r.wall_s
        stdout_bytes += len(r.stdout)
    failures: list[str] = []
    metrics, tracers = layers.traced_layers(workload, inputs, work, failures)
    tally.record("; ".join(failures) or None)  # the in-process run is one operation
    replayed = sum((end - start) / 1e9 for name, start, end, parent in tracers[0].spans
                   if parent is None and name.startswith("cli."))
    spans = sum(len(tr.spans) for tr in tracers)
    metrics.update({
        "cli.overhead_s": cli_wall - replayed,
        "cli.stdout_mb": stdout_bytes / 1e6,
        "trace.spans": spans,
        "trace.overhead_s": spans * layers.span_cost_s(),
    })
    return metrics, tracers


def meta(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Which code ran where: commit when the checkout is a git clone,
    and always a digest of the package sources."""
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "weakschur").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "commit": commit, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count()}


def run_workload(workload: str, seed: int, seconds: float, trace: int, env: dict):
    """Run one workload and print its human-readable block; return
    (metrics as name -> (value, unit), tally)."""
    work = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    try:
        commands, inputs, verifier_inputs = prepare(workload, seed, work)
        print(f"# meta {json.dumps(meta(workload, seed, seconds, trace), sort_keys=True)}")
        if trace:
            values, tracers = traced(workload, commands, inputs, work, env, tally)
            metrics = {name: (values[name], unit) for name, unit, _, _ in LAYER_METRICS}
            print_traced(workload, metrics, tracers)
        else:
            samples, last = measure(commands, seconds, work, env, tally)
            metrics = {name: (statistics.median(samples[name]), unit)
                       for name, unit, _ in E2E_METRICS}
            stats = gen.input_stats(verifier_inputs(last)) if not tally.failed else {}
            print_untraced(workload, commands, metrics, samples, stats, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for reason in tally.reasons:
        print(f"# FAILED {reason}")
    return metrics, tally


def print_untraced(workload, commands, metrics, samples, stats, tally):
    reps = len(samples["cmd1_s"])
    print(f"# {workload}: {reps} repetitions, medians")
    print(f"{workload:<13} {'setup_s':<12} {metrics['setup_s'][0]:.4f} s   "
          f"weakschur --version, {len(samples['setup_s'])} runs")
    for cmd in commands:
        print(f"{workload:<13} {cmd.name:<12} {metrics[cmd.slot][0]:.4f} s   "
              f"{cmd.slot}: weakschur {' '.join(cmd.argv)}")
    print(f"{workload:<13} {'peak_rss_mb':<12} {metrics['peak_rss_mb'][0]:.2f} MB  "
          "largest child max-RSS per repetition")
    print(f"{workload:<13} {'error_rate':<12} {tally.failed / tally.attempted:.4f} /op  "
          f"{tally.failed} of {tally.attempted} operations")
    print(f"# inputs: {json.dumps(stats, sort_keys=True)}")


def print_traced(workload, metrics, tracers):
    import layers

    print(f"# {workload}: traced in-process run")
    for name, calls, total, median in layers.span_summary(tracers):
        print(f"# span {name:<36} calls {calls:>3}  total {total:.4f} s  median {median:.6f} s")
    for tr in tracers:
        if tr.counts:
            print(f"# counts {json.dumps(tr.counts, sort_keys=True)}")
    for name, unit, _, moves in LAYER_METRICS:
        value, _ = metrics[name]
        print(f"{workload:<13} {name:<26} {value:.6g} {unit:<6} -> {moves}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "weakschur" / "cli.py").is_file():
        print(f"error: no weakschur package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        found, tally = run_workload(name, args.seed, args.seconds, args.trace, env)
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in found.items()})
        attempted += tally.attempted
        failed += tally.failed
    try:
        (ROOT / ".perfbench_work").rmdir()
    except OSError:
        pass
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

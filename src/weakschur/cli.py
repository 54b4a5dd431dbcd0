"""Command-line entry point.

One binary, subcommand style, built for scripting pipelines:

    weakschur verify <file.wsp> [--conditions 1,2,3|all] [--first-only]
    weakschur generate --s <k> [--seed <file.wsp>] [--out <file.wsp>] [--trace]
    weakschur bound --s <k>
    weakschur table --max-s <k> [--markdown]
    weakschur search ws --s <k> [--cap <n>] [--budget <nodes>] [--out <file.wsp>]
    weakschur search seeds --s <k> --n <n> [--limit <c>] [--out-dir <dir>]

Exit codes: 0 success or empty report, 1 violations found or infeasible,
2 usage or parse error (a ``search seeds`` limit below 1 included) or
unwritable output (a closed stdout pipe included), 3 budget or cap exhausted, or an input past a size cap checked
before any work: a ``generate`` target past MAX_GENERATE_ORDER, a
``bound``/``table`` subset count past MAX_BOUND_S, or a ``search seeds``
order or ``search ws`` subset count past MAX_SEARCH_ORDER.  ``--json``
turns every subcommand's stdout into a single JSON document with a stable
schema.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from typing import TYPE_CHECKING, NoReturn

from . import DEFAULT_BUDGET, WSP_FORMAT_VERSION, __version__

if TYPE_CHECKING:
    from pathlib import Path

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

#: ``generate`` refuses, before any step, a target whose final order would
#: exceed this.  The built-in base reaches 3631514 at s = 14 and 10894541
#: at s = 15, whose text alone would be about 90 MB.
MAX_GENERATE_ORDER = 10**7
#: ``bound`` and ``table`` refuse a larger subset count: the order of
#: s = 9013 has 4301 digits, past CPython's default int-to-str limit of 4300
MAX_BOUND_S = 9012
#: ``search`` refuses an order (or, for ``ws``, a subset count) past this
#: before it starts: the walk sizes its lists by both (``members`` and
#: ``bans`` by s, ``colour_of`` and ``saved_bans`` by n), and at 10^6 each
#: takes 8 MB, so the four already take 32 MB
MAX_SEARCH_ORDER = 10**6
#: stdout texts go out in pieces of at most this many characters; see
#: _write_stdout
STDOUT_PIECE = 1 << 16


def _threads(value: str) -> str:
    if value == "auto":
        return value
    try:
        k = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer or 'auto', got {value!r}")
    if k < 1:
        raise argparse.ArgumentTypeError("thread count must be >= 1")
    return value


def _conditions(value: str):
    from .verifier import ConditionSet

    try:
        return ConditionSet.from_labels(value)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e))


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit one JSON document on stdout")
    common.add_argument("--quiet", action="store_true", help="suppress informational stderr output")
    common.add_argument(
        "--threads",
        type=_threads,
        default="1",
        metavar="K|auto",
        help="accepted and validated for script compatibility; execution is always "
             "sequential and every run is deterministic",
    )

    parser = argparse.ArgumentParser(
        prog="weakschur",
        description="Construct, verify and search weak Schur partitions.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"weakschur {__version__} (wsp format {WSP_FORMAT_VERSION})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", parents=[common], help="check a .wsp file")
    p.set_defaults(run=_cmd_verify)
    p.add_argument("file", help="partition file to check")
    p.add_argument(
        "--conditions",
        type=_conditions,
        default="all",  # argparse passes a string default through _conditions
        metavar="1,2,3|all",
        help="which conditions to check (default: all)",
    )
    p.add_argument(
        "--first-only",
        action="store_true",
        help="stop at the first violation instead of enumerating them all",
    )

    p = sub.add_parser("generate", parents=[common], help="iterate the construction")
    p.set_defaults(run=_cmd_generate)
    p.add_argument("--s", type=int, required=True, metavar="K", help="target subset count")
    p.add_argument("--seed", metavar="FILE", help="seed .wsp file (default: built-in order-21 base)")
    p.add_argument("--out", metavar="FILE", help="write the final partition here instead of stdout")
    p.add_argument("--trace", action="store_true", help="report where each step's elements came from")

    p = sub.add_parser("bound", parents=[common], help="closed-form order for a subset count")
    p.set_defaults(run=_cmd_bound)
    p.add_argument("--s", type=int, required=True, metavar="K", help="subset count (>= 3)")

    p = sub.add_parser("table", parents=[common], help="bound table with literature context")
    p.set_defaults(run=_cmd_table)
    p.add_argument("--max-s", type=int, required=True, metavar="K", help="last subset count (>= 3)")
    p.add_argument("--markdown", action="store_true", help="render a markdown table")

    p = sub.add_parser("search", parents=[], help="exhaustive backtracking search")
    search_sub = p.add_subparsers(dest="search_command", required=True)

    q = search_sub.add_parser("ws", parents=[common], help="exact weak Schur number scan")
    q.set_defaults(run=_cmd_search_ws)
    q.add_argument("--s", type=int, required=True, metavar="K", help="subset count")
    q.add_argument("--cap", type=int, default=100, metavar="N", help="largest order to scan (default 100)")
    q.add_argument("--budget", type=int, default=DEFAULT_BUDGET, metavar="NODES",
                   help=f"node budget (default {DEFAULT_BUDGET})")
    q.add_argument("--out", metavar="FILE", help="write the best witness as .wsp")

    q = search_sub.add_parser("seeds", parents=[common], help="find iterable seed partitions")
    q.set_defaults(run=_cmd_search_seeds)
    q.add_argument("--s", type=int, required=True, metavar="K", help="subset count")
    q.add_argument("--n", type=int, required=True, metavar="N", help="order")
    q.add_argument("--limit", type=int, default=10, metavar="C", help="stop after this many seeds (default 10)")
    q.add_argument("--budget", type=int, default=DEFAULT_BUDGET, metavar="NODES",
                   help=f"node budget (default {DEFAULT_BUDGET})")
    q.add_argument("--out-dir", metavar="DIR", help="write each seed as seed_NNNN.wsp in this directory")

    return parser


def _fail(args, code: int, message: str, **fields) -> NoReturn:
    """Report an error on stderr and exit with code through _dispatch."""
    if args.json:
        doc = {"error": message, **fields}
        print(json.dumps(doc, sort_keys=True), file=sys.stderr)
    else:
        print(f"error: {message}", file=sys.stderr)
    raise SystemExit(code)


def _info(args, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


def _read_partition(args, path: str):
    """Parse a .wsp file, or fail with exit 2."""
    from .partition import WspFormatError, parse_partition

    try:
        with open(path, encoding="ascii") as fh:
            return parse_partition(fh)
    except OSError as e:
        _fail(args, EXIT_USAGE, f"cannot read {path}: {e.strerror}")
    except UnicodeDecodeError:
        _fail(args, EXIT_USAGE, f"{path} is not ASCII text")
    except WspFormatError as e:
        _fail(args, EXIT_USAGE, str(e), line=e.line)


def _write_files(args, files, out_dir: Path | None = None) -> None:
    """Create out_dir (when given) and write each (path, text) pair, or
    fail with exit 2 naming the path that could not be written."""
    from pathlib import Path

    path = out_dir
    try:
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
        for path, text in files:
            Path(path).write_text(text, encoding="ascii")
    except OSError as e:
        _fail(args, EXIT_USAGE, f"cannot write {path}: {e.strerror}")


def _write_stdout(text: str) -> None:
    """Write text to stdout in pieces of at most STDOUT_PIECE characters.

    One longer write into a pipe whose reader has gone can come back
    short without raising, so the run would exit 0 with its output cut.
    A piece no larger than the pipe's buffer fails with BrokenPipeError
    instead, which main turns into exit 2.
    """
    for k in range(0, len(text), STDOUT_PIECE):
        sys.stdout.write(text[k:k + STDOUT_PIECE])


def _print_json(doc: dict) -> None:
    """Write doc as one JSON line; the newline goes separately, so a large
    document is not copied to append it."""
    _write_stdout(json.dumps(doc, sort_keys=True))
    sys.stdout.write("\n")


def _cmd_verify(args) -> int:
    from .verifier import verify

    p = _read_partition(args, args.file)
    report = verify(p, args.conditions, first_only=args.first_only)
    if args.json:
        report.write_json(sys.stdout)
        sys.stdout.write("\n")
    else:
        report.write_text(sys.stdout)
        status = "ok" if report.passed else f"{len(report.violations)} violation(s)"
        print(f"{args.file}: {status} "
              f"(checked: {', '.join(sorted(report.checked_conditions))})")
    return EXIT_OK if report.passed else EXIT_VIOLATIONS


def _cmd_generate(args) -> int:
    from .construct import SeedConditionError, _require_seed, base_partition, iterate
    from .partition import serialize_partition

    seed = _read_partition(args, args.seed) if args.seed else base_partition()
    steps = args.s - seed.s
    if steps < 0:
        _fail(args, EXIT_USAGE, f"target s={args.s} is below the seed's s={seed.s}")
    # each step takes order m to 3m - 1; walk only until the cap is passed
    order, k = seed.n, 0
    while order <= MAX_GENERATE_ORDER and k < steps:
        order, k = 3 * order - 1, k + 1
    if order > MAX_GENERATE_ORDER:
        _fail(args, EXIT_BUDGET,
              f"target s={args.s} exceeds the order cap {MAX_GENERATE_ORDER}: "
              f"s={seed.s + k} already has order {order}",
              max_order=MAX_GENERATE_ORDER)
    try:
        if not steps:  # still refuse to echo a seed that the first step would refuse
            _require_seed(seed)
        chain = iterate(seed, steps)
    except SeedConditionError as e:
        _fail(args, EXIT_VIOLATIONS, str(e))
    final = chain[-1][0] if chain else seed
    text = serialize_partition(final)
    if args.out:
        _write_files(args, [(args.out, text)])
        _info(args, f"wrote s={final.s} n={final.n} to {args.out}")
    if args.json:
        _print_json({
            "s": final.s,
            "n": final.n,
            "orders": [p.n for p, _ in chain],
            "out": args.out,
            "partition": None if args.out else text,
            "trace": [t.as_json() for _, t in chain] if args.trace else None,
        })
    else:
        if args.trace:
            for k, (_, t) in enumerate(chain, 1):
                refl = sum(len(r) for r in t.reflected_per_subset)
                _info(args,
                      f"step {k}: order {t.input_order} -> {t.output_order}, "
                      f"injected {t.injected[0]} and {t.injected[1]} into subset 1, "
                      f"reflected {refl} elements, new subset of {len(t.new_subset)}")
        if not args.out:
            _write_stdout(text)
    return EXIT_OK


def _check_cap(args, flag: str, value: int, cap: int, field: str) -> None:
    """Fail with exit 3 when a size argument is past its cap, before the
    work it sizes starts."""
    if value > cap:
        _fail(args, EXIT_BUDGET, f"{flag} {value} exceeds the cap {cap}", **{field: cap})


def _cmd_bound(args) -> int:
    from .construct import bound

    _check_cap(args, "--s", args.s, MAX_BOUND_S, "max_s")
    try:
        value = bound(args.s)
    except ValueError as e:
        _fail(args, EXIT_USAGE, str(e))
    if args.json:
        _print_json({"s": args.s, "order": value, "source": "construction"})
    else:
        print(value)
    return EXIT_OK


def _cmd_table(args) -> int:
    from .construct import LITERATURE_ORDERS, bound_table

    _check_cap(args, "--max-s", args.max_s, MAX_BOUND_S, "max_s")
    try:
        seq = bound_table(args.max_s)
    except ValueError as e:
        _fail(args, EXIT_USAGE, str(e))
    rows = []
    for k, order in enumerate(seq.orders):
        s = seq.start_s + k
        lit = [{"order": o, "kind": kind} for o, kind in LITERATURE_ORDERS.get(s, ())]
        rows.append({"s": s, "order": order, "literature": lit})
    if args.json:
        _print_json({"start_s": seq.start_s, "rows": rows})
        return EXIT_OK

    def lit_text(row):
        if not row["literature"]:
            return "-"
        return ", ".join(f"{e['order']} ({e['kind']})" for e in row["literature"])

    if args.markdown:
        print("| s | this construction | literature |")
        print("| --- | --- | --- |")
        for row in rows:
            print(f"| {row['s']} | {row['order']} | {lit_text(row)} |")
    else:
        width = max(len(str(rows[-1]["order"])), len("construction"))
        print(f"{'s':>3}  {'construction':>{width}}  literature")
        for row in rows:
            print(f"{row['s']:>3}  {row['order']:>{width}}  {lit_text(row)}")
    return EXIT_OK


def _cmd_search_ws(args) -> int:
    from .partition import serialize_partition
    from .search import compute_ws

    # every order the scan visits is at least s
    _check_cap(args, "--s", args.s, MAX_SEARCH_ORDER, "max_order")
    try:
        result = compute_ws(args.s, args.cap, budget=args.budget)
    except ValueError as e:
        _fail(args, EXIT_USAGE, str(e))
    witness_text = serialize_partition(result.witness) if result.witness else None
    if args.out and witness_text:
        _write_files(args, [(args.out, witness_text)])
        _info(args, f"wrote witness n={result.best_n} to {args.out}")
    if args.json:
        doc = result.as_json()
        doc["witness_path"] = args.out if (args.out and witness_text) else None
        doc["witness"] = None if args.out else witness_text
        _print_json(doc)
    else:
        print(f"s={result.s} best_n={result.best_n} mode={result.mode} "
              f"exhausted={result.exhausted} nodes={result.nodes_visited} source=search")
    return EXIT_OK if result.mode == "exact" else EXIT_BUDGET


def _cmd_search_seeds(args) -> int:
    from .partition import serialize_partitions
    from .search import SearchBudgetExceeded, find_seeds

    _check_cap(args, "--n", args.n, MAX_SEARCH_ORDER, "max_order")
    if args.limit < 1:  # no search would run, so "found 0" would say nothing
        _fail(args, EXIT_USAGE, f"--limit must be >= 1, got {args.limit}")
    try:
        seeds = find_seeds(args.s, args.n, args.limit, budget=args.budget)
    except ValueError as e:
        _fail(args, EXIT_USAGE, str(e))
    except SearchBudgetExceeded as e:
        _fail(args, EXIT_BUDGET, str(e), nodes_visited=e.nodes_visited)
    texts = serialize_partitions(seeds)
    paths = []
    if args.out_dir:
        from pathlib import Path

        out_dir = Path(args.out_dir)
        paths = [str(out_dir / f"seed_{k:04d}.wsp") for k in range(1, len(seeds) + 1)]
        _write_files(args, zip(paths, texts), out_dir)
    if args.json:
        _print_json({
            "s": args.s,
            "n": args.n,
            "limit": args.limit,
            "found": len(seeds),
            "source": "search",
            "seeds": paths if args.out_dir else texts,
        })
    else:
        print(f"found {len(seeds)} seed(s) at s={args.s} n={args.n}")
        if args.out_dir:
            for path in paths:
                print(path)
        else:
            for k, text in enumerate(texts, 1):
                print(f"# seed {k}")
                _write_stdout(text)
    return EXIT_OK if seeds else EXIT_VIOLATIONS


def main(argv=None) -> int:
    # A command builds no reference cycles that outlive it, so the cyclic
    # collector would only re-walk live objects, such as the 10^5
    # violations of a rejected partition, each time enough have been
    # allocated.  It is paused for the command and turned back on after
    # it, so an in-process caller gets its collector back.
    paused = gc.isenabled()
    if paused:
        gc.disable()
    try:
        code = _dispatch(argv)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
    except BrokenPipeError:
        # the reader stopped early (say, `| head`): drop what is still
        # buffered, so the interpreter's final flush cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_USAGE
    finally:
        if paused:
            gc.enable()
    return code


def _dispatch(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except SystemExit as e:
        # argparse exits 0 for --help/--version and 2 for usage errors;
        # _fail exits with the code it was given
        return int(e.code or 0)


if __name__ == "__main__":
    sys.exit(main())

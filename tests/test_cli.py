import gc
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from weakschur import Partition, bound, cli, parse_partition, partition, verify
from weakschur.intset import IntSet
from weakschur.cli import MAX_BOUND_S, MAX_GENERATE_ORDER, MAX_SEARCH_ORDER, main

from conftest import BASE_TEXT, GOLDEN_DIR


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bound_prints_value(capsys):
    code, out, _ = run(capsys, "bound", "--s", "6")
    assert code == 0
    assert out == "554\n"


def test_bound_json(capsys):
    code, out, _ = run(capsys, "bound", "--s", "4", "--json")
    assert code == 0
    assert json.loads(out) == {"s": 4, "order": 62, "source": "construction"}


def test_bound_usage_error(capsys):
    code, _, err = run(capsys, "bound", "--s", "2")
    assert code == 2
    assert "error:" in err


def test_generate_then_verify(tmp_path, capsys):
    out_file = tmp_path / "p7.wsp"
    code, _, _ = run(capsys, "generate", "--s", "7", "--out", str(out_file), "--quiet")
    assert code == 0
    with open(out_file, encoding="ascii") as fh:
        assert parse_partition(fh).n == 1661
    code, _, _ = run(capsys, "verify", str(out_file))
    assert code == 0


@pytest.mark.parametrize("k", [4, 5, 6])
def test_generate_verify_loop(tmp_path, capsys, k):
    out_file = tmp_path / f"p{k}.wsp"
    assert run(capsys, "generate", "--s", str(k), "--out", str(out_file), "--quiet")[0] == 0
    assert run(capsys, "verify", str(out_file))[0] == 0


#: sha256 of ``weakschur generate --s 12``, the order-403502 chain
CHAIN_S12_SHA256 = "825b6277dd02f0c306463abab6d5f4aed49d63d657f42701df3c2b533e47a47f"


def test_generate_verify_loop_deep(tmp_path, capsys):
    # top of the supported end-to-end range: order 403502
    out_file = tmp_path / "p12.wsp"
    assert run(capsys, "generate", "--s", "12", "--out", str(out_file), "--quiet")[0] == 0
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == CHAIN_S12_SHA256
    assert run(capsys, "verify", str(out_file))[0] == 0


def test_generate_to_stdout(capsys):
    code, out, _ = run(capsys, "generate", "--s", "3", "--quiet")
    assert code == 0
    assert out == BASE_TEXT


def test_generate_rejects_target_below_seed(capsys):
    code, _, err = run(capsys, "generate", "--s", "2")
    assert code == 2
    assert "below the seed" in err


# --- the order cap: refused before any step, so nothing is allocated ------


def test_order_cap_sits_between_s13_and_s16():
    assert bound(13) <= MAX_GENERATE_ORDER < bound(16)


def run_peak(capsys, *argv):
    """(exit code, stderr, tracemalloc peak) of one in-process run that
    writes nothing to stdout."""
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out == ""
    return code, err, peak


@pytest.mark.parametrize("s", ["16", "1000000000000000000"])
def test_generate_refuses_target_past_order_cap(capsys, s):
    code, err, peak = run_peak(capsys, "generate", "--s", s)
    assert code == 3
    assert err == (f"error: target s={s} exceeds the order cap {MAX_GENERATE_ORDER}: "
                   "s=15 already has order 10894541\n")
    assert peak < 1_000_000


def test_generate_order_cap_from_seed_file(tmp_path, capsys):
    seed = tmp_path / "seed.wsp"
    seed.write_text(BASE_TEXT, encoding="ascii")
    code, err, peak = run_peak(capsys, "generate", "--s", "16", "--seed", str(seed), "--json")
    assert code == 3
    assert json.loads(err) == {
        "error": f"target s=16 exceeds the order cap {MAX_GENERATE_ORDER}: "
                 "s=15 already has order 10894541",
        "max_order": MAX_GENERATE_ORDER,
    }
    assert peak < 1_000_000


# --- bound and table: subset counts whose order has too many digits -------


def test_bound_cap_is_the_last_s_with_at_most_4300_digits():
    assert len(str(bound(MAX_BOUND_S))) == 4300
    assert bound(MAX_BOUND_S + 1) >= 10**4300


def test_bound_at_cap_prints_every_digit(capsys):
    code, out, _ = run(capsys, "bound", "--s", str(MAX_BOUND_S))
    assert code == 0
    assert out == f"{bound(MAX_BOUND_S)}\n"
    assert len(out) == 4301


@pytest.mark.parametrize("command", ["bound --s", "table --max-s"])
@pytest.mark.parametrize("s", ["9013", "1000000000000000000"])
def test_bound_and_table_refuse_s_past_cap(capsys, command, s):
    code, err, peak = run_peak(capsys, *command.split(), s)
    assert code == 3
    assert err == f"error: {command.split()[1]} {s} exceeds the cap {MAX_BOUND_S}\n"
    assert peak < 1_000_000


# --- search: orders whose per-level lists would not fit ------------------


@pytest.mark.parametrize("argv", [
    ("search", "seeds", "--s", "3", "--n"),
    ("search", "ws", "--cap", str(10**12), "--s"),
], ids=["seeds", "ws"])
@pytest.mark.parametrize("order", [MAX_SEARCH_ORDER + 1, 10**12])
def test_search_refuses_order_past_cap(capsys, argv, order):
    code, err, peak = run_peak(capsys, *argv, str(order))
    assert code == 3
    assert err == f"error: {argv[-1]} {order} exceeds the cap {MAX_SEARCH_ORDER}\n"
    assert peak < 1_000_000


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["plain", "json"])
@pytest.mark.parametrize("argv", [("--s", "200"), ("--s", "5", "--cap", "4")],
                         ids=["s200", "s5-cap4"])
def test_search_ws_cap_below_s_is_a_usage_error(capsys, argv, json_flag):
    # the scan starts at order s, so it would scan nothing: not a capped result
    s, cap = argv[1], argv[3] if len(argv) > 2 else "100"
    code, out, err = run(capsys, "search", "ws", *argv, *json_flag)
    assert (code, out) == (2, "")
    message = f"cap {cap} is below s={s}: the scan starts at order s"
    assert err == (json.dumps({"error": message}) + "\n" if json_flag else f"error: {message}\n")


def test_search_ws_large_cap_still_answers(capsys):
    code, out, _ = run(capsys, "search", "ws", "--s", "3", "--cap", str(10**12), "--json")
    assert code == 0
    assert json.loads(out)["best_n"] == 23


def test_generate_with_seed_file(tmp_path, capsys):
    seed = tmp_path / "seed.wsp"
    seed.write_text(BASE_TEXT, encoding="ascii")
    code, out, _ = run(capsys, "generate", "--s", "4", "--seed", str(seed), "--quiet")
    assert code == 0
    assert parse_partition(out).n == 62


def test_generate_rejects_unusable_seed(tmp_path, capsys):
    seed = tmp_path / "bad.wsp"
    seed.write_text("wsp 1\ns=2 n=3\n1: 1 2\n2: 3\n", encoding="ascii")
    code, _, err = run(capsys, "generate", "--s", "3", "--seed", str(seed))
    assert code == 1
    assert "cannot extend" in err


# --- zero steps: generate refuses what the first step would refuse ------

#: both pass conditions 1..3 but trip a blocking seed rule
ORDER_10_SEED = "wsp 1\ns=3 n=10\n1: 1 6\n2: 2 3 9 10\n3: 4 5 7 8\n"
ORDER_2_SEED = "wsp 1\ns=2 n=2\n1: 1\n2: 2\n"


ORDER_3_SEED = "wsp 1\ns=2 n=3\n1: 1 2\n2: 3\n"


@pytest.mark.parametrize("text, reason", [
    (ORDER_10_SEED, "injected-double guard ((n+2)/2 outside subset 1)"),
    (ORDER_2_SEED, "minimum order 4"),
    (ORDER_3_SEED, "minimum order 4"),
], ids=["order10", "order2", "order3"])
def test_generate_zero_steps_refuses_blocked_seed(tmp_path, capsys, text, reason):
    seed = tmp_path / "seed.wsp"
    seed.write_text(text, encoding="ascii")
    s = parse_partition(text).s
    code, out, err = run(capsys, "generate", "--s", str(s), "--seed", str(seed))
    assert (code, out) == (1, "")
    assert err == f"error: cannot extend partition: {reason} fails\n"
    # one step on, the step's own guard refuses the seed for the same reason
    code, out, err = run(capsys, "generate", "--s", str(s + 1), "--seed", str(seed))
    assert (code, out) == (1, "")
    assert err == f"error: cannot extend partition at step 0: {reason} fails\n"


@pytest.mark.parametrize("name", ["base_21.wsp", "advisory_seed_6.wsp", "chain_4_62.wsp"])
def test_generate_zero_steps_echoes_extendable_seed(capsys, name):
    path = GOLDEN_DIR / name
    text = path.read_text(encoding="ascii")
    s = parse_partition(text).s
    code, out, _ = run(capsys, "generate", "--s", str(s), "--seed", str(path))
    assert code == 0
    assert out == text


@pytest.mark.parametrize("command", [("generate", "--s", "4", "--seed"), ("verify",)])
def test_non_ascii_seed_file_exits_two(tmp_path, capsys, command):
    seed = tmp_path / "seed.wsp"
    seed.write_bytes("wsp 1\ns=1 n=2\n1: 1 \u0662\n".encode("utf-8"))
    code, out, err = run(capsys, *command, str(seed))
    assert code == 2
    assert out == ""
    assert err == f"error: {seed} is not ASCII text\n"


def test_generate_trace_json(capsys):
    code, out, _ = run(capsys, "generate", "--s", "5", "--trace", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 185
    assert doc["orders"] == [62, 185]
    assert doc["trace"][0]["injected"] == [23, 44]
    assert doc["trace"][1]["input_order"] == 62
    assert parse_partition(doc["partition"]).n == 185


def test_verify_reports_violations(tmp_path, capsys):
    bad = tmp_path / "bad.wsp"
    bad.write_text("wsp 1\ns=2 n=5\n1: 1 2 3\n2: 4 5\n", encoding="ascii")
    code, out, _ = run(capsys, "verify", str(bad))
    assert code == 1
    assert "1 + 2 = 3" in out


def test_verify_garbage_exits_two(tmp_path, capsys):
    garbage = tmp_path / "garbage.txt"
    garbage.write_text("this is not a partition\n", encoding="ascii")
    code, _, err = run(capsys, "verify", str(garbage))
    assert code == 2
    assert "line 1" in err


def test_verify_missing_file(capsys):
    code, _, err = run(capsys, "verify", "/nonexistent/p.wsp")
    assert code == 2
    assert "error:" in err


def test_verify_json_schema(tmp_path, capsys):
    f = tmp_path / "base.wsp"
    f.write_text(BASE_TEXT, encoding="ascii")
    code, out, _ = run(capsys, "verify", str(f), "--json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"violations", "checked_conditions"}
    assert doc["violations"] == []
    assert "weak-sum-free" in doc["checked_conditions"]


def test_verify_condition_selection(tmp_path, capsys):
    # violates condition 2 only; checking condition 1 alone stays green
    f = tmp_path / "doubles.wsp"
    f.write_text("wsp 1\ns=2 n=10\n1: 5 10\n2: 1 2 3 4 6 7 8 9\n", encoding="ascii")
    assert run(capsys, "verify", str(f), "--conditions", "1")[0] == 1  # 1+2=3 in subset 2
    f2 = tmp_path / "doubles2.wsp"
    f2.write_text("wsp 1\ns=3 n=10\n1: 5 7 10\n2: 1 2 6 9\n3: 3 4 8\n", encoding="ascii")
    assert run(capsys, "verify", str(f2), "--conditions", "1")[0] == 0
    assert run(capsys, "verify", str(f2), "--conditions", "1,2")[0] == 1


def test_verify_first_only(tmp_path, capsys):
    f = tmp_path / "bad.wsp"
    f.write_text("wsp 1\ns=1 n=4\n1: 1 2 3 4\n", encoding="ascii")
    code, out, _ = run(capsys, "verify", str(f), "--first-only", "--json")
    assert code == 1
    assert len(json.loads(out)["violations"]) == 1


def test_table_contains_literature_rows(capsys):
    code, out, _ = run(capsys, "table", "--max-s", "7")
    assert code == 0
    assert "554" in out and "1661" in out
    assert "642" in out and "2146" in out
    assert "572" in out and "536" in out and "1680" in out


def test_table_markdown(capsys):
    code, out, _ = run(capsys, "table", "--max-s", "4", "--markdown")
    assert code == 0
    assert out.splitlines()[0].startswith("| s |")
    assert "| 4 | 62 |" in out


def test_table_json(capsys):
    code, out, _ = run(capsys, "table", "--max-s", "6", "--json")
    assert code == 0
    doc = json.loads(out)
    row6 = doc["rows"][-1]
    assert row6["s"] == 6 and row6["order"] == 554
    assert {"order": 642, "kind": "weak"} in row6["literature"]


def test_search_ws_json(capsys):
    code, out, _ = run(capsys, "search", "ws", "--s", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["best_n"] == 8
    assert doc["mode"] == "exact"
    assert doc["source"] == "search"
    assert parse_partition(doc["witness"]).n == 8


def test_search_ws_writes_witness(tmp_path, capsys):
    out_file = tmp_path / "ws2.wsp"
    code, out, _ = run(capsys, "search", "ws", "--s", "2", "--out", str(out_file), "--quiet")
    assert code == 0
    assert "best_n=8" in out
    with open(out_file, encoding="ascii") as fh:
        assert parse_partition(fh).n == 8


def test_search_ws_budget_exit(capsys):
    code, out, _ = run(capsys, "search", "ws", "--s", "3", "--budget", "10", "--json")
    assert code == 3
    assert json.loads(out)["mode"] == "capped"


def test_search_seeds(tmp_path, capsys):
    out_dir = tmp_path / "seeds"
    code, out, _ = run(
        capsys, "search", "seeds", "--s", "3", "--n", "21",
        "--limit", "5", "--out-dir", str(out_dir), "--quiet",
    )
    assert code == 0
    assert "found 2 seed(s)" in out
    files = sorted(out_dir.glob("*.wsp"))
    assert len(files) == 2
    for f in files:
        with open(f, encoding="ascii") as fh:
            assert parse_partition(fh).n == 21


def test_search_seeds_checks_each_seed_once(capsys, monkeypatch):
    # find_seeds validates every leaf and the writer validates again; a
    # Partition remembers a passed check, so the second one costs nothing
    calls = []
    check = partition.well_formed_violations

    def counted(p):
        calls.append(p)
        return check(p)

    monkeypatch.setattr(partition, "well_formed_violations", counted)
    code, out, _ = run(capsys, "search", "seeds", "--s", "4", "--n", "40",
                       "--limit", "50", "--json")
    assert (code, json.loads(out)["found"]) == (0, 50)
    assert len(calls) == 50 == len({id(p) for p in calls})


def test_verify_checks_a_parsed_partition_once(capsys, monkeypatch):
    # parse_partition validates what it reads, and a Partition remembers a
    # passed check, so verify does not run the structural check again
    calls = []
    check = partition.well_formed_violations

    def counted(p):
        calls.append(p)
        return check(p)

    monkeypatch.setattr(partition, "well_formed_violations", counted)
    code, _, _ = run(capsys, "verify", str(GOLDEN_DIR / "chain_5_185.wsp"))
    assert code == 0
    assert [p.n for p in calls] == [185]
    # a partition that was never validated is still checked by verify
    broken = Partition((IntSet([1, 2]), IntSet([2, 3])), 3)
    report = verify(broken)
    assert calls[1:] == [broken]
    assert report.checked_conditions == frozenset({"well-formed"})
    assert "not-a-partition" in {v.kind for v in report.violations}
    # and one that passes there is not checked again by a second verify
    fresh = Partition((IntSet([1]), IntSet([2])), 2)
    assert verify(fresh).passed and verify(fresh).passed
    assert calls[2:] == [fresh]


def test_search_seeds_none_found(capsys):
    code, out, _ = run(capsys, "search", "seeds", "--s", "3", "--n", "23", "--json")
    assert code == 1
    assert json.loads(out)["found"] == 0


@pytest.mark.parametrize("limit", ["0", "-5"])
def test_search_seeds_nonpositive_limit_is_a_usage_error(tmp_path, capsys, limit):
    # no search runs, so "found 0" and exit 1 would claim what was never looked at
    out_dir = tmp_path / "seeds"
    code, out, err = run(capsys, "search", "seeds", "--s", "3", "--n", "21",
                         "--limit", limit, "--out-dir", str(out_dir))
    assert (code, out) == (2, "")
    assert err == f"error: --limit must be >= 1, got {limit}\n"
    assert not out_dir.exists()


def test_search_seeds_same_texts_on_every_output_path(tmp_path, capsys):
    argv = ("search", "seeds", "--s", "4", "--n", "30", "--limit", "40", "--quiet")
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    texts = json.loads(out)["seeds"]
    assert len(texts) == 40 and len(set(texts)) == 40
    code, out, _ = run(capsys, *argv)
    head, *pieces = out.split("# seed ")
    assert head == "found 40 seed(s) at s=4 n=30\n"
    assert pieces == [f"{k}\n{text}" for k, text in enumerate(texts, 1)]
    code, out, _ = run(capsys, *argv, "--out-dir", str(tmp_path))
    assert [p.read_text(encoding="ascii") for p in sorted(tmp_path.glob("*.wsp"))] == texts


def test_version(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert "weakschur" in out and "wsp format 1" in out


def test_usage_error_unknown_command(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_threads_flag_validation(capsys):
    assert run(capsys, "bound", "--s", "3", "--threads", "0")[0] == 2
    assert run(capsys, "bound", "--s", "3", "--threads", "auto")[0] == 0
    assert run(capsys, "bound", "--s", "3", "--threads", "4")[0] == 0


def test_byte_identical_reruns(capsys):
    outputs = set()
    for _ in range(2):
        code, out, _ = run(capsys, "generate", "--s", "6", "--threads", "1", "--quiet")
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1
    outputs = set()
    for _ in range(2):
        code, out, _ = run(capsys, "search", "ws", "--s", "2", "--json", "--threads", "1")
        outputs.add(out)
    assert len(outputs) == 1


# --- unwritable output paths: a usage error (exit 2), never a traceback ----


def assert_cannot_write(capsys, argv, path, reason):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: cannot write {path}: {reason}\n"
    code, out, err = run(capsys, *argv, "--json")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": f"cannot write {path}: {reason}"}


def test_generate_out_in_missing_directory(tmp_path, capsys):
    path = tmp_path / "nodir" / "x.wsp"
    argv = ("generate", "--s", "4", "--out", str(path))
    assert_cannot_write(capsys, argv, path, "No such file or directory")
    assert not path.parent.exists()


def test_search_ws_out_in_missing_directory(tmp_path, capsys):
    path = tmp_path / "nodir" / "w.wsp"
    argv = ("search", "ws", "--s", "2", "--out", str(path))
    assert_cannot_write(capsys, argv, path, "No such file or directory")


def test_search_seeds_out_dir_is_a_file(tmp_path, capsys):
    path = tmp_path / "taken"
    path.write_text("not a directory\n", encoding="ascii")
    argv = ("search", "seeds", "--s", "3", "--n", "21", "--out-dir", str(path))
    assert_cannot_write(capsys, argv, path, "File exists")
    assert path.read_text(encoding="ascii") == "not a directory\n"


# --- a reader that closes stdout early: exit 2, never a traceback ---------

SRC = Path(__file__).resolve().parent.parent / "src"


def read_then_close(argv):
    """Run the CLI, read 10 bytes of its stdout and close it, like
    `| head -c 10`; return the exit code and stderr."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen([sys.executable, "-m", "weakschur.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    return proc.wait(timeout=60), err


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["plain", "json"])
def test_generate_into_closed_pipe(json_flag):
    # 2.7 MB of text: one write of it into a closed pipe comes back short
    # without raising, which would let generate exit 0 with its output cut
    assert read_then_close(["generate", "--s", "12", *json_flag]) == (2, b"")


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["plain", "json"])
def test_verify_into_closed_pipe(tmp_path, json_flag):
    # one subset 1..400: ~4*10^4 weak sums, far more output than a pipe buffers
    f = tmp_path / "all.wsp"
    f.write_text(f"wsp 1\ns=1 n=400\n1: {' '.join(map(str, range(1, 401)))}\n",
                 encoding="ascii")
    assert read_then_close(["verify", str(f), *json_flag]) == (2, b"")


# --- every refusal with --json: one JSON document on stderr, none on stdout

#: (argv, exit code, the stderr document); {tmp} is the test's directory
JSON_FAILURES = [
    (("verify", "{tmp}/missing.wsp"), 2,
     {"error": "cannot read {tmp}/missing.wsp: No such file or directory"}),
    (("verify", "{tmp}/nonascii.wsp"), 2, {"error": "{tmp}/nonascii.wsp is not ASCII text"}),
    (("verify", "{tmp}/garbage.wsp"), 2, {"error": "line 3: malformed element 'x'", "line": 3}),
    (("generate", "--s", "2"), 2, {"error": "target s=2 is below the seed's s=3"}),
    (("generate", "--s", "16"), 3,
     {"error": f"target s=16 exceeds the order cap {MAX_GENERATE_ORDER}: "
               "s=15 already has order 10894541", "max_order": MAX_GENERATE_ORDER}),
    (("generate", "--s", "3", "--seed", "{tmp}/order10.wsp"), 1,
     {"error": "cannot extend partition: "
               "injected-double guard ((n+2)/2 outside subset 1) fails"}),
    (("generate", "--s", "4", "--seed", "{tmp}/order10.wsp"), 1,
     {"error": "cannot extend partition at step 0: "
               "injected-double guard ((n+2)/2 outside subset 1) fails"}),
    (("generate", "--s", "4", "--out", "{tmp}/nodir/x.wsp"), 2,
     {"error": "cannot write {tmp}/nodir/x.wsp: No such file or directory"}),
    (("bound", "--s", "2"), 2, {"error": "bound is defined for s >= 3"}),
    (("bound", "--s", "9013"), 3, {"error": "--s 9013 exceeds the cap 9012", "max_s": 9012}),
    (("table", "--max-s", "2"), 2, {"error": "s_max must be >= 3"}),
    (("table", "--max-s", "9013"), 3,
     {"error": "--max-s 9013 exceeds the cap 9012", "max_s": 9012}),
    (("search", "ws", "--s", "0"), 2, {"error": "s must be >= 1"}),
    (("search", "ws", "--s", "1000001"), 3,
     {"error": "--s 1000001 exceeds the cap 1000000", "max_order": 1000000}),
    (("search", "ws", "--s", "200"), 2,
     {"error": "cap 100 is below s=200: the scan starts at order s"}),
    (("search", "ws", "--s", "2", "--out", "{tmp}/nodir/w.wsp"), 2,
     {"error": "cannot write {tmp}/nodir/w.wsp: No such file or directory"}),
    (("search", "seeds", "--s", "0", "--n", "21"), 2, {"error": "s and n must be >= 1"}),
    (("search", "seeds", "--s", "3", "--n", "1000001"), 3,
     {"error": "--n 1000001 exceeds the cap 1000000", "max_order": 1000000}),
    (("search", "seeds", "--s", "3", "--n", "21", "--limit", "0"), 2,
     {"error": "--limit must be >= 1, got 0"}),
    (("search", "seeds", "--s", "3", "--n", "21", "--budget", "10"), 3,
     {"error": "search budget exhausted after 10 nodes", "nodes_visited": 10}),
    (("search", "seeds", "--s", "3", "--n", "21", "--out-dir", "{tmp}/taken"), 2,
     {"error": "cannot write {tmp}/taken: File exists"}),
]


@pytest.mark.parametrize("argv, code, doc", JSON_FAILURES,
                         ids=[" ".join(argv).replace("{tmp}/", "") for argv, _, _ in JSON_FAILURES])
def test_json_failure_documents(tmp_path, capsys, argv, code, doc):
    (tmp_path / "nonascii.wsp").write_bytes("wsp 1\ns=1 n=2\n1: 1 \u0662\n".encode("utf-8"))
    (tmp_path / "garbage.wsp").write_text("wsp 1\ns=2 n=3\n1: 1 x\n2: 2 3\n", encoding="ascii")
    (tmp_path / "order10.wsp").write_text(ORDER_10_SEED, encoding="ascii")
    (tmp_path / "taken").write_text("not a directory\n", encoding="ascii")
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    got, out, err = run(capsys, *argv, "--json")
    assert (got, out) == (code, "")
    assert err.endswith("\n") and err.count("\n") == 1
    assert json.loads(err) == {k: v.replace("{tmp}", str(tmp_path)) if isinstance(v, str) else v
                               for k, v in doc.items()}


# --- the cyclic collector is paused for a command, then given back ----------

@pytest.mark.parametrize("argv, code", [
    (["bound", "--s", "6"], 0),
    (["verify", str(GOLDEN_DIR / "two_colours_8.wsp")], 1),
    (["bound"], 2),  # argparse: --s is required
    (["verify", "no-such-file.wsp"], 2),  # _fail
    (["search", "ws", "--s", "3", "--cap", "20", "--budget", "10"], 3),
], ids=["ok", "violations", "usage", "fail", "budget"])
@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_main_leaves_the_collector_as_it_found_it(monkeypatch, capsys, argv, code, enabled):
    during = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: during.append(gc.isenabled()) or build())
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(argv) == code
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
    assert during == [False]
    capsys.readouterr()

"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from weakschur import parse_partition, verify

import gen
import layers
import oracle
import run

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def test_random_colouring_bytes_depend_only_on_the_seed():
    a = gen.to_wsp(gen.random_colouring(900, 12, 7), 900)
    assert a == gen.to_wsp(gen.random_colouring(900, 12, 7), 900)
    assert a != gen.to_wsp(gen.random_colouring(900, 12, 8), 900)


def test_two_adic_bytes_are_fixed():
    text = gen.to_wsp(gen.two_adic(12), 12)
    assert text == "wsp 1\ns=4 n=12\n1: 1 3 5 7 9 11\n2: 2 6 10\n3: 4 12\n4: 8\n"
    assert gen.from_wsp(text) == (gen.two_adic(12), 12)


@pytest.mark.parametrize("n", [12, 41, 100, 257])
def test_two_adic_analytic_oracle_agrees_with_verify(n):
    p = parse_partition(gen.to_wsp(gen.two_adic(n), n))
    assert verify(p).as_json() == oracle.two_adic_report(n)


def test_naive_oracle_agrees_with_verify_on_a_random_colouring():
    subsets = gen.random_colouring(400, 5, 3)
    p = parse_partition(gen.to_wsp(subsets, 400))
    expected = oracle.naive_report(subsets, 400)
    assert expected["violations"]
    assert verify(p).as_json() == expected


def test_input_stats_counts_runs_and_probes():
    # subset 1 = {1,2,3,7}: runs 1-3 and 7, probes a <= 3 (condition 1) and
    # a <= 4 of {1,2,3,7,9} (condition 3); subset 2 = {4,5,6}: one run, no a <= 2
    stats = gen.input_stats([([[1, 2, 3, 7], [4, 5, 6]], 7)])
    assert stats["elements"] == 7
    assert stats["runs"] == 3
    assert stats["probes"] == 3 + 0 + 3


def test_report_check_rejects_a_wrong_report():
    check = oracle.check_report(oracle.two_adic_report(12), 1, "t")
    good = json.dumps(oracle.two_adic_report(12)).encode()
    assert check(1, good) is None
    assert check(0, good)
    assert check(1, json.dumps(oracle.report_doc([])).encode())
    assert check(1, b"not json")


def test_tracer_self_time_subtracts_children():
    tr = layers.Tracer()
    with tr.span("cli.outer"):
        with tr.span("verifier.inner"):
            pass
    (_, s0, e0, _), (_, s1, e1, parent) = tr.spans
    assert parent == 0
    own = tr.self_times()
    assert own["verifier"] == pytest.approx((e1 - s1) / 1e9)
    assert own["cli"] == pytest.approx((e0 - s0 - (e1 - s1)) / 1e9)


def test_metric_tables_match_benchmark_json():
    spec = json.loads(BENCHMARK.read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        [m[:3] for m in run.E2E_METRICS]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [m[:3] for m in run.LAYER_METRICS]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_every_metric_is_printed_with_name_and_unit(capsys, tmp_path):
    commands, _, _ = run.prepare("search-s4", 1, tmp_path)
    e2e = {name: (1.5, unit) for name, unit, _ in run.E2E_METRICS}
    samples = {name: [1.5] for name, _, _ in run.E2E_METRICS}
    tally = run.Tally()
    tally.record(None)
    run.print_untraced("search-s4", commands, e2e, samples, {"runs": 1}, tally)
    layer = {name: (2.5, unit) for name, unit, _, _ in run.LAYER_METRICS}
    run.print_traced("search-s4", layer, [layers.Tracer()])
    lines = capsys.readouterr().out.splitlines()
    for metric, table in (("setup_s", e2e), ("peak_rss_mb", e2e)):
        assert any(f"{metric} " in ln and f" {table[metric][1]} " in ln + " " for ln in lines)
    for cmd in commands:
        assert any(cmd.name in ln and cmd.slot in ln and " s " in ln for ln in lines)
    assert any("error_rate" in ln and "/op" in ln for ln in lines)
    for name, unit, _, _ in run.LAYER_METRICS:
        assert any(f" {name} " in ln and f" {unit} " in ln for ln in lines), name


def test_fails_without_the_package(tmp_path):
    bench = Path(run.__file__).resolve().parent
    shutil.copytree(bench, tmp_path / bench.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(BENCHMARK, tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{bench.name}/run.py", "--workload", "chain-s12", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

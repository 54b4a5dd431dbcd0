import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_demo(name: str) -> str:
    """Run one demo script as its own process against this checkout's
    ``src``, assert it exits 0, and return its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_construction_chain_demo():
    out = run_demo("01_construction_chain.py")
    assert "  reflected into subset 1: [49, 59]\n" in out, out


def test_verification_demo():
    run_demo("02_verification.py")


def test_exact_small_numbers_demo():
    out = run_demo("03_exact_small_numbers.py")
    # columns: s, exact WS, nodes, time, witness order
    assert re.search(r"^\s*3\s+23\s+22610\s+\S+s\s+23$", out, re.MULTILINE), out


def test_seed_hunting_demo():
    run_demo("04_seed_hunting.py")


def test_growth_table_demo():
    run_demo("05_growth_table.py")

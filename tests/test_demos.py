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


def test_exact_small_numbers_demo():
    out = run_demo("03_exact_small_numbers.py")
    # columns: s, exact WS, nodes, time, witness order
    assert re.search(r"^\s*3\s+23\s+22610\s+\S+s\s+23$", out, re.MULTILINE), out


def test_seed_hunting_demo():
    run_demo("04_seed_hunting.py")

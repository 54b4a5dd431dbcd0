"""What each entry point loads: the package's exports load on first use, and
each CLI command imports only the layers it runs."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import weakschur

SRC = Path(__file__).resolve().parent.parent / "src"

#: the package's own names in ``__all__``, defined in ``__init__`` itself;
#: the submodule that uses each re-exports it
PACKAGE_LEVEL = {"DEFAULT_BUDGET": "search"}


# --- lazy exports ---------------------------------------------------------


def test_every_export_is_its_submodules_object():
    assert set(weakschur._EXPORTS) | set(PACKAGE_LEVEL) == set(weakschur.__all__)
    for name in weakschur.__all__:
        module = weakschur._EXPORTS.get(name) or PACKAGE_LEVEL[name]
        submodule = importlib.import_module(f"weakschur.{module}")
        assert getattr(weakschur, name) is getattr(submodule, name), name
        assert name in vars(weakschur), name  # cached after the first read


def test_star_import_binds_every_export():
    namespace = {}
    exec("from weakschur import *", namespace)
    for name in weakschur.__all__:
        assert namespace[name] is getattr(weakschur, name), name


def test_dir_lists_every_export():
    assert set(weakschur.__all__) <= set(dir(weakschur))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        weakschur.no_such_name
    assert not hasattr(weakschur, "_require_seed")  # private names stay in their modules


# --- the modules a command loads, each in a fresh interpreter --------------

PROBE = """
import contextlib, io, json, sys
from weakschur.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(sys.modules)]))
"""


def loaded_by(argv):
    """Run ``main(argv)`` in a fresh interpreter; return its exit code, the
    ``weakschur`` submodules loaded after it, and whether ``dataclasses``
    was."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps(argv)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout)
    ours = {m.removeprefix("weakschur.") for m in modules if m.startswith("weakschur.")}
    return code, ours, "dataclasses" in modules


@pytest.mark.parametrize(
    "argv,code",
    [
        (["--version"], 0),
        (["verify", "--help"], 0),
        (["generate"], 2),  # --s is missing
        (["frobnicate"], 2),
    ],
    ids=["version", "verify-help", "missing-option", "unknown-command"],
)
def test_parser_alone_loads_no_library(argv, code):
    assert loaded_by(argv) == (code, {"cli"}, False)


def test_verify_loads_no_construction_or_search(tmp_path):
    f = tmp_path / "base.wsp"
    f.write_text(weakschur.serialize_partition(weakschur.base_partition()), encoding="ascii")
    assert loaded_by(["verify", str(f)]) == (0, {"cli", "intset", "partition", "verifier"}, True)


@pytest.mark.parametrize("argv", [["generate", "--s", "4"], ["bound", "--s", "6"],
                                  ["table", "--max-s", "5"]], ids=["generate", "bound", "table"])
def test_construction_commands_load_no_search(argv):
    assert loaded_by(argv) == (0, {"cli", "construct", "intset", "partition", "verifier"}, True)

"""A cold ``ptk`` defines its value types without ``dataclasses``, never loads
``hashlib`` and finds its fixtures without ``importlib.resources``.

``dataclasses`` pulls in ``inspect`` (and with it ``ast``, ``dis`` and
``tokenize``) and runs code generation for every decorated class; ``hashlib``
loads OpenSSL's libcrypto (``_hashlib``). ``verify`` hashes its input with
the interpreter's builtin SHA-256 (``_sha2`` or ``_sha256``), so no command
needs any of them, ``verify --suite all`` included. The scan reads the
sources with ``ast`` and imports nothing; one fresh interpreter checks the
same at run time.
"""

from __future__ import annotations

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "periodkit"
COLD_FREE = ("dataclasses", "inspect", "hashlib", "_hashlib")


def _imported_modules(tree: ast.AST) -> set:
    """Top-level names of every absolute import, at any depth."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add((node.module or "").split(".")[0])
    return names


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py")))
def test_no_module_imports_dataclasses(module):
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    assert "dataclasses" not in _imported_modules(tree), f"periodkit.{module} imports dataclasses"


@pytest.mark.parametrize(
    "source", ["import dataclasses", "from dataclasses import dataclass", "def f():\n    import dataclasses as dc\n"]
)
def test_the_scan_sees_every_import_form(source):
    assert "dataclasses" in _imported_modules(ast.parse(source))


# after each step: the step, its exit code and which of COLD_FREE are loaded
PROBE = """
import contextlib, io, sys
from periodkit import cli
names = {names!r}
print("import", 0, *(m for m in names if m in sys.modules))
for argv in (["height"], ["verify", "--suite", "serre"], ["verify", "--suite", "all"]):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    print("-".join(argv[::2]), rc, *(m for m in names if m in sys.modules))
"""


def _cold_env() -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))


# verify's hash comes from hashlib only where the interpreter has no builtin SHA-256
BUILTIN_SHA256 = any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256"))


@pytest.mark.skipif(not BUILTIN_SHA256, reason="no _sha2 or _sha256 module: verify hashes through hashlib")
def test_import_and_height_load_none_of_them():
    probe = PROBE.format(names=COLD_FREE)
    proc = subprocess.run([sys.executable, "-c", probe], env=_cold_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    steps = [line.split() for line in proc.stdout.splitlines()]
    assert steps[0] == ["import", "0"]
    assert steps[1] == ["height", "0"]
    # verify hashes its input with the builtin SHA-256, not through hashlib
    assert steps[2] == ["verify-serre", "0"]
    # every suite runs on value types and builds no array: nothing brings inspect back
    assert steps[3] == ["verify-all", "0"]


def test_fixture_path_loads_no_resource_machinery():
    # importlib.resources brings pathlib, shutil and tempfile; -S keeps a site
    # module that imports it anyway (as certifi's does) from hiding a regression.
    # random (about 6 ms under -S) is imported only by the suites that draw from it
    probe = PROBE.format(names=("importlib.resources", "tempfile", "shutil", "random"))
    proc = subprocess.run([sys.executable, "-S", "-c", probe], env=_cold_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    steps = [line.split() for line in proc.stdout.splitlines()]
    assert steps[0] == ["import", "0"]
    # height reads the bundled fixtures; argparse's help formatter loads shutil there
    assert steps[1][:2] == ["height", "0"] and "random" not in steps[1]

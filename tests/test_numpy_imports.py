"""No numpy at run time: no module of periodkit imports it, and no ``ptk`` command loads it.

The scans read the sources with ``ast`` and import nothing. A module counts
as importing numpy when any of its ``import`` statements, at any depth, names
numpy or a ``numpy.`` submodule, or when it imports a package module that
does. No module may (``SCALAR_MODULES`` lists every one). The weaker
module-level scan, which allowed imports inside function bodies and under
``if TYPE_CHECKING:``, still runs on every module. One fresh interpreter
checks the same at run time, through every ``ptk`` command, ``verify --suite
all`` included, and checks that no command loads ``numpy.random``.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "periodkit"
SCALAR_MODULES = (
    "__init__", "bounds", "cli", "heights", "interpolation", "isogeny", "lattice", "modular", "serre", "theta",
)


def _names_numpy(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] == "numpy" for a in node.names)
    return isinstance(node, ast.ImportFrom) and node.level == 0 and (node.module or "").split(".")[0] == "numpy"


def _imports(tree: ast.Module) -> tuple[bool, set]:
    """(names numpy itself, package modules it imports)."""
    numpy, package = False, set()
    for node in ast.walk(tree):
        numpy |= _names_numpy(node)
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            if node.module is None:
                package |= {a.name for a in node.names}
            else:
                package.add(node.module.split(".")[0])
    return numpy, package


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _import_time_numpy(nodes) -> list[int]:
    """Lines of the numpy imports among these statements that run when the module is imported."""
    lines = []
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue  # its body runs when it is called
        if _names_numpy(node):
            lines.append(node.lineno)
        elif isinstance(node, ast.If) and _is_type_checking(node.test):
            lines += _import_time_numpy(node.orelse)
        else:
            lines += _import_time_numpy(ast.iter_child_nodes(node))
    return lines


def _loads_numpy() -> dict:
    """Module name -> whether it imports numpy anywhere, through package imports too."""
    direct, edges = {}, {}
    for path in sorted(SRC.glob("*.py")):
        direct[path.stem], edges[path.stem] = _imports(ast.parse(path.read_text(encoding="utf-8")))
    loads = dict(direct)
    changed = True
    while changed:
        changed = False
        for mod, deps in edges.items():
            if not loads[mod] and any(loads.get(d, False) for d in deps):
                loads[mod] = changed = True
    return loads


@pytest.mark.parametrize("module", SCALAR_MODULES)
def test_scalar_module_loads_no_numpy(module):
    assert not _loads_numpy()[module], f"periodkit.{module} imports numpy, directly or through the package"


def test_no_module_loads_numpy():
    loads = _loads_numpy()
    assert sorted(loads) == sorted(SCALAR_MODULES), "SCALAR_MODULES must list every module"
    assert not any(loads.values())


@pytest.mark.parametrize(
    "source",
    ["import numpy as np", "import numpy.linalg", "from numpy import array", "def f():\n    import numpy\n"],
)
def test_every_import_form_counts(source):
    assert _imports(ast.parse(source))[0]


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py")))
def test_no_module_imports_numpy_when_imported(module):
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    assert _import_time_numpy(tree.body) == [], f"periodkit.{module} imports numpy at module level"


@pytest.mark.parametrize(
    "source, runs",
    [
        ("import numpy as np", True),
        ("try:\n    import numpy\nexcept ImportError:\n    pass", True),
        ("class A:\n    import numpy", True),
        ("if TYPE_CHECKING:\n    pass\nelse:\n    from numpy import array", True),
        ("if TYPE_CHECKING:\n    import numpy as np", False),
        ("if typing.TYPE_CHECKING:\n    import numpy.typing", False),
        ("def f():\n    import numpy as np", False),
        ("class A:\n    def f(self):\n        import numpy", False),
    ],
)
def test_the_module_level_scan(source, runs):
    assert bool(_import_time_numpy(ast.parse(source).body)) == runs


# after each step: the step, its exit code, whether numpy and numpy.random are loaded
PROBE = """
import contextlib, io, sys
import periodkit
from periodkit import cli
print("import", 0, "numpy" in sys.modules, "numpy.random" in sys.modules)
for argv in (["height"], ["reduce", "0.3", "1.2"], ["rho", "0.1", "1.5"], ["delta", "0.5", "1.2"],
             ["bound", "isogeny"], ["serre", "threshold"], ["theta", "check"], ["verify", "--suite", "lattice"],
             ["verify", "--suite", "theta"], ["verify", "--suite", "all"]):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    print(argv[0] + "-" + argv[-1] if argv[0] in ("verify", "theta") else argv[0], rc,
          "numpy" in sys.modules, "numpy.random" in sys.modules)
"""


def test_no_command_loads_numpy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    steps = [line.split() for line in proc.stdout.splitlines()]
    assert [s[0] for s in steps] == [
        "import", "height", "reduce", "rho", "delta", "bound", "serre", "theta-check",
        "verify-lattice", "verify-theta", "verify-all",
    ]
    assert all(rc == "0" for _, rc, _, _ in steps)
    assert [loaded for _, _, loaded, _ in steps] == ["False"] * 11
    # the seeded draws come from random.Random: no command loads numpy's generators
    assert [loaded for _, _, _, loaded in steps] == ["False"] * 11

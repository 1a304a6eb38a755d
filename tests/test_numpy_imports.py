"""numpy only where arrays pay: the scalar modules import it neither directly nor through the package.

The scan reads the sources with ``ast`` and imports nothing. A module counts
as importing numpy when any of its ``import`` statements, at any depth, names
numpy or a ``numpy.`` submodule, or when it imports a package module that
does. ``theta``, ``interpolation`` and ``cli`` evaluate on arrays and may
import it.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "periodkit"
SCALAR_MODULES = ("lattice", "heights", "modular", "bounds", "isogeny", "serre")


def _imports(tree: ast.Module) -> tuple[bool, set]:
    """(names numpy itself, package modules it imports)."""
    numpy, package = False, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            numpy |= any(a.name.split(".")[0] == "numpy" for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                numpy |= (node.module or "").split(".")[0] == "numpy"
            elif node.module is None:
                package |= {a.name for a in node.names}
            else:
                package.add(node.module.split(".")[0])
    return numpy, package


def _loads_numpy() -> dict:
    """Module name -> whether importing it loads numpy, through package imports too."""
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


def test_the_scan_sees_numpy_where_it_is():
    loads = _loads_numpy()
    assert loads["theta"] and loads["interpolation"] and loads["cli"]


@pytest.mark.parametrize(
    "source",
    ["import numpy as np", "import numpy.linalg", "from numpy import array", "def f():\n    import numpy\n"],
)
def test_every_import_form_counts(source):
    assert _imports(ast.parse(source))[0]

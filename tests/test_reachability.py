"""Every top-level definition in ``src/periodkit`` is reached from ``cli.main``.

The scan reads the sources with ``ast`` and imports nothing. A definition is
reached when a reached definition names it: as ``name`` in its own module,
through ``from .module import name``, or as ``alias.name`` after
``from . import module as alias``. A reached class or function counts its
whole body, annotations and defaults included. ``__init__`` re-exports are
not roots: ``ptk`` is the program, and the package namespace only mirrors it.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "periodkit"

# (module, name) -> why it stays without a caller
UNREACHED_ALLOWED = {
    ("modular", "j_series_coefficients"): (
        "the integer j coefficients are the planned source of a certified "
        "j_lower_bound; tests check them against tests/oracles.py"
    ),
}


def _modules() -> dict:
    return {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}


def _definitions(tree: ast.Module) -> dict:
    """Top-level name -> defining node, for functions, classes and assigned constants."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, ast.Assign):
            for t in node.targets:
                if isinstance(t, ast.Name) and not t.id.startswith("__"):
                    out[t.id] = node
    return out


def _imports(tree: ast.Module) -> tuple[dict, dict]:
    """Bound name -> (module, name) for package names; bound name -> module for package modules."""
    names, mods = {}, {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for a in node.names:
                bound = a.asname or a.name
                if node.module is None:
                    mods[bound] = a.name
                else:
                    names[bound] = (node.module, a.name)
    return names, mods


def _referenced(node: ast.AST, module: str, defs: dict, names: dict, mods: dict) -> set:
    """(module, name) pairs in the package that the node refers to."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            if n.id in defs:
                out.add((module, n.id))
            elif n.id in names:
                out.add(names[n.id])
        elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id in mods:
            out.add((mods[n.value.id], n.attr))
    return out


def _unreached() -> list:
    trees = _modules()
    defs = {m: _definitions(t) for m, t in trees.items()}
    imports = {m: _imports(t) for m, t in trees.items()}
    seen, stack = set(), [("cli", "main")]
    while stack:
        key = stack.pop()
        if key in seen:
            continue
        seen.add(key)
        module, name = key
        node = defs.get(module, {}).get(name)
        if node is None:
            continue
        names, mods = imports[module]
        stack.extend(_referenced(node, module, defs[module], names, mods) - seen)
    return sorted(
        (m, name) for m, d in defs.items() if m != "__init__" for name in d if (m, name) not in seen
    )


def test_every_definition_is_reached_from_cli_main():
    unreached = [key for key in _unreached() if key not in UNREACHED_ALLOWED]
    assert unreached == [], "define nothing that no report or command reaches"


def test_allowed_exceptions_are_still_unreached():
    # an exception that gained a caller no longer needs its entry
    assert set(UNREACHED_ALLOWED) <= set(_unreached())


def test_every_import_is_used():
    unused = []
    for module, tree in _modules().items():
        if module == "__init__":
            continue
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and not (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"
            ):
                for a in node.names:
                    bound = a.asname or a.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{module}.{bound}")
    assert unused == []

"""Each paper constant is one module-level name, and its certificate reads that name.

The scan reads the sources with ``ast``: each value below is written once as
a numeric literal in ``src/periodkit`` (docstrings and other strings do not
count). The mutation tests lower each certified constant by one unit in its
last printed digit, through its one name, and check that its certificate then
FAILs.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from periodkit import bounds, isogeny, modular

SRC = Path(__file__).resolve().parents[1] / "src" / "periodkit"
PAPER_CONSTANTS = (2.95, 1778, 2.4, 6.45, 1.92, 8.66, 1193, 3583)


def _numeric_literals() -> list[tuple[float, str]]:
    out = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and type(node.value) in (int, float):
                out.append((node.value, f"{path.name}:{node.lineno}"))
    return out


@pytest.mark.parametrize("value", PAPER_CONSTANTS)
def test_each_constant_is_written_once(value):
    sites = [site for v, site in _numeric_literals() if v == value]
    assert len(sites) == 1, f"{value} is written at {sites}"


def _silverman():
    return modular.silverman_f_extrema()


def _surface():
    return next(r for r in isogeny.surface_bound_constants() if r.name == "surface_factor_1778")


def _real():
    return next(r for r in isogeny.chain_checkpoints() if r.name == "real_constant_3583")


def _ell(k):
    return lambda: bounds.prop_ell_solver(1.0)[2][k]


# (module, name, value one unit lower, certificate, the lowered certificate's lhs and margin)
MUTATIONS = [
    (modular, "SILVERMAN_CONSTANT", 2.94, _silverman, 2.94987, -0.00987),
    (isogeny, "SURFACE_CONSTANT", 1777.0, _surface, 1777.49, -0.49),
    (bounds, "ELL_GENERAL_SLOPE", 6.44, _ell(0), 14.66, -0.016),
    (bounds, "ELL_LARGE_SLOPE", 1.91, _ell(1), 6008.66, -30.9),
    (isogeny, "REAL_CONSTANT", 3582.0, _real, 3582.8, -0.8),
]


@pytest.mark.parametrize("module, name, lowered, certificate, lhs, margin", MUTATIONS,
                         ids=[m[1] for m in MUTATIONS])
def test_certificate_fails_one_unit_lower(monkeypatch, module, name, lowered, certificate, lhs, margin):
    assert certificate().satisfied
    monkeypatch.setattr(module, name, lowered)
    report = certificate()
    assert not report.satisfied
    assert report.lhs == pytest.approx(lhs, abs=0.005)
    assert report.margin == pytest.approx(margin, abs=0.05 * abs(margin))

"""The value types are immutable, and none can be built around its checks.

The validated tuples (``SiegelTau``, ``UnimodularMap``, ``CurveRecord``,
``SerreThreshold``, ``RiemannTau``) check their fields in ``__new__``;
namedtuple's ``_make`` and ``_replace`` must reach the same checks and raise
the same error.
``BoundReport`` and ``RunManifest`` default their dicts to None, read as a
fresh ``{}``, so no two instances share one.
"""

from __future__ import annotations

import re

import pytest

from periodkit.bounds import BoundReport
from periodkit.cli import RunManifest
from periodkit.heights import CurveRecord
from periodkit.lattice import SiegelTau, UnimodularMap
from periodkit.serre import SerreThreshold
from periodkit.theta import RiemannTau

TAU = SiegelTau(0.0, 1.25)
RECORD = CurveRecord("probe", 1, (TAU,), 2.0, (50, 3))

# (valid instance, field, invalid value)
INVALID = [
    (SiegelTau(0.1, 1.5), "re", 3.0),
    (SiegelTau(0.1, 1.5), "im", 0.5),
    (SiegelTau(0.1, 1.5), "im", float("nan")),
    (SiegelTau(0.4, 0.95), "re", 0.0),  # below the unit circle
    (UnimodularMap(1, 0, 0, 1), "a", 2),
    (UnimodularMap(1, 0, 0, 1), "b", 1.0),
    (RECORD, "degree", 0),
    (RECORD, "degree", 2),
    (RECORD, "embeddings", ((0.0, 1.25),)),
    (RECORD, "log_norm_minimal_discriminant", -1.0),
    (RECORD, "log_norm_minimal_discriminant", float("inf")),
    (RECORD, "j_rational", (1, 0)),
    (SerreThreshold(3094027, 1.5, 0.5), "f_at_p_star", 0.9),
    (SerreThreshold(3094027, 1.5, 0.5), "f_at_p_star_plus_1", 1.0),
    (RiemannTau(1, [[1j]]), "g", 3),
]


def _ids(case):
    return f"{type(case[0]).__name__}.{case[1]}={case[2]!r}"


@pytest.mark.parametrize("obj, field, bad", INVALID, ids=[_ids(c) for c in INVALID])
def test_replace_and_make_raise_what_the_constructor_raises(obj, field, bad):
    fields = {**obj._asdict(), field: bad}
    with pytest.raises((TypeError, ValueError)) as want:
        type(obj)(**fields)
    same = pytest.raises(type(want.value), match=f"^{re.escape(str(want.value))}$")
    with same:
        obj._replace(**{field: bad})
    with same:
        type(obj)._make(fields.values())


@pytest.mark.parametrize("obj", [TAU, UnimodularMap(2, 1, 1, 1), RECORD, SerreThreshold(3094027, 1.5, 0.5),
                                 RiemannTau(2, [[1j, 0.5], [0.5, 2j]])],
                         ids=lambda o: type(o).__name__)
def test_valid_replace_and_make_equal_the_constructor(obj):
    assert type(obj)._make(list(obj)) == obj == obj._replace()
    assert type(obj._replace()) is type(obj)


def test_replace_normalizes_like_the_constructor():
    rec = RECORD._replace(embeddings=[TAU], j_rational=("7", "2"))
    assert rec.embeddings == (TAU,) and type(rec.embeddings) is tuple
    assert rec.j_rational == (7, 2)


SEVEN = [
    (BoundReport("probe", 0.0, 1.0), "lhs"),
    (RunManifest([], [], {}, None), "wall_time"),
    (TAU, "re"),
    (UnimodularMap(1, 0, 0, 1), "a"),
    (RECORD, "label"),
    (SerreThreshold(3094027, 1.5, 0.5), "p_star"),
    (RiemannTau(1, [[1j]]), "g"),
]


@pytest.mark.parametrize("obj, field", SEVEN, ids=[type(o).__name__ for o, _ in SEVEN])
def test_assigning_or_deleting_an_attribute_raises(obj, field):
    before = getattr(obj, field)
    for name in (field, "extra"):
        with pytest.raises(AttributeError):
            setattr(obj, name, 1)
    with pytest.raises(AttributeError):
        delattr(obj, field)
    assert getattr(obj, field) is before
    assert not hasattr(obj, "extra")


def test_riemann_tau_matrix_is_read_only():
    rt = RiemannTau(1, [[1j]])
    with pytest.raises(TypeError):
        rt.matrix[0][0] = 2j
    assert rt.matrix == ((1j,),)


def test_reports_built_without_inputs_share_no_dict():
    a, b = BoundReport("a", 0.0, 1.0), BoundReport("b", 0.0, 1.0)
    inputs = a.as_dict()["inputs"]
    inputs["x"] = 1.0
    assert inputs is not b.as_dict()["inputs"]
    assert a.as_dict()["inputs"] == b.as_dict()["inputs"] == {}


def test_manifests_built_without_digests_share_no_dict():
    a, b = RunManifest([], [], {}, None), RunManifest([], [], {}, None)
    digests = a.to_dict()["input_digests"]
    digests["x"] = "0"
    assert digests is not b.to_dict()["input_digests"]
    assert a.to_dict()["input_digests"] == b.to_dict()["input_digests"] == {}


"""The record classes are plain classes and named tuples: they keep the
equality, hashing, repr, immutability and pickling their callers use, and
importing the package loads no module that only they would need."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import knotrank
from knotrank.algebra import F2, F3, QQ, CoefficientField
from knotrank.corpus import load_corpus
from knotrank.diagram import Diagram
from knotrank.khovanov import khovanov_ranks
from knotrank.scanner import KnotReport, compute_report

TREFOIL = ((1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3))


def test_import_loads_no_record_machinery():
    # a fresh interpreter, because this one has loaded them for pytest
    src = str(Path(knotrank.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, knotrank; print(' '.join(m for m in ('dataclasses', "
            "'inspect', 'ast', 'dis', 'tokenize', 'csv') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == []


def test_diagram_equality_hash_repr():
    a = Diagram(TREFOIL, name="3_1")
    b = Diagram([list(t) for t in TREFOIL], 0, "3_1")
    assert a == b and hash(a) == hash(b)
    assert a.crossings == TREFOIL and b.crossings == TREFOIL
    assert len({a, b}) == 1
    assert a != Diagram(TREFOIL, name="other")
    assert a != Diagram(TREFOIL, 1, "3_1")
    assert a != TREFOIL
    assert repr(a) == "<Diagram 3_1: 3 crossings, 1 component(s)>"
    assert repr(Diagram((), 2)) == "<Diagram diagram: 0 crossings, 2 component(s)>"


def test_diagram_is_immutable():
    d = Diagram(TREFOIL, name="3_1")
    for attr, value in (("name", "x"), ("crossings", ()), ("extra_components", 1)):
        with pytest.raises(AttributeError):
            setattr(d, attr, value)
    assert (d.name, d.crossings, d.extra_components) == ("3_1", TREFOIL, 0)
    # cached properties still fill in after construction
    assert d.writhe == -3 and d.signs == (-1, -1, -1)


def test_diagram_fields():
    # the orientation is held once: successor map and over-in edges follow
    # from the components and the signs
    assert set(vars(Diagram(TREFOIL))) == {
        "crossings", "extra_components", "name", "components", "signs"}


def test_package_exports_no_module():
    for name in knotrank.__all__:
        assert type(getattr(knotrank, name)) is not type(knotrank), name
    removed = {"JonesPolynomial", "crossing_change", "oriented_resolution",
               "disjoint_union"}
    assert removed.isdisjoint(knotrank.__all__)
    assert not any(hasattr(knotrank, name) for name in removed)


def test_coefficient_field_equality_hash_repr():
    assert CoefficientField(3) == F3 and hash(CoefficientField(3)) == hash(F3)
    assert F2 != F3 and QQ != 0 and F3 != 3
    assert len({CoefficientField(2), F2, QQ}) == 2
    assert repr(F3) == "CoefficientField(f3)" and repr(QQ) == "CoefficientField(q)"
    for bad in (6, 1, -2):
        with pytest.raises(ValueError):
            CoefficientField(bad)


def test_knot_reports_share_no_dict():
    a, b = KnotReport("a"), KnotReport("b", crossings=3, error="boom")
    for attr in ("arf_routes", "reduced", "unreduced", "deformed", "flags"):
        assert getattr(a, attr) == {} and getattr(a, attr) is not getattr(b, attr)
    a.reduced["f2"] = 1
    assert b.reduced == {}
    assert (b.name, b.crossings, b.error, b.det, b.time_ms) == ("b", 3, "boom", None, 0)


def test_records_pickle_round_trip():
    # the --jobs pool sends diagrams to its workers and reports back
    d = load_corpus()["6_1"]
    for obj in (d, F3, QQ, khovanov_ranks(d, F3)):
        copy = pickle.loads(pickle.dumps(obj))
        assert copy == obj and type(copy) is type(obj)
    copy = pickle.loads(pickle.dumps(d))
    assert copy.signs == d.signs
    with pytest.raises(AttributeError):
        copy.name = "x"
    report = compute_report(d, ("f3",), with_deformed=True)
    assert vars(pickle.loads(pickle.dumps(report))) == vars(report)

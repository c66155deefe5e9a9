"""Validation decides planarity: every label-valid PD code whose rotation
system does not embed in the plane is rejected with its genus, at parse
time and in a batch, and the planarity oracle agrees on every code."""

import random

import pytest

from diagram_ops import disjoint_union
from knotrank.corpus import load_corpus
from knotrank.diagram import Diagram, InvalidDiagram, parse_diagram_lines
from knotrank.scanner import scan
from pd_trace_oracle import trace_structure_walked
from planarity_oracle import is_planar

VIRTUAL_TREFOIL = ((1, 3, 2, 4), (2, 1, 3, 4))


def gauss_code(rng: random.Random, n: int):
    """A PD code read off a random Gauss sequence of n crossings, with random
    over/under and handedness choices: one component, any genus."""
    visits = list(range(n)) * 2
    rng.shuffle(visits)
    position_of: dict = {}
    for pos, ci in enumerate(visits):
        position_of.setdefault(ci, []).append(pos)
    code = []
    for ci in range(n):
        under, over = position_of[ci]
        if rng.random() < 0.5:
            under, over = over, under
        a, c = under + 1, (under + 1) % (2 * n) + 1
        o_in, o_out = over + 1, (over + 1) % (2 * n) + 1
        code.append((a, o_out, c, o_in) if rng.random() < 0.5 else (a, o_in, c, o_out))
    return tuple(code)


def label_valid(code) -> bool:
    try:
        trace_structure_walked(code)
    except InvalidDiagram:
        return False
    return True


def pd_text(code) -> str:
    return "[" + ",".join("[" + ",".join(map(str, t)) + "]" for t in code) + "]"


def test_virtual_gauss_codes_are_error_records():
    rng = random.Random(5)
    codes = [gauss_code(rng, rng.randint(3, 7)) for _ in range(3000)]
    codes = [code for code in codes if label_valid(code)]
    planar = [code for code in codes if is_planar(code)]
    virtual = [code for code in codes if not is_planar(code)]
    assert len(planar) > 300 and len(virtual) > 1000
    text = "".join(f"p{k}\t{pd_text(code)}\n" for k, code in enumerate(planar))
    assert all(isinstance(d, Diagram) for d in parse_diagram_lines(text))

    text = "".join(f"v{k}\t{pd_text(code)}\n" for k, code in enumerate(virtual))
    parsed = parse_diagram_lines(text)
    assert len(parsed) == len(virtual)
    assert all(isinstance(d, InvalidDiagram) and "genus" in str(d) for d in parsed)
    reports = scan(parsed, fields=("f2",))
    assert [r.name for r in reports] == [f"v{k}" for k in range(len(virtual))]
    assert all(r.error.startswith("InvalidDiagram: the rotation system has genus")
               and not r.flags for r in reports)


def test_split_links_count_faces_per_piece():
    # a planar split link has two pieces, and so two more faces than a
    # connected diagram of as many crossings
    c = load_corpus()
    split = disjoint_union(c["3_1"], c["hopf"])
    assert split.n_components == 3 and is_planar(split.crossings)
    # beside a planar knot, a virtual trefoil is still rejected; a split
    # pair of them has genus 1 each
    def shifted(code, k):
        return tuple(tuple(e + k for e in t) for t in code)

    for code, genus in ((c["3_1"].crossings + shifted(VIRTUAL_TREFOIL, 6), 1),
                        (VIRTUAL_TREFOIL + shifted(VIRTUAL_TREFOIL, 4), 2)):
        assert not is_planar(code)
        with pytest.raises(InvalidDiagram, match=f"genus {genus}"):
            Diagram(code)

import itertools
import random

import pytest

from diagram_ops import crossing_change, disjoint_union, oriented_resolution
from knotrank.algebra import F2
from knotrank.corpus import load_corpus
from knotrank.diagram import (Diagram, InvalidDiagram, connected_sum, mirror,
                              parse_diagram_file, parse_pd)
from knotrank.jones import jones
from knotrank.khovanov import KnotScan, khovanov_ranks
from planarity_oracle import is_planar

TREFOIL = "[[1,4,2,5],[3,6,4,1],[5,2,6,3]]"


@pytest.fixture(scope="module")
def corpus():
    return load_corpus()


def test_parse_trefoil():
    d = parse_pd(TREFOIL)
    assert len(d.crossings) == 3
    assert d.n_components == 1
    assert d.edge_count == 6


def test_parse_whitespace_tolerant():
    d = parse_pd(" [ [1, 4, 2, 5] ,[3,6,4,1],\n[5,2,6,3] ] ")
    assert d.crossings == parse_pd(TREFOIL).crossings


def test_parse_unknot_tokens():
    assert parse_pd("U").n_components == 1
    assert parse_pd("UU").n_components == 2
    assert parse_pd("U").crossings == ()


def test_parse_rejects_malformed():
    with pytest.raises(InvalidDiagram):
        parse_pd("[[1,2,3],[4,5,6]]")          # arity
    with pytest.raises(InvalidDiagram):
        parse_pd("[[1,4,2,5],[3,6,4,1]]")      # labels not twice
    with pytest.raises(InvalidDiagram):
        parse_pd("")
    with pytest.raises(InvalidDiagram):
        parse_pd("[[2,4,1,5],[3,6,4,1],[5,2,6,3]]")  # under-strand backwards


def test_constructor_rejects_malformed():
    # Diagram's own checks: parse_pd rejects these inputs as text first
    with pytest.raises(InvalidDiagram, match="need at least one component"):
        Diagram((), 0)
    with pytest.raises(InvalidDiagram, match="negative component count"):
        Diagram(((1, 2, 1, 2),), -1)
    with pytest.raises(InvalidDiagram, match="crossing 0: expected 4 edges, got 3"):
        Diagram(((1, 2, 3),))


def test_components_and_writhe(corpus):
    assert corpus["3_1"].n_components == 1
    assert corpus["hopf"].n_components == 2
    assert corpus["unlink2"].n_components == 2
    assert corpus["3_1"].writhe == -3
    assert mirror(corpus["3_1"]).writhe == 3
    assert corpus["unknot"].writhe == 0
    assert corpus["4_1"].writhe == 0


def test_right_trefoil_writhe(corpus):
    right = mirror(corpus["3_1"])
    assert right.writhe == +3
    assert all(s == 1 for s in right.signs)


def test_mirror_involution_and_writhe(corpus):
    for name in ("3_1", "4_1", "6_1", "6_2", "hopf"):
        d = corpus[name]
        assert mirror(mirror(d)).writhe == d.writhe
        assert mirror(d).writhe == -d.writhe


def test_mirror_jones_identity(corpus):
    d = corpus["3_1"]
    assert jones(mirror(d)) == jones(d).invert_variable()


def test_crossing_change_involution(corpus):
    d = corpus["4_1"]
    for i in range(4):
        dd = crossing_change(crossing_change(d, i), i)
        assert jones(dd) == jones(d)
        assert crossing_change(d, i).writhe == d.writhe - 2 * d.signs[i]
    with pytest.raises(IndexError):
        crossing_change(d, 9)


def test_trefoil_unknotting(corpus):
    for i in range(3):
        assert jones(crossing_change(corpus["3_1"], i)) == jones(corpus["unknot"])


def test_oriented_resolution_structure(corpus):
    for name in ("3_1", "4_1", "5_1", "6_1", "6_2"):
        d = corpus[name]
        for i in range(len(d.crossings)):
            r = oriented_resolution(d, i)
            assert len(r.crossings) == len(d.crossings) - 1
            assert abs(r.n_components - d.n_components) == 1
    res = oriented_resolution(corpus["3_1"], 0)
    assert res.n_components == 2   # a Hopf link
    with pytest.raises(IndexError):
        oriented_resolution(corpus["3_1"], 3)


def test_resolution_of_kink_splits_circle():
    kink = parse_pd("[[1,2,2,1]]")
    r = oriented_resolution(kink, 0)
    assert r.n_components == 2 and not r.crossings


def test_connected_sum(corpus):
    t = corpus["3_1"]
    s = connected_sum(t, mirror(t))
    assert s.n_components == 1
    assert len(s.crossings) == 6
    # unknot is the identity
    u = connected_sum(corpus["unknot"], t)
    assert jones(u) == jones(t)
    assert connected_sum(corpus["unknot"], corpus["unknot"]).pd_text == "U"
    with pytest.raises(InvalidDiagram):
        connected_sum(corpus["hopf"], t)


def test_connected_sum_explicit_edges(corpus):
    t = corpus["3_1"]
    for e1 in (1, 4, 6):
        s = connected_sum(t, corpus["4_1"], e1, 3)
        assert s.is_knot and len(s.crossings) == 7
        assert jones(s) == jones(connected_sum(t, corpus["4_1"]))


def test_disjoint_union(corpus):
    du = disjoint_union(corpus["3_1"], corpus["4_1"])
    assert du.n_components == 2
    assert len(du.crossings) == 7
    assert is_planar(du.crossings)


def test_roundtrip(corpus):
    for d in corpus.values():
        again = parse_pd(d.pd_text)
        assert again.crossings == d.crossings
        assert again.extra_components == d.extra_components


def test_file_roundtrip(corpus):
    from knotrank.diagram import format_diagram_file

    ds = [corpus["3_1"], corpus["unknot"], corpus["hopf"]]
    text = "# a comment\n" + format_diagram_file(ds)
    back = parse_diagram_file(text)
    assert [d.crossings for d in back] == [d.crossings for d in ds]
    assert [d.name for d in back] == ["3_1", "unknot", "hopf"]
    with pytest.raises(InvalidDiagram):
        parse_diagram_file("name_without_tab")


def test_corpus_contents(corpus):
    assert len(corpus["18nh_00159590"].crossings) == 18
    assert len(corpus["19nh_000305767"].crossings) == 19
    assert len(corpus["symunion24"].crossings) == 24
    assert corpus["unknot"].crossings == ()
    for d in corpus.values():
        assert is_planar(d.crossings)


def test_planarity_detects_virtual():
    # the virtual trefoil: a PD code that keeps the label rule, but whose
    # rotation system has genus 1
    with pytest.raises(InvalidDiagram, match="genus 1"):
        parse_pd("[[1,3,2,4],[2,1,3,4]]")
    assert not is_planar(((1, 3, 2, 4), (2, 1, 3, 4)))


def over_only_component(d: Diagram) -> bool:
    """Whether ``d`` has a two-edge component that only passes over."""
    unders = {e for a, _, c, _ in d.crossings for e in (a, c)}
    return any(len(comp) == 2 and not unders & set(comp) for comp in d.components)


def planar(codes):
    """The diagrams of the codes that pass validation, in sorted order."""
    out = []
    for code in sorted(set(codes)):
        try:
            out.append(Diagram(code))
        except InvalidDiagram:
            pass
    return out


def sampled_codes(n: int, rng: random.Random):
    """Endless random ``n``-crossing codes whose labels k, k+1 sit in the
    over slots of two crossings, the one way a two-edge component can
    only pass over."""
    while True:
        k = rng.randrange(1, 2 * n)
        rest = [e for e in range(1, 2 * n + 1) if e not in (k, k + 1)] * 2
        rng.shuffle(rest)
        code = [tuple(rest[4 * i:4 * i + 4]) for i in range(n - 2)]
        for a, c in (rest[-4:-2], rest[-2:]):
            b, d = rng.sample((k, k + 1), 2)
            code.append((a, b, c, d))
        rng.shuffle(code)
        yield tuple(code)


def test_over_only_component_direction_changes_no_invariant():
    # a two-edge component that only passes over is oriented by crossing
    # order (its labels cannot say which way it runs); in a planar diagram
    # it crosses one other component twice with opposite signs, so its
    # linking number is 0 and neither Jones nor Kh depends on its direction
    slots = sorted(2 * list(range(1, 5)))
    every_two = planar(tuple(p[i:i + 4] for i in range(0, 8, 4))
                       for p in itertools.permutations(slots))
    two = [d for d in every_two if over_only_component(d)]
    three = set()
    for code in sampled_codes(3, random.Random(19)):
        three.update(planar([code]))
        if len(three) == 60:
            break
    assert len(two) == 8 and all(map(over_only_component, three))
    # a code whose two tuple orders gave two Jones polynomials is virtual
    with pytest.raises(InvalidDiagram, match="genus 1"):
        parse_pd("[[1,3,2,4],[2,4,1,3]]")
    for d in [*two, *three]:
        rev = Diagram(d.crossings[::-1])
        flipped = [i for i, (s, r) in enumerate(zip(d.signs, rev.signs[::-1])) if s != r]
        assert len(flipped) == 2 and sum(d.signs[i] for i in flipped) == 0
        assert jones(rev) == jones(d), d.pd_text
        assert (khovanov_ranks(KnotScan(rev), F2, reduced=False).ranks
                == khovanov_ranks(KnotScan(d), F2, reduced=False).ranks), d.pd_text

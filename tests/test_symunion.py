import math

import pytest

import knotrank.symunion as symunion
from knotrank.arf import arf
from knotrank.corpus import load_corpus
from knotrank.jones import jones
from knotrank.symunion import (SymmetricUnionError, random_diagram,
                               random_symmetric_union, symmetric_union)
from planarity_oracle import is_planar
from test_alexander import signed_det


@pytest.fixture(scope="module")
def corpus():
    return load_corpus()


def test_unknot_union_is_unknot(corpus):
    for twists in ([1], [3], [-1], [1, -1, 1], [5]):
        s = symmetric_union(corpus["unknot"], twists)
        assert s.is_knot and is_planar(s.crossings)
        assert len(s.crossings) == sum(abs(t) for t in twists)
        assert jones(s) == jones(corpus["unknot"])


def test_crossing_count_formula(corpus):
    for name in ("3_1", "4_1", "6_1"):
        for twists in ([1], [3], [1, 1, 1]):
            s = symmetric_union(corpus[name], twists)
            assert len(s.crossings) == \
                2 * len(corpus[name].crossings) + sum(abs(t) for t in twists)
            assert s.is_knot and is_planar(s.crossings)


def test_even_twists_make_links(corpus):
    for twists in ([2], [1, 1], [4], [1, -1]):
        with pytest.raises(SymmetricUnionError):
            symmetric_union(corpus["3_1"], twists)


def test_twist_spec_validation(corpus):
    with pytest.raises(ValueError):
        symmetric_union(corpus["3_1"], [])
    with pytest.raises(ValueError):
        symmetric_union(corpus["3_1"], [1, 0])
    with pytest.raises(Exception):
        symmetric_union(corpus["hopf"], [1])


def test_union_invariants(corpus):
    # determinant of the union is the square of the seed determinant
    for name in ("3_1", "4_1"):
        s = symmetric_union(corpus[name], [1])
        sd = signed_det(s)
        assert sd == signed_det(corpus[name]) ** 2
        assert sd % 8 == 1
        r = arf(s)
        assert r.value == 0 and r.consistent


def test_random_diagram_determinism():
    d1 = random_diagram(123, 8)
    d2 = random_diagram(123, 8)
    assert d1.crossings == d2.crossings
    assert any(random_diagram(seed, 8).crossings != d1.crossings
               for seed in range(124, 132))


def test_random_diagrams_validate():
    for seed in range(40):
        d = random_diagram(seed, 8)
        assert d.is_knot
        assert 3 <= len(d.crossings) <= 8
        assert is_planar(d.crossings)


def test_random_symmetric_union_batch():
    for seed in range(12):
        s = random_symmetric_union(seed, 8)
        assert s.is_knot and is_planar(s.crossings)
        sd = signed_det(s)
        root = math.isqrt(abs(sd))
        assert sd > 0 and root * root == sd, seed
        assert sd % 8 == 1
        assert arf(s).value == 0


def test_random_union_rejects_even_twist_total():
    # every union is then a link: the generator must refuse, not retry
    for twists in ((2,), (1, 1), (1, -3)):
        with pytest.raises(ValueError, match="is even"):
            random_symmetric_union(0, 8, twists)


def test_random_union_raises_generator_faults(monkeypatch):
    # past the twist check, a failed union is a fault of the generator: it
    # must surface, not be retried with another seed
    calls = []
    union = symunion.symmetric_union

    def faulty(d, twists):
        calls.append(d)
        if len(calls) == 1:
            raise SymmetricUnionError("planted fault")
        return union(d, twists)

    monkeypatch.setattr(symunion, "symmetric_union", faulty)
    with pytest.raises(SymmetricUnionError, match="planted fault"):
        random_symmetric_union(0, 8)
    assert len(calls) == 1


def test_random_diagram_rejects_small_n():
    with pytest.raises(ValueError):
        random_diagram(1, 2)

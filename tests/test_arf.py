import pytest

from diagram_ops import crossing_change, disjoint_union, oriented_resolution
from knotrank.algebra import LaurentPolynomial, mod_2_t4
from knotrank.alexander import alexander_polynomial
from knotrank.arf import (arf, arf_from_alexander, arf_from_jones,
                          arf_from_jones_at_i, arf_from_levine)
from knotrank.corpus import load_corpus
from knotrank.diagram import Diagram
from knotrank.jones import jones
from knotrank.symunion import symmetric_union

# cosets of the unit classes in F2[t]/(1+t^4): squares-of-units times (1+t)
# versus units times (1+t^2); precomputed by enumerating the 8 units
_LK0_CLASSES = {0b0011, 0b1100}   # 1+t, t^2+t^3
_LK1_CLASSES = {0b0101, 0b1010}   # 1+t^2, t+t^3


def link_class_from_jones(v: LaurentPolynomial) -> int:
    """Linking number mod 2 of a 2-component link from t^(1/2) V(t)."""
    shifted = v.shift(1)  # multiply by q = t^(1/2)
    cls = mod_2_t4(shifted.q_to_t())
    if cls in _LK0_CLASSES:
        return 0
    if cls in _LK1_CLASSES:
        return 1
    raise ValueError(f"t^(1/2) V reduces to {cls:#06b}, outside both linking cosets")


def arf_from_jones_coeffs(v: LaurentPolynomial) -> int:
    """Sum of the Jones coefficients c_i over i = 1 mod 4, taken mod 2;
    checked against the matching sum over i = -1 mod 4."""
    c = v.q_to_t().coeffs
    s1 = sum(cv for e, cv in c.items() if e % 4 == 1) % 2
    s3 = sum(cv for e, cv in c.items() if e % 4 == 3) % 2
    if s1 != s3:
        raise ValueError("coefficient sums over i=1 and i=-1 (mod 4) disagree mod 2")
    return s1


def component_of_edge(d: Diagram) -> dict:
    """Index of the component (in ``d.components``) of each edge."""
    return {e: k for k, comp in enumerate(d.components) for e in comp}


def linking_number(d: Diagram) -> int:
    """Half the signed count of crossings between the two components."""
    if d.n_components != 2:
        raise ValueError("linking number needs exactly 2 components")
    comp_of = component_of_edge(d)
    total = 0
    for ci, (a, b, c, dd) in enumerate(d.crossings):
        comp_under = comp_of[a]
        comp_over = comp_of[d.over_pair(ci)[0]]
        if comp_under != comp_over:
            total += d.signs[ci]
    assert total % 2 == 0
    return total // 2


@pytest.fixture(scope="module")
def corpus():
    return load_corpus()


def test_levine_map():
    assert arf_from_levine(1) == 0
    assert arf_from_levine(-3) == 1     # -3 = 5 mod 8
    assert arf_from_levine(9) == 0
    assert arf_from_levine(5) == 1
    assert arf_from_levine(-7) == 0
    with pytest.raises(ValueError):
        arf_from_levine(4)
    with pytest.raises(ValueError):
        arf_from_levine(3)   # not a knot determinant (3 mod 4)


def test_alexander_reduction(corpus):
    assert arf_from_alexander(LaurentPolynomial({0: 1})) == 0
    assert arf_from_alexander(alexander_polynomial(corpus["4_1"])) == 1
    assert arf_from_alexander(alexander_polynomial(corpus["6_1"])) == 0
    with pytest.raises(ValueError):
        arf_from_alexander(LaurentPolynomial({0: 1, 1: 1}))


def test_jones_reduction(corpus):
    assert arf_from_jones(jones(corpus["3_1"])) == 1
    assert arf_from_jones(jones(corpus["6_1"])) == 0
    assert arf_from_jones(jones(corpus["unknot"])) == 0


def test_jones_coefficient_sums(corpus):
    assert arf_from_jones_coeffs(jones(corpus["unknot"])) == 0
    assert arf_from_jones_coeffs(jones(corpus["3_1"])) == 1
    assert arf_from_jones_coeffs(jones(corpus["4_1"])) == 1
    # both congruence-class sums agree for every corpus knot
    for name, d in corpus.items():
        if d.is_knot:
            arf_from_jones_coeffs(jones(d))


def test_at_i_route():
    assert arf_from_jones_at_i((1, 0, 0, 0)) == 0
    assert arf_from_jones_at_i((-1, 0, 0, 0)) == 1
    with pytest.raises(ValueError):
        arf_from_jones_at_i((0, 0, -1, 0))


def test_all_routes_agree_on_corpus(corpus):
    expected = {"unknot": 0, "3_1": 1, "4_1": 1, "5_1": 1, "6_1": 0, "6_2": 1,
                "18nh_00159590": 0, "18nh_00752242": 0, "19nh_000129633": 0,
                "19nh_000305767": 0, "symunion24": 0}
    for name, want in expected.items():
        r = arf(corpus[name])
        assert r.consistent, name
        assert r.value == want, name
        assert set(r.routes) == {"levine", "alexander_mod", "jones_mod",
                                 "jones_at_i", "conway_a2"}
    # extra route: the coefficient sums agree with the consensus
    for name, want in expected.items():
        assert arf_from_jones_coeffs(jones(corpus[name])) == want, name


def test_link_classification(corpus):
    assert link_class_from_jones(jones(corpus["unlink2"])) == 0
    assert link_class_from_jones(jones(corpus["hopf"])) == 1
    res = oriented_resolution(corpus["3_1"], 0)
    assert link_class_from_jones(jones(res)) == linking_number(res) % 2


def test_linking_numbers(corpus):
    assert linking_number(corpus["unlink2"]) == 0
    assert abs(linking_number(corpus["hopf"])) == 1
    with pytest.raises(ValueError):
        linking_number(corpus["3_1"])
    split = disjoint_union(corpus["unknot"], corpus["3_1"])
    assert linking_number(split) == 0


def test_skein_arf_compatibility(corpus):
    # Arf(L+) + Arf(L-) = lk(L0) mod 2, at every crossing of the small knots
    for name in ("3_1", "4_1", "5_1", "6_1", "6_2"):
        d = corpus[name]
        for i in range(len(d.crossings)):
            a1 = arf(d).value
            a2 = arf(crossing_change(d, i)).value
            res = oriented_resolution(d, i)
            lk = linking_number(res)
            assert (a1 + a2 - lk) % 2 == 0, (name, i)
            # and the Jones-reduction class of the resolution matches
            assert link_class_from_jones(jones(res)) == lk % 2, (name, i)


def test_symmetric_unions_have_arf_zero(corpus):
    for seed_name in ("unknot", "3_1", "4_1"):
        s = symmetric_union(corpus[seed_name], [1])
        r = arf(s)
        assert r.value == 0 and r.consistent, seed_name

import importlib
from pathlib import Path

import pytest

from diagram_ops import crossing_change, disjoint_union, oriented_resolution
from knotrank.algebra import LaurentPolynomial, zeta8_to_iroot2
from knotrank.corpus import load_corpus
from knotrank.diagram import mirror, parse_diagram_file, parse_pd
from knotrank.jones import det_from_jones, jones
from knotrank.khovanov import ResourceLimit
from knotrank.scanner import compute_report
from state_sum_oracle import jones_state_sum, kauffman_bracket_state_sum


@pytest.fixture(scope="module")
def corpus():
    return load_corpus()


def jones_at_i(d) -> tuple:
    """V_L(i) as an exact element of Z[i, sqrt2] in the basis
    (1, i, sqrt2, i*sqrt2)."""
    return zeta8_to_iroot2(jones(d).evaluate_zeta8())


def V(d):
    return jones(d)


def q_parity(v: LaurentPolynomial) -> int:
    """The parity shared by every q-exponent of ``v``."""
    parities = {e % 2 for e in v.coeffs}
    if len(parities) > 1:
        raise ValueError("mixed q-exponent parity")
    return parities.pop() if parities else 0


def test_frozen_values(corpus):
    assert V(corpus["unknot"]) == LaurentPolynomial({0: 1})
    # left-handed trefoil: -t^-4 + t^-3 + t^-1 in q = t^(1/2)
    assert V(corpus["3_1"]) == LaurentPolynomial({-8: -1, -6: 1, -2: 1})
    assert V(corpus["unlink2"]) == LaurentPolynomial({-1: -1, 1: -1})
    assert V(corpus["4_1"]) == LaurentPolynomial(
        {-4: 1, -2: -1, 0: 1, 2: -1, 4: 1})


def test_oracle_agreement(corpus):
    for name, d in corpus.items():
        if len(d.crossings) <= 12:
            assert V(d) == jones_state_sum(d), name


POOL_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "symunion_pool.pd"


def test_oracle_agreement_on_pool():
    # the cut contraction against the closed state sum on the benchmark
    # pool's symmetric unions of at most 11 crossings
    knots = [d for d in parse_diagram_file(POOL_FILE.read_text())
             if len(d.crossings) <= 11]
    assert len(knots) == 64
    for d in knots:
        assert V(d) == jones_state_sum(d), d.name


def test_oracle_agreement_on_surgered_diagrams(corpus):
    # the cut contraction against the closed state sum on the crossing
    # changes, oriented resolutions and split unions of the small corpus
    # knots, and on their mirrors: links, split diagrams and kinks
    diagrams = []
    for name, d in corpus.items():
        if not d.is_knot or len(d.crossings) > 12:
            continue
        for i in range(len(d.crossings)):
            diagrams += [crossing_change(d, i), oriented_resolution(d, i)]
        diagrams += [disjoint_union(d, corpus[other])
                     for other in ("3_1", "hopf", "unknot")]
    diagrams += [mirror(d) for d in diagrams]
    for d in diagrams:
        assert V(d) == jones_state_sum(d), d.pd_text


def test_skein_relation_all_corpus_crossings(corpus):
    # t^-1 V(L+) - t V(L-) = (t^(1/2) - t^(-1/2)) V(L0), in q: q^2 = t
    tinv = LaurentPolynomial({-2: 1})
    t = LaurentPolynomial({2: 1})
    zq = LaurentPolynomial({1: 1, -1: -1})
    for name, d in corpus.items():
        if len(d.crossings) > 12:
            continue
        for i in range(len(d.crossings)):
            other = crossing_change(d, i)
            if d.signs[i] == 1:
                plus, minus = d, other
            else:
                plus, minus = other, d
            l0 = oriented_resolution(d, i)
            lhs = tinv * V(plus) - t * V(minus)
            assert lhs == zq * V(l0), (name, i)


def test_mirror_identity(corpus):
    for name in ("3_1", "4_1", "5_1", "6_1", "6_2", "hopf"):
        d = corpus[name]
        assert V(mirror(d)) == V(d).invert_variable(), name


def test_split_union_formula(corpus):
    # V(K1 u K2) = -(q + 1/q) V(K1) V(K2)
    factor = LaurentPolynomial({1: -1, -1: -1})
    d1, d2 = corpus["3_1"], corpus["4_1"]
    du = disjoint_union(d1, d2)
    assert V(du) == factor * V(d1) * V(d2)
    assert V(disjoint_union(corpus["unknot"], corpus["unknot"])) == factor


def test_exponent_parity_matches_components(corpus):
    for name, d in corpus.items():
        if len(d.crossings) > 12:
            continue
        parity = q_parity(jones(d))
        assert parity == (d.n_components - 1) % 2, name


def test_determinants(corpus):
    expected = {"unknot": 1, "3_1": 3, "4_1": 5, "5_1": 5, "6_1": 9, "6_2": 11}
    for name, det in expected.items():
        assert det_from_jones(V(corpus[name])) == det, name
    assert det_from_jones(V(mirror(corpus["6_2"]))) == 11
    with pytest.raises(ValueError):
        det_from_jones(V(corpus["hopf"]))
    with pytest.raises(ValueError):
        det_from_jones(V(corpus["unlink2"]))
    # a split link has determinant 0: V(-1) of the 3-component unlink
    assert det_from_jones(V(parse_pd("UUU"))) == 0


def test_values_at_i(corpus):
    assert jones_at_i(corpus["unknot"]) == (1, 0, 0, 0)
    assert jones_at_i(corpus["3_1"]) == (-1, 0, 0, 0)     # Arf 1
    assert jones_at_i(corpus["6_1"]) == (1, 0, 0, 0)      # Arf 0
    assert jones_at_i(corpus["hopf"]) == (0, 0, 0, 0)     # improper link
    assert jones_at_i(corpus["unlink2"]) == (0, 0, -1, 0)  # -sqrt2


def test_magnitude_at_i_for_proper_links(corpus):
    # |V(i)| is sqrt(2)^(#L - 1) for proper links and 0 otherwise
    tref = corpus["3_1"]
    res = oriented_resolution(tref, 0)   # a Hopf link: improper
    assert jones_at_i(res) == (0, 0, 0, 0)
    split = disjoint_union(tref, tref)   # split: lk = 0: proper
    a, b, c, dd = jones_at_i(split)
    assert (a, b) == (0, 0) and abs(c) == 1 and dd == 0


def test_unknotted_diagram_with_kinks():
    d = parse_pd("[[1,2,2,1]]")
    assert V(d) == LaurentPolynomial({0: 1})
    assert d.writhe in (-1, 1)


def test_deadline_stops_the_contraction(corpus, monkeypatch):
    # a clock that passes the deadline halfway through the walk: Jones stops
    # before its next step, and the knot's report is one error record.
    # Without a deadline the clock is never read.  knotrank.jones names the
    # function, so the module comes from importlib
    jones_module = importlib.import_module("knotrank.jones")
    d = corpus["18nh_00159590"]
    expected = jones(d)
    steps = len(d.crossings)
    reads = []

    class Clock:
        @classmethod
        def monotonic(cls):
            reads.append(None)
            return 1e12 if len(reads) > steps // 2 else 0.0

    monkeypatch.setattr(jones_module, "time", Clock)
    assert jones(d) == expected and reads == []
    with pytest.raises(ResourceLimit):
        jones(d, deadline=1.0)
    assert len(reads) == steps // 2 + 1
    reads.clear()
    report = compute_report(d, ("f2",), timeout=3600)
    assert report.error == "ResourceLimit: Jones deadline exceeded"
    assert len(reads) == steps // 2 + 1
    assert report.det is not None and report.arf is None


def test_state_sum_guard():
    from knotrank.corpus import load_corpus

    big = load_corpus()["18nh_00159590"]
    with pytest.raises(ValueError):
        kauffman_bracket_state_sum(big)

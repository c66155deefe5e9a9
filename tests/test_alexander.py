import hashlib
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alexander_oracle import alexander_by_evaluation, fox_minor_at, rational_det
from knotrank.algebra import LaurentPolynomial
from knotrank.alexander import (_bareiss_det, _fox_rows, _signed_digits,
                                alexander_polynomial, conway_potential)
from knotrank.cli import main
from knotrank.corpus import RIBBON_NAMES, load_corpus
from knotrank.diagram import (connected_sum, format_diagram_file, mirror,
                              parse_diagram_file)
from knotrank.jones import det_from_jones, jones
from knotrank.khovanov import ResourceLimit
from knotrank.scanner import compute_report


@pytest.fixture(scope="module")
def corpus():
    return load_corpus()


def signed_det(d) -> int:
    """Delta(-1) of the Conway-normalized Alexander polynomial."""
    value = alexander_polynomial(d).evaluate(-1)
    assert value % 2, "knot determinant must be odd"
    return value


def seifert_oracle(v):
    """Conway-normalized det(V - t V^T) from an explicit Seifert matrix;
    an independent route used only for small fixture knots."""
    n = len(v)
    t = LaurentPolynomial({1: 1})
    m = [[LaurentPolynomial({0: v[i][j]}) - t * v[j][i] for j in range(n)]
         for i in range(n)]
    # cofactor expansion; n is 2 here so keep it simple
    if n == 1:
        det = m[0][0]
    elif n == 2:
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    else:
        raise NotImplementedError
    shift = -(det.max_exp + det.min_exp) // 2
    det = det.shift(shift)
    if det.evaluate(1) == -1:
        det = -det
    return det


def test_trefoil_vs_seifert_matrix(corpus):
    # genus-1 Seifert surface for the trefoil
    oracle = seifert_oracle([[-1, 1], [0, -1]])
    assert alexander_polynomial(corpus["3_1"]) == oracle
    assert oracle == LaurentPolynomial({-1: 1, 0: -1, 1: 1})


def test_figure_eight_vs_seifert_matrix(corpus):
    oracle = seifert_oracle([[1, 1], [0, -1]])
    assert alexander_polynomial(corpus["4_1"]) == oracle
    assert oracle == LaurentPolynomial({-1: -1, 0: 3, 1: -1})


def test_unknot(corpus):
    assert alexander_polynomial(corpus["unknot"]) == LaurentPolynomial({0: 1})
    assert signed_det(corpus["unknot"]) == 1


def test_normalization_invariants(corpus):
    for name, d in corpus.items():
        if not d.is_knot:
            continue
        delta = alexander_polynomial(d)
        assert delta == delta.invert_variable(), name        # symmetric
        assert delta.evaluate(1) == 1, name                   # Conway norm
        assert delta.evaluate(-1) % 2 == 1, name              # odd determinant


def test_signed_determinants(corpus):
    assert signed_det(corpus["3_1"]) == -3
    assert signed_det(corpus["4_1"]) == 5
    assert signed_det(corpus["6_1"]) == 9
    assert abs(signed_det(corpus["6_2"])) == 11


def test_det_agreement_with_jones(corpus):
    for name, d in corpus.items():
        if d.is_knot:
            assert abs(signed_det(d)) == det_from_jones(jones(d)), name


def test_connected_sum_multiplicativity(corpus):
    pairs = [("3_1", "4_1"), ("3_1", "3_1"), ("4_1", "6_1")]
    for n1, n2 in pairs:
        s = connected_sum(corpus[n1], corpus[n2])
        assert alexander_polynomial(s) == \
            alexander_polynomial(corpus[n1]) * alexander_polynomial(corpus[n2])
    sq = connected_sum(corpus["3_1"], mirror(corpus["3_1"]))
    assert signed_det(sq) == 9


def test_non_knot_rejected(corpus):
    with pytest.raises(ValueError):
        alexander_polynomial(corpus["hopf"])


def test_conway_potential(corpus):
    cp = conway_potential(alexander_polynomial(corpus["unknot"]))
    assert cp.coeffs == (1,) and cp.a2 == 0
    assert conway_potential(alexander_polynomial(corpus["3_1"])).coeffs == (1, 1)
    assert conway_potential(alexander_polynomial(corpus["4_1"])).coeffs == (1, -1)
    # a0 = 1 and only even coefficients by construction
    for name, d in corpus.items():
        if d.is_knot:
            cp = conway_potential(alexander_polynomial(d))
            assert cp.coeffs[0] == 1, name


def test_conway_potential_rejects_unnormalized():
    with pytest.raises(ValueError):
        conway_potential(LaurentPolynomial({0: 2}))
    with pytest.raises(ValueError):
        conway_potential(LaurentPolynomial({0: 1, 1: 1}))


# Conway-normalized Alexander polynomials of the paper's ribbon knots, as
# {exponent: coefficient} for exponents 0..span (the rest by symmetry),
# computed by evaluation at integer points and Lagrange interpolation
PINNED_RIBBON = {
    "18nh_00159590": {0: 23, 1: -14, 2: -2, 3: 10, 4: -7, 5: 2},
    "18nh_00752242": {0: 23, 1: -13, 2: -4, 3: 11, 4: -7, 5: 2},
    "19nh_000129633": {0: 19, 1: -13, 2: 2, 3: 5, 4: -5, 5: 2},
    "19nh_000305767": {0: 23, 1: -14, 2: -2, 3: 10, 4: -7, 5: 2},
    "symunion24": {0: 9, 1: -4, 3: -2, 4: 1, 5: 2, 7: -2, 8: 1},
}


@pytest.mark.parametrize("name", RIBBON_NAMES)
def test_pinned_ribbon_polynomials(corpus, name):
    half = PINNED_RIBBON[name]
    expected = LaurentPolynomial({**{-e: c for e, c in half.items()}, **half})
    assert alexander_polynomial(corpus[name]) == expected


def test_deadline_stops_the_determinant(corpus, monkeypatch):
    # a clock that passes the deadline halfway through the pivot columns of
    # the Bareiss determinant: Alexander stops at the next column, and the
    # knot's report is one error record.  Without a deadline the clock is
    # never read
    from knotrank import alexander

    d = corpus["18nh_00159590"]
    expected = alexander_polynomial(d)
    columns = len(d.crossings) - 2      # of the (n - 1) x (n - 1) minor
    reads = []

    class Clock:
        @classmethod
        def monotonic(cls):
            reads.append(None)
            return 1e12 if len(reads) > columns // 2 else 0.0

    monkeypatch.setattr(alexander, "time", Clock)
    assert alexander_polynomial(d) == expected and reads == []
    with pytest.raises(ResourceLimit):
        alexander_polynomial(d, deadline=1.0)
    assert len(reads) == columns // 2 + 1
    reads.clear()
    report = compute_report(d, ("f2",), timeout=3600)
    assert report.error == "ResourceLimit: Alexander deadline exceeded"
    assert len(reads) == columns // 2 + 1 and report.det is None


POOL_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "symunion_pool.pd"


@pytest.mark.parametrize("source", ("corpus", "pool"))
def test_matches_integer_oracle(corpus, source):
    # the sparse integer Bareiss determinant against the oracle's dense Fox
    # matrix and rational determinant, both read back from their digits
    if source == "corpus":
        knots = [d for d in corpus.values() if d.is_knot]
    else:
        knots = parse_diagram_file(POOL_FILE.read_text())
    for d in knots:
        assert alexander_polynomial(d) == alexander_by_evaluation(d), d.name


# sha256 of `knotrank alexander` stdout, generated before the determinant
# was taken on integers (at the polynomial Bareiss elimination)
ALEXANDER_STDOUT = {
    "corpus": "49a71dabcfdcba937462a21802a3554781169fca18607cb48c79f84613c6290b",
    "pool": "e605b7db2fb647b9bedbf5a8492cc00b4f1fcd33ffde52c85df4205f303b0cd5",
}


@pytest.mark.parametrize("source", sorted(ALEXANDER_STDOUT))
def test_alexander_stdout_is_pinned(corpus, source, tmp_path, capsys):
    if source == "corpus":
        path = tmp_path / "corpus.pd"
        path.write_text(format_diagram_file(corpus.values()))
    else:
        path = POOL_FILE
    assert main(["alexander", str(path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == ALEXANDER_STDOUT[source]


def sparse(m: list[list[int]]) -> list[dict]:
    return [{j: x for j, x in enumerate(row) if x} for row in m]


def test_bareiss_keeps_the_sign():
    # Conway normalization hides the determinant's sign, so the integer
    # Bareiss determinant of each pool knot's Fox minor at t = 2^(2n+2) is
    # checked against the rational determinant of the oracle's own dense
    # minor, which must hold the same entries: 186 of these knots take a
    # pivot of -1, which negates the determinant and adds the pivot row
    # where a pivot of 1 subtracts it, and 101 an odd number of them
    for d in parse_diagram_file(POOL_FILE.read_text()):
        base = 1 << (2 * len(d.crossings) + 2)
        dense = fox_minor_at(d, base)
        rows = _fox_rows(d, base)
        assert rows == sparse(dense), d.name
        assert _bareiss_det(rows) == rational_det(dense), d.name


def permutation_sign(p) -> int:
    inversions = sum(p[i] > p[j] for i in range(len(p)) for j in range(i + 1, len(p)))
    return -1 if inversions % 2 else 1


def test_bareiss_sign_under_any_pivot_position():
    # the determinant picks its own pivots (the +-1 entries first, in any
    # free row and column) and takes the sign of its row and column swaps
    # and of each -1 pivot; a seeded row and column shuffle of each pool
    # knot's Fox minor moves the units to other positions and multiplies
    # the determinant by the signs of the two permutations
    rng = random.Random(1)
    for d in parse_diagram_file(POOL_FILE.read_text()):
        minor = fox_minor_at(d, 1 << (2 * len(d.crossings) + 2))
        rp, cp = list(range(len(minor))), list(range(len(minor)))
        rng.shuffle(rp)
        rng.shuffle(cp)
        shuffled = [[minor[i][j] for j in cp] for i in rp]
        sign = permutation_sign(rp) * permutation_sign(cp)
        assert _bareiss_det(sparse(shuffled)) * sign == rational_det(minor), d.name


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.integers(1, 30).flatmap(lambda n: st.lists(
    st.one_of(st.just(0), st.integers(-4 ** (n - 1), 4 ** (n - 1))),
    min_size=n, max_size=n)))
@example([0])
@example([0, 3, 0, -5, 0])
@example([-(4 ** 29)] + [0] * 28 + [-(4 ** 29)])
@example([4 ** 29, 0, -1] + [0] * 26 + [-(4 ** 29)])
def test_signed_digits_at_the_bound(coeffs):
    # a polynomial of degree < n with coefficients at most 4^(n-1) in
    # absolute value, the bound on the Fox minor's determinant and every
    # minor of it, comes back from its value at t = 2^(2n+2) unchanged
    base = 1 << (2 * len(coeffs) + 2)
    value = sum(c * base ** e for e, c in enumerate(coeffs))
    assert _signed_digits(value, base) == {e: c for e, c in enumerate(coeffs) if c}


# (LaurentPolynomial constructions, __mul__ calls) of one
# alexander_polynomial: the determinant runs on ints, so the only
# polynomials are the one read from its digits, its centred shift, the
# inversion that checks its symmetry and, for symunion24, its negation to
# value 1 at t = 1.  The polynomial Bareiss determinant made 23 / 141 and
# 14 / 125 (exact_div, __mul__) calls with the +-1 pivots first, Bareiss on
# sparse rows with the pivots in column order 799 / 941 and 535 / 672, the
# dense elimination 3,795 / 7,591 and 1,785 / 3,571, and dense rows that
# skipped only the products m[i][k] * m[k][j] with a zero factor and the
# divisions of zero 863 / 3,947 and 585 / 1,947
BAREISS_WORK = {
    "symunion24": (4, 0),
    "19nh_000305767": (3, 0),
}


@pytest.mark.parametrize("name", sorted(BAREISS_WORK))
def test_bareiss_skips_zero_work(corpus, monkeypatch, name):
    calls = {"__init__": 0, "__mul__": 0}

    def counted(method):
        original = getattr(LaurentPolynomial, method)

        def wrapper(self, *args):
            calls[method] += 1
            return original(self, *args)
        monkeypatch.setattr(LaurentPolynomial, method, wrapper)

    counted("__init__")
    counted("__mul__")
    alexander_polynomial(corpus[name])
    assert (calls["__init__"], calls["__mul__"]) == BAREISS_WORK[name]

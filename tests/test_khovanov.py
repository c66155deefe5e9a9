import hashlib
import random

import pytest

from cube_oracle import (CubeComplex, deformed_factors, kh_table,
                         smith_over_poly_ring)
from knotrank._tangle import scan_order
from knotrank.algebra import F2, F3, QQ, CoefficientField
from knotrank.cobordism import cycles_of
from knotrank.corpus import RIBBON_NAMES, load_corpus
from knotrank.diagram import connected_sum, disjoint_union, mirror, parse_pd
from knotrank.jones import jones
from knotrank.khovanov import (DeformedModule, KnotScan, ResourceLimit,
                               _entries, _monomial_smith, deformed_module,
                               khovanov_pair, khovanov_ranks)
from knotrank.scanner import compute_report

SMALL_KNOTS = ("3_1", "4_1", "5_1", "6_1", "6_2")
FIELDS = (QQ, F2, F3)


def rank_at_x0(m: DeformedModule) -> int:
    """The reduced Khovanov rank at X = 0 of a deformed module: the free
    summand counts once, each torsion summand A[X]/(X^a) twice (once in the
    tensor product with A[X]/(X) and once in Tor)."""
    return m.free_rank + 2 * len(m.torsion)


def torsion_parity_counts(m: DeformedModule) -> tuple[int, int]:
    """(k_even, k_odd): order-1 torsion summands by delta parity.

    Only defined when every torsion order is 1 (each summand then sits in
    a single delta-grading)."""
    if any(a != 1 for a, _ in m.torsion):
        raise ValueError("torsion orders above 1: delta-parity counting does not apply")
    ke = sum(1 for _, d in m.torsion if d % 2 == 0)
    return ke, len(m.torsion) - ke


@pytest.fixture(scope="module")
def corpus():
    return load_corpus()


def test_unknot_tables(corpus):
    u = corpus["unknot"]
    assert khovanov_ranks(u, QQ, reduced=True).ranks == {(0, 0): 1}
    assert khovanov_ranks(u, QQ, reduced=False).ranks == {(0, 1): 1, (0, -1): 1}
    kinked = parse_pd("[[1,2,2,1]]")
    assert khovanov_ranks(kinked, F3, reduced=True).ranks == {(0, 0): 1}
    assert khovanov_ranks(kinked, F2, reduced=False).ranks == {(0, 1): 1, (0, -1): 1}


@pytest.mark.parametrize("name", SMALL_KNOTS)
@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_against_cube_oracle(corpus, name, field):
    d = corpus[name]
    red, unred = khovanov_pair(d, field)
    oracle_red = kh_table(d, field.char, reduced=True)
    oracle_unred = kh_table(d, field.char, reduced=False)
    # oracle reduced gradings sit one q lower (basepoint label x)
    assert {(h, q + 1): r for (h, q), r in oracle_red.items()} == red.ranks
    assert oracle_unred == unred.ranks


def test_oracle_cube_differential_squares_to_zero(corpus):
    cube = CubeComplex(corpus["4_1"], 5)
    diff = cube.differential()
    square: dict = {}
    by_col: dict = {}
    for (r, c), (v, _) in diff.items():
        by_col.setdefault(c, []).append((r, v))
    for (mid, c), (v1, _) in diff.items():
        for r, v2 in by_col.get(mid, []):
            square[(r, c)] = (square.get((r, c), 0) + v1 * v2) % 5
    assert all(v == 0 for v in square.values())


def test_61_table_matches_printed_values(corpus):
    red = khovanov_ranks(corpus["6_1"], QQ)
    assert red.ranks == {(2, 4): 1, (1, 2): 1, (0, 0): 2, (-1, -2): 2,
                         (-2, -4): 1, (-3, -6): 1, (-4, -8): 1}
    assert red.total == 9
    assert abs(red.delta_euler()) == 9


def test_62_rank_11_all_fields(corpus):
    for field in (QQ, F2, F3, CoefficientField(211)):
        t = khovanov_ranks(corpus["6_2"], field)
        assert t.total == 11 and t.mod(4) == 3, field.name


def test_delta_euler_equals_determinant(corpus):
    from knotrank.jones import det_from_jones

    for name in SMALL_KNOTS:
        t = khovanov_ranks(corpus[name], QQ)
        assert abs(t.delta_euler()) == det_from_jones(corpus[name]), name


def test_euler_characteristic_is_jones(corpus):
    # graded Euler characteristic of reduced Kh equals the Jones polynomial
    from knotrank.algebra import LaurentPolynomial

    for name in SMALL_KNOTS:
        d = corpus[name]
        t = khovanov_ranks(d, QQ)
        acc = {}
        for (h, q), r in t.ranks.items():
            acc[q] = acc.get(q, 0) + (r if h % 2 == 0 else -r)
        assert LaurentPolynomial(acc) == jones(d).poly, name


def test_positive_trefoil_nonnegative_h(corpus):
    t = khovanov_ranks(mirror(corpus["3_1"]), QQ)
    assert all(h >= 0 for h, _ in t.ranks)
    assert t.ranks == {(0, 2): 1, (2, 6): 1, (3, 8): 1}


def test_f2_doubling_and_oddness(corpus):
    for name in SMALL_KNOTS:
        red, unred = khovanov_pair(corpus[name], F2)
        assert red.total % 2 == 1, name
        assert unred.total == 2 * red.total, name


def test_reduced_rank_odd_all_fields(corpus):
    for name in SMALL_KNOTS:
        for field in FIELDS:
            assert khovanov_ranks(corpus[name], field).total % 2 == 1


def test_basepoint_independence(corpus):
    for name in ("4_1", "6_2"):
        d = corpus[name]
        tables = {khovanov_ranks(KnotScan(d, basepoint=e), F3).total
                  for e in (1, 3, d.edge_count)}
        ranks = {frozenset(khovanov_ranks(KnotScan(d, basepoint=e), F3).ranks.items())
                 for e in (1, 3, d.edge_count)}
        assert len(tables) == 1 and len(ranks) == 1, name
    # edge 1, every edge of the order's last crossing, and the default cut
    kinked = parse_pd("[[1,1,2,2]]")
    for d in (corpus["19nh_000129633"], corpus["symunion24"], kinked):
        last = d.crossings[scan_order(d)[-1]]
        pairs = {tuple(frozenset(t.ranks.items())
                       for t in khovanov_pair(KnotScan(d, basepoint=e), F3))
                 for e in (min(d.successor), *set(last), None)}
        assert len(pairs) == 1, d.name
    assert [t.ranks for t in khovanov_pair(kinked, F3)] == \
        [{(0, 0): 1}, {(0, 1): 1, (0, -1): 1}]
    with pytest.raises(ValueError):
        khovanov_pair(KnotScan(kinked, basepoint=3), F3)


def test_default_cut_work(corpus):
    # the default cut at the last crossing of the order needs at most a
    # quarter of the cobordism work of a cut at edge 1 (1156 against 7353
    # cycles_of calls); each scan clears the cache when it starts
    d = corpus["18nh_00159590"]
    calls = []
    for e in (None, min(d.successor)):
        khovanov_ranks(KnotScan(d, basepoint=e), F2)
        info = cycles_of.cache_info()
        calls.append(info.hits + info.misses)
    assert 4 * calls[0] <= calls[1], calls


def test_deadline_keeps_finished_scan(corpus, monkeypatch):
    # a clock that passes the deadline only once every crossing has been
    # fused in: the finished scan is returned, not thrown away
    from knotrank import khovanov

    d = corpus["6_2"]
    expected = khovanov_pair(d, F3)
    fused = []
    real_fuse = khovanov._Scan._fuse

    def counting_fuse(self, step):
        fused.append(step)
        return real_fuse(self, step)

    class Clock:
        @staticmethod
        def monotonic():
            return 10.0 if len(fused) == len(d.crossings) else 0.0

    monkeypatch.setattr(khovanov._Scan, "_fuse", counting_fuse)
    monkeypatch.setattr(khovanov, "time", Clock)
    assert khovanov_pair(KnotScan(d, deadline=1.0), F3) == expected
    assert len(fused) == len(d.crossings)
    # a deadline that has already passed stops the scan before any fuse
    fused.clear()
    with pytest.raises(ResourceLimit):
        khovanov_pair(KnotScan(d, deadline=-1.0), F3)
    assert fused == []


def test_connected_sum_multiplicativity(corpus):
    for n1, n2 in (("3_1", "4_1"), ("3_1", "3_1")):
        s = connected_sum(corpus[n1], corpus[n2])
        for field in (F2, F3):
            t1 = khovanov_ranks(corpus[n1], field).total
            t2 = khovanov_ranks(corpus[n2], field).total
            assert khovanov_ranks(s, field).total == t1 * t2


def test_square_knot_rank_9(corpus):
    sq = connected_sum(corpus["3_1"], mirror(corpus["3_1"]))
    for field in (QQ, F2, F3, CoefficientField(211)):
        assert khovanov_ranks(sq, field).total == 9


def test_links_unreduced(corpus):
    hopf = corpus["hopf"]
    t = khovanov_ranks(hopf, QQ, reduced=False)
    assert t.ranks == kh_table(hopf, 0, reduced=False)
    assert t.total == 4
    with pytest.raises(ValueError):
        khovanov_ranks(hopf, QQ, reduced=True)
    unlink = corpus["unlink2"]
    assert khovanov_ranks(unlink, F2, reduced=False).ranks == \
        {(0, -2): 1, (0, 0): 2, (0, 2): 1}
    split = disjoint_union(corpus["3_1"], corpus["unknot"])
    t2 = khovanov_ranks(split, QQ, reduced=False)
    assert t2.total == 8  # Kh(3_1) tensor (q + 1/q)


def test_closed_scan_torus_link_t24():
    # the closed integral scan of T(2,4) keeps an entry 2 (the 2-torsion of
    # Kh over Z), which is a unit over Q and vanishes over F2
    t24 = parse_pd("[[6,1,7,2],[8,3,5,4],[2,5,3,6],[4,7,1,8]]")
    assert any(abs(c) > 1 for _, _, c, _ in _entries(KnotScan(t24).final_complex()))
    for field, total in ((F2, 8), (QQ, 6)):
        t = khovanov_ranks(t24, field, reduced=False)
        assert t.ranks == kh_table(t24, field.char, reduced=False)
        assert t.total == total, field.name


def test_one_scan_serves_every_field(corpus):
    # a KnotScan runs once and gives each field what a scan of its own gives
    d = corpus["18nh_00159590"]
    knot_scan = KnotScan(d)
    assert any(pw == 0 and abs(c) > 1
               for _, _, c, pw in _entries(knot_scan.final_complex()))
    for field in (F2, F3, QQ):
        assert khovanov_pair(knot_scan, field) == khovanov_pair(d, field)
    assert knot_scan.final_complex() is knot_scan.final_complex()
    assert deformed_module(knot_scan, F3) == deformed_module(d, F3)


def test_monomial_smith_against_oracle():
    # random graded matrices c * X^(a_t - b_s) with integer c, power-0
    # entries included; rank and torsion orders over F3 and Q must match
    # the oracle's general Smith form over F[X]
    rng = random.Random(7)
    for _ in range(60):
        a = [rng.randrange(4) for _ in range(rng.randrange(1, 5))]
        b = [rng.randrange(4) for _ in range(rng.randrange(1, 5))]
        entries = [(t, s, rng.choice((1, -2, 3, 6, 5)), a[t] - b[s])
                   for t in range(len(a)) for s in range(len(b))
                   if a[t] >= b[s] and rng.random() < 0.6]
        for p in (3, 0):
            pivots = _monomial_smith(entries, p)
            rank = len(pivots)
            factors = [(order, t) for order, t in pivots if order >= 1]
            mat = [[() for _ in b] for _ in a]
            for t, s, c, power in entries:
                mat[t][s] = (0,) * power + (c,)
            inv = smith_over_poly_ring(mat, p)
            assert rank == len(a) - inv.free_rank
            assert sorted(order for order, _ in factors) == \
                sorted(inv.torsion_degrees())


def test_resource_limit(corpus):
    with pytest.raises(ResourceLimit):
        khovanov_ranks(KnotScan(corpus["18nh_00159590"], max_generators=50), F2)


def test_budget_counts_fused_size(corpus):
    # after elimination the scan never exceeds 254 generators (121 at the
    # end), but fusing in a crossing reaches 645 before elimination
    with pytest.raises(ResourceLimit):
        khovanov_ranks(KnotScan(corpus["18nh_00159590"], max_generators=300), F2)


# -- the deformation module ---------------------------------------------------


@pytest.mark.parametrize("name", SMALL_KNOTS)
@pytest.mark.parametrize("field", (F3, QQ, CoefficientField(5)),
                         ids=lambda f: f.name)
def test_deformed_against_smith_oracle(corpus, name, field):
    dm = deformed_module(corpus[name], field)
    free, torsion = deformed_factors(corpus[name], field.char)
    assert dm.free_rank == free == 1
    assert sorted(a for a, _ in dm.torsion) == torsion


def test_deformed_x0_consistency(corpus):
    for name in SMALL_KNOTS:
        dm = deformed_module(corpus[name], F3)
        assert rank_at_x0(dm) == khovanov_ranks(corpus[name], F3).total


def test_deformed_unknot(corpus):
    dm = deformed_module(corpus["unknot"], F3)
    assert dm.free_rank == 1 and dm.torsion == ()
    assert dm.x_torsion_order() == 0


def test_deformed_61(corpus):
    dm = deformed_module(corpus["6_1"], F3)
    assert dm.free_rank == 1
    assert [a for a, _ in dm.torsion] == [1, 1, 1, 1]
    assert dm.x_torsion_order() == 1
    ke, ko = torsion_parity_counts(dm)
    assert ke + ko == 4
    assert (1 + 2 * ke - 2 * ko) % 8 == 9 % 8


def test_torsion_parity_requires_order_one():
    fixture = DeformedModule(1, ((1, 0), (1, 1)), F3)
    assert torsion_parity_counts(fixture) == (1, 1)
    bad = DeformedModule(1, ((1, 0), (3, 1)), F3)
    with pytest.raises(ValueError):
        torsion_parity_counts(bad)
    assert bad.x_torsion_order() == 3


@pytest.mark.parametrize("name", SMALL_KNOTS)
@pytest.mark.parametrize("field", (F3, QQ), ids=lambda f: f.name)
def test_deformed_report_keeps_tables(corpus, name, field):
    # reading the deformed module leaves the report's X = 0 totals as they are
    plain, deformed = (compute_report(corpus[name], (field,), with_deformed=w)
                       for w in (False, True))
    assert plain.error is None and deformed.error is None
    assert list(deformed.deformed) == [field.name]
    assert (deformed.reduced, deformed.unreduced) == (plain.reduced, plain.unreduced)


def test_deformed_rejects_f2(corpus):
    with pytest.raises(ValueError):
        deformed_module(corpus["3_1"], F2)


def test_final_differential_squares_to_zero(corpus):
    # the integral scan keeps a nonzero differential, with entries such as
    # 2 and 2X on 18nh_00159590; check d . d = 0 exactly over Z by
    # accumulating all length-2 compositions through the cobordism algebra
    for name in ("6_2", "18nh_00159590"):
        d = corpus[name]
        scan = KnotScan(d).final_complex()
        square: dict = {}
        for s, row in scan.out.items():
            for mid, e1 in row.items():
                for t, e2 in scan.out.get(mid, {}).items():
                    comp = scan._compose(scan.gens[s][0], scan.gens[mid][0],
                                         scan.gens[t][0], e1, e2)
                    cell = square.setdefault((s, t), {})
                    for k, v in comp.items():
                        nv = cell.get(k, 0) + v
                        if nv:
                            cell[k] = nv
                        else:
                            cell.pop(k, None)
        assert square and all(not cell for cell in square.values()), name


# sha256 of (sorted generators, sorted entries, next_gid) of the final
# complex, and next_gid, taken with the scan kernel that built every entry
# by expanding each glue template term by term; the ribbon knots have
# multi-term entries, so both paths of the tabulated kernel are covered
FINAL_COMPLEXES = {
    "18nh_00159590": ("23434f78ad664dc00ebd004040a8d857"
                      "28339103c647845d8ea9aae51001380f", 3155),
    "18nh_00752242": ("eb01102a16a7181b1a08c17b73b943be"
                      "af8093cc5c06d5bb1d97a0e398043dc6", 4706),
    "19nh_000129633": ("9ce22e98b27b593d3ff14ebcc9b3bd3d"
                       "4aafbad41225acaf9ba8bdd9c3061b46", 2109),
    "19nh_000305767": ("ff34346c678e7b40ba2d6c5e08688b2e"
                       "a6bbc899e08d56691016a70189b91fc6", 5939),
    "symunion24": ("61fa6a8405caf7c6bdfb51eda159f392"
                   "2355bc8b3fbda3aa6e6452c14e7a9350", 4995),
    "6_2": ("2f42b63f5b625809cd6f877e22f84c37"
            "6a68f90be6ba996cdeff6cf7c9dc916e", 75),
}


@pytest.mark.parametrize("name", (*RIBBON_NAMES, "6_2"))
def test_final_complex_pinned(corpus, name):
    # generator ids, the elimination order and every entry of the final
    # complex stay exactly as the term-by-term kernel made them
    scan = KnotScan(corpus[name]).final_complex()
    gens = sorted((g, m, h, q) for g, (m, h, q) in scan.gens.items())
    entries = sorted((s, t, sorted(e.items()))
                     for s, row in scan.out.items() for t, e in row.items())
    digest = hashlib.sha256(repr((gens, entries, scan.next_gid)).encode())
    assert (digest.hexdigest(), scan.next_gid) == FINAL_COMPLEXES[name]

import hashlib
import importlib
import pkgutil
import random
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

import knotrank
import split_complex_oracle
from compose_oracle import compose_template_glued
from cube_oracle import (CubeComplex, deformed_factors, kh_table,
                         smith_over_poly_ring)
from knotrank._tangle import scan_order
from knotrank.algebra import F2, F3, QQ, CoefficientField
from knotrank.cobordism import MASK_BITS, cycles_of
from knotrank.corpus import RIBBON_NAMES, load_corpus
from knotrank.diagram import (connected_sum, disjoint_union, mirror,
                              oriented_resolution, parse_diagram_file,
                              parse_pd)
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
    # fused in and eliminated: the finished scan is returned, not thrown away
    from knotrank import khovanov

    d = corpus["6_2"]
    expected = khovanov_pair(d, F3)
    fused = []
    eliminated = []
    real_fuse = khovanov.KnotScan._fuse
    real_eliminate = khovanov.KnotScan._eliminate

    def counting_fuse(self, step):
        real_fuse(self, step)
        fused.append(step)

    def counting_eliminate(self):
        real_eliminate(self)
        eliminated.append(self)

    class Clock:
        done = eliminated   # the deadline passes once len(done) is all crossings

        @classmethod
        def monotonic(cls):
            return 10.0 if len(cls.done) == len(d.crossings) else 0.0

    monkeypatch.setattr(khovanov.KnotScan, "_fuse", counting_fuse)
    monkeypatch.setattr(khovanov.KnotScan, "_eliminate", counting_eliminate)
    monkeypatch.setattr(khovanov, "time", Clock)
    assert khovanov_pair(KnotScan(d, deadline=1.0), F3) == expected
    assert len(fused) == len(d.crossings)
    # a deadline that has already passed stops the scan before any fuse
    fused.clear()
    with pytest.raises(ResourceLimit):
        khovanov_pair(KnotScan(d, deadline=-1.0), F3)
    assert fused == []
    # one that passes it once every crossing has been fused in stops the
    # last crossing's elimination at a pivot
    eliminated.clear()
    Clock.done = fused
    with pytest.raises(ResourceLimit):
        khovanov_pair(KnotScan(d, deadline=1.0), F3)
    assert len(fused) == len(d.crossings)
    assert len(eliminated) == len(d.crossings) - 1


def test_deadline_stops_a_fuse(corpus, monkeypatch):
    # a clock that passes the deadline halfway through the old rows of the
    # middle crossing's fuse: the scan stops inside that fuse, and the next
    # read runs the scan again from the start
    from knotrank import khovanov

    d = corpus["18nh_00159590"]
    expected = khovanov_pair(d, F3)
    middle = len(d.crossings) // 2
    started = []    # old rows of each fuse started
    ended = []
    reads = []      # clock reads inside the middle fuse
    real_fuse = khovanov.KnotScan._fuse

    def tracked_fuse(self, step):
        started.append(len(self.gens))
        real_fuse(self, step)
        ended.append(step)

    class Clock:
        running = True

        @classmethod
        def monotonic(cls):
            if cls.running and len(started) == middle + 1 > len(ended):
                reads.append(None)
                if len(reads) > started[middle] // 2:
                    return 10.0
            return 0.0

    monkeypatch.setattr(khovanov.KnotScan, "_fuse", tracked_fuse)
    monkeypatch.setattr(khovanov, "time", Clock)
    scan = KnotScan(d, deadline=1.0)
    with pytest.raises(ResourceLimit):
        scan.final_complex()
    assert len(ended) == middle and started[middle] > 10
    assert len(reads) == started[middle] // 2 + 1
    Clock.running = False
    started.clear()
    assert khovanov_pair(scan, F3) == expected
    assert len(started) == len(d.crossings) and started[0] == 1


def free_q(scan: KnotScan, field: CoefficientField) -> int:
    """q of the one free summand of the scan's split over ``field``; it is
    +-s, Rasmussen's invariant."""
    khovanov_pair(scan, field)
    [(h, q)] = [key for key, r in scan.modules[field.char][0].items() if r]
    assert h == 0
    return q


@pytest.mark.parametrize("name", RIBBON_NAMES)
def test_ribbon_knots_have_q_free_zero(corpus, name):
    # a ribbon knot has s = 0
    scan = KnotScan(corpus[name])
    assert [free_q(scan, f) for f in (F3, QQ)] == [0, 0]


def test_q_free_is_s_on_positive_t25(corpus):
    # for a positive diagram s = c - O + 1, O its Seifert circles
    # (Rasmussen, Invent. Math. 2010); the corpus 5_1 is the negative T(2,5)
    positive = mirror(corpus["5_1"])
    assert set(positive.signs) == {1}
    seifert = positive
    while seifert.crossings:
        seifert = oriented_resolution(seifert, 0)
    s = len(positive.crossings) - seifert.n_components + 1
    assert s == 4
    scans = KnotScan(positive), KnotScan(corpus["5_1"])
    for field in (F3, QQ):
        assert [free_q(scan, field) for scan in scans] == [s, -s]


def test_connected_sum_multiplicativity(corpus):
    for n1, n2 in (("3_1", "4_1"), ("3_1", "3_1")):
        s = connected_sum(corpus[n1], corpus[n2])
        for field in (F2, F3):
            t1 = khovanov_ranks(corpus[n1], field).total
            t2 = khovanov_ranks(corpus[n2], field).total
            assert khovanov_ranks(s, field).total == t1 * t2


@pytest.mark.parametrize("field", (F2, F3), ids=lambda f: f.name)
def test_mirror_duality_18_crossings(corpus, field):
    # over a field the reduced table of the mirror is the table at (-h, -q)
    d = corpus["18nh_00159590"]
    table = khovanov_ranks(d, field).ranks
    assert khovanov_ranks(mirror(d), field).ranks == \
        {(-h, -q): r for (h, q), r in table.items()}


@pytest.mark.parametrize("field", (F2, F3), ids=lambda f: f.name)
def test_kunneth_21_crossings(corpus, field):
    # over a field the reduced table of K1 # K2 is the convolution of the
    # two tables: ranks multiply and gradings add
    k1, k2 = corpus["18nh_00159590"], corpus["3_1"]
    want = Counter()
    for (h1, q1), r1 in khovanov_ranks(k1, field).ranks.items():
        for (h2, q2), r2 in khovanov_ranks(k2, field).ranks.items():
            want[(h1 + h2, q1 + q2)] += r1 * r2
    s = connected_sum(k1, k2)
    assert len(s.crossings) == 21
    assert khovanov_ranks(s, field).ranks == dict(want)


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


def test_failed_scan_is_never_read(corpus):
    # a scan that ran past its budget or its deadline raises on every read,
    # so no reader sees the complex it left half-built
    d = corpus["18nh_00159590"]
    for scan in (KnotScan(d, max_generators=50), KnotScan(d, deadline=-1.0)):
        with pytest.raises(ResourceLimit):
            scan.final_complex()
        with pytest.raises(ResourceLimit):
            khovanov_pair(scan, F2)


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


POOL_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "symunion_pool.pd"


@pytest.mark.parametrize("source", ("corpus", "pool"))
def test_module_reading_against_split_complex(corpus, source):
    # every table read from the one graded Smith form over A[X] is the
    # block-wise reading of the X = 0 complex and of the split complex
    if source == "corpus":
        knots = [d for d in corpus.values() if d.is_knot]
    else:
        knots = parse_diagram_file(POOL_FILE.read_text())[:60]
    for d in knots:
        knot_scan = KnotScan(d)
        for field in FIELDS:
            red, unred = khovanov_pair(knot_scan, field)
            assert (red.ranks, unred.ranks) == \
                split_complex_oracle.knot_tables(knot_scan, field), (d.name, field)


def test_link_reading_against_split_complex(corpus):
    t24 = parse_pd("[[6,1,7,2],[8,3,5,4],[2,5,3,6],[4,7,1,8]]")
    for d in (corpus["hopf"], corpus["unlink2"], t24,
              disjoint_union(corpus["3_1"], corpus["unknot"])):
        link_scan = KnotScan(d)
        for field in FIELDS:
            assert khovanov_ranks(link_scan, field, reduced=False).ranks == \
                split_complex_oracle.link_table(link_scan, field), (d.name, field)


def test_monomial_smith_pivots_match_min_scan(corpus):
    # the heap takes the pivots in the order of a scan for the least
    # (power, target, source): on the matrices of
    # test_monomial_smith_against_oracle and on every corpus final complex
    rng = random.Random(7)
    matrices = []
    for _ in range(60):
        a = [rng.randrange(4) for _ in range(rng.randrange(1, 5))]
        b = [rng.randrange(4) for _ in range(rng.randrange(1, 5))]
        matrices.append([(t, s, rng.choice((1, -2, 3, 6, 5)), a[t] - b[s])
                         for t in range(len(a)) for s in range(len(b))
                         if a[t] >= b[s] and rng.random() < 0.6])
    for d in corpus.values():
        matrices.append([(t, s, c, power) for s, t, c, power
                         in _entries(KnotScan(d).final_complex())])
    for entries in matrices:
        for p in (2, 3, 0):
            assert _monomial_smith(entries, p) == \
                split_complex_oracle.monomial_smith(entries, p)


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
    # accumulating all length-2 compositions through the cobordism algebra,
    # each glued whole by the oracle
    mask = (1 << MASK_BITS) - 1
    for name in ("6_2", "18nh_00159590"):
        d = corpus[name]
        scan = KnotScan(d).final_complex()
        square: dict = {}
        for s, row in scan.out.items():
            for mid, e1 in row.items():
                for t, e2 in scan.out.get(mid, {}).items():
                    table, m1 = compose_template_glued(
                        scan.gens[s][0], scan.gens[mid][0], scan.gens[t][0])
                    cell = square.setdefault((s, t), {})
                    for k1, c1 in e1.items():
                        for k2, c2 in e2.items():
                            tbits = (k1 & ~mask) + (k2 & ~mask)
                            for k, m in table[k1 & mask | (k2 & mask) << m1]:
                                nv = cell.get(k + tbits, 0) + c1 * c2 * m
                                if nv:
                                    cell[k + tbits] = nv
                                else:
                                    cell.pop(k + tbits, None)
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
    # taken with the kernel that keyed every cache on matching tuples
    "mirror(18nh_00159590)": ("82fe30512ff38e3cee6b429bc08b3d40"
                              "486788a62bc4bb583dc630093016f92e", 3155),
    "su8_seed143": ("ea560eb79e1d2701fafe9e25df97dacf"
                    "7f55be04a1c328bfbe0db80ab62931d3", 726),
}

# cycles_of (calls, misses) of each pinned scan, at most: the digests do
# not show a fuse template rebuilt per dot mask, these counters do
CYCLES_OF_WORK = {
    "18nh_00159590": (1178, 186),
    "18nh_00752242": (1462, 227),
    "19nh_000129633": (1976, 352),
    "19nh_000305767": (5994, 858),
    "symunion24": (2496, 393),
    "6_2": (81, 17),
    "mirror(18nh_00159590)": (1166, 184),
    "su8_seed143": (335, 66),
}

# the costliest knot of perfbench/symunion_pool.pd
SU8_SEED143 = ("[[5,4,6,5],[7,1,8,34],[3,14,4,15],[15,9,16,8],[11,6,12,7],"
               "[12,14,13,13],[1,3,2,2],[10,9,11,10],[22,22,23,21],"
               "[24,17,25,18],[20,32,21,31],[32,25,33,26],[28,24,29,23],"
               "[29,30,30,31],[18,19,19,20],[27,27,28,26],[33,17,34,16]]")


def pinned_diagram(corpus, name):
    """A corpus knot; its mirror, with the opposite crossing signs; or the
    costliest knot of the symmetric-union benchmark pool."""
    if name == "su8_seed143":
        return parse_pd(SU8_SEED143, name=name)
    if name.startswith("mirror("):
        return mirror(corpus[name[len("mirror("):-1]])
    return corpus[name]


@pytest.mark.parametrize("name", FINAL_COMPLEXES)
def test_final_complex_pinned(corpus, name):
    # generator ids, the elimination order and every entry of the final
    # complex stay exactly as the term-by-term kernel made them
    scan = KnotScan(pinned_diagram(corpus, name)).final_complex()
    gens = sorted((g, m, h, q) for g, (m, h, q) in scan.gens.items())
    entries = sorted((s, t, sorted(e.items()))
                     for s, row in scan.out.items() for t, e in row.items())
    digest = hashlib.sha256(repr((gens, entries, scan.next_gid)).encode())
    assert (digest.hexdigest(), scan.next_gid) == FINAL_COMPLEXES[name]
    # the scan cleared the cache when it started
    info = cycles_of.cache_info()
    calls, misses = CYCLES_OF_WORK[name]
    assert info.hits + info.misses <= calls and info.misses <= misses


# (generators created, peak fused generators, fused entries, pivots,
# composites formed) of each scan, taken by counting in the kernel that
# keyed every cache on matching tuples
SCAN_WORK = {
    "18nh_00159590": (3155, 645, 11865, 902, 5091),
    "18nh_00752242": (4706, 846, 21990, 1353, 11222),
    "19nh_000129633": (2109, 339, 7001, 590, 2268),
    "19nh_000305767": (5939, 971, 38462, 1738, 26508),
    "symunion24": (4995, 789, 20991, 1445, 8617),
    "6_2": (75, 33, 135, 18, 26),
    "mirror(18nh_00159590)": (3155, 645, 12145, 902, 5633),
    "su8_seed143": (726, 225, 1541, 238, 241),
}


@pytest.mark.parametrize("name", SCAN_WORK)
def test_scan_work_counters(corpus, name):
    # the counters are exact: a kernel that does the same work reads the
    # same numbers
    scan = KnotScan(pinned_diagram(corpus, name)).final_complex()
    assert (scan.next_gid, scan.peak_fused, scan.fused_entries, scan.pivots,
            scan.composites) == SCAN_WORK[name]


# Glue objects built by each pinned scan: one per local surface of the
# scan, looked up by its inputs (one per template per step before:
# 374, 451, 564, 1520, 740, 38, 370 and 142)
GLUE_BUILDS = {
    "18nh_00159590": 127,
    "18nh_00752242": 136,
    "19nh_000129633": 128,
    "19nh_000305767": 188,
    "symunion24": 158,
    "6_2": 29,
    "mirror(18nh_00159590)": 125,
    "su8_seed143": 76,
}


def test_scan_peak_memory(corpus):
    # each entry value is stored once and never changed, and the old
    # complex is freed while the next one is fused: the traced peak of this
    # scan, the corpus's largest, is 1.64-1.70 MB on CPython 3.11 (it moves
    # with the tests run before it), against 3.95-4.11 MB with one dict per
    # entry composed in place, 3.36 MB without the shared values and 1.95 MB
    # with the old complex kept to the end of each fuse.  A first untraced
    # scan fills the bounded module caches.
    d = corpus["19nh_000305767"]
    KnotScan(d).final_complex()
    tracemalloc.start()
    try:
        KnotScan(d).final_complex()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.85e6, peak


@pytest.mark.parametrize("name", GLUE_BUILDS)
def test_glue_builds(corpus, name):
    scan = KnotScan(pinned_diagram(corpus, name)).final_complex()
    assert scan.glues == GLUE_BUILDS[name]


def module_caches() -> dict:
    """Size of every module-level cache and container of the package."""
    sizes = {}
    for info in pkgutil.iter_modules(knotrank.__path__):
        module = importlib.import_module(f"knotrank.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info"):
                sizes[info.name, name] = obj.cache_info().currsize
            elif isinstance(obj, (dict, list, set)) and not name.startswith("__"):
                sizes[info.name, name] = len(obj)
    return sizes


def test_scans_keep_no_tables(corpus):
    # a census scans thousands of knots in one process: a finished scan
    # holds no template tables, and no module-level cache grows with the
    # number of knots scanned.  cycles_of is cleared when a scan starts;
    # the caches keyed on small ints (circle, genus and dot counts) are
    # bounded whatever is scanned.
    bounded = {("cobordism", "open_expansion"), ("khovanov", "_capdots")}
    probe = corpus["6_2"]
    KnotScan(probe).final_complex()
    before = module_caches()
    for a, b in (("3_1", "6_1"), ("4_1", "6_2"), ("5_1", "5_1"), ("6_1", "4_1")):
        scan = KnotScan(connected_sum(corpus[a], mirror(corpus[b]))).final_complex()
        assert not (scan.locals or scan.expansions or scan.compose_cache)
    KnotScan(probe).final_complex()
    after = module_caches()
    assert before.keys() == after.keys()
    for key, size in after.items():
        if key in bounded:
            assert size <= 64, key
        else:
            assert size == before[key], key

import importlib
import multiprocessing
from collections import Counter

import pytest

from knotrank import khovanov, scanner
from knotrank.corpus import load_corpus
from knotrank.khovanov import BigradedRanks
from knotrank.scanner import (FLAG_NAMES, compute_report, parse_report_jsonl,
                              render_csv, render_jsonl, scan)


@pytest.fixture(scope="module")
def corpus():
    return load_corpus()


@pytest.fixture(scope="module")
def small_reports(corpus):
    ds = [corpus["unknot"], corpus["3_1"], corpus["6_1"], corpus["6_2"]]
    return scan(ds, fields=("f2", "f3"))


def test_62_flags(small_reports):
    r = {rep.name: rep for rep in small_reports}["6_2"]
    assert r.reduced["f3"] == 11
    assert r.flags["c12_mod4"] is False        # 11 = 3 mod 4
    assert r.flags["levine"] is True
    assert r.flags["f2_doubling"] is True
    assert r.error is None


def test_unknot_flags(small_reports):
    r = small_reports[0]
    assert r.name == "unknot"
    assert all(r.flags[f] for f in r.flags)


def test_61_flags(small_reports):
    r = {rep.name: rep for rep in small_reports}["6_1"]
    assert r.flags["c12_mod4"] and r.flags["folk_mod8"]
    assert r.flags["c110_unreduced"]
    assert r.flags["arfq"]


def test_flag_coherence(small_reports):
    for r in small_reports:
        if r.flags.get("folk_mod8"):
            assert r.flags["c12_mod4"]
        assert r.reduced["f2"] % 2 == 1
        assert r.unreduced["f2"] == 2 * r.reduced["f2"]
        assert r.flags["levine"] is True


def test_report_roundtrip(small_reports):
    text = render_jsonl(small_reports)
    records, summary = parse_report_jsonl(text)
    assert [r["name"] for r in records] == [r.name for r in small_reports]
    assert summary["knots"] == 4
    # The summary counts every knot whose flag is False, ribbon or not:
    # 3_1 (reduced rank 3) and 6_2 (reduced rank 11) are both 3 mod 4.
    flags = [r["flag_c12_mod4"] for r in records]
    assert flags == [True, False, True, False]
    assert summary["violations_c12_mod4"] == flags.count(False) == 2
    assert records[1]["khr_f3_mod8"] == 3        # trefoil: rank 3
    # determinism: serializing again is byte-identical
    assert render_jsonl(small_reports) == text


def test_jobs_parallel_determinism(corpus):
    ds = [corpus["3_1"], corpus["4_1"], corpus["unknot"]]
    seq = render_jsonl(scan(ds, fields=("f2",), jobs=1))
    par = render_jsonl(scan(ds, fields=("f2",), jobs=2))
    assert seq == par


def test_pool_has_no_more_workers_than_knots(corpus, monkeypatch):
    # a stand-in pool that records its size and maps serially: no real
    # worker is started
    sizes = []

    class SerialPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(x) for x in items]

    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    ds = [corpus["3_1"], corpus["4_1"], corpus["unknot"]]
    seq = render_jsonl(scan(ds, fields=("f2",)))
    for jobs in (64, 3, 2):
        assert render_jsonl(scan(ds, fields=("f2",), jobs=jobs)) == seq
    assert sizes == [3, 3, 2]


def test_csv_format(small_reports):
    text = render_csv(small_reports)
    lines = text.splitlines()
    assert lines[0].startswith("name,crossings,det,")
    assert len([l for l in lines if not l.startswith("#")]) == 5  # header + 4
    assert "# violations_c12_mod4=2" in lines   # 3_1 and 6_2, as in the JSONL


def test_empty_input():
    text = render_jsonl(scan([], fields=("f2",)))
    records, summary = parse_report_jsonl(text)
    assert records == [] and summary["knots"] == 0


def test_non_knot_becomes_error_record(corpus):
    reports = scan([corpus["hopf"]], fields=("f2",))
    assert reports[0].error is not None
    assert "not a knot" in reports[0].error
    text = render_jsonl(reports)
    records, summary = parse_report_jsonl(text)
    assert summary["aborted"] == 1
    # an error record has no flags, so it counts under no violations_<flag>
    assert all(summary[f"violations_{f}"] == 0 for f in FLAG_NAMES)
    assert "error" in records[0]


def test_resource_abort_recorded(corpus):
    reports = scan([corpus["18nh_00159590"], corpus["unknot"]],
                   fields=("f2",), max_generators=40)
    assert reports[0].error is not None and "ResourceLimit" in reports[0].error
    assert reports[1].error is None   # batch continues


def test_zero_timeout_is_a_passed_deadline(corpus):
    # timeout 0 is a deadline that has already passed, not "no deadline";
    # Alexander, the first layer of a report, checks it first
    assert compute_report(corpus["3_1"], ("f2",), timeout=None).error is None
    report = compute_report(corpus["3_1"], ("f2",), timeout=0)
    assert report.error == "ResourceLimit: Alexander deadline exceeded"


def test_scan_needs_a_field(corpus):
    # with no field a report holds no Khovanov rank, and every rank flag,
    # c12_mod4 among them, would hold vacuously
    with pytest.raises(ValueError):
        scan([corpus["3_1"]], fields=())


@pytest.mark.parametrize("exc", (RuntimeError("deformed free rank 2 != 1"),
                                 AssertionError("non-monomial entry")),
                         ids=lambda e: type(e).__name__)
def test_engine_error_isolated(corpus, monkeypatch, exc):
    real = scanner.deformed_module

    def failing(d, *args, **kwargs):
        if d.diagram.name == "3_1":
            raise exc
        return real(d, *args, **kwargs)

    monkeypatch.setattr(scanner, "deformed_module", failing)
    reports = scan([corpus["3_1"], corpus["6_1"]], fields=("f3",),
                   with_deformed=True)
    assert reports[0].error == f"{type(exc).__name__}: {exc}"
    assert reports[1].error is None
    assert reports[1].deformed["f3"]["torsion"] == [1, 1, 1, 1]


def test_self_check_error_isolated(corpus, monkeypatch):
    # one extra generator breaks |delta-graded Euler characteristic| = det
    real = scanner.khovanov_pair

    def padded(d, *args, **kwargs):
        red, unred = real(d, *args, **kwargs)
        if d.diagram.name == "3_1":
            ranks = dict(red.ranks)
            ranks[(0, 0)] = ranks.get((0, 0), 0) + 1
            red = BigradedRanks(ranks, True, red.field)
        return red, unred

    monkeypatch.setattr(scanner, "khovanov_pair", padded)
    reports = scan([corpus["3_1"], corpus["6_1"]], fields=("f3",))
    assert reports[0].error.startswith(
        "RuntimeError: reduced f3 Euler characteristic")
    assert reports[0].flags == {}
    assert reports[1].error is None
    assert reports[1].reduced["f3"] == 9


def test_jones_check_error_isolated(corpus, monkeypatch):
    # moving a generator from (h, q) to (h + 1, q + 2) keeps delta = q/2 - h,
    # so the determinant check passes; the q-graded Euler characteristic
    # no longer equals the Jones polynomial
    real = scanner.khovanov_pair

    def moved(d, *args, **kwargs):
        red, unred = real(d, *args, **kwargs)
        if d.diagram.name == "3_1":
            ranks = dict(red.ranks)
            h, q = min(ranks)
            ranks[(h, q)] -= 1
            ranks[(h + 1, q + 2)] = ranks.get((h + 1, q + 2), 0) + 1
            red = BigradedRanks({k: v for k, v in ranks.items() if v}, True,
                                red.field)
        return red, unred

    monkeypatch.setattr(scanner, "khovanov_pair", moved)
    reports = scan([corpus["3_1"], corpus["6_1"]], fields=("f3",))
    assert reports[0].error.startswith(
        "RuntimeError: reduced f3 q-graded Euler characteristic")
    assert reports[0].flags == {}
    assert reports[1].error is None
    assert reports[1].reduced["f3"] == 9


def test_free_summand_check_error_isolated(corpus, monkeypatch):
    # moving the free summand from h = 0 to h = 2 keeps both Euler
    # characteristics, so the determinant and Jones checks pass; the free
    # part is no longer at h = 0
    real = khovanov._module

    def moved(knot_scan, field):
        free, torsion = real(knot_scan, field)
        if knot_scan.diagram.name == "3_1":
            [(h, q)] = [key for key, r in free.items() if r]
            free[h, q] -= 1
            free[h + 2, q] += 1
        return free, torsion

    monkeypatch.setattr(khovanov, "_module", moved)
    reports = scan([corpus["3_1"], corpus["6_1"]], fields=("f3",))
    assert reports[0].error == \
        "RuntimeError: f3 free summands at h = [2], not one at h = 0"
    assert reports[0].flags == {}
    assert reports[1].error is None
    assert reports[1].reduced["f3"] == 9


def test_thin_diagonal_check_error_isolated(corpus, monkeypatch):
    # moving the thin reduced table of 3_1 from h to h - 2 keeps (-1)^h and
    # the parity of delta = q/2 - h, so the determinant and Jones checks
    # pass, and the free summand stays at h = 0; the table is still thin,
    # but off the free summand's diagonal q - 2h = q_free = -2
    real = scanner.khovanov_pair

    def shifted(d, *args, **kwargs):
        red, unred = real(d, *args, **kwargs)
        if d.diagram.name == "3_1":
            red = BigradedRanks({(h - 2, q): r for (h, q), r in red.ranks.items()},
                                True, red.field)
        return red, unred

    monkeypatch.setattr(scanner, "khovanov_pair", shifted)
    reports = scan([corpus["3_1"], corpus["6_1"]], fields=("f3",))
    assert reports[0].error == \
        "RuntimeError: reduced f3 table is thin on q - 2h = 2, not on q_free = -2"
    assert reports[0].flags == {}
    assert reports[1].error is None
    assert reports[1].reduced["f3"] == 9


def test_each_invariant_computed_once(corpus, monkeypatch):
    # per knot: one crossing order, shared by the Jones contraction and the
    # one integral Khovanov scan, which every field and the deformed module
    # read, one Alexander and one Jones polynomial
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(khovanov.KnotScan, "run",
                        counted("scan", khovanov.KnotScan.run))
    for module, attr, name in (("khovanov", "scan_order", "scan_order"),
                               ("jones", "scan_order", "scan_order"),
                               ("scanner", "alexander_polynomial", "alexander"),
                               ("arf", "alexander_polynomial", "alexander"),
                               ("arf", "jones", "jones"),
                               ("jones", "jones", "jones")):
        module = importlib.import_module(f"knotrank.{module}")
        monkeypatch.setattr(module, attr, counted(name, getattr(module, attr)))
    for with_deformed, deformed in ((True, ["f211", "f3", "q"]), (False, [])):
        calls.clear()
        rep = compute_report(corpus["18nh_00159590"], scanner.DEFAULT_FIELDS,
                             with_deformed=with_deformed)
        assert rep.error is None and sorted(rep.deformed) == deformed
        assert sorted(rep.reduced) == ["f2", "f211", "f3", "q"]
        assert calls == {"scan_order": 1, "scan": 1, "alexander": 1,
                         "jones": 1}


def test_deformed_report_reduces_once_per_field(corpus, monkeypatch):
    # khovanov_pair and deformed_module read one Smith split per field
    calls = Counter()
    smith = khovanov._monomial_smith

    def counted(entries, p):
        calls[p] += 1
        return smith(entries, p)

    monkeypatch.setattr(khovanov, "_monomial_smith", counted)
    rep = compute_report(corpus["18nh_00159590"], scanner.DEFAULT_FIELDS,
                         with_deformed=True)
    assert rep.error is None and sorted(rep.deformed) == ["f211", "f3", "q"]
    assert calls == {2: 1, 3: 1, 211: 1, 0: 1}


def test_deformed_fields(corpus):
    rep = compute_report(corpus["6_1"], ("f3",), with_deformed=True)
    assert rep.deformed["f3"]["free"] == 1
    assert rep.deformed["f3"]["torsion"] == [1, 1, 1, 1]
    assert rep.deformed["f3"]["xo"] == 1
    rec = rep.record()
    assert rec["deformed_f3_xo"] == 1


def test_counterexample_knot_flags(corpus):
    rep = compute_report(corpus["18nh_00159590"], ("f2", "f3"))
    assert rep.reduced["f3"] % 8 == 5
    assert rep.flags["folk_mod8"] is False
    assert rep.flags["c12_mod4"] is True
    assert rep.flags["levine"] is True
    assert rep.flags["arfq"] is False   # rank 5 mod 8 with Arf 0

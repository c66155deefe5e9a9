"""Batch pipeline: compute all invariants per knot and test the rank
conjectures, emitting deterministic JSONL or CSV reports.

Each knot gets one report carrying its determinant data, the five-route
Arf result, reduced and unreduced Khovanov totals with mod-4/8 residues
per coefficient field, optional deformation-module data, and one boolean
flag per conjecture (true = the property holds for every computed field):

  c12_mod4        reduced rank = 1 (mod 4)
  folk_mod8       reduced rank = 1 (mod 8)
  c110_unreduced  unreduced rank = 2 (mod 4)
  arfq            reduced rank = 4*Arf +- 1 (mod 8)
  f2_doubling     unreduced F2 rank = 2 * reduced F2 rank
  levine          signed determinant = 4*Arf + 1 (mod 8)

The rank conjectures concern ribbon knots, but the flags are computed for
every input knot: an input line carries only a name and a PD code, so the
scanner cannot tell whether the knot is ribbon (that is known only for
``corpus.RIBBON_NAMES``). A false flag on a knot that is not ribbon, such
as c12_mod4 on 3_1 (reduced rank 3), is no counterexample to the paper's
conjectures. The summary's ``violations_<flag>`` counts every knot whose
flag is false, ribbon or not; error records carry no flags and are counted
only under ``aborted``.

Each knot is scanned once, over the integers, and every field's tables
and deformation module are read from that one complex.  Every reduced
table is checked against the determinant and the Jones polynomial: its
delta-graded Euler characteristic must be +-det (which also gives
rank >= det and rank = det mod 2), and its q-graded Euler characteristic
sum (-1)^h * rank * q^q must be the Jones polynomial.  Over each field
of characteristic != 2 the complex over A[X] must have one free summand,
at h = 0 and some q_free, and a thin reduced table (one diagonal
delta = q/2 - h) must lie on delta = q_free/2.  Per-knot failures
(resource budget, timeout, non-knot input, a failed self-check) become
structured records with an ``error`` field and never halt the batch.  So
does an input line that does not parse: :func:`.parse_diagram_lines`
puts its :class:`.InvalidDiagram` in the diagram's place, and the batch
gives it one error record at that place in the input order.
Reports are byte-identical for identical inputs and options regardless
of worker count; timings are therefore kept out of the serialized form
unless explicitly requested.
"""

from __future__ import annotations

import functools
import io
import json
import time

from .algebra import parse_field
from .alexander import alexander_polynomial
from .arf import arf
from .diagram import Diagram, InvalidDiagram
from .khovanov import KnotScan, deformed_module, khovanov_pair

DEFAULT_FIELDS = ("f2", "f3", "f211", "q")

FLAG_NAMES = ("c12_mod4", "folk_mod8", "c110_unreduced", "arfq",
              "f2_doubling", "levine")

# the failures that make a knot's error record: RuntimeError covers
# ResourceLimit and the self-checks, AssertionError the engine's invariants
KNOT_ERRORS = (RuntimeError, AssertionError, ValueError, ArithmeticError)


class KnotReport:
    def __init__(self, name: str, crossings: int = 0, error: str | None = None):
        self.name = name
        self.crossings = crossings
        self.det: int | None = None
        self.signed_det: int | None = None
        self.arf: int | None = None
        self.arf_routes: dict = {}
        self.arf_consistent: bool | None = None
        self.reduced: dict = {}       # field name -> total
        self.unreduced: dict = {}
        self.deformed: dict = {}      # field name -> dict
        self.flags: dict = {}
        self.error = error
        self.time_ms = 0

    def record(self, include_timing: bool = False) -> dict:
        out = {
            "name": self.name,
            "crossings": self.crossings,
            "det": self.det,
            "signed_det": self.signed_det,
            "arf": self.arf,
            "arf_routes": {k: self.arf_routes[k] for k in sorted(self.arf_routes)},
            "arf_consistent": self.arf_consistent,
        }
        for f in sorted(self.reduced):
            total = self.reduced[f]
            out[f"khr_{f}"] = total
            out[f"khr_{f}_mod4"] = total % 4
            out[f"khr_{f}_mod8"] = total % 8
        for f in sorted(self.unreduced):
            total = self.unreduced[f]
            out[f"kh_{f}"] = total
            out[f"kh_{f}_mod4"] = total % 4
        for f in sorted(self.deformed):
            dm = self.deformed[f]
            out[f"deformed_{f}_free"] = dm["free"]
            out[f"deformed_{f}_torsion"] = dm["torsion"]
            out[f"deformed_{f}_xo"] = dm["xo"]
        for flag in FLAG_NAMES:
            out[f"flag_{flag}"] = self.flags.get(flag)
        if self.error is not None:
            out["error"] = self.error
        if include_timing:
            out["time_ms"] = self.time_ms
        return out


def compute_report(d: Diagram | InvalidDiagram, fields, with_deformed: bool = False,
                   timeout: float | None = None,
                   max_generators: int | None = None) -> KnotReport:
    """All invariants and conjecture flags for one diagram, or the error
    record of an input line that did not parse."""
    if isinstance(d, InvalidDiagram):
        return KnotReport(name=d.name or "?", error=f"{type(d).__name__}: {d}")
    report = KnotReport(name=d.name or "?", crossings=len(d.crossings))
    deadline = None if timeout is None else time.monotonic() + timeout
    t0 = time.monotonic()
    try:
        if not d.is_knot:
            raise ValueError(f"not a knot ({d.n_components} components)")
        delta = alexander_polynomial(d, deadline)
        report.signed_det = delta.evaluate(-1)
        report.det = abs(report.signed_det)
        # one order for Jones and the one scan, which every field reads
        knot_scan = KnotScan(d, max_generators=max_generators, deadline=deadline)
        res = arf(d, delta, knot_scan.order, deadline)
        report.arf = res.value
        report.arf_routes = dict(res.routes)
        report.arf_consistent = res.consistent
        for f in fields:
            fld = parse_field(f) if isinstance(f, str) else f
            red, unred = khovanov_pair(knot_scan, fld)
            if with_deformed and fld.char != 2:
                dm = deformed_module(knot_scan, fld)
                report.deformed[fld.name] = {
                    "free": dm.free_rank,
                    "torsion": sorted(a for a, _ in dm.torsion),
                    "xo": dm.x_torsion_order(),
                }
            if abs(red.delta_euler()) != report.det:
                raise RuntimeError(
                    f"reduced {fld.name} Euler characteristic "
                    f"{red.delta_euler()} is not +-det {report.det}")
            if red.q_euler() != res.jones:
                raise RuntimeError(
                    f"reduced {fld.name} q-graded Euler characteristic "
                    f"{red.q_euler().serialize()} is not the Jones "
                    f"polynomial {res.jones.serialize()}")
            # one free summand over A[X], at h = 0; over F2 every summand
            # is free (3_1 has three: its final entries are all even).  A
            # thin reduced table lies on the free summand's diagonal,
            # q - 2h = q_free
            if fld.char != 2:
                free = knot_scan.modules[fld.char][0]
                at = [h for (h, _), r in free.items() for _ in range(r)]
                if at != [0]:
                    raise RuntimeError(
                        f"{fld.name} free summands at h = {at}, not one at h = 0")
                [q_free] = [q for (_, q), r in free.items() if r]
                diagonals = {q - 2 * h for h, q in red.ranks}
                if len(diagonals) == 1 and diagonals != {q_free}:
                    raise RuntimeError(
                        f"reduced {fld.name} table is thin on q - 2h = "
                        f"{diagonals.pop()}, not on q_free = {q_free}")
            report.reduced[fld.name] = red.total
            report.unreduced[fld.name] = unred.total
        report.flags = _flags(report)
    except KNOT_ERRORS as exc:
        report.error = f"{type(exc).__name__}: {exc}"
    report.time_ms = int(1000 * (time.monotonic() - t0))
    return report


def _flags(r: KnotReport) -> dict:
    flags = {}
    flags["c12_mod4"] = all(v % 4 == 1 for v in r.reduced.values())
    flags["folk_mod8"] = all(v % 8 == 1 for v in r.reduced.values())
    flags["c110_unreduced"] = all(v % 4 == 2 for v in r.unreduced.values())
    flags["arfq"] = all(v % 8 in ((4 * r.arf + 1) % 8, (4 * r.arf - 1) % 8)
                        for v in r.reduced.values())
    if "f2" in r.reduced and "f2" in r.unreduced:
        flags["f2_doubling"] = r.unreduced["f2"] == 2 * r.reduced["f2"]
    else:
        flags["f2_doubling"] = None
    flags["levine"] = r.signed_det % 8 == (4 * r.arf + 1) % 8
    return flags


def scan(diagrams, fields=DEFAULT_FIELDS, jobs: int = 1,
         with_deformed: bool = False, timeout: float | None = None,
         max_generators: int | None = None) -> list[KnotReport]:
    """One report per diagram, in input order regardless of parallelism.
    ``fields`` must name at least one field: a report without Khovanov
    ranks would hold every rank flag vacuously."""
    fields = tuple(fields)
    if not fields:
        raise ValueError("scan needs at least one field")
    diagrams = list(diagrams)
    run = functools.partial(compute_report, fields=fields,
                            with_deformed=with_deformed, timeout=timeout,
                            max_generators=max_generators)
    if jobs <= 1 or len(diagrams) <= 1:
        return [run(d) for d in diagrams]
    import multiprocessing as mp

    with mp.Pool(min(jobs, len(diagrams))) as pool:
        return pool.map(run, diagrams)


# ---------------------------------------------------------------------------
# serialization


def summarize(reports) -> dict:
    """Batch totals: ``knots``, ``aborted`` and ``violations_<flag>``.

    ``violations_<flag>`` counts every report whose flag is ``False``,
    whether or not the knot is ribbon; a flag that is ``None`` (not
    computable for the chosen fields) is not counted. Error records carry
    no flags and are counted only under ``aborted``. A violation on a knot
    that is not ribbon is not a counterexample to the paper's conjectures.
    """
    out = {
        "knots": len(reports),
        "aborted": sum(1 for r in reports if r.error is not None),
    }
    for flag in FLAG_NAMES:
        out[f"violations_{flag}"] = sum(
            1 for r in reports if r.flags.get(flag) is False)
    return out


def render_jsonl(reports, include_timing: bool = False) -> str:
    lines = [json.dumps(r.record(include_timing), sort_keys=False)
             for r in reports]
    lines.append(json.dumps({"summary": summarize(reports)}))
    return "\n".join(lines) + "\n"


def parse_report_jsonl(text: str):
    """Inverse of render_jsonl: (records, summary)."""
    records = []
    summary = None
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        obj = json.loads(line)
        if "summary" in obj and "name" not in obj:
            summary = obj["summary"]
        else:
            records.append(obj)
    return records, summary


def render_csv(reports, include_timing: bool = False) -> str:
    import csv
    keys: list = []
    rows = []
    for r in reports:
        rec = r.record(include_timing)
        rec["arf_routes"] = ";".join(f"{k}={v}" for k, v in rec["arf_routes"].items())
        for k, v in list(rec.items()):
            if isinstance(v, list):
                rec[k] = ";".join(str(x) for x in v)
        rows.append(rec)
        for k in rec:
            if k not in keys:
                keys.append(k)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=keys, lineterminator="\n")
    writer.writeheader()
    for rec in rows:
        writer.writerow(rec)
    for k, v in summarize(reports).items():
        buf.write(f"# {k}={v}\n")
    return buf.getvalue()

"""Command-line interface.

Subcommands operate on diagram files with one record per line,
``name<TAB>pd_code``, lines starting with '#' ignored:

    knotrank jones FILE
    knotrank alexander FILE
    knotrank arf FILE
    knotrank kh FILE --field f3 [--unreduced] [--deformed]
    knotrank hfk-alg COMPLEX_FILE
    knotrank hfk-alg --check-to DET ARF L
    knotrank symunion gen --seed S --count C --crossings N --twists "1"
    knotrank scan --input FILE --fields f2,f3,f211,q --out report.jsonl
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .algebra import format_iroot2, parse_field
from .alexander import alexander_polynomial, conway_potential
from .arf import arf
from .diagram import format_diagram_file, parse_diagram_file, parse_diagram_lines
from .jones import det_from_jones, jones
from .khovanov import deformed_module, khovanov_ranks
from .hfkalg import (box_arithmetic_check, delta_euler_hat, hat_ranks,
                     parse_complex)
from .scanner import render_csv, render_jsonl, scan
from .symunion import random_symmetric_union


def _load(path: str):
    return parse_diagram_file(Path(path).read_text())


def _cmd_jones(args) -> int:
    for d in _load(args.file):
        v = jones(d)
        if d.is_knot:
            det = det_from_jones(d)
        else:
            det = ""
        vi = format_iroot2(v.poly.evaluate_zeta8(1))
        print(f"{d.name}\t{v.serialize()}\t{det}\t{vi}")
    return 0


def _cmd_alexander(args) -> int:
    for d in _load(args.file):
        if not d.is_knot:
            print(f"{d.name}\t-\t-\t-")
            continue
        delta = alexander_polynomial(d)
        sdet = delta.evaluate(-1)
        a2 = conway_potential(delta).a2
        print(f"{d.name}\t{delta.serialize('t')}\t{sdet}\t{a2}")
    return 0


def _cmd_arf(args) -> int:
    for d in _load(args.file):
        if not d.is_knot:
            print(f"{d.name}\t-\t-\t-")
            continue
        r = arf(d)
        print(f"{d.name}\t{r.value}\t{r.route_vector()}\t{r.consistent}")
    return 0


def _cmd_kh(args) -> int:
    fld = parse_field(args.field)
    status = 0
    for d in _load(args.file):
        try:
            if args.deformed:
                dm = deformed_module(d, fld)
                table = dm.unreduced if args.unreduced else dm.reduced
            else:
                table = khovanov_ranks(d, fld, reduced=not args.unreduced)
            line = (f"{d.name}\t{table.total}\t{table.mod(4)}\t{table.mod(8)}"
                    f"\t{json.dumps(table.table_json())}")
            if args.deformed:
                orders = ",".join(str(a) for a, _ in dm.torsion) or "-"
                line += f"\t{dm.free_rank}\t{orders}\t{dm.x_torsion_order()}"
            print(line)
        except ValueError as exc:
            print(f"{d.name}\terror: {exc}", file=sys.stderr)
            print(f"{d.name}\t-\t-\t-\t-")
            status = 2
    return status


def _cmd_hfk_alg(args) -> int:
    if args.check_to:
        det, arf_value, boxes = args.check_to
        verdict = box_arithmetic_check(int(det), int(arf_value), [0] * int(boxes))
        print(f"det={det} arf={arf_value} boxes={boxes} rank={verdict.rank} "
              f"det_matches={verdict.det_matches} parity_matches={verdict.parity_matches} "
              f"consistent={verdict.consistent}")
        return 0 if verdict.consistent else 1
    if not args.file:
        print("hfk-alg: need a complex file or --check-to", file=sys.stderr)
        return 2
    c = parse_complex(Path(args.file).read_text())
    table = hat_ranks(c)
    for (w, z) in sorted(table.ranks):
        print(f"rank\t{w}\t{z}\t{table.ranks[(w, z)]}")
    for delta, r in sorted(table.by_delta().items()):
        print(f"delta\t{delta}\t{r}")
    print(f"total\t{table.total}")
    print(f"delta_euler\t{delta_euler_hat(table)}")
    return 0


def _cmd_symunion(args) -> int:
    twists = tuple(int(x) for x in args.twists.split(","))
    diagrams = []
    for k in range(args.count):
        d = random_symmetric_union(args.seed + k, args.crossings, twists)
        diagrams.append(d.with_name(f"su_{args.seed + k}"))
    text = format_diagram_file(diagrams)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_scan(args) -> int:
    # a line that does not parse becomes an error record, not an abort
    diagrams = parse_diagram_lines(Path(args.input).read_text())
    fields = [f.strip() for f in args.fields.split(",") if f.strip()]
    reports = scan(diagrams, fields, jobs=args.jobs,
                   with_deformed=args.deformed, timeout=args.timeout,
                   max_generators=args.max_generators)
    if args.format == "csv":
        text = render_csv(reports, include_timing=args.timings)
    else:
        text = render_jsonl(reports, include_timing=args.timings)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 2 if any(r.error for r in reports) else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="knotrank",
                                     description="knot invariant workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("jones", help="Jones polynomial, determinant, V(i)")
    p.add_argument("file")
    p.set_defaults(func=_cmd_jones)

    p = sub.add_parser("alexander", help="Alexander polynomial, signed det, a2")
    p.add_argument("file")
    p.set_defaults(func=_cmd_alexander)

    p = sub.add_parser("arf", help="Arf invariant by five routes")
    p.add_argument("file")
    p.set_defaults(func=_cmd_arf)

    p = sub.add_parser("kh", help="Khovanov homology ranks")
    p.add_argument("file")
    p.add_argument("--field", default="q", help="q or f<p> (default q)")
    p.add_argument("--unreduced", action="store_true")
    p.add_argument("--deformed", action="store_true",
                   help="append free rank, torsion orders and xo over A[X]")
    p.set_defaults(func=_cmd_kh)

    p = sub.add_parser("hfk-alg", help="hat homology of an F2[U,V] complex file")
    p.add_argument("file", nargs="?")
    p.add_argument("--check-to", nargs=3, metavar=("DET", "ARF", "L"),
                   help="check det/Arf arithmetic against L unit boxes")
    p.set_defaults(func=_cmd_hfk_alg)

    p = sub.add_parser("symunion", help="symmetric-union generators")
    gensub = p.add_subparsers(dest="subcommand", required=True)
    g = gensub.add_parser("gen", help="generate a batch of symmetric unions")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--count", type=int, default=1)
    g.add_argument("--crossings", type=int, default=8,
                   help="max crossings of the random seed diagram")
    g.add_argument("--twists", default="1", help="comma-separated twist counts")
    g.add_argument("--out")
    g.set_defaults(func=_cmd_symunion)

    p = sub.add_parser("scan", help="batch invariants and conjecture flags")
    p.add_argument("--input", required=True)
    p.add_argument("--fields", default="f2,f3,f211,q")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out")
    p.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-knot deadline in seconds")
    p.add_argument("--max-generators", type=int, default=None,
                   help="per-scan generator budget, counted after each "
                        "crossing is fused in and before elimination")
    p.add_argument("--deformed", action="store_true")
    p.add_argument("--timings", action="store_true",
                   help="include per-knot timings (breaks byte determinism)")
    p.set_defaults(func=_cmd_scan)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line interface.

Subcommands operate on diagram files with one record per line,
``name<TAB>pd_code``, lines starting with '#' ignored:

    knotrank jones FILE
    knotrank alexander FILE
    knotrank arf FILE
    knotrank kh FILE --field f3 [--unreduced] [--deformed]
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
from .diagram import Diagram, InvalidDiagram, format_diagram_file, parse_diagram_lines
from .jones import det_from_jones, jones
from .khovanov import KnotScan, deformed_module, khovanov_ranks
from .scanner import DEFAULT_FIELDS, KNOT_ERRORS, render_csv, render_jsonl, scan
from .symunion import knot_twists, random_symmetric_union


def _parsed(parse):
    """``parse`` as an argparse type: a ``ValueError`` it raises is a usage
    error."""
    def parsed(token: str):
        try:
            return parse(token)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parsed


def _fields(text: str) -> list:
    """The fields of a comma-separated spec, at least one."""
    fields = [parse_field(f) for f in text.split(",") if f.strip()]
    if not fields:
        raise ValueError(f"{text!r} names no field")
    return fields


def _at_least(low: int):
    """An argparse type for an int of at least ``low``: any other value is a
    usage error."""
    def at_least(token: str) -> int:
        if (value := int(token)) < low:
            raise argparse.ArgumentTypeError(f"{token!r} is below {low}")
        return value
    return at_least


def _positive(kind):
    """An argparse type for a positive ``kind``: any other value is a usage error."""
    def positive(token: str):
        if not (value := kind(token)) > 0:
            raise argparse.ArgumentTypeError(f"{token!r} is not positive")
        return value
    return positive


def _rows(path: str, row, placeholder: str) -> int:
    """Print ``row(d)`` for each diagram of the file at ``path``.  A line that does
    not parse (a byte that is not UTF-8 reads as U+FFFD), or a diagram on which
    ``row`` raises one of ``KNOT_ERRORS``, prints its error to stderr and
    ``placeholder`` in its place, and the command goes on and exits 2."""
    status = 0
    for d in parse_diagram_lines(Path(path).read_text("utf-8", "replace")):
        try:
            if isinstance(d, InvalidDiagram):
                raise d
            print(row(d))
        except KNOT_ERRORS as exc:
            print(f"{d.name}\terror: {exc}", file=sys.stderr)
            print(f"{d.name}\t{placeholder}")
            status = 2
    return status


def _cmd_jones(args) -> int:
    def row(d):
        v = jones(d)
        det = det_from_jones(v) if d.is_knot else ""
        vi = format_iroot2(v.evaluate_zeta8())
        return f"{d.name}\t{v.serialize()}\t{det}\t{vi}"
    return _rows(args.file, row, "-\t-\t-")


def _cmd_alexander(args) -> int:
    def row(d):
        if not d.is_knot:
            return f"{d.name}\t-\t-\t-"
        delta = alexander_polynomial(d)
        a2 = conway_potential(delta).a2
        return f"{d.name}\t{delta.serialize('t')}\t{delta.evaluate(-1)}\t{a2}"
    return _rows(args.file, row, "-\t-\t-")


def _cmd_arf(args) -> int:
    def row(d):
        if not d.is_knot:
            return f"{d.name}\t-\t-\t-"
        r = arf(d)
        return f"{d.name}\t{r.value}\t{r.route_vector()}\t{r.consistent}"
    return _rows(args.file, row, "-\t-\t-")


def _cmd_kh(args) -> int:
    def row(d):
        knot_scan = KnotScan(d)
        if args.deformed:
            # deformed_module first, so that a link or F2 gets its error
            dm = deformed_module(knot_scan, args.field)
        table = khovanov_ranks(knot_scan, args.field, reduced=not args.unreduced)
        line = (f"{d.name}\t{table.total}\t{table.total % 4}\t{table.total % 8}"
                f"\t{json.dumps(table.table_json())}")
        if args.deformed:
            orders = ",".join(str(a) for a, _ in dm.torsion) or "-"
            line += f"\t{dm.free_rank}\t{orders}\t{dm.x_torsion_order()}"
        return line
    return _rows(args.file, row, "-\t-\t-\t-")


def _cmd_symunion(args) -> int:
    diagrams = []
    for k in range(args.count):
        d = random_symmetric_union(args.seed + k, args.crossings, args.twists)
        diagrams.append(Diagram(d.crossings, d.extra_components, f"su_{args.seed + k}"))
    text = format_diagram_file(diagrams)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_scan(args) -> int:
    # a line that does not parse, or is not UTF-8, becomes an error record
    diagrams = parse_diagram_lines(Path(args.input).read_text("utf-8", "replace"))
    reports = scan(diagrams, args.fields, jobs=args.jobs,
                   with_deformed=args.deformed, timeout=args.timeout,
                   max_generators=args.max_generators)
    if args.format == "csv":
        text = render_csv(reports, include_timing=args.timings)
    else:
        text = render_jsonl(reports, include_timing=args.timings)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
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
    p.add_argument("--field", type=_parsed(parse_field), default="q",
                   help="q or f<p> (default q)")
    p.add_argument("--unreduced", action="store_true")
    p.add_argument("--deformed", action="store_true",
                   help="append free rank, torsion orders and xo over A[X]")
    p.set_defaults(func=_cmd_kh)

    p = sub.add_parser("symunion", help="symmetric-union generators")
    gensub = p.add_subparsers(dest="subcommand", required=True)
    g = gensub.add_parser("gen", help="generate a batch of symmetric unions")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--count", type=_at_least(0), default=1)
    g.add_argument("--crossings", type=_at_least(3), default=8,
                   help="max crossings of the random seed diagram")
    g.add_argument("--twists", default="1",
                   type=_parsed(lambda text: knot_twists(text.split(","))),
                   help="comma-separated twist counts, odd in total")
    g.add_argument("--out")
    g.set_defaults(func=_cmd_symunion)

    p = sub.add_parser("scan", help="batch invariants and conjecture flags")
    p.add_argument("--input", required=True)
    p.add_argument("--fields", default=",".join(DEFAULT_FIELDS), type=_parsed(_fields))
    p.add_argument("--jobs", type=_positive(int), default=1)
    p.add_argument("--out")
    p.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    p.add_argument("--timeout", type=_positive(float), default=None,
                   help="per-knot deadline in seconds")
    p.add_argument("--max-generators", type=_positive(int), default=None,
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

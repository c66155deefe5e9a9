"""Khovanov tables read block by block from the final complex: an oracle
for :mod:`knotrank.khovanov`, which reads every table from one graded Smith
form over A[X].

Reduced: set X = 0, keeping the integer entries of power 0, and take the
rank of each (h, q) block.  Unreduced, for knots and links alike: tensor
the one-arc complex of the cut with A[x]/(x^2), splitting each generator
in two, and take ranks again.  The ranks come from a Smith reduction that
takes each pivot by a scan of the whole matrix.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from knotrank.algebra import CoefficientField
from knotrank.khovanov import KnotScan, _entries, _with_circle


def monomial_smith(entries, p) -> list:
    """Smith reduction over A[X] (A = F_p, or Q for p = 0) of a graded
    matrix given as (target, source, c, power) for entries c * X^power,
    with integer c and power >= 0; each pivot is the least
    (power, (target, source)) left.

    Returns (order, target) for each pivot X^order; the number of pivots
    is the rank.
    """
    mat: dict[tuple, tuple] = {}
    rows: dict = {}
    cols: dict = {}
    for t, s, c, power in entries:
        c = c % p if p else c
        if c:
            mat[(t, s)] = (c, power)
            rows.setdefault(t, set()).add(s)
            cols.setdefault(s, set()).add(t)
    pivots = []
    while mat:
        (t0, s0), (c0, p0) = min(mat.items(), key=lambda kv: (kv[1][1], kv[0]))
        pivots.append((p0, t0))
        inv0 = pow(c0, -1, p) if p else Fraction(1, c0)
        col_others = [(t, mat[(t, s0)]) for t in cols[s0] if t != t0]
        row_others = [(s, mat[(t0, s)]) for s in rows[t0] if s != s0]
        for t in list(cols[s0]):
            del mat[(t, s0)]
            rows[t].discard(s0)
        for s in list(rows[t0]):
            mat.pop((t0, s), None)
            cols[s].discard(t0)
        del rows[t0], cols[s0]
        for t, (ct, pt) in col_others:
            for s, (cs, ps) in row_others:
                pnew = pt + ps - p0
                cur = mat.get((t, s))
                cnew = -ct * cs * inv0
                if cur is not None:
                    assert cur[1] == pnew, "graded Smith: power mismatch"
                    cnew += cur[0]
                if p:
                    cnew %= p
                if cnew:
                    mat[(t, s)] = (cnew, pnew)
                    rows.setdefault(t, set()).add(s)
                    cols.setdefault(s, set()).add(t)
                else:
                    mat.pop((t, s), None)
                    if t in rows:
                        rows[t].discard(s)
                    if s in cols:
                        cols[s].discard(t)
    return pivots


def _gradings(scan: KnotScan) -> dict:
    return {g: (h, q) for g, (_, h, q) in scan.gens.items()}


def homology(gradings: dict, entries, field: CoefficientField) -> dict:
    """Bigraded homology over ``field`` of a complex with integer entries.

    ``gradings`` maps each generator to its (h, q); ``entries`` holds
    (source, target, c) with the target one step up in h at the same q.
    The differential's rank on each (h, q) block, its number of Smith
    pivots, is taken off the generator counts at both ends."""
    table = Counter(gradings.values())
    blocks: dict = {}
    for s, t, c in entries:
        (h, q), (ht, qt) = gradings[s], gradings[t]
        assert ht == h + 1 and qt == q, "differential leaves its bigrading"
        blocks.setdefault((h, q), []).append((t, s, c, 0))
    for (h, q), block in blocks.items():
        r = len(monomial_smith(block, field.char))
        table[(h, q)] -= r
        table[(h + 1, q)] -= r
    return {k: v for k, v in table.items() if v}


def _split(scan: KnotScan) -> tuple[dict, list]:
    """(gradings, entries) of the one-arc complex tensored with A[x]/(x^2).

    Generator g splits into labels 1 (q+1) and x (q-1); an entry c maps
    each label to the same label, an entry c*x maps label 1 to label x,
    and t = 0 kills the rest."""
    split = {}
    for g, (h, q) in _gradings(scan).items():
        split[(g, 1)] = (h, q + 1)
        split[(g, "x")] = (h, q - 1)
    entries = []
    for s, t, c, power in _entries(scan):
        if power == 0:
            entries += [((s, 1), (t, 1), c), ((s, "x"), (t, "x"), c)]
        elif power == 1:
            entries.append(((s, 1), (t, "x"), c))
    return split, entries


def knot_tables(scan: KnotScan, field: CoefficientField) -> tuple[dict, dict]:
    """(reduced, unreduced) tables over ``field`` of a knot scan: the
    X = 0 complex and the split complex."""
    flat = [(s, t, c) for s, t, c, power in _entries(scan) if power == 0]
    return (homology(_gradings(scan), flat, field),
            homology(*_split(scan), field))


def link_table(scan: KnotScan, field: CoefficientField) -> dict:
    """Unreduced table over ``field`` of a link scan: the split complex of
    the cut, plus an unknotted circle per crossingless component other
    than the cut one (a crossingless diagram's first unknot is the arc)."""
    table = homology(*_split(scan), field)
    d = scan.diagram
    for _ in range(d.extra_components - (0 if d.crossings else 1)):
        table = _with_circle(table)
    return table

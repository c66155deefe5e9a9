"""Alexander polynomial from a dense Fox matrix and a rational determinant:
an oracle for the sparse integer Bareiss elimination of
:mod:`knotrank.alexander`.

The Fox minor has entries in Z[t] of degree at most 1, and each of its
n - 1 rows has coefficients of absolute sum at most 4 (n crossings).  So
the minor's determinant has degree below n and, by expanding it over
permutations, every coefficient is below 4^n in absolute value.  At
t = B = 2^(2n+2) its value is then a number whose signed base-B digits
(each in (-B/2, B/2]) are exactly those coefficients.  Here the matrix is
built densely from polynomial entries, evaluated entry by entry, and its
determinant is taken by Gaussian elimination over the rationals; only
the arcs are shared with the package.
"""

from __future__ import annotations

from fractions import Fraction

from knotrank.algebra import LaurentPolynomial
from knotrank.alexander import _arcs
from knotrank.diagram import Diagram


_T = LaurentPolynomial({1: 1})
_ONE_MINUS_T = LaurentPolynomial({0: 1, 1: -1})


def fox_minor(d: Diagram) -> list[list[LaurentPolynomial]]:
    """The Fox minor of the Alexander matrix with entries in Z[t], dense:
    the first n - 1 crossings' rows without the last arc's column."""
    arcs = _arcs(d)
    arc_index = {r: i for i, r in enumerate(sorted(set(arcs.values())))}
    rows = []
    for ci, (a, b, c, dd) in enumerate(d.crossings):
        o_in, _ = d.over_pair(ci)
        row = [LaurentPolynomial()] * len(arc_index)
        O = arc_index[arcs[o_in]]
        A = arc_index[arcs[a]]
        C = arc_index[arcs[c]]
        if d.signs[ci] == 1:
            row[O] += _ONE_MINUS_T
            row[A] += _T
            row[C] += -1
        else:
            # the relation row scaled by t to stay polynomial
            row[O] -= _ONE_MINUS_T
            row[A] += 1
            row[C] -= _T
        rows.append(row)
    return [row[:-1] for row in rows[:-1]]


def fox_minor_at(d: Diagram, base: int) -> list[list[int]]:
    """:func:`fox_minor` evaluated at t = ``base``, entry by entry."""
    return [[entry.evaluate(base) for entry in row] for row in fox_minor(d)]


def rational_det(m: list[list[int]]) -> int:
    """Determinant of an integer matrix by Gaussian elimination over Q."""
    m = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for k in range(len(m)):
        pivot = next((i for i in range(k, len(m)) if m[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, len(m)):
            f = m[i][k] / m[k][k]
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    assert det.denominator == 1
    return int(det)


def signed_digits(value: int, base: int) -> dict[int, int]:
    """The digits of ``value`` in base ``base``, each in (-base/2, base/2]."""
    digits = {}
    e = 0
    while value:
        d = value % base
        if 2 * d > base:
            d -= base
        if d:
            digits[e] = d
        value = (value - d) // base
        e += 1
    return digits


def alexander_by_evaluation(d: Diagram) -> LaurentPolynomial:
    """The Conway-normalized Alexander polynomial of a knot diagram, read
    from the Fox minor at t = 2^(2n+2)."""
    base = 1 << (2 * len(d.crossings) + 2)
    coeffs = signed_digits(rational_det(fox_minor_at(d, base)), base)
    assert coeffs, "Wirtinger minor vanishes"
    lo, hi = min(coeffs), max(coeffs)
    assert (hi - lo) % 2 == 0
    sign = 1 if sum(coeffs.values()) > 0 else -1
    return LaurentPolynomial({e - (hi + lo) // 2: sign * c
                              for e, c in coeffs.items()})

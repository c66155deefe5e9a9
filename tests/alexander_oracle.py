"""Alexander polynomial from one integer determinant: an oracle for the
polynomial Bareiss elimination of :mod:`knotrank.alexander`.

The Fox minor has entries in Z[t] of degree at most 1, and each of its
n - 1 rows has coefficients of absolute sum at most 4 (n crossings).  So
the minor's determinant has degree below n and, by expanding it over
permutations, every coefficient is below 4^n in absolute value.  At
t = B = 2^(2n+2) its value is then a number whose signed base-B digits
(each in (-B/2, B/2]) are exactly those coefficients.  The determinant of
the integer matrix is taken by Gaussian elimination over the rationals,
so no polynomial arithmetic is involved before the digits are read.
"""

from __future__ import annotations

from fractions import Fraction

from knotrank.algebra import LaurentPolynomial
from knotrank.alexander import _arcs, _fox_rows
from knotrank.diagram import Diagram


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
    n = len(d.crossings)
    arcs = _arcs(d)
    arc_index = {r: i for i, r in enumerate(sorted(set(arcs.values())))}
    base = 1 << (2 * n + 2)
    minor = [[entry.evaluate(base) for entry in row[:-1]]
             for row in _fox_rows(d, arcs, arc_index)[:-1]]
    coeffs = signed_digits(rational_det(minor), base)
    assert coeffs, "Wirtinger minor vanishes"
    lo, hi = min(coeffs), max(coeffs)
    assert (hi - lo) % 2 == 0
    sign = 1 if sum(coeffs.values()) > 0 else -1
    return LaurentPolynomial({e - (hi + lo) // 2: sign * c
                              for e, c in coeffs.items()})

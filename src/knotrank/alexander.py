"""Alexander and Conway polynomials via Fox calculus.

The Wirtinger presentation of the knot group has one generator per arc
(maximal over-strand) and one relation per crossing.  Abelianizing the
free derivatives of the relations gives the Alexander matrix over
Z[t, 1/t]; any (n-1)x(n-1) minor determinant is the Alexander polynomial
up to a unit.  The determinant is computed exactly by fraction-free
(Bareiss) elimination on sparse polynomial rows that takes the +-1
entries as pivots first: every Fox row holds one, and cancelling them
leaves a small block for the fraction-free steps.  It is then normalized
to the Conway form (symmetric, value 1 at t = 1).
"""

from __future__ import annotations

import time
from typing import NamedTuple

from ._unionfind import UnionFind
from .algebra import LaurentPolynomial
from .diagram import Diagram
from .khovanov import ResourceLimit


def _arcs(d: Diagram) -> dict:
    """Map each edge to its arc representative (edges joined over crossings)."""
    arcs = UnionFind()
    for ci in range(len(d.crossings)):
        arcs.union(*d.over_pair(ci))
    return {e: arcs.find(e) for comp in d.components for e in comp}


_UNITS = ({0: 1}, {0: -1})     # the coefficients of the pivots +-1


def _bareiss_det(m: list[list[LaurentPolynomial]],
                 deadline: float | None = None) -> LaurentPolynomial:
    """Fraction-free (Bareiss) determinant over Z[t] with pivoting: every
    division is exact in the ring.  ``deadline``, a :func:`time.monotonic`
    time, is checked before each pivot.  The Fox matrix is sparse, so a row
    is a dict from column to nonzero entry.

    Each pivot is a +-1 constant of the remaining block when one is left
    (every Fox row holds one), else the first entry of the leftmost free
    column; the row and column swaps give the sign.  While every pivot so
    far is a unit, the rows left are the Schur complement of the pivots
    taken: a row with entry ``a`` in the pivot column subtracts ``a`` /
    pivot times the pivot row, which forms only the products ``a * y``.
    From the first pivot that is not a unit on, a row below is rebuilt from
    its entries times the pivot, minus ``a`` times the pivot row's, and
    divided by the previous pivot of these steps."""
    n = len(m)
    if n == 0:
        return LaurentPolynomial({0: 1})
    rows = [{j: x for j, x in enumerate(row) if x} for row in m]
    cols = list(range(n))       # cols[k:] are the free columns
    sign = 1
    prev = None     # the previous pivot, once one is not a unit
    for k in range(n - 1):
        if deadline is not None and time.monotonic() > deadline:
            raise ResourceLimit("Alexander deadline exceeded")
        found = next(((i, j) for i in range(k, n) for j, x in rows[i].items()
                      if x.coeffs in _UNITS), None)
        if found is None:
            c = cols[k]
            found = next(((i, c) for i in range(k, n) if c in rows[i]), None)
            if found is None:
                return LaurentPolynomial()
        r, c = found
        if r != k:
            rows[k], rows[r] = rows[r], rows[k]
            sign = -sign
        p = cols.index(c, k)
        if p != k:
            cols[k], cols[p] = c, cols[k]
            sign = -sign
        pivot = rows[k].pop(c)      # rows[k] keeps the entries of free columns
        if prev is None and pivot.coeffs in _UNITS:
            u = pivot.coeffs[0]
            sign *= u
            for row in rows[k + 1:]:
                a = row.pop(c, None)
                if a is None:
                    continue
                b = a if u == -1 else -a
                for j, y in rows[k].items():
                    x = row[j] + b * y if j in row else b * y
                    if x:
                        row[j] = x
                    else:
                        del row[j]
            continue
        for i in range(k + 1, n):
            a = rows[i].pop(c, None)
            row = {j: x * pivot for j, x in rows[i].items()}
            if a:
                for j, y in rows[k].items():
                    row[j] = row[j] - a * y if j in row else -(a * y)
            rows[i] = {j: x if prev is None else x.exact_div(prev)
                       for j, x in row.items() if x}
        prev = pivot
    return next(iter(rows[n - 1].values()), LaurentPolynomial()) * sign


_T = LaurentPolynomial({1: 1})
_ONE_MINUS_T = LaurentPolynomial({0: 1, 1: -1})


def _fox_rows(d: Diagram, arcs: dict, arc_index: dict):
    """Rows of the Alexander matrix, with entries in Z[t]."""
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
    return rows


def alexander_polynomial(d: Diagram,
                         deadline: float | None = None) -> LaurentPolynomial:
    """The Conway-normalized Alexander polynomial of a knot diagram:
    symmetric under t -> 1/t and equal to 1 at t = 1.

    Every Fox row sums to zero, so the minors that drop one column of
    the first n - 1 rows agree up to sign; the last column is dropped.
    Past ``deadline``, a :func:`time.monotonic` time, the determinant
    stops at its next pivot with :class:`.ResourceLimit`."""
    if not d.is_knot:
        raise ValueError("Alexander polynomial implemented for knots only")
    arcs = _arcs(d)
    arc_index = {r: i for i, r in enumerate(sorted(set(arcs.values())))}
    rows = _fox_rows(d, arcs, arc_index)
    p = _bareiss_det([row[:-1] for row in rows[:-1]], deadline)
    if not p:
        raise ValueError("Wirtinger minor vanishes")
    return _conway_normalize(p)


def _conway_normalize(p: LaurentPolynomial) -> LaurentPolynomial:
    span = p.max_exp - p.min_exp
    if span % 2:
        raise ValueError("odd exponent span cannot be symmetrized")
    centered = p.shift(-(p.max_exp + p.min_exp) // 2)
    if centered != centered.invert_variable():
        raise ValueError("minor determinant is not symmetrizable")
    at_one = centered.evaluate(1)
    if at_one == 1:
        return centered
    if at_one == -1:
        return -centered
    raise ValueError(f"normalized polynomial evaluates to {at_one} at t=1")


class ConwayPotential(NamedTuple):
    """Conway potential of a knot: 1 + a2 z^2 + a4 z^4 + ..."""

    coeffs: tuple  # (a0, a2, a4, ...)

    @property
    def a2(self) -> int:
        return self.coeffs[1] if len(self.coeffs) > 1 else 0


def conway_potential(delta: LaurentPolynomial) -> ConwayPotential:
    """Solve Delta(t) = nabla(z) under z = t^(-1/2) - t^(1/2).

    Even powers of z are powers of s := z^2 = t - 2 + 1/t, and s^k has top
    term t^k, so the coefficients a_{2k} peel off Delta from its top degree
    down; the remainder must then be zero.
    """
    if delta != delta.invert_variable() or delta.evaluate(1) != 1:
        raise ValueError("input is not a Conway-normalized knot polynomial")
    s = LaurentPolynomial({1: 1, 0: -2, -1: 1})
    powers = [LaurentPolynomial({0: 1})]
    for _ in range(delta.max_exp):
        powers.append(powers[-1] * s)
    rest = delta
    coeffs = [0] * len(powers)
    for k in reversed(range(len(powers))):
        coeffs[k] = rest.coeffs.get(k, 0)
        rest = rest - powers[k] * coeffs[k]
    if rest:
        raise ValueError("Conway potential substitution check failed")
    return ConwayPotential(tuple(coeffs))

"""Alexander and Conway polynomials via Fox calculus.

The Wirtinger presentation of the knot group has one generator per arc
(maximal over-strand) and one relation per crossing.  Abelianizing the
free derivatives of the relations gives the Alexander matrix over
Z[t, 1/t]; any (n-1)x(n-1) minor determinant is the Alexander polynomial
up to a unit.  With n crossings, each entry of the minor has degree at
most 1 and each row has coefficients of absolute sum at most 4, so its
determinant, and every minor of it, has degree below n and, expanded over
permutations, coefficients below 4^n in absolute value.  So the minor is
evaluated at t = B = 2^(2n+2), its one integer determinant is taken
exactly by one Bareiss elimination that takes the +-1 entries as pivots
first, and the polynomial is read back from the signed base-B digits of
that value (each in (-B/2, B/2]).  It is then normalized to the Conway
form (symmetric, value 1 at t = 1).
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


def _bareiss_det(rows: list[dict], deadline: float | None = None) -> int:
    """Fraction-free (Bareiss) determinant of a square integer matrix given
    as sparse rows, dicts from column to nonzero entry, which it consumes.
    ``deadline``, a :func:`time.monotonic` time, is checked before each
    pivot.

    Each pivot is the first +-1 entry of the remaining block in row order
    when one is left (every Fox row holds one), else the first entry of the
    leftmost free column; the row and column swaps give the sign, and a
    negative pivot's row is negated, which flips it.  Each row below, with
    entry ``a`` in the pivot column, becomes its entries times the pivot
    minus ``a`` times the pivot row's, divided exactly by the previous
    pivot (1 before the first): a pivot of 1 after a pivot of 1 only
    subtracts ``a`` times its row, and a row with no entry in the pivot
    column stays as it is when the pivot equals the previous one.  The last
    pivot, times the sign, is the determinant.  On the Fox minor at t = B
    every entry met is the value of a minor of the polynomial matrix, with
    coefficients below B/2, so only the constants +-1 evaluate to +-1 and
    each step is the same elimination over Z[t], evaluated at t = B."""
    n = len(rows)
    cols = list(range(n))       # cols[k:] are the free columns
    sign = prev = 1
    for k in range(n):
        if deadline is not None and time.monotonic() > deadline:
            raise ResourceLimit("Alexander deadline exceeded")
        found = next(((i, j) for i in range(k, n) for j, x in rows[i].items()
                      if x in (1, -1)), None)
        if found is None:
            c = cols[k]
            found = next(((i, c) for i in range(k, n) if c in rows[i]), None)
            if found is None:
                return 0
        r, c = found
        if r != k:
            rows[k], rows[r] = rows[r], rows[k]
            sign = -sign
        p = cols.index(c, k)
        if p != k:
            cols[k], cols[p] = c, cols[k]
            sign = -sign
        top = rows[k]
        pivot = top.pop(c)      # top keeps the entries of free columns
        if pivot < 0:
            pivot, sign = -pivot, -sign
            for j in top:
                top[j] = -top[j]
        for row in rows[k + 1:]:
            a = row.pop(c, 0)
            if not a and pivot == prev:
                continue
            if pivot != 1:
                for j in row:
                    row[j] *= pivot
            for j, y in top.items():
                x = row.get(j, 0) - a * y
                if x:
                    row[j] = x
                else:
                    row.pop(j, None)
            if prev != 1:
                for j in row:
                    row[j] //= prev
        prev = pivot
    return sign * prev


def _fox_rows(d: Diagram, base: int) -> list[dict]:
    """The Fox minor at t = ``base`` as sparse rows: the first n - 1
    crossings' rows of the Alexander matrix, without the last arc's column,
    each with its columns in order.  A negative crossing's row is scaled by
    t to stay polynomial."""
    arcs = _arcs(d)
    arc_index = {r: i for i, r in enumerate(sorted(set(arcs.values())))}
    last = len(arc_index) - 1
    rows = []
    for ci, (a, _, c, _) in enumerate(d.crossings[:-1]):
        o = d.over_pair(ci)[0]
        if d.signs[ci] == 1:
            terms = ((o, 1 - base), (a, base), (c, -1))
        else:
            terms = ((o, base - 1), (a, 1), (c, -base))
        row: dict[int, int] = {}
        for e, x in terms:
            j = arc_index[arcs[e]]
            row[j] = row.get(j, 0) + x
        rows.append({j: row[j] for j in sorted(row) if row[j] and j != last})
    return rows


def _signed_digits(value: int, base: int) -> dict[int, int]:
    """The nonzero digits of ``value`` in the power-of-two base ``base``,
    each in (-base/2, base/2], by exponent."""
    shift, mask = base.bit_length() - 1, base - 1
    digits = {}
    e = 0
    while value:
        x = value & mask
        if 2 * x > base:
            x -= base
        if x:
            digits[e] = x
        value = (value - x) >> shift
        e += 1
    return digits


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
    base = 1 << (2 * len(d.crossings) + 2)
    value = _bareiss_det(_fox_rows(d, base), deadline)
    if not value:
        raise ValueError("Wirtinger minor vanishes")
    return _conway_normalize(LaurentPolynomial(_signed_digits(value, base)))


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

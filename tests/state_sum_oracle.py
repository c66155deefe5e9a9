"""Brute-force Kauffman state sum: an oracle for the Jones contraction.

Sums the Kauffman bracket of the closed diagram in the variable A over
all 2^n states, so it is for small diagrams only.  The Jones variant
normalizes the bracket by the writhe, divides by the loop value and
rewrites it in q = A^(-2); it shares none of the cut contraction of
:mod:`knotrank.jones`, which works in q directly.
"""

from __future__ import annotations

from knotrank.algebra import LaurentPolynomial
from knotrank.diagram import Diagram

# loop value of the bracket: -A^2 - A^{-2}
_DELTA_A = LaurentPolynomial({2: -1, -2: -1})


def exact_div(p: LaurentPolynomial, divisor: LaurentPolynomial) -> LaurentPolynomial:
    """Exact division over Z; raises ValueError at the first step
    whose leading remainder the divisor's leading coefficient does not
    divide, or whose quotient term falls below the lowest possible."""
    if not divisor:
        raise ZeroDivisionError("division by zero polynomial")
    if not p:
        return LaurentPolynomial()
    rem = dict(p.coeffs)
    dmax = divisor.max_exp
    dlead = divisor.coeffs[dmax]
    lowest = p.min_exp - divisor.min_exp  # smallest possible quotient exponent
    out = {}
    while rem:
        e = max(rem)
        exp = e - dmax
        q, r = divmod(rem[e], dlead)
        if r or exp < lowest:
            raise ValueError("inexact polynomial division")
        out[exp] = q
        for de, dc in divisor.coeffs.items():
            k = de + exp
            s = rem.get(k, 0) - dc * q
            if s:
                rem[k] = s
            else:
                rem.pop(k, None)
    return LaurentPolynomial(out)


def kauffman_bracket_state_sum(d: Diagram) -> LaurentPolynomial:
    """Independent oracle: sum over all 2^n Kauffman states."""
    n = len(d.crossings)
    if n > 16:
        raise ValueError("state-sum oracle limited to 16 crossings")
    total = LaurentPolynomial()
    for bits in range(1 << n):
        parent: dict = {}

        def find(x):
            while parent.setdefault(x, x) != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x, y):
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[rx] = ry
                return 0
            return 1  # closing a loop

        circles = 0
        exp = 0
        for ci, (a, b, c, dd) in enumerate(d.crossings):
            if bits >> ci & 1:
                exp -= 1
                circles += union(a, dd) + union(b, c)
            else:
                exp += 1
                circles += union(a, b) + union(c, dd)
        # circle count: each union that closes a loop adds one
        term = LaurentPolynomial({exp: 1})
        for _ in range(circles + d.extra_components):
            term = term * _DELTA_A
        total = total + term
    return total


def _normalize(bracket: LaurentPolynomial, writhe: int) -> LaurentPolynomial:
    """(-A)^(-3w) * bracket / delta, rewritten in q = A^(-2)."""
    signed = bracket.shift(-3 * writhe)
    if writhe % 2:
        signed = -signed
    v_a = exact_div(signed, _DELTA_A)
    out = {}
    for e, c in v_a.coeffs.items():
        if e % 2:
            raise ValueError("bracket with odd A-exponent after normalization")
        out[-e // 2] = c
    return LaurentPolynomial(out)


def jones_state_sum(d: Diagram) -> LaurentPolynomial:
    """Oracle variant of :func:`knotrank.jones.jones` (exponential time)."""
    return _normalize(kauffman_bracket_state_sum(d), d.writhe)

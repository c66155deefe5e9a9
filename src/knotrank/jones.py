"""Jones polynomials via the Kauffman bracket.

The production path contracts the diagram one crossing at a time, keeping
a linear combination of crossingless matchings of the open boundary (the
contraction order is chosen by the boundary-minimizing heuristic shared
with the homology engine).

Values are kept in the variable q = t^(1/2), so that links (whose Jones
polynomials involve half-integer powers of t) still have integer
exponents: knots use even q-powers only, two-component links odd ones.
"""

from __future__ import annotations

from ._tangle import ARCS_0, ARCS_1, CrossingStep, merge_matching, scan_order
from .algebra import LaurentPolynomial
from .diagram import Diagram

# loop value of the bracket: -A^2 - A^{-2}
_DELTA_A = LaurentPolynomial({2: -1, -2: -1})


def kauffman_bracket(d: Diagram, order: list[int] | None = None) -> LaurentPolynomial:
    """Bracket polynomial in A with the empty-diagram normalization
    <empty> = 1, so a k-component crossingless unlink evaluates to
    (-A^2 - A^{-2})^k.  The contraction runs in ``order``, by default that
    of :func:`scan_order`."""
    states = {(): LaurentPolynomial.one()}
    open_points: set = set()
    for ci in scan_order(d) if order is None else order:
        step = CrossingStep(d, ci, open_points)
        new_states: dict = {}
        for matching, poly in states.items():
            for arcs, exp in ((ARCS_0, 1), (ARCS_1, -1)):
                new_matching, circles = merge_matching(matching, step, arcs)
                weight = LaurentPolynomial({exp: 1})
                for _ in circles:
                    weight = weight * _DELTA_A
                contrib = poly * weight
                if new_matching in new_states:
                    new_states[new_matching] = new_states[new_matching] + contrib
                else:
                    new_states[new_matching] = contrib
        states = new_states
        open_points = step.next_points(open_points)
    assert list(states) == [()], "contraction did not close the diagram"
    value = states[()]
    for _ in range(d.extra_components):
        value = value * _DELTA_A
    return value


def _normalize(bracket: LaurentPolynomial, writhe: int) -> LaurentPolynomial:
    """(-A)^(-3w) * bracket / delta, rewritten in q = A^(-2)."""
    signed = bracket.shift(-3 * writhe)
    if writhe % 2:
        signed = -signed
    v_a = signed.exact_div(_DELTA_A)
    out = {}
    for e, c in v_a.coeffs.items():
        if e % 2:
            raise ValueError("bracket with odd A-exponent after normalization")
        out[-e // 2] = c
    return LaurentPolynomial(out)


def jones(d: Diagram, order: list[int] | None = None) -> LaurentPolynomial:
    """The Jones polynomial of an oriented link diagram in q = t^(1/2),
    normalized so V(unknot) = 1 (``order`` as in :func:`kauffman_bracket`)."""
    return _normalize(kauffman_bracket(d, order), d.writhe)


def det_from_jones(v: LaurentPolynomial) -> int:
    """|V(-1)| of a Jones polynomial ``v`` with integer t-powers; one with a
    half-integer t-power (a link of an even number of components) raises
    ValueError."""
    return abs(v.q_to_t().evaluate(-1))

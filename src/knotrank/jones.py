"""Jones polynomials by contracting the diagram cut open at one edge.

The contraction scans the crossings one at a time, keeping a linear
combination of crossingless matchings of the open boundary (the order is
the boundary-minimizing one shared with the homology engine).  Like the
Khovanov scan, it cuts the diagram open at an edge of the last crossing
of the order, so the result is a (1,1)-tangle: a scalar times the strand,
and that scalar is V.  Nothing is divided.

Values are kept in the variable q = t^(1/2), so that links (whose Jones
polynomials involve half-integer powers of t) still have integer
exponents: knots use even q-powers only, two-component links odd ones.
Each smoothing's weight folds in the writhe factor, and a loop weighs
-q - q^-1.
"""

from __future__ import annotations

from ._tangle import ARCS_0, ARCS_1, CrossingStep, merge_matching, scan_order
from .algebra import LaurentPolynomial
from .diagram import Diagram

_LOOP = LaurentPolynomial({1: -1, -1: -1})
# (0-smoothing, 1-smoothing) weights by crossing sign: the bracket's A^(+-1),
# A = q^(-1/2), times the writhe factor -q^(3/2) (positive), -q^(-3/2) (negative)
_WEIGHTS = {1: (LaurentPolynomial({1: -1}), LaurentPolynomial({2: -1})),
            -1: (LaurentPolynomial({-2: -1}), LaurentPolynomial({-1: -1}))}


def jones(d: Diagram, order: list[int] | None = None) -> LaurentPolynomial:
    """The Jones polynomial of an oriented link diagram in q = t^(1/2),
    normalized so V(unknot) = 1.  The contraction runs in ``order``, by
    default that of :func:`scan_order`; a crossingless diagram is the
    strand times one loop per further unknot."""
    if order is None:
        order = scan_order(d)
    value = LaurentPolynomial({0: 1})
    if not order:
        for _ in range(d.extra_components - 1):
            value = value * _LOOP
        return value
    cut = min(d.crossings[order[-1]])
    states = {(): value}
    open_points: set = set()
    for ci in order:
        step = CrossingStep(d, ci, open_points, cut)
        new_states: dict = {}
        for matching, poly in states.items():
            for arcs, weight in zip((ARCS_0, ARCS_1), _WEIGHTS[step.sign]):
                nm, circles = merge_matching(matching, step, arcs)
                for _ in circles:
                    weight = weight * _LOOP
                new_states[nm] = poly * weight + new_states.get(nm, 0)
        states = new_states
        open_points = step.next_points(open_points)
    assert list(states) == [((-2, -1),)], "contraction did not close to a strand"
    value = states[((-2, -1),)]
    for _ in range(d.extra_components):
        value = value * _LOOP
    return value


def det_from_jones(v: LaurentPolynomial) -> int:
    """|V(-1)| of a Jones polynomial ``v`` with integer t-powers; one with a
    half-integer t-power (a link of an even number of components) raises
    ValueError."""
    return abs(v.q_to_t().evaluate(-1))

"""Jones polynomials by contracting the diagram cut open at one edge.

The contraction scans the crossings one at a time, keeping a linear
combination of crossingless matchings of the open boundary (the order is
the boundary-minimizing one shared with the homology engine).  It takes
its crossings from the :func:`._tangle.walk` that the Khovanov scan takes
too, and the walk owns the cut: by default an edge of the last crossing
of the order.  So the result is a (1,1)-tangle: a scalar times the strand,
and that scalar is V.  Nothing is divided.

Values are kept in the variable q = t^(1/2), so that links (whose Jones
polynomials involve half-integer powers of t) still have integer
exponents: knots use even q-powers only, two-component links odd ones.
Each smoothing's weight folds in the writhe factor, and a loop weighs
-q - q^-1.  A state's value is a plain exponent -> coefficient dict.
"""

from __future__ import annotations

import time

from ._tangle import SHIFTS, default_cut, merge_matching, scan_order, walk
from .algebra import LaurentPolynomial
from .diagram import Diagram
from .khovanov import ResourceLimit

# (-q - q^-1)^k for the k <= 2 loops that one smoothing closes
_LOOPS = ({0: 1}, {1: -1, -1: -1}, {2: 1, 0: 2, -2: 1})


def jones(d: Diagram, order: list[int] | None = None,
          deadline: float | None = None) -> LaurentPolynomial:
    """The Jones polynomial of an oriented link diagram in q = t^(1/2),
    normalized so V(unknot) = 1.  The contraction walks ``order``, by
    default that of :func:`scan_order`, with the diagram cut open at the
    walk's default cut; a crossingless diagram has an empty walk and no
    cut, and its first unknot is the strand.  Past ``deadline``, a
    :func:`time.monotonic` time, it stops before its next step with
    :class:`.ResourceLimit`."""
    if order is None:
        order = scan_order(d)
    cut = default_cut(d, order)
    states = {(): {0: 1}}
    for step in walk(d, order, cut):
        if deadline is not None and time.monotonic() > deadline:
            raise ResourceLimit("Jones deadline exceeded")
        new_states: dict = {}
        for matching, poly in states.items():
            # smoothing r weighs -q^e, e its q shift: the bracket's
            # A^(+-1), A = q^(-1/2), times the writhe factor -q^(+-3/2)
            for r, (_, e) in enumerate(SHIFTS[step.sign]):
                nm, circles = merge_matching(matching, step, r)
                acc = new_states.setdefault(nm, {})
                for e2, c2 in _LOOPS[len(circles)].items():
                    for e1, c1 in poly.items():
                        acc[e + e1 + e2] = acc.get(e + e1 + e2, 0) - c1 * c2
        states = {nm: {e: c for e, c in poly.items() if c}
                  for nm, poly in new_states.items()}
    [(strand, value)] = states.items()
    assert strand == (() if cut is None else ((-2, -1),)), \
        "contraction did not close to a strand"
    value = LaurentPolynomial(value)
    # each unknot other than the strand is a loop
    for _ in range(d.extra_components - (cut is None)):
        value = value * LaurentPolynomial(_LOOPS[1])
    return value


def det_from_jones(v: LaurentPolynomial) -> int:
    """|V(-1)| of a Jones polynomial ``v`` with integer t-powers; one with a
    half-integer t-power (a link of an even number of components) raises
    ValueError."""
    return abs(v.q_to_t().evaluate(-1))

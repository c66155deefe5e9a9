"""The Arf invariant, computed by several independent routes.

For a knot the Arf invariant in Z/2 can be read off from

  * the signed determinant mod 8,
  * the Alexander polynomial mod (2, 1 + t^4),
  * the Jones polynomial mod (2, 1 + t^4),
  * the sign of V(i), and
  * the parity of the z^2 coefficient of the Conway potential.

All five are computed and cross-checked; a disagreement is reported in
the result rather than raised, so batch scans can flag the diagram.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .algebra import LaurentPolynomial, mod_2_t4, zeta8_to_iroot2
from .alexander import alexander_polynomial, conway_potential
from .diagram import Diagram
from .jones import jones

ROUTE_NAMES = ("levine", "alexander_mod", "jones_mod", "jones_at_i", "conway_a2")


class ArfResult(NamedTuple):
    value: int
    routes: dict
    consistent: bool
    jones: LaurentPolynomial    # the Jones polynomial the routes read

    def route_vector(self) -> str:
        return ",".join(f"{k}={self.routes[k]}" for k in ROUTE_NAMES)


def arf_from_levine(sdet: int) -> int:
    """The unique a in {0,1} with sdet = 4a + 1 mod 8."""
    if sdet % 2 == 0:
        raise ValueError("signed determinant of a knot must be odd")
    r = sdet % 8
    if r == 1:
        return 0
    if r == 5:
        return 1
    raise ValueError(f"signed determinant {sdet} is not 1 mod 4; not a knot determinant")


# Arf of the two classes mod (2, 1 + t^4) of a knot polynomial, as bits of
# (t^3, t^2, t, 1): 1, and 1 + t + t^3, the class of t^-1 + 1 + t
_KNOT_CLASSES = {0b0001: 0, 0b1011: 1}


def _class_to_arf(bits: int, source: str) -> int:
    if bits not in _KNOT_CLASSES:
        raise ValueError(f"{source} reduces to {bits:#06b}, outside the two knot classes")
    return _KNOT_CLASSES[bits]


def arf_from_alexander(delta: LaurentPolynomial) -> int:
    """Reduction of the Alexander polynomial mod (2, 1 + t^4)."""
    return _class_to_arf(mod_2_t4(delta), "Alexander polynomial")


def arf_from_jones(v: LaurentPolynomial) -> int:
    """Reduction of a knot Jones polynomial mod (2, 1 + t^4)."""
    return _class_to_arf(mod_2_t4(v.q_to_t()), "Jones polynomial")


def arf_from_jones_at_i(value: tuple) -> int:
    """V_K(i) = (-1)^Arf for a knot; value in the basis (1, i, sqrt2, i*sqrt2)."""
    if value == (1, 0, 0, 0):
        return 0
    if value == (-1, 0, 0, 0):
        return 1
    raise ValueError(f"V(i) = {value} is not +-1; not a knot value")


def arf(d: Diagram, delta: LaurentPolynomial | None = None,
        order: list[int] | None = None, deadline: float | None = None) -> ArfResult:
    """All five routes with a consensus value and consistency flag.

    ``delta`` is the Alexander polynomial of ``d`` if the caller has it;
    otherwise it is computed here.  ``order`` is the crossing order the
    Jones contraction runs in, if the caller has one; ``deadline`` goes to
    Alexander and Jones."""
    if not d.is_knot:
        raise ValueError("Arf invariant computed for knots only")
    if delta is None:
        delta = alexander_polynomial(d, deadline)
    v = jones(d, order, deadline)
    routes = {}
    routes["levine"] = arf_from_levine(delta.evaluate(-1))
    routes["alexander_mod"] = arf_from_alexander(delta)
    routes["jones_mod"] = arf_from_jones(v)
    routes["jones_at_i"] = arf_from_jones_at_i(
        zeta8_to_iroot2(v.evaluate_zeta8()))
    routes["conway_a2"] = conway_potential(delta).a2 % 2
    counts = Counter(routes.values())
    value, _ = counts.most_common(1)[0]
    return ArfResult(value=value, routes=routes, consistent=len(counts) == 1,
                     jones=v)

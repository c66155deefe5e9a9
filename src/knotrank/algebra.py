"""Exact arithmetic underlying the invariant computations.

Everything here is exact: prime fields, Laurent polynomials with integer
coefficients (only ``evaluate`` returns a ``fractions.Fraction``, at a
non-unit), classes in the 16-element quotient ring F2[t]/(1+t^4) as plain
4-bit ints, and the cyclotomic integers Z[zeta_8] used for evaluating link
polynomials at fourth roots of unity.  Floating point is never used.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping


# ---------------------------------------------------------------------------
# coefficient fields


class CoefficientField:
    """The rationals (``char == 0``) or a prime field F_p with p < 2^31."""

    __slots__ = ("char",)

    def __init__(self, char: int):
        if not 0 <= char < 1 << 31:
            raise ValueError("characteristic must be 0 or a prime below 2^31")
        if char and (char < 2 or any(char % d == 0
                                     for d in range(2, math.isqrt(char) + 1))):
            raise ValueError(f"{char} is not prime")
        self.char = char

    def __eq__(self, other):
        return other.__class__ is CoefficientField and self.char == other.char

    def __hash__(self):
        return hash((self.char,))

    @property
    def name(self) -> str:
        return "q" if self.char == 0 else f"f{self.char}"

    def __repr__(self):
        return f"CoefficientField({self.name})"


QQ = CoefficientField(0)
F2 = CoefficientField(2)
F3 = CoefficientField(3)
F211 = CoefficientField(211)


def parse_field(token: str) -> CoefficientField:
    """Parse a field spec: ``q`` for the rationals, ``f<p>`` for F_p."""
    token = token.strip().lower()
    if token in ("q", "qq", "rational", "rationals"):
        return QQ
    if token.startswith("f") and token[1:].isdigit() and int(token[1:]) >= 2:
        return CoefficientField(int(token[1:]))
    raise ValueError(f"unknown field spec {token!r} (expected 'q' or 'f<p>')")


# ---------------------------------------------------------------------------
# Laurent polynomials


class LaurentPolynomial:
    """A Laurent polynomial in one variable with integer coefficients.

    The variable is implicit; knot polynomials use q (with q^2 = t) so that
    links with half-integer t-powers still have integer exponents.  Stored
    sparsely as exponent -> coefficient with no zero coefficients.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        clean = {}
        if coeffs:
            for e, c in coeffs.items():
                if c:
                    clean[int(e)] = c
        self.coeffs = clean

    # -- ring structure ----------------------------------------------------

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPolynomial({0: other})
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        # a constant equals its int, so it must hash like it
        if self.coeffs.keys() <= {0}:
            return hash(self.coeffs.get(0, 0))
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPolynomial({0: other})
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return LaurentPolynomial(out)

    def __neg__(self):
        return LaurentPolynomial({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPolynomial({e: c * other for e, c in self.coeffs.items()})
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return LaurentPolynomial(out)

    __rmul__ = __mul__

    def shift(self, k: int) -> "LaurentPolynomial":
        """Multiply by variable^k."""
        return LaurentPolynomial({e + k: c for e, c in self.coeffs.items()})

    def invert_variable(self) -> "LaurentPolynomial":
        """Substitute the variable by its inverse."""
        return LaurentPolynomial({-e: c for e, c in self.coeffs.items()})

    # -- structure queries ---------------------------------------------------

    @property
    def min_exp(self) -> int:
        return min(self.coeffs) if self.coeffs else 0

    @property
    def max_exp(self) -> int:
        return max(self.coeffs) if self.coeffs else 0

    # -- conversions / evaluation -------------------------------------------

    def q_to_t(self) -> "LaurentPolynomial":
        """Reinterpret a q-polynomial as a t-polynomial via t = q^2.

        Raises if an odd q-exponent is present (half-integer t-power).
        """
        out = {}
        for e, c in self.coeffs.items():
            if e % 2:
                raise ValueError("odd q-exponent: polynomial has half-integer t-powers")
            out[e // 2] = c
        return LaurentPolynomial(out)

    def evaluate(self, x):
        """Evaluate at an exact scalar (int or Fraction); exact result.

        Negative exponents require x to be invertible; x == 0 raises.
        """
        if not self.coeffs:
            return 0
        if x == 0:
            if self.min_exp < 0:
                raise ZeroDivisionError("evaluation at 0 with negative exponents present")
            return self.coeffs.get(0, 0)
        if self.min_exp < 0 and isinstance(x, int):
            x = Fraction(x)
        total = 0
        for e, c in self.coeffs.items():
            total += c * x ** e
        if isinstance(total, Fraction) and total.denominator == 1:
            return total.numerator
        return total

    def evaluate_zeta8(self) -> tuple:
        """Evaluate at zeta_8, returning (c0, c1, c2, c3) in Z[zeta_8].

        The result represents c0 + c1*z + c2*z^2 + c3*z^3 with z^4 = -1.
        """
        acc = [0, 0, 0, 0]
        for e, c in self.coeffs.items():
            k = e % 8
            sign = -1 if k >= 4 else 1
            acc[k % 4] += sign * c
        return tuple(acc)

    # -- text form -----------------------------------------------------------

    def serialize(self, var: str = "q") -> str:
        """Sparse ``coeff*var^exp`` terms joined by '+', exponents ascending."""
        if not self.coeffs:
            return "0"
        return "+".join(f"{self.coeffs[e]}*{var}^{e}" for e in sorted(self.coeffs))

    def __repr__(self):
        return f"LaurentPolynomial({self.serialize()})"


# ---------------------------------------------------------------------------
# the ring F2[t] / (1 + t^4)


def mod_2_t4(p: LaurentPolynomial) -> int:
    """The class of an integer t-polynomial in F2[t]/(1+t^4) as a 4-bit int.

    Since t^4 = 1 there, bit i is the parity of the coefficients on the
    exponents = i (mod 4); the sum of two classes is their XOR.
    """
    bits = 0
    for e, c in p.coeffs.items():
        if c % 2:
            bits ^= 1 << (e % 4)
    return bits


# ---------------------------------------------------------------------------
# Z[zeta_8] values in the basis (1, i, sqrt2, i*sqrt2)


def zeta8_to_iroot2(v: tuple) -> tuple:
    """Convert (c0,c1,c2,c3) with z^4=-1 into the basis (1, i, sqrt2, i*sqrt2).

    Uses sqrt2 = z - z^3 and i*sqrt2 = z + z^3; raises if the value does not
    lie in Z[i, sqrt2] (possible for Z[zeta_8] elements outside that subring).
    """
    c0, c1, c2, c3 = v
    if (c1 - c3) % 2 or (c1 + c3) % 2:
        raise ValueError(f"value {v} lies outside Z[i, sqrt2]")
    return (c0, c2, (c1 - c3) // 2, (c1 + c3) // 2)


def format_iroot2(v: tuple) -> str:
    a, b, c, d = zeta8_to_iroot2(v)
    parts = []
    for coeff, sym in ((a, ""), (b, "i"), (c, "sqrt2"), (d, "i*sqrt2")):
        if coeff:
            parts.append(f"{coeff}{'*' + sym if sym else ''}")
    return "+".join(parts).replace("+-", "-") if parts else "0"

"""The Frobenius algebra V = A[x]/(x^2 - t) by iterated comultiplication:
an oracle for :func:`knotrank.cobordism.open_expansion`, which gives the
same expansions in closed form.

H = m . Delta is the handle operator: H(1) = 2x, H(x) = 2t.
"""

from __future__ import annotations

from functools import lru_cache


def _monomial(genus: int, dots: int):
    """x^dots * H^genus(1) as (integer coeff, x-exponent in {0,1}, t-power)."""
    coeff = 1 << genus
    xexp = dots + (genus & 1)
    tpow = genus >> 1
    tpow += xexp >> 1
    xexp &= 1
    return coeff, xexp, tpow


def closed_value(genus: int, dots: int):
    """Evaluation of a closed component: counit of x^dots H^genus(1)."""
    coeff, xexp, tpow = _monomial(genus, dots)
    if xexp == 0:
        return None
    return coeff, tpow


@lru_cache(maxsize=None)
def _delta_tensor(m: int, xexp: int):
    """Delta^(m-1)(x^xexp) as {bitmask over m outputs: (coeff, t-power)}."""
    if m == 1:
        return {xexp: (1, 0)}
    prev = _delta_tensor(m - 1, xexp)
    out = {}
    for mask, (c, t) in prev.items():
        low = mask & 1
        rest = mask >> 1
        # comultiply the lowest tensor factor into two
        if low == 0:
            # Delta(1) = 1 x + x 1
            for pair in (0b01, 0b10):
                k = (rest << 2) | pair
                _acc(out, k, c, t)
        else:
            # Delta(x) = x x + t 1 1
            _acc(out, (rest << 2) | 0b11, c, t)
            _acc(out, (rest << 2) | 0b00, c, t + 1)
    return out


def _acc(d, k, c, t):
    cur = d.get(k)
    if cur is None:
        d[k] = (c, t)
    else:
        assert cur[1] == t, "inhomogeneous accumulation"
        c2 = cur[0] + c
        if c2:
            d[k] = (c2, t)
        else:
            del d[k]


def expansion(genus: int, dots: int, m: int) -> tuple:
    """A connected component with ``m`` boundary cycles (m = 0: closed) in
    normal form: tuple of (bitmask over the m cycles, coeff, tpow)."""
    if m == 0:
        val = closed_value(genus, dots)
        return () if val is None else ((0, *val),)
    coeff, xexp, tpow = _monomial(genus, dots)
    return tuple((mask, coeff * c, tpow + t)
                 for mask, (c, t) in _delta_tensor(m, xexp).items())

"""Dotted-cobordism calculus for the link homology engine.

Morphisms between crossingless matchings are stored in a reduced normal
form: a linear combination of the canonical genus-zero cobordisms whose
components are the cycles of the union of the two matchings, each
component carrying at most one dot.  Coefficients lie in Z[t], with
dot^2 = t: t carries quantum degree -4 and a dot degree -2.  The
Khovanov engine keeps t free and specialises at the end: t = 0 gives
ordinary Khovanov homology, and t = 1 would give Lee homology.

Entries are dicts ``{key: coefficient}`` with ``key = (t_power << 24) | dot_mask``,
the mask bit i referring to the i-th canonical cycle (cycles ordered by
their smallest boundary point).

Everything topological is funneled through one routine: gluing a
collection of surface pieces along contacts, computing the genus of each
merged component from its Euler characteristic, and expanding the result
back into the normal form with iterated comultiplication.
"""

from __future__ import annotations

from functools import lru_cache

from ._unionfind import UnionFind

MASK_BITS = 24


def key_of(tpow: int, mask: int) -> int:
    return (tpow << MASK_BITS) | mask


def split_key(key: int) -> tuple[int, int]:
    return key >> MASK_BITS, key & ((1 << MASK_BITS) - 1)


# ---------------------------------------------------------------------------
# cycles of the union of two matchings


@lru_cache(maxsize=None)
def cycles_of(ma: tuple, mb: tuple):
    """Cycles of the union of two perfect matchings on the same points.

    Returns (count, point_to_cycle) with cycles numbered by smallest point.
    """
    pa = {}
    for p, q in ma:
        pa[p] = q
        pa[q] = p
    pb = {}
    for p, q in mb:
        pb[p] = q
        pb[q] = p
    assert set(pa) == set(pb), "matchings on different point sets"
    seen = set()
    cycles = []
    for start in sorted(pa):
        if start in seen:
            continue
        cyc = []
        p, use_a = start, True
        while True:
            cyc.append(p)
            seen.add(p)
            p = pa[p] if use_a else pb[p]
            use_a = not use_a
            if p == start and use_a:
                break
            assert p not in seen, "matching union walk revisited a point"
        cycles.append(cyc)
    point_to_cycle = {}
    for i, cyc in enumerate(cycles):
        for p in cyc:
            point_to_cycle[p] = i
    return len(cycles), point_to_cycle


# ---------------------------------------------------------------------------
# the Frobenius algebra V = A[x]/(x^2 - t): expansion templates

# H = m . Delta is the handle operator: H(1) = 2x, H(x) = 2t.


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


@lru_cache(maxsize=None)
def open_expansion(genus: int, dots: int, m: int):
    """A connected component with ``m`` boundary cycles, given genus and
    dots, in normal form: tuple of (bitmask over the m cycles, coeff, tpow)."""
    coeff, xexp, tpow = _monomial(genus, dots)
    out = []
    for mask, (c, t) in _delta_tensor(m, xexp).items():
        out.append((mask, coeff * c, tpow + t))
    return tuple(out)


# ---------------------------------------------------------------------------
# gluing templates


class Glue:
    """Merged-component structure of a glued cobordism.

    Pieces are glued along contacts; every merged component records its
    genus contribution data and where its dots and caps come from, plus
    the output cycles it owns.  ``expand(dotbits, caps)`` produces the
    normal form as a list of (out_mask, integer coeff, t-power).
    """

    __slots__ = ("groups",)

    def __init__(self, n_pieces: int, contacts, boundary):
        """contacts: iterable of (piece, piece); boundary: list of
        (piece, ('out', cycle_index) | ('cap', cap_id))."""
        joined = UnionFind()
        edges = list(contacts)
        for u, v in edges:
            joined.union(u, v)
        group = [joined.find(i) for i in range(n_pieces)]
        counts = {}
        contact_count = {}
        for r in group:
            counts[r] = counts.get(r, 0) + 1
        for u, v in edges:
            r = group[u]
            contact_count[r] = contact_count.get(r, 0) + 1
        out_cycles = {}
        caps = {}
        for piece, desc in boundary:
            r = group[piece]
            if desc[0] == "out":
                out_cycles.setdefault(r, []).append(desc[1])
            else:
                caps.setdefault(r, []).append(desc[1])
        groups = []
        for r, npc in counts.items():
            chi = npc - contact_count.get(r, 0)
            outs = sorted(out_cycles.get(r, []))
            cap_ids = caps.get(r, [])
            m_raw = len(outs) + len(cap_ids)
            rem = 2 - chi - m_raw
            if rem < 0 or rem % 2:
                raise AssertionError(f"bad component: chi={chi} boundary={m_raw}")
            genus = rem // 2
            piecemask = 0
            for i, gi in enumerate(group):
                if gi == r:
                    piecemask |= 1 << i
            groups.append((genus, piecemask, tuple(outs), tuple(cap_ids)))
        self.groups = tuple(groups)

    def expand(self, dot_pieces: int, cap_dots: tuple = ()) -> tuple:
        """Normal form of the glued cobordism.

        ``dot_pieces``: bitmask over pieces carrying a dot; ``cap_dots``:
        tuple indexed by cap id giving the dots each cap contributes.
        Returns tuple of (out_mask, integer multiplier, t-power), where
        out_mask is over the output cycle indices.  The out_masks are
        distinct and the multipliers nonzero: each output cycle belongs to
        one component, and each component's expansion has distinct masks.
        """
        terms = [(0, 1, 0)]
        for genus, piecemask, outs, cap_ids in self.groups:
            d = (dot_pieces & piecemask).bit_count()
            for cid in cap_ids:
                d += cap_dots[cid]
            if not outs:
                val = closed_value(genus, d)
                if val is None:
                    terms = []
                    break
                c0, t0 = val
                terms = [(m, c * c0, t + t0) for (m, c, t) in terms]
                continue
            local = open_expansion(genus, d, len(outs))
            new_terms = []
            for m, c, t in terms:
                for lmask, lc, lt in local:
                    om = m
                    for bitpos, cyc in enumerate(outs):
                        if lmask >> bitpos & 1:
                            om |= 1 << cyc
                    new_terms.append((om, c * lc, t + lt))
            terms = new_terms
        return tuple(terms)

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
back into the normal form by one closed formula per component
(:func:`open_expansion`).
"""

from __future__ import annotations

from functools import lru_cache
from types import SimpleNamespace

from ._unionfind import UnionFind

MASK_BITS = 24


# ---------------------------------------------------------------------------
# cycles of the union of two matchings


class _StepCache:
    """A cache read like an ``lru_cache`` whose ``step()`` drops each entry
    that the ending step neither made nor read.  A scan's open points, and
    so its matchings, change at every crossing: such an entry of
    :func:`cycles_of` is dead weight."""

    def __init__(self, fn):
        self.fn = fn
        self.cache_clear()

    def __call__(self, *key):
        self.calls += 1
        value = self.now.get(key) or self.before.pop(key, None)
        if value is None:
            self.misses += 1
            value = self.fn(*key)
        self.now[key] = value
        return value

    def step(self):
        self.before, self.now = self.now, {}

    def cache_clear(self):
        self.now, self.before, self.calls, self.misses = {}, {}, 0, 0

    def cache_info(self):
        return SimpleNamespace(hits=self.calls - self.misses, misses=self.misses,
                               currsize=len(self.now) + len(self.before))


@_StepCache
def cycles_of(ma: tuple, mb: tuple):
    """Cycles of the union of two perfect matchings on the same points.

    Returns (point_to_cycle, firsts) with cycles numbered by smallest
    point: ``firsts[i]`` is the smallest point of cycle i.
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
    point_to_cycle = {}
    firsts = []
    for start in sorted(pa):
        if start in point_to_cycle:
            continue
        i = len(firsts)
        firsts.append(start)
        p, use_a = start, True
        while True:
            point_to_cycle[p] = i
            p = pa[p] if use_a else pb[p]
            use_a = not use_a
            if p == start and use_a:
                break
            assert p not in point_to_cycle, "matching union walk revisited a point"
    return point_to_cycle, tuple(firsts)


# ---------------------------------------------------------------------------
# the Frobenius algebra V = A[x]/(x^2 - t): expansions in closed form


@lru_cache(maxsize=None)
def open_expansion(genus: int, dots: int, m: int):
    """A connected component with ``m`` boundary cycles, given genus and
    dots, in normal form: tuple of (bitmask over the m cycles, coeff, tpow).

    The component is Delta^(m-1)(x^dots H^genus(1)), with the handle
    operator H(1) = 2x, H(x) = 2t and Delta(1) = 1 x + x 1,
    Delta(x) = x x + t 1 1.  With n = dots + genus + m - 1 that is 2^genus
    times the sum of t^((n - |M|)/2) x^M over the masks M with n - |M|
    even and >= 0.  For m = 0 it is the counit, nonzero only when
    dots + genus is odd."""
    n = dots + genus + m - 1
    return tuple((mask, 1 << genus, (n - k) >> 1) for mask in range(1 << m)
                 if (k := mask.bit_count()) <= n and (n - k) % 2 == 0)


# ---------------------------------------------------------------------------
# gluing templates


class Glue(dict):
    """Merged-component structure of a glued cobordism, and its table.

    Pieces are glued along contacts.  ``groups`` holds one
    (genus, piece mask, output cycles, cap ids) per merged component, in
    the order of each component's first piece; the genus comes from the
    component's Euler characteristic (pieces minus contacts) and boundary
    count.  ``expand(dotbits, caps)`` produces the normal form as a list
    of (out_mask, integer coeff, t-power).

    The glue is also the table of its expansions, filled on use: a dot
    mask maps to one (lam_src, lam_tgt, ``expand(mask, caps)``) per entry
    (lam_src, lam_tgt, caps) of ``capdots``, by default the one label pair
    (0, 0) with no caps.
    """

    __slots__ = ("groups", "capdots")

    def __init__(self, n_pieces: int, contacts, boundary,
                 capdots: tuple = ((0, 0, ()),)):
        """contacts: iterable of (piece, piece); boundary: list of
        (piece, ('out', cycle_index) | ('cap', cap_id))."""
        self.capdots = capdots
        joined = UnionFind()
        edges = list(contacts)
        for u, v in edges:
            joined.union(u, v)
        # per root: [2 - chi - boundary, piece mask, outs, caps], in
        # first-piece order
        comps = {}
        of_piece = []
        for i in range(n_pieces):
            acc = comps.setdefault(joined.find(i), [2, 0, [], []])
            acc[0] -= 1
            acc[1] |= 1 << i
            of_piece.append(acc)
        for u, _ in edges:
            of_piece[u][0] += 1
        for piece, (kind, ident) in boundary:
            acc = of_piece[piece]
            acc[0] -= 1
            acc[2 if kind == "out" else 3].append(ident)
        groups = []
        for rem, piecemask, outs, cap_ids in comps.values():
            if rem < 0 or rem % 2:
                raise AssertionError(f"bad component: 2 - chi - boundary = {rem}")
            groups.append((rem // 2, piecemask, tuple(sorted(outs)), tuple(cap_ids)))
        self.groups = tuple(groups)

    def __missing__(self, mask):
        terms = self[mask] = tuple((lam1, lam2, self.expand(mask, caps))
                                   for lam1, lam2, caps in self.capdots)
        return terms

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

"""Khovanov homology ranks and the A[X] deformation module.

The engine scans the diagram one crossing at a time.  The state is a
chain complex over the category whose objects are crossingless matchings
of the open boundary (with quantum shifts) and whose morphisms are
dotted-cobordism combinations in the normal form of :mod:`.cobordism`,
with coefficients in Z[t].  Circles created by a new crossing are
delooped on the spot, and every entry that is +-1 times an identity
cobordism between equal matchings in equal quantum degree is cancelled
by Gaussian elimination, so intermediate complexes stay small.  Such a
pivot is its own inverse, so the scan needs no division and runs over
the integers; entries with any other integer (2, 3, ...) stay in the
complex.

Fusing a crossing and composing entries read per-template tables, built
once per step: the packed expansion of each dot mask (for fusing, for
every label pair of the new circles), so an entry term only adds its
t-power and scales by its coefficient.  The output masks of one expansion
are distinct (each output cycle lies on one glued component), so the
image of a single term, or the composite of two, cannot cancel and is
built directly; only entries of several terms accumulate and cancel.

Delooping and Gaussian elimination are homotopy equivalences of
complexes defined over Z[t], and base change to a field A (tensoring
with F_p or Q) is a functor, so it carries them to homotopy equivalences
over A[t].  One integral scan therefore serves every field: each result
is read from its final complex with the entries reduced mod p, or taken
in Q.

For a knot the diagram is cut open at a basepoint edge.  The two cut
halves are boundary points that never close, so from the first scanned
crossing on the cut edge to the end of the scan every matching carries
two extra points.  By default the cut is therefore an edge of the last
crossing of the scan order, where the halves join the boundary only at
the final step.  The end object is then a single arc whose endomorphisms
form B = Z[x]/(x^2 - t), which is the polynomial ring Z[X] (X = x,
t = X^2); every entry of the final complex is a monomial c * X^power.

  * reduced Khovanov homology: set X = 0; the entries of power 0 form a
    complex of integer matrices, whose ranks over A give the table;
  * unreduced homology: set t = 0 and tensor the final complex with
    A[x]/(x^2), splitting each generator into quantum degrees q+1 and
    q-1, and take ranks again;
  * the deformation module: the final complex is a finite free
    presentation over A[X]; Smith reduction reads off the free rank and
    the X-torsion orders with their gradings.

Links are scanned closed (no cut); only unreduced ranks apply there,
read off at t = 0.

:class:`KnotScan` is the one place where scan options enter: it fixes
the crossing order, the cut edge, the generator budget and the deadline,
and runs the scan once.  The readers take a diagram or a ``KnotScan`` and
no options of their own.
"""

from __future__ import annotations

import heapq
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from ._tangle import ARCS_0, ARCS_1, CrossingStep, merge_matching, scan_order
from .algebra import QQ, CoefficientField, LaurentPolynomial
from .cobordism import MASK_BITS, Glue, cycles_of, key_of, split_key
from .diagram import Diagram


class ResourceLimit(RuntimeError):
    """The scan exceeded its generator budget or deadline.

    The budget bounds the complex right after each crossing is fused in,
    before Gaussian elimination, which is where the scan's size peaks.
    """


# ---------------------------------------------------------------------------
# result containers


@dataclass(frozen=True)
class BigradedRanks:
    """Ranks by (homological, quantum) bigrading."""

    ranks: dict
    reduced: bool
    field: CoefficientField

    @property
    def total(self) -> int:
        return sum(self.ranks.values())

    def mod(self, m: int) -> int:
        return self.total % m

    def delta_euler(self) -> int:
        """Sum of (-1)^delta * rank over the table, delta = q/2 - h."""
        acc = 0
        for (h, q), r in self.ranks.items():
            if q % 2:
                raise ValueError(f"non-integral delta at (h={h}, q={q})")
            acc += r if (q // 2 - h) % 2 == 0 else -r
        return acc

    def q_euler(self) -> LaurentPolynomial:
        """Sum of (-1)^h * rank * q^q over the table; for a reduced table
        this is the Jones polynomial in q = t^(1/2)."""
        acc = Counter()
        for (h, q), r in self.ranks.items():
            acc[q] += -r if h % 2 else r
        return LaurentPolynomial(acc)

    def table_json(self) -> dict:
        return {f"{h},{q}": self.ranks[(h, q)] for (h, q) in sorted(self.ranks)}


@dataclass(frozen=True)
class DeformedModule:
    """H over A[X]: free rank plus X-torsion summands (order, delta)."""

    free_rank: int
    torsion: tuple  # of (order, delta) pairs, sorted
    field: CoefficientField

    def x_torsion_order(self) -> int:
        return max((a for a, _ in self.torsion), default=0)


# ---------------------------------------------------------------------------
# the scan


_SHIFTS = {1: ((0, 1), (1, 2)), -1: ((-1, -2), (0, -1))}
_UNITS = (1, -1)    # the pivots that Gaussian elimination over Z may cancel
_MASK = (1 << MASK_BITS) - 1    # the dot-mask bits of an entry key


class _Scan:
    def __init__(self, d: Diagram, order: list[int], cut_edge: int | None,
                 budget: int, deadline: float | None):
        self.d = d
        self.order = order
        self.cut_edge = cut_edge
        self.budget = budget
        self.deadline = deadline
        self.gens: dict[int, tuple] = {}       # gid -> (match, h, q)
        self.out: dict[int, dict] = {}          # src -> {tgt: entry}
        self.inc: dict[int, dict] = {}          # tgt -> {src: entry}
        self.next_gid = 0
        self.compose_cache: dict = {}

    # -- bookkeeping ---------------------------------------------------------

    def _new_gen(self, match, h, q) -> int:
        gid = self.next_gid
        self.next_gid = gid + 1
        self.gens[gid] = (match, h, q)
        self.out[gid] = {}
        self.inc[gid] = {}
        return gid

    def _set_entry(self, s, t, entry):
        if entry:
            self.out[s][t] = entry
            self.inc[t][s] = entry

    # -- main loop -----------------------------------------------------------

    def run(self):
        d = self.d
        cycles_of.cache_clear()   # keyed on matchings; keep it per-diagram
        self._new_gen((), 0, 0)
        open_pts: set = set()
        for ci in self.order:
            if self.deadline is not None and time.monotonic() > self.deadline:
                raise ResourceLimit("scan deadline exceeded")
            step = CrossingStep(d, ci, open_pts, self.cut_edge)
            self._fuse(step)
            if len(self.gens) > self.budget:
                raise ResourceLimit(
                    f"{len(self.gens)} generators exceed the budget of {self.budget}")
            self._eliminate()
            open_pts = step.next_points(open_pts)
        return self

    # -- one crossing --------------------------------------------------------

    def _fuse(self, step: CrossingStep):
        shifts = _SHIFTS[step.sign]

        @cache
        def merged(match, r):
            return merge_matching(match, step, ARCS_0 if r == 0 else ARCS_1)

        old_gens = self.gens
        old_out = self.out
        self.gens = {}
        self.out = {}
        self.inc = {}
        # ids[gid][r][lam]: the rows share these ints (base + lam would copy)
        ids: dict = {}
        for gid, (match, h, q) in old_gens.items():
            ids[gid] = by_r = []
            for r in (0, 1):
                nm, ncirc, _ = merged(match, r)
                dh, dq = shifts[r]
                by_r.append(tuple(
                    self._new_gen(nm, h + dh, q + dq + ncirc - 2 * lam.bit_count())
                    for lam in range(1 << ncirc)))

        @cache
        def ext_template(m1, m2, r):
            return self._build_ext_template(m1, m2, r, step, merged)

        @cache
        def ext_table(m1, m2, r, mask):
            # dot mask ``mask`` from m1 to m2, extended per new label pair
            tmpl, nc1, nc2 = ext_template(m1, m2, r)
            return tuple((lam1, lam2, _packed(tmpl.expand(mask, caps)))
                         for lam1, lam2, caps in _capdots(nc1, nc2))

        # extended old entries: an entry term (t-power tp, dots mask, coeff)
        # adds tp to every key of the mask's table and scales it by coeff
        for g1, row in old_out.items():
            m1 = old_gens[g1][0]
            ids1 = ids[g1]
            for g2, entry in row.items():
                m2 = old_gens[g2][0]
                ids2 = ids[g2]
                for r in (0, 1):
                    src, tgt = ids1[r], ids2[r]
                    if len(entry) == 1:
                        # the keys of one expansion are distinct, so a single
                        # term's image is built directly: nothing can cancel
                        [(key, coeff)] = entry.items()
                        tbits = key & ~_MASK
                        for lam1, lam2, terms in ext_table(m1, m2, r, key & _MASK):
                            self._set_entry(src[lam1], tgt[lam2],
                                            {k + tbits: coeff * m for k, m in terms})
                        continue
                    # several terms: their images may cancel
                    tables = [(key & ~_MASK, coeff, ext_table(m1, m2, r, key & _MASK))
                              for key, coeff in entry.items()]
                    for i, (lam1, lam2, _) in enumerate(tables[0][2]):
                        acc: dict = {}
                        for tbits, coeff, table in tables:
                            for k, m in table[i][2]:
                                k3 = k + tbits
                                c3 = acc.get(k3, 0) + coeff * m
                                if c3:
                                    acc[k3] = c3
                                else:
                                    acc.pop(k3, None)
                        self._set_entry(src[lam1], tgt[lam2], acc)

        @cache
        def saddle_table(match):
            tmpl, nc0, nc1 = self._build_saddle_template(match, step, merged)
            return tuple((lam0, lam1, _packed(tmpl.expand(0, caps)))
                         for lam0, lam1, caps in _capdots(nc0, nc1))

        # saddle entries, each one expansion times the sign (-1)^h
        for gid, (match, h, q) in old_gens.items():
            sign = -1 if h % 2 else 1
            src, tgt = ids[gid]
            for lam0, lam1, terms in saddle_table(match):
                self._set_entry(src[lam0], tgt[lam1], {k: sign * m for k, m in terms})

    def _build_ext_template(self, m1, m2, r, step, merged):
        arcs = ARCS_0 if r == 0 else ARCS_1
        m12, pc12 = cycles_of(m1, m2)
        band_of = {}
        for i, (u, v) in enumerate(arcs):
            band_of[u] = m12 + i
            band_of[v] = m12 + i
        contacts = []
        for pos in range(4):
            kind, val = step.slot_kind[pos]
            if kind == "close":
                contacts.append((band_of[pos], pc12[val]))
            elif kind == "pair" and pos < val:
                contacts.append((band_of[pos], band_of[val]))
        nm1, nc1, cons1 = merged(m1, r)
        nm2, nc2, cons2 = merged(m2, r)
        loc_pieces = (m12, m12 + 1)
        boundary = []
        _out_boundary(boundary, nm1, nm2, cons1, pc12, loc_pieces)
        _cap_boundary(boundary, nc1, cons1, pc12, loc_pieces, 0)
        _cap_boundary(boundary, nc2, cons2, pc12, loc_pieces, nc1)
        return Glue(m12 + 2, contacts, boundary), nc1, nc2

    def _build_saddle_template(self, match, step, merged):
        n_arcs, pcm = cycles_of(match, match)
        saddle = n_arcs
        contacts = []
        for pos in range(4):
            kind, val = step.slot_kind[pos]
            if kind == "close":
                contacts.append((pcm[val], saddle))
            elif kind == "pair" and pos < val:
                contacts.append((saddle, saddle))
        nm0, nc0, cons0 = merged(match, 0)
        nm1, nc1, cons1 = merged(match, 1)
        loc_pieces = (saddle, saddle)
        boundary = []
        _out_boundary(boundary, nm0, nm1, cons0, pcm, loc_pieces)
        _cap_boundary(boundary, nc0, cons0, pcm, loc_pieces, 0)
        _cap_boundary(boundary, nc1, cons1, pcm, loc_pieces, nc0)
        return Glue(n_arcs + 1, contacts, boundary), nc0, nc1

    # -- Gaussian elimination --------------------------------------------------

    def _eliminate(self):
        gens = self.gens
        out = self.out
        inc = self.inc
        heap = []
        for s, row in out.items():
            ms, _, qs = gens[s]
            for t, entry in row.items():
                if entry.get(0) in _UNITS and gens[t][0] == ms and gens[t][2] == qs:
                    heapq.heappush(heap, ((len(inc[t]) - 1) * (len(row) - 1), s, t))
        while heap:
            cost, s, t = heapq.heappop(heap)
            if s not in gens or t not in gens:
                continue
            entry = out[s].get(t)
            if entry is None or entry.get(0) not in _UNITS:
                continue
            # lazy Markowitz: if the estimated fill-in cost rose past the next
            # candidate, requeue and take the cheaper one first
            cur_cost = (len(inc[t]) - 1) * (len(out[s]) - 1)
            if heap and cur_cost > heap[0][0]:
                heapq.heappush(heap, (cur_cost, s, t))
                continue
            c = entry[0]        # +-1, its own inverse
            m_mid = gens[s][0]
            preds = [(x, e) for x, e in inc[t].items() if x != s]
            succs = [(y, e) for y, e in out[s].items() if y != t]
            # detach s and t entirely
            for x in list(inc[s]):
                del out[x][s]
            for y in list(out[s]):
                del inc[y][s]
            for x in list(inc[t]):
                del out[x][t]
            for y in list(out[t]):
                del inc[y][t]
            del gens[s], gens[t], out[s], out[t], inc[s], inc[t]
            for x, dx in preds:
                m_x = gens[x][0]
                row_x = out[x]
                gx = gens[x]
                for y, ey in succs:
                    m_y = gens[y][0]
                    comp = self._compose(m_x, m_mid, m_y, dx, ey)
                    if not comp:
                        continue
                    cur = row_x.get(y)
                    if cur is None:
                        cur = {}
                        row_x[y] = cur
                        inc[y][x] = cur
                    for k, cv in comp.items():
                        nv = cur.get(k, 0) - c * cv
                        if nv:
                            cur[k] = nv
                        else:
                            cur.pop(k, None)
                    if not cur:
                        del row_x[y]
                        del inc[y][x]
                    elif (0 in comp and cur.get(0) in _UNITS
                          and gx[0] == m_y and gx[2] == gens[y][2]):
                        heapq.heappush(
                            heap, ((len(inc[y]) - 1) * (len(row_x) - 1), x, y))
        # the step's compose tables go before the next fuse, the scan's peak
        self.compose_cache.clear()

    def _compose(self, ma, mb, mc, e1, e2) -> dict:
        """e2 . e1 for entries ma -> mb -> mc, read off the triple's table of
        packed expansions by dot masks (mask1 | mask2 << m1)."""
        tmpl = self.compose_cache.get((ma, mb, mc))
        if tmpl is None:
            m1, pc1 = cycles_of(ma, mb)
            m2, pc2 = cycles_of(mb, mc)
            m3, pc3 = cycles_of(ma, mc)
            contacts = []
            for p, q in mb:
                contacts.append((pc1[p], m1 + pc2[p]))
            boundary = []
            placed = set()
            for p in pc3:
                cyc = pc3[p]
                if cyc not in placed:
                    placed.add(cyc)
                    boundary.append((pc1[p], ("out", cyc)))
            tmpl = (_ExpansionTable(Glue(m1 + m2, contacts, boundary)), m1)
            self.compose_cache[(ma, mb, mc)] = tmpl
        table, m1 = tmpl
        if len(e1) == 1 and len(e2) == 1:
            # the keys of one expansion are distinct, so the product of two
            # single terms is built directly: nothing can cancel
            [(k1, c1)] = e1.items()
            [(k2, c2)] = e2.items()
            mask1, mask2 = k1 & _MASK, k2 & _MASK
            tbits = k1 - mask1 + k2 - mask2
            c = c1 * c2
            return {k + tbits: c * m for k, m in table[mask1 | mask2 << m1]}
        acc: dict = {}
        for k1, c1 in e1.items():
            mask1 = k1 & _MASK
            for k2, c2 in e2.items():
                mask2 = k2 & _MASK
                tbits = k1 - mask1 + k2 - mask2
                c = c1 * c2
                for k, m in table[mask1 | mask2 << m1]:
                    k3 = k + tbits
                    c3 = acc.get(k3, 0) + c * m
                    if c3:
                        acc[k3] = c3
                    else:
                        acc.pop(k3, None)
        return acc


class _ExpansionTable(dict):
    """dot mask -> packed expansion of one glue template, filled on use."""

    def __init__(self, glue: Glue):
        self.glue = glue

    def __missing__(self, dots):
        terms = self[dots] = _packed(self.glue.expand(dots))
        return terms


def _out_boundary(boundary, nm1, nm2, cons1, pc_old, loc_pieces):
    """Assign each cycle of the new matching pair to a surface piece."""
    if not nm1 and not nm2:
        return
    m3, pc3 = cycles_of(nm1, nm2)
    partner1 = {}
    for p, q in nm1:
        partner1[p] = q
        partner1[q] = p
    placed = set()
    for p in sorted(pc3):
        cyc = pc3[p]
        if cyc in placed:
            continue
        placed.add(cyc)
        pair = (min(p, partner1[p]), max(p, partner1[p]))
        first = cons1[pair][0]
        piece = pc_old[first[1][0]] if first[0] == "old" else loc_pieces[first[1]]
        boundary.append((piece, ("out", cyc)))


def _cap_boundary(boundary, ncirc, cons, pc_old, loc_pieces, base):
    for k in range(ncirc):
        first = cons[("circle", k)][0]
        piece = pc_old[first[1][0]] if first[0] == "old" else loc_pieces[first[1]]
        boundary.append((piece, ("cap", base + k)))


@cache
def _capdots(nc_src, nc_tgt) -> tuple:
    """(lam_src, lam_tgt, dots) per label pair, lam_src-major: a source
    circle labelled x is a dotted cup, a target circle labelled 1 is
    extracted by a dotted cap.  At most two circles: nine tables."""
    return tuple((lam_src, lam_tgt,
                  tuple(lam_src >> k & 1 for k in range(nc_src))
                  + tuple(1 - (lam_tgt >> k & 1) for k in range(nc_tgt)))
                 for lam_src in range(1 << nc_src) for lam_tgt in range(1 << nc_tgt))


def _packed(expansion) -> tuple:
    """A ``Glue.expand`` result as (key of t-power and output mask, mult)."""
    return tuple((key_of(tadd, om), mult) for om, mult, tadd in expansion)


# ---------------------------------------------------------------------------
# public computations


def _pick_basepoint(d: Diagram, order: list[int], basepoint: int | None) -> int:
    """The edge at which a knot scan in ``order`` is cut open.

    The cut halves never close, so they add two boundary points from the
    first crossing on the cut edge to the end of the scan.  The default is
    an edge of the order's last crossing, which adds them only at the
    final step.  An explicit ``basepoint`` must be an edge of ``d``.
    """
    if basepoint is None:
        return min(d.crossings[order[-1]])
    if basepoint not in d.successor:
        raise ValueError(f"basepoint edge {basepoint} not in diagram")
    return basepoint


class KnotScan:
    """The integral scan of a diagram, run when first read.

    Every scan option enters here, and the readers (:func:`khovanov_ranks`,
    :func:`khovanov_pair`, :func:`deformed_module`) take a ``KnotScan`` in
    place of the diagram, so that every field and flavour is read from one
    scan.  ``order`` is the crossing order of the scan, which the Jones
    contraction can share.  A knot with crossings is cut open at
    ``basepoint`` (by default an edge of the order's last crossing); a link
    is scanned closed.  ``max_generators`` (default 400,000) bounds the
    complex right after each crossing is fused in, and ``deadline``, a
    :func:`time.monotonic` time, is checked before each crossing."""

    def __init__(self, d: Diagram, *, basepoint: int | None = None,
                 max_generators: int | None = None, deadline: float | None = None):
        self.diagram = d
        self.order = scan_order(d)
        self.cut_edge = (_pick_basepoint(d, self.order, basepoint)
                         if d.is_knot and d.crossings else None)
        self.budget = 400_000 if max_generators is None else max_generators
        self.deadline = deadline
        self._scan = None

    def final_complex(self) -> _Scan:
        if self._scan is None:
            self._scan = _Scan(self.diagram, self.order, self.cut_edge,
                               self.budget, self.deadline).run()
        return self._scan


def khovanov_ranks(d: Diagram | KnotScan, field: CoefficientField = QQ,
                   reduced: bool = True) -> BigradedRanks:
    """Bigraded ranks of (reduced or unreduced) Khovanov homology.

    Reduced homology is defined for knots; gradings follow the convention
    with the reduced unknot at (0, 0), the unreduced unknot at q = -1, +1,
    and positive-crossing diagrams supported in nonnegative homological
    degree.
    """
    if not isinstance(d, KnotScan):
        d = KnotScan(d)
    if d.diagram.is_knot:
        red, unred = khovanov_pair(d, field)
        return red if reduced else unred
    if reduced:
        raise ValueError("reduced Khovanov homology requires a knot diagram")
    scan = d.final_complex()
    table = _homology(_gradings(scan), [(s, t, c) for s, t, c, power
                                        in _entries(scan) if power == 0], field)
    for _ in range(d.diagram.extra_components):
        table = _with_circle(table)
    return BigradedRanks(table, False, field)


def khovanov_pair(d: Diagram | KnotScan,
                  field: CoefficientField = QQ) -> tuple[BigradedRanks, BigradedRanks]:
    """(reduced, unreduced) ranks of a knot from a single scan."""
    if not isinstance(d, KnotScan):
        d = KnotScan(d)
    if not d.diagram.is_knot:
        raise ValueError("khovanov_pair requires a knot diagram")
    return _knot_tables(d.final_complex(), field)


# ---------------------------------------------------------------------------
# reading the final complex


def _entries(scan: _Scan):
    """(source, target, c, power) for each entry c * X^power of the final
    complex (X = x, t = X^2; a closed scan has even powers only)."""
    for s, row in scan.out.items():
        for t, entry in row.items():
            assert len(entry) == 1, "inhomogeneous entry in final complex"
            for key, c in entry.items():
                tp, mask = split_key(key)
                yield s, t, c, 2 * tp + mask


def _gradings(scan: _Scan) -> dict:
    return {g: (h, q) for g, (_, h, q) in scan.gens.items()}


def _homology(gradings: dict, entries, field: CoefficientField) -> dict:
    """Bigraded homology over ``field`` of a complex with integer entries.

    ``gradings`` maps each generator to its (h, q); ``entries`` holds
    (source, target, c) with the target one step up in h at the same q.
    The differential's rank on each (h, q) block, its number of Smith
    pivots, is taken off the generator counts at both ends."""
    table = Counter(gradings.values())
    blocks: dict = {}
    for s, t, c in entries:
        (h, q), (ht, qt) = gradings[s], gradings[t]
        assert ht == h + 1 and qt == q, "differential leaves its bigrading"
        blocks.setdefault((h, q), []).append((t, s, c, 0))
    for (h, q), block in blocks.items():
        r = len(_monomial_smith(block, field.char))
        table[(h, q)] -= r
        table[(h + 1, q)] -= r
    return {k: v for k, v in table.items() if v}


def _with_circle(table: dict) -> dict:
    """Tensor a table with an unknotted circle, splitting q into q+1, q-1."""
    out = Counter()
    for (h, q), r in table.items():
        out[(h, q + 1)] += r
        out[(h, q - 1)] += r
    return dict(out)


def _knot_tables(scan: _Scan, field: CoefficientField):
    """(reduced, unreduced) tables over ``field`` of a knot scan.

    Reduced: set X = 0, keeping the integer entries of power 0.
    Unreduced: tensor the one-arc complex with A[x]/(x^2).  Generator g
    splits into labels 1 (q+1) and x (q-1); an entry c maps each label to
    the same label, an entry c*x maps label 1 to label x, and t = 0 kills
    the rest."""
    gradings = _gradings(scan)
    split = {}
    for g, (h, q) in gradings.items():
        split[(g, 1)] = (h, q + 1)
        split[(g, "x")] = (h, q - 1)
    flat, split_entries = [], []
    for s, t, c, power in _entries(scan):
        if power == 0:
            flat.append((s, t, c))
            split_entries += [((s, 1), (t, 1), c), ((s, "x"), (t, "x"), c)]
        elif power == 1:
            split_entries.append(((s, 1), (t, "x"), c))
    return (BigradedRanks(_homology(gradings, flat, field), True, field),
            BigradedRanks(_homology(split, split_entries, field), False, field))


# ---------------------------------------------------------------------------
# deformation module over A[X]


def deformed_module(d: Diagram | KnotScan, field: CoefficientField) -> DeformedModule:
    """Invariant factors of the deformed homology as a module over A[X].

    Requires char != 2 (the deformation splitting arguments need 2
    invertible).  This is the module structure on the basepointed complex,
    the one whose X = 0 specialization is the reduced Khovanov complex.
    """
    if field.char == 2:
        raise ValueError("the A[X] deformation module requires characteristic != 2")
    if not isinstance(d, KnotScan):
        d = KnotScan(d)
    if not d.diagram.is_knot:
        raise ValueError("deformed module requires a knot diagram")
    scan = d.final_complex()
    # the differential maps degree h to h + 1 only, so one reduction of the
    # whole matrix pivots within each block as separate ones would, and the
    # free rank is what no pivot row or column covers
    pivots = _monomial_smith([(t, s, c, power) for s, t, c, power
                              in _entries(scan)], field.char)
    free = len(scan.gens) - 2 * len(pivots)
    if free != 1:
        raise RuntimeError(
            f"deformed free rank {free} != 1 for a knot: grading "
            f"convention violation, please report")
    torsion = []
    for order, t in pivots:
        if order >= 1:
            _, h, q = scan.gens[t]
            torsion.append((order, q // 2 - h))
    return DeformedModule(free, tuple(sorted(torsion)), field)


def _monomial_smith(entries, p) -> list:
    """Smith reduction over A[X] (A = F_p, or Q for p = 0) of a graded
    matrix given as (target, source, c, power) for entries c * X^power,
    with integer c and power >= 0.

    Returns (order, target) for each pivot X^order; the number of pivots
    is the rank.
    """
    mat: dict[tuple, tuple] = {}
    rows: dict = {}
    cols: dict = {}
    for t, s, c, power in entries:
        c = c % p if p else c
        if c:
            mat[(t, s)] = (c, power)
            rows.setdefault(t, set()).add(s)
            cols.setdefault(s, set()).add(t)
    pivots = []
    while mat:
        (t0, s0), (c0, p0) = min(mat.items(), key=lambda kv: (kv[1][1], kv[0]))
        pivots.append((p0, t0))
        inv0 = pow(c0, -1, p) if p else Fraction(1, c0)
        col_others = [(t, mat[(t, s0)]) for t in cols[s0] if t != t0]
        row_others = [(s, mat[(t0, s)]) for s in rows[t0] if s != s0]
        # remove pivot row and column
        for t in list(cols[s0]):
            del mat[(t, s0)]
            rows[t].discard(s0)
        for s in list(rows[t0]):
            mat.pop((t0, s), None)
            cols[s].discard(t0)
        del rows[t0], cols[s0]
        for t, (ct, pt) in col_others:
            for s, (cs, ps) in row_others:
                pnew = pt + ps - p0
                cur = mat.get((t, s))
                cnew = -ct * cs * inv0
                if cur is not None:
                    assert cur[1] == pnew, "graded Smith: power mismatch"
                    cnew += cur[0]
                if p:
                    cnew %= p
                if cnew:
                    mat[(t, s)] = (cnew, pnew)
                    rows.setdefault(t, set()).add(s)
                    cols.setdefault(s, set()).add(t)
                else:
                    mat.pop((t, s), None)
                    if t in rows:
                        rows[t].discard(s)
                    if s in cols:
                        cols[s].discard(t)
    return pivots

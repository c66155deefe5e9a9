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

Fusing a crossing extends each old entry m1 -> m2 to both smoothings r
of the crossing, and adds each generator's saddle, which is the identity
entry of its matching from smoothing 0 to smoothing 1.  Every new entry
is thus the image of an old one under one glued cobordism: the cycles of
m1 u m2, glued to a band per local arc (r1 == r2) or to one saddle piece
(r1 != r2), with a cap on each new circle.  Both smoothings' templates of
a pair (m1, m2) are built in one pass over its cycles.  Gaussian
elimination composes entries ma -> mb -> mc through
the cycles of ma u mb and of mb u mc, glued along the arcs of mb.  Both
templates are crossing-local.  A cycle of m1 u m2 through no closing
slot, and an arc of all three of ma, mb, mc (a strip), is an identity
component: it only carries its dots to its out cycle, two dots making
one power of t.  The rest is a local surface: one ``Glue`` per surface
is built in a scan, and the glue is the table of its expansions, shared
by component structure.  Fusing and composing read per-template tables,
sorted by key: the packed expansion of each dot mask (for fusing, for
every label pair of the new circles), so an entry term only adds its
t-power and scales by its coefficient.  A stored entry is never mutated.
Entries repeat a few values, and an entry's images depend only on its
matchings and its value, so fusing builds the images of each distinct
(m1, m2, value) once per step, stores each distinct image once, and
every entry that repeats them shares them; elimination writes each entry
it updates as a new dict, a copy of the old one from which each term of
a composite is subtracted as it is read.

Within a step the scan names each distinct matching by a small int, so
generators, templates and tables key and compare on ints; the ids are
renumbered at every step, and the finished scan maps each generator to
its matching again.

Delooping and Gaussian elimination are homotopy equivalences of
complexes defined over Z[t], and base change to a field A (tensoring
with F_p or Q) is a functor, so it carries them to homotopy equivalences
over A[t].  One integral scan therefore serves every field: each result
is read from its final complex with the entries reduced mod p, or taken
in Q.

The crossings come from the walk of :mod:`._tangle`, which cuts every
diagram with crossings open at a basepoint edge, on any of its
components.  The two cut halves are boundary points that never close,
so from the first scanned crossing on the cut edge to the end of the
scan every matching carries two extra points.  The walk's default cut is
therefore an edge of the last crossing of the scan order, where the
halves join the boundary only at the final step.  The end object is then
a single arc whose endomorphisms form B = Z[x]/(x^2 - t), which is the
polynomial ring Z[X] (X = x, t = X^2); every entry of the final complex
is a monomial c * X^power.

Over a field A the final complex is a graded complex of free A[X]
modules, and one Smith reduction over A[X] splits it into free summands
and torsion summands A[X]/(X^k) with their gradings.  Every table is
read from that one splitting:

  * the deformation module of a knot: the free rank and the X-torsion
    orders;
  * reduced Khovanov homology of a knot: the homology of the quotient
    A[X]/(X), which sets X = 0;
  * unreduced homology: the homology of the quotient A[X]/(X^2), which
    sets t = X^2 = 0 and splits each generator into quantum degrees q+1
    (label 1) and q-1 (label x); each crossingless component other than
    the cut one adds an unknotted circle.

:class:`KnotScan` is the scan, and the one place where scan options
enter: it fixes the crossing order, the cut edge, the generator budget
and the deadline, runs once when first read, and holds the final
complex and each field's splitting.  The readers take a diagram or a
``KnotScan`` and no options of their own.
"""

from __future__ import annotations

import heapq
import time
from collections import Counter
from fractions import Fraction
from functools import cache
from typing import NamedTuple

from ._tangle import SMOOTHINGS, CrossingStep, default_cut, merge_matching, scan_order, walk
from .algebra import QQ, CoefficientField, LaurentPolynomial
from .cobordism import MASK_BITS, Glue, cycles_of
from .diagram import Diagram


class ResourceLimit(RuntimeError):
    """The scan exceeded its generator budget or deadline, or the Alexander
    determinant or the Jones contraction its deadline.

    The budget bounds the complex right after each crossing is fused in,
    before Gaussian elimination, which is where the scan's size peaks.
    """


# ---------------------------------------------------------------------------
# result containers


class BigradedRanks(NamedTuple):
    """Ranks by (homological, quantum) bigrading."""

    ranks: dict
    reduced: bool
    field: CoefficientField

    @property
    def total(self) -> int:
        return sum(self.ranks.values())

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


class DeformedModule(NamedTuple):
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


class KnotScan:
    """The integral scan of a diagram, run when first read.

    Every scan option enters here, and the readers (:func:`khovanov_ranks`,
    :func:`khovanov_pair`, :func:`deformed_module`) take a ``KnotScan`` in
    place of the diagram, so that every field and flavour is read from one
    scan.  ``order`` is the crossing order of the scan, which the Jones
    contraction can share.  The scan takes its crossings from the
    :func:`._tangle.walk` of that order, and the walk owns the cut: it cuts
    the diagram open at ``basepoint``, an edge on any component, kept as
    ``cut_edge``, by default the :func:`._tangle.default_cut` that the
    Jones contraction cuts too (a crossingless diagram has none).
    ``max_generators`` (default 400,000) bounds the complex right after
    each crossing is fused in, and ``deadline``, a :func:`time.monotonic`
    time, is checked before each crossing, at each old row while a crossing
    is fused in and at each pivot of its elimination, so it stops a scan
    within a crossing.  A scan that raised :class:`ResourceLimit` is never
    read: the next read runs it again from the start.

    While the scan runs, a generator's matching is a small int: the id of
    that matching among the distinct matchings of the current step, which
    ``matchings`` maps back.  The finished scan maps each generator to
    (matching, h, q).

    Exact work counters: ``next_gid`` generators created, ``peak_fused``
    the largest fused complex, ``fused_entries`` the entries fusing made,
    ``pivots`` the pivots cancelled, ``composites`` the pred-succ
    composites formed by elimination and ``glues`` the ``Glue`` objects
    built."""

    def __init__(self, d: Diagram, *, basepoint: int | None = None,
                 max_generators: int | None = None, deadline: float | None = None):
        self.diagram = d
        self.order = scan_order(d)
        if basepoint is None:
            basepoint = default_cut(d, self.order)
        elif not any(basepoint in comp for comp in d.components):
            raise ValueError(f"basepoint edge {basepoint} not in diagram")
        self.cut_edge = basepoint
        self.budget = 400_000 if max_generators is None else max_generators
        self.deadline = deadline
        self.finished = False

    def final_complex(self) -> KnotScan:
        if not self.finished:
            self.run()
        return self

    # -- main loop -----------------------------------------------------------

    def run(self):
        self.finished = False
        self.matchings: list = [()]              # match id -> matching
        self.gens: dict[int, tuple] = {0: (0, 0, 0)}    # gid -> (match, h, q)
        self.out: dict[int, dict] = {0: {}}      # src -> {tgt: entry}
        self.inc: dict[int, dict] = {0: {}}      # tgt -> {src: entry}
        self.next_gid = 1
        self.compose_cache: dict = {}   # (m_x, m_mid) -> {m_y: template}, per step
        self.locals: dict = {}      # local surface's inputs -> Glue
        self.expansions: dict = {}  # local surface's groups -> Glue
        self.glues = 0
        self.peak_fused = 0
        self.fused_entries = 0
        self.pivots = 0
        self.composites = 0
        self.modules: dict = {}     # field char -> _module of the final complex
        cycles_of.cache_clear()   # keyed on matchings; keep it per-diagram
        for step in walk(self.diagram, self.order, self.cut_edge):
            self._check_deadline()
            cycles_of.step()    # drop the entries the last step did not use
            self._fuse(step)
            size = len(self.gens)
            self.peak_fused = max(self.peak_fused, size)
            if size > self.budget:
                raise ResourceLimit(
                    f"{size} generators exceed the budget of {self.budget}")
            self._eliminate()
        # the tables are the scan's own: a batch keeps no table per knot
        self.locals.clear()
        self.expansions.clear()
        ms = self.matchings
        self.gens = {g: (ms[m], h, q) for g, (m, h, q) in self.gens.items()}
        self.finished = True

    def _check_deadline(self):
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise ResourceLimit("scan deadline exceeded")

    def _local(self, n_pieces: int, contacts: tuple, boundary: tuple,
               nc: tuple = (0, 0)) -> Glue:
        """The expansions of a local surface, looked up by its inputs and
        then by its components, so the scan builds one ``Glue`` per local
        surface and shares its expansions by structure."""
        key = (n_pieces, contacts, boundary, nc)
        local = self.locals.get(key)
        if local is None:
            glue = Glue(n_pieces, contacts, boundary, _capdots(*nc))
            self.glues += 1
            local = self.locals[key] = self.expansions.setdefault(
                (glue.groups, nc), glue)
        return local

    # -- one crossing --------------------------------------------------------

    def _fuse(self, step: CrossingStep):
        shifts = _SHIFTS[step.sign]
        slot_kind = step.slot_kind
        old_ms = self.matchings
        old_gens = self.gens
        old_out = self.out
        interned: dict = {}         # matching -> new match id
        gens = self.gens = {}
        out = self.out = {}
        inc = self.inc = {}
        step_tables: dict = {}      # template structure -> _Template
        shared: dict = {}           # entry items -> the one stored entry
        shapes: dict = {}           # shape -> the one stored shape

        @cache
        def merged(m):
            # (new match id, circles, first index in the ids row) per
            # smoothing of old match id m, and (new match id, dh, dq) of
            # each new generator in its ids row
            both = []
            layout = []
            for r, (dh, dq) in enumerate(shifts):
                nm, circles = merge_matching(old_ms[m], step, r)
                nm = interned.setdefault(nm, len(interned))
                both.append((nm, circles, len(layout)))
                layout += [(nm, dh, dq + len(circles) - 2 * lam.bit_count())
                           for lam in range(1 << len(circles))]
            return both, layout

        # ids[g]: the new generators of old generator g, smoothing 0's then
        # smoothing 1's, the very int objects that gens, out and inc key on
        # (base + lam would make copies)
        ids: dict = {}
        gid = self.next_gid
        for g, (m, h, q) in old_gens.items():
            layout = merged(m)[1]
            row = ids[g] = tuple(range(gid, gid + len(layout)))
            gid += len(row)
            for new, (nm, dh, dq) in zip(row, layout):
                gens[new] = (nm, h + dh, q + dq)
                out[new] = {}
                inc[new] = {}
        self.next_gid = gid
        ms = self.matchings = list(interned)    # new match id -> matching

        def templates(m1, m2, smoothings):
            # (src start, tgt start, _Template) per smoothing (r1, r2): the
            # cycles of m1 u m2, glued at the crossing to a band per local
            # arc (r1 == r2) or to one saddle piece (r1 != r2).  A cycle
            # through no closing slot only carries its dot to its out cycle,
            # and the rest is a local surface whose expansions the scan
            # shares by their component structure.
            pc, _ = cycles_of(old_ms[m1], old_ms[m2])
            touched = tuple(sorted({pc[v] for v in step.closes}))
            local_of = {c: i for i, c in enumerate(touched)}
            k = len(touched)
            by_r1, by_r2 = merged(m1)[0], merged(m2)[0]
            tabs = []
            for r1, r2 in smoothings:
                band = (k, k + 1) if r1 == r2 else (k, k)
                piece = {}      # slot -> local piece
                for i, (x, y) in enumerate(SMOOTHINGS[r1]):
                    piece[x] = piece[y] = band[i]
                contacts = []
                for pos, (kind, v) in enumerate(slot_kind):
                    if kind == "close":
                        contacts.append((piece[pos], local_of[pc[v]]))
                    elif kind == "pair" and pos < v:
                        contacts.append((piece[pos], piece[v]))
                (nm1, circles1, at1), (nm2, circles2, at2) = by_r1[r1], by_r2[r2]
                boundary = []
                spread = []     # local out index -> out cycle
                carried = []    # (1 << cycle, out cycle) of each untouched cycle
                if ms[nm1]:
                    # an out cycle lies on the piece of its smallest point:
                    # an old open point's cycle, or a new point's local piece
                    _, firsts = cycles_of(ms[nm1], ms[nm2])
                    for cyc, p in enumerate(firsts):
                        c = pc.get(p)
                        if c is None:
                            at = piece[step.opens[p]]
                        elif c in local_of:
                            at = local_of[c]
                        else:
                            carried.append((1 << c, cyc))
                            continue
                        boundary.append((at, ("out", len(spread))))
                        spread.append(cyc)
                # a new circle lies on the piece of a local arc it runs through
                for cap, i in enumerate(circles1 + circles2):
                    boundary.append((band[i], ("cap", cap)))
                local = (band[1] + 1, tuple(contacts), tuple(boundary),
                         (len(circles1), len(circles2)))
                key = (local, touched, tuple(carried), tuple(spread))
                tab = step_tables.get(key)
                if tab is None:
                    tab = step_tables[key] = _Template(
                        self._local(*local), touched, carried, spread)
                tabs.append((at1, at2, tab))
            return tabs

        def images(tabs, entry) -> tuple:
            # (shape, images) of an entry: its image under each template
            # per label pair, with the (src, tgt) ids row indices of each
            # nonzero one in ``shape``.  An entry term (t-power, dots mask,
            # coeff) adds its t-power to every key of the mask's table and
            # scales it by coeff; the images of several terms may cancel.
            # Entries repeat a few values, so each image is stored once,
            # looked up by its items in ``shared``, and shapes are interned.
            shape = []
            found = []
            for src_at, tgt_at, tab in tabs:
                tables = [(key & ~_MASK, coeff, tab[key & _MASK])
                          for key, coeff in entry.items()]
                for i, (lam1, lam2, _) in enumerate(tables[0][2]):
                    acc: dict = {}
                    for tbits, coeff, terms in tables:
                        for k, m in terms[i][2]:
                            k3 = k + tbits
                            c3 = acc.get(k3, 0) + coeff * m
                            if c3:
                                acc[k3] = c3
                            else:
                                acc.pop(k3, None)
                    if acc:
                        shape.append((src_at + lam1, tgt_at + lam2))
                        found.append(shared.setdefault(tuple(acc.items()), acc))
            shape = tuple(shape)
            return shapes.setdefault(shape, shape), tuple(found)

        # each old entry extends once per smoothing, r = 0 then r = 1; then
        # each generator's saddle is the identity entry from smoothing 0 to
        # smoothing 1 (this order of the new entries fixes the elimination
        # order).  An entry's images depend only on its matchings and its
        # value, so each distinct (m1, m2, value) is fused once per step and
        # every entry that repeats it only stores the images.
        pairs: dict = {}    # (m1, m2) -> both smoothings' templates; m -> its saddle's
        fused: dict = {}    # (m1, m2, *entry items) -> (shape, images)
        for g1, (m1, _, _) in old_gens.items():
            self._check_deadline()
            src = ids[g1]
            # the old row goes as it is read, so the old complex is freed
            # while the new one grows
            for g2, entry in old_out.pop(g1).items():
                m2 = old_gens[g2][0]
                key = (m1, m2, *entry.items())
                done = fused.get(key)
                if done is None:
                    tabs = pairs.get((m1, m2)) or pairs.setdefault(
                        (m1, m2), templates(m1, m2, ((0, 0), (1, 1))))
                    done = fused[key] = images(tabs, entry)
                tgt = ids[g2]
                for (i, j), image in zip(*done):
                    s, t = src[i], tgt[j]
                    out[s][t] = inc[t][s] = image
        saddles: dict = {}  # (m, coeff) -> (shape, images)
        for g, (m, h, _) in old_gens.items():
            key = (m, -1 if h % 2 else 1)
            done = saddles.get(key)
            if done is None:
                tabs = pairs.get(m) or pairs.setdefault(
                    m, templates(m, m, ((0, 1),)))
                done = saddles[key] = images(tabs, {0: key[1]})
            row = ids[g]
            for (i, j), image in zip(*done):
                s, t = row[i], row[j]
                out[s][t] = inc[t][s] = image
        # each new entry has its own (s, t): count them once they are in
        self.fused_entries += sum(map(len, out.values()))

    # -- Gaussian elimination --------------------------------------------------

    def _eliminate(self):
        gens = self.gens
        out = self.out
        inc = self.inc
        ms = self.matchings
        cache = self.compose_cache
        # pops take the least (cost, s, t), so one heapify gives the same
        # pivot sequence as pushing the candidates one by one
        heap = []
        for s, row in out.items():
            m_s, _, q_s = gens[s]
            for t, entry in row.items():
                if entry.get(0) in _UNITS and gens[t][0] == m_s and gens[t][2] == q_s:
                    heap.append(((len(inc[t]) - 1) * (len(row) - 1), s, t))
        heapq.heapify(heap)
        pivots = composites = 0
        while heap:
            cost, s, t = heapq.heappop(heap)
            if s not in gens or t not in gens:
                continue
            entry = out[s].get(t)
            if entry is None or entry.get(0) not in _UNITS:
                continue
            # lazy Markowitz: if the estimated fill-in cost rose past the next
            # candidate, requeue and take the cheaper one first.  The costs
            # are read while the rows below still grow, so the pivot order,
            # and with it the final complex, depends on the insertion order
            # of the fused entries: a kernel change must keep that order.
            cur_cost = (len(inc[t]) - 1) * (len(out[s]) - 1)
            if heap and cur_cost > heap[0][0]:
                heapq.heappush(heap, (cur_cost, s, t))
                continue
            self._check_deadline()
            c = entry[0]        # +-1, its own inverse
            pivots += 1
            m_mid = gens[s][0]
            preds = [(x, e) for x, e in inc[t].items() if x != s]
            succs = [(y, gens[y], e) for y, e in out[s].items() if y != t]
            composites += len(preds) * len(succs)
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
                gx = gens[x]
                m_x = gx[0]
                row_x = out[x]
                tmpls = cache.get((m_x, m_mid))
                if tmpls is None:
                    tmpls = cache[m_x, m_mid] = {}
                for y, gy, ey in succs:
                    m_y = gy[0]
                    tmpl = tmpls.get(m_y)
                    if tmpl is None:
                        tmpl = tmpls[m_y] = _compose_template(
                            ms[m_x], ms[m_mid], ms[m_y], self._local)
                    table, m1 = tmpl
                    # a stored entry may be shared, so it is never changed:
                    # the updated x -> y entry is a copy, stored under the old
                    # key so that the row, and the pivot order, keep their order
                    cur = row_x.get(y, {})
                    new = cur.copy()
                    # subtract c * (e_y . d_x) term by term
                    for k1, c1 in dx.items():
                        mask1 = k1 & _MASK
                        for k2, c2 in ey.items():
                            mask2 = k2 & _MASK
                            tbits = k1 - mask1 + k2 - mask2
                            cc = c * c1 * c2
                            for k, m in table[mask1 | mask2 << m1][0][2]:
                                k += tbits
                                nv = new.get(k, 0) - cc * m
                                if nv:
                                    new[k] = nv
                                else:
                                    del new[k]
                    if new:
                        row_x[y] = inc[y][x] = new
                        # its key 0 changed iff the composite has a key 0
                        key0 = new.get(0)
                        if (key0 != cur.get(0) and key0 in _UNITS
                                and m_x == m_y and gx[2] == gy[2]):
                            heapq.heappush(heap, (
                                (len(inc[y]) - 1) * (len(row_x) - 1), x, y))
                    elif cur:
                        del row_x[y]
                        del inc[y][x]
        self.pivots += pivots
        self.composites += composites
        # the step's compose tables go before the next fuse, the scan's peak
        cache.clear()


class _Template(dict):
    """dot mask -> (lam_src, lam_tgt, packed expansion sorted by key) per
    label pair, for one fuse or compose template: the local surface's
    expansion, with each identity component's dots carried to its out cycle."""

    def __init__(self, local: Glue, pieces: list, carried: list,
                 spread: list):
        self.local = local
        self.pieces = pieces    # local piece -> dot bit
        self.carried = carried  # (dot bits, out cycle) per identity component
        self.spread = [0]   # local out mask -> out mask
        for cyc in spread:
            self.spread += [om | 1 << cyc for om in self.spread]

    def __missing__(self, mask):
        local_mask = 0
        for i, c in enumerate(self.pieces):
            local_mask |= (mask >> c & 1) << i
        fixed = 0
        for bits, cyc in self.carried:
            d = (mask & bits).bit_count()
            fixed += (d >> 1 << MASK_BITS) + ((d & 1) << cyc)
        spread = self.spread
        terms = []
        for lam1, lam2, expansion in self.local[local_mask]:
            packed = []
            for om, mult, t in expansion:
                packed.append(((t << MASK_BITS) + spread[om] + fixed, mult))
            terms.append((lam1, lam2, tuple(sorted(packed))))
        terms = self[mask] = tuple(terms)
        return terms


def _compose_template(ma: tuple, mb: tuple, mc: tuple, local) -> tuple:
    """(table, m1) for entries ma -> mb -> mc: the packed expansions of the
    glued cobordism by dot masks (mask1 | mask2 << m1).  The strips carry
    their dots, and ``local(n_pieces, contacts, boundary)`` gives the
    expansions of the rest."""
    pc1, firsts1 = cycles_of(ma, mb)
    pc2, _ = cycles_of(mb, mc)
    pc3, firsts3 = cycles_of(ma, mc)
    m1 = len(firsts1)
    strips = set(ma).intersection(mb, mc)
    pieces: dict = {}   # dot bit -> local piece
    contacts = []
    carried = []
    for arc in mb:
        p = arc[0]
        b1, b2 = pc1[p], m1 + pc2[p]
        if arc in strips:
            carried.append((1 << b1 | 1 << b2, pc3[p]))
        else:
            contacts.append((pieces.setdefault(b1, len(pieces)),
                             pieces.setdefault(b2, len(pieces))))
    boundary = []
    spread = []
    for cyc, p in enumerate(firsts3):
        at = pieces.get(pc1[p])     # None on a strip
        if at is not None:
            boundary.append((at, ("out", len(spread))))
            spread.append(cyc)
    local = local(len(pieces), tuple(contacts), tuple(boundary))
    return _Template(local, list(pieces), carried, spread), m1


@cache
def _capdots(nc_src, nc_tgt) -> tuple:
    """(lam_src, lam_tgt, dots) per label pair, lam_src-major: a source
    circle labelled x is a dotted cup, a target circle labelled 1 is
    extracted by a dotted cap.  At most two circles: nine tables."""
    return tuple((lam_src, lam_tgt,
                  tuple(lam_src >> k & 1 for k in range(nc_src))
                  + tuple(1 - (lam_tgt >> k & 1) for k in range(nc_tgt)))
                 for lam_src in range(1 << nc_src) for lam_tgt in range(1 << nc_tgt))


# ---------------------------------------------------------------------------
# public computations


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
    if reduced and not d.diagram.is_knot:
        raise ValueError("reduced Khovanov homology requires a knot diagram")
    table = _quotient(_module(d.final_complex(), field), 1 if reduced else 2)
    # a crossingless diagram has no cut: its first unknot is the strand
    for _ in range(d.diagram.extra_components - (d.cut_edge is None)):
        table = _with_circle(table)
    return BigradedRanks(table, reduced, field)


def khovanov_pair(d: Diagram | KnotScan,
                  field: CoefficientField = QQ) -> tuple[BigradedRanks, BigradedRanks]:
    """(reduced, unreduced) ranks of a knot from a single scan."""
    if not isinstance(d, KnotScan):
        d = KnotScan(d)
    if not d.diagram.is_knot:
        raise ValueError("khovanov_pair requires a knot diagram")
    module = _module(d.final_complex(), field)
    return (BigradedRanks(_quotient(module, 1), True, field),
            BigradedRanks(_quotient(module, 2), False, field))


# ---------------------------------------------------------------------------
# reading the final complex


def _entries(scan: KnotScan):
    """(source, target, c, power) for each entry c * X^power of the final
    complex (X = x, t = X^2)."""
    for s, row in scan.out.items():
        for t, entry in row.items():
            assert len(entry) == 1, "inhomogeneous entry in final complex"
            for key, c in entry.items():
                yield s, t, c, 2 * (key >> MASK_BITS) + (key & _MASK)


def _module(scan: KnotScan, field: CoefficientField) -> tuple:
    """The final complex over A[X] (A = ``field``) split by one graded Smith
    reduction: (free, torsion), ``free`` counting the free summands by
    (h, q) and ``torsion`` holding one (k, h, q) per summand A[X]/(X^k),
    k >= 1, at its pivot's target.  An entry c * X^p maps (h, q) to
    (h + 1, q + 2p), so the pivot's source is at (h - 1, q - 2k)."""
    if field.char in scan.modules:
        return scan.modules[field.char]
    gens = scan.gens
    entries = []
    for s, t, c, power in _entries(scan):
        _, h, q = gens[s]
        assert gens[t][1:] == (h + 1, q + 2 * power), \
            "differential leaves its bigrading"
        entries.append((t, s, c, power))
    free = Counter((h, q) for _, h, q in gens.values())
    torsion = []
    for k, t in _monomial_smith(entries, field.char):
        _, h, q = gens[t]
        free[h, q] -= 1
        free[h - 1, q - 2 * k] -= 1
        if k:
            torsion.append((k, h, q))
    scan.modules[field.char] = free, torsion
    return free, torsion


def _quotient(module: tuple, n: int) -> dict:
    """Bigraded ranks of the homology of C (x) A[X]/(X^n), C split as
    ``module``, with X^j of a generator at (h, q) at q + n - 1 - 2j.  A free
    summand gives n ranks; A[X]/(X^k) gives the X^j with j < min(k, n) at
    its target and with j >= n - min(k, n) at its source."""
    free, torsion = module
    table = Counter()
    for (h, q), r in free.items():
        for j in range(n):
            table[h, q + n - 1 - 2 * j] += r
    for k, h, q in torsion:
        for j in range(min(k, n)):
            table[h, q + n - 1 - 2 * j] += 1
            table[h - 1, q - 2 * k - n + 1 + 2 * j] += 1
    return {key: r for key, r in table.items() if r}


def _with_circle(table: dict) -> dict:
    """Tensor a table with an unknotted circle, splitting q into q+1, q-1."""
    out = Counter()
    for (h, q), r in table.items():
        out[(h, q + 1)] += r
        out[(h, q - 1)] += r
    return dict(out)


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
    free, torsion = _module(d.final_complex(), field)
    rank = sum(free.values())
    if rank != 1:
        raise RuntimeError(
            f"deformed free rank {rank} != 1 for a knot: grading "
            f"convention violation, please report")
    orders = sorted((k, q // 2 - h) for k, h, q in torsion)
    return DeformedModule(rank, tuple(orders), field)


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
    # pivots come least (power, target, source) first; a position's power
    # is fixed by the gradings, so a popped position still in ``mat`` is
    # the least one left, and each entry made is pushed when it appears
    heap = [(power, t, s) for (t, s), (_, power) in mat.items()]
    heapq.heapify(heap)
    pivots = []
    while heap:
        p0, t0, s0 = heapq.heappop(heap)
        pivot = mat.get((t0, s0))
        if pivot is None:
            continue
        c0 = pivot[0]
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
                    if cur is None:
                        heapq.heappush(heap, (pnew, t, s))
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

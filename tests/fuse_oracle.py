"""Every fused entry built on its own: an oracle for
:meth:`knotrank.khovanov.KnotScan._fuse`, which builds the images of each
distinct (pair of matchings, entry value) once per step and stores them
again for every entry that repeats it.

Here each old entry is extended through the fuse table of each smoothing on
its own, a single term directly and several terms through an accumulator
in which they may cancel, and each generator's saddle is built on its own.
A template is built per (m1, m2, r1, r2), each with its own ``Glue``.
"""

from __future__ import annotations

from functools import cache

from knotrank._tangle import SHIFTS, SMOOTHINGS, merge_matching
from knotrank.cobordism import Glue, cycles_of
from knotrank.khovanov import _MASK, _Template


def capdots(nc_src: int, nc_tgt: int) -> tuple:
    """(lam_src, lam_tgt, dots) per label pair of ``nc_src`` source and
    ``nc_tgt`` target circles: a source circle labelled x is a dotted cup,
    a target circle labelled 1 is extracted by a dotted cap."""
    return tuple((lam_src, lam_tgt, tuple(lam_src >> k & 1 for k in range(nc_src))
                  + tuple(1 - (lam_tgt >> k & 1) for k in range(nc_tgt)))
                 for lam_src in range(1 << nc_src) for lam_tgt in range(1 << nc_tgt))


def fuse_complex(old_ms: list, old_gens: dict, old_out: dict, next_gid: int,
                 step) -> tuple:
    """The complex after fusing ``step`` into the old complex (match id ->
    matching, gid -> (match id, h, q), src -> {tgt: entry}, and the next
    gid), which is left as it is: (matchings, gens, out, inc, next_gid),
    with every row and entry in the order the scan makes them."""
    shifts = SHIFTS[step.sign]
    slot_kind = step.slot_kind
    new_slot = {v: pos for pos, (kind, v) in enumerate(slot_kind)
                if kind == "new"}
    closing = [v for kind, v in slot_kind if kind == "close"]
    interned: dict = {}
    gens: dict = {}
    out: dict = {}
    inc: dict = {}
    shared: dict = {}   # entry items -> the one stored entry

    @cache
    def merged(m):
        both = []
        for r in (0, 1):
            nm, circles = merge_matching(old_ms[m], step, r)
            both.append((interned.setdefault(nm, len(interned)), circles))
        return both

    ids: dict = {}      # ids[gid][r][lam]: the new generators
    gid = next_gid
    for g, (m, h, q) in old_gens.items():
        by_r = []
        for (nm, circles), (dh, dq) in zip(merged(m), shifts):
            q1 = q + dq + len(circles)
            row = tuple(range(gid, gid + (1 << len(circles))))
            gid += len(row)
            for lam, new in enumerate(row):
                gens[new] = (nm, h + dh, q1 - 2 * lam.bit_count())
                out[new] = {}
                inc[new] = {}
            by_r.append(row)
        ids[g] = tuple(by_r)
    ms = list(interned)

    @cache
    def template(m1, m2, r1, r2):
        pc, _ = cycles_of(old_ms[m1], old_ms[m2])
        touched = sorted({pc[v] for v in closing})
        local_of = {c: i for i, c in enumerate(touched)}
        k = len(touched)
        band = (k, k + 1) if r1 == r2 else (k, k)
        piece = {}
        for i, (x, y) in enumerate(SMOOTHINGS[r1]):
            piece[x] = piece[y] = band[i]
        contacts = []
        for pos, (kind, v) in enumerate(slot_kind):
            if kind == "close":
                contacts.append((piece[pos], local_of[pc[v]]))
            elif kind == "pair" and pos < v:
                contacts.append((piece[pos], piece[v]))
        (nm1, circles1), (nm2, circles2) = merged(m1)[r1], merged(m2)[r2]
        boundary = []
        spread = []
        carried = []
        if ms[nm1]:
            _, firsts = cycles_of(ms[nm1], ms[nm2])
            for cyc, p in enumerate(firsts):
                c = pc.get(p)
                if c is None:
                    at = piece[new_slot[p]]
                elif c in local_of:
                    at = local_of[c]
                else:
                    carried.append((1 << c, cyc))
                    continue
                boundary.append((at, ("out", len(spread))))
                spread.append(cyc)
        for cap, i in enumerate(circles1 + circles2):
            boundary.append((band[i], ("cap", cap)))
        glue = Glue(band[1] + 1, contacts, tuple(boundary),
                    capdots(len(circles1), len(circles2)))
        return _Template(glue, touched, carried, spread)

    def store(s, t, items):
        out[s][t] = inc[t][s] = shared.get(items) or shared.setdefault(
            items, dict(items))

    for g1, (m1, _, _) in old_gens.items():
        for g2, entry in old_out[g1].items():
            m2 = old_gens[g2][0]
            for r in (0, 1):
                tab = template(m1, m2, r, r)
                src, tgt = ids[g1][r], ids[g2][r]
                if len(entry) == 1:
                    [(key, coeff)] = entry.items()
                    for lam1, lam2, terms in tab[key & _MASK]:
                        if terms:
                            store(src[lam1], tgt[lam2], tuple(
                                (k + (key & ~_MASK), coeff * mult)
                                for k, mult in terms))
                    continue
                tables = [(key & ~_MASK, coeff, tab[key & _MASK])
                          for key, coeff in entry.items()]
                for i, (lam1, lam2, _) in enumerate(tables[0][2]):
                    acc: dict = {}
                    for tbits, coeff, terms in tables:
                        for k, mult in terms[i][2]:
                            c3 = acc.get(k + tbits, 0) + coeff * mult
                            if c3:
                                acc[k + tbits] = c3
                            else:
                                acc.pop(k + tbits, None)
                    if acc:
                        store(src[lam1], tgt[lam2], tuple(acc.items()))
    for g, (m, h, _) in old_gens.items():
        src, tgt = ids[g]
        coeff = -1 if h % 2 else 1
        for lam1, lam2, terms in template(m, m, 0, 1)[0]:
            if terms:
                store(src[lam1], tgt[lam2],
                      tuple((k, coeff * mult) for k, mult in terms))
    return ms, gens, out, inc, gid

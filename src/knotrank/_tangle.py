"""Shared machinery for one-crossing-at-a-time tangle scans.

Both the Jones contraction and the link-homology engine walk the
crossings of a diagram in an order chosen to keep the number of open
boundary edges small, maintaining a state indexed by crossingless
matchings of the open edges.  This module provides the ordering heuristic,
the walk, which cuts the diagram open at one edge and carries the open
boundary from crossing to crossing, and the combinatorics of attaching
one more crossing to a matching.
"""

from __future__ import annotations

from .diagram import Diagram

# local smoothing arcs by slot position, counterclockwise from the
# incoming under-strand, per smoothing r: the 0-smoothing joins the regions
# swept by rotating the over-strand counterclockwise onto the under-strand
SMOOTHINGS = (((0, 1), (2, 3)), ((0, 3), (1, 2)))
# per smoothing: slot -> (the other slot of its arc, arc index)
_ACROSS = tuple({s: (t, i) for i, arc in enumerate(arcs) for s, t in (arc, arc[::-1])}
                for arcs in SMOOTHINGS)


def scan_order(d: Diagram) -> list[int]:
    """Order the crossings greedily so the open boundary stays small.

    After each crossing the next one is the unscanned crossing with the
    most slots on open edges (ties: smallest index), or, when none touches
    an open edge, the first unscanned crossing.  Every starting crossing
    is tried; the order with the smallest peak boundary (ties: smallest
    total, then the earlier start) wins.  The running (peak, total) only
    grows, so a start stops as soon as it reaches the best so far.  The
    rest of a walk depends only on the set of crossings scanned, so a start
    also stops on a set where an earlier start's (peak, total) was no
    higher in either.
    """
    n = len(d.crossings)
    if n == 0:
        return []
    incident: dict[int, list[int]] = {}     # edge -> crossing per slot
    for ci, tup in enumerate(d.crossings):
        for e in tup:
            incident.setdefault(e, []).append(ci)
    # per crossing: each edge with one end there, and the crossings at its
    # other end (an edge with both ends at one crossing never opens)
    ends = [[(e, [cj for cj in incident[e] if cj != ci])
             for e in set(tup) if tup.count(e) == 1]
            for ci, tup in enumerate(d.crossings)]

    def simulate(start: int, bound):
        open_edges: set[int] = set()
        done = [False] * n
        # open_slots[cj]: slots of cj on open edges; ranked[k]: the
        # unscanned crossings with k >= 1 such slots
        open_slots = [0] * n
        ranked = [set() for _ in range(5)]
        order = []
        peak = total = mask = 0
        cur = start
        for _ in range(n):
            done[cur] = True
            mask |= 1 << cur
            ranked[open_slots[cur]].discard(cur)
            order.append(cur)
            for e, others in ends[cur]:
                if e in open_edges:
                    open_edges.remove(e)
                    delta = -1
                else:
                    open_edges.add(e)
                    delta = 1
                for cj in others:
                    if not done[cj]:
                        k = open_slots[cj]
                        ranked[k].discard(cj)
                        open_slots[cj] = k = k + delta
                        if k:
                            ranked[k].add(cj)
            peak = max(peak, len(open_edges))
            total += len(open_edges)
            if bound is not None and (peak, total) >= bound:
                return None     # (peak, total) only grows: no better than bound
            seen = reached.get(mask)
            if seen is None:
                reached[mask] = peak, total
            elif seen[0] <= peak and seen[1] <= total:
                return None     # an earlier start got here no worse
            # next: most slots on open edges, then smallest index
            for r in (ranked[4], ranked[3], ranked[2], ranked[1]):
                if r:
                    cur = min(r)
                    break
            else:
                cur = next((cj for cj in range(n) if not done[cj]), None)
                if cur is None:
                    break
        return (peak, total), order

    reached = {}    # set of scanned crossings -> the first (peak, total) there
    best_cost, best_order = None, None
    for start in range(n):
        run = simulate(start, best_cost)
        if run is not None:
            best_cost, best_order = run
    return best_order


def default_cut(d: Diagram, order: list[int]) -> int | None:
    """The edge a scan in ``order`` cuts open by default: an edge of the
    order's last crossing, so that the two cut halves, which never close,
    join the boundary only at the final step.  A crossingless diagram has
    no cut."""
    return min(d.crossings[order[-1]]) if order else None


def walk(d: Diagram, order: list[int], cut: int | None):
    """The :class:`CrossingStep` of each crossing of ``order`` in turn, with
    the diagram cut open at edge ``cut``; each step attaches its crossing to
    the open boundary that the steps before it leave."""
    open_points: set = set()
    for ci in order:
        step = CrossingStep(d, ci, open_points, cut)
        yield step
        open_points.difference_update(step.closes)
        open_points.update(step.opens)


class CrossingStep:
    """Slot bookkeeping for attaching one crossing to a partial tangle.

    ``slot_kind[i]`` is one of:
      ('close', point)  -- the edge is an open boundary point, and closes
      ('new', point)    -- the edge opens a fresh boundary point
      ('pair', j)       -- both ends of the edge sit on this crossing
    Cut halves of the edge ``cut`` are renamed to negative point ids and
    behave like 'new' points that never close.  ``closes`` and ``opens``
    map the closing and the new points to their slots, in slot order.
    """

    def __init__(self, d: Diagram, ci: int, open_points: set, cut: int | None):
        tup = d.crossings[ci]
        oin_pos = 3 if d.signs[ci] == 1 else 1
        self.sign = d.signs[ci]
        ids = list(tup)
        for pos, e in enumerate(tup):
            if e == cut:
                # tail slot (outgoing) -> -1, head slot (incoming) -> -2
                ids[pos] = -1 if pos in (2, 4 - oin_pos) else -2
        kinds = []
        for pos in range(4):
            e = ids[pos]
            if e > 0 and ids.count(e) == 2:
                kinds.append(("pair", ids.index(e) if ids.index(e) != pos else 3 - ids[::-1].index(e)))
            elif e in open_points:
                kinds.append(("close", e))
            else:
                kinds.append(("new", e))
        self.slot_kind = kinds
        self.closes = {v: pos for pos, (kind, v) in enumerate(kinds) if kind == "close"}
        self.opens = {v: pos for pos, (kind, v) in enumerate(kinds) if kind == "new"}


def merge_matching(matching: tuple, step: CrossingStep, r: int):
    """Attach the two local arcs of smoothing ``r`` to a matching.

    ``matching`` is a sorted tuple of (p, q) pairs with p < q over the open
    points.  Returns ``(new_matching, circles)``: the sorted pairs joined
    by the new strands, and one local-arc index per closed loop, naming an
    arc the loop runs through.  Loops through closing old points come
    first, in matching order, then loops of local arcs alone, in arc
    order; cap ids, and so generator ids, follow this order.

    A strand crosses the local arc at a slot, and then follows that slot's
    edge: a new point ends the strand, a pair edge leads to its other
    slot, and a closing point leads along its old arc to the partner,
    which either stays open (the strand ends there) or closes at a slot.
    """
    partner = {}
    for p, q in matching:
        partner[p] = q
        partner[q] = p
    slot_of = step.closes
    across = _ACROSS[r]     # slot -> (other slot, local arc index)
    used = [False, False]

    def follow(pos):
        # the open point the strand from slot pos ends on, or None when
        # it runs back into an arc it crossed: a loop
        while True:
            pos, i = across[pos]
            if used[i]:
                return None
            used[i] = True
            kind, v = step.slot_kind[pos]
            if kind == "new":
                return v
            if kind == "pair":
                pos = v
                continue
            v = partner[v]
            if v not in slot_of:
                return v
            pos = slot_of[v]

    new_pairs = []
    ended = set()
    for v, pos in step.opens.items():
        if v not in ended:
            end = follow(pos)
            ended.add(end)
            new_pairs.append((min(v, end), max(v, end)))
    for p, q in matching:
        for a, b in ((p, q), (q, p)):
            if a not in slot_of and a not in ended:
                end = follow(slot_of[b]) if b in slot_of else b
                ended.add(end)
                new_pairs.append((min(a, end), max(a, end)))
    circles = []
    closing = [slot_of[p] for p, _ in matching if p in slot_of]
    for pos in closing + [x for x, _ in SMOOTHINGS[r]]:
        i = across[pos][1]
        if not used[i]:
            circles.append(i)
            follow(pos)
    return tuple(sorted(new_pairs)), tuple(circles)

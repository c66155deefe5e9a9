"""PD-code validation by walking strands: an oracle for
:func:`knotrank.diagram._trace_structure`, which applies the label rule
crossing by crossing instead.

The strands are walked without orientation, each component is turned so
that its labels increase, and the over-strands are oriented by
propagation: a crossing whose over-strand has one unused transition takes
it, and when none has, the smallest unassigned crossing takes the
transition from its smaller over label.
"""

from __future__ import annotations

from knotrank.diagram import InvalidDiagram


def trace_structure_walked(crossings):
    """(components, successor, over_in, signs) of a PD code, or
    :class:`InvalidDiagram`."""
    occ: dict[int, list] = {}
    for ci, tup in enumerate(crossings):
        if len(tup) != 4:
            raise InvalidDiagram(f"crossing {ci}: expected 4 edges, got {len(tup)}")
        for pos, e in enumerate(tup):
            if e <= 0:
                raise InvalidDiagram(f"crossing {ci}: edge labels must be positive, got {e}")
            occ.setdefault(e, []).append((ci, pos))
    for e, slots in occ.items():
        if len(slots) != 2:
            raise InvalidDiagram(f"edge {e} appears {len(slots)} times (expected exactly 2)")

    # structural cycles: walk strands through crossings, ignoring orientation
    visited = set()
    raw_cycles = []
    for e0 in sorted(occ):
        if e0 in visited:
            continue
        cycle = []
        e, head = e0, occ[e0][0]
        while True:
            cycle.append(e)
            visited.add(e)
            ci, pos = head
            out_slot = (ci, (pos + 2) % 4)
            f = crossings[ci][(pos + 2) % 4]
            s1, s2 = occ[f]
            nxt_head = s2 if s1 == out_slot else s1
            e, head = f, nxt_head
            if e == e0 and head == occ[e0][0]:
                break
            if len(cycle) > 2 * len(crossings):
                raise InvalidDiagram("strand tracing does not close")
        raw_cycles.append(cycle)

    # orient each cycle so the labels increase (with one wraparound)
    components = []
    for cycle in raw_cycles:
        lo = min(cycle)
        labels = sorted(cycle)
        if labels != list(range(lo, lo + len(cycle))):
            raise InvalidDiagram(f"component containing edge {lo} has non-contiguous labels {labels}")
        i = cycle.index(lo)
        fwd = cycle[i:] + cycle[:i]
        if fwd == labels:
            components.append(tuple(fwd))
        else:
            rev = [cycle[i]] + list(reversed(cycle[:i] + cycle[i + 1:]))
            if rev == labels:
                components.append(tuple(rev))
            else:
                raise InvalidDiagram(
                    f"edge labels do not increase along the component containing edge {lo}")
    components.sort(key=lambda c: c[0])
    components = tuple(components)

    succ = {}
    for comp in components:
        for j, e in enumerate(comp):
            succ[e] = comp[(j + 1) % len(comp)]

    # the under-strand must run from position 0 to position 2
    for ci, (a, b, c, d) in enumerate(crossings):
        if succ[a] != c:
            raise InvalidDiagram(
                f"crossing {ci}: under-strand {a}->{c} conflicts with orientation "
                f"(expected {a}->{succ[a]}); first tuple entry must be the incoming under-strand")

    # assign over-strand directions; each oriented transition e -> succ(e)
    # happens at exactly one crossing, and the under-strands consume theirs
    # first.  Ties (components that never pass under) break toward the
    # smallest incoming label.
    remaining = {(e, succ[e]) for e in succ}
    for a, b, c, d in crossings:
        t = (a, c)
        if t not in remaining:
            raise InvalidDiagram(f"under transition {a}->{c} used twice")
        remaining.discard(t)
    over_in: list = [None] * len(crossings)
    unassigned = set(range(len(crossings)))
    while unassigned:
        progress = []
        for ci in sorted(unassigned):
            _, b, _, d = crossings[ci]
            cands = []
            if succ.get(b) == d and (b, d) in remaining:
                cands.append(b)
            if succ.get(d) == b and (d, b) in remaining and d != b:
                cands.append(d)
            if not cands:
                raise InvalidDiagram(f"crossing {ci}: over-strand orientation untraceable")
            if len(cands) == 1:
                progress.append((ci, cands[0]))
        if not progress:
            # genuinely ambiguous (a component never passing under); break the
            # tie toward the smallest incoming over label
            ci = min(unassigned)
            _, b, _, d = crossings[ci]
            progress = [(ci, min(b, d))]
        assigned_any = False
        for ci, oin in progress:
            if ci not in unassigned or (oin, succ[oin]) not in remaining:
                continue
            over_in[ci] = oin
            remaining.discard((oin, succ[oin]))
            unassigned.discard(ci)
            assigned_any = True
        if not assigned_any:
            raise InvalidDiagram(
                f"over-strand orientation untraceable at crossings {sorted(unassigned)}")
    if remaining:
        raise InvalidDiagram(f"orientation trace left unused transitions {sorted(remaining)}")

    # sign: +1 when the incoming over-strand sits at position 3 (then the
    # over-direction is a +90 degree turn from the under-direction)
    signs = []
    for ci, (a, b, c, d) in enumerate(crossings):
        if over_in[ci] == d and over_in[ci] != b:
            signs.append(1)
        else:
            signs.append(-1)
    return components, succ, tuple(over_in), tuple(signs)

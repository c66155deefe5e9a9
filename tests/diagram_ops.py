"""Diagram surgery the tests use to build related diagrams: a crossing
change, the oriented resolution of a crossing, and the split union.  Each
rebuilds the diagram from :mod:`knotrank.diagram`'s records, which carry
each crossing's over-in position, and never mutates its input.
"""

from __future__ import annotations

from knotrank._unionfind import UnionFind
from knotrank.diagram import Diagram, _assemble, _records


def _check_index(d: Diagram, i: int) -> None:
    if not 0 <= i < len(d.crossings):
        raise IndexError(f"crossing index {i} out of range")


def crossing_change(d: Diagram, i: int) -> Diagram:
    """Swap over and under strands at crossing i."""
    _check_index(d, i)
    recs = _records(d)
    tup, oin_pos = recs[i]
    rolled = tuple(tup[(oin_pos + k) % 4] for k in range(4))
    new_oin_pos = (0 - oin_pos) % 4  # old under-in lands here
    recs[i] = (rolled, new_oin_pos)
    return _assemble(recs, d.extra_components,
                     name=f"{d.name}.switch{i}" if d.name else None)


def oriented_resolution(d: Diagram, i: int) -> Diagram:
    """Replace crossing i by the smoothing that respects orientation."""
    _check_index(d, i)
    recs = _records(d)
    tup, oin_pos = recs.pop(i)
    a, c = tup[0], tup[2]
    o_in, o_out = tup[oin_pos], tup[4 - oin_pos]
    # merge under-in with over-out, over-in with under-out; each merged
    # edge keeps its smallest label
    edges = UnionFind()
    circles = sum(not edges.union(x, y) for x, y in ((a, o_out), (o_in, c)))
    out_recs = []
    for tup2, oin2 in recs:
        out_recs.append((tuple(edges.find(e) for e in tup2), oin2))
    if not out_recs and circles == 0:
        # the merged strand survives with no crossings left
        circles = 1
    return _assemble(out_recs, d.extra_components + circles,
                     name=f"{d.name}.res{i}" if d.name else None)


def disjoint_union(d1: Diagram, d2: Diagram) -> Diagram:
    """Split (distant) union of two diagrams."""
    shift = max([0] + [e for t in d1.crossings for e in t])
    recs = _records(d1)
    for tup, oin in _records(d2):
        recs.append((tuple(e + shift for e in tup), oin))
    name = f"{d1.name}+{d2.name}" if d1.name and d2.name else None
    return _assemble(recs, d1.extra_components + d2.extra_components, name)

"""Planarity by a face count per connected piece: an oracle for the genus
check in :func:`knotrank.diagram._trace_structure`, which counts all faces
in one walk and finds the pieces from the link components.
"""

from __future__ import annotations

from knotrank._unionfind import UnionFind


def is_planar(crossings) -> bool:
    """True when the rotation system given by the 4-tuples embeds in the
    plane: each connected piece of V crossings has V + 2 faces.  The
    tuples must hold each label exactly twice."""
    n = len(crossings)
    if n == 0:
        return True
    occ: dict[int, list] = {}
    for ci, tup in enumerate(crossings):
        for pos, e in enumerate(tup):
            occ.setdefault(e, []).append(4 * ci + pos)
    alpha = {}
    for slots in occ.values():
        s1, s2 = slots
        alpha[s1] = s2
        alpha[s2] = s1

    # group crossings into connected pieces
    pieces = UnionFind()
    for slots in occ.values():
        pieces.union(slots[0] // 4, slots[1] // 4)

    faces_per_piece: dict[int, int] = {}
    size_per_piece: dict[int, int] = {}
    for ci in range(n):
        r = pieces.find(ci)
        size_per_piece[r] = size_per_piece.get(r, 0) + 1
    visited = set()
    for start in range(4 * n):
        if start in visited:
            continue
        piece = pieces.find(start // 4)
        s = start
        while True:
            visited.add(s)
            t = alpha[s]
            s = 4 * (t // 4) + (t % 4 + 1) % 4
            if s == start:
                break
        faces_per_piece[piece] = faces_per_piece.get(piece, 0) + 1
    for piece, v in size_per_piece.items():
        if faces_per_piece.get(piece, 0) != v + 2:
            return False
    return True

"""Symmetric unions and seeded random knot diagrams.

A symmetric union is assembled from a knot diagram D and its mirror
image placed side by side, joined through a vertical channel on the
symmetry axis that carries the twist regions.  The two channel strands
are antiparallel, so the result is a knot exactly when the total number
of twist crossings is odd; all such diagrams are ribbon.  With a single
half-twist this is the construction used to generate ribbon-knot batches.

The random diagram source samples a random Gauss sequence (a chord
diagram with over/under and sign choices) and keeps a valid knot; it
relies on validation to reject the non-planar samples.  On repeated
rejection the target crossing count shrinks, so the sampler always
terminates with a valid one-component diagram of at most the requested size.
"""

from __future__ import annotations

import random

from .diagram import (Diagram, InvalidDiagram, _assemble, _mirror_records, _records,
                      _reroute_heads)


class SymmetricUnionError(InvalidDiagram):
    """The assembly did not produce a one-component diagram."""


def knot_twists(twists) -> tuple:
    """Twist regions (signed crossing counts) that make a symmetric union a
    knot: at least one, each nonzero, with an odd total.  An even total
    makes a two-component link and raises :class:`SymmetricUnionError`."""
    tw = tuple(int(x) for x in twists)
    if not tw:
        raise ValueError("need at least one twist region")
    if any(x == 0 for x in tw):
        raise ValueError("twist regions must have a nonzero crossing count")
    total = sum(abs(x) for x in tw)
    if total % 2 == 0:
        raise SymmetricUnionError(f"twist total {total} is even: every "
                                  f"symmetric union is a two-component link")
    return tw


def symmetric_union(d: Diagram, twists) -> Diagram:
    """Join d and its mirror through an axis channel with the given twist
    regions (signed crossing counts, stacked top to bottom).

    The crossing count of the result is 2 * crossings(d) + sum(|n_i|).
    Raises :class:`SymmetricUnionError` when the twist total is even, which
    would make the assembly a two-component link instead of a knot.
    """
    if not d.is_knot:
        raise InvalidDiagram("symmetric union takes a knot diagram")
    tw = knot_twists(twists)
    m = sum(abs(x) for x in tw)
    signs = []
    for n in tw:
        signs.extend([1 if n > 0 else -1] * abs(n))

    # The twist channel carries two antiparallel strands: L runs downward
    # from D through all the crossings, R runs back upward into the mirror
    # half.  They swap columns at each crossing (a genuine twist region),
    # so an odd total lets L cross over to the mirror side (a knot); an
    # even total, refused above, closes each half onto itself (a link).
    if d.crossings:
        shift = d.edge_count
        fresh = 2 * shift + 1
        # keep D's labels; the mirror's edge e + shift corresponds to e
        recs = _records(d) + _mirror_records(d, shift)
        e = d.edge_count          # splice edge of D (highest label)
        e_mirror = e + shift
        L = [0] * (m + 1)
        R = [0] * (m + 1)
        L[0] = e              # continues D's outgoing half
        R[m] = e_mirror       # continues the mirror's outgoing half
        for j in range(1, m + 1):
            L[j] = fresh
            fresh += 1
            R[j - 1] = fresh
            fresh += 1
        recs = _reroute_heads(recs, {e_mirror: L[m], e: R[0]})
    else:
        # seed is the crossingless unknot: each half is a bare arc, so the
        # channel strands tie directly into each other at both ends
        L = [0] * (m + 1)
        R = [0] * (m + 1)
        fresh = 1
        for j in range(m + 1):
            L[j] = fresh
            fresh += 1
            R[j] = fresh
            fresh += 1
        rename = {R[0]: L[0], R[m]: L[m]}
        R = [rename.get(x, x) for x in R]
        recs = []

    for j in range(1, m + 1):
        lin, lout = L[j - 1], L[j]
        rin, rout = R[j], R[j - 1]
        if signs[j - 1] > 0:
            tup = (rin, lout, rout, lin) if j % 2 else (lin, rout, lout, rin)
            recs.append((tup, 3))
        else:
            tup = (lin, rin, lout, rout) if j % 2 else (rin, lin, rout, lout)
            recs.append((tup, 1))

    name = f"su({d.name or 'knot'};{','.join(str(x) for x in tw)})"
    try:
        out = _assemble(recs, 0, name)
    except InvalidDiagram as exc:
        raise SymmetricUnionError(f"assembly failed: {exc}") from exc
    if not out.is_knot:
        raise SymmetricUnionError(
            f"the union closes into {out.n_components} components, not a knot")
    return out


# ---------------------------------------------------------------------------
# random diagrams


def random_diagram(seed: int, n: int) -> Diagram:
    """A seeded valid one-component diagram with at most n crossings.

    Samples random Gauss sequences with random over/under and crossing
    handedness, realized in the plane by rejection; repeated failures
    lower the crossing count (never below 3), so this is a reproducibility
    knob rather than a uniform sampler.
    """
    if n < 3:
        raise ValueError("need at least 3 crossings")
    rng = random.Random(seed)
    target = n
    while True:
        for _ in range(400):
            d = _try_random(rng, target)
            if d is not None:
                return d
        target = max(3, rng.randrange(3, max(4, target)))


def _try_random(rng: random.Random, n: int) -> Diagram | None:
    visits = list(range(n)) * 2
    rng.shuffle(visits)
    tuples = []
    # edge k runs from visit position k to k+1; labels are 1-based
    position_of: dict = {}
    for pos, ci in enumerate(visits):
        position_of.setdefault(ci, []).append(pos)
    for ci in range(n):
        p1, p2 = position_of[ci]
        if rng.random() < 0.5:
            under_pos, over_pos = p1, p2
        else:
            under_pos, over_pos = p2, p1
        a = under_pos + 1                      # incoming under edge
        c = (under_pos + 1) % (2 * n) + 1      # outgoing under edge
        o_in = over_pos + 1
        o_out = (over_pos + 1) % (2 * n) + 1
        if rng.random() < 0.5:
            tuples.append((a, o_out, c, o_in))   # over at position 3: positive
        else:
            tuples.append((a, o_in, c, o_out))   # negative
    try:
        d = Diagram(tuple(tuples))
    except InvalidDiagram:   # among others, every non-planar sample
        return None
    return d if d.is_knot else None


def random_symmetric_union(seed: int, n: int, twists=(1,)) -> Diagram:
    """A seeded ribbon knot: symmetric union of a random <= n crossing seed.

    Twists with an even total raise :class:`SymmetricUnionError` at once:
    every union is then a link, and no seed would do.  Any other
    :class:`SymmetricUnionError` is a fault of the generator, and is raised
    rather than retried with another seed."""
    twists = knot_twists(twists)
    rng = random.Random(seed)
    return symmetric_union(random_diagram(rng.randrange(1 << 30), n), twists)

"""Planar-diagram (PD) codes for oriented knot and link diagrams.

A PD code lists one 4-tuple of edge labels per crossing, counterclockwise
starting at the incoming under-strand.  Edge labels are positive integers
and go up by one along each component, wrapping once from the component's
largest label to its smallest; that label rule is what orients the
diagram.  This matches the convention in which standard knot tables and
the bundled corpus codes are written.

So each crossing ``(a, b, c, d)`` is oriented locally.  The under-strand
runs ``a -> c``.  When the over labels ``b, d`` are adjacent or equal, the
over-strand runs upward from the smaller one, unless that edge already
runs into a crossing, in which case it runs from the larger; further
apart, it is the wrap and runs from the larger.  Under-strands claim their
edges first, then over-strands in crossing order, so a two-edge component
that only passes over runs upward at its smallest crossing index.

Validation also decides planarity.  The tuples give a rotation system:
the four slots of a crossing in counterclockwise order, joined in pairs
by the edges.  Its faces are counted in one walk, and a code whose
system does not embed in the plane (a virtual diagram) raises
:class:`InvalidDiagram` naming the genus of the surface it needs.

Crossing-free unknot components cannot be expressed by 4-tuples, so a
diagram carries an explicit count of them; the text form is the letter
``U`` repeated once per such component.

Diagrams are immutable: ``Diagram.__init__`` validates and sets every
field once, the orientation data (``components`` and ``signs``)
included, and assigning an attribute afterwards raises AttributeError.
All operations return new diagrams and never mutate their inputs.
"""

from __future__ import annotations

import re

from ._unionfind import UnionFind


class InvalidDiagram(ValueError):
    """The PD data does not describe a consistently oriented planar diagram.

    :func:`parse_diagram_lines` sets ``name`` to the name on the line."""

    name: str | None = None


Tuple4 = tuple[int, int, int, int]


class Diagram:
    crossings: tuple[Tuple4, ...]
    extra_components: int   # crossing-free unknot components
    name: str | None
    components: tuple[tuple[int, ...], ...]  # edge labels, in orientation order
    signs: tuple[int, ...]  # +1 or -1 per crossing

    def __init__(self, crossings, extra_components: int = 0, name: str | None = None):
        crossings = tuple(tuple(int(x) for x in t) for t in crossings)
        if extra_components < 0:
            raise InvalidDiagram("negative component count")
        if not crossings and extra_components == 0:
            raise InvalidDiagram("empty diagram: need at least one component")
        object.__setattr__(self, "crossings", crossings)
        object.__setattr__(self, "extra_components", extra_components)
        object.__setattr__(self, "name", name)
        components, signs = _trace_structure(crossings)
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "signs", signs)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}: a Diagram is immutable")

    def __eq__(self, other):
        if other.__class__ is not Diagram:
            return NotImplemented
        return (self.crossings, self.extra_components, self.name) == \
            (other.crossings, other.extra_components, other.name)

    def __hash__(self):
        return hash((self.crossings, self.extra_components, self.name))

    # -- structure ----------------------------------------------------------

    @property
    def edge_count(self) -> int:
        return 2 * len(self.crossings)

    @property
    def n_components(self) -> int:
        return len(self.components) + self.extra_components

    @property
    def is_knot(self) -> bool:
        return self.n_components == 1

    @property
    def writhe(self) -> int:
        return sum(self.signs)

    def over_pair(self, i: int) -> tuple[int, int]:
        """(incoming, outgoing) over-strand edges at crossing i."""
        _, b, _, d = self.crossings[i]
        return (d, b) if self.signs[i] == 1 else (b, d)

    # -- text form -----------------------------------------------------------

    @property
    def pd_text(self) -> str:
        if not self.crossings:
            return "U" * self.extra_components
        body = ",".join("[" + ",".join(str(x) for x in t) + "]" for t in self.crossings)
        text = "[" + body + "]"
        if self.extra_components:
            text += "U" * self.extra_components
        return text

    def __repr__(self):
        label = self.name or "diagram"
        return f"<Diagram {label}: {len(self.crossings)} crossings, {self.n_components} component(s)>"


# ---------------------------------------------------------------------------
# validation / tracing


def _trace_structure(crossings):
    slots: dict[int, list] = {}     # label -> its slots, 4 * crossing + position
    for ci, tup in enumerate(crossings):
        if len(tup) != 4:
            raise InvalidDiagram(f"crossing {ci}: expected 4 edges, got {len(tup)}")
        for slot, e in enumerate(tup, 4 * ci):
            if e <= 0:
                raise InvalidDiagram(f"crossing {ci}: edge labels must be positive, got {e}")
            slots.setdefault(e, []).append(slot)
    for e, where in slots.items():
        if len(where) != 2:
            raise InvalidDiagram(f"edge {e} appears {len(where)} times (expected exactly 2)")

    # orient locally (see the module docstring): under-strands first, then
    # over-strands in crossing order
    succ: dict[int, int] = {}
    for ci, (a, _, c, _) in enumerate(crossings):
        _claim(succ, a, c, ci)
    signs = []
    for ci, (_, b, _, d) in enumerate(crossings):
        lo, hi = min(b, d), max(b, d)
        oin = lo if hi - lo <= 1 and lo not in succ else hi
        _claim(succ, oin, b + d - oin, ci)
        signs.append(1 if oin == d != b else -1)

    # each label appears exactly twice and, by the claims, runs into one
    # crossing, so it runs out of exactly one: succ is a permutation and
    # every walk in _cycles closes
    components = _cycles(succ)
    for comp in components:
        if comp != tuple(range(comp[0], comp[0] + len(comp))):
            raise InvalidDiagram(
                f"edge labels do not go up by one along the component containing edge "
                f"{comp[0]}; each tuple must start at the incoming under-strand")
    genus = _genus(crossings, slots, components)
    if genus:
        raise InvalidDiagram(
            f"the rotation system has genus {genus}: the PD code is not planar "
            f"(a virtual diagram)")
    return components, tuple(signs)


def _genus(crossings, slots: dict, components) -> int:
    """Genus of the surface the tuples' rotation system embeds in.  Each
    piece (link components joined at crossings) with V crossings has 2V
    edges, so Euler's formula gives V + 2 - 2g faces; the diagram is
    planar when the faces number crossings + 2 * pieces."""
    # a face runs along an edge to the slot at its other end, and leaves
    # that crossing by the next slot counterclockwise: turn[s] is that
    # step, and each face one of its cycles
    turn = [0] * (4 * len(crossings))
    for s, t in slots.values():
        turn[s] = t - 3 if t % 4 == 3 else t + 1
        turn[t] = s - 3 if s % 4 == 3 else s + 1
    faces = 0
    for start in range(len(turn)):
        if turn[start] >= 0:
            faces += 1
            s = start
            while turn[s] >= 0:     # walk the face, marking its slots
                turn[s], s = -1, turn[s]
    pieces = len(components)    # a knot is one piece
    if pieces > 1:
        comp_of = {e: k for k, comp in enumerate(components) for e in comp}
        joined = UnionFind()
        pieces -= sum(joined.union(comp_of[a], comp_of[b]) for a, b, _, _ in crossings)
    return (len(crossings) + 2 * pieces - faces) // 2


def _claim(succ: dict, e: int, f: int, ci: int) -> None:
    """Record that edge ``e`` runs into crossing ``ci`` and leaves it as ``f``."""
    if e in succ:
        raise InvalidDiagram(f"crossing {ci}: edge {e} already runs into another crossing")
    succ[e] = f


def _cycles(succ: dict) -> tuple[tuple[int, ...], ...]:
    """Cycles of the permutation ``succ``, each from its smallest label,
    ordered by that label."""
    seen = set()
    cycles = []
    for e0 in sorted(succ):
        if e0 in seen:
            continue
        cyc = [e0]
        e = succ[e0]
        while e != e0:
            cyc.append(e)
            e = succ[e]
        seen.update(cyc)
        cycles.append(tuple(cyc))
    return tuple(cycles)


# ---------------------------------------------------------------------------
# parsing and files


# a PD code after whitespace removal: 4-tuples of ASCII digits in brackets,
# commas between tuples optional, a trailing comma in a tuple allowed
_PD_CODE = re.compile(r"\[(?:,|\[[0-9]+(?:,[0-9]+){3},?\])*\]")
_PD_TUPLE = re.compile(r"\[([0-9]+(?:,[0-9]+){3}),?\]")


def parse_pd(text: str, name: str | None = None) -> Diagram:
    """Parse a PD code: nested brackets of 4-tuples, or ``U`` per unknot."""
    stripped = "".join(text.split())
    if not stripped:
        raise InvalidDiagram("empty PD text")
    code = stripped.strip("Uu")
    unknots = len(stripped) - len(code)
    if not code:
        return Diagram((), unknots, name)
    if not _PD_CODE.fullmatch(code):
        raise InvalidDiagram(
            f"PD code must be bracketed 4-tuples of ASCII digits: {text!r}")
    try:
        tuples = tuple(tuple(int(x) for x in t.split(","))
                       for t in _PD_TUPLE.findall(code))
    except ValueError as exc:   # a label past int()'s digit limit
        raise InvalidDiagram(str(exc)) from None
    return Diagram(tuples, unknots, name)


def parse_diagram_lines(text: str) -> list[Diagram | InvalidDiagram]:
    """One entry per record line, ``name<TAB>pd_code`` (lines starting '#'
    ignored): the diagram, or the :class:`InvalidDiagram` its line raised."""
    out = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, tab, pd = line.partition("\t")
        name = name.strip()
        try:
            if not tab:
                raise InvalidDiagram(f"line {lineno}: expected 'name<TAB>pd_code'")
            out.append(parse_pd(pd, name=name))
        except InvalidDiagram as exc:
            exc.name = name
            out.append(exc)
    return out


def parse_diagram_file(text: str) -> list[Diagram]:
    """The diagrams of :func:`parse_diagram_lines`; the first line that
    does not parse raises its :class:`InvalidDiagram`."""
    out = parse_diagram_lines(text)
    for d in out:
        if isinstance(d, InvalidDiagram):
            raise d
    return out


def format_diagram_file(diagrams) -> str:
    lines = []
    for i, d in enumerate(diagrams):
        lines.append(f"{d.name or f'knot{i}'}\t{d.pd_text}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# rebuilding after surgery: records carry explicit over-strand direction


def _assemble(records, extra_components=0, name=None) -> Diagram:
    """Build a diagram from (tuple4, over_in_position) records with arbitrary
    labels, relabeling edges canonically (1..2n, increasing along each
    component, components ordered by smallest old label)."""
    succ: dict[int, int] = {}
    for ci, (tup, oin_pos) in enumerate(records):
        for pos in (0, oin_pos):
            _claim(succ, tup[pos], tup[(pos + 2) % 4], ci)
    # _cycles needs a permutation: the tails must be the heads once each
    if sorted(succ.values()) != sorted(succ):
        raise InvalidDiagram("edges with missing head or tail")
    relabel = {e: k for k, e in enumerate((e for cyc in _cycles(succ) for e in cyc), 1)}
    return Diagram(tuple(tuple(relabel[e] for e in tup) for tup, _ in records),
                   extra_components, name)


def _records(d: Diagram) -> list:
    """d's (tuple4, over_in_position) records: the over-in position encodes the sign."""
    return [(tup, 3 if sign == 1 else 1) for tup, sign in zip(d.crossings, d.signs)]


# ---------------------------------------------------------------------------
# operations


def _mirror_records(d: Diagram, shift: int = 0) -> list:
    """The records of d's mirror image, with ``shift`` added to every label."""
    return [((a + shift, dd + shift, c + shift, b + shift), 4 - oin)
            for (a, b, c, dd), oin in _records(d)]


def mirror(d: Diagram) -> Diagram:
    """Mirror image: reflect the projection, negating every crossing sign."""
    return _assemble(_mirror_records(d), d.extra_components, f"m({d.name})" if d.name else None)


def connected_sum(d1: Diagram, d2: Diagram, e1: int | None = None,
                  e2: int | None = None) -> Diagram:
    """Connected sum of two knot diagrams, spliced at the given edges
    (defaults: the highest-labeled edge of each)."""
    if not d1.is_knot or not d2.is_knot:
        raise InvalidDiagram("connected sum requires knot diagrams")
    name = None
    if d1.name and d2.name:
        name = f"{d1.name}#{d2.name}"
    if not d1.crossings:
        return Diagram(d2.crossings, d2.extra_components, name)
    if not d2.crossings:
        return Diagram(d1.crossings, d1.extra_components, name)
    if e1 is None:
        e1 = d1.edge_count
    if e2 is None:
        e2 = d2.edge_count
    if e1 not in d1.components[0] or e2 not in d2.components[0]:
        raise InvalidDiagram("splice edge not present")
    shift = d1.edge_count
    recs = _records(d1)
    for tup, oin in _records(d2):
        recs.append((tuple(e + shift for e in tup), oin))
    e2s = e2 + shift
    return _assemble(_reroute_heads(recs, {e1: e2s, e2s: e1}), 0, name)


def _reroute_heads(recs, labels: dict) -> list:
    """The records with each edge of ``labels`` renamed at its head slot,
    position 0 (under-in) or the over-in position.  All edges are renamed
    at once, so two edges may swap labels."""
    return [(tuple(labels.get(e, e) if pos in (0, oin_pos) else e
                   for pos, e in enumerate(tup)), oin_pos)
            for tup, oin_pos in recs]

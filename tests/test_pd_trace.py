"""The label-rule validator against the strand-walking oracle, composed with
the planarity oracle: both accept and reject the same PD codes, and agree
on the structure they derive.  A :class:`Diagram` keeps only its
components and signs, so its successor map and over-in edges are derived
from those two and compared as well."""

import random
from pathlib import Path

from knotrank.corpus import load_corpus
from knotrank.diagram import Diagram, InvalidDiagram, parse_diagram_file
from pd_trace_oracle import trace_structure_walked
from planarity_oracle import is_planar

POOL_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "symunion_pool.pd"


def outcome(trace, crossings):
    try:
        comps, succ, over_in, signs = trace(crossings)
    except InvalidDiagram:
        return None
    return comps, list(succ.items()), over_in, signs


def traced(crossings):
    """(components, successor, over_in, signs) as a diagram derives them
    from its components and signs: the label rule runs each component up
    by one, and ``over_pair`` gives the incoming over-strand edge."""
    d = Diagram(crossings)
    succ = {e: comp[(k + 1) % len(comp)]
            for comp in d.components for k, e in enumerate(comp)}
    over_in = tuple(d.over_pair(i)[0] for i in range(len(crossings)))
    return d.components, succ, over_in, d.signs


def mutated(rng: random.Random, crossings):
    """One seeded mutation: swap two slots, rotate a tuple, relabel two
    edges, or mirror a tuple."""
    tuples = [list(t) for t in crossings]
    kind = rng.randrange(4)
    i = rng.randrange(len(tuples))
    if kind == 0:
        j = rng.randrange(len(tuples))
        p, q = rng.randrange(4), rng.randrange(4)
        tuples[i][p], tuples[j][q] = tuples[j][q], tuples[i][p]
    elif kind == 1:
        k = rng.randrange(1, 4)
        tuples[i] = tuples[i][k:] + tuples[i][:k]
    elif kind == 2:
        labels = sorted({e for t in tuples for e in t})
        x, y = rng.choice(labels), rng.choice(labels)
        swap = {x: y, y: x}
        tuples = [[swap.get(e, e) for e in t] for t in tuples]
    else:
        a, b, c, d = tuples[i]
        tuples[i] = [a, d, c, b]
    return tuple(tuple(t) for t in tuples)


def shuffled_code(rng: random.Random, n: int):
    """n crossings holding each of 2n labels, from a random offset, twice."""
    start = 1 + rng.randrange(3)
    labels = [e for e in range(start, start + 2 * n) for _ in range(2)]
    rng.shuffle(labels)
    return tuple(tuple(labels[4 * k:4 * k + 4]) for k in range(n))


def random_code(rng: random.Random, n: int):
    """n crossings built from label-rule components whose labels start at
    random offsets: each crossing takes one oriented transition as its
    under-strand and one, in either order, as its over-strand."""
    transitions = []
    left, start = 2 * n, 1 + rng.randrange(3)
    while left:
        size = rng.randint(1, left)
        labels = list(range(start, start + size))
        transitions += zip(labels, labels[1:] + labels[:1])
        left -= size
        start += size + rng.randrange(3)
    rng.shuffle(transitions)
    code = []
    for k in range(n):
        (a, c), (b, d) = transitions[2 * k], transitions[2 * k + 1]
        code.append((a, d, c, b) if rng.random() < 0.5 else (a, b, c, d))
    return tuple(code)


def trace_walked_planar(crossings):
    """The walked structure of a PD code that is also planar."""
    out = trace_structure_walked(crossings)
    if not is_planar(crossings):
        raise InvalidDiagram("not planar")
    return out


def test_label_rule_matches_strand_walk():
    rng = random.Random(11)
    base = [d.crossings for d in load_corpus().values() if d.crossings]
    base += [d.crossings for d in parse_diagram_file(POOL_FILE.read_text())]
    base += [random_code(rng, rng.randint(1, 6)) for _ in range(2000)]
    cases = base + [shuffled_code(rng, rng.randint(1, 6)) for _ in range(2000)]
    cases += [mutated(rng, crossings) for crossings in base for _ in range(3)]
    counts = {"accepted": 0, "label rule": 0, "not planar": 0}
    for crossings in cases:
        want = outcome(trace_walked_planar, crossings)
        assert outcome(traced, crossings) == want, crossings
        if want is not None:
            counts["accepted"] += 1
        elif outcome(trace_structure_walked, crossings) is None:
            counts["label rule"] += 1
        else:
            counts["not planar"] += 1
    # each outcome is exercised, as many times as the seeded cases give
    assert counts == {"accepted": 1573, "label rule": 4551, "not planar": 4720}

"""Compose templates glued whole: an oracle for
:func:`knotrank.khovanov._compose_template`, which carries the identity
strips past a local surface instead.

Here every cycle of ma u mb and of mb u mc is a piece of one ``Glue``,
glued along every arc of mb, and each dot mask is expanded through it.
"""

from __future__ import annotations

from knotrank.cobordism import MASK_BITS, Glue, cycles_of


class ExpansionTable(dict):
    """dot mask -> packed expansion of one glue template, sorted by key,
    filled on use."""

    def __init__(self, glue: Glue):
        self.glue = glue

    def __missing__(self, dots):
        terms = self[dots] = tuple(sorted(
            ((tadd << MASK_BITS) | om, mult)
            for om, mult, tadd in self.glue.expand(dots)))
        return terms


def compose_template_glued(ma: tuple, mb: tuple, mc: tuple) -> tuple:
    """(table, m1) for entries ma -> mb -> mc: the packed expansions of the
    glued cobordism by dot masks (mask1 | mask2 << m1)."""
    pc1, firsts1 = cycles_of(ma, mb)
    pc2, firsts2 = cycles_of(mb, mc)
    _, firsts3 = cycles_of(ma, mc)
    m1 = len(firsts1)
    contacts = [(pc1[p], m1 + pc2[p]) for p, _ in mb]
    boundary = [(pc1[p], ("out", cyc)) for cyc, p in enumerate(firsts3)]
    return ExpansionTable(Glue(m1 + len(firsts2), contacts, boundary)), m1
